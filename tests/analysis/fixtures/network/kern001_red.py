"""KERN001 red: direct heap access and an affinity-less timer."""


def misbehave(simulator, kernel, peer_id: str) -> None:
    simulator._queue.append(None)                   # direct heap access
    kernel.every(100.0, print, peer_id)             # timer without affinity
