"""KERN001 red: direct heap access."""


def misbehave(simulator, kernel, peer_id: str) -> None:
    simulator._queue.append(None)                   # direct heap access
