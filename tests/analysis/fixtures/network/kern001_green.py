"""KERN001 green: routed sends and timers."""


def behave(simulator, kernel, peer_id: str) -> None:
    simulator.post(10.0, print, peer_id)
    simulator.post_keyed(peer_id, 10.0, print, peer_id)
    kernel.every(100.0, print, peer_id)
