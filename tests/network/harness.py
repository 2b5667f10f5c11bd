"""What the network tests share: a scripted fake kernel for the
collaborators ``PeerNetwork`` composes, and a small population of one
organisation with its structure built.

``FakeKernel`` records what a collaborator asks of the kernel; the test
script decides which timers fire and which messages 'arrive'.
``live_network`` builds ten (or ``peer_count``) peers with maintenance
every ``INTERVAL_MS``; the caller publishes (``publish_pattern``), calls
``go_live`` and lets time pass (``settle``).
"""

from __future__ import annotations

from repro.engine.kernel import MaintenanceTimer
from repro.network.centralized import CentralizedProtocol
from repro.network.config import MembershipConfig
from repro.network.gnutella import GnutellaProtocol
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.xmlkit.parser import parse

INTERVAL_MS = 200.0


class FakeSimulator:
    def __init__(self):
        self.now = 0.0
        self.posted = []  # (key, delay_ms, callback, args), in arming order

    def post_keyed(self, key, delay_ms, callback, *args):
        self.posted.append((key, delay_ms, callback, args))

    def transfer_time(self, source, target, size_bytes, *, bandwidth_kbps):
        return 1.0

    def link_latency(self, source, target):
        return 0.5


class FakeStats:
    def __init__(self):
        self.retries = self.timeouts = self.cache_misses = 0

    def record_retry(self):
        self.retries += 1

    def record_timeout(self):
        self.timeouts += 1

    def record_cache_miss(self):
        self.cache_misses += 1


class FakeKernel:
    def __init__(self, *peers):
        self.simulator = FakeSimulator()
        self.stats = FakeStats()
        self.peers = {peer.peer_id: peer for peer in peers}
        self.virtual_nodes = set()
        self.handlers = {}
        self.sent = []
        self.released = []
        self.recurring = []  # (interval_ms, callback)

    def register(self, message_type, handler):
        self.handlers[message_type] = handler

    def send(self, message, *, context=None, latency_ms=0.0):
        self.sent.append(message)

    def release(self, context):
        self.released.append(context)
        context.pending -= 1

    def every(self, interval_ms, callback):
        self.recurring.append((interval_ms, callback))
        return MaintenanceTimer(interval_ms, callback, ())

    def note_document_completed(self, peer, context, stored):
        pass

    def fire_next_timer(self):
        _key, _delay, callback, args = self.simulator.posted.pop(0)
        callback(*args)


def live_network(name, peer_count=10, *, faults=None):
    """``peer_count`` peers of organisation ``name`` with its structure
    built, maintenance every ``INTERVAL_MS``, ``faults`` installed when
    given, nothing published yet and not live yet."""
    membership = MembershipConfig(maintenance_interval_ms=INTERVAL_MS)
    network = {
        "centralized": lambda: CentralizedProtocol(seed=3, membership=membership),
        "gnutella": lambda: GnutellaProtocol(seed=5, degree=3, membership=membership),
        "super-peer": lambda: SuperPeerProtocol(
            seed=6, super_peer_ratio=0.2, membership=membership),
        "rendezvous": lambda: RendezvousProtocol(
            seed=7, rendezvous_ratio=0.25, lease_ms=1_000.0, membership=membership),
    }[name]()
    for index in range(peer_count):
        network.create_peer(f"peer-{index:03d}")
    if name == "gnutella":
        network.build_overlay()
    elif name == "super-peer":
        network.elect_super_peers()
    elif name == "rendezvous":
        network.elect_rendezvous()
    if faults is not None:
        network.install_faults(faults)
    return network


def publish_pattern(network, peer_id, name, intent="notify dependents"):
    """Store one pattern object on ``peer_id`` and announce it."""
    peer = network.peer(peer_id)
    document = parse(f"<pattern><name>{name}</name><intent>{intent}</intent></pattern>").root
    metadata = {"name": [name], "intent": [intent]}
    result = peer.repository.publish("patterns", document, metadata, title=name)
    network.publish(peer_id, "patterns", result.resource_id, metadata, title=name)
    return result.resource_id


def settle(network, ms):
    """Run the shared queue forward so lifecycle traffic lands."""
    network.simulator.run(until_ms=network.simulator.now + ms)
