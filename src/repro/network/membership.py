"""Population dynamics: churn, arrivals, crowds.

The paper's robustness claims only mean something when the population
moves.  :class:`PopulationModel` generalizes the original on/off churn
model into the full set of lifecycle patterns the experiments need:

* **session churn** — exponentially distributed online sessions and
  absences, the classic early-file-sharing measurement model;
* **staged arrivals** — brand-new peers joining mid-run at a constant
  rate (population growth);
* **flash crowds** — a burst of simultaneous arrivals at one instant.

Everything is seeded and *everything is delivered as events on the
network's simulator queue* (via the no-allocation ``post`` fast path),
so population changes interleave deterministically with in-flight
queries, downloads and maintenance traffic.  With the network's
``live_membership`` knob on, each transition turns into real protocol
traffic (joins, heartbeats, re-registrations); with it off the model
degrades to exactly the old free-toggle behaviour.  Permanent exits are
crash-stop failures, which the fault plan schedules
(``FaultPlan.crashes`` → :meth:`PeerNetwork.depart`); a peer that left
for good is never brought back by a queued churn return.

Interplay with informed routing (``repro.network.routing``): the
attenuated Bloom filters summarize the *topology* graph, offline
peers' content included, precisely because this model toggles peers
on and off mid-query — a churned-away peer that returns before the
flood fringe arrives must still be admitted, so churn alone can never
turn a filter decision into a lost result.  Only overlay *growth*
(live-membership link repair) can race a flood, which is why the
strict routing contract runs against the static overlay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.network.base import PeerNetwork


@dataclass(frozen=True)
class MembershipEvent:
    """One recorded population change."""

    time_ms: float
    peer_id: str
    kind: str  # "depart" | "return" | "arrive"

    @property
    def online(self) -> bool:
        """Whether the peer is online after this event."""
        return self.kind in ("return", "arrive")


@dataclass
class PopulationModel:
    """Seeded population dynamics driven by the network's simulator."""

    network: PeerNetwork
    mean_session_ms: float = 30 * 60 * 1000.0
    mean_absence_ms: float = 10 * 60 * 1000.0
    seed: int = 0
    events: list[MembershipEvent] = field(default_factory=list)
    _rng: random.Random = field(init=False, repr=False)
    _arrivals: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        if self.mean_session_ms <= 0 or self.mean_absence_ms <= 0:
            raise ValueError("mean session and absence durations must be positive")
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    # Session churn
    # ------------------------------------------------------------------
    def start(self, peer_ids: Optional[list[str]] = None) -> None:
        """Schedule the first departure of every (or the given) peer."""
        ids = peer_ids if peer_ids is not None else list(self.network.peers)
        for peer_id in ids:
            self._schedule_departure(peer_id)

    def _schedule_departure(self, peer_id: str) -> None:
        delay = self._rng.expovariate(1.0 / self.mean_session_ms)
        self.network.simulator.post(delay, self._depart, peer_id)

    def _schedule_return(self, peer_id: str) -> None:
        delay = self._rng.expovariate(1.0 / self.mean_absence_ms)
        self.network.simulator.post(delay, self._return, peer_id)

    def _depart(self, peer_id: str) -> None:
        if peer_id in self.network.gone:
            return
        self.network.set_online(peer_id, False)
        self.events.append(MembershipEvent(self.network.simulator.now, peer_id, "depart"))
        self._schedule_return(peer_id)

    def _return(self, peer_id: str) -> None:
        if peer_id in self.network.gone:
            return
        self.network.set_online(peer_id, True)
        self.events.append(MembershipEvent(self.network.simulator.now, peer_id, "return"))
        self._schedule_departure(peer_id)

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def schedule_arrivals(self, count: int, *, start_ms: float = 0.0,
                          interval_ms: float = 0.0, prefix: str = "arrival",
                          churn: bool = False) -> list[str]:
        """Schedule ``count`` brand-new peers to join, the first
        ``start_ms`` from now and one every ``interval_ms`` after.

        With ``churn`` set, each newcomer enters the session-churn
        rotation after arriving.  Returns the (deterministic) ids the
        newcomers will use.
        """
        if count < 0:
            raise ValueError("the arrival count must be non-negative")
        if start_ms < 0 or interval_ms < 0:
            raise ValueError("arrival times must be non-negative")
        ids = []
        for offset in range(count):
            peer_id = f"{prefix}-{self._arrivals:04d}"
            self._arrivals += 1
            ids.append(peer_id)
            self.network.simulator.post(start_ms + offset * interval_ms,
                                        self._arrive, peer_id, churn)
        return ids

    def flash_crowd(self, count: int, *, at_ms: float, prefix: str = "crowd",
                    churn: bool = False) -> list[str]:
        """A burst: ``count`` peers all arriving ``at_ms`` from now."""
        return self.schedule_arrivals(count, start_ms=at_ms, interval_ms=0.0,
                                      prefix=prefix, churn=churn)

    def _arrive(self, peer_id: str, churn: bool) -> None:
        if peer_id in self.network.peers:
            return
        self.network.create_peer(peer_id)
        self.events.append(MembershipEvent(self.network.simulator.now, peer_id, "arrive"))
        if churn:
            self._schedule_departure(peer_id)

    # ------------------------------------------------------------------
    def expected_availability(self) -> float:
        """Steady-state probability that a churning peer is online."""
        return self.mean_session_ms / (self.mean_session_ms + self.mean_absence_ms)

    def observed_availability(self) -> float:
        """Fraction of peers currently online."""
        peers = self.network.peers
        if not peers:
            return 0.0
        return len(self.network.online_peers()) / len(peers)

    def departures(self) -> list[MembershipEvent]:
        return [event for event in self.events if not event.online]

    def arrivals(self) -> list[MembershipEvent]:
        return [event for event in self.events if event.kind == "arrive"]
