"""Deterministic fault injection for the peer-to-peer substrate.

The simulator's links are perfect by default: nothing is ever lost,
duplicated or delayed beyond the latency model, and the only failure
mode is a peer churning offline.  This module adds the faults a real
deployment actually sees — per-link message loss, duplication, extra
delay, scheduled partitions between topology regions and crash-stop
peer failures — while keeping every run bit-reproducible.

Determinism contract
--------------------
Fault decisions never touch an RNG stream anything else draws from, so
the latency model's per-pair jitter and the workload and churn streams
are never perturbed: a :class:`FaultPlan` with all rates at ``0.0``
produces runs bit-identical to ``faults=None``.

Each decision is a pure function of the message's *content identity*:
``f"{seed}:{sender}:{recipient}:{now_ms:.6f}"``, with ``#k`` appended
for the ``k``-th repeat of one link at one instant.  The identity's
16-byte BLAKE2b digest is read as four little-endian 32-bit lanes,
each scaled by 2**-32 into ``[0, 1)``: the loss, duplicate, delay and
lag rolls, always all four, in that order.  A rate of ``0.0`` never
fires and ``1.0`` always does.

Content keying is what makes the counters reproducible.  A global
``msg-N`` token would break run-twice reproducibility (the counter
never resets within one interpreter), and a send *ordinal* would break
process-parallel execution, where each worker executes only its own
shards' sends and counts a different ordinal sequence.  The identity
is the same whichever execution order, shard count, worker process or
interpreter hash seed evaluates the send.

The occurrence table behind ``#k`` holds one instant only.  The kernel
always passes ``simulator.now``, which never goes back in the serial
drive loop or in the sharded simulator's global order, so the first
send at a new instant can never repeat an earlier key, and the table is
cleared whenever the formatted instant changes.  Comparing the
formatted string, not the float, keeps two floats that round to the
same ``.6f`` on one shared count.  A process-parallel worker rewinds
its clock in two places.  A replicated document completion runs with
sends suppressed, so it never reaches :meth:`FaultModel.decide`.  At a
batch's exit, ``align_exit_clock`` pins the clock back to the batch's
settle instant, which the worker may have run past inside its window.
A send after the pin at an instant the worker had already passed
restarts its link's count at ``#0``.  It differs from a serial run only
if the same link had already sent at that exact instant before the pin.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class PartitionWindow:
    """One scheduled link partition: traffic between the two sides is
    cut during ``[start_ms, end_ms)`` and heals afterwards.

    Only links *crossing* the cut are affected; traffic within either
    side (or touching a node named on neither side) flows normally.
    """

    start_ms: float
    end_ms: float
    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into one run.

    Rates are per-message probabilities in ``[0, 1]``; a message is
    first tested against any partition window (a deterministic cut,
    no randomness), then against loss, duplication and extra delay.
    ``link_loss`` overrides the default ``loss_rate`` for specific
    links (symmetric; ``(a, b, rate)`` covers both directions).
    ``crashes`` schedules crash-stop failures: ``(peer_id, at_ms)``
    takes the peer offline permanently at that virtual time.

    All times (partition windows, crash instants) are relative to the
    moment the plan is *installed* on a network — at construction for a
    directly-built network, at the start of the workload phase for a
    scenario (bootstrap is structural setup and stays fault-free).
    """

    seed: int = 0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    extra_delay_rate: float = 0.0
    extra_delay_ms: float = 0.0
    #: duplicated deliveries arrive up to this long after the original
    duplicate_spread_ms: float = 40.0
    link_loss: tuple[tuple[str, str, float], ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    crashes: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "extra_delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate!r}")
        if self.extra_delay_ms < 0 or self.duplicate_spread_ms < 0:
            raise ValueError("fault delays must be non-negative")
        for source, target, rate in self.link_loss:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"link loss rate for {source!r}<->{target!r} must be "
                    f"within [0, 1], got {rate!r}")
        for window in self.partitions:
            if window.start_ms < 0 or window.end_ms <= window.start_ms:
                raise ValueError("partition windows need 0 <= start < end")
            if not window.left or not window.right:
                raise ValueError("partition windows need nodes on both sides")
        for peer_id, at_ms in self.crashes:
            if at_ms < 0:
                raise ValueError(f"crash time for {peer_id!r} must be non-negative")


class FaultDecision:
    """What the fault model decided for one message send."""

    __slots__ = ("drop", "partitioned", "duplicate", "extra_delay_ms",
                 "duplicate_lag_ms")

    def __init__(self, *, drop: bool = False, partitioned: bool = False,
                 duplicate: bool = False, extra_delay_ms: float = 0.0,
                 duplicate_lag_ms: float = 0.0) -> None:
        self.drop = drop
        self.partitioned = partitioned
        self.duplicate = duplicate
        self.extra_delay_ms = extra_delay_ms
        self.duplicate_lag_ms = duplicate_lag_ms


#: the no-fault decision, shared: the common case allocates nothing
_CLEAN = FaultDecision()
_PARTITION_DROP = FaultDecision(drop=True, partitioned=True)
_LOSS_DROP = FaultDecision(drop=True)

#: a roll is one little-endian 32-bit digest lane scaled by 2**-32, so
#: ``roll < rate`` is tested, exactly, as ``lane < rate * 2**32``
_LANES = struct.Struct("<4I").unpack
_LANE_RANGE = 2.0 ** 32


class FaultModel:
    """Executable form of a :class:`FaultPlan`.

    The kernel consults :meth:`decide` once per message send (local
    deliveries — sender == recipient — are never faulted; they model
    in-process work, not a link).
    """

    def __init__(self, plan: FaultPlan, *, epoch_ms: float = 0.0) -> None:
        self.plan = plan
        #: virtual time the plan was installed; window times are
        #: interpreted relative to it
        self.epoch_ms = epoch_ms
        #: per-link loss as a lane cut (see ``_LANES``)
        self._link_loss: dict[tuple[str, str], float] = {}
        for source, target, rate in plan.link_loss:
            self._link_loss[(source, target)] = rate * _LANE_RANGE
            self._link_loss[(target, source)] = rate * _LANE_RANGE
        self._loss_cut = plan.loss_rate * _LANE_RANGE
        self._duplicate_cut = plan.duplicate_rate * _LANE_RANGE
        self._delay_cut = plan.extra_delay_rate * _LANE_RANGE
        self._partitions = [
            (window.start_ms, window.end_ms, frozenset(window.left), frozenset(window.right))
            for window in plan.partitions
        ]
        self._random_faults = bool(
            plan.loss_rate or plan.duplicate_rate or plan.extra_delay_rate
            or self._link_loss)
        # Every identity starts with the plan seed: that prefix is
        # hashed once, and each decision continues from a copy.
        self._seed_state = hashlib.blake2b(f"{plan.seed}:".encode(), digest_size=16)
        # Occurrence index per (sender, recipient, instant) key: the
        # rare repeat — one event sending twice over the same link at
        # the same virtual instant — still gets distinct draws, keyed
        # by content rather than send order.  Only the current instant
        # is held (see the module docstring).
        self._seen: dict[str, int] = {}
        self._now_ms: Optional[float] = None
        self._instant = ""

    # ------------------------------------------------------------------
    def partitioned(self, sender: str, recipient: str, now_ms: float) -> bool:
        """Is the ``sender -> recipient`` link cut at ``now_ms``?"""
        elapsed = now_ms - self.epoch_ms
        for start, end, left, right in self._partitions:
            if start <= elapsed < end and (
                    (sender in left and recipient in right)
                    or (sender in right and recipient in left)):
                return True
        return False

    def decide(self, sender: str, recipient: str, now_ms: float) -> FaultDecision:
        """One message's fate, decided at send time.

        A partition cut is deterministic and consumes no randomness;
        all probabilistic faults read this message's own content-keyed
        rolls, so enabling one fault kind never shifts the draws of
        another.
        """
        if sender == recipient:
            return _CLEAN
        if self._partitions and self.partitioned(sender, recipient, now_ms):
            return _PARTITION_DROP
        if not self._random_faults:
            return _CLEAN
        if now_ms != self._now_ms:
            self._now_ms = now_ms
            instant = f"{now_ms:.6f}"
            if instant != self._instant:
                self._instant = instant
                self._seen.clear()
        link = f"{sender}:{recipient}:{self._instant}"
        occurrence = self._seen.get(link, 0)
        self._seen[link] = occurrence + 1
        if occurrence:
            link = f"{link}#{occurrence}"
        state = self._seed_state.copy()
        state.update(link.encode())
        # The four rolls are drawn unconditionally, in a fixed order:
        # each fault kind's outcome then depends only on the message's
        # identity and its own rate — changing one rate never shifts
        # another kind's per-message pattern.
        loss, duplicate, delay, lag = _LANES(state.digest())
        loss_cut = self._link_loss.get((sender, recipient), self._loss_cut) \
            if self._link_loss else self._loss_cut
        if loss < loss_cut:
            return _LOSS_DROP
        plan = self.plan
        duplicated = duplicate < self._duplicate_cut
        extra_delay = plan.extra_delay_ms if delay < self._delay_cut else 0.0
        if not duplicated and extra_delay == 0.0:
            return _CLEAN
        lag_ms = lag / _LANE_RANGE * plan.duplicate_spread_ms if duplicated else 0.0
        return FaultDecision(duplicate=duplicated, extra_delay_ms=extra_delay,
                             duplicate_lag_ms=lag_ms)


def build_fault_model(plan: Optional[FaultPlan], *,
                      epoch_ms: float = 0.0) -> Optional[FaultModel]:
    """A :class:`FaultModel` for ``plan``, or ``None`` for no faults."""
    if plan is None:
        return None
    if not isinstance(plan, FaultPlan):
        raise TypeError(f"faults must be a FaultPlan or None, got {type(plan).__name__}")
    return FaultModel(plan, epoch_ms=epoch_ms)
