"""The discrete-event simulation engine underneath the protocol adapters.

The engine turns each protocol's ``search`` from a synchronous graph
walk into message traffic over a shared event queue: messages are
scheduled for delivery after the simulated link latency, per-peer
handlers react to arriving messages by producing more messages, and a
query completes when none of its messages remain in flight.  This is
what lets many queries overlap in virtual time and lets churn strike a
query mid-flight.
"""

from repro.engine.kernel import (
    EventKernel,
    ExchangeContext,
    MaintenanceTimer,
    MembershipContext,
    QueryContext,
    RetrieveContext,
)
from repro.engine.driver import BatchOutcome, QueryDriver, RetrieveOp, SearchOp

__all__ = [
    "EventKernel",
    "ExchangeContext",
    "MaintenanceTimer",
    "MembershipContext",
    "QueryContext",
    "RetrieveContext",
    "QueryDriver",
    "BatchOutcome",
    "SearchOp",
    "RetrieveOp",
]
