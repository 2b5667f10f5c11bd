#!/usr/bin/env python3
"""Protocol independence: the same workload over three network layers.

The paper (§IV-B) insists U-P2P "can be implemented in any peer-to-peer
network"; its community schema enumerates Napster, Gnutella and
FastTrack.  This script measures claim E3 of the results ledger
(:mod:`repro.report`): an identical design-pattern workload over the
three protocol adapters, sequential and with eight queries in flight,
and prints its cost/recall table and the relations it must satisfy.

Run with:  python examples/protocol_comparison.py
"""

from __future__ import annotations

from repro.report import CLAIMS, render_claim


def main() -> None:
    print("running the same design-pattern workload on 60 peers over each organisation…\n")
    entry = CLAIMS["E3"].measure()
    print(render_claim("E3", entry))
    failing = [name for name, holds in entry["relations"].items() if not holds]
    assert not failing, f"E3 relations fail: {failing}"
    print("reading the table:")
    print(" * the centralized (Napster-style) index answers in 2 messages but is a single point of failure;")
    print(" * Gnutella-style flooding pays one to two orders of magnitude more messages for the same recall;")
    print(" * the FastTrack-style super-peer overlay sits in between — the trade-off U-P2P deliberately")
    print("   leaves to the underlying network layer.")


if __name__ == "__main__":
    main()
