"""detlint: determinism & kernel-safety static analysis for this repo.

The repository's strongest invariant — a fixed seed reproduces message
and byte counts bit-for-bit, across processes and across shard counts
(ARCHITECTURE.md "Determinism") — is easy to break with one line of
ordinary-looking Python: an unsorted ``set[str]`` iteration that
reaches a protocol decision, a builtin ``hash()`` call, a wall-clock
read in simulation code, a cross-shard send that bypasses the sharded
barrier.  Contract tests catch some of this after the fact; the PR 6
review chased a cross-process nondeterminism bug (unsorted orphan-leaf
re-attachment in ``superpeer.py``) that repeat-twice determinism tests
structurally *cannot* see, because both runs share one hash salt.

This package machine-checks those rules at lint time.  Each rule is
named and individually suppressible inline
(``# detlint: ignore[RULE] -- reason``, reason mandatory), so accepted
sites are explicit rather than invisible.  Run it as::

    python -m repro.analysis src/

The rule catalogue lives in :mod:`repro.analysis.rules`; the AST
machinery in :mod:`repro.analysis.detlint`.  Everything is stdlib-only
so the gate costs nothing to install.
"""

from repro.analysis.detlint import Finding, analyze_paths, analyze_source
from repro.analysis.rules import RULES, Rule

__all__ = ["Finding", "Rule", "RULES", "analyze_paths", "analyze_source"]
