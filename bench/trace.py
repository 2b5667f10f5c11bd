"""Outside-in span tracing: wrappers on the layers' public callables.

The program has no trace hooks of its own (a ``TraceSink`` inside
``src/`` is a later issue), so the harness installs timing wrappers
*before* a scenario is built:

* on class attributes (``EventKernel.send``, ``AttributeIndex.add``, ...);
* on module-level functions, in every ``repro.*`` module namespace that
  holds a reference (``from repro.xmlkit.parser import parse as
  parse_xml`` binds the function object at import time, so patching the
  defining module alone would miss every importer);
* on message handlers and recurring timer callbacks, wrapped as they
  pass through the public ``EventKernel.register`` / ``EventKernel.every``.

Spans are aggregated in memory per ``(span, parent)`` — never per call,
a flood is a million sends — and read out when the run ends.  A span's
*self* time is its duration minus the part its child spans cover.  The
wrappers' own cost lands in the parent's self time, which is why the
end-to-end numbers are always measured with tracing off and the
traced-to-untraced ratio is reported beside the layer numbers.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional

ROOT = "<root>"


class Tracer:
    """Span aggregation plus the bookkeeping to undo every patch."""

    def __init__(self) -> None:
        #: (span, parent) -> [calls, total seconds, seconds inside child spans]
        self.spans: dict[tuple[str, str], list] = {}
        #: plain counters taken at the same boundaries as the spans
        self.counts: Counter = Counter()
        #: every ``AttributeIndex`` built while traced (the servents' and
        #: the adapters' own), for a ``posting_bytes`` sum at read-out
        self.indexes: list = []
        self._stack: list[list] = [[ROOT, 0.0]]
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span(self, name: str, function: Callable,
             observe: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        """``function`` timed as span ``name``; ``observe(args, result)``
        takes counts at the same boundary."""
        stack, spans = self._stack, self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                record = spans.get((name, parent[0]))
                if record is None:
                    record = spans[(name, parent[0])] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def counted(self, name: str, function: Callable) -> Callable:
        """``function`` with its calls counted and nothing timed."""
        counts = self.counts

        def counting(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return function(*args, **kwargs)

        return counting

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def patch_method(self, classes: tuple, attribute: str,
                     wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``attribute`` on every listed class that defines it
        itself (an adapter overriding ``publish`` is wrapped where it
        overrides; a ``super()`` call then nests two spans of one name,
        which :meth:`totals` counts once)."""
        for cls in classes:
            if attribute in cls.__dict__:
                self._set(cls, attribute, wrap(cls.__dict__[attribute]))

    def patch_function(self, function: Callable,
                       wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``function`` in every ``repro.*`` namespace holding it."""
        wrapped = wrap(function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def totals(self, name: str) -> tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` of one span name.

        Calls and total time skip a span nested directly inside itself
        (an override calling ``super()``), so one logical call counts
        once; self time sums over every instance.
        """
        calls, total, self_time = 0, 0.0, 0.0
        for (span, parent), (count, elapsed, in_children) in self.spans.items():
            if span != name:
                continue
            self_time += elapsed - in_children
            if parent != name:
                calls += count
                total += elapsed
        return calls, total, self_time

    def self_by_span(self) -> dict[str, float]:
        """Self seconds per span name so far (they partition the traced
        wall; the difference of two read-outs is one phase's share)."""
        result: dict[str, float] = {}
        for (span, _parent), (_count, elapsed, in_children) in self.spans.items():
            result[span] = result.get(span, 0.0) + elapsed - in_children
        return result

    def table(self) -> list[dict]:
        """The raw ``(span, parent)`` aggregation, for the record."""
        return [{"span": span, "parent": parent, "calls": count,
                 "total_s": elapsed, "self_s": elapsed - in_children}
                for (span, parent), (count, elapsed, in_children)
                in sorted(self.spans.items())]


def install(tracer: Tracer) -> None:
    """Patch every traced boundary.  Call before ``build_scenario``."""
    # Imported here so importing this module never pulls ``repro`` in.
    from repro.core.application import Application
    from repro.core.servent import Servent
    from repro.core.stylesheets import StylesheetSet
    from repro.engine.driver import QueryDriver
    from repro.engine.kernel import EventKernel
    from repro.network.base import PeerNetwork
    from repro.network.faults import FaultModel
    from repro.network.simulator import NetworkSimulator
    from repro.network.stats import NetworkStats
    from repro.schema import parser as schema_parser, validator as schema_validator
    from repro.storage import plan as storage_plan
    from repro.storage.cache import QueryResultCache
    from repro.storage.index import AttributeIndex
    from repro.storage.repository import LocalRepository
    from repro.workloads import queries as workload_queries, scenario as scenario_module
    from repro.xmlkit import parser as xml_parser
    from repro.xslt import parser as xslt_parser

    counts = tracer.counts

    def spanned(name: str, observe: Optional[Callable] = None) -> Callable:
        return lambda function: tracer.span(name, function, observe)

    def counted(name: str) -> Callable:
        return lambda function: tracer.counted(name, function)

    networks = (PeerNetwork, *scenario_module.PROTOCOLS.values())
    for classes, attribute, name in (
        ((Servent,), "__init__", "core.servent.init"),
        ((Servent,), "search_communities", "core.servent.search_communities"),
        ((Servent,), "join_community", "core.servent.join_community"),
        ((Application,), "publish", "core.application.publish"),
        ((StylesheetSet,), "__init__", "core.stylesheets.init"),
        ((LocalRepository,), "publish", "storage.repository.publish"),
        ((AttributeIndex,), "add", "storage.index.add"),
        ((AttributeIndex,), "remove", "storage.index.remove"),
        ((EventKernel,), "send", "engine.kernel.send"),
        ((EventKernel,), "run_until_complete", "engine.kernel.run_until_complete"),
        ((QueryDriver,), "run_mixed", "engine.driver.run_mixed"),
        ((NetworkSimulator,), "post", "network.simulator.post"),
        ((NetworkStats,), "record", "network.stats.record"),
        ((FaultModel,), "decide", "network.faults.decide"),
        (networks, "publish", "network.base.publish"),
        (networks, "start_search", "network.base.start_search"),
        (networks, "finish_search", "network.base.finish_search"),
    ):
        tracer.patch_method(classes, attribute, spanned(name))

    def note_ids(_args: tuple, result: Any) -> None:
        counts["storage.plan.evaluate_ids"] += len(result)

    tracer.patch_method((storage_plan.CompiledQuery,), "evaluate",
                        spanned("storage.plan.evaluate", note_ids))

    def note_index(args: tuple, _result: Any) -> None:
        tracer.indexes.append(args[0])

    tracer.patch_method((AttributeIndex,), "__init__",
                        lambda function: _observed(function, note_index))

    for attribute, name in (("put", "storage.cache.puts"),
                            ("bump_version", "storage.cache.invalidations"),
                            ("invalidate_provider", "storage.cache.invalidations")):
        tracer.patch_method((QueryResultCache,), attribute, counted(name))

    def note_chars(args: tuple, _result: Any) -> None:
        counts["xmlkit.parser.parse_chars"] += len(args[0])

    for function, name, observe in (
        (xml_parser.parse, "xmlkit.parser.parse", note_chars),
        (xslt_parser.parse_stylesheet_text, "xslt.parser.parse", None),
        (schema_parser.parse_schema_text, "schema.parser.parse", None),
        (schema_validator.validate, "schema.validator.validate", None),
        (storage_plan.compile_query, "storage.plan.compile", None),
        (scenario_module.build_network, "workloads.scenario.build_network", None),
        (workload_queries.build_query_workload, "workloads.queries.build", None),
        (scenario_module.build_scenario, "workloads.scenario.build", None),
    ):
        tracer.patch_function(function, spanned(name, observe))

    # Handlers and timer callbacks are bound methods created per
    # network instance; they are wrapped on their way into the kernel.
    def wrap_register(register: Callable) -> Callable:
        def traced_register(kernel: Any, message_type: Any, handler: Callable) -> None:
            register(kernel, message_type,
                     tracer.span(f"network.handler.{message_type.value}", handler))
        return traced_register

    def wrap_every(every: Callable) -> Callable:
        def traced_every(kernel: Any, interval_ms: float, callback: Callable,
                         *args: Any, **kwargs: Any) -> Any:
            return every(kernel, interval_ms,
                         tracer.span("engine.kernel.timer", callback), *args, **kwargs)
        return traced_every

    tracer.patch_method((EventKernel,), "register", wrap_register)
    tracer.patch_method((EventKernel,), "every", wrap_every)


def _observed(function: Callable, observe: Callable[[tuple, Any], None]) -> Callable:
    """``function`` with ``observe(args, result)`` called after it."""
    def observing(*args: Any, **kwargs: Any) -> Any:
        result = function(*args, **kwargs)
        observe(args, result)
        return result
    return observing
