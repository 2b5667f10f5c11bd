"""ARCHITECTURE.md describes the code as it is.

Every backticked dotted name (``Class.method``, ``module.function``,
``Class.method(args)``), every backticked name that starts with a
capital letter, every backticked repository path and every backticked
pytest node id in the document must resolve, through the first rule
that applies:

1. a ``repro`` symbol, found by import plus ``getattr``; a dataclass
   field, a slot, or an attribute assigned in ``__init__`` (or a
   dataclass's ``__post_init__``) also counts;
2. a metric name listed in ``BENCHMARK.json``, or a key of
   ``BENCH_work.json`` (the full key or a trailing dotted part of it);
3. a test class, function or constant defined under ``tests/`` (an
   ``ast`` scan, so no test module is imported);
4. a detlint rule id from ``repro.analysis.rules``;
5. an existing path, from the repository root or from ``src/repro``;
6. ``ALLOWLIST`` below.

Instance spellings do not resolve: the document writes
``CompiledQuery.cache_key``, not ``plan.cache_key``.  The file also
stays within ``MAX_LINES``, so new text has to displace old text.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "ARCHITECTURE.md"
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

MAX_LINES = 1000
MAX_PERFORMANCE_LINES = 150
MAX_PARALLEL_LINES = 10
#: one section per mechanism; each heading must stay
SECTIONS = (
    "The layers", "Membership", "Caching", "Informed routing", "Configuration surface",
    "Faults & reliability", "Contracts: one answer, no trace",
    "Adding a new protocol as a handler set", "The compiled-plan hot path", "Performance",
    "Sharding", "Parallel execution", "Determinism",
)

#: stdlib names and environment variables the document may cite
ALLOWLIST = {
    "PYTHONHASHSEED": "the interpreter's hash-salt variable, the cross-process determinism hazard",
    "TypeError": "builtin: a misspelt config keyword raises it",
    "ValueError": "builtin: a refused knob composition raises it",
    "RuntimeError": "builtin: a lookahead violation raises it",
    "xml.parsers.expat": "stdlib: the XML parser under xmlkit.parser",
    "xml.etree.ElementTree": "stdlib: the oracle the XML tests compare against",
    "functools.lru_cache": "stdlib: the parse-once flyweight memos",
    "zlib.crc32": "stdlib: the stable hash behind shard placement and Bloom filters",
    "random.Random": "stdlib: the seeded RNG every stream flows from",
    "math.fsum": "stdlib: the exact float sum the claims ledger aggregates with",
    "time.time": "stdlib: a wall-clock read detlint DET004 refuses",
    "datetime.now": "stdlib: a wall-clock read detlint DET004 refuses",
    "os.fork": "stdlib: the process start detlint KERN002 confines",
}

NAME = r"[A-Za-z_][A-Za-z0-9_]*"
DOTTED = re.compile(rf"({NAME}(?:\.{NAME})*)(?:\(.*\))?")
NODE_ID = re.compile(r"([\w./-]+\.py)::([\w:]+)(?:\[[^\]]*\])?")
PATH = re.compile(r"[\w.-]+(?:/[\w.-]+)+/?|[\w-]+/")


def cited_names(text: str) -> list[str]:
    """The checked spans of ``text``, in order, fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        span = " ".join(span.split())
        if NODE_ID.fullmatch(span):
            names.append(span)
        elif PATH.fullmatch(span):
            last = span.rstrip("/").rsplit("/", 1)[-1]
            if span.endswith("/") or "." in last:
                names.append(span)
        else:
            match = DOTTED.fullmatch(span)
            if match and ("." in match.group(1) or match.group(1)[0].isupper()):
                names.append(match.group(1))
    return names


# ---------------------------------------------------------------------------
# Rule 1: repro symbols
# ---------------------------------------------------------------------------

def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@lru_cache(maxsize=None)
def _parsed(path: Path) -> ast.Module:
    return ast.parse(_text(path), str(path))


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@lru_cache(maxsize=None)
def _repro_modules() -> dict[str, Path]:
    return {_module_name(path): path for path in sorted(SRC.rglob("*.py"))
            if path.name != "__main__.py"}


@lru_cache(maxsize=None)
def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _line_start_names(path: Path) -> frozenset[str]:
    return frozenset(re.findall(rf"^(?:async def |def |class )?({NAME})", _text(path),
                                re.MULTILINE))


def _defines(path: Path, name: str) -> bool:
    """``path`` defines ``name`` at top level: a name that starts a line
    picks the files worth parsing, and the ``ast`` decides."""
    return name in _line_start_names(path) and name in _top_level_names(_parsed(path))


def _definers(name: str) -> list[str]:
    """The repro modules that define ``name`` at top level."""
    return [module for module, path in _repro_modules().items() if _defines(path, name)]


@lru_cache(maxsize=None)
def _init_attributes(cls: type) -> frozenset[str]:
    """Attributes a repro class (or a repro base) assigns on ``self`` in
    ``__init__`` or ``__post_init__``."""
    names: set[str] = set()
    for klass in cls.__mro__:
        path = _repro_modules().get(klass.__module__)
        if path is None:
            continue
        for node in ast.walk(_parsed(path)):
            if not (isinstance(node, ast.ClassDef) and node.name == klass.__name__):
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name in (
                        "__init__", "__post_init__"):
                    for target in ast.walk(method):
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.ctx, ast.Store)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            names.add(target.attr)
    return frozenset(names)


def _resolve_chain(obj: object, parts: list[str]) -> bool:
    for position, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        if not isinstance(obj, type):
            return False
        fields = getattr(obj, "__dataclass_fields__", {}) if dataclasses.is_dataclass(obj) else {}
        if part in fields or part in _init_attributes(obj):
            # an instance attribute: nothing past it can be looked up
            return position == len(parts) - 1
        return False
    return True


def resolves_in_repro(name: str) -> bool:
    parts = name.split(".")
    modules = _repro_modules()
    for size in range(len(parts), 0, -1):
        prefix = ".".join(parts[:size])
        for module in modules:
            if module == prefix or module.endswith("." + prefix):
                if _resolve_chain(importlib.import_module(module), parts[size:]):
                    return True
    for module in _definers(parts[0]):
        if _resolve_chain(getattr(importlib.import_module(module), parts[0]), parts[1:]):
            return True
    return False


# ---------------------------------------------------------------------------
# Rules 2-5
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _metric_names() -> frozenset[str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {metric["name"] for kind in ("end_to_end", "per_layer") for metric in benchmark[kind]}
    work = json.loads((ROOT / "BENCH_work.json").read_text(encoding="utf-8"))
    for units in work.values():
        for key in units:
            parts = key.split(".")
            names.update(".".join(parts[start:]) for start in range(len(parts)))
    return frozenset(names)


@lru_cache(maxsize=None)
def _test_names(path: Path) -> frozenset[str]:
    """Top-level names of a test file, plus ``Class.member`` for the
    members of each top-level class."""
    tree = _parsed(path)
    names = _top_level_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{member}" for member in _top_level_names(
                ast.Module(body=node.body, type_ignores=[])))
    return frozenset(names)


@lru_cache(maxsize=None)
def _test_files() -> dict[str, Path]:
    """Dotted module name -> path, for every Python file under tests/."""
    return {".".join(path.relative_to(ROOT).with_suffix("").parts): path
            for path in sorted(TESTS.rglob("*.py"))}


def defined_in_tests(name: str) -> bool:
    """``name``, ``Class.member`` or ``tests.module.name`` is defined
    under tests/."""
    for module, path in _test_files().items():
        if name.startswith(module + "."):
            return name[len(module) + 1:] in _test_names(path)
    head, _, member = name.partition(".")
    return any(_defines(path, head) and (not member or name in _test_names(path))
               for path in _test_files().values())


@lru_cache(maxsize=None)
def _rule_ids() -> frozenset[str]:
    from repro.analysis.rules import RULES

    return frozenset(RULES)


def _existing_path(name: str) -> Path | None:
    for base in (ROOT, SRC):
        if (base / name).exists():
            return base / name
    return None


@lru_cache(maxsize=None)
def resolves(name: str) -> bool:
    node = NODE_ID.fullmatch(name)
    if node:
        path = _existing_path(node.group(1))
        return path is not None and node.group(2).replace("::", ".") in _test_names(path)
    return (resolves_in_repro(name)
            or name in _metric_names()
            or defined_in_tests(name)
            or name in _rule_ids()
            or _existing_path(name) is not None
            or name in ALLOWLIST)


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def _section_lengths(lines: list[str]) -> dict[str, int]:
    starts = [(n, line[3:].strip()) for n, line in enumerate(lines) if line.startswith("## ")]
    ends = [n for n, _ in starts[1:]] + [len(lines)]
    return {title: end - start for (start, title), end in zip(starts, ends)}


def test_every_cited_name_resolves():
    names = cited_names(DOC.read_text(encoding="utf-8"))
    assert len(names) > 300, "the extraction found too few names to be checking anything"
    unresolved = sorted({name for name in names if not resolves(name)})
    assert not unresolved, "names that resolve nowhere: " + ", ".join(unresolved)


def test_the_document_stays_within_its_line_budgets():
    lines = DOC.read_text(encoding="utf-8").splitlines()
    sections = _section_lengths(lines)
    assert len(lines) <= MAX_LINES
    assert [title for title in SECTIONS if title not in sections] == []
    assert sections["Performance"] <= MAX_PERFORMANCE_LINES
    assert sections["Parallel execution"] <= MAX_PARALLEL_LINES


def test_the_allowlist_stays_short_and_is_used():
    assert len(ALLOWLIST) <= 15
    cited = set(cited_names(DOC.read_text(encoding="utf-8")))
    assert sorted(set(ALLOWLIST) - cited) == []


@pytest.mark.parametrize("name", [
    "EventKernel.send_all", "DocumentStore.delete", "ResultCaches.store", "plan.cache_key",
    "repository.search", "QueryContext.plan.wire_xml", "engine/partition.py",
    "tests/network/test_contract.py::TestGeneratedContract::test_missing",
])
def test_a_stale_or_instance_spelling_does_not_resolve(name):
    assert not resolves(name)


@pytest.mark.parametrize("name", [
    "EventKernel.send_many", "CompiledQuery.cache_key", "LocalRepository.search",
    "interning.value_forms", "network.simulator.NetworkSimulator", "SearchResult.wire_bytes",
    "engine.kernel.us_per_msg", "Message.init", "TestGeneratedContract",
    "tests.storage.test_cache.provider_scan", "DET001", "network/faults.py",
    "tests/network/test_contract.py::TestGeneratedContract::test_shards_4_reproduces_shards_1",
])
def test_a_current_name_resolves(name):
    assert resolves(name)
