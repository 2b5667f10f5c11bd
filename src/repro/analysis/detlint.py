"""AST machinery behind detlint (see :mod:`repro.analysis.rules`).

Two passes over the analyzed files:

1. **Collection** builds a registry of set-typed attribute names
   (``leaves: set[str]``, ``field(default_factory=set)``,
   ``self.visited = set()``) and dict-of-set attribute names
   (``adjacency: dict[str, set[str]]``) across *all* files given, so a
   dataclass declared in one module informs checks in another.
2. **Checking** walks each file and flags rule violations, honouring
   inline suppressions (``# detlint: ignore[RULE] -- reason`` on the
   flagged or the preceding line; the reason is mandatory).

The set-typedness analysis is deliberately a heuristic, not a type
checker: it recognizes annotations, literal constructions and set
operators, which covers how this codebase actually writes protocol
state.  The mypy layer (``[tool.mypy]`` in pyproject.toml) carries the
interface contracts; detlint carries the determinism idioms mypy has
no opinion about.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Optional

__all__ = ["Finding", "SetRegistry", "analyze_paths", "analyze_source", "collect_registry"]

#: consumers whose result does not depend on iteration order, so a
#: generator expression over a set feeding them directly is safe.
#: (Known limitation: float summation is order-sensitive in the last
#: ulps; the protocol counters this repo sums are ints.)
_ORDER_INSENSITIVE_REDUCERS = frozenset(
    {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted"}
)

#: module-level functions of the ``random`` module (the ambient global
#: stream) whose use DET003 flags.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "randbytes",
        "choice", "choices", "shuffle", "sample", "uniform", "seed",
        "triangular", "betavariate", "expovariate", "gammavariate",
        "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "binomialvariate",
    }
)

#: wall-clock reads on the ``time`` module.
_WALLCLOCK_TIME_FNS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time",
        "process_time_ns", "localtime", "gmtime", "ctime", "asctime",
    }
)

#: wall-clock constructors on ``datetime`` / ``date`` objects.
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

_SET_NAMES = frozenset({"set", "frozenset", "Set", "FrozenSet"})
_DICT_NAMES = frozenset({"dict", "Dict", "defaultdict", "DefaultDict"})

_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*ignore\[([A-Za-z0-9_,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: the stripped source line
    snippet: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def render_github(self) -> str:
        """GitHub Actions annotation format — findings show inline on PRs."""
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.rule}::{self.message}"
        )


@dataclass
class SetRegistry:
    """Attribute names known to hold sets / dict-of-set values."""

    set_attrs: set[str] = field(default_factory=set)
    dict_set_attrs: set[str] = field(default_factory=set)


# ----------------------------------------------------------------------
# Annotation classification
# ----------------------------------------------------------------------
def _resolve_annotation(node: ast.expr) -> Optional[ast.expr]:
    """Unquote string annotations (``: "set[str]"``) into AST."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    return node


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):  # typing.Set, collections.defaultdict
        return node.attr
    return None


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    node = _resolve_annotation(node)
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    return _base_name(node) in _SET_NAMES


def _is_dict_of_set_annotation(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    node = _resolve_annotation(node)
    if not isinstance(node, ast.Subscript):
        return False
    if _base_name(node.value) not in _DICT_NAMES:
        return False
    if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
        return _is_set_annotation(node.slice.elts[1])
    return False


def _is_set_construction(node: Optional[ast.expr]) -> bool:
    """A value expression that literally builds a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _base_name(node.func) in ("set", "frozenset"):
        return isinstance(node.func, ast.Name)
    return False


# ----------------------------------------------------------------------
# Pass 1: registry collection
# ----------------------------------------------------------------------
def collect_registry(trees: Iterable[ast.AST]) -> SetRegistry:
    """Harvest set-typed attribute names from every analyzed tree."""
    registry = SetRegistry()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                name: Optional[str] = None
                if isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node.target, ast.Attribute):
                    name = node.target.attr
                if name is None:
                    continue
                if _is_set_annotation(node.annotation):
                    registry.set_attrs.add(name)
                elif _is_dict_of_set_annotation(node.annotation):
                    registry.dict_set_attrs.add(name)
            elif isinstance(node, ast.Assign):
                if not _is_set_construction(node.value):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        registry.set_attrs.add(target.attr)
    return registry


# ----------------------------------------------------------------------
# Scope predicates
# ----------------------------------------------------------------------
def _path_parts(path: str) -> tuple[str, ...]:
    return PurePosixPath(PurePosixPath(path).as_posix()).parts


def _in_protocol_scope(path: str) -> bool:
    """Modules where iteration order can reach a protocol decision."""
    parts = _path_parts(path)
    return "network" in parts or "engine" in parts


def _in_network_scope(path: str) -> bool:
    return "network" in _path_parts(path)


def _in_process_management_scope(path: str) -> bool:
    """The one module sanctioned to create processes (KERN002): the
    parallel-shard runtime."""
    return _path_parts(path)[-2:] == ("engine", "parallel.py")


# ----------------------------------------------------------------------
# Pass 2: the checker
# ----------------------------------------------------------------------
class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: list[str], registry: SetRegistry) -> None:
        self.path = path
        self.lines = source_lines
        self.registry = registry
        self.findings: list[Finding] = []
        self._class_stack: list[str] = []
        #: per-function stacks of local variable names known to be sets
        self._local_sets: list[set[str]] = []
        self._parents: dict[ast.AST, ast.AST] = {}

    # -- plumbing ------------------------------------------------------
    def check(self, tree: ast.AST) -> list[Finding]:
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.visit(tree)
        return self.findings

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.lines[line - 1].strip() if line - 1 < len(self.lines) else ""
        self.findings.append(Finding(self.path, line, col, rule, message, snippet))

    def _in_simulator_class(self) -> bool:
        return any(name.endswith("Simulator") for name in self._class_stack)

    # -- scope flags ---------------------------------------------------
    @property
    def _det001_active(self) -> bool:
        return _in_protocol_scope(self.path)

    @property
    def _kern001_queue_active(self) -> bool:
        return _in_network_scope(self.path) and not self._in_simulator_class()

    @property
    def _kern002_active(self) -> bool:
        return not _in_process_management_scope(self.path)

    # -- set-ish expression detection ---------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._local_sets)
        if isinstance(node, ast.Attribute):
            return node.attr in self.registry.set_attrs
        if isinstance(node, ast.Subscript):
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr in self.registry.dict_set_attrs:
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                # set algebra / copies preserve set-ness
                if func.attr in ("union", "intersection", "difference",
                                 "symmetric_difference", "copy"):
                    return self._is_set_expr(func.value)
                # dict-of-set accessors yield the set value
                if func.attr in ("pop", "get", "setdefault") and isinstance(
                    func.value, ast.Attribute
                ) and func.value.attr in self.registry.dict_set_attrs:
                    return True
        return False

    def _flag_set_iteration(self, node: ast.expr, where: str) -> None:
        self._add(
            node,
            "DET001",
            f"unsorted iteration over a set reaches {where} in a protocol-decision "
            "module; wrap in sorted(...) (set iteration order varies with "
            "PYTHONHASHSEED across processes)",
        )

    # -- local set-variable tracking ----------------------------------
    def _scan_locals(self, node: ast.AST) -> set[str]:
        names: set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                if _is_set_annotation(child.annotation):
                    names.add(child.target.id)
            elif isinstance(child, ast.Assign) and _is_set_construction(child.value):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    # -- visitors ------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.AST) -> None:
        self._local_sets.append(self._scan_locals(node))
        self.generic_visit(node)
        self._local_sets.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_For(self, node: ast.For) -> None:
        if self._det001_active and self._is_set_expr(node.iter):
            self._flag_set_iteration(node.iter, "a for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST, kind: str) -> None:
        if self._det001_active:
            for generator in node.generators:  # type: ignore[attr-defined]
                if self._is_set_expr(generator.iter):
                    self._flag_set_iteration(generator.iter, kind)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "a list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "a dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # A genexp feeding an order-insensitive reducer directly
        # (sum/min/max/any/all/len/set/frozenset/sorted) is safe.
        parent = self._parents.get(node)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE_REDUCERS
            and node in parent.args
        ):
            self.generic_visit(node)
            return
        self._check_comprehension(node, "a generator expression")

    def visit_Import(self, node: ast.Import) -> None:
        if self._kern002_active:
            for alias in node.names:
                if alias.name == "multiprocessing" or alias.name.startswith("multiprocessing."):
                    self._add(
                        node,
                        "KERN002",
                        "direct multiprocessing use outside engine/parallel.py; "
                        "route process fan-out through run_parallel_scenario / "
                        "ParallelShardRunner",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._kern002_active and node.module is not None:
            if node.module == "multiprocessing" or node.module.startswith("multiprocessing."):
                self._add(
                    node,
                    "KERN002",
                    "direct multiprocessing use outside engine/parallel.py; "
                    "route process fan-out through run_parallel_scenario / "
                    "ParallelShardRunner",
                )
            elif node.module == "os" and any(
                alias.name in ("fork", "forkpty") for alias in node.names
            ):
                self._add(
                    node,
                    "KERN002",
                    "importing os.fork outside engine/parallel.py; "
                    "a forked child inherits live kernel state mid-flight",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "_queue" and self._kern001_queue_active:
            self._add(
                node,
                "KERN001",
                "direct event-heap access in protocol code; go through "
                "kernel.send / simulator.post so the sharded barrier can route it",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # DET001: materializing a set in iteration order
        if self._det001_active:
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple")
                and len(node.args) == 1
                and self._is_set_expr(node.args[0])
            ):
                self._flag_set_iteration(node.args[0], f"{func.id}(...) materialization")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and len(node.args) == 1
                and self._is_set_expr(node.args[0])
            ):
                self._flag_set_iteration(node.args[0], "str.join")

        # DET002: builtin hash()
        if isinstance(func, ast.Name) and func.id == "hash":
            self._add(
                node,
                "DET002",
                "builtin hash() is salted per process (PYTHONHASHSEED); use "
                "zlib.crc32 for anything whose value can reach a protocol decision",
            )

        if isinstance(func, ast.Attribute):
            owner = func.value
            # KERN002: raw process creation outside the sanctioned module
            if (
                self._kern002_active
                and isinstance(owner, ast.Name)
                and owner.id == "os"
                and func.attr in ("fork", "forkpty")
            ):
                self._add(
                    node,
                    "KERN002",
                    f"os.{func.attr}() outside engine/parallel.py; "
                    "a forked child inherits live kernel state (heaps, RNG "
                    "positions, interning tables) mid-flight",
                )
            # DET003: the ambient global random stream
            if isinstance(owner, ast.Name) and owner.id == "random":
                if func.attr in _GLOBAL_RANDOM_FNS:
                    self._add(
                        node,
                        "DET003",
                        f"random.{func.attr}() draws from the ambient global stream; "
                        "use an injected seeded random.Random (e.g. simulator.random)",
                    )
                elif func.attr == "Random" and not node.args and not node.keywords:
                    self._add(
                        node,
                        "DET003",
                        "random.Random() without a seed is entropy-seeded; pass an "
                        "explicit seed derived from the scenario seed",
                    )
            # DET004: wall clock
            if isinstance(owner, ast.Name):
                if owner.id == "time" and func.attr in _WALLCLOCK_TIME_FNS:
                    self._add(
                        node,
                        "DET004",
                        f"time.{func.attr}() reads the wall clock; simulation code "
                        "must use simulator.now (wall-clock timing belongs in bench/)",
                    )
                elif owner.id in ("datetime", "date") and func.attr in _WALLCLOCK_DATETIME_FNS:
                    self._add(
                        node,
                        "DET004",
                        f"{owner.id}.{func.attr}() reads the wall clock; simulation "
                        "code must use simulator.now",
                    )
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "datetime"
                and func.attr in _WALLCLOCK_DATETIME_FNS
            ):
                self._add(node, "DET004",
                          f"datetime.{func.attr}() reads the wall clock; simulation "
                          "code must use simulator.now")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def _apply_suppressions(findings: list[Finding], path: str,
                        lines: list[str]) -> list[Finding]:
    """Drop findings covered by a reasoned inline suppression.

    An end-of-line suppression covers the line it sits on.  A suppression
    on a comment-only line covers the next code line (the rest of the
    comment block, if any, is skipped over — so the reason can run to
    several lines above a long statement).  A suppression without a
    reason suppresses nothing and is itself flagged.
    """
    suppressed_rules: dict[int, set[str]] = {}
    malformed: list[Finding] = []
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if match.group("reason") is None:
            malformed.append(
                Finding(
                    path, number, match.start(), "DETLINT",
                    "suppression without a reason — write "
                    "`# detlint: ignore[RULE] -- reason`",
                    text.strip(),
                )
            )
            continue
        suppressed_rules.setdefault(number, set()).update(rules)
        if text.strip().startswith("#"):
            # Comment-only line: cover the next code line, however many
            # continuation comment lines sit in between.
            cursor = number
            while cursor < len(lines):
                cursor += 1
                following = lines[cursor - 1].strip()
                if following and not following.startswith("#"):
                    break
            suppressed_rules.setdefault(cursor, set()).update(rules)

    kept = [
        finding
        for finding in findings
        if finding.rule not in suppressed_rules.get(finding.line, ())
    ]
    return kept + malformed


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_source(source: str, path: str,
                   registry: Optional[SetRegistry] = None) -> list[Finding]:
    """Analyze one file's source text (the unit-test entry point)."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    if registry is None:
        registry = collect_registry([tree])
    else:
        extra = collect_registry([tree])
        registry = SetRegistry(
            set_attrs=registry.set_attrs | extra.set_attrs,
            dict_set_attrs=registry.dict_set_attrs | extra.dict_set_attrs,
        )
    findings = _Checker(path, lines, registry).check(tree)
    findings = _apply_suppressions(findings, path, lines)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def analyze_paths(paths: Iterable[str]) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths`` (dirs walk recursively)."""
    files: list[tuple[str, str]] = []
    for file_path in _iter_python_files(paths):
        try:
            files.append((str(file_path), file_path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            continue
    trees: list[tuple[str, str, ast.AST]] = []
    for name, source in files:
        try:
            trees.append((name, source, ast.parse(source, filename=name)))
        except SyntaxError:
            trees.append((name, source, ast.Module(body=[], type_ignores=[])))
    registry = collect_registry(tree for _, _, tree in trees)
    findings: list[Finding] = []
    for name, source, tree in trees:
        lines = source.splitlines()
        file_findings = _Checker(name, lines, registry).check(tree)
        findings.extend(_apply_suppressions(file_findings, name, lines))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
