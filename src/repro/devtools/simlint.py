"""simlint — AST-based determinism and simulation-invariant linter.

The simulator's evaluation pipeline promises byte-identical output for a
given configuration and seed at any ``--jobs`` value.  That contract is
easy to break silently: one module-level ``random.random()`` call, one
wall-clock read inside a model, or one iteration over a set in a hot
path, and the paper figures stop reproducing.  simlint walks the AST of
every source file and enforces the rules that reviews kept having to
re-litigate (see ``docs/LINTING.md`` for the full rule table):

========  ============================================================
SIM001    module-level ``random`` usage (the shared global RNG) outside
          ``repro.engine.rng``
SIM002    wall-clock reads (``time.time``, ``datetime.now``,
          ``perf_counter``, ...) outside the whitelisted harness
          modules (``runner``, ``parallel`` may use ``perf_counter``)
SIM003    iteration over set-typed values in ``switch/`` / ``engine/`` /
          ``routing/`` hot paths without an explicit ``sorted()``
SIM004    ad-hoc ``random.Random(...)`` construction outside ``rng.py``
          (RNG streams must be threaded in or forked, never invented)
SIM005    falsy-``or`` defaulting of a ``None``-default parameter
          (``rng or ...``); use ``if x is None`` so falsy values survive
SIM006    mutable default argument values
SIM007    float ``==`` / ``!=`` comparisons in ``analysis/`` metrics
========  ============================================================

Usage::

    python -m repro.devtools.simlint src [tests ...]
    python -m repro.devtools.simlint --list-rules

Suppressions: append ``# simlint: disable=SIM001`` (comma-separated list
or ``all``) to the flagged line, or put
``# simlint: disable-file=SIM003`` on its own line anywhere in the file.

Exit codes are stable: 0 clean, 1 violations found, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_VIOLATIONS",
    "RULES",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
]

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


@dataclass(frozen=True)
class RuleInfo:
    rule_id: str
    name: str
    rationale: str


RULES: tuple[RuleInfo, ...] = (
    RuleInfo(
        "SIM001",
        "global-random",
        "module-level random.* calls draw from the process-shared RNG; "
        "all simulator randomness must flow through repro.engine.rng",
    ),
    RuleInfo(
        "SIM002",
        "wall-clock",
        "wall-clock reads make model behaviour depend on host timing; "
        "only the harness (runner, parallel) may time runs, and only "
        "with time.perf_counter",
    ),
    RuleInfo(
        "SIM003",
        "unordered-iteration",
        "set iteration order depends on hashing (salted for str); hot "
        "paths in switch/, engine/ and routing/ must iterate sorted()",
    ),
    RuleInfo(
        "SIM004",
        "adhoc-rng",
        "random.Random(expr) invents a seed outside the experiment seed "
        "tree; thread a stream in or fork a DeterministicRng instead",
    ),
    RuleInfo(
        "SIM005",
        "or-default",
        "`param or default` swallows falsy-but-valid values (0, [], "
        "empty RNG state); write `if param is None: ...`",
    ),
    RuleInfo(
        "SIM006",
        "mutable-default",
        "mutable default arguments alias state across calls and runs",
    ),
    RuleInfo(
        "SIM007",
        "float-equality",
        "float == / != in analysis metrics is representation-dependent; "
        "compare with math.isclose or an explicit tolerance",
    ),
)

RULE_IDS = frozenset(r.rule_id for r in RULES)

#: directories whose files are subject to SIM003 (hot simulation paths)
HOT_PATH_DIRS = frozenset({"switch", "engine", "routing"})

#: directories whose files are subject to SIM007
ANALYSIS_DIRS = frozenset({"analysis"})

#: module stems exempt from SIM001/SIM004 (the one sanctioned RNG home)
RNG_HOME_STEMS = frozenset({"rng"})

#: module stem -> wall-clock callables it may use (SIM002 whitelist)
WALL_CLOCK_WHITELIST: dict[str, frozenset[str]] = {
    "runner": frozenset({"perf_counter"}),
    "parallel": frozenset({"perf_counter"}),
    # engine cross-validation reports the cycle-vs-flow speedup
    "crosscheck": frozenset({"perf_counter"}),
}

#: attribute names treated as wall-clock reads on the ``time`` module
_TIME_ATTRS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "clock", "time_ns",
     "monotonic_ns", "perf_counter_ns", "process_time_ns"}
)
#: attribute names treated as wall-clock reads on datetime/date objects
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: random-module attributes that are *not* global-RNG draws
_RANDOM_SAFE_ATTRS = frozenset({"Random", "SystemRandom"})

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Violation:
    """One rule hit, addressable by file and position."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"



# ---------------------------------------------------------------------------
# suppression parsing
# ---------------------------------------------------------------------------


class _Suppressions:
    """Line-level and file-level ``# simlint:`` directives of one file."""

    def __init__(self, source: str) -> None:
        self.by_line: dict[int, frozenset[str]] = {}
        self.file_wide: set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            kind, id_list = match.groups()
            ids = frozenset(
                part.strip().upper()
                for part in id_list.split(",")
                if part.strip()
            )
            if kind == "disable-file":
                self.file_wide.update(ids)
            else:
                self.by_line[lineno] = ids

    def active(self, violation: Violation) -> bool:
        """True if ``violation`` is suppressed by a directive."""
        for ids in (self.file_wide, self.by_line.get(violation.line, ())):
            if "ALL" in ids or violation.rule_id in ids:
                return True
        return False


# ---------------------------------------------------------------------------
# per-file checker
# ---------------------------------------------------------------------------


def _call_name(node: ast.expr) -> str | None:
    """``foo`` for Name nodes, ``foo.bar`` for one-level attributes."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


class _FunctionScope:
    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        # parameters whose declared default is the literal None
        self.none_default_params: set[str] = set()
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            if isinstance(default, ast.Constant) and default.value is None:
                self.none_default_params.add(arg.arg)
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if isinstance(kw_default, ast.Constant) and kw_default.value is None:
                self.none_default_params.add(arg.arg)


class _Checker(ast.NodeVisitor):
    """Single-pass rule evaluation over one module's AST.

    A pre-pass (:meth:`_collect_set_bindings`) records names and ``self``
    attributes that are syntactically bound to set-typed expressions so
    SIM003 can flag ``for x in self.some_set`` even when the binding and
    the loop live in different methods.
    """

    def __init__(self, path: Path, tree: ast.Module) -> None:
        self.path = path
        self.rel = path.as_posix()
        self.stem = path.stem
        parts = frozenset(path.parts[:-1])
        self.in_hot_path = bool(parts & HOT_PATH_DIRS)
        self.in_analysis = bool(parts & ANALYSIS_DIRS)
        self.is_rng_home = self.stem in RNG_HOME_STEMS
        self.wall_clock_ok = WALL_CLOCK_WHITELIST.get(self.stem, frozenset())
        self.violations: list[Violation] = []
        self._scopes: list[_FunctionScope] = []
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._set_bound: set[str] = set()
        self._collect_set_bindings(tree)

    # -- plumbing -------------------------------------------------------

    def _flag(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                rule_id,
                self.rel,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                message,
            )
        )

    # -- set-typed binding inference (SIM003 support) -------------------

    def _collect_set_bindings(self, tree: ast.Module) -> None:
        if not self.in_hot_path:
            return
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None or not self._is_set_expr(value):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = _call_name(target)
                if name is not None:
                    self._set_bound.add(name)

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Syntactically set-typed: displays, comprehensions, set()/
        frozenset() calls, set-operator combinations of those, and names
        recorded by the binding pre-pass or ending in ``_set``."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            callee = _call_name(node.func)
            if callee in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference", "symmetric_difference",
            ):
                return self._is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        name = _call_name(node)
        if name is not None:
            bare = name.rsplit(".", 1)[-1]
            return name in self._set_bound or bare.endswith("_set")
        return False

    # -- scope tracking -------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._scopes.append(_FunctionScope(node))
        self.generic_visit(node)
        self._scopes.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._scopes.append(_FunctionScope(node))
        self.generic_visit(node)
        self._scopes.pop()

    # -- SIM001 / SIM002 / SIM004: calls --------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        callee = _call_name(node.func)
        if callee is not None:
            self._check_random_call(node, callee)
            self._check_wall_clock(node, callee)
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, callee: str) -> None:
        if self.is_rng_home or not callee.startswith("random."):
            return
        attr = callee.split(".", 1)[1]
        if attr == "Random":
            self._flag(
                "SIM004",
                node,
                "ad-hoc random.Random(...) construction; thread an RNG "
                "stream in or fork a DeterministicRng",
            )
        elif attr not in _RANDOM_SAFE_ATTRS:
            self._flag(
                "SIM001",
                node,
                f"module-level random.{attr}() uses the shared global "
                "RNG; draw from a DeterministicRng stream",
            )

    def _check_wall_clock(self, node: ast.Call, callee: str) -> None:
        base, _, attr = callee.partition(".")
        if not attr:
            return
        is_time = base == "time" and attr in _TIME_ATTRS
        is_datetime = base in ("datetime", "date") and attr in _DATETIME_ATTRS
        if not (is_time or is_datetime):
            return
        if is_time and attr in self.wall_clock_ok:
            return
        self._flag(
            "SIM002",
            node,
            f"wall-clock call {callee}() in simulation code; timing "
            "belongs to the harness whitelist "
            f"({', '.join(sorted(WALL_CLOCK_WHITELIST))}: perf_counter)",
        )

    # -- SIM001 / SIM002: imports of the offending callables -------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and not self.is_rng_home:
            for alias in node.names:
                if alias.name not in _RANDOM_SAFE_ATTRS:
                    self._flag(
                        "SIM001",
                        node,
                        f"importing random.{alias.name} binds the shared "
                        "global RNG; import random.Random or use "
                        "DeterministicRng streams",
                    )
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_ATTRS and alias.name not in self.wall_clock_ok:
                    self._flag(
                        "SIM002",
                        node,
                        f"importing time.{alias.name} into simulation "
                        "code; timing belongs to the harness",
                    )
        self.generic_visit(node)

    # -- SIM003: unordered iteration ------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_iters(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        for gen in node.generators:
            self._check_unordered_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_iters
    visit_SetComp = _visit_comprehension_iters
    visit_DictComp = _visit_comprehension_iters
    visit_GeneratorExp = _visit_comprehension_iters

    def _check_unordered_iter(self, iter_node: ast.expr) -> None:
        if not self.in_hot_path:
            return
        # sorted(...) / a tuple or list copy of sorted(...) imposes order
        if isinstance(iter_node, ast.Call) and _call_name(iter_node.func) == "sorted":
            return
        if self._is_set_expr(iter_node):
            self._flag(
                "SIM003",
                iter_node,
                "iteration over a set in a hot simulation path; wrap the "
                "iterable in sorted() for a deterministic order",
            )
        elif (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("keys", "values", "items")
            and self._is_set_expr(iter_node.func.value)
        ):
            # dict views are insertion-ordered, but a view of a mapping
            # built straight from a set inherits the set's hash order
            self._flag(
                "SIM003",
                iter_node,
                "dict view over a set-derived mapping; sort the keys "
                "before building or iterating the mapping",
            )

    # -- SIM005: falsy-or defaulting ------------------------------------

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if (
            isinstance(node.op, ast.Or)
            and self._scopes
            and isinstance(node.values[0], ast.Name)
            and node.values[0].id in self._scopes[-1].none_default_params
            and self._in_value_position(node)
        ):
            self._flag(
                "SIM005",
                node,
                f"`{node.values[0].id} or ...` drops falsy-but-valid "
                "values of an optional parameter; use "
                f"`if {node.values[0].id} is None:`",
            )
        self.generic_visit(node)

    def _in_value_position(self, node: ast.BoolOp) -> bool:
        """True when the Or expression produces a value (assignment RHS,
        call argument, return) rather than serving as a condition."""
        parent = self._parents.get(node)
        if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return parent.value is node
        if isinstance(parent, ast.Return):
            return True
        if isinstance(parent, ast.keyword):
            return True
        if isinstance(parent, ast.Call):
            return node in parent.args
        return False

    # -- SIM006: mutable defaults ---------------------------------------

    def _check_mutable_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults: Iterable[ast.expr | None] = (
            list(node.args.defaults) + list(node.args.kw_defaults)
        )
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            )
            if isinstance(default, ast.Call):
                mutable = _call_name(default.func) in (
                    "list", "dict", "set", "bytearray", "collections.deque",
                    "deque",
                )
            if mutable:
                self._flag(
                    "SIM006",
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the body",
                )

    # -- SIM007: float equality -----------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.in_analysis and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(self._is_float_expr(operand) for operand in operands):
                self._flag(
                    "SIM007",
                    node,
                    "float == / != comparison in analysis code; use "
                    "math.isclose or an explicit tolerance",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_float_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return _Checker._is_float_expr(node.operand)
        if isinstance(node, ast.Call):
            return _call_name(node.func) in ("float", "math.sqrt", "math.nan")
        if isinstance(node, ast.Attribute):
            return _call_name(node) in ("math.nan", "math.inf", "np.nan", "numpy.nan")
        return False


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class LintError(Exception):
    """A file could not be read or parsed."""


def lint_source(source: str, path: Path) -> list[Violation]:
    """Lint ``source`` as the contents of ``path`` (suppressions applied)."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"{path}: syntax error: {exc.msg} (line {exc.lineno})")
    checker = _Checker(path, tree)
    checker.visit(tree)
    suppressions = _Suppressions(source)
    kept = [v for v in checker.violations if not suppressions.active(v)]
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return kept


def lint_file(path: Path) -> list[Violation]:
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LintError(f"{path}: {exc}")
    return lint_source(source, path)


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise LintError(f"{path}: not a Python file or directory")


def lint_paths(paths: Sequence[Path]) -> tuple[list[Violation], int]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(violations, files_checked)``; raises :class:`LintError`
    for unreadable or unparsable inputs.
    """
    violations: list[Violation] = []
    checked = 0
    for file_path in _iter_python_files(paths):
        violations.extend(lint_file(file_path))
        checked += 1
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations, checked


def _render_text(violations: list[Violation], checked: int) -> str:
    lines = [v.render() for v in violations]
    by_rule: dict[str, int] = {}
    for v in violations:
        by_rule[v.rule_id] = by_rule.get(v.rule_id, 0) + 1
    summary = ", ".join(f"{rid}: {n}" for rid, n in sorted(by_rule.items()))
    lines.append(
        f"simlint: {len(violations)} violation(s) in {checked} file(s)"
        + (f" [{summary}]" if summary else "")
    )
    return "\n".join(lines)


def _render_rule_table() -> str:
    lines = []
    for rule in RULES:
        lines.append(f"{rule.rule_id}  {rule.name}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.simlint",
        description="determinism & simulation-invariant linter",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src tests)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_render_rule_table())
        return EXIT_CLEAN
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("simlint: error: no paths given", file=sys.stderr)
        return EXIT_ERROR

    try:
        violations, checked = lint_paths([Path(p) for p in args.paths])
    except LintError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(_render_text(violations, checked))
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
