"""AST lint pass enforcing the simulator's reproducibility contract.

The simulator promises bit-identical replays given (spec, seed).  That
promise dies quietly: an unseeded RNG, a wall-clock read, or iteration
order of a ``set`` leaking into packet scheduling all produce runs that
differ across processes while every test still passes on the machine that
wrote it.  These rules make the contract mechanically checkable:

====== ======================================================================
Rule   Meaning
====== ======================================================================
SC001  No unseeded randomness: calls into the global ``random`` /
       ``numpy.random`` state, or constructing ``random.Random()`` /
       ``numpy.random.default_rng()`` / ``RandomState()`` without a seed.
SC002  No wall clock in step logic: ``time.time`` & friends,
       ``datetime.now`` / ``utcnow`` / ``today``.
SC003  No bare ``assert`` for runtime invariants: ``python -O`` strips
       asserts, so invariants must raise real exceptions (the repo's
       ``Section6Violation`` / ``InvariantViolation`` pattern).
SC004  No iteration over unordered sets: ``for``/comprehension iteration or
       ``list()`` / ``tuple()`` / ``enumerate()`` materialisation of a
       set-typed value.  Wrap in ``sorted()`` (order-insensitive reducers
       such as ``len``/``sum``/``min``/``max``/``any``/``all`` are fine).
SC005  Docstring coverage: every module and every class must carry a
       docstring.  Applies to the infrastructure packages (``perf``,
       ``harness``), whose contracts -- measurement protocols, cache-key
       semantics -- live in prose the code alone cannot carry, plus the
       array-backend modules listed in ``DOCSTRING_MODULES``.
SC006  No in-place mutation through array parameters: subscript stores,
       augmented assigns, in-place ndarray methods, or ``ufunc.at`` on a
       function parameter (or a basic-slice view of one).  The array
       kernels receive views that alias engine state; mutating them breaks
       the lockstep bit-identity contract.  Copy first.
SC007  Order-sensitive reductions must pin stability: ``np.sort`` /
       ``np.argsort`` without ``kind="stable"`` (or ``"mergesort"``), and
       ``np.unique(..., return_index=True)``, whose tie order is
       implementation-defined.  ``np.lexsort`` is always stable and bare
       value-only ``np.unique`` returns a sorted set; both are exempt.
SC008  No implicit dtypes in array construction: ``np.zeros`` / ``ones`` /
       ``empty`` / ``full`` / ``arange`` / ``array`` without an explicit
       ``dtype=``.  Platform-default integer widths silently change
       occupancy arithmetic across OSes, breaking bit-identity.
====== ======================================================================

SC003 applies to all of ``src/repro``; SC001/SC002/SC004 to the simulation
packages (``mesh``, ``routing``, ``tiling``, ``workloads``), where
nondeterminism can reach packet scheduling; SC005 to the infrastructure
packages (``perf``, ``harness``) and the ``DOCSTRING_MODULES`` list
(array engine/state, transition models, engine-equivalence harness);
and SC006/SC007/SC008 to the numpy kernel modules in ``ARRAY_MODULES``.
A finding can be waived in place with a ``# noqa: SC00x`` comment on the
offending line; waivers with no rule list (bare ``# noqa``) waive every
rule on that line.  Pre-existing findings live in the checked-in baseline
(see ``baseline.py``) so CI fails only on *new* violations.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Rule catalog: id -> one-line summary (the long rationale is above and in
#: docs/ANALYSIS.md).
RULES: Dict[str, str] = {
    "SC001": "unseeded random / numpy.random use",
    "SC002": "wall-clock read in step logic",
    "SC003": "bare assert used for a runtime invariant",
    "SC004": "iteration over an unordered set",
    "SC005": "missing module or class docstring",
    "SC006": "in-place mutation of an array parameter that may alias state",
    "SC007": "order-sensitive reduction without a stable sort kind",
    "SC008": "numpy array construction without an explicit dtype",
}

#: Packages (under src/repro) where SC001/SC002/SC004 apply.
SCOPED_PACKAGES: Tuple[str, ...] = ("mesh", "routing", "tiling", "workloads")

#: Packages (under src/repro) where SC005 docstring coverage applies.
DOCSTRING_PACKAGES: Tuple[str, ...] = ("perf", "harness", "streaming", "analysis")

#: Individual modules (repro-relative) that get SC005 on top of their
#: package's rule set: the array backend and its equivalence gate live in
#: packages outside DOCSTRING_PACKAGES but are infrastructure in the same
#: sense -- their memory-layout and bit-identity contracts must be written
#: down where the code is.
DOCSTRING_MODULES: Tuple[str, ...] = (
    "mesh/array_engine.py",
    "mesh/array_state.py",
    "mesh/stepview.py",
    "mesh/transitions.py",
    "verify/engine_equivalence.py",
)

#: The numpy kernel modules (repro-relative) where the array-hazard rules
#: SC006/SC007/SC008 apply: the performance-critical surface whose aliasing,
#: sort-stability, and dtype discipline the lockstep gate depends on.
ARRAY_MODULES: Tuple[str, ...] = (
    "mesh/array_engine.py",
    "mesh/array_state.py",
    "mesh/stepview.py",
)

#: numpy constructors whose dtype must be explicit (SC008).
_DTYPE_CONSTRUCTORS = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "array"}
)

#: ndarray methods that mutate their receiver in place (SC006).
_INPLACE_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "setfield"}
)

#: Functions on the time module that read the wall clock.
_TIME_FUNCS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime"}
)
#: Methods on datetime/date classes that read the wall clock.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Builtins that reduce an iterable order-insensitively (safe on sets).
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Z0-9,\s]+))?", re.IGNORECASE)


def normalize_snippet(code: str) -> str:
    """The whitespace-collapsed form of a source line used for fingerprints.

    Collapsing runs of whitespace makes baseline entries survive pure
    reformatting (re-indentation, alignment churn) that used to strand
    them as stale.
    """
    return " ".join(code.split())


@dataclass(frozen=True, order=True)
class LintViolation:
    """One finding: a rule violated at a specific source location."""

    path: str  # repo-relative, posix separators
    line: int
    col: int
    rule: str
    message: str
    code: str  # the offending source line, stripped

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Identity that survives line renumbering and reformatting:
        (rule, path, normalized source snippet)."""
        return (self.rule, self.path, normalize_snippet(self.code))

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "code": self.code,
        }


# -- the visitor ---------------------------------------------------------------


class _Checker(ast.NodeVisitor):
    """Single-module AST walk applying the SC rules enabled for its path."""

    def __init__(self, path: str, lines: Sequence[str], rules: Set[str]) -> None:
        self.path = path
        self.lines = lines
        self.rules = rules
        self.violations: List[LintViolation] = []
        # Names bound to whole modules / classes of interest.
        self.random_modules: Set[str] = set()  # `import random as r` -> {"r"}
        self.numpy_modules: Set[str] = set()  # `import numpy as np` -> {"np"}
        self.numpy_random_modules: Set[str] = set()  # from numpy import random
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()  # from datetime import datetime
        # Names imported straight off the random module: from random import x.
        self.random_funcs: Set[str] = set()
        self.time_funcs: Set[str] = set()  # from time import time
        # `from numpy.random import default_rng` style constructors.
        self.rng_constructors: Set[str] = set()
        # Per-scope map of local names known to be set-valued.
        self.setish_stack: List[Dict[str, bool]] = [{}]
        # Per-scope set of names aliasing a function parameter (SC006):
        # the parameters themselves plus any basic-slice views of them.
        self.alias_stack: List[Set[str]] = [set()]

    # -- helpers ------------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if rule not in self.rules:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        code = self.lines[line - 1].strip() if line - 1 < len(self.lines) else ""
        self.violations.append(
            LintViolation(self.path, line, col, rule, message, code)
        )

    def _is_seed_call(self, node: ast.Call) -> bool:
        """True when the call carries an explicit seed argument."""
        return bool(node.args) or any(
            kw.arg in ("seed", "x") or kw.arg is None for kw in node.keywords
        )

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_modules.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                self.numpy_modules.add(bound)
            elif alias.name == "time":
                self.time_modules.add(bound)
            elif alias.name == "datetime":
                self.datetime_modules.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "random":
                if alias.name == "Random":
                    self.rng_constructors.add(bound)
                else:
                    self.random_funcs.add(bound)
            elif module == "numpy":
                if alias.name == "random":
                    self.numpy_random_modules.add(bound)
            elif module == "numpy.random":
                if alias.name in ("default_rng", "RandomState", "Generator"):
                    self.rng_constructors.add(bound)
                else:
                    self.random_funcs.add(bound)
            elif module == "time":
                if alias.name in _TIME_FUNCS:
                    self.time_funcs.add(bound)
            elif module == "datetime":
                if alias.name in ("datetime", "date"):
                    self.datetime_classes.add(bound)
        self.generic_visit(node)

    # -- SC001 / SC002: calls ------------------------------------------------

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.random_funcs:
                self._emit(node, "SC001", f"call to unseeded random.{func.id}()")
            elif func.id in self.rng_constructors and not self._is_seed_call(node):
                self._emit(node, "SC001", f"{func.id}() constructed without a seed")
            elif func.id in self.time_funcs:
                self._emit(node, "SC002", f"wall-clock call {func.id}()")
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self.random_modules:
                if func.attr == "Random":
                    if not self._is_seed_call(node):
                        self._emit(node, "SC001", "random.Random() without a seed")
                elif func.attr != "seed":
                    self._emit(
                        node, "SC001", f"global-state call random.{func.attr}()"
                    )
                return
            if base.id in self.numpy_random_modules:
                self._numpy_random_call(node, func.attr)
                return
            if base.id in self.time_modules and func.attr in _TIME_FUNCS:
                self._emit(node, "SC002", f"wall-clock call time.{func.attr}()")
                return
            if base.id in self.datetime_classes and func.attr in _DATETIME_FUNCS:
                self._emit(
                    node, "SC002", f"wall-clock call datetime.{func.attr}()"
                )
                return
        # np.random.<func>() and datetime.datetime.now().
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id in self.numpy_modules and base.attr == "random":
                self._numpy_random_call(node, func.attr)
            elif (
                base.value.id in self.datetime_modules
                and base.attr in ("datetime", "date")
                and func.attr in _DATETIME_FUNCS
            ):
                self._emit(
                    node, "SC002", f"wall-clock call datetime.{func.attr}()"
                )

    def _numpy_random_call(self, node: ast.Call, attr: str) -> None:
        if attr in ("default_rng", "RandomState", "Generator"):
            if not self._is_seed_call(node):
                self._emit(
                    node, "SC001", f"numpy.random.{attr}() without a seed"
                )
        elif attr != "seed":
            self._emit(node, "SC001", f"global-state call numpy.random.{attr}()")

    # -- SC005: docstring coverage -------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        if ast.get_docstring(node) is None:
            self._emit(node, "SC005", "module has no docstring")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if ast.get_docstring(node) is None:
            self._emit(node, "SC005", f"class {node.name} has no docstring")
        self.generic_visit(node)

    # -- SC003: asserts ------------------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        self._emit(
            node,
            "SC003",
            "bare assert is stripped under python -O; raise a real exception",
        )
        self.generic_visit(node)

    # -- SC004: set iteration ------------------------------------------------

    def _scope(self) -> Dict[str, bool]:
        return self.setish_stack[-1]

    def _is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._scope().get(node.id, False)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            # s.union(...), s.intersection(...), s.copy() keep set-ness.
            if (
                isinstance(func, ast.Attribute)
                and func.attr
                in ("union", "intersection", "difference",
                    "symmetric_difference", "copy")
                and self._is_setish(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setish(node.left) or self._is_setish(node.right)
        return False

    def _flag_iteration(self, node: ast.expr, context: str) -> None:
        if self._is_setish(node):
            self._emit(
                node,
                "SC004",
                f"{context} iterates an unordered set; wrap in sorted()",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_iteration(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._flag_iteration(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set is order-free; only flag once consumed.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self._check_array_call(node)
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "enumerate")
            and node.args
        ):
            self._flag_iteration(
                node.args[0], f"{func.id}() materialisation"
            )
        self.generic_visit(node)

    # -- SC006 / SC007 / SC008: array-kernel hazards -------------------------

    def _aliases(self) -> Set[str]:
        return self.alias_stack[-1]

    @staticmethod
    def _base_name(expr: ast.expr) -> str | None:
        """The root name of a (possibly nested) subscript expression."""
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    @staticmethod
    def _contains_slice(index: ast.expr) -> bool:
        if isinstance(index, ast.Slice):
            return True
        if isinstance(index, ast.Tuple):
            return any(isinstance(element, ast.Slice) for element in index.elts)
        return False

    def _is_param_view(self, expr: ast.expr) -> bool:
        """True for a parameter name or a basic-slice view of one.

        Basic slicing (``p[1:]``, ``p[:, 0:2]``) returns a view that
        aliases the parameter; advanced (fancy/boolean) indexing and
        scalar indexing return copies or scalars, which break the alias.
        """
        if isinstance(expr, ast.Name):
            return expr.id in self._aliases()
        if isinstance(expr, ast.Subscript) and self._is_param_view(expr.value):
            return self._contains_slice(expr.slice)
        return False

    def _has_stable_kind(self, node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
                return kw.value.value in ("stable", "mergesort")
        return False

    def _check_array_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name) and base.id in self.numpy_modules:
            if func.attr in ("sort", "argsort"):
                if not self._has_stable_kind(node):
                    self._emit(
                        node,
                        "SC007",
                        f"np.{func.attr}() without kind=\"stable\": tie order "
                        "is implementation-defined (np.lexsort is exempt)",
                    )
            elif func.attr == "unique":
                if any(
                    kw.arg == "return_index"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                ):
                    self._emit(
                        node,
                        "SC007",
                        "np.unique(return_index=True): first-occurrence "
                        "indices depend on sort stability",
                    )
            elif func.attr in _DTYPE_CONSTRUCTORS:
                if not any(kw.arg == "dtype" for kw in node.keywords):
                    self._emit(
                        node,
                        "SC008",
                        f"np.{func.attr}() without an explicit dtype: the "
                        "platform default breaks bit-identity",
                    )
            return
        if func.attr == "argsort" and not self._has_stable_kind(node):
            self._emit(
                node,
                "SC007",
                ".argsort() without kind=\"stable\": tie order is "
                "implementation-defined",
            )
            return
        if func.attr == "at" and node.args:
            target = self._base_name(node.args[0])
            if target is not None and target in self._aliases():
                self._emit(
                    node,
                    "SC006",
                    f"ufunc .at() scatters into parameter {target!r} in "
                    "place, mutating caller state; copy first",
                )
            return
        if (
            func.attr in _INPLACE_METHODS
            and isinstance(base, ast.Name)
            and base.id in self._aliases()
        ):
            self._emit(
                node,
                "SC006",
                f".{func.attr}() mutates parameter {base.id!r} in place, "
                "mutating caller state; copy first",
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        offender: str | None = None
        if isinstance(target, ast.Name) and target.id in self._aliases():
            offender = target.id
        elif isinstance(target, ast.Subscript):
            candidate = self._base_name(target)
            if candidate is not None and candidate in self._aliases():
                offender = candidate
        if offender is not None:
            self._emit(
                node,
                "SC006",
                f"augmented assignment mutates parameter {offender!r} in "
                "place, mutating caller state; copy first",
            )
        self.generic_visit(node)

    # -- name binding tracking ----------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                mutated = self._base_name(target)
                if mutated is not None and mutated in self._aliases():
                    self._emit(
                        node,
                        "SC006",
                        f"subscript store into parameter {mutated!r} "
                        "mutates caller state; copy first",
                    )
        setish = self._is_setish(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._scope()[target.id] = setish
                if self._is_param_view(node.value):
                    self._aliases().add(target.id)
                else:
                    self._aliases().discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            setish = node.value is not None and self._is_setish(node.value)
            if not setish and node.value is None:
                ann = ast.unparse(node.annotation)
                setish = ann.startswith(("set", "frozenset", "Set", "FrozenSet"))
            self._scope()[node.target.id] = setish
        self.generic_visit(node)

    @staticmethod
    def _parameter_names(node: ast.AST) -> Set[str]:
        args = getattr(node, "args", None)
        if not isinstance(args, ast.arguments):
            return set()
        names = {
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        return names - {"self", "cls"}

    def _visit_scope(self, node: ast.AST) -> None:
        self.setish_stack.append({})
        self.alias_stack.append(self._parameter_names(node))
        self.generic_visit(node)
        self.alias_stack.pop()
        self.setish_stack.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope


# -- entry points --------------------------------------------------------------


def _waived(violation: LintViolation, lines: Sequence[str]) -> bool:
    if violation.line - 1 >= len(lines):
        return False
    match = _NOQA_RE.search(lines[violation.line - 1])
    if match is None:
        return False
    listed = match.group("rules")
    if listed is None:
        return True
    return violation.rule in {r.strip().upper() for r in listed.split(",")}


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[str] | None = None,
) -> List[LintViolation]:
    """Lint one source string; returns violations sorted by location."""
    active = set(RULES) if rules is None else set(rules)
    unknown = active - set(RULES)
    if unknown:
        raise ValueError(f"unknown lint rules {sorted(unknown)}")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ValueError(f"{path}: cannot lint, syntax error: {exc}") from exc
    checker = _Checker(path, lines, active)
    checker.visit(tree)
    kept = [v for v in checker.violations if not _waived(v, lines)]
    return sorted(kept, key=lambda v: (v.line, v.col, v.rule))


def rules_for_path(relative: str) -> Tuple[str, ...]:
    """The rule set that applies to a repo-relative source path.

    SC003 applies everywhere under ``src/repro``; the determinism
    rules to the simulation packages; SC005 to the infrastructure packages
    and ``DOCSTRING_MODULES``; the array-hazard rules SC006-SC008 to the
    numpy kernels in ``ARRAY_MODULES``.
    """
    parts = Path(relative).parts
    rules: List[str] = ["SC003"]
    if "repro" in parts:
        idx = parts.index("repro")
        inside = "/".join(parts[idx + 1:])
        if len(parts) > idx + 1:
            package = parts[idx + 1]
            if package in SCOPED_PACKAGES:
                rules = ["SC001", "SC002", "SC003", "SC004"]
            elif package in DOCSTRING_PACKAGES:
                rules = ["SC003", "SC005"]
        if inside in DOCSTRING_MODULES and "SC005" not in rules:
            rules.append("SC005")
        if inside in ARRAY_MODULES:
            rules.extend(("SC006", "SC007", "SC008"))
    return tuple(rules)


def run_lint(root: Path | str) -> List[LintViolation]:
    """Lint every ``src/repro`` module under the repo root."""
    root = Path(root).resolve()
    package = root / "src" / "repro"
    if not package.is_dir():
        raise ValueError(f"{package} is not a directory; pass the repo root")
    violations: List[LintViolation] = []
    for source_path in sorted(package.rglob("*.py")):
        relative = source_path.relative_to(root).as_posix()
        source = source_path.read_text(encoding="utf-8")
        violations.extend(
            lint_source(source, relative, rules=rules_for_path(relative))
        )
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))
