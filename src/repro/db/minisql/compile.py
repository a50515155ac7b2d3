"""Expression-to-closure compilation for MiniSQL.

The interpreter in :mod:`~repro.db.minisql.expr` re-walks the AST for
every row: each node costs an ``isinstance`` dispatch chain, and every
column reference goes through a dict lookup (plus exception handling for
the ambiguous/missing cases) in ``RowContext``.  At PerfDMF scale — §5.3
queries over >1.6M interval_location_profile rows — that interpretive
overhead dominates query time.

This module lowers a bound expression tree into nested Python closures
*once per statement*:

* column references resolve to fixed row offsets at compile time
  (``row[17]``, no per-row name resolution);
* literals are pre-bound constants; placeholders index ``params``;
* comparison operators become pre-selected :mod:`operator` functions
  wrapped in the exact NULL/affinity-coercion rules of
  ``expr._compare``;
* ``LIKE`` against a literal pattern pre-compiles its regex.

Every closure has the uniform signature ``fn(row, params, aggs) ->
value`` — ``aggs`` carries finalized aggregate values for post-GROUP BY
expressions (HAVING, projections over aggregates), and is ``None``
during row scans.

Semantics are the interpreter's, bit for bit: three-valued logic,
NULL propagation, sqlite's numeric-string comparison coercion,
division-by-zero → NULL, and the int-division rule all mirror
``expr.py``.  Anything the compiler cannot prove it handles identically
— unresolvable or ambiguous column refs (the interpreter only raises
when a row actually exists), unknown scalar functions, aggregate misuse,
subqueries, ``*`` — raises :class:`CannotCompile`, and the executor
gives that one section a closure with the same signature that runs
``expr.evaluate`` on the row it is given.  The equivalence suites run
the differential SQL corpus with every section compiled and with every
section interpreted to prove the two agree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Mapping, Optional, Sequence

from .ast_nodes import (
    Between, BinaryOp, CaseExpr, CastExpr, ColumnRef, Expression,
    FunctionCall, InList, IsNull, Like, Literal, Placeholder, UnaryOp,
)
from .errors import DataError, ProgrammingError
from .expr import _as_text, _like_regex, _maybe_number, truthy
from .functions import SCALAR_FUNCTIONS, is_aggregate
from .types import cast_value

#: Compiled closure signature: (row, params, aggs) -> value.
CompiledExpr = Callable[[Sequence[Any], Sequence[Any], Optional[Sequence[Any]]], Any]


class CannotCompile(Exception):
    """Raised when an expression must stay on the interpreter.

    Not an error: the executor catches it and gives the section a
    closure that runs ``expr.evaluate``, so behaviour (including *when*
    errors are raised — e.g. a bad column name over an empty table) is
    unchanged.
    """


# ---------------------------------------------------------------------------
# plan containers (filled in by the executor, cached on Statement objects)
# ---------------------------------------------------------------------------


@dataclass
class JoinPlan:
    """Closures for one join stage; a hash join when it has keys, else
    a nested loop."""

    probe: Optional[CompiledExpr]  # outer-side key, over the padded row
    build: Optional[CompiledExpr]  # inner-side key, over the inner table row
    condition: CompiledExpr  # full ON condition, over the padded row


@dataclass
class GroupPlan:
    """Compiled hash-aggregation: group keys, aggregate arguments, and
    post-aggregation (HAVING / projection / ORDER BY) closures."""

    group_fns: list[CompiledExpr]
    #: One factory per aggregate call site (handles DISTINCT wrapping).
    acc_factories: list[Callable[[], Any]]
    #: Per aggregate: argument closure, or None for COUNT(*).
    arg_fns: list[Optional[CompiledExpr]]
    having_fn: Optional[CompiledExpr]  # None = no HAVING clause
    #: Per result column: int (representative-row position for ``*``
    #: columns) or a closure over (representative, params, aggs).
    item_slots: list[Any]
    #: Per ORDER BY item: (int projected index | closure, descending).
    order_specs: Optional[list[tuple[Any, bool]]]  # None = no ORDER BY


@dataclass
class SelectPlan:
    """The closures of every section of one SELECT, cached on the
    Statement.

    Each closure is compiled or, where the compiler refused the
    section's expression, interpreted; ``fallbacks`` counts the
    interpreted ones, charged to ``Database.stats['compile_fallbacks']``
    once per execution.  ``None`` means the statement has no such
    section.
    """

    schema_version: int
    layout: Any  # executor._Layout, reused across executions
    columns: list[str]  # result column names
    exprs: list[Any]  # _expand_items output (int | Expression)
    where_fn: Optional[CompiledExpr]
    joins: list[Optional[JoinPlan]] = field(default_factory=list)  # None: CROSS
    grouped: Optional[GroupPlan] = None
    is_grouped: bool = False
    proj: Optional[list[Any]] = None  # per column: int | closure
    order_specs: Optional[list[tuple[Any, bool]]] = None
    fallbacks: int = 0
    #: Column-projection pushdown for single-table full scans: row
    #: positions the statement touches, plus the same sections recompiled
    #: against the compacted row shape.  None when ineligible.
    compact: Optional["CompactPlan"] = None
    #: Whole-column vectorized execution over a columnar table; only
    #: built when ``compact`` exists and the table was columnar at plan
    #: time.  None when ineligible.
    vector: Optional["VectorPlan"] = None


@dataclass
class CompactPlan:
    """Plan sections recompiled against a projected (compact) row."""

    positions: Optional[tuple[int, ...]]  # None = statement uses every column
    where_fn: Optional[CompiledExpr]
    grouped: Optional[GroupPlan]
    proj: Optional[list[Any]]
    order_specs: Optional[list[tuple[Any, bool]]]


@dataclass
class DMLPlan:
    """WHERE / SET closures for UPDATE and DELETE."""

    schema_version: int
    where_fn: Optional[CompiledExpr]
    assign_fns: list[tuple[int, CompiledExpr]]  # (column position, closure)
    fallbacks: int = 0


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

_CMP_FUNCS = {
    "=": operator.eq, "<>": operator.ne,
    "<": operator.lt, ">": operator.gt,
    "<=": operator.le, ">=": operator.ge,
}


def _compare_values(opf: Callable[[Any, Any], bool], is_ne: bool,
                    left: Any, right: Any) -> Any:
    """``expr._compare`` with the operator pre-dispatched."""
    if left is None or right is None:
        return None
    if isinstance(left, str) != isinstance(right, str):
        if isinstance(left, str):
            left = _maybe_number(left)
        else:
            right = _maybe_number(right)
        if isinstance(left, str) != isinstance(right, str):
            return int(is_ne)  # incomparable: only <> is true
    return int(opf(left, right))


_EQ = operator.eq


def _eq_values(left: Any, right: Any) -> Any:
    """``expr._compare('=', ...)`` — shared by IN / simple CASE."""
    if left is None or right is None:
        return None
    if isinstance(left, str) != isinstance(right, str):
        if isinstance(left, str):
            left = _maybe_number(left)
        else:
            right = _maybe_number(right)
        if isinstance(left, str) != isinstance(right, str):
            return 0
    return int(left == right)


def compile_expr(
    expr: Expression,
    resolution: Mapping[str, int],
    agg_slots: Optional[dict[int, int]] = None,
    used: Optional[set] = None,
) -> CompiledExpr:
    """Lower ``expr`` to a closure, or raise :class:`CannotCompile`.

    ``resolution`` maps lowered column keys (``name`` / ``alias.name``)
    to row offsets.  ``agg_slots`` maps ``id(FunctionCall)`` of
    precomputed aggregate call sites to indexes into the ``aggs``
    argument.  ``used`` (when given) accumulates every row offset the
    compiled closure reads — the projection-pushdown analysis.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, params, aggs: value

    if isinstance(expr, Placeholder):
        index = expr.index

        def placeholder_fn(row, params, aggs):
            try:
                return params[index]
            except IndexError:
                raise ProgrammingError(
                    f"statement uses parameter {index + 1} but only "
                    f"{len(params)} supplied"
                ) from None

        return placeholder_fn

    if isinstance(expr, ColumnRef):
        position = resolution.get(expr.qualified.lower())
        if position is None:
            # Ambiguous or unknown name: the interpreter raises only when
            # a row is actually bound, so this must stay interpreted.
            raise CannotCompile(expr.qualified)
        if used is not None:
            used.add(position)
        return lambda row, params, aggs: row[position]

    if isinstance(expr, UnaryOp):
        op = expr.op
        operand = compile_expr(expr.operand, resolution, agg_slots, used)
        if op == "NOT":
            def not_fn(row, params, aggs):
                value = operand(row, params, aggs)
                if value is None:
                    return None
                return int(not truthy(value))
            return not_fn
        if op == "-":
            def neg_fn(row, params, aggs):
                value = operand(row, params, aggs)
                if value is None:
                    return None
                if not isinstance(value, (int, float)):
                    raise DataError(f"non-numeric operand for unary -: {value!r}")
                return -value
            return neg_fn
        # Unknown unary ops raise per-row in the interpreter (after a
        # NULL short-circuit) — leave them there.
        raise CannotCompile(f"unary {op}")

    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, resolution, agg_slots, used)

    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, resolution, agg_slots, used)
        negated = expr.negated
        return lambda row, params, aggs: int(
            (operand(row, params, aggs) is None) != negated
        )

    if isinstance(expr, InList):
        operand = compile_expr(expr.operand, resolution, agg_slots, used)
        items = [compile_expr(i, resolution, agg_slots, used) for i in expr.items]
        negated = expr.negated

        def in_fn(row, params, aggs):
            value = operand(row, params, aggs)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, params, aggs)
                if candidate is None:
                    saw_null = True
                    continue
                if _eq_values(value, candidate):
                    return int(not negated)
            if saw_null:
                return None
            return int(negated)

        return in_fn

    if isinstance(expr, Between):
        operand = compile_expr(expr.operand, resolution, agg_slots, used)
        low = compile_expr(expr.low, resolution, agg_slots, used)
        high = compile_expr(expr.high, resolution, agg_slots, used)
        negated = expr.negated
        ge = operator.ge
        le = operator.le

        def between_fn(row, params, aggs):
            value = operand(row, params, aggs)
            lo = low(row, params, aggs)
            hi = high(row, params, aggs)
            if value is None or lo is None or hi is None:
                return None
            result = bool(_compare_values(ge, False, value, lo)) and bool(
                _compare_values(le, False, value, hi)
            )
            return int(result != negated)

        return between_fn

    if isinstance(expr, Like):
        operand = compile_expr(expr.operand, resolution, agg_slots, used)
        negated = expr.negated
        if isinstance(expr.pattern, Literal) and expr.pattern.value is not None:
            regex = _like_regex(str(expr.pattern.value))

            def like_const_fn(row, params, aggs):
                value = operand(row, params, aggs)
                if value is None:
                    return None
                result = regex.match(str(value)) is not None
                return int(result != negated)

            return like_const_fn
        pattern = compile_expr(expr.pattern, resolution, agg_slots, used)

        def like_fn(row, params, aggs):
            value = operand(row, params, aggs)
            pat = pattern(row, params, aggs)
            if value is None or pat is None:
                return None
            result = _like_regex(str(pat)).match(str(value)) is not None
            return int(result != negated)

        return like_fn

    if isinstance(expr, FunctionCall):
        return _compile_function(expr, resolution, agg_slots, used)

    if isinstance(expr, CaseExpr):
        return _compile_case(expr, resolution, agg_slots, used)

    if isinstance(expr, CastExpr):
        operand = compile_expr(expr.operand, resolution, agg_slots, used)
        target = expr.target_type
        return lambda row, params, aggs: cast_value(
            operand(row, params, aggs), target
        )

    # Star, Subquery, anything new: interpreter territory.
    raise CannotCompile(type(expr).__name__)


def _compile_binary(
    expr: BinaryOp,
    resolution: Mapping[str, int],
    agg_slots: Optional[dict[int, int]],
    used: Optional[set],
) -> CompiledExpr:
    op = expr.op
    left = compile_expr(expr.left, resolution, agg_slots, used)
    right = compile_expr(expr.right, resolution, agg_slots, used)

    if op == "AND":
        def and_fn(row, params, aggs):
            lhs = left(row, params, aggs)
            if lhs is not None and not truthy(lhs):
                return 0
            rhs = right(row, params, aggs)
            if rhs is not None and not truthy(rhs):
                return 0
            if lhs is None or rhs is None:
                return None
            return 1
        return and_fn

    if op == "OR":
        def or_fn(row, params, aggs):
            lhs = left(row, params, aggs)
            if lhs is not None and truthy(lhs):
                return 1
            rhs = right(row, params, aggs)
            if rhs is not None and truthy(rhs):
                return 1
            if lhs is None or rhs is None:
                return None
            return 0
        return or_fn

    if op == "||":
        def concat_fn(row, params, aggs):
            lhs = left(row, params, aggs)
            rhs = right(row, params, aggs)
            if lhs is None or rhs is None:
                return None
            return _as_text(lhs) + _as_text(rhs)
        return concat_fn

    if op in _CMP_FUNCS:
        opf = _CMP_FUNCS[op]
        is_ne = op == "<>"

        def cmp_fn(row, params, aggs):
            lhs = left(row, params, aggs)
            rhs = right(row, params, aggs)
            if lhs is None or rhs is None:
                return None
            if isinstance(lhs, str) != isinstance(rhs, str):
                if isinstance(lhs, str):
                    lhs = _maybe_number(lhs)
                else:
                    rhs = _maybe_number(rhs)
                if isinstance(lhs, str) != isinstance(rhs, str):
                    return int(is_ne)
            return int(opf(lhs, rhs))

        return cmp_fn

    if op in ("+", "-", "*", "/", "%"):
        if op == "+":
            arith = operator.add
        elif op == "-":
            arith = operator.sub
        elif op == "*":
            arith = operator.mul
        else:
            arith = None  # '/' and '%' need their zero/NULL rules inline

        if arith is not None:
            def arith_fn(row, params, aggs):
                lhs = left(row, params, aggs)
                rhs = right(row, params, aggs)
                if lhs is None or rhs is None:
                    return None
                if not isinstance(lhs, (int, float)):
                    raise DataError(f"non-numeric operand for {op}: {lhs!r}")
                if not isinstance(rhs, (int, float)):
                    raise DataError(f"non-numeric operand for {op}: {rhs!r}")
                return arith(lhs, rhs)
            return arith_fn

        if op == "/":
            def div_fn(row, params, aggs):
                lhs = left(row, params, aggs)
                rhs = right(row, params, aggs)
                if lhs is None or rhs is None:
                    return None
                if not isinstance(lhs, (int, float)):
                    raise DataError(f"non-numeric operand for /: {lhs!r}")
                if not isinstance(rhs, (int, float)):
                    raise DataError(f"non-numeric operand for /: {rhs!r}")
                if rhs == 0:
                    return None  # sqlite yields NULL on division by zero
                if isinstance(lhs, int) and isinstance(rhs, int):
                    return lhs // rhs if lhs % rhs == 0 else lhs / rhs
                return lhs / rhs
            return div_fn

        def mod_fn(row, params, aggs):
            lhs = left(row, params, aggs)
            rhs = right(row, params, aggs)
            if lhs is None or rhs is None:
                return None
            if not isinstance(lhs, (int, float)):
                raise DataError(f"non-numeric operand for %: {lhs!r}")
            if not isinstance(rhs, (int, float)):
                raise DataError(f"non-numeric operand for %: {rhs!r}")
            if rhs == 0:
                return None
            return lhs % rhs
        return mod_fn

    # Unknown binary operator: interpreter raises per row.
    raise CannotCompile(f"binary {op}")


def _compile_function(
    expr: FunctionCall,
    resolution: Mapping[str, int],
    agg_slots: Optional[dict[int, int]],
    used: Optional[set],
) -> CompiledExpr:
    name = expr.name
    if agg_slots is not None:
        slot = agg_slots.get(id(expr))
        if slot is not None:
            return lambda row, params, aggs: aggs[slot]
    if is_aggregate(name) and not (name in ("MIN", "MAX") and len(expr.args) >= 2):
        # Aggregate misuse raises per-row in the interpreter; nested
        # aggregates inside a grouped query take this path too.
        raise CannotCompile(f"aggregate {name}")
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is None:
        # "no such function" is a per-row error in the interpreter.
        raise CannotCompile(f"function {name}")
    args = [compile_expr(a, resolution, agg_slots, used) for a in expr.args]

    if len(args) == 1:
        arg0 = args[0]

        def call1_fn(row, params, aggs):
            try:
                return fn(arg0(row, params, aggs))
            except TypeError as exc:
                raise ProgrammingError(
                    f"wrong argument count for {name}(): {exc}"
                ) from None

        return call1_fn

    def call_fn(row, params, aggs):
        values = [a(row, params, aggs) for a in args]
        try:
            return fn(*values)
        except TypeError as exc:
            raise ProgrammingError(
                f"wrong argument count for {name}(): {exc}"
            ) from None

    return call_fn


def _compile_case(
    expr: CaseExpr,
    resolution: Mapping[str, int],
    agg_slots: Optional[dict[int, int]],
    used: Optional[set],
) -> CompiledExpr:
    whens = [
        (
            compile_expr(condition, resolution, agg_slots, used),
            compile_expr(result, resolution, agg_slots, used),
        )
        for condition, result in expr.whens
    ]
    default = (
        compile_expr(expr.default, resolution, agg_slots, used)
        if expr.default is not None else None
    )
    if expr.operand is not None:
        subject_fn = compile_expr(expr.operand, resolution, agg_slots, used)

        def case_simple_fn(row, params, aggs):
            subject = subject_fn(row, params, aggs)
            for condition, result in whens:
                candidate = condition(row, params, aggs)
                if (
                    subject is not None and candidate is not None
                    and _eq_values(subject, candidate)
                ):
                    return result(row, params, aggs)
            if default is not None:
                return default(row, params, aggs)
            return None

        return case_simple_fn

    def case_fn(row, params, aggs):
        for condition, result in whens:
            if truthy(condition(row, params, aggs)):
                return result(row, params, aggs)
        if default is not None:
            return default(row, params, aggs)
        return None

    return case_fn


# ---------------------------------------------------------------------------
# vectorized lowering (columnar tables)
# ---------------------------------------------------------------------------
#
# A vectorized expression has the signature ``fn(cols, n, params)`` where
# ``cols`` is a list of whole-column value lists (in compact-position
# order) and ``n`` their common length; it returns either a list of n
# values or a :class:`_VS` broadcast scalar.  The contract with the
# executor is *atomic-or-fallback*: a vector plan either completes and
# returns results provably identical to the row engine's, or the
# executor abandons it (any exception, impure column, runtime type
# surprise) and re-executes through the row pipeline — which then
# reproduces errors with canonical per-row timing.  Vector
# evaluation is side-effect free, so abandoning a half-finished batch is
# always safe.  This mirrors the CannotCompile discipline one level up.
#
# Purity: affinity coercion guarantees TEXT columns hold only str/None,
# but INTEGER/REAL/NUMERIC columns may legally hold stray strings (the
# lenient sqlite rules).  Numeric fast paths therefore only engage when
# the plan's ``checked`` columns are *runtime-pure* (no escape-hatch
# values) — the executor verifies that before running the plan.


class CannotVectorize(Exception):
    """Static bail-out: this expression has no vectorized form."""


class VecBail(Exception):
    """Runtime bail-out: abandon vector execution, use the row engine."""


class _VS:
    """A broadcast scalar flowing through vector expressions."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


#: fn(cols, n, params) -> list | _VS
VecFn = Callable[[list, int, Sequence[Any]], Any]

#: Purities that numeric fast paths accept ("null" propagates, "unknown"
#: scalars are type-checked at runtime).
_NUMISH = ("num", "null", "unknown")


@dataclass
class VectorPlan:
    """Vectorized sections for one single-table SELECT."""

    #: Real table positions backing each compact column, in compact order.
    positions: tuple[int, ...]
    #: Real table positions that must be runtime-pure numeric.
    checked: tuple[int, ...]
    where_fn: Optional[VecFn]
    #: True when the WHERE mask holds only int/None (skip truthy()).
    where_pure: bool
    kind: str  # "plain" | "agg"
    #: plain: per result column, int (compact index) or VecFn.
    items: Optional[list[Any]] = None
    #: plain: per ORDER BY entry, (int projected-item index | VecFn, desc).
    order: Optional[list[tuple[Any, bool]]] = None
    #: agg: per aggregate site, (name, is_star, distinct, VecFn | None),
    #: aligned index-for-index with ``grouped.acc_factories``.
    aggs: Optional[list[tuple[str, bool, bool, Optional[VecFn]]]] = None
    #: agg: row-closure GroupPlan over the compact representative row
    #: (having / item / order sections reuse the PR 5 closures).
    grouped: Optional[GroupPlan] = None
    #: Every WHERE conjunct as (table position, constant) when each is
    #: ``col = literal/placeholder``; None otherwise.  A hash probe on
    #: those columns may discharge the WHERE re-check.
    eq_where: Optional[tuple[tuple[int, Any], ...]] = None


def _liftn(fns: list, elem: Callable) -> VecFn:
    """Generic element-wise lowering: evaluate every operand, broadcast
    scalars, and map ``elem`` over the zipped streams.  ``elem`` must
    replicate the row closure's semantics exactly (it may raise — the
    executor's atomic-or-fallback contract turns that into a row-engine
    re-execution)."""

    def fn(cols, n, params):
        vals = [f(cols, n, params) for f in fns]
        if all(type(v) is _VS for v in vals):
            return _VS(elem(*[v.value for v in vals]))
        streams = [repeat(v.value) if type(v) is _VS else v for v in vals]
        return [elem(*args) for args in zip(*streams)]

    return fn


def _vcolumns(expr_fns: list, cols, n, params) -> list:
    """Evaluate vector fns, materialising broadcast scalars to lists."""
    out = []
    for fn in expr_fns:
        v = fn(cols, n, params)
        out.append([v.value] * n if type(v) is _VS else v)
    return out


def vcompile(
    expr: Expression,
    resolution: Mapping[str, int],
    purities: Sequence[str],
    checked: set,
) -> tuple[VecFn, str]:
    """Lower ``expr`` to a whole-column function, or raise
    :class:`CannotVectorize`.

    ``resolution`` maps lowered column keys to *compact* positions,
    ``purities`` gives each compact position's static purity ("num" or
    "text"), and ``checked`` accumulates the compact positions whose
    numeric purity must be re-verified at execution time.
    """
    if isinstance(expr, Literal):
        value = expr.value
        scalar = _VS(value)
        if value is None:
            purity = "null"
        elif isinstance(value, (int, float)):
            purity = "num"
        elif isinstance(value, str):
            purity = "text"
        else:
            raise CannotVectorize("literal")
        return (lambda cols, n, params: scalar), purity

    if isinstance(expr, Placeholder):
        index = expr.index

        def placeholder_vec(cols, n, params):
            try:
                return _VS(params[index])
            except IndexError:
                raise ProgrammingError(
                    f"statement uses parameter {index + 1} but only "
                    f"{len(params)} supplied"
                ) from None

        return placeholder_vec, "unknown"

    if isinstance(expr, ColumnRef):
        position = resolution.get(expr.qualified.lower())
        if position is None:
            raise CannotVectorize(expr.qualified)
        purity = purities[position]
        if purity == "num":
            checked.add(position)
        elif purity != "text":
            raise CannotVectorize(f"column purity {purity}")
        return (lambda cols, n, params: cols[position]), purity

    if isinstance(expr, UnaryOp):
        return _vcompile_unary(expr, resolution, purities, checked)

    if isinstance(expr, BinaryOp):
        return _vcompile_binary(expr, resolution, purities, checked)

    if isinstance(expr, IsNull):
        operand, _ = vcompile(expr.operand, resolution, purities, checked)
        negated = expr.negated
        return _liftn([operand], lambda v: int((v is None) != negated)), "num"

    if isinstance(expr, InList):
        # Only scalar item lists (literals / placeholders): the row
        # engine evaluates items lazily per row, which only matters for
        # item expressions that could differ or raise per row.
        if not all(isinstance(i, (Literal, Placeholder)) for i in expr.items):
            raise CannotVectorize("IN items")
        operand, _ = vcompile(expr.operand, resolution, purities, checked)
        item_fns = [
            vcompile(i, resolution, purities, checked)[0] for i in expr.items
        ]
        negated = expr.negated

        def in_vec(cols, n, params):
            candidates = [f(cols, n, params).value for f in item_fns]
            hit = int(not negated)
            miss = int(negated)

            def check(value):
                if value is None:
                    return None
                saw_null = False
                for candidate in candidates:
                    if candidate is None:
                        saw_null = True
                        continue
                    if _eq_values(value, candidate):
                        return hit
                return None if saw_null else miss

            V = operand(cols, n, params)
            if type(V) is _VS:
                return _VS(check(V.value))
            return [check(v) for v in V]

        return in_vec, "num"

    if isinstance(expr, Between):
        operand, _ = vcompile(expr.operand, resolution, purities, checked)
        low, _ = vcompile(expr.low, resolution, purities, checked)
        high, _ = vcompile(expr.high, resolution, purities, checked)
        negated = expr.negated
        ge = operator.ge
        le = operator.le

        def between_elem(value, lo, hi):
            if value is None or lo is None or hi is None:
                return None
            result = bool(_compare_values(ge, False, value, lo)) and bool(
                _compare_values(le, False, value, hi)
            )
            return int(result != negated)

        return _liftn([operand, low, high], between_elem), "num"

    if isinstance(expr, Like):
        operand, _ = vcompile(expr.operand, resolution, purities, checked)
        negated = expr.negated
        if isinstance(expr.pattern, Literal) and expr.pattern.value is not None:
            regex = _like_regex(str(expr.pattern.value))

            def like_const_elem(value):
                if value is None:
                    return None
                return int((regex.match(str(value)) is not None) != negated)

            return _liftn([operand], like_const_elem), "num"
        pattern, _ = vcompile(expr.pattern, resolution, purities, checked)

        def like_elem(value, pat):
            if value is None or pat is None:
                return None
            result = _like_regex(str(pat)).match(str(value)) is not None
            return int(result != negated)

        return _liftn([operand, pattern], like_elem), "num"

    if isinstance(expr, CaseExpr):
        return _vcompile_case(expr, resolution, purities, checked)

    if isinstance(expr, CastExpr):
        operand, _ = vcompile(expr.operand, resolution, purities, checked)
        target = expr.target_type
        try:  # unknown cast targets raise per row: stay on the row engine
            cast_value(0, target)
            cast_value(None, target)
        except Exception:
            raise CannotVectorize(f"cast {target}") from None
        upper = target.upper()
        if any(k in upper for k in ("INT", "REAL", "FLOA", "DOUB", "NUM", "DEC", "BOOL")):
            purity = "num"
        elif any(k in upper for k in ("CHAR", "TEXT", "CLOB", "STR")):
            purity = "text"
        else:
            purity = "any"
        return _liftn([operand], lambda v: cast_value(v, target)), purity

    # FunctionCall (scalar functions may raise per row; aggregates are
    # handled at statement level), Star, Subquery, anything new.
    raise CannotVectorize(type(expr).__name__)


def _vcompile_unary(expr, resolution, purities, checked):
    op = expr.op
    operand, purity = vcompile(expr.operand, resolution, purities, checked)
    if op == "NOT":
        if purity in _NUMISH:
            def not_vec(cols, n, params):
                V = operand(cols, n, params)
                if type(V) is _VS:
                    v = V.value
                    return _VS(None if v is None else int(not truthy(v)))
                return [None if v is None else (0 if v else 1) for v in V]
            return not_vec, "num"
        return _liftn(
            [operand],
            lambda v: None if v is None else int(not truthy(v)),
        ), "num"
    if op == "-":
        if purity not in _NUMISH:
            raise CannotVectorize("unary - operand")

        def neg_elem(value):
            if value is None:
                return None
            if not isinstance(value, (int, float)):
                raise DataError(f"non-numeric operand for unary -: {value!r}")
            return -value

        return _liftn([operand], neg_elem), "num"
    raise CannotVectorize(f"unary {op}")


def _vcompile_binary(expr, resolution, purities, checked):
    op = expr.op
    left, lpure = vcompile(expr.left, resolution, purities, checked)
    right, rpure = vcompile(expr.right, resolution, purities, checked)

    if op in ("AND", "OR"):
        is_and = op == "AND"
        if lpure in _NUMISH and rpure in _NUMISH:
            def logic_fast(cols, n, params):
                L = left(cols, n, params)
                R = right(cols, n, params)
                ls = type(L) is _VS
                rs = type(R) is _VS
                if ls and rs:
                    return _VS(_logic3(is_and, L.value, R.value))
                if ls or rs:
                    scalar = L.value if ls else R.value
                    V = R if ls else L
                    sb = None if scalar is None else truthy(scalar)
                    if is_and:
                        if sb is False:
                            return _VS(0)
                        if sb is None:
                            return [0 if (v is not None and not v) else None
                                    for v in V]
                        return [0 if (v is not None and not v)
                                else (None if v is None else 1) for v in V]
                    if sb:
                        return _VS(1)
                    if sb is None:
                        return [1 if (v is not None and v) else None for v in V]
                    return [1 if (v is not None and v)
                            else (None if v is None else 0) for v in V]
                if is_and:
                    return [
                        0 if ((l is not None and not l)
                              or (r is not None and not r))
                        else (None if (l is None or r is None) else 1)
                        for l, r in zip(L, R)
                    ]
                return [
                    1 if ((l is not None and l) or (r is not None and r))
                    else (None if (l is None or r is None) else 0)
                    for l, r in zip(L, R)
                ]
            return logic_fast, "num"
        elem = (lambda l, r: _logic3(is_and, l, r))
        return _liftn([left, right], elem), "num"

    if op == "||":
        def concat_elem(l, r):
            if l is None or r is None:
                return None
            return _as_text(l) + _as_text(r)
        return _liftn([left, right], concat_elem), "text"

    if op in _CMP_FUNCS:
        opf = _CMP_FUNCS[op]
        is_ne = op == "<>"
        if lpure in _NUMISH and rpure in _NUMISH:
            def cmp_fast(cols, n, params):
                L = left(cols, n, params)
                R = right(cols, n, params)
                ls = type(L) is _VS
                rs = type(R) is _VS
                if ls and rs:
                    return _VS(_compare_values(opf, is_ne, L.value, R.value))
                if ls or rs:
                    scalar = (L if ls else R).value
                    V = R if ls else L
                    if scalar is None:
                        return _VS(None)
                    if isinstance(scalar, str):
                        scalar = _maybe_number(scalar)
                        if isinstance(scalar, str):
                            flag = int(is_ne)  # incomparable vs numbers
                            return [None if v is None else flag for v in V]
                    if ls:
                        lv = scalar
                        return [None if v is None else (1 if opf(lv, v) else 0)
                                for v in V]
                    rv = scalar
                    return [None if v is None else (1 if opf(v, rv) else 0)
                            for v in V]
                return [
                    None if l is None or r is None
                    else (1 if opf(l, r) else 0)
                    for l, r in zip(L, R)
                ]
            return cmp_fast, "num"
        elem = (lambda l, r: _compare_values(opf, is_ne, l, r))
        return _liftn([left, right], elem), "num"

    if op in ("+", "-", "*", "/", "%"):
        if lpure not in _NUMISH or rpure not in _NUMISH:
            raise CannotVectorize(f"non-numeric {op}")
        if op in ("+", "-", "*"):
            arith = {"+": operator.add, "-": operator.sub,
                     "*": operator.mul}[op]

            def arith_elem(l, r):
                if l is None or r is None:
                    return None
                if not isinstance(l, (int, float)):
                    raise DataError(f"non-numeric operand for {op}: {l!r}")
                if not isinstance(r, (int, float)):
                    raise DataError(f"non-numeric operand for {op}: {r!r}")
                return arith(l, r)

            return _liftn([left, right], arith_elem), "num"
        if op == "/":
            def div_elem(l, r):
                if l is None or r is None:
                    return None
                if not isinstance(l, (int, float)):
                    raise DataError(f"non-numeric operand for /: {l!r}")
                if not isinstance(r, (int, float)):
                    raise DataError(f"non-numeric operand for /: {r!r}")
                if r == 0:
                    return None
                if isinstance(l, int) and isinstance(r, int):
                    return l // r if l % r == 0 else l / r
                return l / r
            return _liftn([left, right], div_elem), "num"

        def mod_elem(l, r):
            if l is None or r is None:
                return None
            if not isinstance(l, (int, float)):
                raise DataError(f"non-numeric operand for %: {l!r}")
            if not isinstance(r, (int, float)):
                raise DataError(f"non-numeric operand for %: {r!r}")
            if r == 0:
                return None
            return l % r
        return _liftn([left, right], mod_elem), "num"

    raise CannotVectorize(f"binary {op}")


def _logic3(is_and: bool, lhs: Any, rhs: Any) -> Any:
    """Three-valued AND/OR, exactly as the row closures compute it."""
    if is_and:
        if lhs is not None and not truthy(lhs):
            return 0
        if rhs is not None and not truthy(rhs):
            return 0
        if lhs is None or rhs is None:
            return None
        return 1
    if lhs is not None and truthy(lhs):
        return 1
    if rhs is not None and truthy(rhs):
        return 1
    if lhs is None or rhs is None:
        return None
    return 0


def _join_purity(purities: list[str]) -> str:
    out = "null"
    for p in purities:
        if p == "null":
            continue
        if p in ("num", "unknown"):
            p = "num"
        if out == "null":
            out = p
        elif out != p:
            return "any"
    return "num" if out in ("null", "num") else out


def _vcompile_case(expr, resolution, purities, checked):
    when_fns = []
    result_purities = []
    for condition, result in expr.whens:
        cfn, _ = vcompile(condition, resolution, purities, checked)
        rfn, rp = vcompile(result, resolution, purities, checked)
        when_fns.extend((cfn, rfn))
        result_purities.append(rp)
    n_whens = len(expr.whens)
    fns = list(when_fns)
    if expr.default is not None:
        dfn, dp = vcompile(expr.default, resolution, purities, checked)
        fns.append(dfn)
        result_purities.append(dp)
    has_default = expr.default is not None

    if expr.operand is not None:
        sfn, _ = vcompile(expr.operand, resolution, purities, checked)
        fns.insert(0, sfn)

        def case_simple_elem(*args):
            subject = args[0]
            for i in range(n_whens):
                candidate = args[1 + 2 * i]
                if (
                    subject is not None and candidate is not None
                    and _eq_values(subject, candidate)
                ):
                    return args[2 + 2 * i]
            return args[-1] if has_default else None

        return _liftn(fns, case_simple_elem), _join_purity(result_purities)

    def case_elem(*args):
        for i in range(n_whens):
            if truthy(args[2 * i]):
                return args[2 * i + 1]
        return args[-1] if has_default else None

    return _liftn(fns, case_elem), _join_purity(result_purities)


def try_vcompile(
    expr: Expression,
    resolution: Mapping[str, int],
    purities: Sequence[str],
    checked: set,
) -> Optional[tuple[VecFn, str]]:
    """``vcompile`` returning None instead of raising (any failure means
    the section simply stays on the row engine)."""
    try:
        return vcompile(expr, resolution, purities, checked)
    except Exception:
        return None
