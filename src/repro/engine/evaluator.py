"""Compiled expression evaluation.

Section 2's interpreter types every operand at run time through
:class:`OperandDataType`.  This module keeps those semantics but pays the
typing once: :func:`compile_expr` turns an expression tree into a
:class:`CompiledExpr` -- Python closures over the row of variable bindings
-- and the executor compiles each plan's expressions once, storing the
closures on the :class:`~repro.optimizer.planner.QueryPlan` so plan-cache
and prepared-statement hits reuse them.

Comparisons run as plain Python operators whenever ``OperandDataType``
would give the same answer: both operands numeric (bool/int/float, ints
within int64) or both strings.  Any other pair takes the general path,
which compares references by identity and everything else through
``OperandDataType`` itself, so it raises the same errors; C++-style
arithmetic and unary minus go through ``OperandDataType`` as well.

Path semantics over set/list-valued steps are existential: a comparison is
true when *some* combination of reached values satisfies it -- the standard
OODB reading of ``v.children.age > 10``.  Null references prune the path;
comparisons against NULL are false.  Path steps dereference through the
same batch gate as the join kernels, so compiled evaluation charges exactly
the I/O the interpreter did.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import ExecutionError, TypeMismatchError
from repro.engine.batch import batch_deref_enabled
from repro.engine.objects import ObjectManager
from repro.functions.manager import FunctionManager
from repro.model.objects import MoodObject
from repro.model.operand import OperandDataType
from repro.sql.ast import (
    Between,
    BinOp,
    BoolOp,
    COMPARISON_OPS,
    Expr,
    InList,
    Literal,
    MethodCall,
    Not,
    Path,
    UnaryMinus,
)
from repro.storage.oid import OID

Row = dict[str, MoodObject]

#: ``values(row, evaluator)``: every value an expression denotes.
Values = Callable[[Row, "ExpressionEvaluator"], list]
#: ``test(row, evaluator)``: predicate truth (ill-typed comparisons raise).
Test = Callable[[Row, "ExpressionEvaluator"], bool]

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

_PYOPS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_NUMERIC = frozenset((int, float, bool))
_COLLECTIONS = (set, frozenset, list)


class CompiledExpr:
    """One expression compiled to closures.

    ``reads`` maps each range variable to the first-step attributes the
    expression reads from its object (an empty set when only its identity
    is compared), or to ``None`` when it needs the whole object (method
    receivers, whole objects as values).  The executor unions these to
    decide which attributes a scan decodes.
    """

    __slots__ = ("expr", "_values", "_test", "paths", "reads")

    def __init__(self, expr: Expr):
        self.expr = expr
        # Each form is built on first use: predicates only ever need
        # ``test``, projections and keys only ``values``.
        self._values: Values | None = None
        self._test: Test | None = None
        paths: list[Path] = []
        _collect_paths(expr, paths)
        self.paths = tuple(paths)
        reads: dict[str, set | None] = {}
        _collect_reads(expr, reads, identity=False)
        self.reads = {
            var: None if attrs is None else frozenset(attrs)
            for var, attrs in reads.items()
        }

    @property
    def values(self) -> Values:
        if self._values is None:
            self._values = _compile_values(self.expr)
        return self._values

    @property
    def test(self) -> Test:
        if self._test is None:
            self._test = _compile_test(self.expr)
        return self._test

    def __str__(self) -> str:
        return str(self.expr)

    def __repr__(self) -> str:
        return f"CompiledExpr({self.expr})"


def compile_expr(expr: Expr | CompiledExpr) -> CompiledExpr:
    """Compile ``expr`` (already-compiled expressions pass through)."""
    if isinstance(expr, CompiledExpr):
        return expr
    return CompiledExpr(expr)


def compile_cached(memo: dict[int, CompiledExpr],
                   expr: Expr | CompiledExpr) -> CompiledExpr:
    """:func:`compile_expr` memoised in ``memo`` by expression identity.

    A plan keeps its memo for as long as it lives, and each entry holds
    its expression, so an id can never be reused while its entry exists.
    """
    if isinstance(expr, CompiledExpr):
        return expr
    compiled = memo.get(id(expr))
    if compiled is None:
        compiled = memo[id(expr)] = CompiledExpr(expr)
    return compiled


class ExpressionEvaluator:
    """Evaluates MOODSQL expressions against rows of variable bindings.

    Every entry point accepts plain expressions (compiled on the spot) or
    :class:`CompiledExpr` objects (the executor passes the plan's).  The
    batch entry points are the ones the executor and the join kernels
    use, so per-row evaluation runs inside them.
    """

    def __init__(self, objects: ObjectManager,
                 functions: FunctionManager | None = None):
        self.objects = objects
        self.functions = functions

    # -- per-row API ---------------------------------------------------------

    def values(self, expr: Expr | CompiledExpr, row: Row) -> list[Any]:
        """All values an expression denotes (paths may fan out over
        set-valued steps); scalars come back as one-element lists."""
        return compile_expr(expr).values(row, self)

    def value(self, expr: Expr | CompiledExpr, row: Row) -> Any:
        """The single value of an expression; multi-valued results stay a
        list (for projections of set-valued paths)."""
        return _single(compile_expr(expr).values(row, self))

    def predicate(self, expr: Expr | CompiledExpr, row: Row) -> bool:
        """Truth of a predicate (existential over multi-valued paths;
        NULL-involving comparisons are false)."""
        return compile_expr(expr).test(row, self)

    def reads(self, expr: Expr | CompiledExpr) -> dict | None:
        """What ``expr`` reads of each variable's object (see
        :class:`CompiledExpr`); ``None`` would mean "unknown", which makes
        the executor decode every scanned object whole."""
        return compile_expr(expr).reads

    # -- batch API ----------------------------------------------------------

    def filter_batch(
        self, predicates: Iterable[Expr | CompiledExpr],
        rows: Iterable[Row], prefetch: bool = True,
    ) -> list[Row]:
        """Rows satisfying every predicate -- the batch form of SELECT.

        With ``prefetch`` (and the batch gate on), the paths the
        predicates chase are first dereferenced across the whole batch
        (one page-clustered ``deref_many`` per path step).  Without it,
        ``rows`` may be any iterable: each row is tested as it is drawn,
        so a generator that dereferences per row interleaves its reads
        with the predicates' exactly as a row-at-a-time loop would.
        """
        compiled = [compile_expr(p) for p in predicates]
        if not compiled:
            return list(rows)
        if prefetch:
            self.prefetch(compiled, rows)
        if len(compiled) == 1:
            test = compiled[0].test
            return [row for row in rows if test(row, self)]
        tests = [c.test for c in compiled]
        return [row for row in rows
                if all(test(row, self) for test in tests)]

    def values_batch(
        self, exprs: Sequence[Expr | CompiledExpr], rows: Sequence[Row],
        prefetch: bool = True,
    ) -> list[tuple]:
        """Per-row tuples of :meth:`value` over ``exprs`` (projections,
        sort and partition keys), evaluated row by row in ``exprs``
        order; with ``prefetch`` the expressions' paths are first
        dereferenced batch-at-a-time."""
        compiled = [compile_expr(e) for e in exprs]
        if prefetch:
            self.prefetch(compiled, rows)
        functions = [c.values for c in compiled]
        return [
            tuple([_single(values(row, self)) for values in functions])
            for row in rows
        ]

    def prefetch(
        self, exprs: Iterable[Expr | CompiledExpr], rows: Sequence[Row],
    ) -> None:
        """Warm the object cache for every path step of ``exprs`` across
        ``rows``: each step's reference OIDs are collected over the whole
        batch and dereferenced with one page-clustered ``deref_many``
        call, so subsequent per-row evaluation never issues a random
        chase.  A no-op (and charge-free) when the batch gate is off.

        Deliberately conservative: unbound variables, null references and
        non-object values are skipped here -- per-row evaluation is the
        single place errors and NULL semantics are decided.
        """
        if len(rows) < 2 or not batch_deref_enabled(self.objects):
            return
        for expr in exprs:
            for path in compile_expr(expr).paths:
                self._prefetch_path(path, rows)

    def _prefetch_path(self, path: Path, rows: Sequence[Row]) -> None:
        var = path.var
        frontier: list[Any] = [row[var] for row in rows if var in row]
        last = len(path.attrs) - 1
        for step, attribute in enumerate(path.attrs):
            oids = [
                v for v in frontier
                if isinstance(v, OID) and not v.is_null
            ]
            fetched = self.objects.deref_many(oids) if oids else {}
            if step == last:
                break  # the last step's values are never chased
            next_frontier: list[Any] = []
            for value in frontier:
                if isinstance(value, MoodObject):
                    obj = value
                elif isinstance(value, OID) and value in fetched:
                    obj = fetched[value]
                else:
                    continue
                attr_value = obj.state.get(attribute)
                if isinstance(attr_value, _COLLECTIONS):
                    next_frontier.extend(attr_value)
                else:
                    next_frontier.append(attr_value)
            frontier = next_frontier
            if not frontier:
                break

    # -- object access for compiled paths -------------------------------------

    def _resolve_references(self, values: list[Any]) -> dict | None:
        """Batch-dereference one path step's OIDs (page-clustered) when the
        object manager's deref fast path is on; ``None`` means chase one at
        a time, each a separately charged random read."""
        if not batch_deref_enabled(self.objects):
            return None
        oids = [v for v in values if isinstance(v, OID) and not v.is_null]
        if len(oids) < 2:
            return None
        return self.objects.deref_many(oids)

    def _as_object(self, value: Any,
                   resolved: dict | None = None) -> MoodObject | None:
        if isinstance(value, MoodObject):
            return value
        if isinstance(value, OID):
            if value.is_null:
                return None
            if resolved is not None:
                return resolved[value]
            return self.objects.deref(value)
        if value is None:
            return None
        raise ExecutionError(
            f"cannot traverse an attribute of non-object value {value!r}"
        )

    def _step(self, current: list[Any], attribute: str) -> list[Any]:
        """One path step: the attribute's values over ``current``."""
        resolved = self._resolve_references(current)
        next_values: list[Any] = []
        for value in current:
            obj = self._as_object(value, resolved)
            if obj is None:
                continue
            attr_value = obj.state.get(attribute)
            if isinstance(attr_value, (set, frozenset)):
                next_values.extend(sorted(attr_value, key=repr))
            elif isinstance(attr_value, list):
                next_values.extend(attr_value)
            else:
                next_values.append(attr_value)
        return next_values


# -- the compiler -------------------------------------------------------------


def _compile_values(expr: Expr) -> Values:
    if isinstance(expr, Literal):
        constant = expr.value
        return lambda row, ev: [constant]
    if isinstance(expr, Path):
        return _compile_path(expr)
    if isinstance(expr, MethodCall):
        return _compile_method(expr)
    if isinstance(expr, BinOp):
        if expr.op in COMPARISON_OPS:
            return _compile_comparison_values(expr)
        return _compile_arithmetic(expr)
    if isinstance(expr, UnaryMinus):
        operand = _compile_values(expr.operand)

        def negate(row, ev):
            return [
                None if value is None
                else (-OperandDataType.of(value)).value
                for value in operand(row, ev)
            ]
        return negate
    if isinstance(expr, (Not, BoolOp)):
        test = _compile_test(expr)
        return lambda row, ev: [test(row, ev)]
    if isinstance(expr, Between):
        return _compile_between(expr)
    if isinstance(expr, InList):
        return _compile_in_list(expr)

    def unsupported(row, ev):
        raise ExecutionError(f"cannot evaluate {expr!r}")
    return unsupported


def _compile_test(expr: Expr) -> Test:
    """Predicate truth.  Ill-typed comparisons surface as
    ``ExecutionError`` naming the innermost predicate they occur in."""
    if isinstance(expr, Not):
        inner = _compile_test(expr.operand)
        return lambda row, ev: not inner(row, ev)
    if isinstance(expr, BoolOp):
        tests = tuple(_compile_test(item) for item in expr.items)
        if expr.op == "AND":
            return lambda row, ev: all(t(row, ev) for t in tests)
        return lambda row, ev: any(t(row, ev) for t in tests)
    if isinstance(expr, BinOp) and expr.op in COMPARISON_OPS:
        fast = _compile_attribute_literal_test(expr)
        if fast is not None:
            return fast
    return _compile_truth(expr)


def _compile_truth(expr: Expr) -> Test:
    """Some value of ``expr`` is TRUE (every value is computed first, so
    an ill-typed pair raises even after a true one, as in the
    interpreter)."""
    values = _compile_values(expr)

    def truth(row, ev):
        try:
            result = values(row, ev)
        except TypeMismatchError as exc:
            raise ExecutionError(f"ill-typed predicate {expr}: {exc}") \
                from exc
        return any(value is True for value in result)
    return truth


# -- paths and methods --------------------------------------------------------


def _compile_path(path: Path) -> Values:
    var, attrs = path.var, path.attrs

    def unbound() -> ExecutionError:
        return ExecutionError(f"unbound range variable {var!r}")

    if not attrs:
        def variable(row, ev):
            try:
                return [row[var]]
            except KeyError:
                raise unbound() from None
        return variable

    if len(attrs) == 1:
        attribute = attrs[0]

        def attribute_of(row, ev):
            try:
                obj = row[var]
            except KeyError:
                raise unbound() from None
            if isinstance(obj, MoodObject):
                value = obj.state.get(attribute)
                if isinstance(value, _COLLECTIONS):
                    if isinstance(value, list):
                        return list(value)
                    return sorted(value, key=repr)
                return [value]
            return ev._step([obj], attribute)
        return attribute_of

    def chase(row, ev):
        try:
            current = [row[var]]
        except KeyError:
            raise unbound() from None
        for attribute in attrs:
            current = ev._step(current, attribute)
        return current
    return chase


def _compile_method(call: MethodCall) -> Values:
    receiver = _compile_path(call.receiver)
    args = tuple(_compile_values(arg) for arg in call.args)

    def invoke(row, ev):
        if ev.functions is None:
            raise ExecutionError(
                f"no function manager available for {call.method!r}"
            )
        receivers = receiver(row, ev)
        arguments = [_single(values(row, ev)) for values in args]
        results: list[Any] = []
        for value in receivers:
            obj = ev._as_object(value)
            if obj is not None:
                results.append(ev.functions.invoke(
                    obj, call.method, arguments, resolve=ev.objects.deref))
        return results
    return invoke


def _single(result: list[Any]) -> Any:
    return result[0] if len(result) == 1 else result


# -- comparisons --------------------------------------------------------------


def _comparator(op: str) -> Callable[[Any, Any], bool]:
    """``left op right`` with ``OperandDataType`` semantics: plain Python
    when both sides are plain numbers (ints within int64) or strings."""
    pyop = _PYOPS[op]

    def compare(left, right):
        left_type = left.__class__
        right_type = right.__class__
        if left_type in _NUMERIC and right_type in _NUMERIC:
            if (left_type is not int or INT64_MIN <= left <= INT64_MAX) \
                    and (right_type is not int
                         or INT64_MIN <= right <= INT64_MAX):
                return pyop(left, right)
        elif left_type is str and right_type is str:
            return pyop(left, right)
        return _compare_general(op, left, right)
    return compare


def _compare_general(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, MoodObject):
        left = left.oid
    if isinstance(right, MoodObject):
        right = right.oid
    if isinstance(left, OID) or isinstance(right, OID):
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        raise ExecutionError("references only compare with = and <> ")
    result = OperandDataType.of(left)._compare(OperandDataType.of(right), op)
    return bool(result.value)


def _compile_comparison_values(expr: BinOp) -> Values:
    compare = _comparator(expr.op)
    left = _compile_values(expr.left)
    right = _compile_values(expr.right)

    def comparison(row, ev):
        lefts = left(row, ev)
        rights = right(row, ev)
        return [compare(a, b) for a in lefts for b in rights]
    return comparison


def _compile_attribute_literal_test(expr: BinOp) -> Test | None:
    """``var.attr op constant`` -- the common selection -- as one closure:
    a dictionary probe and a Python comparison per row when the stored
    value is of the constant's kind; anything else (NULL, collections,
    unbound variables, type errors) takes the general path."""
    left, right = expr.left, expr.right
    if not (isinstance(left, Path) and len(left.attrs) == 1
            and isinstance(right, Literal)):
        return None
    constant = right.value
    if constant.__class__ is str:
        kinds = frozenset((str,))
    elif constant.__class__ in _NUMERIC and (
            constant.__class__ is not int
            or INT64_MIN <= constant <= INT64_MAX):
        kinds = _NUMERIC
    else:
        return None
    pyop = _PYOPS[expr.op]
    var, attribute = left.var, left.attrs[0]
    general: Test | None = None

    def test(row, ev):
        nonlocal general
        obj = row.get(var)
        if isinstance(obj, MoodObject):
            value = obj.state.get(attribute)
            kind = value.__class__
            if kind in kinds and (
                    kind is not int or INT64_MIN <= value <= INT64_MAX):
                return pyop(value, constant)
        if general is None:
            general = _compile_truth(expr)
        return general(row, ev)
    return test


def _compile_between(expr: Between) -> Values:
    subject = _compile_values(expr.expr)
    low = _compile_values(expr.low)
    high = _compile_values(expr.high)

    def between(row, ev):
        values = subject(row, ev)
        lows = low(row, ev)
        highs = high(row, ev)
        return [
            any(
                value is not None and lo is not None and hi is not None
                and lo <= value <= hi
                for lo in lows
                for hi in highs
            )
            for value in values
        ]
    return between


def _compile_in_list(expr: InList) -> Values:
    subject = _compile_values(expr.expr)
    items = tuple(_compile_values(item) for item in expr.items)

    def in_list(row, ev):
        values = subject(row, ev)
        members = [v for item in items for v in item(row, ev)]
        return [
            any(_equal(value, member) for member in members)
            for value in values
        ]
    return in_list


def _equal(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, MoodObject):
        left = left.oid
    if isinstance(right, MoodObject):
        right = right.oid
    return left == right


# -- arithmetic ---------------------------------------------------------------


def _compile_arithmetic(expr: BinOp) -> Values:
    op = expr.op
    left = _compile_values(expr.left)
    right = _compile_values(expr.right)

    def arithmetic(row, ev):
        lefts = left(row, ev)
        rights = right(row, ev)
        results: list[Any] = []
        for a in lefts:
            for b in rights:
                if a is None or b is None:
                    results.append(None)
                else:
                    results.append(OperandDataType.of(a)._arith(
                        OperandDataType.of(b), op).value)
        return results
    return arithmetic


# -- static analysis ----------------------------------------------------------


def _collect_paths(node: Any, out: list[Path]) -> None:
    """Every :class:`Path` reachable in an expression tree (including
    method-call receivers and arguments), for batch prefetching."""
    if isinstance(node, Path):
        out.append(node)
        return
    if isinstance(node, (tuple, list)):
        for item in node:
            _collect_paths(item, out)
        return
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            _collect_paths(getattr(node, field.name), out)


def _collect_reads(node: Any, out: dict[str, set | None],
                   identity: bool) -> None:
    """Accumulate what ``node`` reads of each variable's object into
    ``out``.  ``identity`` marks operand positions that compare objects
    by OID (comparisons, IN lists), where a bare variable needs no
    attributes at all."""
    if isinstance(node, Path):
        if node.attrs:
            attrs = out.setdefault(node.var, set())
            if attrs is not None:
                attrs.add(node.attrs[0])
        elif identity:
            out.setdefault(node.var, set())
        else:
            out[node.var] = None
        return
    if isinstance(node, MethodCall):
        out[node.receiver.var] = None
        _collect_reads(node.args, out, identity=False)
        return
    if isinstance(node, (BinOp, InList)):
        identity = not isinstance(node, BinOp) or node.op in COMPARISON_OPS
        for child in (node.left, node.right) if isinstance(node, BinOp) \
                else (node.expr, *node.items):
            _collect_reads(child, out, identity=identity)
        return
    if isinstance(node, (tuple, list)):
        for item in node:
            _collect_reads(item, out, identity=identity)
        return
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            _collect_reads(getattr(node, field.name), out, identity=False)
