"""The reference oracle for compiled evaluation: the original interpreter.

Section 2's interpreter, kept verbatim in structure: every node is typed
at run time through an ``isinstance`` ladder and every comparison and
arithmetic operation is boxed through :class:`OperandDataType`.  It plugs
into the executor and kernel in place of the compiled evaluator (same
entry points), and says it cannot tell what an expression reads, so
every scan under it decodes whole objects -- which makes it a reference
for projected decoding as well as for the compiler.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.errors import ExecutionError, TypeMismatchError
from repro.engine.evaluator import CompiledExpr, ExpressionEvaluator, Row
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


def _plain(expr: Expr | CompiledExpr) -> Expr:
    return expr.expr if isinstance(expr, CompiledExpr) else expr


class ReferenceEvaluator(ExpressionEvaluator):
    """Interprets expression trees node by node, row by row."""

    # -- entry points ---------------------------------------------------------

    def values(self, expr, row: Row) -> list[Any]:
        return self._eval(_plain(expr), row)

    def value(self, expr, row: Row) -> Any:
        result = self._eval(_plain(expr), row)
        if len(result) == 1:
            return result[0]
        return result

    def predicate(self, expr, row: Row) -> bool:
        expr = _plain(expr)
        try:
            result = self._eval(expr, row)
        except TypeMismatchError as exc:
            raise ExecutionError(f"ill-typed predicate {expr}: {exc}") from exc
        return any(value is True for value in result) if result else False

    def reads(self, expr) -> None:
        return None

    def filter_batch(self, predicates: Iterable, rows: Iterable[Row],
                     prefetch: bool = True) -> list[Row]:
        predicates = tuple(predicates)
        if not predicates:
            return list(rows)
        if prefetch:
            self.prefetch(predicates, rows)
        return [
            row for row in rows
            if all(self.predicate(p, row) for p in predicates)
        ]

    def values_batch(self, exprs: Sequence, rows: Sequence[Row],
                     prefetch: bool = True) -> list[tuple]:
        if prefetch:
            self.prefetch(exprs, rows)
        return [tuple(self.value(e, row) for e in exprs) for row in rows]

    # -- dispatch ------------------------------------------------------------

    def _eval(self, expr: Expr, row: Row) -> list[Any]:
        if isinstance(expr, Literal):
            return [expr.value]
        if isinstance(expr, Path):
            return self._eval_path(expr, row)
        if isinstance(expr, MethodCall):
            return self._eval_method(expr, row)
        if isinstance(expr, BinOp):
            if expr.op in COMPARISON_OPS:
                return self._eval_comparison(expr, row)
            return self._eval_arithmetic(expr, row)
        if isinstance(expr, UnaryMinus):
            return [
                None if value is None
                else (-OperandDataType.of(value)).value
                for value in self._eval(expr.operand, row)
            ]
        if isinstance(expr, Not):
            return [not self.predicate(expr.operand, row)]
        if isinstance(expr, BoolOp):
            if expr.op == "AND":
                return [all(self.predicate(item, row) for item in expr.items)]
            return [any(self.predicate(item, row) for item in expr.items)]
        if isinstance(expr, Between):
            values = self._eval(expr.expr, row)
            lows = self._eval(expr.low, row)
            highs = self._eval(expr.high, row)
            return [
                any(
                    value is not None and low is not None and high is not None
                    and low <= value <= high
                    for low in lows
                    for high in highs
                )
                for value in values
            ]
        if isinstance(expr, InList):
            values = self._eval(expr.expr, row)
            members = [v for item in expr.items for v in self._eval(item, row)]
            return [
                any(self._equal(value, member) for member in members)
                for value in values
            ]
        raise ExecutionError(f"cannot evaluate {expr!r}")

    def _eval_path(self, path: Path, row: Row) -> list[Any]:
        if path.var not in row:
            raise ExecutionError(f"unbound range variable {path.var!r}")
        current: list[Any] = [row[path.var]]
        for attribute in path.attrs:
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
            current = next_values
        return current

    def _eval_method(self, call: MethodCall, row: Row) -> list[Any]:
        if self.functions is None:
            raise ExecutionError(
                f"no function manager available for {call.method!r}"
            )
        receivers = self._eval_path(call.receiver, row)
        args = [self.value(arg, row) for arg in call.args]
        results: list[Any] = []
        for receiver in receivers:
            obj = self._as_object(receiver)
            if obj is None:
                continue
            results.append(
                self.functions.invoke(obj, call.method, args,
                                      resolve=self.objects.deref)
            )
        return results

    def _eval_comparison(self, expr: BinOp, row: Row) -> list[bool]:
        lefts = self._eval(expr.left, row)
        rights = self._eval(expr.right, row)
        return [
            self._compare(expr.op, left, right)
            for left in lefts
            for right in rights
        ]

    def _compare(self, op: str, left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        left = self._comparable(left)
        right = self._comparable(right)
        if isinstance(left, OID) or isinstance(right, OID):
            if op == "=":
                return left == right
            if op == "<>":
                return left != right
            raise ExecutionError("references only compare with = and <> ")
        result = OperandDataType.of(left)._compare(
            OperandDataType.of(right), op
        )
        return bool(result.value)

    @staticmethod
    def _comparable(value: Any) -> Any:
        if isinstance(value, MoodObject):
            return value.oid
        return value

    def _equal(self, left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        return self._comparable(left) == self._comparable(right)

    def _eval_arithmetic(self, expr: BinOp, row: Row) -> list[Any]:
        lefts = self._eval(expr.left, row)
        rights = self._eval(expr.right, row)
        results: list[Any] = []
        for left in lefts:
            for right in rights:
                if left is None or right is None:
                    results.append(None)
                    continue
                operand = OperandDataType.of(left)._arith(
                    OperandDataType.of(right), expr.op
                )
                results.append(operand.value)
        return results
