"""Plan execution.

Interprets the optimizer's access plans over the object manager, charging
all I/O to the simulated disk so estimated and measured costs can be
compared.  Emits a trace of operator events in execution order -- SELECT
before JOIN before PROJECT before UNION, the Figure 7.2 discipline -- which
the F71/F72 benchmarks print.

When a :class:`~repro.obs.spans.SpanRecorder` is attached, every plan node
additionally opens a structured span (rows out, charged I/O, wall time)
nested to mirror the plan tree; the flat trace is kept as-is, and each
trace event is also attached to the span open at emission time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.catalog.catalog import Catalog
from repro.core.errors import ExecutionError
from repro.engine.batch import RowBatch, batch_deref_enabled
from repro.engine.evaluator import (
    CompiledExpr,
    ExpressionEvaluator,
    Row,
    compile_cached,
)
from repro.engine.indexes import IndexManager
from repro.engine.joins import (
    PipelinedLeaf,
    backward_traversal,
    forward_traversal,
    fused_traversal,
    hash_partition_join,
    nested_loop_join,
)
from repro.engine.objects import PartialObject
from repro.optimizer.plan import (
    BindNode,
    DupElimNode,
    FusedTraversalNode,
    IndSelNode,
    JoinNode,
    NamedRef,
    PartitionNode,
    PlanNode,
    ProjectNode,
    SelectNode,
    SortNode,
    UnionNode,
)
from repro.optimizer.planner import QueryPlan
from repro.sql.ast import Between, BinOp, Expr, Literal
from repro.sql.rewrite import referenced_variables


@dataclass
class TraceEvent:
    operator: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.operator}({self.detail})" if self.detail \
            else self.operator


@dataclass
class Executor:
    """Interprets access plans into rows of variable bindings.

    Operators exchange :class:`RowBatch`es: each plan node consumes and
    produces a whole batch, so predicates prefetch their paths across
    the batch and traversals dereference per-hop frontiers through one
    page-clustered ``deref_many`` call (when ``objects.batch_enabled``
    and the deref cache allow; otherwise execution degrades to the
    paper's one-chase-one-read behaviour row by row).

    Expressions are compiled once per plan (memoised on
    ``QueryPlan.compiled``).  Extent scans decode only the attributes the
    plan reads of their variable (:meth:`_scan_fields`); the partial
    objects that survive are completed from the records already read
    before :meth:`execute_plan` returns, so callers only ever see whole
    objects.
    """

    objects: Any
    evaluator: ExpressionEvaluator
    catalog: Catalog
    index_manager: IndexManager | None = None
    trace: list[TraceEvent] = field(default_factory=list)
    spans: Any = None    # optional repro.obs.spans.SpanRecorder
    _temp_cache: dict[str, RowBatch] = field(default_factory=dict)
    _output_vars: frozenset[str] = frozenset()
    _compiled: dict = field(default_factory=dict)
    _fields: dict[str, frozenset[str]] = field(default_factory=dict)

    def execute_plan(self, plan: QueryPlan) -> list[Row]:
        self._temp_cache = {}
        self._output_vars = frozenset(plan.output_vars)
        self._compiled = plan.compiled
        self._fields = self._scan_fields(plan)
        rows = self._exec(plan.root).rows
        if self._fields:
            self._complete(rows)
        return rows

    def _c(self, expr) -> CompiledExpr:
        return compile_cached(self._compiled, expr)

    def _cs(self, exprs: Iterable) -> tuple[CompiledExpr, ...]:
        return tuple(compile_cached(self._compiled, e) for e in exprs)

    # -- projected scans ---------------------------------------------------

    def _scan_fields(self, plan: QueryPlan) -> dict[str, frozenset[str]]:
        """Per range variable, the attributes execution reads of its
        objects: first path steps of every predicate and key, plus the
        reference attributes joins traverse.  A variable used whole (a
        method receiver, an object as a value) or never read at all is
        scanned whole; if the evaluator cannot say what an expression
        reads, every scan is."""
        reads: dict[str, set | None] = {}
        for node in _plan_nodes(plan):
            for expr in _node_exprs(node):
                expr_reads = self.evaluator.reads(self._c(expr))
                if expr_reads is None:
                    return {}
                for var, attrs in expr_reads.items():
                    _merge_reads(reads, var, attrs)
            for var, attr in _node_attrs(node):
                _merge_reads(reads, var, (attr,))
        return {
            var: frozenset(attrs) for var, attrs in reads.items()
            if attrs is not None
        }

    def _complete(self, rows: list[Row]) -> None:
        """Replace every partial object in ``rows`` by the whole object
        (one decode per distinct object, shared by all its rows)."""
        whole: dict[int, Any] = {}
        complete = self.objects.complete
        for row in rows:
            for var, obj in row.items():
                if obj.__class__ is PartialObject:
                    full = whole.get(id(obj))
                    if full is None:
                        full = whole[id(obj)] = complete(obj)
                    row[var] = full

    def _emit(self, operator: str, detail: str = "") -> None:
        event = TraceEvent(operator, detail)
        self.trace.append(event)
        if self.spans is not None:
            self.spans.event(str(event))

    # -- dispatch ------------------------------------------------------------

    def _exec(self, node: PlanNode) -> RowBatch:
        if self.spans is None:
            return self._dispatch(node)
        from repro.obs.spans import describe_node

        operator, detail = describe_node(node)
        with self.spans.span(operator, detail, node) as span:
            rows = self._dispatch(node)
            span.rows_out = len(rows)
            return rows

    def _dispatch(self, node: PlanNode) -> RowBatch:
        if isinstance(node, BindNode):
            return self._exec_bind(node)
        if isinstance(node, IndSelNode):
            return self._exec_indsel(node)
        if isinstance(node, SelectNode):
            return self._exec_select(node)
        if isinstance(node, NamedRef):
            return self._exec_named(node)
        if isinstance(node, FusedTraversalNode):
            return self._exec_fused(node)
        if isinstance(node, JoinNode):
            return self._exec_join(node)
        if isinstance(node, ProjectNode):
            return self._exec_project(node)
        if isinstance(node, UnionNode):
            return self._exec_union(node)
        if isinstance(node, PartitionNode):
            return self._exec_partition(node)
        if isinstance(node, DupElimNode):
            rows = self._exec(node.input)
            self._emit("DUPELIM")
            return rows.dedup()
        if isinstance(node, SortNode):
            return self._exec_sort(node)
        raise ExecutionError(f"cannot execute plan node {type(node).__name__}")

    # -- leaves ---------------------------------------------------------------

    def _exec_bind(self, node: BindNode) -> RowBatch:
        self._emit("BIND", f"{node.class_name}, {node.var}")
        include = node.include_classes or None
        var = node.var
        return RowBatch([
            {var: obj}
            for obj in self.objects.iter_extent(
                node.class_name, include=include,
                fields=self._fields.get(var))
        ])

    def _exec_indsel(self, node: IndSelNode) -> RowBatch:
        if self.index_manager is None:
            raise ExecutionError("INDSEL requires an index manager")
        self._emit("INDSEL", f"{node.class_name}, {node.var}")
        oid_sets = []
        for probe in node.probes:
            index = self.index_manager.physical_index(probe.index_name)
            oid_sets.append(self._probe_index(index, probe.predicate))
        oids = set.intersection(*oid_sets) if oid_sets else set()
        # Probe hits are re-verified against the live object unless the
        # index manager vouches for the index (fresh path indexes).
        verify = [
            probe for probe in node.probes
            if self.index_manager.needs_verification(probe.index_name)
        ]
        hits = sorted(oids)
        if batch_deref_enabled(self.objects):
            fetched = self.objects.deref_many(hits)
            probes = [fetched[oid] for oid in hits]
        else:
            probes = [self.objects.deref(oid) for oid in hits]
        candidates = [
            {node.var: obj}
            for obj in probes
            if not node.include_classes
            or obj.class_name in node.include_classes
        ]
        return RowBatch(self.evaluator.filter_batch(
            self._cs(p.predicate for p in verify), candidates
        ))

    def _probe_index(self, index, predicate: Expr) -> set:
        if isinstance(predicate, Between):
            low = _literal(predicate.low)
            high = _literal(predicate.high)
            return {oid for _, oid in index.range_scan(low, high)}
        if not isinstance(predicate, BinOp) or not isinstance(
                predicate.right, Literal):
            raise ExecutionError(
                f"cannot probe an index with predicate {predicate}"
            )
        key = predicate.right.value
        op = predicate.op
        if op == "=":
            return set(index.search(key))
        if not hasattr(index, "range_scan"):
            raise ExecutionError("hash indexes serve equality probes only")
        if op == ">":
            return {o for _, o in index.range_scan(key, None,
                                                   lo_inclusive=False)}
        if op == ">=":
            return {o for _, o in index.range_scan(key, None)}
        if op == "<":
            return {o for _, o in index.range_scan(None, key,
                                                   hi_inclusive=False)}
        if op == "<=":
            return {o for _, o in index.range_scan(None, key)}
        raise ExecutionError(f"cannot probe an index with operator {op!r}")

    def _exec_select(self, node: SelectNode) -> RowBatch:
        rows = self._exec(node.input)
        self._emit("SELECT", " AND ".join(str(p) for p in node.predicates))
        return RowBatch(
            self.evaluator.filter_batch(self._cs(node.predicates), rows.rows)
        )

    def _exec_named(self, node: NamedRef) -> RowBatch:
        if node.name in self._temp_cache:
            return RowBatch(list(self._temp_cache[node.name].rows))
        if node.plan is None:
            raise ExecutionError(f"temporary {node.name} has no plan")
        rows = self._exec(node.plan)
        self._temp_cache[node.name] = rows
        return RowBatch(list(rows.rows))

    def _exec_project(self, node: ProjectNode) -> RowBatch:
        rows = self._exec(node.input)
        self._emit("PROJECT", ", ".join(str(p) for p in node.projections)
                   or "*")
        # PROJECT's physical effect is binding pruning: the projection
        # *values* are computed once at result-building time (the kernel
        # evaluates the expressions over these binding rows), so the
        # operator keeps every variable those expressions still need --
        # the query's declared range variables plus any referenced by a
        # projection -- and drops the planner's synthetic chain variables
        # (d, e, ...).  Multiplicity is untouched; DUPELIM/UNION decide
        # duplicates.  Empty projections mean SELECT * (keep everything);
        # hand-built plans without declared output vars are left alone.
        if not node.projections or not self._output_vars:
            return rows
        keep = set(self._output_vars)
        for expr in node.projections:
            keep |= referenced_variables(expr)
        return rows.project(keep)

    # -- joins --------------------------------------------------------------

    def _exec_fused(self, node: FusedTraversalNode) -> RowBatch:
        left = self._exec(node.input)
        # Figure 7.2 discipline: each hop's residual predicates are
        # conceptually a SELECT below the join, traced before it; the
        # fused chain itself is one JOIN event so flat traces keep the
        # SELECT - JOIN - PROJECT order the F72 benchmark prints.
        for hop in node.hops:
            if hop.predicates:
                self._emit("SELECT",
                           " AND ".join(str(p) for p in hop.predicates))
        self._emit("JOIN", "FUSED_TRAVERSAL, " + "; ".join(
            f"{hop.left_var}.{hop.attr} = {hop.right_var}.self"
            for hop in node.hops
        ))

        def on_hop(hop, rows_in, frontier, rows_out):
            if self.spans is not None:
                self.spans.event(
                    f"HOP({hop.left_var}.{hop.attr} -> {hop.right_var}: "
                    f"rows_in={rows_in}, batch={frontier}, "
                    f"rows_out={rows_out})"
                )

        hops = tuple(
            dataclasses.replace(hop, predicates=self._cs(hop.predicates))
            for hop in node.hops
        )
        return RowBatch(fused_traversal(
            left.rows, hops, self.objects, self.evaluator,
            on_hop=on_hop,
        ))

    def _exec_join(self, node: JoinNode) -> RowBatch:
        if node.method == "NESTED_LOOP":
            left_rows = self._exec(node.left)
            right_rows = self._exec(node.right)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            predicate = node.predicate_expr
            return RowBatch(nested_loop_join(
                left_rows.rows, right_rows.rows,
                None if predicate is None else self._c(predicate),
                self.evaluator,
            ))
        if node.left_var is None or node.attr is None \
                or node.right_var is None:
            raise ExecutionError(
                f"join node lacks structured predicate: {node.predicate_text}"
            )
        if node.method == "FORWARD_TRAVERSAL":
            left_rows = self._exec(node.left)
            right = self._right_side(node)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            return RowBatch(forward_traversal(
                left_rows.rows, node.left_var, node.attr,
                self._join_side(right),
                node.right_var, self.objects, self.evaluator,
            ))
        if node.method == "BACKWARD_TRAVERSAL":
            left = self._pipelineable(node.left)
            if left is not None and left.predicates:
                self._emit("SELECT",
                           " AND ".join(str(p) for p in left.predicates))
            if left is None:
                left = self._exec(node.left).rows
            right_rows = self._exec(node.right)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            return RowBatch(backward_traversal(
                left, node.left_var, node.attr, right_rows.rows,
                node.right_var, self.objects, self.evaluator,
                fields=self._fields.get(node.left_var),
            ))
        if node.method == "HASH_PARTITION":
            left_rows = self._exec(node.left)
            right = self._right_side(node)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            return RowBatch(hash_partition_join(
                left_rows.rows, node.left_var, node.attr,
                self._join_side(right),
                node.right_var, self.objects, self.evaluator,
            ))
        if node.method == "BINARY_JOIN_INDEX":
            return self._exec_indexed_join(node)
        raise ExecutionError(f"unknown join method {node.method!r}")

    @staticmethod
    def _join_side(side: PipelinedLeaf | RowBatch) -> PipelinedLeaf | list[Row]:
        return side if isinstance(side, PipelinedLeaf) else side.rows

    def _right_side(self, node: JoinNode) -> PipelinedLeaf | RowBatch:
        """Prefer a pipelined right leaf; its residual predicates run first
        (conceptually: SELECT below JOIN, Figure 7.2)."""
        leaf = self._pipelineable(node.right)
        if leaf is not None:
            if leaf.predicates:
                self._emit("SELECT",
                           " AND ".join(str(p) for p in leaf.predicates))
            return leaf
        return self._exec(node.right)

    def _exec_indexed_join(self, node: JoinNode) -> RowBatch:
        from repro.engine.joins import indexed_join

        left_rows = self._exec(node.left)
        right = self._join_side(self._right_side(node))
        self._emit("JOIN", f"{node.method}, {node.predicate_text}")
        join_index = None
        if self.index_manager is not None:
            left_leaf = self._pipelineable(node.left)
            class_name = left_leaf.class_name if left_leaf else None
            if class_name is None:
                # Find by attribute alone.
                for candidate in self.index_manager.join_indexes.values():
                    if candidate.attribute == node.attr:
                        join_index = candidate
                        break
            else:
                join_index = self.index_manager.join_index_for(
                    class_name, node.attr
                )
        if join_index is None:
            # Degrade gracefully: the pairs are still reachable by forward
            # traversal.
            return RowBatch(forward_traversal(
                left_rows.rows, node.left_var, node.attr, right,
                node.right_var, self.objects, self.evaluator,
            ))
        return RowBatch(indexed_join(
            left_rows.rows, node.left_var, join_index, right,
            node.right_var, self.objects, self.evaluator,
        ))

    def _pipelineable(self, node: PlanNode) -> PipelinedLeaf | None:
        """Recognise leaves the join methods can evaluate per object."""
        if isinstance(node, BindNode):
            return PipelinedLeaf(node.var, node.class_name,
                                 node.include_classes, ())
        if isinstance(node, SelectNode):
            inner = node.input
            if isinstance(inner, BindNode):
                return PipelinedLeaf(inner.var, inner.class_name,
                                     inner.include_classes,
                                     self._cs(node.predicates))
        return None

    # -- set-level operators ------------------------------------------------------

    def _exec_union(self, node: UnionNode) -> RowBatch:
        merged = RowBatch.concat(self._exec(child) for child in node.inputs)
        self._emit("UNION", f"{len(node.inputs)} AND-terms")
        return merged.dedup(node.key_vars or None)

    def _exec_partition(self, node: PartitionNode) -> RowBatch:
        rows = self._exec(node.input)
        self._emit("PARTITION", ", ".join(str(k) for k in node.keys))
        # Group keys chase their paths over the whole batch first.
        keys = self.evaluator.values_batch(self._cs(node.keys), rows.rows)
        groups: dict[tuple, Row] = {}
        for row, values in zip(rows, keys):
            groups.setdefault(tuple(repr(value) for value in values), row)
        representatives = [dict(row) for row in groups.values()]
        if node.having is not None:
            representatives = self.evaluator.filter_batch(
                (self._c(node.having),), representatives, prefetch=False,
            )
            self._emit("HAVING", str(node.having))
        return RowBatch(representatives)

    def _exec_sort(self, node: SortNode) -> RowBatch:
        rows = self._exec(node.input)
        self._emit("SORT", ", ".join(str(k.expr) for k in node.keys))
        from repro.algebra.collection_ops import _NullsFirst

        # Sort keys may traverse references; values_batch warms them
        # batch-at-a-time.
        keys = self.evaluator.values_batch(
            self._cs(item.expr for item in node.keys), rows.rows
        )
        ascending = [item.ascending for item in node.keys]
        decorated = [
            [_Reversible(_NullsFirst(value), asc)
             for value, asc in zip(values, ascending)]
            for values in keys
        ]
        order = sorted(range(len(decorated)), key=decorated.__getitem__)
        return RowBatch([rows.rows[index] for index in order])


class _Reversible:
    """Comparison wrapper flipping order for DESC keys."""

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending: bool):
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_Reversible") -> bool:
        if self.ascending:
            return self.value < other.value
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return self.value == other.value


def _literal(expr: Expr):
    if not isinstance(expr, Literal):
        raise ExecutionError(f"expected a literal, found {expr}")
    return expr.value


def _plan_nodes(plan: QueryPlan) -> Iterator[PlanNode]:
    """Every node of a plan, temporaries included, each once."""
    stack: list[PlanNode] = [plan.root]
    stack.extend(node for _, node in plan.temporaries)
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, NamedRef) and node.plan is not None:
            stack.append(node.plan)
        stack.extend(node.children())


def _node_exprs(node: PlanNode) -> Iterable[Expr]:
    """The expressions a plan node evaluates while the plan runs
    (projections are evaluated afterwards, over completed rows)."""
    if isinstance(node, SelectNode):
        return node.predicates
    if isinstance(node, IndSelNode):
        return [probe.predicate for probe in node.probes]
    if isinstance(node, JoinNode):
        return () if node.predicate_expr is None else (node.predicate_expr,)
    if isinstance(node, FusedTraversalNode):
        return [p for hop in node.hops for p in hop.predicates]
    if isinstance(node, PartitionNode):
        having = () if node.having is None else (node.having,)
        return (*node.keys, *having)
    if isinstance(node, SortNode):
        return [item.expr for item in node.keys]
    return ()


def _node_attrs(node: PlanNode) -> Iterable[tuple[str, str]]:
    """(variable, attribute) pairs a join node traverses."""
    if isinstance(node, JoinNode) and node.left_var and node.attr:
        return ((node.left_var, node.attr),)
    if isinstance(node, FusedTraversalNode):
        return [(hop.left_var, hop.attr) for hop in node.hops]
    return ()


def _merge_reads(reads: dict[str, set | None], var: str, attrs) -> None:
    if attrs is None:
        reads[var] = None
        return
    current = reads.setdefault(var, set())
    if current is not None:
        current.update(attrs)
