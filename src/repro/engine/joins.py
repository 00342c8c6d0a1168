"""Physical implementations of the four implicit-join methods (Section 6).

All four produce identical rows; they differ in *how the I/O happens*,
which the simulated disk accounts:

* **forward traversal** chases each stored reference with a random read of
  the target object (pipelined into the right-hand leaf's predicates);
* **backward traversal** scans the referencing class's extent
  sequentially, probing the already-materialised right side;
* **binary join index** probes the precomputed pair index, then fetches;
* **pointer-based hash partition** first partitions the referencing side
  on the pointer field (charged as the extra sequential passes of the
  3(b+b') hybrid-hash structure), then chases pointers partition by
  partition.

When set-oriented execution is on (``objects.batch_enabled``, requiring
the deref cache), the kernels collect their probe OIDs first and fetch
them through :meth:`~repro.engine.objects.ObjectManager.deref_many` --
one page-clustered batch per join level instead of one random chase per
reference -- and :func:`fused_traversal` runs a whole *chain* of forward
traversals as one set operation, dereferencing each hop's deduplicated
frontier with a single batched call.  With either switch off every chase
is charged individually, exactly as the paper's cost formulas price it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.algebra.collection_ops import _reference_oids
from repro.core.errors import ExecutionError
from repro.engine.batch import batch_deref_enabled
from repro.engine.evaluator import CompiledExpr, ExpressionEvaluator, Row
from repro.engine.indexes import BinaryJoinIndex
from repro.engine.objects import ObjectManager
from repro.sql.ast import Expr


@dataclass
class PipelinedLeaf:
    """A right/left-hand side the join can evaluate object-at-a-time:
    an extent access plus residual predicates (plain or compiled)."""

    var: str
    class_name: str
    include: tuple[str, ...]
    predicates: tuple[Expr | CompiledExpr, ...]


#: Single gate for the set-oriented deref fast path (see engine.batch).
_batchable = batch_deref_enabled


def _chase(
    left_rows: list[Row],
    oids_of,
    objects: ObjectManager,
) -> list[tuple[Row, list]]:
    """Dereference every row's reference OIDs; returns ``(row, objects)``
    pairs in row order.

    On the fast path the distinct OIDs of the whole probe side are fetched
    in one page-clustered batch (``deref_many``); otherwise each chase is
    a separately charged random read, as the Table 16 formula prices it.
    """
    per_row = [(row, oids_of(row)) for row in left_rows]
    if _batchable(objects):
        fetched = objects.deref_many(
            oid for _, oids in per_row for oid in oids
        )
        return [(row, [fetched[oid] for oid in oids])
                for row, oids in per_row]
    return [(row, [objects.deref(oid) for oid in oids])
            for row, oids in per_row]


def forward_traversal(
    left_rows: list[Row],
    left_var: str,
    attr: str,
    right: PipelinedLeaf | list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    if isinstance(right, PipelinedLeaf):
        chased = _chase(
            left_rows,
            lambda row: _reference_oids(row[left_var].state.get(attr)),
            objects,
        )
        return _probe(chased, right.include, right.predicates, right_var,
                      evaluator)
    result: list[Row] = []
    by_oid: dict = {}
    for row in right:
        by_oid.setdefault(row[right_var].oid, []).append(row)
    for row in left_rows:
        for oid in _reference_oids(row[left_var].state.get(attr)):
            for right_row in by_oid.get(oid, ()):
                result.append({**row, **right_row})
    return result


def _probe(
    chased,
    include: tuple[str, ...],
    predicates: tuple,
    right_var: str,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    """Extend each ``(row, targets)`` pair by every target of the
    ``include`` closure that passes the residual ``predicates``."""
    probes = (
        {**row, right_var: obj}
        for row, targets in chased
        for obj in targets
        if not include or obj.class_name in include
    )
    return evaluator.filter_batch(predicates, probes, prefetch=False)


@dataclass(frozen=True)
class TraversalHop:
    """One fused forward-traversal step: chase ``left_var.attr`` into
    ``right_var``, keeping objects of the ``include`` closure that pass
    the hop's residual ``predicates`` (the pipelined leaf's SELECT)."""

    left_var: str
    attr: str
    right_var: str
    class_name: str
    include: tuple[str, ...]
    predicates: tuple[Expr | CompiledExpr, ...]


def fused_traversal(
    left_rows: list[Row],
    hops: tuple[TraversalHop, ...],
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
    on_hop=None,
) -> list[Row]:
    """Run a chain of forward traversals as one set operation.

    Per hop the frontier -- every reference OID reachable from the
    surviving rows -- is collected first and dereferenced with a single
    page-clustered :meth:`deref_many` call (deduplicated, so an object
    shared by many rows is fetched once); include-filter and residual
    predicates are then applied row by row against the warm cache.  When
    the batch gate is off each chase is a separately charged read in row
    order, matching the unfused forward traversal exactly.

    ``on_hop(hop, rows_in, frontier_size, rows_out)`` is invoked after
    each hop for span accounting (batch sizes in EXPLAIN ANALYZE) and is
    the seam the invalidation tests use to interleave DDL/abort/crash
    between hops.
    """
    rows = list(left_rows)
    for hop in hops:
        per_row = [
            (row, _reference_oids(row[hop.left_var].state.get(hop.attr)))
            for row in rows
        ]
        if _batchable(objects):
            frontier = list(dict.fromkeys(
                oid for _, oids in per_row for oid in oids
            ))
            fetched = objects.deref_many(frontier)
            resolve = fetched.__getitem__
        else:
            frontier = [oid for _, oids in per_row for oid in oids]
            resolve = objects.deref
        # Unbatched, each chase happens as its probe is drawn, between
        # the previous probe's predicates and its own.
        chased = (
            (row, (resolve(oid) for oid in oids)) for row, oids in per_row
        )
        next_rows = _probe(chased, hop.include, hop.predicates,
                           hop.right_var, evaluator)
        if on_hop is not None:
            on_hop(hop, len(rows), len(frontier), len(next_rows))
        rows = next_rows
    return rows


def backward_traversal(
    left: PipelinedLeaf | list[Row],
    left_var: str,
    attr: str,
    right_rows: list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
    fields: frozenset[str] | None = None,
) -> list[Row]:
    """``fields`` restricts what the pipelined left scan decodes (the
    attributes the plan reads of ``left.var``)."""
    by_oid: dict = {}
    for row in right_rows:
        by_oid.setdefault(row[right_var].oid, []).append(row)
    result: list[Row] = []
    if isinstance(left, PipelinedLeaf):
        # The defining property: a sequential scan over C's extent.  The
        # scan is materialised as one batch so the residual predicates
        # can prefetch any paths they chase across the whole extent.
        scanned = [
            {left.var: obj}
            for obj in objects.iter_extent(left.class_name,
                                           include=left.include or None,
                                           fields=fields)
        ]
        for row in evaluator.filter_batch(left.predicates, scanned):
            obj = row[left.var]
            for oid in _reference_oids(obj.state.get(attr)):
                for right_row in by_oid.get(oid, ()):
                    result.append({**row, **right_row})
        return result
    for row in left:
        for oid in _reference_oids(row[left_var].state.get(attr)):
            for right_row in by_oid.get(oid, ()):
                result.append({**row, **right_row})
    return result


def indexed_join(
    left_rows: list[Row],
    left_var: str,
    join_index: BinaryJoinIndex,
    right: PipelinedLeaf | list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    if isinstance(right, PipelinedLeaf):
        chased = _chase(
            left_rows,
            lambda row: join_index.rights_of(row[left_var].oid),
            objects,
        )
        return _probe(chased, right.include, right.predicates, right_var,
                      evaluator)
    result: list[Row] = []
    by_oid: dict = {}
    for row in right:
        by_oid.setdefault(row[right_var].oid, []).append(row)
    for row in left_rows:
        for oid in join_index.rights_of(row[left_var].oid):
            for right_row in by_oid.get(oid, ()):
                result.append({**row, **right_row})
    return result


def hash_partition_join(
    left_rows: list[Row],
    left_var: str,
    attr: str,
    right: PipelinedLeaf | list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
    num_partitions: int | None = None,
) -> list[Row]:
    """Partition the referencing side on the pointer field, then chase
    pointers partition by partition (clustering the random reads)."""
    if num_partitions is None:
        num_partitions = max(1, min(32, int(math.sqrt(len(left_rows))) or 1))
    partitions: dict[int, list[tuple]] = {}
    for row in left_rows:
        for oid in _reference_oids(row[left_var].state.get(attr)):
            partitions.setdefault(hash(oid) % num_partitions, []).append(
                (oid, row)
            )
    _charge_partition_passes(objects, len(left_rows))
    if isinstance(right, PipelinedLeaf):

        def chased():
            for bucket in sorted(partitions):
                pairs = sorted(partitions[bucket], key=lambda pair: pair[0])
                # Each partition's chases are already clustered by the
                # pointer sort; the batch gate collapses them further
                # into one deref_many per partition.
                fetched = (
                    objects.deref_many(oid for oid, _ in pairs)
                    if _batchable(objects) else None
                )
                for oid, row in pairs:
                    yield row, (fetched[oid] if fetched is not None
                                else objects.deref(oid),)

        return _probe(chased(), right.include, right.predicates,
                      right_var, evaluator)
    result: list[Row] = []
    by_oid: dict = {}
    for row in right:
        by_oid.setdefault(row[right_var].oid, []).append(row)
    for bucket in sorted(partitions):
        for oid, row in partitions[bucket]:
            for right_row in by_oid.get(oid, ()):
                result.append({**row, **right_row})
    return result


def _charge_partition_passes(objects: ObjectManager, num_rows: int) -> None:
    """The extra write+read passes of hash partitioning, charged
    sequentially (the 3(b+b') term beyond the initial scan)."""
    disk = objects.storage.disk
    block = disk.params.block_size
    approx_record = 128
    pages = max(1, math.ceil(num_rows * approx_record / block))
    disk.stats.charge_sequential_write(disk.params, pages)
    disk.stats.charge_sequential_read(disk.params, pages)


def nested_loop_join(
    left_rows: list[Row],
    right_rows: list[Row],
    predicate: Expr | CompiledExpr | None,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    candidates: list[Row] = []
    for left_row in left_rows:
        for right_row in right_rows:
            overlap = set(left_row) & set(right_row)
            if overlap:
                raise ExecutionError(
                    f"join sides share variables {sorted(overlap)}"
                )
            candidates.append({**left_row, **right_row})
    if predicate is None:
        return candidates
    return evaluator.filter_batch((predicate,), candidates)
