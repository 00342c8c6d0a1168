"""Set-oriented execution vs. the PR 2 deref cache vs. the paper (smoke).

Replays the Example 8.2 path workload (``v.drivetrain.engine.cylinders``)
as a forced forward traversal over identical databases in three
configurations:

* **unbatched** -- object cache and batching both off: the paper's
  one-object-at-a-time execution, one charged random I/O per chase
  (the Table 16/17 cost-validation mode);
* **deref_cache** -- the PR 2 baseline: object cache on, operators still
  row-at-a-time but each join batches its own derefs;
* **fused** -- PR 6: the traversal chain rewritten into one
  FUSED_TRAVERSAL node dereferencing each hop's whole frontier with a
  single page-clustered ``deref_many`` call.

All three must return the same vehicles; the fused run must charge at
least 5x fewer page I/Os than the unbatched one (the tier-1 smoke
assertion).  Results land in ``BENCH_pr6.json`` under ``benchmarks/out/``
with schema ``{workload, unbatched_io, deref_cache_io, fused_io, wall_time}``.

The data is padded so the chased extents span many pages and the 4-frame
buffer pool cannot absorb the chases: the reductions come from batching
and clustering, not buffer-pool luck.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.database import MoodDatabase
from repro.engine.executor import Executor
from repro.optimizer.fuse import fuse_query_plan
from repro.optimizer.plan import FusedTraversalNode, JoinNode
from repro.sql.parser import parse

from conftest import emit, smoke_path


WORKLOAD_SQL = (
    "SELECT v FROM BenchVehicle v "
    "WHERE v.drivetrain.engine.cylinders = 2"
)
NUM_VEHICLES = 800
NUM_DRIVETRAINS = 400
NUM_ENGINES = 400
PASSES = 3

BENCH_SCHEMA_DDL = [
    """CREATE CLASS BenchEngine TUPLE (
        cylinders Integer,
        padding String(200)
    )""",
    """CREATE CLASS BenchDrivetrain TUPLE (
        engine REFERENCE (BenchEngine),
        padding String(200)
    )""",
    """CREATE CLASS BenchVehicle TUPLE (
        id Integer,
        drivetrain REFERENCE (BenchDrivetrain)
    )""",
]


def _build_bench_db(cache_enabled: bool, batch_enabled: bool) -> MoodDatabase:
    """Example 8.2's shape -- Vehicle -> DriveTrain -> Engine with fan-in 2
    -- padded to ~20 records/page and scattered so consecutive vehicles
    chase far-apart pages (no accidental locality)."""
    db = MoodDatabase(
        buffer_capacity=4,
        cache_enabled=cache_enabled,
        batch_enabled=batch_enabled,
    )
    for ddl in BENCH_SCHEMA_DDL:
        db.execute(ddl)
    pad = "x" * 150
    engines = [
        db.new_object("BenchEngine", {
            "cylinders": 2 * (1 + i % 8),  # 1/8 of engines qualify
            "padding": pad,
        })
        for i in range(NUM_ENGINES)
    ]
    drivetrains = [
        db.new_object("BenchDrivetrain", {
            "engine": engines[(j * 17) % NUM_ENGINES],
            "padding": pad,
        })
        for j in range(NUM_DRIVETRAINS)
    ]
    for i in range(NUM_VEHICLES):
        db.new_object("BenchVehicle", {
            "id": i,
            "drivetrain": drivetrains[(i * 13) % NUM_DRIVETRAINS],
        })
    db.analyze()
    return db


def _forced_forward_plan(db, fuse: bool):
    plan = db.kernel.planner().plan_query(parse(WORKLOAD_SQL))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    if fuse:
        fused = fuse_query_plan(plan)
        assert fused == 1, plan.render()
    return plan


def _replay(db, fuse: bool, passes: int = PASSES) -> tuple[list[int], int]:
    """Run the workload ``passes`` times from a cold buffer; returns the
    qualifying vehicle ids and the total charged page I/O."""
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()
    probe = db.io_probe()
    ids: list[int] = []
    for _ in range(passes):
        executor = Executor(
            objects=db.kernel.objects,
            evaluator=db.kernel.evaluator,
            catalog=db.kernel.catalog,
            index_manager=db.kernel.indexes,
        )
        rows = executor.execute_plan(_forced_forward_plan(db, fuse))
        ids = sorted(row["v"].state["id"] for row in rows)
    return ids, db.io_since(probe).page_ios


@pytest.mark.smoke
def test_batched_executor_reduces_charged_io_and_writes_bench_json():
    started = time.perf_counter()
    unbatched_db = _build_bench_db(cache_enabled=False, batch_enabled=False)
    deref_db = _build_bench_db(cache_enabled=True, batch_enabled=True)
    fused_db = _build_bench_db(cache_enabled=True, batch_enabled=True)

    unbatched_ids, unbatched_io = _replay(unbatched_db, fuse=False)
    deref_ids, deref_cache_io = _replay(deref_db, fuse=False)
    fused_ids, fused_io = _replay(fused_db, fuse=True)
    wall_time = time.perf_counter() - started

    # Same answer in all three configurations -- batching and fusion are
    # purely physical.
    assert fused_ids == deref_ids == unbatched_ids and fused_ids

    # The tier-1 contract: the fused set-oriented run beats the paper's
    # per-chase charging by at least the ISSUE's 5x bar, and never does
    # worse than the PR 2 row-at-a-time deref cache it builds on.
    assert fused_io < unbatched_io
    assert unbatched_io >= 5 * fused_io
    assert fused_io <= deref_cache_io

    stats = fused_db.object_cache.stats
    assert stats.batches > 0

    record = {
        "workload": f"example82-forward-path x{PASSES}",
        "unbatched_io": unbatched_io,
        "deref_cache_io": deref_cache_io,
        "fused_io": fused_io,
        "wall_time": round(wall_time, 3),
    }
    smoke_path("BENCH_pr6.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    emit("batched_executor_smoke", "\n".join([
        f"workload:       {record['workload']}",
        f"vehicles={NUM_VEHICLES} drivetrains={NUM_DRIVETRAINS} "
        f"engines={NUM_ENGINES} buffer=4 frames",
        f"unbatched_io:   {unbatched_io} charged page I/Os (paper mode)",
        f"deref_cache_io: {deref_cache_io} charged page I/Os (PR 2)",
        f"fused_io:       {fused_io} charged page I/Os (fused batches)",
        f"reduction:      {unbatched_io / fused_io:.1f}x vs paper, "
        f"{deref_cache_io / fused_io:.1f}x vs deref cache",
        f"cache:          hits={stats.hits} misses={stats.misses} "
        f"batches={stats.batches}",
        f"wall_time:      {record['wall_time']} s",
    ]), smoke=True)


@pytest.mark.smoke
def test_fused_plan_shape_on_bench_schema():
    """The forced plan actually carries the FUSED_TRAVERSAL node (guards
    against the smoke run silently measuring an unfused plan)."""
    db = _build_bench_db(cache_enabled=True, batch_enabled=True)
    plan = _forced_forward_plan(db, fuse=True)

    found = []

    def walk(node):
        if isinstance(node, FusedTraversalNode):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(plan.root)
    assert len(found) == 1
    assert len(found[0].hops) == 2
