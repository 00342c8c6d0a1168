"""Object cache + batch deref vs. paper-faithful per-chase I/O (smoke).

Replays the Example 8.2 path workload (``v.drivetrain.engine.cylinders``)
as a forced forward traversal -- the pointer-chasing plan Table 16 prices
at one random I/O per chase -- once with the deref fast path on and once
with it off, over identical databases.  The cached run must charge
strictly fewer disk operations (the smoke assertion that runs in tier-1),
and the measured reduction is written to ``BENCH_pr2.json`` under
``benchmarks/out/`` with schema ``{workload, cached_io, uncached_io,
wall_time}``.

The data is padded so the chased extents span many pages and sized so the
4-frame buffer pool cannot absorb the chases by itself: every saving the
cached run shows comes from the object cache and the page-clustered
batches, not from buffer-pool luck.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.database import MoodDatabase
from repro.engine.executor import Executor
from repro.optimizer.plan import JoinNode
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


def _build_bench_db(cache_enabled: bool) -> MoodDatabase:
    """Example 8.2's shape -- Vehicle -> DriveTrain -> Engine with fan-in 2
    -- padded to ~20 records/page and scattered so consecutive vehicles
    chase far-apart pages (no accidental locality)."""
    db = MoodDatabase(buffer_capacity=4, cache_enabled=cache_enabled)
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


def _forced_forward_plan(db):
    plan = db.kernel.planner().plan_query(parse(WORKLOAD_SQL))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    return plan


def _replay(db, passes: int = PASSES) -> tuple[list[int], int]:
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
        rows = executor.execute_plan(_forced_forward_plan(db))
        ids = sorted(row["v"].state["id"] for row in rows)
    return ids, db.io_since(probe).page_ios


@pytest.mark.smoke
def test_deref_cache_reduces_charged_io_and_writes_bench_json():
    started = time.perf_counter()
    cached_db = _build_bench_db(cache_enabled=True)
    uncached_db = _build_bench_db(cache_enabled=False)

    cached_ids, cached_io = _replay(cached_db)
    uncached_ids, uncached_io = _replay(uncached_db)
    wall_time = time.perf_counter() - started

    # Same answer either way -- the fast path is purely physical.
    assert cached_ids == uncached_ids and cached_ids

    # The tier-1 contract: strictly fewer charged disk operations, and the
    # reduction is substantial (the ISSUE's bar is >= 5x; the measured
    # figure is far above it).
    assert cached_io < uncached_io
    assert uncached_io >= 5 * cached_io

    stats = cached_db.object_cache.stats
    assert stats.hits > 0 and stats.batches > 0

    record = {
        "workload": f"example82-forward-path x{PASSES}",
        "cached_io": cached_io,
        "uncached_io": uncached_io,
        "wall_time": round(wall_time, 3),
    }
    smoke_path("BENCH_pr2.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    emit("deref_cache_smoke", "\n".join([
        f"workload:     {record['workload']}",
        f"vehicles={NUM_VEHICLES} drivetrains={NUM_DRIVETRAINS} "
        f"engines={NUM_ENGINES} buffer=4 frames",
        f"uncached_io:  {uncached_io} charged page I/Os",
        f"cached_io:    {cached_io} charged page I/Os",
        f"reduction:    {uncached_io / cached_io:.1f}x",
        f"cache:        hits={stats.hits} misses={stats.misses} "
        f"hit-ratio={stats.hit_ratio:.1%} batches={stats.batches}",
        f"wall_time:    {record['wall_time']} s",
    ]), smoke=True)


def test_deref_cache_example81_paper_schema():
    """The same comparison on the Section 3.1 schema itself: Example 8.1's
    P2 step (``v.manufacturer`` chases into the Company extent, the
    paper's F(P2) workload), toggling the fast path on one database.

    Company is the one paper extent wide enough (10x |Vehicle|) that a
    4-frame pool can't absorb the chases, which is what makes the
    comparison honest at this scale."""
    from repro.bench.paperdb import build_paper_database

    db = MoodDatabase(buffer_capacity=4)
    build_paper_database(db, scale=600, seed=8)
    db.analyze()
    sql = "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Munich'"

    def replay():
        db.kernel.storage.buffer.flush_all()
        db.kernel.storage.buffer.drop_all()
        plan = db.kernel.planner().plan_query(parse(sql))

        def force(node):
            if isinstance(node, JoinNode):
                node.method = "FORWARD_TRAVERSAL"
            for child in node.children():
                force(child)

        force(plan.root)
        executor = Executor(
            objects=db.kernel.objects,
            evaluator=db.kernel.evaluator,
            catalog=db.kernel.catalog,
            index_manager=db.kernel.indexes,
        )
        probe = db.io_probe()
        for _ in range(PASSES):
            executor.execute_plan(plan)
        return db.io_since(probe).page_ios

    db.set_cache_enabled(False)
    uncached_io = replay()
    db.set_cache_enabled(True)
    cached_io = replay()

    assert cached_io < uncached_io
    emit("deref_cache_example81_paper_schema", "\n".join([
        f"schema=Section 3.1, |Vehicle|=600, |Company|=6000, "
        f"{PASSES} passes, forced forward v.manufacturer",
        f"uncached_io: {uncached_io}",
        f"cached_io:   {cached_io}",
        f"reduction:   {uncached_io / cached_io:.1f}x",
    ]))
