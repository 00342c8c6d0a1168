"""Compile-once/execute-many: plan-cache speedup and hit rate (smoke).

The PR 5 pipeline splits statement processing into parse -> rewrite ->
bind -> optimize and memoises the optimizer's output in a versioned plan
cache.  This benchmark quantifies both halves of the claim on the
Section 3.1 vehicle/company database:

* **cold vs warm compile latency** -- the full front half every
  statement used to pay (parse + rewrite + cost-based optimization of an
  Example 8.2-style path query) against what a warm ``EXECUTE`` pays now
  (bind the parameters + one stamped cache lookup).  The warm path must
  be at least 5x faster.
* **hit rate under the VOODB driver** -- the multi-client workload
  driver runs its mixed read / path / write transaction mix with
  ``use_prepared=True`` (each client PREPAREs its five statements once,
  then EXECUTEs with bind parameters), and the server-side
  ``STATS.plancache`` numbers come back over the wire.

The smoke run executes in tier-1 and writes ``BENCH_pr5.json`` under
``benchmarks/out/``.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro.bench.driver import WorkloadConfig, run_workload
from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.core.prepare import render_statement, rewrite_statement
from repro.server import MoodClient, MoodServer, ServerConfig
from repro.sql.parser import parse as parse_sql

from conftest import emit, smoke_path


SMOKE_SCALE = 80
COMPILE_ITERATIONS = 30

#: An Example 8.2-style path query: two AND terms, one a pointer chase
#: through drivetrain -> engine, so Algorithm 8.1/8.2 does real work.
PATH_QUERY = (
    "SELECT v.id, v.manufacturer.name FROM Vehicle v "
    "WHERE v.drivetrain.engine.cylinders > {cyl} AND v.weight > {weight}"
)
PATH_QUERY_PARAMS = (
    "SELECT v.id, v.manufacturer.name FROM Vehicle v "
    "WHERE v.drivetrain.engine.cylinders > ? AND v.weight > ?"
)


def _compile_latencies(db: MoodDatabase) -> dict:
    """Median per-statement latency of the cold compile front half vs the
    warm EXECUTE front half (bind + stamped plan-cache lookup)."""
    kernel = db.kernel
    args = (4, 1000)

    cold_ms = []
    sql = PATH_QUERY.format(cyl=args[0], weight=args[1])
    for _ in range(COMPILE_ITERATIONS):
        started = time.perf_counter()
        statement = rewrite_statement(parse_sql(sql))
        kernel.planner().plan_query(statement)
        cold_ms.append((time.perf_counter() - started) * 1e3)

    prepared = kernel.prepare(PATH_QUERY_PARAMS, "bench_path")
    kernel.execute_prepared("bench_path", list(args))  # populate the cache
    warm_ms = []
    for _ in range(COMPILE_ITERATIONS):
        started = time.perf_counter()
        bound = prepared.bind(list(args))
        entry = kernel.plan_cache.lookup(
            render_statement(bound),
            kernel.catalog.schema_version,
            kernel.stats.version,
        )
        warm_ms.append((time.perf_counter() - started) * 1e3)
        assert entry is not None, "warm lookup must hit"

    cold = statistics.median(cold_ms)
    warm = statistics.median(warm_ms)
    return {
        "iterations": COMPILE_ITERATIONS,
        "cold_compile_ms": round(cold, 4),
        "warm_execute_ms": round(warm, 4),
        "speedup": round(cold / warm, 1) if warm else float("inf"),
    }


def _format(compile_stats: dict, cache: dict, report) -> str:
    lines = [
        "Plan cache: compile-once/execute-many (PR 5)",
        f"  cold compile (parse+rewrite+optimize) : "
        f"{compile_stats['cold_compile_ms']:.3f} ms",
        f"  warm EXECUTE (bind+cache lookup)      : "
        f"{compile_stats['warm_execute_ms']:.3f} ms",
        f"  speedup                               : "
        f"{compile_stats['speedup']:.1f}x",
        "",
        "VOODB driver with use_prepared=True:",
        f"  transactions   : {report.txns} ({report.committed} committed)",
        f"  throughput     : {report.throughput_tps:.1f} txn/s",
        f"  latency p50/p99: {report.p50_ms:.1f} / {report.p99_ms:.1f} ms",
        "",
        "server-side plan cache (STATS.plancache):",
        f"  hit_rate       : {cache['hit_rate']:.2%}",
        f"  hits/misses    : {cache['hits']:.0f} / {cache['misses']:.0f}",
        f"  stores         : {cache['stores']:.0f}",
        f"  invalidations  : {cache['invalidations']:.0f}",
        f"  size/capacity  : {cache['size']}/{cache['capacity']}",
    ]
    return "\n".join(lines)


@pytest.mark.smoke
def test_plan_cache_smoke():
    """Warm EXECUTE skips parse+optimize (>=5x) and the prepared VOODB
    workload runs at a high server-side hit rate; writes BENCH_pr5.json."""
    db = MoodDatabase(buffer_capacity=512)
    build_paper_database(db, scale=SMOKE_SCALE, seed=7)
    db.analyze()
    compile_stats = _compile_latencies(db)

    server = MoodServer(db, ServerConfig(port=0, max_workers=8))
    server.start()
    try:
        host, port = server.address
        report = run_workload(host, port, WorkloadConfig(
            clients=4,
            transactions_per_client=12,
            scale=SMOKE_SCALE,
            seed=11,
            use_prepared=True,
        ))
        with MoodClient(host, port) as probe:
            cache = probe.stats()["plancache"]
    finally:
        server.stop()

    emit("plan_cache_smoke", _format(compile_stats, cache, report),
         smoke=True)
    smoke_path("BENCH_pr5.json").write_text(json.dumps({
        "compile": compile_stats,
        "workload": report.summary(),
        "plancache": cache,
    }, indent=2) + "\n")

    assert report.committed == report.txns, report.errors
    # The tentpole claim: a warm EXECUTE's front half is >=5x cheaper
    # than the cold compile it replaces.
    assert compile_stats["speedup"] >= 5.0, compile_stats
    # Five prepared statements per client; every re-EXECUTE with a fresh
    # parameter vector misses once then hits, so the driver's repeated
    # vectors must produce a substantial hit rate.
    assert cache["enabled"]
    assert cache["hits"] > 0
    assert 0.0 < cache["hit_rate"] <= 1.0
