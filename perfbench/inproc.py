"""In-process workloads: ``query-fit`` and ``traverse-spill``.

One caller drives a ``MoodDatabase`` in this process with ad hoc SQL
text.  ``query-fit`` keeps the paper database inside both caches, so
parse, compile, evaluation and record decode do the work;
``traverse-spill`` keeps it far larger than both, so buffer misses,
charged reads, forwarding stubs and the reclusterer do.
"""

from __future__ import annotations

import contextlib
import random
import time

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.core.errors import MoodError

import tracer as tracer_module
from common import (
    DATA_SEED,
    BenchmarkFailure,
    Meter,
    OpLog,
    RunResult,
    class_counts,
    counter_snapshot,
    self_usage,
    space_usage,
    timed_setups,
    Timeline,
)
from workloads import (
    PaperModel,
    digest,
    read_stream,
    render,
    traverse_stream,
)

#: query-fit: the paper database at scale 1000 under default caches
#: (512 buffer frames, 4096 object-cache entries).
FIT_SCALE = 1000
FIT_OPS_PER_S = 30.0
FIT_SHARES = {"lookup": 0.6, "scan": 0.4}

#: traverse-spill: scale 2000 (482 data pages, 24,500 records) through
#: 64 buffer frames and 256 object-cache entries.
SPILL_SCALE = 2000
SPILL_FRAMES = 64
SPILL_OBJCACHE = 256
SPILL_WINDOWS = 2
SPILL_WINDOW_SPAN = 200
SPILL_OPS_PER_S = 12.0
SPILL_SHARES = {"lookup": 0.5, "scan": 0.5}

WARMUP_OPS = {"lookup": 12, "scan": 6}


def _run_ops(db, ops, timeline: Timeline, tracer, results: list,
             first_id: int) -> None:
    """Run ``ops`` back to back, one caller, a speed probe before each;
    keep the rows for the checks."""
    scope = (tracer.op if tracer is not None
             else lambda _number, _name: contextlib.nullcontext())
    for number, op in enumerate(ops, start=first_id):
        (step,) = op.steps
        sql = render(step.shape, step.params)
        timeline.probe()
        started = time.perf_counter()
        try:
            with scope(number, op.op_class):
                rows = db.query(sql).rows
        except MoodError as exc:
            timeline.log.fail(op.op_class, f"{type(exc).__name__}: {exc}")
            continue
        timeline.op(op.op_class, started,
                    (time.perf_counter() - started) * 1e3)
        results.append((step, rows))


def _check_rows(model: PaperModel, results: list) -> None:
    for step, rows in results:
        got = sorted(tuple(row) for row in rows)
        if got != model.answer(step):
            raise BenchmarkFailure(
                f"{step.shape}{step.params}: wrong rows "
                f"({len(got)} rows, expected {len(model.answer(step))})"
            )


def _meter(db, tracer) -> Meter:
    registry = db.kernel.storage.metrics

    def snapshot():
        values = counter_snapshot(registry)
        if tracer is not None:
            values.update(tracer.snapshot())
        return values

    return Meter(snapshot)


def _warm(db, seed: int, scale: int) -> None:
    """Untimed warm-up on its own stream: fills the caches and runs the
    first ANALYZE, which would otherwise land on the first timed op."""
    rng = random.Random(f"warm-{seed}")
    for op in read_stream(rng, scale, WARMUP_OPS):
        (step,) = op.steps
        db.query(render(step.shape, step.params))


# -- query-fit -----------------------------------------------------------------


def query_fit(seed: int, seconds: int, tracer, repeats: int) -> RunResult:
    def build():
        db = MoodDatabase()
        model = PaperModel(build_paper_database(db, scale=FIT_SCALE,
                                                seed=DATA_SEED))
        db.analyze()
        _warm(db, seed, FIT_SCALE)
        return db, model

    *setup, (db, model) = timed_setups(build, repeats)
    counts = class_counts(FIT_OPS_PER_S * seconds, FIT_SHARES)
    ops = read_stream(random.Random(seed), FIT_SCALE, counts)
    timeline, results = Timeline(OpLog()), []
    if tracer is not None:
        tracer_module.install_engine(tracer)
    meter = _meter(db, tracer)
    meter.start()
    _run_ops(db, ops, timeline, tracer, results, 0)
    meter.stop()
    if tracer is not None:
        tracer.unwrap_all()
    _check_rows(model, results)
    return _result(db, setup, timeline, meter, {}, digest(ops))


# -- traverse-spill ------------------------------------------------------------


def traverse_spill(seed: int, seconds: int, tracer, repeats: int
                   ) -> RunResult:
    def build():
        db = MoodDatabase(buffer_capacity=SPILL_FRAMES,
                          cache_capacity=SPILL_OBJCACHE)
        model = PaperModel(build_paper_database(db, scale=SPILL_SCALE,
                                                seed=DATA_SEED))
        db.analyze()
        db.kernel.storage.checkpoint()   # the load is durable
        _warm(db, seed, SPILL_SCALE)
        return db, model

    *setup, (db, model) = timed_setups(build, repeats)
    counts = class_counts(SPILL_OPS_PER_S * seconds, SPILL_SHARES)
    per_window = {name: -(-count // SPILL_WINDOWS)
                  for name, count in counts.items()}
    plan = traverse_stream(random.Random(seed), SPILL_SCALE, SPILL_WINDOWS,
                           per_window, SPILL_WINDOW_SPAN)
    timeline, results = Timeline(OpLog()), []
    passes = {"pass_ms": 0.0, "moves": 0, "batches": 0,
              "lock_timeouts": 0, "coaccess_edges": 0, "passes": 0}
    if tracer is not None:
        tracer_module.install_engine(tracer)
    meter = _meter(db, tracer)
    first_id = 0
    for window, (start, ops) in enumerate(plan):
        meter.start()
        _run_ops(db, ops, timeline, tracer, results, first_id)
        meter.stop()
        first_id += len(ops)
        if window == len(plan) - 1:
            break
        # The root window shifts: one synchronous reclustering pass,
        # timed as part of the workload, with the window's rows checked
        # on both sides of it.
        low, high = start, start + SPILL_WINDOW_SPAN
        before = _window_rows(db, low, high)
        passes["coaccess_edges"] += db.reclusterer.status()["coaccess_edges"]
        meter.start()
        started = time.perf_counter()
        outcome = db.recluster()
        pass_ms = (time.perf_counter() - started) * 1e3
        meter.stop()
        timeline.span(started, pass_ms)
        passes["pass_ms"] += pass_ms
        for key in ("moves", "batches", "lock_timeouts"):
            passes[key] += outcome[key]
        passes["passes"] += 1
        if _window_rows(db, low, high) != before:
            raise BenchmarkFailure(f"rows of ids {low}..{high} changed "
                                   "across a reclustering pass")
    if tracer is not None:
        tracer.unwrap_all()
    _check_rows(model, results)
    result = _result(db, setup, timeline, meter, passes,
                     digest([op for _, ops in plan for op in ops]))
    # A crash loses every volatile structure; restart recovery must bring
    # back exactly the committed placement.
    db.kernel.storage.crash()
    db.kernel.storage.restart()
    if _window_rows(db, 0, SPILL_SCALE) != model.window_rows(0, SPILL_SCALE):
        raise BenchmarkFailure("rows changed across crash and restart")
    return result


def _result(db, setup, timeline: Timeline, meter: Meter, extra: dict,
            op_digest: str) -> RunResult:
    """Calibrate the timeline and collect the end-of-run figures."""
    wall_s, raw_wall_s = timeline.finish()
    raw_cpu_s = max(meter.cpu_s - timeline.probe_s, 0.0)
    space = space_usage(db)
    _cpu, rss_mb = self_usage()
    return RunResult(
        ops=timeline.log, setup_s=setup[0], raw_setup_s=setup[1],
        wall_s=wall_s, raw_wall_s=raw_wall_s,
        cpu_s=raw_cpu_s * wall_s / raw_wall_s, raw_cpu_s=raw_cpu_s,
        peak_rss_mb=rss_mb, space_amp=space["allocated"] / space["live"],
        counters=meter.deltas, extra={**extra, **space}, op_digest=op_digest,
    )


def _window_rows(db, low: int, high: int) -> list[tuple]:
    rows = db.query(render("tr_both", (low, high))).rows
    return sorted(tuple(row) for row in rows)
