"""MOOD benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload query-fit --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
op stream twice on fresh deployments -- untraced, then with the per-layer
tracer installed in every process that holds data -- and reports the
per-layer metrics plus the tracing overhead between the two.  Human
readable tables go to stdout; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced run
are written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("query-fit", "traverse-spill", "server-rw", "sharded-2pc")
PAGE_BYTES = 4096


def _run_workload(name: str, seed: int, seconds: int, repeats: int,
                  tracer=None, tag=None):
    import inproc
    import remote

    if name == "query-fit":
        return inproc.query_fit(seed, seconds, tracer, repeats)
    if name == "traverse-spill":
        return inproc.traverse_spill(seed, seconds, tracer, repeats)
    return remote.run(name == "sharded-2pc", seed, seconds, tracer, tag,
                      repeats)


# -- metrics -------------------------------------------------------------------


def end_to_end(result, calibrated: bool = True) -> dict:
    """The gated metrics; ``calibrated=False`` gives the same figures as
    measured, before conversion to reference speed."""
    from common import TAIL_PERCENTILE, percentile

    done = result.ops.completed()
    if calibrated:
        latencies = result.ops.calibrated_ms
        setup_s, wall_s, cpu_s = result.setup_s, result.wall_s, result.cpu_s
    else:
        latencies = result.ops.latencies_ms
        setup_s, wall_s, cpu_s = (result.raw_setup_s, result.raw_wall_s,
                                  result.raw_cpu_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (done / wall_s, "1/s"),
    }
    tail = f"p{round(TAIL_PERCENTILE * 100)}"
    for op_class in ("lookup", "scan"):
        samples = latencies[op_class]
        metrics[f"{op_class}_p50_ms"] = (percentile(samples, 0.5), "ms")
        metrics[f"{op_class}_{tail}_ms"] = (
            percentile(samples, TAIL_PERCENTILE), "ms")
    metrics["cpu_ms_per_op"] = (cpu_s * 1e3 / done, "ms")
    metrics["peak_rss_mb"] = (result.peak_rss_mb, "MiB")
    metrics["space_amp"] = (result.space_amp, "ratio")
    return metrics


def workload_extras(result) -> dict:
    """Figures that do not apply to every workload: printed, not gated."""
    from common import MIN_CLASS_SAMPLES, TAIL_PERCENTILE, percentile

    done = result.ops.completed()
    extras = {}
    tail = f"p{round(TAIL_PERCENTILE * 100)}"
    for op_class in ("write", "xfer"):
        samples = result.ops.calibrated_ms.get(op_class)
        if not samples:
            continue
        extras[f"{op_class}_p50_ms"] = (percentile(samples, 0.5), "ms")
        if len(samples) >= MIN_CLASS_SAMPLES:
            extras[f"{op_class}_{tail}_ms"] = (
                percentile(samples, TAIL_PERCENTILE), "ms")
        extras[f"{op_class}_samples"] = (len(samples), "count")
    extras["error_ratio"] = (result.ops.failed / result.ops.attempted,
                             "ratio")
    extras["sim_io_ms_per_op"] = (
        result.counters.get("disk.elapsed_ms", 0.0) / done, "sim_ms")
    extras["data_pages"] = (result.extra["allocated"] / PAGE_BYTES, "count")
    extras["data_records"] = (result.extra["records"], "count")
    if "read_after_write_share" in result.extra:
        extras["read_after_write_share"] = (
            result.extra["read_after_write_share"], "ratio")
    return extras


def per_layer(result, overhead_pct: float) -> tuple[dict, dict]:
    """(per-layer metrics for the JSON record, per-layer times printed only).

    Times that are zero by construction on some workload -- parse on the
    prepared path, ANALYZE on read-only workloads, router, 2PC and
    recluster phases, charged disk time where the data fits the buffer
    pool -- are printed but kept out of the JSON record."""
    c, extra = result.counters, result.extra
    done = result.ops.completed()

    def get(name):
        return c.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def self_ms(layer, prefix=""):
        return get(f"{prefix}trace.self_ms.{layer}")

    def calls(layer, prefix=""):
        return get(f"{prefix}trace.calls.{layer}")

    writes = sum(len(result.ops.latencies_ms.get(k, ()))
                 for k in ("write", "xfer"))
    rows = get("trace.items.engine.execute.items")
    user_bytes = extra.get("updated_records", 0) * ratio(
        extra.get("live", 0), extra.get("records", 0))
    passes = extra.get("passes", 0)
    shard_statements = [v for k, v in c.items()
                        if k.startswith("shard") and
                        k.endswith("/server.statements")]
    skew = (max(shard_statements) / (sum(shard_statements)
                                     / len(shard_statements))
            if shard_statements and sum(shard_statements) else 1.0)
    gated = {
        "sql.parses_per_op": (ratio(calls("sql.parse")
                                    + calls("sql.parse", "router/"), done),
                              "count"),
        "core.plan_cache_hit_ratio": (ratio(
            get("plancache.hits"),
            get("plancache.hits") + get("plancache.misses")), "ratio"),
        "core.compile_ms_per_op": (ratio(self_ms("core.compile"), done),
                                   "ms"),
        "core.analyze_per_op": (ratio(calls("core.analyze"), done),
                                "count"),
        "engine.execute_self_ms_per_op": (
            ratio(self_ms("engine.execute"), done), "ms"),
        "engine.eval_ms_per_op": (ratio(self_ms("engine.eval"), done), "ms"),
        "engine.records_examined_per_row": (ratio(
            calls("serde.decode") + get("objcache.hits"), rows), "ratio"),
        "serde.decodes_per_op": (ratio(calls("serde.decode"), done),
                                 "count"),
        "serde.decode_ms_per_op": (ratio(self_ms("serde.decode"), done),
                                   "ms"),
        "objects.derefs_per_op": (ratio(
            get("trace.items.objects.deref.items"), done), "count"),
        "objects.deref_ms_per_op": (ratio(self_ms("objects.deref"), done),
                                    "ms"),
        "objcache.hit_ratio": (ratio(
            get("objcache.hits"),
            get("objcache.hits") + get("objcache.misses")), "ratio"),
        "objcache.evictions_per_op": (ratio(get("objcache.evictions"),
                                            done), "count"),
        "buffer.hit_ratio": (ratio(
            get("buffer.hits"), get("buffer.hits") + get("buffer.misses")),
            "ratio"),
        "buffer.misses_per_op": (ratio(get("buffer.misses"), done),
                                 "count"),
        "disk.page_reads_per_op": (ratio(get("disk.page_reads"), done),
                                   "count"),
        "disk.page_writes_per_op": (ratio(get("disk.page_writes"), done),
                                    "count"),
        "storage.forwards_followed_per_op": (ratio(
            get("storage.forwards_followed"), done), "count"),
        "wal.records_per_write": (ratio(get("wal.records"), writes),
                                  "count"),
        "wal.forces_per_write": (ratio(get("wal.forces"), writes), "count"),
        "storage.write_amp": (ratio(
            (get("disk.page_writes") + get("wal.pages_written"))
            * PAGE_BYTES, user_bytes), "ratio"),
        "locks.waits_per_op": (ratio(get("locks.wait_ms.count"), done),
                               "count"),
        "client.retries_per_op": (ratio(result.ops.retries, done), "count"),
        "server.frames_per_op": (ratio(get("server.frames"), done),
                                 "count"),
        "server.bytes_per_op": (ratio(
            get("client/trace.items.client.bytes")
            + get("client/trace.items.client.decode.items"), done), "B"),
        "router.raw_relays_per_op": (ratio(get("router/shard.raw_relays"),
                                           done), "count"),
        "router.forwards_per_op": (ratio(get("router/shard.forwarded"),
                                         done), "count"),
        "shard.stmt_skew": (skew, "ratio"),
        "twopc.commits_per_op": (ratio(get("router/shard.twopc_commits"),
                                       done), "count"),
        "cluster.moves_per_pass": (ratio(extra.get("moves", 0), passes),
                                   "count"),
        "cluster.batch_yields_per_pass": (ratio(
            extra.get("lock_timeouts", 0), passes), "count"),
        "cluster.coaccess_edges": (ratio(extra.get("coaccess_edges", 0),
                                         passes), "count"),
        "bench.tracing_overhead_pct": (overhead_pct, "%"),
    }

    def mean(histogram, prefix=""):
        return ratio(get(f"{prefix}{histogram}.total"),
                     get(f"{prefix}{histogram}.count"))

    printed = {
        "disk.sim_io_ms_per_op": (ratio(get("disk.elapsed_ms"), done),
                                  "sim_ms"),
        "sql.parse_ms_per_op": (ratio(self_ms("sql.parse")
                                      + self_ms("sql.parse", "router/"),
                                      done), "ms"),
        "core.analyze_ms_per_op": (ratio(self_ms("core.analyze"), done),
                                   "ms"),
        "locks.wait_ms_per_op": (ratio(get("locks.wait_ms.total"), done),
                                 "ms"),
        "server.queue_wait_ms_per_op": (ratio(
            get("server.admission.queue_wait_ms.total"), done), "ms"),
        "server.frame_ms_per_op": (ratio(self_ms("server.frame"), done),
                                   "ms"),
        "server.statement_ms_mean": (mean("server.statement_ms"), "ms"),
        "router.route_ms_per_op": (ratio(
            self_ms("router.route", "router/"), done), "ms"),
        "router.shard_wait_ms_per_op": (ratio(
            self_ms("router.shard_wait", "router/"), done), "ms"),
        "cluster.pass_ms": (ratio(extra.get("pass_ms", 0.0), passes), "ms"),
    }
    for phase in ("prepare", "decision", "phase2", "total"):
        printed[f"twopc.{phase}_ms_mean"] = (
            mean(f"twopc.{phase}_ms", "router/"), "ms")
    return gated, printed


def layer_table(result) -> list[str]:
    """Self time and calls per traced layer, per op, for every process."""
    done = result.ops.completed()
    lines = [f"  {'layer (process)':40s} {'self ms/op':>11s} {'calls/op':>10s}"]
    for key in sorted(result.counters):
        prefix, _, rest = key.rpartition("trace.self_ms.")
        if not _:
            continue
        where = prefix.rstrip("/") or "engine"
        calls = result.counters.get(f"{prefix}trace.calls.{rest}", 0.0)
        lines.append(f"  {rest + ' (' + where + ')':40s} "
                     f"{result.counters[key] / done:11.4f} "
                     f"{calls / done:10.2f}")
    return lines


# -- command line -----------------------------------------------------------------


def _print_block(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no MOOD sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = SRC
    from common import SETUP_REPEATS, BenchmarkFailure
    from tracer import Tracer

    try:
        # A traced run reports no set-up time, so each of its two passes
        # sets up once.
        repeats = 1 if args.trace else SETUP_REPEATS
        base = _run_workload(args.workload, args.seed, args.seconds,
                             repeats)
        result = base
        if args.trace:
            tag = f"{args.workload}-{args.seed}"
            tracer = Tracer()
            result = _run_workload(args.workload, args.seed, args.seconds,
                                   repeats, tracer, tag)
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            result.extra["spans_written"] = (
                result.extra.get("spans_written", 0) + tracer.write_spans(
                    os.path.join(HERE, "out", f"spans-{tag}-bench.jsonl"),
                    "bench"))
    except BenchmarkFailure as exc:
        print(f"OUTPUT CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"ops {result.ops.attempted} (failed {result.ops.failed}, "
          f"retries {result.ops.retries})  op stream {result.op_digest}")
    for error in result.ops.errors[:10]:
        print(f"  failed op: {error}")
    if args.trace:
        base_tps = base.ops.completed() / base.wall_s
        traced_tps = result.ops.completed() / result.wall_s
        overhead = (base_tps / traced_tps - 1.0) * 100.0
        print(f"tracing overhead: {overhead:.2f}% "
              f"(untraced {base_tps:.3f} ops/s, traced {traced_tps:.3f}); "
              f"{result.extra['spans_written']} spans written to "
              f"perfbench/out/")
        gated, printed = per_layer(result, overhead)
        _print_block("per-layer metrics:", gated)
        _print_block("per-layer times (not in the JSON record):", printed)
        print("per-layer self time:")
        print("\n".join(layer_table(result)))
        metrics = gated
    else:
        metrics = end_to_end(result)
        _print_block("end-to-end metrics (calibrated to reference speed):",
                     metrics)
        _print_block("the same, as measured:", end_to_end(result, False))
        _print_block("workload-specific figures:", workload_extras(result))
    print(json.dumps({
        "correct": True,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
