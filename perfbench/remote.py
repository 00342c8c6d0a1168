"""Client/server workloads: ``server-rw`` and ``sharded-2pc``.

The database lives in other processes (``host.py``); this process only
generates load.  Each connection is one closed-loop caller -- MOOD
clients are interactive sessions that wait for every reply -- working
through its own seeded op stream of prepared statements.  ``server-rw``
runs two connections, so its latencies include waiting on the other
caller's locks and statistics refreshes; ``sharded-2pc`` runs one, whose
latencies are the router's and the shards' own.
"""

from __future__ import annotations

import bisect
import random
import threading
import time

from repro.core.errors import MoodError
from repro.server.client import MoodClient

import tracer as tracer_module
from common import (
    CAL_REFERENCE_MS,
    DATA_SEED,
    BenchmarkFailure,
    Calibration,
    OpLog,
    RunResult,
    class_counts,
    timed_setups,
)
from host import HostProcess
from workloads import SHAPES, digest, mixed_stream

SCALE = 1000
SHARDS = 2

#: Ops each caller runs between two checkpoints (speed probes).
CHECKPOINT_OPS = 8
PROBE_REPEATS = 3
BARRIER_TIMEOUT_S = 120.0

#: Connections, ops per second of ``--seconds`` (all connections) and
#: the class mix of each workload.
RW_CONNECTIONS = 2
RW_OPS_PER_S = 18.0
RW_SHARES = {"lookup": 0.6, "scan": 0.3, "write": 0.1, "xfer": 0.0}
SHARDED_CONNECTIONS = 1
SHARDED_OPS_PER_S = 16.0
SHARDED_SHARES = {"lookup": 0.45, "scan": 0.4, "write": 0.05, "xfer": 0.1}

WARMUP_READS = 12

FACTS_SQL = ("SELECT v.id, v.weight, v.manufacturer.name, "
             "v.drivetrain.engine.cylinders, v.drivetrain.engine.size "
             "FROM Vehicle v")
WEIGHTS_SQL = "SELECT v.id, v.weight FROM Vehicle v"


class _Deployment:
    """The serving processes plus one prepared connection per caller."""

    def __init__(self, sharded: bool, connections: int, seed: int,
                 trace_tag):
        if sharded:
            args = ["router", "--count", str(SHARDS)]
        else:
            args = ["server"]
        args += ["--scale", str(SCALE), "--seed", str(DATA_SEED)]
        self.host = HostProcess(args, trace_tag=trace_tag).wait_ready()
        self.clients = []
        try:
            for _ in range(connections):
                client = MoodClient(*self.host.address)
                self.clients.append(client)
                for name, sql in SHAPES.items():
                    client.prepare(name, sql)
            self._warm(seed, sharded)
        except BaseException:
            self.close()
            raise

    def _warm(self, seed: int, sharded: bool) -> None:
        """Untimed reads on every connection: plan cache, object cache
        and buffer pool warm, statistics collected."""
        rng = random.Random(f"warm-{seed}")
        counts = {"lookup": WARMUP_READS, "scan": WARMUP_READS // 2,
                  "write": 0, "xfer": 0}
        for client in self.clients:
            for op in mixed_stream(rng, SCALE, counts,
                                   SHARDS if sharded else 0):
                for step in op.steps:
                    client.execute_prepared(step.shape, list(step.params),
                                            shard_key=step.shard_key)

    def close(self) -> dict:
        for client in self.clients:
            try:
                client.close()
            except (MoodError, OSError):
                pass
        self.clients = []
        return self.host.stop()


class _Caller(threading.Thread):
    """One connection working through its op stream.  Every
    ``CHECKPOINT_OPS`` ops it meets the other callers at a barrier, where
    the speed probe runs while the database is idle."""

    def __init__(self, client, ops, rng, shared: "_Shared"):
        super().__init__(daemon=True)
        self.client = client
        self.ops = ops
        self.rng = rng
        self.shared = shared
        self.log = OpLog()
        self.samples: list[tuple[str, float, float]] = []
        self.reads: list = []            # (step, rows) for the checks
        self.acked_bumps = 0
        self.reads_after_write = 0
        self.read_count = 0

    def run(self) -> None:
        try:
            self._loop()
        except BaseException:
            self.shared.barrier.abort()
            raise

    def _loop(self) -> None:
        client, shared = self.client, self.shared
        seen_writes = shared.writes
        for index, op in enumerate(self.ops):
            if index % CHECKPOINT_OPS == 0:
                shared.barrier.wait(BARRIER_TIMEOUT_S)
            started = time.perf_counter()
            try:
                if op.op_class in ("lookup", "scan"):
                    (step,) = op.steps
                    rows = client.execute_prepared(
                        step.shape, list(step.params),
                        shard_key=step.shard_key,
                    ).rows
                else:
                    _, attempts = client.run_transaction(
                        lambda c, steps=op.steps: [
                            c.execute_prepared(s.shape, list(s.params),
                                               shard_key=s.shard_key)
                            for s in steps
                        ],
                        rng=self.rng,
                    )
                    self.log.retries += attempts - 1
            except (MoodError, OSError) as exc:
                self.log.fail(op.op_class, f"{type(exc).__name__}: {exc}")
                continue
            self.samples.append((op.op_class, started,
                                 (time.perf_counter() - started) * 1e3))
            if op.op_class in ("lookup", "scan"):
                self.read_count += 1
                if shared.writes != seen_writes:
                    self.reads_after_write += 1
                seen_writes = shared.writes
                self.reads.append((step, rows))
            else:
                if op.op_class == "write":
                    self.acked_bumps += 1
                shared.note_write()
        shared.barrier.wait(BARRIER_TIMEOUT_S)


class _Shared:
    """State the callers share: the write count (for the read-after-write
    share) and the checkpoint barrier with its speed probes.  The time
    between two checkpoints is a *segment* of the run."""

    def __init__(self, connections: int):
        self.writes = 0
        self._mutex = threading.Lock()
        self.calibration = Calibration()
        self.segments: list[tuple[float, float]] = []
        self._resumed = None
        self.barrier = threading.Barrier(connections, action=self._checkpoint)

    def note_write(self) -> None:
        with self._mutex:
            self.writes += 1

    def _checkpoint(self) -> None:
        now = time.perf_counter()
        if self._resumed is not None:
            self.segments.append((self._resumed, now))
        self.calibration.probe(PROBE_REPEATS)
        self._resumed = time.perf_counter()

    def segment_factors(self) -> list[float]:
        loop_ms = self.calibration.loop_ms
        return [CAL_REFERENCE_MS / ((loop_ms[i] + loop_ms[i + 1]) / 2)
                for i in range(len(self.segments))]


def _facts(client) -> dict:
    rows = client.query(FACTS_SQL).rows
    return {row[0]: row[1:] for row in rows}


def _check_reads(facts: dict, reads: list) -> None:
    """Lookups and scans against the immutable attributes (weights move
    under the writers, so only their ranges are checked)."""
    for step, rows in reads:
        got = sorted(tuple(row) for row in rows)
        shape, params = step.shape, step.params
        if shape == "lk_maker":
            want = [(params[0], facts[params[0]][1])]
        elif shape == "lk_cyl":
            want = [(params[0], facts[params[0]][2])]
        elif shape == "sc_path":
            want = sorted((vid,) for vid, f in facts.items()
                          if f[2] == params[0])
        elif shape == "sc_join":
            want = sorted((vid, f[3]) for vid, f in facts.items()
                          if f[2] == params[0])
        elif shape == "lk_weight":
            want = got if [r[0] for r in got] == [params[0]] else None
        else:  # sc_weight
            low, high = params
            ok = all(low < weight < high and vid in facts
                     for vid, weight in got)
            want = got if ok else None
        if got != want:
            raise BenchmarkFailure(f"{shape}{params}: wrong rows {got[:3]}")


def _calibrate(shared: _Shared, callers) -> tuple[OpLog, float, float]:
    """The callers' ops in one log, each latency calibrated by the probes
    bounding its segment.  Returns (log, calibrated seconds, raw seconds)
    over the segments -- the run's wall time less the probes."""
    factors = shared.segment_factors()
    starts = [start for start, _ in shared.segments]
    log = OpLog()
    for caller in callers:
        log.merge(caller.log)            # failures
        for op_class, started, ms in caller.samples:
            segment = max(bisect.bisect_right(starts, started) - 1, 0)
            log.record(op_class, ms, factors[segment])
    raw = sum(end - start for start, end in shared.segments)
    calibrated = sum((end - start) * factor for (start, end), factor
                     in zip(shared.segments, factors))
    return log, calibrated, raw


def _merge_snapshots(before: dict, after: dict) -> tuple[dict, float, float]:
    """Counter deltas over the timed region: engine counters summed over
    the processes that hold data, router counters under ``router/``.
    Returns (deltas, CPU seconds of every process, summed peak RSS MiB)."""
    deltas: dict[str, float] = {}
    cpu_s = rss_mb = 0.0
    earlier = {p["role"]: p["values"] for p in before["processes"]}
    for process in after["processes"]:
        role, values = process["role"], process["values"]
        base = earlier[role]
        cpu_s += values["cpu_s"] - base["cpu_s"]
        rss_mb += values["rss_mb"]
        prefix = "router/" if role == "router" else ""
        deltas[f"{role}/server.statements"] = (
            values.get("server.statements", 0.0)
            - base.get("server.statements", 0.0)
        )
        for name, value in values.items():
            key = prefix + name
            deltas[key] = deltas.get(key, 0.0) + value - base.get(name, 0.0)
    return deltas, cpu_s, rss_mb


def run(sharded: bool, seed: int, seconds: int, tracer, trace_tag,
        repeats: int) -> RunResult:
    connections, rate, shares = (
        (SHARDED_CONNECTIONS, SHARDED_OPS_PER_S, SHARDED_SHARES) if sharded
        else (RW_CONNECTIONS, RW_OPS_PER_S, RW_SHARES))
    counts = {name: -(-count // connections) for name, count in
              class_counts(rate * seconds, shares).items()}
    streams = [
        mixed_stream(random.Random(f"{seed}-{index}"), SCALE, counts,
                     SHARDS if sharded else 0)
        for index in range(connections)
    ]

    tags = [None] * (repeats - 1) + [trace_tag]   # trace the kept one
    setup_s, raw_setup_s, deployment = timed_setups(
        lambda: _Deployment(sharded, connections, seed, tags.pop(0)),
        repeats, teardown=lambda previous: previous.close())

    try:
        admin = deployment.clients[0]
        facts = _facts(admin)
        initial_sum = sum(f[0] for f in facts.values())
        shared = _Shared(connections)
        callers = [
            _Caller(client, ops, random.Random(f"retry-{seed}-{i}"), shared)
            for i, (client, ops) in enumerate(
                zip(deployment.clients, streams))
        ]
        if tracer is not None:
            tracer_module.install_client(tracer)
            client_before = tracer.snapshot()
        before = deployment.host.command("snapshot")
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        after = deployment.host.command("snapshot")
        if tracer is not None:
            client_after = tracer.snapshot()
            tracer.unwrap_all()

        if shared.barrier.broken:
            raise RuntimeError("a caller died; see its traceback")
        log, wall_s, raw_wall_s = _calibrate(shared, callers)
        for caller in callers:
            _check_reads(facts, caller.reads)
        acked = sum(caller.acked_bumps for caller in callers)
        final_sum = sum(w for _, w in admin.query(WEIGHTS_SQL).rows)
        if final_sum != initial_sum + acked:
            raise BenchmarkFailure(
                f"SUM(weight) {final_sum} != {initial_sum} + {acked} "
                "acknowledged bumps"
            )
        extra = {
            "read_after_write_share": (
                sum(c.reads_after_write for c in callers)
                / max(sum(c.read_count for c in callers), 1)
            ),
        }
        if sharded:
            in_doubt = [row for row in admin.query(
                "SELECT t.gid, t.state FROM SYS$TXNS t").rows
                if row[1] == "in_doubt"]
            if in_doubt:
                raise BenchmarkFailure(f"in-doubt branches left: {in_doubt}")
        space = deployment.host.command("space")
        extra["updated_records"] = acked + 2 * len(
            log.latencies_ms.get("xfer", ()))
    finally:
        stopped = deployment.close()
    deltas, raw_cpu_s, rss_mb = _merge_snapshots(before, after)
    if tracer is not None:
        for name, value in client_after.items():
            deltas["client/" + name] = value - client_before.get(name, 0)
    extra["spans_written"] = stopped.get("spans", 0)
    return RunResult(
        ops=log, setup_s=setup_s, raw_setup_s=raw_setup_s,
        wall_s=wall_s, raw_wall_s=raw_wall_s,
        cpu_s=raw_cpu_s * wall_s / raw_wall_s, raw_cpu_s=raw_cpu_s,
        peak_rss_mb=rss_mb, space_amp=space["allocated"] / space["live"],
        counters=deltas, extra={**extra, **space},
        op_digest=digest([op for ops in streams for op in ops]),
    )
