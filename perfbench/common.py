"""Shared pieces of the benchmark: seeded generators, op bookkeeping,
process accounting, and the result record every workload returns."""

from __future__ import annotations

import bisect
import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Percentile reported for every latency class.  Every class gets at least
#: ``MIN_CLASS_SAMPLES`` samples per run, so at least ten lie beyond it.
TAIL_PERCENTILE = 0.90
MIN_CLASS_SAMPLES = 100

#: Seed of the paper database itself.  The data is the same in every run;
#: ``--seed`` draws the op stream, so runs differ in what they ask, not in
#: what they ask it of.
DATA_SEED = 42

#: How many times each run builds its deployment; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Zipf exponent of the hot-set skew used for id lookups.
ZIPF_S = 1.1

#: The reference loop: ``CAL_ITERATIONS`` rounds of integer arithmetic.
#: Calibrated times are expressed in ms of a machine on which the loop
#: takes ``CAL_REFERENCE_MS``.
CAL_ITERATIONS = 12_000
CAL_REFERENCE_MS = 1.0
#: Probes whose median gives the speed factor at one moment.
CAL_WINDOW = 9


class BenchmarkFailure(Exception):
    """An output check failed: the run reports ``correct: false``."""


# -- seeded inputs -----------------------------------------------------------


class Zipf:
    """Zipf-distributed draws over ``n`` ids, hottest ids permuted by seed
    so the hot set differs between seeds but never within one."""

    def __init__(self, n: int, rng: random.Random, s: float = ZIPF_S):
        self.ids = list(range(n))
        rng.shuffle(self.ids)
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = 0.0
        self.cumulative = []
        for weight in weights:
            total += weight
            self.cumulative.append(total)
        self.total = total

    def draw(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self.cumulative, rng.random() * self.total)
        return self.ids[min(rank, len(self.ids) - 1)]


def class_sequence(rng: random.Random, counts: dict[str, int]) -> list[str]:
    """Exactly ``counts[c]`` ops of each class, in seeded random order.
    Exact counts keep every class's sample size fixed across seeds."""
    sequence = [name for name, count in counts.items() for _ in range(count)]
    rng.shuffle(sequence)
    return sequence


def class_counts(total: float, shares: dict[str, float],
                 timed=("lookup", "scan")) -> dict[str, int]:
    """Op counts per class for about ``total`` ops in the proportions of
    ``shares``, scaled up as a whole until every class in ``timed`` has
    ``MIN_CLASS_SAMPLES`` ops, so the mix never changes with the size."""
    scale = max([1.0] + [MIN_CLASS_SAMPLES / (total * shares[name])
                         for name in timed])
    return {name: math.ceil(round(total * scale * share, 6))
            for name, share in shares.items()}


# -- measurement ---------------------------------------------------------------


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at rank ``ceil(f * n)``)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(fraction * len(ordered), 6)))
    return ordered[rank - 1]


class Meter:
    """CPU clock and counter snapshots over *timed* segments.

    Output checks run between segments, so neither their CPU nor their
    counter movements are charged to the workload's ops.
    """

    def __init__(self, counters):
        self._counters = counters      # callable -> dict of counter values
        self.cpu_s = 0.0
        self.deltas: dict[str, float] = {}
        self._open = None

    def start(self) -> None:
        self._open = (time.process_time(), self._counters())

    def stop(self) -> None:
        cpu0, before = self._open
        self.cpu_s += time.process_time() - cpu0
        after = self._counters()
        for name, value in after.items():
            delta = value - before.get(name, 0.0)
            self.deltas[name] = self.deltas.get(name, 0.0) + delta
        self._open = None


def reference_loop_ms() -> float:
    """One run of the reference loop, in milliseconds of wall time."""
    started = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


class Calibration:
    """Probes of the machine's current speed.

    The processor this benchmark shares runs the same code up to 1.5x
    slower for stretches of seconds (other tenants); a fixed loop shows it
    as clearly as the database does.  ``factor_at(t)`` converts a duration
    measured around ``t`` to reference speed: ``CAL_REFERENCE_MS`` over the
    median of the probes nearest to ``t``.  Probes run only while the
    measured system is idle (between ops), so they see other tenants'
    load, never the benchmark's own.
    """

    def __init__(self):
        self.times: list[float] = []
        self.loop_ms: list[float] = []

    def probe(self, repeats: int = 1) -> None:
        self.times.append(time.perf_counter())
        self.loop_ms.append(statistics.median(
            reference_loop_ms() for _ in range(repeats)))

    def factor_at(self, moment: float, window: int = CAL_WINDOW) -> float:
        if not self.times:
            return 1.0
        index = bisect.bisect_left(self.times, moment)
        low = max(0, min(index - window // 2, len(self.times) - window))
        nearest = self.loop_ms[low:low + window]
        return CAL_REFERENCE_MS / statistics.median(nearest)


class Timeline:
    """One caller's timed work, calibrated once the run is over (the
    factor for a moment uses probes taken after it as well as before).

    ``probe()`` runs between ops; ``op()`` and ``span()`` record timed work
    (a span is timed work that is not an op, such as a reclustering pass).
    """

    def __init__(self, log: "OpLog"):
        self.log = log
        self.calibration = Calibration()
        self.probe_s = 0.0
        self._ops: list[tuple[str, float, float]] = []
        self._spans: list[tuple[float, float]] = []

    def probe(self) -> None:
        started = time.perf_counter()
        self.calibration.probe()
        self.probe_s += time.perf_counter() - started

    def op(self, op_class: str, started: float, ms: float) -> None:
        self._ops.append((op_class, started, ms))

    def span(self, started: float, ms: float) -> None:
        self._spans.append((started, ms))

    def finish(self) -> tuple[float, float]:
        """Record every op in the log; returns (calibrated, raw) seconds
        of timed work."""
        calibrated = raw = 0.0
        factor_at = self.calibration.factor_at
        for op_class, started, ms in self._ops:
            factor = factor_at(started)
            self.log.record(op_class, ms, factor)
            calibrated += ms * factor / 1e3
            raw += ms / 1e3
        for started, ms in self._spans:
            calibrated += ms * factor_at(started) / 1e3
            raw += ms / 1e3
        return calibrated, raw


@dataclass
class OpLog:
    """Latency samples per op class -- as measured and calibrated -- plus
    attempt and failure counts."""

    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    calibrated_ms: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, op_class: str, ms: float, factor: float) -> None:
        self.attempted += 1
        self.latencies_ms.setdefault(op_class, []).append(ms)
        self.calibrated_ms.setdefault(op_class, []).append(ms * factor)

    def fail(self, op_class: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{op_class}: {message}")

    def merge(self, other: "OpLog") -> None:
        for name, samples in other.latencies_ms.items():
            self.latencies_ms.setdefault(name, []).extend(samples)
        for name, samples in other.calibrated_ms.items():
            self.calibrated_ms.setdefault(name, []).extend(samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.retries += other.retries
        self.errors.extend(other.errors)

    def completed(self) -> int:
        return self.attempted - self.failed


def self_usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MiB) of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


@dataclass
class RunResult:
    """What one workload run measured.  Times come in pairs: calibrated
    (to reference speed) and raw (as measured).  ``wall_s`` is the time
    the workload's ops and timed passes ran.  ``extra`` holds
    workload-specific figures printed in the report but not gated."""

    ops: OpLog
    setup_s: float
    raw_setup_s: float
    wall_s: float
    raw_wall_s: float
    cpu_s: float
    raw_cpu_s: float
    peak_rss_mb: float
    space_amp: float
    counters: dict[str, float]
    extra: dict[str, float] = field(default_factory=dict)
    op_digest: str = ""


def timed_setups(build, repeats: int, teardown=None
                 ) -> tuple[float, float, object]:
    """Build ``repeats`` times, a speed probe on either side of each
    build.  Returns the median calibrated and raw seconds and the last
    build."""
    calibrated, raw, env = [], [], None
    for _ in range(repeats):
        if env is not None and teardown is not None:
            teardown(env)
        env = None
        gc.collect()
        probes = Calibration()
        probes.probe(CAL_WINDOW)
        started = time.perf_counter()
        env = build()
        seconds = time.perf_counter() - started
        probes.probe(CAL_WINDOW)
        raw.append(seconds)
        calibrated.append(seconds * CAL_REFERENCE_MS
                          / statistics.median(probes.loop_ms))
    return statistics.median(calibrated), statistics.median(raw), env


# -- storage accounting -------------------------------------------------------


def space_usage(db) -> dict[str, int]:
    """Allocated data-page bytes, live user-record bytes and live user
    records over every user class extent of ``db``."""
    catalog = db.kernel.catalog
    usage = {"allocated": 0, "live": 0, "records": 0}
    for class_name in catalog.class_names():
        extent = catalog.extent_file(class_name)
        usage["allocated"] += extent.nbpages() * extent.page_size
        for _, payload in extent.scan():
            usage["live"] += len(payload)
            usage["records"] += 1
    return usage


def counter_snapshot(registry) -> dict[str, float]:
    """Every counter of a metrics registry plus histogram totals
    (``<name>.count`` and ``<name>.total``)."""
    values = dict(registry.counters())
    for name, dump in registry.histogram_dumps().items():
        values[f"{name}.count"] = float(dump["count"])
        values[f"{name}.total"] = float(dump["total"])
    return values
