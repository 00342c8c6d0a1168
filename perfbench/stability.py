"""Stability report: is each end-to-end metric steady enough for its bound?

    python3 perfbench/stability.py [--repeats 10] [--workloads a,b]

Runs every workload ``--repeats`` times, interleaved (round r runs each
workload once with seed ``--seed-base + r``), one run at a time.  For
each metric it prints the median, the quartiles and the spread -- the
distance between the first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them -- and flags every
end-to-end metric (other than ``setup_s``) whose spread exceeds its bound
in ``BENCHMARK.json``.  The raw results are kept in
``perfbench/out/stability.json``.  Exits 1 if a run fails or any metric
is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, ((q3 - q1) / mid if mid else 0.0)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-2:]}")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for round_index in range(args.repeats):
        seed = args.seed_base + round_index
        for workload in workloads:
            result = run_once(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"round {round_index + 1}/{args.repeats} {workload} "
                  f"seed {seed}: ok", flush=True)

    flagged = []
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, series in values[workload].items():
            mid, q1, q3, share = spread(series)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and share > bound:
                mark = "  OVER BOUND"
                flagged.append((workload, name))
            elif bound is not None and share > bound / 3:
                mark = "  over a third of its bound"
            print(f"  {name:34s} {mid:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{share:8.4f} {bound if bound is not None else '':>6}"
                  f"{mark}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "stability.json"), "w",
              encoding="utf-8") as out:
        json.dump(values, out, indent=1)
    if flagged:
        print(f"\nover bound: {flagged}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
