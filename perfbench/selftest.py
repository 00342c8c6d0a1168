"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a tiny traced ``query-fit`` and a tiny traced ``traverse-spill`` twice
with one seed, each in a fresh process, and requires identical op
streams, ``sim_io_ms_per_op``, ``space_amp`` and every per-layer count;
then once with another seed, whose op stream must differ.  Timings are
not compared.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Units of the per-layer metrics that are counts, not clock readings.
COUNT_UNITS = {"count", "ratio", "B"}


def _tiny_run(workload: str, seed: int) -> dict:
    """One shrunken traced run in this process; its deterministic part."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import common
    import inproc
    import run
    from tracer import Tracer

    common.MIN_CLASS_SAMPLES = 12
    inproc.FIT_SCALE = 200
    inproc.SPILL_SCALE = 400
    inproc.SPILL_FRAMES = 16
    inproc.SPILL_OBJCACHE = 64
    inproc.SPILL_WINDOW_SPAN = 60
    if workload == "query-fit":
        result = inproc.query_fit(seed, 1, Tracer(), 1)
    else:
        result = inproc.traverse_spill(seed, 1, Tracer(), 1)
    gated, _printed = run.per_layer(result, 0.0)
    done = result.ops.completed()
    return {
        "op_stream": result.op_digest,
        "ops": result.ops.attempted,
        "failed": result.ops.failed,
        "sim_io_ms_per_op": result.counters.get("disk.elapsed_ms", 0.0) / done,
        "space_amp": result.space_amp,
        "per_layer_counts": {name: value for name, (value, unit)
                             in gated.items() if unit in COUNT_UNITS},
    }


def _child(workload: str, seed: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--one", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--one", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(_tiny_run(args.one, args.seed)))
        return 0

    ok = True
    for workload in ("query-fit", "traverse-spill"):
        first = _child(workload, args.seed)
        second = _child(workload, args.seed)
        other = _child(workload, args.seed + 1)
        same = first == second
        differs = other["op_stream"] != first["op_stream"]
        print(f"{workload}: seed {args.seed} twice identical: {same}; "
              f"seed {args.seed + 1} changes the op stream: {differs}")
        if not same:
            for key in first:
                if first[key] != second[key]:
                    print(f"  {key}: {first[key]} != {second[key]}")
        ok = ok and same and differs and not first["failed"]
    print("determinism self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
