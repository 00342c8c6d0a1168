"""A process that holds a MOOD database and serves it.

Run by the benchmark, never by hand::

    python3 perfbench/host.py server --scale 1000 --seed 7 [--trace]
    python3 perfbench/host.py shard --index 0 --count 2 --scale 1000 ...
    python3 perfbench/host.py router --count 2 --scale 1000 ...

``server`` builds the paper database with ``build_paper_database`` and
serves it with a default ``MoodServer``; ``shard`` does the same for one
slice with ``build_paper_shard``; ``router`` starts ``--count`` shard
processes and puts a ``ShardedServer`` in front of them.  Each prints
``READY <host> <port>`` once it accepts connections, then answers
one-line commands on stdin with one JSON line on stdout:

* ``snapshot`` -- CPU seconds, peak RSS, every metrics counter and
  histogram total, and the tracer's totals, per process (a router
  includes its shards);
* ``space`` -- allocated data-page bytes and live user-record bytes;
* ``stop`` -- shut down, write recorded spans, exit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


class HostProcess:
    """Parent-side handle on one ``host.py`` process."""

    def __init__(self, args: list[str], trace_tag: str | None = None):
        command = [sys.executable, os.path.join(HERE, "host.py"), *args]
        if trace_tag is not None:
            command += ["--trace", trace_tag]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.role = args[0]
        self.address = None

    def wait_ready(self) -> "HostProcess":
        """Block until the process accepts connections."""
        line = self.proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            self.kill()
            raise RuntimeError(f"host {self.role} failed to start: {line}")
        self.address = (line[1], int(line[2]))
        return self

    # ShardedServer's backend surface: address, start, stop, alive.
    def start(self) -> tuple[str, int]:
        return self.address

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def command(self, verb: str) -> dict:
        self.proc.stdin.write(verb + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host exited during {verb!r}")
        return json.loads(line)

    def stop(self) -> dict:
        if self.proc.poll() is not None:
            return {}
        try:
            reply = self.command("stop")
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
            self.proc.stdout.close()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def _process_snapshot(role: str, registry, tracer) -> dict:
    from common import counter_snapshot, self_usage

    cpu_s, rss_mb = self_usage()
    values = {"cpu_s": cpu_s, "rss_mb": rss_mb,
              **counter_snapshot(registry)}
    if tracer is not None:
        values.update(tracer.snapshot())
    return {"role": role, "values": values}


def _serve(args) -> int:
    from repro.core.database import MoodDatabase
    from repro.server.server import MoodServer, ServerConfig
    from repro.storage.oid import shard_page_base

    import tracer as tracer_module
    from common import space_usage

    tracer = None
    if args.trace:
        tracer = tracer_module.Tracer()
        tracer_module.install_server(tracer)
    if args.mode == "server":
        from repro.bench.paperdb import build_paper_database

        db = MoodDatabase()
        build_paper_database(db, scale=args.scale, seed=args.seed)
        role = "server"
    else:
        from repro.bench.paperdb import build_paper_shard

        db = MoodDatabase(page_base=shard_page_base(args.index))
        build_paper_shard(db, args.index, args.count,
                          scale=args.scale, seed=args.seed)
        role = f"shard{args.index}"
    db.analyze()
    server = MoodServer(db, ServerConfig())
    host, port = server.start()
    print(f"READY {host} {port}", flush=True)

    def stop() -> dict:
        server.stop(graceful=True)
        return {"spans": _write_spans(tracer, args.trace, role)}

    return _command_loop(
        snapshot=lambda: {"processes": [_process_snapshot(
            role, db.kernel.storage.metrics, tracer)]},
        space=lambda: space_usage(db),
        stop=stop,
    )


def _route(args) -> int:
    from repro.server.router import RouterConfig, ShardedServer

    import tracer as tracer_module

    tracer = None
    if args.trace:
        tracer = tracer_module.Tracer()
        tracer_module.install_router(tracer)
    shard_args = ["--count", str(args.count), "--scale", str(args.scale),
                  "--seed", str(args.seed)]
    shards = []
    try:
        for index in range(args.count):
            shards.append(HostProcess(
                ["shard", "--index", str(index), *shard_args],
                trace_tag=args.trace,
            ))
        for shard in shards:  # the shards build their slices in parallel
            shard.wait_ready()
        router = ShardedServer(RouterConfig(shards=args.count),
                               backends=shards)
        host, port = router.start()
        print(f"READY {host} {port}", flush=True)

        def snapshot() -> dict:
            processes = [_process_snapshot("router", router.metrics, tracer)]
            for shard in shards:
                processes += shard.command("snapshot")["processes"]
            return {"processes": processes}

        def space() -> dict:
            replies = [shard.command("space") for shard in shards]
            return {key: sum(r[key] for r in replies) for key in replies[0]}

        def stop() -> dict:
            router.stop()
            spans = _write_spans(tracer, args.trace, "router")
            for shard in shards:
                spans += shard.stop().get("spans", 0)
            return {"spans": spans}

        return _command_loop(snapshot, space, stop)
    finally:
        for shard in shards:
            shard.kill()


def _command_loop(snapshot, space, stop) -> int:
    """Answer the parent's commands until ``stop`` or until stdin closes
    (the parent is gone), then shut down."""
    handlers = {"snapshot": snapshot, "space": space}
    for line in sys.stdin:
        verb = line.strip()
        if verb == "stop":
            print(json.dumps(stop()), flush=True)
            return 0
        handler = handlers.get(verb)
        reply = handler() if handler else {"error": f"unknown {verb!r}"}
        print(json.dumps(reply), flush=True)
    stop()
    return 0


def _write_spans(tracer, tag, role: str) -> int:
    if tracer is None:
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{tag}-{role}.jsonl")
    return tracer.write_spans(path, role)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("server", "shard", "router"))
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--count", type=int, default=2)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None,
                        help="span file tag; tracing is off without it")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.mode == "router":
        return _route(args)
    return _serve(args)


if __name__ == "__main__":
    raise SystemExit(main())
