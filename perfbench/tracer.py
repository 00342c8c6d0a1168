"""Per-layer tracing from outside the engine.

A :class:`Tracer` wraps public entry points of the engine's modules
(``Planner.plan_query``, ``Executor.execute_plan``, ...) with timers.  Each
wrapped call knows its layer; on return its *self* time -- its duration
minus the time of wrapped calls nested inside it -- is added to that layer.
Coarse entry points also record a span ``(name, start, end, parent, op)``
in memory; per-row entry points (record decode, predicate evaluation) only
count calls and accumulate time, because a span per row would cost more
than the work it measures.  Spans are written out when the run ends.

Handler threads of a server each get their own accumulators, merged when
the totals are read, so no lock sits on the traced path.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: Spans kept per process; later calls still count and time, unspanned.
SPAN_LIMIT = 200_000


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "spans", "op")

    def __init__(self):
        self.stack: list[list] = []       # [child_seconds, span_index]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.spans: list = []
        self.op = None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_mutex = threading.Lock()
        self._undo: list = []
        self.items: dict[str, int] = {}   # extra counts (e.g. bytes)
        self._items_mutex = threading.Lock()

    # -- installation ----------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, span: bool = True,
             count=None) -> None:
        """Replace ``owner.name`` by a timed wrapper charged to ``layer``.
        ``count(result, args)``, when given, returns an amount added to
        the ``<layer>.items`` count (rows, bytes...)."""
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1][1] if stack else None
            index = None
            if span and len(state.spans) < SPAN_LIMIT:
                index = len(state.spans)
                state.spans.append(None)
            frame = [0.0, index if index is not None else parent]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                duration = ended - started
                state.self_s[layer] = (
                    state.self_s.get(layer, 0.0) + duration - frame[0]
                )
                state.calls[layer] = state.calls.get(layer, 0) + 1
                if stack:
                    stack[-1][0] += duration
                if index is not None:
                    state.spans[index] = (
                        layer, started, ended, parent, state.op
                    )
            if count is not None:
                tracer.add(f"{layer}.items", count(result, args))
            return result

        setattr(owner, name, traced)
        self._undo.append((owner, name, original))

    def unwrap_all(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def add(self, item: str, amount: int) -> None:
        with self._items_mutex:
            self.items[item] = self.items.get(item, 0) + amount

    # -- ops -------------------------------------------------------------------

    def op(self, op_id, name: str):
        """Context manager: one benchmark op, the root span of its calls."""
        return _OpScope(self, op_id, name)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_mutex:
                self._states.append(state)
        return state

    # -- results ---------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self milliseconds per layer, calls per layer) over all threads."""
        self_ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        with self._states_mutex:
            states = list(self._states)
        for state in states:
            for layer, seconds in state.self_s.items():
                self_ms[layer] = self_ms.get(layer, 0.0) + seconds * 1e3
            for layer, count in state.calls.items():
                calls[layer] = calls.get(layer, 0) + count
        return self_ms, calls

    def snapshot(self) -> dict[str, float]:
        """Flat running totals, for deltas over timed segments."""
        self_ms, calls = self.totals()
        values = {f"trace.self_ms.{k}": v for k, v in self_ms.items()}
        values.update({f"trace.calls.{k}": v for k, v in calls.items()})
        with self._items_mutex:
            values.update({f"trace.items.{k}": v
                           for k, v in self.items.items()})
        return values

    def write_spans(self, path: str, process: str) -> int:
        """Write every recorded span as one JSON line; returns the count."""
        written = 0
        with self._states_mutex:
            states = list(self._states)
        with open(path, "w", encoding="utf-8") as out:
            for thread_index, state in enumerate(states):
                for span in state.spans:
                    if span is None:
                        continue
                    layer, started, ended, parent, op_id = span
                    out.write(json.dumps({
                        "process": process, "thread": thread_index,
                        "name": layer, "start": started, "end": ended,
                        "parent": parent, "op": op_id,
                    }) + "\n")
                    written += 1
        return written


class _OpScope:
    def __init__(self, tracer: Tracer, op_id, name: str):
        self.tracer = tracer
        self.op_id = op_id
        self.name = name

    def __enter__(self):
        state = self.tracer._state()
        state.op = self.op_id
        self.index = len(state.spans) if len(state.spans) < SPAN_LIMIT else None
        if self.index is not None:
            state.spans.append(None)
        self.frame = [0.0, self.index]
        state.stack.append(self.frame)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        state = self.tracer._state()
        ended = time.perf_counter()
        state.stack.pop()
        if self.index is not None:
            state.spans[self.index] = (
                f"op.{self.name}", self.started, ended, None, self.op_id
            )
        state.op = None
        return False


def _rows(result, _args) -> int:
    return len(result) if result is not None else 0


def install_engine(tracer: Tracer) -> None:
    """Wrap the engine-side layers: SQL parse, compile, statistics,
    execution, expression evaluation, object access and record decode."""
    import repro.core.database as database_module
    import repro.core.kernel as kernel_module
    import repro.engine.objects as objects_module
    from repro.cluster.recluster import Reclusterer
    from repro.core.kernel import MoodKernel
    from repro.engine.evaluator import ExpressionEvaluator
    from repro.engine.executor import Executor
    from repro.engine.objects import ObjectManager
    from repro.optimizer.planner import Planner

    tracer.wrap(database_module, "parse_script", "sql.parse")
    tracer.wrap(Planner, "plan_query", "core.compile")
    tracer.wrap(kernel_module, "fuse_query_plan", "core.compile")
    tracer.wrap(MoodKernel, "analyze", "core.analyze")
    tracer.wrap(Executor, "execute_plan", "engine.execute", count=_rows)
    for entry in ("filter_batch", "values_batch", "prefetch"):
        tracer.wrap(ExpressionEvaluator, entry, "engine.eval")
    for entry in ("value", "values", "predicate"):
        tracer.wrap(ExpressionEvaluator, entry, "engine.eval", span=False)
    tracer.wrap(ObjectManager, "deref", "objects.deref", span=False,
                count=lambda _result, _args: 1)
    tracer.wrap(ObjectManager, "deref_many", "objects.deref",
                count=_rows)
    tracer.wrap(objects_module, "decode", "serde.decode", span=False)
    tracer.wrap(Reclusterer, "run_once", "cluster.pass")


def install_server(tracer: Tracer) -> None:
    """Wrap a server process's session and framing layers on top of the
    engine's: statement parse on the wire path, frame decode/encode."""
    import repro.server.protocol as protocol_module
    import repro.server.server as server_module
    import repro.server.session as session_module

    install_engine(tracer)
    tracer.wrap(session_module, "parse_script", "sql.parse")
    tracer.wrap(protocol_module, "decode_frame", "server.frame",
                span=False)
    tracer.wrap(server_module, "send_frame", "server.frame", span=False)


def install_router(tracer: Tracer) -> None:
    """Wrap the router: request handling, statement parse, and the shard
    links (time waiting on a shard is the link's, not the router's)."""
    import repro.server.router as router_module
    from repro.server.router import ShardedServer

    tracer.wrap(router_module, "parse_script", "sql.parse")
    tracer.wrap(ShardedServer, "handle_request", "router.route")
    link = router_module._ShardLink
    tracer.wrap(link, "call", "router.shard_wait")
    tracer.wrap(link, "call_raw", "router.shard_wait")


def install_client(tracer: Tracer) -> None:
    """Count the bytes a client sends and receives (load generator side)."""
    import repro.server.client as client_module
    import repro.server.protocol as protocol_module

    original_send = client_module.send_frame

    def counting_send(sock, message):
        tracer.add("client.bytes", len(json.dumps(
            message, separators=(",", ":")).encode("utf-8")) + 4)
        return original_send(sock, message)

    client_module.send_frame = counting_send
    tracer._undo.append((client_module, "send_frame", original_send))
    tracer.wrap(protocol_module, "decode_frame", "client.decode",
                span=False, count=lambda _result, args: len(args[0]) + 4)
