"""The routing front end of a sharded MOOD deployment.

The OID space is range-partitioned over N shard engines (see
:mod:`repro.storage.oid`); this module is the coordinator that makes
them look like one server.  Clients speak the ordinary frame protocol to
the router; the router classifies each statement and either

* **forwards** it whole to a single shard (the fast path -- a raw frame
  relay, so a 1-shard deployment adds only one socket hop),
* **broadcasts** it (DDL, ANALYZE, and unhinted writes -- every shard
  holds the same schema, with writes made atomic by an internal
  two-phase commit), or
* **scatters** it (unhinted SELECT/EXPLAIN: every shard runs the query,
  the router concatenates the row streams and re-applies simple ORDER
  BYs).

Requests carry optional routing hints: ``shard`` pins a statement to a
shard index, ``shard_key`` hashes an application key to one
(``int % N``; strings via crc32).  ``NEW`` without a hint round-robins.

Cross-shard transactions commit with **presumed-abort two-phase
commit**: every participant forces a PREPARE record (votes yes, keeps
its locks), the router forces the decision into its
:class:`~repro.server.txlog.CoordinatorLog` -- the commit point -- then
drives the idempotent phase-2 verbs.  :meth:`ShardedServer.recover`
re-drives pending decisions after a router crash and presumed-abort
sweeps the shards' in-doubt lists, so no transaction stays in doubt
longer than one restart.

A ``SELECT ... FROM SYS$SHARDS`` is answered by the router itself (it is
the only party that knows the topology); every other ``SYS$`` view
scatters to the shards like any query.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
import uuid
import zlib
from dataclasses import dataclass, field

from repro.core.database import MoodDatabase
from repro.core.errors import (
    MoodError,
    ProtocolError,
    ShardUnavailableError,
    TransactionError,
    TransactionInDoubtError,
    UnknownPreparedStatementError,
    describe_error,
)
from repro.obs.metrics import merge_histogram_dumps, summarize_dump
from repro.obs.spans import Span
from repro.obs.trace import StatementTrace, server_trace_id, truncate_statement
from repro.server.protocol import (
    REQUEST_OPS,
    decode_frame,
    encode_value,
    error_response,
    ok_response,
    recv_frame,
    recv_frame_bytes,
    send_frame,
    send_frame_bytes,
)
from repro.server.telemetry import (
    ROUTER_ONLY_VIEWS,
    STATS_HISTOGRAMS,
    ClusterTelemetry,
)
from repro.server.server import _encode_result
from repro.server.txlog import CoordinatorLog
from repro.server.worker import LocalShard, ProcessShard
from repro.sql.ast import (
    AlterClass,
    AnalyzeStmt,
    CreateClass,
    CreateIndex,
    CreateMethod,
    DeallocateStmt,
    DeleteStmt,
    DropClass,
    DropIndex,
    DropMethod,
    ExplainStmt,
    NewObject,
    PrepareStmt,
    SelectQuery,
    UpdateStmt,
)
from repro.sql.parser import parse_script
from repro.storage.oid import SHARD_PAGE_SPAN

_BROADCAST_STATEMENTS = (
    CreateClass, DropClass, AlterClass,
    CreateIndex, DropIndex, CreateMethod, DropMethod,
    AnalyzeStmt,
)

#: Default seconds a router->shard call may take.
DEFAULT_LINK_TIMEOUT = 60.0


def shard_of_key(key, shard_count: int) -> int:
    """Deterministically map an application sharding key to a shard:
    integers partition by ``key % N`` (matching the benchmark's
    id-partitioned dataset), everything else by a stable crc32 hash."""
    if isinstance(key, bool) or not isinstance(key, int):
        return zlib.crc32(str(key).encode("utf-8")) % shard_count
    return key % shard_count


@dataclass
class RouterConfig:
    """Knobs for one sharded deployment."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0 = ephemeral, read back after start()
    shards: int = 1
    backend: str = "process"      # "process" or "local" (in-process) workers
    worker_options: dict = field(default_factory=dict)
    txlog_path: str | None = None # coordinator decision log (None: in-memory)
    link_timeout: float = DEFAULT_LINK_TIMEOUT
    #: Router-side tracing (statement ring, slow log, 2PC journal events
    #: and spans).  Counters and latency histograms stay on regardless --
    #: only per-request record keeping is toggled, mirroring the workers'
    #: ``ServerConfig.tracing``.
    tracing: bool = True
    #: SYS$SHARD_HEALTH flags a shard hot when its statement rate is at
    #: least ``hot_shard_skew`` times the cluster mean while running at
    #: ``hot_shard_min_rate`` statements/second or more.
    hot_shard_skew: float = 1.5
    hot_shard_min_rate: float = 0.5


class _ShardLink:
    """One socket to one shard worker, speaking raw frames.

    Responses pass through verbatim -- error payloads keep their stable
    ``code``/``errno``/``retryable`` identity end to end.  Any transport
    failure surfaces as :class:`ShardUnavailableError`; the owner must
    then discard the link (its stream may be desynchronised).
    """

    def __init__(self, shard_index: int, address: tuple[str, int],
                 timeout: float):
        self.shard_index = shard_index
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise ShardUnavailableError(
                f"shard {shard_index} unreachable at {address}: {exc}"
            ) from None

    def call(self, request: dict) -> dict:
        try:
            send_frame(self._sock, request)
            response = recv_frame(self._sock)
        except (OSError, ProtocolError) as exc:
            raise ShardUnavailableError(
                f"shard {self.shard_index} failed mid-call: {exc}"
            ) from None
        if response is None:
            raise ShardUnavailableError(
                f"shard {self.shard_index} hung up"
            )
        return response

    def call_raw(self, payload: bytes) -> bytes:
        """Relay an already-encoded frame and hand back the shard's
        response bytes untouched (the single-shard hot path: no JSON
        decode/re-encode at the router)."""
        try:
            send_frame_bytes(self._sock, payload)
            response = recv_frame_bytes(self._sock)
        except (OSError, ProtocolError) as exc:
            raise ShardUnavailableError(
                f"shard {self.shard_index} failed mid-call: {exc}"
            ) from None
        if response is None:
            raise ShardUnavailableError(
                f"shard {self.shard_index} hung up"
            )
        return response

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class RouterSession:
    """Per-connection routing state: lazy shard links, the distributed
    transaction's participant set, and client-prepared statements."""

    def __init__(self, session_id: int):
        self.session_id = session_id
        self.links: dict[int, _ShardLink] = {}
        self.in_txn = False
        #: Shards holding an open branch of the current transaction.
        self.participants: set[int] = set()
        #: Client-prepared statements: name -> SQL, the parse of the
        #: first statement (for routing without re-parsing), and the
        #: shards each one has been propagated to (lazily, on first
        #: execution there).
        self.prepared_sql: dict[str, str] = {}
        self.prepared_first: dict[str, object] = {}
        self.prepared_on: dict[str, set[int]] = {}
        #: Router-side per-session telemetry (the SYS$SESSIONS shard=-1
        #: rows): statements routed, last trace id, the transaction-level
        #: trace id carried by BEGIN, and spans the current statement's
        #: dispatch produced (the 2PC phase tree).
        self.statements = 0
        self.last_trace_id = ""
        self.txn_trace: str | None = None
        self.pending_spans: list = []

    def close_links(self) -> None:
        for link in self.links.values():
            link.close()
        self.links.clear()


class ShardedServer:
    """N shard workers behind one routing listener."""

    def __init__(
        self,
        config: RouterConfig | None = None,
        backends: list | None = None,
        txlog: CoordinatorLog | None = None,
    ):
        self.config = config or RouterConfig()
        if backends is not None:
            self.backends = list(backends)
            self._owns_backends = False
        else:
            cls = LocalShard if self.config.backend == "local" else ProcessShard
            self.backends = [
                cls(i, self.config.shards, self.config.worker_options)
                for i in range(self.config.shards)
            ]
            self._owns_backends = True
        self.shard_count = len(self.backends)
        if self.shard_count < 1:
            raise MoodError("a sharded server needs at least one shard")
        # Not `txlog or ...`: an empty CoordinatorLog has len() == 0 and
        # would be silently replaced, losing the injected log.
        self.txlog = (txlog if txlog is not None
                      else CoordinatorLog(self.config.txlog_path))
        #: Test hooks: ``failpoints[name] = fn`` runs ``fn()`` at the
        #: named point in the commit protocol (tests raise from it to
        #: simulate a coordinator crash at exactly that instant).
        self.failpoints: dict = {}
        # A miniature local database evaluates SYS$SHARDS with the
        # standard system-view machinery (WHERE/projection/ORDER BY all
        # work); its metrics registry doubles as the router's.
        self._viewdb = MoodDatabase(buffer_capacity=16, auto_analyze=False)
        self.metrics = self._viewdb.kernel.storage.metrics
        component = self.metrics.component("shard")
        self._m_forwarded = component.counter("forwarded")
        self._m_broadcasts = component.counter("broadcasts")
        self._m_scatter = component.counter("scatter_queries")
        self._m_2pc_commits = component.counter("twopc_commits")
        self._m_2pc_aborts = component.counter("twopc_aborts")
        self._m_2pc_in_doubt = component.counter("twopc_in_doubt")
        self._m_2pc_recovered = component.counter("twopc_recovered")
        self._m_unavailable = component.counter("unavailable")
        self._m_raw_relays = component.counter("raw_relays")
        # Router-level statement accounting (the satellite fix: failures
        # the router itself produces -- scatter-gather partial failures,
        # SHARD_UNAVAILABLE -- were invisible to metrics before).
        server_component = self.metrics.component("server")
        self._m_statements = server_component.counter("statements")
        self._m_statements_failed = server_component.counter(
            "statements_failed"
        )
        self._m_statement_ms = server_component.histogram("statement_ms")
        # Per-phase 2PC latency distributions (prepare votes, the
        # decision-log force, phase-2 verbs, whole protocol).
        twopc = self.metrics.component("twopc")
        self._m_twopc_ms = {
            "prepare": twopc.histogram("prepare_ms"),
            "decision": twopc.histogram("decision_ms"),
            "phase2": twopc.histogram("phase2_ms"),
            "total": twopc.histogram("total_ms"),
        }
        # The view database's journal and trace rings double as the
        # router's (its SYS$ views read them as the shard = -1 rows).
        self.events = self._viewdb.kernel.storage.events
        self.statement_log = self._viewdb.kernel.statement_log
        self.slow_log = self._viewdb.kernel.slow_log
        self._per_shard_statements = [0] * self.shard_count
        #: Live router sessions by id, for SYS$SESSIONS / SYS$TXNS.
        self._sessions: dict[int, RouterSession] = {}
        self._viewdb.kernel.system_views.register(
            "SYS$SHARDS",
            [("shard", "Integer"), ("host", "String"), ("port", "Integer"),
             ("alive", "Boolean"), ("page_base", "Integer"),
             ("statements", "Integer")],
            self._shard_rows,
            "every shard worker: address, liveness, OID page range, "
            "statements routed to it",
        )
        self._mutex = threading.Lock()
        self._admin_links: dict[int, _ShardLink] = {}
        # One lock per admin link: federated SYS$ queries scatter from
        # arbitrary client threads, and interleaved frames on a shared
        # link would desynchronise its stream.
        self._admin_locks = [threading.Lock() for _ in self.backends]
        self._next_session = 1
        self._round_robin = 0
        self._tcp: _RouterTCPServer | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopped = False
        self._crashed = False
        #: Report of the in-doubt resolution run by the last start().
        self.last_recovery = {"redriven": 0, "swept": 0}
        # Established client sockets, severed on a simulated crash.
        self._conn_socks: set = set()
        self._conn_mutex = threading.Lock()
        # Installed last: re-registers the view database's SYS$ views as
        # federated cluster views and adds SYS$TXNS / SYS$SHARD_HEALTH.
        self.telemetry = ClusterTelemetry(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the shards (when owned), resolve leftover in-doubt
        transactions, then open the routing listener."""
        if self._tcp is not None:
            raise MoodError("router already started")
        for backend in self.backends:
            if backend.address is None:
                backend.start()
        self.last_recovery = self.recover()
        self._tcp = _RouterTCPServer(
            (self.config.host, self.config.port), _RouterHandler, self
        )
        self._accept_thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="mood-router-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._tcp is None:
            raise MoodError("router not started")
        host, port = self._tcp.server_address[:2]
        return host, port

    def stop(self) -> None:
        if self._tcp is not None and not self._stopped:
            self._stopped = True
            self._tcp.shutdown()
            self._tcp.server_close()
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=5)
        for link in self._admin_links.values():
            link.close()
        self._admin_links.clear()
        if self._owns_backends:
            for backend in self.backends:
                backend.stop()

    def simulate_crash(self) -> None:
        """Die without grace: every client connection and router->shard
        link is severed, the listener vanishes, and no rollback is sent.
        The shards keep running -- active branches die with their
        connections (each worker rolls them back), while prepared
        branches survive in doubt until :meth:`recover` on a restarted
        router resolves them."""
        if self._tcp is not None and not self._stopped:
            self._stopped = True
            self._crashed = True
            self._tcp.shutdown()
            self._tcp.server_close()
            with self._conn_mutex:
                socks = list(self._conn_socks)
            for sock in socks:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=5)
        for link in self._admin_links.values():
            link.close()
        self._admin_links.clear()

    def __enter__(self) -> "ShardedServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- coordinator recovery -------------------------------------------------

    def recover(self) -> dict:
        """Drain the decision log, then presumed-abort sweep the shards.

        Phase 1: every logged decision without a DONE is re-driven (the
        phase-2 verbs are idempotent, so re-driving an already-applied
        decision is harmless).  Phase 2: any gid a shard still holds in
        doubt with *no* logged decision never reached the commit point --
        presumed abort says roll it back.
        """
        redriven = 0
        swept = 0
        for decision in self.txlog.pending():
            verb = ("COMMIT_PREPARED" if decision.verdict == "COMMIT"
                    else "ROLLBACK_PREPARED")
            all_acked = True
            for shard in decision.shards:
                try:
                    self._admin_call(shard, {"op": verb, "gid": decision.gid})
                except ShardUnavailableError:
                    all_acked = False
            if all_acked:
                self.txlog.log_done(decision.gid)
                self._m_2pc_recovered.inc()
                self.events.emit(
                    "twopc.recovered",
                    gid=decision.gid, verdict=decision.verdict,
                    shards=len(decision.shards),
                )
                redriven += 1
        decided = {d.gid for d in self.txlog.pending()}
        for shard in range(self.shard_count):
            try:
                response = self._admin_call(shard, {"op": "IN_DOUBT"})
            except ShardUnavailableError:
                continue
            for gid in response.get("gids", []):
                if gid not in decided:
                    try:
                        self._admin_call(
                            shard,
                            {"op": "ROLLBACK_PREPARED", "gid": gid},
                        )
                        self.events.emit("twopc.swept", gid=gid, shard=shard)
                        swept += 1
                    except ShardUnavailableError:
                        pass
        return {"redriven": redriven, "swept": swept}

    def _admin_call(self, shard: int, request: dict) -> dict:
        """Router-initiated call outside any client session (recovery,
        liveness, telemetry scatter); reconnects once on a stale cached
        link.  Serialised per shard: concurrent federated queries must
        not interleave frames on the shared admin link."""
        with self._admin_locks[shard]:
            for attempt in (0, 1):
                link = self._admin_links.get(shard)
                if link is None:
                    address = self.backends[shard].address
                    if address is None:
                        raise ShardUnavailableError(f"shard {shard} is down")
                    link = _ShardLink(shard, address, self.config.link_timeout)
                    self._admin_links[shard] = link
                try:
                    return link.call(request)
                except ShardUnavailableError:
                    link.close()
                    self._admin_links.pop(shard, None)
                    if attempt == 1:
                        raise
        raise AssertionError("unreachable")

    # -- session plumbing -----------------------------------------------------

    def open_session(self) -> RouterSession:
        with self._mutex:
            session = RouterSession(self._next_session)
            self._next_session += 1
            self._sessions[session.session_id] = session
            return session

    def sessions(self) -> list[RouterSession]:
        with self._mutex:
            return sorted(self._sessions.values(),
                          key=lambda s: s.session_id)

    def _session_rows(self) -> list[dict]:
        """The router's own SYS$SESSIONS rows (shard = -1 in the
        federated view); a router session has no engine transaction of
        its own and is never queued by admission."""
        return [
            {
                "session_id": session.session_id,
                "state": "txn" if session.in_txn else "autocommit",
                "txn_id": -1,
                "statements": session.statements,
                "admitted": True,
                "last_trace_id": session.last_trace_id,
            }
            for session in self.sessions()
        ]

    def close_session(self, session: RouterSession) -> None:
        with self._mutex:
            self._sessions.pop(session.session_id, None)
        if session.in_txn:
            for shard in list(session.participants):
                try:
                    self._call_shard(session, shard, {"op": "ROLLBACK"})
                except (MoodError, ShardUnavailableError):
                    pass
            session.in_txn = False
            session.participants.clear()
        session.close_links()

    def _call_shard(self, session: RouterSession, shard: int,
                    request: dict) -> dict:
        """Send one frame over the session's link to ``shard``; a dead
        link is discarded so the next statement redials."""
        link = session.links.get(shard)
        if link is None:
            address = self.backends[shard].address
            if address is None:
                self._m_unavailable.inc()
                raise ShardUnavailableError(f"shard {shard} is down")
            link = _ShardLink(shard, address, self.config.link_timeout)
            session.links[shard] = link
        try:
            return link.call(request)
        except ShardUnavailableError:
            self._m_unavailable.inc()
            link.close()
            session.links.pop(shard, None)
            raise

    def _call_shard_raw(self, session: RouterSession, shard: int,
                        payload: bytes) -> bytes:
        """Byte-for-byte relay over the session's link to ``shard``
        (response included -- errors pass through verbatim anyway)."""
        link = session.links.get(shard)
        if link is None:
            address = self.backends[shard].address
            if address is None:
                self._m_unavailable.inc()
                raise ShardUnavailableError(f"shard {shard} is down")
            link = _ShardLink(shard, address, self.config.link_timeout)
            session.links[shard] = link
        try:
            return link.call_raw(payload)
        except ShardUnavailableError:
            self._m_unavailable.inc()
            link.close()
            session.links.pop(shard, None)
            raise

    def _call_checked(self, session: RouterSession, shard: int,
                      request: dict) -> dict:
        """Like :meth:`_call_shard` but a shard-side error response is
        raised locally as :class:`_ShardErrorResponse` (carrying the
        verbatim error payload)."""
        response = self._call_shard(session, shard, request)
        if not response.get("ok", False):
            raise _ShardErrorResponse(response)
        return response

    # -- request dispatch -----------------------------------------------------

    def handle_request(self, session: RouterSession, request: dict,
                       raw: bytes | None = None):
        """Route one decoded request; ``raw`` is its wire payload, which
        single-shard fast paths relay untouched (the return value is then
        the shard's response bytes rather than a dict)."""
        op = request.get("op")
        if op not in REQUEST_OPS:
            return error_response(describe_error(
                ProtocolError(f"unknown op {op!r}")
            ))
        if op not in _STATEMENT_OPS:
            try:
                return self._dispatch(session, op, request, raw)
            except _ShardErrorResponse as exc:
                return exc.response
            except MoodError as exc:
                return error_response(describe_error(exc))
        started = time.monotonic()
        session.pending_spans = []
        try:
            response = self._dispatch(session, op, request, raw)
        except _ShardErrorResponse as exc:
            response = exc.response
        except MoodError as exc:
            response = error_response(describe_error(exc))
        self._account_statement(session, op, request, response, started)
        return response

    def _account_statement(self, session: RouterSession, op: str,
                           request: dict, response, started: float) -> None:
        """Count and (when tracing) trace one routed statement.

        Every statement-shaped request lands here whatever its outcome,
        so failures the *router* produces -- a scatter-gather partial
        failure, SHARD_UNAVAILABLE, a routing rejection -- now count in
        ``server.statements_failed`` / ``server.errors.<CODE>`` exactly
        like a worker-side failure (they previously vanished: the router
        kept no statement counters at all)."""
        total_ms = (time.monotonic() - started) * 1e3
        code = _response_error_code(response)
        self._m_statements.inc()
        session.statements += 1
        if code is not None:
            self._m_statements_failed.inc()
            self.metrics.counter(f"server.errors.{code}").inc()
        self._m_statement_ms.observe(total_ms)
        trace_id = request.get("trace")
        if not isinstance(trace_id, str) or not trace_id:
            trace_id = server_trace_id()
        session.last_trace_id = trace_id
        if not self.config.tracing:
            session.pending_spans = []
            return
        statement = request.get("sql") or request.get("name") or op
        trace = StatementTrace(
            trace_id=trace_id,
            session_id=session.session_id,
            statement=truncate_statement(str(statement)),
            kind=op,
            status=code if code is not None else "OK",
            started_at=time.time() - total_ms / 1e3,
            total_ms=total_ms,
            spans=list(session.pending_spans),
        )
        session.pending_spans = []
        self.statement_log.record(trace)
        self.slow_log.consider(trace)

    def _dispatch(self, session: RouterSession, op: str, request: dict,
                  raw: bytes | None = None):
        if op == "PING":
            return ok_response({"pong": True, "shards": self.shard_count})
        if op == "STATS":
            return ok_response({"stats": self._stats(session)})
        if op == "METRICS":
            from repro.obs.promtext import render_cluster_prometheus

            # The merged cluster exposition: router samples unlabelled,
            # worker samples labelled shard="<i>", histogram families
            # additionally merged into shard="cluster" quantiles.
            return ok_response({"metrics": render_cluster_prometheus(
                self.metrics, self.telemetry.shard_metrics()
            )})
        if op == "TELEMETRY":
            return self._telemetry_op(request)
        if op == "RECLUSTER":
            return self._recluster_op(request)
        if op in ("PREPARE_TXN", "COMMIT_PREPARED", "ROLLBACK_PREPARED",
                  "IN_DOUBT"):
            raise ProtocolError(
                f"{op} is a router-to-shard operation, not a client one"
            )
        if op == "BEGIN":
            if session.in_txn:
                raise TransactionError(
                    f"session {session.session_id} already has an open "
                    "transaction"
                )
            session.in_txn = True
            session.participants = set()
            session.txn_trace = _optional_trace(request)
            return _synth_statement("BEGIN", "distributed transaction")
        if op == "COMMIT":
            return self._commit(session, _optional_trace(request))
        if op == "ROLLBACK":
            return self._rollback(session, _optional_trace(request))
        if op == "PREPARE":
            name = request.get("name")
            sql = request.get("sql")
            if not isinstance(name, str) or not name:
                raise ProtocolError("PREPARE needs a non-empty 'name'")
            if not isinstance(sql, str):
                raise ProtocolError("PREPARE needs a string 'sql' field")
            # Reject malformed SQL now and keep the first statement's
            # parse for per-execution routing.
            session.prepared_first[name] = parse_script(sql)[0]
            session.prepared_sql[name] = sql
            session.prepared_on[name] = set()
            return _synth_statement("PREPARE", f"prepared {name}")
        if op == "DEALLOCATE":
            name = request.get("name")
            if name not in session.prepared_sql:
                raise UnknownPreparedStatementError(
                    f"no prepared statement {name!r}"
                )
            for shard in session.prepared_on.pop(name, set()):
                try:
                    self._call_shard(
                        session, shard, {"op": "DEALLOCATE", "name": name}
                    )
                except ShardUnavailableError:
                    pass  # its session state died with it
            del session.prepared_sql[name]
            session.prepared_first.pop(name, None)
            return _synth_statement("DEALLOCATE", f"deallocated {name}")
        if op == "EXECUTE_PREPARED":
            return self._execute_prepared(session, request, raw)
        # EXECUTE / QUERY / EXPLAIN
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError(f"{op} needs a string 'sql' field")
        if op == "EXPLAIN" and not sql.lstrip().upper().startswith("EXPLAIN"):
            sql = "EXPLAIN " + sql
        return self._execute_sql(session, op, sql, request, raw)

    def _telemetry_op(self, request: dict) -> dict:
        """The router's own TELEMETRY surface.  Without a view: its
        counters plus mergeable histogram dumps (same shape a worker
        ships).  With one: the *federated* view's rows -- what a scraper
        gets here is already cluster-wide."""
        view = request.get("view")
        if view is None:
            return ok_response({
                "counters": self.metrics.counters(),
                "histograms": self.metrics.histogram_dumps(),
            })
        if not isinstance(view, str):
            raise ProtocolError("TELEMETRY 'view' must be a string")
        self._refresh_liveness()
        views = self._viewdb.kernel.system_views
        rows = views.rows(view) if views.has(view) else []
        return ok_response({"rows": [encode_value(row) for row in rows]})

    def _recluster_op(self, request: dict) -> dict:
        """Broadcast a dynamic-clustering command: every shard runs its
        own reclusterer over its own co-access graph (objects never move
        *between* shards here -- placement is a per-store concern).  A
        ``shard`` hint narrows the command to one worker.  Per-shard
        answers come back keyed by shard; a dead shard reports an
        ``error`` entry rather than failing the whole command."""
        hint = self._hint_shard(request)
        shards = ([hint] if hint is not None
                  else list(range(self.shard_count)))
        forward = {"op": "RECLUSTER"}
        for key in ("action", "interval"):
            if key in request:
                forward[key] = request[key]
        results: dict[str, dict] = {}
        for shard in shards:
            try:
                response = self._admin_call(shard, forward)
            except ShardUnavailableError as exc:
                results[str(shard)] = {"ok": False, "error": str(exc)}
                continue
            results[str(shard)] = response
        return ok_response({"shards": results})

    # -- statement routing ----------------------------------------------------

    def _hint_shard(self, request: dict) -> int | None:
        """Resolve a request's routing hint to a shard index, if any."""
        if "shard" in request and request["shard"] is not None:
            shard = request["shard"]
            if not isinstance(shard, int) or not 0 <= shard < self.shard_count:
                raise ProtocolError(
                    f"'shard' must be an integer in 0..{self.shard_count - 1}"
                )
            return shard
        if "shard_key" in request and request["shard_key"] is not None:
            return shard_of_key(request["shard_key"], self.shard_count)
        return None

    def _route(self, statement, hint: int | None):
        """Classify one parsed statement: ``("shard", i)``, ``("broadcast",)``,
        ``("scatter",)``, ``("write_all",)`` or ``("sys",)``."""
        if isinstance(statement, _BROADCAST_STATEMENTS):
            return ("broadcast",)
        if isinstance(statement, SelectQuery):
            sys_views = {r.class_name.upper() for r in statement.ranges
                         if r.class_name.upper().startswith("SYS$")}
            if sys_views:
                # A hinted SYS$ query drills into that one shard's local
                # view (no shard column); unhinted -- or naming a view
                # only the router can answer -- it runs against the
                # router's federated views, whose suppliers scatter the
                # TELEMETRY verb themselves.
                if hint is not None and not (sys_views & ROUTER_ONLY_VIEWS):
                    return ("shard", hint)
                return ("sys",)
            if hint is not None:
                return ("shard", hint)
            return ("scatter",)
        if isinstance(statement, ExplainStmt):
            if hint is not None:
                return ("shard", hint)
            return ("scatter",)
        if isinstance(statement, NewObject):
            if hint is not None:
                return ("shard", hint)
            with self._mutex:
                shard = self._round_robin % self.shard_count
                self._round_robin += 1
            return ("shard", shard)
        if isinstance(statement, (UpdateStmt, DeleteStmt)):
            if hint is not None:
                return ("shard", hint)
            return ("write_all",)
        # PREPARE/EXECUTE/DEALLOCATE inside SQL text, ANALYZE handled above;
        # anything else is session-scoped enough to pin to one shard.
        if hint is not None:
            return ("shard", hint)
        return ("broadcast",)

    def _execute_sql(self, session: RouterSession, op: str, sql: str,
                     request: dict, raw: bytes | None = None):
        hint = self._hint_shard(request)
        if hint is not None and not _may_need_fanout(sql):
            # Hinted hot path: every statement kind left after the
            # textual screen routes to the hinted shard, so skip the
            # router-side parse entirely and relay the frame verbatim --
            # byte-for-byte when the wire payload needs no rewriting.
            if raw is not None and sql is request.get("sql"):
                return self._forward_raw(session, hint, raw)
            return self._forward(session, hint, dict(request, sql=sql))
        statements = parse_script(sql)
        routes = [self._route(stmt, hint) for stmt in statements]
        single = {r[1] for r in routes if r[0] == "shard"}
        if len(single) == 1 and all(r[0] == "shard" for r in routes):
            # Fast path: the whole script lives on one shard -- relay the
            # frame verbatim (hints and trace ids ride along; workers
            # ignore fields they don't know).
            (shard,) = single
            return self._forward(session, shard, dict(request, sql=sql))
        texts = _split_script(sql, len(statements))
        results = []
        trace = request.get("trace")
        for text, statement, route in zip(texts, statements, routes):
            frame = {"op": "EXECUTE", "sql": text}
            if trace is not None:
                frame["trace"] = trace
            if route[0] == "shard":
                response = self._forward(session, route[1], frame)
                results.extend(response.get("results", []))
            elif route[0] == "sys":
                self._refresh_liveness()
                result = self._viewdb.execute(text)
                results.append(_encode_result(result))
            elif route[0] == "scatter":
                results.append(
                    self._scatter_query(session, frame, statement)
                )
            elif route[0] == "broadcast":
                results.append(self._broadcast(session, frame))
            elif route[0] == "write_all":
                results.append(self._broadcast_write(session, frame))
        return ok_response({"results": results, "trace": trace})

    def _forward(self, session: RouterSession, shard: int,
                 frame: dict) -> dict:
        """Single-shard relay, opening the shard's transaction branch
        first when the session is inside a distributed transaction."""
        self._ensure_participant(session, shard)
        response = self._call_checked(session, shard, frame)
        self._m_forwarded.inc()
        with self._mutex:
            self._per_shard_statements[shard] += 1
        return response

    def _forward_raw(self, session: RouterSession, shard: int,
                     payload: bytes) -> bytes:
        """Single-shard relay of the client's wire bytes."""
        self._ensure_participant(session, shard)
        response = self._call_shard_raw(session, shard, payload)
        self._m_forwarded.inc()
        self._m_raw_relays.inc()
        with self._mutex:
            self._per_shard_statements[shard] += 1
        return response

    def _ensure_participant(self, session: RouterSession, shard: int) -> None:
        if session.in_txn and shard not in session.participants:
            self._call_checked(session, shard, {"op": "BEGIN"})
            session.participants.add(shard)

    def _scatter_query(self, session: RouterSession, frame: dict,
                       statement) -> dict:
        """Run the query on every shard and merge: rows concatenate, and
        an ORDER BY whose keys appear in the output columns is re-applied
        to the merged set (other orderings stay per-shard)."""
        self._m_scatter.inc()
        merged: dict | None = None
        reports = []
        for shard in range(self.shard_count):
            self._ensure_participant(session, shard)
            response = self._call_checked(session, shard, frame)
            with self._mutex:
                self._per_shard_statements[shard] += 1
            for result in response.get("results", []):
                if result.get("type") == "explain":
                    reports.append(
                        f"-- shard {shard} --\n{result.get('report', '')}"
                    )
                if merged is None:
                    merged = dict(result)
                    merged["rows"] = list(result.get("rows", []))
                else:
                    merged["rows"].extend(result.get("rows", []))
        if merged is None:
            raise ShardUnavailableError("no shard answered the query")
        if reports:
            merged["report"] = "\n".join(reports)
        order_by = getattr(statement, "order_by", ())
        if isinstance(statement, ExplainStmt):
            order_by = statement.query.order_by
        self._merge_order(merged, order_by)
        return merged

    @staticmethod
    def _merge_order(merged: dict, order_by) -> None:
        columns = merged.get("columns", [])
        if not order_by or not columns:
            return
        indexes = []
        for item in order_by:
            name = str(item.expr)
            if name not in columns:
                return  # key not in the output; keep per-shard order
            indexes.append((columns.index(name), item.ascending))
        rows = merged.get("rows", [])
        try:
            for index, ascending in reversed(indexes):
                rows.sort(key=lambda row: row[index], reverse=not ascending)
        except TypeError:
            pass  # mixed/unorderable encoded values; keep per-shard order

    def _broadcast(self, session: RouterSession, frame: dict) -> dict:
        """DDL/ANALYZE on every shard (every shard holds the schema).
        Workers bump their own schema versions, which stamps their plan
        caches cold -- the cross-shard plan-invalidation path."""
        self._m_broadcasts.inc()
        first: dict | None = None
        for shard in range(self.shard_count):
            self._ensure_participant(session, shard)
            response = self._call_checked(session, shard, frame)
            with self._mutex:
                self._per_shard_statements[shard] += 1
            if first is None:
                results = response.get("results", [])
                first = results[0] if results else _synth_result("BROADCAST")
        return first

    def _broadcast_write(self, session: RouterSession, frame: dict) -> dict:
        """An unhinted write touches every shard.  Inside an explicit
        transaction the branches simply join it (2PC finishes the job at
        COMMIT); in autocommit the router wraps the broadcast in an
        internal distributed transaction so the write stays atomic."""
        self._m_broadcasts.inc()
        if session.in_txn:
            count = 0
            first = None
            for shard in range(self.shard_count):
                self._ensure_participant(session, shard)
                response = self._call_checked(session, shard, frame)
                with self._mutex:
                    self._per_shard_statements[shard] += 1
                results = response.get("results", [])
                if results:
                    count += results[0].get("count") or 0
                    first = first or results[0]
            merged = dict(first or _synth_result("WRITE"))
            merged["count"] = count
            return merged
        session.in_txn = True
        session.participants = set()
        try:
            merged = self._broadcast_write(session, frame)
        except Exception:
            self._rollback(session, frame.get("trace"))
            raise
        self._commit(session, frame.get("trace"))
        return merged

    def _execute_prepared(self, session: RouterSession, request: dict,
                          raw: bytes | None = None):
        name = request.get("name")
        if name not in session.prepared_sql:
            raise UnknownPreparedStatementError(
                f"no prepared statement {name!r}"
            )
        sql = session.prepared_sql[name]
        hint = self._hint_shard(request)
        route = self._route(session.prepared_first[name], hint)
        if (raw is not None and route[0] == "shard"
                and route[1] in session.prepared_on[name]):
            # Already propagated to the target shard: relay the client's
            # bytes straight through.
            return self._forward_raw(session, route[1], raw)
        frame = {
            "op": "EXECUTE_PREPARED", "name": name,
            "params": request.get("params", []),
        }
        if request.get("trace") is not None:
            frame["trace"] = request["trace"]
        if route[0] == "sys":
            raise ProtocolError(
                "EXECUTE_PREPARED cannot target SYS$SHARDS"
            )
        shards = [route[1]] if route[0] == "shard" \
            else range(self.shard_count)
        for shard in shards:
            if shard not in session.prepared_on[name]:
                self._call_checked(
                    session, shard,
                    {"op": "PREPARE", "name": name, "sql": sql},
                )
                session.prepared_on[name].add(shard)
        # From here on a prepared statement fans out exactly as its ad
        # hoc text would: same merge, same 2PC wrapping, same counters.
        if route[0] == "shard":
            return self._forward(session, route[1], frame)
        if route[0] == "scatter":
            result = self._scatter_query(
                session, frame, session.prepared_first[name])
        elif route[0] == "write_all":
            result = self._broadcast_write(session, frame)
        else:
            result = self._broadcast(session, frame)
        return ok_response({
            "results": [result], "trace": request.get("trace"),
        })

    # -- distributed commit ---------------------------------------------------

    def _rollback(self, session: RouterSession,
                  trace: str | None = None) -> dict:
        if not session.in_txn:
            raise TransactionError("no open transaction to roll back")
        session.in_txn = False
        session.txn_trace = None
        participants, session.participants = session.participants, set()
        frame = {"op": "ROLLBACK"}
        if trace is not None:
            frame["trace"] = trace
        failed = 0
        for shard in sorted(participants):
            try:
                self._call_shard(session, shard, frame)
            except (ShardUnavailableError, _ShardErrorResponse):
                failed += 1  # its branch dies with its session anyway
        return _synth_statement(
            "ROLLBACK",
            f"distributed rollback across {len(participants)} shard(s)",
        )

    def _commit(self, session: RouterSession,
                trace: str | None = None) -> dict:
        if not session.in_txn:
            raise TransactionError("no open transaction to commit")
        session.in_txn = False
        if trace is None:
            trace = session.txn_trace
        session.txn_trace = None
        participants = sorted(session.participants)
        session.participants = set()
        if not participants:
            return _synth_statement("COMMIT", "empty distributed transaction")
        if len(participants) == 1:
            # Single-shard transaction: an ordinary one-phase commit.
            frame = {"op": "COMMIT"}
            if trace is not None:
                frame["trace"] = trace
            return self._call_checked(session, participants[0], frame)
        return self._commit_two_phase(session, participants, trace)

    def _commit_two_phase(self, session: RouterSession,
                          participants: list[int],
                          trace: str | None = None) -> dict:
        """Presumed-abort 2PC, now fully observable: the transaction's
        trace id rides every PREPARE_TXN / phase-2 frame (each worker
        records its branch under the same trace), every lifecycle point
        lands in the ``twopc.*`` journal events and latency histograms,
        and the whole protocol leaves a span tree on the COMMIT trace."""
        gid = f"rtx-{uuid.uuid4().hex}"
        commit_started = time.monotonic()
        spans: list[Span] = []
        prepared: list[int] = []
        prepare_frame = {"op": "PREPARE_TXN", "gid": gid}
        if trace is not None:
            prepare_frame["trace"] = trace
        for shard in participants:
            vote_started = time.monotonic()
            try:
                self._call_checked(session, shard, prepare_frame)
            except _ShardErrorResponse as exc:
                # The shard said no (its branch was victimised, timed
                # out, ...): abort everywhere, pass its verdict through.
                self._twopc_mark("prepare", gid, vote_started, spans, trace,
                                 shard=shard, vote="no")
                self._resolve_abort(session, gid, prepared, participants,
                                    voted_no=shard, trace=trace, spans=spans)
                self._twopc_finish(session, gid, commit_started, spans,
                                   trace, verdict="ABORT",
                                   shards=len(participants))
                return exc.response
            except ShardUnavailableError:
                # The shard vanished mid-prepare: we cannot know whether
                # its vote hit the log, so log an ABORT decision for the
                # whole gid -- recovery (or the sweep when the shard
                # returns) resolves its branch by presumed abort.
                self._twopc_mark("prepare", gid, vote_started, spans, trace,
                                 shard=shard, vote="unavailable")
                self._m_2pc_in_doubt.inc()
                decision_started = time.monotonic()
                self.txlog.log_decision(gid, "ABORT", participants)
                self._twopc_mark("decision", gid, decision_started, spans,
                                 trace, verdict="ABORT")
                if self._resolve_abort(session, gid, prepared, participants,
                                       voted_no=None, trace=trace,
                                       spans=spans):
                    self.txlog.log_done(gid)
                self._twopc_finish(session, gid, commit_started, spans,
                                   trace, verdict="ABORT",
                                   shards=len(participants))
                raise TransactionInDoubtError(
                    f"shard {shard} vanished during prepare of {gid}; "
                    "presumed abort"
                ) from None
            prepared.append(shard)
            self._twopc_mark("prepare", gid, vote_started, spans, trace,
                             shard=shard, vote="yes")
        self._failpoint("before_decision")
        decision_started = time.monotonic()
        self.txlog.log_decision(gid, "COMMIT", participants)
        self._twopc_mark("decision", gid, decision_started, spans, trace,
                         verdict="COMMIT")
        self._m_2pc_commits.inc()
        self._failpoint("after_decision")
        all_acked = True
        commit_frame = {"op": "COMMIT_PREPARED", "gid": gid}
        if trace is not None:
            commit_frame["trace"] = trace
        for shard in participants:
            phase2_started = time.monotonic()
            try:
                self._call_shard(session, shard, commit_frame)
                self._twopc_mark("phase2", gid, phase2_started, spans, trace,
                                 shard=shard, verb="COMMIT_PREPARED",
                                 acked=True)
            except ShardUnavailableError:
                all_acked = False  # recovery re-drives from the txlog
                self._twopc_mark("phase2", gid, phase2_started, spans, trace,
                                 shard=shard, verb="COMMIT_PREPARED",
                                 acked=False)
        if all_acked:
            self.txlog.log_done(gid)
        self._twopc_finish(session, gid, commit_started, spans, trace,
                           verdict="COMMIT", shards=len(participants))
        return _synth_statement(
            "COMMIT",
            f"two-phase commit {gid} across {len(participants)} shards",
        )

    def _resolve_abort(self, session: RouterSession, gid: str,
                       prepared: list[int], participants: list[int],
                       voted_no: int | None,
                       trace: str | None = None,
                       spans: list | None = None) -> bool:
        """Best-effort immediate abort of every branch after a failed
        prepare round; unreachable branches are covered by presumed
        abort.  Returns whether every branch acknowledged."""
        self._m_2pc_aborts.inc()
        all_acked = True
        for shard in participants:
            if shard == voted_no:
                continue  # its branch already rolled back with the error
            if shard in prepared:
                frame = {"op": "ROLLBACK_PREPARED", "gid": gid}
            else:
                frame = {"op": "ROLLBACK"}
            if trace is not None:
                frame["trace"] = trace
            phase2_started = time.monotonic()
            try:
                self._call_shard(session, shard, frame)
                acked = True
            except (ShardUnavailableError, _ShardErrorResponse):
                all_acked = False
                acked = False
            if spans is not None:
                self._twopc_mark("phase2", gid, phase2_started, spans,
                                 trace, shard=shard, verb=frame["op"],
                                 acked=acked)
        return all_acked

    def _twopc_mark(self, phase: str, gid: str, started: float,
                    spans: list, trace: str | None, **fields) -> None:
        """One 2PC lifecycle point: observe its latency histogram and --
        when tracing -- journal a ``twopc.<phase>`` event and open a span
        in the commit's span tree."""
        ms = (time.monotonic() - started) * 1e3
        self._m_twopc_ms[phase].observe(ms)
        if not self.config.tracing:
            return
        event_fields = dict(fields)
        if trace is not None:
            event_fields["trace_id"] = trace
        self.events.emit(f"twopc.{phase}", gid=gid, ms=round(ms, 3),
                         **event_fields)
        detail = " ".join(
            [gid] + [f"{k}={v}" for k, v in sorted(fields.items())]
        )
        spans.append(Span(operator=f"2PC:{phase.upper()}", detail=detail,
                          wall_ms=ms, trace_id=trace))

    def _twopc_finish(self, session: RouterSession, gid: str,
                      started: float, spans: list, trace: str | None,
                      **fields) -> None:
        """Close the protocol: total latency, terminal event, and the
        assembled span tree handed to the COMMIT statement's trace."""
        self._twopc_mark("total", gid, started, spans, trace, **fields)
        if not self.config.tracing or not spans:
            return
        total_ms = (time.monotonic() - started) * 1e3
        root = Span(operator="2PC", detail=gid, wall_ms=total_ms,
                    children=list(spans), trace_id=trace)
        session.pending_spans.append(root)

    def _failpoint(self, name: str) -> None:
        hook = self.failpoints.get(name)
        if hook is not None:
            hook()

    # -- observability --------------------------------------------------------

    def _refresh_liveness(self) -> None:
        for backend in self.backends:
            _ = backend.alive  # ProcessShard.alive polls the process

    def _shard_rows(self) -> list[dict]:
        rows = []
        with self._mutex:
            counts = list(self._per_shard_statements)
        for i, backend in enumerate(self.backends):
            address = backend.address or ("", 0)
            rows.append({
                "shard": i,
                "host": address[0],
                "port": address[1],
                "alive": bool(backend.alive),
                "page_base": i * SHARD_PAGE_SPAN,
                "statements": counts[i],
            })
        return rows

    def _stats(self, session: RouterSession) -> dict:
        """Session + cluster snapshot.  The satellite fix: per-shard
        latency distributions now federate into this payload -- every
        histogram family any shard reports, bucket-merged cluster-wide
        under ``histograms``, plus per-shard summaries of the headline
        families under ``per_shard``."""
        per_shard = self.telemetry.shard_metrics()
        families: dict[str, list[dict]] = {}
        for _, dumps in per_shard.values():
            for name, dump in dumps.items():
                families.setdefault(name, []).append(dump)
        histograms = {}
        for name, dumps in sorted(families.items()):
            combined = merge_histogram_dumps(dumps)
            if combined is not None:
                histograms[name] = summarize_dump(combined)
        return {
            "session_id": session.session_id,
            "in_transaction": session.in_txn,
            "participants": sorted(session.participants),
            "shards": self._shard_rows(),
            "pending_decisions": len(self.txlog.pending()),
            "metrics": {
                name: value
                for name, value in self.metrics.snapshot().items()
                if name.startswith(("shard.", "server.", "twopc.",
                                    "cluster.", "shard_health."))
            },
            "histograms": histograms,
            "per_shard": {
                str(shard): {
                    name: summarize_dump(dump)
                    for name, dump in dumps.items()
                    if name in STATS_HISTOGRAMS
                }
                for shard, (_, dumps) in sorted(per_shard.items())
            },
        }


class _ShardErrorResponse(Exception):
    """A shard answered with an error frame; carry it through verbatim."""

    def __init__(self, response: dict):
        super().__init__(response.get("error", {}).get("message", "error"))
        self.response = response


#: Keywords whose presence means a hinted script may still need fan-out
#: (DDL/ANALYZE broadcast, SYS$ views served locally or federated).  A
#: false positive (say, the word inside a string literal) only costs the
#: parse.
_FANOUT_WORDS = ("CREATE", "ALTER", "DROP", "ANALYZE", "SYS$")


def _may_need_fanout(sql: str) -> bool:
    upper = sql.upper()
    return any(word in upper for word in _FANOUT_WORDS)


#: Client ops counted (and traced) as statements by the router;
#: PING/STATS/METRICS/TELEMETRY are observability plumbing, not load.
_STATEMENT_OPS = frozenset({
    "EXECUTE", "QUERY", "EXPLAIN", "EXECUTE_PREPARED",
    "BEGIN", "COMMIT", "ROLLBACK", "PREPARE", "DEALLOCATE",
})


def _optional_trace(request: dict) -> str | None:
    trace = request.get("trace")
    return trace if isinstance(trace, str) and trace else None


def _response_error_code(response) -> str | None:
    """The stable error code of a failed response (None on success).

    Raw relayed bytes are only JSON-decoded when the cheap prefix test
    says the shard reported a failure: frames serialize with compact
    separators and ``ok`` first, so every success frame starts
    ``b'{"ok":true'`` -- the fast path stays a pure byte relay."""
    if isinstance(response, bytes):
        if not response.startswith(b'{"ok":false'):
            return None
        try:
            response = decode_frame(response)
        except ProtocolError:
            return "PROTOCOL"
    if response.get("ok", False):
        return None
    return (response.get("error") or {}).get("code", "MOOD")


def _synth_result(kind: str, detail: str = "", count=None) -> dict:
    return {"type": "statement", "kind": kind, "detail": detail,
            "count": count, "code": None, "object": None}


def _synth_statement(kind: str, detail: str) -> dict:
    return ok_response({"results": [_synth_result(kind, detail)]})


def _split_script(sql: str, expected: int) -> list[str]:
    """Split a ';'-separated script into statement texts (quote-aware).
    The router needs per-statement texts to route a mixed script; when
    the split disagrees with the parser's statement count the script is
    rejected rather than misrouted."""
    parts: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in sql:
        if ch == "'":
            in_string = not in_string
            current.append(ch)
        elif ch == ";" and not in_string:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    texts = [part.strip() for part in parts if part.strip()]
    if len(texts) != expected:
        raise ProtocolError(
            "cannot split this script for cross-shard routing; "
            "run its statements separately or add a shard hint"
        )
    return texts


# --------------------------------------------------------------------------
# socketserver plumbing
# --------------------------------------------------------------------------

class _RouterTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, router: ShardedServer):
        self.router = router
        super().__init__(address, handler)


class _RouterHandler(socketserver.BaseRequestHandler):
    """One thread per client connection: a RouterSession + frame loop."""

    def handle(self) -> None:
        router: ShardedServer = self.server.router
        session = router.open_session()
        with router._conn_mutex:
            router._conn_socks.add(self.request)
        try:
            while True:
                try:
                    payload = recv_frame_bytes(self.request)
                    request = (decode_frame(payload)
                               if payload is not None else None)
                except ProtocolError as exc:
                    send_frame(
                        self.request, error_response(describe_error(exc))
                    )
                    return
                if request is None or request.get("op") == "CLOSE":
                    if request is not None:
                        send_frame(self.request, ok_response({"bye": True}))
                    return
                response = router.handle_request(session, request, payload)
                if isinstance(response, bytes):
                    send_frame_bytes(self.request, response)
                else:
                    send_frame(self.request, response)
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        finally:
            with router._conn_mutex:
                router._conn_socks.discard(self.request)
            if router._crashed:
                # A crashed coordinator sends no rollbacks; its shard
                # links just die (workers abort the active branches).
                session.close_links()
            else:
                router.close_session(session)
