"""The sharded deployment's routing front end: statement routing, hints,
scatter-gather, DDL broadcast, SYS$SHARDS, error passthrough and the
client retry loop -- all over real TCP against in-process shards."""

from __future__ import annotations

import zlib

import pytest

from repro.core.errors import ProtocolError
from repro.server import (
    MoodClient,
    MoodServerError,
    RouterConfig,
    ShardedServer,
    shard_of_key,
)
from repro.server.worker import LocalShard
from repro.storage.oid import SHARD_PAGE_SPAN, shard_of_oid, shard_page_base


def _router(shards: int = 2, options: dict | None = None):
    backends = [LocalShard(i, shards, options or {}) for i in range(shards)]
    router = ShardedServer(
        RouterConfig(host="127.0.0.1", port=0, shards=shards,
                     backend="local"),
        backends=backends,
    )
    router.start()
    return router, backends


@pytest.fixture()
def sharded():
    """Two shards serving the Item class, ids 0..7 placed by id % 2."""
    router, backends = _router(2)
    host, port = router.address
    with MoodClient(host, port) as client:
        client.execute(
            "CREATE CLASS Item TUPLE (id Integer, val Integer)"
        )
        for i in range(8):
            client.execute(f"new Item <{i}, {i * 10}>", shard_key=i)
    yield router, backends, host, port
    router.stop()


# -- key and OID partitioning -------------------------------------------------

def test_shard_of_key_int_is_modulo():
    assert [shard_of_key(i, 4) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_shard_of_key_hashes_non_ints():
    for key in ("alpha", "beta", 3.5, None):
        expected = zlib.crc32(str(key).encode("utf-8")) % 4
        assert shard_of_key(key, 4) == expected


def test_shard_of_oid_follows_page_ranges():
    assert shard_page_base(3) == 3 * SHARD_PAGE_SPAN
    assert shard_of_oid(f"0.{2 * SHARD_PAGE_SPAN + 5}.0", 4) == 2


# -- routing ------------------------------------------------------------------

def test_ddl_broadcast_and_hinted_placement(sharded):
    _, backends, host, port = sharded
    # The CREATE CLASS reached every shard: each holds its own slice.
    for index, backend in enumerate(backends):
        local = backend.db.query("SELECT i.id FROM Item i").rows
        assert sorted(r[0] % 2 for r in local) == [index] * 4


def test_scatter_select_merges_all_shards(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query("SELECT i.id, i.val FROM Item i").rows
    assert sorted(rows) == [(i, i * 10) for i in range(8)]


def test_scatter_reapplies_order_by(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query(
            "SELECT i.id FROM Item i ORDER BY i.id DESC"
        ).scalars()
    assert rows == list(range(7, -1, -1))


def test_hinted_query_stays_on_one_shard(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query("SELECT i.id FROM Item i", shard_key=3).scalars()
        assert sorted(rows) == [1, 3, 5, 7]
        rows = client.query("SELECT i.id FROM Item i", shard=0).scalars()
        assert sorted(rows) == [0, 2, 4, 6]
    assert router.metrics.snapshot().get("shard.forwarded", 0) > 0


def test_multi_statement_script_fast_path(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        results = client.execute(
            "UPDATE Item i SET val = 999 WHERE i.id = 2; "
            "SELECT i.val FROM Item i WHERE i.id = 2",
            shard_key=2,
        )
    assert len(results) == 2
    assert results[1].rows == [(999,)]


def test_unhinted_write_broadcasts_and_merges_count(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        outcome = client.execute("UPDATE Item i SET val = 1")[0]
        assert outcome.count == 8  # summed across both shards
        rows = client.query("SELECT i.val FROM Item i").scalars()
    assert rows == [1] * 8


def test_unhinted_new_round_robins(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Gadget TUPLE (name String)")
        client.execute("new Gadget <'g0'>")
        client.execute("new Gadget <'g1'>")
        names = client.query("SELECT g.name FROM Gadget g").rows
        per_shard = [
            client.query("SELECT g.name FROM Gadget g", shard=i).rows
            for i in range(2)
        ]
    assert sorted(n for (n,) in names) == ["g0", "g1"]
    assert sorted(len(rows) for rows in per_shard) == [1, 1]


def test_sys_shards_view(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query(
            "SELECT s.shard, s.alive, s.page_base FROM SYS$SHARDS s "
            "ORDER BY s.shard"
        ).rows
    assert [(r[0], bool(r[1])) for r in rows] == [(0, True), (1, True)]
    assert [r[2] for r in rows] == [0, SHARD_PAGE_SPAN]


def test_stats_reports_shards_and_metrics(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.query("SELECT i.id FROM Item i")
        stats = client.stats()
    assert len(stats["shards"]) == 2
    assert all(s["alive"] for s in stats["shards"])
    assert stats["pending_decisions"] == 0
    assert stats["metrics"]["shard.scatter_queries"] >= 1


def test_prepared_statements_propagate_lazily(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.prepare("by_id", "SELECT i.val FROM Item i WHERE i.id = ?")
        assert client.execute_prepared(
            "by_id", [3], shard_key=3).rows == [(30,)]
        assert client.execute_prepared(
            "by_id", [4], shard_key=4).rows == [(40,)]
        # Same name, repeat execution: the raw-relay path after the
        # handle exists on the target shard.
        assert client.execute_prepared(
            "by_id", [3], shard_key=3).rows == [(30,)]
        client.deallocate("by_id")
        with pytest.raises(MoodServerError) as excinfo:
            client.execute_prepared("missing", [1], shard_key=1)
    assert excinfo.value.code == "UNKNOWN_PREPARED"


def test_prepared_scatter_merges_order_by_like_ad_hoc(sharded):
    router, _, host, port = sharded
    sql = "SELECT i.id FROM Item i ORDER BY i.id"
    before = router.metrics.snapshot().get("shard.scatter_queries", 0)
    with MoodClient(host, port) as client:
        ad_hoc = client.query(sql).scalars()
        client.prepare("ordered", sql)
        prepared = client.execute_prepared("ordered", []).scalars()
    assert prepared == ad_hoc == list(range(8))
    # Both scatters are counted, the prepared one included.
    after = router.metrics.snapshot()["shard.scatter_queries"]
    assert after - before == 2


def test_prepared_unhinted_write_merges_count(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.prepare("bump", "UPDATE Item i SET val = i.val + ?")
        outcome = client.execute_prepared("bump", [1])
        assert outcome.count == 8  # summed across both shards
        rows = client.query("SELECT i.id, i.val FROM Item i").rows
    assert sorted(rows) == [(i, i * 10 + 1) for i in range(8)]


def test_prepared_autocommit_broadcast_write_runs_two_phase(sharded):
    router, _, host, port = sharded
    before = router.metrics.snapshot().get("shard.twopc_commits", 0)
    with MoodClient(host, port) as client:
        client.prepare("reset", "UPDATE Item i SET val = ?")
        assert client.execute_prepared("reset", [5]).count == 8
    after = router.metrics.snapshot()["shard.twopc_commits"]
    assert after - before == 1


# -- error identity across the relay -----------------------------------------

def test_shard_error_passes_through_verbatim(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        with pytest.raises(MoodServerError) as excinfo:
            client.query("SELECT x.nope FROM Missing x", shard_key=0)
    assert excinfo.value.code == "UNKNOWN_CLASS"
    assert excinfo.value.errno == 1602
    assert excinfo.value.retryable is False


def test_down_shard_raises_retryable_shard_unavailable(sharded):
    _, backends, host, port = sharded
    backends[1].stop()
    with MoodClient(host, port) as client:
        with pytest.raises(MoodServerError) as excinfo:
            client.query("SELECT i.id FROM Item i", shard_key=1)
        assert excinfo.value.code == "SHARD_UNAVAILABLE"
        assert excinfo.value.errno == 2008
        assert excinfo.value.retryable is True
        # The other shard keeps serving.
        assert client.query(
            "SELECT i.id FROM Item i", shard_key=0
        ).rows != []


def test_two_phase_ops_rejected_from_clients(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        for op in ("PREPARE_TXN", "COMMIT_PREPARED", "ROLLBACK_PREPARED",
                   "IN_DOUBT"):
            with pytest.raises(MoodServerError) as excinfo:
                client._call(op, gid="gid-x")
            assert excinfo.value.code == "PROTOCOL"


def test_client_retry_loop_rides_out_a_shard_restart(sharded):
    _, backends, host, port = sharded
    state = {"crashed": False}

    def body(client):
        if not state["crashed"]:
            state["crashed"] = True
            backends[0].crash()
        elif backends[0].server is None:
            backends[0].restart()
        return client.query(
            "SELECT i.val FROM Item i WHERE i.id = 0", shard_key=0
        ).scalars()

    with MoodClient(host, port) as client:
        result, attempts = client.run_transaction(body)
    assert result == [0]
    assert attempts == 2


# -- distributed transactions -------------------------------------------------

def test_cross_shard_commit_is_atomic_and_visible(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute(
            "UPDATE Item i SET val = 100 WHERE i.id = 0", shard_key=0)
        client.execute(
            "UPDATE Item i SET val = 200 WHERE i.id = 1", shard_key=1)
        client.commit()
        rows = client.query(
            "SELECT i.id, i.val FROM Item i WHERE i.val >= 100").rows
        assert sorted(rows) == [(0, 100), (1, 200)]
        stats = client.stats()
    assert stats["pending_decisions"] == 0
    assert stats["metrics"]["shard.twopc_commits"] == 1


def test_cross_shard_rollback_undoes_both_branches(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute(
            "UPDATE Item i SET val = 100 WHERE i.id = 0", shard_key=0)
        client.execute(
            "UPDATE Item i SET val = 200 WHERE i.id = 1", shard_key=1)
        client.rollback()
        rows = client.query(
            "SELECT i.id, i.val FROM Item i WHERE i.id < 2").rows
    assert sorted(rows) == [(0, 0), (1, 10)]


def test_single_shard_transaction_uses_plain_commit(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute(
            "UPDATE Item i SET val = 77 WHERE i.id = 2", shard_key=2)
        client.commit()
        assert client.query(
            "SELECT i.val FROM Item i WHERE i.id = 2", shard_key=2
        ).scalars() == [77]
    assert router.metrics.snapshot().get("shard.twopc_commits", 0) == 0


def test_ddl_inside_txn_hits_every_shard_with_schema_bump(sharded):
    _, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Extra TUPLE (n Integer)")
        client.execute("new Extra <1>", shard_key=0)
        client.execute("new Extra <2>", shard_key=1)
        rows = client.query("SELECT e.n FROM Extra e").scalars()
    assert sorted(rows) == [1, 2]
    for backend in backends:
        assert backend.db.query("SELECT e.n FROM Extra e") is not None
