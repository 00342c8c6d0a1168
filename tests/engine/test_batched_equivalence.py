"""Differential equivalence harness for set-oriented execution.

The PR 6 contract: batching is purely *physical*.  For randomized chain
schemas, data, interleaved writes and path queries, every cell of the
{batched, unbatched} x {object cache on, off} matrix must return the
identical row multiset -- through the planner's own plans (which also
exercises the plan cache) and through forced forward-traversal plans
(fused under batching, the shape the rewrite actually accelerates) --
and the batched execution must never charge *more* simulated page I/O
than the unbatched one at the same cache setting.

The fifth axis is the evaluator: every cell also runs under the
reference interpreter (``reference_evaluator``), which decodes whole
objects, and must give the compiled, projected-decoding cell's rows and
exactly its charged I/O -- including NULLs, set-valued paths, ill-typed
comparisons (same error code) and integer literals outside int64.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.database import MoodDatabase
from repro.core.errors import MoodError
from repro.engine.executor import Executor
from repro.optimizer.fuse import fuse_query_plan
from repro.optimizer.plan import FusedTraversalNode, JoinNode
from repro.sql.parser import parse
from tests.engine.reference_evaluator import ReferenceEvaluator

#: (label, batch_enabled, cache_enabled) -- the 4-way matrix.
MATRIX = (
    ("batch+cache", True, True),
    ("batch only", True, False),
    ("cache only", False, True),
    ("paper", False, False),
)

#: The evaluator axis: compiled (the engine's) and the reference oracle.
EVALUATORS = ("compiled", "reference")


def _cells(build, *args):
    """``build(*args, batch, cache)`` for every (mode, evaluator) cell,
    keyed by ``(mode label, evaluator)``; reference cells swap the
    kernel's evaluator for the interpreter."""
    cells = {}
    for label, batch, cache in MATRIX:
        for evaluator in EVALUATORS:
            built = build(*args, batch, cache)
            if evaluator == "reference":
                kernel = built[0].kernel
                kernel.evaluator = ReferenceEvaluator(kernel.objects,
                                                      kernel.functions)
            cells[label, evaluator] = built
    return cells


def _build(depth, sizes, seed, batch, cache):
    """One database of ``depth + 1`` chained classes with identical data
    for every (batch, cache) cell: Chain0 is the leaf, each Chain{k}
    references a Chain{k-1} drawn by the shared rng."""
    db = MoodDatabase(
        buffer_capacity=16, cache_enabled=cache, batch_enabled=batch,
    )
    db.execute("CREATE CLASS Chain0 TUPLE (val Integer, pad String(120))")
    for level in range(1, depth + 1):
        db.execute(
            f"CREATE CLASS Chain{level} TUPLE (val Integer, "
            f"ref REFERENCE (Chain{level - 1}), pad String(120))"
        )
    rng = random.Random(seed)
    pad = "x" * 90  # several objects per page, but more pages than frames
    levels = [[
        db.new_object("Chain0", {"val": rng.randrange(8), "pad": pad})
        for _ in range(sizes[0])
    ]]
    for level in range(1, depth + 1):
        levels.append([
            db.new_object(f"Chain{level}", {
                "val": rng.randrange(8),
                "ref": rng.choice(levels[level - 1]),
                "pad": pad,
            })
            for _ in range(sizes[level])
        ])
    db.analyze()
    return db, levels


def _row_key(row):
    return tuple(
        cell.oid if hasattr(cell, "oid") else cell for cell in row
    )


def _multiset(binding_rows):
    return sorted(
        tuple(sorted(
            (var, value.oid if hasattr(value, "oid") else value)
            for var, value in row.items()
        ))
        for row in binding_rows
    )


def _forced_cold_run(db, sql):
    """Execute ``sql`` as a forced forward-traversal plan -- fused when the
    database runs batched -- from a cold buffer and cold object cache;
    returns (row multiset, charged page I/O)."""
    plan = db.kernel.planner().plan_query(parse(sql))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    if db.kernel.objects.batch_enabled:
        fuse_query_plan(plan)
    db.kernel.objects.invalidate_cache()
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()
    probe = db.io_probe()
    executor = Executor(
        objects=db.kernel.objects,
        evaluator=db.kernel.evaluator,
        catalog=db.kernel.catalog,
        index_manager=db.kernel.indexes,
    )
    rows = executor.execute_plan(plan)
    return _multiset(rows), db.io_since(probe).page_ios


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    depth=st.integers(min_value=2, max_value=3),
    leaf_size=st.integers(min_value=4, max_value=10),
    mid_size=st.integers(min_value=6, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    op=st.sampled_from(["=", ">", "<"]),
    threshold=st.integers(min_value=0, max_value=7),
    interleave_write=st.booleans(),
)
def test_four_way_matrix_row_equivalence_and_io(
    depth, leaf_size, mid_size, seed, op, threshold, interleave_write,
):
    sizes = [leaf_size] + [mid_size] * depth
    cells = _cells(_build, depth, sizes, seed)
    path = ".ref" * depth
    whole = (
        f"SELECT a FROM Chain{depth} a WHERE a{path}.val {op} {threshold}"
    )
    projected = (
        f"SELECT a.val FROM Chain{depth} a "
        f"WHERE a{'.ref' * (depth - 1)}.val {op} {threshold} "
        "ORDER BY a.val"
    )

    if interleave_write:
        # The same committed write lands in every cell before querying:
        # flip one leaf's value so a cached cell replaying stale state
        # would disagree with the uncached ones.
        for db, levels in cells.values():
            victim = levels[0][seed % len(levels[0])]
            victim.state["val"] = (threshold + 1) % 8
            db.save(victim)

    for sql in (whole, projected):
        results = {
            label: sorted(map(_row_key, db.query(sql).rows))
            for label, (db, _) in cells.items()
        }
        baseline = results["paper", "reference"]
        for label, rows in results.items():
            assert rows == baseline, (sql, label)

    forced = {
        label: _forced_cold_run(db, whole)
        for label, (db, _) in cells.items()
    }
    baseline_rows = forced["paper", "reference"][0]
    for label, (rows, _) in forced.items():
        assert rows == baseline_rows, label

    # Charged I/O: the compiler never changes it; batching never costs
    # more at the same cache setting.
    for label, _, _ in MATRIX:
        assert forced[label, "compiled"][1] == forced[label, "reference"][1]
    io = {label: forced[label, "compiled"][1] for label, _, _ in MATRIX}
    assert io["batch+cache"] <= io["cache only"]
    assert io["batch only"] <= io["paper"]


def test_matrix_agrees_after_ddl_and_restart():
    """A deterministic end-to-end shake: DDL invalidation plus a crash and
    restart leave all four cells still agreeing (and the batched cells
    actually fused their forced plans before the fault)."""
    sizes = [6, 9, 9]
    cells = _cells(_build, 2, sizes, 99)
    sql = "SELECT a FROM Chain2 a WHERE a.ref.ref.val > 2"

    fused_seen = False
    for label, (db, _) in cells.items():
        plan = db.kernel.planner().plan_query(parse(sql))

        def force(node):
            if isinstance(node, JoinNode):
                node.method = "FORWARD_TRAVERSAL"
            for child in node.children():
                force(child)

        force(plan.root)
        if db.kernel.objects.batch_enabled:
            assert fuse_query_plan(plan) == 1, label
            assert isinstance(
                plan.root.children()[0], (FusedTraversalNode, JoinNode)
            )
            fused_seen = True
    assert fused_seen

    baseline = None
    for label, (db, _) in cells.items():
        db.execute(
            "ALTER CLASS Chain0 RENAME ATTRIBUTE val TO score"
        )
        db.kernel.storage.checkpoint()
        db.kernel.storage.crash()
        db.kernel.storage.restart()
        rows = sorted(map(
            _row_key,
            db.query(
                "SELECT a FROM Chain2 a WHERE a.ref.ref.score > 2"
            ).rows,
        ))
        if baseline is None:
            baseline = rows
        assert rows == baseline, label
    assert baseline  # the schema/data make the predicate non-empty


# -- compiled evaluation against the reference oracle -------------------------

INT64_MAX = 2**63 - 1


def _build_items(seed, size, batch, cache):
    """Items with NULL attributes, set-valued attributes, strings and
    references (some NULL, some to one another)."""
    db = MoodDatabase(
        buffer_capacity=8, cache_enabled=cache, batch_enabled=batch,
    )
    db.execute(
        "CREATE CLASS Item TUPLE (val LongInteger, name String(8), "
        "tags Set(Integer), ref REFERENCE (Item), pad String(200))"
    )
    rng = random.Random(seed)
    items = []
    for index in range(size):
        state = {"pad": "p" * 150}
        if rng.random() < 0.8:
            state["val"] = rng.choice(
                [rng.randrange(-4, 8), INT64_MAX, -INT64_MAX - 1]
            )
        if rng.random() < 0.8:
            state["name"] = rng.choice(["a", "b", "ab", "zz"])
        if rng.random() < 0.7:
            state["tags"] = {rng.randrange(6)
                             for _ in range(rng.randrange(4))}
        if items and rng.random() < 0.8:
            state["ref"] = rng.choice(items)
        items.append(db.new_object("Item", state))
    db.analyze()
    return db, items


_INTS = st.one_of(
    st.integers(min_value=-4, max_value=8),
    st.sampled_from([INT64_MAX, -INT64_MAX - 1, 2**64 + 3, 2**70,
                     -(2**64) - 1, 2**31, -(2**31)]),
)
_SCALARS = st.one_of(
    _INTS.map(str),
    st.sampled_from(["'a'", "'ab'", "'zz'", "NULL", "TRUE", "2.5"]),
)
_PATHS = st.sampled_from([
    "i.val", "i.name", "i.tags", "i.ref.val", "i.ref.name",
    "i.ref.tags", "i.ref.ref.val", "i.val + 1", "i.val * 2", "-i.val",
    "i.ref.val - i.val",
])
_OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
_ATOMS = st.one_of(
    # var.attr op constant: the compiled fast path, drawn most often.
    st.tuples(st.sampled_from(["i.val", "i.name"]), _OPS, _SCALARS).map(
        " ".join),
    st.tuples(_PATHS, _OPS, _SCALARS).map(" ".join),
    st.tuples(_PATHS, _OPS, _PATHS).map(" ".join),
    st.tuples(_PATHS, st.lists(_SCALARS, min_size=1, max_size=3)).map(
        lambda t: f"{t[0]} IN ({', '.join(t[1])})"),
    st.sampled_from(["i.ref = i", "i.ref <> i", "i.ref.ref = i.ref"]),
)
_PREDICATES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        inner.map(lambda p: f"NOT ({p})"),
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
    ),
    max_leaves=3,
)


def _outcome(db, sql):
    """(row multiset, error code, charged I/O) of one statement."""
    probe = db.io_probe()
    try:
        result = db.query(sql)
    except MoodError as exc:
        return None, exc.code, db.io_since(probe)
    rows = sorted(repr(_row_key(row)) for row in result.rows)
    return rows, None, db.io_since(probe)


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=3, max_value=24),
    predicate=_PREDICATES,
    projection=_PATHS,
)
# Integer literals outside int64 wrap around, as OperandDataType types
# them: 2**64 + 3 compares as 3.
@example(seed=1, size=20, predicate="i.val = 18446744073709551619",
         projection="i.name")
@example(seed=2, size=20, predicate="i.val < 1180591620717411303424",
         projection="i.val * 2")
@example(seed=3, size=20, predicate="i.ref.val >= -9223372036854775809",
         projection="-i.val")
# Ill-typed comparisons fail with the same code; NULLs compare false.
@example(seed=4, size=20, predicate="i.name = 3", projection="i.tags")
@example(seed=5, size=20, predicate="NOT (i.val <> NULL)",
         projection="i.ref.name")
# Set-valued paths are existential.
@example(seed=6, size=20, predicate="i.tags = 2 OR i.ref.tags > 4",
         projection="i.ref.tags")
def test_compiled_evaluation_matches_reference_oracle(
    seed, size, predicate, projection,
):
    cells = _cells(_build_items, seed, size)
    statements = (
        f"SELECT i FROM Item i WHERE {predicate}",
        f"SELECT i.val, {projection} FROM Item i WHERE {predicate} "
        f"ORDER BY i.name",
    )
    for sql in statements:
        for label, _, _ in MATRIX:
            compiled = _outcome(cells[label, "compiled"][0], sql)
            reference = _outcome(cells[label, "reference"][0], sql)
            assert compiled[:2] == reference[:2], (sql, label)
            assert compiled[2] == reference[2], (sql, label)
