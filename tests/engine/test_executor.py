"""Tests for plan execution: correctness against naive evaluation, and the
equivalence of the four physical join methods."""

import pytest

from repro.engine.evaluator import ExpressionEvaluator
from repro.optimizer.plan import JoinNode


def naive_cylinders_eq_2(db):
    """Ground truth computed without the query engine."""
    result = []
    for vehicle in db.extent("Vehicle"):
        drivetrain = db.get(vehicle.state["drivetrain"])
        engine = db.get(drivetrain.state["engine"])
        if engine.state["cylinders"] == 2:
            result.append(vehicle.oid)
    return sorted(result)


def test_path_query_matches_naive(db):
    result = db.query(
        "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    )
    assert sorted(obj.oid for (obj,) in result.rows) == \
        naive_cylinders_eq_2(db)


def test_immediate_selection_matches_naive(db):
    expected = sorted(
        o.oid for o in db.extent("Vehicle") if o.state["weight"] > 1500
    )
    result = db.query("SELECT v FROM Vehicle v WHERE v.weight > 1500")
    assert sorted(obj.oid for (obj,) in result.rows) == expected
    assert expected  # non-trivial data


def test_projection_values(db):
    result = db.query(
        "SELECT v.id, v.weight FROM Vehicle v WHERE v.weight > 1500"
    )
    assert result.columns == ["v.id", "v.weight"]
    for vid, weight in result.rows:
        assert isinstance(vid, int)
        assert weight > 1500


def test_select_star(db):
    result = db.query("SELECT * FROM VehicleEngine e WHERE e.cylinders = 2")
    assert result.columns == ["e"]
    assert all(obj.state["cylinders"] == 2 for (obj,) in result.rows)


def test_explicit_join_query(db):
    expected = set()
    engines = {e.oid: e for e in db.extent("VehicleEngine")}
    for auto in db.kernel.objects.iter_extent("Vehicle",
                                              include=("Automobile",)):
        drivetrain = db.get(auto.state["drivetrain"])
        engine = engines[drivetrain.state["engine"]]
        if drivetrain.state["transmission"] == "AUTOMATIC" \
                and engine.state["cylinders"] > 4:
            expected.add(auto.oid)
    result = db.query(
        "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine e "
        "WHERE c.drivetrain.transmission = 'AUTOMATIC' "
        "AND c.drivetrain.engine = e AND e.cylinders > 4"
    )
    assert {obj.oid for (obj,) in result.rows} == expected


def test_minus_operator_excludes_subclass(db):
    every = db.query("SELECT c FROM Automobile c")
    minus = db.query("SELECT c FROM EVERY Automobile - JapaneseAuto c")
    assert {o.class_name for (o,) in every.rows} == {
        "Automobile", "JapaneseAuto",
    }
    assert {o.class_name for (o,) in minus.rows} == {"Automobile"}


def test_or_union_dedups(db):
    result = db.query(
        "SELECT v FROM Vehicle v WHERE v.weight > 100 OR v.id >= 0"
    )
    oids = [obj.oid for (obj,) in result.rows]
    assert len(oids) == len(set(oids)) == 60


def test_order_by(db):
    result = db.query("SELECT v FROM Vehicle v ORDER BY v.weight DESC")
    weights = [obj.state["weight"] for (obj,) in result.rows]
    assert weights == sorted(weights, reverse=True)


def test_group_by_having(db):
    result = db.query(
        "SELECT e FROM VehicleEngine e "
        "GROUP BY e.cylinders HAVING e.cylinders > 8"
    )
    cylinders = [obj.state["cylinders"] for (obj,) in result.rows]
    assert len(cylinders) == len(set(cylinders))  # one group representative
    assert all(c > 8 for c in cylinders)


def test_distinct_projection(db):
    result = db.query(
        "SELECT DISTINCT d.transmission FROM VehicleDriveTrain d"
    )
    values = result.scalars()
    assert len(values) == len(set(values))


def test_method_call_in_where(db):
    result = db.query("SELECT v FROM Vehicle v WHERE v.lbweight() > 3000")
    expected = {
        o.oid for o in db.extent("Vehicle")
        if int(o.state["weight"] * 2.2075) > 3000
    }
    assert {obj.oid for (obj,) in result.rows} == expected


def test_index_on_small_extent_correctly_rejected(db):
    """Section 8.1's inequality: for a tiny extent a sequential scan beats
    the index, so the planner must not pick INDSEL."""
    before = db.query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 8")
    db.execute("CREATE INDEX eng_cyl ON VehicleEngine (cylinders)")
    after = db.query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 8")
    assert {o.oid for (o,) in before.rows} == {o.oid for (o,) in after.rows}
    assert "INDSEL" not in after.plan.render()


def test_index_accelerated_query_same_answer():
    """With a large extent and a selective key the inequality flips and the
    planner uses the index; answers agree either way."""
    from repro.core.database import MoodDatabase

    big = MoodDatabase(buffer_capacity=64)
    big.execute(
        "CREATE CLASS Sensor TUPLE (sid Integer, reading Integer, "
        "padding String)"
    )
    pad = "x" * 200  # few records per page: sequential scans get expensive
    for i in range(3000):
        big.new_object("Sensor", {"sid": i, "reading": i % 97,
                                  "padding": pad})
    before = big.query("SELECT s FROM Sensor s WHERE s.sid = 123")
    big.execute("CREATE UNIQUE INDEX sensor_sid ON Sensor (sid)")
    after = big.query("SELECT s FROM Sensor s WHERE s.sid = 123")
    assert {o.oid for (o,) in before.rows} == {o.oid for (o,) in after.rows}
    assert len(after) == 1
    assert "INDSEL" in after.plan.render()
    # The indexed execution does less I/O than the scan.
    big.kernel.storage.buffer.flush_all()
    big.kernel.storage.buffer.drop_all()
    probe = big.io_probe()
    big.query("SELECT s FROM Sensor s WHERE s.sid = 456")
    indexed_io = big.io_since(probe).page_reads
    scan_pages = big.kernel.catalog.extent_file("Sensor").nbpages()
    assert indexed_io < scan_pages


def test_hash_index_equality(db):
    db.execute("CREATE INDEX vid ON Vehicle (id) USING hash")
    result = db.query("SELECT v FROM Vehicle v WHERE v.id = 5")
    assert len(result) == 1
    assert result.rows[0][0].state["id"] == 5


@pytest.mark.parametrize("method", [
    "FORWARD_TRAVERSAL", "BACKWARD_TRAVERSAL", "HASH_PARTITION",
    "BINARY_JOIN_INDEX",
])
def test_all_join_methods_agree(db, method):
    """Force each physical method onto the same plan; answers must match."""
    expected = naive_cylinders_eq_2(db)
    sql = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    plan = db.kernel.planner().plan_query(
        __import__("repro.sql.parser", fromlist=["parse"]).parse(sql)
    )

    def force(node):
        if isinstance(node, JoinNode):
            node.method = method
        for child in node.children():
            force(child)

    force(plan.root)
    from repro.engine.executor import Executor

    executor = Executor(
        objects=db.kernel.objects,
        evaluator=ExpressionEvaluator(db.kernel.objects,
                                      db.kernel.functions),
        catalog=db.kernel.catalog,
        index_manager=db.kernel.indexes,
    )
    rows = executor.execute_plan(plan)
    assert sorted({row["v"].oid for row in rows}) == expected


def test_join_methods_have_different_io_profiles(db):
    """Forward traversal does random reads; backward scans sequentially.
    Measured with the deref cache off: the comparison is about the paper's
    per-chase charging, which the fast path deliberately collapses."""
    sql = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    from repro.engine.executor import Executor
    from repro.sql.parser import parse

    db.kernel.objects.set_cache_enabled(False)

    profiles = {}
    for method in ("FORWARD_TRAVERSAL", "BACKWARD_TRAVERSAL"):
        plan = db.kernel.planner().plan_query(parse(sql))

        def force(node):
            if isinstance(node, JoinNode):
                node.method = method
            for child in node.children():
                force(child)

        force(plan.root)
        db.kernel.storage.buffer.flush_all()
        db.kernel.storage.buffer.drop_all()
        probe = db.io_probe()
        executor = Executor(
            objects=db.kernel.objects,
            evaluator=db.kernel.evaluator,
            catalog=db.kernel.catalog,
            index_manager=db.kernel.indexes,
        )
        executor.execute_plan(plan)
        profiles[method] = db.io_since(probe)
    assert profiles["FORWARD_TRAVERSAL"].random_reads > \
        profiles["BACKWARD_TRAVERSAL"].random_reads


def test_trace_follows_figure_72_order(db):
    """SELECT events precede JOINs, which precede PROJECT and UNION."""
    result = db.query(
        "SELECT v.id FROM Vehicle v "
        "WHERE (v.drivetrain.engine.cylinders = 2 AND v.weight > 0) "
        "OR v.weight < 0"
    )
    operators = [event.operator for event in result.trace]
    assert "UNION" in operators
    assert operators.index("OPTIMIZE") < operators.index("UNION")
    first_join = operators.index("JOIN")
    assert "SELECT" in operators[:first_join]  # a SELECT ran before joins
    last_project = len(operators) - 1 - operators[::-1].index("PROJECT")
    assert operators.index("UNION") > first_join
    assert last_project > first_join


def test_empty_where_false(db):
    result = db.query("SELECT v FROM Vehicle v WHERE 1 = 2")
    assert len(result) == 0


def test_cursor_protocol(db):
    result = db.query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 2")
    cursor = db.kernel.cursor_for(result)
    assert len(cursor) == len(result)
    first = cursor.next()
    cells = cursor.buffer()
    names = [cell.name for cell in cells]
    assert names == ["size", "cylinders"]
    assert cells[1].value == 2
    if cursor.has_next():
        second = cursor.next()
        assert cursor.prev().oid == first.oid


# --------------------------------------------------------------------------
# PROJECT's physical effect: binding pruning
# --------------------------------------------------------------------------

def test_project_prunes_synthetic_chain_variables(db):
    """A path query introduces synthetic range variables for each chased
    class; PROJECT drops them from the binding rows, keeping only the
    declared variables plus those the projections reference."""
    result = db.query(
        "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    )
    assert result.binding_rows
    for row in result.binding_rows:
        assert set(row) == {"v"}
    assert "PROJECT" in [event.operator for event in result.trace]


def test_project_preserves_multiplicity(db):
    """Pruning restricts columns, never rows: PROJECT leaves duplicate
    handling to DUPELIM/UNION, so a non-distinct projection keeps one
    output row per binding row."""
    result = db.query("SELECT e.cylinders FROM VehicleEngine e")
    assert len(result.rows) == len(result.binding_rows) \
        == len(db.extent("VehicleEngine"))
    # cylinder counts repeat across engines; only DISTINCT shrinks them.
    distinct = db.query("SELECT DISTINCT e.cylinders FROM VehicleEngine e")
    assert len(distinct.rows) == len(set(result.scalars()))
    assert len(distinct.rows) < len(result.rows)


def test_select_star_rows_keep_all_declared_variables(db):
    """With no projection list there is nothing to prune against: the
    binding rows keep every declared range variable."""
    result = db.query(
        "SELECT * FROM Vehicle v, VehicleDriveTrain d "
        "WHERE v.drivetrain = d"
    )
    assert result.binding_rows
    for row in result.binding_rows:
        assert {"v", "d"} <= set(row)


def test_hand_built_plan_without_output_vars_is_unpruned(db):
    """`analyze_plan` runs arbitrary plans whose QueryPlan may carry no
    output variables; PROJECT must then pass bindings through untouched
    (the executor cannot know what the caller still needs)."""
    from repro.sql.parser import parse

    plan = db.kernel.planner().plan_query(parse(
        "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    ))
    plan.output_vars = ()
    result = db.kernel.analyze_plan(plan)
    assert result.result.binding_rows
    for row in result.result.binding_rows:
        assert {"v", "d0", "d1"} <= set(row) or len(row) >= 2


# -- compiled evaluation and projected decode ---------------------------------

def _record_decodes(monkeypatch):
    """Route the object manager's record decodes through a recorder of
    the ``fields`` each call asked for."""
    import repro.engine.objects as objects_module

    calls = []
    real = objects_module.decode

    def recording(data, fields=None):
        calls.append(fields)
        return real(data, fields)

    monkeypatch.setattr(objects_module, "decode", recording)
    return calls


def test_expressions_compile_once_per_plan(db):
    sql = "SELECT v.id FROM Vehicle v WHERE v.weight > 1000 ORDER BY v.id"
    first = db.query(sql)
    compiled = dict(first.plan.compiled)
    assert compiled
    second = db.query(sql)
    assert second.plan is first.plan  # a plan-cache hit...
    assert second.plan.compiled == compiled  # ...reuses its closures
    assert second.rows == first.rows


def test_scan_decodes_read_attributes_and_completes_survivors(
        db, monkeypatch):
    from repro.engine.objects import PartialObject

    target = db.extent("Vehicle")[3]
    db.analyze()  # keep the implicit first ANALYZE's scans out of it
    calls = _record_decodes(monkeypatch)
    result = db.query(f"SELECT v FROM Vehicle v WHERE v.id = "
                      f"{target.state['id']}")
    survivors = result.binding_rows
    assert [row["v"].oid for row in survivors] == [target.oid]
    # The scan decoded only ``id``; the one survivor was completed.
    assert {f for f in calls if f is not None} == {frozenset({"id"})}
    assert calls.count(None) == 1
    (obj,) = result.scalars()
    assert not isinstance(obj, PartialObject)
    assert obj.state == target.state


def test_update_and_methods_see_whole_objects(db, monkeypatch):
    db.analyze()
    calls = _record_decodes(monkeypatch)
    db.query("SELECT v.id FROM Vehicle v WHERE v.lbweight() > 2000")
    db.execute("UPDATE Vehicle v SET weight = v.weight + 1 "
               "WHERE v.id = 1")
    assert calls and all(fields is None for fields in calls)
