"""EXPLAIN ANALYZE round-trip over Example 8.2 (smoke + benchmark).

The ``smoke``-marked test also runs inside the tier-1 suite (see
``conftest.pytest_collection_modifyitems``): one small-scale
EXPLAIN ANALYZE through the full stack -- lexer, planner, span-recorded
executor, report builder -- plus a CostValidator pass over the report, so
a regression anywhere in the observability layer fails CI immediately.
"""

import pytest

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.obs import CostValidator

from conftest import emit

EXAMPLE_82 = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"


@pytest.mark.smoke
def test_explain_analyze_round_trip_smoke():
    db = MoodDatabase(buffer_capacity=64)
    build_paper_database(db, scale=80, seed=3)
    result = db.explain(EXAMPLE_82)

    assert result.report.analyzed
    assert result.result is not None
    # Every analyzed line carries actuals next to the estimate.
    for line in result.report.lines:
        assert line.act_rows is not None
        assert line.act_sim_ms is not None
    text = result.render()
    assert "EXPLAIN ANALYZE" in text and "act/est" in text
    # The report is CostValidator-consumable (no agreement asserted here;
    # at this scale warm-buffer effects dominate -- tests/obs pins the 1%
    # contract at measurement scale).
    checks = CostValidator().validate_report(result.report)
    assert all(check.estimated > 0 for check in checks)

    emit("explain_analyze_smoke", text, smoke=True)


def test_explain_analyze_example82(live_db, benchmark):
    """Benchmark the full EXPLAIN ANALYZE round-trip at LIVE_SCALE."""
    result = benchmark(lambda: live_db.explain(EXAMPLE_82))
    emit("explain_analyze_example82", result.render())
