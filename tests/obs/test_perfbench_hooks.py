"""The benchmark's per-layer tracer wraps engine entry points by name
(``perfbench/tracer.py``).  Renaming or deleting any of them makes a
traced benchmark run crash, so this installs the engine hooks on a fresh
tracer, checks that a query is attributed to the evaluation and decode
layers, and unwraps everything again."""

from __future__ import annotations

import importlib.util
import pathlib

import repro.engine.objects as objects_module
from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.engine.evaluator import ExpressionEvaluator

TRACER_PATH = (pathlib.Path(__file__).resolve().parents[2]
               / "perfbench" / "tracer.py")

#: Names the tracer wraps on ExpressionEvaluator (engine.eval).
EVALUATOR_HOOKS = ("filter_batch", "values_batch", "prefetch",
                   "value", "values", "predicate")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_hooks_install_attribute_and_unwrap():
    tracer_module = _load_tracer()
    originals = {name: getattr(ExpressionEvaluator, name)
                 for name in EVALUATOR_HOOKS}
    original_decode = objects_module.decode
    db = MoodDatabase(buffer_capacity=64)
    build_paper_database(db, scale=40, seed=5)

    tracer = tracer_module.Tracer()
    tracer_module.install_engine(tracer)
    try:
        assert objects_module.decode is not original_decode
        result = db.query(
            "SELECT v.id, v.manufacturer.name FROM Vehicle v "
            "WHERE v.weight > 0 ORDER BY v.id"
        )
        assert len(result) > 0
        _, calls = tracer.totals()
    finally:
        tracer.unwrap_all()

    # Per-row evaluation runs inside the batch entry points, so the
    # evaluation layer sees a handful of calls per statement, and every
    # scanned record is a decode.
    assert 0 < calls["engine.eval"] < 10
    assert calls["serde.decode"] >= len(result)
    assert calls["engine.execute"] == 1
    for name, original in originals.items():
        assert getattr(ExpressionEvaluator, name) is original, name
    assert objects_module.decode is original_decode
