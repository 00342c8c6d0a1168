"""Shared fixtures and helpers for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures; the
regenerated artifact is printed and also written to
``benchmarks/output/<name>.txt`` so EXPERIMENTS.md can reference it.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.paperdb import build_paper_database, paper_statistics
from repro.core.database import MoodDatabase

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Smoke runs -- the benchmark items the tier-1 suite executes -- write
#: their artifacts and BENCH records here, a gitignored directory, so
#: running the tests leaves the working tree clean.  The tracked
#: ``benchmarks/output/*_smoke.txt`` and root ``BENCH_prN.json`` files are
#: recorded results; refresh one on purpose by copying it from here.
SMOKE_DIR = pathlib.Path(__file__).parent / "out"

#: Scale (|Vehicle|) for live-data benchmarks; the paper's 20,000 is
#: reproduced analytically, measurement uses this laptop-friendly scale.
LIVE_SCALE = 300


def emit(name: str, text: str, smoke: bool = False) -> None:
    """Print an artifact and persist it under benchmarks/output/ (under
    :data:`SMOKE_DIR` for smoke runs)."""
    directory = SMOKE_DIR if smoke else OUTPUT_DIR
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def smoke_path(name: str) -> pathlib.Path:
    """Where a smoke run writes the file ``name`` (e.g. its BENCH record)."""
    SMOKE_DIR.mkdir(exist_ok=True)
    return SMOKE_DIR / name


def pytest_collection_modifyitems(config, items):
    """In a plain tier-1 run (``python -m pytest -x -q``), only the
    ``smoke``-marked items from this directory execute -- a cheap
    EXPLAIN ANALYZE round-trip keeps the observability layer covered by
    CI without paying for the full table/figure regeneration.  Any
    invocation that names a benchmark path (or passes ``-m``) gets the
    whole suite as before."""
    args = " ".join(str(a) for a in config.invocation_params.args)
    if "benchmark" in args or config.getoption("-m"):
        return
    here = pathlib.Path(__file__).parent
    selected, deselected = [], []
    for item in items:
        in_benchmarks = here in pathlib.Path(str(item.fspath)).parents
        if in_benchmarks and "smoke" not in item.keywords:
            deselected.append(item)
        else:
            selected.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = selected


@pytest.fixture(scope="session")
def paper_stats():
    """The paper's exact Tables 13-15 statistics."""
    return paper_statistics()


@pytest.fixture(scope="session")
def live_db():
    """A live Section 3.1 database at LIVE_SCALE vehicles."""
    db = MoodDatabase(buffer_capacity=1024)
    build_paper_database(db, scale=LIVE_SCALE, seed=1994)
    db.analyze()
    return db


@pytest.fixture(scope="session")
def paper_planner(paper_stats):
    """A planner over the paper's schema + the paper's exact statistics."""
    from repro.catalog.catalog import Catalog
    from repro.optimizer.planner import Planner
    from repro.storage.disk import DiskParams
    from repro.storage.manager import StorageManager

    catalog = Catalog(StorageManager(buffer_capacity=64))
    catalog.define_class("VehicleEngine", [
        ("size", "Integer"), ("cylinders", "Integer"),
    ])
    catalog.define_class("VehicleDriveTrain", [
        ("engine", "Reference(VehicleEngine)"),
        ("transmission", "String(32)"),
    ])
    catalog.define_class("Employee", [
        ("ssno", "Integer"), ("name", "String(32)"), ("age", "Integer"),
    ])
    catalog.define_class("Company", [
        ("name", "String(32)"), ("location", "String(32)"),
        ("president", "Reference(Employee)"),
    ])
    catalog.define_class("Vehicle", [
        ("id", "Integer"), ("weight", "Integer"),
        ("drivetrain", "Reference(VehicleDriveTrain)"),
        ("manufacturer", "Reference(Company)"),
    ])
    catalog.define_class("Automobile", superclasses=["Vehicle"])
    catalog.define_class("JapaneseAuto", superclasses=["Automobile"])
    return Planner(catalog, paper_stats, DiskParams())
