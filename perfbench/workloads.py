"""The four workloads' op streams and the answers they must produce.

Every stream is a fixed list of ops drawn from ``random.Random(seed)``:
the same seed gives the same ops in the same order, so single-caller
workloads repeat every count exactly.  Each op belongs to one latency
class (``lookup``, ``scan``, ``write``, ``xfer``); within a class the
query shapes take turns, so each shape's share is fixed and no
percentile falls between two shapes by chance of the draw.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from common import Zipf, class_sequence

#: Statement texts by shape.  In-process workloads send them as ad hoc SQL
#: with the parameters spliced in; server workloads PREPARE them once per
#: connection and EXECUTE with bind parameters.
SHAPES = {
    # lookup: one vehicle by id (the Vehicle extent is scanned: no index)
    "lk_weight": "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = ?",
    "lk_maker": "SELECT v.id, v.manufacturer.name FROM Vehicle v "
                "WHERE v.id = ?",
    "lk_cyl": "SELECT v.id, v.drivetrain.engine.cylinders FROM Vehicle v "
              "WHERE v.id = ?",
    # scan: selections over the whole extent hierarchy
    "sc_weight": "SELECT v.id, v.weight FROM Vehicle v "
                 "WHERE v.weight > ? AND v.weight < ?",
    "sc_path": "SELECT v.id FROM Vehicle v "
               "WHERE v.drivetrain.engine.cylinders = ?",
    "sc_join": "SELECT v.id, e.size FROM Vehicle v, VehicleEngine e "
               "WHERE v.drivetrain.engine = e AND e.cylinders = ?",
    # traverse-spill scans: forward traversals from an id range
    "tr_cyl": "SELECT v.id, v.drivetrain.engine.cylinders FROM Vehicle v "
              "WHERE v.id >= ? AND v.id < ?",
    "tr_maker": "SELECT v.id, v.manufacturer.name FROM Vehicle v "
                "WHERE v.id >= ? AND v.id < ?",
    "tr_both": "SELECT v.id, v.manufacturer.name, "
               "v.drivetrain.engine.cylinders FROM Vehicle v "
               "WHERE v.id >= ? AND v.id < ?",
    # writes
    "wr_bump": "UPDATE Vehicle v SET weight = v.weight + 1 WHERE v.id = ?",
    "wr_debit": "UPDATE Vehicle v SET weight = v.weight - 1 WHERE v.id = ?",
    "wr_check": "SELECT v.weight FROM Vehicle v WHERE v.id = ?",
}

LOOKUP_SHAPES = ("lk_weight", "lk_maker", "lk_cyl")
SCAN_SHAPES = ("sc_weight", "sc_path", "sc_join")
TRAVERSE_SHAPES = ("tr_cyl", "tr_maker", "tr_both")

#: Weight-range width of ``sc_weight`` and id-range width of ``tr_*``.
WEIGHT_SPAN = 100
ROOT_SPAN = 20


def render(shape: str, params: tuple) -> str:
    """Splice parameters into a shape's text (ad hoc SQL)."""
    text = SHAPES[shape]
    for value in params:
        text = text.replace("?", str(value), 1)
    return text


@dataclass(frozen=True)
class Step:
    """One statement of an op: shape, parameters, routing key."""

    shape: str
    params: tuple
    shard_key: int | None = None


@dataclass(frozen=True)
class Op:
    """One timed operation: its class and the statements it runs (more
    than one only for transactions)."""

    op_class: str
    steps: tuple[Step, ...]


def digest(ops: list[Op]) -> str:
    """Short fingerprint of an op stream (determinism checks)."""
    text = "\n".join(repr(op) for op in ops)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Cycle:
    """Shapes of one class in strict rotation."""

    def __init__(self, shapes):
        self.shapes = shapes
        self.turn = 0

    def next(self) -> str:
        shape = self.shapes[self.turn % len(self.shapes)]
        self.turn += 1
        return shape


def _scan_step(shape: str, rng: random.Random) -> Step:
    if shape == "sc_weight":
        low = rng.randrange(800, 2200 - WEIGHT_SPAN)
        return Step(shape, (low, low + WEIGHT_SPAN))
    return Step(shape, (2 * rng.randint(1, 16),))


def read_stream(rng: random.Random, scale: int, counts: dict[str, int],
                shard_count: int = 0) -> list[Op]:
    """Lookups (Zipf-skewed ids) and scans, in exact ``counts``."""
    zipf = Zipf(scale, rng)
    lookups, scans = _Cycle(LOOKUP_SHAPES), _Cycle(SCAN_SHAPES)
    ops = []
    for op_class in class_sequence(rng, counts):
        if op_class == "lookup":
            vehicle_id = zipf.draw(rng)
            key = vehicle_id if shard_count else None
            step = Step(lookups.next(), (vehicle_id,), key)
        else:
            step = _scan_step(scans.next(), rng)
        ops.append(Op(op_class, (step,)))
    return ops


def mixed_stream(rng: random.Random, scale: int, counts: dict[str, int],
                 shard_count: int = 0) -> list[Op]:
    """Reads plus ``write`` (bump a vehicle's weight, then read it back,
    in one transaction) and, when sharded, ``xfer`` (a +1/-1 pair on two
    shards, locked in ascending shard order, each read back, committed by
    two-phase commit).  An update leaves the engine's statistics stale;
    the read-back inside the transaction pays the refresh, so later reads
    find them current.  Under sharding a write stays on one shard."""
    reads = {name: counts[name] for name in ("lookup", "scan")}
    read_ops = iter(read_stream(rng, scale, reads, shard_count))
    ops = []
    for op_class in class_sequence(rng, counts):
        if op_class in reads:
            ops.append(next(read_ops))
            continue
        vehicle_id = rng.randrange(scale)
        key = vehicle_id if shard_count else None
        if op_class == "write":
            ops.append(Op("write", (
                Step("wr_bump", (vehicle_id,), key),
                Step("wr_check", (vehicle_id,), key),
            )))
        else:
            peer = (vehicle_id + 1) % scale
            credit, debit = sorted((vehicle_id, peer),
                                   key=lambda vid: vid % shard_count)
            ops.append(Op("xfer", (
                Step("wr_bump", (credit,), credit),
                Step("wr_debit", (debit,), debit),
                Step("wr_check", (credit,), credit),
                Step("wr_check", (debit,), debit),
            )))
    return ops


def traverse_stream(rng: random.Random, scale: int, windows: int,
                    per_window: dict[str, int], window_span: int
                    ) -> list[tuple[int, list[Op]]]:
    """Per root window ``(start, ops)``: scans are forward traversals
    rooted at a uniformly drawn id range inside the window; lookups are
    point traversals from a uniformly drawn id anywhere."""
    traverse, lookups = _Cycle(TRAVERSE_SHAPES), _Cycle(LOOKUP_SHAPES)
    plan = []
    for _ in range(windows):
        start = rng.randrange(0, scale - window_span + 1)
        ops = []
        for op_class in class_sequence(rng, per_window):
            if op_class == "scan":
                low = rng.randrange(start, start + window_span - ROOT_SPAN + 1)
                step = Step(traverse.next(), (low, low + ROOT_SPAN))
            else:
                step = Step(lookups.next(), (rng.randrange(scale),))
            ops.append(Op(op_class, (step,)))
        plan.append((start, ops))
    return plan


class PaperModel:
    """The generator's objects reduced to plain facts to check answers
    against: per vehicle id, ``(weight, maker name, cylinders, engine
    size)``.  Tuples of plain values leave the garbage collector's
    working set, where the generator's objects would slow every
    collection the measured ops pay for."""

    WEIGHT, MAKER, CYLINDERS, SIZE = range(4)

    def __init__(self, objects: dict):
        makers = {c.oid: c.state["name"] for c in objects["Company"]}
        engines = {e.oid: e.state for e in objects["VehicleEngine"]}
        engine_of = {d.oid: d.state["engine"]
                     for d in objects["VehicleDriveTrain"]}
        self.vehicles = {}
        for vehicle in objects["Vehicle"]:
            state = vehicle.state
            engine = engines[engine_of[state["drivetrain"]]]
            self.vehicles[state["id"]] = (
                state["weight"], makers[state["manufacturer"]],
                engine["cylinders"], engine["size"],
            )

    def answer(self, step: Step) -> list[tuple]:
        """Sorted rows ``step`` must return against the unmodified data."""
        shape, params, cars = step.shape, step.params, self.vehicles
        if shape.startswith("lk_"):
            (vid,) = params
            column = {"lk_weight": self.WEIGHT, "lk_maker": self.MAKER,
                      "lk_cyl": self.CYLINDERS}[shape]
            return [(vid, cars[vid][column])]
        if shape == "sc_weight":
            low, high = params
            rows = [(vid, car[self.WEIGHT]) for vid, car in cars.items()
                    if low < car[self.WEIGHT] < high]
        elif shape == "sc_path":
            rows = [(vid,) for vid, car in cars.items()
                    if car[self.CYLINDERS] == params[0]]
        elif shape == "sc_join":
            rows = [(vid, car[self.SIZE]) for vid, car in cars.items()
                    if car[self.CYLINDERS] == params[0]]
        elif shape == "tr_both":
            rows = self.window_rows(*params)
        else:
            low, high = params
            column = self.CYLINDERS if shape == "tr_cyl" else self.MAKER
            rows = [(vid, cars[vid][column]) for vid in range(low, high)]
        return sorted(rows)

    def window_rows(self, low: int, high: int) -> list[tuple]:
        return sorted((vid, car[self.MAKER], car[self.CYLINDERS])
                      for vid, car in self.vehicles.items()
                      if low <= vid < high)
