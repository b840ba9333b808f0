"""The [num, exp] row codec of core_grid against the scalar readers and
writers, kept here as the oracle.

Every input shape is drawn, written by both, and read by both after at most
one fault is put into one of its rows: both must accept the same object, or
refuse with the same exception class and message.
"""
from __future__ import annotations

import copy
import json
from collections import Counter

import hypothesis as hyp
import hypothesis.strategies as hys
import pytest

from conftest import configuration_of
from tubelab.additive import QuasiProduct
from tubelab.core_grid import (
    DyadicPoint,
    DyadicRational,
    PointSet,
    Scale,
    _dyadic_row,
    _indexed_entries,
    _int_field,
    grid_objects,
    read_pairs,
    values_to_json,
)
from tubelab.errors import ParseError
from tubelab.generators import TripodInstance, collinear_tripod, furstenberg_product, quasi_product
from tubelab.incidence import Configuration
from tubelab.manifest import canonical_json
from tubelab.tubes import DyadicTube, TubeFamily

# --- the scalar readers and writers: one object per row ---


def _pair(row: object) -> DyadicRational:
    return DyadicRational(*_dyadic_row(row, 2, "dyadic pair [num, exp]"))


def oracle_point_set(obj: dict) -> PointSet:
    k = _int_field(obj, "k")
    rows = obj.get("points")
    if not isinstance(rows, list):
        raise ParseError(f"point set 'points' must be a list, got {rows!r}")
    pts = [DyadicPoint.of(*_dyadic_row(row, 4, "point row [xn, xe, yn, ye]")) for row in rows]
    return PointSet(Scale(k), tuple(pts))


def oracle_tube_family(obj: dict) -> TubeFamily:
    k = _int_field(obj, "k")
    rows = obj.get("tubes")
    if not isinstance(rows, list):
        raise ParseError(f"tube family 'tubes' must be a list, got {rows!r}")
    scale = Scale(k)
    tubes = []
    for i, row in enumerate(rows):
        an, ae, bn, be = _dyadic_row(row, 4, f"tube row {i} [a_num, a_exp, b_num, b_exp]")
        tubes.append(DyadicTube.from_values(scale, DyadicRational(an, ae), DyadicRational(bn, be)))
    return TubeFamily.from_tubes(scale, tubes)


def oracle_configuration(obj: dict) -> Configuration:
    k = _int_field(obj, "k")
    try:
        s = float(obj["s"])
        eps = float(obj["epsilon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"configuration JSON needs k, s, epsilon: {exc}") from exc
    points = oracle_point_set({"k": k, "points": obj.get("points", [])})
    entries = obj.get("families", [])
    if not isinstance(entries, list):
        raise ParseError(f"configuration 'families' must be a list, got {entries!r}")
    families = _indexed_entries(
        entries, "point_index", len(points), ("family", "families"),
        lambda entry: oracle_tube_family({"k": k, "tubes": entry.get("tubes", [])}),
    )
    return configuration_of(points, families, s, eps)


def oracle_quasi_product(obj: dict) -> QuasiProduct:
    k = _int_field(obj, "k")
    try:
        s = float(obj["s"])
        tau = float(obj["tau"])
        level_rows = obj["levels"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"quasi product JSON needs k, s, tau, levels: {exc}") from exc
    entries = obj.get("slices", [])
    if not (isinstance(level_rows, list) and isinstance(entries, list)):
        raise ParseError("quasi product 'levels' and 'slices' must be lists")
    levels = tuple(_pair(row) for row in level_rows)

    def values(entry: dict) -> tuple[DyadicRational, ...]:
        rows = entry.get("values", [])
        if not isinstance(rows, list):
            raise ParseError(f"slice {entry['level_index']} 'values' must be a list, got {rows!r}")
        return tuple(_pair(r) for r in rows)

    slices = _indexed_entries(entries, "level_index", len(levels), ("slice", "slices"), values)
    return QuasiProduct.from_slices(Scale(k), s, tau, levels, slices)


def oracle_tripod(obj: dict) -> TripodInstance:
    scale = Scale(_int_field(obj, "k"))
    tube_row = obj.get("tube")
    rows = obj.get("points")
    if not (isinstance(rows, list) and len(rows) == 3):
        raise ParseError(f"tripod needs three point rows [xn, xe, yn, ye], got {rows!r}")
    an, ae, bn, be = _dyadic_row(tube_row, 4, "tripod tube [a_num, a_exp, b_num, b_exp]")
    tube = DyadicTube.from_values(scale, DyadicRational(an, ae), DyadicRational(bn, be))
    a, b, c = (DyadicPoint.of(*_dyadic_row(row, 4, "tripod point row [xn, xe, yn, ye]")) for row in rows)
    if len({a.y, b.y, c.y}) < 3:
        raise ParseError(f"tripod points need three distinct levels, got {rows!r}")
    return TripodInstance(tube, (a, b, c))


def oracle_values(obj: dict) -> tuple[DyadicRational, ...]:
    return tuple(_pair(row) for row in obj["values"])


def oracle_point_set_json(ps: PointSet) -> dict:
    return {"k": ps.scale.k, "points": [[p.x.num, p.x.exp, p.y.num, p.y.exp] for p in ps.points]}


def oracle_tube_family_json(fam: TubeFamily) -> dict:
    k = fam.scale.k
    return {"k": k, "tubes": [DyadicRational(a, k).pair() + DyadicRational(b, k).pair() for a, b in fam.index_pairs()]}


def oracle_configuration_json(cfg: Configuration) -> dict:
    return {
        "k": cfg.scale.k,
        "s": cfg.s,
        "epsilon": cfg.epsilon,
        "points": oracle_point_set_json(cfg.points)["points"],
        "families": [
            {"point_index": i, "tubes": oracle_tube_family_json(fam)["tubes"]} for i, fam in enumerate(cfg.families)
        ],
    }


def oracle_quasi_product_json(qp: QuasiProduct) -> dict:
    return {
        "k": qp.scale.k,
        "s": qp.s,
        "tau": qp.tau,
        "levels": [b.pair() for b in qp.levels],
        "slices": [{"level_index": i, "values": [a.pair() for a in sl]} for i, sl in enumerate(qp.slices)],
    }


def read_values(obj: dict) -> tuple[DyadicRational, ...]:
    """What `tubelab validate --input` reads slope values with."""
    return tuple(grid_objects(*read_pairs(obj["values"]), DyadicRational))


# shape: (reader, oracle reader, writer, oracle writer)
SHAPES = {
    "points": (PointSet.from_json, oracle_point_set, PointSet.to_json, oracle_point_set_json),
    "tubes": (TubeFamily.from_json, oracle_tube_family, TubeFamily.to_json, oracle_tube_family_json),
    "configuration": (
        Configuration.from_json, oracle_configuration, Configuration.to_json, oracle_configuration_json
    ),
    "quasi_product": (
        QuasiProduct.from_json, oracle_quasi_product, QuasiProduct.to_json, oracle_quasi_product_json
    ),
    "tripod": (TripodInstance.from_json, oracle_tripod, TripodInstance.to_json, TripodInstance.to_json),
    "values": (read_values, oracle_values, values_to_json, lambda vs: {"values": [v.pair() for v in vs]}),
}

# --- drawn instances of each shape ---


@hys.composite
def dyadic(draw, bound: int, max_exp: int) -> DyadicRational:
    """A dyadic value in [-bound, bound] with exponent at most max_exp."""
    exp = draw(hys.integers(0, max_exp))
    return DyadicRational(draw(hys.integers(-bound << exp, bound << exp)), exp)


@hys.composite
def point_sets(draw, k: int | None = None) -> PointSet:
    k = draw(hys.integers(1, 8)) if k is None else k
    coords = hys.tuples(dyadic(4, k + 2), dyadic(4, k + 2))
    pairs = draw(hys.lists(coords, min_size=1, max_size=8, unique=True))
    return PointSet(Scale(k), tuple(DyadicPoint(x, y) for x, y in pairs))


@hys.composite
def cells(draw, k: int) -> list[tuple[int, int]]:
    cell = hys.integers(-8 << k, (8 << k) - 1)
    return draw(hys.lists(hys.tuples(cell, cell), max_size=6))


@hys.composite
def tube_families(draw) -> TubeFamily:
    k = draw(hys.integers(1, 8))
    return TubeFamily.from_index_pairs(Scale(k), draw(cells(k)))


@hys.composite
def configurations(draw) -> Configuration:
    k = draw(hys.sampled_from([2, 4, 6]))
    points = draw(point_sets(k))
    families = [TubeFamily.from_index_pairs(Scale(k), draw(cells(k))) for _ in range(len(points))]
    return configuration_of(points, families, draw(hys.sampled_from([0.5, 1.0])), 0.1)


@hys.composite
def quasi_products(draw) -> QuasiProduct:
    k = draw(hys.integers(4, 8))
    if draw(hys.booleans()):
        return quasi_product(k, draw(hys.sampled_from([0.4, 0.5, 1.0])), 0.5, draw(hys.integers(0, 50)))
    levels = sorted(draw(hys.lists(dyadic(4, k + 2), min_size=1, max_size=4, unique=True)))
    slices = [draw(hys.lists(dyadic(4, k + 2), min_size=1, max_size=4, unique=True)) for _ in levels]
    return QuasiProduct.from_slices(Scale(k), 0.5, 0.5, levels, slices)


@hys.composite
def tripods(draw) -> TripodInstance:
    return collinear_tripod(draw(hys.integers(4, 8)), draw(hys.integers(0, 20)))


@hys.composite
def slope_values(draw) -> tuple[DyadicRational, ...]:
    return tuple(draw(hys.lists(dyadic(1 << 20, 24), max_size=8)))


INSTANCES = {
    "points": point_sets(),
    "tubes": tube_families(),
    "configuration": configurations(),
    "quasi_product": quasi_products(),
    "tripod": tripods(),
    "values": slope_values(),
}

# --- faults, one per input ---


def row_slots(obj: dict, shape: str) -> list[tuple[tuple, str]]:
    """(path to a row, what the row holds: "point", "tube" or "pair") of
    every row of a shape's JSON object."""
    if shape == "points":
        return [(("points", i), "point") for i in range(len(obj["points"]))]
    if shape == "tubes":
        return [(("tubes", i), "tube") for i in range(len(obj["tubes"]))]
    if shape == "configuration":
        tubes = [
            (("families", f, "tubes", j), "tube")
            for f, entry in enumerate(obj["families"])
            for j in range(len(entry["tubes"]))
        ]
        return row_slots(obj, "points") + tubes
    if shape == "quasi_product":
        values = [
            (("slices", f, "values", j), "pair")
            for f, entry in enumerate(obj["slices"])
            for j in range(len(entry["values"]))
        ]
        return [(("levels", i), "pair") for i in range(len(obj["levels"]))] + values
    if shape == "tripod":
        return [(("tube",), "tube")] + row_slots(obj, "points")
    return [(("values", i), "pair") for i in range(len(obj["values"]))]


FAULTS = (
    # refused
    "entry_type", "bool", "width", "not_a_list", "exponent", "numerator", "domain", "off_grid", "finer",
    "duplicate",
    # read as the scalar readers read them
    "not_lowest", "huge_numerator", "negative_exponent", "reorder",
)


@hys.composite
def faulty(draw, shape: str) -> dict:
    """A shape's JSON object with one fault in one row, or none when it has no rows."""
    obj = draw(INSTANCES[shape])
    obj = copy.deepcopy(SHAPES[shape][3](obj))
    slots = row_slots(obj, shape)
    if not slots:
        return obj
    path, kind = draw(hys.sampled_from(slots))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    row = parent[path[-1]]
    k = obj.get("k", 0)
    pair = 2 * draw(hys.integers(0, len(row) // 2 - 1))
    fault = draw(hys.sampled_from(FAULTS))
    if fault == "entry_type":
        row[draw(hys.integers(0, len(row) - 1))] = draw(hys.sampled_from(["1", 1.5, None, [1], {}]))
    elif fault == "bool":
        row[draw(hys.integers(0, len(row) - 1))] = draw(hys.booleans())
    elif fault == "width":
        row = row[:-1] if draw(hys.booleans()) else row + [0]
    elif fault == "not_a_list":
        row = draw(hys.sampled_from([7, "row", None, {"a": 1}]))
    elif fault == "exponent":
        row[pair + 1] = draw(hys.one_of(hys.integers(129, 1 << 70), hys.integers(-(1 << 70), -129)))
    elif fault == "numerator":
        row[pair] = draw(hys.sampled_from([1, -1])) * ((1 << 127) + 2 * draw(hys.integers(0, 1 << 20)) + 1)
    elif fault == "domain":
        # past 4 for a point or a value, past the [-8, 8) cells for a tube
        edge = 4 if kind != "tube" else 8
        exp = draw(hys.integers(0, k + 2))
        past = draw(hys.one_of(hys.integers(1, 8 << exp), hys.just(1 << 100)))
        row[pair : pair + 2] = [(edge << exp) + past, exp] if draw(hys.booleans()) else [-(edge << exp) - past, exp]
    elif fault == "off_grid":
        row[pair : pair + 2] = [2 * draw(hys.integers(0, 100)) + 1, k + draw(hys.integers(1, 5))]
    elif fault == "finer":
        row[pair : pair + 2] = [2 * draw(hys.integers(0, 100)) + 1, draw(hys.integers(61, 128))]
    elif fault == "duplicate":
        other_path, _ = draw(hys.sampled_from([slot for slot in slots if slot[1] == kind]))
        other = obj
        for key in other_path:
            other = other[key]
        row = copy.deepcopy(other)
    elif fault in ("not_lowest", "huge_numerator"):
        num, exp = row[pair : pair + 2]
        top = 128 - exp
        shift = draw(hys.integers(1, top)) if fault == "not_lowest" else max(1, min(top, 64 + exp))
        row[pair : pair + 2] = [num << shift, exp + shift]
    elif fault == "negative_exponent":
        num, exp = row[pair : pair + 2]
        if exp == 0:
            # n = n' * 2^t  ->  [n', -t]
            t = (num & -num).bit_length() - 1 if num else draw(hys.integers(0, 128))
            row[pair : pair + 2] = [num >> t, -t]
    elif fault == "reorder":
        rows = parent if isinstance(parent, list) else None
        if rows is not None and kind == "tube" and len(rows) > 1:
            rows.reverse()
            rows.append(copy.deepcopy(rows[0]))
            return obj
    parent[path[-1]] = row
    return obj


def outcome(read, obj: dict):
    """("ok", the object read) or (the exception class, its message)."""
    try:
        return "ok", read(copy.deepcopy(obj))
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_writer_gives_the_oracles_bytes(shape):
    _, _, write, oracle_write = SHAPES[shape]

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(obj=INSTANCES[shape])
    def check(obj):
        assert canonical_json(write(obj)) == canonical_json(oracle_write(obj))

    check()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reader_accepts_and_refuses_as_the_oracle(shape):
    read, oracle_read, _, _ = SHAPES[shape]

    @hyp.settings(max_examples=250, deadline=None)
    @hyp.given(obj=faulty(shape))
    def check(obj):
        assert outcome(read, obj) == outcome(oracle_read, obj)

    check()


@pytest.mark.parametrize(
    "shape, obj",
    [
        # k = 0 is a scale, but no working scale for a tube
        ("tubes", {"k": 0, "tubes": [[0, 0, 0, 0]]}),
        ("tubes", {"k": 0, "tubes": []}),
        ("configuration", {"k": 0, "s": 0.5, "epsilon": 0.1, "points": [[0, 0, 0, 0]], "families": [
            {"point_index": 0, "tubes": [[0, 0, 0, 0]]}]}),
        # a repeated tube row, and rows given out of key order
        ("tubes", {"k": 2, "tubes": [[3, 2, 1, 0], [1, 0, 1, 1], [3, 2, 1, 0]]}),
        # exact reductions of rows past int64 and past the 2^-60 grid as written
        ("points", {"k": 2, "points": [[1 << 100, 100, 0, 0], [1 << 70, 128, 3, 2]]}),
        ("points", {"k": 2, "points": [[0, -128, 1, -2], [1, 0, 0, -128]]}),
        ("quasi_product", {"k": 4, "s": 0.5, "tau": 0.5, "levels": [[0, -128], [1 << 127, 127]], "slices": [
            {"level_index": 0, "values": [[1 << 90, 91]]}, {"level_index": 1, "values": [[1, -1]]}]}),
        # a level past +-8 first, which breaks the level order too
        ("quasi_product", {"k": 4, "s": 0.5, "tau": 0.5, "levels": [[9, 0], [1, 0]], "slices": [
            {"level_index": 0, "values": [[0, 0]]}, {"level_index": 1, "values": [[0, 0]]}]}),
        ("values", {"values": [[(1 << 126) + 1, 128], [1, -120], [0, -128]]}),
        ("tripod", {"k": 4, "tube": [1 << 80, 80, 0, 0], "points": [[1, 100, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]]}),
    ],
)
def test_edge_inputs_read_as_the_oracle_reads_them(shape, obj):
    read, oracle_read, _, _ = SHAPES[shape]
    assert outcome(read, obj) == outcome(oracle_read, obj)


def test_configuration_json_builds_no_scalar_rows(monkeypatch):
    # reading and writing go through the columns: no DyadicTube, no
    # DyadicRational and no families view
    cfg = furstenberg_product(8, 0.5)
    built: Counter = Counter()
    real_init = DyadicRational.__init__

    def counted_init(self, num, exp):
        built["DyadicRational"] += 1
        real_init(self, num, exp)

    monkeypatch.setattr(DyadicRational, "__init__", counted_init)
    monkeypatch.setattr(DyadicTube, "__post_init__", lambda self: built.update(["DyadicTube"]))
    monkeypatch.setattr(Configuration, "families", property(lambda self: built.update(["families"]) or ()))
    again = Configuration.from_json(json.loads(json.dumps(cfg.to_json())))
    assert built == Counter()
    assert again == cfg
