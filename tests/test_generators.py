"""Deterministic corpus constructors and their declared validations."""
from __future__ import annotations

import math

import numpy as np
import pytest

from tubelab.core_grid import DyadicRational, Scale, covering_number
from tubelab.delta_sets import DeltaSetParams, validate, validate_1d
from tubelab.errors import GeneratorError, ParseError
from tubelab.generators import (
    GeneratorSpec,
    Lcg,
    TripodInstance,
    cantor_grid,
    cantor_line,
    cantor_line_indices,
    collinear_tripod,
    furstenberg_product,
    grid,
    quasi_product,
    quasi_product_tubes,
    slope_net,
)
from tubelab.incidence import validate_configuration
from tubelab.additive import slice_multiplicity_violation
from tubelab.tubes import TubeFamily, pack_key, pack_key_array, tube_contains


def test_cantor_line_counts():
    assert len(cantor_line(6, 1.0)) == 64  # full 1-d grid
    assert len(cantor_line(6, 0.01)) == 1
    for k, s in ((6, 0.5), (8, 0.5), (9, 0.7), (10, 0.3)):
        assert len(cantor_line(k, s)) == 1 << math.floor(k * s)


def test_cantor_line_level_counts():
    k, s = 10, 0.6
    values = cantor_line(k, s)
    for j in range(k + 1):
        assert len({v.floor_to_int(j) for v in values}) == 1 << math.floor(j * s)


def test_cantor_line_validates():
    for k, s in ((8, 0.3), (8, 0.5), (10, 0.7)):
        rep = validate_1d(cantor_line(k, s), DeltaSetParams(Scale(k), s, 4.0))
        assert rep.valid


def test_cantor_line_indices_match():
    k, s = 8, 0.5
    idx = cantor_line_indices(k, s)
    assert idx == sorted(idx)
    assert [v.floor_to_int(k) for v in cantor_line(k, s)] == idx


def test_cantor_grid_is_product():
    k, s = 6, 0.5
    ps = cantor_grid(k, s)
    line = {v.floor_to_int(k) for v in cantor_line(k, s)}
    cells = {(p.x.floor_to_int(k), p.y.floor_to_int(k)) for p in ps.points}
    assert cells == {(i, j) for i in line for j in line}
    assert validate(ps, DeltaSetParams(Scale(k), 2 * s, 8.0)).valid


def test_grid_full():
    ps = grid(3)
    assert len(ps.points) == 64
    for j in range(4):
        assert covering_number(ps, Scale(j)) == 1 << (2 * j)


def test_slope_net_matches_cantor():
    assert slope_net(8, 0.5) == cantor_line(8, 0.5)


def test_furstenberg_structure():
    k, s = 8, 0.5
    cfg = furstenberg_product(k, s)
    assert cfg.scale.k == k
    assert validate_configuration(cfg) == []
    # spread hypothesis: few coarse cells, computed two ways
    coarse_cells = covering_number(cfg.points, Scale(k // 2))
    assert coarse_cells == 1 << (2 * (k // 4))
    assert coarse_cells <= 2.0 ** (k * (0.5 + cfg.epsilon))
    # every tube holds its point
    for p, fam in zip(cfg.points.points, cfg.families):
        assert all(tube_contains(t, p) for t in fam)


def test_furstenberg_incidence_mass():
    k, s = 8, 0.5
    cfg = furstenberg_product(k, s)
    incidences = sum(len(fam) for fam in cfg.families)
    assert incidences >= 0.25 * 2.0 ** (k * (1.0 + s))


def test_furstenberg_family_sizes():
    k, s = 8, 0.5
    cfg = furstenberg_product(k, s)
    base = 1 << math.floor(k * s)
    for fam in cfg.families:
        assert base <= len(fam) <= 3 * base


# the same cases as the incidence kernels' oracle test: past 2^18
# incidences a configuration holds millions of Python ints
@pytest.mark.parametrize(
    "k, s",
    [(k, s) for k in (4, 6, 8, 10, 12) for s in (0.3, 0.5, 0.75, 1.0) if k + math.floor(k * s) <= 18],
)
def test_furstenberg_keys_are_the_canonical_keys(k, s):
    # one array per point column against the canonical intercept cell
    # floor((y - a*x)/delta) of each point, in exact dyadic arithmetic
    cfg = furstenberg_product(k, s)
    slopes = cantor_line_indices(k, s)
    assert [fam.keys.tolist() for fam in cfg.families] == [
        [pack_key(a, (p.y - DyadicRational(a, k) * p.x).floor_to_int(k), k) for a in slopes]
        for p in cfg.points.points
    ]


def furstenberg_families_oracle(k: int, s: float) -> tuple[TubeFamily, ...]:
    """The families as furstenberg_product built them before it wrote one key
    column: a TubeFamily of Python ints per row of each point column."""
    line = cantor_line_indices(k, 0.5)
    slopes = np.array(cantor_line_indices(k, s), dtype=np.int64)
    ys = np.array(line, dtype=np.int64)[:, None]
    families = []
    for xi in line:
        column = pack_key_array(slopes, ((ys << k) - slopes * xi) >> k, k)
        families.extend(TubeFamily(Scale(k), tuple(row)) for row in column.tolist())
    return tuple(families)


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_furstenberg_families_match_the_per_point_build(k):
    cfg = furstenberg_product(k, 0.5)
    oracle = furstenberg_families_oracle(k, 0.5)
    assert cfg.families == oracle
    assert cfg.offsets.tolist() == [0, *np.cumsum([len(fam) for fam in oracle]).tolist()]
    assert not (cfg.keys.flags.writeable or cfg.offsets.flags.writeable)


def test_furstenberg_deterministic():
    a = furstenberg_product(8, 0.3)
    b = furstenberg_product(8, 0.3)
    assert a.to_json() == b.to_json()


def test_furstenberg_rejects_bad_input():
    with pytest.raises(GeneratorError):
        furstenberg_product(7, 0.5)  # odd k
    with pytest.raises(GeneratorError):
        furstenberg_product(8, 1.5)


def test_quasi_product_full_parameters():
    # slices live on the 8*delta sub-grid so tubes cross each slice once
    qp = quasi_product(6, 1.0, 1.0, seed=0)
    assert len(qp.levels) == 64
    assert all(len(sl) == 8 for sl in qp.slices)
    assert len(qp.points()) == 64 * 8


def test_quasi_product_deterministic_and_seeded():
    a = quasi_product(8, 0.5, 0.5, seed=5)
    b = quasi_product(8, 0.5, 0.5, seed=5)
    c = quasi_product(8, 0.5, 0.5, seed=6)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


def test_quasi_product_tubes_slice_clean():
    qp = quasi_product(8, 0.5, 0.5, seed=2)
    tubes = quasi_product_tubes(qp)
    assert len(tubes) > 0
    assert slice_multiplicity_violation(qp, tubes) is None


def test_collinear_tripod_instance():
    inst = collinear_tripod(8, seed=4)
    assert len(inst.points) == 3
    ys = [p.y for p in inst.points]
    assert len(set(ys)) == 3  # distinct levels
    for p in inst.points:
        assert tube_contains(inst.tube, p)


def test_collinear_tripod_seeding():
    a = collinear_tripod(8, seed=1)
    b = collinear_tripod(8, seed=1)
    c = collinear_tripod(8, seed=2)
    assert a == b
    assert a != c


def test_collinear_tripod_json_roundtrip():
    inst = collinear_tripod(8, seed=1)
    assert TripodInstance.from_json(inst.to_json()) == inst


@pytest.mark.parametrize(
    "change",
    [
        {"k": "eight"},
        {"tube": [1, 0, 0]},
        {"tube": 7},
        {"points": 5},
        {"points": [[0, 0, 0, 0]] * 2},
        {"points": [[0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        {"points": [["a", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        {"tube": [3, 1 << 26, 0, 0]},  # exponents past the +-128 envelope
        {"points": [[0, 0, 1, -(1 << 26)], [0, 0, 0, 0], [0, 0, 0, 0]]},
    ],
)
def test_collinear_tripod_from_json_rejects_malformed(change):
    obj = {**collinear_tripod(8, seed=1).to_json(), **change}
    with pytest.raises(ParseError):
        TripodInstance.from_json(obj)


def test_generator_spec_build_and_validation():
    spec = GeneratorSpec("grid", {"k": 3})
    assert spec.build().points == grid(3).points
    with pytest.raises(ParseError):
        GeneratorSpec("nope", {})
    with pytest.raises(ParseError):
        GeneratorSpec("cantor_grid", {"k": 4})  # missing s
    with pytest.raises(ParseError):
        GeneratorSpec("grid", {"k": 4, "bogus": 1})


def test_lcg_deterministic_stream():
    a, b = Lcg(42), Lcg(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = Lcg(43)
    assert c.next_u64() != Lcg(42).next_u64()
    draws = [Lcg(7).below(10) for _ in range(1)]
    assert all(0 <= d < 10 for d in draws)
    with pytest.raises(GeneratorError):
        Lcg(0).below(0)
