"""Exact dyadic arithmetic, scales, covering counts, and exponent fits.

Oracle for all rational arithmetic is fractions.Fraction.
"""
from __future__ import annotations

import copy
import inspect
import json
import math
import pickle
from fractions import Fraction
from typing import Callable

import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from tubelab import core_grid
from tubelab.core_grid import (
    EXP_BOUND,
    ONE,
    ZERO,
    DyadicPoint,
    DyadicRational,
    PointSet,
    Scale,
    check_value_bound,
    covering_number,
    fit_exponent,
    grid_objects,
    read_pairs,
)
from tubelab.errors import DomainError, ParseError, ScaleError, ValidationError


def frac(d: DyadicRational) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


# values stay inside the documented envelope: |v| <= 8, exp <= 20
dyadics = hys.integers(min_value=0, max_value=20).flatmap(
    lambda e: hys.builds(
        DyadicRational,
        hys.integers(min_value=-(8 << e), max_value=8 << e),
        hys.just(e),
    )
)

coords = hys.integers(min_value=0, max_value=12).flatmap(
    lambda e: hys.builds(
        DyadicRational,
        hys.integers(min_value=-(4 << e), max_value=4 << e),
        hys.just(e),
    )
)

points = hys.builds(DyadicPoint, coords, coords)


@hyp.given(dyadics)
def test_canonical_form(d):
    # canonical: odd numerator unless the exponent is already zero
    assert d.num % 2 != 0 or d.exp == 0
    assert frac(DyadicRational(d.num, d.exp)) == frac(d)


@hyp.given(dyadics, dyadics)
def test_add_matches_fraction(a, b):
    assert frac(a + b) == frac(a) + frac(b)


@hyp.given(dyadics, dyadics)
def test_sub_matches_fraction(a, b):
    assert frac(a - b) == frac(a) - frac(b)


@hyp.given(dyadics, dyadics)
def test_mul_matches_fraction(a, b):
    assert frac(a * b) == frac(a) * frac(b)


@hyp.given(dyadics)
def test_neg_matches_fraction(a):
    assert frac(-a) == -frac(a)


@hyp.given(dyadics, dyadics)
def test_order_matches_fraction(a, b):
    assert (a < b) == (frac(a) < frac(b))
    assert (a <= b) == (frac(a) <= frac(b))
    assert (a == b) == (frac(a) == frac(b))


@hyp.given(dyadics, dyadics)
def test_equal_values_equal_hash(a, b):
    if frac(a) == frac(b):
        assert hash(a) == hash(b)


@hyp.given(dyadics, hys.integers(min_value=0, max_value=20))
def test_floor_to_int(a, k):
    assert a.floor_to_int(k) == math.floor(frac(a) * (1 << k))


@hyp.given(dyadics)
def test_as_float_exact(a):
    # numerators fit in 24 bits here, so the double conversion is exact
    assert a.as_float() == float(frac(a))


@hyp.given(hys.integers(min_value=-8, max_value=8))
def test_integer_roundtrip(n):
    d = DyadicRational.integer(n)
    assert (d.num, d.exp) == (n, 0)
    assert frac(d) == n


def _read_pair(row: object) -> DyadicRational:
    [value] = grid_objects(*read_pairs([row]), DyadicRational)
    return value


@hyp.given(dyadics)
def test_pair_roundtrip(a):
    assert _read_pair(a.pair()) == a


@pytest.mark.parametrize("pair", [[1, "2"], [1.0, 2], [False, 0], [1], [1, 2, 3], 5, None])
def test_pair_rejects_non_integers(pair):
    with pytest.raises(ParseError):
        _read_pair(pair)


def test_pair_exponent_envelope():
    # every exponent within +-EXP_BOUND loads; one past it is a ParseError
    assert EXP_BOUND == 128
    assert _read_pair([1, EXP_BOUND]) == DyadicRational(1, 128)
    assert _read_pair([0, -EXP_BOUND]) == DyadicRational.integer(0)
    for exp in (EXP_BOUND + 1, -EXP_BOUND - 1, 1 << 26, -(1 << 40)):
        with pytest.raises(ParseError, match="exponent"):
            _read_pair([1, exp])
    with pytest.raises(ParseError, match="exponent"):
        PointSet.from_json({"k": 2, "points": [[1, 1 << 26, 0, 0]]})
    with pytest.raises(ParseError, match="exponent"):
        PointSet.from_json({"k": 2, "points": [[1, 2, 0, -(1 << 26)]]})


@pytest.mark.parametrize(
    "points", [[["a", 0, 0, 0]], [[0, 0, 0.5, 0]], [[0, 0, 0, None]], [[0, 0, 0]], [3], {"0": 1}]
)
def test_point_set_json_rejects_non_integer_rows(points):
    with pytest.raises(ParseError):
        PointSet.from_json({"k": 4, "points": points})


def test_scale_bounds():
    Scale(0)
    Scale(20)
    with pytest.raises(ScaleError):
        Scale(-1)
    with pytest.raises(ScaleError):
        Scale(21)


def test_scale_even_and_coarse():
    Scale(8).require_even()
    with pytest.raises(ScaleError):
        Scale(7).require_even()


def test_value_bound():
    check_value_bound(DyadicRational.integer(8))
    check_value_bound(DyadicRational.integer(-8))
    with pytest.raises(DomainError):
        check_value_bound(DyadicRational.integer(9))
    with pytest.raises(DomainError):
        check_value_bound(DyadicRational.integer(-9))


def test_point_set_rejects_duplicates():
    p = DyadicPoint.of(1, 2, 1, 2)
    with pytest.raises(ValidationError):
        PointSet(Scale(2), (p, p))


def _full_grid(k: int) -> PointSet:
    pts = tuple(
        DyadicPoint.of(i, k, j, k) for i in range(1 << k) for j in range(1 << k)
    )
    return PointSet(Scale(k), pts)


def test_covering_number_full_grid():
    ps = _full_grid(3)
    for j in range(4):
        assert covering_number(ps, Scale(j)) == 1 << (2 * j)
    with pytest.raises(ScaleError):
        covering_number(ps, Scale(4))


def test_covering_number_half_open_boundary():
    # 1/2 belongs to the right cell [1/2, 1), so two cells at k=1
    ps = PointSet(Scale(1), (DyadicPoint.of(0, 0, 0, 0), DyadicPoint.of(1, 1, 0, 0)))
    assert covering_number(ps, Scale(1)) == 2
    assert covering_number(ps, Scale(0)) == 1


@hyp.given(hys.lists(points, min_size=1, max_size=40, unique=True))
def test_covering_monotone_in_scale(pts):
    ps = PointSet(Scale(12), tuple(pts))
    counts = [covering_number(ps, Scale(j)) for j in range(13)]
    for lo, hi in zip(counts, counts[1:]):
        assert lo <= hi  # refining never merges cells
        assert hi <= 4 * lo  # one cell splits into at most 4 children
    assert counts[12] <= len(pts)


def test_fit_exponent_exact_line():
    fit = fit_exponent([(k, 1 << k) for k in (4, 6, 8, 10)])
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0)
    assert fit.max_residual == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_with_prefactor():
    fit = fit_exponent([(Scale(k), 3 << (2 * k)) for k in (2, 5, 9)])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(math.log2(3.0))
    assert fit.max_residual < 1e-9


def test_fit_exponent_needs_two_scales():
    with pytest.raises(ValidationError):
        fit_exponent([(4, 16), (4, 32)])
    with pytest.raises(ValidationError):
        fit_exponent([(4, 0), (5, 1)])


def test_fit_to_json_keys():
    fit = fit_exponent([(2, 4), (3, 8)])
    payload = fit.to_json()
    assert set(payload) >= {"samples", "slope", "intercept", "max_residual"}


def _samples() -> dict[str, Callable[[], object]]:
    """A builder of one sample instance of each record class, by name;
    two calls build equal instances."""
    from tubelab import additive, delta_sets, generators, incidence, manifest, projections, tubes

    ps = lambda: generators.grid(3)  # noqa: E731
    cfg = lambda: generators.furstenberg_product(4, 0.5)  # noqa: E731
    net = lambda: projections.DirectionNet.uniform(Scale(3))  # noqa: E731
    graph = lambda: additive.PairGraph((ONE,), (ONE, ZERO), ((0, 0), (0, 1)), 1.0)  # noqa: E731
    return {
        "Scale": lambda: Scale(3),
        "DyadicRational": lambda: DyadicRational(-3, 4),
        "DyadicPoint": lambda: DyadicPoint(DyadicRational(1, 2), DyadicRational(-5, 3)),
        "DyadicTube": lambda: tubes.DyadicTube(Scale(4), 3, -5),
        "PointSet": ps,
        "ExponentFit": lambda: fit_exponent([(2, 4), (3, 8)]),
        "DeltaSetParams": lambda: delta_sets.DeltaSetParams(Scale(3), 0.5, 8.0),
        "ValidationReport": lambda: delta_sets.validate(ps(), delta_sets.DeltaSetParams(Scale(3), 2.0, 8.0)),
        "ExtractReport": lambda: delta_sets.extract(ps(), 1.0),
        "TripodInstance": lambda: generators.collinear_tripod(4),
        "GeneratorSpec": lambda: generators.GeneratorSpec("grid", {"k": 3}),
        "Configuration": cfg,
        "IncidenceReport": lambda: incidence.incidence_report(cfg()),
        "CauchySchwarzReport": lambda: incidence.cauchy_schwarz_bound(cfg()),
        "DichotomyReport": lambda: incidence.dichotomy_check(cfg(), 0.25),
        "ExperimentManifest": lambda: manifest.ExperimentManifest("grid", k_range=(3, 4), analyses=("validate",)),
        "_Outcome": lambda: manifest._Outcome(True, {"valid": True}),
        "DirectionNet": net,
        "ProjectionSweep": lambda: projections.sweep(ps(), net(), Scale(3)),
        "ProjectionEnergy": lambda: projections.projection_energy(ps(), net(), 1.0),
        "Window": lambda: tubes.Window.of_ints(0, 1, -1, 1),
        "TubeFamily": lambda: tubes.TubeFamily.from_tubes(Scale(3), [tubes.DyadicTube(Scale(3), 1, -2)]),
        "QuasiProduct": lambda: generators.quasi_product(6, 0.5, 0.4, 1),
        "PairGraph": graph,
        "BsgReport": lambda: additive.bsg_refine(graph()),
        "PlunneckeReport": lambda: additive.plunnecke_corollary_check([ONE], [ONE, ZERO], Scale(2)),
    }


# the fields each record leaves out of its repr
_HIDDEN = {"PointSet": {"x", "y"}, "Configuration": {"keys", "offsets"}, "TubeFamily": {"keys"}}


def test_every_record_class_has_a_sample():
    from tubelab import additive, delta_sets, generators, incidence, manifest, projections, tubes

    modules = (core_grid, additive, delta_sets, generators, incidence, manifest, projections, tubes)
    records = {
        name
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "_fields" in vars(obj)
    }
    assert records == set(_samples())


@pytest.mark.parametrize("name", sorted(_samples()))
def test_record_behaves_as_a_frozen_dataclass(name):
    make = _samples()[name]
    a, b = make(), make()
    cls = type(a)
    fields = tuple(vars(cls)["__annotations__"])
    assert cls.__name__ == name and cls._fields == fields
    # refused assignment and deletion, of fields and of anything else
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(b, fields[0]))
        with pytest.raises(AttributeError):
            delattr(a, attr)
    # equal instances compare and hash alike; a dict or array field leaves the record unhashable
    assert a == b and not a != b and a is not b
    try:
        hash_a = hash(a)
    except TypeError:
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash_a == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields if f not in _HIDDEN.get(name, ()))
    if name != "DyadicRational":  # which keeps its own repr, Dy(num/2^exp)
        assert repr(a) == f"{name}({shown})"
    if "__init__" in vars(cls) and not hasattr(vars(cls)["__init__"], "__signature__"):
        return  # PointSet and the three scalar classes keep their own constructors
    # the constructor takes the fields by position or keyword, in order
    assert list(inspect.signature(cls).parameters) == list(fields)
    values = {f: getattr(a, f) for f in fields}
    assert cls(**values) == a == cls(*values.values())
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, extra=None)


def test_record_defaults_and_order():
    from tubelab.manifest import ExperimentManifest, _Outcome

    a, b = _Outcome(True, {}), _Outcome(True, {})
    assert a.row == b.row == {} and a.row is not b.row  # default_factory: a fresh dict each time
    assert (a.printed, a.csv) == (None, None)
    m = ExperimentManifest("grid", k_range=(3,), analyses=("validate",))
    assert (m.generator_params, m.input_path, m.slack, m.seed, m.out) == ({}, None, 0.25, 0, "out")
    assert m.generator_params is not ExperimentManifest("grid", k_range=(3,), analyses=("validate",)).generator_params
    with pytest.raises(TypeError):
        _Outcome(True)
    # records have no order
    with pytest.raises(TypeError):
        Scale(2) < Scale(3)
    assert Scale(3) != 3
    assert core_grid.ExponentFit((), 1.0, 0.0, 0.0)._asdict() == {
        "samples": (), "slope": 1.0, "intercept": 0.0, "max_residual": 0.0
    }


@pytest.mark.parametrize("annotation", ["np.ndarray", np.ndarray])
def test_record_columns_are_read_only_int64_arrays(annotation):
    # a field annotated np.ndarray, as a string or as the type, is a column
    Box = core_grid.record(type("Box", (), {"__annotations__": {"scale": Scale, "keys": annotation}}))
    listed = Box(Scale(2), [3, 1, 2])
    assert listed.keys.dtype == np.int64 and listed.keys.flags.owndata and not listed.keys.flags.writeable
    assert listed.keys.tolist() == [3, 1, 2]
    # an int64 array passed in is adopted, not copied, and made read-only
    keys = np.array([3, 1, 2], dtype=np.int64)
    adopted = Box(Scale(2), keys)
    assert adopted.keys is keys and not keys.flags.writeable
    # equal by value; one changed entry, a longer column or another scale is unequal
    assert adopted == listed == Box(Scale(2), np.array([3, 1, 2], dtype=np.int32)) and not adopted != listed
    for other in (Box(Scale(2), [3, 1, 5]), Box(Scale(2), [3, 1, 2, 4]), Box(Scale(3), keys)):
        assert adopted != other and not adopted == other
    with pytest.raises(TypeError):
        hash(adopted)
    assert repr(adopted) == "Box(scale=Scale(k=2))"


def _columns(value: object) -> list[np.ndarray]:
    """The int64 array fields of a record and of the records it holds."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype == np.int64 else []
    return [c for name in getattr(value, "_fields", ()) for c in _columns(getattr(value, name))]


# how many int64 columns each record holds, its own and its point set's
_COLUMN_COUNTS = {
    "PointSet": 2, "ExtractReport": 2, "Configuration": 4, "ProjectionSweep": 2, "TubeFamily": 1, "QuasiProduct": 2
}
_COPIES = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)), "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(_COPIES))
@pytest.mark.parametrize("name", sorted(_samples()))
def test_record_copies_are_checked_like_originals(name, how):
    a = _samples()[name]()
    b = _COPIES[how](a)
    assert type(b) is type(a) and b == a
    # the copy ran the constructor: its columns are read-only like the original's
    assert len(_columns(b)) == len(_columns(a)) == _COLUMN_COUNTS.get(name, 0)
    assert not any(c.flags.writeable for c in _columns(b))


def test_unpickling_runs_the_constructors_checks():
    from tubelab.tubes import TubeFamily

    # a family built round its constructor, with keys out of order, is refused on load
    broken = TubeFamily.__new__(TubeFamily)
    broken.__dict__.update(scale=Scale(3), keys=np.array([3, 2, 1]))
    with pytest.raises(ValidationError):
        pickle.loads(pickle.dumps(broken))


# each plain-JSON record sample's canonical_json text, compacted
_PLAIN_JSON = {
    "BsgReport": (
        '{"a_kept": [0], "b_kept": [0, 1], "c_exponent": 0.0, "component_exponents": [0.0, 0.0, 0.0, 0.0], '
        '"flags": {"edge_count_ok": true, "k_at_most_one": true, "k_too_large": false, "restricted_sum_ok": false}, '
        '"rounds": 1}'
    ),
    "DichotomyReport": (
        '{"coarse_branch": true, "e_coarse": 0.646240625180289, "e_tubes": 1.175109929535273, "k": 4, '
        '"margins": [0.42510992953527293, 0.396240625180289], "passed": true, "s": 0.5, "slack": 0.25, '
        '"tube_branch": true}'
    ),
    "ExponentFit": '{"intercept": 0.0, "max_residual": 0.0, "samples": [[2, 4], [3, 8]], "slope": 1.0}',
    "GeneratorSpec": '{"kind": "grid", "params": {"k": 3}}',
    "IncidenceReport": (
        '{"coarse_ball_count": 4, "coarse_tube_count": 6, "e_coarse": 0.646240625180289, '
        '"e_tubes": 1.175109929535273, "identity_ok": true, "incidence_count": 64, "k": 4, '
        '"mt_histogram": [[2, 4], [4, 2]], "n_points": 16, "nt_histogram": [[1, 8], [2, 4], [3, 8], [4, 6]], '
        '"tube_count": 26}'
    ),
    "PlunneckeReport": (
        '{"a_cells": 1, "b_cells": 2, "bound": 16.0, "c0": 2.0, "diff_bb": 3, "ok": true, "sum_ab": 2, "sum_bb": 3}'
    ),
}


@pytest.mark.parametrize("name", sorted(_PLAIN_JSON))
def test_plain_json_records_write_their_fields(name):
    from tubelab.manifest import canonical_json

    sample = _samples()[name]()
    assert type(sample).to_json is core_grid._asdict
    assert canonical_json(sample.to_json()) == canonical_json(json.loads(_PLAIN_JSON[name]))
