"""Exact dyadic arithmetic, scales, covering counts, and exponent fits.

Oracle for all rational arithmetic is fractions.Fraction.
"""
from __future__ import annotations

import inspect
import math
from fractions import Fraction
from typing import Callable

import hypothesis as hyp
import hypothesis.strategies as hys
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
