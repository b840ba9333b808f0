"""Exact dyadic arithmetic, scales, covering counts, and exponent fits.

Oracle for all rational arithmetic is fractions.Fraction.
"""
from __future__ import annotations

import math
from fractions import Fraction

import hypothesis as hyp
import hypothesis.strategies as hys
import pytest

from tubelab.core_grid import (
    EXP_BOUND,
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
