"""Ball-count validation, minimal dyadic-cover content, and subset extraction.

The content oracle is an independent recursive minimization over quadtree
cuts; the validation oracle is a full scan over grid centers.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from tubelab.core_grid import DyadicPoint, DyadicRational, PointSet, Scale, _distance_dtype
from tubelab.delta_sets import (
    DeltaSetParams,
    _cell_bound_holds,
    _validate_coords,
    extract,
    validate,
    validate_1d,
)
from tubelab.errors import ValidationError
from tubelab.generators import cantor_grid, cantor_line, grid, quasi_product


def _grid_set(k: int, cells: set[tuple[int, int]]) -> PointSet:
    pts = tuple(DyadicPoint.of(i, k, j, k) for i, j in sorted(cells))
    return PointSet(Scale(k), pts)


grid_cells = hys.sets(
    hys.tuples(hys.integers(0, 15), hys.integers(0, 15)), min_size=1, max_size=40
)


# --- validate ---


def test_validate_two_values_1d():
    params = DeltaSetParams(Scale(4), 1.0, 1.0)
    values = [DyadicRational.integer(0), DyadicRational(1, 1)]
    rep = validate_1d(values, params)
    assert rep.valid
    assert rep.worst_ratio <= 1.0
    assert rep.effective_constant == pytest.approx(2.0)


def test_validate_full_grid():
    ps = grid(4)
    assert validate(ps, DeltaSetParams(Scale(4), 2.0, 16.0)).valid
    bad = validate(ps, DeltaSetParams(Scale(4), 1.0, 1.0))
    assert not bad.valid
    assert bad.kind == "ball"
    # the unit ball alone already gives ratio 2^k / 2^k*C = 16
    assert bad.worst_ratio >= 16.0
    assert bad.witness["count"] > bad.witness["allowed"]


def test_validate_cantor_grid():
    # product of two half-dimensional lines: planar exponent is 2s = 1
    ps = cantor_grid(8, 0.5)
    rep = validate(ps, DeltaSetParams(Scale(8), 1.0, 8.0))
    assert rep.valid


def test_validate_reports_separation_failure():
    pts = (DyadicPoint.of(0, 0, 0, 0), DyadicPoint.of(1, 6, 0, 0))
    rep = validate(PointSet(Scale(4), pts), DeltaSetParams(Scale(4), 1.0, 4.0))
    assert not rep.valid
    assert rep.kind == "separation"
    assert rep.worst_ratio == math.inf


def _first_close_pair(coords, k: int) -> tuple[int, int] | None:
    """Brute force in Fraction arithmetic: the lexicographically first
    (i, j), i < j, of two coordinates less than delta apart."""
    exact = [[Fraction(v.num, 1 << v.exp) for v in c] for c in coords]
    delta2 = Fraction(1, 1 << 2 * k)
    for i, p in enumerate(exact):
        for j in range(i + 1, len(exact)):
            if sum((a - b) ** 2 for a, b in zip(p, exact[j])) < delta2:
                return i, j
    return None


def _assert_separation_matches_brute_force(rep, coords, k: int) -> None:
    pair = _first_close_pair(coords, k)
    if pair is None:
        assert (rep.valid, rep.kind) == (True, "ok")
        return
    i, j = pair
    assert (rep.valid, rep.kind, rep.worst_ratio) == (False, "separation", math.inf)
    assert rep.witness == {"pair": [[v.pair() for v in coords[i]], [v.pair() for v in coords[j]]]}


@hys.composite
def _scale_and_numerators(draw, dim: int, bound: int):
    """A scale k in 1..6 and 2 to 25 rows of dim numerators over 2^(k+2),
    spaced by a quarter, half, one or two deltas, inside [-bound, bound]:
    close pairs are common at the finer spacings and impossible at the
    coarser ones (C = 1e9 leaves separation the only failure)."""
    k = draw(hys.integers(1, 6))
    step = draw(hys.sampled_from([1, 2, 4, 8]))
    reach = min(6, (bound << (k + 2)) // step)
    rows = draw(
        hys.lists(
            hys.tuples(*[hys.integers(-reach, reach)] * dim), min_size=2, max_size=25, unique=True
        )
    )
    return k, [tuple(step * n for n in row) for row in rows]


@hyp.settings(deadline=None)
@hyp.given(_scale_and_numerators(2, 4))
def test_validate_separation_matches_brute_force(case):
    k, rows = case
    ps = PointSet(Scale(k), tuple(DyadicPoint.of(x, k + 2, y, k + 2) for x, y in rows))
    rep = validate(ps, DeltaSetParams(Scale(k), 1.0, 1e9))
    _assert_separation_matches_brute_force(rep, [(p.x, p.y) for p in ps.points], k)


@hyp.settings(deadline=None)
@hyp.given(_scale_and_numerators(1, 8))
def test_validate_1d_separation_matches_brute_force_unsorted(case):
    # the values stay in the order drawn, not sorted
    k, rows = case
    values = [DyadicRational(n, k + 2) for (n,) in rows]
    rep = validate_1d(values, DeltaSetParams(Scale(k), 1.0, 1e9))
    _assert_separation_matches_brute_force(rep, [(v,) for v in values], k)


def test_validate_rejects_empty_and_scale_mismatch():
    with pytest.raises(ValidationError):
        validate(PointSet(Scale(4), ()), DeltaSetParams(Scale(4), 1.0, 1.0))
    with pytest.raises(ValidationError):
        validate(grid(2), DeltaSetParams(Scale(4), 1.0, 1.0))


@pytest.mark.parametrize(
    "k, s, C", [(4, 300.0, 1.0), (4, math.inf, 1.0), (4, 1.0, math.inf), (0, 1e308, 1.0), (4, 2.0, 1e308)]
)
def test_params_refuse_thresholds_past_float_range(k, s, C):
    # the largest threshold C * 2^(max(k, 1) s) must be a finite float
    with pytest.raises(ValidationError, match="overflows a float"):
        DeltaSetParams(Scale(k), s, C)
    DeltaSetParams(Scale(4), 255.0, 8.0)  # 8 * 2^(4 * 255) = 2^1023 is a float


def _universal_center_worst(ps: PointSet, s: float, C: float) -> float:
    """Worst ratio over all grid centers and dyadic radii below 1, exact."""
    k = ps.scale.k
    coords = [(Fraction(p.x.num, 1 << p.x.exp), Fraction(p.y.num, 1 << p.y.exp)) for p in ps.points]
    worst = 0.0
    for j in range(k, 0, -1):
        r = Fraction(1, 1 << j)
        allowed = C * 2.0 ** ((k - j) * s)
        for cx in range(1 << k):
            for cy in range(1 << k):
                center = (Fraction(cx, 1 << k), Fraction(cy, 1 << k))
                count = sum(
                    1
                    for x, y in coords
                    if (x - center[0]) ** 2 + (y - center[1]) ** 2 < r * r
                )
                worst = max(worst, count / allowed)
    return worst


def test_validate_covers_universal_centers_up_to_doubling():
    # data-centered checking weakens arbitrary centers by at most 2^s
    ps = cantor_grid(4, 0.5)
    s, C = 1.0, 8.0
    rep = validate(ps, DeltaSetParams(Scale(4), s, C))
    universal = _universal_center_worst(ps, s, C)
    assert universal <= 2.0**s * max(rep.worst_ratio, 1e-12) + 1e-9


@hyp.given(grid_cells, hys.floats(0.25, 2.0), hys.floats(1.0, 8.0))
def test_validate_monotone_in_constant(cells, s, c):
    ps = _grid_set(4, cells)
    rep = validate(ps, DeltaSetParams(Scale(4), s, c))
    rep2 = validate(ps, DeltaSetParams(Scale(4), s, 2.0 * c))
    if rep.valid:
        assert rep2.valid
    assert rep2.worst_ratio == pytest.approx(rep.worst_ratio / 2.0)


@hyp.given(grid_cells)
def test_validate_data_center_counts_exact(cells):
    # cross-check the int64 ball counter against Fraction arithmetic
    ps = _grid_set(4, cells)
    s, C = 1.0, 1.0
    rep = validate(ps, DeltaSetParams(Scale(4), s, C))
    coords = [
        (Fraction(p.x.num, 1 << p.x.exp), Fraction(p.y.num, 1 << p.y.exp))
        for p in ps.points
    ]
    worst = 0.0
    for j in range(4, -1, -1):
        r = Fraction(1, 1 << j)
        allowed = C * 2.0 ** ((4 - j) * s)
        for cx, cy in coords:
            count = sum(
                1 for x, y in coords if (x - cx) ** 2 + (y - cy) ** 2 < r * r
            )
            worst = max(worst, count / allowed)
    assert rep.worst_ratio == pytest.approx(worst)


def test_validate_1d_cantor_line():
    values = cantor_line(8, 0.5)
    rep = validate_1d(values, DeltaSetParams(Scale(8), 0.5, 4.0))
    assert rep.valid


def _per_radius_oracle(coords, params: DeltaSetParams) -> tuple[float, str, dict]:
    """The ball counter as one numpy pass per radius and center, scanned in
    (radius ascending, center) order with a strict >: (worst_ratio, kind,
    witness) as validation reported them before centers were blocked."""
    k = params.scale.k
    m_exp = max(k, max(v.exp for c in coords for v in c))
    axes = [
        np.array([c[d].num << (m_exp - c[d].exp) for c in coords], dtype=np.int64)
        for d in range(len(coords[0]))
    ]
    worst_ratio, witness = 0.0, {}
    for j in range(k, -1, -1):
        r2 = 1 << 2 * (m_exp - j)
        threshold = params.C * (2.0 ** ((k - j) * params.s))
        for i in range(len(coords)):
            d2 = sum((ax - ax[i]) ** 2 for ax in axes)
            count = int(np.count_nonzero(d2 < r2))
            if count / threshold > worst_ratio:
                worst_ratio = count / threshold
                witness = {
                    "center": [v.pair() for v in coords[i]],
                    "radius_k": j,
                    "count": count,
                    "allowed": threshold,
                }
    return worst_ratio, "ok" if worst_ratio <= 1.0 else "ball", witness


def _assert_matches_oracle(rep, coords, params: DeltaSetParams) -> None:
    assert (rep.worst_ratio, rep.kind, rep.witness) == _per_radius_oracle(coords, params)


# the worst ratio 3/2 is reached both at radius 2^-(k-1) around a later
# center and at radius 2^-(k-2) around an earlier one; only a scan in
# (radius, center) order picks the former
_ORDER_TIE_2D = _grid_set(4, {(4, 12), (9, 12), (9, 13), (9, 14), (11, 9), (11, 14), (12, 14), (15, 4)})
_ORDER_TIE_1D = [DyadicRational(c, 5) for c in (0, 10, 11, 13, 14, 15, 16, 21)]


@pytest.mark.parametrize(
    "points, s, C, kind",
    [
        (cantor_grid(6, 0.5), 1.0, 8.0, "ok"),  # passes, 64 centers in four blocks
        (grid(4), 1.0, 1.0, "ball"),  # fails
        (grid(3), 2.0, 4.0, "ok"),  # counts grow like the threshold
        (_grid_set(4, {(0, 0), (15, 15)}), 1.0, 1.0, "ok"),  # two centers tie at delta
        (_grid_set(4, {(0, 0), (15, 15)}), 1.0, 0.5, "ball"),  # the same tie, failing
        (_grid_set(5, {(i, 3) for i in range(0, 32, 2)}), 1.0, 0.5, "ball"),  # ties across radii
        (_ORDER_TIE_2D, 1.0, 1.0, "ball"),
    ],
)
def test_validate_blocked_counts_match_per_radius_oracle(points, s, C, kind):
    params = DeltaSetParams(points.scale, s, C)
    coords = [(p.x, p.y) for p in points.points]
    rep = validate(points, params)
    assert rep.kind == kind
    _assert_matches_oracle(rep, coords, params)


def test_validate_tie_break_is_radius_then_center():
    rep = validate(_ORDER_TIE_2D, DeltaSetParams(Scale(4), 1.0, 1.0))
    assert rep.witness == {"center": [[9, 4], [13, 4]], "radius_k": 3, "count": 3, "allowed": 2.0}
    rep = validate_1d(_ORDER_TIE_1D, DeltaSetParams(Scale(5), 1.0, 1.0))
    assert rep.witness == {"center": [[7, 4]], "radius_k": 4, "count": 3, "allowed": 2.0}


@pytest.mark.parametrize(
    "values, k, s, C, kind",
    [
        (cantor_line(8, 0.5), 8, 0.5, 4.0, "ok"),
        (cantor_line(8, 0.5), 8, 0.5, 1.0, "ball"),
        ([DyadicRational(i, 6) for i in range(40)], 6, 1.0, 1.0, "ball"),  # ties
        ([DyadicRational(-7, 0), DyadicRational(7, 0), DyadicRational(-1, 3)], 8, 0.5, 1.0, "ok"),
        (_ORDER_TIE_1D, 5, 1.0, 1.0, "ball"),
    ],
)
def test_validate_1d_blocked_counts_match_per_radius_oracle(values, k, s, C, kind):
    params = DeltaSetParams(Scale(k), s, C)
    rep = validate_1d(values, params)
    assert rep.kind == kind
    _assert_matches_oracle(rep, [(v,) for v in values], params)


@hyp.given(
    grid_cells,
    hys.sampled_from([0.5, 1.0, 2.0]),
    hys.sampled_from([0.5, 1.0, 2.0, 1e300]),
)
def test_validate_blocked_counts_match_oracle_on_random_sets(cells, s, C):
    # integer counts against thresholds C * 2^(t s) tie often at s = 1, 2;
    # at C = 1e300 every ball passes
    ps = _grid_set(4, cells)
    params = DeltaSetParams(Scale(4), s, C)
    _assert_matches_oracle(validate(ps, params), [(p.x, p.y) for p in ps.points], params)


@hyp.given(
    hys.sets(hys.integers(-40, 40), min_size=1, max_size=45),
    hys.integers(5, 7),
    hys.sampled_from([0.25, 0.5, 1.0]),
)
def test_validate_1d_blocked_counts_match_oracle_on_random_sets(cells, k, s):
    values = [DyadicRational(i, k) for i in sorted(cells)]
    params = DeltaSetParams(Scale(k), s, 1.0)
    _assert_matches_oracle(validate_1d(values, params), [(v,) for v in values], params)


# --- the sorted-row kernel: distance dtype, radius clip, open balls ---


def test_distance_dtype_is_int32_below_int32_max():
    # squared radii are clipped to d2_max + 1, which must fit as well; the
    # energy's difference keys use the same rule
    assert _distance_dtype(0) is np.int32
    assert _distance_dtype(2**31 - 2) is np.int32
    assert _distance_dtype(2**31 - 1) is np.int64
    assert _distance_dtype(2**62) is np.int64


def _span_set_1d(k: int, span: int) -> list[DyadicRational]:
    """Two values `span` units of 2^-k apart and a few close to each end."""
    lo = -(span // 2)
    nums = [lo, lo + 3, lo + 4, lo + 9, lo + span - 7, lo + span - 2, lo + span]
    return [DyadicRational(n, k) for n in nums]


def _span_set_2d(k: int, sx: int, sy: int) -> PointSet:
    """Opposite corners of an sx x sy box of 2^-k cells and points near them."""
    x0, y0 = -(sx // 2), -(sy // 2)
    cells = [(0, 0), (2, 1), (5, 0), (sx, sy), (sx - 3, sy), (sx - 1, sy - 4), (sx // 2, sy // 2)]
    return PointSet(Scale(k), tuple(DyadicPoint.of(x0 + i, k, y0 + j, k) for i, j in cells))


@pytest.mark.parametrize(
    "span, dtype",
    [(46340, np.int32), (46341, np.int64)],  # 46340^2 < 2^31 - 1 < 46341^2
)
@pytest.mark.parametrize("s, C, kind", [(1.0, 1.0, "ok"), (0.25, 1.0, "ball")])
def test_validate_1d_at_the_int32_switch_matches_oracle(span, dtype, s, C, kind):
    values = _span_set_1d(13, span)
    assert _distance_dtype(span**2) is dtype
    params = DeltaSetParams(Scale(13), s, C)
    rep = validate_1d(values, params)
    # a wrapped squared distance would put the far end in the delta-ball
    assert rep.kind == kind
    _assert_matches_oracle(rep, [(v,) for v in values], params)


@pytest.mark.parametrize(
    "sx, sy, dtype",
    # the sums of two squares nearest 2^31 - 1 from below and above
    [(45994, 5660, np.int32), (32768, 32768, np.int64)],
)
@pytest.mark.parametrize("s, C, kind", [(1.0, 1.0, "ok"), (0.25, 1.0, "ball")])
def test_validate_at_the_int32_switch_matches_oracle(sx, sy, dtype, s, C, kind):
    assert sx * sx + sy * sy in (2**31 - 12, 2**31)
    assert _distance_dtype(sx * sx + sy * sy) is dtype
    ps = _span_set_2d(13, sx, sy)
    params = DeltaSetParams(Scale(13), s, C)
    rep = validate(ps, params)
    assert rep.kind == kind
    _assert_matches_oracle(rep, [(p.x, p.y) for p in ps.points], params)


# 2^-20 coordinates a little over delta = 2^-8 apart: the squared radii up
# to 2^40 do not fit in int32, the squared distances do
_FINE_1D = [DyadicRational(n, 20) for n in (1, 4099, 8199, 12301, 16407, 24601)]
_FINE_2D = PointSet(
    Scale(8),
    tuple(
        DyadicPoint.of(x, 20, y, 20)
        for x, y in ((1, 3), (4099, 5), (1, 4101), (8201, 8193), (12301, -3), (-4095, 1))
    ),
)


@pytest.mark.parametrize("s, C, kind", [(1.0, 2.0, "ok"), (0.25, 1.0, "ball"), (0.5, 0.5, "ball")])
def test_validate_fine_small_span_sets_clip_radii(s, C, kind):
    params = DeltaSetParams(Scale(8), s, C)
    rep = validate_1d(_FINE_1D, params)
    assert rep.kind == kind
    _assert_matches_oracle(rep, [(v,) for v in _FINE_1D], params)
    rep = validate(_FINE_2D, params)
    assert rep.kind == kind
    _assert_matches_oracle(rep, [(p.x, p.y) for p in _FINE_2D.points], params)


def test_validate_fine_small_span_separation():
    values = [DyadicRational(n, 20) for n in (5, 9000, 13200, 9001)]
    rep = validate_1d(values, DeltaSetParams(Scale(8), 1.0, 1.0))
    assert rep.witness == {"pair": [[[1125, 17]], [[9001, 20]]]}


def test_validate_balls_are_open():
    # axis neighbours sit exactly on the radius delta = 1/2, diagonal ones
    # inside the unit ball
    ps = _grid_set(1, {(0, 0), (0, 1), (1, 0), (1, 1)})
    params = DeltaSetParams(Scale(1), 2.0, 1.0)
    rep = validate(ps, params)
    # the delta-ball holds its center alone; the unit ball holds all four
    assert (rep.kind, rep.witness["radius_k"], rep.witness["count"]) == ("ok", 1, 1)
    _assert_matches_oracle(rep, [(p.x, p.y) for p in ps.points], params)
    # values 1/8 apart are outside each other's delta-balls, and the
    # radius-2^-2 ball around 1/8 holds 0, 1/8 and 2/8 but not 3/8
    values = [DyadicRational(n, 3) for n in (0, 1, 2, 4, 8)]
    params = DeltaSetParams(Scale(3), 1.0, 1.0)
    rep = validate_1d(values, params)
    assert rep.witness == {"center": [[1, 3]], "radius_k": 2, "count": 3, "allowed": 2.0}
    _assert_matches_oracle(rep, [(v,) for v in values], params)


def test_separation_witness_is_lowest_partner_not_nearest():
    # 20 separated points fill the first block and spill into the second;
    # the first close pair starts at index 20, whose lowest close partner
    # (21, 3/4 delta away) is farther than its next one (22, 1/4 delta)
    k = 6
    spread = [(4 * i - 40, 0) for i in range(20)]
    rows = spread + [(0, 8), (3, 8), (-1, 8), (40, 40)]
    ps = PointSet(Scale(k), tuple(DyadicPoint.of(x, k + 2, y, k + 2) for x, y in rows))
    rep = validate(ps, DeltaSetParams(Scale(k), 1.0, 1e9))
    assert rep.witness == {"pair": [[[0, 0], [1, 5]], [[3, 8], [1, 5]]]}
    _assert_separation_matches_brute_force(rep, [(p.x, p.y) for p in ps.points], k)
    # the same in 1-d: 25/64 is 3/4 delta from 103/256, 1/4 delta from 99/256
    values = [DyadicRational(x, k + 2) for x, _ in spread + [(100, 0), (103, 0), (99, 0)]]
    rep = validate_1d(values, DeltaSetParams(Scale(k), 1.0, 1e9))
    assert rep.witness == {"pair": [[[25, 6]], [[103, 8]]]}
    _assert_separation_matches_brute_force(rep, [(v,) for v in values], k)


# --- the cell-count bound that decides valid sets without ball counts ---


@hys.composite
def _bound_cases(draw) -> tuple[list[list[int]], int, DeltaSetParams]:
    """Sets in dims 1 and 2 at k <= 6, numerators on the 2^-m grid for m
    from k to 27 around a signed center, every coordinate in [-4, 4]:
    clusters within a few cells of one radius, where near and coincident
    points are common, or boxes of a grid of spacing delta or 2 delta,
    whose block counts meet an integer C 2^(ts) exactly. C lies at or just
    around the exact worst ratio, is a small integer, or is so large that
    only separation can fail."""
    dim, k = draw(hys.sampled_from([1, 2])), draw(hys.integers(1, 6))
    m = draw(hys.integers(k, 27))
    s = draw(hys.sampled_from([0.5, 1.0, 2.0]))
    center = draw(hys.integers(-(1 << m), 1 << m))
    if draw(hys.booleans()):
        cell = 1 << (m - k + draw(hys.integers(0, k)))
        offset = hys.integers(-3 * cell, 3 * cell) | hys.integers(-2, 2)
        rows = draw(hys.lists(hys.tuples(*[offset] * dim), min_size=1, max_size=40))
    else:
        spacing = draw(hys.integers(0, 1))
        step = 1 << (m - k + spacing)
        side = draw(hys.integers(1, min(6 if dim == 2 else 30, 3 << (k - spacing))))
        rows = list(itertools.product(range(0, side * step, step), repeat=dim))
    columns = [[center + row[d] for row in rows] for d in range(dim)]
    worst = _validate_coords(columns, m, DeltaSetParams(Scale(k), s, 1.0)).worst_ratio
    near = [worst, worst * (1 + 2.0**-40), worst * (1 - 2.0**-40)] if math.isfinite(worst) else []
    C = draw(hys.sampled_from([*near, 1.0, 2.0, 3.0, 9.0, 1e9]))
    return columns, m, DeltaSetParams(Scale(k), s, C)


@hyp.settings(max_examples=400, deadline=None)
@hyp.given(_bound_cases())
def test_cell_bound_never_accepts_an_invalid_set(case):
    columns, m, params = case
    accepted = _cell_bound_holds(columns, m, params)
    hyp.event(f"accepted: {accepted}")
    if accepted:
        assert _validate_coords(columns, m, params).valid


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_bound_accepts_a_block_ratio_of_exactly_one(dim):
    # a full delta-grid: each 3^dim block of r-cells holds 3^dim (r/delta)^dim
    # points, exactly C (r/delta)^s at C = 3^dim and s = dim. Just below that
    # C the bound declines, though every ball count is still allowed
    k = 4
    columns = [list(col) for col in zip(*itertools.product(range(1 << k), repeat=dim))]
    params = DeltaSetParams(Scale(k), float(dim), float(3**dim))
    assert _cell_bound_holds(columns, k, params)
    assert _validate_coords(columns, k, params).valid
    tight = DeltaSetParams(Scale(k), float(dim), math.nextafter(3.0**dim, 0.0))
    assert not _cell_bound_holds(columns, k, tight)
    assert _validate_coords(columns, k, tight).valid


def test_cell_bound_proves_separation_below_the_grid():
    # on the 2^-(k+2) grid, points a quarter delta apart fail separation
    # and share a delta-block; points 2 delta apart share none. Points
    # exactly delta apart are separated, but their blocks meet, so the
    # bound leaves them to the ball counts
    k = 3
    params = DeltaSetParams(Scale(k), 1.0, 1e9)
    assert not _cell_bound_holds([[0, 1, 40]], k + 2, params)
    assert _validate_coords([[0, 1, 40]], k + 2, params).kind == "separation"
    assert _cell_bound_holds([[0, 8, 40]], k + 2, params)
    assert not _cell_bound_holds([[0, 4, 40]], k + 2, params)
    assert _validate_coords([[0, 4, 40]], k + 2, params).valid
    # an empty set, or one finer than 2^-27, is left to the ball counts,
    # which refuse it
    assert not _cell_bound_holds([[]], k, params)
    assert not _cell_bound_holds([[1]], 28, params)


# --- discrete content, as extract reports it ---


def _content_oracle(ps: PointSet, s: float) -> float:
    """Recursive minimum of sum(side^s) over quadtree cuts."""
    k = ps.scale.k
    cells = {(p.x.floor_to_int(k), p.y.floor_to_int(k)) for p in ps.points}

    def best(level: int, cx: int, cy: int) -> float:
        occupied = any(
            (ix >> (k - level), iy >> (k - level)) == (cx, cy) for ix, iy in cells
        )
        if not occupied:
            return 0.0
        side = 2.0 ** (-level * s)
        if level == k:
            return side
        split = sum(
            best(level + 1, 2 * cx + dx, 2 * cy + dy)
            for dx in (0, 1)
            for dy in (0, 1)
        )
        return min(side, split)

    return best(0, 0, 0)


def test_content_single_point():
    ps = PointSet(Scale(6), (DyadicPoint.of(3, 6, 5, 6),))
    for s in (0.5, 1.0, 2.0):
        assert extract(ps, s).kappa == pytest.approx(2.0 ** (-6 * s))


def test_content_full_grid():
    ps = grid(3)
    assert extract(ps, 1.0).kappa == pytest.approx(1.0)
    assert extract(ps, 2.0).kappa == pytest.approx(1.0)


def test_content_two_far_cells():
    ps = PointSet(Scale(4), (DyadicPoint.of(0, 0, 0, 0), DyadicPoint.of(1, 1, 0, 0)))
    assert extract(ps, 1.0).kappa == pytest.approx(2.0 / 16.0)


@hyp.given(grid_cells, hys.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0]))
@hyp.settings(deadline=None)
def test_content_matches_cut_oracle(cells, s):
    ps = _grid_set(4, cells)
    assert extract(ps, s).kappa == pytest.approx(_content_oracle(ps, s))


@hyp.given(grid_cells, grid_cells, hys.sampled_from([0.5, 1.0, 2.0]))
@hyp.settings(deadline=None)
def test_content_monotone_subadditive(cells_a, cells_b, s):
    ka = extract(_grid_set(4, cells_a), s).kappa
    kb = extract(_grid_set(4, cells_b), s).kappa
    ku = extract(_grid_set(4, cells_a | cells_b), s).kappa
    assert ku + 1e-12 >= ka  # monotone under inclusion
    assert ku <= ka + kb + 1e-12  # subadditive under union


# --- extract ---


def test_extract_full_grid():
    ps = grid(5)
    rep = extract(ps, 1.0)
    assert validate(rep.points, rep.params).valid
    # extract's certified size: 0.25 * kappa * delta^-s
    assert len(rep.points.points) >= 0.25 * rep.kappa * 2.0 ** 5 > 0
    assert rep.params.C == 18.0


def test_extract_single_point():
    ps = PointSet(Scale(6), (DyadicPoint.of(9, 6, 2, 6),))
    rep = extract(ps, 1.0)
    assert rep.points.points == ps.points


def test_extract_cantor_grid():
    ps = cantor_grid(8, 0.75)
    rep = extract(ps, 0.5)
    assert validate(rep.points, rep.params).valid
    assert len(rep.points.points) >= 0.1 * rep.kappa * 2.0 ** (8 * 0.5)


@hyp.given(grid_cells, hys.sampled_from([0.5, 1.0, 1.5, 2.0]))
@hyp.settings(deadline=None)
def test_extract_self_consistent(cells, s):
    ps = _grid_set(4, cells)
    rep = extract(ps, s)
    assert rep.points.points  # nonempty
    assert set(rep.points.points) <= set(ps.points)
    assert validate(rep.points, rep.params).valid
    assert len(rep.points.points) >= 0.25 * rep.kappa * 2.0 ** (4 * s) - 1e-9


def test_extract_rejects_bad_exponent():
    with pytest.raises(ValidationError):
        extract(grid(2), 0.0)
    with pytest.raises(ValidationError):
        extract(grid(2), 2.5)


def test_extract_rejects_empty_input():
    for ps in (PointSet(Scale(4), ()), PointSet.from_columns(Scale(4), [], [], 4)):
        with pytest.raises(ValidationError, match="empty input"):
            extract(ps, 1.0)


# --- extract against the dict walk it replaced ---


def _extract_oracle(ps: PointSet, s: float) -> tuple[PointSet, float, float, tuple[int, int]]:
    """extract as dicts of tuple cells per level and a recursive allocator
    over DyadicPoints: (points, kappa, kappa_selected, parity)."""
    k = ps.scale.k

    def levels_of(points):
        levels = []
        for j in range(k + 1):
            cells: dict[tuple[int, int], list[DyadicPoint]] = {}
            for p in points:
                cells.setdefault((p.x.floor_to_int(j), p.y.floor_to_int(j)), []).append(p)
            levels.append(cells)
        return levels

    def children(j, cell, levels):
        out = []
        for dx in (0, 1):
            for dy in (0, 1):
                c = (2 * cell[0] + dx, 2 * cell[1] + dy)
                if c in levels[j + 1]:
                    out.append(c)
        return out

    def content_dp(levels):
        m = [dict() for _ in range(k + 1)]
        for cell in levels[k]:
            m[k][cell] = 2.0 ** (-k * s)
        for j in range(k - 1, -1, -1):
            for cell in levels[j]:
                child_sum = 0.0
                for c in children(j, cell, levels):
                    child_sum += m[j + 1][c]
                m[j][cell] = min(2.0 ** (-j * s), child_sum)
        return m

    def content(points):
        levels = levels_of(points)
        m = content_dp(levels)
        return sum(m[0][cell] for cell in sorted(levels[0]))

    kappa = content(ps.points)
    best = None
    for parity in ((0, 0), (0, 1), (1, 0), (1, 1)):
        members = [p for p in ps.points if (p.x.floor_to_int(k) & 1, p.y.floor_to_int(k) & 1) == parity]
        if members:
            kap = content(members)
            if best is None or kap > best[0]:
                best = (kap, parity, members)
    kappa_sel, parity, members = best

    levels = levels_of(members)
    m = content_dp(levels)
    cap = [dict() for _ in range(k + 1)]
    for cell in levels[k]:
        cap[k][cell] = 1
    for j in range(k - 1, -1, -1):
        a_j = math.ceil(2.0 ** ((k - j) * s))
        for cell in levels[j]:
            cap[j][cell] = min(a_j, sum(cap[j + 1][c] for c in children(j, cell, levels)))
    chosen = []

    def allocate(j, cell, budget):
        if budget <= 0:
            return
        if j == k:
            chosen.append(cell)
            return
        kids = sorted(children(j, cell, levels), key=lambda c: (-m[j + 1][c], c))
        remaining = budget
        for c in kids:
            give = min(cap[j + 1][c], remaining)
            allocate(j + 1, c, give)
            remaining -= give
            if remaining == 0:
                break

    for cell in sorted(levels[0]):
        allocate(0, cell, cap[0][cell])
    picked = sorted((min(levels[k][cell], key=lambda p: (p.x, p.y)) for cell in chosen), key=lambda p: (p.x, p.y))
    return PointSet(ps.scale, picked), kappa, kappa_sel, parity


def _assert_extract_matches_oracle(ps: PointSet, s: float) -> None:
    rep = extract(ps, s)
    points, kappa, kappa_sel, parity = _extract_oracle(ps, s)
    # PointSet equality compares the grid exponent and both columns
    assert rep.points == points
    assert (rep.kappa, rep.kappa_selected, rep.parity) == (kappa, kappa_sel, parity)
    assert rep.params == DeltaSetParams(ps.scale, s, 18.0)


@hys.composite
def _extract_cases(draw):
    """A scale k in 0..5 and up to 60 distinct points on the grid
    2^-(k+f), f in 0..2, inside [-r, r)^2 for r a few cells, the unit
    square's width or the whole [-4, 4) range; s anywhere in (0, 2]."""
    k, f = draw(hys.integers(0, 5)), draw(hys.integers(0, 2))
    reach = draw(hys.sampled_from([2, 1 << (k + f), 4 << (k + f)]))
    rows = draw(
        hys.sets(hys.tuples(hys.integers(-reach, reach - 1), hys.integers(-reach, reach - 1)), min_size=1, max_size=60)
    )
    s = draw(hys.one_of(hys.sampled_from([0.5, 1.0, 1.5, 2.0]), hys.floats(0.05, 2.0)))
    return PointSet(Scale(k), tuple(DyadicPoint.of(x, k + f, y, k + f) for x, y in sorted(rows))), s


@hyp.settings(deadline=None)
@hyp.given(_extract_cases())
def test_extract_matches_dict_walk_oracle(case):
    _assert_extract_matches_oracle(*case)


def test_extract_matches_dict_walk_oracle_on_criterion_05_corpus():
    from test_acceptance import _extraction_corpus

    for _, ps, s in _extraction_corpus():
        _assert_extract_matches_oracle(ps, s)


def test_extract_builds_no_point_objects(monkeypatch):
    # extract reads the point columns only: no DyadicPoint, no points view
    inputs = [(grid(5), 1.0), (cantor_grid(6, 0.5), 0.7), (_grid_set(4, {(0, 0), (3, 9), (15, 2)}), 2.0)]
    qp = quasi_product(8, 0.5, 0.5, seed=1)
    inputs.append((qp.point_set, 1.0))
    built = Counter()
    init, points = DyadicPoint.__init__, PointSet.__dict__["points"].func

    def counted(self, x, y):
        built["DyadicPoint"] += 1
        init(self, x, y)

    def view(ps):
        built["PointSet.points"] += 1
        return points(ps)

    monkeypatch.setattr(DyadicPoint, "__init__", counted)
    monkeypatch.setattr(PointSet, "points", property(view))
    for ps, s in inputs:
        assert len(extract(ps, s).points) > 0
    assert built == Counter()
    # the guard sees a view when one is built
    assert len(grid(1).points) == 4
    assert built == {"PointSet.points": 1, "DyadicPoint": 4}
