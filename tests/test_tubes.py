"""Dyadic tubes: exact membership, duality, nesting, and coarse covers.

Brute-force enumeration over all parameter cells is the oracle wherever the
scale makes it affordable.
"""
from __future__ import annotations

import random

import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from tubelab.additive import QuasiProduct, slice_incidences
from tubelab.core_grid import DyadicPoint, DyadicRational, PointSet, Scale
from tubelab.errors import (
    DomainError,
    DyadicOverflowError,
    ParseError,
    ScaleError,
    TubelabError,
    ValidationError,
)
from tubelab.generators import cantor_line_indices, quasi_product_tubes
from tubelab.tubes import (
    UNIT_WINDOW,
    DyadicTube,
    TubeFamily,
    Window,
    canonical_tube_through,
    children,
    cover_by_coarse_tubes,
    intercept_window_array,
    key_bits,
    keys_through,
    pack_key,
    pack_key_array,
    parent,
    parent_key_array,
    separating_point,
    slice_interval,
    tube_contains,
    tubes_through,
    unpack_key,
    unpack_key_array,
)

ZERO = DyadicRational.integer(0)
ONE = DyadicRational.integer(1)

# dyadics in [-2, 2] so that products and sums stay inside the value bound
small_dyadics = hys.integers(min_value=0, max_value=8).flatmap(
    lambda e: hys.builds(
        DyadicRational,
        hys.integers(min_value=-(2 << e), max_value=2 << e),
        hys.just(e),
    )
)


@hyp.given(small_dyadics, small_dyadics, small_dyadics)
def test_duality_involution(a, b, c):
    # d = a*c + b puts (c, d) on the line dual to (a, b); the parameter
    # cell holding (-c, d) then generates a tube through (a, b)
    d = a * c + b
    k = 8
    tube = DyadicTube.from_indices(Scale(k), (-c).floor_to_int(k), d.floor_to_int(k))
    assert tube_contains(tube, DyadicPoint(a, b))


def test_tube_contains_worked_examples():
    t = DyadicTube.from_indices(Scale(2), 0, 0)  # cell [0,1/4) x [0,1/4)
    assert tube_contains(t, DyadicPoint.of(1, 1, 1, 3))  # (1/2, 1/8)
    assert not tube_contains(t, DyadicPoint.of(0, 0, 1, 2))  # (0, 1/4) excluded
    # vertical-axis slice is exactly the intercept cell
    assert tube_contains(t, DyadicPoint.of(0, 0, 0, 0))
    assert tube_contains(t, DyadicPoint.of(0, 0, 3, 4))


@hyp.given(small_dyadics, small_dyadics, small_dyadics)
def test_membership_cell_consistency(slope, intercept, x):
    # the exact line parameters land in one cell, and that cell's tube
    # contains every point of the line (here: the point at abscissa x)
    k = 7
    y = slope * x + intercept
    hyp.assume(abs(y.num) <= 4 << y.exp)  # keep the point inside [-4, 4]^2
    tube = DyadicTube.from_indices(
        Scale(k), slope.floor_to_int(k), intercept.floor_to_int(k)
    )
    assert tube_contains(tube, DyadicPoint(x, y))


def test_parent_worked_example():
    t = DyadicTube.from_values(Scale(3), DyadicRational(3, 3), DyadicRational(5, 3))
    up = parent(t, Scale(1))
    assert up.a == ZERO and up.b == DyadicRational(1, 1)
    assert parent(t, t.scale) == t


@hyp.given(
    hys.integers(min_value=0, max_value=63),
    hys.integers(min_value=0, max_value=63),
)
def test_parent_tower(a_idx, b_idx):
    t = DyadicTube.from_indices(Scale(6), a_idx, b_idx)
    assert parent(parent(t, Scale(3)), Scale(1)) == parent(t, Scale(1))


def test_children_counts():
    t = DyadicTube.from_indices(Scale(2), 1, 2)
    assert len(children(t, t.scale)) == 1
    assert next(iter(children(t, t.scale))) == t
    assert len(children(t, Scale(3))) == 4
    assert len(children(t, Scale(5))) == 4**3
    for c in children(t, Scale(4)):
        assert parent(c, t.scale) == t


def _tube_points(t: DyadicTube, rng: random.Random, n: int) -> list[DyadicPoint]:
    """Sample points of t on vertical slices, exact membership re-checked."""
    k = t.scale.k
    half = DyadicRational(1, k + 1)
    out: list[DyadicPoint] = []
    xs = [DyadicRational(rng.randrange(-(2 << k), 2 << k), k) for _ in range(8)]
    while len(out) < n:
        x0 = rng.choice(xs)
        lo, hi, _closed = slice_interval(t, x0)
        steps = (hi - lo).floor_to_int(k + 1)
        y = lo + DyadicRational(rng.randrange(steps + 1), 0) * half
        if abs(y.num) > (4 << y.exp):
            continue
        p = DyadicPoint(x0, y)
        if tube_contains(t, p):
            out.append(p)
    return out


def test_child_subset_biconditional_sampled():
    # scaled-down version of the exhaustive acceptance check
    rng = random.Random(7)
    fine, coarse = Scale(6), Scale(3)
    for _ in range(60):
        t1 = DyadicTube.from_indices(
            fine, rng.randrange(0, 64), rng.randrange(0, 64)
        )
        t2 = DyadicTube.from_indices(
            coarse, rng.randrange(0, 8), rng.randrange(0, 8)
        )
        if parent(t1, coarse) == t2:
            for p in _tube_points(t1, rng, 40):
                assert tube_contains(t2, p)
            assert separating_point(t1, t2) is None
        else:
            w = separating_point(t1, t2)
            assert w is not None
            assert tube_contains(t1, w) and not tube_contains(t2, w)


def test_tubes_through_matches_brute_force_worked_example():
    p = DyadicPoint.of(1, 1, 1, 2)  # (1/2, 1/4)
    scale = Scale(4)
    fam = tubes_through(p, scale)
    oracle = {
        (a, b)
        for a in range(16)
        for b in range(16)
        if tube_contains(DyadicTube.from_indices(scale, a, b), p)
    }
    assert set(fam.index_pairs()) == oracle
    assert len(oracle) == len(fam) > 0


@hyp.given(
    hys.integers(min_value=0, max_value=31),
    hys.integers(min_value=0, max_value=31),
)
def test_tubes_through_matches_brute_force(xn, yn):
    p = DyadicPoint(DyadicRational(xn, 5), DyadicRational(yn, 5))
    scale = Scale(5)
    fam = tubes_through(p, scale)
    oracle = {
        (a, b)
        for a in range(32)
        for b in range(32)
        if tube_contains(DyadicTube.from_indices(scale, a, b), p)
    }
    assert set(fam.index_pairs()) == oracle


@hyp.given(
    hys.integers(min_value=-128, max_value=127),
    hys.integers(min_value=-128, max_value=127),
)
def test_slope_multiplicity_at_most_four(xn, yn):
    # points of B(0,1) meet at most 4 intercept cells per slope cell,
    # over the full intercept range
    p = DyadicPoint(DyadicRational(xn, 7), DyadicRational(yn, 7))
    hyp.assume(xn * xn + yn * yn <= 1 << 14)
    window = Window.of_ints(0, 1, -2, 2)
    fam = tubes_through(p, Scale(6), window)
    per_slope: dict[int, int] = {}
    for a_idx, _b_idx in fam.index_pairs():
        per_slope[a_idx] = per_slope.get(a_idx, 0) + 1
    assert per_slope and max(per_slope.values()) <= 4
    n_slopes = len(per_slope)
    assert n_slopes <= len(fam) <= 4 * n_slopes


def test_empty_window_rejected():
    with pytest.raises(ValidationError):
        Window.of_ints(1, 1, 0, 1)


@hyp.given(
    hys.integers(min_value=1, max_value=10).flatmap(
        lambda k: hys.tuples(
            hys.just(k),
            hys.integers(min_value=-(8 << k), max_value=(8 << k) - 1),
            hys.integers(min_value=-(8 << k), max_value=(8 << k) - 1),
        )
    )
)
def test_pack_key_roundtrip(args):
    k, a_idx, b_idx = args
    assert unpack_key(pack_key(a_idx, b_idx, k), k) == (a_idx, b_idx)


@pytest.mark.parametrize("k", [1, 20])
def test_codec_round_trip_at_the_domain_edges(k):
    edge = 1 << (k + 3)  # cells run over [-edge, edge): the [-8, 8) domain
    cells = [(a, b) for a in (-edge, -1, 0, edge - 1) for b in (-edge, 0, 1, edge - 1)]
    keys = [pack_key(a, b, k) for a, b in cells]
    assert [unpack_key(key, k) for key in keys] == cells
    assert list(TubeFamily(Scale(k), keys).index_pairs()) == cells
    assert keys == sorted(keys)  # cells are listed in lexicographic order
    assert min(keys) == 0 and max(keys) < 1 << (2 * k + 8)
    for a, b in [(edge, 0), (0, edge), (-edge - 1, 0), (0, -edge - 1)]:
        with pytest.raises(DomainError):
            pack_key(a, b, k)
        with pytest.raises(DomainError):
            DyadicTube(Scale(k), a, b)
    assert DyadicTube(Scale(k), edge - 1, -edge).key() == pack_key(edge - 1, -edge, k)


@pytest.mark.parametrize("k", [1, 2, 12, 20])
def test_array_codec_matches_the_scalar_codec(k):
    edge = 1 << (k + 3)
    side = np.array([-edge, -edge + 1, -3, -1, 0, 1, 5, edge - 2, edge - 1], dtype=np.int64)
    a, b = np.meshgrid(side, side, indexing="ij")
    keys = pack_key_array(a, b, k)
    assert keys.tolist() == [[pack_key(int(x), int(y), k) for y in side] for x in side]
    assert 0 <= keys.min() and keys.max() < 1 << key_bits(k)
    got_a, got_b = unpack_key_array(keys, k)
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    # broadcasting: one slope row against an intercept column
    assert np.array_equal(pack_key_array(side, side[:, None], k), keys.T)
    for coarse_k in range(1, k + 1):
        expected = [
            parent(DyadicTube(Scale(k), int(x), int(y)), Scale(coarse_k)).key()
            for x, y in zip(a.ravel(), b.ravel())
        ]
        assert parent_key_array(keys.ravel(), k, coarse_k).tolist() == expected


def test_pack_key_array_checks_the_domain_once():
    k = 3
    edge = 1 << (k + 3)
    a = np.array([0, 1, edge, -edge - 1], dtype=np.int64)
    b = np.array([0, 1, 0, 0], dtype=np.int64)
    with pytest.raises(DomainError, match=rf"tube cell \({edge}, 0\) at k=3"):
        pack_key_array(a, b, k)
    assert pack_key_array(a[:0], b[:0], k).size == 0


def _intercept_window(x_num: int, y_num: int, m: int, k: int, a_idx: int) -> tuple[int, int]:
    """Inclusive range [lo, hi] of the intercept cells whose tube at slope
    cell a_idx contains (X/2^m, Y/2^m): the membership inequalities of the
    module docstring solved for B, one point and one slope at a time."""
    u = (y_num << k) - a_idx * x_num
    if x_num >= 0:
        return ((u - x_num - (1 << m)) >> m) + 1, u >> m
    return ((u - (1 << m)) >> m) + 1, (u - x_num - 1) >> m


@hyp.given(
    hys.integers(min_value=0, max_value=8),
    hys.integers(min_value=-(4 << 8), max_value=4 << 8),
    hys.integers(min_value=-(4 << 8), max_value=4 << 8),
    hys.integers(min_value=-(8 << 3), max_value=(8 << 3) - 1),
)
def test_scalar_window_is_the_membership_inequality(m, x_num, y_num, a_idx):
    # the oracle below, checked against tube_contains over every intercept
    k = 3
    hyp.assume(abs(x_num) <= 4 << m and abs(y_num) <= 4 << m)
    p = DyadicPoint(DyadicRational(x_num, m), DyadicRational(y_num, m))
    lo, hi = _intercept_window(x_num, y_num, m, k, a_idx)
    inside = [b for b in range(-(8 << k), 8 << k) if tube_contains(DyadicTube(Scale(k), a_idx, b), p)]
    assert inside == [b for b in range(max(lo, -(8 << k)), min(hi + 1, 8 << k))]


@hyp.given(
    hys.integers(min_value=1, max_value=20).flatmap(
        lambda k: hys.integers(min_value=0, max_value=56 - k).flatmap(
            lambda m: hys.tuples(
                hys.just(k),
                hys.just(m),
                hys.integers(min_value=-(4 << m), max_value=4 << m),
                hys.integers(min_value=-(4 << m), max_value=4 << m),
                hys.lists(hys.integers(min_value=-(8 << k), max_value=(8 << k) - 1), min_size=1, max_size=8),
            )
        )
    )
)
def test_intercept_window_array_matches_the_scalar_window(args):
    # exact up to the envelope m + k = 56, for either sign of x
    k, m, x_num, y_num, slopes = args
    n = len(slopes)
    lo, hi = intercept_window_array(
        np.full(n, x_num), np.full(n, y_num), np.full(n, m), k, np.array(slopes, dtype=np.int64)
    )
    assert list(zip(lo.tolist(), hi.tolist())) == [
        _intercept_window(x_num, y_num, m, k, a_idx) for a_idx in slopes
    ]


def _through(p: DyadicPoint, k: int, slopes) -> list[int]:
    """Keys of the tubes at the slope cells that contain p, by testing every
    intercept cell of the domain."""
    edge = 8 << k
    return [
        pack_key(a, b, k)
        for a in slopes
        for b in range(-edge, edge)
        if tube_contains(DyadicTube(Scale(k), a, b), p)
    ]


def _one_point(p: DyadicPoint, k: int) -> QuasiProduct:
    return QuasiProduct.from_slices(Scale(k), 0.5, 0.5, (p.y,), ((p.x,),))


def _hit_keys(p: DyadicPoint, k: int) -> list[int]:
    family = TubeFamily(Scale(k), _through(p, k, range(16, 20)))
    keys, _, _ = slice_incidences(_one_point(p, k), family)
    return keys.tolist()


def _coarse_cover(p: DyadicPoint, k: int) -> list[int]:
    # fine tubes at k through p at slopes [1, 1 + 2^-2), covered at k - 2
    coarse = Scale(k - 2)
    point_cover = TubeFamily.from_tubes(coarse, [canonical_tube_through(p, ONE, coarse)])
    fine = TubeFamily(Scale(k), _through(p, k, range(1 << k, (1 << k) + 4)))
    return cover_by_coarse_tubes(fine, PointSet(Scale(k), (p,)), ONE, coarse, point_cover).keys.tolist()


def _shifted_cover(p: DyadicPoint, k: int) -> list[int]:
    # the coarse point cover's intercept shifted by up to 5 coarse steps
    [key] = _through(p, k - 2, [1 << (k - 2)])[-1:]
    a, b = unpack_key(key, k - 2)
    return [pack_key(a, b + shift, k - 2) for shift in range(-5, 6)]


# each tube entry point at k = 4, and the same keys by brute force; where x >
# 0 the canonical tube is the last one through p at its slope cell
_ENTRY_POINTS = {
    "keys_through": (
        lambda p, k: keys_through(p, k, range(16, 20)),
        lambda p, k: _through(p, k, range(16, 20)),
    ),
    "tubes_through": (
        lambda p, k: tubes_through(p, Scale(k), Window.of_ints(1, 2, -8, 8)).keys.tolist(),
        lambda p, k: _through(p, k, range(16, 32)),
    ),
    "canonical_tube_through": (
        lambda p, k: [canonical_tube_through(p, ONE, Scale(k)).key()],
        lambda p, k: _through(p, k, [16])[-1:],
    ),
    "cover_by_coarse_tubes": (_coarse_cover, _shifted_cover),
    "quasi_product_tubes": (
        lambda p, k: quasi_product_tubes(_one_point(p, k)).keys.tolist(),
        lambda p, k: [_through(p, k, [(1 << k) + a])[-1] for a in cantor_line_indices(k, 0.5)],
    ),
    "slice_incidences": (_hit_keys, lambda p, k: _through(p, k, range(16, 20))),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_tube_entry_points_refuse_points_past_the_int64_window(entry):
    # exact at m + k = 56, refused at 57 with the membership envelope's error
    call, oracle = _ENTRY_POINTS[entry]
    k = 4
    exact = DyadicPoint(DyadicRational(1, 56 - k), DyadicRational(-3, 5))
    assert call(exact, k) == oracle(exact, k) != []
    fine = DyadicPoint(DyadicRational(1, 57 - k), DyadicRational(-3, 5))
    message = r"at k=4 needs coordinates on the 2\^-52 grid or coarser, got 2\^-53"
    with pytest.raises(DyadicOverflowError, match=message):
        call(fine, k)


def test_tube_cells_are_validated_once():
    with pytest.raises(ScaleError):
        DyadicTube(Scale(0), 0, 0)
    for bad in (1.0, True, "1", None):
        with pytest.raises(ParseError):
            DyadicTube(Scale(4), bad, 0)
        with pytest.raises(ParseError):
            DyadicTube.from_indices(Scale(4), 0, bad)
    with pytest.raises(ParseError):  # 1/8 is off the 2^-2 grid
        DyadicTube.from_values(Scale(2), DyadicRational(1, 3), ZERO)
    t = DyadicTube(Scale(3), -5, 7)
    assert (t.a, t.b) == (DyadicRational(-5, 3), DyadicRational(7, 3))
    assert DyadicTube.from_values(Scale(3), t.a, t.b) == t


def test_pack_key_rejects_overflow():
    with pytest.raises(TubelabError):
        pack_key(8 << 4, 0, 4)


def test_pack_key_orders_lexicographically():
    k = 5
    assert pack_key(1, 2, k) < pack_key(1, 3, k) < pack_key(2, -7, k)


def test_family_basics():
    scale = Scale(4)
    t1 = DyadicTube.from_indices(scale, 1, 2)
    t2 = DyadicTube.from_indices(scale, 3, 4)
    fam = TubeFamily.from_tubes(scale, [t1, t2, t1])
    assert len(fam) == 2
    assert fam.keys.tolist() == [t1.key(), t2.key()]
    assert fam.keys.dtype == np.int64 and not fam.keys.flags.writeable
    other = TubeFamily.from_tubes(scale, [t2])
    assert len(fam.union(other)) == 2
    assert fam.intersection_size(other) == 1
    assert fam.slope_cells() == (t1.a_idx, t2.a_idx)
    with pytest.raises(ScaleError):
        fam.union(TubeFamily.from_tubes(Scale(3), []))
    with pytest.raises(ScaleError):
        TubeFamily.from_tubes(scale, [DyadicTube.from_indices(Scale(3), 0, 0)])


def test_family_refuses_keys_that_do_not_rise():
    # unsorted or repeated keys would give len 3 and slope cells (3, 1)
    a, b = TubeFamily.from_index_pairs(Scale(4), [(1, 2), (3, 1)]).keys
    for keys in ((b, a, a), (a, a), (b, a)):
        with pytest.raises(ValidationError, match="strictly increase"):
            TubeFamily(Scale(4), keys)
    assert TubeFamily(Scale(4), (a, b)).slope_cells() == (1, 3)


def test_family_json_roundtrip():
    fam = TubeFamily.from_index_pairs(Scale(6), [(3, 5), (0, 0), (-2, 9)])
    again = TubeFamily.from_json(fam.to_json())
    assert again == fam


@pytest.mark.parametrize(
    "tubes",
    [[[3, 6, "5", 6]], [[3.0, 6, 5, 6]], [[True, 0, 0, 0]], [[3, 6, 5]], [7], [None], "abcd"],
)
def test_family_json_rejects_non_integer_rows(tubes):
    with pytest.raises(ParseError):
        TubeFamily.from_json({"k": 6, "tubes": tubes})


@pytest.mark.parametrize("row", [[3, 129, 5, 6], [3, 6, 5, -129], [1, 1 << 26, 0, 0]])
def test_family_json_rejects_exponents_past_the_envelope(row):
    with pytest.raises(ParseError, match=r"outside \[-128, 128\]"):
        TubeFamily.from_json({"k": 6, "tubes": [row]})


def test_canonical_tube_through():
    rng = random.Random(3)
    scale = Scale(6)
    for _ in range(50):
        p = DyadicPoint(
            DyadicRational(rng.randrange(0, 64), 6),
            DyadicRational(rng.randrange(0, 64), 6),
        )
        slope = DyadicRational(rng.randrange(0, 64), 6)
        t = canonical_tube_through(p, slope, scale)
        assert t.a == slope
        assert tube_contains(t, p)


def test_cover_by_coarse_tubes_single_point():
    fine, coarse = Scale(6), Scale(3)
    delta2 = DyadicRational(1, coarse.k)
    rng = random.Random(11)
    for _ in range(10):
        p = DyadicPoint(
            DyadicRational(rng.randrange(0, 64), 6),
            DyadicRational(rng.randrange(0, 64), 6),
        )
        a2 = DyadicRational(rng.randrange(0, 8), 3)
        t0 = canonical_tube_through(p, a2, coarse)
        window = Window(a2, a2 + delta2, ZERO, ONE)
        fine_fam = tubes_through(p, fine, window)
        pts = PointSet(fine, (p,))
        m_cover = TubeFamily.from_tubes(coarse, [t0])
        out = cover_by_coarse_tubes(fine_fam, pts, a2, coarse, m_cover)
        assert len(out) <= 11 * len(m_cover)
        out_keys = set(out.keys)
        for t in fine_fam:
            assert parent(t, coarse).key() in out_keys


def test_cover_by_coarse_tubes_children_example():
    fine, coarse = Scale(6), Scale(3)
    t0 = DyadicTube.from_indices(coarse, 2, 3)
    rng = random.Random(5)
    pts = tuple(_tube_points(next(iter(children(t0, coarse))), rng, 0))
    # pick fine tubes through a point of t0
    p = _tube_points(t0, rng, 1)[0]
    kids = children(t0, fine)
    through = TubeFamily.from_tubes(fine, [t for t in kids if tube_contains(t, p)])
    out = cover_by_coarse_tubes(
        through, PointSet(fine, (p,)), t0.a, coarse, TubeFamily.from_tubes(coarse, [t0])
    )
    assert len(out) <= 11
    for t in through:
        assert parent(t, coarse).key() in set(out.keys)


def test_cover_by_coarse_tubes_rejects_uncovered_point():
    fine, coarse = Scale(6), Scale(3)
    p = DyadicPoint.of(1, 2, 1, 2)
    far = DyadicPoint.of(1, 2, 7, 3)
    a2 = ZERO
    t0 = canonical_tube_through(p, a2, coarse)
    window = Window(a2, a2 + DyadicRational(1, coarse.k), ZERO, ONE)
    fam = tubes_through(p, fine, window)
    with pytest.raises(ValidationError):
        cover_by_coarse_tubes(
            fam,
            PointSet(fine, (p, far)),
            a2,
            coarse,
            TubeFamily.from_tubes(coarse, [t0]),
        )


def test_cover_by_coarse_tubes_rejects_bad_slope():
    fine, coarse = Scale(6), Scale(3)
    p = DyadicPoint.of(1, 2, 1, 2)
    a2 = ZERO
    t0 = canonical_tube_through(p, a2, coarse)
    bad = TubeFamily.from_index_pairs(fine, [(63, 0)])  # slope outside [a2, a2+d2)
    with pytest.raises(ValidationError):
        cover_by_coarse_tubes(
            bad, PointSet(fine, (p,)), a2, coarse, TubeFamily.from_tubes(coarse, [t0])
        )


def test_slice_interval_vertical_axis():
    t = DyadicTube.from_indices(Scale(3), 2, 5)
    lo, hi, closed = slice_interval(t, ZERO)
    assert closed
    assert lo == DyadicRational(5, 3)
    assert hi - lo == DyadicRational(1, 3)


@hyp.given(
    hys.integers(min_value=0, max_value=15),
    hys.integers(min_value=0, max_value=15),
    hys.integers(min_value=-40, max_value=40),
    hys.integers(min_value=0, max_value=40),
)
def test_slice_interval_matches_membership(a_idx, b_idx, xn, yn):
    t = DyadicTube.from_indices(Scale(4), a_idx, b_idx)
    x0 = DyadicRational(xn, 4)
    y = DyadicRational(yn, 5)
    lo, hi, closed = slice_interval(t, x0)
    inside = (lo <= y if closed else lo < y) and y < hi
    assert tube_contains(t, DyadicPoint(x0, y)) == inside




def test_tube_is_an_immutable_value():
    # the slots class keeps what the frozen dataclass gave: equality and
    # hashes by (scale, a_idx, b_idx), its repr, and refused assignment
    import pickle

    t, same = DyadicTube(Scale(4), 3, -5), DyadicTube.from_indices(Scale(4), 3, -5)
    assert t == same and hash(t) == hash(same) == hash((Scale(4), 3, -5))
    assert t != DyadicTube(Scale(4), 3, -4) and t != DyadicTube(Scale(5), 3, -5) and t != (Scale(4), 3, -5)
    assert repr(t) == "DyadicTube(scale=Scale(k=4), a_idx=3, b_idx=-5)"
    assert pickle.loads(pickle.dumps(t)) == t
    for name in ("a_idx", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, 0)
        with pytest.raises(AttributeError):
            delattr(t, name)
    with pytest.raises(DomainError):
        DyadicTube(Scale(4), 8 << 4, 0)
