"""Sumset covering counts, graph-restricted sums, the popularity refinement,
and the three-slice collinearity functional.

Naive pair enumeration (exact dyadic arithmetic) is the oracle throughout.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from tubelab.core_grid import DyadicPoint, DyadicRational, Scale
from tubelab.delta_sets import DeltaSetParams, validate_1d
from tubelab.errors import HypothesisViolation, ParseError, ValidationError
from tubelab.additive import (
    PairGraph,
    QuasiProduct,
    _pair_table,
    bsg_refine,
    best_slice_pair,
    exact_sumset_size,
    measured_bsg_parameter,
    plunnecke_corollary_check,
    prune_to_slice_multiplicity,
    restricted_sumset,
    slice_incidences,
    slice_multiplicity_violation,
    sumset_cover,
    tripod_image_cover,
    tripod_projection,
    tripod_residual,
    tube_slice_pairs,
)
from tubelab.generators import cantor_line_indices, collinear_tripod, quasi_product, quasi_product_tubes
from tubelab.tubes import (
    TubeFamily,
    intercept_window_array,
    keys_through,
    pack_key,
    tube_contains,
    unpack_key,
)

D = DyadicRational


def _frac(v: D) -> Fraction:
    return Fraction(v.num, 1 << v.exp)


def _cover_oracle(values: list[Fraction], k: int) -> int:
    return len({math.floor(v * (1 << k)) for v in values})


value_lists = hys.lists(
    hys.integers(min_value=0, max_value=(1 << 10) - 1), min_size=1, max_size=24, unique=True
).map(lambda nums: [D(n, 10) for n in nums])


# --- sumset_cover ---


def test_sumset_cover_worked_examples():
    k = 8
    a = [D(0, 0), D(1, k), D(2, k)]
    b = [D(0, 0), D(1, k)]
    assert sumset_cover(a, b, Scale(k)) == 4
    ap = [D(i, k) for i in range(12)]
    assert sumset_cover(ap, ap, Scale(k)) == 23  # 2n - 1


@hyp.given(value_lists, value_lists)
def test_sumset_cover_matches_enumeration(a, b):
    oracle = _cover_oracle([_frac(x) + _frac(y) for x in a for y in b], 10)
    assert sumset_cover(a, b, Scale(10)) == oracle
    assert exact_sumset_size(a, b) == len({_frac(x) + _frac(y) for x in a for y in b})


# --- restricted_sumset ---


def test_restricted_full_graph_equals_sumset():
    a = [D(i, 6) for i in (0, 3, 9, 11)]
    b = [D(i, 6) for i in (1, 2, 7)]
    g = PairGraph(
        tuple(a), tuple(b), tuple((i, j) for i in range(4) for j in range(3)), 1.0
    )
    assert restricted_sumset(g, Scale(6)) == sumset_cover(a, b, Scale(6))


def test_restricted_diagonal():
    a = [D(i, 6) for i in (0, 3, 9, 11)]
    g = PairGraph(tuple(a), tuple(a), tuple((i, i) for i in range(4)), 4.0)
    assert restricted_sumset(g, Scale(6)) == len(a)
    assert g.restricted_sumset_size() == len(a)


@hyp.given(value_lists, value_lists, hys.randoms(use_true_random=False))
def test_restricted_matches_enumeration(a, b, rng):
    edges = tuple(
        (i, j)
        for i in range(len(a))
        for j in range(len(b))
        if rng.random() < 0.5
    )
    hyp.assume(edges)
    g = PairGraph(tuple(a), tuple(b), edges, 64.0)
    oracle = _cover_oracle([_frac(a[i]) + _frac(b[j]) for i, j in edges], 10)
    assert restricted_sumset(g, Scale(10)) == oracle


def test_pair_graph_rejects_bad_edges():
    a = (D(0, 0),)
    with pytest.raises(ValidationError):
        PairGraph(a, a, ((0, 1),), 1.0)
    with pytest.raises(ValidationError):
        PairGraph(a, a, ((0, 0), (0, 0)), 1.0)
    with pytest.raises(ValidationError):
        PairGraph(a, a, ((0, 0),), 0.0)


# --- plunnecke ---


def test_plunnecke_progression():
    k = 8
    ap = [D(i, k) for i in range(16)]
    rep = plunnecke_corollary_check(ap, ap, Scale(k))
    assert rep.ok
    assert rep.a_cells == rep.b_cells == 16
    assert rep.sum_ab == rep.sum_bb == 31
    assert rep.c0 == pytest.approx(31 / 16)
    assert rep.bound == pytest.approx(rep.c0**2 * 16 * 4)  # rounding factor 4
    assert rep.sum_bb <= rep.bound


def test_plunnecke_subset_of_progression():
    k = 8
    ap = [D(i, k) for i in range(32)]
    sub = [D(i, k) for i in range(0, 32, 3)]
    rep = plunnecke_corollary_check(ap, sub, Scale(k))
    assert rep.ok
    assert rep.sum_bb <= 2 * rep.a_cells  # N(B+B) <= N(A+A) <= 2|A|


def test_plunnecke_geometric_like():
    k = 10
    geo = [D(1 << j, k) for j in range(10)]
    rep = plunnecke_corollary_check(geo, geo, Scale(k))
    oracle = _cover_oracle([_frac(x) + _frac(y) for x in geo for y in geo], k)
    assert rep.sum_bb == oracle
    assert rep.ok == (rep.sum_bb <= rep.bound)


def test_plunnecke_rejects_empty():
    with pytest.raises(ValidationError):
        plunnecke_corollary_check([], [D(0, 0)], Scale(4))


# --- bsg_refine ---


def test_bsg_full_progression_graph():
    ap = tuple(D(i, 8) for i in range(16))
    g = PairGraph(ap, ap, tuple((i, j) for i in range(16) for j in range(16)), 2.0)
    rep = bsg_refine(g)
    assert rep.a_kept == tuple(range(16))
    assert rep.b_kept == tuple(range(16))
    assert rep.c_exponent <= 1.0
    assert rep.flags["edge_count_ok"] and rep.flags["restricted_sum_ok"]
    assert not rep.flags["k_too_large"]


def test_bsg_diagonal_flags_degenerate():
    ap = tuple(D(i, 8) for i in range(16))
    g = PairGraph(ap, ap, tuple((i, i) for i in range(16)), 16.0)
    rep = bsg_refine(g)
    assert rep.flags["k_too_large"]


def _check_bsg_conclusions(g: PairGraph, rep) -> None:
    """The four conclusion inequalities at the measured exponent."""
    a2 = [g.a_values[i] for i in rep.a_kept]
    b2 = [g.b_values[j] for j in rep.b_kept]
    kc = g.K ** rep.c_exponent + 1e-9
    na, nb = len(g.a_values), len(g.b_values)
    assert len(a2) * kc >= na
    assert len(b2) * kc >= nb
    assert exact_sumset_size(a2, b2) <= kc * math.sqrt(na * nb)
    kept = {(i, j) for i in rep.a_kept for j in rep.b_kept}
    inside = sum(1 for e in g.edges if e in kept)
    assert inside * kc >= na * nb


def test_bsg_two_blocks():
    # dense block plus a sparse diagonal block: refinement keeps the
    # conclusions self-consistent at its measured exponent
    a = tuple(D(i, 8) for i in range(24))
    edges = [(i, j) for i in range(12) for j in range(12)]
    edges += [(i, i) for i in range(12, 24)]
    g = PairGraph(a, a, tuple(edges), measured_bsg_parameter(a, a, edges))
    rep = bsg_refine(g)
    assert math.isfinite(rep.c_exponent)
    assert rep.c_exponent == pytest.approx(max(rep.component_exponents))
    _check_bsg_conclusions(g, rep)


@hyp.given(value_lists, hys.randoms(use_true_random=False))
def test_bsg_self_consistent_on_random_graphs(a, rng):
    hyp.assume(len(a) >= 4)
    edges = tuple(
        (i, j) for i in range(len(a)) for j in range(len(a)) if rng.random() < 0.4
    )
    hyp.assume(edges)
    g = PairGraph(tuple(a), tuple(a), edges, measured_bsg_parameter(a, a, edges))
    rep = bsg_refine(g)
    assert rep.a_kept and rep.b_kept
    _check_bsg_conclusions(g, rep)


# --- tripods ---


def test_tripod_projection_formula():
    val = tripod_projection(0.5, 0.25, 0.0, 0.25, 0.75)
    assert val == pytest.approx(0.5 + (0.25 / 0.5) * 0.25)
    with pytest.raises(ValidationError):
        tripod_projection(0.0, 0.0, 0.1, 0.2, 0.2)


def test_tripod_residual_collinear_corpus():
    for seed in range(10):
        for k in (6, 8, 10):
            inst = collinear_tripod(k, seed=seed)
            b1, b2, b3 = (p.y for p in inst.points)
            res = tripod_residual(inst.points, b1, b2, b3)
            assert res <= 16.0 * 2.0**-k


def test_tripod_residual_checks_count():
    inst = collinear_tripod(6)
    with pytest.raises(ValidationError):
        tripod_residual(inst.points[:2], *(p.y for p in inst.points[:2]), D(1, 1))


@hyp.given(
    hys.lists(
        hys.tuples(hys.integers(0, 255), hys.integers(0, 255)),
        min_size=1,
        max_size=30,
        unique=True,
    )
)
def test_tripod_image_cover_matches_enumeration(raw):
    k = 8
    pairs = [(D(x, k), D(y, k)) for x, y in raw]
    b1, b2, b3 = D(0, 0), D(1, 2), D(3, 2)
    got = tripod_image_cover(pairs, b1, b2, b3, Scale(k))
    q = (_frac(b2) - _frac(b1)) / (_frac(b3) - _frac(b2))
    oracle = _cover_oracle([_frac(x) + q * _frac(y) for x, y in pairs], k)
    assert got == oracle


# --- quasi-product plumbing ---


def test_quasi_product_structure():
    qp = quasi_product(8, 0.5, 0.5, seed=1)
    assert len(qp.levels) == len(qp.slices)
    rep = validate_1d(qp.levels, DeltaSetParams(qp.scale, qp.tau, 4.0))
    assert rep.valid
    for sl in qp.slices:
        assert validate_1d(sl, DeltaSetParams(qp.scale, qp.s, 4.0)).valid


def test_quasi_product_json_roundtrip():
    qp = quasi_product(8, 0.5, 0.5, seed=3)
    from tubelab.additive import QuasiProduct

    again = QuasiProduct.from_json(qp.to_json())
    assert again == qp


@pytest.mark.parametrize(
    "change",
    [
        lambda obj: obj.update(levels=7),
        lambda obj: obj.update(slices=7),
        lambda obj: obj["levels"].__setitem__(0, ["a", 0]),
        lambda obj: obj["levels"].__setitem__(0, [1.5, 0]),
        lambda obj: obj["slices"][0].update(level_index="0"),
        lambda obj: obj["slices"][0].update(values=7),
        lambda obj: obj["slices"].__setitem__(0, 7),
    ],
)
def test_quasi_product_json_rejects_malformed(change):
    from tubelab.additive import QuasiProduct

    obj = quasi_product(8, 0.5, 0.5, seed=3).to_json()
    change(obj)
    with pytest.raises(ParseError):
        QuasiProduct.from_json(obj)


def test_slice_pair_graph_end_to_end():
    qp = quasi_product(8, 0.5, 0.5, seed=0)
    tubes = quasi_product_tubes(qp)
    assert slice_multiplicity_violation(qp, tubes) is None
    lo, hi = best_slice_pair(qp, tubes)
    assert lo != hi
    g = tube_slice_pairs(qp, tubes, lo, hi)
    assert g.edges
    assert g.K >= 1.0
    # every edge is realized by an actual tube through both slice points
    from tubelab.core_grid import DyadicPoint
    from tubelab.tubes import tube_contains

    for i, j in g.edges:
        p = DyadicPoint(qp.slices[lo][i], qp.levels[lo])
        q = DyadicPoint(qp.slices[hi][j], qp.levels[hi])
        assert any(tube_contains(t, p) and tube_contains(t, q) for t in tubes)


def test_prune_to_slice_multiplicity():
    qp = quasi_product(8, 0.5, 0.5, seed=0)
    tubes = quasi_product_tubes(qp)
    pruned = prune_to_slice_multiplicity(qp, tubes)
    assert slice_multiplicity_violation(qp, pruned) is None
    assert len(pruned) <= len(tubes)


def _gentle_tubes(qp):
    """Steep tubes of the quasi product plus a grid of gentle ones, several
    of which meet one slice twice."""
    b_hi = min(256, 8 << qp.scale.k)  # inside the [-8, 8) domain at every k
    gentle = TubeFamily.from_index_pairs(
        qp.scale, [(a, b) for a in range(8, 40, 3) for b in range(-60, b_hi, 5)]
    )
    return quasi_product_tubes(qp).union(gentle)


def _columns(slice_map):
    """A tube key -> [(level, point), ...] map as slice_incidences' three
    column lists: key, then level, then point order."""
    rows = [(key, li, pi) for key in sorted(slice_map) for li, pi in slice_map[key]]
    return [list(col) for col in zip(*rows)] if rows else [[], [], []]


def _lists(hits):
    return [col.tolist() for col in hits]


@pytest.mark.parametrize("k, seed", [(8, 0), (8, 1), (8, 2), (10, 0), (10, 3)])
def test_slice_incidences_match_brute_force(k, seed):
    qp = quasi_product(k, 0.5, 0.4, seed=seed)
    for tubes in (quasi_product_tubes(qp), _gentle_tubes(qp)):
        points = [
            (li, pi, DyadicPoint(a, b))
            for li, (b, sl) in enumerate(zip(qp.levels, qp.slices))
            for pi, a in enumerate(sl)
        ]
        oracle = {}
        for key, t in zip(tubes.keys, tubes):
            hits = [(li, pi) for li, pi, p in points if tube_contains(t, p)]
            if hits:
                oracle[key] = hits
        assert _lists(slice_incidences(qp, tubes)) == _columns(oracle)


def test_reversed_family_is_refused_not_missed():
    # slice_incidences searches the sorted keys: reversed, it would find
    # none of the 537 hits
    qp = quasi_product(8, 0.5, 0.4, seed=1)
    tubes = quasi_product_tubes(qp)
    assert len(slice_incidences(qp, tubes)[0]) == 537
    with pytest.raises(ValidationError, match="strictly increase"):
        TubeFamily(tubes.scale, tubes.keys[::-1])


def _slice_incidences_by_point(qp, tubes):
    """slice_incidences as one keys_through call per slice point: the tubes
    through the point at each slope cell of the family, kept if in it."""
    k = qp.scale.k
    family = set(tubes.keys)
    slopes = tubes.slope_cells()
    hits = {}
    for li, (b, sl) in enumerate(zip(qp.levels, qp.slices)):
        for pi, a in enumerate(sl):
            for key in keys_through(DyadicPoint(a, b), k, slopes):
                if key in family:
                    hits.setdefault(key, []).append((li, pi))
    return hits


def _canonical_union(qp):
    """quasi_product_tubes point by point: the canonical intercept cell
    floor((y - a*x)/delta) at each slope cell a, in exact dyadic arithmetic."""
    k = qp.scale.k
    slopes = [(1 << k) + v for v in cantor_line_indices(k, qp.s)]
    return sorted({pack_key(a, (p.y - D(a, k) * p.x).floor_to_int(k), k) for p in qp.points() for a in slopes})


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_columnar_slice_maps_match_the_point_loops(k, seed):
    qp = quasi_product(k, 0.5, 0.4, seed=seed)
    steep = quasi_product_tubes(qp)
    assert list(steep.keys) == _canonical_union(qp)
    for tubes in (steep, _gentle_tubes(qp)):
        # list equality pins each tube's level-then-point order as well
        assert _lists(slice_incidences(qp, tubes)) == _columns(_slice_incidences_by_point(qp, tubes))


@pytest.mark.parametrize("k, seed", [(6, 1), (8, 0), (8, 2), (10, 3)])
def test_slice_pair_functions_take_the_map(k, seed):
    qp = quasi_product(k, 0.5, 0.4, seed=seed)
    tubes = quasi_product_tubes(qp)
    pairs = _pair_table(slice_incidences(qp, tubes))
    lo, hi = best_slice_pair(qp, tubes)
    assert best_slice_pair(qp, tubes, pairs=pairs) == (lo, hi)
    assert tube_slice_pairs(qp, tubes, lo, hi, pairs=pairs) == tube_slice_pairs(qp, tubes, lo, hi)
    # the table is read, not recomputed: an empty one joins no levels
    empty = tuple(col[:0] for col in pairs)
    with pytest.raises(HypothesisViolation, match="no tube joins two distinct levels"):
        best_slice_pair(qp, tubes, pairs=empty)


@hys.composite
def _signed_quasi_products(draw):
    """A quasi-product on the 2^-(k+2) grid whose slice values may be
    negative, with tubes at slope cells of both signs through its points:
    the canonical tube and its intercept neighbours, plus stray cells."""
    k = draw(hys.integers(min_value=2, max_value=6))
    m = k + 2
    n_levels = draw(hys.integers(min_value=1, max_value=4))
    level_nums = draw(
        hys.lists(hys.integers(-(4 << m), 4 << m), min_size=n_levels, max_size=n_levels, unique=True)
    )
    slice_values = hys.lists(hys.integers(-(4 << m), 4 << m), min_size=1, max_size=5, unique=True)
    slices = tuple(tuple(D(v, m) for v in draw(slice_values)) for _ in level_nums)
    qp = QuasiProduct.from_slices(Scale(k), 0.5, 0.5, tuple(D(v, m) for v in sorted(level_nums)), slices)
    off = 8 << k
    slopes = draw(hys.lists(hys.integers(-off, off - 1), min_size=1, max_size=6, unique=True))
    cells = set()
    for p in qp.points():
        for key in keys_through(p, k, slopes):
            a, b = unpack_key(key, k)
            cells.update((a, c) for c in (b - 1, b, b + 1) if -off <= c < off)
    stray = hys.tuples(hys.sampled_from(slopes), hys.integers(-off, off - 1))
    cells.update(draw(hys.lists(stray, max_size=8)))
    kept = draw(hys.lists(hys.sampled_from(sorted(cells)), unique=True)) if cells else []
    return qp, TubeFamily.from_index_pairs(qp.scale, kept)


@hyp.given(_signed_quasi_products())
def test_slice_incidences_match_the_point_loop_on_signed_inputs(case):
    qp, tubes = case
    assert _lists(slice_incidences(qp, tubes)) == _columns(_slice_incidences_by_point(qp, tubes))


def test_slice_incidences_clip_windows_at_the_intercept_edges():
    k = 4
    edge = 8 << k
    # at slope cell 37, the window of (3, -1) runs below -8 and that of
    # (-3, 1) above 8: only their cells inside [-8, 8) are tubes
    qp = QuasiProduct.from_slices(Scale(k), 0.5, 0.5, (D(-1, 0), D(1, 0)), ((D(3, 0),), (D(-3, 0),)))
    assert intercept_window_array(3, -1, 0, k, 37) == (-edge - 2, -edge + 1)
    assert intercept_window_array(-3, 1, 0, k, 37) == (edge - 1, edge + 1)
    cells = [(37, -edge), (37, -edge + 1), (37, edge - 1), (-37, 0)]
    tubes = TubeFamily.from_index_pairs(qp.scale, cells)
    expected = {
        pack_key(37, -edge, k): [(0, 0)],
        pack_key(37, -edge + 1, k): [(0, 0)],
        pack_key(37, edge - 1, k): [(1, 0)],
    }
    assert _lists(slice_incidences(qp, tubes)) == _columns(expected)
    assert expected == _slice_incidences_by_point(qp, tubes)


def test_slice_incidences_on_one_point_slices_and_an_empty_family():
    qp = QuasiProduct.from_slices(Scale(6), 0.5, 0.5, (D(0, 0), D(1, 1)), ((D(1, 2),), (D(-5, 3),)))
    tubes = TubeFamily.from_index_pairs(qp.scale, [(a, b) for a in range(-80, 80, 7) for b in range(-90, 90)])
    hits = slice_incidences(qp, tubes)
    assert all(col.dtype == np.int64 for col in hits)
    assert hits[0].size and _lists(hits) == _columns(_slice_incidences_by_point(qp, tubes))
    assert all(len(v) <= 2 for v in _slice_map(hits).values())
    empty = slice_incidences(qp, TubeFamily(qp.scale, ()))
    assert all(col.dtype == np.int64 for col in empty)
    assert _lists(empty) == [[], [], []]


def test_slice_multiplicity_witness_is_pinned():
    # the first tube in key order that meets one slice twice, at its lowest
    # such level; recorded from the scan over every (tube, point) pair
    qp = quasi_product(8, 0.5, 0.5, seed=2)
    tubes = _gentle_tubes(qp)
    bad = slice_multiplicity_violation(qp, tubes)
    assert bad is not None
    assert bad.payload()["witness"] == {"tube_cell": [8, 15], "level_index": 4}
    assert best_slice_pair(qp, tubes) == (4, 7)
    with pytest.raises(HypothesisViolation) as exc:
        tube_slice_pairs(qp, tubes, 4, 7)
    assert exc.value.payload() == bad.payload()
    pruned = prune_to_slice_multiplicity(qp, tubes)
    assert len(tubes) == 1621 and len(pruned) == 1605
    assert slice_multiplicity_violation(qp, pruned) is None


def test_best_slice_pair_requires_a_join():
    qp = quasi_product(8, 0.5, 0.5, seed=0)
    from tubelab.tubes import TubeFamily

    empty = TubeFamily.from_tubes(qp.scale, [])
    with pytest.raises(HypothesisViolation) as exc:
        best_slice_pair(qp, empty)
    assert exc.value.payload() == {
        "hypothesis": "joined_levels",
        "message": "no tube joins two distinct levels",
        "witness": {"level_count": len(qp.levels), "tube_count": 0},
    }


# The per-tube walks that the columnar slice graph replaced, kept as oracles:
# a dict of each tube's (level, point) hits, one pass per tube for the
# multiplicity check, one edge set per level pair for the ranking, and one
# level -> point lookup per tube for the pair graph.


def _slice_map(hits):
    """Tube key -> its (level, point) hits in level-then-point order."""
    out = {}
    for key, li, pi in zip(*_lists(hits)):
        out.setdefault(key, []).append((li, pi))
    return out


def _repeated_level(incidences):
    for (li, _), (lj, _) in zip(incidences, incidences[1:]):
        if li == lj:
            return li
    return None


def _multiplicity_oracle(tubes, slice_map):
    for key in tubes.keys:
        li = _repeated_level(slice_map.get(key, ()))
        if li is not None:
            return HypothesisViolation(
                "tube_slice_multiplicity",
                "a tube meets two points of one slice",
                {"tube_cell": list(unpack_key(key, tubes.scale.k)), "level_index": li},
            )
    return None


def _best_pair_oracle(qp, tubes, slice_map):
    pair_edges = {}
    for hits in slice_map.values():
        for x in range(len(hits)):
            for y in range(x + 1, len(hits)):
                (li, pi), (lj, pj) = hits[x], hits[y]
                if li != lj:
                    pair_edges.setdefault((li, lj), set()).add((pi, pj))
    if not pair_edges:
        witness = {"level_count": len(qp.levels), "tube_count": len(tubes)}
        raise HypothesisViolation("joined_levels", "no tube joins two distinct levels", witness)

    def rank(item):
        (lo, hi), edges = item
        return (len(edges), (qp.levels[hi] - qp.levels[lo]).as_float(), -lo, -hi)

    return max(pair_edges.items(), key=rank)[0]


def _pairs_oracle(qp, tubes, level_lo, level_hi, slice_map):
    bad = _multiplicity_oracle(tubes, slice_map)
    if bad is not None:
        raise bad
    edges = set()
    for hits in slice_map.values():
        at_level = dict(hits)
        if level_lo in at_level and level_hi in at_level:
            edges.add((at_level[level_lo], at_level[level_hi]))
    if not edges:
        raise ValidationError("no tube joins the two slices")
    slice_lo, slice_hi = qp.slices[level_lo], qp.slices[level_hi]
    k = measured_bsg_parameter(slice_lo, slice_hi, sorted(edges))
    return PairGraph(tuple(slice_lo), tuple(slice_hi), tuple(sorted(edges)), max(k, 1.0))


def _outcome(call):
    """A call's value, or the type and payload of what it raised."""
    try:
        return call()
    except HypothesisViolation as exc:
        return type(exc), exc.payload()
    except ValidationError as exc:
        return type(exc), str(exc)


def _assert_slice_graph_matches_the_walks(qp, tubes):
    hits = slice_incidences(qp, tubes)
    slice_map = _slice_map(hits)
    bad, want = slice_multiplicity_violation(qp, tubes), _multiplicity_oracle(tubes, slice_map)
    assert (bad and bad.payload()) == (want and want.payload())
    assert _outcome(lambda: best_slice_pair(qp, tubes)) == _outcome(
        lambda: _best_pair_oracle(qp, tubes, slice_map)
    )
    n = len(qp.levels)
    # a violation is raised before any level pair is read: two orders suffice
    pairs = [(0, n - 1), (n - 1, 0)] if want else [(lo, hi) for lo in range(n) for hi in range(n)]
    for lo, hi in pairs:
        if lo != hi:
            assert _outcome(lambda: tube_slice_pairs(qp, tubes, lo, hi)) == _outcome(
                lambda: _pairs_oracle(qp, tubes, lo, hi, slice_map)
            )
    pruned = prune_to_slice_multiplicity(qp, tubes)
    keep = [key for key in tubes.keys if _repeated_level(slice_map.get(key, ())) is None]
    assert pruned == TubeFamily(tubes.scale, tuple(keep))
    return want, pruned


@hyp.given(_signed_quasi_products())
def test_slice_graph_matches_the_per_tube_walks_on_signed_inputs(case):
    qp, tubes = case
    bad, pruned = _assert_slice_graph_matches_the_walks(qp, tubes)
    if bad is not None:
        _assert_slice_graph_matches_the_walks(qp, pruned)


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("k", [8, 10])
def test_slice_graph_matches_the_per_tube_walks(k, seed):
    qp = quasi_product(k, 0.5, 0.4, seed=seed)
    assert _assert_slice_graph_matches_the_walks(qp, quasi_product_tubes(qp))[0] is None
    bad, pruned = _assert_slice_graph_matches_the_walks(qp, _gentle_tubes(qp))
    assert bad is not None
    # the pruned gentle family keeps tubes that join three or more levels
    assert _assert_slice_graph_matches_the_walks(qp, pruned)[0] is None


def test_best_slice_pair_tie_break_order():
    # levels 0, 1/4, 1/2, 1 at k = 4; slice 1 holds two points. Each tube
    # below meets exactly the two slice points named beside it
    D = DyadicRational
    levels = (D(0, 0), D(1, 2), D(1, 1), D(1, 0))
    slices = ((D(0, 0),), (D(1, 3), D(5, 4)), (D(-1, 2),), (D(1, 1),))
    qp = QuasiProduct.from_slices(Scale(4), 0.5, 0.5, levels, slices)
    joins = {
        (24, 0): [(0, 0), (1, 0)],  # gap 1/4
        (9, 0): [(0, 0), (1, 1)],  # gap 1/4
        (-12, 5): [(1, 0), (2, 0)],  # gap 1/4
        (-32, 0): [(0, 0), (2, 0)],  # gap 1/2
        (10, 10): [(2, 0), (3, 0)],  # gap 1/2
        (32, -1): [(1, 0), (3, 0)],  # gap 3/4
    }

    def best(*cells):
        tubes = TubeFamily.from_index_pairs(qp.scale, cells)
        assert _slice_map(slice_incidences(qp, tubes)) == {pack_key(*c, 4): joins[c] for c in cells}
        return best_slice_pair(qp, tubes)

    # the edge count first: two edges at gap 1/4 beat one at gap 1/2
    assert best((24, 0), (9, 0), (-32, 0)) == (0, 1)
    # then the wider gap, even at a higher lo
    assert best((24, 0), (32, -1)) == (1, 3)
    # then the lower lo, at equal gaps
    assert best((24, 0), (-12, 5)) == (0, 1)
    assert best((-32, 0), (10, 10)) == (0, 2)
    # then the lower hi. Levels strictly increase, so equal lo and equal gap
    # mean equal hi unless the float gaps round together: 1 and 1 + 2^-60
    # do, and the columns are given, since no tube is that fine
    fine = QuasiProduct.from_slices(Scale(4), 0.5, 0.5, (D(0, 0), D(1, 0), D((1 << 60) + 1, 60)), ((D(0, 0),),) * 3)
    keys, level, point = (np.array(col, dtype=np.int64) for col in ([1, 1, 2, 2], [0, 1, 0, 2], [0, 0, 0, 0]))
    assert best_slice_pair(fine, TubeFamily(fine.scale, ()), pairs=_pair_table((keys, level, point))) == (0, 1)
