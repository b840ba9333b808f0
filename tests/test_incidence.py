"""Incidence counting, the integer Cauchy-Schwarz chain, and the two-branch
exponent verdict.

Small configurations are rebuilt by hand; the generator-backed ones are
cross-checked against naive per-pair counting. The per-key loops that the
columnar kernels replaced are kept below as exact oracles.
"""
from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from itertools import islice
from typing import Iterator, Sequence
from unittest import mock

import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from conftest import configuration_of
from tubelab import delta_sets, incidence
from tubelab.core_grid import DyadicPoint, DyadicRational, PointSet, Scale, covering_number
from tubelab.delta_sets import DeltaSetParams, _validate_coords, validate, validate_1d
from tubelab.errors import DyadicOverflowError, HypothesisViolation, ParseError, ScaleError, ValidationError
from tubelab.generators import furstenberg_product, grid
from tubelab.incidence import (
    CauchySchwarzReport,
    Configuration,
    IncidenceReport,
    cauchy_schwarz_bound,
    dichotomy_check,
    dichotomy_hypotheses,
    incidence_report,
    validate_configuration,
)
from tubelab.tubes import (
    DyadicTube,
    TubeFamily,
    _point_ints,
    canonical_tube_through,
    keys_through,
    pack_key,
    parent,
    tube_contains,
    tubes_through,
    unpack_key,
)


# ---------------------------------------------------------------- oracles


def keys_missing(p: DyadicPoint, k: int, keys: np.ndarray) -> Iterator[int]:
    """The keys, in the given order, whose tube does not contain p."""
    for key in keys.tolist():
        if not tube_contains(DyadicTube(Scale(k), *unpack_key(key, k)), p):
            yield key


def incidence_counts(cfg: Configuration) -> Counter:
    """N_T keyed by packed tube key."""
    counts: Counter = Counter()
    for fam in cfg.families:
        counts.update(fam.keys)
    return counts


def validate_configuration_oracle(cfg: Configuration, check_1d=validate_1d) -> list[HypothesisViolation]:
    """Membership point by point and key by key, then the ball counts, then
    one check_1d per distinct tuple of slope cells."""
    out: list[HypothesisViolation] = []
    k = cfg.scale.k
    for i, (p, fam) in enumerate(zip(cfg.points.points, cfg.families)):
        key = next(keys_missing(p, k, fam.keys), None)
        if key is not None:
            out.append(
                HypothesisViolation(
                    "tube_membership",
                    "a family tube does not contain its point",
                    {"point_index": i, "tube_cell": list(unpack_key(key, k))},
                )
            )
            break
    c_eps = 2.0 ** (k * cfg.epsilon)
    point_report = validate(cfg.points, DeltaSetParams(cfg.scale, 1.0, c_eps))
    if not point_report.valid:
        out.append(
            HypothesisViolation(
                "point_set_frostman",
                f"points fail the (delta,1,delta^-eps) condition: {point_report.kind}",
                point_report.to_json(),
            )
        )
    seen: set[tuple[int, ...]] = set()
    for i, fam in enumerate(cfg.families):
        cells = fam.slope_cells()
        if not cells or cells in seen:
            continue
        seen.add(cells)
        rep = check_1d([DyadicRational(a, k) for a in cells], DeltaSetParams(cfg.scale, cfg.s, c_eps))
        if not rep.valid:
            out.append(
                HypothesisViolation(
                    "slope_set_frostman",
                    f"slope set of family {i} fails the (delta,s,delta^-eps) condition: {rep.kind}",
                    {"point_index": i, **rep.to_json()},
                )
            )
    return out


def incidence_report_oracle(cfg: Configuration) -> IncidenceReport:
    """N_T from a Counter over every key, M_T from a dict of coarse cell sets."""
    k = cfg.scale.k
    h = k // 2
    counts = incidence_counts(cfg)
    met: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for p, fam in zip(cfg.points.points, cfg.families):
        cell = (p.x.floor_to_int(h), p.y.floor_to_int(h))
        for a_idx, b_idx in fam.index_pairs():
            met.setdefault((a_idx >> h, b_idx >> h), set()).add(cell)
    return IncidenceReport(
        k=k,
        n_points=len(cfg.points.points),
        incidence_count=sum(counts.values()),
        tube_count=len(counts),
        coarse_tube_count=len(met),
        coarse_ball_count=covering_number(cfg.points, Scale(h)),
        e_tubes=math.log2(len(counts)) / k if counts else 0.0,
        e_coarse=math.log2(len(met)) / k if met else 0.0,
        nt_histogram=tuple(sorted(Counter(counts.values()).items())),
        mt_histogram=tuple(sorted(Counter(len(c) for c in met.values()).items())),
        identity_ok=sum(len(fam) for fam in cfg.families) == sum(counts.values()),
    )


def cauchy_schwarz_oracle(cfg: Configuration) -> CauchySchwarzReport:
    counts = incidence_counts(cfg)
    s1 = sum(counts.values())
    s2 = sum(v * v for v in counts.values())
    implied = (s1 * s1 / s2) if s2 else 0.0
    return CauchySchwarzReport(s1, len(counts), s2, s2 - s1, implied, s1 * s1 <= len(counts) * s2)


def recording(checked: list):
    """validate_1d, appending the values of each call to `checked`."""

    def check_1d(values, params):
        checked.append(values)
        return validate_1d(values, params)

    return check_1d


def recording_kernel(checked: list):
    """The ball-count kernel that validate_configuration calls on slope
    cells, appending the values of each call to `checked` as validate_1d
    would see them."""

    def kernel(columns, m, params):
        [cells] = columns
        checked.append([DyadicRational(int(a), m) for a in cells])
        return _validate_coords(columns, m, params)

    return kernel


def assert_matches_oracles(cfg: Configuration) -> None:
    # the same violations, and the same slope sets checked in the same order
    kernel_checked, oracle_checked = [], []
    with mock.patch.object(incidence, "_validate_coords", recording_kernel(kernel_checked)):
        got = [v.payload() for v in validate_configuration(cfg)]
    assert got == [v.payload() for v in validate_configuration_oracle(cfg, recording(oracle_checked))]
    assert kernel_checked == oracle_checked
    assert incidence_report(cfg) == incidence_report_oracle(cfg)
    assert cauchy_schwarz_bound(cfg) == cauchy_schwarz_oracle(cfg)


# ------------------------------------------------------------------ tests


def _config_for(points: list[DyadicPoint], fams: list[TubeFamily], k: int) -> Configuration:
    return configuration_of(PointSet(Scale(k), tuple(points)), tuple(fams), 0.5, 0.1)


def _point(i: int, j: int, k: int) -> DyadicPoint:
    return DyadicPoint(DyadicRational(i, k), DyadicRational(j, k))


def test_incidence_single_point():
    k = 4
    p = _point(3, 5, k)
    fam = tubes_through(p, Scale(k))
    cfg = _config_for([p], [fam], k)
    rep = incidence_report(cfg)
    assert rep.incidence_count == len(fam)
    assert rep.tube_count == len(fam)
    assert rep.nt_histogram == ((1, len(fam)),)
    assert rep.identity_ok


def test_incidence_two_identical_families():
    k = 4
    p, q = _point(1, 2, k), _point(1, 3, k)
    fam = tubes_through(p, Scale(k))
    shared = TubeFamily.from_tubes(Scale(k), [t for t in fam if t.contains(q)])
    m = len(shared)
    cfg = _config_for([p, q], [shared, shared], k)
    rep = incidence_report(cfg)
    assert rep.incidence_count == 2 * m
    assert rep.nt_histogram == ((2, m),)


def test_incidence_identity_and_counts_furstenberg():
    cfg = furstenberg_product(8, 0.5)
    rep = incidence_report(cfg)
    assert rep.identity_ok
    # double counting, recomputed naively
    per_point = sum(len(fam) for fam in cfg.families)
    n_t = Counter()
    for fam in cfg.families:
        for key in fam.keys:
            n_t[key] += 1
    assert rep.incidence_count == per_point == sum(n_t.values())
    assert rep.tube_count == len(n_t)
    assert sorted(rep.nt_histogram) == sorted(Counter(n_t.values()).items())
    # coarse cover sandwich: each coarse tube has at most 4^(k/2) children
    assert rep.coarse_tube_count <= rep.tube_count
    assert rep.tube_count <= 4 ** (rep.k // 2) * rep.coarse_tube_count
    assert rep.coarse_ball_count == covering_number(cfg.points, Scale(rep.k // 2))


def test_incidence_coarse_count_matches_parent_dedupe():
    cfg = furstenberg_product(8, 0.5)
    rep = incidence_report(cfg)
    coarse = Scale(4)
    keys = {parent(t, coarse).key() for fam in cfg.families for t in fam}
    assert rep.coarse_tube_count == len(keys)


def test_incidence_invariant_under_relabeling():
    cfg = furstenberg_product(8, 0.3)
    order = list(range(len(cfg.points.points)))
    order.reverse()
    shuffled = configuration_of(
        PointSet(cfg.scale, tuple(cfg.points.points[i] for i in order)),
        tuple(cfg.families[i] for i in order),
        cfg.s,
        cfg.epsilon,
    )
    a, b = incidence_report(cfg), incidence_report(shuffled)
    assert (a.incidence_count, a.tube_count, a.coarse_tube_count) == (
        b.incidence_count,
        b.tube_count,
        b.coarse_tube_count,
    )
    assert sorted(a.nt_histogram) == sorted(b.nt_histogram)


def test_cauchy_schwarz_disjoint_families():
    k = 4
    p, q = _point(1, 2, k), _point(9, 11, k)
    f1 = TubeFamily.from_tubes(
        Scale(k), [canonical_tube_through(p, DyadicRational(a, k), Scale(k)) for a in range(4)]
    )
    f2 = TubeFamily.from_tubes(
        Scale(k), [canonical_tube_through(q, DyadicRational(a, k), Scale(k)) for a in range(4, 8)]
    )
    assert f1.intersection_size(f2) == 0
    cfg = _config_for([p, q], [f1, f2], k)
    rep = cauchy_schwarz_bound(cfg)
    assert rep.pair_sum == 0
    assert rep.implied_lower_bound == pytest.approx(rep.incidence_count)
    assert rep.inequality_ok and rep.to_json()["lower_bound_ok"]


def test_cauchy_schwarz_identical_families():
    k = 4
    p, q = _point(1, 2, k), _point(1, 3, k)
    fam = tubes_through(p, Scale(k))
    shared = TubeFamily.from_tubes(Scale(k), [t for t in fam if t.contains(q)])
    m = len(shared)
    cfg = _config_for([p, q], [shared, shared], k)
    rep = cauchy_schwarz_bound(cfg)
    assert rep.incidence_count == 2 * m
    assert rep.pair_sum == 2 * m
    assert rep.implied_lower_bound == pytest.approx(m)


def test_cauchy_schwarz_pair_sum_brute_force():
    cfg = furstenberg_product(8, 0.5)
    rep = cauchy_schwarz_bound(cfg)
    fams = cfg.families
    pair = sum(
        fams[i].intersection_size(fams[j])
        for i in range(len(fams))
        for j in range(len(fams))
        if i != j
    )
    assert rep.pair_sum == pair
    assert rep.square_sum == rep.incidence_count + pair
    assert rep.inequality_ok
    assert rep.implied_lower_bound <= rep.tube_count + 1e-9


def test_validate_configuration_clean_and_dirty():
    cfg = furstenberg_product(8, 0.5)
    assert validate_configuration(cfg) == []
    # swap one family onto the wrong point: membership must fail
    k = cfg.scale.k
    p_far = None
    fam0 = cfg.families[0]
    for p in cfg.points.points[1:]:
        if not any(t.contains(p) for t in fam0):
            p_far = p
            break
    assert p_far is not None
    idx = cfg.points.points.index(p_far)
    fams = list(cfg.families)
    fams[idx] = fam0
    bad = configuration_of(cfg.points, tuple(fams), cfg.s, cfg.epsilon)
    violations = validate_configuration(bad)
    assert any(v.name == "tube_membership" for v in violations)
    payload = violations[0].payload()
    assert {"hypothesis", "message", "witness"} <= set(payload)


def test_membership_witness_is_pinned():
    # point 37 keeps its own tubes and gains later tubes of point 40: the
    # witness is the first of them in key order that misses point 37
    cfg = furstenberg_product(8, 0.5)
    fams = list(cfg.families)
    fams[37] = fams[37].union(TubeFamily(cfg.scale, cfg.families[40].keys[5:]))
    fams[90] = fams[91]
    bad = configuration_of(cfg.points, tuple(fams), cfg.s, cfg.epsilon)
    [violation] = validate_configuration(bad)
    assert violation.payload()["witness"] == {"point_index": 37, "tube_cell": [17, 63]}
    assert_matches_oracles(bad)
    # the same witness when every block of the kernel holds one family, or
    # when blocks cut the configuration at arbitrary family boundaries
    for block in (1, 100, 1000):
        with mock.patch.object(incidence, "_BLOCK_KEYS", block):
            assert_matches_oracles(bad)


def test_frostman_witnesses_are_pinned():
    # recorded before ball counts were blocked: the first maximum in
    # (radius, center) order, for the point set and for family 0's slopes
    cfg = furstenberg_product(8, 0.5, 0.05)
    points, slopes = (v.payload() for v in validate_configuration(cfg))
    c_eps = 1.3195079107728942
    assert points == {
        "hypothesis": "point_set_frostman",
        "message": "points fail the (delta,1,delta^-eps) condition: ball",
        "witness": {
            "valid": False,
            "kind": "ball",
            "worst_ratio": 2.0604272076000725,
            "witness": {
                "center": [[21, 8], [21, 8]],
                "radius_k": 2,
                "count": 174,
                "allowed": 84.44850628946523,
            },
            "effective_constant": 2.6390158215457884,
            "k": 8,
            "s": 1.0,
            "C": c_eps,
        },
    }
    assert slopes == {
        "hypothesis": "slope_set_frostman",
        "message": "slope set of family 0 fails the (delta,s,delta^-eps) condition: ball",
        "witness": {
            "point_index": 0,
            "valid": False,
            "kind": "ball",
            "worst_ratio": 1.4209842811034983,
            "witness": {"center": [[21, 8]], "radius_k": 2, "count": 15, "allowed": 10.556063286183154},
            "effective_constant": 1.8660659830736148,
            "k": 8,
            "s": 0.5,
            "C": c_eps,
        },
    }


def test_configuration_checks_itself_once(monkeypatch):
    # cauchy_schwarz_bound and dichotomy_check read the configuration's
    # memos: one structural check and one incidence report between them
    calls = Counter()
    for name in ("validate_configuration", "incidence_report"):

        def counted(cfg, _real=getattr(incidence, name), _name=name):
            calls[_name] += 1
            return _real(cfg)

        monkeypatch.setattr(incidence, name, counted)
    k = 4
    p = _point(3, 5, k)
    cfg = _config_for([p], [tubes_through(p, Scale(k))], k)
    cauchy_schwarz_bound(cfg)
    with pytest.raises(HypothesisViolation) as err:
        dichotomy_check(cfg, 0.25)
    with pytest.raises(HypothesisViolation) as again:
        dichotomy_check(cfg, 0.25)
    assert calls == {"validate_configuration": 1, "incidence_report": 1}
    # each raise is a fresh violation; the memo's first one stays as it was
    first = cfg.violations[0]
    assert "all_violations" not in first.witness
    assert (err.value.name, err.value.message) == (first.name, first.message)
    every = [v.payload() for v in dichotomy_hypotheses(cfg)]
    assert err.value.witness == {**first.witness, "all_violations": every}
    assert again.value.payload() == err.value.payload()


def test_dichotomy_passes_on_generator():
    cfg = furstenberg_product(10, 0.5)
    rep = dichotomy_check(cfg, 0.25)
    assert rep.passed
    assert rep.tube_branch or rep.coarse_branch
    assert rep.margins[0] == pytest.approx(rep.e_tubes - (2 * 0.5 - 0.25))
    assert rep.margins[1] == pytest.approx(rep.e_coarse - (0.5 - 0.25))


def test_dichotomy_rejects_bad_slack():
    cfg = furstenberg_product(8, 0.5)
    with pytest.raises(ValidationError):
        dichotomy_check(cfg, 0.0)


def test_dichotomy_hypothesis_point_count():
    k = 4
    p = _point(3, 5, k)
    fam = tubes_through(p, Scale(k))
    cfg = _config_for([p], [fam], k)
    names = [v.name for v in dichotomy_hypotheses(cfg)]
    assert "point_count" in names
    with pytest.raises(HypothesisViolation) as err:
        dichotomy_check(cfg, 0.25)
    assert "all_violations" in err.value.witness


def test_dichotomy_hypothesis_coarse_spread():
    # a full grid spreads over every coarse cell, violating the
    # delta^(-1/2-eps) coarse covering hypothesis
    k = 4
    ps = grid(k)
    fams = tuple(tubes_through(p, Scale(k)) for p in ps.points)
    cfg = configuration_of(ps, fams, 0.5, 0.1)
    names = [v.name for v in dichotomy_hypotheses(cfg)]
    assert "coarse_point_cover" in names


@pytest.mark.parametrize("index", ["0", 0.0, None, True, [0]])
def test_configuration_json_rejects_non_integer_point_index(index):
    obj = furstenberg_product(4, 0.5).to_json()
    assert Configuration.from_json(obj).to_json() == obj
    obj["families"][0]["point_index"] = index
    with pytest.raises(ParseError):
        Configuration.from_json(obj)
    obj["families"][0] = [0]  # an entry that is not an object
    with pytest.raises(ParseError):
        Configuration.from_json(obj)
    obj["families"] = 7
    with pytest.raises(ParseError):
        Configuration.from_json(obj)


# furstenberg_product(k, s) has 2^(k + floor(k*s)) incidences; the cases past
# 2^18 (k=10 at s=1, k=12 at s=0.75 and s=1) hold millions of Python ints
# and are left out to keep the suite's memory small
_FURSTENBERG_CASES = [
    (k, s)
    for k in (4, 6, 8, 10, 12)
    for s in (0.3, 0.5, 0.75, 1.0)
    if k + math.floor(k * s) <= 18
]


@pytest.mark.parametrize("k, s", _FURSTENBERG_CASES)
def test_kernels_match_oracles_on_furstenberg(k, s):
    assert_matches_oracles(furstenberg_product(k, s))


def test_kernels_match_oracles_with_a_family_swapped():
    # every point's family replaced by its neighbour's: membership fails at
    # point 0, and many slope sets are checked once each
    cfg = furstenberg_product(8, 0.5)
    fams = cfg.families[1:] + cfg.families[:1]
    assert_matches_oracles(configuration_of(cfg.points, fams, cfg.s, cfg.epsilon))


def test_slope_sets_of_neighbouring_families_sharing_a_slope_cell():
    # the last slope cell of one family is the first of the next: each
    # family's slope set keeps it
    k = 4
    p, q = _point(3, 5, k), _point(9, 2, k)
    fam_p = TubeFamily(Scale(k), tuple(keys_through(p, k, [0, 5])))
    fam_q = TubeFamily(Scale(k), tuple(keys_through(q, k, [5, 9])))
    cfg = _config_for([p, q], [fam_p, fam_q], k)
    assert_matches_oracles(cfg)
    checked = []
    with mock.patch.object(incidence, "_validate_coords", recording_kernel(checked)):
        validate_configuration(cfg)
    assert [[v.floor_to_int(k) for v in values] for values in checked] == [[0, 5], [5, 9]]


def test_benchmark_configurations_need_no_point_ball_counts(monkeypatch):
    # the cell-count bound decides the point sets of the incidence-run
    # benchmark's configurations, so their ball counts never run; each
    # distinct slope set still goes to the exact kernel, as the oracle
    # tests record
    def refuse(*args):
        raise AssertionError("the point set's ball counts ran")

    monkeypatch.setattr(delta_sets, "_validate_coords", refuse)
    for k in (8, 10, 12):
        assert validate_configuration(furstenberg_product(k, 0.5)) == []


def _finer_point(cfg: Configuration, exp: int) -> Configuration:
    # the last point moved by 2^-exp, far from every other point; its family
    # holds the canonical tubes through the moved point, in integers, since
    # the tube kernels refuse it past 2^-(56-k)
    k = cfg.scale.k
    p = cfg.points.points[-1]
    q = DyadicPoint(p.x + DyadicRational(1, exp), p.y)
    x_num, y_num, m = _point_ints(q)
    fam = TubeFamily(cfg.scale, [pack_key(a, ((y_num << k) - a * x_num) >> m, k) for a in range(0, 1 << k, 3)])
    points = PointSet(cfg.scale, cfg.points.points[:-1] + (q,))
    return configuration_of(points, cfg.families[:-1] + (fam,), cfg.s, cfg.epsilon)


@pytest.mark.parametrize("exp", [30, 50])
def test_points_finer_than_ball_counts_allow(exp):
    # past 2^-27 the int64 ball counts refuse a point, and
    # validate_configuration raises their error before the membership kernel
    # runs, also past that kernel's own 2^-(56-k) envelope; the incidence
    # report reads only coarse point cells and is exact
    cfg = _finer_point(furstenberg_product(8, 0.5), exp)
    message = rf"2\^-27 grid or coarser, got 2\^-{exp}"
    with pytest.raises(DyadicOverflowError, match=message):
        validate_configuration(cfg)
    with pytest.raises(DyadicOverflowError, match=message):
        validate_configuration_oracle(cfg)
    assert incidence_report(cfg) == incidence_report_oracle(cfg)
    assert cauchy_schwarz_bound(cfg) == cauchy_schwarz_oracle(cfg)


@hys.composite
def _configurations(draw) -> tuple[Configuration, int]:
    """Small configurations at k in {2, 4}: signed coordinates on mixed
    exponents up to 2^-(k+3), families of tubes through their points that
    may be empty, and at most one key planted in a family it misses. Also
    draws the kernel's block size, so that blocks end inside and between
    families."""
    k = draw(hys.sampled_from([2, 4]))
    scale = Scale(k)
    coords = hys.integers(min_value=0, max_value=k + 3).flatmap(
        lambda e: hys.builds(DyadicRational, hys.integers(min_value=-(3 << e), max_value=3 << e), hys.just(e))
    )
    raw = draw(hys.lists(hys.tuples(coords, coords), min_size=1, max_size=12))
    points = tuple({(x, y): DyadicPoint(x, y) for x, y in raw}.values())
    edge = 1 << (k + 3)
    families = []
    for p in points:
        # slopes from a narrow range too, so that neighbouring families often
        # share slope cells, the last of one with the first of the next
        slope = hys.integers(min_value=-edge, max_value=edge - 1) | hys.integers(min_value=-2, max_value=2)
        slopes = draw(hys.lists(slope, max_size=6, unique=True))
        keys = keys_through(p, k, sorted(slopes))
        families.append(sorted(draw(hys.lists(hys.sampled_from(keys), unique=True)) if keys else []))
    if draw(hys.booleans()):
        i = draw(hys.integers(min_value=0, max_value=len(points) - 1))
        a_idx = draw(hys.integers(min_value=-edge, max_value=edge - 1))
        b_idx = draw(hys.integers(min_value=-edge, max_value=edge - 1))
        key = pack_key(a_idx, b_idx, k)
        if key not in families[i]:
            families[i] = sorted(families[i] + [key])
    cfg = configuration_of(
        PointSet(scale, points),
        tuple(TubeFamily(scale, tuple(f)) for f in families),
        draw(hys.sampled_from([0.5, 1.0])),
        0.1,
    )
    return cfg, draw(hys.sampled_from([1, 2, 3, 5, 8, 1 << 13]))


@hyp.settings(max_examples=150, deadline=None)
@hyp.given(_configurations())
def test_kernels_match_oracles_on_drawn_configurations(drawn):
    cfg, block = drawn
    with mock.patch.object(incidence, "_BLOCK_KEYS", block):
        assert_matches_oracles(cfg)


# ----------------------------------------------------- the key column


def family_blocks_oracle(families: Sequence[TubeFamily]) -> Iterator[tuple[int, int]]:
    """The block cut over the families themselves, one len() per family, as
    the kernels took it before a configuration held its keys as a column."""
    lo = held = 0
    for i, fam in enumerate(families):
        if held and held + len(fam) > incidence._BLOCK_KEYS:
            yield lo, i
            lo, held = i, 0
        held += len(fam)
    if lo < len(families):
        yield lo, len(families)


def _offsets(sizes: Sequence[int]) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _blocks(sizes: Sequence[int]) -> list[tuple[int, int]]:
    # at most one block more than there are families, so that a cut that
    # stops advancing fails the comparison instead of looping forever
    return list(islice(incidence._family_blocks(_offsets(sizes)), len(sizes) + 1))


@pytest.mark.parametrize(
    "sizes",
    [
        [],
        [0],
        [0, 0, 0],
        [3, 5, 2],  # the first two fill a block exactly
        [3, 5, 0, 0, 2],  # empty families after an exact fill stay in its block
        [9],  # one family larger than a block
        [0, 0, 9, 0, 1],  # empty families before a large one join its block
        [2, 9, 9, 0, 8, 8, 1],
        [1] * 20,
        [8, 8, 8],
    ],
)
def test_family_blocks_match_the_per_family_cut(sizes):
    families = [TubeFamily(Scale(4), tuple(range(size))) for size in sizes]
    with mock.patch.object(incidence, "_BLOCK_KEYS", 8):
        assert _blocks(sizes) == list(family_blocks_oracle(families))


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(
    hys.lists(hys.integers(min_value=0, max_value=12) | hys.just(0), max_size=30),
    hys.integers(min_value=1, max_value=10),
)
def test_family_blocks_match_the_per_family_cut_on_drawn_sizes(sizes, block):
    families = [TubeFamily(Scale(4), tuple(range(size))) for size in sizes]
    with mock.patch.object(incidence, "_BLOCK_KEYS", block):
        assert _blocks(sizes) == list(family_blocks_oracle(families))


def _with_offsets(cfg: Configuration, offsets) -> Configuration:
    return Configuration(cfg.points, cfg.keys, offsets, cfg.s, cfg.epsilon)


def test_configuration_refuses_offsets_that_do_not_cut_the_keys():
    cfg = furstenberg_product(4, 0.5)
    offsets = cfg.offsets.copy()
    assert _with_offsets(cfg, offsets) == cfg
    wrong = {
        "one family short": offsets[:-1],
        "one family too many": np.append(offsets, offsets[-1]),
        "not a column": offsets[None, :],
        "start past 0": np.where(np.arange(offsets.size) == 0, 1, offsets),
        "decreasing": np.where(np.arange(offsets.size) == 2, offsets[1] - 1, offsets),
        "end short of the keys": np.where(np.arange(offsets.size) == offsets.size - 1, offsets[-1] - 1, offsets),
    }
    for name, bad in wrong.items():
        with pytest.raises(ValidationError):
            _with_offsets(cfg, bad)
            pytest.fail(name)
    with pytest.raises(ValidationError):
        Configuration(cfg.points, cfg.keys[None, :], offsets, cfg.s, cfg.epsilon)


def test_configuration_refuses_family_keys_that_do_not_rise():
    # one key twice in one family counted one point twice on one tube
    k = 4
    p = _point(3, 5, k)
    [key] = keys_through(p, k, [0])[:1]
    with pytest.raises(ValidationError, match="family 0"):
        Configuration(PointSet(Scale(k), (p,)), [key, key], [0, 2], 0.5, 0.1)
    cfg = furstenberg_product(4, 0.5)
    keys = cfg.keys.copy()
    keys[[9, 10]] = keys[[10, 9]]  # inside family 2 of 4 keys each
    with pytest.raises(ValidationError, match="family 2 are not sorted and distinct"):
        Configuration(cfg.points, keys, cfg.offsets, cfg.s, cfg.epsilon)
    # a family may start below the end of the one before, also after empty families
    q = _point(9, 2, k)
    fam_p, fam_q = (TubeFamily(Scale(k), tuple(keys_through(r, k, [0, 5]))) for r in (p, q))
    empty = TubeFamily(Scale(k), ())
    for fams in ([fam_q, fam_p], [empty, fam_q, fam_p, empty], [fam_q, empty, empty, fam_p]):
        points = PointSet(Scale(k), [p, q, _point(1, 1, k), _point(2, 2, k)][: len(fams)])
        assert_matches_oracles(configuration_of(points, fams, 0.5, 0.1))
    # a TubeFamily refuses reversed keys itself, so the columns carry them
    with pytest.raises(ValidationError, match="strictly increase"):
        TubeFamily(Scale(k), fam_p.keys[::-1])
    keys = np.concatenate((fam_q.keys, fam_p.keys[::-1]))
    offsets = [0, len(fam_q), len(fam_q), len(fam_q), keys.size]
    with pytest.raises(ValidationError, match="family 3"):
        Configuration(points, keys, offsets, 0.5, 0.1)


def test_configuration_adopts_int64_columns_read_only():
    cfg = furstenberg_product(4, 0.5)
    keys, offsets = cfg.keys.copy(), cfg.offsets.copy()
    built = Configuration(cfg.points, keys, offsets, cfg.s, cfg.epsilon)
    # int64 arrays are adopted, not copied, and then refuse writes
    assert built.keys is keys and built.offsets is offsets
    assert built == cfg
    for column in (built.keys, built.offsets):
        assert column.dtype == np.int64
        with pytest.raises(ValueError):
            column[0] = 7
    with pytest.raises(AttributeError):
        built.keys = keys
    # anything else becomes a read-only int64 copy
    listed, narrow = cfg.keys.tolist(), cfg.offsets.astype(np.int32)
    copied = Configuration(cfg.points, listed, narrow, cfg.s, cfg.epsilon)
    narrow[1] -= 1
    assert copied == cfg
    assert copied.keys.dtype == copied.offsets.dtype == np.int64
    assert not copied.keys.flags.writeable and not copied.offsets.flags.writeable


def test_configuration_build_holds_one_key_column():
    # furstenberg_product hands its fresh key column over: a copy in the
    # constructor took the peak to 2.1 times the column at k = 12
    tracemalloc.start()
    try:
        cfg = furstenberg_product(12, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cfg.keys.nbytes


def test_configuration_equality_is_by_value_and_never_raises():
    a, b = furstenberg_product(8, 0.5), furstenberg_product(8, 0.5)
    assert a is not b and a == b and not a != b
    fams = list(a.families)
    fams[3] = TubeFamily(a.scale, fams[3].keys[1:])
    assert configuration_of(a.points, fams, a.s, a.epsilon) != a
    assert configuration_of(a.points, a.families, a.s, 0.2) != a
    assert furstenberg_product(8, 0.3) != a
    assert a != "configuration" and a != None  # noqa: E711
    assert a in [None, b]


def test_configuration_from_families_round_trips_through_json():
    k = 4
    points = [_point(3, 5, k), _point(9, 2, k), _point(1, 1, k)]
    fams = [
        tubes_through(points[0], Scale(k)),
        TubeFamily(Scale(k), ()),
        TubeFamily(Scale(k), tuple(keys_through(points[2], k, [0, 5, 9]))),
    ]
    cfg = _config_for(points, fams, k)
    assert cfg.families == tuple(fams)
    assert cfg.offsets.tolist() == [0, len(fams[0]), len(fams[0]), len(fams[0]) + len(fams[2])]
    obj = cfg.to_json()
    again = Configuration.from_json(obj)
    assert again == cfg and again.to_json() == obj
    with pytest.raises(ScaleError):
        configuration_of(cfg.points, [*fams[:2], TubeFamily(Scale(6), ())], 0.5, 0.1)


def test_configuration_with_an_empty_family_and_a_single_point():
    k = 4
    p = _point(3, 5, k)
    lone = _config_for([p], [TubeFamily(Scale(k), ())], k)
    assert lone.keys.size == 0 and lone.offsets.tolist() == [0, 0]
    assert_matches_oracles(lone)
    rep = incidence_report(lone)
    assert (rep.incidence_count, rep.tube_count, rep.nt_histogram) == (0, 0, ())
    sizes = [v.witness for v in dichotomy_hypotheses(lone) if v.name == "family_size"]
    assert [(w["point_index"], w["size"]) for w in sizes] == [(0, 0)]
    # an empty family between two nonempty ones
    q, r = _point(9, 2, k), _point(1, 1, k)
    cfg = _config_for([q, p, r], [tubes_through(q, Scale(k)), TubeFamily(Scale(k), ()), tubes_through(r, Scale(k))], k)
    assert_matches_oracles(cfg)
    for block in (1, 3):
        with mock.patch.object(incidence, "_BLOCK_KEYS", block):
            assert_matches_oracles(cfg)


def family_size_oracle(cfg: Configuration) -> list[dict]:
    """The family-size witness, from a len() of each family in point order."""
    need = 2.0 ** (cfg.scale.k * (cfg.s - cfg.epsilon))
    for i, fam in enumerate(cfg.families):
        if len(fam) < need:
            return [{"point_index": i, "size": len(fam), "required": need}]
    return []


def test_dichotomy_reports_the_first_short_family():
    cfg = furstenberg_product(8, 0.5)
    assert family_size_oracle(cfg) == []
    fams = list(cfg.families)
    # families 5 and 9 drop below delta^-(s-eps) = 4 tubes; 5 is reported
    fams[9] = TubeFamily(cfg.scale, fams[9].keys[:1])
    fams[5] = TubeFamily(cfg.scale, fams[5].keys[:3])
    short = configuration_of(cfg.points, fams, cfg.s, cfg.epsilon)
    got = [v.witness for v in dichotomy_hypotheses(short) if v.name == "family_size"]
    assert got == family_size_oracle(short) == [{"point_index": 5, "size": 3, "required": 4.0}]
    with pytest.raises(HypothesisViolation) as err:
        dichotomy_check(short, 0.25)
    assert err.value.name == "family_size"
    assert err.value.witness["point_index"] == 5
