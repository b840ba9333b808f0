"""Incidence counting, the integer Cauchy-Schwarz chain, and the two-branch
exponent verdict.

Small configurations are rebuilt by hand; the generator-backed ones are
cross-checked against naive per-pair counting.
"""
from __future__ import annotations

from collections import Counter

import pytest

from tubelab.core_grid import DyadicPoint, DyadicRational, PointSet, Scale, covering_number
from tubelab.errors import HypothesisViolation, ParseError, ValidationError
from tubelab.generators import furstenberg_product, grid
from tubelab.incidence import (
    Configuration,
    cauchy_schwarz_bound,
    coarse_energy_check,
    dichotomy_check,
    dichotomy_hypotheses,
    good_tube_count,
    good_tube_count_at_exponent,
    incidence_report,
    pairwise_intersection_bound_check,
    union_tubes,
    validate_configuration,
)
from tubelab.tubes import TubeFamily, canonical_tube_through, parent, tubes_through


def _config_for(points: list[DyadicPoint], fams: list[TubeFamily], k: int) -> Configuration:
    return Configuration(PointSet(Scale(k), tuple(points)), tuple(fams), 0.5, 0.1)


def _point(i: int, j: int, k: int) -> DyadicPoint:
    return DyadicPoint(DyadicRational(i, k), DyadicRational(j, k))


def test_union_tubes_single_point():
    k = 4
    p = _point(3, 5, k)
    t = canonical_tube_through(p, DyadicRational(2, k), Scale(k))
    cfg = _config_for([p], [TubeFamily.from_tubes(Scale(k), [t])], k)
    assert len(union_tubes(cfg)) == 1


def test_union_tubes_shared_families():
    k = 4
    p, q = _point(2, 3, k), _point(2, 4, k)
    fam = tubes_through(p, Scale(k))
    shared = TubeFamily.from_tubes(Scale(k), [t for t in fam if t.contains(q)])
    assert len(shared) > 1
    cfg = _config_for([p, q], [shared, shared], k)
    assert len(union_tubes(cfg)) == len(shared)


def test_union_tubes_matches_dedupe_oracle():
    cfg = furstenberg_product(8, 0.5)
    seen = set()
    for fam in cfg.families:
        seen.update(fam.keys)
    assert len(union_tubes(cfg)) == len(seen)


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
    keys = {parent(t, coarse).key() for t in union_tubes(cfg)}
    assert rep.coarse_tube_count == len(keys)


def test_incidence_invariant_under_relabeling():
    cfg = furstenberg_product(8, 0.3)
    order = list(range(len(cfg.points.points)))
    order.reverse()
    shuffled = Configuration(
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


def test_pairwise_intersection_bound():
    cfg = furstenberg_product(8, 0.5)
    rep = pairwise_intersection_bound_check(cfg)
    assert rep.a_observed <= 16.0


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
    bad = Configuration(cfg.points, tuple(fams), cfg.s, cfg.epsilon)
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
    bad = Configuration(cfg.points, tuple(fams), cfg.s, cfg.epsilon)
    [violation] = validate_configuration(bad)
    assert violation.payload()["witness"] == {"point_index": 37, "tube_cell": [17, 63]}


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


def test_dichotomy_reuses_given_checks():
    cfg = furstenberg_product(8, 0.5)
    structural, incidences = validate_configuration(cfg), incidence_report(cfg)
    given = dichotomy_check(cfg, 0.25, structural=structural, incidences=incidences)
    assert given == dichotomy_check(cfg, 0.25)
    # failing hypotheses: the given list is copied before more are appended
    k = 4
    p = _point(3, 5, k)
    small = _config_for([p], [tubes_through(p, Scale(k))], k)
    structural = validate_configuration(small)
    names = [v.name for v in dichotomy_hypotheses(small, structural=structural)]
    assert names == [v.name for v in dichotomy_hypotheses(small)]
    assert "point_count" in names
    assert all(v.name != "point_count" for v in structural)
    with pytest.raises(HypothesisViolation) as err:
        dichotomy_check(small, 0.25, structural=structural)
    assert err.value.name == names[0]


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
    cfg = Configuration(ps, fams, 0.5, 0.1)
    names = [v.name for v in dichotomy_hypotheses(cfg)]
    assert "coarse_point_cover" in names


def test_good_tube_count_thresholds():
    cfg = furstenberg_product(8, 0.5)
    rep = incidence_report(cfg)
    total = sum(n for _v, n in rep.nt_histogram)
    assert good_tube_count(rep, 1) == total == rep.tube_count
    assert good_tube_count(rep, 10**9) == 0
    max_nt = max(v for v, _n in rep.nt_histogram)
    assert good_tube_count(rep, max_nt) >= 1
    # exponent form: threshold ceil(delta^-e)
    assert good_tube_count_at_exponent(rep, 0.0) == good_tube_count(rep, 1)


def test_coarse_energy_single_cell():
    k = 4
    p = _point(1, 1, k)
    q = _point(1, 2, k)  # same coarse cell at scale 2
    fam_p = tubes_through(p, Scale(k))
    fam_q = tubes_through(q, Scale(k))
    cfg = _config_for([p, q], [fam_p, fam_q], k)
    rep = coarse_energy_check(cfg)
    assert rep.cell_count == 1
    assert rep.energy == 0.0


def test_coarse_energy_generator():
    cfg = furstenberg_product(8, 0.5)
    rep = coarse_energy_check(cfg)
    assert rep.cell_count == covering_number(cfg.points, Scale(4))
    assert rep.energy >= 0.0
    assert rep.normalized == pytest.approx(rep.energy / 2.0**8)


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
