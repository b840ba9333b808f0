"""Two-scale incidence statistics for configurations of points and tubes.

A configuration pairs each point p with a finite tube family T_p whose
members all contain p. The aggregate statistics only ever need the multiset
of incidence counts N_T = #{p : T in T_p}: the double-counting identity
sum_p |T_p| = sum_T N_T is checked exactly, and the pairwise-intersection sum
sum_{p != q} |T_p cap T_q| equals sum_T N_T^2 - sum_T N_T, so the
Cauchy-Schwarz chain is verified with integer arithmetic only.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core_grid import (
    DyadicPoint,
    DyadicRational,
    PointSet,
    Scale,
    _int_field,
    covering_number,
    squared_distance,
)
from .delta_sets import DeltaSetParams, validate, validate_1d
from .errors import HypothesisViolation, ParseError, ScaleError, ValidationError
from .tubes import TubeFamily, keys_missing, unpack_key


@dataclass(frozen=True)
class Configuration:
    """Point set plus one tube family per point, at a common even-k scale."""

    points: PointSet
    families: tuple[TubeFamily, ...]
    s: float
    epsilon: float

    def __post_init__(self) -> None:
        self.points.scale.require_even()
        if len(self.families) != len(self.points.points):
            raise ValidationError(
                f"{len(self.families)} families for {len(self.points.points)} points"
            )
        for fam in self.families:
            if fam.scale != self.points.scale:
                raise ScaleError("family scale differs from point scale")
        if not (0.0 < self.s <= 1.0):
            raise ValidationError(f"slope dimension s={self.s} outside (0, 1]")
        if not (0.0 < self.epsilon < min(self.s, 0.5)):
            raise ValidationError(f"epsilon={self.epsilon} outside (0, min(s, 1/2))")

    @property
    def scale(self) -> Scale:
        return self.points.scale

    def to_json(self) -> dict:
        return {
            "k": self.scale.k,
            "s": self.s,
            "epsilon": self.epsilon,
            "points": self.points.to_json()["points"],
            "families": [
                {"point_index": i, "tubes": fam.to_json()["tubes"]}
                for i, fam in enumerate(self.families)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Configuration":
        k = _int_field(obj, "k")
        try:
            s = float(obj["s"])
            eps = float(obj["epsilon"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"configuration JSON needs k, s, epsilon: {exc}") from exc
        points = PointSet.from_json({"k": k, "points": obj.get("points", [])})
        n = len(points.points)
        slots: list[TubeFamily | None] = [None] * n
        entries = obj.get("families", [])
        if not isinstance(entries, list):
            raise ParseError(f"configuration 'families' must be a list, got {entries!r}")
        for entry in entries:
            idx = _int_field(entry, "point_index")
            if not (0 <= idx < n):
                raise ParseError(f"family references missing point index {idx}")
            if slots[idx] is not None:
                raise ParseError(f"two families for point index {idx}")
            slots[idx] = TubeFamily.from_json({"k": k, "tubes": entry.get("tubes", [])})
        for i, fam in enumerate(slots):
            if fam is None:
                raise ParseError(f"no family for point index {i}")
        return cls(points, tuple(slots), s, eps)  # type: ignore[arg-type]


def union_tubes(cfg: Configuration) -> TubeFamily:
    keys: set[int] = set()
    for fam in cfg.families:
        keys.update(fam.keys)
    return TubeFamily(cfg.scale, tuple(sorted(keys)))


def _membership_violation(cfg: Configuration) -> HypothesisViolation | None:
    """Exact check that every tube of T_p contains p; the witness is the
    first point with a tube that misses it, and the first such tube in key
    order."""
    k = cfg.scale.k
    for i, (p, fam) in enumerate(zip(cfg.points.points, cfg.families)):
        key = next(keys_missing(p, k, fam.keys), None)
        if key is not None:
            return HypothesisViolation(
                "tube_membership",
                "a family tube does not contain its point",
                {"point_index": i, "tube_cell": list(unpack_key(key, k))},
            )
    return None


def validate_configuration(cfg: Configuration) -> list[HypothesisViolation]:
    """Structural hypotheses: membership, point-set Frostman condition at
    dimension 1, slope-set Frostman condition at dimension s, both with
    constant delta^-epsilon. Returns all violations found (empty if clean)."""
    out: list[HypothesisViolation] = []
    k = cfg.scale.k
    bad = _membership_violation(cfg)
    if bad is not None:
        out.append(bad)
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
    seen_slopes: set[tuple[int, ...]] = set()
    for i, fam in enumerate(cfg.families):
        if len(fam) == 0:
            continue
        cells = fam.slope_cells()
        if cells in seen_slopes:
            continue
        seen_slopes.add(cells)
        slopes = [DyadicRational(a_idx, k) for a_idx in cells]
        rep = validate_1d(slopes, DeltaSetParams(cfg.scale, cfg.s, c_eps))
        if not rep.valid:
            out.append(
                HypothesisViolation(
                    "slope_set_frostman",
                    f"slope set of family {i} fails the (delta,s,delta^-eps) condition: {rep.kind}",
                    {"point_index": i, **rep.to_json()},
                )
            )
    return out


@dataclass(frozen=True)
class IncidenceReport:
    k: int
    n_points: int
    incidence_count: int
    tube_count: int
    coarse_tube_count: int
    coarse_ball_count: int
    e_tubes: float
    e_coarse: float
    nt_histogram: tuple[tuple[int, int], ...]  # (N_T value, #tubes)
    mt_histogram: tuple[tuple[int, int], ...]  # (M_T value, #coarse tubes)
    identity_ok: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n_points": self.n_points,
            "incidence_count": self.incidence_count,
            "tube_count": self.tube_count,
            "coarse_tube_count": self.coarse_tube_count,
            "coarse_ball_count": self.coarse_ball_count,
            "e_tubes": self.e_tubes,
            "e_coarse": self.e_coarse,
            "nt_histogram": [list(row) for row in self.nt_histogram],
            "mt_histogram": [list(row) for row in self.mt_histogram],
            "identity_ok": self.identity_ok,
        }


def incidence_counts(cfg: Configuration) -> Counter:
    """N_T keyed by packed tube key."""
    counts: Counter = Counter()
    for fam in cfg.families:
        counts.update(fam.keys)
    return counts


def incidence_report(cfg: Configuration) -> IncidenceReport:
    k = cfg.scale.k
    h = k // 2
    counts = incidence_counts(cfg)
    incidences_by_tube = sum(counts.values())
    incidences_by_point = sum(len(fam) for fam in cfg.families)
    identity_ok = incidences_by_point == incidences_by_tube

    # M_T: how many coarse point-cells each coarse tube's fine members meet;
    # its keys are the coarse parents of every tube
    met: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for p, fam in zip(cfg.points.points, cfg.families):
        cell = (p.x.floor_to_int(h), p.y.floor_to_int(h))
        for a_idx, b_idx in fam.index_pairs():
            met.setdefault((a_idx >> h, b_idx >> h), set()).add(cell)

    nt_hist = Counter(counts.values())
    mt_hist = Counter(len(cells) for cells in met.values())
    tube_count = len(counts)
    coarse_count = len(met)
    return IncidenceReport(
        k=k,
        n_points=len(cfg.points.points),
        incidence_count=incidences_by_tube,
        tube_count=tube_count,
        coarse_tube_count=coarse_count,
        coarse_ball_count=covering_number(cfg.points, Scale(h)),
        e_tubes=math.log2(tube_count) / k if tube_count else 0.0,
        e_coarse=math.log2(coarse_count) / k if coarse_count else 0.0,
        nt_histogram=tuple(sorted(nt_hist.items())),
        mt_histogram=tuple(sorted(mt_hist.items())),
        identity_ok=identity_ok,
    )


@dataclass(frozen=True)
class CauchySchwarzReport:
    """Exact verification of |I|^2 <= |T| * sum_T N_T^2 and the implied
    lower bound |T| >= |I|^2 / (|I| + pair_sum)."""

    incidence_count: int
    tube_count: int
    square_sum: int
    pair_sum: int
    implied_lower_bound: float
    inequality_ok: bool

    def to_json(self) -> dict:
        return {
            "incidence_count": self.incidence_count,
            "tube_count": self.tube_count,
            "square_sum": self.square_sum,
            "pair_sum": self.pair_sum,
            "implied_lower_bound": self.implied_lower_bound,
            "inequality_ok": self.inequality_ok,
            # the same inequality, read as a tube-count lower bound
            "lower_bound_ok": self.inequality_ok,
        }


def cauchy_schwarz_bound(cfg: Configuration) -> CauchySchwarzReport:
    counts = incidence_counts(cfg)
    s1 = sum(counts.values())
    s2 = sum(v * v for v in counts.values())
    tubes = len(counts)
    # |I|^2 <= |T| * S2, all integers
    ineq_ok = s1 * s1 <= tubes * s2
    implied = (s1 * s1 / s2) if s2 else 0.0
    return CauchySchwarzReport(s1, tubes, s2, s2 - s1, implied, ineq_ok)


@dataclass(frozen=True)
class PairwiseBoundReport:
    """Largest A with some pair realizing |T_p cap T_q| = A/|p-q| + A."""

    a_observed: float
    witness: dict

    def to_json(self) -> dict:
        return {"a_observed": self.a_observed, "witness": self.witness}


def pairwise_intersection_bound_check(cfg: Configuration) -> PairwiseBoundReport:
    """O(n^2) scan; meant for moderate configurations (n up to ~1000)."""
    pts = cfg.points.points
    fams = cfg.families
    a_best = 0.0
    witness: dict = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            c = fams[i].intersection_size(fams[j])
            if c == 0:
                continue
            d = math.sqrt(squared_distance(pts[i], pts[j]).as_float())
            a_pair = c * d / (1.0 + d)
            if a_pair > a_best:
                a_best = a_pair
                witness = {"i": i, "j": j, "count": c, "distance": d}
    return PairwiseBoundReport(a_best, witness)


@dataclass(frozen=True)
class DichotomyReport:
    k: int
    s: float
    slack: float
    e_tubes: float
    e_coarse: float
    tube_branch: bool
    coarse_branch: bool
    passed: bool
    margins: tuple[float, float]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "slack": self.slack,
            "e_tubes": self.e_tubes,
            "e_coarse": self.e_coarse,
            "tube_branch": self.tube_branch,
            "coarse_branch": self.coarse_branch,
            "passed": self.passed,
            "margins": list(self.margins),
        }


def dichotomy_hypotheses(
    cfg: Configuration, *, structural: list[HypothesisViolation] | None = None
) -> list[HypothesisViolation]:
    """Cardinality and coarse-spread hypotheses on top of the structural ones.

    `structural` is `validate_configuration(cfg)` when the caller has it
    already; it is copied, not extended."""
    k = cfg.scale.k
    eps = cfg.epsilon
    out = list(validate_configuration(cfg) if structural is None else structural)
    n = len(cfg.points.points)
    need_points = 2.0 ** (k * (1.0 - eps))
    if n < need_points:
        out.append(
            HypothesisViolation(
                "point_count",
                f"|P| = {n} below delta^-(1-eps) = {need_points:.2f}",
                {"n_points": n, "required": need_points},
            )
        )
    coarse_cells = covering_number(cfg.points, Scale(k // 2))
    allowed = 2.0 ** (k * (0.5 + eps))
    if coarse_cells > allowed:
        out.append(
            HypothesisViolation(
                "coarse_point_cover",
                f"N(P, sqrt(delta)) = {coarse_cells} exceeds delta^-(1/2+eps) = {allowed:.2f}",
                {"coarse_cells": coarse_cells, "allowed": allowed},
            )
        )
    need_tubes = 2.0 ** (k * (cfg.s - eps))
    for i, fam in enumerate(cfg.families):
        if len(fam) < need_tubes:
            out.append(
                HypothesisViolation(
                    "family_size",
                    f"|T_p| = {len(fam)} below delta^-(s-eps) = {need_tubes:.2f} at point {i}",
                    {"point_index": i, "size": len(fam), "required": need_tubes},
                )
            )
            break
    return out


def dichotomy_check(
    cfg: Configuration,
    slack: float,
    *,
    structural: list[HypothesisViolation] | None = None,
    incidences: IncidenceReport | None = None,
) -> DichotomyReport:
    """Verify that tube counts or coarse tube counts carry the expected
    exponent. Raises HypothesisViolation (first one, all payloads attached)
    if the input fails any stated hypothesis.

    A caller that has `validate_configuration(cfg)` or `incidence_report(cfg)`
    already passes them as `structural` and `incidences`; the report is
    the same either way."""
    if not (0.0 < slack <= 1.0):
        raise ValidationError(f"slack={slack} outside (0, 1]")
    violations = dichotomy_hypotheses(cfg, structural=structural)
    if violations:
        first = violations[0]
        first.witness.setdefault(
            "all_violations", [v.payload() for v in violations]
        )
        raise first
    rep = incidence_report(cfg) if incidences is None else incidences
    tube_target = 2.0 * cfg.s - slack
    coarse_target = cfg.s - slack
    tube_branch = rep.e_tubes >= tube_target
    coarse_branch = rep.e_coarse >= coarse_target
    return DichotomyReport(
        k=cfg.scale.k,
        s=cfg.s,
        slack=slack,
        e_tubes=rep.e_tubes,
        e_coarse=rep.e_coarse,
        tube_branch=tube_branch,
        coarse_branch=coarse_branch,
        passed=tube_branch or coarse_branch,
        margins=(rep.e_tubes - tube_target, rep.e_coarse - coarse_target),
    )


@dataclass(frozen=True)
class CoarseEnergyReport:
    energy: float
    normalized: float  # energy * delta
    cell_count: int
    max_shared: int

    def to_json(self) -> dict:
        return {
            "energy": self.energy,
            "normalized": self.normalized,
            "cell_count": self.cell_count,
            "max_shared": self.max_shared,
        }


def coarse_energy_check(cfg: Configuration) -> CoarseEnergyReport:
    """Interaction energy between coarse cells of P: for cells B != B', sum
    |T_B cap T_B'| / |p_B - p_B'|^(1-s), where T_B collects the coarse
    parents of all tubes through points in B and p_B is the cell's
    lexicographically least point. Reported raw and normalized by delta^-1."""
    k = cfg.scale.k
    h = k // 2
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(cfg.points.points):
        groups.setdefault((p.x.floor_to_int(h), p.y.floor_to_int(h)), []).append(i)
    cells = sorted(groups)
    reps: list[DyadicPoint] = []
    parent_sets: list[frozenset[tuple[int, int]]] = []
    for cell in cells:
        members = groups[cell]
        reps.append(min((cfg.points.points[i] for i in members), key=lambda p: (p.x, p.y)))
        parents: set[tuple[int, int]] = set()
        for i in members:
            for a_idx, b_idx in cfg.families[i].index_pairs():
                parents.add((a_idx >> h, b_idx >> h))
        parent_sets.append(frozenset(parents))
    exponent = 1.0 - cfg.s
    terms: list[float] = []
    max_shared = 0
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            shared = len(parent_sets[i] & parent_sets[j])
            if shared == 0:
                continue
            max_shared = max(max_shared, shared)
            d = math.sqrt(squared_distance(reps[i], reps[j]).as_float())
            terms.append(shared / (d ** exponent))
    energy = 2.0 * math.fsum(terms)
    return CoarseEnergyReport(energy, energy * 2.0 ** (-k), len(cells), max_shared)


def good_tube_count(report: IncidenceReport, min_incidences: int) -> int:
    """Number of tubes meeting at least min_incidences points (threshold
    query over the N_T histogram)."""
    return sum(n for value, n in report.nt_histogram if value >= min_incidences)


def good_tube_count_at_exponent(report: IncidenceReport, exponent: float) -> int:
    """Tubes with N_T >= (1/delta)^exponent."""
    return good_tube_count(report, math.ceil(2.0 ** (report.k * exponent)))
