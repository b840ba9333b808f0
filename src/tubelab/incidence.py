"""Two-scale incidence statistics for configurations of points and tubes.

A configuration pairs each point p with a finite tube family T_p whose
members all contain p. The aggregate statistics only ever need the multiset
of incidence counts N_T = #{p : T in T_p}: the double-counting identity
sum_p |T_p| = sum_T N_T is checked exactly, and the pairwise-intersection sum
sum_{p != q} |T_p cap T_q| equals sum_T N_T^2 - sum_T N_T, so the
Cauchy-Schwarz chain is verified with integer arithmetic only.

Per-key work runs as numpy kernels over the configuration's own key column,
the families' keys in point order: membership and slope sets over blocks of
whole families, N_T and M_T as run lengths of sorted whole-configuration
columns, one at a time.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator

import numpy as np

from .core_grid import PointSet, Scale, _indexed_entries, _int_field, _run_starts, cell_numbers, covering_number
from .core_grid import field, number_field, record
from .delta_sets import DeltaSetParams, _validate_coords, validate
from .errors import HypothesisViolation, ParseError, ValidationError
from .tubes import TubeFamily, family_keys, intercept_window_array, key_bits, membership_grid, parent_key_array
from .tubes import TUBE_ROW, tube_rows, unpack_key, unpack_key_array

# the membership and slope-set kernels take whole families, at most this many
# keys at a time unless one family alone holds more
_BLOCK_KEYS = 1 << 13


@record
class Configuration:
    """Point set plus one tube family per point, at a common even-k scale.
    Family i is keys[offsets[i]:offsets[i + 1]], its strictly increasing
    packed keys; both columns are read-only int64 arrays. An int64 array
    passed in is adopted, not copied, and made read-only."""

    points: PointSet
    keys: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    s: float
    epsilon: float

    def __post_init__(self) -> None:
        self.points.scale.require_even()
        keys, offsets = np.asarray(self.keys, dtype=np.int64), np.asarray(self.offsets, dtype=np.int64)
        n = len(self.points)
        if keys.ndim != 1 or offsets.shape != (n + 1,):
            raise ValidationError(f"{offsets.size - 1} families for {n} points")
        if offsets[0] != 0 or offsets[-1] != keys.size or (np.diff(offsets) < 0).any():
            raise ValidationError(f"offsets must rise from 0 to the {keys.size} keys")
        # keys rise within each family; a family's first key is exempt
        rising = keys[1:] > keys[:-1]
        rising[offsets[(offsets > 0) & (offsets < keys.size)] - 1] = True
        if not rising.all():
            i = int(np.searchsorted(offsets, np.argmin(rising) + 1, side="right")) - 1
            raise ValidationError(f"the keys of family {i} are not sorted and distinct")
        keys.flags.writeable = offsets.flags.writeable = False
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "offsets", offsets)
        if not (0.0 < self.s <= 1.0):
            raise ValidationError(f"slope dimension s={self.s} outside (0, 1]")
        if not (0.0 < self.epsilon < min(self.s, 0.5)):
            raise ValidationError(f"epsilon={self.epsilon} outside (0, min(s, 1/2))")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (self.points, self.s, self.epsilon) == (other.points, other.s, other.epsilon) and all(
            np.array_equal(a, b) for a, b in ((self.keys, other.keys), (self.offsets, other.offsets))
        )

    @cached_property
    def families(self) -> tuple[TubeFamily, ...]:
        """The families as TubeFamily objects over views of the column."""
        bounds = self.offsets.tolist()
        return tuple(TubeFamily(self.scale, self.keys[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def violations(self) -> tuple[HypothesisViolation, ...]:
        """validate_configuration's violations, computed once."""
        return tuple(validate_configuration(self))

    @cached_property
    def incidences(self) -> IncidenceReport:
        """incidence_report's report, computed once."""
        return incidence_report(self)

    @property
    def scale(self) -> Scale:
        return self.points.scale

    def to_json(self) -> dict:
        rows, bounds = tube_rows(self.keys, self.scale.k), self.offsets.tolist()
        return {
            "k": self.scale.k,
            "s": self.s,
            "epsilon": self.epsilon,
            "points": self.points.to_json()["points"],
            "families": [
                {"point_index": i, "tubes": rows[lo:hi]} for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Configuration":
        k = _int_field(obj, "k")
        s, eps = (number_field(obj, key, "configuration JSON needs k, s, epsilon:") for key in ("s", "epsilon"))
        points = PointSet.from_json({"k": k, "points": obj.get("points", [])})
        entries = obj.get("families", [])
        if not isinstance(entries, list):
            raise ParseError(f"configuration 'families' must be a list, got {entries!r}")
        families = _indexed_entries(
            entries, "point_index", len(points), ("family", "families"), lambda entry: entry.get("tubes", [])
        )
        return cls(points, *family_keys(points.scale, families, TUBE_ROW), s, eps)


def _run_lengths(first: np.ndarray) -> np.ndarray:
    """Lengths of the runs that a _run_starts mask marks."""
    return np.diff(np.flatnonzero(first), append=first.size)


def _histogram(run_lengths: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(value, multiplicity) of each value of the column, increasing."""
    counts = np.bincount(run_lengths)
    values = np.flatnonzero(counts)
    return tuple(zip(values.tolist(), counts[values].tolist()))


def _family_blocks(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive [lo, hi) runs of whole families, each holding at most
    _BLOCK_KEYS keys or a single family, cut from the families' offsets."""
    lo, n = 0, offsets.size - 1
    while lo < n:
        # the last family end that fits; when none does, the families up to
        # and including the first nonempty one
        hi = int(np.searchsorted(offsets, offsets[lo] + _BLOCK_KEYS, side="right")) - 1
        if offsets[hi] == offsets[lo]:
            hi = min(hi + 1, n)
        yield lo, hi
        lo = hi


def _scan_families(cfg: Configuration) -> tuple[HypothesisViolation | None, dict[bytes, int]]:
    """One pass over blocks of whole families: the membership violation (the
    first point with a tube that misses it, and the first such tube in key
    order), and the first nonempty family with each slope set, keyed by the
    bytes of its increasing int64 slope cells."""
    k = cfg.scale.k
    offsets = cfg.offsets
    x_num, y_num, m = cfg.points.x, cfg.points.y, cfg.points.m
    membership_grid(m, k)
    missing: HypothesisViolation | None = None
    slope_sets: dict[bytes, int] = {}
    for lo, hi in _family_blocks(offsets):
        keys = cfg.keys[offsets[lo] : offsets[hi]]
        if keys.size == 0:
            continue
        # the block's family bounds within `keys`
        edges = offsets[lo : hi + 1] - offsets[lo]
        starts, ends, lengths = edges[:-1], edges[1:], np.diff(edges)
        a_idx, b_idx = unpack_key_array(keys, k)
        if missing is None:
            owner = np.repeat(np.arange(lo, hi), lengths)
            w_lo, w_hi = intercept_window_array(x_num[owner], y_num[owner], m, k, a_idx)
            bad = np.flatnonzero((b_idx < w_lo) | (b_idx > w_hi))
            if bad.size:
                missing = HypothesisViolation(
                    "tube_membership",
                    "a family tube does not contain its point",
                    {"point_index": int(owner[bad[0]]), "tube_cell": list(unpack_key(int(keys[bad[0]]), k))},
                )
        # keys sort by slope cell first, so a family's distinct slope cells
        # are the firsts of its runs of equal slope cell
        first = _run_starts(a_idx)
        first[starts[lengths > 0]] = True
        cells = a_idx[first]
        bounds = np.concatenate(([0], np.cumsum(first)))
        for i, c_lo, c_hi in zip(range(lo, hi), bounds[starts].tolist(), bounds[ends].tolist()):
            if c_hi > c_lo:
                slope_sets.setdefault(cells[c_lo:c_hi].tobytes(), i)
    return missing, slope_sets


def validate_configuration(cfg: Configuration) -> list[HypothesisViolation]:
    """Structural hypotheses: membership, point-set Frostman condition at
    dimension 1, slope-set Frostman condition at dimension s, both with
    constant delta^-epsilon. Returns all violations found (empty if clean).
    The ball counts run first: they refuse points finer than 2^-27 with
    DyadicOverflowError, inside the envelope of the membership kernel."""
    out: list[HypothesisViolation] = []
    k = cfg.scale.k
    c_eps = 2.0 ** (k * cfg.epsilon)
    point_report = validate(cfg.points, DeltaSetParams(cfg.scale, 1.0, c_eps))
    missing, slope_sets = _scan_families(cfg)
    if missing is not None:
        out.append(missing)
    if not point_report.valid:
        out.append(
            HypothesisViolation(
                "point_set_frostman",
                f"points fail the (delta,1,delta^-eps) condition: {point_report.kind}",
                point_report.to_json(),
            )
        )
    for cells, i in slope_sets.items():
        # the slope cells on the 2^-k grid, all inside [-8, 8)
        rep = _validate_coords((np.frombuffer(cells, dtype=np.int64),), k, DeltaSetParams(cfg.scale, cfg.s, c_eps))
        if not rep.valid:
            out.append(
                HypothesisViolation(
                    "slope_set_frostman",
                    f"slope set of family {i} fails the (delta,s,delta^-eps) condition: {rep.kind}",
                    {"point_index": i, **rep.to_json()},
                )
            )
    return out


@record
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
        nt, mt = ([list(row) for row in hist] for hist in (self.nt_histogram, self.mt_histogram))
        return {**self._asdict(), "nt_histogram": nt, "mt_histogram": mt}


def incidence_report(cfg: Configuration) -> IncidenceReport:
    k = cfg.scale.k
    h = k // 2
    offsets = cfg.offsets
    incidences_by_point = cfg.keys.size

    # N_T: the run lengths of the sorted keys. The whole-configuration
    # columns only sort and compare, so they take the narrowest unsigned type
    keys = cfg.keys.astype(np.min_scalar_type((1 << key_bits(k)) - 1))
    keys.sort()
    first = _run_starts(keys)
    del keys
    n_t = _run_lengths(first)
    incidences_by_tube = int(n_t.sum())
    tube_count = n_t.size

    # M_T: run lengths of the sorted distinct (parent key, coarse point cell)
    # pairs, packed as parent << cell_bits | cell number, below 2^(2k+15)
    point_cells, coarse_balls = cell_numbers(cfg.points, h)
    cell_bits = max(coarse_balls - 1, 1).bit_length()
    pairs = np.empty(incidences_by_point, dtype=np.min_scalar_type((1 << (key_bits(h) + cell_bits)) - 1))
    for lo, hi in _family_blocks(offsets):
        block = parent_key_array(cfg.keys[offsets[lo] : offsets[hi]], k, h)
        block <<= cell_bits
        block |= np.repeat(point_cells[lo:hi], np.diff(offsets[lo : hi + 1]))
        pairs[offsets[lo] : offsets[hi]] = block
    pairs.sort()
    parents = pairs[_run_starts(pairs)] >> cell_bits
    del pairs
    m_t = _run_lengths(_run_starts(parents))
    coarse_count = m_t.size
    return IncidenceReport(
        k=k,
        n_points=len(cfg.points),
        incidence_count=incidences_by_tube,
        tube_count=tube_count,
        coarse_tube_count=coarse_count,
        coarse_ball_count=coarse_balls,
        e_tubes=math.log2(tube_count) / k if tube_count else 0.0,
        e_coarse=math.log2(coarse_count) / k if coarse_count else 0.0,
        nt_histogram=_histogram(n_t),
        mt_histogram=_histogram(m_t),
        identity_ok=incidences_by_point == incidences_by_tube,
    )


@record
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
        # lower_bound_ok: the same inequality, read as a tube-count lower bound
        return {**self._asdict(), "lower_bound_ok": self.inequality_ok}


def cauchy_schwarz_bound(cfg: Configuration) -> CauchySchwarzReport:
    """|I|, sum_T N_T^2 and |T|, exactly, from the N_T histogram of the
    configuration's incidence report."""
    hist = cfg.incidences.nt_histogram
    s1 = sum(v * n for v, n in hist)
    s2 = sum(v * v * n for v, n in hist)
    tubes = sum(n for _, n in hist)
    # |I|^2 <= |T| * S2, all integers
    ineq_ok = s1 * s1 <= tubes * s2
    implied = (s1 * s1 / s2) if s2 else 0.0
    return CauchySchwarzReport(s1, tubes, s2, s2 - s1, implied, ineq_ok)


@record
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
        return {**self._asdict(), "margins": list(self.margins)}


def dichotomy_hypotheses(cfg: Configuration) -> list[HypothesisViolation]:
    """Cardinality and coarse-spread hypotheses on top of the structural ones."""
    k = cfg.scale.k
    eps = cfg.epsilon
    out = list(cfg.violations)
    n = len(cfg.points)
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
    sizes = np.diff(cfg.offsets)
    for i in np.flatnonzero(sizes < need_tubes)[:1].tolist():
        size = int(sizes[i])
        out.append(
            HypothesisViolation(
                "family_size",
                f"|T_p| = {size} below delta^-(s-eps) = {need_tubes:.2f} at point {i}",
                {"point_index": i, "size": size, "required": need_tubes},
            )
        )
    return out


def dichotomy_check(cfg: Configuration, slack: float) -> DichotomyReport:
    """Verify that tube counts or coarse tube counts carry the expected
    exponent. Raises HypothesisViolation (the first one, its witness
    extended with every payload) if the input fails any stated hypothesis."""
    if not (0.0 < slack <= 1.0):
        raise ValidationError(f"slack={slack} outside (0, 1]")
    violations = dichotomy_hypotheses(cfg)
    if violations:
        first = violations[0]
        witness = {**first.witness, "all_violations": [v.payload() for v in violations]}
        raise HypothesisViolation(first.name, first.message, witness)
    rep = cfg.incidences
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
