"""Additive-combinatorial diagnostics on quasi-product configurations.

A quasi product stacks horizontal slices A_b x {b} over a level set B; steep
tubes crossing the slices induce pair graphs whose additive structure
(sumset covers, Balog-Szemeredi-Gowers refinement, Plunnecke-Ruzsa growth,
tripod projections) is measured here. Set arithmetic on dyadic values is
exact; cell counts of non-dyadic projection values go through Fraction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .core_grid import GRID_CAP, DyadicPoint, DyadicRational, PointSet, Scale, _indexed_entries, _int_field, _run_starts
from .core_grid import _asdict, grid_objects, number_field, read_pairs, record, write_rows
from .errors import HypothesisViolation, ParseError, ValidationError
from .incidence import _run_lengths
from .tubes import TubeFamily, unpack_key, unpack_key_array, window_keys

# (tube key, level index, point index) columns of slice_incidences
SliceHits = tuple[np.ndarray, np.ndarray, np.ndarray]
# (level lo, level hi, point lo, point hi) columns of _pair_table
PairTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@record
class QuasiProduct:
    """Levels b in B with one horizontal slice A_b x {b} per level, stored as
    one PointSet in level-then-point order, so that each level is one run of
    equal y and the runs rise. offsets (level i holds the points
    offsets[i]:offsets[i + 1]), levels, slices and points() are views
    derived from the columns."""

    point_set: PointSet
    s: float
    tau: float

    def __post_init__(self) -> None:
        # s is the dimension of the slope net of quasi_product_tubes
        for name, value in (("s", self.s), ("tau", self.tau)):
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"quasi product {name}={value} must lie in (0, 1]")
        y = self.point_set.y
        if (y[1:] < y[:-1]).any():
            raise ValidationError("levels must be strictly increasing")

    @classmethod
    def from_slices(
        cls, scale: Scale, s: float, tau: float,
        levels: Sequence[DyadicRational], slices: Sequence[Sequence[DyadicRational]],
    ) -> "QuasiProduct":
        """The quasi product of one nonempty slice of values per level."""
        if len(levels) != len(slices):
            raise ValidationError("one slice per level required")
        if not all(slices):
            raise ValidationError("empty slice")
        if list(levels) != sorted(set(levels)):
            raise ValidationError("levels must be strictly increasing")
        return cls(PointSet(scale, (DyadicPoint(a, b) for b, sl in zip(levels, slices) for a in sl)), s, tau)

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.append(np.flatnonzero(_run_starts(self.point_set.y)), len(self.point_set))

    @property
    def scale(self) -> Scale:
        return self.point_set.scale

    @cached_property
    def levels(self) -> tuple[DyadicRational, ...]:
        m = self.point_set.m
        return tuple(DyadicRational(b, m) for b in self.point_set.y[self.offsets[:-1]].tolist())

    @cached_property
    def slices(self) -> tuple[tuple[DyadicRational, ...], ...]:
        m, x, bounds = self.point_set.m, self.point_set.x.tolist(), self.offsets.tolist()
        return tuple(tuple(DyadicRational(a, m) for a in x[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def points(self) -> list[DyadicPoint]:
        return list(self.point_set.points)

    def to_json(self) -> dict:
        ps, bounds = self.point_set, self.offsets.tolist()
        values = write_rows(ps.x[:, None], ps.m)
        return {
            "k": self.scale.k,
            "s": self.s,
            "tau": self.tau,
            "levels": write_rows(ps.y[self.offsets[:-1], None], ps.m),
            "slices": [
                {"level_index": i, "values": values[lo:hi]} for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuasiProduct":
        k = _int_field(obj, "k")
        what = "quasi product JSON needs k, s, tau, levels:"
        s, tau = number_field(obj, "s", what), number_field(obj, "tau", what)
        if "levels" not in obj:
            raise ParseError(f"{what} 'levels'")
        level_rows, entries = obj["levels"], obj.get("slices", [])
        if not (isinstance(level_rows, list) and isinstance(entries, list)):
            raise ParseError("quasi product 'levels' and 'slices' must be lists")
        slices = _indexed_entries(
            entries, "level_index", len(level_rows), ("slice", "slices"), lambda entry: entry.get("values", [])
        )
        for i, rows in enumerate(slices):
            if not isinstance(rows, list):
                raise ParseError(f"slice {i} 'values' must be a list, got {rows!r}")
        columns, exact = read_pairs([*level_rows, *chain.from_iterable(slices)])
        if exact:  # the scalar path, for values the array cannot hold
            pairs = iter(grid_objects(columns, exact, DyadicRational))
            levels = [next(pairs) for _ in level_rows]
            return cls.from_slices(Scale(k), s, tau, levels, [[next(pairs) for _ in sl] for sl in slices])
        levels, xs, sizes = columns[: len(level_rows), 0], columns[len(level_rows) :, 0], list(map(len, slices))
        if not all(sizes):
            raise ValidationError("empty slice")
        if (levels[1:] <= levels[:-1]).any():
            raise ValidationError("levels must be strictly increasing")
        return cls(PointSet.from_columns(Scale(k), xs, np.repeat(levels, sizes), GRID_CAP), s, tau)


def sumset_cover(a_values: Sequence[DyadicRational], b_values: Sequence[DyadicRational], target: Scale) -> int:
    """Number of target-cells met by {a + b}; exact."""
    k = target.k
    cells = {(a + b).floor_to_int(k) for a in a_values for b in b_values}
    return len(cells)


def exact_sumset_size(a_values: Sequence[DyadicRational], b_values: Sequence[DyadicRational]) -> int:
    return len({(a + b) for a in a_values for b in b_values})


@record
class PairGraph:
    """Bipartite relation G between value sets A and B, edges as index pairs,
    with the additive-energy parameter K it is claimed to satisfy."""

    a_values: tuple[DyadicRational, ...]
    b_values: tuple[DyadicRational, ...]
    edges: tuple[tuple[int, int], ...]
    K: float

    def __post_init__(self) -> None:
        na, nb = len(self.a_values), len(self.b_values)
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < na and 0 <= j < nb):
                raise ValidationError(f"edge ({i},{j}) out of range")
            if (i, j) in seen:
                raise ValidationError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        if self.K <= 0:
            raise ValidationError("K must be positive")

    def restricted_sumset_size(self) -> int:
        return len({self.a_values[i] + self.b_values[j] for i, j in self.edges})

    def eligibility(self) -> dict:
        """The two Balog-Szemeredi-Gowers hypotheses at this K."""
        na, nb = len(self.a_values), len(self.b_values)
        size_ok = len(self.edges) * self.K >= na * nb
        sum_ok = self.restricted_sumset_size() <= self.K * math.sqrt(na * nb)
        return {
            "edge_count_ok": size_ok,
            "restricted_sum_ok": sum_ok,
            "k_too_large": self.K * self.K >= na * nb,
        }


def restricted_sumset(g: PairGraph, target: Scale) -> int:
    """Number of target-cells met by {a + b : (a, b) an edge of g}; exact."""
    return len({(g.a_values[i] + g.b_values[j]).floor_to_int(target.k) for i, j in g.edges})


def measured_bsg_parameter(
    a_values: Sequence[DyadicRational],
    b_values: Sequence[DyadicRational],
    edges: Sequence[tuple[int, int]],
) -> float:
    """Smallest K making both hypotheses true for this graph."""
    na, nb = len(a_values), len(b_values)
    if not edges:
        raise ValidationError("empty graph has no meaningful K")
    s = len({a_values[i] + b_values[j] for i, j in edges})
    return max(na * nb / len(edges), s / math.sqrt(na * nb))


@record
class BsgReport:
    a_kept: tuple[int, ...]
    b_kept: tuple[int, ...]
    rounds: int
    c_exponent: float
    component_exponents: tuple[float, float, float, float]
    flags: dict

    to_json = _asdict


def bsg_refine(g: PairGraph) -> BsgReport:
    """Deterministic popularity refinement: repeatedly delete vertices whose
    degree falls below half the side average, then measure the smallest c
    with |A'| >= K^-c |A|, |B'| >= K^-c |B|, |A'+B'| <= K^c sqrt(|A||B|),
    and |G cap (A'xB')| >= K^-c |A||B|."""
    na, nb = len(g.a_values), len(g.b_values)
    alive_a = set(range(na))
    alive_b = set(range(nb))
    edges = set(g.edges)
    rounds = 0
    while True:
        rounds += 1
        cur = [(i, j) for i, j in edges if i in alive_a and j in alive_b]
        if not cur:
            break
        deg_a: dict[int, int] = {}
        deg_b: dict[int, int] = {}
        for i, j in cur:
            deg_a[i] = deg_a.get(i, 0) + 1
            deg_b[j] = deg_b.get(j, 0) + 1
        m = len(cur)
        drop_a = {i for i in alive_a if deg_a.get(i, 0) < m / (2 * len(alive_a))}
        drop_b = {j for j in alive_b if deg_b.get(j, 0) < m / (2 * len(alive_b))}
        if not drop_a and not drop_b:
            break
        alive_a -= drop_a
        alive_b -= drop_b
        if not alive_a or not alive_b:
            break
    kept_a = tuple(sorted(alive_a))
    kept_b = tuple(sorted(alive_b))
    flags = g.eligibility()
    if not kept_a or not kept_b:
        return BsgReport(kept_a, kept_b, rounds, math.inf, (math.inf,) * 4, {**flags, "collapsed": True})
    surviving = [(i, j) for i, j in g.edges if i in alive_a and j in alive_b]
    sum_sub = exact_sumset_size([g.a_values[i] for i in kept_a], [g.b_values[j] for j in kept_b])
    root = math.sqrt(na * nb)
    if g.K <= 1.0:
        # every conclusion is either trivially true or vacuous at K <= 1
        return BsgReport(kept_a, kept_b, rounds, 0.0, (0.0, 0.0, 0.0, 0.0), {**flags, "k_at_most_one": True})
    log_k = math.log(g.K)
    comp = (
        math.log(na / len(kept_a)) / log_k,
        math.log(nb / len(kept_b)) / log_k,
        math.log(max(sum_sub / root, 1.0)) / log_k,
        math.log(na * nb / max(len(surviving), 1)) / log_k,
    )
    c = max(0.0, *comp)
    return BsgReport(kept_a, kept_b, rounds, c, comp, flags)


@record
class PlunneckeReport:
    c0: float
    a_cells: int
    b_cells: int
    sum_ab: int
    sum_bb: int
    diff_bb: int
    bound: float
    ok: bool

    to_json = _asdict


def plunnecke_corollary_check(
    a_values: Sequence[DyadicRational],
    b_values: Sequence[DyadicRational],
    scale: Scale,
) -> PlunneckeReport:
    """Floor both sets to the delta-grid, measure C0 = |A+B|/|A| there, and
    verify |B+B| and |B-B| against 4 C0^2 |A| (integer C = ceil(C0) satisfies
    C^2 <= 4 C0^2 for C0 >= 1, so the factor 4 absorbs the rounding)."""
    k = scale.k
    a_grid = sorted({v.floor_to_int(k) for v in a_values})
    b_grid = sorted({v.floor_to_int(k) for v in b_values})
    if not a_grid or not b_grid:
        raise ValidationError("empty set")
    sum_ab = len({a + b for a in a_grid for b in b_grid})
    sum_bb = len({x + y for x in b_grid for y in b_grid})
    diff_bb = len({x - y for x in b_grid for y in b_grid})
    c0 = sum_ab / len(a_grid)
    bound = 4.0 * c0 * c0 * len(a_grid)
    ok = sum_bb <= bound and diff_bb <= bound
    return PlunneckeReport(c0, len(a_grid), len(b_grid), sum_ab, sum_bb, diff_bb, bound, ok)


def tripod_projection(x: float, y: float, b1: float, b2: float, b3: float) -> float:
    """pi_{b1,b2,b3}(x, y) = x + ((b2-b1)/(b3-b2)) * y."""
    if b3 == b2:
        raise ValidationError("b3 == b2 degenerates the projection")
    return x + ((b2 - b1) / (b3 - b2)) * y


def tripod_residual(
    points: Sequence[DyadicPoint],
    b1: DyadicRational,
    b2: DyadicRational,
    b3: DyadicRational,
) -> float:
    """Collinearity defect |a1 + q*a3 - (1+q)*a2| for a_i = pi_{b1,b2,b3}(p_i).

    Zero for exactly collinear points at exact levels b_i; for grid points on
    one steep tube with level gaps >= 1/4 it stays within a small multiple of
    delta (the coefficients q and 1+q are bounded by 4).
    """
    if len(points) != 3:
        raise ValidationError("a tripod has exactly three points")
    f1, f2, f3 = (b1.as_float(), b2.as_float(), b3.as_float())
    a1, a2, a3 = (tripod_projection(p.x.as_float(), p.y.as_float(), f1, f2, f3) for p in points)
    q = (f2 - f1) / (f3 - f2)
    return abs(a1 + q * a3 - (1.0 + q) * a2)


def _fraction(v: DyadicRational) -> Fraction:
    return Fraction(v.num, 1 << v.exp)


def tripod_image_cover(
    pairs: Iterable[tuple[DyadicRational, DyadicRational]],
    b1: DyadicRational,
    b2: DyadicRational,
    b3: DyadicRational,
    target: Scale,
) -> int:
    """Exact delta-cell count of {a1 + ((b2-b1)/(b3-b2)) a3} over the pairs.

    The ratio is rational but not dyadic, so the floor goes through Fraction.
    """
    if b3 == b2:
        raise ValidationError("b3 == b2 degenerates the projection")
    q = _fraction(b2 - b1) / _fraction(b3 - b2)
    k = target.k
    cells = set()
    for a1, a3 in pairs:
        v = (_fraction(a1) + q * _fraction(a3)) * (1 << k)
        cells.add(v.numerator // v.denominator)
    return len(cells)


def slice_incidences(qp: QuasiProduct, tubes: TubeFamily) -> SliceHits:
    """The (tube key, level index, point index) of every slice point that a
    tube of the family contains, as three int64 columns sorted by key, then
    level, then point; tubes meeting no slice point have no rows.

    The tubes through each point come from the intercept window at the
    family's slope cells, evaluated for every (point, slope cell) at once,
    so the cost is O(points * slopes), not O(points * tubes). The window is
    exact for points on the 2^-m grid while m + k <= 56; finer points are
    refused with DyadicOverflowError.
    """
    k, ps, family = qp.scale.k, qp.point_set, tubes.keys
    a_idx, _ = unpack_key_array(family, k)
    keys, owner = window_keys(ps.x, ps.y, ps.m, k, a_idx[_run_starts(a_idx)])
    found = family[np.minimum(np.searchsorted(family, keys), family.size - 1)] == keys
    keys, owner = keys[found], owner[found]
    # points are numbered level-then-point, so a stable sort by key keeps
    # each tube's rows in level-then-point order
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], owner[order]
    level = np.searchsorted(qp.offsets, owner, side="right") - 1
    return keys, level, owner - qp.offsets[level]


def _repeated_rows(hits: SliceHits) -> np.ndarray:
    """Rows followed by a row of the same tube at the same level: one per
    second point of a slice that a tube meets."""
    keys, level, _ = hits
    return np.flatnonzero((keys[1:] == keys[:-1]) & (level[1:] == level[:-1]))


def _multiplicity_violation(hits: SliceHits, k: int) -> HypothesisViolation | None:
    """The first tube in key order that meets one slice twice, at its lowest such level."""
    rows = _repeated_rows(hits)
    if not rows.size:
        return None
    keys, level, _ = hits
    witness = {"tube_cell": list(unpack_key(int(keys[rows[0]]), k)), "level_index": int(level[rows[0]])}
    return HypothesisViolation("tube_slice_multiplicity", "a tube meets two points of one slice", witness)


def slice_multiplicity_violation(qp: QuasiProduct, tubes: TubeFamily) -> HypothesisViolation | None:
    """Steepness hypothesis: no tube may meet two points of one slice."""
    return _multiplicity_violation(slice_incidences(qp, tubes), qp.scale.k)


def prune_to_slice_multiplicity(qp: QuasiProduct, tubes: TubeFamily) -> TubeFamily:
    """Drop every tube that meets a slice twice; the surviving family
    satisfies the steepness hypothesis by construction."""
    hits = slice_incidences(qp, tubes)
    keep = np.ones(tubes.keys.size, dtype=bool)
    # every hit key is a key of the (sorted) family
    keep[np.searchsorted(tubes.keys, hits[0][_repeated_rows(hits)])] = False
    return TubeFamily(tubes.scale, tubes.keys[keep])


def _pair_table(hits: SliceHits) -> PairTable:
    """Columns (level lo, level hi, point lo, point hi), lo < hi, of every
    two slice points at distinct levels that one tube contains; distinct
    rows, sorted in that column order."""
    keys, level, point = hits
    # each row pairs with every later row of its tube's run
    first = _run_starts(keys)
    lengths = _run_lengths(first)
    later = np.repeat(np.flatnonzero(first) + lengths, lengths) - np.arange(keys.size) - 1
    i = np.repeat(np.arange(keys.size), later)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(later) - later, later)
    distinct = level[i] != level[j]
    i, j = i[distinct], j[distinct]
    table = (level[i], level[j], point[i], point[j])
    order = np.lexsort(table[::-1])
    table = tuple(col[order] for col in table)
    new = _run_starts(table[0])
    for col in table[1:]:
        new |= _run_starts(col)
    return tuple(col[new] for col in table)


def best_slice_pair(qp: QuasiProduct, tubes: TubeFamily, *, pairs: PairTable | None = None) -> tuple[int, int]:
    """The level pair with the most distinct point pairs joined by a tube of
    the family.

    Ties prefer wider level separation, then lower indices; deterministic.
    Raises HypothesisViolation("joined_levels"), witnessed by the level and
    tube counts, when no tube joins two distinct levels: nothing to measure.
    A caller that already holds the _pair_table of slice_incidences(qp,
    tubes) passes it as pairs.
    """
    lo, hi, _, _ = pairs or _pair_table(slice_incidences(qp, tubes))
    if not lo.size:
        witness = {"level_count": len(qp.levels), "tube_count": len(tubes)}
        raise HypothesisViolation("joined_levels", "no tube joins two distinct levels", witness)
    # the table is sorted by level pair: one run of rows, one edge each, per pair
    first = _run_starts(lo) | _run_starts(hi)
    edge_counts = _run_lengths(first)
    most = edge_counts == edge_counts.max()

    def rank(pair: tuple[int, int]) -> tuple:
        lo, hi = pair
        return ((qp.levels[hi] - qp.levels[lo]).as_float(), -lo, -hi)

    return max(zip(lo[first][most].tolist(), hi[first][most].tolist()), key=rank)


def tube_slice_pairs(
    qp: QuasiProduct, tubes: TubeFamily, level_lo: int, level_hi: int, *, pairs: PairTable | None = None
) -> PairGraph:
    """Pairs (a1, a3) joined by a tube through slices level_lo and level_hi.

    Raises HypothesisViolation if any tube meets two points of one slice
    (checked over every slice, not only the two used). A caller that has
    checked that hypothesis on slice_incidences(qp, tubes) passes their
    _pair_table as pairs.
    """
    n = len(qp.levels)
    if not (0 <= level_lo < n and 0 <= level_hi < n) or level_lo == level_hi:
        raise ValidationError(f"level indices ({level_lo}, {level_hi}) invalid for {n} levels")
    if pairs is None:
        hits = slice_incidences(qp, tubes)
        bad = _multiplicity_violation(hits, qp.scale.k)
        if bad is not None:
            raise bad
        pairs = _pair_table(hits)
    lo, hi, point_lo, point_hi = pairs
    rows = (lo == min(level_lo, level_hi)) & (hi == max(level_lo, level_hi))
    ends = (point_lo[rows], point_hi[rows]) if level_lo < level_hi else (point_hi[rows], point_lo[rows])
    # the table's rows are distinct, and so are the edges
    edges = sorted(zip(ends[0].tolist(), ends[1].tolist()))
    if not edges:
        raise ValidationError("no tube joins the two slices")
    slice_lo, slice_hi = qp.slices[level_lo], qp.slices[level_hi]
    k = measured_bsg_parameter(slice_lo, slice_hi, edges)
    return PairGraph(tuple(slice_lo), tuple(slice_hi), tuple(edges), max(k, 1.0))
