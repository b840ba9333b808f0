"""(delta, s, C)-set validation, discrete content, and subset extraction.

The ball condition is checked at data-point centers and dyadic radii only;
against arbitrary centers this costs at most a factor 2^s in the constant,
which the report surfaces as `effective_constant`. Counts are exact: open
Euclidean balls, integer comparisons d^2 < r^2 on coordinates lifted to one
grid no finer than 2^-27 (a finer set is refused with DyadicOverflowError
before anything is counted), so nothing wraps. For each block of 16 centers
the squared distances are sorted row by row, and each ball count is the
length of the prefix below r^2. They are int32 when the largest possible
squared distance, the sum over axes of (max - min)^2, is below 2^31 - 1,
else int64; squared radii are clipped to that bound plus one.

delta-separation is the radius-delta case of the same counts: the open
delta-ball around each point holds that point alone. A set that fails it is
reported as kind "separation", and its witness is the first close pair in
point order: the lowest index i of any two points less than delta apart,
and the lowest j != i close to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_grid import (
    DyadicPoint,
    DyadicRational,
    PointSet,
    Scale,
    check_value_bound,
)
from .errors import DyadicOverflowError, ValidationError

Coord = tuple[DyadicRational, ...]

# ball counts take the squared distances of this many centers at a time:
# one 16 x n row block of int32 or int64, small next to the point set
_CENTER_BLOCK = 16


@dataclass(frozen=True)
class DeltaSetParams:
    """Parameters of the (delta, s, C) condition."""

    scale: Scale
    s: float
    C: float

    def __post_init__(self) -> None:
        if not (self.s > 0.0):
            raise ValidationError(f"dimension parameter s={self.s} must be positive")
        if not (self.C > 0.0):
            raise ValidationError(f"constant C={self.C} must be positive")


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    kind: str  # "ok" | "separation" | "ball"
    worst_ratio: float
    witness: dict
    effective_constant: float
    params: DeltaSetParams

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "kind": self.kind,
            "worst_ratio": self.worst_ratio,
            "witness": self.witness,
            "effective_constant": self.effective_constant,
            "k": self.params.scale.k,
            "s": self.params.s,
            "C": self.params.C,
        }


def _distance_dtype(d2_max: int) -> type:
    """int32 when squared distances up to d2_max and the squared radius
    d2_max + 1 all fit in it, else int64: sorting 32-bit rows is cheaper."""
    return np.int32 if d2_max < np.iinfo(np.int32).max else np.int64


def _validate_coords(columns: Sequence[Sequence[int]], m: int, params: DeltaSetParams) -> ValidationReport:
    """The ball counts of the points whose coordinates are the integer
    columns `columns`, numerators on the grid 2^-m."""
    k = params.scale.k
    eff = params.C * (2.0 ** params.s)
    if len(columns[0]) == 0:
        raise ValidationError("empty set cannot be validated")
    dim = len(columns)
    # exact counting in integers: lift all coordinates to a shared exponent
    # M >= k. Coordinates differ by at most 16, so squared distances stay
    # below 2^(8 + 2M) <= 2^62 for M <= 27; finer coordinates would wrap
    m_exp = max(k, m)
    if m_exp > 27:
        raise DyadicOverflowError(
            f"ball counts need coordinates on the 2^-27 grid or coarser, got 2^-{m_exp}"
        )
    lifted = [np.asarray(col, dtype=np.int64) << (m_exp - m) for col in columns]

    def coord_json(i: int) -> list[list[int]]:
        return [DyadicRational(int(col[i]), m_exp).pair() for col in lifted]

    # no squared distance exceeds d2_max, and a squared radius above it
    # counts the same as d2_max + 1: every point
    d2_max = sum(int(ax.max() - ax.min()) ** 2 for ax in lifted)
    dtype = _distance_dtype(d2_max)
    axes = [(ax - ax.min()).astype(dtype) for ax in lifted]
    n = axes[0].size
    # row t of counts and thresholds is the radius 2^-(k-t): radii ascend
    r2 = np.array(
        [min(1 << 2 * (m_exp - k + t), d2_max + 1) for t in range(k + 1)], dtype=dtype
    )
    thresholds = np.array([params.C * (2.0 ** (t * params.s)) for t in range(k + 1)])
    # row i holds center i's counts, radii ascending
    counts = np.empty((n, k + 1), dtype=np.int64)
    # every block reuses two buffers: freeing fresh ones per block lets the
    # allocator hand the memory back and fault it in again
    block = np.empty((min(_CENTER_BLOCK, n), n), dtype=dtype)
    term = np.empty_like(block)
    for lo in range(0, n, _CENTER_BLOCK):
        rows = min(_CENTER_BLOCK, n - lo)
        d2, sq = block[:rows], term[:rows]
        np.subtract(axes[0][lo : lo + rows, None], axes[0], out=d2)
        d2 *= d2
        for d in range(1, dim):
            np.subtract(axes[d][lo : lo + rows, None], axes[d], out=sq)
            sq *= sq
            d2 += sq
        # on a sorted row the points of each open ball d^2 < r^2 are a prefix
        d2.sort(axis=1)
        for i, row in enumerate(d2, lo):
            counts[i] = row.searchsorted(r2, side="left")
        # separation is the radius-delta ball: it holds its center alone.
        # The first center that fails is the lowest index in any close
        # pair, so its first close partner comes after it; the sort lost
        # the point order, so its row is recomputed
        close = np.flatnonzero(counts[lo : lo + rows, 0] > 1)
        if close.size:
            i = lo + int(close[0])
            d2_i = sum((ax - ax[i]) ** 2 for ax in axes)
            partners = np.flatnonzero(d2_i < r2[0])
            j = int(partners[partners != i][0])
            witness = {"pair": [coord_json(i), coord_json(j)]}
            return ValidationReport(False, "separation", math.inf, witness, eff, params)
    counts = counts.T
    ratios = counts / thresholds[:, None]
    # the first maximum in (radius, center) order, as a strict > scan finds it
    t, i = divmod(int(np.argmax(ratios)), n)
    worst_ratio = float(ratios[t, i])
    worst_witness: dict = {}
    if worst_ratio > 0.0:
        worst_witness = {
            "center": coord_json(i),
            "radius_k": k - t,
            "count": int(counts[t, i]),
            "allowed": float(thresholds[t]),
        }
    valid = worst_ratio <= 1.0
    return ValidationReport(valid, "ok" if valid else "ball", worst_ratio, worst_witness, eff, params)


def validate(ps: PointSet, params: DeltaSetParams) -> ValidationReport:
    """Check the planar (delta, s, C) condition on a point set."""
    if params.scale != ps.scale:
        raise ValidationError(f"params at k={params.scale.k} but set at k={ps.scale.k}")
    return _validate_coords((ps.x, ps.y), ps.m, params)


def validate_1d(values: Sequence[DyadicRational], params: DeltaSetParams) -> ValidationReport:
    """1-d variant (slope sets, level sets); values must lie in [-8, 8]."""
    for v in values:
        check_value_bound(v)
    m = max((v.exp for v in values), default=0)
    return _validate_coords(([v.num << (m - v.exp) for v in values],), m, params)


def _occupied_levels(coords: Sequence[Coord], k: int) -> list[dict[tuple[int, ...], list[int]]]:
    levels: list[dict[tuple[int, ...], list[int]]] = []
    for j in range(k + 1):
        d: dict[tuple[int, ...], list[int]] = {}
        for idx, c in enumerate(coords):
            d.setdefault(tuple(v.floor_to_int(j) for v in c), []).append(idx)
        levels.append(d)
    return levels


def _content_dp(levels: list[dict[tuple[int, ...], list[int]]], s: float, k: int) -> list[dict[tuple[int, ...], float]]:
    m: list[dict[tuple[int, ...], float]] = [dict() for _ in range(k + 1)]
    for cell in levels[k]:
        m[k][cell] = 2.0 ** (-k * s)
    for j in range(k - 1, -1, -1):
        side_pow = 2.0 ** (-j * s)
        for cell in levels[j]:
            child_sum = 0.0
            for child in _child_cells(cell, levels[j + 1]):
                child_sum += m[j + 1][child]
            m[j][cell] = min(side_pow, child_sum)
    return m


def _child_cells(cell: tuple[int, ...], next_level: dict) -> list[tuple[int, ...]]:
    out = []
    for dx in (0, 1):
        for dy in (0, 1):
            c = (2 * cell[0] + dx, 2 * cell[1] + dy)
            if c in next_level:
                out.append(c)
    return out


def _content(coords: Sequence[Coord], s: float, k: int) -> float:
    """Discrete content: the minimum over quadtree cuts of the occupied
    cells (sides between delta and 1) of the sum of side^s."""
    levels = _occupied_levels(coords, k)
    m = _content_dp(levels, s, k)
    return sum(m[0][cell] for cell in sorted(levels[0]))


# Absolute ball-condition constants achieved by extract: any dyadic cell of
# side r holds at most (r/delta)^s + 1 <= 2 (r/delta)^s selected points and an
# open r-ball meets at most 3^dim such cells.
EXTRACT_CONSTANT_2D = 18.0
EXTRACT_CONSTANT_1D = 6.0


@dataclass(frozen=True)
class ExtractReport:
    points: PointSet
    kappa: float
    kappa_selected: float
    parity: tuple[int, ...]
    params: DeltaSetParams


def extract(ps: PointSet, s: float) -> ExtractReport:
    """Pull a large (delta, s, 18)-subset out of an arbitrary point set.

    Works on the best of the four delta-cell parity classes (so the output is
    delta-separated; parity content loses at most a factor 4 by
    subadditivity), then allocates points top-down through the quadtree under
    per-cell capacities A_j = ceil((side/delta)^s). Since the capacity DP
    value cap(Q) = min(A_j, sum of child caps) dominates content * delta^-s by
    induction, the output has at least kappa_selected * delta^-s >= 0.25 *
    kappa * delta^-s points, while the capacities bound every dyadic cell's
    occupancy by (r/delta)^s + 1, giving the absolute validate constant 18.
    """
    if not (0.0 < s <= 2.0):
        raise ValidationError(f"extraction exponent s={s} outside (0, 2]")
    k = ps.scale.k
    kappa = _content([(p.x, p.y) for p in ps.points], s, k)

    best: tuple[float, tuple[int, ...], list[DyadicPoint]] | None = None
    for parity in ((0, 0), (0, 1), (1, 0), (1, 1)):
        members = [
            p
            for p in ps.points
            if (p.x.floor_to_int(k) & 1, p.y.floor_to_int(k) & 1) == parity
        ]
        if not members:
            continue
        kap = _content([(p.x, p.y) for p in members], s, k)
        if best is None or kap > best[0]:
            best = (kap, parity, members)
    if best is None:
        raise ValidationError("empty input")
    kappa_sel, parity, members = best

    coords = [(p.x, p.y) for p in members]
    levels = _occupied_levels(coords, k)
    m = _content_dp(levels, s, k)
    cap: list[dict[tuple[int, ...], int]] = [dict() for _ in range(k + 1)]
    for cell in levels[k]:
        cap[k][cell] = 1
    for j in range(k - 1, -1, -1):
        a_j = math.ceil(2.0 ** ((k - j) * s))
        for cell in levels[j]:
            cap[j][cell] = min(a_j, sum(cap[j + 1][c] for c in _child_cells(cell, levels[j + 1])))

    chosen_cells: list[tuple[int, ...]] = []

    def allocate(j: int, cell: tuple[int, ...], budget: int) -> None:
        if budget <= 0:
            return
        if j == k:
            chosen_cells.append(cell)
            return
        kids = _child_cells(cell, levels[j + 1])
        kids.sort(key=lambda c: (-m[j + 1][c], c))
        remaining = budget
        for c in kids:
            give = min(cap[j + 1][c], remaining)
            allocate(j + 1, c, give)
            remaining -= give
            if remaining == 0:
                break

    for cell in sorted(levels[0]):
        allocate(0, cell, cap[0][cell])

    picked: list[DyadicPoint] = []
    for cell in chosen_cells:
        group = levels[k][cell]
        pt = min((members[i] for i in group), key=lambda p: (p.x, p.y))
        picked.append(pt)
    picked.sort(key=lambda p: (p.x, p.y))
    out = PointSet(ps.scale, tuple(picked))
    params = DeltaSetParams(ps.scale, s, EXTRACT_CONSTANT_2D)
    return ExtractReport(out, kappa, kappa_sel, parity, params)
