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
from typing import Sequence

import numpy as np

from .core_grid import (
    DyadicRational,
    PointSet,
    Scale,
    _cell_columns,
    _distance_dtype,
    _run_starts,
    cell_numbers,
    check_value_bound,
    record,
    write_rows,
)
from .errors import DyadicOverflowError, ValidationError

# ball counts take the squared distances of this many centers at a time:
# one 16 x n row block of int32 or int64, small next to the point set
_CENTER_BLOCK = 16


@record
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
        # the largest ball-count threshold, and effective_constant with it,
        # must be a finite float; this refuses an infinite s or C too
        try:
            top = self.C * 2.0 ** (max(self.scale.k, 1) * self.s)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValidationError(f"C * 2^(k s) overflows a float at s={self.s}, C={self.C}, k={self.scale.k}")


@record
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
        return write_rows(np.stack([col[i : i + 1] for col in lifted]), m_exp)

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


def _quadtree(ps: PointSet, s: float) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The dyadic cells of sides 1 down to delta that a set meets, numbered
    per level in sorted order: each point's leaf cell, each level's parent
    column (parents[j][c] is the level-(j-1) cell holding level-j cell c)
    and each level's content m[j][c] = min(side^s, sum of its children's)."""
    k = ps.scale.k
    nums, counts = zip(*(cell_numbers(ps, j) for j in range(k + 1)))
    parents = [np.zeros(0, dtype=np.int64)]
    for j in range(1, k + 1):
        parent = np.empty(counts[j], dtype=np.int64)
        parent[nums[j]] = nums[j - 1]
        parents.append(parent)
    m = [np.full(counts[k], 2.0 ** (-k * s))]
    for j in range(k - 1, -1, -1):
        # bincount adds children in cell order, within a parent (0, 0),
        # (0, 1), (1, 0), (1, 1): the order of the content's float sums
        m.insert(0, np.minimum(2.0 ** (-j * s), np.bincount(parents[j + 1], m[0], counts[j])))
    return nums[k], parents, m


# Absolute ball-condition constant achieved by extract: any dyadic cell of
# side r holds at most (r/delta)^s + 1 <= 2 (r/delta)^s selected points and an
# open r-ball meets at most 3^2 such cells.
EXTRACT_CONSTANT_2D = 18.0


@record
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

    The quadtree is a column of integer cell numbers per level, and the
    content, the capacities and the allocation are one array pass per
    level; the kept point of a leaf cell is its least in (x, y) order.
    """
    if not (0.0 < s <= 2.0):
        raise ValidationError(f"extraction exponent s={s} outside (0, 2]")
    if not len(ps):
        raise ValidationError("empty input")
    k = ps.scale.k
    kappa = sum(_quadtree(ps, s)[2][0].tolist())

    # bit 0 of each point's delta-cell coordinates
    odd_x, odd_y = (c & 1 for c in _cell_columns(ps, k))
    best = None
    for parity in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mask = (odd_x == parity[0]) & (odd_y == parity[1])
        if not mask.any():
            continue
        members = PointSet.from_columns(ps.scale, ps.x[mask], ps.y[mask], ps.m)
        tree = _quadtree(members, s)
        kap = sum(tree[2][0].tolist())
        if best is None or kap > best[0]:
            best = (kap, parity, members, tree)
    kappa_sel, parity, members, (leaf, parents, m) = best

    caps = [np.ones(m[k].size, dtype=np.int64)]
    for j in range(k - 1, -1, -1):
        child_caps = np.bincount(parents[j + 1], caps[0], m[j].size).astype(np.int64)
        caps.insert(0, np.minimum(math.ceil(2.0 ** ((k - j) * s)), child_caps))
    # each parent serves its children greedily, by content descending and
    # then cell (lexsort is stable): a child gets its parent's give less the
    # caps of the siblings served before it, clipped to [0, its cap]
    give = caps[0]
    for j in range(1, k + 1):
        order = np.lexsort((-m[j], parents[j]))
        parent, cap = parents[j][order], caps[j][order]
        before = np.cumsum(cap) - cap
        first = _run_starts(parent)
        earlier = before - before[first][np.cumsum(first) - 1]
        give_j = np.empty_like(cap)
        give_j[order] = np.clip(give[parent] - earlier, 0, cap)
        give = give_j

    # one point per served leaf cell, its least in (x, y) order
    x, y = members.x, members.y
    by_cell = np.lexsort((y, x, leaf))
    least = by_cell[_run_starts(leaf[by_cell])]
    keep = np.zeros(x.size, dtype=bool)
    keep[least[give > 0]] = True
    by_xy = np.lexsort((y, x))
    pick = by_xy[keep[by_xy]]
    out = PointSet.from_columns(ps.scale, x[pick], y[pick], members.m)
    params = DeltaSetParams(ps.scale, s, EXTRACT_CONSTANT_2D)
    return ExtractReport(out, kappa, kappa_sel, parity, params)
