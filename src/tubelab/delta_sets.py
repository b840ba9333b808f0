"""(delta, s, C)-set validation, discrete content, and subset extraction.

The ball condition is checked at data-point centers and dyadic radii only;
against arbitrary centers this costs at most a factor 2^s in the constant,
which the report surfaces as `effective_constant`. Counts are exact: open
Euclidean balls, integer comparisons d^2 < r^2, vectorized over int64 on
coordinates lifted to one grid no finer than 2^-27 (a finer set is refused
with DyadicOverflowError before anything is counted), so nothing wraps.

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
# a few 16 x n int64 rows, so a block stays small next to the point set
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


def _coord_json(c: Coord) -> list[list[int]]:
    return [v.pair() for v in c]


def _validate_coords(coords: Sequence[Coord], params: DeltaSetParams) -> ValidationReport:
    k = params.scale.k
    eff = params.C * (2.0 ** params.s)
    if len(coords) == 0:
        raise ValidationError("empty set cannot be validated")
    dim = len(coords[0])
    # exact counting on int64: lift all coordinates to a shared exponent
    # M >= k. Coordinates differ by at most 16, so squared distances stay
    # below 2^(8 + 2M) <= 2^62 for M <= 27 and every comparison d^2 < r^2 is
    # exact in integer arithmetic; finer coordinates would wrap
    m_exp = max(k, max(v.exp for c in coords for v in c))
    if m_exp > 27:
        raise DyadicOverflowError(
            f"ball counts need coordinates on the 2^-27 grid or coarser, got 2^-{m_exp}"
        )
    axes = [
        np.array([c[d].num << (m_exp - c[d].exp) for c in coords], dtype=np.int64)
        for d in range(dim)
    ]
    n = len(coords)
    # row t of counts and thresholds is the radius 2^-(k-t): radii ascend
    r2 = np.array([1 << 2 * (m_exp - k + t) for t in range(k + 1)], dtype=np.int64)
    thresholds = np.array([params.C * (2.0 ** (t * params.s)) for t in range(k + 1)])
    counts = np.empty((k + 1, n), dtype=np.int64)
    for lo in range(0, n, _CENTER_BLOCK):
        rows = min(_CENTER_BLOCK, n - lo)
        d2 = (axes[0][lo : lo + rows, None] - axes[0]) ** 2
        for d in range(1, dim):
            d2 += (axes[d][lo : lo + rows, None] - axes[d]) ** 2
        # the smallest radius whose open ball around the center holds the
        # point (k + 1: none); each row's histogram of it, summed up, counts
        # the points in every ball at once
        first = np.searchsorted(r2, d2, side="right")
        first += np.arange(0, rows * (k + 2), k + 2)[:, None]
        hist = np.bincount(first.ravel(), minlength=rows * (k + 2)).reshape(rows, k + 2)
        counts[:, lo : lo + rows] = np.cumsum(hist[:, : k + 1], axis=1).T
        # separation is the radius-delta ball: it holds its center alone.
        # The first center that fails is the lowest index in any close
        # pair, so its first close partner comes after it
        close = np.flatnonzero(counts[0, lo : lo + rows] > 1)
        if close.size:
            row = int(close[0])
            i = lo + row
            partners = np.flatnonzero(d2[row] < r2[0])
            j = int(partners[partners != i][0])
            witness = {"pair": [_coord_json(coords[i]), _coord_json(coords[j])]}
            return ValidationReport(False, "separation", math.inf, witness, eff, params)
    ratios = counts / thresholds[:, None]
    # the first maximum in (radius, center) order, as a strict > scan finds it
    t, i = divmod(int(np.argmax(ratios)), n)
    worst_ratio = float(ratios[t, i])
    worst_witness: dict = {}
    if worst_ratio > 0.0:
        worst_witness = {
            "center": _coord_json(coords[i]),
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
    coords = [(p.x, p.y) for p in ps.points]
    return _validate_coords(coords, params)


def validate_1d(values: Sequence[DyadicRational], params: DeltaSetParams) -> ValidationReport:
    """1-d variant (slope sets, level sets); values must lie in [-8, 8]."""
    for v in values:
        check_value_bound(v)
    coords = [(v,) for v in values]
    return _validate_coords(coords, params)


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
