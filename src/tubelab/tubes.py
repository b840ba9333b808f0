"""Dyadic tubes under point-line duality, with exact integer membership.

A tube at scale delta = 2^-k is the union of the lines y = a'x + b' over a
half-open parameter square [a, a+delta) x [b, b+delta) with a, b on the
delta-grid. A tube is stored as its integer cell (A, B) = (a/delta, b/delta).
Writing p = (X/2^m, Y/2^m), membership reduces to integer window tests on
W = Y*2^k - A*X - B*2^m:

    x >= 0:  p in T  <=>  0 <= W < X + 2^m
    x <  0:  p in T  <=>  X < W < 2^m

so every predicate here is exact. Solved for B, the same inequalities give
the intercept window: at each slope cell the tubes containing p form one
contiguous run of intercept cells.

Families store tubes as packed integer keys
((A + 8*2^k) << (k+4)) | (B + 8*2^k), keeping million-tube configurations
cheap. pack_key, unpack_key and unpack_keys, their array forms
pack_key_array, unpack_key_array and parent_key_array, and key_bits are the
only code that knows this format; every other module goes through them, the
incidence module's columnar kernels included.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core_grid import (
    DyadicPoint,
    DyadicRational,
    PointSet,
    Scale,
    ZERO,
    ONE,
    _dyadic_row,
    _int_field,
    check_value_bound,
)
from .errors import DomainError, DyadicOverflowError, ParseError, ScaleError, ValidationError


def _param_index(v: DyadicRational, scale: Scale, what: str) -> int:
    """Index of a tube parameter on the delta-grid; rejects non-multiples."""
    if not v.is_multiple_of(scale):
        raise ParseError(f"{what} {v!r} is not a multiple of 2^-{scale.k}")
    return v.floor_to_int(scale.k)


def _layout(k: int) -> tuple[int, int]:
    """(offset, shift) of the packed key at scale 2^-k: cells are shifted by
    8*2^k into [0, 2^(k+4)), and the slope cell sits above the intercept."""
    return 1 << (k + 3), k + 4


def pack_key(a_idx: int, b_idx: int, k: int) -> int:
    """Packed key of the tube cell (a_idx, b_idx) at scale 2^-k.

    The one validation of a tube cell: k >= 1, integer indices, and the cell
    inside the [-8, 8)^2 parameter domain. Keys order cells lexicographically.
    """
    if k < 1:
        raise ScaleError("tubes need a working scale with k >= 1")
    if a_idx.__class__ is not int or b_idx.__class__ is not int:
        raise ParseError(f"tube cell needs integer indices, got ({a_idx!r}, {b_idx!r})")
    off, shift = _layout(k)
    if not (-off <= a_idx < off and -off <= b_idx < off):
        raise DomainError(f"tube cell ({a_idx}, {b_idx}) at k={k} outside the [-8, 8) parameter domain")
    return ((a_idx + off) << shift) | (b_idx + off)


def pack_key_array(a_idx: np.ndarray, b_idx: np.ndarray, k: int) -> np.ndarray:
    """pack_key over int64 arrays of cells at k >= 1, broadcast together,
    with one domain check; its error names the first bad cell in C order."""
    off, shift = _layout(k)
    a, b = np.broadcast_arrays(a_idx, b_idx)
    outside = (a < -off) | (a >= off) | (b < -off) | (b >= off)
    if outside.any():
        i = int(np.argmax(outside))
        pack_key(int(a.flat[i]), int(b.flat[i]), k)  # raises its DomainError
    return ((a + off) << shift) | (b + off)


def unpack_key(key: int, k: int) -> tuple[int, int]:
    off, shift = _layout(k)
    return (key >> shift) - off, (key & ((1 << shift) - 1)) - off


def unpack_keys(keys: Iterable[int], k: int) -> Iterator[tuple[int, int]]:
    """The cells of many keys, lazily, in order; equal to unpack_key applied
    to each, without a call per key."""
    off, shift = _layout(k)
    mask = (1 << shift) - 1
    return (((key >> shift) - off, (key & mask) - off) for key in keys)


def key_bits(k: int) -> int:
    """Every key at scale 2^-k lies below 2^key_bits(k)."""
    return 2 * _layout(k)[1]


def unpack_key_array(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """unpack_key over an int64 array of keys: the slope and intercept cells."""
    off, shift = _layout(k)
    return (keys >> shift) - off, (keys & ((1 << shift) - 1)) - off


def parent_key_array(keys: np.ndarray, k: int, coarse_k: int) -> np.ndarray:
    """Keys at scale 2^-coarse_k of the parents (see parent) of an int64
    array of keys at scale 2^-k."""
    shift, coarse_shift, d = _layout(k)[1], _layout(coarse_k)[1], k - coarse_k
    # the offset 8*2^k is a multiple of 2^d, and shifted right by d it is the
    # coarse offset, so each offset cell shifts straight to its parent's
    return ((keys >> (shift + d)) << coarse_shift) | ((keys & ((1 << shift) - 1)) >> d)


@dataclass(frozen=True)
class DyadicTube:
    """Dyadic delta-tube: dual image of the parameter cell
    [a_idx, a_idx+1) x [b_idx, b_idx+1) in delta units."""

    scale: Scale
    a_idx: int
    b_idx: int

    def __post_init__(self) -> None:
        pack_key(self.a_idx, self.b_idx, self.scale.k)

    @classmethod
    def from_indices(cls, scale: Scale, a_idx: int, b_idx: int) -> "DyadicTube":
        return cls(scale, a_idx, b_idx)

    @classmethod
    def from_values(cls, scale: Scale, a: DyadicRational, b: DyadicRational) -> "DyadicTube":
        """The tube with slope a and intercept b, both multiples of delta."""
        a_idx = _param_index(a, scale, "tube slope")
        return cls(scale, a_idx, _param_index(b, scale, "tube intercept"))

    @property
    def a(self) -> DyadicRational:
        return DyadicRational(self.a_idx, self.scale.k)

    @property
    def b(self) -> DyadicRational:
        return DyadicRational(self.b_idx, self.scale.k)

    def key(self) -> int:
        return pack_key(self.a_idx, self.b_idx, self.scale.k)

    def contains(self, p: DyadicPoint) -> bool:
        return tube_contains(self, p)


def _point_ints(p: DyadicPoint) -> tuple[int, int, int]:
    """(X, Y, m) with p = (X/2^m, Y/2^m) at the shared exponent m."""
    m = max(p.x.exp, p.y.exp)
    return p.x.num << (m - p.x.exp), p.y.num << (m - p.y.exp), m


def tube_contains(tube: DyadicTube, p: DyadicPoint) -> bool:
    """Exact membership test; see the module docstring for the derivation.

    The membership inequality itself, kept apart from the intercept window
    so that tests can check one against the other."""
    k = tube.scale.k
    x_num, y_num, m = _point_ints(p)
    w = (y_num << k) - tube.a_idx * x_num - (tube.b_idx << m)
    if x_num >= 0:
        return 0 <= w < x_num + (1 << m)
    return x_num < w < (1 << m)


def _intercept_window(x_num: int, y_num: int, m: int, k: int, a_idx: int) -> tuple[int, int]:
    """Inclusive range [lo, hi] of the intercept cells whose tube at slope
    cell a_idx contains (X/2^m, Y/2^m): the membership inequalities solved
    for B."""
    u = (y_num << k) - a_idx * x_num
    if x_num >= 0:
        return ((u - x_num - (1 << m)) >> m) + 1, u >> m
    return ((u - (1 << m)) >> m) + 1, (u - x_num - 1) >> m


def membership_grid(m: int, k: int) -> None:
    """Refuse points on the 2^-m grid past m + k = 56, where
    intercept_window_array would leave int64, with DyadicOverflowError."""
    if m + k > 56:
        raise DyadicOverflowError(
            f"tube membership at k={k} needs coordinates on the 2^-{56 - k} grid or coarser, got 2^-{m}"
        )


def point_columns(points: Sequence[DyadicPoint], k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (X, Y, m) of _point_ints for many points, as int64 columns; a
    PointSet has its own. Refused past the membership_grid envelope."""
    rows = [_point_ints(p) for p in points]
    membership_grid(max((m for _, _, m in rows), default=0), k)
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def intercept_window_array(
    x_num: np.ndarray, y_num: np.ndarray, m: np.ndarray, k: int, a_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_intercept_window elementwise over int64 arrays. Exact while
    m + k <= 56: then |u| < 2^(m+k+6) and every term stays below 2^63."""
    u = (y_num << k) - a_idx * x_num
    lo = ((u - np.left_shift(1, m) - np.maximum(x_num, 0)) >> m) + 1
    hi = (u - np.minimum(x_num + 1, 0)) >> m
    return lo, hi


def keys_through(
    p: DyadicPoint, k: int, slope_cells: Iterable[int], intercepts: tuple[int, int] | None = None
) -> list[int]:
    """Keys of every tube through p at the given slope cells, inside the
    [-8, 8) domain and, if given, with intercept cell in [lo, hi).

    The keys come out in key order when the slope cells increase. The cost
    is O(#slope cells + #keys), whatever the size of any family the caller
    intersects them with.
    """
    x_num, y_num, m = _point_ints(p)
    off, _ = _layout(k)
    b_lo, b_hi = -off, off
    if intercepts is not None:
        b_lo, b_hi = max(b_lo, intercepts[0]), min(b_hi, intercepts[1])
    keys: list[int] = []
    for a_idx in slope_cells:
        lo, hi = _intercept_window(x_num, y_num, m, k, a_idx)
        keys.extend(pack_key(a_idx, b_idx, k) for b_idx in range(max(lo, b_lo), min(hi + 1, b_hi)))
    return keys


def canonical_keys(p: DyadicPoint, k: int, slope_cells: Iterable[int]) -> list[int]:
    """Key of the canonical tube through p at each slope cell: intercept cell
    floor((p.y - a*p.x)/delta), the top of the intercept window for x >= 0."""
    x_num, y_num, m = _point_ints(p)
    yk = y_num << k
    return [pack_key(a_idx, (yk - a_idx * x_num) >> m, k) for a_idx in slope_cells]


def canonical_tube_through(p: DyadicPoint, slope: DyadicRational, scale: Scale) -> DyadicTube:
    """The tube at the given slope cell whose intercept cell is
    delta*floor((p.y - slope*p.x)/delta); always contains p."""
    [key] = canonical_keys(p, scale.k, (_param_index(slope, scale, "slope"),))
    return DyadicTube(scale, *unpack_key(key, scale.k))


@dataclass(frozen=True)
class Window:
    """Half-open parameter window [a_lo, a_hi) x [b_lo, b_hi) restricting
    which tube cells an enumeration may return."""

    a_lo: DyadicRational
    a_hi: DyadicRational
    b_lo: DyadicRational
    b_hi: DyadicRational

    def __post_init__(self) -> None:
        for v in (self.a_lo, self.a_hi, self.b_lo, self.b_hi):
            check_value_bound(v)
        if not (self.a_lo < self.a_hi and self.b_lo < self.b_hi):
            raise ValidationError("window must have positive extent")

    @classmethod
    def of_ints(cls, a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> "Window":
        return cls(
            DyadicRational.integer(a_lo),
            DyadicRational.integer(a_hi),
            DyadicRational.integer(b_lo),
            DyadicRational.integer(b_hi),
        )

    def slope_index_range(self, scale: Scale) -> tuple[int, int]:
        """[lo, hi) of slope cell indices with a in the window."""
        k = scale.k
        lo = -((-self.a_lo).floor_to_int(k))  # ceil
        hi = -((-self.a_hi).floor_to_int(k))
        return lo, hi

    def intercept_index_range(self, scale: Scale) -> tuple[int, int]:
        k = scale.k
        lo = -((-self.b_lo).floor_to_int(k))
        hi = -((-self.b_hi).floor_to_int(k))
        return lo, hi


UNIT_WINDOW = Window(ZERO, ONE, ZERO, ONE)


@dataclass(frozen=True)
class TubeFamily:
    """Deduplicated family of tubes at one scale, as sorted packed keys."""

    scale: Scale
    keys: tuple[int, ...] = field(repr=False)

    def __post_init__(self) -> None:
        # sorted and distinct, as the searches over the keys assume
        if not all(map(operator.lt, self.keys, self.keys[1:])):
            raise ValidationError("tube family keys must strictly increase")

    @classmethod
    def from_tubes(cls, scale: Scale, tubes: Iterable[DyadicTube]) -> "TubeFamily":
        keys = set()
        for t in tubes:
            if t.scale != scale:
                raise ScaleError(f"tube at k={t.scale.k} in family at k={scale.k}")
            keys.add(t.key())
        return cls(scale, tuple(sorted(keys)))

    @classmethod
    def from_index_pairs(cls, scale: Scale, pairs: Iterable[tuple[int, int]]) -> "TubeFamily":
        k = scale.k
        return cls(scale, tuple(sorted({pack_key(a, b, k) for a, b in pairs})))

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[DyadicTube]:
        for a_idx, b_idx in self.index_pairs():
            yield DyadicTube(self.scale, a_idx, b_idx)

    def index_pairs(self) -> Iterator[tuple[int, int]]:
        return unpack_keys(self.keys, self.scale.k)

    def union(self, other: "TubeFamily") -> "TubeFamily":
        if other.scale != self.scale:
            raise ScaleError("union across scales")
        return TubeFamily(self.scale, tuple(sorted(set(self.keys) | set(other.keys))))

    def intersection_size(self, other: "TubeFamily") -> int:
        if other.scale != self.scale:
            raise ScaleError("intersection across scales")
        return len(set(self.keys).intersection(other.keys))

    def slope_cells(self) -> tuple[int, ...]:
        """The distinct slope cells of the family, increasing."""
        # keys sort by slope cell first, so equal slopes are adjacent
        return tuple(dict.fromkeys(a for a, _ in self.index_pairs()))

    def to_json(self) -> dict:
        k = self.scale.k
        rows = []
        for a_idx, b_idx in self.index_pairs():
            a = DyadicRational(a_idx, k)
            b = DyadicRational(b_idx, k)
            rows.append([a.num, a.exp, b.num, b.exp])
        return {"k": k, "tubes": rows}

    @classmethod
    def from_json(cls, obj: dict) -> "TubeFamily":
        k = _int_field(obj, "k")
        rows = obj.get("tubes")
        if not isinstance(rows, list):
            raise ParseError(f"tube family 'tubes' must be a list, got {rows!r}")
        scale = Scale(k)
        tubes = []
        for i, row in enumerate(rows):
            an, ae, bn, be = _dyadic_row(row, 4, f"tube row {i} [a_num, a_exp, b_num, b_exp]")
            tubes.append(DyadicTube.from_values(scale, DyadicRational(an, ae), DyadicRational(bn, be)))
        return cls.from_tubes(scale, tubes)


def tubes_through(p: DyadicPoint, scale: Scale, window: Window = UNIT_WINDOW) -> TubeFamily:
    """Every tube cell inside the window whose tube contains p.

    The intercept window gives the admissible intercept cells of each slope
    cell directly, so the cost is O(#slopes in window) regardless of how many
    tubes come back.
    """
    a_lo, a_hi = window.slope_index_range(scale)
    if a_lo >= a_hi:
        raise ValidationError("window contains no slope cells at this scale")
    intercepts = window.intercept_index_range(scale)
    return TubeFamily(scale, tuple(keys_through(p, scale.k, range(a_lo, a_hi), intercepts)))


def parent(tube: DyadicTube, coarse: Scale) -> DyadicTube:
    """The coarse tube whose parameter square contains this tube's square."""
    if coarse.k > tube.scale.k:
        raise ScaleError(f"parent scale k={coarse.k} finer than tube scale k={tube.scale.k}")
    d = tube.scale.k - coarse.k
    return DyadicTube(coarse, tube.a_idx >> d, tube.b_idx >> d)


def children(tube: DyadicTube, fine: Scale) -> TubeFamily:
    """All fine-scale tubes whose parameter squares tile this tube's square."""
    if fine.k < tube.scale.k:
        raise ScaleError(f"child scale k={fine.k} coarser than tube scale k={tube.scale.k}")
    d = fine.k - tube.scale.k
    a0, b0 = tube.a_idx << d, tube.b_idx << d
    cells = ((a0 + da, b0 + db) for da in range(1 << d) for db in range(1 << d))
    return TubeFamily.from_index_pairs(fine, cells)


def slice_interval(tube: DyadicTube, x0: DyadicRational) -> tuple[DyadicRational, DyadicRational, bool]:
    """Attainable y-values of the tube on the vertical line x = x0, as
    (lo, hi, closed_left); the interval is [lo, hi) for x0 >= 0 and (lo, hi)
    for x0 < 0.

    Endpoints are min/max of (a + u*delta)*x0 + b + v*delta over u, v in
    {0, 1}, written over the common denominator 2^(k + x0.exp)."""
    a_idx, b_idx = tube.a_idx, tube.b_idx
    x_num, shift = x0.num, tube.scale.k + x0.exp
    if x_num >= 0:
        lo = DyadicRational(a_idx * x_num + (b_idx << x0.exp), shift)
        hi = DyadicRational((a_idx + 1) * x_num + ((b_idx + 1) << x0.exp), shift)
        return lo, hi, True
    lo = DyadicRational((a_idx + 1) * x_num + (b_idx << x0.exp), shift)
    hi = DyadicRational(a_idx * x_num + ((b_idx + 1) << x0.exp), shift)
    return lo, hi, False


_WITNESS_XS = tuple(DyadicRational.integer(v) for v in (0, 1, -1, 2, -2, 3, -3, 4, -4))


def separating_point(t1: DyadicTube, t2: DyadicTube) -> DyadicPoint | None:
    """A point of t1 outside t2, searched on integer vertical slices.

    Slice endpoints for integer x0 lie on the fine delta-grid, so a nonempty
    difference of slices always contains a half-grid candidate; each candidate
    is confirmed with the exact membership predicate.
    """
    half_exp = t1.scale.k + 1
    for x0 in _WITNESS_XS:
        lo, hi, _ = slice_interval(t1, x0)
        steps = (hi - lo).floor_to_int(half_exp)
        for j in range(steps + 1):
            y = lo + DyadicRational(j, half_exp)
            if abs(y.num) > (4 << y.exp):
                continue
            p = DyadicPoint(x0, y)
            if tube_contains(t1, p) and not tube_contains(t2, p):
                return p
    return None


def cover_by_coarse_tubes(
    fine_family: TubeFamily,
    points: PointSet,
    coarse_slope: DyadicRational,
    coarse: Scale,
    point_cover: TubeFamily,
) -> TubeFamily:
    """Coarse tubes at one slope cell covering every fine tube that meets the
    point set, built by shifting the point cover's intercepts by up to 5
    coarse steps each way. Output size is at most 11x the point cover.

    Correctness hinges on all intercept cells lying on the coarse grid: a
    fine tube through p in (coarse tube j) has parent intercept within 5
    coarse steps of b_j, and the grid makes the strict 6-step bound collapse
    to 5.
    """
    k2 = coarse.k
    if fine_family.scale.k < k2:
        raise ScaleError("fine family must be at or below the coarse scale")
    if point_cover.scale != coarse:
        raise ScaleError("point cover must live at the coarse scale")
    if not coarse_slope.is_multiple_of(coarse):
        raise ValidationError(f"coarse slope {coarse_slope!r} not on the 2^-{k2} grid")
    a2_idx = coarse_slope.floor_to_int(k2)
    if any(ca != a2_idx for ca in point_cover.slope_cells()):
        raise ValidationError("point cover contains a tube at a different slope cell")
    k1 = fine_family.scale.k
    d = k1 - k2
    fine_slopes = fine_family.slope_cells()
    if any((fa >> d) != a2_idx for fa in fine_slopes):
        raise ValidationError("fine family contains a slope outside the coarse slope cell")
    cover_keys = set(point_cover.keys)
    met: set[int] = set()  # tubes at the fine family's slopes through some point
    for p in points:
        if cover_keys.isdisjoint(keys_through(p, k2, (a2_idx,))):
            raise ValidationError(f"point {p} not covered by the coarse point cover")
        met.update(keys_through(p, k1, fine_slopes))
    if not met.issuperset(fine_family.keys):
        raise ValidationError("fine family contains a tube missing the point set")
    out_pairs = set()
    for _ca, cb in point_cover.index_pairs():
        for shift in range(-5, 6):
            out_pairs.add((a2_idx, cb + shift))
    result = TubeFamily.from_index_pairs(coarse, out_pairs)
    result_keys = set(result.keys)
    for fa, fb in fine_family.index_pairs():
        key = pack_key(fa >> d, fb >> d, k2)
        if key not in result_keys:
            raise AssertionError("coarse cover missed a fine tube; shift bound violated")
    return result
