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
cheap. pack_key and unpack_key, their array forms pack_key_array,
unpack_key_array and parent_key_array, and key_bits are the only code that
knows this format; every other module goes through them, the incidence
module's columnar kernels included.

Each predicate has one array kernel, whose scalar entry points are one-row
calls: window_keys (the intercept windows expanded into keys) and
canonical_key_array. Only tube_contains, the inequality itself, is scalar.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core_grid import (
    DyadicPoint,
    DyadicRational,
    PointSet,
    Scale,
    ZERO,
    ONE,
    _int_field,
    _run_starts,
    check_value_bound,
    read_rows,
    record,
    write_rows,
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
    """pack_key over int64 arrays of cells, broadcast together, with one
    scale and domain check; its error names the first bad cell in C order."""
    off, shift = _layout(k)
    a, b = np.broadcast_arrays(a_idx, b_idx)
    outside = (a < -off) | (a >= off) | (b < -off) | (b >= off)
    if outside.any() or k < 1 and a.size:
        i = int(np.argmax(outside))
        pack_key(int(a.flat[i]), int(b.flat[i]), k)  # raises its ScaleError or DomainError
    return ((a + off) << shift) | (b + off)


def unpack_key(key: int, k: int) -> tuple[int, int]:
    off, shift = _layout(k)
    return (key >> shift) - off, (key & ((1 << shift) - 1)) - off


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


@record
class DyadicTube:
    """Dyadic delta-tube: dual image of the parameter cell
    [a_idx, a_idx+1) x [b_idx, b_idx+1) in delta units.

    A record with its own slots and constructor like DyadicPoint, since
    exact predicates build one per probe; pack_key is its one check."""

    __slots__ = ("scale", "a_idx", "b_idx")

    scale: Scale
    a_idx: int
    b_idx: int

    def __init__(self, scale: Scale, a_idx: int, b_idx: int) -> None:
        pack_key(a_idx, b_idx, scale.k)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "a_idx", a_idx)
        object.__setattr__(self, "b_idx", b_idx)

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


def membership_grid(m: int, k: int) -> None:
    """Refuse points on the 2^-m grid past m + k = 56, where the array
    kernels below would leave int64, with DyadicOverflowError."""
    if m + k > 56:
        raise DyadicOverflowError(
            f"tube membership at k={k} needs coordinates on the 2^-{56 - k} grid or coarser, got 2^-{m}"
        )


def intercept_window_array(
    x_num: np.ndarray, y_num: np.ndarray, m: int | np.ndarray, k: int, a_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive ranges [lo, hi] of the intercept cells whose tube at slope
    cell a_idx contains (X/2^m, Y/2^m), elementwise over int64 arrays: the
    membership inequalities solved for B. Exact while m + k <= 56: then
    |u| < 2^(m+k+6) and every term stays below 2^63."""
    u = (y_num << k) - a_idx * x_num
    lo = ((u - np.left_shift(1, m) - np.maximum(x_num, 0)) >> m) + 1
    hi = (u - np.minimum(x_num + 1, 0)) >> m
    return lo, hi


def window_keys(
    x_num: np.ndarray | int, y_num: np.ndarray | int, m: int, k: int, slopes: np.ndarray,
    intercepts: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Keys of every tube through the points (x_num[i], y_num[i]) / 2^m at
    the slope cells, inside the [-8, 8) domain and, if given, with intercept
    cell in [lo, hi), and the index of each key's point: point-major, then
    in key order when the slope cells increase. Refused past the
    membership_grid envelope."""
    membership_grid(m, k)
    x_num, y_num = (np.asarray(col, dtype=np.int64).reshape(-1, 1) for col in (x_num, y_num))
    lo, hi = intercept_window_array(x_num, y_num, m, k, slopes)
    # clip each window [lo, hi] to the intercept range, then expand it into
    # one entry per intercept cell, (point, slope cell)-major
    off, _ = _layout(k)
    b_lo, b_hi = -off, off
    if intercepts is not None:
        b_lo, b_hi = max(b_lo, intercepts[0]), min(b_hi, intercepts[1])
    lo = np.maximum(lo, b_lo).ravel()
    counts = np.maximum(np.minimum(hi + 1, b_hi).ravel() - lo, 0)
    window = np.repeat(np.arange(counts.size), counts)
    b_idx = np.arange(window.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    point, slope = np.divmod(window, slopes.size)
    return pack_key_array(slopes[slope], b_idx, k), point


def canonical_key_array(
    x_num: np.ndarray | int, y_num: np.ndarray | int, m: int, k: int, a_idx: np.ndarray
) -> np.ndarray:
    """Keys of the canonical tubes through the points (X/2^m, Y/2^m) at
    slope cells a_idx, broadcast together: intercept cell
    floor((y - a*x)/delta), the top of the intercept window for x >= 0.
    Refused past the membership_grid envelope."""
    membership_grid(m, k)
    return pack_key_array(a_idx, ((y_num << k) - a_idx * x_num) >> m, k)


def keys_through(p: DyadicPoint, k: int, slope_cells: Iterable[int]) -> list[int]:
    """Keys of every tube through p at the given slope cells, inside the
    [-8, 8) domain.

    The keys come out in key order when the slope cells increase. The cost
    is O(#slope cells + #keys), whatever the size of any family the caller
    intersects them with.
    """
    x_num, y_num, m = _point_ints(p)
    return window_keys(x_num, y_num, m, k, np.fromiter(slope_cells, dtype=np.int64))[0].tolist()


def canonical_tube_through(p: DyadicPoint, slope: DyadicRational, scale: Scale) -> DyadicTube:
    """The tube at the given slope cell whose intercept cell is
    delta*floor((p.y - slope*p.x)/delta); always contains p."""
    x_num, y_num, m = _point_ints(p)
    key = canonical_key_array(x_num, y_num, m, scale.k, _param_index(slope, scale, "slope"))
    return DyadicTube(scale, *unpack_key(int(key), scale.k))


@record
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
        return cls(*map(DyadicRational.integer, (a_lo, a_hi, b_lo, b_hi)))

    def cell_ranges(self, scale: Scale) -> tuple[np.ndarray, tuple[int, int]]:
        """The slope cells with a in the window, increasing, and [lo, hi) of
        the intercept cells with b in it."""
        # -floor(-v) is the ceiling
        a_lo, a_hi, b_lo, b_hi = (-(-v).floor_to_int(scale.k) for v in (self.a_lo, self.a_hi, self.b_lo, self.b_hi))
        return np.arange(a_lo, a_hi, dtype=np.int64), (b_lo, b_hi)


UNIT_WINDOW = Window(ZERO, ONE, ZERO, ONE)


@record
class TubeFamily:
    """Deduplicated family of tubes at one scale: keys is a column (see
    record) of strictly increasing packed keys."""

    scale: Scale
    keys: np.ndarray

    def __post_init__(self) -> None:
        # sorted and distinct, as the searches over the keys assume
        if self.keys.ndim != 1 or not (self.keys[1:] > self.keys[:-1]).all():
            raise ValidationError("tube family keys must strictly increase")

    @classmethod
    def from_tubes(cls, scale: Scale, tubes: Iterable[DyadicTube]) -> "TubeFamily":
        keys = set()
        for t in tubes:
            if t.scale != scale:
                raise ScaleError(f"tube at k={t.scale.k} in family at k={scale.k}")
            keys.add(t.key())
        return cls(scale, sorted(keys))

    @classmethod
    def from_index_pairs(cls, scale: Scale, pairs: Iterable[tuple[int, int]]) -> "TubeFamily":
        k = scale.k
        return cls(scale, sorted({pack_key(a, b, k) for a, b in pairs}))

    def __len__(self) -> int:
        return self.keys.size

    def __iter__(self) -> Iterator[DyadicTube]:
        return (DyadicTube(self.scale, a_idx, b_idx) for a_idx, b_idx in self.index_pairs())

    def index_pairs(self) -> Iterator[tuple[int, int]]:
        a_idx, b_idx = unpack_key_array(self.keys, self.scale.k)
        return zip(a_idx.tolist(), b_idx.tolist())

    def union(self, other: "TubeFamily") -> "TubeFamily":
        if other.scale != self.scale:
            raise ScaleError("union across scales")
        keys = np.sort(np.concatenate((self.keys, other.keys)))
        return TubeFamily(self.scale, keys[_run_starts(keys)])

    def intersection_size(self, other: "TubeFamily") -> int:
        if other.scale != self.scale:
            raise ScaleError("intersection across scales")
        return len(set(self.keys.tolist()).intersection(other.keys.tolist()))

    def slope_cells(self) -> tuple[int, ...]:
        """The distinct slope cells of the family, increasing."""
        # keys sort by slope cell first, so equal slopes are adjacent
        a_idx, _ = unpack_key_array(self.keys, self.scale.k)
        return tuple(a_idx[_run_starts(a_idx)].tolist())

    def to_json(self) -> dict:
        return {"k": self.scale.k, "tubes": tube_rows(self.keys, self.scale.k)}

    @classmethod
    def from_json(cls, obj: dict) -> "TubeFamily":
        scale = Scale(_int_field(obj, "k"))
        return cls(scale, family_keys(scale, [obj.get("tubes")], TUBE_ROW)[0])


# what a family's tube row j is called in errors
TUBE_ROW = "tube row {} [a_num, a_exp, b_num, b_exp]".format


def family_keys(scale: Scale, families: Sequence[object], what: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """The key column and offsets of JSON tube families, lists of rows
    [a_num, a_exp, b_num, b_exp]: family f, read as a set, is
    keys[offsets[f]:offsets[f + 1]], sorted and distinct. Row j of a family
    is named what(j); rows past read_rows' array are read as DyadicTubes."""
    for rows in families:
        if not isinstance(rows, list):
            raise ParseError(f"tube family 'tubes' must be a list, got {rows!r}")
    starts = list(accumulate(map(len, families), initial=0))
    cells, exact = read_rows(
        list(chain.from_iterable(families)), 4, scale.k,
        lambda i: what(i - starts[bisect_right(starts, i) - 1]),
        lambda an, ae, bn, be: DyadicTube.from_values(scale, DyadicRational(an, ae), DyadicRational(bn, be)),
    )
    for i, t in exact.items():
        cells[i] = t.a_idx, t.b_idx
    keys = pack_key_array(cells[:, 0], cells[:, 1], scale.k)
    family = np.repeat(np.arange(len(families)), np.diff(starts))
    order = np.lexsort((keys, family))
    keys, family = keys[order], family[order]
    keep = _run_starts(keys) | _run_starts(family)
    return keys[keep], np.searchsorted(family[keep], np.arange(len(families) + 1))


def tube_rows(keys: np.ndarray, k: int) -> list[list[int]]:
    """The JSON tube rows [a_num, a_exp, b_num, b_exp] of keys at scale 2^-k."""
    return write_rows(np.stack(unpack_key_array(keys, k), axis=1), k)


def tubes_through(p: DyadicPoint, scale: Scale, window: Window = UNIT_WINDOW) -> TubeFamily:
    """Every tube cell inside the window whose tube contains p.

    The intercept window gives the admissible intercept cells of each slope
    cell directly, so the cost is O(#slopes in window) regardless of how many
    tubes come back.
    """
    slopes, intercepts = window.cell_ranges(scale)
    if not slopes.size:
        raise ValidationError("window contains no slope cells at this scale")
    x_num, y_num, m = _point_ints(p)
    return TubeFamily(scale, window_keys(x_num, y_num, m, scale.k, slopes, intercepts)[0])


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
    cover_keys = set(point_cover.keys.tolist())
    met: set[int] = set()  # tubes at the fine family's slopes through some point
    for p in points:
        if cover_keys.isdisjoint(keys_through(p, k2, (a2_idx,))):
            raise ValidationError(f"point {p} not covered by the coarse point cover")
        met.update(keys_through(p, k1, fine_slopes))
    if not met.issuperset(fine_family.keys.tolist()):
        raise ValidationError("fine family contains a tube missing the point set")
    cells = {(a2_idx, cb + shift) for _, cb in point_cover.index_pairs() for shift in range(-5, 6)}
    result = TubeFamily.from_index_pairs(coarse, cells)
    if not set(parent_key_array(fine_family.keys, k1, k2).tolist()) <= set(result.keys.tolist()):
        raise AssertionError("coarse cover missed a fine tube; shift bound violated")
    return result
