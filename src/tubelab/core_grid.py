"""Exact dyadic scales, rationals, points, and box-counting primitives.

All geometric predicates downstream of this module reduce to integer
comparisons on dyadic rationals, so equality and membership are exact; floats
appear only in diagnostics (exponent fits, energies) where a relative error
around 1e-15 is documented and harmless against the tolerances in use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, DyadicOverflowError, ParseError, ScaleError, ValidationError

SCALE_CAP = 20
_NUM_CAP = 1 << 127
# exponents a [num, exp] pair read from input may carry (see DyadicRational)
EXP_BOUND = 128


def _int_row(row: object, width: int, what: str) -> tuple[int, ...]:
    """A JSON row of exactly `width` integers; ParseError on anything else.

    Booleans are refused too, although Python counts them as ints.
    """
    if not (
        isinstance(row, (list, tuple))
        and len(row) == width
        and all(type(v) is int for v in row)
    ):
        raise ParseError(f"{what} must be {width} integers, got {row!r}")
    return tuple(row)


def _dyadic_row(row: object, width: int, what: str) -> tuple[int, ...]:
    """A JSON row of `width` integers read as [num, exp] pairs; ParseError
    unless every exponent lies within +-EXP_BOUND."""
    values = _int_row(row, width, what)
    for exp in values[1::2]:
        if not -EXP_BOUND <= exp <= EXP_BOUND:
            raise ParseError(f"{what}: exponent {exp} outside [-{EXP_BOUND}, {EXP_BOUND}]")
    return values


def _int_field(entry: object, key: str) -> int:
    """entry[key] of a JSON object, which must be an integer; ParseError otherwise."""
    value = entry.get(key) if isinstance(entry, dict) else None
    if type(value) is not int:
        raise ParseError(f"{key!r} must be an integer, got {value!r} in {entry!r}")
    return value


def _indexed_entries(
    entries: list, key: str, n: int, what: tuple[str, str], read: Callable[[dict], object]
) -> list:
    """read(entry) of each entry of a JSON list, in the slot its integer
    entry[key] names; ParseError unless each slot of range(n) is named
    exactly once. `what` names an entry, singular then plural."""
    one, many = what
    index = key.replace("_", " ")
    slots: list = [None] * n
    for entry in entries:
        idx = _int_field(entry, key)
        if not (0 <= idx < n):
            raise ParseError(f"{one} references missing {index} {idx}")
        if slots[idx] is not None:
            raise ParseError(f"two {many} for {index} {idx}")
        slots[idx] = read(entry)
    if None in slots:
        raise ParseError(f"no {one} for {index} {slots.index(None)}")
    return slots


@dataclass(frozen=True, order=True)
class Scale:
    """Dyadic scale delta = 2^-k. Working scales use k >= 1; k = 0 is allowed
    as a covering target. Scales finer than 2^-20 are rejected."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int):
            raise ScaleError(f"scale exponent must be an int, got {self.k!r}")
        if self.k < 0 or self.k > SCALE_CAP:
            raise ScaleError(f"scale exponent k={self.k} outside [0, {SCALE_CAP}]")

    def require_even(self) -> None:
        if self.k % 2 != 0:
            raise ScaleError(f"k={self.k} must be even when the sqrt(delta) companion scale is used")


class DyadicRational:
    """num / 2^exp in canonical form: exp >= 0, and num odd unless exp == 0.

    Numerators are capped at 128 bits; arithmetic that would exceed the cap
    raises DyadicOverflowError instead of producing a wrong value. Pairs
    read from input (`from_pair` and the point, tube and tripod rows) must
    also keep their exponent within +-EXP_BOUND = 128, or they are a
    ParseError. The domain check and the canonical form shift a numerator
    by as many bits as its exponent says, so an unbounded exponent costs
    unbounded memory; 128 lies far past what any analysis resolves (working
    scales stop at 2^-20, ball counts at 2^-27, and a nonzero value with a
    negative exponent below -3 leaves the [-8, 8] domain).

    A hand-rolled immutable slots class: these are constructed in bulk inside
    every exact predicate, so construction stays on a no-copy fast path when
    the inputs are already canonical.
    """

    __slots__ = ("num", "exp")

    num: int
    exp: int

    def __init__(self, num: int, exp: int) -> None:
        if num.__class__ is int and exp.__class__ is int:
            # already canonical: store and return without normalizing
            if exp >= 0 and (num & 1 or (exp == 0 and num)):
                if -_NUM_CAP < num < _NUM_CAP:
                    object.__setattr__(self, "num", num)
                    object.__setattr__(self, "exp", exp)
                    return
                raise DyadicOverflowError(
                    f"numerator magnitude {abs(num).bit_length()} bits exceeds 128-bit envelope"
                )
        elif not isinstance(num, int) or not isinstance(exp, int):
            raise ParseError(f"dyadic rational needs int fields, got ({num!r}, {exp!r})")
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif not num & 1:
            # strip all trailing zero bits in one step
            drop = (num & -num).bit_length() - 1
            if drop > exp:
                drop = exp
            num >>= drop
            exp -= drop
        if abs(num) >= _NUM_CAP:
            raise DyadicOverflowError(f"numerator magnitude {abs(num).bit_length()} bits exceeds 128-bit envelope")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DyadicRational is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("DyadicRational is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is DyadicRational:
            return self.num == other.num and self.exp == other.exp
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is DyadicRational:
            return self.num != other.num or self.exp != other.exp
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __reduce__(self):
        return (DyadicRational, (self.num, self.exp))

    @classmethod
    def integer(cls, n: int) -> "DyadicRational":
        return cls(n, 0)

    @classmethod
    def from_pair(cls, pair: Sequence[int]) -> "DyadicRational":
        return cls(*_dyadic_row(pair, 2, "dyadic pair [num, exp]"))

    def pair(self) -> list[int]:
        return [self.num, self.exp]

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.exp, other.exp)
        return DyadicRational((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.exp, other.exp)
        return DyadicRational((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.num * other.num, self.exp + other.exp)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.num, self.exp)

    def __abs__(self) -> "DyadicRational":
        return DyadicRational(abs(self.num), self.exp)

    def _cmp(self, other: "DyadicRational") -> int:
        lhs = self.num << max(0, other.exp - self.exp)
        rhs = other.num << max(0, self.exp - other.exp)
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) >= 0

    def floor_to_int(self, k: int) -> int:
        """floor(value * 2^k), exact (Python >> floors toward -inf)."""
        if k >= self.exp:
            return self.num << (k - self.exp)
        return self.num >> (self.exp - k)

    def is_multiple_of(self, scale: Scale) -> bool:
        return self.exp <= scale.k

    def as_float(self) -> float:
        return math.ldexp(float(self.num), -self.exp)

    def __float__(self) -> float:
        return self.as_float()

    def __repr__(self) -> str:
        return f"Dy({self.num}/2^{self.exp})"


ZERO = DyadicRational(0, 0)
ONE = DyadicRational(1, 0)

_COORD_BOUND = 4
_VALUE_BOUND = 8


def _check_bound(v: DyadicRational, bound: int, what: str) -> None:
    # |num|/2^exp <= bound  <=>  |num| <= bound << exp
    if abs(v.num) > (bound << v.exp):
        raise DomainError(f"{what} {v!r} outside [-{bound}, {bound}]")


def check_value_bound(v: DyadicRational) -> None:
    """1-d working values live in [-8, 8]."""
    _check_bound(v, _VALUE_BOUND, "value")


class DyadicPoint:
    """Planar point with exact dyadic coordinates in [-4, 4]^2.

    Slots class for the same reason as DyadicRational: membership predicates
    construct one per probe.
    """

    __slots__ = ("x", "y")

    x: DyadicRational
    y: DyadicRational

    def __init__(self, x: DyadicRational, y: DyadicRational) -> None:
        if abs(x.num) > (_COORD_BOUND << x.exp):
            raise DomainError(f"x coordinate {x!r} outside [-{_COORD_BOUND}, {_COORD_BOUND}]")
        if abs(y.num) > (_COORD_BOUND << y.exp):
            raise DomainError(f"y coordinate {y!r} outside [-{_COORD_BOUND}, {_COORD_BOUND}]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DyadicPoint is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("DyadicPoint is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is DyadicPoint:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is DyadicPoint:
            return self.x != other.x or self.y != other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"DyadicPoint(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return (DyadicPoint, (self.x, self.y))

    @classmethod
    def of(cls, xn: int, xe: int, yn: int, ye: int) -> "DyadicPoint":
        return cls(DyadicRational(xn, xe), DyadicRational(yn, ye))


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values of a column."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _distance_dtype(top: int) -> type:
    """int32 when values from 0 up to top + 1 all fit in it, else int64:
    sorting 32-bit columns is cheaper."""
    return np.int32 if top < np.iinfo(np.int32).max else np.int64


# a numerator on the 2^-m grid is at most 4 * 2^m = 2^(m+2) in magnitude,
# so int64 columns hold the coordinates while m <= GRID_CAP
GRID_CAP = 60


@dataclass(frozen=True, eq=False, init=False)
class PointSet:
    """Finite set of pairwise distinct dyadic points at a working scale:
    point i is (x[i], y[i]) / 2^m, with x and y read-only int64 numerator
    columns and m the largest coordinate exponent. `points` is the view of
    them as DyadicPoints, built when first asked for."""

    scale: Scale
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    m: int

    def __init__(self, scale: Scale, points: Iterable[DyadicPoint]) -> None:
        points = tuple(points)
        m = max((max(p.x.exp, p.y.exp) for p in points), default=0)
        self._store(scale, [p.x.num << (m - p.x.exp) for p in points], [p.y.num << (m - p.y.exp) for p in points], m)
        self.__dict__["points"] = points

    @classmethod
    def from_columns(cls, scale: Scale, x: np.ndarray, y: np.ndarray, m: int) -> PointSet:
        """The points (x[i], y[i]) / 2^m of two integer columns."""
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        # the largest exponent: drop the trailing zero bits all numerators share
        bits = int(np.bitwise_or.reduce(x, axis=None) | np.bitwise_or.reduce(y, axis=None))
        drop = min(m, (bits & -bits).bit_length() - 1) if bits else m
        ps = cls.__new__(cls)
        ps._store(scale, x >> drop, y >> drop, m - drop)
        return ps

    def _store(self, scale: Scale, x: Sequence[int], y: Sequence[int], m: int) -> None:
        """The one check of both ways in: the grid, the [-4, 4] bound and
        distinct points, each error naming the first point at fault."""
        if m > GRID_CAP:
            raise DyadicOverflowError(f"point sets need coordinates on the 2^-{GRID_CAP} grid or coarser, got 2^-{m}")
        x, y = np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)
        for name, value in (("scale", scale), ("x", x), ("y", y), ("m", m)):
            object.__setattr__(self, name, value)
        bound = _COORD_BOUND << m
        outside = np.flatnonzero((x < -bound) | (x > bound) | (y < -bound) | (y > bound))
        if outside.size:
            self._point(int(outside[0]))  # raises DyadicPoint's DomainError
        # a stable sort keeps each run of equal points in point order
        order = np.lexsort((y, x))
        repeat = ~(_run_starts(x[order]) | _run_starts(y[order]))
        if repeat.any():
            raise ValidationError(f"duplicate point {self._point(int(order[repeat].min()))}")
        x.flags.writeable = y.flags.writeable = False

    def _point(self, i: int) -> DyadicPoint:
        return DyadicPoint(DyadicRational(int(self.x[i]), self.m), DyadicRational(int(self.y[i]), self.m))

    @cached_property
    def points(self) -> tuple[DyadicPoint, ...]:
        return tuple(map(self._point, range(len(self))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.scale, self.m, self.x.tobytes(), self.y.tobytes()) == (
            other.scale, other.m, other.x.tobytes(), other.y.tobytes()
        )

    def __len__(self) -> int:
        return self.x.size

    def __iter__(self):
        return iter(self.points)

    def to_json(self) -> dict:
        return {"k": self.scale.k, "points": [[p.x.num, p.x.exp, p.y.num, p.y.exp] for p in self.points]}

    @classmethod
    def from_json(cls, obj: dict) -> "PointSet":
        k = _int_field(obj, "k")
        rows = obj.get("points")
        if not isinstance(rows, list):
            raise ParseError(f"point set 'points' must be a list, got {rows!r}")
        pts = [DyadicPoint.of(*_dyadic_row(row, 4, "point row [xn, xe, yn, ye]")) for row in rows]
        return cls(Scale(k), tuple(pts))


def cell_numbers(ps: PointSet, k: int) -> tuple[np.ndarray, int]:
    """Each point's half-open dyadic cell of side 2^-k, numbered in the
    cells' sorted order, and the number of cells the set meets."""
    shift = ps.m - k
    cx, cy = (ps.x >> shift, ps.y >> shift) if shift >= 0 else (ps.x << -shift, ps.y << -shift)
    # k <= SCALE_CAP, so |cy| <= 2^22 and one int64 packs (cx, cy) in order
    cells = (cx << 24) + cy
    order = np.argsort(cells)
    first = _run_starts(cells[order])
    numbers = np.empty_like(order)
    numbers[order] = np.cumsum(first) - 1
    return numbers, int(np.count_nonzero(first))


def covering_number(ps: PointSet, target: Scale) -> int:
    """Number of half-open dyadic target-cells [a*d, (a+1)*d) x [b*d, (b+1)*d)
    meeting the set. Exact; target must be at or coarser than the set's scale."""
    if target.k > ps.scale.k:
        raise ScaleError(f"covering target k={target.k} finer than set scale k={ps.scale.k}")
    return cell_numbers(ps, target.k)[1]


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log2(count) against k = log2(1/delta)."""

    samples: tuple[tuple[int, int], ...]
    slope: float
    intercept: float
    max_residual: float

    def to_json(self) -> dict:
        return {
            "samples": [[k, c] for k, c in self.samples],
            "slope": self.slope,
            "intercept": self.intercept,
            "max_residual": self.max_residual,
        }


def fit_exponent(samples: Sequence[tuple[Scale | int, int]]) -> ExponentFit:
    """Fit count ~ (1/delta)^slope across scales.

    Needs samples at >= 2 distinct scales with positive counts.
    """
    rows: list[tuple[int, int]] = []
    for sc, count in samples:
        k = sc.k if isinstance(sc, Scale) else int(sc)
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count} at k={k}")
        rows.append((k, int(count)))
    ks = [r[0] for r in rows]
    if len(set(ks)) < 2:
        raise ValidationError("fit needs samples at >= 2 distinct scales")
    ys = [math.log2(c) for _, c in rows]
    n = len(rows)
    mean_k = math.fsum(ks) / n
    mean_y = math.fsum(ys) / n
    var = math.fsum((k - mean_k) ** 2 for k in ks)
    cov = math.fsum((k - mean_k) * (y - mean_y) for k, y in zip(ks, ys))
    slope = cov / var
    intercept = mean_y - slope * mean_k
    max_res = max(abs(y - (slope * k + intercept)) for k, y in zip(ks, ys))
    return ExponentFit(tuple(rows), slope, intercept, max_res)
