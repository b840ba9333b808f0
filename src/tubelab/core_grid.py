"""Exact dyadic scales, rationals, points, and box-counting primitives.

All geometric predicates downstream of this module reduce to integer
comparisons on dyadic rationals, so equality and membership are exact; floats
appear only in diagnostics (exponent fits, energies) where a relative error
around 1e-15 is documented and harmless against the tolerances in use.
"""
from __future__ import annotations

import math
from contextlib import suppress
from functools import cached_property
from inspect import Parameter, Signature
from itertools import chain
from operator import attrgetter
from types import MemberDescriptorType
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, DyadicOverflowError, ParseError, ScaleError, ValidationError

SCALE_CAP = 20
_NUM_CAP = 1 << 127
# exponents a [num, exp] pair read from input may carry (see DyadicRational)
EXP_BOUND = 128


def _is_int_row(row: object, width: int) -> bool:
    """Whether a JSON row is exactly `width` integers. Booleans are refused
    too, although Python counts them as ints."""
    return isinstance(row, (list, tuple)) and len(row) == width and all(type(v) is int for v in row)


def _int_row(row: object, width: int, what: str) -> tuple[int, ...]:
    """A JSON row of exactly `width` integers; ParseError on anything else."""
    if not _is_int_row(row, width):
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


def read_rows(
    rows: list, width: int, grid: int, what: Callable[[int], str], build: Callable[..., object]
) -> tuple[np.ndarray, dict[int, object]]:
    """JSON rows of `width` integers read as [num, exp] pairs: the int64
    array of each pair's value times 2^grid, and build(*row) of each row
    the array does not take, by row index, its array row zero.

    One type pass, one np.array and array masks take the rows of `width`
    integers (not booleans) whose exponents lie within +-EXP_BOUND and whose
    values lie on the 2^-grid grid within int64, in lowest terms or not.
    The other rows are read in row order as the scalar readers read them:
    the row check names what(i), and build raises its error or returns the
    row's exact value. Domain tests are the caller's, on the array."""
    n, ints = len(rows), None
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        if set(map(type, chain.from_iterable(rows))) <= {int}:
            with suppress(OverflowError):  # an integer past int64
                ints, held = np.array(rows, dtype=np.int64).reshape(n, width), np.ones(n, dtype=bool)
    if ints is None:
        fits = [_is_int_row(row, width) and all(-(1 << 63) <= v < 1 << 63 for v in row) for row in rows]
        held = np.array(fits, dtype=bool)
        ints = np.array([row if ok else [0] * width for row, ok in zip(rows, held)], dtype=np.int64)
        ints = ints.reshape(n, width)
    num, exp = ints[:, 0::2], ints[:, 1::2]
    held &= ((exp >= -EXP_BOUND) & (exp <= EXP_BOUND)).all(axis=1)
    # shift each numerator onto the grid, left by up or right by -up; the
    # round trip fails on any lost bit, and any value of 0 is exact
    up = np.where(held[:, None], grid - exp, 0)
    left, right = np.clip(up, 0, 62), np.clip(-up, 0, 62)
    values = (num << left) >> right
    held &= ((((values << right) >> left) == num) & (np.abs(up) <= 62) | (num == 0)).all(axis=1)
    values[~held] = 0
    return values, {i: build(*_dyadic_row(rows[i], width, what(i))) for i in np.flatnonzero(~held).tolist()}


def grid_objects(values: np.ndarray, exact: dict[int, object], build: Callable[..., object]) -> list:
    """Each row's object from read_rows on the 2^-GRID_CAP grid: build(num,
    GRID_CAP, ...) of its array row, or the object read exactly."""
    rows = [chain.from_iterable((v, GRID_CAP) for v in row) for row in values.tolist()]
    return [exact[i] if i in exact else build(*row) for i, row in enumerate(rows)]


def write_rows(values: np.ndarray, grid: int) -> list[list[int]]:
    """The JSON rows of a 2-d int64 array of values times 2^grid: each
    value as a [num, exp] pair in lowest terms, the pairs of an array row
    side by side."""
    # trailing zero bits of each value, at most grid; all grid for a zero
    zeros = np.where(values == 0, grid, np.frexp(values & -values)[1] - 1)
    drop = np.minimum(zeros, grid)
    rows = np.empty((values.shape[0], 2 * values.shape[1]), dtype=np.int64)
    rows[:, 0::2] = values >> drop
    rows[:, 1::2] = grid - drop
    return rows.tolist()


def number_field(obj: dict, key: str, what: str) -> float:
    """obj[key] as a float. It must be a JSON number: an int or a float, but
    not a boolean, a string, null, or an int too large for a float."""
    value = obj.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(f"{what} {key!r} must be a number, got {value!r}")


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


class _Field:
    """A record field's default_factory (see field)."""

    __slots__ = ("default_factory",)

    def __init__(self, default_factory: Callable[[], object]) -> None:
        self.default_factory = default_factory

    def __repr__(self) -> str:  # how a constructor's signature shows a made default
        return "<factory>"


def field(*, default_factory: Callable[[], object]) -> Any:
    """A record field's default, made afresh for each instance by
    default_factory(), written in place of the default as in dataclasses."""
    return _Field(default_factory)


def _column(value: object) -> np.ndarray:
    """A record's int64 column: value as an int64 array, adopted, not
    copied, when it is one, and made read-only."""
    column = np.asarray(value, dtype=np.int64)
    column.flags.writeable = False
    return column


def _refuse_set(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _asdict(self) -> dict:
    """A record's fields by name, in order, the values themselves."""
    return {name: getattr(self, name) for name in self._fields}


def record(cls: type) -> type:
    """A class decorator that makes an annotated class an immutable record,
    as @dataclass(frozen=True) does, from closures: a dataclass compiles its
    methods' source with exec, which every process that imports the package
    would pay for.

    The class's annotations, in order, are its fields, and its values for
    them their defaults (a slots class's member descriptors are not). A
    field annotated np.ndarray is a column: the constructor makes it a
    read-only int64 array, adopting an int64 array passed in, not copying
    it. The record gets
    - __init__ over the fields, which adopts the columns and then calls
      __post_init__ if the class has one, with a __signature__ naming its
      parameters
    - __repr__ `Name(field=value, ...)`, without the columns
    - __eq__ and __hash__ on the tuple of fields; __eq__ compares columns
      with np.array_equal, and a record with columns is unhashable
    - __reduce__ `(type(self), fields)`, so that pickling, copy.copy and
      copy.deepcopy run the constructor and its checks again
    - refused assignment and deletion (AttributeError), `_fields` and
      `_asdict()`; a record whose JSON is its fields says `to_json = _asdict`.
    A method the class defines itself is kept."""
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    columns = tuple(name for name, kind in annotations.items() if kind in ("np.ndarray", np.ndarray))
    params = [Parameter("self", Parameter.POSITIONAL_OR_KEYWORD)]
    for name in names:
        default = cls.__dict__.get(name, Parameter.empty)
        if isinstance(default, MemberDescriptorType):
            default = Parameter.empty
        elif isinstance(default, _Field):
            delattr(cls, name)
        params.append(Parameter(name, Parameter.POSITIONAL_OR_KEYWORD, default=default, annotation=annotations[name]))
    signature = Signature(params)
    width, post_init = len(names), hasattr(cls, "__post_init__")
    shown = [name for name in names if name not in columns]
    # the tuple of fields; attrgetter returns a lone field bare
    values = attrgetter(*names)
    if width == 1:
        values = lambda self, one=values: (one(self),)  # noqa: E731

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != width:
            bound = signature.bind(self, *args, **kwargs)  # TypeError on a missing or unknown field
            bound.apply_defaults()
            args = [v.default_factory() if isinstance(v, _Field) else v for v in bound.args[1:]]
        self.__dict__.update(zip(names, args))
        for name in columns:
            self.__dict__[name] = _column(self.__dict__[name])
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in shown)})"

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def columns_eq(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = zip(names, values(self), values(other))
        return all(np.array_equal(a, b) if name in columns else a == b for name, a, b in pairs)

    __init__.__signature__ = signature
    methods = {
        "__init__": __init__, "__repr__": __repr__, "__setattr__": _refuse_set,
        "__delattr__": _refuse_delete, "_fields": names, "_asdict": _asdict,
        "__eq__": columns_eq if columns else __eq__,
        "__hash__": None if columns else lambda self: hash(values(self)),
        "__reduce__": lambda self: (type(self), values(self)),
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


@record
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


@record
class DyadicRational:
    """num / 2^exp in canonical form: exp >= 0, and num odd unless exp == 0.

    Numerators are capped at 128 bits; arithmetic that would exceed the cap
    raises DyadicOverflowError instead of producing a wrong value. Pairs
    read from input (the point, tube and value rows of read_rows) must
    also keep their exponent within +-EXP_BOUND = 128, or they are a
    ParseError. The domain check and the canonical form shift a numerator
    by as many bits as its exponent says, so an unbounded exponent costs
    unbounded memory; 128 lies far past what any analysis resolves (working
    scales stop at 2^-20, ball counts at 2^-27, and a nonzero value with a
    negative exponent below -3 leaves the [-8, 8] domain).

    A record that keeps its own slots, constructor, repr and order: these
    are constructed in bulk inside every exact predicate, so construction
    stays on a no-copy fast path when the inputs are already canonical.
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

    @classmethod
    def integer(cls, n: int) -> "DyadicRational":
        return cls(n, 0)

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


@record
class DyadicPoint:
    """Planar point with exact dyadic coordinates in [-4, 4]^2.

    A record with its own slots and constructor for the same reason as
    DyadicRational: membership predicates construct one per probe.
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


@record
class PointSet:
    """Finite set of pairwise distinct dyadic points at a working scale:
    point i is (x[i], y[i]) / 2^m, with x and y read-only int64 numerator
    columns and m the largest coordinate exponent. `points` is the view of
    them as DyadicPoints, built when first asked for."""

    scale: Scale
    x: np.ndarray
    y: np.ndarray
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
        x, y = _column(x), _column(y)
        self.__dict__.update(scale=scale, x=x, y=y, m=m)
        bound = _COORD_BOUND << m
        outside = np.flatnonzero((x < -bound) | (x > bound) | (y < -bound) | (y > bound))
        if outside.size:
            self._point(int(outside[0]))  # raises DyadicPoint's DomainError
        # a stable sort keeps each run of equal points in point order
        order = np.lexsort((y, x))
        repeat = ~(_run_starts(x[order]) | _run_starts(y[order]))
        if repeat.any():
            raise ValidationError(f"duplicate point {self._point(int(order[repeat].min()))}")

    def _point(self, i: int) -> DyadicPoint:
        return DyadicPoint(DyadicRational(int(self.x[i]), self.m), DyadicRational(int(self.y[i]), self.m))

    @cached_property
    def points(self) -> tuple[DyadicPoint, ...]:
        return tuple(map(self._point, range(len(self))))

    def __reduce__(self):
        # the one record whose constructor takes other than its fields
        return (PointSet.from_columns, (self.scale, self.x, self.y, self.m))

    def __len__(self) -> int:
        return self.x.size

    def __iter__(self):
        return iter(self.points)

    def to_json(self) -> dict:
        return {"k": self.scale.k, "points": write_rows(np.stack((self.x, self.y), axis=1), self.m)}

    @classmethod
    def from_json(cls, obj: dict) -> "PointSet":
        k = _int_field(obj, "k")
        rows = obj.get("points")
        if not isinstance(rows, list):
            raise ParseError(f"point set 'points' must be a list, got {rows!r}")
        columns, exact = read_rows(rows, 4, GRID_CAP, lambda i: "point row [xn, xe, yn, ye]", DyadicPoint.of)
        if exact:  # the scalar path, which also refuses points finer than the grid
            return cls(Scale(k), grid_objects(columns, exact, DyadicPoint.of))
        return cls.from_columns(Scale(k), columns[:, 0], columns[:, 1], GRID_CAP)


def read_pairs(rows: list) -> tuple[np.ndarray, dict[int, object]]:
    """read_rows of JSON [num, exp] rows on the 2^-GRID_CAP grid."""
    return read_rows(rows, 2, GRID_CAP, lambda i: "dyadic pair [num, exp]", DyadicRational)


def values_to_json(values: Sequence[DyadicRational]) -> dict:
    """Slope values as JSON, {"values": [[num, exp], ...]}."""
    return {"values": [v.pair() for v in values]}


def _cell_columns(ps: PointSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's half-open dyadic cell of side 2^-k, as the columns
    floor(x 2^k) and floor(y 2^k)."""
    shift = ps.m - k
    return (ps.x >> shift, ps.y >> shift) if shift >= 0 else (ps.x << -shift, ps.y << -shift)


def cell_numbers(ps: PointSet, k: int) -> tuple[np.ndarray, int]:
    """Each point's half-open dyadic cell of side 2^-k, numbered in the
    cells' sorted order, and the number of cells the set meets."""
    cx, cy = _cell_columns(ps, k)
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


@record
class ExponentFit:
    """Least-squares fit of log2(count) against k = log2(1/delta)."""

    samples: tuple[tuple[int, int], ...]
    slope: float
    intercept: float
    max_residual: float

    to_json = _asdict


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
