"""Deterministic test-corpus generators.

Everything here is reproducible from (kind, params): pseudorandom choices go
through a 64-bit linear congruential generator with the classic
Numerical-Recipes constants (state * 6364136223846793005 + 1442695040888963407
mod 2^64), seeded explicitly.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .additive import QuasiProduct
from .core_grid import (
    GRID_CAP,
    DyadicPoint,
    DyadicRational,
    PointSet,
    Scale,
    _asdict,
    _int_field,
    _int_row,
    _run_starts,
    field,
    grid_objects,
    number_field,
    read_rows,
    record,
)
from .errors import GeneratorError, ParseError
from .incidence import Configuration
from .tubes import DyadicTube, TubeFamily, canonical_key_array, family_keys, unpack_key

_MASK64 = (1 << 64) - 1
# furstenberg_product's epsilon when none is given; it needs s > 1/4
DEFAULT_EPSILON = 0.25


class Lcg:
    """64-bit LCG; `below(n)` maps the next state multiplicatively onto
    [0, n), which is deterministic and bias-free enough for corpus drawing."""

    MUL = 6364136223846793005
    INC = 1442695040888963407

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * self.MUL + self.INC) & _MASK64
        return self.state

    def below(self, n: int) -> int:
        if n <= 0:
            raise GeneratorError(f"below({n}) needs n >= 1")
        return (self.next_u64() * n) >> 64


def _digit_fraction(s: float) -> Fraction:
    # repr() round-trips decimal literals like 0.3 exactly, keeping the
    # digit rule free of float-floor artifacts at integer boundaries
    return Fraction(repr(float(s)))


def cantor_line_indices(k: int, s: float) -> list[int]:
    if not (0.0 < s <= 1.0):
        raise GeneratorError(f"cantor dimension s={s} outside (0, 1]")
    fr = _digit_fraction(s)
    vals = [0]
    prev_floor = 0
    for j in range(1, k + 1):
        cur_floor = (j * fr.numerator) // fr.denominator
        if cur_floor > prev_floor:
            vals = [v << 1 for v in vals] + [(v << 1) | 1 for v in vals]
        else:
            vals = [v << 1 for v in vals]
        prev_floor = cur_floor
    return sorted(vals)


def cantor_line(k: int, s: float) -> tuple[DyadicRational, ...]:
    """Self-similar (delta, s)-set in [0, 1) with exactly 2^floor(k*s) values:
    level j branches into both children iff floor(j*s) increments, else keeps
    the left child."""
    Scale(k)  # range check
    return tuple(DyadicRational(v, k) for v in cantor_line_indices(k, s))


def slope_net(k: int, s: float) -> tuple[DyadicRational, ...]:
    """Slope set for tube experiments; alias of the cantor construction."""
    return cantor_line(k, s)


_SIZE_GUARD = 300_000


def _product(k: int, line: Sequence[int]) -> PointSet:
    """The points (i, j) * 2^-k for i, then j, in line."""
    line = np.asarray(line, dtype=np.int64)
    return PointSet.from_columns(Scale(k), np.repeat(line, line.size), np.tile(line, line.size), k)


def grid(k: int) -> PointSet:
    """Full delta-grid of [0, 1)^2."""
    Scale(k)  # range check, before 4^k and the shifts read k
    if 4 ** k > _SIZE_GUARD:
        raise GeneratorError(f"full grid at k={k} would have {4**k} points")
    return _product(k, range(1 << k))


def cantor_grid(k: int, s: float, mask: Sequence[Sequence[int]] | None = None) -> PointSet:
    """Product of two cantor lines (box dimension 2s), or, with a mask, the
    2-d digit-restricted set keeping the masked quadrants at every level
    (box dimension log2(len(mask)))."""
    if mask is None:
        line = cantor_line_indices(k, s)
        if len(line) ** 2 > _SIZE_GUARD:
            raise GeneratorError(f"cantor grid would have {len(line)**2} points")
        return _product(k, line)
    quads = sorted({(int(m[0]), int(m[1])) for m in mask})
    if not quads or not all(q in {(0, 0), (0, 1), (1, 0), (1, 1)} for q in quads):
        raise GeneratorError(f"mask must be nonempty subset of the four quadrants, got {mask!r}")
    cells = [(0, 0)]
    for _ in range(k):
        if len(cells) * len(quads) > _SIZE_GUARD:
            raise GeneratorError("masked grid too large")
        cells = [(2 * cx + dx, 2 * cy + dy) for cx, cy in cells for dx, dy in quads]
    cx, cy = np.array(sorted(cells), dtype=np.int64).reshape(-1, 2).T
    return PointSet.from_columns(Scale(k), cx, cy, k)


def furstenberg_product(k: int, s: float, epsilon: float = DEFAULT_EPSILON) -> Configuration:
    """Configuration meeting every dichotomy hypothesis by construction.

    Points: D x D with D the s=1/2 cantor line, so |P| = 2^k = delta^-1 and
    the coarse cover N(P, sqrt(delta)) is exactly delta^-1/2. Tube slopes:
    the (delta, s) cantor line; intercepts canonical through each point.
    """
    if k % 2 != 0 or k < 4:
        raise GeneratorError(f"k={k} must be even and >= 4")
    line = cantor_line_indices(k, 0.5)
    slopes = np.array(cantor_line_indices(k, s), dtype=np.int64)
    ys = np.array(line, dtype=np.int64)[:, None]
    keys = np.empty((len(line), len(line), slopes.size), dtype=np.int64)
    for xi, column in zip(line, keys):
        # the canonical keys of the column x = xi*delta, one row per point,
        # in key order
        column[...] = canonical_key_array(xi, ys, k, k, slopes)
    offsets = np.arange(len(line) ** 2 + 1) * slopes.size
    return Configuration(_product(k, line), keys.ravel(), offsets, s, epsilon)


def quasi_product(k: int, s: float, tau: float, seed: int = 0) -> QuasiProduct:
    """Levels on the (delta, tau) cantor line; each slice a translated copy
    (mod 1) of the (8*delta, s) cantor line, so slice points sit 8*delta
    apart and a slope >= 1 tube crosses a slice in width <= 4*delta: tubes
    meet each slice at most once by construction."""
    if k < 4:
        raise GeneratorError(f"k={k} too coarse for quasi products")
    scale = Scale(k)
    levels = np.array(cantor_line_indices(k, tau), dtype=np.int64)
    base = np.array(cantor_line_indices(k - 3, s), dtype=np.int64)
    n_cells = 1 << (k - 3)
    rng = Lcg(seed)
    # the slice values on the 2^-k grid, level by level
    x = np.concatenate([np.sort((base + rng.below(n_cells)) % n_cells) << 3 for _ in range(levels.size)])
    points = PointSet.from_columns(scale, x, np.repeat(levels, base.size), k)
    return QuasiProduct(points, s, tau)


def quasi_product_tubes(qp: QuasiProduct) -> TubeFamily:
    """Steep tubes (slopes in [1, 2) on a cantor slope net) through every
    point of the quasi product, canonical intercepts. Like slice_incidences,
    it refuses points finer than the 2^-(56-k) grid (DyadicOverflowError)."""
    k, ps = qp.scale.k, qp.point_set
    slopes = np.array(cantor_line_indices(k, qp.s), dtype=np.int64) + (1 << k)
    # the canonical keys of every point, one row per point; sorted, then
    # deduplicated
    keys = np.sort(canonical_key_array(ps.x[:, None], ps.y[:, None], ps.m, k, slopes), axis=None)
    return TubeFamily(qp.scale, keys[_run_starts(keys)])


@record
class TripodInstance:
    """Three grid points on one steep tube at well-separated levels."""

    tube: DyadicTube
    points: tuple[DyadicPoint, DyadicPoint, DyadicPoint]

    @property
    def scale(self) -> Scale:
        return self.tube.scale

    def levels(self) -> tuple[DyadicRational, DyadicRational, DyadicRational]:
        return (self.points[0].y, self.points[1].y, self.points[2].y)

    def to_json(self) -> dict:
        return {
            "k": self.scale.k,
            "tube": [self.tube.a.num, self.tube.a.exp, self.tube.b.num, self.tube.b.exp],
            "points": [[p.x.num, p.x.exp, p.y.num, p.y.exp] for p in self.points],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TripodInstance":
        scale = Scale(_int_field(obj, "k"))
        tube_row = obj.get("tube")
        rows = obj.get("points")
        if not (isinstance(rows, list) and len(rows) == 3):
            raise ParseError(f"tripod needs three point rows [xn, xe, yn, ye], got {rows!r}")
        keys, _ = family_keys(scale, [[tube_row]], lambda j: "tripod tube [a_num, a_exp, b_num, b_exp]")
        tube = DyadicTube(scale, *unpack_key(int(keys[0]), scale.k))
        columns, exact = read_rows(rows, 4, GRID_CAP, lambda i: "tripod point row [xn, xe, yn, ye]", DyadicPoint.of)
        a, b, c = grid_objects(columns, exact, DyadicPoint.of)
        # the tripod projection divides by the gap between the last two levels
        if len({a.y, b.y, c.y}) < 3:
            raise ParseError(f"tripod points need three distinct levels, got {rows!r}")
        return cls(tube, (a, b, c))


def collinear_tripod(k: int, seed: int = 0) -> TripodInstance:
    """Draw a slope-[1,2) tube and three delta-grid points on it whose levels
    are pairwise >= 1/4 apart. Deterministic retries: a level interval may
    miss the grid, in which case the next LCG draw is used."""
    rng = Lcg(seed)
    scale = Scale(k)
    n = 1 << k
    quarter = n >> 2
    for _attempt in range(4000):
        a_idx = n + rng.below(n)
        b_idx = rng.below(n)
        lv = sorted(rng.below(n) for _ in range(3))
        if lv[1] - lv[0] < quarter or lv[2] - lv[1] < quarter:
            continue
        tube = DyadicTube(scale, a_idx, b_idx)
        pts = []
        for level in lv:
            y = DyadicRational(level, k)
            x_guess = ((level - b_idx) << k) // a_idx
            found = None
            for dx in range(-2, 3):
                xi = x_guess + dx
                p = DyadicPoint(DyadicRational(xi, k), y)
                if tube.contains(p):
                    found = p
                    break
            if found is None:
                break
            pts.append(found)
        if len(pts) == 3:
            return TripodInstance(tube, (pts[0], pts[1], pts[2]))
    raise GeneratorError(f"no tripod found at k={k}, seed={seed}")


# kind: (what it builds, its required parameters, its optional ones); the
# manifest's _ANALYSIS_SHAPES says which analyses take each shape
_KINDS: dict[str, tuple[str, set[str], set[str]]] = {
    "grid": ("points", {"k"}, set()),
    "cantor_grid": ("points", {"k", "s"}, {"mask"}),
    "slope_net": ("values", {"k", "s"}, set()),
    "furstenberg_product": ("configuration", {"k", "s"}, {"epsilon"}),
    "quasi_product": ("quasi_product", {"k", "s", "tau"}, {"seed"}),
    "collinear_tripod": ("tripod", {"k"}, {"seed"}),
}
_KIND_SHAPE = {kind: shape for kind, (shape, _, _) in _KINDS.items()}


@record
class GeneratorSpec:
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParseError(f"unknown generator kind {self.kind!r}; known: {sorted(_KINDS)}")
        _, required, optional = _KINDS[self.kind]
        given = set(self.params)
        missing = required - given
        unknown = given - required - optional
        if missing:
            raise ParseError(f"{self.kind}: missing parameters {sorted(missing)}")
        if unknown:
            raise ParseError(f"{self.kind}: unknown parameters {sorted(unknown)}")
        p = self.params
        for name in ("s", "tau"):
            if name in p and not 0.0 < number_field(p, name, f"{self.kind}:") <= 1.0:
                raise ParseError(f"{self.kind}: {name}={p[name]!r} must be a number in (0, 1]")
        if self.kind == "furstenberg_product":
            # the default epsilon must fit s as well as a given one
            eps = number_field(p, "epsilon", f"{self.kind}:") if "epsilon" in p else DEFAULT_EPSILON
            if not 0.0 < eps < min(p["s"], 0.5):
                given = "" if "epsilon" in p else " (the default)"
                raise ParseError(f"{self.kind}: epsilon={p.get('epsilon', eps)!r}{given} must lie in (0, min(s, 1/2))")
        for name in ("k", "seed"):
            if name in p and type(p[name]) is not int:
                raise ParseError(f"{self.kind}: {name}={p[name]!r} must be an integer")
        if p.get("mask") is not None:
            if not isinstance(p["mask"], list):
                raise ParseError(f"{self.kind}: mask={p['mask']!r} must be a list of [dx, dy]")
            for quadrant in p["mask"]:
                _int_row(quadrant, 2, f"{self.kind}: mask quadrant [dx, dy]")

    to_json = _asdict

    def build(self) -> Any:
        """The generator's output. A spec the generator cannot satisfy (a
        scale it does not support, a size past its guard, a seed with no
        tripod) is bad input, so its GeneratorError becomes a ParseError."""
        try:
            return self._build()
        except GeneratorError as exc:
            raise ParseError(f"{self.kind}: {exc}") from exc

    def _build(self) -> Any:
        p = self.params
        k = p["k"]
        if self.kind == "grid":
            return grid(k)
        if self.kind == "cantor_grid":
            return cantor_grid(k, float(p["s"]), p.get("mask"))
        if self.kind == "slope_net":
            return slope_net(k, float(p["s"]))
        if self.kind == "furstenberg_product":
            return furstenberg_product(k, float(p["s"]), float(p.get("epsilon", DEFAULT_EPSILON)))
        if self.kind == "quasi_product":
            return quasi_product(k, float(p["s"]), float(p["tau"]), p.get("seed", 0))
        if self.kind == "collinear_tripod":
            return collinear_tripod(k, p.get("seed", 0))
        raise ParseError(f"unreachable kind {self.kind}")
