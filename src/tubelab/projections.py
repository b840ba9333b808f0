"""Directional projection sweeps and energies over finite angle nets.

pi_e(x, y) = x*cos(e) + y*sin(e) for angles e in [0, pi). Projections are a
floating-point diagnostic layered on the exact dyadic core: per-direction
covering counts use a shifted half-open cell convention (a value within 2^-40
of a cell boundary belongs to the lower cell), which keeps counts stable under
the rounding of the projection itself. An audit mode recounts with jittered
cell offsets to bound boundary sensitivity, at only the steps next to a value
within 2^-18 of a cell boundary. A sweep reuses one set of block buffers.
Energies sum over the exact distinct difference vectors of points on the
2^-27 grid or coarser, found as 32-bit keys when their span allows.
"""

from __future__ import annotations

import math
import os
from threading import Thread
from typing import Iterable, Sequence

import numpy as np

from .core_grid import PointSet, Scale, _distance_dtype, _run_starts, record
from .errors import DomainError, DyadicOverflowError, ValidationError

# values within this distance of a cell boundary count in the lower cell
BOUNDARY_TOL = 2.0**-40
# (direction, point) terms per sweep block: the three float64 block buffers a
# sweep allocates once are 128 kB each, so a block stays in cache
_SWEEP_BLOCK = 1 << 14
# audit jitter: far above the boundary tolerance, far below one cell
_AUDIT_JITTERS = (2.0**-20, -(2.0**-20))
# only a value this close to a cell boundary can change cell under a jitter
_NEAR = 2.0**-18
# points live in [-4,4]^2, so projected values span less than 12
_SPAN_BOUND = 12.0
_RIGHT = math.pi / 2


@record
class DirectionNet:
    """Ordered finite set of directions in [0, pi) with stored unit vectors.

    Vectors are computed once, when the net is built, and every sweep and
    energy projects with the stored values, so all of them see the same
    floats for a direction.
    """

    scale: Scale
    angles: tuple[float, ...]
    cosines: tuple[float, ...]
    sines: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.angles)
        if len(self.cosines) != n or len(self.sines) != n:
            raise ValidationError("angle and vector tuples must have equal length")
        a = np.array(self.angles, dtype=np.float64)
        c = np.array(self.cosines, dtype=np.float64)
        s = np.array(self.sines, dtype=np.float64)
        outside = ~((a >= 0.0) & (a < math.pi))  # NaN and infinities too
        # an angle equal to an earlier one: the later entries of each run of
        # equal angles in a stable sort
        order = np.argsort(a, kind="stable")
        ordered = a[order]
        repeat = np.zeros(n, dtype=bool)
        repeat[order[1:][ordered[1:] == ordered[:-1]]] = True
        off_unit = np.abs(c * c + s * s - 1.0) > 1e-9
        # the first offending angle, with the first check it fails
        bad = np.flatnonzero(outside | repeat | off_unit)
        if bad.size:
            i = int(bad[0])
            angle = self.angles[i]
            if outside[i]:
                raise ValidationError(f"angle {angle!r} outside [0, pi)")
            if repeat[i]:
                raise ValidationError(f"duplicate angle {angle!r}")
            raise ValidationError(f"direction vector for angle {angle!r} is not unit length")

    def __len__(self) -> int:
        return len(self.angles)

    @classmethod
    def from_angles(cls, scale: Scale, angles: Iterable[float]) -> "DirectionNet":
        angs = tuple(map(float, angles))
        # snap the two exactly representable right angles so axis projections
        # are exact; everything else takes the library trig values
        return cls(
            scale,
            angs,
            tuple(1.0 if a == 0.0 else 0.0 if a == _RIGHT else math.cos(a) for a in angs),
            tuple(0.0 if a == 0.0 else 1.0 if a == _RIGHT else math.sin(a) for a in angs),
        )

    @classmethod
    def uniform(cls, scale: Scale) -> "DirectionNet":
        """The full delta-net {j*delta : 0 <= j*delta < pi} at the given scale."""
        delta = 2.0 ** (-scale.k)
        count = int(math.pi * (1 << scale.k)) + 1
        angles = [j * delta for j in range(count)]
        while angles and angles[-1] >= math.pi:
            angles.pop()
        return cls.from_angles(scale, angles)


def _coords(points: PointSet) -> tuple[np.ndarray, np.ndarray]:
    # each numerator's float, scaled exactly by a power of two
    unit = 2.0 ** -points.m
    return points.x * unit, points.y * unit


def _cell_counts(ordered: np.ndarray, k: int, jitter: float = 0.0) -> np.ndarray:
    """Cells of side 2^-k that each row of values meets; rows must be sorted.

    The cell u = v * 2^k + jitter falls in is monotone in v, so distinct
    cells in a row are one more than the steps between neighbours."""
    # lower-cell convention: u within BOUNDARY_TOL above floor(u) drops a cell
    u = ordered * float(1 << k) + jitter
    f = np.floor(u)
    f -= (u - f) < BOUNDARY_TOL
    return 1 + np.count_nonzero(np.diff(f, axis=1), axis=1)


def _block_counts(vals: np.ndarray, k: int, audit: bool, u: np.ndarray, f: np.ndarray) -> tuple:
    """_cell_counts of the sorted rows `vals`, in the scratch arrays u and f,
    and with audit each row's largest |change| under the jitters (else 0).

    The plain count leaves u - f in [BOUNDARY_TOL, 1 + BOUNDARY_TOL); a value
    is near when that lies within _NEAR of 0 or of 1. For |u| < 12*2^20
    (k <= SCALE_CAP), rounding u +- 2^-20 errs by less than 2^-28: a value
    not near keeps its cell under both jitters and stays above BOUNDARY_TOL,
    so only the steps with a near left or right value are recounted.
    """
    np.multiply(vals, float(1 << k), out=u)
    np.floor(u, out=f)
    u -= f  # before the lift, where a lifted value lies below BOUNDARY_TOL
    np.subtract(f, 1.0, out=f, where=u < BOUNDARY_TOL)
    step = f[:, 1:] != f[:, :-1]
    count = 1 + np.count_nonzero(step, axis=1)
    spread = np.zeros_like(count)
    if audit:
        near = (u < _NEAR) | (u > 1.0 - _NEAR)
        at = np.flatnonzero(near[:, :-1] | near[:, 1:])  # steps with a near end
        if at.size:
            rows = at // step.shape[1]
            pairs = np.stack((vals.ravel()[at + rows], vals.ravel()[at + rows + 1]), axis=1)
            for jit in _AUDIT_JITTERS:
                change = np.bincount(rows, _cell_counts(pairs, k, jit) - 1 - step.ravel()[at], len(vals))
                np.maximum(spread, np.abs(change).astype(spread.dtype), out=spread)
    return count, spread


@record
class ProjectionSweep:
    """Per-direction covering counts N(pi_e(K), 2^-k) over a direction net."""

    net: DirectionNet
    target: Scale
    points: PointSet
    counts: tuple[int, ...]
    sensitivities: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        cap = min(len(self.points), int(_SPAN_BOUND * (1 << self.target.k)) + 2)
        for c in self.counts:
            if not 1 <= c <= cap:
                raise ValidationError(f"projection count {c} outside [1, {cap}]")
        if self.sensitivities is not None and len(self.sensitivities) != len(self.counts):
            raise ValidationError("sensitivities length must match counts")

    def quantiles(self) -> dict[str, float]:
        data = sorted(self.counts)
        last = len(data) - 1

        def quartile(i: int) -> float:
            # statistics.quantiles(method="inclusive"): data at i * last / 4,
            # interpolated exactly on the integer counts, then divided once
            j, r = divmod(i * last, 4)
            return (data[j] * (4 - r) + data[min(j + 1, last)] * r) / 4

        return {
            "min": float(data[0]),
            "q25": quartile(1),
            "median": quartile(2),
            "q75": quartile(3),
            "max": float(data[-1]),
        }

    def exceptional_count(self, t: float) -> int:
        """How many directions have N(pi_e(K), delta) <= delta^-t."""
        if not 0.0 < t < 1.0:
            raise DomainError(f"threshold exponent t={t} must lie in (0, 1)")
        threshold = 2.0 ** (self.target.k * t)
        return sum(1 for c in self.counts if c <= threshold)

    def max_sensitivity(self) -> int | None:
        if self.sensitivities is None:
            return None
        return max(self.sensitivities, default=0)

    def summary(self, thresholds: Sequence[float]) -> dict:
        obj: dict = {
            "n_directions": len(self.net),
            "quantiles": self.quantiles(),
            "exceptional": {str(t): self.exceptional_count(t) for t in thresholds},
        }
        if self.sensitivities is not None:
            obj["max_boundary_sensitivity"] = self.max_sensitivity()
        return obj


def sweep(
    points: PointSet,
    net: DirectionNet,
    target: Scale,
    *,
    audit: bool = False,
) -> ProjectionSweep:
    """Covering count of the projection per net direction, at the target scale.

    With audit=True each direction is recounted under jittered cell offsets,
    only at steps next to a value near a cell boundary (_block_counts), and
    its worst absolute count deviation is kept. Blocks of about _SWEEP_BLOCK
    (direction, point) terms are sorted and counted in turn, in three
    buffers allocated once per call.
    """
    if not len(points):
        raise DomainError("cannot sweep an empty point set")
    if len(net) == 0:
        raise DomainError("cannot sweep an empty direction net")
    xs, ys = _coords(points)
    cosines, sines = np.array(net.cosines), np.array(net.sines)
    k = target.k
    rows = max(1, _SWEEP_BLOCK // xs.size)
    buffers = np.empty((3, rows, xs.size))
    parts = []
    for lo in range(0, len(net), rows):
        vals, u, f = buffers[:, : min(rows, len(net) - lo)]
        # row i is xs * c + ys * s for one direction, the same float
        # operations as projecting that direction alone
        np.multiply(cosines[lo : lo + rows, None], xs, out=vals)
        vals += np.multiply(sines[lo : lo + rows, None], ys, out=u)
        vals.sort(axis=1)
        parts.append(_block_counts(vals, k, audit, u, f))
    counts = tuple(np.concatenate([c for c, _ in parts]).tolist())
    sens = tuple(np.concatenate([d for _, d in parts]).tolist()) if audit else None
    return ProjectionSweep(net, target, points, counts, sens)


def exceptional_ratio(sw: ProjectionSweep, t: float) -> float:
    """Measured constant A in: exceptional count <= A * log2(1/delta)^2 * delta^-t."""
    k = sw.target.k
    if k < 1:
        raise DomainError("exceptional ratio needs target scale k >= 1")
    return sw.exceptional_count(t) / (k * k * 2.0 ** (k * t))


@record
class ProjectionEnergy:
    """Discrete truncated s-energy of the projected set, per net direction."""

    net: DirectionNet
    scale: Scale
    s: float
    energies: tuple[float, ...]
    average: float


# difference keys _difference_histogram buffers per fold: 2 MiB int32, 4 MiB int64
_PAIR_BUFFER = 1 << 19
# (vector, direction) terms per energy kernel call. The 1 MB block stays in
# cache, and OpenBLAS runs its K=2 matmul (M*N*K = 2^18, at the threshold)
# and the gemv `weights @ d` on one thread (the same CPU time and wall time
# with 1 or 2 BLAS threads), so BLAS threads do not compete with the workers
_ENERGY_BLOCK = 1 << 17
# chunks summed in order by one worker task
_CHUNKS_PER_TASK = 32


def _difference_histogram(points: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """Distinct difference vectors q - p over pairs p < q, with multiplicities.

    A point (X, Y)/2^m on the shared grid 2^-m, m = max(k, largest
    exponent), is the int64 key X*2^(m+5) + Y. As |Y| <= 2^(m+2), keys sort
    as the points do, and over sorted keys each K_q - K_p > 0 packs the
    exact (dX, dY), |dY| <= 2^(m+3), in lexicographic order: v and -v share
    one entry, as they project to the same distance. Keys of the 2^-27 grid
    reach about 2^62; finer grids raise DyadicOverflowError. Shifted to
    start at 0, keys whose span plus 2^(m+4) fits int32 are held as int32,
    which halves the bytes each fold sorts; others stay int64. Rows of
    differences fill a fixed buffer that is folded into histograms when full,
    and those are merged as they grow, so memory is bounded by the buffer
    plus a few histograms, never by n^2. Returns the float64 rows (dx, dy)
    in key order, and their counts as float64 weights.
    """
    m = max(points.scale.k, points.m)
    if m > 27:
        raise DyadicOverflowError(f"projection energy needs coordinates on the 2^-27 grid or coarser, got 2^-{m}")
    lift = m - points.m
    keys = np.sort((points.x << (m + 5 + lift)) + (points.y << lift))
    keys -= keys[:1]  # differences do not change under the shift
    keys = keys.astype(_distance_dtype(int(keys.max(initial=0)) + (1 << (m + 4))))
    n = keys.size
    # a buffer never shorter than one row, so that rows are never split
    buf = np.empty(max(n - 1, min(_PAIR_BUFFER, n * (n - 1) // 2)), dtype=keys.dtype)
    # the folded histograms, (sorted distinct keys, counts), each at least
    # twice the size of the next, so that a key is merged O(log folds) times
    runs: list[tuple[np.ndarray, np.ndarray]] = []

    def merge(count: int) -> None:
        # the last `count` histograms as one: a stable sort of their keys,
        # then the counts of each run of equal keys summed
        merged = np.concatenate([run[0] for run in runs[-count:]])
        order = np.argsort(merged, kind="stable")
        merged = merged[order]
        starts = np.flatnonzero(_run_starts(merged))
        sums = np.add.reduceat(np.concatenate([run[1] for run in runs[-count:]])[order], starts)
        runs[-count:] = [(merged[starts], sums)]

    def fold(chunk: np.ndarray) -> None:
        # np.unique without its copy of the chunk: sort in place, then
        # count the runs of equal keys
        chunk.sort()
        starts = np.flatnonzero(_run_starts(chunk))
        cnts = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=cnts[:-1])
        cnts[-1:] = chunk.size - starts[-1:]
        runs.append((chunk[starts], cnts))
        while len(runs) > 1 and 2 * runs[-1][0].size > runs[-2][0].size:
            merge(2)

    filled = 0
    for i in range(n - 1):
        if filled + n - 1 - i > buf.size:
            fold(buf[:filled])
            filled = 0
        np.subtract(keys[i + 1 :], keys[i], out=buf[filled : filled + n - 1 - i])
        filled += n - 1 - i
    if filled:
        fold(buf[:filled])
    del buf
    if len(runs) > 1:
        merge(len(runs))
    # popped, so that the int64 counts are freed once converted
    vectors, counts = runs.pop() if runs else (np.empty(0, dtype=np.int64),) * 2
    counts = counts.astype(np.float64)
    # decode: as K + 2^(m+4) > 0, dX and dY + 2^(m+4) are its bits above and
    # below bit m+5
    rows = np.empty((vectors.size, 2))
    vectors += 1 << (m + 4)
    np.right_shift(vectors, m + 5, out=rows[:, 0])
    np.bitwise_and(vectors, (1 << (m + 5)) - 1, out=rows[:, 1])
    rows[:, 1] -= 1 << (m + 4)
    rows *= 2.0**-m
    return rows, counts


def projection_energy(
    points: PointSet,
    net: DirectionNet,
    s: float,
    *,
    threads: int = 1,
) -> ProjectionEnergy:
    """I_s(e) = (1/n^2) sum_{p != q} min(delta^-s, |pi_e(p) - pi_e(q)|^-s).

    The truncation at delta^-s (delta from the point set's scale) keeps every
    term finite, including coincident projections. Also reports the
    net average.

    The sum depends on the points only through the multiset of difference
    vectors p - q, so it runs over the distinct vectors once, against all
    directions at a time: each unordered pair {v, -v} weighs twice its count.
    The vectors are exact, from integer keys (_difference_histogram), so the
    points must lie on the 2^-27 grid or coarser. Tasks of vector chunks,
    sized by the net alone, run on the calling thread and helper threads, at
    most `threads` in all and no more than there are CPUs or tasks; their
    sums are added in task order, which keeps the energies bit-identical
    for every thread count.
    """
    n = len(points)
    if n < 2:
        raise DomainError("projection energy needs at least two points")
    if len(net) == 0:
        raise DomainError("cannot evaluate energy over an empty direction net")
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"energy exponent s={s} must be finite and positive")
    if points.scale.k * s >= 1024.0:
        raise DomainError(f"truncation level delta^-s = 2^{points.scale.k * s:g} overflows a float")
    xy, weights = _difference_histogram(points)
    directions = np.array([net.cosines, net.sines])
    delta = 2.0 ** -points.scale.k
    chunk = max(1, _ENERGY_BLOCK // len(net))
    span = chunk * _CHUNKS_PER_TASK
    # task boundaries depend on the net alone, and task sums are added in
    # order, so the association of the sum is the same for every thread count
    starts = range(0, len(xy), span)
    results: list = [None] * len(starts)
    errors: list[BaseException] = []
    tasks = iter(enumerate(starts))  # shared; next() on it is atomic under the GIL

    def work() -> None:
        """Take tasks until none is left, each summed chunk by chunk in one scratch block."""
        buf = np.empty((chunk, len(net)))
        try:
            for i, lo in tasks:
                total = results[i] = np.zeros(len(net))
                for start in range(lo, min(lo + span, len(xy)), chunk):
                    d = buf[: len(xy) - start]  # the last chunk may be short
                    np.matmul(xy[start : start + chunk], directions, out=d)
                    np.abs(d, out=d)
                    # clamping the distance at delta truncates the term at delta^-s
                    np.maximum(d, delta, out=d)
                    if s == 1.0:
                        np.reciprocal(d, out=d)
                    else:
                        np.power(d, -s, out=d)
                    total += weights[start : start + chunk] @ d
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)
            for _ in tasks:  # so that no worker takes another task
                pass

    workers = min(threads, os.cpu_count() or 1, len(starts))
    helpers = [Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    totals = sum(results, np.zeros(len(net)))
    # each distinct vector stands for the ordered pairs (p, q) and (q, p)
    energies = tuple(2.0 * float(t) / (n * n) for t in totals)
    average = math.fsum(energies) / len(energies)
    return ProjectionEnergy(net, points.scale, s, energies, average)


def sweep_to_csv(sw: ProjectionSweep, energy: ProjectionEnergy | None = None) -> str:
    """CSV rows (angle, count, energy); energy column empty when not supplied."""
    if energy is not None and energy.net.angles != sw.net.angles:
        raise ValidationError("energy report does not match sweep net")
    lines = ["angle,count,energy"]
    for i, (a, c) in enumerate(zip(sw.net.angles, sw.counts)):
        e = "" if energy is None else repr(energy.energies[i])
        lines.append(f"{a!r},{c},{e}")
    return "\n".join(lines) + "\n"
