"""Directional projection sweeps, exceptional directions, and truncated
energy sums.

Counting oracles are pure-Python dedupes of floor cells, the per-direction
loop that the blocked sweep replaced, and exact integer cell counts for
dyadic slopes. The energy has two oracles: a direct double loop, and the
blocked per-direction formula that summed every ordered pair before energies
ran over distinct difference vectors.
"""
from __future__ import annotations

import math
import random
import statistics
import sys
from collections import Counter

import numpy as np
import pytest

import tubelab.projections
from tubelab.core_grid import DyadicPoint, PointSet, Scale, _distance_dtype
from tubelab.errors import DomainError, DyadicOverflowError, ValidationError
from tubelab.generators import cantor_grid, furstenberg_product, grid, quasi_product
from tubelab.projections import (
    _AUDIT_JITTERS,
    _CHUNKS_PER_TASK,
    _ENERGY_BLOCK,
    _PAIR_BUFFER,
    _SWEEP_BLOCK,
    DirectionNet,
    ProjectionSweep,
    _block_counts,
    _cell_counts,
    _coords,
    _difference_histogram,
    exceptional_ratio,
    projection_energy,
    sweep,
    sweep_to_csv,
)

BOUNDARY_TOL = 2.0**-40


def _segment(k: int) -> PointSet:
    pts = tuple(DyadicPoint.of(i, k, 0, 0) for i in range(1 << k))
    return PointSet(Scale(k), pts)


def _cells(values, k: int) -> int:
    return len({math.floor(v * (1 << k) - BOUNDARY_TOL) for v in values})


# --- direction nets ---


def _per_angle_vector(angle: float) -> tuple[float, float]:
    """The unit vector as nets built it one angle at a time."""
    if angle == 0.0:
        return 1.0, 0.0
    if angle == math.pi / 2:
        return 0.0, 1.0
    return math.cos(angle), math.sin(angle)


@pytest.mark.parametrize("k", range(13))
def test_uniform_net_matches_per_angle_construction(k):
    net = DirectionNet.uniform(Scale(k))
    angles = []
    j = 0
    while j * 2.0**-k < math.pi:
        angles.append(j * 2.0**-k)
        j += 1
    vectors = [_per_angle_vector(a) for a in angles]
    # bit for bit, signed zeros included
    assert [a.hex() for a in net.angles] == [a.hex() for a in angles]
    assert [c.hex() for c in net.cosines] == [v[0].hex() for v in vectors]
    assert [s.hex() for s in net.sines] == [v[1].hex() for v in vectors]


def test_from_angles_snaps_right_angles():
    net = DirectionNet.from_angles(Scale(2), [math.pi / 2, 0.0])
    # bit for bit: math.cos(pi / 2) is about 6e-17, not 0
    assert [v.hex() for v in net.cosines + net.sines] == [v.hex() for v in (0.0, 1.0, 1.0, 0.0)]


@pytest.mark.parametrize(
    "angles, cosines, sines, message",
    [
        ((0.5, 4.0, 0.5), None, None, "angle 4.0 outside [0, pi)"),
        ((0.5, 0.5, 4.0), None, None, "duplicate angle 0.5"),
        ((0.1, 0.7, 0.1, float("nan")), None, None, "duplicate angle 0.1"),
        ((0.2, float("nan"), 0.2), None, None, "angle nan outside [0, pi)"),
        ((float("inf"),), (1.0,), (0.0,), "angle inf outside [0, pi)"),
        ((-0.5,), None, None, "angle -0.5 outside [0, pi)"),
        ((0.0, -0.0), None, None, "duplicate angle -0.0"),
        ((0.3, 0.9), (1.0, 0.5), (0.0, 0.5), "direction vector for angle 0.9 is not unit length"),
        ((0.3, 3.5), (0.5, 1.0), (0.5, 0.0), "direction vector for angle 0.3 is not unit length"),
    ],
)
def test_direction_net_reports_first_offender(angles, cosines, sines, message):
    # angles in order, each failing its first check
    cosines = cosines or tuple(math.cos(a) for a in angles)
    sines = sines or tuple(math.sin(a) for a in angles)
    with pytest.raises(ValidationError) as err:
        DirectionNet(Scale(3), angles, cosines, sines)
    assert str(err.value) == message


# --- sweep ---


def test_sweep_single_point():
    ps = PointSet(Scale(4), (DyadicPoint.of(3, 4, 5, 4),))
    net = DirectionNet.uniform(Scale(4))
    sw = sweep(ps, net, Scale(4))
    assert set(sw.counts) == {1}


def test_sweep_segment_matches_cosine_formula():
    k = 6
    ps = _segment(k)
    angles = [j * math.pi / 16 for j in range(16)]
    net = DirectionNet.from_angles(Scale(k), angles)
    sw = sweep(ps, net, Scale(k))
    for a, count in zip(net.angles, sw.counts):
        span = (2**k - 1) * abs(math.cos(a)) / 2**k * 2**k
        assert max(1, math.floor(span)) - 1 <= count <= math.ceil(span) + 1


def test_sweep_counts_match_projection_dedupe():
    ps = cantor_grid(6, 0.5)
    net = DirectionNet.uniform(Scale(4))
    sw = sweep(ps, net, Scale(6))
    for i, angle in enumerate(net.angles):
        vals = [
            p.x.as_float() * net.cosines[i] + p.y.as_float() * net.sines[i]
            for p in ps.points
        ]
        assert sw.counts[i] == _cells(vals, 6)


def test_sorted_cell_count_matches_dedupe_of_cells():
    # the sweep sorts each row of a block of directions and counts cell
    # steps along the rows; per row, that must equal deduplicating the
    # lower-convention cells, plain and jittered, also for values on, just
    # above and just below cell boundaries
    k = 6
    edges = np.arange(-40, 40) / 2**k
    values = np.concatenate(
        [
            np.random.default_rng(0).uniform(-4.0, 4.0, 300),
            edges,
            edges + BOUNDARY_TOL / 2 ** (k + 1),
            edges + 2.0 ** -(k + 21),
            edges - 2.0 ** -(k + 21),
            edges - 2.0**-60,
        ]
    )
    # the last row holds every half cell: there the lower-cell convention
    # moves each value on a boundary into the cell below
    halves = np.arange(values.size) / 2.0 ** (k + 1)
    rows = np.sort(np.stack([values, -values, values + 2.0**-k, halves]), axis=1)
    for jitter in (0.0, *_AUDIT_JITTERS):
        u = rows * 2**k + jitter
        cells = np.floor(u)
        cells -= (u - cells) < BOUNDARY_TOL
        expect = [np.unique(row).size for row in cells]
        assert _cell_counts(rows, k, jitter).tolist() == expect


def _dense_audit(rows: np.ndarray, k: int) -> tuple[list, list]:
    """Counts and spreads from _cell_counts of every row under every jitter."""
    count = _cell_counts(rows, k)
    spread = np.zeros_like(count)
    for jit in _AUDIT_JITTERS:
        spread = np.maximum(spread, np.abs(_cell_counts(rows, k, jit) - count))
    return count.tolist(), spread.tolist()


def _near_boundary_values() -> np.ndarray:
    """Scaled values u around the boundaries -3..3: on them, BOUNDARY_TOL
    (and half of it) either side, the audit jitter 2^-20 either side (and
    BOUNDARY_TOL past it), and the near margin 2^-18 either side, each also
    one ulp either side."""
    tol = BOUNDARY_TOL
    offsets = [0.0, tol, tol / 2, 2.0**-20, 2.0**-20 + tol / 2, 2.0**-20 - tol / 2]
    offsets += [2.0**-20 + 2 * tol, 2.0**-19, 2.0**-18]
    values = []
    for n in range(-3, 4):
        for off in offsets:
            for u in (n + off, n - off):
                # the ulps beside 0 are subnormal, and scaling rounds them
                values += [u] if u == 0 else [u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf)]
    return np.array(values)


@pytest.mark.parametrize("k", [1, 10, 20])
def test_sparse_recount_matches_dense_audit(k):
    # the sweep recounts only steps next to a value within 2^-18 of a cell
    # boundary; rows of values exactly that far, one ulp either side of it,
    # at the jitter, and within BOUNDARY_TOL of a boundary must give the
    # counts and spreads of the dense audit
    u = _near_boundary_values()
    # one crafted value per row between two cell midpoints, so that no other
    # change in its row can hide its own
    mid = np.floor(u) + 0.5
    single = np.stack([mid - 1.0, u, mid + 1.0], axis=1)
    # and all of them in rows together, with generic values among them
    rng = np.random.default_rng(k)
    pool = np.concatenate([u, rng.uniform(-4.0, 4.0, u.size)])
    mixed = np.sort(np.stack([rng.permutation(pool)[:200] for _ in range(40)]), axis=1)
    for scaled in (single, mixed, u[None, :].copy()):
        rows = np.sort(scaled, axis=1) / 2.0**k  # exact: a power of two
        assert np.array_equal(rows * 2.0**k, np.sort(scaled, axis=1))
        count, spread = _block_counts(rows, k, True, np.empty_like(rows), np.empty_like(rows))
        assert (count.tolist(), spread.tolist()) == _dense_audit(rows, k)
        plain, zeros = _block_counts(rows, k, False, np.empty_like(rows), np.empty_like(rows))
        assert plain.tolist() == count.tolist() and not zeros.any()
    # the crafted values do move: some single rows change under a jitter
    assert any(_dense_audit(single / 2.0**k, k)[1])


def test_sweep_bounded_by_three_source_cells():
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(5))
    sw = sweep(ps, net, Scale(8))
    from tubelab.core_grid import covering_number

    n_cells = covering_number(ps, Scale(8))
    assert all(c <= 3 * n_cells for c in sw.counts)


def _sweep_oracle(points: PointSet, net: DirectionNet, target: Scale) -> tuple[tuple, tuple]:
    """Counts and audit spreads by the per-direction loop the blocked sweep
    replaced: one projection, one sort and one scalar cell count per
    direction."""
    xs, ys = _coords(points)
    k = target.k

    def cell_count(ordered: np.ndarray, jitter: float = 0.0) -> int:
        u = ordered * float(1 << k) + jitter
        f = np.floor(u)
        f -= (u - f) < BOUNDARY_TOL
        return 1 + int(np.count_nonzero(np.diff(f)))

    counts, spreads = [], []
    for c, s in zip(net.cosines, net.sines):
        vals = np.sort(xs * c + ys * s)
        count = cell_count(vals)
        counts.append(count)
        spreads.append(max(abs(cell_count(vals, jit) - count) for jit in _AUDIT_JITTERS))
    return tuple(counts), tuple(spreads)


def _signed_random_points(count: int, seed: int) -> PointSet:
    # both signs, exponents 3..9, at working scale k = 6
    rng = np.random.default_rng(seed)
    pts = {}
    while len(pts) < count:
        xe, ye = (int(e) for e in rng.integers(3, 10, size=2))
        p = DyadicPoint.of(
            int(rng.integers(-(4 << xe), 4 << xe)), xe, int(rng.integers(-(4 << ye), 4 << ye)), ye
        )
        pts[p] = p
    return PointSet(Scale(6), tuple(pts.values()))


def _quasi_product_points(k: int, s: float, tau: float, seed: int) -> PointSet:
    qp = quasi_product(k, s, tau, seed)
    return PointSet(qp.scale, tuple(qp.points()))


def _fine_grid_points(count: int, k: int, seed: int) -> PointSet:
    rng = np.random.default_rng(seed)
    cells = {tuple(c) for c in rng.integers(0, 1 << k, size=(count, 2)).tolist()}
    return PointSet(Scale(k), tuple(DyadicPoint.of(x, k, y, k) for x, y in sorted(cells)))


_SWEEP_CASES = {
    # (points, net, target scale); the first two are the energy workloads'
    # sweep and the manifest's sweep at k = 10
    "furstenberg_805": lambda: (
        furstenberg_product(10, 0.5).points, DirectionNet.uniform(Scale(8)), Scale(8)
    ),
    "furstenberg_3217": lambda: (
        furstenberg_product(10, 0.5).points, DirectionNet.uniform(Scale(10)), Scale(10)
    ),
    "grid5": lambda: (grid(5), DirectionNet.uniform(Scale(5)), Scale(5)),
    "cantor8": lambda: (cantor_grid(8, 0.5), DirectionNet.uniform(Scale(8)), Scale(8)),
    "quasi_product": lambda: (
        _quasi_product_points(10, 0.5, 0.5, 0), DirectionNet.uniform(Scale(10)), Scale(10)
    ),
    "signed_500": lambda: (_signed_random_points(500, 3), DirectionNet.uniform(Scale(6)), Scale(6)),
    # block edges: the net's length is no multiple of the rows per block
    "ragged_last_block": lambda: (
        _random_grid_points(1000, 10, 1), DirectionNet.uniform(Scale(5)), Scale(7)
    ),
    "one_direction": lambda: (
        cantor_grid(8, 0.5), DirectionNet.from_angles(Scale(4), [0.7]), Scale(8)
    ),
    "one_point": lambda: (
        PointSet(Scale(4), (DyadicPoint.of(-3, 4, 5, 4),)), DirectionNet.uniform(Scale(6)), Scale(4)
    ),
    # more points than one block holds: one direction per block
    "one_direction_per_block": lambda: (
        _random_grid_points(20_000, 10, 2), DirectionNet.uniform(Scale(2)), Scale(9)
    ),
    # the finest scale: at target 20 the axis directions put every value on
    # a cell boundary, the other angles put them anywhere
    "k20_target20": lambda: (
        _fine_grid_points(2000, 20, 4),
        DirectionNet.from_angles(Scale(20), [0.0, math.pi / 2, 0.1, 0.7, 1.3, 2.2, 3.0]),
        Scale(20),
    ),
    # the origin projects onto a cell boundary in every direction
    "lattice_with_origin": lambda: (
        PointSet(
            Scale(3), tuple(DyadicPoint.of(i, 3, j, 3) for i in range(-8, 9) for j in range(-8, 9))
        ),
        DirectionNet.uniform(Scale(8)),
        Scale(8),
    ),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_blocked_sweep_matches_per_direction_loop(case):
    ps, net, target = _SWEEP_CASES[case]()
    counts, spreads = _sweep_oracle(ps, net, target)
    audited = sweep(ps, net, target, audit=True)
    assert audited.counts == counts
    assert audited.sensitivities == spreads
    assert sweep(ps, net, target).counts == counts
    rows = max(1, _SWEEP_BLOCK // len(ps.points))
    if case == "ragged_last_block":
        assert len(net) % rows != 0 and len(net) > rows
    if case == "one_direction_per_block":
        assert rows == 1


@pytest.mark.parametrize("cpus", [2, None, 64])
def test_threads_capped_at_cpus_and_tasks(monkeypatch, helper_threads, cpus):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    # 3,280 distinct difference vectors against 3,217 directions are 3
    # energy tasks
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(10))
    energy = projection_energy(ps, net, 1.0)
    assert helper_threads == []
    capped = projection_energy(ps, net, 1.0, threads=10_000)
    # the calling thread is one worker; an unknown CPU count counts as one
    # CPU, so the tasks run on the calling thread alone
    workers = {2: 2, None: 1, 64: 3}[cpus]
    assert len(helper_threads) == workers - 1
    assert not any(t.is_alive() for t in helper_threads)
    assert capped.energies == energy.energies


def test_energy_on_more_workers_than_cpus_matches_one_thread(monkeypatch, helper_threads):
    # 11 tasks on 8 workers that switch every microsecond: a task lost
    # between workers would leave its sum out, or break the sum
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(12))
    one = projection_energy(ps, net, 1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = projection_energy(ps, net, 1.0, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(helper_threads) == 7
    assert not any(t.is_alive() for t in helper_threads)
    assert many.energies == one.energies


def test_energy_raises_what_a_helper_raised(helper_fault, helper_threads):
    # 3 tasks on the calling thread and two helpers; one helper's task fails
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(10))
    with pytest.raises(helper_fault, match="helper task"):
        projection_energy(ps, net, 1.0, threads=3)
    assert len(helper_threads) == 2
    assert not any(t.is_alive() for t in helper_threads)


def _exact_dyadic_counts(points: PointSet, target_k: int) -> list[int]:
    """Cells of side 2^-target_k met by x + a*y for a = j/2^8, j = 0..256,
    in exact integer arithmetic on the points' (X, Y, m) columns."""
    x, y, m = points.x, points.y, points.m
    return [np.unique((x * 256 + j * y) >> (m + 8 - target_k)).size for j in range(257)]


@pytest.mark.parametrize("target_k", [4, 6, 8])
@pytest.mark.parametrize(
    "points",
    [
        lambda: furstenberg_product(10, 0.5).points,
        lambda: grid(5),
        lambda: cantor_grid(8, 0.5),
        lambda: _quasi_product_points(10, 0.5, 0.4, 0),
    ],
    ids=["furstenberg10", "grid5", "cantor8", "quasi_product10"],
)
def test_sweep_brackets_exact_dyadic_counts(points, target_k):
    # pi_a(p) = x + a*y is sqrt(1 + a^2) * pi_e(p) at e = atan(a), a factor
    # in [1, sqrt 2] for a in [0, 1]: pulled back, a cell of side delta of
    # pi_a meets at most 2 cells of pi_e, and pushed forward one cell of
    # pi_e meets at most 3 cells of pi_a
    ps = points()
    net = DirectionNet.from_angles(Scale(8), [math.atan(j / 256) for j in range(257)])
    floats = sweep(ps, net, Scale(target_k)).counts
    exact = _exact_dyadic_counts(ps, target_k)
    for n_float, n_exact in zip(floats, exact):
        assert n_float <= 2 * n_exact
        assert n_exact <= 3 * n_float


def test_sweep_rotation_covariance():
    ps = cantor_grid(6, 0.5)
    # turn the points and the net a quarter turn together, the vectors
    # exactly as (c, s) -> (-s, c). Below pi/2 the turned projection
    # (-y)(-s) + x*c is made of the same float products, so counts agree
    # bit for bit
    angles = [j * 2.0**-4 for j in range(20)]
    net = DirectionNet.from_angles(Scale(6), angles)
    turned = PointSet(ps.scale, tuple(DyadicPoint(-p.y, p.x) for p in ps.points))
    turned_net = DirectionNet(
        net.scale, tuple(a + math.pi / 2 for a in angles), tuple(-s for s in net.sines), net.cosines
    )
    assert sweep(ps, net, Scale(6)).counts == sweep(turned, turned_net, Scale(6)).counts


def test_sweep_audit_mode():
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(4))
    plain = sweep(ps, net, Scale(8))
    audited = sweep(ps, net, Scale(8), audit=True)
    assert plain.sensitivities is None
    assert audited.sensitivities is not None
    assert audited.max_sensitivity() >= 0
    assert plain.counts == audited.counts


def test_sweep_rejects_empty_inputs():
    net = DirectionNet.uniform(Scale(3))
    with pytest.raises(DomainError):
        sweep(PointSet(Scale(4), ()), net, Scale(4))
    empty = DirectionNet(Scale(3), (), (), ())
    with pytest.raises(DomainError):
        sweep(grid(3), empty, Scale(3))


def test_sweep_quantiles_and_json():
    ps = cantor_grid(6, 0.5)
    net = DirectionNet.uniform(Scale(4))
    sw = sweep(ps, net, Scale(6), audit=True)
    q = sw.quantiles()
    assert q["min"] <= q["q25"] <= q["median"] <= q["q75"] <= q["max"]
    obj = sw.summary((0.5,))
    assert obj == {
        "n_directions": len(net),
        "quantiles": q,
        "exceptional": {"0.5": sw.exceptional_count(0.5)},
        "max_boundary_sensitivity": sw.max_sensitivity(),
    }
    assert "max_boundary_sensitivity" not in sweep(ps, net, Scale(6)).summary((0.5,))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 40, 805])
def test_quantiles_match_statistics_inclusive(n):
    # bit for bit, on counts drawn with many ties and with few
    rng = random.Random(n)
    ps = grid(5)
    net = DirectionNet.uniform(Scale(1))
    for trial in range(40):
        top = (3, len(ps))[trial % 2]
        counts = tuple(rng.randint(1, top) for _ in range(n))
        q = ProjectionSweep(net, Scale(7), ps, counts).quantiles()
        expect = [float(counts[0])] * 3 if n == 1 else statistics.quantiles(counts, n=4, method="inclusive")
        assert [q["q25"], q["median"], q["q75"]] == expect
        assert (q["min"], q["max"]) == (min(counts), max(counts))


# --- exceptional directions ---


def test_exceptional_antitone():
    # a larger threshold exponent t admits more directions, never fewer
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(5))
    sw = sweep(ps, net, Scale(8))
    counts = [sw.exceptional_count(t) for t in (0.2, 0.4, 0.6, 0.8)]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_exceptional_segment_small_t():
    k = 6
    ps = _segment(k)
    # net containing the exact normal direction
    angles = [j * 2.0**-k for j in range(100)] + [math.pi / 2]
    net = DirectionNet.from_angles(Scale(k), sorted(angles))
    sw = sweep(ps, net, Scale(k))
    assert 1 <= sw.exceptional_count(0.1) <= 3  # only near-normal directions collapse


def test_exceptional_empty_for_spread_set():
    ps = grid(4)
    net = DirectionNet.uniform(Scale(4))
    sw = sweep(ps, net, Scale(4))
    assert sw.exceptional_count(0.05) == 0


def test_exceptional_rejects_bad_threshold():
    ps = grid(3)
    sw = sweep(ps, DirectionNet.uniform(Scale(3)), Scale(3))
    with pytest.raises(DomainError):
        sw.exceptional_count(0.0)
    with pytest.raises(DomainError):
        sw.exceptional_count(1.0)


def test_exceptional_ratio_normalization():
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(4))
    sw = sweep(ps, net, Scale(8))
    t = 0.5
    expect = sw.exceptional_count(t) / (8**2 * 2 ** (8 * t))
    assert exceptional_ratio(sw, t) == pytest.approx(expect)


# --- energy ---


def test_energy_normal_direction_closed_form():
    k = 6
    ps = _segment(k)
    net = DirectionNet.from_angles(Scale(k), [math.pi / 2])
    s = 0.5
    rep = projection_energy(ps, net, s)
    n = len(ps.points)
    cap = 2.0 ** (k * s)
    assert rep.energies[0] == pytest.approx(cap * (1.0 - 1.0 / n))
    assert rep.average == pytest.approx(rep.energies[0])


def test_energy_matches_brute_force():
    ps = cantor_grid(4, 0.5)
    net = DirectionNet.from_angles(Scale(4), [0.1, 0.7, 1.3])
    s = 0.75
    rep = projection_energy(ps, net, s)
    cap = 2.0 ** (4 * s)
    pts = [(p.x.as_float(), p.y.as_float()) for p in ps.points]
    n = len(pts)
    for i in range(len(net)):
        c, sn = net.cosines[i], net.sines[i]
        vals = [x * c + y * sn for x, y in pts]
        total = 0.0
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                d = abs(vals[a] - vals[b])
                total += cap if d == 0.0 else min(cap, d**-s)
        assert rep.energies[i] == pytest.approx(total / (n * n), rel=1e-9)


def test_energy_thread_determinism():
    # 4,096 points: 8.4M pairs fold the difference buffer 16 times, and
    # their 8,064 distinct vectors make several worker tasks against 3,217
    # directions
    ps = grid(6)
    n = len(ps.points)
    assert n * (n - 1) // 2 > 2 * _PAIR_BUFFER
    net = DirectionNet.uniform(Scale(10))
    rows, _ = _difference_histogram(ps)
    assert len(rows) > 4 * _CHUNKS_PER_TASK * (_ENERGY_BLOCK // len(net))
    one = projection_energy(ps, net, 1.0, threads=1)
    for threads in (2, 4):
        many = projection_energy(ps, net, 1.0, threads=threads)
        assert one.energies == many.energies
        assert one.average == many.average


def _blocked_energy(points: PointSet, net: DirectionNet, s: float) -> list[float]:
    """The per-direction formula: every ordered pair's min(d^-s, cap), summed
    in row blocks over the full matrix, minus the n diagonal terms."""
    n = len(points.points)
    xs, ys = _coords(points)
    cap = 2.0 ** (points.scale.k * s)
    energies = []
    for c, sn in zip(net.cosines, net.sines):
        vals = xs * c + ys * sn
        total = 0.0
        with np.errstate(divide="ignore"):
            for lo in range(0, n, 1024):
                d = np.abs(vals[lo : lo + 1024, None] - vals[None, :])
                total += float(np.minimum(d**-s, cap).sum())
        energies.append((total - n * cap) / (n * n))
    return energies


def _random_grid_points(count: int, k: int, seed: int) -> PointSet:
    rng = np.random.default_rng(seed)
    side = 1 << k
    cells = rng.choice(side * side, size=count, replace=False)
    pts = tuple(DyadicPoint.of(int(c) // side, k, int(c) % side, k) for c in cells)
    return PointSet(Scale(k), pts)


def _signed_fine_points() -> PointSet:
    # coordinates in [-4, 4) at exponents 5..9, above the set's scale k = 4,
    # so many projected distances fall below delta and are truncated
    rng = np.random.default_rng(11)
    pts = {}
    for _ in range(300):
        xe, ye = (int(e) for e in rng.integers(5, 10, size=2))
        xn = int(rng.integers(-(4 << xe), 4 << xe))
        yn = int(rng.integers(-(4 << ye), 4 << ye))
        p = DyadicPoint.of(xn, xe, yn, ye)
        pts[p] = p
    return PointSet(Scale(4), tuple(pts.values()))


def _sub_net(net: DirectionNet, stride: int) -> DirectionNet:
    return DirectionNet.from_angles(net.scale, net.angles[::stride])


_ORACLE_CASES = {
    # criterion 10's corpus, with every direction at k = 8 and a strided
    # sub-net at k = 10 (each direction's energy is independent of the rest)
    "furstenberg_k8": lambda: (
        furstenberg_product(8, 0.5).points, DirectionNet.uniform(Scale(8))
    ),
    "furstenberg_k10": lambda: (
        furstenberg_product(10, 0.5).points, _sub_net(DirectionNet.uniform(Scale(10)), 64)
    ),
    "grid6": lambda: (grid(6), _sub_net(DirectionNet.uniform(Scale(4)), 17)),
    "random_1024": lambda: (
        _random_grid_points(1024, 10, 5), _sub_net(DirectionNet.uniform(Scale(8)), 16)
    ),
    "signed_fine": lambda: (_signed_fine_points(), DirectionNet.uniform(Scale(5))),
    "irregular_net": lambda: (
        cantor_grid(6, 0.5), DirectionNet.from_angles(Scale(4), [0.0, 0.3, 1.1, math.pi / 2, 2.9])
    ),
}


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_energy_matches_blocked_formula(case, s):
    ps, net = _ORACLE_CASES[case]()
    rep = projection_energy(ps, net, s, threads=2)
    expect = _blocked_energy(ps, net, s)
    assert len(rep.energies) == len(expect)
    for got, want in zip(rep.energies, expect):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    average = math.fsum(expect) / len(expect)
    assert math.isclose(rep.average, average, rel_tol=1e-12, abs_tol=0.0)


def test_difference_histogram_counts_unordered_pairs():
    # the generator emits its points in lexicographic order; reversed, every
    # pair difference comes out with the opposite sign first
    ps = furstenberg_product(10, 0.5).points
    ps = PointSet(ps.scale, ps.points[::-1])
    n = len(ps.points)
    rows, counts = _difference_histogram(ps)
    # D x D with D of 32 values has 3^10 distinct differences; dropping 0
    # and identifying v with -v leaves half of the rest
    assert rows.shape == ((3**10 - 1) // 2, 2)
    assert int(counts.sum()) == n * (n - 1) // 2
    dx, dy = rows.T
    # every row is oriented: dx > 0, or dx == 0 and dy > 0
    assert np.all((dx > 0) | ((dx == 0) & (dy > 0)))
    # and the rows strictly increase lexicographically
    assert np.all((dx[1:] > dx[:-1]) | ((dx[1:] == dx[:-1]) & (dy[1:] > dy[:-1])))


def _pair_histogram_oracle(points: PointSet) -> tuple[int, list[tuple[tuple[int, int], int]]]:
    """Brute force over all pairs: the exact integer difference (dX, dY) on
    the grid 2^-M of the finest coordinate, oriented so that it is above
    (0, 0) lexicographically, with the number of pairs that have it."""
    fine = max(max(p.x.exp, p.y.exp) for p in points)
    xs = np.array([p.x.num << (fine - p.x.exp) for p in points], dtype=np.int64)
    ys = np.array([p.y.num << (fine - p.y.exp) for p in points], dtype=np.int64)
    hist: Counter = Counter()
    for i in range(len(xs) - 1):
        dx, dy = xs[i + 1 :] - xs[i], ys[i + 1 :] - ys[i]
        flip = (dx < 0) | ((dx == 0) & (dy < 0))
        dx[flip], dy[flip] = -dx[flip], -dy[flip]
        hist.update(zip(dx.tolist(), dy.tolist()))
    return fine, sorted(hist.items())


def _random_points(n: int, k: int, exps, seed: int) -> PointSet:
    """n distinct points of [-4, 4]^2 at scale k, each coordinate on a grid
    2^-e drawn from exps."""
    rng = random.Random(seed)
    pts: dict = {}
    while len(pts) < n:
        xe, ye = rng.choice(exps), rng.choice(exps)
        p = DyadicPoint.of(rng.randint(-4 << xe, 4 << xe), xe, rng.randint(-4 << ye, 4 << ye), ye)
        pts[p] = p
    return PointSet(Scale(k), tuple(pts.values()))


def _corners(k: int, e: int) -> PointSet:
    """The four corners (+-4, +-4), the origin, and the points one 2^-e step
    inside each corner."""
    inner = (4 << e) - 1
    pts = [DyadicPoint.of(sx * 4, 0, sy * 4, 0) for sx in (-1, 1) for sy in (-1, 1)]
    pts += [DyadicPoint.of(sx * inner, e, sy * inner, e) for sx in (-1, 1) for sy in (-1, 1)]
    pts.append(DyadicPoint.of(0, 0, 0, 0))
    return PointSet(Scale(k), tuple(pts))


_HISTOGRAM_CASES = {
    "negative": lambda: _random_points(80, 6, (6,), seed=1),
    "corners": lambda: _corners(3, 3),
    # the widest sets on each side of int32 difference keys (see
    # test_difference_keys_are_int32_while_they_fit)
    "corners-2^-11": lambda: _corners(10, 11),
    "corners-2^-12": lambda: _corners(10, 12),
    "mixed-exponents": lambda: _random_points(120, 4, (0, 1, 3, 7, 12), seed=2),
    # keys of this set reach about 2^62: the corners lie 2^30 steps apart
    "corners-2^-27": lambda: _corners(10, 27),
    "mixed-2^-27": lambda: PointSet(
        Scale(20), _corners(20, 27).points + _random_points(40, 20, (0, 5, 27), seed=3).points
    ),
    "furstenberg": lambda: furstenberg_product(6, 0.5).points,
}


def _assert_matches_oracle(ps: PointSet) -> None:
    rows, counts = _difference_histogram(ps)
    fine, expect = _pair_histogram_oracle(ps)
    scaled = rows * 2.0**fine
    assert np.all(scaled == np.round(scaled))
    got = [tuple(r) for r in scaled.astype(np.int64).tolist()]
    assert got == [d for d, _ in expect]
    assert counts.tolist() == [c for _, c in expect]


@pytest.mark.parametrize("case", sorted(_HISTOGRAM_CASES))
def test_difference_histogram_matches_pair_oracle(case):
    _assert_matches_oracle(_HISTOGRAM_CASES[case]())


@pytest.mark.parametrize("buffer", [1, 7, 64, 1000])
@pytest.mark.parametrize("case", ["negative", "corners-2^-11", "mixed-exponents", "mixed-2^-27"])
def test_difference_histogram_folds_small_buffers(case, buffer, monkeypatch):
    # a buffer shorter than a row still takes whole rows, and every fold
    # after the first merges into the running histogram
    monkeypatch.setattr(tubelab.projections, "_PAIR_BUFFER", buffer)
    _assert_matches_oracle(_HISTOGRAM_CASES[case]())


@pytest.mark.parametrize("e, dtype", [(11, np.int32), (12, np.int64)])
def test_difference_keys_are_int32_while_they_fit(e, dtype, monkeypatch):
    # the corners of [-4, 4]^2 on the grid 2^-e: from 0 their keys
    # X*2^(e+5) + Y span 8*2^e*2^(e+5) + 8*2^e, and decoding adds 2^(e+4)
    top = (1 << (2 * e + 8)) + (1 << (e + 3)) + (1 << (e + 4))
    assert (top < 2**31 - 1) == (dtype is np.int32)
    tops = []
    monkeypatch.setattr(tubelab.projections, "_distance_dtype", lambda t: tops.append(t) or _distance_dtype(t))
    ps = _corners(10, e)
    got = _difference_histogram(ps)
    assert tops == [top] and _distance_dtype(top) is dtype
    # the same rows and counts as from int64 keys
    monkeypatch.setattr(tubelab.projections, "_distance_dtype", lambda t: np.int64)
    for a, b in zip(got, _difference_histogram(ps)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_difference_histogram_folds_full_buffers():
    # a 39 x 39 lattice of step 1/8 around the origin: its 1,521 points are
    # 1,155,960 pairs, so the real buffer folds three times
    side = range(-19, 20)
    ps = PointSet(Scale(3), tuple(DyadicPoint.of(x, 3, y, 3) for x in side for y in side))
    assert len(ps.points) * (len(ps.points) - 1) // 2 > 2 * _PAIR_BUFFER
    _assert_matches_oracle(ps)


def test_difference_histogram_merges_many_folds_as_one(monkeypatch):
    # 2,048 random points: 2,096,128 pairs fill the real buffer at least four
    # times, so folds merge into folds that have merged before; a buffer
    # that holds every pair folds once and merges nothing
    ps = _random_points(2048, 10, (10,), seed=4)
    n = len(ps.points)
    assert n * (n - 1) // 2 > 3 * _PAIR_BUFFER
    folded = _difference_histogram(ps)
    monkeypatch.setattr(tubelab.projections, "_PAIR_BUFFER", n * n)
    once = _difference_histogram(ps)
    for got, expect in zip(folded, once):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


def test_energy_refuses_coordinates_finer_than_2_27():
    ok = _corners(10, 27)
    # 1 + 2^-28 lies on the 2^-28 grid
    fine = PointSet(ok.scale, ok.points + (DyadicPoint.of((1 << 28) + 1, 28, 0, 0),))
    net = DirectionNet.uniform(Scale(3))
    message = r"projection energy needs coordinates on the 2\^-27 grid or coarser, got 2\^-28"
    with pytest.raises(DyadicOverflowError, match=message):
        _difference_histogram(fine)
    with pytest.raises(DyadicOverflowError, match=message):
        projection_energy(fine, net, 1.0)
    # the 2^-27 grid itself is still counted, though the packed key of its
    # widest difference, dX * 2^(m+5) + dY, reaches 2^62; and a 2^-28 set
    # is still swept
    fine_exp, expect = _pair_histogram_oracle(ok)
    assert fine_exp == 27
    assert max((dx << 32) + dy for (dx, dy), _ in expect) >= 1 << 62
    assert len(projection_energy(ok, net, 1.0).energies) == len(net)
    assert len(sweep(fine, net, Scale(3)).counts) == len(net)


def test_energy_rejects_degenerate_inputs():
    net = DirectionNet.uniform(Scale(3))
    one = PointSet(Scale(3), (DyadicPoint.of(0, 0, 0, 0),))
    with pytest.raises(DomainError):
        projection_energy(one, net, 0.5)
    for s in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            projection_energy(grid(3), net, s)
    # delta^-s = 2^(3 * 400) is past the largest float
    with pytest.raises(DomainError):
        projection_energy(grid(3), net, 400.0)


def test_energy_anticorrelated_with_counts():
    # directions that compress the set have large truncated energy
    ps = cantor_grid(8, 0.5)
    net = DirectionNet.uniform(Scale(4))
    sw = sweep(ps, net, Scale(8))
    rep = projection_energy(ps, net, 0.5)
    counts = np.array(sw.counts, dtype=float)
    energies = np.array(rep.energies)
    ranks_c = np.argsort(np.argsort(counts))
    ranks_e = np.argsort(np.argsort(energies))
    rho = np.corrcoef(ranks_c, ranks_e)[0, 1]
    assert rho < -0.5


# --- DirectionNet ---


def test_uniform_net_shape():
    net = DirectionNet.uniform(Scale(4))
    assert len(net) == int(math.pi * 16) + 1
    assert net.angles[0] == 0.0
    assert all(0.0 <= a < math.pi for a in net.angles)
    assert np.diff(net.angles) == pytest.approx(2.0**-4)


def test_net_validation_errors():
    with pytest.raises(ValidationError):
        DirectionNet.from_angles(Scale(3), [0.0, 0.0])
    with pytest.raises(ValidationError):
        DirectionNet.from_angles(Scale(3), [-0.1])
    with pytest.raises(ValidationError):
        DirectionNet.from_angles(Scale(3), [math.pi])


# --- CSV ---


def test_sweep_to_csv_format():
    ps = cantor_grid(4, 0.5)
    net = DirectionNet.from_angles(Scale(4), [0.0, 1.0])
    sw = sweep(ps, net, Scale(4))
    text = sweep_to_csv(sw)
    lines = text.strip().split("\n")
    assert lines[0] == "angle,count,energy"
    assert len(lines) == 3
    assert lines[1].endswith(",")  # empty energy column
    rep = projection_energy(ps, net, 0.5)
    text2 = sweep_to_csv(sw, rep)
    row = text2.strip().split("\n")[1].split(",")
    assert float(row[0]) == 0.0
    assert int(row[1]) == sw.counts[0]
    assert float(row[2]) == rep.energies[0]


def test_sweep_to_csv_rejects_mismatched_energy():
    ps = cantor_grid(4, 0.5)
    net = DirectionNet.from_angles(Scale(4), [0.0, 1.0])
    other = DirectionNet.from_angles(Scale(4), [0.5])
    sw = sweep(ps, net, Scale(4))
    rep = projection_energy(ps, other, 0.5)
    with pytest.raises(ValidationError):
        sweep_to_csv(sw, rep)
