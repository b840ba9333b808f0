"""Acceptance gate: twelve checks, each with a stated tolerance and budget.

Every test prints one verdict line of the form

    criterion NN <name>: PASS|FAIL (<measured numbers>, <elapsed>)

directly to the terminal, so a verbose run shows the full scorecard. A
criterion fails if its numeric bound is missed or its time budget is blown.
"""
from __future__ import annotations

import functools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from tubelab.additive import (
    PairGraph,
    bsg_refine,
    exact_sumset_size,
    measured_bsg_parameter,
    restricted_sumset,
    sumset_cover,
    tripod_image_cover,
    tripod_residual,
)
from tubelab.core_grid import DyadicPoint, DyadicRational, PointSet, Scale
from tubelab.delta_sets import extract, validate
from tubelab.generators import cantor_grid, collinear_tripod, furstenberg_product, grid, quasi_product
from tubelab.incidence import cauchy_schwarz_bound, dichotomy_check, incidence_report, validate_configuration
from tubelab.manifest import EXIT_PASS, ExperimentManifest, run
from tubelab.projections import DirectionNet, exceptional_ratio, projection_energy, sweep
from tubelab.tubes import (
    DyadicTube,
    TubeFamily,
    Window,
    canonical_tube_through,
    cover_by_coarse_tubes,
    parent,
    separating_point,
    slice_interval,
    tube_contains,
    tubes_through,
)


@pytest.fixture
def verdict(capfd):
    """One scorecard line per criterion, written through the capture."""

    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_criterion_01_duality_involution(verdict):
    rng = random.Random(20260823)
    scale = Scale(8)
    triples = [
        (
            DyadicRational(rng.randrange(-256, 256), 8),
            DyadicRational(rng.randrange(-256, 256), 8),
            DyadicRational(rng.randrange(-256, 256), 8),
        )
        for _ in range(100_000)
    ]
    contains, cell_of, point = tube_contains, DyadicTube.from_indices, DyadicPoint
    t0 = time.perf_counter()
    ok = all(
        contains(cell_of(scale, (-c).floor_to_int(8), (a * c + b).floor_to_int(8)), point(a, b))
        for a, b, c in triples
    )
    elapsed = time.perf_counter() - t0
    verdict(1, "duality involution", ok and elapsed < 1.0,
             f"100000 random triples, 0 failures, {elapsed:.3f}s < 1s")


def test_criterion_02_slope_multiplicity(verdict):
    rng = random.Random(7)
    scale = Scale(6)
    window = Window.of_ints(0, 1, -2, 2)
    pts = []
    while len(pts) < 1000:
        nx, ny = rng.randrange(-255, 256), rng.randrange(-255, 256)
        if nx * nx + ny * ny < 256 * 256:
            pts.append(DyadicPoint(DyadicRational(nx, 8), DyadicRational(ny, 8)))
    t0 = time.perf_counter()
    worst = 0
    for p in pts:
        per_slope = Counter(a for a, _ in tubes_through(p, scale, window).index_pairs())
        assert len(per_slope) == 64  # the window's intercepts capture every slope
        worst = max(worst, max(per_slope.values()))
    elapsed = time.perf_counter() - t0
    verdict(2, "slope multiplicity", worst <= 4 and elapsed < 10.0,
             f"max {worst} <= 4 tubes per slope over 1000 points in B(0,1), {elapsed:.2f}s < 10s")


def _sampled_tube_points(t: DyadicTube, rng: random.Random, n: int):
    """n points of t on random vertical slices, each re-verified exactly."""
    k = t.scale.k
    got = 0
    while got < n:
        x0 = DyadicRational(rng.randrange(-(1 << 7), (1 << 7) + 1), 7)
        lo, hi, closed = slice_interval(t, x0)
        steps = (hi - lo).floor_to_int(k + 1)
        j = rng.randrange(steps) if closed else rng.randrange(1, steps + 1)
        p = DyadicPoint(x0, lo + DyadicRational(j, k + 1))
        if tube_contains(t, p):
            got += 1
            yield p


def test_criterion_03_child_subset_biconditional(verdict):
    rng = random.Random(11)
    fine, coarse = Scale(6), Scale(3)
    pairs = []
    for _ in range(500):  # nested in parameters by construction
        a2, b2 = rng.randrange(-8, 8), rng.randrange(-8, 8)
        t2 = DyadicTube.from_indices(coarse, a2, b2)
        t1 = DyadicTube.from_indices(fine, a2 * 8 + rng.randrange(8), b2 * 8 + rng.randrange(8))
        pairs.append((t1, t2))
    for _ in range(500):  # independent draws, almost never nested
        t1 = DyadicTube.from_indices(fine, rng.randrange(-64, 64), rng.randrange(-64, 64))
        t2 = DyadicTube.from_indices(coarse, rng.randrange(-8, 8), rng.randrange(-8, 8))
        pairs.append((t1, t2))
    t0 = time.perf_counter()
    n_subset = 0
    for t1, t2 in pairs:
        param_subset = parent(t1, coarse) == t2
        witness = separating_point(t1, t2)
        if param_subset:
            n_subset += 1
            assert witness is None
            for p in _sampled_tube_points(t1, rng, 1000):
                assert tube_contains(t2, p)
        else:
            assert witness is not None
            assert tube_contains(t1, witness) and not tube_contains(t2, witness)
    elapsed = time.perf_counter() - t0
    verdict(3, "child-subset biconditional",
             0 < n_subset < 1000 and elapsed < 30.0,
             f"1000 pairs ({n_subset} nested), sampling + exact witnesses, {elapsed:.2f}s < 30s")


def test_criterion_04_coarse_tube_cover(verdict):
    rng = random.Random(5)
    fine, coarse = Scale(6), Scale(3)
    delta2 = DyadicRational(1, 3)
    one = DyadicRational(1, 0)
    t0 = time.perf_counter()
    biggest = 0
    for trial in range(100):
        cells = set()
        while len(cells) < 1 + trial % 4:
            cells.add((rng.randrange(17), rng.randrange(17)))
        pts = tuple(DyadicPoint(DyadicRational(i, 6), DyadicRational(j, 6)) for i, j in sorted(cells))
        ps = PointSet(fine, pts)
        a2 = DyadicRational(rng.randrange(8), 3)
        window = Window(a2, a2 + delta2, -one, one)
        fam = TubeFamily.from_index_pairs(fine, [])
        for p in pts:
            fam = fam.union(tubes_through(p, fine, window))
        point_cover = TubeFamily.from_tubes(
            coarse, (canonical_tube_through(p, a2, coarse) for p in pts)
        )
        cover = cover_by_coarse_tubes(fam, ps, a2, coarse, point_cover)
        assert len(cover) <= 11 * len(point_cover)
        cover_keys = set(cover.keys)
        for t in fam:
            assert parent(t, coarse).key() in cover_keys
        biggest = max(biggest, len(cover))
    elapsed = time.perf_counter() - t0
    verdict(4, "coarse tube cover", elapsed < 30.0,
             f"100 instances covered, size <= 11M (largest {biggest}), {elapsed:.2f}s < 30s")


def _extraction_corpus():
    rng = random.Random(99)
    corpus: list[tuple[str, PointSet, float]] = []
    for k in (4, 5, 6):
        g = grid(k)
        for s in (0.5, 1.0, 1.5, 2.0):
            corpus.append((f"grid{k}/s{s}", g, s))
    for k in (4, 6, 8):
        for s_line in (0.4, 0.5, 0.6):
            corpus.append((f"cantor{k}/{s_line}", cantor_grid(k, s_line), 2 * s_line))
    for k in (4, 5, 6):
        g = grid(k)
        for keep in (0.2, 0.5, 0.8):
            sub = tuple(p for p in g.points if rng.random() < keep) or g.points[:1]
            corpus.append((f"sub{k}/{keep}", PointSet(Scale(k), sub), 1.0))
    for s in (0.3, 0.7, 1.2):
        sub = tuple(p for p in grid(5).points if rng.random() < 0.4)
        corpus.append((f"sub5/s{s}", PointSet(Scale(5), sub), s))
    for s in (0.3, 0.5, 0.7):
        for tau in (0.5, 1.0):
            qp = quasi_product(8, s, tau, seed=1)
            corpus.append((f"qp/{s}/{tau}", PointSet(qp.scale, tuple(qp.points())), s + tau))
    for s in (0.5, 1.5):
        corpus.append((f"cantor6-off/s{s}", cantor_grid(6, 0.5), s))
    for s in (0.5, 1.0, 2.0):
        corpus.append((f"grid3/s{s}", grid(3), s))
    corpus.append(("single", PointSet(Scale(6), (DyadicPoint(DyadicRational(1, 6), DyadicRational(3, 6)),)), 1.0))
    for seed in range(5):
        sub_rng = random.Random(seed)
        sub = tuple(p for p in grid(6).points if sub_rng.random() < 0.1 * (seed + 1))
        corpus.append((f"sub6/seed{seed}", PointSet(Scale(6), sub), 1.0))
    return corpus


def test_criterion_05_extractor_soundness(verdict):
    corpus = _extraction_corpus()
    assert len(corpus) == 50
    t0 = time.perf_counter()
    worst_margin = math.inf
    for name, ps, s in corpus:
        rep = extract(ps, s)
        check = validate(rep.points, rep.params)
        assert check.valid, f"{name}: extracted set fails validation"
        floor = 0.1 * rep.kappa * 2.0 ** (ps.scale.k * s)
        assert len(rep.points) >= floor, f"{name}: {len(rep.points)} < {floor}"
        if floor > 0:
            worst_margin = min(worst_margin, len(rep.points) / floor)
    elapsed = time.perf_counter() - t0
    verdict(5, "extractor soundness", elapsed < 60.0,
             f"50 instances valid, |P| >= 0.1*kappa*delta^-s (tightest x{worst_margin:.2f}), "
             f"{elapsed:.2f}s < 60s")


@functools.lru_cache(maxsize=None)
def _configuration_corpus():
    return tuple((k, s, furstenberg_product(k, s)) for k in (8, 10, 12) for s in (0.3, 0.5, 0.7))


@functools.lru_cache(maxsize=None)
def _corpus_incidence():
    return tuple((k, s, cfg, incidence_report(cfg)) for k, s, cfg in _configuration_corpus())


def test_criterion_06_incidence_identities(verdict):
    t0 = time.perf_counter()
    for k, s, cfg, rep in _corpus_incidence():
        counts: Counter = Counter()
        for fam in cfg.families:
            counts.update(fam.keys)
        s1 = sum(len(f) for f in cfg.families)
        s2 = sum(v * v for v in counts.values())
        hist = tuple(sorted(Counter(counts.values()).items()))
        assert rep.identity_ok and rep.incidence_count == s1
        assert rep.nt_histogram == hist
        cs = cauchy_schwarz_bound(cfg)
        assert cs.incidence_count == s1 and cs.square_sum == s2 and cs.pair_sum == s2 - s1
        assert cs.inequality_ok and s1 * s1 <= cs.tube_count * s2
        if k == 8:
            fams = cfg.families
            brute = sum(
                fams[i].intersection_size(fams[j])
                for i in range(len(fams))
                for j in range(i + 1, len(fams))
            )
            assert 2 * brute == cs.pair_sum
    elapsed = time.perf_counter() - t0
    verdict(6, "incidence identities", elapsed < 60.0,
             f"9 configurations: recounts, CS inequality, k=8 pair oracle, {elapsed:.2f}s < 60s")


def test_criterion_07_tube_count_exponent(verdict):
    t0 = time.perf_counter()
    worst = math.inf
    for k, s, cfg, rep in _corpus_incidence():
        margin = rep.e_tubes - (2.0 * s - 0.25)
        worst = min(worst, margin)
        assert margin >= 0.0, f"k={k} s={s}: e_tubes {rep.e_tubes} < {2 * s - 0.25}"
    elapsed = time.perf_counter() - t0
    verdict(7, "tube count exponent", elapsed < 300.0,
             f"e_tubes >= 2s - 0.25 on all 9 configurations (min margin {worst:.3f}), "
             f"{elapsed:.2f}s < 5min")


def test_criterion_08_dichotomy(verdict):
    t0 = time.perf_counter()
    for k, s, cfg in _configuration_corpus():
        assert validate_configuration(cfg) == []
        rep = dichotomy_check(cfg, 0.25)
        assert rep.passed, f"k={k} s={s}: dichotomy fails ({rep.margins})"
    elapsed = time.perf_counter() - t0
    verdict(8, "incidence dichotomy", elapsed < 300.0,
             f"slack 0.25 holds on all 9 configurations, hypotheses green, {elapsed:.2f}s < 5min")


def test_criterion_09_kaufman_sweep(verdict):
    t0 = time.perf_counter()
    pts = cantor_grid(10, 0.5)
    target = Scale(10)
    sw = sweep(pts, DirectionNet.uniform(target), target)
    worst = max(exceptional_ratio(sw, t) for t in (0.5, 0.6, 0.7))
    elapsed = time.perf_counter() - t0
    verdict(9, "kaufman exceptional sweep", worst <= 64.0 and elapsed < 300.0,
             f"A = {worst:.4f} <= 64 at t in (0.5, 0.6, 0.7), k=10, {elapsed:.2f}s < 5min")


def test_criterion_10_projection_energy(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    for k, s, cfg, _ in _corpus_incidence():
        if s != 0.5 or k == 12:
            continue
        en = projection_energy(cfg.points, DirectionNet.uniform(Scale(k)), 1.0, threads=4)
        worst = max(worst, en.average / k)
    elapsed = time.perf_counter() - t0
    verdict(10, "projection energy", 0.0 < worst <= 8.0 and elapsed < 120.0,
             f"net-averaged I_1 <= A*log(1/delta) with A = {worst:.2f} <= 8 at k in (8, 10), "
             f"{elapsed:.2f}s < 2min")


def _bsg_self_consistent(g: PairGraph, rep) -> bool:
    a2 = [g.a_values[i] for i in rep.a_kept]
    b2 = [g.b_values[j] for j in rep.b_kept]
    kc = g.K ** rep.c_exponent + 1e-9
    na, nb = len(g.a_values), len(g.b_values)
    if len(a2) * kc < na or len(b2) * kc < nb:
        return False
    if exact_sumset_size(a2, b2) > kc * math.sqrt(na * nb):
        return False
    kept = {(i, j) for i in rep.a_kept for j in rep.b_kept}
    inside = sum(1 for e in g.edges if e in kept)
    return inside * kc >= na * nb


def test_criterion_11_additive_oracles(verdict):
    rng = random.Random(13)
    target = Scale(10)
    t0 = time.perf_counter()
    sizes = [(1, 1), (1, 64), (64, 1), (2, 3), (5, 8), (13, 21), (34, 55), (64, 64)]
    sizes += [(rng.randrange(1, 65), rng.randrange(1, 65)) for _ in range(12)]
    for na, nb in sizes:
        a_vals = tuple(DyadicRational(n, 10) for n in rng.sample(range(1024), na))
        b_vals = tuple(DyadicRational(n, 10) for n in rng.sample(range(1024), nb))
        assert sumset_cover(a_vals, b_vals, target) == len(
            {(x + y).floor_to_int(10) for x in a_vals for y in b_vals}
        )
        assert exact_sumset_size(a_vals, b_vals) == len({x + y for x in a_vals for y in b_vals})
        edges = tuple(
            (i, j) for i in range(na) for j in range(nb) if rng.random() < 0.5
        ) or ((0, 0),)
        g = PairGraph(a_vals, b_vals, edges, measured_bsg_parameter(a_vals, b_vals, edges))
        assert restricted_sumset(g, target) == len(
            {(a_vals[i] + b_vals[j]).floor_to_int(10) for i, j in edges}
        )
        rep = bsg_refine(g)
        if not rep.flags["k_too_large"]:
            assert _bsg_self_consistent(g, rep)
    b1, b2, b3 = DyadicRational(0, 0), DyadicRational(1, 2), DyadicRational(3, 2)
    frac = lambda v: Fraction(v.num, 1 << v.exp)
    q = (frac(b2) - frac(b1)) / (frac(b3) - frac(b2))
    for na, nb in ((8, 8), (64, 64), (20, 3)):
        left = [DyadicRational(n, 10) for n in rng.sample(range(1024), na)]
        right = [DyadicRational(n, 10) for n in rng.sample(range(1024), nb)]
        pairs = [(x, y) for x in left for y in right]
        oracle = set()
        for x, y in pairs:
            v = (Fraction(x.num, 1 << x.exp) + q * Fraction(y.num, 1 << y.exp)) * 1024
            oracle.add(v.numerator // v.denominator)
        assert tripod_image_cover(pairs, b1, b2, b3, target) == len(oracle)
    worst = 0.0
    for k in (6, 8, 10):
        for seed in range(10):
            inst = collinear_tripod(k, seed)
            y1, y2, y3 = (p.y for p in inst.points)
            worst = max(worst, tripod_residual(inst.points, y1, y2, y3) * (1 << k))
    elapsed = time.perf_counter() - t0
    verdict(11, "additive oracles", worst <= 16.0 and elapsed < 120.0,
             f"covers exact on |A|,|B| <= 64, bsg self-consistent, "
             f"tripod residual <= {worst:.2f} delta <= 16 delta, {elapsed:.2f}s < 2min")


def test_criterion_12_determinism(verdict, tmp_path):
    t0 = time.perf_counter()
    manifests = (
        ExperimentManifest(
            generator_kind="grid", generator_params={}, k_range=(4, 6),
            analyses=("validate", "sweep"), out=str(tmp_path / "a"),
        ),
        ExperimentManifest(
            generator_kind="furstenberg_product", generator_params={"s": 0.5},
            k_range=(8,), analyses=("incidence", "dichotomy"), out=str(tmp_path / "b"),
        ),
        ExperimentManifest(
            generator_kind="quasi_product", generator_params={"s": 0.5, "tau": 0.5},
            k_range=(8,), analyses=("validate", "additive", "sweep"),
            out=str(tmp_path / "c"), seed=0,
        ),
    )
    for i, m in enumerate(manifests):
        out = tmp_path / "abc"[i]
        assert run(m, threads=1) == EXIT_PASS
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "meta.json"}
        assert run(m, threads=8) == EXIT_PASS
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "meta.json"}
        assert first == second, f"manifest {i}: outputs differ between 1 and 8 threads"
    elapsed = time.perf_counter() - t0
    verdict(12, "run determinism", elapsed < 600.0,
             f"3 manifests x (1 thread vs 8 threads) byte-identical, {elapsed:.2f}s < 10min")
