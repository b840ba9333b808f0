"""The benchmark's workloads: the call each makes, its inputs, the sizes
computed from those inputs, and the check of its outputs.

Each workload is one call of a public entry point, ``tubelab.manifest.run`` or
``tubelab.cli.main``, made in a fresh process by ``worker.py``. See README.md
for why each workload exists and which layer it is meant to judge.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# every file the benchmark writes lives here (ignored by git)
WORK = ROOT / ".perfbench_out"
# the program writes its artifacts here; the path is relative to the checkout
# because the manifest echoes it into manifest.json, whose bytes are checked
ARTIFACTS = ".perfbench_out/artifacts"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Seeded workloads map the benchmark seed onto this many inputs, each with an
# output reference recorded by record.py.
INPUT_POOL = 8

ENERGY_RTOL = 1e-12
# an audited sweep counts each direction once plus once per jittered offset
AUDIT_PASSES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "manifest" or "cli"
    threads: int
    seeded: bool  # whether the inputs depend on the benchmark seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("incidence-run", "manifest", 2, False),
        Workload("energy-structured", "cli", 2, False),
        Workload("energy-random", "cli", 2, True),
        Workload("additive-run", "manifest", 1, True),
    )
}

INCIDENCE_KS = (8, 10, 12)
ADDITIVE_KS = (8, 10)
ENERGY_K = 10
ENERGY_TARGET_K = 8
ENERGY_POINTS = 1024


def input_seed(w: Workload, seed: int) -> int:
    return seed % INPUT_POOL if w.seeded else 0


def _random_points(seed: int) -> list[tuple[int, int]]:
    """ENERGY_POINTS distinct cells of the 2^-k grid in [0, 1)^2."""
    rng = np.random.default_rng(seed)
    n = 1 << ENERGY_K
    cells = rng.choice(n * n, size=ENERGY_POINTS, replace=False)
    return sorted((int(c) // n, int(c) % n) for c in cells)


def prepare(w: Workload, seed: int) -> dict:
    """Write the workload's input files and return the job a worker runs."""
    s = input_seed(w, seed)
    job: dict = {"workload": w.name, "entry": w.entry, "threads": w.threads, "root": str(ROOT)}
    if w.name == "incidence-run":
        job["manifest"] = {
            "generator": {"kind": "furstenberg_product", "params": {"s": 0.5}},
            "k_range": list(INCIDENCE_KS),
            "analyses": ["validate", "incidence", "dichotomy"],
            "seed": s,
            "out": ARTIFACTS,
        }
    elif w.name == "additive-run":
        job["manifest"] = {
            "generator": {"kind": "quasi_product", "params": {"s": 0.5, "tau": 0.4}},
            "k_range": list(ADDITIVE_KS),
            "analyses": ["validate", "additive", "sweep"],
            "seed": s,
            "out": ARTIFACTS,
        }
    else:
        argv = ["project"]
        if w.name == "energy-random":
            path = WORK / "inputs" / f"random_points_{s}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            rows = [[x, ENERGY_K, y, ENERGY_K] for x, y in _random_points(s)]
            path.write_text(json.dumps({"k": ENERGY_K, "points": rows}))
            argv += ["--input", str(path.relative_to(ROOT))]
        else:
            argv += ["--kind", "furstenberg_product", "--k", str(ENERGY_K), "--s", "0.5"]
        argv += [
            "--target-k", str(ENERGY_TARGET_K), "--energy-s", "1.0", "--audit",
            "--threads", str(w.threads), "--out", f"{ARTIFACTS}/sweep.csv",
        ]
        job["argv"] = argv
        job["stdout"] = f"{ARTIFACTS}/stdout.json"
    return job


def grid_ints(points, k: int) -> np.ndarray:
    """(n, 2) int64 array of the points' coordinates in units of 2^-k."""
    return np.array([(p.x.floor_to_int(k), p.y.floor_to_int(k)) for p in points], dtype=np.int64)


def distinct_differences(xy: np.ndarray) -> int:
    """Number of distinct vectors p - q over all ordered pairs, p = q included."""
    lo = int(xy.min())
    span = int(xy.max()) - lo + 1
    packed = (xy[:, 0] - lo) * (2 * span) + (xy[:, 1] - lo)
    diffs = packed[:, None] - packed[None, :]
    return int(np.unique(diffs).size)


def _incidences(tube_keys, points, k: int) -> int:
    """Exact (tube, point) incidences with the integer membership rule that
    the tubes module documents, evaluated with numpy."""
    off = 1 << (k + 3)
    shift = k + 4
    keys = np.array(tube_keys, dtype=np.int64)
    a = ((keys >> shift) - off)[:, None]
    b = ((keys & ((1 << shift) - 1)) - off)[:, None]
    m = max(k, max(max(p.x.exp, p.y.exp) for p in points))
    x = np.array([p.x.num << (m - p.x.exp) for p in points], dtype=np.int64)[None, :]
    y = np.array([p.y.num << (m - p.y.exp) for p in points], dtype=np.int64)[None, :]
    w = (y << k) - a * x - (b << m)
    inside = np.where(x >= 0, (w >= 0) & (w < x + (1 << m)), (x < w) & (w < (1 << m)))
    return int(np.count_nonzero(inside))


def computed_sizes(w: Workload, seed: int) -> dict[str, int]:
    """Input properties, counted by the benchmark from the generated inputs.

    They fix how much work a run is asked to do; they repeat exactly for a
    given seed and do not depend on the program's own counters.
    """
    from tubelab.core_grid import Scale
    from tubelab.generators import furstenberg_product, quasi_product, quasi_product_tubes
    from tubelab.projections import DirectionNet

    out = dict.fromkeys(
        ("points", "tubes", "incidences", "directions", "pair_terms", "distinct_diffs", "ball_queries"), 0
    )
    s = input_seed(w, seed)
    if w.name == "incidence-run":
        for k in INCIDENCE_KS:
            cfg = furstenberg_product(k, 0.5)
            n = len(cfg.points.points)
            out["points"] += n
            out["tubes"] += len({key for fam in cfg.families for key in fam.keys})
            out["incidences"] += sum(len(fam.keys) for fam in cfg.families)
            # one validate pass: a ball count at each radius 2^-j, j = k..0, per point
            out["ball_queries"] += (k + 1) * n
    elif w.name == "additive-run":
        for k in ADDITIVE_KS:
            qp = quasi_product(k, 0.5, 0.4, s)
            tubes = quasi_product_tubes(qp)
            points = qp.points()
            out["points"] += len(points)
            out["tubes"] += len(tubes.keys)
            out["incidences"] += _incidences(tubes.keys, points, k)
            out["directions"] += len(DirectionNet.uniform(Scale(k)))
    else:
        if w.name == "energy-random":
            xy = np.array(_random_points(s), dtype=np.int64)
        else:
            xy = grid_ints(furstenberg_product(ENERGY_K, 0.5).points.points, ENERGY_K)
        directions = len(DirectionNet.uniform(Scale(ENERGY_TARGET_K)))
        out["points"] = len(xy)
        out["directions"] = directions
        out["pair_terms"] = len(xy) ** 2 * directions
        out["distinct_diffs"] = distinct_differences(xy)
    return out


# functions whose traced calls are sized from their arguments (see call_sizes)
SIZED = frozenset(
    {"delta_sets.validate", "incidence.incidence_report", "projections.projection_energy", "projections.sweep"}
)


def call_sizes(sized_calls) -> dict[str, int]:
    """Work sizes of the traced calls, computed from their arguments."""
    out = dict.fromkeys(
        (
            "delta_sets.ball_queries",
            "incidence.incidences",
            "projections.energy_pair_terms",
            "projections.distinct_diffs",
            "projections.sweep_cell_counts",
        ),
        0,
    )
    for name, bound in sized_calls:
        args = bound.arguments
        if name == "delta_sets.validate":
            out["delta_sets.ball_queries"] += (args["params"].scale.k + 1) * len(args["ps"].points)
        elif name == "incidence.incidence_report":
            out["incidence.incidences"] += sum(len(fam.keys) for fam in args["cfg"].families)
        elif name == "projections.projection_energy":
            points = args["points"]
            out["projections.energy_pair_terms"] += len(points.points) ** 2 * len(args["net"])
            out["projections.distinct_diffs"] += distinct_differences(
                grid_ints(points.points, points.scale.k)
            )
        elif name == "projections.sweep":
            passes = 1 + (AUDIT_PASSES if args.get("audit", False) else 0)
            out["projections.sweep_cell_counts"] += len(args["net"]) * passes
    return out


# ---------------------------------------------------------------- outputs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def collect_outputs(w: Workload, exit_code: int) -> dict:
    """What a call left behind: the SHA-256 of every data artifact (meta.json
    holds the wall clock and is left out) and, for sweeps, the parsed values
    that the check compares."""
    art = ROOT / ARTIFACTS
    files = {
        p.relative_to(art).as_posix(): _sha256(p)
        for p in sorted(art.rglob("*"))
        if p.is_file() and p.name != "meta.json"
    }
    out: dict = {"exit_code": exit_code, "files": files}
    if w.entry == "cli" and (art / "sweep.csv").is_file():
        rows = (art / "sweep.csv").read_text().splitlines()
        exact = "\n".join(r.rsplit(",", 1)[0] for r in rows)
        out["angle_count_sha256"] = hashlib.sha256(exact.encode()).hexdigest()
        out["energies"] = [float(r.rsplit(",", 1)[1]) for r in rows[1:]]
        out["summary"] = json.loads((art / "stdout.json").read_text())
    return out


def expected_from(outputs: dict) -> dict:
    """The reference entry record.py stores for one call's outputs."""
    if "energies" in outputs:
        return {k: outputs[k] for k in ("exit_code", "angle_count_sha256", "energies", "summary")}
    return {"exit_code": outputs["exit_code"], "files": outputs["files"]}


def _close(a, b) -> bool:
    """Equal, except that floats may differ by ENERGY_RTOL relative."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(
            a, b, rel_tol=ENERGY_RTOL, abs_tol=0.0
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def check(outputs: dict, expected: dict) -> str | None:
    """None when the outputs match the reference, else what differs.

    Manifest runs must reproduce every data artifact byte for byte. Sweeps
    must reproduce angles and counts exactly; energies (and the summary's
    energy average) may move in the last bits, within ENERGY_RTOL.
    """
    if outputs["exit_code"] != expected["exit_code"]:
        return f"exit code {outputs['exit_code']}, expected {expected['exit_code']}"
    if "energies" not in expected:
        if outputs["files"] != expected["files"]:
            diff = sorted(
                name
                for name in outputs["files"].keys() | expected["files"].keys()
                if outputs["files"].get(name) != expected["files"].get(name)
            )
            return f"artifacts differ from the reference: {diff}"
        return None
    if outputs.get("angle_count_sha256") != expected["angle_count_sha256"]:
        return "sweep angles or counts differ from the reference"
    if not _close(outputs["energies"], expected["energies"]):
        return f"energies differ from the reference by more than {ENERGY_RTOL} relative"
    if not _close(outputs["summary"], expected["summary"]):
        return "sweep summary differs from the reference"
    return None
