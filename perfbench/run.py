"""The tubelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from the root of a checkout that holds ``src/tubelab`` and
``BENCHMARK.json``. Each call of the workload's entry point runs in a fresh
``worker.py`` process; calls repeat until the next one would end after S
seconds. Every call's outputs are checked against ``reference.json``.

With ``--trace 0`` the result's metrics are the end-to-end metrics of
BENCHMARK.json, as medians over the calls. With ``--trace 1`` untraced and
traced calls alternate, and the metrics are the per-layer ones, as medians
over the traced calls, with ``trace.overhead_s`` = traced minus untraced
median wall time. The last line of stdout is the result as JSON; the line
before it holds provenance, the computed input sizes and every call.
``--workload all`` runs each workload in turn and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import (
    ARTIFACTS,
    REFERENCE,
    ROOT,
    WORK,
    WORKLOADS,
    Workload,
    check,
    collect_outputs,
    computed_sizes,
    input_seed,
    prepare,
)

HERE = Path(__file__).resolve().parent
# set-up time is the median of at least this many fresh-process imports
SETUP_SAMPLES = 9
CALL_TIMEOUT_S = 150


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def run_call(job: dict, mode: str, index: int) -> dict:
    """One worker process on a clean artifact directory. The returned dict
    holds the worker's result, ``elapsed`` (the whole process) and ``error``
    (None, or why the call failed)."""
    art = ROOT / ARTIFACTS
    shutil.rmtree(art, ignore_errors=True)
    art.mkdir(parents=True)
    job_path, result_path = WORK / "job.json", WORK / "result.json"
    job_path.write_text(json.dumps(dict(job, mode=mode, spans=str(WORK / f"spans_{index}.jsonl"))))
    result_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "elapsed": time.perf_counter() - t0, "error": "timed out"}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"mode": mode, "elapsed": elapsed, "error": f"worker exit {proc.returncode}: {tail}"}
    result = json.loads(result_path.read_text())
    result.update(mode=mode, elapsed=elapsed, error=None)
    return result


def _import_probe(job: dict) -> float:
    r = run_call(job, "import", 0)
    if r["error"] is not None:
        raise SetupError(f"importing tubelab failed: {r['error']}")
    return r["setup_s"]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tubelab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(w: Workload, seed: int) -> dict:
    import numpy

    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "input_seed": input_seed(w, seed),
        "threads": w.threads,
    }


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced call (see README.md for each one)."""
    fns, self_s, sizes = trace["functions"], trace["layer_self_s"], trace["sizes"]

    def calls(name: str) -> int:
        return fns.get(name, {}).get("calls", 0)

    def inclusive(name: str, key: str = "s") -> float:
        return fns.get(name, {}).get(key, 0.0)

    def layer_calls(layer: str) -> int:
        return sum(v["calls"] for n, v in fns.items() if n.startswith(layer + "."))

    values = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    values.update(sizes)
    values.update({
        "delta_sets.validate.calls": calls("delta_sets.validate"),
        "incidence.validate_configuration.calls": calls("incidence.validate_configuration"),
        "incidence.incidence_report.calls": calls("incidence.incidence_report"),
        "core_grid.calls": layer_calls("core_grid"),
        "generators.calls": layer_calls("generators"),
        "manifest.cpu_s": inclusive("manifest.run", "cpu_s"),
        "projections.energy_s": inclusive("projections.projection_energy"),
        "projections.energy_cpu_s": inclusive("projections.projection_energy", "cpu_s"),
        "projections.sweep_s": inclusive("projections.sweep"),
        "additive.best_slice_pair_s": inclusive("additive.best_slice_pair"),
        "additive.tube_slice_pairs.calls": calls("additive.tube_slice_pairs"),
        "tubes.tube_contains.calls": calls("tubes.tube_contains"),
    })
    return values


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _per_layer(units: dict, untraced: list[dict], traced: list[dict], sizes: dict) -> dict:
    """Per-layer metrics over the traced calls. A traced call fails when its
    artifacts differ from an untraced call's, or when a count differs from
    the first traced call's."""
    for c in traced:
        if c["error"] is None and untraced and c["files"] != untraced[0]["files"]:
            c["error"] = "traced and untraced calls wrote different artifacts"
    per_call = [layer_values(c["trace"]) for c in traced]
    values: dict = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            values[name] = statistics.median(c["wall_s"] for c in traced) - statistics.median(
                c["wall_s"] for c in untraced
            )
        elif name.startswith("computed."):
            values[name] = sizes[name.split(".", 1)[1]]
        elif unit == "count":
            values[name] = per_call[0][name]
            for c, v in zip(traced, per_call):
                if v[name] != values[name]:
                    c["error"] = c["error"] or f"{name} did not repeat across traced calls"
        else:
            values[name] = statistics.median(v[name] for v in per_call)
    return values


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (details, result)."""
    nproc = _nproc()
    if w.threads > nproc:
        raise SetupError(f"{w.name} uses {w.threads} threads but only {nproc} CPUs are available")
    reference = json.loads(REFERENCE.read_text())
    expected = reference[w.name][str(input_seed(w, seed))]
    specs = _metric_specs()
    WORK.mkdir(exist_ok=True)
    job = prepare(w, seed)
    sizes = computed_sizes(w, seed)

    modes = ("call", "trace") if trace else ("call",)
    calls: list[dict] = []
    setup_samples: list[float] = []
    start = time.perf_counter()
    while True:
        if not trace and len(setup_samples) < SETUP_SAMPLES:
            # import-only processes between calls, so that set-up is sampled
            # across the whole run and not in one stretch
            setup_samples.append(_import_probe(job))
        r = run_call(job, modes[len(calls) % len(modes)], len(calls))
        if r["error"] is None:
            outputs = collect_outputs(w, r["exit_code"])
            r["files"] = outputs["files"]
            r["error"] = check(outputs, expected)
            setup_samples.append(r["setup_s"])
        calls.append(r)
        # stop when the next call, taking as long as this one, would overrun
        if len(calls) >= len(modes) and time.perf_counter() - start + r["elapsed"] > seconds:
            break
    while not trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(_import_probe(job))

    timed = [c for c in calls if "wall_s" in c]
    if not timed:
        raise SetupError(f"no call of {w.name} completed: {calls[0]['error']}")
    untraced = [c for c in timed if c["mode"] == "call"]
    traced = [c for c in timed if c["mode"] == "trace"]
    if trace:
        if not traced or not untraced:
            errors = [c["error"] for c in calls if "wall_s" not in c]
            raise SetupError(f"{w.name} needs a traced and an untraced call to complete: {errors}")
        values = _per_layer(specs["per_layer"], untraced, traced, sizes)
    else:
        values = {
            "wall_s": statistics.median(c["wall_s"] for c in timed),
            "cpu_s": statistics.median(c["cpu_s"] for c in timed),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
            "setup_s": statistics.median(setup_samples),
        }
    failed = sum(c["error"] is not None for c in calls)
    values["success_rate"] = (len(calls) - failed) / len(calls)
    units = specs["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": w.name,
        "provenance": provenance(w, seed),
        "computed": sizes,
        "setup_samples": setup_samples,
        "calls": [
            {k: c.get(k) for k in ("mode", "exit_code", "wall_s", "cpu_s", "peak_rss_mb", "setup_s", "error")}
            for c in calls
        ],
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tubelab" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/tubelab to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            details, result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            results[name] = result
            if args.workload == "all":
                for metric, m in result["metrics"].items():
                    print(f"{name:18} {metric:40} {m['value']:>16.6g} {m['unit']}")
            else:
                print(json.dumps(details))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
