"""One workload call in a fresh process.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json is written by run.py (see workloads.prepare) and carries "mode":
"import" only times the import of tubelab; "call" also makes the workload's
entry-point call, and "trace" makes it with the tracer installed. The result
is written as JSON to RESULT.json; the process's stdout stays free for the
program. Run from the root of the checkout, which holds ``src/tubelab``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ru_maxrss is not used: Linux carries it over exec from the forked copy
    of the parent, so it would report the benchmark's own footprint whenever
    that is larger than the call's."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _call(job: dict) -> tuple[int, float, float]:
    import tubelab.cli
    import tubelab.manifest

    if job["entry"] == "manifest":
        manifest = tubelab.manifest.ExperimentManifest.from_json(job["manifest"])
        t0, c0 = time.perf_counter(), _cpu_s()
        code = tubelab.manifest.run(manifest, threads=job["threads"])
        return code, time.perf_counter() - t0, _cpu_s() - c0
    with open(job["stdout"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        t0, c0 = time.perf_counter(), _cpu_s()
        code = tubelab.cli.main(job["argv"])
        return code, time.perf_counter() - t0, _cpu_s() - c0


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import tubelab
    import tubelab.cli  # noqa: F401  (the CLI's import is part of set-up)

    setup_s = time.perf_counter() - t0
    if src.resolve() not in Path(tubelab.__file__).resolve().parents:
        raise SystemExit(f"imported tubelab from {tubelab.__file__}, not from {src}")
    result: dict = {"setup_s": setup_s}

    if job["mode"] != "import":
        tracer = None
        if job["mode"] == "trace":
            from tracer import Tracer
            from workloads import SIZED

            tracer = Tracer()
            tracer.install(SIZED)
        code, wall_s, cpu_s = _call(job)
        result.update(
            exit_code=code,
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=_peak_rss_mb(),
        )
        if tracer is not None:
            from workloads import call_sizes

            tracer.write_spans(job["spans"])
            result["trace"] = tracer.summary()
            result["trace"]["sizes"] = call_sizes(tracer.sized_calls)

    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
