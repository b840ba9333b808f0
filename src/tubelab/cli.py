"""Command-line harness.

Subcommands build or load an object (point set, tube configuration,
quasi-product, tripod, slope values), run one analysis, and emit JSON or CSV.
The `run` subcommand executes a full experiment manifest.

Exit codes:
  0  requested checks passed
  1  checks ran but a verdict failed
  2  arguments, files, or manifest failed to parse or validate as input
  3  a structural hypothesis failed; a machine-readable witness is printed
  4  internal error

TUBELAB_LOG in {error, warn, info, debug} routes diagnostics to stderr.

Unless OPENBLAS_NUM_THREADS is set already, importing this module sets it
to 1 before numpy loads. The OpenBLAS bundled with numpy otherwise starts a
thread pool at import whose idle threads spin for tens of milliseconds,
and no analysis gains from it: the energy's matrix products run on one
BLAS thread anyway at their size (see projections._ENERGY_BLOCK). The
setting is made at import, not in main(), so it holds for any process that
imports tubelab.cli and for the child processes that process starts; a
numpy loaded before the import keeps its thread pool. `import tubelab` and
the other submodules leave the variable alone.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The package (and with it numpy) is imported before the standard-library
# modules below, which then fill memory numpy's import freed: in the other
# order `import tubelab.cli` held about 0.4-0.9 MB more resident memory.

from .core_grid import Scale, fit_exponent, values_to_json
from .errors import ParseError
from .generators import _KIND_SHAPE, _KINDS, GeneratorSpec
from .manifest import (
    EXIT_FAIL,
    EXIT_HYPOTHESIS,
    EXIT_PARSE,
    EXIT_PASS,
    ExperimentManifest,
    _check_applies,
    _exit_of,
    _kinds_for,
    _load_input,
    _point_count,
    _point_set_of,
    _run,
    _shape_of,
    _stage,
    _Subject,
    _write_text,
    canonical_json,
)
from .projections import DirectionNet, projection_energy, sweep, sweep_to_csv

import argparse
import json
import logging
import sys
import traceback
from typing import Any, Sequence

log = logging.getLogger("tubelab")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    name = os.environ.get("TUBELAB_LOG", "warn").lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def _emit(obj: Any, out: str | None) -> None:
    text = canonical_json(obj)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)
        log.info("wrote %s", out)


def _generator_params(args: argparse.Namespace, kind: str) -> dict:
    # flags like --s double as analysis knobs; forward only what the kind takes
    _, required, optional = _KINDS[kind]
    allowed = (required | optional) - {"k"}
    params: dict = {"k": getattr(args, "k", None)}
    for name in ("s", "tau", "seed", "epsilon"):
        value = getattr(args, name, None)
        if value is not None and name in allowed:
            params[name] = value
    return params


def _build_object(args: argparse.Namespace) -> Any:
    if getattr(args, "input", None):
        with _stage("load"):
            return _load_input(args.input)
    if getattr(args, "kind", None) is None:
        raise ParseError("either --input FILE or --kind KIND is required")
    if args.k is None:
        raise ParseError("--k is required with --kind")
    with _stage("generate"):
        return GeneratorSpec(args.kind, _generator_params(args, args.kind)).build()


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=float, help="dimension parameter for generators that take one")
    p.add_argument("--tau", type=float, help="level-set dimension for quasi_product")
    p.add_argument("--seed", type=int, help="generator seed")
    p.add_argument("--epsilon", type=float, help="epsilon for furstenberg_product")


def _add_source_flags(p: argparse.ArgumentParser, analysis: str) -> None:
    p.add_argument("--input", help="JSON file holding the object to analyze")
    p.add_argument(
        "--kind", choices=_kinds_for(analysis), help="generator to build instead of --input"
    )
    p.add_argument("--k", type=int, help="working scale exponent (delta = 2^-k)")
    _add_generator_flags(p)


def _thread_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _object_json(obj: Any) -> dict:
    if isinstance(obj, (list, tuple)):  # slope_net values
        return values_to_json(obj)
    return obj.to_json()


def _cmd_gen(args: argparse.Namespace) -> int:
    _emit(_object_json(_build_object(args)), args.out)
    return EXIT_PASS


def _cmd_analysis(args: argparse.Namespace) -> int:
    obj = _build_object(args)
    profile = (args.s if args.s is not None else 1.0, getattr(args, "constant", None))
    subject = _Subject(obj, (args.analysis,), args.k, profile, getattr(args, "slack", None))
    [(_, outcome)] = subject.outcomes()
    _emit(outcome.printed, args.out)
    return EXIT_PASS if outcome.ok else EXIT_FAIL


def _cmd_project(args: argparse.Namespace) -> int:
    obj = _build_object(args)
    _check_applies("sweep", _shape_of(obj))
    points = _point_set_of(obj)
    k = args.target_k if args.target_k is not None else points.scale.k
    net = DirectionNet.uniform(Scale(k))
    with _stage("sweep"):
        sw = sweep(points, net, Scale(k), audit=args.audit)
    energy = None
    if args.energy_s is not None:
        with _stage("energy"):
            energy = projection_energy(points, net, args.energy_s, threads=args.threads)
    csv_text = sweep_to_csv(sw, energy)
    summary = sw.summary((0.25, 0.5, 0.75))
    summary.update(k=k, n_points=len(points))
    if energy is not None:
        summary["energy_average"] = energy.average
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        _write_text(args.out, csv_text)
        sys.stdout.write(canonical_json(summary))
    return EXIT_PASS


def _cmd_dim(args: argparse.Namespace) -> int:
    ks = sorted(set(args.k_list))
    if len(ks) < 2:
        raise ParseError("--k must be given at least twice for an exponent fit")
    samples = []
    for k in ks:
        params = _generator_params(args, args.kind)
        params["k"] = k
        with _stage("generate"):
            obj = GeneratorSpec(args.kind, params).build()
        count = _point_count(obj)
        if count is None:
            raise ParseError("collinear_tripod has fixed size; nothing to fit")
        samples.append((k, count))
    fit = fit_exponent(samples)
    _emit(fit.to_json(), args.out)
    return EXIT_PASS


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read manifest {args.manifest!r}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, bad UTF-8, an integer too long to read
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    manifest = ExperimentManifest.from_json(obj)
    if args.out is not None:
        manifest = ExperimentManifest(**{**manifest._asdict(), "out": args.out})
    log.info("running manifest %s", manifest.sha256()[:12])
    return _run(manifest)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubelab",
        description="Incidence geometry of dyadic tubes at finite scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a generator instance and print its JSON")
    p.add_argument("--kind", choices=list(_KIND_SHAPE), required=True)
    p.add_argument("--k", type=int, required=True)
    _add_generator_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check separation and ball-count conditions")
    _add_source_flags(p, "validate")
    p.add_argument("--constant", type=float, default=8.0, help="Frostman constant C")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analysis, analysis="validate")

    p = sub.add_parser("incidence", help="two-scale incidence statistics of a configuration")
    _add_source_flags(p, "incidence")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analysis, analysis="incidence")

    p = sub.add_parser("dichotomy", help="many-tubes-or-spread-tubes check")
    _add_source_flags(p, "dichotomy")
    p.add_argument("--slack", type=float, default=0.25)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analysis, analysis="dichotomy")

    p = sub.add_parser("project", help="directional covering sweep, CSV output")
    _add_source_flags(p, "sweep")
    p.add_argument("--target-k", type=int, help="counting scale (defaults to the set's scale)")
    p.add_argument("--energy-s", type=float, help="also evaluate the truncated s-energy")
    p.add_argument("--audit", action="store_true", help="recount with jittered cell offsets")
    p.add_argument("--threads", type=_thread_count, default=1, help="worker threads for the energy")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("additive", help="restricted sumset growth diagnostics")
    _add_source_flags(p, "additive")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analysis, analysis="additive")

    p = sub.add_parser("dim", help="box-counting exponent fit across scales")
    p.add_argument("--kind", choices=list(_KIND_SHAPE), required=True)
    p.add_argument("--k", dest="k_list", type=int, action="append", required=True,
                   help="repeat for each scale, at least twice")
    _add_generator_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("run", help="execute an experiment manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="override the manifest's output directory")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code, witness = _exit_of(exc)
        if witness is not None:
            sys.stdout.write(canonical_json(witness))
        if code == EXIT_HYPOTHESIS:
            sys.stderr.write(f"hypothesis failed: {exc}\n")
        elif code == EXIT_PARSE:
            sys.stderr.write(f"error: {exc}\n")
        else:  # a bug: the witness above, then the traceback
            traceback.print_exc()
            sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
