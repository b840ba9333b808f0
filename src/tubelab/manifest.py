"""Reproducible experiment runs: build inputs, analyze per scale, emit artifacts.

A manifest names a generator (or an input file), a list of working scales,
the analyses to run at each scale, and an output directory. Reruns write
byte-identical data files; the wall clock lives alone in meta.json so every
other artifact can be hashed or diffed. The manifest's own canonical JSON
hash is stamped into each report.

Artifacts per run directory:
  manifest.json    canonical echo of the manifest
  report_k{K}.json one report per scale
  aggregate.csv    one row per scale, fixed versioned columns
  fit.json         exponent fit of log2(count) against k (needs >= 2 scales)
  sweep_k{K}.csv   per-direction counts, when the sweep analysis runs
  witness.json     machine-readable witness, when a hypothesis fails or an
                   internal error stops the run
  meta.json        timestamp and exit code (the only non-reproducible file)
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator

from .additive import (
    QuasiProduct,
    _multiplicity_violation,
    _pair_table,
    best_slice_pair,
    bsg_refine,
    plunnecke_corollary_check,
    slice_incidences,
    tripod_residual,
    tube_slice_pairs,
)
from .core_grid import DyadicRational, PointSet, Scale, _int_field, _int_row, fit_exponent, grid_objects
from .core_grid import field, number_field, read_pairs, record
from .delta_sets import DeltaSetParams, validate, validate_1d
from .errors import (
    DomainError,
    DyadicOverflowError,
    HypothesisViolation,
    ParseError,
    ScaleError,
    ValidationError,
)
from .generators import _KIND_SHAPE, _KINDS, GeneratorSpec, TripodInstance, quasi_product_tubes
from .incidence import Configuration, cauchy_schwarz_bound, dichotomy_check
from .projections import DirectionNet, sweep, sweep_to_csv

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4

CSV_SCHEMA = "tubelab-1"
CSV_COLUMNS = (
    "schema_version",
    "k",
    "n_points",
    "n_tubes",
    "coarse_tube_count",
    "incidence_count",
    "e_tubes",
    "e_coarse",
    "verdicts",
)

ANALYSES = ("validate", "incidence", "dichotomy", "sweep", "additive")

# the output shapes (generators._KINDS) each analysis takes, which decide the
# kinds a manifest or a subcommand accepts for it
_ANALYSIS_SHAPES = {
    "validate": {"points", "values", "configuration", "quasi_product", "tripod"},
    "incidence": {"configuration"},
    "dichotomy": {"configuration"},
    "sweep": {"points", "configuration", "quasi_product"},
    "additive": {"quasi_product"},
}

# analyses that inspect the coarse scale delta^(1/2)
_NEEDS_EVEN_K = frozenset({"incidence", "dichotomy"})

# residual allowance for collinear tripods, in units of delta
TRIPOD_RESIDUAL_CAP = 16.0

_VERDICT = {True: "pass", False: "fail"}


def _kinds_for(analysis: str) -> list[str]:
    """Generator kinds whose output the analysis applies to, in table order."""
    return [kind for kind, shape in _KIND_SHAPE.items() if shape in _ANALYSIS_SHAPES[analysis]]


def _check_applies(analysis: str, shape: str) -> None:
    needs = _ANALYSIS_SHAPES[analysis]
    if shape not in needs:
        raise ParseError(f"analysis {analysis!r} needs a {' or '.join(sorted(needs))}, got {shape}")


def _check_slack(slack: float) -> None:
    if not 0.0 < slack <= 1.0:
        raise ParseError(f"slack {slack} must lie in (0, 1]")


def _natural_profile(kind: str | None, params: dict) -> tuple[float, float]:
    """Frostman (s, C) a generator's point or value output is expected to meet.

    Constants carry margin over measured worst cases: the full grid needs
    about pi at exponent 2, cantor products stay under 7 at exponent 2s.
    """
    if kind == "grid":
        return 2.0, 4.0
    if kind == "cantor_grid":
        return 2.0 * float(params["s"]), 8.0
    if kind == "slope_net":
        return float(params["s"]), 4.0
    return 1.0, 8.0


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@record
class ExperimentManifest:
    """Declarative description of one reproducible run.

    Exactly one of generator_kind and input_path is set. Generator params
    omit k: the manifest's k_range supplies it per scale.
    """

    generator_kind: str | None
    generator_params: dict = field(default_factory=dict)
    input_path: str | None = None
    k_range: tuple[int, ...] = ()
    analyses: tuple[str, ...] = ()
    slack: float = 0.25
    seed: int = 0
    out: str = "out"

    def __post_init__(self) -> None:
        if (self.generator_kind is None) == (self.input_path is None):
            raise ParseError("exactly one of 'generator' and 'input' is required")
        if not self.k_range:
            raise ParseError("k_range must be nonempty")
        if list(self.k_range) != sorted(set(self.k_range)):
            raise ParseError("k_range must be strictly increasing")
        for k in self.k_range:
            try:
                Scale(k)
            except ScaleError as exc:
                raise ParseError(str(exc)) from exc
        if self.generator_kind is not None:
            if "k" in self.generator_params:
                raise ParseError("the manifest's k_range supplies k; drop it from params")
            # the spec of the first scale checks the kind and its parameters
            GeneratorSpec(self.generator_kind, {**self.generator_params, "k": self.k_range[0]})
        if not self.analyses:
            raise ParseError("at least one analysis is required")
        for name in self.analyses:
            if name not in ANALYSES:
                raise ParseError(f"unknown analysis {name!r}; known: {list(ANALYSES)}")
        _check_slack(self.slack)
        coarse = sorted(set(self.analyses) & _NEEDS_EVEN_K)
        if coarse and any(k % 2 for k in self.k_range):
            raise ParseError(
                f"analyses {coarse} inspect the coarse scale delta^(1/2) and need even k; "
                f"k_range {list(self.k_range)} contains odd values"
            )
        if self.generator_kind is not None:
            for name in self.analyses:
                _check_applies(name, _KIND_SHAPE[self.generator_kind])

    def to_json(self) -> dict:
        obj: dict = {
            "schema": "tubelab-manifest-1",
            "k_range": list(self.k_range),
            "analyses": list(self.analyses),
            "slack": self.slack,
            "seed": self.seed,
            "out": self.out,
        }
        if self.generator_kind is not None:
            obj["generator"] = {
                "kind": self.generator_kind,
                "params": dict(sorted(self.generator_params.items())),
            }
        else:
            obj["input"] = self.input_path
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentManifest":
        if not isinstance(obj, dict):
            raise ParseError("manifest must be a JSON object")
        schema = obj.get("schema", "tubelab-manifest-1")
        if schema != "tubelab-manifest-1":
            raise ParseError(f"unsupported manifest schema {schema!r}")
        kind = None
        params: dict = {}
        if "generator" in obj:
            gen = obj["generator"]
            if not isinstance(gen, dict) or "kind" not in gen:
                raise ParseError("'generator' needs a 'kind'")
            kind = str(gen["kind"])
            params = gen.get("params", {})
            if not isinstance(params, dict):
                raise ParseError("'generator.params' must be an object")
        path = obj.get("input")
        k_range = obj.get("k_range")
        if not isinstance(k_range, list):
            raise ParseError(f"manifest 'k_range' must be a list of integers, got {k_range!r}")
        try:
            analyses = tuple(str(a) for a in obj["analyses"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"manifest needs 'analyses': {exc}") from exc
        return cls(
            generator_kind=kind,
            generator_params=dict(params),
            input_path=None if path is None else str(path),
            k_range=_int_row(k_range, len(k_range), "manifest 'k_range'"),
            analyses=analyses,
            slack=number_field(obj, "slack", "manifest") if "slack" in obj else 0.25,
            seed=_int_field(obj, "seed") if "seed" in obj else 0,
            out=str(obj.get("out", "out")),
        )

    def sha256(self) -> str:
        return hashlib.sha256(canonical_json(self.to_json()).encode()).hexdigest()


def _load_input(path: str) -> Any:
    """The object an input file holds. Anything wrong with the file, down to
    a duplicate point, a numerator past the 128-bit envelope or no points
    at all, is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read input {path!r}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, bad UTF-8, an integer too long to read
        raise ParseError(f"input {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"input {path!r} must hold a JSON object")
    try:
        # a tripod also carries "points": recognise its "tube" first
        if "tube" in obj:
            loaded = TripodInstance.from_json(obj)
        elif "families" in obj:
            loaded = Configuration.from_json(obj)
        elif "levels" in obj:
            loaded = QuasiProduct.from_json(obj)
        elif "points" in obj:
            loaded = PointSet.from_json(obj)
        elif "values" in obj:  # slope values, as `gen --kind slope_net` writes them
            rows = obj["values"]
            if not isinstance(rows, list):
                raise ParseError(f"slope values must be a list of [num, exp] pairs, got {rows!r}")
            loaded = tuple(grid_objects(*read_pairs(rows), DyadicRational))
        else:
            raise ParseError(
                f"input {path!r} is not a point set, configuration, quasi-product, tripod, "
                "or slope values"
            )
    except (DomainError, DyadicOverflowError, ScaleError, ValidationError) as exc:
        raise ParseError(f"input {path!r}: {exc}") from exc
    # an empty quasi-product fails its joined_levels hypothesis instead
    if not isinstance(loaded, QuasiProduct) and _point_count(loaded) == 0:
        raise ParseError(f"input {path!r} holds no points")
    return loaded


def _shape_of(obj: Any) -> str:
    if isinstance(obj, Configuration):
        return "configuration"
    if isinstance(obj, QuasiProduct):
        return "quasi_product"
    if isinstance(obj, PointSet):
        return "points"
    if isinstance(obj, TripodInstance):
        return "tripod"
    return "values"


def _point_set_of(obj: Any) -> PointSet:
    if isinstance(obj, Configuration):
        return obj.points
    if isinstance(obj, QuasiProduct):
        return obj.point_set
    return obj


def _point_count(obj: Any) -> int | None:
    """Points (or slope values) an object holds; None for a tripod, whose size is fixed."""
    shape = _shape_of(obj)
    if shape == "tripod":
        return None
    return len(obj) if shape == "values" else len(_point_set_of(obj))


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Tag an exception that leaves the block with the stage it left, for
    the witness of an internal error."""
    try:
        yield
    except Exception as exc:
        exc.stage = name
        raise


def _exit_of(exc: Exception) -> tuple[int, dict | None]:
    """The exit code an exception ends a command with, and the witness it
    prints and `tubelab run` writes to witness.json (None at exit 2).

    A failed hypothesis is exit 3 with its payload. Bad input is exit 2,
    also input too precise for the exact arithmetic. Anything else is a bug,
    exit 4; its witness names the stage that raised: the analysis ("energy"
    for the energy of `tubelab project`), or "generate" or "load" while the
    object was being built, and None outside every stage.
    """
    if isinstance(exc, HypothesisViolation):
        return EXIT_HYPOTHESIS, exc.payload()
    if isinstance(exc, (ParseError, DomainError, DyadicOverflowError, ScaleError)):
        return EXIT_PARSE, None
    witness = {"error": type(exc).__name__, "message": str(exc), "stage": getattr(exc, "stage", None)}
    return EXIT_INTERNAL, witness


def _write_text(path: str | Path, text: str) -> None:
    """Write an output file; a path that cannot be written is bad usage."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {str(path)!r}: {exc}") from exc


@record
class _Outcome:
    """One analysis of one object: its verdict, its section of
    report_k{K}.json (the run adds the verdict), what the subcommand of the
    same name prints, the aggregate.csv cells it fills, and a sweep's CSV."""

    ok: bool
    section: dict
    printed: dict | None = None
    row: dict[str, Any] = field(default_factory=dict)
    csv: str | None = None


class _Subject:
    """An object and the analyses asked of it: the one dispatch behind both
    `tubelab run` and the analysis subcommands.

    Every analysis is checked against the object's shape, and the slack
    and the (s, C) profile against their ranges, before any runs: a
    misapplied analysis or an out-of-range argument is a ParseError before
    a hypothesis can fail. The quasi-product slice graph is computed at most
    once per object, by whichever analysis needs it first; a configuration
    memoizes its own structural check and incidence report.
    """

    def __init__(
        self, obj: Any, analyses: tuple[str, ...], k: int | None, profile: tuple[float, float], slack: float | None
    ) -> None:
        # k is the scale of slope values, which carry none of their own, and
        # profile the (s, C) checked on points and slope values
        self.obj, self.analyses, self.k, self.profile, self.slack = obj, analyses, k, profile, slack
        self.shape = _shape_of(self.obj)
        for name in self.analyses:
            _check_applies(name, self.shape)
        if self.slack is not None:
            _check_slack(self.slack)
        self._params: DeltaSetParams | None = None
        if "validate" in self.analyses and self.shape in ("points", "values"):
            if self.shape == "values" and self.k is None:
                raise ParseError("slope values carry no scale of their own; give --k")
            scale = Scale(self.k) if self.shape == "values" else self.obj.scale
            try:
                self._params = DeltaSetParams(scale, *self.profile)
            except ValidationError as exc:
                raise ParseError(str(exc)) from exc

    def outcomes(self) -> list[tuple[str, _Outcome]]:
        """Run the analyses in ANALYSES order; HypothesisViolation stops the run,
        and any exception leaves tagged with the analysis that raised it."""
        done = []
        for name in ANALYSES:
            if name in self.analyses:
                with _stage(name):
                    done.append((name, getattr(self, f"_{name}")()))
        return done

    @cached_property
    def _slice_graph(self) -> tuple:
        tubes = quasi_product_tubes(self.obj)
        incidences = slice_incidences(self.obj, tubes)
        # the defining hypothesis is checked before any level pair is sought
        bad = _multiplicity_violation(incidences, self.obj.scale.k)
        if bad is not None:
            raise bad
        pairs = _pair_table(incidences)
        lo, hi = best_slice_pair(self.obj, tubes, pairs=pairs)
        return tubes, lo, hi, tube_slice_pairs(self.obj, tubes, lo, hi, pairs=pairs)

    def _validate(self) -> _Outcome:
        obj, shape = self.obj, self.shape
        if shape == "configuration":
            if obj.violations:
                raise obj.violations[0]
            return _Outcome(True, {"hypotheses": "ok"}, {"shape": shape, "verdict": "pass"})
        if shape == "quasi_product":
            # the defining property: no tube of the natural family meets one
            # slice twice; _slice_graph checks it first and raises on failure
            tubes, lo, hi, graph = self._slice_graph
            pairs = {"levels": [lo, hi], "slice_pairs": len(graph.edges)}
            section = {**pairs, "tube_count": len(tubes.keys)}
            return _Outcome(True, section, {"shape": shape, "verdict": "pass", **pairs})
        if shape == "tripod":
            b1, b2, b3 = obj.levels()
            residual = tripod_residual(obj.points, b1, b2, b3) * (1 << obj.scale.k)
            ok = residual <= TRIPOD_RESIDUAL_CAP
            section = {"residual_over_delta": residual, "cap": TRIPOD_RESIDUAL_CAP}
            return _Outcome(ok, section, {"shape": shape, **section, "verdict": _VERDICT[ok]})
        if shape == "values":
            report = validate_1d(obj, self._params)
        else:
            report = validate(obj, self._params)
        printed = report.to_json()
        return _Outcome(report.valid, {"report": printed}, printed)

    def _incidence(self) -> _Outcome:
        inc = self.obj.incidences
        cs = cauchy_schwarz_bound(self.obj)
        section = {"report": inc.to_json(), "cauchy_schwarz": cs.to_json()}
        row = {
            "n_tubes": inc.tube_count,
            "coarse_tube_count": inc.coarse_tube_count,
            "incidence_count": inc.incidence_count,
            "e_tubes": repr(inc.e_tubes),
            "e_coarse": repr(inc.e_coarse),
        }
        return _Outcome(inc.identity_ok and cs.inequality_ok, section, section, row)

    def _dichotomy(self) -> _Outcome:
        rep = dichotomy_check(self.obj, self.slack)
        printed = rep.to_json()
        row = {"e_tubes": repr(rep.e_tubes), "e_coarse": repr(rep.e_coarse)}
        return _Outcome(rep.passed, {"report": printed}, printed, row)

    def _sweep(self) -> _Outcome:
        points = _point_set_of(self.obj)
        net = DirectionNet.uniform(points.scale)
        sw = sweep(points, net, points.scale, audit=True)
        return _Outcome(True, {"summary": sw.summary((0.25, 0.5, 0.75))}, csv=sweep_to_csv(sw))

    def _additive(self) -> _Outcome:
        tubes, lo, hi, graph = self._slice_graph
        bsg = bsg_refine(graph)
        plun = plunnecke_corollary_check(graph.a_values, graph.b_values, self.obj.scale)
        section = {"levels": [lo, hi], "bsg": bsg.to_json(), "plunnecke": plun.to_json()}
        printed = {**section, "slice_pairs": len(graph.edges), "tube_count": len(tubes.keys)}
        return _Outcome(plun.ok and math.isfinite(bsg.c_exponent), section, printed)


def _analyze_one(manifest: ExperimentManifest, k: int) -> tuple[dict, dict[str, Any], str | None]:
    """Run all requested analyses at one scale.

    Returns (report json, csv row fields, sweep csv text or None). Raises
    HypothesisViolation when a checked hypothesis fails.
    """
    if manifest.generator_kind is not None:
        params = dict(manifest.generator_params)
        params["k"] = k
        if "seed" in _KINDS[manifest.generator_kind][2]:  # among its optional parameters
            params.setdefault("seed", manifest.seed)
        spec = GeneratorSpec(manifest.generator_kind, params)
        with _stage("generate"):
            obj = spec.build()
        source: dict = spec.to_json()
    else:
        with _stage("load"):
            obj = _load_input(manifest.input_path)
        if hasattr(obj, "scale") and obj.scale.k != k:
            raise ParseError(
                f"input file is at scale k={obj.scale.k} but the manifest asks for k={k}; "
                "set k_range to the file's scale"
            )
        source = {"input": manifest.input_path}
    profile = _natural_profile(manifest.generator_kind, manifest.generator_params)
    subject = _Subject(obj, manifest.analyses, k, profile, manifest.slack)

    report: dict = {"k": k, "source": source, "analyses": {}}
    row: dict[str, Any] = {c: "" for c in CSV_COLUMNS}
    row["schema_version"] = CSV_SCHEMA
    row["k"] = k
    n_points = _point_count(obj)
    if n_points is not None:
        row["n_points"] = n_points
    verdicts: list[str] = []
    sweep_csv: str | None = None
    for name, outcome in subject.outcomes():
        report["analyses"][name] = {**outcome.section, "verdict": _VERDICT[outcome.ok]}
        verdicts.append(f"{name}:{_VERDICT[outcome.ok]}")
        for column, value in outcome.row.items():
            if row[column] == "":  # first writer wins: incidence runs before dichotomy
                row[column] = value
        sweep_csv = outcome.csv or sweep_csv

    row["verdicts"] = ";".join(verdicts)
    return report, row, sweep_csv


def _csv_text(rows: list[dict[str, Any]]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _run(manifest: ExperimentManifest) -> int:
    """`run`, for the command line: exit 0 or 1, or the exception that
    stopped the run, raised once every artifact is written."""
    out = Path(manifest.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot write {manifest.out!r}: {exc}") from exc
    digest = manifest.sha256()
    started = datetime.now(timezone.utc).isoformat()

    code = EXIT_PASS
    stop: Exception | None = None
    witness: dict | None = None
    reports: list[tuple[int, dict]] = []
    rows: list[dict[str, Any]] = []
    sweeps: list[tuple[int, str]] = []
    try:
        results = [_analyze_one(manifest, k) for k in manifest.k_range]
        for k, (report, row, sweep_csv) in zip(manifest.k_range, results):
            report["manifest_sha256"] = digest
            reports.append((k, report))
            rows.append(row)
            if sweep_csv is not None:
                sweeps.append((k, sweep_csv))
        if any("fail" in row["verdicts"] for row in rows):
            code = EXIT_FAIL
    except Exception as exc:
        code, witness = _exit_of(exc)
        if code == EXIT_PARSE:
            raise
        stop = exc

    _write_text(out / "manifest.json", canonical_json(manifest.to_json()))
    for k, report in reports:
        _write_text(out / f"report_k{k}.json", canonical_json(report))
    for k, text in sweeps:
        _write_text(out / f"sweep_k{k}.csv", text)
    if rows:
        _write_text(out / "aggregate.csv", _csv_text(rows))
    if witness is not None:
        _write_text(out / "witness.json", canonical_json(witness))

    fit_samples = [
        (row["k"], row["n_tubes"] if row["n_tubes"] != "" else row["n_points"])
        for row in rows
        if row["n_tubes"] != "" or row["n_points"] != ""
    ]
    if len(fit_samples) >= 2:
        fit = fit_exponent(fit_samples)
        quantity = "n_tubes" if any(r["n_tubes"] != "" for r in rows) else "n_points"
        payload = fit.to_json()
        payload["quantity"] = quantity
        _write_text(out / "fit.json", canonical_json(payload))

    _write_text(
        out / "meta.json",
        canonical_json({"started": started, "exit_code": code, "manifest_sha256": digest}),
    )
    if stop is not None:
        raise stop
    return code


def run(manifest: ExperimentManifest, threads: int = 1) -> int:
    """Execute the manifest, write artifacts, and return the exit code.

    Scales run one after another on one thread, and every scale finishes
    before anything is written. `threads` is unused, since a manifest runs
    no energy, and stays because the benchmark harness passes it. What maps
    to exit 2 is raised and writes no artifact; a run stopped at exit 3 or
    4 writes its witness.json and meta.json.
    """
    try:
        return _run(manifest)
    except Exception as exc:
        code, _ = _exit_of(exc)
        if code == EXIT_PARSE:
            raise
        return code
