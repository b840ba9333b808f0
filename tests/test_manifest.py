"""Manifest validation, artifact layout, exit codes, and rerun determinism."""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import tubelab.additive as additive_module
import tubelab.incidence as incidence_module
import tubelab.manifest as manifest_module
from conftest import configuration_of
from tubelab.core_grid import DyadicPoint, PointSet, Scale
from tubelab.errors import ParseError, ValidationError
from tubelab.generators import collinear_tripod, furstenberg_product, grid, slope_net
from tubelab.manifest import (
    ANALYSES,
    CSV_COLUMNS,
    CSV_SCHEMA,
    EXIT_FAIL,
    EXIT_HYPOTHESIS,
    EXIT_INTERNAL,
    EXIT_PASS,
    ExperimentManifest,
    canonical_json,
    run,
)
from tubelab.tubes import tubes_through


def _manifest(tmp_path: Path, **kwargs) -> ExperimentManifest:
    defaults = dict(
        generator_kind="grid",
        generator_params={},
        k_range=(4,),
        analyses=("validate",),
        out=str(tmp_path / "out"),
    )
    defaults.update(kwargs)
    return ExperimentManifest(**defaults)


# --- construction ---


def test_manifest_requires_one_source(tmp_path):
    with pytest.raises(ParseError):
        _manifest(tmp_path, generator_kind=None)
    with pytest.raises(ParseError):
        _manifest(tmp_path, input_path="x.json")


def test_manifest_rejects_bad_generator(tmp_path):
    with pytest.raises(ParseError):
        _manifest(tmp_path, generator_kind="bogus")
    with pytest.raises(ParseError):
        _manifest(tmp_path, generator_params={"k": 4})
    with pytest.raises(ParseError):
        _manifest(tmp_path, generator_kind="cantor_grid")  # missing s
    with pytest.raises(ParseError):
        _manifest(tmp_path, generator_params={"wat": 1})


@pytest.mark.parametrize(
    "params",
    [
        {"s": 0},
        {"s": 1.5},
        {"s": float("nan")},
        {"s": "0.5"},
        {"s": 0.5, "epsilon": 0.9},
        {"s": 0.5, "epsilon": 0.0},
        {"s": 0.25},  # the default epsilon 0.25 is not below s
    ],
)
def test_manifest_rejects_generator_values_at_load(tmp_path, params):
    with pytest.raises(ParseError):
        _manifest(
            tmp_path,
            generator_kind="furstenberg_product",
            generator_params=params,
            k_range=(6,),
            analyses=("validate",),
        )


@pytest.mark.parametrize("mask", [5, [[0, "1"]], [[0, 1, 1]], [None]])
def test_manifest_rejects_malformed_mask_at_load(tmp_path, mask):
    with pytest.raises(ParseError):
        _manifest(tmp_path, generator_kind="cantor_grid", generator_params={"s": 0.5, "mask": mask})


def test_run_unsatisfiable_generator_is_parse_error(tmp_path):
    # furstenberg_product needs even k >= 4; the spec checks no k, the
    # generator does, and that is bad input rather than an internal error
    m = _manifest(
        tmp_path,
        generator_kind="furstenberg_product",
        generator_params={"s": 0.5},
        k_range=(2,),
    )
    with pytest.raises(ParseError):
        run(m)


def test_run_slope_values_input(tmp_path):
    src = tmp_path / "sl.json"
    src.write_text(json.dumps({"values": [v.pair() for v in slope_net(6, 0.5)]}))
    m = _manifest(tmp_path, generator_kind=None, input_path=str(src), k_range=(6,))
    assert run(m) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report_k6.json").read_text())
    assert report["analyses"]["validate"]["verdict"] == "pass"


def test_manifest_rejects_bad_k_range(tmp_path):
    with pytest.raises(ParseError):
        _manifest(tmp_path, k_range=())
    with pytest.raises(ParseError):
        _manifest(tmp_path, k_range=(6, 4))
    with pytest.raises(ParseError):
        _manifest(tmp_path, k_range=(4, 4))
    with pytest.raises(ParseError):
        _manifest(tmp_path, k_range=(4, 21))


def test_manifest_rejects_bad_analyses(tmp_path):
    with pytest.raises(ParseError):
        _manifest(tmp_path, analyses=())
    with pytest.raises(ParseError):
        _manifest(tmp_path, analyses=("nope",))
    with pytest.raises(ParseError):
        _manifest(tmp_path, analyses=("validate",), slack=0.0)


def test_manifest_even_k_constraint(tmp_path):
    with pytest.raises(ParseError) as err:
        _manifest(
            tmp_path,
            generator_kind="furstenberg_product",
            generator_params={"s": 0.5},
            k_range=(7,),
            analyses=("dichotomy",),
        )
    assert "even" in str(err.value)


def test_manifest_shape_applicability(tmp_path):
    with pytest.raises(ParseError):
        _manifest(
            tmp_path,
            generator_kind="slope_net",
            generator_params={"s": 0.5},
            analyses=("incidence",),
            k_range=(4,),
        )
    with pytest.raises(ParseError):
        _manifest(tmp_path, analyses=("additive",))  # grid builds points


def test_manifest_json_roundtrip(tmp_path):
    m = _manifest(
        tmp_path,
        generator_kind="furstenberg_product",
        generator_params={"s": 0.5},
        k_range=(8, 10),
        analyses=("incidence", "dichotomy"),
        slack=0.2,
        seed=3,
    )
    again = ExperimentManifest.from_json(m.to_json())
    assert again == m
    assert again.sha256() == m.sha256()
    assert len(m.sha256()) == 64
    other = _manifest(tmp_path, k_range=(4, 6))
    assert other.sha256() != m.sha256()


def test_manifest_from_json_rejects_bad_schema():
    with pytest.raises(ParseError):
        ExperimentManifest.from_json({"schema": "v999", "k_range": [4], "analyses": ["validate"]})
    with pytest.raises(ParseError):
        ExperimentManifest.from_json({"generator": {"kind": "grid"}})  # no k_range


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


# --- runs ---


def test_run_grid_validate(tmp_path):
    out = tmp_path / "out"
    m = _manifest(tmp_path, k_range=(4, 6))
    assert run(m) == EXIT_PASS
    names = {p.name for p in out.iterdir()}
    assert {"manifest.json", "report_k4.json", "report_k6.json", "aggregate.csv", "fit.json", "meta.json"} <= names
    csv_lines = (out / "aggregate.csv").read_text().strip().split("\n")
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    assert len(csv_lines) == 3
    assert csv_lines[1].startswith(f"{CSV_SCHEMA},4,")
    fit = json.loads((out / "fit.json").read_text())
    assert fit["quantity"] == "n_points"
    assert fit["slope"] == pytest.approx(2.0)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["exit_code"] == 0
    assert meta["manifest_sha256"] == m.sha256()
    report = json.loads((out / "report_k4.json").read_text())
    assert report["manifest_sha256"] == m.sha256()
    assert report["analyses"]["validate"]["verdict"] == "pass"


def test_run_furstenberg_incidence_dichotomy(tmp_path):
    out = tmp_path / "out"
    m = _manifest(
        tmp_path,
        generator_kind="furstenberg_product",
        generator_params={"s": 0.5},
        k_range=(8,),
        analyses=("incidence", "dichotomy"),
    )
    assert run(m) == EXIT_PASS
    row = (out / "aggregate.csv").read_text().strip().split("\n")[1].split(",")
    fields = dict(zip(CSV_COLUMNS, row))
    assert fields["verdicts"] == "incidence:pass;dichotomy:pass"
    assert int(fields["n_tubes"]) > 0
    assert int(fields["incidence_count"]) > 0
    assert float(fields["e_tubes"]) > 0
    fit = json.loads((out / "fit.json").read_text()) if (out / "fit.json").exists() else None
    assert fit is None  # single scale: no fit


def test_run_sweep_artifact(tmp_path):
    out = tmp_path / "out"
    m = _manifest(
        tmp_path,
        generator_kind="cantor_grid",
        generator_params={"s": 0.5},
        k_range=(6,),
        analyses=("sweep",),
    )
    assert run(m) == EXIT_PASS
    text = (out / "sweep_k6.csv").read_text()
    assert text.startswith("angle,count,energy\n")
    report = json.loads((out / "report_k6.json").read_text())
    summary = report["analyses"]["sweep"]["summary"]
    assert summary["n_directions"] > 0
    assert "0.5" in summary["exceptional"]


def test_run_additive_quasi_product(tmp_path):
    out = tmp_path / "out"
    m = _manifest(
        tmp_path,
        generator_kind="quasi_product",
        generator_params={"s": 0.5, "tau": 0.5},
        k_range=(8,),
        analyses=("validate", "additive"),
        seed=0,
    )
    assert run(m) == EXIT_PASS
    report = json.loads((out / "report_k8.json").read_text())
    assert report["analyses"]["additive"]["verdict"] == "pass"
    assert "bsg" in report["analyses"]["additive"]
    assert "plunnecke" in report["analyses"]["additive"]


def test_run_input_points(tmp_path):
    src = tmp_path / "points.json"
    src.write_text(json.dumps(grid(4).to_json()))
    out = tmp_path / "out"
    m = _manifest(tmp_path, generator_kind=None, input_path=str(src), k_range=(4,))
    code = run(m)
    # a full grid is 2-dimensional: it fails the exponent-1 profile
    assert code == EXIT_FAIL
    row = (out / "aggregate.csv").read_text().strip().split("\n")[1]
    assert row.endswith("validate:fail")


def test_run_input_scale_mismatch(tmp_path):
    src = tmp_path / "points.json"
    src.write_text(json.dumps(grid(4).to_json()))
    m = _manifest(tmp_path, generator_kind=None, input_path=str(src), k_range=(6,))
    with pytest.raises(ParseError):
        run(m)
    src.write_text(json.dumps(collinear_tripod(8, seed=1).to_json()))
    with pytest.raises(ParseError):
        run(m)


def test_run_missing_input_raises_parse(tmp_path):
    m = _manifest(tmp_path, generator_kind=None, input_path=str(tmp_path / "gone.json"), k_range=(4,))
    with pytest.raises(ParseError):
        run(m)


def test_run_hypothesis_violation_witness(tmp_path):
    # one point with its tubes: far below the required cardinality
    k = 4
    ps = grid(2)
    cfg_points = [p for p in ps.points][:1]
    from tubelab.core_grid import PointSet
    from tubelab.incidence import Configuration

    p = cfg_points[0]
    fam = tubes_through(p, Scale(k))
    cfg = configuration_of(PointSet(Scale(k), (p,)), (fam,), 0.5, 0.1)
    src = tmp_path / "cfg.json"
    src.write_text(json.dumps(cfg.to_json()))
    out = tmp_path / "out"
    m = _manifest(
        tmp_path,
        generator_kind=None,
        input_path=str(src),
        k_range=(4,),
        analyses=("dichotomy",),
    )
    assert run(m) == EXIT_HYPOTHESIS
    witness = json.loads((out / "witness.json").read_text())
    names = {v["hypothesis"] for v in witness["witness"]["all_violations"]}
    assert witness["hypothesis"] in names
    assert "point_count" in names
    meta = json.loads((out / "meta.json").read_text())
    assert meta["exit_code"] == EXIT_HYPOTHESIS


def test_run_internal_error_witness(tmp_path, monkeypatch):
    # a failing analysis stands in for a bug
    def boom(*args, **kwargs):
        raise ValidationError("boom")

    monkeypatch.setattr("tubelab.manifest.validate", boom)
    out = tmp_path / "out"
    m = _manifest(tmp_path, generator_kind="grid", k_range=(3,), analyses=("validate",))
    assert run(m) == EXIT_INTERNAL
    witness = json.loads((out / "witness.json").read_text())
    assert witness == {"error": "ValidationError", "message": "boom", "stage": "validate"}
    assert json.loads((out / "meta.json").read_text())["exit_code"] == EXIT_INTERNAL


def test_run_any_exception_writes_witness_and_meta(tmp_path, monkeypatch):
    # not only package errors: a RuntimeError is exit 4 with both files too
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("tubelab.manifest.validate", boom)
    out = tmp_path / "out"
    m = _manifest(tmp_path, generator_kind="grid", k_range=(3,), analyses=("validate",))
    assert run(m) == EXIT_INTERNAL
    witness = json.loads((out / "witness.json").read_text())
    assert witness == {"error": "RuntimeError", "message": "boom", "stage": "validate"}
    assert json.loads((out / "meta.json").read_text())["exit_code"] == EXIT_INTERNAL


@pytest.mark.parametrize(
    "target, source, stage",
    [
        ("tubelab.manifest.GeneratorSpec.build", {}, "generate"),
        ("tubelab.manifest._load_input", {"generator_kind": None, "input_path": "p.json"}, "load"),
        ("tubelab.manifest.sweep", {"analyses": ("validate", "sweep")}, "sweep"),
    ],
)
def test_run_internal_error_witness_names_stage(tmp_path, monkeypatch, target, source, stage):
    def boom(*args, **kwargs):
        raise ValidationError("boom")

    monkeypatch.setattr(target, boom)
    out = tmp_path / "out"
    m = _manifest(tmp_path, k_range=(3,), **source)
    assert run(m) == EXIT_INTERNAL
    witness = json.loads((out / "witness.json").read_text())
    assert witness == {"error": "ValidationError", "message": "boom", "stage": stage}


def _count_structural_checks(monkeypatch) -> Counter:
    """Count validate_configuration and incidence_report calls in
    tubelab.incidence, where a configuration's memos look both up."""
    calls: Counter = Counter()
    for name in ("validate_configuration", "incidence_report"):

        def counted(*args, _real=getattr(incidence_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(incidence_module, name, counted)
    return calls


def test_run_checks_each_configuration_once(tmp_path, monkeypatch):
    calls = _count_structural_checks(monkeypatch)
    m = _manifest(
        tmp_path,
        generator_kind="furstenberg_product",
        generator_params={"s": 0.5},
        k_range=(6, 8),
        analyses=("validate", "incidence", "dichotomy"),
    )
    assert run(m) == EXIT_PASS
    assert calls == {"validate_configuration": 2, "incidence_report": 2}


def test_incidence_run_builds_no_point_objects(tmp_path, monkeypatch):
    # the benchmark's incidence-run manifest at small k reads only the point
    # columns on its pass path: one stray DyadicPoint view per configuration
    # costs more than all of its point work
    built = Counter()
    init, points = DyadicPoint.__init__, PointSet.__dict__["points"].func

    def counted(self, x, y):
        built["DyadicPoint"] += 1
        init(self, x, y)

    def view(ps):
        built["PointSet.points"] += 1
        return points(ps)

    monkeypatch.setattr(DyadicPoint, "__init__", counted)
    monkeypatch.setattr(PointSet, "points", property(view))
    m = _manifest(
        tmp_path,
        generator_kind="furstenberg_product",
        generator_params={"s": 0.5},
        k_range=(4, 6, 8),
        analyses=("validate", "incidence", "dichotomy"),
    )
    assert run(m, threads=2) == EXIT_PASS
    assert built == Counter()
    # the additive-run manifest: the slice graph and the sweep read the
    # quasi-product's point columns too
    m = _manifest(
        tmp_path,
        generator_kind="quasi_product",
        generator_params={"s": 0.5, "tau": 0.4},
        k_range=(8, 10),
        analyses=("validate", "additive", "sweep"),
    )
    assert run(m) == EXIT_PASS
    assert built == Counter()
    # the guard sees a view when one is built
    assert len(furstenberg_product(4, 0.5).points.points) == 16
    assert built == {"PointSet.points": 1, "DyadicPoint": 16}


def test_run_builds_one_pair_table_per_quasi_product(tmp_path, monkeypatch):
    # the additive-run manifest: best_slice_pair and tube_slice_pairs share
    # the table that _slice_graph builds once per scale
    calls = Counter()
    table = additive_module._pair_table

    def counted(hits):
        calls["_pair_table"] += 1
        return table(hits)

    monkeypatch.setattr(additive_module, "_pair_table", counted)
    monkeypatch.setattr(manifest_module, "_pair_table", counted)
    m = _manifest(
        tmp_path,
        generator_kind="quasi_product",
        generator_params={"s": 0.5, "tau": 0.4},
        k_range=(8, 10),
        analyses=("validate", "additive", "sweep"),
        seed=1,
    )
    assert run(m, threads=1) == EXIT_PASS
    assert calls == {"_pair_table": 2}


def test_run_dichotomy_alone_is_unchanged(tmp_path, monkeypatch):
    # recorded before the analyses shared one check per configuration
    calls = _count_structural_checks(monkeypatch)
    out = tmp_path / "out"
    m = _manifest(
        tmp_path,
        generator_kind="furstenberg_product",
        generator_params={"s": 0.5},
        k_range=(6, 8),
        analyses=("dichotomy",),
    )
    assert run(m) == EXIT_PASS
    assert calls == {"validate_configuration": 2, "incidence_report": 2}
    assert json.loads((out / "report_k8.json").read_text())["analyses"] == {
        "dichotomy": {
            "report": {
                "coarse_branch": True,
                "e_coarse": 0.6009193652572005,
                "e_tubes": 1.2255163776479148,
                "k": 8,
                "margins": [0.47551637764791477, 0.35091936525720047],
                "passed": True,
                "s": 0.5,
                "slack": 0.25,
                "tube_branch": True,
            },
            "verdict": "pass",
        }
    }
    failing = _manifest(
        tmp_path,
        generator_kind="furstenberg_product",
        generator_params={"s": 0.5, "epsilon": 0.05},
        k_range=(6, 8),
        analyses=("dichotomy",),
    )
    assert run(failing) == EXIT_HYPOTHESIS
    witness = (out / "witness.json").read_bytes()
    assert hashlib.sha256(witness).hexdigest() == (
        "9094894978c0ab2816b681a36b382d294da573a132af064f63744df14dc688b5"
    )
    names = [v["hypothesis"] for v in json.loads(witness)["witness"]["all_violations"]]
    assert names == ["point_set_frostman", "slope_set_frostman"]


def _snapshot(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "meta.json"
    }


def test_run_thread_determinism(tmp_path):
    out = tmp_path / "out"
    m = _manifest(
        tmp_path,
        generator_kind="cantor_grid",
        generator_params={"s": 0.5},
        k_range=(4, 6),
        analyses=("validate", "sweep"),
    )
    assert run(m, threads=1) == EXIT_PASS
    first = _snapshot(out)
    assert run(m, threads=8) == EXIT_PASS
    second = _snapshot(out)
    assert first == second


def test_run_starts_no_pool(tmp_path, monkeypatch, helper_threads):
    # a manifest runs no energy, so it starts no worker thread, whatever the
    # CPU count and the `threads` it is given; k=8 sweeps 805 directions in
    # 13 blocks
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    m = _manifest(
        tmp_path,
        generator_kind="cantor_grid",
        generator_params={"s": 0.5},
        k_range=(6, 8),
        analyses=("validate", "sweep"),
    )
    assert run(m, threads=10_000) == EXIT_PASS
    assert helper_threads == []


def test_analyses_constant_is_ordered():
    assert ANALYSES == ("validate", "incidence", "dichotomy", "sweep", "additive")
