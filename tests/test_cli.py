"""End-to-end command line behavior: outputs, files, and exit codes."""
from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis as hyp
import hypothesis.strategies as hys
import pytest

from conftest import configuration_of
from tubelab.cli import _LOG_LEVELS, _build_parser, _setup_logging, main
from tubelab.core_grid import DyadicPoint, DyadicRational, PointSet, Scale
from tubelab.errors import DyadicOverflowError, ParseError
from tubelab.generators import (
    _KIND_SHAPE,
    _KINDS,
    collinear_tripod,
    furstenberg_product,
    grid,
    quasi_product,
    slope_net,
)
from tubelab.incidence import Configuration, validate_configuration
from tubelab.manifest import (
    _ANALYSIS_SHAPES,
    ANALYSES,
    ExperimentManifest,
    _natural_profile,
    run,
)
from tubelab.tubes import TubeFamily, keys_through, tubes_through


def _call(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _degenerate_config_file(tmp_path):
    # one point with one family: far below every cardinality hypothesis
    p = grid(2).points[0]
    cfg = configuration_of(PointSet(Scale(4), (p,)), (tubes_through(p, Scale(4)),), 0.5, 0.1)
    src = tmp_path / "cfg.json"
    src.write_text(json.dumps(cfg.to_json()))
    return src


def test_gen_stdout(capsys):
    code, out, _ = _call(capsys, ["gen", "--kind", "grid", "--k", "3"])
    assert code == 0
    assert out.endswith("\n")
    obj = json.loads(out)
    assert obj["k"] == 3
    assert len(obj["points"]) == 64


def test_gen_out_file(capsys, tmp_path):
    dest = tmp_path / "g.json"
    code, out, _ = _call(capsys, ["gen", "--kind", "grid", "--k", "2", "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["k"] == 2


def test_gen_slope_net_values(capsys):
    code, out, _ = _call(capsys, ["gen", "--kind", "slope_net", "--k", "4", "--s", "0.5"])
    assert code == 0
    assert json.loads(out) == {"values": [[0, 0], [1, 4], [1, 2], [5, 4]]}


def test_gen_tripod_keys(capsys):
    code, out, _ = _call(capsys, ["gen", "--kind", "collinear_tripod", "--k", "6", "--seed", "0"])
    assert code == 0
    assert sorted(json.loads(out).keys()) == ["k", "points", "tube"]


def test_validate_grid_exponents(capsys):
    code, out, _ = _call(capsys, ["validate", "--kind", "grid", "--k", "4", "--s", "2.0"])
    assert code == 0
    assert json.loads(out)["valid"] is True
    # a full grid is not a 1-dimensional profile
    code, out, _ = _call(capsys, ["validate", "--kind", "grid", "--k", "4", "--s", "1.0"])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_validate_shapes(capsys):
    code, out, _ = _call(capsys, ["validate", "--kind", "collinear_tripod", "--k", "8", "--seed", "1"])
    obj = json.loads(out)
    assert code == 0
    assert obj["shape"] == "tripod"
    assert obj["residual_over_delta"] <= obj["cap"]

    code, out, _ = _call(
        capsys,
        ["validate", "--kind", "quasi_product", "--k", "8", "--s", "0.5", "--tau", "0.5", "--seed", "0"],
    )
    obj = json.loads(out)
    assert code == 0
    assert obj["shape"] == "quasi_product"
    assert obj["slice_pairs"] > 0

    code, out, _ = _call(capsys, ["validate", "--kind", "furstenberg_product", "--k", "8", "--s", "0.5"])
    assert code == 0
    assert json.loads(out) == {"shape": "configuration", "verdict": "pass"}

    code, out, _ = _call(
        capsys, ["validate", "--kind", "slope_net", "--k", "6", "--s", "0.5", "--constant", "4.0"]
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_requires_a_source(capsys):
    code, _, err = _call(capsys, ["validate", "--k", "4"])
    assert code == 2
    assert "error:" in err


def test_validate_duplicate_points_is_internal(capsys, tmp_path):
    # a duplicate point is bad input, not a bug: exit 2 (it was exit 4)
    src = tmp_path / "dup.json"
    obj = grid(3).to_json()
    obj["points"].append(obj["points"][0])
    src.write_text(json.dumps(obj))
    code, out, err = _call(capsys, ["validate", "--input", str(src)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "duplicate point" in err


@pytest.mark.parametrize(
    "row, message",
    [
        ([(1 << 127) + 1, 127, 0, 0], "128-bit envelope"),  # refused at load
        # its distances would overflow, but the ball counts refuse it
        # first; on the 2^-127 grid the point set itself refuses it
        ([535826199, 60, (1 << 60) - 1, 60], "2^-27 grid"),
        ([(1 << 29) + 1, 28, 2, 0], "2^-27 grid"),  # too fine for int64 ball counts
        ([1, 1 << 26, 0, 0], "exponent 67108864 outside [-128, 128]"),  # refused before any shift
        ([0, 0, 1, -(1 << 33)], "exponent -8589934592 outside [-128, 128]"),
        ([535826199, 127, (1 << 127) - 1, 127], "2^-60 grid"),  # too fine for int64 point columns
    ],
)
def test_input_past_the_exact_envelope_is_parse_error(capsys, tmp_path, row, message):
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"k": 2, "points": grid(2).to_json()["points"][1:] + [row]}))
    code, out, err = _call(capsys, ["validate", "--input", str(src)])
    assert code == 2
    assert out == ""
    assert message in err


def test_internal_error_prints_witness(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("tubelab.incidence.incidence_report", boom)
    argv = ["incidence", "--kind", "furstenberg_product", "--k", "4", "--s", "0.5"]
    code, out, err = _call(capsys, argv)
    assert code == 4
    assert "internal error: RuntimeError" in err
    assert json.loads(out) == {"error": "RuntimeError", "message": "boom", "stage": "incidence"}


@pytest.mark.parametrize(
    "target, argv, stage",
    [
        ("tubelab.cli._load_input", ["validate", "--input", "p.json"], "load"),
        ("tubelab.generators.GeneratorSpec.build", ["gen", "--kind", "grid", "--k", "3"], "generate"),
        ("tubelab.generators.GeneratorSpec.build", ["dim", "--kind", "grid", "--k", "3", "--k", "4"],
         "generate"),
        ("tubelab.cli.sweep", ["project", "--kind", "grid", "--k", "3"], "sweep"),
        ("tubelab.cli.projection_energy", ["project", "--kind", "grid", "--k", "3", "--energy-s", "1"],
         "energy"),
    ],
)
def test_internal_error_witness_names_stage(capsys, monkeypatch, target, argv, stage):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(target, boom)
    code, out, _ = _call(capsys, argv)
    assert code == 4
    assert json.loads(out) == {"error": "RuntimeError", "message": "boom", "stage": stage}


def test_validate_tripod_input_matches_kind(capsys, tmp_path):
    src = tmp_path / "trip.json"
    source = ["--kind", "collinear_tripod", "--k", "8", "--seed", "1"]
    assert main(["gen", *source, "--out", str(src)]) == 0
    from_kind = _call(capsys, ["validate", *source])
    from_file = _call(capsys, ["validate", "--input", str(src)])
    assert from_file == from_kind
    assert json.loads(from_file[1])["shape"] == "tripod"


def test_incidence_and_dichotomy(capsys):
    code, out, _ = _call(capsys, ["incidence", "--kind", "furstenberg_product", "--k", "8", "--s", "0.5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["identity_ok"] is True
    assert obj["cauchy_schwarz"]["inequality_ok"] is True

    code, out, _ = _call(capsys, ["dichotomy", "--kind", "furstenberg_product", "--k", "8", "--s", "0.5"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_incidence_rejects_point_set(capsys, tmp_path):
    src = tmp_path / "p.json"
    src.write_text(json.dumps(grid(4).to_json()))
    code, _, err = _call(capsys, ["incidence", "--input", str(src)])
    assert code == 2
    assert "configuration" in err


def test_dichotomy_violation_prints_witness(capsys, tmp_path):
    src = _degenerate_config_file(tmp_path)
    code, out, err = _call(capsys, ["dichotomy", "--input", str(src)])
    assert code == 3
    payload = json.loads(out)
    assert set(payload) == {"hypothesis", "message", "witness"}
    assert "hypothesis failed" in err


def test_project_stdout_csv(capsys):
    code, out, _ = _call(capsys, ["project", "--kind", "cantor_grid", "--k", "6", "--s", "0.5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "angle,count,energy"
    assert len(lines) > 2


def test_project_out_file_and_summary(capsys, tmp_path):
    dest = tmp_path / "sweep.csv"
    code, out, _ = _call(
        capsys,
        ["project", "--kind", "cantor_grid", "--k", "6", "--s", "0.5",
         "--energy-s", "0.5", "--out", str(dest)],
    )
    assert code == 0
    assert dest.read_text().startswith("angle,count,energy\n")
    summary = json.loads(out)
    assert "counts" not in summary and "angles" not in summary
    assert summary["energy_average"] > 0


def test_project_thread_stability(capsys, tmp_path):
    argv = ["project", "--kind", "cantor_grid", "--k", "6", "--s", "0.5"]
    _, single, _ = _call(capsys, argv + ["--threads", "1"])
    _, multi, _ = _call(capsys, argv + ["--threads", "3"])
    assert single == multi


@pytest.mark.parametrize("command", ["project", "run"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(command, threads):
    source = ["--kind", "grid", "--k", "3"] if command == "project" else ["--manifest", "m.json"]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--threads", threads])
    assert exc.value.code == 2


def test_run_takes_no_threads_flag():
    # a manifest runs no energy, the one analysis with worker threads
    with pytest.raises(SystemExit) as exc:
        main(["run", "--manifest", "m.json", "--threads", "2"])
    assert exc.value.code == 2


def test_project_energy_helper_fault_is_exit_4(capsys, helper_fault):
    # an exception on a helper thread reaches the energy stage's witness
    argv = ["project", "--kind", "cantor_grid", "--k", "8", "--s", "0.5", "--target-k", "10"]
    code, out, err = _call(capsys, [*argv, "--energy-s", "1.0", "--threads", "3"])
    assert code == 4
    assert json.loads(out) == {"error": "HelperFault", "message": "helper task", "stage": "energy"}
    assert "internal error: HelperFault" in err


def test_project_starts_no_pool_without_energy(capsys, monkeypatch, helper_threads):
    # --threads reaches only the energy; the sweep runs on one thread
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    code, _, _ = _call(capsys, ["project", "--kind", "cantor_grid", "--k", "8", "--s", "0.5", "--threads", "4"])
    assert code == 0
    assert helper_threads == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_project_rejects_non_finite_energy_exponent(capsys, tmp_path, value):
    argv = ["project", "--kind", "furstenberg_product", "--k", "4", "--s", "0.5"]
    dest = tmp_path / "sweep.csv"
    code, out, err = _call(capsys, argv + ["--energy-s", value, "--out", str(dest)])
    assert code == 2
    assert out == ""
    assert "energy exponent" in err


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--s", "300"], 2),  # 2^(4 * 300) overflows a float
        (["--s", "1e308"], 2),  # 2^s alone does
        (["--s", "inf"], 2),
        (["--constant", "inf"], 2),
        (["--constant", "1e308", "--s", "2"], 2),  # C * 2^8 does
        (["--s", "255"], 0),  # 8 * 2^1020 = 2^1023 is the largest power of two a float holds
    ],
)
def test_frostman_parameters_out_of_float_range_are_parse_errors(capsys, flags, code):
    got, out, err = _call(capsys, ["validate", "--kind", "grid", "--k", "4", *flags])
    assert got == code and "Traceback" not in err
    assert (out == "") == (code == 2)


@pytest.mark.parametrize("command", ["validate", "project"])
def test_non_integer_point_entry_is_parse_error(capsys, tmp_path, command):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"k": 4, "points": [["a", 0, 0, 0]]}))
    code, out, err = _call(capsys, [command, "--input", str(src)])
    assert code == 2
    assert out == ""
    assert "integers" in err


_NON_INTEGER = hys.one_of(
    hys.none(),
    hys.booleans(),
    hys.floats(allow_nan=True, allow_infinity=True),
    hys.text(max_size=3),
    hys.lists(hys.integers(-2, 2), max_size=2),
    hys.dictionaries(hys.text(max_size=2), hys.integers(-2, 2), max_size=1),
)


# numerators around the 128-bit envelope, and small ones
_NUMERATOR = hys.one_of(
    hys.integers(-9, 9),
    hys.integers(-(1 << 130), 1 << 130),
    hys.sampled_from([(1 << 127) - 1, 1 << 127, -(1 << 127), 1 << 128]),
)
_EXPONENT = hys.one_of(hys.integers(-140, 140), hys.integers(-(1 << 40), 1 << 40))


@hys.composite
def _mutated_point_rows(draw):
    """The rows of grid(2) with up to three of them broken: an entry that is
    not an integer, a row that is not a list, or a row of the wrong length;
    or replaced by integers: a copy of another row, or any four integers."""
    rows = grid(2).to_json()["points"]
    for i in draw(hys.lists(hys.integers(0, len(rows) - 1), max_size=3, unique=True)):
        how = draw(hys.sampled_from(["entry", "row", "short", "long", "duplicate", "integers"]))
        if how == "duplicate":
            rows[i] = grid(2).to_json()["points"][draw(hys.integers(0, len(rows) - 1))]
        elif how == "integers":
            rows[i] = [draw(_NUMERATOR), draw(_EXPONENT), draw(_NUMERATOR), draw(_EXPONENT)]
        elif how == "entry":
            rows[i][draw(hys.integers(0, 3))] = draw(_NON_INTEGER)
        elif how == "row":
            rows[i] = draw(hys.one_of(_NON_INTEGER, hys.integers(-2, 2)))
        elif how == "short":
            rows[i] = rows[i][: draw(hys.integers(0, 3))]
        else:
            rows[i] = rows[i] + [draw(hys.one_of(_NON_INTEGER, hys.integers(-2, 2)))]
    return rows


@hyp.settings(max_examples=80, deadline=None)
@hyp.given(rows=_mutated_point_rows())
def test_validate_mutated_point_rows_never_raise(tmp_path_factory, rows):
    src = tmp_path_factory.mktemp("rows") / "points.json"
    src.write_text(json.dumps({"k": 2, "points": rows}))
    assert main(["validate", "--input", str(src)]) in {0, 1, 2, 3}


_JSON_VALUE = hys.one_of(_NON_INTEGER, _NUMERATOR, _EXPONENT)


@hys.composite
def _mutated_json(draw, obj):
    """A deep copy of the JSON object with one to three mutations. Each walks
    down from the root into nested objects and lists (three times in four
    where it can), then at one entry replaces the value with any JSON
    value, drops it, copies it over a sibling entry, or moves an integer by
    at most 2."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(hys.integers(1, 3))):
        node = obj
        while node:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(hys.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(hys.integers(0, 3)):
                node = child
                continue
            how = draw(hys.sampled_from(["replace", "drop", "copy", "nudge"]))
            if how == "replace":
                node[key] = draw(_JSON_VALUE)
            elif how == "drop":
                del node[key]
            elif how == "copy":
                node[draw(hys.sampled_from(keys))] = copy.deepcopy(child)
            elif type(child) is int:
                node[key] = child + draw(hys.integers(-2, 2))
            break
    return obj


# each input shape at k = 4, and the commands that read it
_SHAPE_INPUTS = {
    "configuration": (
        lambda: furstenberg_product(4, 0.5).to_json(),
        [["validate"], ["incidence"], ["dichotomy"], ["project"]],
    ),
    "quasi_product": (
        lambda: quasi_product(4, 0.5, 0.5).to_json(),
        [["validate"], ["additive"], ["project"]],
    ),
    "tripod": (lambda: collinear_tripod(4).to_json(), [["validate"]]),
    "values": (
        lambda: {"values": [v.pair() for v in slope_net(4, 0.5)]},
        [["validate", "--k", "4", "--s", "0.5"]],
    ),
}


@pytest.mark.parametrize("shape", sorted(_SHAPE_INPUTS))
def test_mutated_input_files_never_exit_internal(tmp_path_factory, shape):
    build, commands = _SHAPE_INPUTS[shape]

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(obj=_mutated_json(build()))
    def check(obj):
        src = tmp_path_factory.mktemp(shape) / "in.json"
        src.write_text(json.dumps(obj))
        for command in commands:
            assert main([command[0], "--input", str(src), *command[1:]]) in {0, 1, 2, 3}

    check()


_K_RANGE = hys.one_of(
    hys.lists(hys.sampled_from([2, 4, 6]), min_size=1, max_size=2),
    hys.lists(hys.integers(-1, 7), max_size=3),
    hys.lists(hys.sampled_from([21, 4.0, "4", True, None]), min_size=1, max_size=2),
)
_ANALYSIS_LIST = hys.one_of(
    hys.lists(hys.sampled_from(ANALYSES), min_size=1, max_size=3, unique=True),
    hys.lists(hys.sampled_from([*ANALYSES, "mystery"]), max_size=3),
)
# near-valid manifest slacks: in range, out of range, and not numbers
_SLACK = hys.sampled_from([0.25, 1, 1.0, 0.0, 2.0, True, "0.5", None, [1]])
_GENERATOR_PARAM = {
    "s": hys.sampled_from([0.25, 0.5, 1.0, 0.0, 2.0]),
    "tau": hys.sampled_from([0.4, 0.5, 1.0, -1.0]),
    "seed": hys.integers(-1, 3),
    "epsilon": hys.sampled_from([0.1, 0.2, 0.5]),
    "mask": hys.lists(hys.lists(hys.integers(0, 1), min_size=2, max_size=2), max_size=3),
    "k": hys.just(4),
}


@hys.composite
def _generators(draw):
    """A generator of any kind (or none known) whose parameters are each
    drawn near their range: a required one is there seven times in eight,
    an optional one half the time, any other one time in eight."""
    kind = draw(hys.sampled_from([*_KIND_SHAPE, "mystery"]))
    _, required, optional = _KINDS.get(kind, (None, set(), set()))
    params = {}
    for name, values in _GENERATOR_PARAM.items():
        chance = 7 if name in required - {"k"} else 4 if name in optional else 1
        if draw(hys.integers(0, 7)) < chance:
            params[name] = draw(values)
    return {"kind": kind, "params": params}


@hys.composite
def _mutated_manifests(draw, inputs: list[str]):
    """A manifest of furstenberg_product at k = 4, or of one of the input
    files, with some of k_range, analyses, slack, seed and its source
    (generator or input) set to a near-valid value three times in four, to
    any JSON value or dropped otherwise; one time in twenty it names both
    sources."""
    fields = {
        "k_range": _K_RANGE,
        "analyses": _ANALYSIS_LIST,
        "slack": _SLACK,
        "seed": hys.integers(-1, 3),
        "generator": _generators(),
        "input": hys.sampled_from(inputs),
    }
    source = draw(hys.sampled_from(["generator", "input"]))
    manifest = {
        "k_range": [4],
        "analyses": ["validate", "incidence"],
        "generator": {"kind": "furstenberg_product", "params": {"s": 0.5}},
        "input": draw(fields["input"]),
    }
    del manifest["input" if source == "generator" else "generator"]
    names = draw(
        hys.lists(hys.sampled_from(["k_range", "analyses", "slack", "seed", source]), min_size=1, unique=True)
    )
    for name in names:
        how = draw(hys.sampled_from(["near"] * 6 + ["any", "drop"]))
        if how == "drop":
            manifest.pop(name, None)
        else:
            manifest[name] = draw(fields[name] if how == "near" else _JSON_VALUE)
    if draw(hys.integers(0, 19)) == 0:
        other = "input" if source == "generator" else "generator"
        manifest[other] = draw(fields[other])
    return manifest


def test_mutated_manifests_never_exit_internal(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifests")
    inputs = [str(root / "missing.json"), str(root)]
    for shape, (build, _) in _SHAPE_INPUTS.items():
        path = root / f"{shape}.json"
        path.write_text(json.dumps(build()))
        inputs.append(str(path))
    (root / "points.json").write_text(json.dumps(grid(2).to_json()))
    inputs.append(str(root / "points.json"))

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(manifest=_mutated_manifests(inputs))
    def check(manifest):
        work = tmp_path_factory.mktemp("run")
        (work / "m.json").write_text(json.dumps({**manifest, "out": str(work / "out")}))
        assert main(["run", "--manifest", str(work / "m.json")]) in {0, 1, 2, 3}

    check()


@pytest.mark.parametrize("slack", [[1], "abc", {}, None, True, "0.5", 10**400])
def test_manifest_slack_must_be_a_number(capsys, tmp_path, slack):
    # read as a generator's numbers are: an int or a float, not a bool; a
    # list, an object, null or a string was exit 4 with a TypeError or
    # ValueError, true or "0.5" ran as 1.0 or 0.5, and an integer too large
    # for a float was exit 4 with an OverflowError
    manifest = {"generator": {"kind": "grid", "params": {}}, "k_range": [2], "analyses": ["validate"]}
    src = tmp_path / "m.json"
    src.write_text(json.dumps({**manifest, "slack": slack, "out": str(tmp_path / "out")}))
    code, out, err = _call(capsys, ["run", "--manifest", str(src)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'slack' must be a number" in err and "Traceback" not in err


# the index-keyed list of each input shape that has one: (build, list, key)
_INDEXED_LISTS = {
    "configuration": (lambda: furstenberg_product(4, 0.5).to_json(), "families", "point_index"),
    "quasi_product": (lambda: quasi_product(4, 0.5, 0.5).to_json(), "slices", "level_index"),
}


@pytest.mark.parametrize(
    "shape, how, message",
    [
        ("configuration", "past", "family references missing point index {n}"),
        ("configuration", "twice", "two families for point index 0"),
        ("configuration", "missing", "no family for point index 0"),
        ("quasi_product", "past", "slice references missing level index {n}"),
        ("quasi_product", "twice", "two slices for level index 0"),
        ("quasi_product", "missing", "no slice for level index 0"),
    ],
)
def test_index_keyed_lists_name_each_slot_once(capsys, tmp_path, shape, how, message):
    build, name, key = _INDEXED_LISTS[shape]
    obj = build()
    entries = obj[name]
    n = len(entries)
    if how == "past":
        entries[0][key] = n
    elif how == "twice":
        entries[1][key] = 0
    else:
        del entries[0]
    src = tmp_path / "in.json"
    src.write_text(json.dumps(obj))
    code, out, err = _call(capsys, ["validate", "--input", str(src)])
    assert (code, out) == (2, "")
    assert message.format(n=n) in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [4.7, True, "4", None])
@pytest.mark.parametrize(
    "what",
    ["points", "configuration", "quasi_product", "tripod", "tubes", "k_range", "seed"],
)
def test_integer_header_fields(capsys, tmp_path, what, bad):
    # k of every input object, and a manifest's k_range entries and seed,
    # must be JSON integers: 4.7 is not read as 4, nor true as 1
    src = tmp_path / "in.json"
    if what == "tubes":  # loaded by the library, not the command line
        obj = TubeFamily.from_index_pairs(Scale(4), [(1, 2)]).to_json()
        with pytest.raises(ParseError):
            TubeFamily.from_json({**obj, "k": bad})
        return
    if what in ("k_range", "seed"):
        manifest = {"generator": {"kind": "grid", "params": {}}, "analyses": ["validate"]}
        manifest.update({"k_range": [2, bad]} if what == "k_range" else {"k_range": [2], "seed": bad})
        src.write_text(json.dumps({**manifest, "out": str(tmp_path / "out")}))
        argv = ["run", "--manifest", str(src)]
    else:
        obj = {
            "points": lambda: grid(2),
            "configuration": lambda: furstenberg_product(4, 0.5),
            "quasi_product": lambda: quasi_product(4, 0.5, 0.5),
            "tripod": lambda: collinear_tripod(4),
        }[what]().to_json()
        src.write_text(json.dumps({**obj, "k": bad}))
        argv = ["validate", "--input", str(src)]
    code, out, err = _call(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["dichotomy", "--kind", "furstenberg_product", "--k", "6", "--s", "0.5", "--slack", "0"],
        ["dichotomy", "--kind", "furstenberg_product", "--k", "6", "--s", "0.5", "--slack", "nan"],
        ["validate", "--kind", "furstenberg_product", "--k", "6", "--s", "0"],
        ["validate", "--kind", "furstenberg_product", "--k", "5", "--s", "0.5"],
        ["validate", "--kind", "grid", "--k", "4", "--s", "0"],
        ["validate", "--kind", "grid", "--k", "4", "--constant", "-1"],
        # the default epsilon 0.25 needs s > 1/4
        ["dichotomy", "--kind", "furstenberg_product", "--k", "8", "--s", "0.25"],
        ["gen", "--kind", "furstenberg_product", "--k", "8", "--s", "0.2"],
    ],
)
def test_out_of_range_argument_is_parse_error(capsys, argv):
    code, out, err = _call(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_slope_net_file_round_trip(capsys, tmp_path):
    src = tmp_path / "sl.json"
    source = ["--k", "6", "--s", "0.5"]
    assert main(["gen", "--kind", "slope_net", *source, "--out", str(src)]) == 0
    from_file = _call(capsys, ["validate", "--input", str(src), *source])
    from_kind = _call(capsys, ["validate", "--kind", "slope_net", *source])
    assert from_file == from_kind
    assert from_file[0] == 0
    # slope values carry no scale, so the file alone is not enough
    code, _, err = _call(capsys, ["validate", "--input", str(src)])
    assert code == 2
    assert "--k" in err


def test_additive_quasi_product(capsys):
    code, out, _ = _call(
        capsys,
        ["additive", "--kind", "quasi_product", "--k", "8", "--s", "0.5", "--tau", "0.5", "--seed", "0"],
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"levels", "slice_pairs", "tube_count", "bsg", "plunnecke"}
    assert obj["plunnecke"]["ok"] is True


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [4, 6])
def test_small_quasi_products_never_exit_internal(capsys, tmp_path, k, seed):
    # a quasi-product with no tube joining two levels fails a hypothesis
    # (exit 3), generated or read from a file, and is never an internal error
    params = ["--k", str(k), "--s", "0.5", "--tau", "0.4", "--seed", str(seed)]
    src = tmp_path / "qp.json"
    assert _call(capsys, ["gen", "--kind", "quasi_product", *params, "--out", str(src)])[0] == 0
    for command in ("validate", "additive"):
        generated = _call(capsys, [command, "--kind", "quasi_product", *params])
        from_file = _call(capsys, [command, "--input", str(src)])
        assert generated[0] == from_file[0] in (0, 3)
        if generated[0] == 3:
            witness = json.loads(generated[1])
            assert witness["hypothesis"] == "joined_levels"
            assert witness["witness"]["level_count"] == 2 ** int(k * 0.4)
            assert json.loads(from_file[1]) == witness


def test_quasi_product_without_joined_levels_is_a_hypothesis_failure(capsys):
    code, out, _ = _call(
        capsys, ["validate", "--kind", "quasi_product", "--k", "4", "--s", "0.5", "--tau", "0.4"]
    )
    assert code == 3
    assert json.loads(out) == {
        "hypothesis": "joined_levels",
        "message": "no tube joins two distinct levels",
        "witness": {"level_count": 2, "tube_count": 8},
    }


def test_quasi_product_whose_steep_tubes_meet_a_slice_twice_fails_steepness(capsys, tmp_path):
    # one level of 20 points 2^-7 apart at k = 6: its own steep tubes meet
    # that slice twice, and it joins no two levels; the defining steepness
    # hypothesis is checked first, so it is the one reported
    from tubelab.additive import QuasiProduct

    D = DyadicRational
    qp = QuasiProduct.from_slices(Scale(6), 0.5, 0.5, (D(0, 0),), (tuple(D(v, 7) for v in range(20)),))
    src = tmp_path / "qp.json"
    src.write_text(json.dumps(qp.to_json()))
    for command in ("validate", "additive"):
        code, out, _ = _call(capsys, [command, "--input", str(src)])
        assert code == 3
        assert json.loads(out) == {
            "hypothesis": "tube_slice_multiplicity",
            "message": "a tube meets two points of one slice",
            "witness": {"tube_cell": [64, -10], "level_index": 0},
        }


def test_one_slice_incidence_map_per_quasi_product(capsys, tmp_path, monkeypatch):
    import tubelab.additive as additive_module
    import tubelab.manifest as manifest_module

    calls = []
    real = additive_module.slice_incidences

    def counted(qp, tubes):
        calls.append(qp.scale.k)
        return real(qp, tubes)

    # wherever the package binds it, so a recomputation inside the
    # additive functions is counted too
    for module in (additive_module, manifest_module):
        monkeypatch.setattr(module, "slice_incidences", counted)
    mf = tmp_path / "m.json"
    generator = {"kind": "quasi_product", "params": {"s": 0.5, "tau": 0.4}}
    analyses = ["validate", "additive"]
    mf.write_text(
        json.dumps({"generator": generator, "k_range": [8, 10], "analyses": analyses, "out": str(tmp_path / "out")})
    )
    assert _call(capsys, ["run", "--manifest", str(mf)])[0] == 0
    assert calls == [8, 10]
    calls.clear()
    argv = ["additive", "--kind", "quasi_product", "--k", "8", "--s", "0.5", "--tau", "0.4", "--seed", "1"]
    assert _call(capsys, argv)[0] == 0
    assert calls == [8]


@pytest.mark.parametrize("exp, code", [(46, 0), (50, 2)])
def test_quasi_product_finer_than_the_window_envelope_is_refused(capsys, tmp_path, exp, code):
    # the array intercept window is exact while m + k <= 56: at k = 10 a
    # slice value on the 2^-46 grid is read, one on the 2^-50 grid refused
    obj = quasi_product(10, 0.5, 0.4, seed=0).to_json()
    value = DyadicRational(*obj["slices"][0]["values"][0]) + DyadicRational(1, exp)
    obj["slices"][0]["values"][0] = list(value.pair())
    src = tmp_path / "qp.json"
    src.write_text(json.dumps(obj))
    mf = tmp_path / "m.json"
    analyses = ["validate", "additive"]
    mf.write_text(json.dumps({"input": str(src), "k_range": [10], "analyses": analyses, "out": str(tmp_path / "out")}))
    for argv in (["validate", "--input", str(src)], ["additive", "--input", str(src)], ["run", "--manifest", str(mf)]):
        result, out, err = _call(capsys, argv)
        assert result == code
        if code == 2:
            assert out == ""
            assert "2^-46 grid or coarser, got 2^-50" in err


def _repeated_slice_value(obj: dict) -> None:
    obj["slices"][0]["values"].append(obj["slices"][0]["values"][0])


def _slice_value_past_four(obj: dict) -> None:
    obj["slices"][0]["values"][0] = [9, 1]  # 4.5: inside [-8, 8], outside [-4, 4]


def _slice_value_past_the_window(obj: dict) -> None:
    value = DyadicRational(*obj["slices"][0]["values"][0]) + DyadicRational(1, 55)
    obj["slices"][0]["values"][0] = value.pair()


@pytest.mark.parametrize(
    "change, message",
    [
        (_repeated_slice_value, "duplicate point"),
        (_slice_value_past_four, "outside [-4, 4]"),
        (_slice_value_past_the_window, "needs coordinates on the 2^-50 grid or coarser"),
    ],
    ids=["repeated", "past_four", "past_the_window"],
)
def test_malformed_quasi_product_files_exit_2(capsys, tmp_path, change, message):
    # each slice point is checked as a point set is, when the file is read:
    # a repeated value or one outside [-4, 4] was exit 3 from validate and
    # additive and exit 4 from a run with the sweep; a value past the
    # membership envelope is refused by the first tube kernel
    obj = quasi_product(6, 0.5, 0.4, seed=1).to_json()
    change(obj)
    src = tmp_path / "qp.json"
    src.write_text(json.dumps(obj))
    mf = tmp_path / "m.json"
    out = tmp_path / "out"
    analyses = ["validate", "additive", "sweep"]
    mf.write_text(json.dumps({"input": str(src), "k_range": [6], "analyses": analyses, "out": str(out)}))
    for argv in (["validate", "--input", str(src)], ["additive", "--input", str(src)], ["run", "--manifest", str(mf)]):
        code, stdout, err = _call(capsys, argv)
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (out / "witness.json").exists()


_PROBE = "import sys\nfrom tubelab.cli import main\ncode = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)\n"


def test_commands_never_import_numpy_ma(tmp_path):
    # the first np.unique call in a process imports numpy.ma, about 15 ms
    # cold: no command of the benchmarked shapes may pay that
    import tubelab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(tubelab.__file__).parents[1]), *sys.path]))
    mf = tmp_path / "m.json"
    generator = {"kind": "quasi_product", "params": {"s": 0.5, "tau": 0.4}}
    analyses = ["validate", "additive", "sweep"]
    mf.write_text(
        json.dumps({"generator": generator, "k_range": [8, 10], "analyses": analyses, "out": str(tmp_path / "run")})
    )
    project = ["project", "--kind", "furstenberg_product", "--k", "8", "--s", "0.5", "--energy-s", "1.0", "--audit"]
    for argv in (["run", "--manifest", str(mf)], [*project, "--out", str(tmp_path / "sweep.csv")]):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def test_import_loads_no_executor_or_statistics():
    # every command pays for what `import tubelab.cli` loads: the energy
    # starts its own threads and the sweep computes its own quartiles
    import tubelab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(tubelab.__file__).parents[1]), *sys.path]))
    probe = "import sys, tubelab, tubelab.cli\nprint(sorted({'concurrent.futures', 'queue', 'statistics'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


def _fresh(probe: str, **env_vars: str | None) -> str:
    """The last line a probe prints in a fresh process that imports tubelab
    from this checkout, with the given variables set or (None) unset."""
    import tubelab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(tubelab.__file__).parents[1]), *sys.path]))
    for name, value in env_vars.items():
        env.pop(name, None) if value is None else env.update({name: value})
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_threads():
    # the OpenBLAS that numpy bundles starts a pool of spinning threads at
    # import unless told to use one; the command line tells it
    probe = "import os, tubelab.cli\nprint(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(probe, OPENBLAS_NUM_THREADS=None) == "1 1"


def test_cli_keeps_a_blas_thread_count_the_user_set():
    probe = "import os, tubelab.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(probe, OPENBLAS_NUM_THREADS="2") == "2"


def test_import_tubelab_loads_no_numpy_and_no_submodule():
    probe = "import sys, tubelab\nprint(sorted(m for m in sys.modules if m.startswith(('numpy', 'tubelab.'))))"
    assert _fresh(probe) == "[]"


def test_every_exported_name_imports_from_the_package():
    probe = (
        "import importlib, tubelab\n"
        "for name in tubelab.__all__:\n"
        "    scope = {}\n"
        "    exec(f'from tubelab import {name}', scope)\n"
        "    home = importlib.import_module(f'tubelab.{tubelab._HOME[name]}')\n"
        "    assert scope[name] is getattr(home, name) is getattr(tubelab, name), name\n"
        "    assert name in dir(tubelab), name\n"
        "from tubelab import incidence\n"
        "print(len(tubelab.__all__), incidence.__name__, hasattr(tubelab, 'no_such_name'))"
    )
    assert _fresh(probe) == "65 tubelab.incidence False"


def test_cli_import_loads_no_dataclasses():
    # dataclasses compile their methods with exec at every import; records
    # build theirs from closures (core_grid.record)
    assert _fresh("import sys, tubelab.cli\nprint('dataclasses' in sys.modules)") == "False"


def test_dim_fit(capsys):
    code, out, _ = _call(capsys, ["dim", "--kind", "grid", "--k", "4", "--k", "6"])
    assert code == 0
    obj = json.loads(out)
    assert obj["slope"] == pytest.approx(2.0)
    assert obj["samples"] == [[4, 256], [6, 4096]]


def test_dim_needs_two_scales(capsys):
    code, _, err = _call(capsys, ["dim", "--kind", "grid", "--k", "4"])
    assert code == 2
    assert "twice" in err


def test_dim_rejects_tripod(capsys):
    code, _, err = _call(capsys, ["dim", "--kind", "collinear_tripod", "--k", "4", "--k", "6"])
    assert code == 2
    assert "fixed size" in err


def test_unknown_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "mystery", "--k", "4"])
    assert exc.value.code == 2


def test_run_manifest(capsys, tmp_path):
    m = ExperimentManifest(
        generator_kind="grid",
        generator_params={},
        k_range=(4,),
        analyses=("validate",),
        out=str(tmp_path / "ignored"),
    )
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps(m.to_json()))
    out_dir = tmp_path / "real"
    code, _, _ = _call(capsys, ["run", "--manifest", str(mf), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report_k4.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_manifest_parse_errors(capsys, tmp_path):
    code, _, err = _call(capsys, ["run", "--manifest", str(tmp_path / "none.json")])
    assert code == 2
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _call(capsys, ["run", "--manifest", str(bad)])
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "change, field",
    [
        ({}, None),
        ({"input": None}, None),  # a null input means no input
        ({"out": None}, "'out'"),
        ({"out": 5}, "'out'"),
        ({"out": True}, "'out'"),
        ({"analyses": {"validate": 1}}, "'analyses'"),
        ({"analyses": "validate"}, "'analyses'"),
        ({"analyses": ["validate", 1]}, "'analyses'"),
        ({"input": 5}, "'input'"),
        ({"generator": {"kind": 5}}, "'generator.kind'"),
        ({"out": ""}, "'out'"),  # Path("") is the current directory
    ],
)
def test_run_refuses_manifest_fields_of_the_wrong_type(capsys, tmp_path, monkeypatch, change, field):
    monkeypatch.chdir(tmp_path)
    source = {} if change.get("input") is not None else {"generator": {"kind": "grid", "params": {}}}
    obj = {**source, "k_range": [4], "analyses": ["validate"], "out": "good", **change}
    Path("m.json").write_text(json.dumps(obj))
    code, out, err = _call(capsys, ["run", "--manifest", "m.json"])
    if field is None:
        assert code == 0 and Path("good", "report_k4.json").exists()
        return
    assert (code, out) == (2, "") and field in err and "Traceback" not in err
    assert not any(Path(name).exists() for name in ("None", "5", "True", "good", "manifest.json"))


def test_run_refuses_an_empty_out_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    obj = {"generator": {"kind": "grid", "params": {}}, "k_range": [3], "analyses": ["validate"], "out": "good"}
    Path("m.json").write_text(json.dumps(obj))
    code, out, err = _call(capsys, ["run", "--manifest", "m.json", "--out", ""])
    assert (code, out) == (2, "") and "'out'" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_run_manifest_default_epsilon_is_checked(capsys, tmp_path):
    mf = tmp_path / "m.json"
    mf.write_text(
        json.dumps(
            {
                "generator": {"kind": "furstenberg_product", "params": {"s": 0.25}},
                "k_range": [8],
                "analyses": ["dichotomy"],
                "out": str(tmp_path / "out"),
            }
        )
    )
    code, out, err = _call(capsys, ["run", "--manifest", str(mf)])
    assert code == 2
    assert out == ""
    assert "epsilon=0.25 (the default) must lie in (0, min(s, 1/2))" in err
    assert not (tmp_path / "out").exists()


# separated, but its last point lies on the 2^-30 grid
_TOO_FINE_POINTS = {"k": 2, "points": [[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [805306369, 30, 1, 0]]}


def test_run_exits_as_validate_on_too_fine_input(capsys, tmp_path):
    # the ball counts' DyadicOverflowError is bad input from a manifest too
    # (it was exit 4 there, with a witness)
    src = tmp_path / "fine.json"
    src.write_text(json.dumps(_TOO_FINE_POINTS))
    mf = tmp_path / "m.json"
    out_dir = tmp_path / "out"
    mf.write_text(
        json.dumps({"input": str(src), "k_range": [2], "analyses": ["validate"], "out": str(out_dir)})
    )
    for argv in (["validate", "--input", str(src)], ["run", "--manifest", str(mf)]):
        code, out, err = _call(capsys, argv)
        assert (code, out) == (2, "")
        assert "2^-27 grid or coarser, got 2^-30" in err
    assert not out_dir.exists()


def test_run_refused_during_its_analyses_creates_no_directory(capsys, tmp_path):
    # an input that cannot be read is found only when the analyses start
    mf = tmp_path / "m.json"
    out_dir = tmp_path / "o"
    obj = {"input": str(tmp_path / "nope.json"), "k_range": [3], "analyses": ["validate"], "out": str(out_dir)}
    mf.write_text(json.dumps(obj))
    code, out, err = _call(capsys, ["run", "--manifest", str(mf)])
    assert (code, out) == (2, "") and "cannot read input" in err
    assert not out_dir.exists()


# its last point, 1 + 2^-28, lies on the 2^-28 grid
_ENERGY_TOO_FINE_POINTS = {"k": 2, "points": [[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [268435457, 28, 1, 0]]}


def test_project_energy_refuses_input_finer_than_its_keys(capsys, tmp_path):
    # the energy's int64 difference keys hold to the 2^-27 grid: a finer
    # input is bad input (exit 2) with --energy-s, and the sweep alone,
    # which needs no keys, still runs on it
    src = tmp_path / "fine.json"
    src.write_text(json.dumps(_ENERGY_TOO_FINE_POINTS))
    out_csv = tmp_path / "sweep.csv"
    code, out, err = _call(capsys, ["project", "--input", str(src), "--energy-s", "1", "--out", str(out_csv)])
    assert (code, out) == (2, "")
    assert "projection energy needs coordinates on the 2^-27 grid or coarser, got 2^-28" in err
    assert not out_csv.exists()
    code, out, err = _call(capsys, ["project", "--input", str(src), "--out", str(out_csv)])
    assert code == 0
    assert json.loads(out)["n_points"] == 4
    assert out_csv.read_text().startswith("angle,count,energy\n")


def test_unseparated_input_finer_than_ball_counts_is_refused(capsys, tmp_path):
    # the 2^-27 refusal comes before separation, so a set that fails
    # separation and holds a 2^-30 point is refused (exit 2), not a
    # "separation" verdict (exit 1, or exit 3 in a configuration)
    cfg = furstenberg_product(8, 0.5)
    p = cfg.points.points[-1]
    q = DyadicPoint(p.x + DyadicRational(1, 30), p.y)
    fam = TubeFamily(cfg.scale, tuple(keys_through(q, 8, range(0, 1 << 8, 3))))
    points = PointSet(cfg.scale, cfg.points.points + (q,))
    cfg = configuration_of(points, cfg.families + (fam,), cfg.s, cfg.epsilon)
    with pytest.raises(DyadicOverflowError, match=r"2\^-27 grid or coarser, got 2\^-30"):
        validate_configuration(cfg)
    src = tmp_path / "points.json"
    src.write_text(json.dumps(points.to_json()))
    code, out, err = _call(capsys, ["validate", "--input", str(src)])
    assert (code, out) == (2, "")
    assert "2^-27 grid or coarser, got 2^-30" in err


@pytest.mark.parametrize("fault", ["hypothesis", "internal"])
def test_run_prints_the_witness_it_writes(capsys, tmp_path, monkeypatch, fault):
    out_dir = tmp_path / "out"
    manifest = {"k_range": [4], "out": str(out_dir)}
    if fault == "hypothesis":
        manifest.update(input=str(_degenerate_config_file(tmp_path)), analyses=["dichotomy"])
        expected = 3
    else:
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("tubelab.manifest.validate", boom)
        manifest.update(generator={"kind": "grid", "params": {}}, analyses=["validate"])
        expected = 4
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps(manifest))
    code, out, err = _call(capsys, ["run", "--manifest", str(mf)])
    assert code == expected
    assert out == (out_dir / "witness.json").read_text()
    assert json.loads((out_dir / "meta.json").read_text())["exit_code"] == expected
    if fault == "internal":
        assert json.loads(out) == {"error": "RuntimeError", "message": "boom", "stage": "validate"}
        assert "internal error: RuntimeError: boom" in err
    else:
        assert json.loads(out)["hypothesis"] == "slope_set_frostman"


@pytest.mark.parametrize("command", ["gen", "project", "run"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, command):
    # a directory that does not exist; for run, whose directory is made, a
    # path through a file
    dest = tmp_path / "missing" / "x"
    if command == "gen":
        argv = ["gen", "--kind", "grid", "--k", "2"]
    elif command == "project":
        argv = ["project", "--kind", "grid", "--k", "3"]
    else:
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps({"generator": {"kind": "grid"}, "k_range": [2], "analyses": ["validate"]}))
        argv, dest = ["run", "--manifest", str(mf)], mf / "out"
    code, out, err = _call(capsys, [*argv, "--out", str(dest)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"k": 4, "points": []}, "holds no points"),
        ({"values": []}, "holds no points"),
        ({"k": 4, "s": 0.5, "epsilon": 0.25, "points": [], "families": []}, "holds no points"),
        ({**quasi_product(4, 0.5, 0.5).to_json(), "s": 4}, "s=4.0 must lie in (0, 1]"),
        (
            {"k": 4, "tube": [1, 0, 1, 2], "points": [[-1, 4, 3, 4], [1, 3, 7, 4], [1, 3, 7, 4]]},
            "three distinct levels",
        ),
        *(
            ({**quasi_product(4, 0.5, 0.5).to_json(), "tau": tau}, f"tau={float(tau)} must lie in (0, 1]")
            for tau in (math.nan, math.inf, 0, 1.5)
        ),
        *(
            ({**obj, name: value}, f"{name!r} must be a number")
            for obj, names in (
                (furstenberg_product(4, 0.5).to_json(), ("s", "epsilon")),
                (quasi_product(4, 0.5, 0.5).to_json(), ("s", "tau")),
            )
            for name in names
            for value in ("0.5", True, 10**400)
        ),
    ],
)
def test_inputs_the_fuzz_found_are_parse_errors(capsys, tmp_path, obj, message):
    # each was exit 4: ValidationError from validate, GeneratorError from the
    # slope net, or a tripod projection dividing by a zero level gap; a
    # quasi-product tau outside (0, 1], NaN and Infinity included since
    # json.load reads them, was exit 0, read and run. A number field that is
    # a string or a boolean ran as float() read it, exit 0, and an integer
    # too large for a float was exit 4 with OverflowError
    src = tmp_path / "in.json"
    src.write_text(json.dumps(obj))
    code, out, err = _call(capsys, ["validate", "--input", str(src), "--k", "4"])
    assert (code, out) == (2, "")
    assert message in err


def test_log_level_env(monkeypatch):
    root = logging.getLogger()
    saved_handlers, saved_level = root.handlers[:], root.level
    try:
        for name, want in _LOG_LEVELS.items():
            root.handlers.clear()
            monkeypatch.setenv("TUBELAB_LOG", name.upper())
            _setup_logging()
            assert root.level == want
        root.handlers.clear()
        monkeypatch.setenv("TUBELAB_LOG", "whatever")
        _setup_logging()
        assert root.level == logging.WARNING
    finally:
        root.handlers[:] = saved_handlers
        root.setLevel(saved_level)


# --- one dispatch: subcommands agree with manifest runs ---

_GEN_PARAMS = {
    "grid": {},
    "cantor_grid": {"s": 0.5},
    "slope_net": {"s": 0.5},
    "furstenberg_product": {"s": 0.5},
    "quasi_product": {"s": 0.5, "tau": 0.5},
    "collinear_tripod": {},
}
_COMMAND = {
    "validate": "validate",
    "incidence": "incidence",
    "dichotomy": "dichotomy",
    "sweep": "project",
    "additive": "additive",
}


def _applicable_kinds(analysis):
    return [kind for kind, shape in _KIND_SHAPE.items() if shape in _ANALYSIS_SHAPES[analysis]]


@pytest.mark.parametrize(
    "kind, analysis", [(kind, a) for a in ANALYSES for kind in _applicable_kinds(a)]
)
def test_subcommand_exit_code_matches_manifest_verdict(capsys, tmp_path, kind, analysis):
    k = 6
    m = ExperimentManifest(
        generator_kind=kind,
        generator_params=_GEN_PARAMS[kind],
        k_range=(k,),
        analyses=(analysis,),
        out=str(tmp_path / "run"),
    )
    expected = run(m)
    # the same object, checked against the profile the manifest uses for its kind
    if kind == "slope_net":  # slope values have no input file format
        source = ["--kind", kind, "--k", str(k)]
    else:
        src = tmp_path / "obj.json"
        gen_flags = [f"--{name}={value}" for name, value in _GEN_PARAMS[kind].items()]
        assert main(["gen", "--kind", kind, "--k", str(k), *gen_flags, "--out", str(src)]) == 0
        source = ["--input", str(src)]
    s, constant = _natural_profile(kind, _GEN_PARAMS[kind])
    profile = ["--s", str(s), "--constant", str(constant)] if analysis == "validate" else []
    code, _, _ = _call(capsys, [_COMMAND[analysis], *source, *profile])
    assert code == expected
    if expected in (0, 1):
        report = json.loads((tmp_path / "run" / f"report_k{k}.json").read_text())
        assert report["analyses"][analysis]["verdict"] == ("pass" if code == 0 else "fail")


def _kind_choices(command):
    commands = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    return next(a for a in commands[command]._actions if a.dest == "kind").choices


@pytest.mark.parametrize("analysis", ANALYSES)
def test_kind_choices_follow_shape_tables(analysis):
    assert _kind_choices(_COMMAND[analysis]) == _applicable_kinds(analysis)


def test_gen_and_dim_accept_every_kind():
    assert _kind_choices("gen") == _kind_choices("dim") == list(_KIND_SHAPE)
