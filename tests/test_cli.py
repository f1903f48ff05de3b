import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodev.cli
from geodev.cli import dump_json, main, run_converge
from geodev.equations import EquationId
from geodev.errors import ConfigError
from geodev.scenarios import (LINEAR_DRIFT_MASSES, ScenarioSpec, build, family_names,
                              list_scenarios)
from geodev.kinematics import worldline
from geodev.transport import DEFAULT_ODE_CONFIG, TransportLaw

from oracles import scipy_transport

TORSION_CONFIG = {
    "scenario": "flat-torsion",
    "params": {"torsion_c": 0.3},
    "run": {
        "s_eval": 0.15,
        "epsilon_ladder": [1e-1, 5e-2, 2e-2, 1e-2, 5e-3],
        "equations": ["E4_4", "E3_1", "E5_2"],
    },
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if "wall_time" not in k}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


# ------------------------------------------------------------------ list

def test_list_contains_all_families(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    listed = json.loads(out)
    names = [entry["name"] for entry in listed]
    for name in ("flat-euclidean/ruled", "flat-euclidean/quadratic",
                 "flat-torsion", "sphere", "minkowski", "offset-transport",
                 "exp-transport"):
        assert name in names
    assert len(names) == 7


def test_list_stable_across_runs(capsys):
    main(["list"])
    first = capsys.readouterr().out
    main(["list"])
    second = capsys.readouterr().out
    assert first == second


def test_parser_built_once_gives_the_same_answers_on_repeated_calls(capsys):
    # the parser is built once per process; parsing, a usage error included,
    # must leave it as it was, so every call answers as a first call would
    calls = (["list"], ["converge", "--no-such-flag"], ["list"],
             ["inspect", "--what", "torsion"])

    def run_all():
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    first = run_all()
    assert [code for code, _, _ in first] == [0, 2, 0, 2]
    assert first[2] == first[0]
    assert "the following arguments are required: --config" in first[3][2]
    assert run_all() == first
    assert geodev.cli._build_parser() is geodev.cli._build_parser()


# -------------------------------------------------------------- converge

def test_converge_passes_on_torsion_config(tmp_path, capsys):
    cfg = write_config(tmp_path, TORSION_CONFIG)
    out = tmp_path / "out"
    code = main(["converge", "--config", cfg, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    by_eq = {rep["equation"]: rep for rep in report["reports"]}
    assert by_eq["E4_4"]["fitted_order"] >= 1.9
    assert by_eq["E5_2"]["fitted_order"] >= 1.9
    assert by_eq["E3_1"]["floor_detected"] is True
    csv_lines = (out / "samples.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "equation,scenario,s,epsilon,residual_norm,wall_time_ms"
    assert len(csv_lines) - 1 == 3 * 5  # |equations| x |ladder|


def test_converge_progress_lines_in_configured_order(tmp_path, capsys):
    cfg = write_config(tmp_path, TORSION_CONFIG)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["E4_4", "E3_1", "E5_2"]
    assert lines[1] == ("E3_1   flat-torsion               order=   n/a "
                        "r2=   n/a [floor]")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_converge_failed_write_keeps_previous_outputs(tmp_path, monkeypatch,
                                                       capsys):
    # outputs are renamed into place: when the rename fails, the files of
    # the previous run stay whole and no temp file is left behind
    cfg = write_config(tmp_path, TORSION_CONFIG)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["report.json", "samples.csv"]

    def failing_replace(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(geodev.cli.os, "replace", failing_replace)
    code = main(["converge", "--config", cfg, "--out", str(out), "--quiet",
                 "--order-threshold", "3.5"])
    monkeypatch.undo()
    assert code == 2
    assert "io error" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_failed_temp_write_leaves_both_outputs_as_they_were(tmp_path, monkeypatch,
                                                             capsys):
    # both temp files are written before either is renamed: when the second
    # write fails, neither output is replaced and no temp file is left behind
    cfg = write_config(tmp_path, TORSION_CONFIG)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    other = write_config(tmp_path, dict(TORSION_CONFIG, params={"torsion_c": 0.5}),
                         "other.json")
    written, write_text = [], Path.write_text

    def second_write_fails(path, *args, **kwargs):
        written.append(path.name)
        if len(written) == 2:
            raise OSError(f"no space left for {path.name}")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", second_write_fails)
    code = main(["converge", "--config", other, "--out", str(out), "--quiet"])
    monkeypatch.undo()
    assert code == 2
    assert "io error: no space left" in capsys.readouterr().err
    assert [name.split(".")[1] for name in written] == ["samples", "report"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_converge_rejects_a_non_finite_threshold_before_any_study(
        tmp_path, monkeypatch, capsys, threshold):
    cfg = write_config(tmp_path, TORSION_CONFIG)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def no_study(*args, **kwargs):
        raise AssertionError("a study ran")

    monkeypatch.setattr(geodev.cli, "convergence_study", no_study)
    code = main(["converge", "--config", cfg, "--out", str(out), "--quiet",
                 f"--order-threshold={threshold}"])
    assert code == 2
    assert "--order-threshold (keyword threshold) must be finite" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    fresh = tmp_path / "fresh"
    assert main(["converge", "--config", cfg, "--out", str(fresh),
                 f"--order-threshold={threshold}"]) == 2
    assert not fresh.exists()
    with pytest.raises(ConfigError, match="keyword threshold"):
        run_converge(TORSION_CONFIG, threshold=float(threshold))


def test_unwritable_result_leaves_both_outputs_as_they_were(tmp_path):
    # both texts are built before either file is written: a payload value
    # that cannot be written (here a NaN in the report) must not leave a new
    # samples.csv beside the old report.json
    out = tmp_path / "out"
    geodev.cli._write_outputs(str(out), run_converge(TORSION_CONFIG))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    result = run_converge(TORSION_CONFIG)
    result["payload"]["order_threshold"] = math.nan
    result["rows"] = [row[:4] + (row[4] * 2, row[5]) for row in result["rows"]]
    with pytest.raises(ConfigError, match="non-finite float nan"):
        geodev.cli._write_outputs(str(out), result)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_converge_exact_identity_never_fails_threshold(tmp_path):
    config = {
        "scenario": "sphere",
        "params": {"mass_drift_s": 0.1, "mass_drift_r": 0.2},
        "run": {"equations": ["E5_1"],
                "epsilon_ladder": [1e-1, 5e-2, 2e-2, 1e-2, 5e-3]},
    }
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main(["converge", "--config", cfg, "--out", str(out),
                 "--order-threshold", "99"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["reports"][0]["exact"] is True


def test_converge_fails_on_unreachable_threshold(tmp_path):
    cfg = write_config(tmp_path, TORSION_CONFIG)
    out = tmp_path / "out"
    code = main(["converge", "--config", cfg, "--out", str(out),
                 "--order-threshold", "3.5"])
    assert code == 1


def test_converge_unknown_scenario_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "moebius"})
    out = tmp_path / "out"
    code = main(["converge", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert not out.exists()  # no output files on config errors


def test_converge_unknown_key_exits_2(tmp_path, capsys):
    config = dict(TORSION_CONFIG)
    config["typo"] = 1
    cfg = write_config(tmp_path, config)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "typo" in capsys.readouterr().err


def test_converge_rejects_a_bare_equation_id():
    # EquationId is a str enum; a bare id is not the array of ids the
    # config asks for (convergence_study itself raises TypeError on one)
    config = {"scenario": "flat-torsion", "run": {"equations": EquationId.E4_4}}
    with pytest.raises(ConfigError, match="'equations' must be a non-empty array"):
        run_converge(config)


def test_converge_unknown_equation_exits_2(tmp_path, capsys):
    config = {"scenario": "sphere", "run": {"equations": ["E9_9"]}}
    cfg = write_config(tmp_path, config)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "E9_9" in capsys.readouterr().err


def test_converge_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["converge", "--config", str(path), "--out",
                 str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("text, named", [
    (None, "cannot read config"),  # no such file
    (b"\xff\xfe{}", "cannot read config"),  # not UTF-8
    (b"[1, 2]", "config root must be an object"),
    (b'{"params": {}}', "'scenario'"),
    (b'{"scenario": 3}', "'scenario'"),
    (b'{"scenario": "sphere", "params": [1.0]}', "'params'"),
    (b'{"scenario": "sphere", "run": []}', "'run'"),
    (b'{"scenario": "sphere", "run": {"tolerances": 1e-10}}', "'tolerances'"),
    (b'{"scenario": "sphere", "params": {"radius": "1.0"}}', "parameter 'radius'"),
    (b'{"scenario": "sphere", "params": {"radius": true}}', "parameter 'radius'"),
])
def test_load_config_rejections_exit_2_naming_the_key(tmp_path, capsys, text, named):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_bytes(text)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and named in captured.err
    if text is None:
        assert str(path) in captured.err
    assert not out.exists()


HUGE = 10**400  # a JSON integer too large for a float
TOO_LARGE = {
    "tilt": ({"scenario": "sphere", "params": {"tilt": HUGE}}, "parameter 'tilt'"),
    "negative-tilt": ({"scenario": "sphere", "params": {"tilt": -HUGE}}, "parameter 'tilt'"),
    "dim": ({"scenario": "flat-euclidean/ruled", "params": {"dim": HUGE}}, "parameter 'dim'"),
    "over-4300-digits": ('{"scenario": "sphere", "params": {"tilt": ' + "1" * 5000 + "}}",
                         "config is not valid JSON"),
    "epsilon-ladder": ({"scenario": "sphere",
                        "run": {"epsilon_ladder": [HUGE, 0.1, 0.05, 0.02, 0.01]}},
                       "'epsilon_ladder' entries must be finite"),
}


@pytest.mark.parametrize("command, case", [
    *((command, case) for command in ("converge", "inspect")
      for case in TOO_LARGE if case != "epsilon-ladder"),
    ("converge", "epsilon-ladder")])  # inspect reads no ladder
def test_an_integer_too_large_for_a_float_exits_2_naming_the_key(tmp_path, capsys, command,
                                                                 case):
    # range checks compare before float(), which would raise OverflowError
    config, named = TOO_LARGE[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)] if command == "converge"
                else ["inspect", "--config", str(cfg), "--what", "torsion"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("config error: ") and named in captured.err
    assert not out.exists()


def test_converge_ladder_outside_domain_exits_2(tmp_path, capsys):
    config = {"scenario": "sphere",
              "run": {"epsilon_ladder": [0.5, 0.25, 0.1, 0.05, 0.02]}}
    cfg = write_config(tmp_path, config)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "epsilon ladder" in capsys.readouterr().err


@pytest.mark.parametrize("s_eval,code", [(0.495, 2), (0.47, 0)])
def test_converge_stencil_reach_checked_up_front(tmp_path, capsys, s_eval,
                                                 code):
    # E6_3 differentiates h - zeta twice with step 0.01, so it evaluates the
    # sphere surface (s-domain [-0.5, 0.5]) out to s_eval +/- 0.02; the
    # study's first read past the end, the pull-back at s_eval + 0.01, is
    # the config error, before any output
    config = {"scenario": "sphere", "params": {},
              "run": {"s_eval": s_eval, "equations": ["E6_3"]}}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--quiet"]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert "s_eval 0.495" in err and f"s = {0.495 + 0.01}" in err
        assert not out.exists()
    else:
        assert (out / "report.json").exists()


@pytest.mark.parametrize("eq,s_eval,s", [
    ("E3_1", 0.499995, 0.499995 + 1e-5), ("E3_1", -0.499995, -0.499995 - 1e-5),
    ("E6_3", 0.49, 0.49 + 0.01 + 0.01), ("E6_3", -0.495, -0.495 - 0.01)])
def test_converge_s_eval_too_close_to_an_edge_exits_2(tmp_path, capsys, eq, s_eval, s):
    # E3_1 reads the surface at s_eval +/- 1e-5 and E6_3 its pull-backs out
    # to s_eval +/- 0.02: an s_eval inside the sphere's s-domain [-0.5, 0.5]
    # that leaves its s-differences no room exits 2, naming s_eval and the
    # first s read outside, and writes nothing
    cfg = write_config(tmp_path, {"scenario": "sphere",
                                  "run": {"s_eval": s_eval, "equations": [eq]}})
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"config error: s_eval {s_eval} ")
    assert f"s = {s} outside surface s-domain" in captured.err
    assert not out.exists()


def test_converge_non_decreasing_ladder_exits_2(tmp_path):
    config = {"scenario": "sphere",
              "run": {"epsilon_ladder": [0.1, 0.2, 0.05, 0.02, 0.01]}}
    cfg = write_config(tmp_path, config)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("ladder,message", [
    ([0.1, 0.05, 0.02, 0.01], "'epsilon_ladder' needs at least 5 points, got 4"),
    ([0.1, 0.05, 0.02, 0.01, 0.0], "'epsilon_ladder' entries must be positive"),
    ([0.1, math.nan, 0.02, 0.01, 0.005], "'epsilon_ladder' entries must be positive"),
    ([0.1, 0.05, 0.05, 0.02, 0.01], "'epsilon_ladder' must be strictly decreasing"),
    ([0.1, 0.05, "0.02", 0.01, 0.005], "'epsilon_ladder' must be an array of numbers"),
    ([0.1, 0.05, True, 0.01, 0.005], "'epsilon_ladder' must be an array of numbers")],
    ids=["too-short", "non-positive", "nan-entry", "not-decreasing", "string-entry",
         "bool-entry"])
def test_converge_bad_ladder_names_epsilon_ladder(tmp_path, capsys, ladder,
                                                  message):
    # the rules live in equations.checked_ladder; the cli only checks the
    # JSON types and names the config key
    cfg = write_config(tmp_path, {"scenario": "sphere",
                                  "run": {"epsilon_ladder": ladder}})
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_converge_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # on flat-torsion one Magnus step meets rel_tol 1e-13 within max_steps
    # 1, so the built scenario's law gets a fast-varying term: the
    # back-transport solve rejects its one allowed step and raises a genuine
    # TransportError
    build = geodev.cli.build

    def fast_varying(spec):
        sc = build(spec)
        wiggle = np.ones((sc.dimension,) * 3)
        return replace(sc, law=TransportLaw(lambda us, path, coords: (
            sc.law.coeffs_at(us, path, coords)
            + 5.0 * np.sin(200.0 * np.array(us))[:, None, None, None] * wiggle)))

    monkeypatch.setattr(geodev.cli, "build", fast_varying)
    config = dict(TORSION_CONFIG)
    config["run"] = dict(config["run"])
    config["run"]["tolerances"] = {"rel_tol": 1e-13, "abs_tol": 1e-14,
                                   "max_steps": 1}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main(["converge", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("run,key", [
    ({"tolerances": {"rel_tol": None}}, "'run.tolerances.rel_tol'"),
    ({"tolerances": {"rel_tol": math.nan}}, "'run.tolerances.rel_tol'"),
    ({"tolerances": {"rel_tol": True}}, "'run.tolerances.rel_tol'"),
    ({"tolerances": {"abs_tol": -1e-12}}, "'run.tolerances.abs_tol'"),
    ({"tolerances": {"max_steps": 1.5}}, "'run.tolerances.max_steps'"),
    ({"tolerances": {"max_steps": 10**400}}, "'run.tolerances.max_steps'"),
    ({"s_eval": "abc"}, "'run.s_eval'"),
    ({"r_base": "x"}, "'run.r_base'"),
    ({"s_eval": 0.9}, "s_eval 0.9 outside s-domain"),
    ({"tolerances": {"rel_tol": 1e-16}}, "'run.tolerances.rel_tol'"),
])
def test_converge_bad_run_value_exits_2(tmp_path, capsys, run, key):
    config = {"scenario": "sphere", "run": dict(run, equations=["E4_3"])}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_tolerance_defaults_and_integral_max_steps():
    assert geodev.cli._parse_tolerances({}) == DEFAULT_ODE_CONFIG
    cfg = geodev.cli._parse_tolerances({"tolerances": {"max_steps": 1e3}})
    assert cfg.max_steps == 1000 and isinstance(cfg.max_steps, int)


def test_converge_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, TORSION_CONFIG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["converge", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        outs.append(out)
    rep_a = json.loads((outs[0] / "report.json").read_text())
    rep_b = json.loads((outs[1] / "report.json").read_text())
    assert strip_timing(rep_a) == strip_timing(rep_b)
    csv_a = (outs[0] / "samples.csv").read_text().splitlines()
    csv_b = (outs[1] / "samples.csv").read_text().splitlines()
    strip_cols = lambda lines: [",".join(ln.split(",")[:5]) for ln in lines]
    assert strip_cols(csv_a) == strip_cols(csv_b)


# A config drawn from a family's published schema, with r_base and s_eval
# anywhere in the surface's domains (edges included), runs or is rejected
# with a message naming what is out of range; it never exits 3 or raises.
SCHEMAS = {entry["name"]: entry["parameters"] for entry in list_scenarios()}
PROPERTY_LADDER = [1e-2, 5e-3, 2e-3, 1e-3, 5e-4]


@st.composite
def schema_configs(draw, name, equations=("E4_3",)):
    params = {key: draw(st.integers(int(spec["min"]), int(spec["max"]))
                        if key == "dim" else st.floats(spec["min"], spec["max"]))
              for key, spec in SCHEMAS[name].items()}
    run = {"equations": list(equations), "epsilon_ladder": PROPERTY_LADDER}
    surf = build(ScenarioSpec(name)).surface
    for key, (lo, hi) in (("r_base", surf.r_domain), ("s_eval", surf.s_domain)):
        value = draw(st.one_of(st.none(), st.sampled_from((lo, hi)),
                               st.floats(lo, hi)))
        if value is not None:
            run[key] = value
    return {"scenario": name, "params": params, "run": run}


def assert_runs_or_names_the_bad_value(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["converge", "--config", cfg, "--out",
                         str(Path(tmp) / "out"), "--quiet"])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        named = ("r_base", "s_eval", "epsilon ladder", *config["params"])
        assert any(key in err.getvalue() for key in named), err.getvalue()


@pytest.mark.parametrize("name", family_names())
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_converge_schema_config_runs_or_names_the_bad_value(name, data):
    assert_runs_or_names_the_bad_value(data.draw(schema_configs(name)))


@pytest.mark.parametrize("name", family_names())
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_converge_schema_config_all_sixteen_runs_or_names_the_bad_value(name, data):
    equations = [eq.value for eq in EquationId]
    assert_runs_or_names_the_bad_value(data.draw(schema_configs(name, equations)))


# --------------------------------------------------------------- inspect

def test_inspect_torsion_flat_torsion(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "flat-torsion",
                                  "params": {"torsion_c": 0.3}})
    assert main(["inspect", "--config", cfg, "--what", "torsion"]) == 0
    out = json.loads(capsys.readouterr().out)
    t = np.array(out["components"])
    assert t[0, 1, 0] == pytest.approx(0.3)
    assert t[0, 0, 1] == pytest.approx(-0.3)


def test_inspect_curvature_flat_is_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "flat-euclidean/ruled"})
    assert main(["inspect", "--config", cfg, "--what", "curvature"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(out["components"])).max() == 0.0


def test_inspect_transport_latitude_rotation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "sphere"})
    theta0 = math.pi / 4
    assert main(["inspect", "--config", cfg, "--what", "transport",
                 "--latitude", str(theta0)]) == 0
    out = json.loads(capsys.readouterr().out)
    mat = np.array(out["components"])
    alpha = 2 * math.pi * math.cos(theta0)
    expected = np.array([
        [math.cos(alpha), math.sin(alpha) * math.sin(theta0)],
        [-math.sin(alpha) / math.sin(theta0), math.cos(alpha)],
    ])
    assert np.abs(mat - expected).max() < 1e-6


@pytest.mark.parametrize("flags, frm, to", [
    (["--from-s", "0.4", "--to-s", "-0.3"], 0.4, -0.3),
    ([], -0.5, 0.5),  # the worldline's whole domain
])
def test_inspect_worldline_transport_matches_scipy(tmp_path, capsys, flags, frm, to):
    # the transport along particle 1's worldline: offset-transport's
    # generator varies along it, so the solve takes many steps; it matches
    # the SciPy oracle (DOP853 at rtol 3e-14) within the default rel_tol of
    # max(1, |entry|) at each entry
    cfg = write_config(tmp_path, {"scenario": "offset-transport"})
    assert main(["inspect", "--config", cfg, "--what", "transport"] + flags) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["from"], out["to"]) == (frm, to)
    sc = build(ScenarioSpec("offset-transport"))
    ref = scipy_transport(sc.law, worldline(sc, 1), frm, to, np.eye(sc.dimension))
    err = np.abs(np.array(out["components"]) - ref)
    assert np.all(err <= DEFAULT_ODE_CONFIG.rel_tol * np.maximum(1.0, np.abs(ref)))


def test_inspect_latitude_requires_sphere_chart(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "minkowski"})
    code = main(["inspect", "--config", cfg, "--what", "transport",
                 "--latitude", "0.7"])
    assert code == 2


def test_inspect_s_tensor_offset(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "offset-transport",
                                  "params": {"sigma": 0.25}})
    assert main(["inspect", "--config", cfg, "--what", "s-tensor"]) == 0
    out = json.loads(capsys.readouterr().out)
    s = np.array(out["components"])
    assert s[0, 1, 1] == pytest.approx(0.25, abs=1e-12)


def test_inspect_point_dimension_check(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "sphere"})
    code = main(["inspect", "--config", cfg, "--what", "torsion",
                 "--point", "1.0"])
    assert code == 2


@pytest.mark.parametrize("flags, named", [
    (["--what", "torsion", "--point", "0", "0"], "--point"),
    (["--what", "curvature", "--point", "0", "0"], "--point"),
    (["--what", "transport", "--latitude", "0"], "--latitude"),
    (["--what", "transport", "--latitude", "nan"], "--latitude"),
    (["--what", "transport", "--from-s", "0.9"], "--from-s"),
    (["--what", "s-tensor", "--at-s", "0.9"], "--at-s"),
    # flags the chosen --what does not read
    (["--what", "s-tensor", "--point", "0", "0"], "--point"),
    (["--what", "torsion", "--latitude", "5"], "--latitude"),
    (["--what", "curvature", "--from-s", "0.1"], "--from-s"),
    (["--what", "transport", "--at-s", "0.1"], "--at-s"),
    (["--what", "transport", "--latitude", "0.7", "--from-s", "0.1"],
     "--from-s"),
    (["--what", "transport", "--latitude", "0.7", "--to-s", "0.1"], "--to-s"),
    (["--what", "torsion", "--point", "1", "0", "--at-s", "0.1"], "--at-s"),
])
def test_inspect_bad_argument_exits_2_naming_the_flag(tmp_path, capsys, flags,
                                                       named):
    cfg = write_config(tmp_path, {"scenario": "sphere"})
    assert main(["inspect", "--config", cfg] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert named in captured.err


def test_inspect_at_custom_point(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "sphere"})
    assert main(["inspect", "--config", cfg, "--what", "curvature",
                 "--point", "1.5707963267948966", "0.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    r = np.array(out["components"])
    assert r[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-9)


def test_missing_subcommand_exits_2():
    assert main([]) == 2


def test_cli_import_loads_no_scipy():
    # NumPy is the only run-time dependency and the stepper is the package's
    # own, so a cold start loads no SciPy module; SciPy is a test dependency
    src = str(Path(geodev.cli.__file__).resolve().parents[1])
    probe = "import geodev.cli, sys; print('scipy' in sys.modules)"
    # -B: the child's environment drops PYTHONDONTWRITEBYTECODE, and the
    # suite must not leave a bytecode cache in src/
    out = subprocess.run([sys.executable, "-B", "-c", probe], capture_output=True,
                         text=True, check=True, cwd=src,
                         env={"PYTHONPATH": src}).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("module", ["geodev", "geodev.cli", "geodev.equations",
                                    "geodev.geometry", "geodev.kinematics",
                                    "geodev.scenarios", "geodev.transport"])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is gone breaks
    # ``from geodev import *`` and misleads readers of the public surface
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


# ------------------------------------------------------------- serializer

def test_dump_json_round_trips_17_digits():
    payload = {"x": 0.1, "y": [1e-17, 123456789.123456789], "n": None,
               "b": True, "k": 7}
    text = dump_json(payload)
    parsed = json.loads(text)
    assert parsed["x"] == 0.1
    assert parsed["y"][0] == 1e-17
    assert parsed["y"][1] == 123456789.123456789
    assert parsed["n"] is None
    assert parsed["b"] is True
    assert parsed["k"] == 7


def test_dump_json_sorted_keys():
    text = dump_json({"zeta": 1, "alpha": 2})
    assert text.index("alpha") < text.index("zeta")


# a payload with every kind of leaf the writer takes, and its text as
# recorded from a writer that formatted every float anew: the memo of float
# and key texts must not change a byte
PINNED_PAYLOAD = {
    "reports": [{"fitted_order": 1.9996401320466666, "fit_r2": 0.9999999888930624,
                 "floor_detected": False, "n_fit_points": np.int64(7),
                 "epsilon_ladder": [0.1, 0.05, 0.02], "exact": True,
                 "samples": [{"epsilon": 1e-3, "residual_norm": 0.0},
                             {"epsilon": 5e-3, "residual_norm": -0.0}]}],
    "zeros": (0.0, -0.0, 0.0), "big": [1e15, -1e15, 1e16, 123456789.0, 2.5e-300],
    "np": [np.float64(0.1), np.float64(-0.0), np.float32(0.5), np.int64(-3)],
    "text": 'say "hi" µ', "none": None, "empty": [{}, [], ()],
    "keys": {3: "int key", 10: True},
}
PINNED_TEXT = r'''{
  "big": [
    1000000000000000.0,
    -1000000000000000.0,
    10000000000000000,
    123456789.0,
    2.5e-300
  ],
  "empty": [
    {},
    [],
    []
  ],
  "keys": {
    "3": "int key",
    "10": true
  },
  "none": null,
  "np": [
    0.10000000000000001,
    -0.0,
    0.5,
    -3
  ],
  "reports": [
    {
      "epsilon_ladder": [
        0.10000000000000001,
        0.050000000000000003,
        0.02
      ],
      "exact": true,
      "fit_r2": 0.99999998889306241,
      "fitted_order": 1.9996401320466666,
      "floor_detected": false,
      "n_fit_points": 7,
      "samples": [
        {
          "epsilon": 0.001,
          "residual_norm": 0.0
        },
        {
          "epsilon": 0.0050000000000000001,
          "residual_norm": -0.0
        }
      ]
    }
  ],
  "text": "say \"hi\" \u00b5",
  "zeros": [
    0.0,
    -0.0,
    0.0
  ]
}'''


def test_dump_json_text_is_pinned():
    assert dump_json(PINNED_PAYLOAD) == PINNED_TEXT
    assert dump_json([1.5, {"a": []}], indent=1) == '[\n    1.5,\n    {\n      "a": []\n    }\n  ]'


@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
def test_writer_keeps_the_sign_of_zero(tmp_path, order):
    # 0.0 == -0.0 and both hash alike: a memo of float texts must not give
    # the second the text of the first, in report.json or in samples.csv
    a, b = order
    texts = [repr(a), repr(b)]
    assert json.loads(dump_json([a, b]), parse_float=str) == texts
    result = run_converge(TORSION_CONFIG)
    rows, report = result["rows"], result["payload"]["reports"][0]
    rows[:2] = [rows[0][:2] + (a, b, a) + rows[0][5:], rows[1][:2] + (b, a, b) + rows[1][5:]]
    report["s_eval"] = a
    report["samples"][:2] = [dict(report["samples"][0], epsilon=b, residual_norm=a),
                             dict(report["samples"][1], epsilon=a, residual_norm=b)]
    geodev.cli._write_outputs(str(tmp_path), result)
    csv = (tmp_path / "samples.csv").read_text().splitlines()[1:3]
    assert [line.split(",")[2:5] for line in csv] == [[texts[0], texts[1], texts[0]],
                                                      [texts[1], texts[0], texts[1]]]
    got = json.loads((tmp_path / "report.json").read_text(), parse_float=str)["reports"][0]
    assert got["s_eval"] == texts[0]
    assert [[smp["epsilon"], smp["residual_norm"]] for smp in got["samples"][:2]] == [
        [texts[1], texts[0]], [texts[0], texts[1]]]


def with_floats(obj, values: list):
    """``obj`` with its float leaves, in the writer's order, taken in turn
    from ``values``, where an entry None keeps the leaf as it is."""
    if isinstance(obj, dict):
        return {key: with_floats(obj[key], values) for key in sorted(obj)}
    if isinstance(obj, list):
        return [with_floats(value, values) for value in obj]
    if type(obj) is float:
        values.append(values.pop(0))
        return obj if values[-1] is None else values[-1]
    return obj


def test_report_text_is_the_writers_text_of_the_payload(tmp_path):
    # report.json is filled into fixed templates: it must be, byte for
    # byte, what the writer makes of the same payload, on cells with a
    # fitted order, a floor equation (fitted_order and fit_r2 null) and an
    # exact one, with signed zeros, integral floats and 1e15 / 1e16 (the
    # edges of "%.1f") moved through every float of the payload
    cells = [("flat-torsion", {}, "E4_4"), ("flat-torsion", {}, "E3_1"),
             ("offset-transport", LINEAR_DRIFT_MASSES, "E5_1"), ("sphere", {}, "E6_3")]
    payloads = []
    for name, params, eq in cells:
        result = run_converge({"scenario": name, "params": dict(params),
                               "run": {"equations": [eq]}})
        payloads.append(result["payload"])
        result["payload"] = with_floats(result["payload"], [0.0, -0.0, 2.0, 1e15, 1e16, None])
        geodev.cli._write_outputs(str(tmp_path / name / eq), result)
        text = (tmp_path / name / eq / "report.json").read_text()
        assert text == dump_json(result["payload"]) + "\n"
    assert [rep["fitted_order"] is None for p in payloads for rep in p["reports"]] == [
        False, True, True, False]
    for payload in payloads:
        for shift in range(6):
            special = [0.0, -0.0, 2.0, 1e15, 1e16, None]
            injected = with_floats(payload, special[shift:] + special[:shift])
            assert geodev.cli._report_text(injected, geodev.cli._Texts()) == dump_json(injected)


def test_converge_into_an_existing_directory_makes_no_failing_file_calls(tmp_path,
                                                                         monkeypatch):
    # the output directory is made only when it is missing, and the temp
    # files are unlinked only when a write or a rename fails: into an
    # existing directory, a converge makes neither call
    cfg = write_config(tmp_path, TORSION_CONFIG)
    out = tmp_path / "out"
    argv = ["converge", "--config", cfg, "--out", str(out), "--quiet"]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    calls = []
    for name in ("mkdir", "unlink"):
        def recording(path, *args, name=name, call=getattr(os, name), **kwargs):
            calls.append((name, str(path)))
            return call(path, *args, **kwargs)
        monkeypatch.setattr(os, name, recording)
    assert main(argv) == 0
    monkeypatch.undo()
    assert calls == []
    after = {p.name: strip_timing(json.loads(p.read_text())) if p.suffix == ".json"
             else p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(before) == ["report.json", "samples.csv"]
    assert after["report.json"] == strip_timing(json.loads(before["report.json"]))


@pytest.mark.parametrize("value, text", [
    (1e15, "1000000000000000.0"), (-1e15, "-1000000000000000.0"),
    (1e16, "10000000000000000"), (-1e16, "-10000000000000000"),
    (1e15 + 0.5, "1000000000000000.5"), (2.0**53, "9007199254740992.0"),
    (np.float64(3.0), "3.0"), (np.float64(0.1), "0.10000000000000001"),
    (np.int64(3), "3"), (np.int64(-2**40), str(-2**40))])
def test_writer_integral_and_numpy_values(value, text):
    # integral floats below 1e16 keep one decimal; at and above it %.17g
    assert dump_json([value]) == f"[\n  {text}\n]"
    assert dump_json({"v": value, "w": [value]}) == (
        f'{{\n  "v": {text},\n  "w": [\n    {text}\n  ]\n}}')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                   np.float64(-math.inf)])
def test_writer_rejects_non_finite_floats(value):
    for payload in (value, [value], {"x": value}, [1.0, {"y": [value]}]):
        with pytest.raises(ConfigError, match="non-finite"):
            dump_json(payload)
