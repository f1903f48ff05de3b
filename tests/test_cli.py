import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodev.cli
from geodev.cli import dump_json, main, run_converge
from geodev.equations import EquationId
from geodev.errors import ConfigError
from geodev.scenarios import ScenarioSpec, build, family_names, list_scenarios
from geodev.transport import DEFAULT_ODE_CONFIG

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
    # sphere surface (s-domain [-0.5, 0.5]) out to s_eval +/- 0.02
    config = {"scenario": "sphere", "params": {},
              "run": {"s_eval": s_eval, "equations": ["E6_3"]}}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--quiet"]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert "E6_3" in err and "s = 0.515" in err
        assert not out.exists()
    else:
        assert (out / "report.json").exists()


def test_converge_non_decreasing_ladder_exits_2(tmp_path):
    config = {"scenario": "sphere",
              "run": {"epsilon_ladder": [0.1, 0.2, 0.05, 0.02, 0.01]}}
    cfg = write_config(tmp_path, config)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_converge_numerical_failure_exits_3(tmp_path, capsys):
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
def schema_configs(draw, name):
    params = {key: draw(st.integers(int(spec["min"]), int(spec["max"]))
                        if key == "dim" else st.floats(spec["min"], spec["max"]))
              for key, spec in SCHEMAS[name].items()}
    run = {"equations": ["E4_3"], "epsilon_ladder": PROPERTY_LADDER}
    surf = build(ScenarioSpec(name)).surface
    for key, (lo, hi) in (("r_base", surf.r_domain), ("s_eval", surf.s_domain)):
        value = draw(st.one_of(st.none(), st.sampled_from((lo, hi)),
                               st.floats(lo, hi)))
        if value is not None:
            run[key] = value
    return {"scenario": name, "params": params, "run": run}


@pytest.mark.parametrize("name", family_names())
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_converge_schema_config_runs_or_names_the_bad_value(name, data):
    config = data.draw(schema_configs(name))
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
