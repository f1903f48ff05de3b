"""Command-line front end.

``converge`` runs residual convergence studies from a JSON config and writes
``samples.csv`` plus ``report.json``; ``inspect`` prints geometric objects of
a configured scenario as JSON; ``list`` prints the scenario registry.

The config file is the single source of scientific truth; flags only control
reporting.  Exit codes: 0 success, 1 failed order threshold, 2 bad
config/arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .equations import (DEFAULT_LADDER, ConvergenceReport, EquationId,
                        checked_ladder, convergence_study)
from .errors import ConfigError, DomainError, EvaluationError, GeodevError
from .geometry import ChartPoint, PathCurve, curvature_at, torsion_at
from .kinematics import Scenario, worldline
from .scenarios import ScenarioSpec, build, list_scenarios
from .transport import (DEFAULT_ODE_CONFIG, OdeConfig, s_tensor,
                        transport_matrix)

__all__ = ["main", "run_converge", "dump_json"]

DEFAULT_ORDER_THRESHOLD = 1.9


# ----------------------------------------------------------- deterministic IO

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ConfigError(f"cannot serialize non-finite float {x}")
    if x.is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


class _Texts(dict):
    """The text of each float, and of each dict key with its colon, formatted
    once per call.  No zero is kept: 0.0 and -0.0 are one key, two texts."""

    def __missing__(self, x) -> str:
        text = json.dumps(x) + ": " if type(x) is str else _format_float(x)
        if x:
            self[x] = text
        return text


def _write_json(obj, pad: str, out: List[str], texts: _Texts) -> None:
    """Append the JSON text of ``obj``, indented from ``pad``, to ``out``;
    float leaves of a dict or list are written inline."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(texts[float(obj)])
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not len(obj):
            out.append("{}" if is_dict else "[]")
            return
        inner, sep = pad + "  ", "{\n" if is_dict else "[\n"
        for key in sorted(obj) if is_dict else range(len(obj)):
            head = sep + inner + texts[str(key)] if is_dict else sep + inner
            value = obj[key]
            if type(value) is float:  # most values of a report
                out.append(head + texts[value])
            else:
                out.append(head)
                _write_json(value, inner, out, texts)
            sep = ",\n"
        out.append(f"\n{pad}}}" if is_dict else f"\n{pad}]")
    else:
        raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits;
    one writer appends every piece to one list."""
    out: List[str] = []
    _write_json(obj, "  " * indent, out, _Texts())
    return "".join(out)


# the writer's text of the fixed keys of a payload, a report and a sample, "%s" per value
_PAYLOAD, _REPORT, _SAMPLE = (dump_json(keys, indent).replace("0", "%s") for keys, indent in (
    (dict(config=0, order_threshold=0, reports=0, tolerances=dict(abs_tol=0, rel_tol=0),
          total_wall_time_ms=0, versions=dict(geodev=0, numpy=0)), 0),
    (dict.fromkeys("epsilon_ladder equation exact fit_r2 fitted_order floor_detected "
                   "n_fit_points s_eval samples scenario".split(), 0), 2),
    (dict.fromkeys(("epsilon", "residual_norm", "wall_time_ms"), 0), 4)))


def _report_text(payload: dict, texts: _Texts) -> str:
    """``dump_json(payload)`` for a ``run_converge`` payload, from the
    templates; ``config`` (the user's keys) and ``order_threshold`` (an int
    if the caller gave one) go through ``_write_json``."""
    def array(items, pad):  # a JSON array of the texts items, one a line, closed at pad
        return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]" if items else "[]"

    bool_text, float_text = ("false", "true"), lambda x: "null" if x is None else texts[x]
    reports = [_REPORT % (
        array([texts[e] for e in rep["epsilon_ladder"]], "      "),
        json.dumps(rep["equation"]), bool_text[rep["exact"]], float_text(rep["fit_r2"]),
        float_text(rep["fitted_order"]), bool_text[rep["floor_detected"]],
        rep["n_fit_points"], texts[rep["s_eval"]],
        array([_SAMPLE % (texts[smp["epsilon"]], texts[smp["residual_norm"]],
                          texts[smp["wall_time_ms"]]) for smp in rep["samples"]], "      "),
        json.dumps(rep["scenario"])) for rep in payload["reports"]]
    config, threshold = [], []
    _write_json(payload["config"], "  ", config, texts)
    _write_json(payload["order_threshold"], "", threshold, texts)
    tol, versions = payload["tolerances"], payload["versions"]
    return _PAYLOAD % ("".join(config), *threshold, array(reports, "  "), texts[tol["abs_tol"]],
                       texts[tol["rel_tol"]], texts[payload["total_wall_time_ms"]],
                       json.dumps(versions["geodev"]), json.dumps(versions["numpy"]))


# ------------------------------------------------------------- config parsing

_RUN_KEYS = {"s_eval", "r_base", "epsilon_ladder", "equations", "tolerances"}
_TOL_KEYS = ("rel_tol", "abs_tol", "max_steps")


def _require_keys(mapping: dict, allowed, context: str) -> None:
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    _require_keys(config, {"scenario", "params", "run"}, "config")
    if "scenario" not in config or not isinstance(config["scenario"], str):
        raise ConfigError("config requires a 'scenario' name")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object of numbers")
    for key, value in params.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"parameter '{key}' must be a number")
    run = config.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("'run' must be an object")
    _require_keys(run, _RUN_KEYS, "'run'")
    tolerances = run.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object")
    _require_keys(tolerances, _TOL_KEYS, "'run.tolerances'")
    return config


def _parse_equations(run: dict) -> List[EquationId]:
    names = run.get("equations")
    if names is None:
        return list(EquationId)
    if not isinstance(names, list) or not names:
        raise ConfigError("'equations' must be a non-empty array of ids")
    out = []
    for name in names:
        try:
            out.append(EquationId(name))
        except ValueError:
            known = ", ".join(e.value for e in EquationId)
            raise ConfigError(f"unknown equation id '{name}' (known: {known})")
    return out


def _parse_ladder(run: dict) -> tuple:
    ladder = run.get("epsilon_ladder")
    if ladder is None:
        return DEFAULT_LADDER
    if not isinstance(ladder, list) or not all(
            isinstance(e, (int, float)) and not isinstance(e, bool) for e in ladder):
        raise ConfigError("'epsilon_ladder' must be an array of numbers")
    try:
        return checked_ladder(ladder)
    except ValueError as exc:  # checked_ladder names the parameter first
        key, _, rest = str(exc).partition(" ")
        raise ConfigError(f"'{key}' {rest}") from None


def _number(value, key: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
    return float(value)


def _parse_tolerances(run: dict) -> OdeConfig:
    tol = run.get("tolerances", {})
    values = {key: _number(tol.get(key, getattr(DEFAULT_ODE_CONFIG, key)),
                           f"run.tolerances.{key}") for key in _TOL_KEYS}
    if values["max_steps"] != int(values["max_steps"]):
        raise ConfigError("'run.tolerances.max_steps' must be an integer, "
                          f"got {values['max_steps']!r}")
    values["max_steps"] = int(values["max_steps"])
    try:
        return OdeConfig(**values)
    except ValueError as exc:  # OdeConfig names the field first
        key, _, rest = str(exc).partition(" ")
        raise ConfigError(f"'run.tolerances.{key}' {rest}") from None


def _scenario_from_config(config: dict) -> Scenario:
    run = config.get("run", {})
    r_base, s_eval = (None if run.get(key) is None
                      else _number(run[key], f"run.{key}")
                      for key in ("r_base", "s_eval"))
    return build(ScenarioSpec(name=config["scenario"],
                              parameters=config.get("params", {}),
                              r_base=r_base, s_eval=s_eval))


# ----------------------------------------------------------------- converge

def _report_payload(report: ConvergenceReport, s_eval: float) -> dict:
    return {
        "equation": report.eq.value,
        "scenario": report.scenario_label,
        "s_eval": s_eval,
        "exact": report.exact,
        "floor_detected": report.floor_detected,
        "fitted_order": report.fitted_order,
        "fit_r2": report.fit_r2,
        "n_fit_points": report.n_fit_points,
        "epsilon_ladder": list(report.epsilon_ladder),
        "samples": [
            {"epsilon": smp.epsilon, "residual_norm": smp.residual_norm,
             "wall_time_ms": smp.wall_time * 1e3}
            for smp in report.samples
        ],
    }


def _report_status(report: ConvergenceReport, threshold: float) -> str:
    if report.exact:
        return "exact"
    if report.fitted_order is None:
        return "floor"
    return "ok" if report.fitted_order >= threshold else "fail"


def run_converge(config: dict, threshold: float = DEFAULT_ORDER_THRESHOLD,
                 stream=None) -> dict:
    """Run the configured studies and return the full result payload plus
    the csv rows; raises GeodevError subclasses on failure.  One progress
    line per equation goes to ``stream`` unless it is None."""
    if not math.isfinite(threshold):
        raise ConfigError(f"--order-threshold (keyword threshold) must be finite, got {threshold}")
    scenario = _scenario_from_config(config)
    run = config.get("run", {})
    equations = _parse_equations(run)
    ladder = _parse_ladder(run)
    cfg = _parse_tolerances(run)
    s_eval = scenario.s_eval
    try:
        scenario.separation_endpoints(max(ladder))
    except GeodevError as exc:
        raise ConfigError(f"epsilon ladder incompatible with scenario: {exc}")

    started = time.perf_counter()
    try:
        reports = convergence_study(equations, scenario, s_eval, ladder, cfg)
    except DomainError as exc:  # an s-difference read past an end of the s-domain
        raise ConfigError(f"s_eval {s_eval} leaves the s-differences no room: {exc}") from None
    total = (time.perf_counter() - started) * 1e3
    if stream is not None:
        for report in reports:
            status = _report_status(report, threshold)
            order = ("n/a" if report.fitted_order is None
                     else f"{report.fitted_order:.3f}")
            r2 = "n/a" if report.fit_r2 is None else f"{report.fit_r2:.4f}"
            print(f"{report.eq.value:6s} {scenario.label:26s} order={order:>6s} "
                  f"r2={r2:>6s} [{status}]", file=stream)

    payload = {
        "config": config,
        "order_threshold": threshold,
        "reports": [_report_payload(rep, s_eval) for rep in reports],
        "tolerances": {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol},
        "versions": {"geodev": __version__, "numpy": np.__version__},
        "total_wall_time_ms": total,
    }
    rows = [(rep.eq.value, rep.scenario_label, smp.s, smp.epsilon,
             smp.residual_norm, smp.wall_time * 1e3)
            for rep in reports for smp in rep.samples]
    failed = any(_report_status(rep, threshold) == "fail" for rep in reports)
    return {"payload": payload, "rows": rows, "failed": failed}


def _write_outputs(outdir: str, result: dict) -> None:
    """Build both texts, with one memo of float texts, then write both temp
    files, then rename both: a value or a temp file that cannot be written
    leaves both files as they were, and no temp file is left behind."""
    texts = _Texts()
    lines = ["equation,scenario,s,epsilon,residual_norm,wall_time_ms"]
    for eq, label, s, eps, norm, ms in result["rows"]:
        lines.append(f"{eq},{label},{texts[s]},{texts[eps]},{texts[norm]},{ms:.3f}")
    report = _report_text(result["payload"], texts)
    if not os.path.isdir(outdir):
        Path(outdir).mkdir(parents=True, exist_ok=True)
    files = {"samples.csv": "\n".join(lines) + "\n", "report.json": report + "\n"}
    tmps = {name: Path(outdir, f".{name}.{os.getpid()}.tmp") for name in files}
    try:
        for name, text in files.items():
            tmps[name].write_text(text)
        for name, tmp in tmps.items():
            os.replace(tmp, os.path.join(outdir, name))
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def cmd_converge(args) -> int:
    config = load_config(args.config)
    result = run_converge(config, threshold=args.order_threshold,
                          stream=None if args.quiet else sys.stdout)
    _write_outputs(args.out, result)
    return 1 if result["failed"] else 0


# ------------------------------------------------------------------- inspect

def _latitude_points(thetas: np.ndarray, ts: np.ndarray):
    """The latitude circles' (coords, velocity) at each (theta, t) row."""
    return np.column_stack((thetas, ts)), np.repeat([[0.0, 1.0]], len(ts), axis=0)


def _latitude_path(theta0: float) -> PathCurve:
    return PathCurve(lambda t: (np.array([theta0, t]), np.array([0.0, 1.0])),
                     (0.0, 2.0 * math.pi), along=(_latitude_points, theta0))


# the flags each --what reads; the first one, when given, excludes the rest
_INSPECT_READS = {"torsion": ("point", "at_s"), "curvature": ("point", "at_s"),
                  "s-tensor": ("at_s",), "transport": ("latitude", "from_s", "to_s")}


def cmd_inspect(args) -> int:
    reads = _INSPECT_READS[args.what]
    if getattr(args, reads[0]) is not None:
        reads = reads[:1]
    flags = ("point", "at_s", "from_s", "to_s", "latitude")
    names = {flag: "--" + flag.replace("_", "-") for flag in flags}
    for flag, name in names.items():
        if getattr(args, flag) is not None and flag not in reads:
            raise ConfigError(f"{name} is not read by --what {args.what} (it reads "
                              f"{', '.join(names[r] for r in reads)})")
    config = load_config(args.config)
    scenario = _scenario_from_config(config)
    line = worldline(scenario, 1)
    for flag in ("at_s", "from_s", "to_s"):
        try:
            if getattr(args, flag) is not None:
                line.require(getattr(args, flag))
        except DomainError as exc:
            raise ConfigError(f"{names[flag]}: {exc}") from None
    at_s = scenario.s_eval if args.at_s is None else args.at_s
    if args.point is not None and len(args.point) != scenario.dimension:
        raise ConfigError(f"--point needs {scenario.dimension} coordinates")

    out: Dict[str, object] = {"what": args.what, "scenario": scenario.label}
    if args.what in ("torsion", "curvature"):
        operation = torsion_at if args.what == "torsion" else curvature_at
        try:
            point = (line.map(at_s) if args.point is None
                     else ChartPoint(np.asarray(args.point, float)))
            out["components"] = operation(scenario.conn, point).tolist()
        except (DomainError, EvaluationError) as exc:
            if args.point is None:
                raise
            raise ConfigError(f"--point {args.point}: {exc}") from None
        out["point"] = point.coords.tolist()
    elif args.what == "s-tensor":
        out["at_s"] = at_s
        out["point"] = line.map(at_s).coords.tolist()
        out["components"] = s_tensor(scenario.law, scenario.conn, line,
                                     at_s).tolist()
    else:  # transport
        if args.latitude is not None:
            if scenario.label not in ("sphere", "offset-transport"):
                raise ConfigError(
                    "--latitude transport needs a sphere-chart scenario")
            if not 0.0 < args.latitude < math.pi:
                raise ConfigError(
                    f"--latitude must lie in (0, pi), got {args.latitude!r}")
            path = _latitude_path(args.latitude)
            frm, to = 0.0, 2.0 * math.pi
        else:
            frm = line.domain[0] if args.from_s is None else args.from_s
            to = line.domain[1] if args.to_s is None else args.to_s
            path = line
        mat = transport_matrix(scenario.law, path, frm, to)
        out["from"] = frm
        out["to"] = to
        out["components"] = mat.tolist()
    print(dump_json(out))
    return 0


def cmd_list(_args) -> int:
    print(dump_json(list_scenarios()))
    return 0


# ---------------------------------------------------------------------- main

@functools.cache  # built once per process; parsing leaves it as is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodev",
        description="Numerical verification harness for deviation equations "
                    "in spaces with a linear transport along paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", help="run convergence studies")
    conv.add_argument("--config", required=True, help="JSON config path")
    conv.add_argument("--out", required=True, help="output directory")
    conv.add_argument("--order-threshold", type=float,
                      default=DEFAULT_ORDER_THRESHOLD,
                      help="minimum fitted order for exit success")
    conv.add_argument("--quiet", action="store_true",
                      help="suppress per-equation progress lines")
    conv.set_defaults(func=cmd_converge)

    insp = sub.add_parser("inspect", help="print geometric objects as JSON")
    insp.add_argument("--config", required=True)
    insp.add_argument("--what", required=True,
                      choices=["torsion", "curvature", "s-tensor", "transport"])
    insp.add_argument("--point", type=float, nargs="+",
                      help="chart coordinates (default: worldline point)")
    insp.add_argument("--at-s", type=float, default=None,
                      help="worldline parameter for the evaluation point")
    insp.add_argument("--from-s", type=float, default=None)
    insp.add_argument("--to-s", type=float, default=None)
    insp.add_argument("--latitude", type=float, default=None,
                      help="transport around a full latitude circle")
    insp.set_defaults(func=cmd_inspect)

    lst = sub.add_parser("list", help="list registered scenario families")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeodevError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
