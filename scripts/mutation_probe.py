"""Mutation probe of the residual formulas: does the acceptance gate see
every term?

    python3 scripts/mutation_probe.py

Reads ``src/geodev/equations.py`` of this checkout and makes one mutant per
site in its targets, the ``_r_e*`` residual formulas and the workspace
methods ``d_zeta``, ``df_dr``, ``d_metric``, ``cov_fd``, ``d_torsion``,
``d_s_tensor`` and ``d_ds``, the one central difference.  A mutant changes
one thing:

* ``flip``: one ``+`` into ``-`` or back;
* ``negate``: the left operand of one ``+`` or ``-`` gets a minus sign (the
  right one is the flip);
* ``swap``: two vector slots of one ``bilinear``, ``torsion_apply`` or
  ``curvature_apply`` call trade places (every pair of distinct arguments).

Each mutant is compiled into a fresh copy of the module and judged by the
acceptance gate on the cells of ``EQUATION_SCENARIOS`` and on the generic
cell of ``tests/generic_cell.py``: criterion 5 (fitted order at least 1.9
with r^2 at least 0.98, or every residual below 1e-10 when no order is
fitted) on the cells of the mutant's own equation, or of every equation for
a workspace method, and criterion 4 (the momentum identity below 1e-9 on
every family and on the generic cell at eps 1e-1, 1e-2, 1e-3) for E5_1.  A
mutant is killed when a cell fails or raises.  The run is deterministic and
takes about 6 s on a 2-core x86-64 host.  A name of ``WORKSPACE_TARGETS``
that is not a method of ``_Workspace`` ends the run with exit status 1 and
names it, before any mutant is made.

The known survivors are recorded in ``scripts/mutation_survivors.txt``, one
per line as the probe prints them.  After its report the probe names each
recorded survivor that is now killed, each recorded survivor whose site is
gone (no mutant of this checkout has its line), and each survivor that is
not recorded; it exits 1 when there is one of the latter, so that a change
to the formulas or to the workspace methods it mutates cannot hide a term
from the gate.  A change that kills a recorded survivor, or removes its
site, removes its line.
"""

from __future__ import annotations

import ast
import copy
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from geodev.equations import EquationId, equation_info  # noqa: E402
from geodev.scenarios import (EQUATION_SCENARIOS, LINEAR_DRIFT_MASSES,  # noqa: E402
                              ScenarioSpec, build, family_names)
from generic_cell import generic_scenario  # noqa: E402

SOURCE = ROOT / "src" / "geodev" / "equations.py"
RECORDED = Path(__file__).resolve().parent / "mutation_survivors.txt"
WORKSPACE_TARGETS = ("d_zeta", "df_dr", "d_metric", "cov_fd", "d_torsion", "d_s_tensor",
                     "d_ds")
VECTOR_CALLS = ("bilinear", "torsion_apply", "curvature_apply")


def targets(tree: ast.Module):
    """(label, function node) of every target in the module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_r_e"):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and node.name == "_Workspace":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in WORKSPACE_TARGETS:
                    yield f"_Workspace.{item.name}", item


def missing_targets(tree: ast.Module) -> list:
    """The names of ``WORKSPACE_TARGETS`` that are no method of ``_Workspace``
    in the module: their mutants would be silently left out."""
    found = {label.split(".", 1)[1] for label, _ in targets(tree) if "." in label}
    return [name for name in WORKSPACE_TARGETS if name not in found]


def sites(function: ast.FunctionDef):
    """(kind, index, detail) of every mutation of ``function``; ``index``,
    the node's position in ``ast.walk`` order, finds it again in a copy."""
    for index, node in enumerate(ast.walk(function)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            text = ast.unparse(node)
            yield "flip", index, text
            yield "negate", index, f"-({ast.unparse(node.left)}) in {text}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in VECTOR_CALLS):
            slots = range(1, len(node.args))
            for a in slots:
                for b in slots:
                    if a < b and ast.dump(node.args[a]) != ast.dump(node.args[b]):
                        yield f"swap{a}{b}", index, ast.unparse(node)


def mutate(node: ast.AST, kind: str) -> None:
    if kind == "flip":
        node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
    elif kind == "negate":
        node.left = ast.UnaryOp(op=ast.USub(), operand=node.left)
    else:
        a, b = int(kind[4]), int(kind[5])
        node.args[a], node.args[b] = node.args[b], node.args[a]


def mutant_module(tree: ast.Module, label: str, kind: str, index: int):
    tree = copy.deepcopy(tree)
    function = dict(targets(tree))[label]
    mutate(list(ast.walk(function))[index], kind)
    ast.fix_missing_locations(tree)
    module = types.ModuleType("geodev._mutant")
    module.__package__, module.__file__ = "geodev", str(SOURCE)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(tree, str(SOURCE), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


_SCENARIOS: dict = {}


def scenario(spec: ScenarioSpec):
    key = (spec.name, tuple(sorted(spec.parameters.items())), spec.s_eval)
    if key not in _SCENARIOS:
        _SCENARIOS[key] = build(spec)
    return _SCENARIOS[key]


GENERIC = generic_scenario()


def gate(module, equations) -> bool:
    """Whether every cell of ``equations``, the generic cell among them,
    passes its acceptance criterion on ``module``'s residuals."""
    eqs = module.EquationId
    for eq in equations:
        if module.equation_info(eqs(eq)).exact:
            for sc in [*(scenario(ScenarioSpec(name, LINEAR_DRIFT_MASSES))
                         for name in family_names()), GENERIC]:
                for eps in (1e-1, 1e-2, 1e-3):
                    if not module.residual(eqs(eq), sc, sc.s_eval, eps).residual_norm < 1e-9:
                        return False
            continue
        for sc in [*map(scenario, EQUATION_SCENARIOS[eq]), GENERIC]:
            rep, = module.convergence_study([eqs(eq)], sc, sc.s_eval,
                                            module.DEFAULT_LADDER)
            if rep.fitted_order is None:
                if not all(smp.residual_norm < 1e-10 for smp in rep.samples):
                    return False
            elif not (rep.fitted_order >= 1.9 and rep.fit_r2 >= 0.98):
                return False
    return True


def run() -> dict:
    tree = ast.parse(SOURCE.read_text())
    if missing := missing_targets(tree):
        raise SystemExit("mutation_probe: no target " + ", ".join(
            f"_Workspace.{name}" for name in missing) + f" in {SOURCE}")
    formula_eqs = {}
    for eq in EquationId:
        formula_eqs.setdefault(equation_info(eq).residual.__name__, []).append(eq)
    mutants, survivors = [], []
    for label, function in targets(tree):
        equations = list(EquationId) if label.startswith("_Workspace") else formula_eqs[label]
        for kind, index, detail in sites(function):
            mutants.append(f"{label} {kind}: {detail}")
            module = mutant_module(tree, label, kind, index)
            try:
                survived = gate(module, equations)
            except Exception:  # a mutant that raises is seen
                survived = False
            if survived:
                survivors.append(mutants[-1])
    return {"mutants": mutants, "killed": len(mutants) - len(survivors),
            "survivors": survivors}


def main() -> int:
    """Print the report; 1 if a survivor is not in ``RECORDED``, else 0."""
    result = run()
    print(f"{result['killed']} of {len(result['mutants'])} mutants killed, "
          f"{len(result['survivors'])} survive:")
    for line in result["survivors"]:
        print(f"  {line}")
    recorded, survivors = Counter(RECORDED.read_text().splitlines()), Counter(result["survivors"])
    for line in (recorded - survivors).elements():
        state = "now killed" if line in result["mutants"] else "gone"
        print(f"recorded survivor {state}: {line}")
    unrecorded = list((survivors - recorded).elements())
    for line in unrecorded:
        print(f"unrecorded survivor: {line}")
    return 1 if unrecorded else 0


if __name__ == "__main__":
    sys.exit(main())
