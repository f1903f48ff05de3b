"""The benchmark's tracer (``perfbench/tracer.py``) wraps module bindings and
class methods of geodev by name; a refactor that drops one of those names
makes every traced benchmark run fail with a KeyError, and one that drops a
``WorldSurface`` field it replaces makes every traced build fail.  These
checks load the tracer as it is, install and remove its wrappers, and wrap
the surface of each built-in family."""

import types
from pathlib import Path

import numpy as np
import pytest

import geodev.equations
import geodev.kinematics
from geodev.geometry import ConnectionField
from geodev.scenarios import ScenarioSpec, build, family_names
from geodev.transport import TransportLaw

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    # compiled from its source, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls_on_the_current_bindings():
    names = (geodev.kinematics, "transport_components"), *(
        (geodev.equations, n) for n in (
            "deviation_vector", "relative_energy", "delta_field",
            "relative_velocity", "relative_acceleration", "relative_momentum",
            "relative_force", "curvature_at")), (TransportLaw, "coefficients"), *(
        (ConnectionField, n) for n in ("coefficients", "partials"))
    before = {(m.__name__, n): m.__dict__[n] for m, n in names}
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert all(m.__dict__[n] is not before[(m.__name__, n)]
                   for m, n in names)
    finally:
        tracer.uninstall()
    assert all(m.__dict__[n] is before[(m.__name__, n)] for m, n in names)


@pytest.mark.parametrize("name", family_names())
def test_tracer_wraps_the_surface_of_every_family(name):
    # the tracer replaces the six WorldSurface callables by name with
    # dataclasses.replace; the wrapped ones return the unwrapped values,
    # and each call is counted under its name
    module = _load_tracer()
    tracer, spec = module.Tracer(), ScenarioSpec(name)
    plain, traced = build(spec).surface, tracer._traced_build(build)(spec).surface
    assert traced.along_r is not None
    s, r = 0.1, plain.r_base + 0.03
    for key in module.SURFACE_CALLABLES:
        assert getattr(traced, key) is not getattr(plain, key)
        assert np.array_equal(getattr(traced, key)(s, r), getattr(plain, key)(s, r))
        assert tracer.stats[f"scenarios.surface.{key}"][0] == 1
