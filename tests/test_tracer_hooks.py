"""The benchmark's tracer (``perfbench/tracer.py``) wraps module bindings and
class methods of geodev by name; a refactor that drops one of those names
makes every traced benchmark run fail with a KeyError.  These checks load
the tracer as it is and install and remove its wrappers."""

import types
from pathlib import Path

import geodev.equations
import geodev.kinematics
from geodev.geometry import ConnectionField
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
