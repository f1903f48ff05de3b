"""Numerical differential geometry for linear transports along paths and the
first-order deviation equations of two-particle relative kinematics, with a
convergence-order harness that verifies each equation's O(eps^2) remainder
claim empirically."""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, EvaluationError, GeodevError,
                     NullVectorError, TransportError)
from .geometry import (ChartPoint, ConnectionField, MetricField, PathCurve,
                       curvature_at, metric_dot, sign_of_square, torsion_at)
from .transport import (OdeConfig, TransportLaw, law_from_connection,
                        law_with_offset, s_tensor, transport_matrix)
from .kinematics import (MassSurface, Scenario, SurfaceField, WorldSurface,
                         connecting_path, delta_field, deviation_vector,
                         force_field, infinitesimal_deviation, momentum,
                         relative_acceleration, relative_energy,
                         relative_force, relative_momentum, relative_velocity,
                         worldline)
from .equations import (DEFAULT_LADDER, ConvergenceReport, EquationId,
                        ResidualSample, convergence_study, residual)
from .scenarios import (EQUATION_SCENARIOS, LINEAR_DRIFT_MASSES, ScenarioSpec,
                        build, family_names, list_scenarios)

__all__ = [
    "__version__",
    # errors
    "GeodevError", "EvaluationError", "DomainError", "NullVectorError",
    "TransportError", "ConfigError",
    # geometry
    "ChartPoint", "ConnectionField", "MetricField", "PathCurve", "torsion_at",
    "curvature_at", "metric_dot", "sign_of_square",
    # transport
    "OdeConfig", "TransportLaw", "transport_matrix",
    "law_from_connection", "law_with_offset", "s_tensor",
    # kinematics
    "WorldSurface", "MassSurface", "SurfaceField", "Scenario",
    "connecting_path", "worldline", "force_field", "infinitesimal_deviation",
    "deviation_vector", "delta_field", "relative_velocity",
    "relative_acceleration", "momentum", "relative_momentum",
    "relative_force", "relative_energy",
    # equations
    "EquationId", "ResidualSample", "ConvergenceReport", "residual",
    "convergence_study", "DEFAULT_LADDER",
    # scenarios
    "ScenarioSpec", "build", "list_scenarios", "family_names",
    "LINEAR_DRIFT_MASSES", "EQUATION_SCENARIOS",
]
