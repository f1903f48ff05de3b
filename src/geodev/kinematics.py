"""Two-particle kinematics on a connecting surface.

The two worldlines are the ``r = r_base`` and ``r = r_base + eps`` parameter
lines of a two-parameter surface ``gamma(s, r)``; the connecting paths
``gamma_s`` are its ``s = const`` lines.  All relative quantities transport
particle 2's data backward along ``gamma_s`` to particle 1 and subtract:

    Delta B_21 = L_{r'' -> r'} B(x_2) - B(x_1).

The separation ``eps = r'' - r'`` is the experiment knob: the surface is held
fixed and ``eps`` shrinks along a ladder, which is what turns the
"up to second order" claims into measurable convergence slopes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, EvaluationError
from .geometry import (ChartPoint, ConnectionField, MetricField, PathCurve,
                       _matrix_dot, _matrix_sign, bilinear, checked_array)
# transport_components stays bound here, unused: perfbench/tracer.py wraps it
from .transport import (DEFAULT_ODE_CONFIG, OdeConfig, TransportLaw,
                        pullback_integral, transport_components)

__all__ = [
    "WorldSurface",
    "MassSurface",
    "SurfaceField",
    "Scenario",
    "connecting_path",
    "worldline",
    "force_field",
    "infinitesimal_deviation",
    "back_transport",
    "deviation_vector",
    "delta_field",
    "relative_velocity",
    "relative_acceleration",
    "momentum",
    "relative_momentum",
    "relative_force",
    "relative_energy",
]


@dataclass(frozen=True)
class WorldSurface:
    """Two-parameter worldline surface with analytic partials.

    ``map(s, r)`` returns the chart coordinates; ``d_s``/``d_r`` the first
    partials and ``d_ss``/``d_sr``/``d_rr`` the second partials, all as
    read-only component arrays.  The built-in families state their surface
    once, by order, and keep its values in a memo keyed by (s, r), so the
    six partials at one point cost at most one order-1 and one order-2
    evaluation (``scenarios._surface``).  ``r_base`` is the r-parameter of
    the first worldline.  ``along_r(s, rs)``, when given, is ``(map, d_r)``
    at each r of an array, bit for bit: ``connecting_path``'s ``points_at``.
    """

    map: Callable[[float, float], np.ndarray]
    d_s: Callable[[float, float], np.ndarray]
    d_r: Callable[[float, float], np.ndarray]
    d_ss: Callable[[float, float], np.ndarray]
    d_sr: Callable[[float, float], np.ndarray]
    d_rr: Callable[[float, float], np.ndarray]
    s_domain: Tuple[float, float]
    r_domain: Tuple[float, float]
    r_base: float = 0.0
    along_r: Optional[Callable[[float, np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None

    def point(self, s: float, r: float) -> ChartPoint:
        return ChartPoint(self.map(s, r))

    def require_r(self, r: float) -> None:
        lo, hi = self.r_domain
        if not (lo - 1e-12 <= r <= hi + 1e-12):
            raise DomainError(f"r = {r} outside surface r-domain [{lo}, {hi}]")

    def require_s(self, s: float) -> None:
        lo, hi = self.s_domain
        if not (lo - 1e-12 <= s <= hi + 1e-12):
            raise DomainError(f"s = {s} outside surface s-domain [{lo}, {hi}]")


@dataclass(frozen=True)
class MassSurface:
    """Nonvanishing C^1 mass function over the surface parameters."""

    mu: Callable[[float, float], float]
    d_s_mu: Callable[[float, float], float]

    def value(self, s: float, r: float) -> float:
        m = float(self.mu(s, r))
        if m == 0.0 or not np.isfinite(m):
            raise EvaluationError(f"mass function vanished at (s={s}, r={r})")
        return m


@dataclass(frozen=True)
class SurfaceField:
    """A vector field over the surface parameters with an analytic
    r-partial, used as the probe field B of the generic first-order
    expansion check."""

    value: Callable[[float, float], np.ndarray]
    d_r: Callable[[float, float], np.ndarray]


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of everything needed to evaluate any equation:
    chart dimension, connection, optional metric, transport law, worldline
    surface, mass function, probe field, and a default evaluation
    parameter."""

    dimension: int
    conn: ConnectionField
    metric: Optional[MetricField]
    law: TransportLaw
    surface: WorldSurface
    mass: MassSurface
    label: str
    probe_field: Optional[SurfaceField] = None
    s_eval: float = 0.0

    def separation_endpoints(self, eps: float) -> Tuple[float, float]:
        r1 = self.surface.r_base
        r2 = r1 + eps
        self.surface.require_r(r1)
        self.surface.require_r(r2)
        return r1, r2


def connecting_path(scenario: Scenario, s: float) -> PathCurve:
    """The path ``gamma_s: r -> gamma(s, r)`` joining the two particles."""
    surf = scenario.surface
    surf.require_s(s)
    stacked = None if surf.along_r is None else functools.partial(surf.along_r, s)
    return PathCurve(lambda r: (surf.map(s, r), surf.d_r(s, r)), surf.r_domain,
                     stacked)


def worldline(scenario: Scenario, which: int, eps: float = 0.0) -> PathCurve:
    """Worldline of particle 1 (r = r') or 2 (r = r' + eps) as a path in s;
    its tangent is the particle velocity."""
    if which not in (1, 2):
        raise ValueError("particle index must be 1 or 2")
    r1, r2 = scenario.separation_endpoints(eps)
    r = r1 if which == 1 else r2
    surf = scenario.surface
    return PathCurve(lambda s: (surf.map(s, r), surf.d_s(s, r)), surf.s_domain)


def force_field(scenario: Scenario, s: float, r: float) -> np.ndarray:
    """Force field F_s(r): covariant s-acceleration of the surface,
    ``F^i = d_ss^i + Gamma^i_{jk} d_s^j d_s^k`` at ``gamma(s, r)``.

    Coincides with the particle accelerations at the worldline parameters.
    """
    surf = scenario.surface
    surf.require_s(s)
    surf.require_r(r)
    shape = (scenario.dimension,)
    # d_ss first: one order-2 surface call serves all three reads
    dss = checked_array(surf.d_ss(s, r), shape, "d_ss components")
    point = surf.point(s, r)
    gamma = scenario.conn.coefficients(point)
    ds = checked_array(surf.d_s(s, r), shape, "d_s components", point)
    return dss + bilinear(gamma, ds, ds)


def infinitesimal_deviation(scenario: Scenario, s: float, eps: float) -> np.ndarray:
    """Infinitesimal deviation vector at x_1(s): the connecting-path tangent
    at r' scaled by eps.  Exactly linear in eps."""
    surf = scenario.surface
    surf.require_s(s)
    r1, _ = scenario.separation_endpoints(eps)
    return eps * checked_array(surf.d_r(s, r1), (scenario.dimension,),
                               "d_r components")


def back_transport(scenario: Scenario, s: float, eps: float,
                   cfg: OdeConfig = DEFAULT_ODE_CONFIG
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(L_{r''->r'}, h)`` along gamma_s from one adaptive solve
    (``pullback_integral``, whose integrand is the connecting-path tangent
    ``d_r(s, .)``): the ``(d, d)`` map that carries particle 2's vectors to
    r', and the deviation vector at x_1(s)."""
    cpath = connecting_path(scenario, s)
    r1, r2 = scenario.separation_endpoints(eps)
    return pullback_integral(scenario.law, cpath, r1, r2, cfg)


def deviation_vector(scenario: Scenario, s: float, eps: float,
                     cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Deviation vector of particle 2 with respect to particle 1 at x_1(s):
    ``h = int_{r'}^{r'+eps} L_{u->r'} rdot(u) du``, the connecting-path
    tangents transported back to r' and integrated (``back_transport``)."""
    return back_transport(scenario, s, eps, cfg)[1]


def _pull_back(scenario: Scenario, s: float, eps: float,
               field: Callable[[float, float], np.ndarray], cfg: OdeConfig,
               pullback: Optional[np.ndarray]) -> np.ndarray:
    """``field(s, r'')`` carried to r' by ``pullback``, the ``L_{r''->r'}``
    of ``back_transport`` (solved here when None)."""
    scenario.surface.require_s(s)
    _, r2 = scenario.separation_endpoints(eps)
    b2 = checked_array(field(s, r2), (scenario.dimension,), "field components")
    if pullback is None:
        pullback = back_transport(scenario, s, eps, cfg)[0]
    return pullback @ b2


def delta_field(scenario: Scenario, s: float, eps: float,
                field: Callable[[float, float], np.ndarray],
                cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                pullback: Optional[np.ndarray] = None) -> np.ndarray:
    """Covariant difference of a surface field between the particles:
    ``field(s, r'')`` carried back along gamma_s to r' by ``pullback`` (the
    L_{r''->r'} of ``back_transport``, solved when None) minus ``field(s, r')``.
    ``field(s, r)`` returns the components at gamma(s, r)."""
    pulled = _pull_back(scenario, s, eps, field, cfg, pullback)
    r1, _ = scenario.separation_endpoints(eps)
    b1 = checked_array(field(s, r1), (scenario.dimension,), "field components")
    return pulled - b1


def _momentum_field(scenario: Scenario) -> Callable[[float, float], np.ndarray]:
    surf = scenario.surface
    mass = scenario.mass
    return lambda s, r: mass.value(s, r) * np.asarray(surf.d_s(s, r), float)


def _delta_force(scenario: Scenario, s: float, eps: float, cfg: OdeConfig,
                 pullback: Optional[np.ndarray], force1: Optional[np.ndarray],
                 density: bool) -> np.ndarray:
    """``delta_field`` of the force F_s, or of ``mu F_s`` when ``density``;
    ``force1``, when given, is F_s(r') and serves r'."""
    mass, r1 = scenario.mass, scenario.surface.r_base

    def field(u: float, r: float) -> np.ndarray:
        force = force_field(scenario, u, r) if force1 is None or r != r1 else force1
        return mass.value(u, r) * force if density else force
    return delta_field(scenario, s, eps, field, cfg, pullback)


def relative_velocity(scenario: Scenario, s: float, eps: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                      pullback: Optional[np.ndarray] = None) -> np.ndarray:
    """Relative velocity: back-transported V_2 minus V_1 at x_1(s)."""
    return delta_field(scenario, s, eps, scenario.surface.d_s, cfg, pullback)


def relative_acceleration(scenario: Scenario, s: float, eps: float,
                          cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                          pullback: Optional[np.ndarray] = None) -> np.ndarray:
    """Relative acceleration: back-transported F_s(r'') minus F_s(r'),
    using that the particle accelerations are values of the force field."""
    return _delta_force(scenario, s, eps, cfg, pullback, None, False)


def momentum(scenario: Scenario, which: int, s: float, eps: float = 0.0) -> np.ndarray:
    """Particle momentum ``p_a = mu_a V_a`` at x_a(s)."""
    if which not in (1, 2):
        raise ValueError("particle index must be 1 or 2")
    r1, r2 = scenario.separation_endpoints(eps)
    r = r1 if which == 1 else r2
    return checked_array(_momentum_field(scenario)(s, r), (scenario.dimension,),
                         "momentum components")


def relative_momentum(scenario: Scenario, s: float, eps: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                      pullback: Optional[np.ndarray] = None) -> np.ndarray:
    """Relative momentum: back-transported p_2 minus p_1 at x_1(s)."""
    return delta_field(scenario, s, eps, _momentum_field(scenario), cfg, pullback)


def relative_force(scenario: Scenario, s: float, eps: float,
                   cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                   pullback: Optional[np.ndarray] = None) -> np.ndarray:
    """Covariant difference of the forces ``K(s, r) = mu F_s(r)`` acting on
    the two particles."""
    return _delta_force(scenario, s, eps, cfg, pullback, None, True)


def relative_energy(scenario: Scenario, s: float, eps: float,
                    cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                    pullback: Optional[np.ndarray] = None) -> float:
    """Relative energy of particle 2 with respect to particle 1:
    the metric pairing of the back-transported p_2 with V_1, signed by the
    causal character of V_1.

    Requires the scenario metric; raises NullVectorError when V_1 is null.
    """
    return _relative_energy(scenario, s, eps, cfg, pullback, None)


def _relative_energy(scenario: Scenario, s: float, eps: float, cfg: OdeConfig,
                     pullback: Optional[np.ndarray], g1: Optional[np.ndarray]
                     ) -> float:
    """``relative_energy``; ``g1``, when given, is the metric matrix at x_1."""
    if scenario.metric is None:
        raise EvaluationError("relative_energy requires a scenario metric")
    r1, _ = scenario.separation_endpoints(eps)
    x1 = scenario.surface.point(s, r1)
    v1 = scenario.surface.d_s(s, r1)
    g1 = scenario.metric.matrix(x1) if g1 is None else g1
    sign = _matrix_sign(g1, x1, v1)
    pulled = _pull_back(scenario, s, eps, _momentum_field(scenario), cfg,
                        pullback)
    return sign * _matrix_dot(g1, x1, pulled, v1)
