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

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import EvaluationError
from .geometry import (ConnectionField, MetricField, PathCurve, _matrix_sign, _require,
                       _stacked_dot, bilinear, checked_array)
# transport_components stays bound here, unused: perfbench/tracer.py wraps it
from .transport import (DEFAULT_ODE_CONFIG, OdeConfig, TransportLaw, _pullbacks,
                        transport_components)

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
    component arrays.  The built-in families write their surface once, by
    order, and read it at a point or on rows, each accessor call one
    evaluation (``scenarios._surface``); a study reads each partial once
    per point (``_Ladder.surface`` and ``_Ladder.rows``).  ``r_base`` is
    the r-parameter of the first worldline.  ``along_r(s, rs)``, when
    given, is ``(map, d_r)`` at each (s, r) row of the arrays ``s`` and
    ``rs``, bit for bit, read from the same statement on the rows: the
    family read (``PathCurve.along``) of the connecting paths, so that one
    call reads the nodes of many of them.
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
    along_r: Optional[Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None

    def require_r(self, r: float) -> None:
        _require(r, self.r_domain, "r = ", "surface r-domain")

    def require_s(self, s: float) -> None:
        _require(s, self.s_domain, "s = ", "surface s-domain")


@dataclass(frozen=True)
class MassSurface:
    """Nonvanishing C^1 mass function over the surface parameters."""

    mu: Callable[[float, float], float]
    d_s_mu: Callable[[float, float], float]

    def value(self, s: float, r: float) -> float:
        m = float(checked_array(self.mu(s, r), (), "mu values"))
        if m == 0.0:
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
    return PathCurve(lambda r: (surf.map(s, r), surf.d_r(s, r)), surf.r_domain,
                     along=None if surf.along_r is None else (surf.along_r, s))


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
    ``F^i = d_ss^i + Gamma^i_{jk} d_s^j d_s^k`` at ``gamma(s, r)``, the
    ``a1`` of a ladder of one on the surface rebased to r.

    Coincides with the particle accelerations at the worldline parameters.
    """
    rebased = replace(scenario, surface=replace(scenario.surface, r_base=r))
    return np.array(_Ladder(rebased, (0.0,), DEFAULT_ODE_CONFIG).a1(s))


def infinitesimal_deviation(scenario: Scenario, s: float, eps: float) -> np.ndarray:
    """Infinitesimal deviation vector at x_1(s): the connecting-path tangent
    at r' scaled by eps.  Exactly linear in eps."""
    return np.array(_Ladder(scenario, (eps,), DEFAULT_ODE_CONFIG).zeta(s)[0])


class _Ladder:
    """The relative kinematics of a scenario on a ladder of separations, the
    one implementation of each relative quantity: lazy, memoized, and shared
    by every reader.  A quantity that depends on eps carries a leading
    ladder axis: a ``(K, d)`` stack over the K separations of ``ladder`` (a
    ``(K, 1)`` column for a scalar, so that it scales a stack lane by lane),
    each lane computed bit for bit as that separation alone would be, so the
    public functions below read lane 0 of a ladder of one (as writeable
    copies); the reads at (s, r') are made once for the whole ladder, and
    each surface partial is read once per point, checked, through
    ``surface`` at (s, r') and ``rows`` at the r''.  Each memoized value is a
    deterministic function of its key (quantity, s), so evaluation order
    changes no value, and read-only, so that no reader writes into what
    another reads.  Every quantity takes the worldline parameter s; the
    pull-backs along gamma_s at all the s given to ``solve`` are one solve,
    which reads the paths at its Gauss nodes alone."""

    def __init__(self, scenario: Scenario, ladder: Sequence[float], cfg: OdeConfig):
        self.sc = scenario
        self.ladder = tuple(ladder)
        self.r2 = [scenario.separation_endpoints(e)[1] for e in self.ladder]
        self.eps = np.array(self.ladder, dtype=float)[:, None]
        self.cfg = cfg
        self.surf = scenario.surface
        self.r1 = self.surf.r_base
        self._memo: dict = {}

    def _get(self, key, fn):
        if key not in self._memo:
            value = fn()
            if isinstance(value, np.ndarray):
                value = value.view()  # read-only, without freezing its source
                value.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    # -- reads at (s, r') ---------------------------------------------------
    def surface(self, name: str, s: float) -> np.ndarray:
        """Surface partial ``name`` (``map``, ``d_s``, ...) at (s, r'),
        checked by ``values`` as ``f"{name} components"``."""
        return self._get((name, s), lambda: self.values(
            getattr(self.surf, name), s, self.r1, what=f"{name} components")[0])

    def at_x1(self, read: Callable[[np.ndarray], np.ndarray], s: float) -> np.ndarray:
        """A field's checked reader (``ConnectionField.coefficients``, ...)
        at x_1(s), read on the stack of that one point."""
        return read(self.surface("map", s)[None])[0]

    def v1(self, s: float) -> np.ndarray:
        return self.surface("d_s", s)

    def rdot(self, s: float) -> np.ndarray:
        return self.surface("d_r", s)

    def gam(self, s: float) -> np.ndarray:
        return self._get(("gam", s), lambda: self.at_x1(self.sc.conn.coefficients, s))

    def a1(self, s: float) -> np.ndarray:
        """F_s(r'), ``d_ss + Gamma(V_1, V_1)`` at x_1(s)."""
        return self._get(("a1", s), lambda: (
            self.surface("d_ss", s) + bilinear(self.gam(s), self.v1(s), self.v1(s))))

    def mu1(self, s: float) -> float:
        return self._get(("mu1", s), lambda: self.sc.mass.value(s, self.r1))

    def dmu1(self, s: float) -> float:
        return self._get(("dmu1", s), lambda: float(self.values(
            self.sc.mass.d_s_mu, s, self.r1, what="d_s_mu values", shape=())[0]))

    def p1(self, s: float) -> np.ndarray:
        return self.mu1(s) * self.v1(s)

    def metric(self, s: float) -> np.ndarray:
        return self._get(("g", s), lambda: self.at_x1(self.sc.metric.matrix, s))

    def sign(self, s: float) -> int:
        """The causal sign of V_1 at x_1(s) (``geometry.sign_of_square``)."""
        return self._get(("sign", s), lambda: _matrix_sign(self.metric(s), self.v1(s)))

    # -- along gamma_s ------------------------------------------------------
    def path(self, s: float) -> PathCurve:
        """gamma_s, made once per s for the solve and the S-tensor reads."""
        return self._get(("path", s), lambda: connecting_path(self.sc, s))

    def transport(self, s: float) -> Tuple[np.ndarray, np.ndarray]:
        """(L_{r''->r'}, h) at s, ``(K, d, d)`` and ``(K, d)``: the ladder's
        pull-backs along gamma_s and the deviation vectors at x_1(s)."""
        self.solve([s])
        return self._memo[("Lh", s)]

    def solve(self, ss: Sequence[float]) -> None:
        """The unsolved pull-backs at the s of ``ss``: one solve in the scenario's dimension."""
        if todo := [s for s in dict.fromkeys(ss) if ("Lh", s) not in self._memo]:
            lanes = _pullbacks(self.sc.law, [self.path(s) for s in todo], self.sc.dimension,
                               self.r1, self.r2, self.cfg)
            self._memo.update((("Lh", s), pair) for s, pair in zip(todo, zip(*lanes)))

    # -- relative quantities, on the ladder stack ----------------------------
    def rows(self, name: str, s: float) -> np.ndarray:
        """Surface partial ``name`` at (s, r'') for each r'' of the ladder,
        ``(K, d)``, checked as ``surface`` checks its point."""
        return self._get(("rows", name, s), lambda: self.values(
            getattr(self.surf, name), s, what=f"{name} components"))

    def values(self, field: Callable[[float, float], np.ndarray], s: float, *rs,
               what: str = "field components", shape=None) -> np.ndarray:
        """``field(s, r)`` at each r of ``rs``, or else of the ladder's r'',
        each checked (``checked_array`` naming ``what``) as a vector, or else
        of ``shape``; s is checked against the surface s-domain first."""
        self.surf.require_s(s)
        shape = (self.sc.dimension,) if shape is None else shape
        return np.array([checked_array(field(s, r), shape, what) for r in rs or self.r2])

    def carry(self, s: float, b2: np.ndarray) -> np.ndarray:
        """Particle 2's vectors carried to r', the one place this is done:
        each row of ``b2``, the vector at one r'' of the ladder, times its
        lane of L_{r''->r'}: ``(K, d)``.  A relative quantity is one of
        these minus the value at r'."""
        return np.matmul(self.transport(s)[0], b2[..., None])[..., 0]

    def delta(self, field: Callable[[float, float], np.ndarray], s: float) -> np.ndarray:
        """Covariant difference of a surface field between the particles:
        ``field(s, r'')`` carried back along gamma_s to r' minus
        ``field(s, r')``, ``(K, d)``."""
        b = self.values(field, s, self.r1, *self.r2)
        return self.carry(s, b[1:]) - b[0]

    def zeta(self, s: float) -> np.ndarray:
        return self.eps * self.rdot(s)

    def mu2(self, s: float) -> np.ndarray:
        return self._get(("mu2", s), lambda: np.array(
            [[self.sc.mass.value(s, r)] for r in self.r2]))

    def dmu2(self, s: float) -> np.ndarray:
        return self._get(("dmu2", s), lambda: self.values(
            self.sc.mass.d_s_mu, s, what="d_s_mu values", shape=())[:, None])

    def forces2(self, s: float) -> np.ndarray:
        """F_s(r'') at each r'' of the ladder, Gamma read in one call."""
        def make():
            gamma, ds = self.sc.conn.coefficients(self.rows("map", s)), self.rows("d_s", s)
            return self.rows("d_ss", s) + bilinear(gamma, ds, ds)
        return self._get(("F2", s), make)

    def momenta(self, s: float) -> np.ndarray:
        """p at each r'' of the ladder: ``(K, d)``."""
        return self._get(("p", s), lambda: self.mu2(s) * self.rows("d_s", s))

    def delta_v(self, s: float) -> np.ndarray:
        return self._get(("dV", s), lambda: self.carry(s, self.rows("d_s", s)) - self.v1(s))

    def delta_p(self, s: float) -> np.ndarray:
        return self._get(("dp", s), lambda: self.carry(s, self.momenta(s)) - self.p1(s))

    def delta_a(self, s: float) -> np.ndarray:
        return self._get(("dA", s), lambda: self.carry(s, self.forces2(s)) - self.a1(s))

    def delta_k(self, s: float) -> np.ndarray:
        return self._get(("dK", s), lambda: (
            self.carry(s, self.mu2(s) * self.forces2(s)) - self.mu1(s) * self.a1(s)))

    def energy(self, s: float) -> np.ndarray:
        """The relative energy, ``(K, 1)``: particle 2's momentum carried to
        r', paired by the metric at x_1 with V_1 and signed by the causal
        character of V_1."""
        def make():
            g1, v1 = self.metric(s), self.v1(s)
            pulled = self.carry(s, self.momenta(s))
            return (self.sign(s) * _stacked_dot(g1, pulled, v1))[:, None]
        return self._get(("E", s), make)

    def dev_difference(self, s: float) -> np.ndarray:
        """h - zeta, the O(eps^2) part of the deviation vector."""
        return self._get(("psi", s), lambda: (
            self.transport(s)[1] - self.zeta(s)))


def back_transport(scenario: Scenario, s: float, eps: float,
                   cfg: OdeConfig = DEFAULT_ODE_CONFIG
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(L_{r''->r'}, h)`` along gamma_s from one adaptive solve, whose
    integrand is the connecting-path tangent ``d_r(s, .)``: the ``(d, d)``
    map that carries particle 2's vectors to r', and the deviation vector at
    x_1(s) (``_Ladder.transport``)."""
    pullback, h = _Ladder(scenario, (eps,), cfg).transport(s)
    return np.array(pullback[0]), np.array(h[0])


def deviation_vector(scenario: Scenario, s: float, eps: float,
                     cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Deviation vector of particle 2 with respect to particle 1 at x_1(s):
    ``h = int_{r'}^{r'+eps} L_{u->r'} rdot(u) du``, the connecting-path
    tangents transported back to r' and integrated (``back_transport``)."""
    return back_transport(scenario, s, eps, cfg)[1]


def delta_field(scenario: Scenario, s: float, eps: float,
                field: Callable[[float, float], np.ndarray],
                cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Covariant difference of a surface field between the particles:
    ``field(s, r'')`` carried back along gamma_s to r' minus ``field(s, r')``
    (``_Ladder.delta``).  ``field(s, r)`` returns the components at
    gamma(s, r)."""
    return np.array(_Ladder(scenario, (eps,), cfg).delta(field, s)[0])


def relative_velocity(scenario: Scenario, s: float, eps: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Relative velocity: back-transported V_2 minus V_1 at x_1(s)."""
    return np.array(_Ladder(scenario, (eps,), cfg).delta_v(s)[0])


def relative_acceleration(scenario: Scenario, s: float, eps: float,
                          cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Relative acceleration: back-transported F_s(r'') minus F_s(r'),
    using that the particle accelerations are values of the force field."""
    return np.array(_Ladder(scenario, (eps,), cfg).delta_a(s)[0])


def momentum(scenario: Scenario, which: int, s: float, eps: float = 0.0) -> np.ndarray:
    """Particle momentum ``p_a = mu_a V_a`` at x_a(s): ``_Ladder.p1`` or ``momenta``."""
    if which not in (1, 2):
        raise ValueError("particle index must be 1 or 2")
    ladder = _Ladder(scenario, (eps,), DEFAULT_ODE_CONFIG)
    return np.array(ladder.p1(s) if which == 1 else ladder.momenta(s)[0])


def relative_momentum(scenario: Scenario, s: float, eps: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Relative momentum: back-transported p_2 minus p_1 at x_1(s)."""
    return np.array(_Ladder(scenario, (eps,), cfg).delta_p(s)[0])


def relative_force(scenario: Scenario, s: float, eps: float,
                   cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Covariant difference of the forces ``K(s, r) = mu F_s(r)`` acting on
    the two particles."""
    return np.array(_Ladder(scenario, (eps,), cfg).delta_k(s)[0])


def relative_energy(scenario: Scenario, s: float, eps: float,
                    cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> float:
    """Relative energy of particle 2 with respect to particle 1:
    the metric pairing of the back-transported p_2 with V_1, signed by the
    causal character of V_1.

    Requires the scenario metric; raises NullVectorError when V_1 is null.
    """
    if scenario.metric is None:
        raise EvaluationError("relative_energy requires a scenario metric")
    return float(_Ladder(scenario, (eps,), cfg).energy(s)[0, 0])
