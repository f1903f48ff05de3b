"""Two-particle kinematics on a connecting surface.

The two worldlines are the ``r = r_base`` and ``r = r_base + eps`` parameter
lines of a two-parameter surface ``gamma(s, r)``; the connecting paths
``gamma_s`` are its ``s = const`` lines.  All relative quantities transport
particle 2's data backward along ``gamma_s`` to particle 1 and subtract:

    Delta B_21 = L_{r'' -> r'} B(x_2) - B(x_1).

B is one surface datum, read at (s, r') and (s, r'') of every s of a grid
in one row call (``_Ladder._grid``); the surface, mass, probe field and
paths are read on rows only, a point being a row of one.  The separation
``eps = r'' - r'`` is the experiment knob: the surface is held fixed and
``eps`` shrinks along a ladder, which is what turns the "up to second
order" claims into measurable slopes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import EvaluationError
from .geometry import (ConnectionField, MetricField, PathCurve, _checked_stack, _matrix_sign,
                       _require, _stacked_dot, bilinear, checked_array)
# transport_components stays bound here, unused: perfbench/tracer.py wraps it
from .transport import (_COUNTS, DEFAULT_ODE_CONFIG, OdeConfig, TransportLaw, _pullbacks,
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


_PARTIALS = ("map", "d_s", "d_r", "d_ss", "d_sr", "d_rr")  # the order of jets' values
_READS = {"mu": "mass.mu", "d_s_mu": "mass.d_s_mu", "probe field": "probe_field.value",
          "probe field d_r": "probe_field.d_r", "gam": "conn.coefficients",  # then at x_1
          "dgam": "conn.partials", "g": "metric.matrix", "dg": "metric.partials"}
_Point = Optional[Callable[[float, float], np.ndarray]]


@dataclass(frozen=True)
class WorldSurface:
    """Two-parameter worldline surface, stated once by ``jets(s, r,
    order)`` on ``(n,)`` rows of s and r: the chart points and their first
    partials ``(x, x_s, x_r)``, at order 2 also ``(x_ss, x_sr, x_rr)``, ``(n,
    d)`` each.  ``read`` calls it; the accessors ``map`` ... ``d_rr``, each
    row 0 of a ``read`` of one row, and ``along_r`` derive from it, and an
    accessor passed in is kept (a tracer wraps them; ``dataclasses.replace``
    passes on the derived ones, which read the old ``jets``).  ``r_base`` is
    the r-parameter of the first worldline."""

    jets: Callable[..., Tuple[np.ndarray, ...]]
    s_domain: Tuple[float, float]
    r_domain: Tuple[float, float]
    r_base: float = 0.0
    map: _Point = None
    d_s: _Point = None
    d_r: _Point = None
    d_ss: _Point = None
    d_sr: _Point = None
    d_rr: _Point = None

    def __post_init__(self):
        for i, name in enumerate(_PARTIALS):
            if getattr(self, name) is None:
                object.__setattr__(self, name, lambda s, r, i=i: self.read(
                    np.array([s], float), np.array([r], float), 1 + i // 3)[i][0])

    def read(self, s: np.ndarray, r: np.ndarray, order: int) -> Tuple[np.ndarray, ...]:
        """``jets(s, r, order)``, counted in ``transport.work_counts`` as one
        of ``surface_stacks`` and ``len(r)`` of ``surface_stack_points``."""
        if (counts := _COUNTS.get()) is not None:
            counts.update(surface_stacks=1, surface_stack_points=len(r))
        return self.jets(s, r, order)

    def along_r(self, s: np.ndarray, rs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(map, d_r)`` at the (s, r) rows of ``s`` and ``rs``: the ``read``
        of every connecting path, one key s per row."""
        x, _, x_r = self.read(s, rs, 1)
        return x, x_r

    def require_r(self, r: float) -> None:
        _require(r, self.r_domain, "r = ", "surface r-domain")

    def require_s(self, s: float) -> None:
        _require(s, self.s_domain, "s = ", "surface s-domain")


@dataclass(frozen=True)
class MassSurface:
    """Nonvanishing C^1 mass function over the surface parameters, and its
    s-rate, ``(n,)`` on rows as ``WorldSurface.jets``."""

    mu: Callable[[float, float], float]
    d_s_mu: Callable[[float, float], float]


@dataclass(frozen=True)
class SurfaceField:
    """A vector field over the surface parameters with an analytic
    r-partial, ``(n, d)`` on rows as ``WorldSurface.jets``: the probe field
    B of the generic first-order expansion check."""

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
    """The path ``gamma_s: r -> gamma(s, r)`` joining the two particles, the
    line s of ``along_r``."""
    surf = scenario.surface
    surf.require_s(s)
    return PathCurve(surf.along_r, s, surf.r_domain)


def worldline(scenario: Scenario, which: int, eps: float = 0.0) -> PathCurve:
    """Worldline of particle 1 (r = r') or 2 (r = r' + eps) as a path in s,
    read at order 1; its tangent is the particle velocity."""
    if which not in (1, 2):
        raise ValueError("particle index must be 1 or 2")
    r, surf = scenario.separation_endpoints(eps)[which - 1], scenario.surface
    return PathCurve(lambda rs, ss: surf.read(ss, rs, 1)[:2], r, surf.s_domain)


def force_field(scenario: Scenario, s: float, r: float) -> np.ndarray:
    """Force field F_s(r): covariant s-acceleration of the surface,
    ``F^i = d_ss^i + Gamma^i_{jk} d_s^j d_s^k`` at ``gamma(s, r)``, the
    ``a1`` of a ladder of one on the surface rebased to r.

    Coincides with the particle accelerations at the worldline parameters.
    """
    rebased = replace(scenario, surface=replace(scenario.surface, r_base=r))
    return np.array(_Ladder(rebased, (0.0,), (s,), DEFAULT_ODE_CONFIG).a1(s))


def infinitesimal_deviation(scenario: Scenario, s: float, eps: float) -> np.ndarray:
    """Infinitesimal deviation vector at x_1(s): the connecting-path tangent
    at r' scaled by eps.  Exactly linear in eps."""
    return np.array(_Ladder(scenario, (eps,), (s,), DEFAULT_ODE_CONFIG).zeta(s)[0])


class _Ladder:
    """The relative kinematics of a scenario on a ladder of separations, the
    one implementation of each relative quantity: lazy, memoized, and shared
    by every reader.  A quantity that depends on eps carries a leading
    ladder axis: a ``(K, d)`` stack over the K separations (a ``(K, 1)``
    column for a scalar, so that it scales a stack lane by lane), each lane
    bit for bit as its separation alone, so the public functions below read
    lane 0 of a ladder of one on the grid ``(s,)``, as writeable copies.  A
    memoized value is a deterministic function of its key, and read-only, so
    that no reader writes into what another reads.  Each s of ``grid`` is
    checked against the s-domain here, and each read is made once over the
    grid, when a quantity first asks for it: a surface datum in one row call
    (``_grid``), a field at x_1 in one stacked call (``at_x1``), and the
    pull-backs along every gamma_s in one solve (``transport``)."""

    def __init__(self, scenario: Scenario, ladder: Sequence[float], grid: Sequence[float],
                 cfg: OdeConfig):
        self.sc = scenario
        self.ladder = tuple(ladder)
        self.r2 = [scenario.separation_endpoints(e)[1] for e in self.ladder]
        self.eps = np.array(self.ladder, dtype=float)[:, None]
        self.cfg = cfg
        self.surf = scenario.surface
        self.r1 = self.surf.r_base
        self.grid = tuple(dict.fromkeys(grid))
        for s in self.grid:
            self.surf.require_s(s)
        self._memo: dict = {}

    def _get(self, key, fn):
        if key not in self._memo:
            value = fn()
            if isinstance(value, np.ndarray):
                value = value.view()  # read-only, without freezing its source
                value.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    def _at(self, s: float) -> int:
        """The row of s in every read over the grid; ValueError off the grid."""
        return self.grid.index(s)

    # -- the reads over the grid ---------------------------------------------
    def _grid(self, name: str) -> np.ndarray:
        """Surface datum ``name`` at r' and each r'' of every s of the grid,
        ``(S, 1 + K, d)``, d 1 for a scalar: one row call, the six partials
        in one order-2 ``jets`` call, each datum checked once (``f"{name}
        values"`` for a scalar, else ``f"{name} components"``), ``mu`` nonzero."""
        if name not in self._memo:
            rungs, d = [self.r1, *self.r2], self.sc.dimension
            s_at, r_at = np.repeat(self.grid, len(rungs)), np.tile(rungs, len(self.grid))
            data = (zip(_PARTIALS, self.surf.read(s_at, r_at, 2)) if name in _PARTIALS
                    else [(name, attrgetter(_READS[name])(self.sc)(s_at, r_at))])
            for key, value in data:
                shape, what = ((), "values") if key in ("mu", "d_s_mu") else ((d,), "components")
                rows = _checked_stack(value, shape, f"{key} {what}", [None] * len(r_at))
                if key == "mu" and not rows.all():
                    i = int(np.argmin(rows != 0.0))
                    raise EvaluationError(f"mass function vanished at (s={s_at[i]}, r={r_at[i]})")
                self._get(key, lambda: rows.reshape(len(self.grid), len(rungs), -1))
        return self._memo[name]

    def surface(self, name: str, s: float) -> np.ndarray:
        """Datum ``name`` at (s, r'), ``(d,)``."""
        return self._grid(name)[self._at(s), 0]

    def rows(self, name: str, s: float) -> np.ndarray:
        """Datum ``name`` at each (s, r''), ``(K, d)``."""
        return self._grid(name)[self._at(s), 1:]

    def at_x1(self, name: str, s: float) -> np.ndarray:
        """Field ``name`` (``gam``, ``dgam``, ``g`` or ``dg``) at x_1(s): its
        checked reader, on first demand one call on x_1 of every s of the grid."""
        return self._get(name, lambda: attrgetter(_READS[name])(self.sc)(
            self._grid("map")[:, 0]))[self._at(s)]

    def v1(self, s: float) -> np.ndarray:
        return self.surface("d_s", s)

    def rdot(self, s: float) -> np.ndarray:
        return self.surface("d_r", s)

    def gam(self, s: float) -> np.ndarray:
        return self.at_x1("gam", s)

    def a1(self, s: float) -> np.ndarray:
        """F_s(r'), ``d_ss + Gamma(V_1, V_1)`` at x_1(s)."""
        return self._get(("a1", s), lambda: (
            self.surface("d_ss", s) + bilinear(self.gam(s), self.v1(s), self.v1(s))))

    def mu1(self, s: float) -> float:
        return self.surface("mu", s).item()

    def dmu1(self, s: float) -> float:
        return self.surface("d_s_mu", s).item()

    def p1(self, s: float) -> np.ndarray:
        return self.mu1(s) * self.v1(s)

    def metric(self, s: float) -> np.ndarray:
        return self.at_x1("g", s)

    def sign(self, s: float) -> int:
        """The causal sign of V_1 at x_1(s) (``geometry.sign_of_square``)."""
        return self._get(("sign", s), lambda: _matrix_sign(self.metric(s), self.v1(s)))

    # -- along gamma_s ------------------------------------------------------
    def path(self, s: float) -> PathCurve:
        """gamma_s, made once per s for the solve and the S-tensor reads."""
        return self._get(("path", s), lambda: connecting_path(self.sc, s))

    def transport(self, s: float) -> Tuple[np.ndarray, np.ndarray]:
        """(L_{r''->r'}, h) at s, ``(K, d, d)`` and ``(K, d)``: the ladder's
        pull-backs along gamma_s and the deviation vectors at x_1(s), on
        first demand one solve along the paths of every s of the grid, in
        the scenario's dimension."""
        lanes = self._get("Lh", lambda: _pullbacks(
            self.sc.law, [self.path(u) for u in self.grid], self.sc.dimension,
            self.r1, self.r2, self.cfg))
        return lanes[0][self._at(s)], lanes[1][self._at(s)]

    # -- relative quantities, on the ladder stack ----------------------------
    def carry(self, s: float, b2: np.ndarray) -> np.ndarray:
        """Particle 2's vectors carried to r', the one place this is done:
        each row of ``b2``, the vector at one r'' of the ladder, times its
        lane of L_{r''->r'}: ``(K, d)``.  A relative quantity is one of
        these minus the value at r'."""
        return np.matmul(self.transport(s)[0], b2[..., None])[..., 0]

    def zeta(self, s: float) -> np.ndarray:
        return self.eps * self.rdot(s)

    def mu2(self, s: float) -> np.ndarray:
        return self.rows("mu", s)

    def dmu2(self, s: float) -> np.ndarray:
        return self.rows("d_s_mu", s)

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
    pullback, h = _Ladder(scenario, (eps,), (s,), cfg).transport(s)
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
    ``field(s, r'')`` carried back along gamma_s to r' (``_Ladder.carry``)
    minus ``field(s, r')``.  ``field(s, r)`` returns the components at
    gamma(s, r), read at a point: at r' and at r'', each checked once."""
    ladder = _Ladder(scenario, (eps,), (s,), cfg)
    b1, b2 = (checked_array(field(s, r), (scenario.dimension,), "field components")
              for r in (ladder.r1, *ladder.r2))
    return np.array(ladder.carry(s, b2[None])[0] - b1)


def relative_velocity(scenario: Scenario, s: float, eps: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Relative velocity: back-transported V_2 minus V_1 at x_1(s)."""
    return np.array(_Ladder(scenario, (eps,), (s,), cfg).delta_v(s)[0])


def relative_acceleration(scenario: Scenario, s: float, eps: float,
                          cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Relative acceleration: back-transported F_s(r'') minus F_s(r'),
    using that the particle accelerations are values of the force field."""
    return np.array(_Ladder(scenario, (eps,), (s,), cfg).delta_a(s)[0])


def momentum(scenario: Scenario, which: int, s: float, eps: float = 0.0) -> np.ndarray:
    """Particle momentum ``p_a = mu_a V_a`` at x_a(s): ``_Ladder.p1`` or ``momenta``."""
    if which not in (1, 2):
        raise ValueError("particle index must be 1 or 2")
    ladder = _Ladder(scenario, (eps,), (s,), DEFAULT_ODE_CONFIG)
    return np.array(ladder.p1(s) if which == 1 else ladder.momenta(s)[0])


def relative_momentum(scenario: Scenario, s: float, eps: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Relative momentum: back-transported p_2 minus p_1 at x_1(s)."""
    return np.array(_Ladder(scenario, (eps,), (s,), cfg).delta_p(s)[0])


def relative_force(scenario: Scenario, s: float, eps: float,
                   cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Covariant difference of the forces ``K(s, r) = mu F_s(r)`` acting on
    the two particles."""
    return np.array(_Ladder(scenario, (eps,), (s,), cfg).delta_k(s)[0])


def relative_energy(scenario: Scenario, s: float, eps: float,
                    cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> float:
    """Relative energy of particle 2 with respect to particle 1:
    the metric pairing of the back-transported p_2 with V_1, signed by the
    causal character of V_1.

    Requires the scenario metric; raises NullVectorError when V_1 is null.
    """
    if scenario.metric is None:
        raise EvaluationError("relative_energy requires a scenario metric")
    return float(_Ladder(scenario, (eps,), (s,), cfg).energy(s)[0, 0])
