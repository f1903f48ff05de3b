"""Residual evaluators for the first-order deviation equations and a
convergence-order estimator for their O(eps^2) remainder claims.

Each equation id maps to one residual: left-hand side minus every right-hand
side term except the O(eps^2) remainder, all quantities evaluated at x_1(s).
For a correct implementation the residual norm scales (at least) like eps^2
as the particle separation shrinks, except for the exact momentum identity
(order ~0 with residuals at roundoff) and for equations whose terms all
vanish on a given scenario (residuals at the numerical floor).

Slot conventions for the contracted tensors (validated symbolically, see the
geometry module): ``T(X,Y)^i = T^i_jk Y^j X^k``, ``S(B,Z)^i = S^i_jk B^j Z^k``,
``R(X,Y)Z^i = R^i_jkl Z^j X^k Y^l``.

The relative-acceleration equation is implemented with minus signs on its
two S-terms (``... - S(V1, Dzeta/ds) - DS/ds(V1, zeta)``): the plus variant
fails the first-order expansion already at order eps, while the minus
variant follows from combining the relative-velocity equation with the
expansion of the relative acceleration, and is confirmed by the momentum
equation of motion at unit masses.

Transport policy: a workspace makes one back-transport solve per distinct s
along gamma_s, which a study builds once per s; every relative quantity at s
applies its pull-back map L_{r''->r'} to particle 2's vector, and the
deviation vector h rides on the same solve.

Numerical differentiation policy: s-derivatives of analytically-evaluable
data use central differences with step 1e-5; s-derivatives of the deviation
vector act on the difference field ``h - zeta`` (itself O(eps^2)) with
larger steps, so that truncation scales with the residual and the solver's
step-selection noise stays below the fit floor.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import EvaluationError
from .geometry import (ChartPoint, PathCurve, _matrix_sign, bilinear,
                       cov_tensor_components, curvature_apply, curvature_at,
                       torsion_apply, torsion_components)
# deviation_vector, relative_acceleration, relative_force and relative_energy
# stay bound here, unused: perfbench/tracer.py wraps them
from .kinematics import (Scenario, _delta_force, _relative_energy,
                         connecting_path, delta_field, deviation_vector,
                         force_field, relative_acceleration, relative_energy,
                         relative_force, relative_momentum, relative_velocity)
from .transport import DEFAULT_ODE_CONFIG, OdeConfig, _pullbacks, s_tensor

__all__ = [
    "EquationId",
    "ResidualSample",
    "ConvergenceReport",
    "residual",
    "convergence_study",
    "equation_info",
    "checked_ladder",
    "NUMERICAL_FLOOR",
    "FIT_EXCLUSION",
    "DEFAULT_LADDER",
]

NUMERICAL_FLOOR = 1e-11
FIT_EXCLUSION = 10.0 * NUMERICAL_FLOOR
DEFAULT_LADDER = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)

H_S = 1e-5          # step for s-derivatives of analytic-in-s evaluations
H_DEV_FIRST = 1e-3  # step for D/ds of the deviation difference field
H_DEV_SECOND = 1e-2  # step for D^2/ds^2 of the deviation difference field


class EquationId(str, enum.Enum):
    """One id per verified deviation equation / expansion."""

    E2_10 = "E2_10"   # generic field expansion Delta B = DB/dr eps + S(B, zeta)
    E2_13 = "E2_13"   # h = zeta
    E3_1 = "E3_1"     # deviation-vector equation
    E4_1 = "E4_1"     # Dh/ds = Dzeta/ds
    E4_3 = "E4_3"     # Delta V expansion
    E4_4 = "E4_4"     # Dzeta/ds vs Delta V (torsion/S correction)
    E4_5 = "E4_5"     # relative-velocity deviation equation
    E5_1 = "E5_1"     # exact momentum identity
    E5_2 = "E5_2"     # relative-momentum deviation equation
    E6_2 = "E6_2"     # Delta A expansion
    E6_3 = "E6_3"     # D^2 h = D^2 zeta
    E6_4 = "E6_4"     # deviation acceleration vs Delta A
    E6_5 = "E6_5"     # relative-acceleration deviation equation
    E7_1 = "E7_1"     # Delta K expansion
    E7_2 = "E7_2"     # momentum equation of motion
    E7_4 = "E7_4"     # relative-energy balance (scalar)


@dataclass(frozen=True)
class ResidualSample:
    """One equation residual at one separation."""

    eq: EquationId
    s: float
    epsilon: float
    residual_norm: float
    wall_time: float

    def __post_init__(self):
        if not np.isfinite(self.residual_norm) or self.residual_norm < 0:
            raise EvaluationError(
                f"invalid residual norm {self.residual_norm} for {self.eq}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Fitted convergence order of one equation's residual over a ladder of
    separations.  Samples at or below the fit-exclusion level (10x the
    numerical floor) are excluded from the fit; if fewer than two points
    remain the order is undefined and the residual sits at the floor."""

    eq: EquationId
    scenario_label: str
    epsilon_ladder: Tuple[float, ...]
    samples: Tuple[ResidualSample, ...]
    fitted_order: Optional[float]
    fit_r2: Optional[float]
    floor_detected: bool
    n_fit_points: int
    exact: bool


# ---------------------------------------------------------------------------
# shared per-(scenario, eps) evaluation workspace


class _Workspace:
    """Lazy, memoized evaluations at one separation, shared by the residual
    formulas of every equation evaluated on it; each memoized value is a
    deterministic function of its key (quantity, s), so evaluation order
    changes no residual.  All public-ish methods take the worldline
    parameter, so the same machinery serves the centered s-differences.
    Quantities of (s, r') alone (``_BASE``) go read-only to the ``base``
    memo, which a convergence study shares across its whole ladder; those
    that depend on eps stay in the workspace's own memo, bar the pull-backs
    along gamma_s: one stacked solve for all of ``ladder`` (default: eps).
    """

    _BASE = frozenset({"map", "d_s", "d_r", "d_sr", "x1pt", "gam", "dgam", "a1",
                       "T", "R", "S", "DT", "DS", "g", "Dg", "DFdr", "path", "Lh"})

    def __init__(self, scenario: Scenario, eps: float, cfg: OdeConfig,
                 base: Optional[dict] = None, ladder: Sequence[float] = ()):
        self.sc = scenario
        self.eps, self.ladder = eps, tuple(ladder) or (eps,)
        self.cfg = cfg
        self.surf = scenario.surface
        self.r1, self.r2 = scenario.separation_endpoints(eps)
        self._memo: dict = {}
        self._base: dict = {} if base is None else base

    def _get(self, key, fn):
        memo = self._base if key[0] in self._BASE else self._memo
        if key not in memo:
            value = fn()
            if memo is self._base and isinstance(value, np.ndarray):
                value = value.view()  # read-only, without freezing its source
                value.flags.writeable = False
            memo[key] = value
        return memo[key]

    # -- pointwise geometry -------------------------------------------------
    def surface(self, name: str, s: float) -> np.ndarray:
        """Surface callable ``name`` (``map``, ``d_s``, ``d_r``, ``d_sr``)
        at (s, r'); s is checked against the surface s-domain first."""
        def make():
            self.surf.require_s(s)
            return np.asarray(getattr(self.surf, name)(s, self.r1), float)
        return self._get((name, s), make)

    def x1_point(self, s: float) -> ChartPoint:
        return self._get(("x1pt", s), lambda: ChartPoint(self.surface("map", s)))

    def gam(self, s: float) -> np.ndarray:
        return self._get(("gam", s),
                         lambda: self.sc.conn.coefficients(self.x1_point(s)))

    def dgam(self, s: float) -> np.ndarray:
        return self._get(("dgam", s),
                         lambda: self.sc.conn.partials(self.x1_point(s)))

    def v1(self, s: float) -> np.ndarray:
        return self.surface("d_s", s)

    def rdot(self, s: float) -> np.ndarray:
        return self.surface("d_r", s)

    def a1(self, s: float) -> np.ndarray:
        return self._get(("a1", s),
                         lambda: force_field(self.sc, s, self.r1))

    def mu1(self, s: float) -> float:
        return self.sc.mass.value(s, self.r1)

    def mu2(self, s: float) -> float:
        return self.sc.mass.value(s, self.r2)

    def dmu1(self, s: float) -> float:
        return float(self.sc.mass.d_s_mu(s, self.r1))

    def dmu2(self, s: float) -> float:
        return float(self.sc.mass.d_s_mu(s, self.r2))

    def p1(self, s: float) -> np.ndarray:
        return self.mu1(s) * self.v1(s)

    def torsion(self, s: float) -> np.ndarray:
        return self._get(("T", s), lambda: torsion_components(self.gam(s)))

    def curvature(self, s: float) -> np.ndarray:
        return self._get(("R", s),
                         lambda: curvature_at(self.sc.conn, self.x1_point(s)))

    def path(self, s: float) -> PathCurve:
        """gamma_s: one PathCurve, and so one set of its memos, per s."""
        return self._get(("path", s), lambda: connecting_path(self.sc, s))

    def s_tensor(self, s: float) -> np.ndarray:
        return self._get(("S", s), lambda: s_tensor(
            self.sc.law, self.sc.conn, self.path(s), self.r1))

    # -- covariant s-derivatives of tensor fields along x1 -------------------
    def d_torsion(self, s: float) -> np.ndarray:
        """Covariant derivative of the torsion field along x1."""
        def make():
            dg = self.dgam(s)
            dt_ds = torsion_components(np.einsum("ijkl,l->ijk", dg, self.v1(s)))
            return cov_tensor_components(self.gam(s), self.v1(s), self.torsion(s),
                                         dt_ds, (1, 2))
        return self._get(("DT", s), make)

    def d_s_tensor(self, s: float) -> np.ndarray:
        """Covariant derivative of the S field along x1 (component
        derivative by central difference)."""
        def make():
            h = H_S
            ds_val = (self.s_tensor(s + h) - self.s_tensor(s - h)) / (2.0 * h)
            return cov_tensor_components(self.gam(s), self.v1(s),
                                         self.s_tensor(s), ds_val, (1, 2))
        return self._get(("DS", s), make)

    def d_metric(self, s: float) -> np.ndarray:
        """Covariant derivative of the metric along x1 (nonmetricity)."""
        def make():
            dg = self.sc.metric.partials(self.x1_point(s))
            dg_ds = np.einsum("ijl,l->ij", dg, self.v1(s))
            return cov_tensor_components(self.gam(s), self.v1(s), self.metric(s),
                                         dg_ds, (0, 2))
        return self._get(("Dg", s), make)

    def metric(self, s: float) -> np.ndarray:
        return self._get(("g", s), lambda: self.sc.metric.matrix(self.x1_point(s)))

    # -- deviation quantities ------------------------------------------------
    def zeta(self, s: float) -> np.ndarray:
        return self.eps * self.rdot(s)

    def d_zeta(self, s: float) -> np.ndarray:
        """Analytic covariant derivative of zeta along x1."""
        def make():
            dsr = self.surface("d_sr", s)
            corr = bilinear(self.gam(s), self.rdot(s), self.v1(s))
            return self.eps * (dsr + corr)
        return self._get(("Dzeta", s), make)

    def d2_zeta(self, s: float) -> np.ndarray:
        return self._get(("D2zeta", s),
                         lambda: self.cov_fd(self.d_zeta, s, H_S))

    def df_dr(self, s: float) -> np.ndarray:
        """DF_s(r)/dr at r', the covariant r-derivative of the force field
        along gamma_s.  The third surface partial d_ssr comes from one
        central s-difference of the analytic d_sr data."""
        def make():
            gam = self.gam(s)
            dgam = self.dgam(s)
            ds = self.v1(s)
            dsr = self.surface("d_sr", s)
            rdot = self.rdot(s)
            h = H_S
            d_ssr = (self.surface("d_sr", s + h)
                     - self.surface("d_sr", s - h)) / (2.0 * h)
            # product rule on Gamma d_s d_s keeps both orders: Gamma need
            # not be symmetric in its lower indices
            df = (d_ssr
                  + np.einsum("ijkl,l,j,k->i", dgam, rdot, ds, ds)
                  + bilinear(gam, dsr, ds)
                  + bilinear(gam, ds, dsr))
            f1 = self.a1(s)
            return df + bilinear(gam, f1, rdot)
        return self._get(("DFdr", s), make)

    def transport(self, s: float) -> Tuple[np.ndarray, np.ndarray]:
        """(L_{r''->r'}, h) at s, which every quantity at s reads: this eps's
        lane of the ladder's pull-backs along gamma_s."""
        return self._get(("Lh", s), lambda: _pullbacks(
            self.sc.law, self.path(s), self.r1, [self.r1 + e for e in self.ladder],
            self.cfg))[self.ladder.index(self.eps)]

    def delta_v(self, s: float) -> np.ndarray:
        return self._get(("dV", s), lambda: relative_velocity(
            self.sc, s, self.eps, self.cfg, self.transport(s)[0]))

    def delta_a(self, s: float) -> np.ndarray:
        return self._get(("dA", s), lambda: _delta_force(
            self.sc, s, self.eps, self.cfg, self.transport(s)[0], self.a1(s), False))

    def delta_p(self, s: float) -> np.ndarray:
        return self._get(("dp", s), lambda: relative_momentum(
            self.sc, s, self.eps, self.cfg, self.transport(s)[0]))

    def delta_k(self, s: float) -> np.ndarray:
        return self._get(("dK", s), lambda: _delta_force(
            self.sc, s, self.eps, self.cfg, self.transport(s)[0], self.a1(s), True))

    def energy(self, s: float) -> float:  # E7_4 alone reads it, with a metric
        return self._get(("E", s), lambda: _relative_energy(
            self.sc, s, self.eps, self.cfg, self.transport(s)[0], self.metric(s)))

    def dev_difference(self, s: float) -> np.ndarray:
        """h - zeta, the O(eps^2) part of the deviation vector."""
        return self._get(("psi", s), lambda: (
            self.transport(s)[1] - self.zeta(s)))

    # -- finite differences ---------------------------------------------------
    def cov_fd(self, fn: Callable[[float], np.ndarray], s: float,
               h: float) -> np.ndarray:
        """Covariant central difference along x1 of a component field."""
        deriv = (fn(s + h) - fn(s - h)) / (2.0 * h)
        return deriv + bilinear(self.gam(s), fn(s), self.v1(s))


# ---------------------------------------------------------------------------
# residual formulas, one per equation id


def _r_e2_10(w: _Workspace, s: float) -> np.ndarray:
    field = w.sc.probe_field
    if field is None:
        raise EvaluationError("scenario provides no probe field for E2_10")
    delta_b = delta_field(w.sc, s, w.eps, field.value, w.cfg,
                          w.transport(s)[0])
    b1 = np.asarray(field.value(s, w.r1), float)
    db_dr = (np.asarray(field.d_r(s, w.r1), float)
             + bilinear(w.gam(s), b1, w.rdot(s)))
    return delta_b - w.eps * db_dr - bilinear(w.s_tensor(s), b1, w.zeta(s))


def _r_e3_1(w: _Workspace, s: float) -> np.ndarray:
    t = w.torsion(s)
    rhs = (curvature_apply(w.curvature(s), w.v1(s), w.zeta(s), w.v1(s))
           + torsion_apply(t, w.v1(s), w.d_zeta(s))
           + torsion_apply(w.d_torsion(s), w.v1(s), w.zeta(s))
           + torsion_apply(t, w.a1(s), w.zeta(s))
           + w.eps * w.df_dr(s))
    return w.d2_zeta(s) - rhs


def _r_e4_1(w: _Workspace, s: float) -> np.ndarray:
    return w.cov_fd(w.dev_difference, s, H_DEV_FIRST)


def _r_e4_3(w: _Workspace, s: float) -> np.ndarray:
    dsr = w.surface("d_sr", s)
    dv_dr = dsr + bilinear(w.gam(s), w.v1(s), w.rdot(s))
    return (w.delta_v(s) - w.eps * dv_dr
            - bilinear(w.s_tensor(s), w.v1(s), w.zeta(s)))


def _r_e4_4(w: _Workspace, s: float) -> np.ndarray:
    return (w.d_zeta(s) - w.delta_v(s)
            - torsion_apply(w.torsion(s), w.v1(s), w.zeta(s))
            + bilinear(w.s_tensor(s), w.v1(s), w.zeta(s)))


def _r_e4_5(w: _Workspace, s: float) -> np.ndarray:
    d_dv = w.cov_fd(w.delta_v, s, H_S)
    s_term = w.cov_fd(lambda u: bilinear(w.s_tensor(u), w.v1(u), w.zeta(u)), s, H_S)
    rhs = (curvature_apply(w.curvature(s), w.v1(s), w.zeta(s), w.v1(s))
           + s_term + w.eps * w.df_dr(s))
    return d_dv - rhs


def _r_e5_1(w: _Workspace, s: float) -> np.ndarray:
    ratio = w.mu2(s) / w.mu1(s)
    return (w.delta_p(s) - w.mu2(s) * w.delta_v(s) - (ratio - 1.0) * w.p1(s))


def _r_e5_2(w: _Workspace, s: float) -> np.ndarray:
    mu1, mu2 = w.mu1(s), w.mu2(s)
    d_dp = w.cov_fd(w.delta_p, s, H_S)
    curv = (mu2 / mu1**2) * curvature_apply(w.curvature(s), w.p1(s), w.zeta(s),
                                            w.p1(s))
    s_term = mu2 * w.cov_fd(
        lambda u: bilinear(w.s_tensor(u), w.p1(u), w.zeta(u)) / w.mu1(u), s, H_S)
    mass_term = w.cov_fd(lambda u: (w.mu2(u) / w.mu1(u) - 1.0) * w.p1(u), s, H_S)
    rhs = (curv + s_term + w.dmu2(s) * w.delta_v(s) + mass_term
           + mu2 * w.eps * w.df_dr(s))
    return d_dp - rhs


def _r_e6_2(w: _Workspace, s: float) -> np.ndarray:
    return (w.delta_a(s) - w.eps * w.df_dr(s)
            - bilinear(w.s_tensor(s), w.a1(s), w.zeta(s)))


def _r_e6_3(w: _Workspace, s: float) -> np.ndarray:
    h = H_DEV_SECOND
    first = lambda u: w.cov_fd(w.dev_difference, u, h)
    return w.cov_fd(first, s, h)


def _r_e6_4(w: _Workspace, s: float) -> np.ndarray:
    t = w.torsion(s)
    s_ten = w.s_tensor(s)
    rhs = (w.delta_a(s)
           + curvature_apply(w.curvature(s), w.v1(s), w.zeta(s), w.v1(s))
           + torsion_apply(t, w.a1(s), w.zeta(s))
           - bilinear(s_ten, w.a1(s), w.zeta(s))
           + torsion_apply(t, w.v1(s), w.d_zeta(s))
           + torsion_apply(w.d_torsion(s), w.v1(s), w.zeta(s)))
    return w.d2_zeta(s) - rhs


def _r_e6_5(w: _Workspace, s: float) -> np.ndarray:
    d_dv = w.cov_fd(w.delta_v, s, H_S)
    rhs = (d_dv
           - curvature_apply(w.curvature(s), w.v1(s), w.zeta(s), w.v1(s))
           - bilinear(w.s_tensor(s), w.v1(s), w.d_zeta(s))
           - bilinear(w.d_s_tensor(s), w.v1(s), w.zeta(s)))
    return w.delta_a(s) - rhs


def _r_e7_1(w: _Workspace, s: float) -> np.ndarray:
    mu1, mu2 = w.mu1(s), w.mu2(s)
    rhs = ((mu2 - mu1) * w.a1(s) + mu2 * w.eps * w.df_dr(s)
           + mu2 * bilinear(w.s_tensor(s), w.a1(s), w.zeta(s)))
    return w.delta_k(s) - rhs


def _r_e7_2(w: _Workspace, s: float) -> np.ndarray:
    mu1, mu2 = w.mu1(s), w.mu2(s)
    d_dp = w.cov_fd(w.delta_p, s, H_S)
    rhs = ((mu2 / mu1**2) * curvature_apply(w.curvature(s), w.p1(s), w.zeta(s),
                                            w.p1(s))
           + (mu2 / mu1) * (bilinear(w.s_tensor(s), w.p1(s), w.d_zeta(s))
                            + bilinear(w.d_s_tensor(s), w.p1(s), w.zeta(s)))
           + w.dmu2(s) * w.delta_v(s)
           + ((w.dmu2(s) - w.dmu1(s)) / mu1) * w.p1(s)
           + w.delta_k(s))
    return d_dp - rhs


def _r_e7_4(w: _Workspace, s: float) -> float:
    if w.sc.metric is None:
        raise EvaluationError("E7_4 requires a scenario metric")
    g = w.metric(s)
    sign = _matrix_sign(g, w.x1_point(s), w.v1(s))
    dg = w.d_metric(s)
    mu1, mu2 = w.mu1(s), w.mu2(s)
    p1, v1, a1 = w.p1(s), w.v1(s), w.a1(s)
    dp = w.delta_p(s)

    def dot(x, y):
        return float(x @ g @ y)

    curv_vec = curvature_apply(w.curvature(s), p1, w.zeta(s), p1)
    s_vec = (bilinear(w.s_tensor(s), p1, w.d_zeta(s))
             + bilinear(w.d_s_tensor(s), p1, w.zeta(s)))
    rhs = sign * (
        (mu2 / mu1**3) * dot(curv_vec, p1)
        + (mu2 / mu1**2) * dot(p1, s_vec)
        + w.dmu2(s) * dot(v1, w.delta_v(s))
        + ((w.dmu2(s) - w.dmu1(s)) / mu1**2) * dot(p1, p1)
        + dot(v1, w.delta_k(s))
        + float(dp @ dg @ v1)
        + dot(dp, a1)
        + w.dmu1(s) * dot(v1, v1)
        + mu1 * (2.0 * dot(v1, a1) + float(v1 @ dg @ v1)))
    h = H_S
    de_ds = (w.energy(s + h) - w.energy(s - h)) / (2.0 * h)
    return de_ds - rhs


@dataclass(frozen=True)
class _EquationInfo:
    residual: Callable[[_Workspace, float], np.ndarray]
    exact: bool = False
    # farthest |s - s_eval| at which the residual's s-difference stencil
    # evaluates the surface
    s_reach: float = H_S


_INFO: Dict[EquationId, _EquationInfo] = {
    EquationId.E2_10: _EquationInfo(_r_e2_10, s_reach=0.0),
    EquationId.E2_13: _EquationInfo(_Workspace.dev_difference, s_reach=0.0),
    EquationId.E3_1: _EquationInfo(_r_e3_1),
    EquationId.E4_1: _EquationInfo(_r_e4_1, s_reach=H_DEV_FIRST),
    EquationId.E4_3: _EquationInfo(_r_e4_3, s_reach=0.0),
    EquationId.E4_4: _EquationInfo(_r_e4_4, s_reach=0.0),
    EquationId.E4_5: _EquationInfo(_r_e4_5),
    EquationId.E5_1: _EquationInfo(_r_e5_1, exact=True, s_reach=0.0),
    EquationId.E5_2: _EquationInfo(_r_e5_2),
    EquationId.E6_2: _EquationInfo(_r_e6_2),
    EquationId.E6_3: _EquationInfo(_r_e6_3, s_reach=2.0 * H_DEV_SECOND),
    EquationId.E6_4: _EquationInfo(_r_e6_4),
    EquationId.E6_5: _EquationInfo(_r_e6_5),
    EquationId.E7_1: _EquationInfo(_r_e7_1),
    EquationId.E7_2: _EquationInfo(_r_e7_2),
    EquationId.E7_4: _EquationInfo(_r_e7_4),
}


def equation_info(eq: EquationId) -> _EquationInfo:
    return _INFO[eq]


def _sample(eq: EquationId, workspace: _Workspace, s: float) -> ResidualSample:
    """Residual of ``eq`` on ``workspace``: the norm is the max-abs chart
    component at x_1(s) (absolute value for the scalar energy equation)."""
    start = time.perf_counter()
    value = _INFO[eq].residual(workspace, s)
    elapsed = time.perf_counter() - start
    return ResidualSample(eq, s, workspace.eps, float(np.max(np.abs(value))),
                          elapsed)


def residual_components(eq: EquationId, scenario: Scenario, s: float,
                        epsilon: float, cfg: OdeConfig = DEFAULT_ODE_CONFIG):
    """Raw residual (component array, or scalar for the energy equation) on
    a fresh workspace."""
    return _INFO[eq].residual(_Workspace(scenario, epsilon, cfg), s)


def residual(eq: EquationId, scenario: Scenario, s: float, epsilon: float,
             cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> ResidualSample:
    """Evaluate one equation residual on a fresh workspace."""
    return _sample(eq, _Workspace(scenario, epsilon, cfg), s)


def _fit_order(eps: np.ndarray, norms: np.ndarray) -> Tuple[float, float]:
    x = np.log(eps)
    y = np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def checked_ladder(epsilon_ladder: Sequence[float]) -> Tuple[float, ...]:
    """The ladder as floats: at least 5 points, positive and strictly
    decreasing; ValueError otherwise, its message starting with the
    parameter name ``epsilon_ladder``."""
    ladder = tuple(float(e) for e in epsilon_ladder)
    if len(ladder) < 5:
        raise ValueError(f"epsilon_ladder needs at least 5 points, got {len(ladder)}")
    if not all(e > 0 for e in ladder):
        raise ValueError(f"epsilon_ladder entries must be positive, got {ladder}")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"epsilon_ladder must be strictly decreasing, got {ladder}")
    return ladder


def convergence_study(equations: Sequence[EquationId], scenario: Scenario,
                      s: float, epsilon_ladder: Sequence[float],
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                      ) -> Tuple[ConvergenceReport, ...]:
    """Evaluate each equation's residual over a strictly decreasing
    separation ladder and fit its order as the least-squares slope of log
    residual against log eps, excluding floor-level points; one report per
    entry of ``equations``.  Ladder-major: every equation shares one workspace
    per eps, so shared quantities are computed once per eps; it is dropped
    before the next eps.  The quantities of (s, r') alone, gamma_s too, live
    in one base memo shared by the whole ladder: computed once per study, as
    are the pull-backs along gamma_s, one stacked solve for the ladder per s."""
    if isinstance(equations, str):
        raise TypeError("convergence_study expects a sequence of EquationId, "
                        f"got the single id {equations!r}")
    ladder = checked_ladder(epsilon_ladder)
    scenario.separation_endpoints(max(ladder))

    equations = tuple(equations)
    columns = [[] for _ in equations]
    base: dict = {}
    for e in ladder:
        workspace = _Workspace(scenario, e, cfg, base, ladder)
        for eq, column in zip(equations, columns):
            column.append(_sample(eq, workspace, s))
        del workspace
    reports = []
    for eq, samples in zip(equations, columns):
        norms = np.array([smp.residual_norm for smp in samples])
        include = norms > FIT_EXCLUSION
        n_fit = int(np.count_nonzero(include))
        if n_fit >= 2:
            order, r2 = _fit_order(np.array(ladder)[include], norms[include])
        else:
            order, r2 = None, None
        reports.append(ConvergenceReport(
            eq=eq, scenario_label=scenario.label, epsilon_ladder=ladder,
            samples=tuple(samples), fitted_order=order, fit_r2=r2,
            floor_detected=bool(np.any(~include)), n_fit_points=n_fit,
            exact=_INFO[eq].exact))
    return tuple(reports)
