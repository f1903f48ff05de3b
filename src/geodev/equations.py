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

Evaluation policy: a study evaluates each residual once, on stacks over its
eps-ladder, and splits the formula's value into one sample per eps.  Its
workspace is a ``kinematics._Ladder``, the one implementation of the
relative quantities, whose public functions read lane 0 of a ladder of one:
every eps-dependent quantity carries a leading ladder axis, each lane
computed bit for bit as its eps alone would be.  Its s-grid is every s its
equations declare, and it reads each surface datum, each field at x_1 and
the pull-backs along the paths gamma_s once over that grid, when first
asked, the pull-backs in one solve of one lane per (s, eps); every relative
quantity at s applies its pull-back map L_{r''->r'} to particle 2's
vector, and the deviation vector h rides on the same solve.

Numerical differentiation policy: every numerical derivative is a central
difference in s taken by ``_Workspace.d_ds``, with step ``H_S`` = 1e-5 for
analytically-evaluable data; s-derivatives of the deviation vector act on
the difference field ``h - zeta`` (itself O(eps^2)) with larger steps, so
that truncation scales with the residual and the solver's step-selection
noise stays below the fit floor.
"""

from __future__ import annotations

import enum
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import EvaluationError
# curvature_at, delta_field, deviation_vector and the relative_* functions
# stay bound here, unused: perfbench/tracer.py wraps them
from .geometry import (bilinear, cov_tensor_components, curvature_apply, curvature_at,
                       curvature_components, torsion_apply, torsion_components)
from .kinematics import (Scenario, _Ladder, delta_field, deviation_vector,
                         relative_acceleration, relative_energy, relative_force,
                         relative_momentum, relative_velocity)
from .transport import _COUNTS, DEFAULT_ODE_CONFIG, OdeConfig, _s_tensor

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
    """One equation residual at one separation; ``wall_time`` is the time
    of the equation's one evaluation on its study's ladder stack, split
    evenly over the stack's samples."""

    eq: EquationId
    s: float
    epsilon: float
    residual_norm: float
    wall_time: float

    def __post_init__(self):
        if not math.isfinite(self.residual_norm) or self.residual_norm < 0:
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
# evaluation workspace of one study, on the stack of its ladder


class _Workspace(_Ladder):
    """Lazy, memoized evaluations of one study, shared by the residual
    formulas of every equation evaluated on it: the relative kinematics of
    ``_Ladder`` on the study's ladder, and the connection, curvature and
    S-tensor at x_1(s) with their covariant s-derivatives, which depend on
    (s, r') alone and so are computed once for the whole ladder.
    """

    def dgam(self, s: float) -> np.ndarray:
        return self.at_x1("dgam", s)

    def torsion(self, s: float) -> np.ndarray:
        return self._get(("T", s), lambda: torsion_components(self.gam(s)))

    def curvature(self, s: float) -> np.ndarray:
        return self._get(("R", s),
                         lambda: curvature_components(self.gam(s), self.dgam(s)))

    def s_tensor(self, s: float) -> np.ndarray:
        return self._get(("S", s), lambda: _s_tensor(
            self.sc.law, self.path(s), self.r1, self.surface("map", s), self.gam(s)))

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
        derivative by ``d_ds``)."""
        return self._get(("DS", s), lambda: cov_tensor_components(
            self.gam(s), self.v1(s), self.s_tensor(s),
            self.d_ds(self.s_tensor, s, H_S), (1, 2)))

    def d_metric(self, s: float) -> np.ndarray:
        """Covariant derivative of the metric along x1 (nonmetricity)."""
        def make():
            dg = self.at_x1("dg", s)
            dg_ds = np.einsum("ijl,l->ij", dg, self.v1(s))
            return cov_tensor_components(self.gam(s), self.v1(s), self.metric(s),
                                         dg_ds, (0, 2))
        return self._get(("Dg", s), make)

    # -- deviation quantities, on the ladder stack ----------------------------
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
        central s-difference (``d_ds``) of the analytic d_sr data."""
        def make():
            gam = self.gam(s)
            dgam = self.dgam(s)
            ds = self.v1(s)
            dsr = self.surface("d_sr", s)
            rdot = self.rdot(s)
            d_ssr = self.d_ds(lambda u: self.surface("d_sr", u), s, H_S)
            # product rule on Gamma d_s d_s keeps both orders: Gamma need
            # not be symmetric in its lower indices
            df = (d_ssr
                  + np.einsum("ijkl,l,j,k->i", dgam, rdot, ds, ds)
                  + bilinear(gam, dsr, ds)
                  + bilinear(gam, ds, dsr))
            f1 = self.a1(s)
            return df + bilinear(gam, f1, rdot)
        return self._get(("DFdr", s), make)

    # -- finite differences ---------------------------------------------------
    @staticmethod
    def d_ds(fn: Callable[[float], np.ndarray], s: float, h: float) -> np.ndarray:
        """The central difference of ``fn`` at s with step h: the one
        numerical derivative of the package."""
        return (fn(s + h) - fn(s - h)) / (2.0 * h)

    def cov_fd(self, fn: Callable[[float], np.ndarray], s: float,
               h: float) -> np.ndarray:
        """Covariant central difference along x1 of a component field."""
        return self.d_ds(fn, s, h) + bilinear(self.gam(s), fn(s), self.v1(s))


# ---------------------------------------------------------------------------
# residual formulas, one per equation id


def _r_e2_10(w: _Workspace, s: float) -> np.ndarray:
    if w.sc.probe_field is None:
        raise EvaluationError("scenario provides no probe field for E2_10")
    b1 = w.surface("probe field", s)
    delta_b = w.carry(s, w.rows("probe field", s)) - b1
    db_dr = w.surface("probe field d_r", s) + bilinear(w.gam(s), b1, w.rdot(s))
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


def _r_e7_4(w: _Workspace, s: float) -> np.ndarray:
    if w.sc.metric is None:
        raise EvaluationError("E7_4 requires a scenario metric")
    g = w.metric(s)
    sign = w.sign(s)
    dg = w.d_metric(s)
    mu1, mu2 = w.mu1(s), w.mu2(s)
    p1, v1, a1 = w.p1(s), w.v1(s), w.a1(s)
    dp = w.delta_p(s)

    def dot(x, y, m=g):  # x @ m @ y on each lane: (K, 1), or (1,) for two vectors
        return (x[..., None, :] @ m @ y[..., None])[..., 0]

    curv_vec = curvature_apply(w.curvature(s), p1, w.zeta(s), p1)
    s_vec = (bilinear(w.s_tensor(s), p1, w.d_zeta(s))
             + bilinear(w.d_s_tensor(s), p1, w.zeta(s)))
    rhs = sign * (
        (mu2 / mu1**3) * dot(curv_vec, p1)
        + (mu2 / mu1**2) * dot(p1, s_vec)
        + w.dmu2(s) * dot(v1, w.delta_v(s))
        + ((w.dmu2(s) - w.dmu1(s)) / mu1**2) * dot(p1, p1)
        + dot(v1, w.delta_k(s))
        + dot(dp, v1, dg)
        + dot(dp, a1)
        + w.dmu1(s) * dot(v1, v1)
        + mu1 * (2.0 * dot(v1, a1) + float(v1 @ dg @ v1)))
    return (w.d_ds(w.energy, s, H_S) - rhs)[:, 0]


@dataclass(frozen=True)
class _EquationInfo:
    """A residual formula, whether it is exact, and the steps of its nested
    s-differences, which reach every s at which the formula reads."""

    residual: Callable[[_Workspace, float], np.ndarray]
    exact: bool = False
    stencil: Tuple[float, ...] = ()

    def pullback_s(self, s: float) -> list:
        """s and the nested central differences of ``stencil``, as ``d_ds``
        forms them: the formula's s-grid."""
        ss = [s]
        for h in self.stencil:
            ss = [v for u in ss for v in (u, u + h, u - h)]
        return list(dict.fromkeys(ss))


_INFO: Dict[EquationId, _EquationInfo] = {
    EquationId.E2_10: _EquationInfo(_r_e2_10),
    EquationId.E2_13: _EquationInfo(_Workspace.dev_difference),
    EquationId.E3_1: _EquationInfo(_r_e3_1, stencil=(H_S,)),
    EquationId.E4_1: _EquationInfo(_r_e4_1, stencil=(H_DEV_FIRST,)),
    EquationId.E4_3: _EquationInfo(_r_e4_3),
    EquationId.E4_4: _EquationInfo(_r_e4_4),
    EquationId.E4_5: _EquationInfo(_r_e4_5, stencil=(H_S,)),
    EquationId.E5_1: _EquationInfo(_r_e5_1, exact=True),
    EquationId.E5_2: _EquationInfo(_r_e5_2, stencil=(H_S,)),
    EquationId.E6_2: _EquationInfo(_r_e6_2, stencil=(H_S,)),
    EquationId.E6_3: _EquationInfo(_r_e6_3, stencil=(H_DEV_SECOND,) * 2),
    EquationId.E6_4: _EquationInfo(_r_e6_4, stencil=(H_S,)),
    EquationId.E6_5: _EquationInfo(_r_e6_5, stencil=(H_S,)),
    EquationId.E7_1: _EquationInfo(_r_e7_1, stencil=(H_S,)),
    EquationId.E7_2: _EquationInfo(_r_e7_2, stencil=(H_S,)),
    EquationId.E7_4: _EquationInfo(_r_e7_4, stencil=(H_S,)),
}


def equation_info(eq: EquationId) -> _EquationInfo:
    return _INFO[eq]


def _samples(eq: EquationId, workspace: _Workspace, s: float) -> list:
    """Residuals of ``eq`` on ``workspace``, one evaluation on its ladder
    stack split into one sample per lane: the norm is the max-abs chart
    component at x_1(s) (absolute value for the scalar energy equation), the
    wall time the evaluation's, split evenly over the lanes."""
    lanes = len(workspace.ladder)
    start = time.perf_counter()
    value = _INFO[eq].residual(workspace, s)
    elapsed = (time.perf_counter() - start) / lanes
    if (counts := _COUNTS.get()) is not None:
        counts.update(residual_evals=1, residual_lanes=lanes)
    norms = np.abs(value).reshape(lanes, -1).max(axis=1)
    return [ResidualSample(eq, s, e, float(norm), elapsed)
            for e, norm in zip(workspace.ladder, norms)]


def _evaluate(equations: Sequence[EquationId], scenario: Scenario, s: float,
              ladder: Tuple[float, ...], cfg: OdeConfig) -> list:
    """The samples of each of ``equations``, in order, on one workspace
    whose grid is every s the equations declare."""
    grid = [u for eq in equations for u in _INFO[eq].pullback_s(s)]
    workspace = _Workspace(scenario, ladder, grid, cfg)
    return [_samples(eq, workspace, s) for eq in equations]


def residual(eq: EquationId, scenario: Scenario, s: float, epsilon: float,
             cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> ResidualSample:
    """Evaluate one equation residual on a fresh workspace of the one-point
    ladder ``(epsilon,)``, as a study does."""
    [[sample]] = _evaluate([eq], scenario, s, (epsilon,), cfg)
    return sample


def _fit_orders(ladder: Tuple[float, ...], norms: np.ndarray) -> tuple:
    """Slope and r^2 of log residual against log eps, and the number of
    points fitted, for each row of the (E, K) ``norms``: one closed-form
    centred least squares, each row weighted by its mask of points above
    ``FIT_EXCLUSION``; a row fitted on fewer than 2 points reads NaN."""
    w = norms > FIT_EXCLUSION
    n = w.sum(axis=1)
    x, y = np.log(ladder), np.log(np.where(w, norms, 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        dx = w * (x - (w @ x / n)[:, None])
        dy = w * (y - (np.sum(w * y, axis=1) / n)[:, None])
        slope = np.sum(dx * dy, axis=1) / np.sum(dx * dx, axis=1)
        ss_res = np.sum((dy - slope[:, None] * dx) ** 2, axis=1)
        ss_tot = np.sum(dy * dy, axis=1)
        return slope, np.where(ss_tot <= 1e-30, 1.0, 1.0 - ss_res / ss_tot), n


def checked_ladder(epsilon_ladder: Sequence[float]) -> Tuple[float, ...]:
    """The ladder as floats: at least 5 points, finite, positive and strictly
    decreasing; ValueError otherwise, its message starting with the
    parameter name ``epsilon_ladder``."""
    # compared before float(): an integer too large for a float is out of range
    if any(abs(e) > sys.float_info.max for e in epsilon_ladder):
        raise ValueError(f"epsilon_ladder entries must be finite, got {tuple(epsilon_ladder)}")
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
    entry of ``equations``.  Every equation shares one workspace, which
    carries the eps-dependent quantities as stacks over the ladder: each
    quantity, and each equation's residual, is evaluated once per study,
    each read over every s its equations declare once, and
    every order in one closed-form fit of the (E, K) stack of norms."""
    if isinstance(equations, str):
        raise TypeError("convergence_study expects a sequence of EquationId, "
                        f"got the single id {equations!r}")
    ladder = checked_ladder(epsilon_ladder)
    studied = _evaluate(equations, scenario, s, ladder, cfg)
    norms = np.array([[smp.residual_norm for smp in samples] for samples in studied])
    fits = zip(*_fit_orders(ladder, norms.reshape(len(studied), len(ladder))))
    return tuple(ConvergenceReport(
        eq=eq, scenario_label=scenario.label, epsilon_ladder=ladder,
        samples=tuple(samples), fitted_order=float(order) if n >= 2 else None,
        fit_r2=float(r2) if n >= 2 else None, floor_detected=bool(n < len(ladder)),
        n_fit_points=int(n), exact=_INFO[eq].exact)
        for eq, samples, (order, r2, n) in zip(equations, studied, fits))
