"""Linear transports along paths.

A transport is *defined* by its coefficient field ``H^i_{jk}(s; path)``: the
transport matrices are generated by integrating the linear ODE

    dH(u, s)/du = M(u) H(u, s),     H(s, s) = I,
    M(u)^i_j = H^i_{jk}(u; path) * xdot^k(u),

with an adaptive embedded Runge-Kutta 5(4) pair.  Parallel transport of an
affine connection is the special case ``H^i_{jk} = -Gamma^i_{jk}``; the
S-tensor ``S = -H - Gamma`` measures the mismatch between a transport and
the connection (zero iff the transport is the connection's parallel
transport).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import EvaluationError, TransportError
from .geometry import (ChartPoint, ConnectionField, PathCurve, Tensor,
                       checked_array)

__all__ = [
    "OdeConfig",
    "TransportLaw",
    "TransportMatrix",
    "DEFAULT_ODE_CONFIG",
    "transport_matrix",
    "transport_components",
    "pullback_integral",
    "law_from_connection",
    "law_with_offset",
    "extract_first_coeff",
    "approx_transport",
    "s_tensor",
    "coordinate_probes",
]


@dataclass(frozen=True)
class OdeConfig:
    """Tolerances for the transport-generating ODE solves."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10**6

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("ODE tolerances must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


DEFAULT_ODE_CONFIG = OdeConfig()


@dataclass(frozen=True)
class TransportLaw:
    """Coefficient field ``H^i_{jk}(s; path)`` defining a linear transport."""

    coeff_at: Callable[[float, PathCurve], np.ndarray]
    label: str = ""

    def coefficients(self, s: float, path: PathCurve) -> np.ndarray:
        point = path.map(s)
        return checked_array(self.coeff_at(s, path), (point.dimension,) * 3,
                             "transport coefficients", point)


@dataclass(frozen=True)
class TransportMatrix:
    """Matrix of ``L_{s->t}`` along a path, mapping components at
    ``from_param`` to components at ``to_param``."""

    from_param: float
    to_param: float
    path: PathCurve
    entries: np.ndarray


def _integrate(law: TransportLaw, path: PathCurve,
               rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
               y0: np.ndarray, s: float, t: float, cfg: OdeConfig) -> np.ndarray:
    """Integrate dy/du = rhs(u, M(u), y) from s to t (RK45) within the step
    budget of ``cfg``, where ``M(u)^i_j = H^i_{jk}(u; path) xdot^k(u)``;
    returns y(t)."""
    evals = 0
    # RK45 uses at most 7 rhs evaluations per step (6 stages + FSAL reuse)
    eval_budget = 8 * cfg.max_steps

    def budgeted(u, y):
        nonlocal evals
        evals += 1
        if evals > eval_budget:
            raise TransportError(
                f"transport ODE exceeded {cfg.max_steps} steps")
        coeff = law.coefficients(u, path)
        m = np.einsum("ijk,k->ij", coeff, path.tangent(u).components)
        return rhs(u, m, y)

    sol = solve_ivp(budgeted, (s, t), y0, method="RK45",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol)
    if not sol.success:
        raise TransportError(f"transport ODE failed: {sol.message}")
    return sol.y[:, -1]


def _linear_rhs(u: float, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dY/du = M(u) Y for a flattened vector or d x d matrix Y."""
    return (m @ y.reshape(m.shape[0], -1)).reshape(-1)


def transport_matrix(law: TransportLaw, path: PathCurve, s: float, t: float,
                     cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> TransportMatrix:
    """Transport matrix ``H(t, s; path)`` from parameter ``s`` to ``t``: the
    identity carried along by ``transport_components``.

    ``H(s, s)`` is the exact identity (no integration is performed); the
    flow property ``H(t, r) H(r, s) = H(t, s)`` holds within ODE tolerance.
    """
    path.require(s)
    eye = np.eye(path.map(s).dimension)
    return TransportMatrix(s, t, path, transport_components(law, path, s, t, eye, cfg))


def transport_components(law: TransportLaw, path: PathCurve, s: float, t: float,
                         components: np.ndarray,
                         cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Components at ``path(s)`` transported to ``path(t)``: one vector, or
    the columns of a ``d x k`` array, by one solve of the linear ODE; a copy
    when ``t == s``."""
    path.require(s)
    path.require(t)
    y0 = np.asarray(components, dtype=float)
    if t == s:
        return y0.copy()
    return _integrate(law, path, _linear_rhs, y0.reshape(-1), s, t, cfg).reshape(y0.shape)


def pullback_integral(law: TransportLaw, path: PathCurve, s: float, t: float,
                      f: Callable[[float], np.ndarray],
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG
                      ) -> Tuple[TransportMatrix, np.ndarray]:
    """``L_{t->s}`` and ``int_s^t L_{u->s} f(u) du`` from one RK45 solve.

    ``Phi(u) = L_{u->s}`` obeys ``dPhi/du = -Phi M(u)``, ``Phi(s) = I``; the
    integral rides along as ``d`` extra state components ``Phi(u) f(u)``.
    """
    path.require(s)
    path.require(t)
    d = path.map(s).dimension

    def rhs(u, m, y):
        phi = y[:d * d].reshape(d, d)
        return np.concatenate(((-phi @ m).reshape(-1), phi @ f(u)))

    y = np.concatenate((np.eye(d).reshape(-1), np.zeros(d)))
    if t != s:
        y = _integrate(law, path, rhs, y, s, t, cfg)
    return TransportMatrix(t, s, path, y[:d * d].reshape(d, d)), y[d * d:]


def law_from_connection(conn: ConnectionField) -> TransportLaw:
    """Parallel-transport law of the connection: ``H^i_{jk} = -Gamma^i_{jk}``
    evaluated at the path point."""
    def coeff(s: float, path: PathCurve) -> np.ndarray:
        return -conn.coefficients(path.map(s))
    return TransportLaw(coeff, label="parallel")


def law_with_offset(conn: ConnectionField,
                    sigma: Callable[[ChartPoint], np.ndarray]) -> TransportLaw:
    """Transport law ``H = -Gamma - sigma``, so that the S-tensor recovers
    ``sigma`` exactly."""
    def coeff(s: float, path: PathCurve) -> np.ndarray:
        point = path.map(s)
        return -conn.coefficients(point) - np.asarray(sigma(point), dtype=float)
    return TransportLaw(coeff, label="parallel+offset")


def s_tensor(law: TransportLaw, conn: ConnectionField, path: PathCurve,
             r: float) -> Tensor:
    """S-tensor ``S^i_{jk} = -H^i_{jk}(r; path) - Gamma^i_{jk}(path(r))``,
    valence (1,2) at ``path(r)``."""
    point = path.map(r)
    entries = -law.coefficients(r, path) - conn.coefficients(point)
    return Tensor(point, (1, 2), entries)


def coordinate_probes(x: ChartPoint, extent: float = 1e-3) -> list:
    """Straight coordinate-line probe paths through ``x`` at parameter 0,
    one per chart axis; suitable input for extract_first_coeff."""
    def probe(ei: np.ndarray) -> PathCurve:
        return PathCurve(lambda t: (x.coords + t * ei, ei), (-extent, extent))
    return [probe(e) for e in np.eye(x.dimension)]


def extract_first_coeff(law: TransportLaw, x: ChartPoint,
                        probe_paths: Sequence[PathCurve],
                        cfg: OdeConfig = DEFAULT_ODE_CONFIG,
                        step: float = 1e-5) -> np.ndarray:
    """Recover the first-order transport coefficients ``H^i_{jk}`` at ``x``
    from the transport matrices themselves.

    Differentiates ``H(t, 0)`` in ``t`` at 0 along each probe path (central
    difference with one Richardson level), giving ``M_m = H_k tdot_m^k`` per
    probe, then solves the linear system for the ``d`` matrices ``H_k``.
    Probe paths must pass through ``x`` at parameter 0 with tangents that
    span the tangent space.
    """
    d = x.dimension
    if len(probe_paths) != d:
        raise EvaluationError(f"need exactly {d} probe paths, got {len(probe_paths)}")
    tangents = np.empty((d, d))
    derivs = np.empty((d, d, d))
    for m, probe in enumerate(probe_paths):
        if not probe.map(0.0).close_to(x):
            raise EvaluationError("probe path does not pass through x at 0",
                                  point=probe.map(0.0))
        tangents[m] = probe.tangent(0.0).components

        def first_deriv(h: float) -> np.ndarray:
            plus = transport_matrix(law, probe, 0.0, h, cfg).entries
            minus = transport_matrix(law, probe, 0.0, -h, cfg).entries
            return (plus - minus) / (2.0 * h)

        coarse = first_deriv(step)
        fine = first_deriv(step / 2.0)
        derivs[m] = (4.0 * fine - coarse) / 3.0
    if np.linalg.cond(tangents) >= 1e6:
        raise EvaluationError("probe tangents are rank deficient", point=x)
    # solve tangents @ U = derivs for U[k] = H_k, componentwise over (i, j)
    stacked = np.linalg.solve(tangents, derivs.reshape(d, d * d))
    return np.moveaxis(stacked.reshape(d, d, d), 0, -1)


def approx_transport(law: TransportLaw, path: PathCurve, s: float, t: float,
                     order: int,
                     cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> TransportMatrix:
    """N-th order approximant of the transport matrix in powers of the
    endpoint separation, N in {0, 1}.

    N=0 is the identity; N=1 is ``I + H_k(s)(x^k(t) - x^k(s))`` with the
    coefficients taken from the law's own field (the laws in this package
    are all coefficient-generated).
    """
    if order not in (0, 1):
        raise ValueError("approximation order must be 0 or 1")
    path.require(s)
    path.require(t)
    d = path.map(s).dimension
    if order == 0:
        return TransportMatrix(s, t, path, np.eye(d))
    coeff = law.coefficients(s, path)
    gap = path.map(t).coords - path.map(s).coords
    entries = np.eye(d) + np.einsum("ijk,k->ij", coeff, gap)
    return TransportMatrix(s, t, path, entries)
