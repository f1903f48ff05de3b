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

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import EvaluationError, TransportError
from .geometry import (ChartPoint, ConnectionField, PathCurve, Tensor,
                       checked_array)

__all__ = [
    "OdeConfig",
    "TransportLaw",
    "TransportMatrix",
    "DEFAULT_ODE_CONFIG",
    "MIN_REL_TOL",
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


MIN_REL_TOL = 100 * math.ulp(1.0)  # 100 machine epsilons
PROBE_EXTENT = 1e-3  # half-length of the coordinate_probes paths
PROBE_STEP = 1e-5    # difference step of extract_first_coeff


@dataclass(frozen=True)
class OdeConfig:
    """Tolerances for the transport-generating ODE solves."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10**6

    def __post_init__(self):  # each message starts with the field name
        if not self.rel_tol >= MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least 100 machine epsilons "
                             f"({MIN_REL_TOL!r}), got {self.rel_tol!r}")
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if not self.max_steps > 0:
            raise ValueError(f"max_steps must be positive, got {self.max_steps!r}")


DEFAULT_ODE_CONFIG = OdeConfig()


@dataclass(frozen=True)
class TransportLaw:
    """Coefficient field ``H^i_{jk}(s; path)`` defining a linear transport."""

    coeff_at: Callable[[float, PathCurve], np.ndarray]

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


# Dormand & Prince (1980) 5(4) tableau; the step control in _integrate is
# that of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4, as in SciPy's
# RK45: safety 0.9, step factors within [0.2, 10], error exponent -1/5.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = [np.array(a) for a in ([], [1/5], [3/40, 9/40], [44/45, -56/15, 32/9],
                            [19372/6561, -25360/2187, 64448/6561, -212/729],
                            [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])]
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


def _integrate(law: TransportLaw, path: PathCurve,
               rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
               y0: np.ndarray, s: float, t: float, cfg: OdeConfig) -> np.ndarray:
    """y(t) for dy/du = rhs(u, M(u), y), ``M(u)^i_j = H^i_{jk}(u; path) xdot^k(u)``,
    from y(s) = y0 in at most ``cfg.max_steps`` attempted RK 5(4) steps."""
    last = [None, None]  # the last parameter and its M, shared by the stages at u + h

    def fun(u, y):  # rhs gets M read-only, so it cannot write into the memo
        if u != last[0]:
            last[:] = u, law.coefficients(u, path) @ path.tangent(u).components
            last[1].flags.writeable = False
        return rhs(u, last[1], y)

    def norm(x):  # RMS, as np.linalg.norm(x) / sqrt(x.size)
        return math.sqrt(np.dot(x, x)) / root_n

    u, t, y = float(s), float(t), checked_array(y0, y0.shape, "initial transport state")
    direction, f, root_n = np.sign(t - u), fun(u, y), y.size ** 0.5
    scale = cfg.abs_tol + np.abs(y) * cfg.rel_tol  # first step: one more RHS call
    d0, d1 = norm(y / scale), norm(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t - u))
    d2 = norm((fun(u + h0 * direction, y + h0 * direction * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs, k, attempts = min(100 * h0, h1, abs(t - u)), np.empty((7, y.size)), 0
    while direction * (u - t) < 0:
        min_step = 10 * abs(math.nextafter(u, direction * math.inf) - u)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise TransportError("transport ODE failed: Required step "
                                     "size is less than spacing between numbers.")
            attempts += 1
            if attempts > cfg.max_steps:
                raise TransportError(f"transport ODE exceeded {cfg.max_steps} steps")
            u_new = u + h_abs * direction
            u_new = t if direction * (u_new - t) > 0 else u_new
            h = u_new - u
            h_abs, k[0] = abs(h), f
            for i in range(1, 6):
                k[i] = fun(u + _C[i] * h, y + np.dot(k[:i].T, _A[i]) * h)
            y_new = y + h * np.dot(k[:-1].T, _B)
            k[-1] = f_new = fun(u + h, y_new)  # stage at u + h, not u_new
            scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
            error = norm(np.dot(k.T, _E) * h / scale)
            if error < 1:
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)
            rejected = True
        factor = 10 if error == 0 else min(10, 0.9 * error ** -0.2)
        h_abs *= min(1, factor) if rejected else factor
        u, y, f = u_new, y_new, f_new
    return y


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
    def linear(u, m, y):  # dY/du = M(u) Y, Y flattened
        return (m @ y.reshape(m.shape[0], -1)).reshape(-1)
    return _integrate(law, path, linear, y0.reshape(-1), s, t, cfg).reshape(y0.shape)


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
    evaluated at the path point.  Gamma is read unchecked:
    ``TransportLaw.coefficients`` checks H once."""
    def coeff(s: float, path: PathCurve) -> np.ndarray:
        return -np.asarray(conn.gamma_at(path.map(s)), dtype=float)
    return TransportLaw(coeff)


def law_with_offset(conn: ConnectionField,
                    sigma: Callable[[ChartPoint], np.ndarray]) -> TransportLaw:
    """Transport law ``H = -Gamma - sigma``, so that the S-tensor recovers
    ``sigma`` exactly."""
    def coeff(s: float, path: PathCurve) -> np.ndarray:
        point = path.map(s)
        return (-np.asarray(conn.gamma_at(point), dtype=float)
                - np.asarray(sigma(point), dtype=float))
    return TransportLaw(coeff)


def s_tensor(law: TransportLaw, conn: ConnectionField, path: PathCurve,
             r: float) -> Tensor:
    """S-tensor ``S^i_{jk} = -H^i_{jk}(r; path) - Gamma^i_{jk}(path(r))``,
    valence (1,2) at ``path(r)``."""
    point = path.map(r)
    entries = -law.coefficients(r, path) - conn.coefficients(point)
    return Tensor(point, (1, 2), entries)


def coordinate_probes(x: ChartPoint) -> list:
    """Straight coordinate-line probe paths through ``x`` at parameter 0 over
    ``[-PROBE_EXTENT, PROBE_EXTENT]``, one per chart axis; suitable input for
    extract_first_coeff."""
    def probe(ei: np.ndarray) -> PathCurve:
        return PathCurve(lambda t: (x.coords + t * ei, ei),
                         (-PROBE_EXTENT, PROBE_EXTENT))
    return [probe(e) for e in np.eye(x.dimension)]


def extract_first_coeff(law: TransportLaw, x: ChartPoint,
                        probe_paths: Sequence[PathCurve],
                        cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Recover the first-order transport coefficients ``H^i_{jk}`` at ``x``
    from the transport matrices themselves.

    Differentiates ``H(t, 0)`` in ``t`` at 0 along each probe path (central
    difference with step ``PROBE_STEP`` and one Richardson level), giving
    ``M_m = H_k tdot_m^k`` per probe, then solves the linear system for the
    ``d`` matrices ``H_k``.
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

        coarse = first_deriv(PROBE_STEP)
        fine = first_deriv(PROBE_STEP / 2.0)
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
