"""Independent oracles, read only by the tests: a law's first-order
coefficients recovered from its transport matrices along coordinate probe
paths, the order-0/1 approximants of a transport matrix, a transport solved
by SciPy's DOP853 at a tight tolerance, and the order fit of one residual
ladder by ``np.polyfit``."""

from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from geodev.errors import EvaluationError
from geodev.geometry import ChartPoint, PathCurve
from geodev.transport import (DEFAULT_ODE_CONFIG, OdeConfig, TransportLaw,
                              transport_matrix)

PROBE_EXTENT = 1e-3  # half-length of the coordinate_probes paths
PROBE_STEP = 1e-5    # difference step of extract_first_coeff


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
        start = probe.map(0.0).coords
        if start.shape != x.coords.shape or np.any(np.abs(start - x.coords) > 1e-9):
            raise EvaluationError("probe path does not pass through x at 0",
                                  point=probe.map(0.0))
        tangents[m] = probe.tangent(0.0)

        def first_deriv(h: float) -> np.ndarray:
            plus = transport_matrix(law, probe, 0.0, h, cfg)
            minus = transport_matrix(law, probe, 0.0, -h, cfg)
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
                     cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
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
        return np.eye(d)
    start = path.map(s).coords
    coeff = law.coefficients([s], path, start[None])[0]
    gap = path.map(t).coords - start
    return np.eye(d) + np.einsum("ijk,k->ij", coeff, gap)


def scipy_transport(law: TransportLaw, path: PathCurve, s: float, t: float,
                    components) -> np.ndarray:
    """``transport_components(law, path, s, t, components)`` by
    ``solve_ivp(method="DOP853", rtol=3e-14, atol=1e-16)`` on the flattened
    ``(d, k)`` block of ``dy/du = M(u) y``, ``M^i_j = H^i_{jk} xdot^k``, with
    the law read at one point of ``path.map`` and ``path.tangent`` per call:
    nothing of the package's own stepper, step control or stacked reads."""
    y0 = np.asarray(components, dtype=float)
    d = y0.shape[0]

    def fun(u, y):
        point, xdot = path.map(u), path.tangent(u)
        m = law.coefficients([u], path, point.coords[None])[0] @ xdot
        return (m @ y.reshape(d, -1)).reshape(-1)
    sol = solve_ivp(fun, (s, t), y0.reshape(-1), method="DOP853", rtol=3e-14, atol=1e-16)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(y0.shape)


def polyfit_order(eps, norms) -> tuple:
    """Slope and r^2 of the least-squares line of log ``norms`` against log
    ``eps`` by ``np.polyfit`` (an SVD solve), r^2 = 1 when the log norms
    spread by at most 1e-30 in their sum of squares: one ladder at a time,
    nothing of the package's stacked fit."""
    x, y = np.log(eps), np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(slope), 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
