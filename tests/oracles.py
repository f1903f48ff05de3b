"""Independent oracles of the transport coefficients, read only by the
tests: a law's first-order coefficients recovered from its transport
matrices along coordinate probe paths, and the order-0/1 approximants of a
transport matrix."""

from typing import Sequence

import numpy as np

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
        if not probe.map(0.0).close_to(x):
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
