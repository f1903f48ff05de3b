"""Linear transports along paths.

A transport is *defined* by its coefficient field ``H^i_{jk}(s; path)``: the
transport matrices are generated by integrating the linear ODE

    dH(u, s)/du = M(u) H(u, s),     H(s, s) = I,
    M(u)^i_j = H^i_{jk}(u; path) * xdot^k(u),

by one stepper and one adaptive step control, ``_integrate``: an embedded
Magnus 6(4) pair, exact for a constant generator, for the long solves of
``transport_components`` (a sphere latitude holonomy) and for the short
pull-backs alike.  A pull-back's lanes, the 7 ladder ends along each
connecting path of a study, take their first step, mostly their only one,
as one stack.  Each attempt reads the path points at all its Gauss nodes,
along all its paths, in one stacked call (``geometry.read_points``), the law
once per path on that path's rows, and assembles the generator of the whole
stack at once; ``work_counts`` counts the work.

Parallel transport of an affine connection is the special case
``H^i_{jk} = -Gamma^i_{jk}``; the S-tensor ``S = -H - Gamma`` measures the
mismatch between a transport and the connection (zero iff the transport is
the connection's parallel transport).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import TransportError
from .geometry import (ConnectionField, PathCurve, _checked_stack, checked_array,
                       read_points)

__all__ = [
    "OdeConfig",
    "TransportLaw",
    "DEFAULT_ODE_CONFIG",
    "MIN_REL_TOL",
    "transport_matrix",
    "transport_components",
    "law_from_connection",
    "law_with_offset",
    "s_tensor",
    "work_counts",
]


MIN_REL_TOL = 100 * math.ulp(1.0)  # 100 machine epsilons
_COUNTS = contextvars.ContextVar("work_counts", default=None)  # active Counter


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
    """Coefficient field ``H^i_{jk}(u; path)`` defining a linear transport,
    stated on a stack: ``coeffs_at(us, path, coords)`` is H at each of the
    path parameters ``us``, ``(n, d, d, d)``, given the path's coordinates
    there, the rows of ``coords``."""

    coeffs_at: Callable[..., np.ndarray]

    def coefficients(self, us: Sequence[float], path: PathCurve,
                     coords: np.ndarray) -> np.ndarray:
        """H at each of ``us``, ``(n, d, d, d)``, checked once; ``coords`` are
        the path's coordinates there, ``(n, d)``."""
        return _checked_stack(self.coeffs_at(us, path, coords), coords.shape[1:] * 3,
                              "transport coefficients", coords)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Sum of squares of the entries of each matrix of a stack, bit for bit
    ``np.vdot`` of it with itself: one stacked matmul of the flattened rows,
    each a 1 x n by n x 1 product."""
    x = x.reshape(len(x), 1, -1)
    return (x @ x.swapaxes(1, 2)).ravel()


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of a square matrix, or of each matrix of a stack: [6/6] Pade
    approximant of a / 2^s, Frobenius norm at most theta_6 = 0.54, squared s
    times (Higham, SIAM J. Matrix Anal. 26, 2005), with each matrix's own s."""
    shape, a = a.shape, a.reshape(-1, *a.shape[-2:])
    norms = np.sqrt(_squared_norms(a))
    s = np.array([math.ceil(math.log2(n / 0.54)) if n > 0.54 else 0 for n in norms.tolist()])
    a, eye = a / (2.0 ** s)[:, None, None], np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    odd = a @ (eye / 2 + a2 / 66 + a4 / 15840)
    even = eye + 5 / 44 * a2 + a4 / 792 + (a2 @ a4) / 665280
    e = np.linalg.solve(even - odd, even + odd)
    for i in range(s.max()):  # as matrix_power(e, 2^s): s squarings
        e = np.where((s > i)[:, None, None], e @ e, e)
    return e.reshape(shape)


class _Magnus:
    """Magnus 6(4) pair on Gauss nodes ``c`` (Blanes, Casas & Ros, BIT 40,
    2000) on stacks of lanes (u, h, y); the first step is the whole interval,
    one stack for all lanes of all paths.  Omega4 shares Omega6's Gauss rule
    for int A, so the error (Omega6 - Omega4) Y adds the rule's error h b6 /
    2800 of ``A = sum_k b_k ((u - mid) / h)^k``, b6 = b2 (b2 / b1)^4 (``decay``).
    ``matrices([(path, us)])`` is A at the 3 K nodes ``us`` of each path's K
    lanes, stacked path by path: one read per attempt, its lanes' norms,
    errors and squarings then taken as stack operations."""

    c, order = (0.5 - 15 ** 0.5 / 10, 0.5, 0.5 + 15 ** 0.5 / 10), 4

    @classmethod
    def attempts(cls, matrices, attempts, cfg: OdeConfig) -> list:
        """[(y_new, error)] of an attempt of each h of ``attempts``, ``[(path, u, [h], y)]``."""
        if (counts := _COUNTS.get()) is not None:
            counts["stacked_attempts"] += 1
        g = matrices([(path, [u + c * h for c in cls.c for h in hs])
                      for path, u, hs, _ in attempts])
        g = g.reshape(len(attempts), 3, -1, *g.shape[1:]).swapaxes(0, 1)
        g = g.reshape(3, -1, *g.shape[3:])  # node, lane, row, column
        hs = np.array([h for _, _, hs, _ in attempts for h in hs])[:, None, None]
        a1, a2, a3 = g * hs
        x1, x2, x3 = a2, 15 ** 0.5 / 3 * (a3 - a1), 10 / 3 * (a3 - 2 * a2 + a1)
        c1 = x1 @ x2 - x2 @ x1
        c2 = 2 * x3 + c1
        p, q = c1 - 20 * x1 - x3, x2 - (x1 @ c2 - c2 @ x1) / 60
        m, n = _squared_norms(x2), _squared_norms(x3)
        # as (n / max(m, n / 1e6))^2, or 0 for n = 0: the least subnormal
        # keeps the divisor positive and leaves any positive one as it is
        decay = (n / np.maximum(m, np.maximum(n / 1e6, math.ulp(0.0)))) ** 2
        high = (p @ q - q @ p) / 240
        y = np.array([y for _, _, hs, y in attempts for _ in hs])
        y_new = _expm(x1 + x3 / 12 + high) @ y
        scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
        delta = high + c1 / 12 + (decay / 2800)[:, None, None] * x3
        errors = (delta @ y / scale).reshape(len(y), -1)  # rms per lane:
        rms = np.sqrt(_squared_norms(errors)) / errors.shape[1] ** 0.5
        return list(zip(y_new, rms.tolist()))


def _solve(u: float, t: float, y: np.ndarray, cfg: OdeConfig, step,
           first) -> Tuple[np.ndarray, int]:
    """(y(t), attempted steps) of one lane in at most ``cfg.max_steps`` attempts:
    ``first``, the (y_new, error) of the attempt over all of [u, t], then each
    ``step(u, h, y)``, with the step control of SciPy's ``solve_ivp``
    (Hairer, Norsett & Wanner, Sec. II.4): safety 0.9, step factors within
    [0.2, 10], exponent -1/(q + 1) for the pair's estimate of order q."""
    direction, exponent, attempts = float(np.sign(t - u)), -1 / (_Magnus.order + 1), 0
    h_abs = abs(t - u)
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
            h_abs = abs(h)
            y_new, error = step(u, h, y) if attempts > 1 else first
            if error < 1:
                break
            h_abs *= max(0.2, 0.9 * error ** exponent)
            rejected = True
        factor = 10 if error == 0 else min(10, 0.9 * error ** exponent)
        h_abs *= min(1, factor) if rejected else factor
        u, y = u_new, y_new
    return y, attempts


def _integrate(law: TransportLaw, paths: Sequence[PathCurve],
               generator: Callable[..., np.ndarray],
               y0: np.ndarray, s: float, ends: Sequence[float], cfg: OdeConfig) -> list:
    """[y(t) for path in paths for t in ends] for y' = A(u) y, y(s) = y0 a
    ``(n, k)`` block: a lane per (path, end), whose stacked first attempt
    ends it or is handed to ``_solve``; ``_Magnus`` reads A at the nodes
    ``us`` of a stack in one call: one ``read_points`` of every path's
    nodes, one law read per path on its rows, and ``M^i_j = H^i_{jk}
    xdot^k`` give ``A = generator(us, M, xdot)`` on the whole stack."""
    counts = _COUNTS.get()

    def matrices(reads):
        coords, xdot = read_points(reads)
        rows = itertools.accumulate(len(us) for _, us in reads)
        h = np.concatenate([law.coefficients(us, path, coords[end - len(us):end])
                            for (path, us), end in zip(reads, rows)])
        if counts is not None:
            counts["generator_evals"] += len(coords)
        return generator([u for _, us in reads for u in us],
                         np.matmul(h, xdot[:, None, :, None])[..., 0], xdot)

    def later(path):  # a lane's attempts after its first, one at a time
        return lambda u_at, h, y_at: _Magnus.attempts(matrices, [(path, u_at, [h], y_at)], cfg)[0]

    def lane(path, t, first):  # as _solve, which stops after an accepted first attempt
        if first is not None and first[1] < 1 and (u + (t - u) >= t if t > u else u + (t - u) <= t):
            return first[0], 1  # that reaches t, not short of it
        return _solve(u, t, y, cfg, later(path), first)

    u, ends = float(s), [float(t) for t in ends]
    y = checked_array(y0, y0.shape, "initial transport state")
    hs = [t - u for t in ends if t != u]
    first = iter(hs and _Magnus.attempts(matrices, [(path, u, hs, y) for path in paths], cfg))
    ys, attempts = zip(*(lane(path, t, next(first) if t != u else None)
                         for path in paths for t in ends))
    if counts is not None:
        counts.update(solves=len(ys), attempted_steps=sum(attempts),
                      continued_lanes=sum(n > 1 for n in attempts))
    return list(ys)


@contextlib.contextmanager
def work_counts():
    """``Counter`` of this context's transport work in the block (an inner
    block counts alone): ``solves`` (lanes), ``generator_evals`` (the nodes
    of the generator reads: 3 per lane of an attempt), ``stacked_attempts``
    (the attempts' stacked computations), ``attempted_steps``,
    ``continued_lanes``; a surface's ``surface_stacks`` and
    ``surface_stack_points`` (its calls, all on rows, and the rows they
    read); and the residual formulas'
    ``residual_evals`` (one per equation and study) and ``residual_lanes``
    (the separations they cover)."""
    token = _COUNTS.set(Counter())
    try:
        yield _COUNTS.get()
    finally:
        _COUNTS.reset(token)


def _transport(law: TransportLaw, path: PathCurve, s: float, t: float, components,
               cfg: OdeConfig) -> np.ndarray:
    """``components`` at ``path(s)``, the identity when None, carried to
    ``path(t)``, after the checks: s and t in the path's domain, the start
    read once, the components ``(d,)`` or ``(d, k)`` and finite (an
    EvaluationError names them), and for t != s the law read at s, since
    the Gauss nodes never include s: a singular start raises."""
    path.require(s)
    path.require(t)
    coords = path.points([s])[0]
    d = coords.shape[1]
    if components is None:
        y0 = np.eye(d)
    else:
        y0 = np.asarray(components, dtype=float)
        y0 = checked_array(y0, (d, y0.shape[1]) if y0.ndim == 2 and y0.size else (d,),
                           "initial transport state")
    if t == s:
        return y0.copy()
    law.coefficients([s], path, coords)
    return _integrate(law, [path], lambda us, m, xdot: m, y0.reshape(d, -1), s, [t],
                      cfg)[0].reshape(y0.shape)


def transport_matrix(law: TransportLaw, path: PathCurve, s: float, t: float,
                     cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Transport matrix ``H(t, s; path)`` from parameter ``s`` to ``t``, as a
    ``(d, d)`` array: the identity carried along as ``transport_components``
    carries its columns.

    ``H(s, s)`` is the exact identity (no integration is performed); the
    flow property ``H(t, r) H(r, s) = H(t, s)`` holds within ODE tolerance.
    """
    return _transport(law, path, s, t, None, cfg)


def transport_components(law: TransportLaw, path: PathCurve, s: float, t: float,
                         components: np.ndarray,
                         cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Components at ``path(s)`` transported to ``path(t)``: one vector, or
    the columns of a ``(d, k)`` array, finite, by one solve of the linear ODE
    on the ``(d, k)`` block; a copy when ``t == s``.  Components of another
    shape, or not finite, raise EvaluationError naming them."""
    return _transport(law, path, s, t, components, cfg)


def _pullbacks(law: TransportLaw, paths: Sequence[PathCurve], d: int, s: float,
               ends: Sequence[float], cfg: OdeConfig) -> Tuple[np.ndarray, np.ndarray]:
    """``(P, K, d, d)`` ``L_{t->s}`` and ``(P, K, d)`` ``int_s^t L_{u->s}
    xdot(u) du`` on each of P d-dimensional ``paths`` to each of K ``ends``,
    each lane bit for bit its solve alone, from one Magnus solve of ``Z =
    [[Phi^T], [h^T]]``: ``Z' = G(u) Z``, ``G = [[-M^T, 0], [xdot^T, 0]]``
    on the Gauss nodes, the only points read, carries ``Phi(u) = L_{u->s}`` and h."""
    for path in paths:
        for t in (s, *ends):
            path.require(t)

    def generator(us, m, xdot):  # G at each node of a stack
        g = np.zeros((len(us), d + 1, d + 1))
        g[:, :d, :d], g[:, d, :d] = -m.transpose(0, 2, 1), xdot
        return g

    z = np.array(_integrate(law, paths, generator, np.eye(d + 1, d), s, ends,
                            cfg)).reshape(len(paths), len(ends), d + 1, d)
    return z[:, :, :d].transpose(0, 1, 3, 2), z[:, :, d]


def law_from_connection(conn: ConnectionField) -> TransportLaw:
    """Parallel-transport law of the connection: ``H^i_{jk} = -Gamma^i_{jk}``
    at the path's points, Gamma read unchecked: the law's calls check H once."""
    return TransportLaw(lambda us, path, coords: -np.asarray(conn.gamma_at(coords), float))


def law_with_offset(conn: ConnectionField, sigma: np.ndarray) -> TransportLaw:
    """Transport law ``H = -Gamma - sigma`` for a constant ``(d, d, d)`` array
    ``sigma``, so that the S-tensor recovers ``sigma`` exactly."""
    parallel, sigma = law_from_connection(conn), np.asarray(sigma, dtype=float)
    return TransportLaw(lambda us, path, coords: parallel.coeffs_at(us, path, coords) - sigma)


def s_tensor(law: TransportLaw, conn: ConnectionField, path: PathCurve,
             r: float) -> np.ndarray:
    """S-tensor ``S^i_{jk} = -H^i_{jk}(r; path) - Gamma^i_{jk}(path(r))``,
    valence (1,2) at ``path(r)``."""
    coords = path.map(r).coords
    return _s_tensor(law, path, r, coords, conn.coefficients(coords[None])[0])


def _s_tensor(law: TransportLaw, path: PathCurve, r: float, coords, gamma) -> np.ndarray:
    """``-H(r; path) - gamma``, given the path's ``coords`` and Gamma at r."""
    return -law.coefficients([r], path, coords[None])[0] - gamma
