"""Linear transports along paths.

A transport is *defined* by its coefficient field ``H^i_{jk}(s; path)``: the
transport matrices are generated by integrating the linear ODE

    dH(u, s)/du = M(u) H(u, s),     H(s, s) = I,
    M(u)^i_j = H^i_{jk}(u; path) * xdot^k(u),

by one adaptive step control, ``_integrate``: with the Runge-Kutta pair
DOP853 for the long solves of ``transport_components`` (a sphere latitude
holonomy), and with a Magnus 6(4) pair, exact for a constant generator, for
the short pull-backs, whose 7 ladder lanes along one path take their first
step, mostly their only one, as one stack.  Both read the generator at a
whole step's nodes in one stacked path and one stacked law call;
``work_counts`` counts the work.

Parallel transport of an affine connection is the special case
``H^i_{jk} = -Gamma^i_{jk}``; the S-tensor ``S = -H - Gamma`` measures the
mismatch between a transport and the connection (zero iff the transport is
the connection's parallel transport).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import TransportError
from .geometry import ConnectionField, PathCurve, checked_array, _checked_stack

__all__ = [
    "OdeConfig",
    "TransportLaw",
    "DEFAULT_ODE_CONFIG",
    "MIN_REL_TOL",
    "transport_matrix",
    "transport_components",
    "pullback_integral",
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


def _rms(x: np.ndarray) -> float:  # as np.linalg.norm(x) / sqrt(x.size)
    return math.sqrt(np.dot(x, x)) / x.size ** 0.5


class _DOP853:
    """Dormand & Prince 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving
    ODEs I, 2nd ed.), as SciPy's DOP853 without the extra stages of its dense
    output, on one lane (u, h, y); the coefficients are those of SciPy's
    ``dop853_coefficients``.  Stage ``i`` is taken at ``u + c[i] h`` and ``y + h
    sum_j a[i][j] k_j``, the step is ``h sum_i b[i] k_i``; the linear ODE's
    generator is known at every stage parameter before any stage, so a step
    reads its 11 distinct ones, ``generator(us)`` ``(11, n, n)``, at once
    (c = 1 gives u + h, shared by the last stage and the next step's first)."""

    c = np.array([
        0.0, 0.526001519587677318785587544488e-01,
        0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
        0.281649658092772603273242802490, 0.333333333333333333333333333333,
        0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
        0.6, 0.857142857142857142857142857142, 1.0])
    a = tuple(np.array(a) for a in (
        [],
        [5.26001519587677318785587544488e-2],
        [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
        [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2],
        [2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1],
        [3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1],
        [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2],
        [3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3],
        [6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
         -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
         2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
        [4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
         -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2],
        [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
         1.09143734899672957818500254654, -8.14978701074692612513997267357,
         -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
         2.49360555267965238987089396762, -3.0467644718982195003823669022],
        [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
         -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
         2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
         -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1]))
    b = np.array([
        5.42937341165687622380535766363e-2, 0, 0, 0, 0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2])
    e5 = np.array([  # 5th- and 3rd-order error estimates from the stage rows
        0.1312004499419488073250102996e-1, 0, 0, 0, 0,
        -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
        0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1, 0])
    e3 = np.append(b, 0.0) - np.array([
        0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
        0.733846688281611857341361741547, 0, 0,
        0.220588235294117647058823529412e-1, 0])
    order = 7  # of the error estimate: steps scale by error ** (-1 / 8)

    @classmethod
    def start(cls, generator, u: float, ends, y: np.ndarray, cfg: OdeConfig):
        """([first step], y' at u, step function) for one end, by SciPy's
        initial-step heuristic: 2 generator reads, at u and at u + h0."""
        def rhs(m, y):
            return (m @ y.reshape(m.shape[0], -1)).reshape(-1)
        [t] = ends
        direction, f = float(np.sign(t - u)), rhs(generator([u])[0], y)
        scale = cfg.abs_tol + np.abs(y) * cfg.rel_tol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t - u))
        f0 = rhs(generator([u + h0 * direction])[0], y + h0 * direction * f)
        d2 = _rms((f0 - f) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / (cls.order + 1)))
        nodes, a, b, k = cls.c[1:].tolist(), cls.a, cls.b, np.empty((len(cls.b) + 1, y.size))
        k_t = [k[:i].T for i in range(len(b) + 1)]

        def step(u, h, y, f):
            ms = generator([u + c * h for c in nodes])
            k[0] = f
            for i in range(1, len(b)):
                k[i] = rhs(ms[i - 1], y + np.dot(k_t[i], a[i]) * h)
            y_new = y + h * np.dot(k_t[-1], b)
            k[-1] = f_new = rhs(ms[-1], y_new)  # at u + 1.0 * h, not u_new
            scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
            # squared norms taken as norm(x) ** 2, as SciPy does
            e5, e3 = np.dot(k.T, cls.e5) / scale, np.dot(k.T, cls.e3) / scale
            n5, n3 = np.sqrt(np.dot(e5, e5)) ** 2, np.sqrt(np.dot(e3, e3)) ** 2
            error = 0.0 if n5 == 0 and n3 == 0 else abs(h) * n5 / math.sqrt(
                (n5 + 0.01 * n3) * scale.size)
            return y_new, f_new, error
        return [min(100 * h0, h1, abs(t - u))], f, step


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of a square matrix, or of each matrix of a stack: [6/6] Pade
    approximant of a / 2^s, Frobenius norm at most theta_6 = 0.54, squared s
    times (Higham, SIAM J. Matrix Anal. 26, 2005), with each matrix's own s."""
    shape, a = a.shape, a.reshape(-1, *a.shape[-2:])
    norms = [math.sqrt(np.vdot(x, x)) for x in a]
    s = np.array([math.ceil(math.log2(n / 0.54)) if n > 0.54 else 0 for n in norms])
    a, eye = a / (2.0 ** s)[:, None, None], np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    odd = a @ (eye / 2 + a2 / 66 + a4 / 15840)
    even = eye + 5 / 44 * a2 + a4 / 792 + (a2 @ a4) / 665280
    e = np.linalg.solve(even - odd, even + odd)
    for i in range(s.max()):  # as matrix_power(e, 2^s): s squarings
        e[s > i] = e[s > i] @ e[s > i]
    return e.reshape(shape)


class _Magnus:
    """Magnus 6(4) pair on Gauss nodes ``c`` (Blanes, Casas & Ros, BIT 40,
    2000) on stacks of lanes (u, h, y); the first step is the whole interval,
    one stack for all lanes.  Omega4 shares Omega6's Gauss rule for int A, so
    the error (Omega6 - Omega4) Y adds the rule's error h b6 / 2800 of
    ``A = sum_k b_k ((u - mid) / h)^k``, b6 = b2 (b2 / b1)^4 (``decay``);
    ``generator(us)`` is A at all 3 K nodes of a stack, ``(3 K, n, n)``."""

    c, order = (0.5 - 15 ** 0.5 / 10, 0.5, 0.5 + 15 ** 0.5 / 10), 4

    @classmethod
    def start(cls, generator, u: float, ends, y: np.ndarray, cfg: OdeConfig):
        def stacked(attempts):  # [(u, h, y)] -> [(y_new, None, error)]
            if (counts := _COUNTS.get()) is not None:
                counts["stacked_attempts"] += 1
            g = generator([u + c * h for c in cls.c for u, h, _ in attempts])
            hs = np.array([h for _, h, _ in attempts])[:, None, None]
            a1, a2, a3 = g.reshape(3, len(attempts), *g.shape[1:]) * hs
            x1, x2, x3 = a2, 15 ** 0.5 / 3 * (a3 - a1), 10 / 3 * (a3 - 2 * a2 + a1)
            c1 = x1 @ x2 - x2 @ x1
            c2 = 2 * x3 + c1
            p, q = c1 - 20 * x1 - x3, x2 - (x1 @ c2 - c2 @ x1) / 60
            norms = zip(map(np.vdot, x2, x2), map(np.vdot, x3, x3))  # squared, per lane
            decay = np.array([(n / max(m, n / 1e6)) ** 2 if n else 0.0 for m, n in norms])
            high = (p @ q - q @ p) / 240
            y = np.array([y for _, _, y in attempts])
            y_new = _expm(x1 + x3 / 12 + high) @ y
            scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
            delta = high + c1 / 12 + (decay / 2800)[:, None, None] * x3
            errors = (delta @ y / scale).reshape(len(y), -1)
            return [(lane, None, _rms(e)) for lane, e in zip(y_new, errors)]
        hs = [t - u for t in ends if t != u]
        first = dict(zip(hs, stacked([(u, h, y) for h in hs]))) if hs else {}

        def step(u_at, h, y_at, _):  # an attempt from u starts from y: keyed by h
            return (first.get(h) if u_at == u else None) or stacked([(u_at, h, y_at)])[0]
        return [abs(t - u) for t in ends], None, step


def _solve(u: float, t: float, h_abs: float, y: np.ndarray, f, cfg: OdeConfig,
           order: int, step) -> Tuple[np.ndarray, int]:
    """(y(t), attempted steps) of one lane in at most ``cfg.max_steps`` attempts
    of ``step(u, h, y, y')``, with the step control of SciPy's ``solve_ivp``
    (Hairer, Norsett & Wanner, Sec. II.4): safety 0.9, step factors within
    [0.2, 10], exponent -1/(q + 1) for an estimate of order q."""
    direction, exponent, attempts = float(np.sign(t - u)), -1 / (order + 1), 0
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
            y_new, f_new, error = step(u, h, y, f)
            if error < 1:
                break
            h_abs *= max(0.2, 0.9 * error ** exponent)
            rejected = True
        factor = 10 if error == 0 else min(10, 0.9 * error ** exponent)
        h_abs *= min(1, factor) if rejected else factor
        u, y, f = u_new, y_new, f_new
    return y, attempts


def _integrate(law: TransportLaw, path: PathCurve,
               generator: Callable[..., np.ndarray],
               y0: np.ndarray, s: float, ends: Sequence[float], cfg: OdeConfig,
               stepper) -> list:
    """[y(t) for t in ends] for y' = A(u) y, y(s) = y0: one ``_solve`` lane
    per end, stepped by ``_DOP853`` (one lane, ``solve_ivp`` bit for bit) or
    ``_Magnus``.  Both read A at a stack of nodes ``us`` in one call: one
    ``path.points``, one law read and ``M^i_j = H^i_{jk} xdot^k`` on the
    stack give ``A = generator(us, M, xdot)``, ``(len(us), n, n)``."""
    counts = _COUNTS.get()

    def matrix(us):
        coords, xdot = path.points(us)
        h = law.coefficients(us, path, coords)
        if counts is not None:
            counts["generator_evals"] += len(us)
        return generator(us, np.matmul(h, xdot[:, None, :, None])[..., 0], xdot)

    u, ends = float(s), [float(t) for t in ends]
    y = checked_array(y0, y0.shape, "initial transport state")
    first, f, step = stepper.start(matrix, u, ends, y, cfg)
    ys, attempts = zip(*(_solve(u, end, h, y, f, cfg, stepper.order, step)
                         for end, h in zip(ends, first)))
    if counts is not None:
        counts.update(solves=len(ends), attempted_steps=sum(attempts),
                      continued_lanes=sum(n > 1 for n in attempts))
    return list(ys)


@contextlib.contextmanager
def work_counts():
    """``Counter`` of this context's transport work in the block (an inner
    block counts alone): ``solves`` (lanes), ``generator_evals`` (the nodes
    of the generator reads: 2, then 11 per attempted DOP853 step; 3 per lane
    of a Magnus attempt), Magnus ``stacked_attempts``, ``attempted_steps``,
    ``continued_lanes``; the built-in surfaces' ``jets_order_1``,
    ``jets_order_2`` (point calls by order), ``surface_stacks`` and
    ``surface_stack_points`` (stacked calls); and the residual formulas'
    ``residual_evals`` (one per equation and study) and ``residual_lanes``
    (the separations they cover)."""
    token = _COUNTS.set(Counter())
    try:
        yield _COUNTS.get()
    finally:
        _COUNTS.reset(token)


def transport_matrix(law: TransportLaw, path: PathCurve, s: float, t: float,
                     cfg: OdeConfig = DEFAULT_ODE_CONFIG) -> np.ndarray:
    """Transport matrix ``H(t, s; path)`` from parameter ``s`` to ``t``, as a
    ``(d, d)`` array: the identity carried along by ``transport_components``.

    ``H(s, s)`` is the exact identity (no integration is performed); the
    flow property ``H(t, r) H(r, s) = H(t, s)`` holds within ODE tolerance.
    """
    path.require(s)
    eye = np.eye(path.map(s).dimension)
    return transport_components(law, path, s, t, eye, cfg)


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
    return _integrate(law, path, lambda us, m, xdot: m, y0.reshape(-1), s, [t],
                      cfg, _DOP853)[0].reshape(y0.shape)


def pullback_integral(law: TransportLaw, path: PathCurve, s: float, t: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``L_{t->s}`` and ``int_s^t L_{u->s} xdot(u) du``, the path's own
    tangents pulled back to ``s`` and integrated, from one Magnus solve of
    ``Z = [[Phi^T], [h^T]]``: ``Z' = G(u) Z`` with ``G = [[-M^T, 0], [xdot^T,
    0]]``, built on a stack of Gauss nodes from M and the path's tangents,
    carries ``Phi(u) = L_{u->s}`` (``Phi' = -Phi M``) and h (``h' = Phi xdot``)."""
    pullback, h = _pullbacks(law, path, s, [t], cfg)
    return pullback[0], h[0]


def _pullbacks(law: TransportLaw, path: PathCurve, s: float, ends: Sequence[float],
               cfg: OdeConfig) -> Tuple[np.ndarray, np.ndarray]:
    """``pullback_integral`` to each of ``ends``, bit for bit, in one solve:
    the ``(K, d, d)`` stack of the maps and the ``(K, d)`` stack of h."""
    for t in (s, *ends):
        path.require(t)
    d = path.map(s).dimension

    def generator(us, m, xdot):  # G at each node of a stack
        g = np.zeros((len(us), d + 1, d + 1))
        g[:, :d, :d], g[:, d, :d] = -m.transpose(0, 2, 1), xdot
        return g

    z = np.array(_integrate(law, path, generator, np.eye(d + 1, d), s, ends, cfg, _Magnus))
    return z[:, :d].transpose(0, 2, 1), z[:, d]


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
    point = path.map(r)
    return -law.coefficients([r], path, point.coords[None])[0] - conn.coefficients(point)
