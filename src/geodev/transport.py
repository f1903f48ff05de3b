"""Linear transports along paths.

A transport is *defined* by its coefficient field ``H^i_{jk}(s; path)``: the
transport matrices are generated by integrating the linear ODE

    dH(u, s)/du = M(u) H(u, s),     H(s, s) = I,
    M(u)^i_j = H^i_{jk}(u; path) * xdot^k(u),

with an adaptive embedded Runge-Kutta pair in one step loop, ``_integrate``.
``transport_components`` and ``transport_matrix`` use the 8th-order pair
DOP853: their solves can be long (a latitude holonomy), and at the default
``rel_tol`` 1e-10 DOP853 takes 3-4.5x fewer RHS calls than RK 5(4) (sphere
latitude holonomy at theta0 0.15 / pi/4 / 1.4: 1,196 / 854 / 212 RHS calls
with RK 5(4), 266 / 194 / 74 with DOP853).  ``pullback_integral`` keeps the
Dormand-Prince 5(4) pair, which is the cheaper one on its short solves.
A new stage parameter costs one generator evaluation with its checks (see
``_integrate``); one met again along the same path costs a lookup.

Parallel transport of an affine connection is the special case
``H^i_{jk} = -Gamma^i_{jk}``; the S-tensor ``S = -H - Gamma`` measures the
mismatch between a transport and the connection (zero iff the transport is
the connection's parallel transport).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import EvaluationError, TransportError
from .geometry import (ChartPoint, ConnectionField, PathCurve, checked_array,
                       memo_put)

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
        return checked_array(self.coeff_at(s, path), point.coords.shape * 3,
                             "transport coefficients", point)


def _rms(x: np.ndarray) -> float:  # as np.linalg.norm(x) / sqrt(x.size)
    return math.sqrt(np.dot(x, x)) / x.size ** 0.5


@dataclass(frozen=True)
class _Tableau:
    """Explicit embedded Runge-Kutta pair.  Stage ``i`` is evaluated at
    ``u + c[i] h`` and ``y + h sum_j a[i][j] k_j``; the step is
    ``h sum_i b[i] k_i``.  ``error(k, h, scale)`` is the scaled norm of the
    error estimate from the stage rows ``k``, whose last row is the
    derivative at the new point; ``order`` is the order q of that estimate,
    and the step control scales steps by ``error ** (-1 / (q + 1))``."""

    c: np.ndarray
    a: Tuple[np.ndarray, ...]
    b: np.ndarray
    error: Callable[[np.ndarray, float, np.ndarray], float]
    order: int


# Dormand & Prince (1980) 5(4) pair, as SciPy's RK45.
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK45 = _Tableau(
    c=np.array([0, 1/5, 3/10, 4/5, 8/9, 1]),
    a=tuple(np.array(a) for a in (
        [], [1/5], [3/40, 9/40], [44/45, -56/15, 32/9],
        [19372/6561, -25360/2187, 64448/6561, -212/729],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])),
    b=np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]),
    error=lambda k, h, scale: _rms(np.dot(k.T, _RK45_E) * h / scale),
    order=4)

# Dormand & Prince 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, 2nd ed.), as SciPy's DOP853 without the extra stages of its dense
# output; the coefficients are those of SciPy's dop853_coefficients.
_DOP853_B = np.array([
    5.42937341165687622380535766363e-2, 0, 0, 0, 0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
_DOP853_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0])
_DOP853_E3 = np.append(_DOP853_B, 0.0) - np.array([
    0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
    0.733846688281611857341361741547, 0, 0,
    0.220588235294117647058823529412e-1, 0])


def _dop853_error(k: np.ndarray, h: float, scale: np.ndarray) -> float:
    """Scaled norm of DOP853's combined 5th/3rd-order error estimate; the
    squared norms are taken as ``norm(x) ** 2``, as SciPy does."""
    e5, e3 = np.dot(k.T, _DOP853_E5) / scale, np.dot(k.T, _DOP853_E3) / scale
    n5, n3 = np.sqrt(np.dot(e5, e5)) ** 2, np.sqrt(np.dot(e3, e3)) ** 2
    if n5 == 0 and n3 == 0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * scale.size)


_DOP853 = _Tableau(
    c=np.array([
        0.0, 0.526001519587677318785587544488e-01,
        0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
        0.281649658092772603273242802490, 0.333333333333333333333333333333,
        0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
        0.6, 0.857142857142857142857142857142, 1.0]),
    a=tuple(np.array(a) for a in (
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
         6.43392746015763530355970484046e-1])),
    b=_DOP853_B,
    error=_dop853_error,
    order=7)


def _integrate(law: TransportLaw, path: PathCurve,
               rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
               y0: np.ndarray, s: float, t: float, cfg: OdeConfig,
               tableau: _Tableau) -> np.ndarray:
    """y(t) for dy/du = rhs(u, M(u), y), ``M(u)^i_j = H^i_{jk}(u; path) xdot^k(u)``,
    from y(s) = y0 in at most ``cfg.max_steps`` attempted steps of the pair
    ``tableau``.

    The step control is that of Hairer, Norsett & Wanner, Solving ODEs I,
    Sec. II.4, as in SciPy's ``solve_ivp``: safety 0.9, step factors within
    [0.2, 10], error exponent -1/(q + 1); with ``_RK45`` or ``_DOP853`` the
    loop reproduces ``solve_ivp`` with that method bit for bit.  Each caller
    fixes its pair (see the module docstring).

    A new stage parameter u makes one ``jets`` call, one ``ChartPoint`` and one
    ``TransportLaw.coefficients`` call, which check the chart coordinates, the
    tangent components and H in this order; M(u) is memoized on the path."""
    generators = path.memo(law)  # M by u, shared by every solve along path

    def fun(u, y):  # rhs gets M read-only, so it cannot write into the memo
        m = generators.get(u)
        if m is None:
            m = law.coefficients(u, path) @ path.tangent(u)
            m.setflags(write=False)
            memo_put(generators, u, m)
        return rhs(u, m, y)

    c, a, b, exponent = tableau.c.tolist(), tableau.a, tableau.b, -1 / (tableau.order + 1)
    u, t, y = float(s), float(t), checked_array(y0, y0.shape, "initial transport state")
    direction, f = float(np.sign(t - u)), fun(u, y)
    scale = cfg.abs_tol + np.abs(y) * cfg.rel_tol  # first step: one more RHS call
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t - u))
    d2 = _rms((fun(u + h0 * direction, y + h0 * direction * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / (tableau.order + 1)))
    h_abs, k, attempts = min(100 * h0, h1, abs(t - u)), np.empty((len(b) + 1, y.size)), 0
    k_t = [k[:i].T for i in range(len(b) + 1)]
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
            for i in range(1, len(b)):
                k[i] = fun(u + c[i] * h, y + np.dot(k_t[i], a[i]) * h)
            y_new = y + h * np.dot(k_t[-1], b)
            k[-1] = f_new = fun(u + h, y_new)  # stage at u + h, not u_new
            scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
            error = tableau.error(k, h, scale)
            if error < 1:
                break
            h_abs *= max(0.2, 0.9 * error ** exponent)
            rejected = True
        factor = 10 if error == 0 else min(10, 0.9 * error ** exponent)
        h_abs *= min(1, factor) if rejected else factor
        u, y, f = u_new, y_new, f_new
    return y


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
    def linear(u, m, y):  # dY/du = M(u) Y, Y flattened
        return (m @ y.reshape(m.shape[0], -1)).reshape(-1)
    return _integrate(law, path, linear, y0.reshape(-1), s, t, cfg,
                      _DOP853).reshape(y0.shape)


def pullback_integral(law: TransportLaw, path: PathCurve, s: float, t: float,
                      cfg: OdeConfig = DEFAULT_ODE_CONFIG
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``L_{t->s}`` and ``int_s^t L_{u->s} xdot(u) du``, the path's own
    tangents pulled back to ``s`` and integrated, from one RK 5(4) solve.

    ``Phi(u) = L_{u->s}`` obeys ``dPhi/du = -Phi M(u)``, ``Phi(s) = I``; the
    integral rides along as ``d`` extra state components ``Phi(u) xdot(u)``,
    with ``path.tangent(u)`` read by each RHS call (an RHS gets only u, M(u)
    and y).  These solves span short stretches of the surface's r-lines,
    where DOP853 would take 29-39% more RHS calls over all sixteen equations.
    """
    path.require(s)
    path.require(t)
    d = path.map(s).dimension

    def rhs(u, m, y):
        phi = y[:d * d].reshape(d, d)
        return np.concatenate(((-phi @ m).reshape(-1),
                               phi @ path.tangent(u)))

    y = np.concatenate((np.eye(d).reshape(-1), np.zeros(d)))
    if t != s:
        y = _integrate(law, path, rhs, y, s, t, cfg, _RK45)
    return y[:d * d].reshape(d, d), y[d * d:]


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
             r: float) -> np.ndarray:
    """S-tensor ``S^i_{jk} = -H^i_{jk}(r; path) - Gamma^i_{jk}(path(r))``,
    valence (1,2) at ``path(r)``."""
    return -law.coefficients(r, path) - conn.coefficients(path.map(r))


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
    coeff = law.coefficients(s, path)
    gap = path.map(t).coords - path.map(s).coords
    return np.eye(d) + np.einsum("ijk,k->ij", coeff, gap)
