"""Built-in scenario families.

Each family wires a chart, a connection (with analytic partials), a metric,
a transport law, a two-parameter worldline surface with analytic first and
second partials, a mass function, and a probe field into an immutable
Scenario.  Custom geometry is limited to the documented parameters of the
registered families, which keeps every analytic partial exact.

A surface family states its surface once, as one ``jets(s, r, order)``
function returning the point and its first partials, and at order 2 also
its second partials, the order-1 part computed first and alike at either
order; ``_surface`` turns it into a WorldSurface that keeps each point's
jets in a memo keyed by (s, r) and hands out read-only arrays.  The sphere
and flat-quadratic surfaces, and the sphere's Gamma, also state a stacked
form for the Gauss nodes of the Magnus pull-backs.

Family structure matrix (enforced by tests):

    family                    torsion  curvature  S-tensor  force  nonmetric
    flat-euclidean/ruled         -         -         -        -        -
    flat-euclidean/quadratic     -         -         -        x        -
    flat-torsion                 x         -         -        x        x
    sphere                       -         x         -        (a)      -
    minkowski                    -         -         -        x        -
    offset-transport             -         x         x        x        -
    exp-transport                -         -         x        x        -

(a) the sphere's worldlines are geodesics unless the ``accel`` parameter is
nonzero; offset-transport runs on the sphere geometry with accel on, so its
S, DS/ds, R and force terms are all active at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .equations import EquationId
from .errors import ConfigError, DomainError
from .geometry import ChartPoint, ConnectionField, MetricField, memo_put
from .kinematics import MassSurface, Scenario, SurfaceField, WorldSurface
from .transport import _COUNTS, TransportLaw, law_from_connection, law_with_offset

__all__ = [
    "ScenarioSpec",
    "build",
    "list_scenarios",
    "family_names",
    "LINEAR_DRIFT_MASSES",
    "EQUATION_SCENARIOS",
    "DEFAULT_S_EVAL",
]

DEFAULT_S_EVAL = 0.15

LINEAR_DRIFT_MASSES = {"mass_drift_s": 0.1, "mass_drift_r": 0.2}


@dataclass(frozen=True)
class ScenarioSpec:
    """Name + parameter choices for a registered family, with optional
    overrides of the base separation parameter and evaluation parameter."""

    name: str
    parameters: Mapping[str, float] = field(default_factory=dict)
    r_base: Optional[float] = None
    s_eval: Optional[float] = None


@dataclass(frozen=True)
class _Param:
    default: float
    lo: float
    hi: float
    doc: str


@dataclass(frozen=True)
class _Family:
    description: str
    schema: Dict[str, _Param]
    builder: Callable[[Dict[str, float], float, float], Scenario]


_MASS_SCHEMA = {
    "mass_scale": _Param(1.0, 0.1, 10.0, "overall mass scale"),
    "mass_drift_s": _Param(0.0, -0.5, 0.5, "mass drift per unit s"),
    "mass_drift_r": _Param(0.0, -0.5, 0.5, "mass drift per unit r"),
    "mass_drift_sr": _Param(0.0, -0.5, 0.5, "mass s*r cross drift"),
}


def _mass_surface(p: Dict[str, float]) -> MassSurface:
    scale = p["mass_scale"]
    a, b, c = p["mass_drift_s"], p["mass_drift_r"], p["mass_drift_sr"]
    return MassSurface(
        mu=lambda s, r: scale * (1.0 + a * s + b * r + c * s * r),
        d_s_mu=lambda s, r: scale * (a + c * r),
    )


_PROBE_ROWS = np.array([
    [1.0, 0.2, 0.4, 0.10, 0.05],
    [0.7, -0.1, -0.2, 0.05, 0.10],
    [0.5, 0.15, 0.3, -0.05, 0.08],
    [0.9, -0.05, 0.25, 0.12, -0.06],
])


def _probe_field(dim: int) -> SurfaceField:
    rows = _PROBE_ROWS[:dim]

    def value(s: float, r: float) -> np.ndarray:
        return (rows[:, 0] + rows[:, 1] * s + rows[:, 2] * r
                + rows[:, 3] * r * r + rows[:, 4] * s * r)

    def d_r(s: float, r: float) -> np.ndarray:
        return rows[:, 2] + 2.0 * rows[:, 3] * r + rows[:, 4] * s

    return SurfaceField(value=value, d_r=d_r)


def _zero_connection(dim: int) -> ConnectionField:
    zeros = np.zeros((dim, dim, dim))
    dzeros = np.zeros((dim, dim, dim, dim))
    return ConnectionField(gamma_at=lambda pt: zeros,
                           partials_at=lambda pt: dzeros)


def _identity_metric(dim: int, signature: Optional[np.ndarray] = None) -> MetricField:
    diag = np.ones(dim) if signature is None else np.asarray(signature, float)
    g = np.diag(diag)
    dg = np.zeros((dim, dim, dim))
    return MetricField(g_at=lambda pt: g, partials_at=lambda pt: dg)


def _check_dim(p: Dict[str, float]) -> int:
    dim = p["dim"]
    if dim != int(dim):
        raise ConfigError(f"parameter 'dim' must be an integer, got {dim}")
    return int(dim)


def _surface(jets: Callable[[float, float, int], Tuple[np.ndarray, ...]],
             s_domain: Tuple[float, float], r_domain: Tuple[float, float],
             along_r: Optional[Callable] = None) -> WorldSurface:
    """WorldSurface of a family stated once as ``jets(s, r, order) -> (x,
    x_s, x_r)`` at order 1, ``+ (x_ss, x_sr, x_rr)`` at order 2, kept
    read-only in a memo keyed by (s, r) (``geometry.memo_put``); ``map``,
    ``d_s``, ``d_r`` read order 1, which an order-2 entry also serves, and the
    second partials read order 2, which replaces an order-1 entry; its
    ``along_r`` is ``along_r(s, rs) -> (x, x_r)``, unmemoized.  ``jets`` and
    ``along_r`` calls and points count in ``transport.work_counts``."""
    memo: dict = {}

    def at(s: float, r: float, order: int) -> Tuple[np.ndarray, ...]:
        values = memo.get((s, r), ())
        if len(values) < 3 * order:
            if (counts := _COUNTS.get()) is not None:
                counts[f"jets_order_{order}"] += 1
            values = jets(s, r, order)
            for value in values:
                value.flags.writeable = False
            memo_put(memo, (s, r), values)
        return values

    def partial(i: int) -> Callable[[float, float], np.ndarray]:
        order = 1 + i // 3
        return lambda s, r: at(s, r, order)[i]

    def stacked(s: float, rs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if (counts := _COUNTS.get()) is not None:
            counts.update(surface_stacks=1, surface_stack_points=len(rs))
        return along_r(s, rs)

    return WorldSurface(*map(partial, range(6)), s_domain=s_domain,
                        r_domain=r_domain, along_r=along_r and stacked)


# ---------------------------------------------------------------- flat charts

def _flat_ruled_surface(dim: int, p: Dict[str, float]) -> WorldSurface:
    # gamma^i = alpha_i s + beta_i r + kappa_i s r  (straight worldlines)
    alpha = np.zeros(dim)
    beta = np.zeros(dim)
    kappa = np.zeros(dim)
    alpha[0] = 1.0
    beta[0], kappa[0] = p["shear"], p["cross_0"]
    beta[1], kappa[1] = p["spread"], p["cross_1"]
    for i in range(2, dim):
        beta[i] = 0.25 + 0.1 * (i - 2)
        kappa[i] = 0.15 - 0.05 * (i - 2)

    def jets(s, r, order):
        first = (alpha * s + beta * r + kappa * s * r, alpha + kappa * r,
                 beta + kappa * s)
        return first if order == 1 else first + (np.zeros(dim), kappa,
                                                 np.zeros(dim))

    return _surface(jets, s_domain=(-0.6, 0.6), r_domain=(-0.35, 0.35))


def _flat_quadratic_surface(dim: int, p: Dict[str, float]) -> WorldSurface:
    a, c, w1 = p["shear"], p["cross_0"], p["curve_0"]
    b, q, k, w2 = p["spread"], p["accel"], p["accel_grad"], p["curve_1"]
    beta = np.zeros(dim)
    kappa = np.zeros(dim)
    for i in range(2, dim):
        beta[i] = 0.25 + 0.1 * (i - 2)
        kappa[i] = 0.15 - 0.05 * (i - 2)

    def jets(s, r, order):
        x, x_s, x_r, x_ss, x_sr, x_rr = np.zeros((6, dim))
        x[0] = s + a * r + c * s * r + 0.5 * w1 * r * r
        x[1] = b * r + 0.5 * q * (1.0 + k * r) ** 2 * s * s + 0.5 * w2 * r * r
        x[2:] = beta[2:] * r + kappa[2:] * s * r
        x_s[0] = 1.0 + c * r
        x_s[1] = q * (1.0 + k * r) ** 2 * s
        x_s[2:] = kappa[2:] * r
        x_r[0] = a + c * s + w1 * r
        x_r[1] = b + q * k * (1.0 + k * r) * s * s + w2 * r
        x_r[2:] = beta[2:] + kappa[2:] * s
        if order == 1:
            return x, x_s, x_r
        x_ss[1] = q * (1.0 + k * r) ** 2
        x_sr[0] = c
        x_sr[1] = 2.0 * q * k * (1.0 + k * r) * s
        x_sr[2:] = kappa[2:]
        x_rr[0] = w1
        x_rr[1] = q * k * k * s * s + w2
        return x, x_s, x_r, x_ss, x_sr, x_rr

    def along_r(s, r):  # jets' (x, x_r) at each r of an array; ** as Python's pow
        x, x_r = np.zeros((2, len(r), dim))
        x[:, 0] = s + a * r + c * s * r + 0.5 * w1 * r * r
        x[:, 1] = b * r + 0.5 * q * np.float_power(1.0 + k * r, 2) * s * s + 0.5 * w2 * r * r
        x[:, 2:] = np.outer(r, beta[2:]) + np.outer(r, kappa[2:] * s)
        x_r[:, 0] = a + c * s + w1 * r
        x_r[:, 1] = b + q * k * (1.0 + k * r) * s * s + w2 * r
        x_r[:, 2:] = beta[2:] + kappa[2:] * s
        return x, x_r

    return _surface(jets, (-0.6, 0.6), (-0.35, 0.35), along_r)


_FLAT_RULED_SCHEMA = {
    "dim": _Param(2, 2, 4, "chart dimension"),
    "shear": _Param(0.4, -2.0, 2.0, "r-coefficient of the first component"),
    "spread": _Param(1.0, 0.1, 2.0, "r-coefficient of the second component"),
    "cross_0": _Param(0.3, -2.0, 2.0, "s*r coefficient, first component"),
    "cross_1": _Param(0.2, -2.0, 2.0, "s*r coefficient, second component"),
}

_FLAT_QUAD_SCHEMA = {
    "dim": _Param(2, 2, 4, "chart dimension"),
    "shear": _Param(0.4, -2.0, 2.0, "r-coefficient of the first component"),
    "spread": _Param(1.0, 0.1, 2.0, "r-coefficient of the second component"),
    "cross_0": _Param(0.3, -2.0, 2.0, "s*r coefficient, first component"),
    "accel": _Param(0.5, -2.0, 2.0, "worldline acceleration"),
    "accel_grad": _Param(0.6, -2.0, 2.0, "r-gradient of the acceleration"),
    "curve_0": _Param(0.3, -2.0, 2.0, "r^2 coefficient, first component"),
    "curve_1": _Param(0.25, -2.0, 2.0, "r^2 coefficient, second component"),
}


def _assemble(label: str, dim: int, conn: ConnectionField, metric: MetricField,
              law: TransportLaw, surf: WorldSurface, p: Dict[str, float],
              r_base: float, s_eval: float) -> Scenario:
    """Scenario on the family's surface rebased to ``r_base``, with the
    mass function and probe field every family shares; ``r_base`` and
    ``s_eval`` outside the surface's domains raise ConfigError."""
    for key, value, (lo, hi) in (("r_base", r_base, surf.r_domain),
                                 ("s_eval", s_eval, surf.s_domain)):
        if not (lo <= value <= hi):
            raise ConfigError(f"{key} {value} outside {key[0]}-domain "
                              f"[{lo}, {hi}]")
    return Scenario(dimension=dim, conn=conn, metric=metric, law=law,
                    surface=replace(surf, r_base=r_base), mass=_mass_surface(p),
                    label=label, probe_field=_probe_field(dim), s_eval=s_eval)


def _build_flat(surface_kind: str, p: Dict[str, float], r_base: float,
                s_eval: float, label: str) -> Scenario:
    dim = _check_dim(p)
    make = _flat_ruled_surface if surface_kind == "ruled" else _flat_quadratic_surface
    conn = _zero_connection(dim)
    return _assemble(label, dim, conn, _identity_metric(dim),
                     law_from_connection(conn), make(dim, p), p, r_base, s_eval)


# --------------------------------------------------------------- flat torsion

_FLAT_TORSION_SCHEMA = dict(_FLAT_QUAD_SCHEMA)
_FLAT_TORSION_SCHEMA["torsion_c"] = _Param(0.3, -1.0, 1.0,
                                           "constant Gamma^1_{21} coefficient")
del _FLAT_TORSION_SCHEMA["dim"]


def _torsion_connection(c: float) -> ConnectionField:
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = c  # Gamma^1_{21}: vector slot j=2, direction slot k=1
    dgamma = np.zeros((2, 2, 2, 2))
    return ConnectionField(gamma_at=lambda pt: gamma,
                           partials_at=lambda pt: dgamma)


def _build_flat_torsion(p: Dict[str, float], r_base: float,
                        s_eval: float) -> Scenario:
    conn = _torsion_connection(p["torsion_c"])
    return _assemble("flat-torsion", 2, conn, _identity_metric(2),
                     law_from_connection(conn), _flat_quadratic_surface(2, p),
                     p, r_base, s_eval)


# --------------------------------------------------------------------- sphere

def _sphere_connection() -> ConnectionField:
    def gamma_at(pt):
        th = pt.coords[0]
        g = np.zeros((2, 2, 2))
        g[0, 1, 1] = -math.sin(th) * math.cos(th)
        try:
            g[1, 0, 1] = g[1, 1, 0] = 1.0 / math.tan(th)
        except ZeroDivisionError:
            raise DomainError(f"sphere chart is singular at theta = {th}") from None
        return g

    def gammas_at(coords):  # gamma_at on a stack of theta; tan per entry with math
        th, g = coords[:, 0], np.zeros((len(coords), 2, 2, 2))
        g[:, 0, 1, 1] = -np.sin(th) * np.cos(th)
        try:
            g[:, 1, 0, 1] = g[:, 1, 1, 0] = [1.0 / math.tan(t) for t in th.tolist()]
        except ZeroDivisionError:  # gamma_at raises at the first singular point
            list(map(gamma_at, map(ChartPoint, coords)))
        return g

    def partials_at(pt):
        th = pt.coords[0]
        dg = np.zeros((2, 2, 2, 2))
        dg[0, 1, 1, 0] = -math.cos(2.0 * th)
        try:
            dg[1, 0, 1, 0] = dg[1, 1, 0, 0] = -1.0 / math.sin(th) ** 2
        except ZeroDivisionError:
            raise DomainError(f"sphere chart is singular at theta = {th}") from None
        return dg

    return ConnectionField(gamma_at, partials_at, gammas_at)


def _sphere_metric() -> MetricField:
    def g_at(pt):
        th = pt.coords[0]
        return np.array([[1.0, 0.0], [0.0, math.sin(th) ** 2]])

    def partials_at(pt):
        th = pt.coords[0]
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = math.sin(2.0 * th)
        return dg

    return MetricField(g_at=g_at, partials_at=partials_at)


def _comb(a: float, p: tuple, b: float, q: tuple) -> tuple:  # a p + b q
    return (a * p[0] + b * q[0], a * p[1] + b * q[1], a * p[2] + b * q[2])


def _sphere_surface(tilt: float, accel: float) -> WorldSurface:
    """Family of great circles: the embedded surface is
    cos(f(s)) u(r) + sin(f(s)) w(r) with orthonormal u(r), w(r) and
    f(s) = s + accel s^2/2; chart partials follow by exact chain rules
    through theta = arccos z, phi = atan2(y, x), on 3-vectors as tuples."""
    cb, sb = math.cos(tilt), math.sin(tilt)

    def jets(s, r, order):
        cr, sr = math.cos(r), math.sin(r)
        u, w = (cr, sr, 0.0), (-sr * cb, cr * cb, sb)
        du, dw = (-sr, cr, 0.0), (-cr * cb, -sr * cb, 0.0)
        f = s + 0.5 * accel * s * s
        fp = 1.0 + accel * s
        cf, sf = math.cos(f), math.sin(f)
        x, y, z = _comb(cf, u, sf, w)
        e_f = _comb(-sf, u, cf, w)  # d e / d f
        e_s = (fp * e_f[0], fp * e_f[1], fp * e_f[2])
        e_r = _comb(cf, du, sf, dw)
        rho2 = x * x + y * y
        sth = math.sqrt(rho2)
        cth = z

        def theta_first(e_a):
            return -e_a[2] / sth

        def phi_first(e_a):
            return (x * e_a[1] - y * e_a[0]) / rho2

        def theta_second(e_a, e_b, e_ab):
            th_a, th_b = theta_first(e_a), theta_first(e_b)
            return -(e_ab[2] + cth * th_a * th_b) / sth

        def phi_second(e_a, e_b, e_ab):
            num = (e_b[0] * e_a[1] + x * e_ab[1]
                   - e_b[1] * e_a[0] - y * e_ab[0])
            corr = (x * e_a[1] - y * e_a[0]) * (2.0 * x * e_b[0]
                                                + 2.0 * y * e_b[1])
            return num / rho2 - corr / (rho2 * rho2)

        point = np.array([math.acos(z), math.atan2(y, x)])
        j_s = np.array([theta_first(e_s), phi_first(e_s)])
        j_r = np.array([theta_first(e_r), phi_first(e_r)])
        if order == 1:
            return point, j_s, j_r
        e_ss = _comb(accel, e_f, fp * fp, _comb(-cf, u, -sf, w))
        e_sr = tuple(fp * c for c in _comb(-sf, du, cf, dw))
        e_rr = _comb(cf, (-cr, -sr, -0.0), sf, (-w[0], -w[1], -0.0))
        j_ss = np.array([theta_second(e_s, e_s, e_ss),
                         phi_second(e_s, e_s, e_ss)])
        j_sr = np.array([theta_second(e_r, e_s, e_sr),
                         phi_second(e_r, e_s, e_sr)])
        j_rr = np.array([theta_second(e_r, e_r, e_rr),
                         phi_second(e_r, e_r, e_rr)])
        return point, j_s, j_r, j_ss, j_sr, j_rr

    def along_r(s, r):  # jets' (x, x_r) at each r of an array; acos, atan2 with math
        cr, sr = np.cos(r), np.sin(r)
        f = s + 0.5 * accel * s * s
        cf, sf = math.cos(f), math.sin(f)
        x, y, z = _comb(cf, (cr, sr, 0.0), sf, (-sr * cb, cr * cb, sb))
        e_r = _comb(cf, (-sr, cr, 0.0), sf, (-cr * cb, -sr * cb, 0.0))
        rho2 = x * x + y * y
        point = [(math.acos(z), math.atan2(b, a)) for a, b in zip(x.tolist(), y.tolist())]
        return np.array(point), np.stack([-e_r[2] / np.sqrt(rho2),
                                          (x * e_r[1] - y * e_r[0]) / rho2], axis=1)

    return _surface(jets, (-0.5, 0.5), (-0.3, 0.3), along_r)


_SPHERE_SCHEMA = {
    "tilt": _Param(0.6, 0.2, 1.2, "tilt angle between the circle frames"),
    "accel": _Param(0.0, -1.0, 1.0, "tangential reparametrization rate"),
}


def _build_sphere(p: Dict[str, float], r_base: float, s_eval: float) -> Scenario:
    conn = _sphere_connection()
    return _assemble("sphere", 2, conn, _sphere_metric(), law_from_connection(conn),
                     _sphere_surface(p["tilt"], p["accel"]), p, r_base, s_eval)


# ------------------------------------------------------------------ minkowski

_MINKOWSKI_SCHEMA = {
    "boost": _Param(0.2, -0.6, 0.6, "initial coordinate velocity"),
    "accel": _Param(0.3, -1.0, 1.0, "worldline acceleration"),
    "accel_grad": _Param(0.5, -2.0, 2.0, "r-gradient of the acceleration"),
    "drag_1": _Param(0.15, -1.0, 1.0, "r-coefficient, first spatial axis"),
    "curve_2": _Param(0.3, -1.0, 1.0, "r^2 coefficient, second spatial axis"),
    "cross_2": _Param(0.1, -1.0, 1.0, "s*r coefficient, second spatial axis"),
    "spread_3": _Param(0.2, -1.0, 1.0, "r-coefficient, third spatial axis"),
    "cross_3": _Param(0.05, -1.0, 1.0, "s*r coefficient, third spatial axis"),
}


def _minkowski_surface(p: Dict[str, float]) -> WorldSurface:
    v, q, k = p["boost"], p["accel"], p["accel_grad"]
    a1, w, c2 = p["drag_1"], p["curve_2"], p["cross_2"]
    a3, c3 = p["spread_3"], p["cross_3"]

    def jets(s, r, order):
        x = np.array([
            s,
            v * s + 0.5 * q * (1.0 + k * r) ** 2 * s * s + a1 * r,
            r + 0.5 * w * r * r + c2 * s * r,
            a3 * r + c3 * s * r,
        ])
        x_s = np.array([1.0, v + q * (1.0 + k * r) ** 2 * s, c2 * r, c3 * r])
        x_r = np.array([0.0, q * k * (1.0 + k * r) * s * s + a1,
                        1.0 + w * r + c2 * s, a3 + c3 * s])
        if order == 1:
            return x, x_s, x_r
        x_ss = np.array([0.0, q * (1.0 + k * r) ** 2, 0.0, 0.0])
        x_sr = np.array([0.0, 2.0 * q * k * (1.0 + k * r) * s, c2, c3])
        x_rr = np.array([0.0, q * k * k * s * s, w, 0.0])
        return x, x_s, x_r, x_ss, x_sr, x_rr

    return _surface(jets, s_domain=(-0.5, 0.5), r_domain=(-0.25, 0.25))


def _build_minkowski(p: Dict[str, float], r_base: float, s_eval: float) -> Scenario:
    conn = _zero_connection(4)
    metric = _identity_metric(4, np.array([1.0, -1.0, -1.0, -1.0]))
    return _assemble("minkowski", 4, conn, metric, law_from_connection(conn),
                     _minkowski_surface(p), p, r_base, s_eval)


# ----------------------------------------------------------- offset transport

_OFFSET_SCHEMA = {
    "sigma": _Param(0.2, -1.0, 1.0, "constant S-tensor component S^1_{22}"),
    "tilt": _Param(0.6, 0.2, 1.2, "sphere-surface tilt"),
    "accel": _Param(0.3, -1.0, 1.0, "sphere-surface reparametrization rate"),
}


def _build_offset(p: Dict[str, float], r_base: float, s_eval: float) -> Scenario:
    conn = _sphere_connection()
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = p["sigma"]
    return _assemble("offset-transport", 2, conn, _sphere_metric(),
                     law_with_offset(conn, sigma),
                     _sphere_surface(p["tilt"], p["accel"]), p, r_base, s_eval)


# -------------------------------------------------------------- exp transport

_EXP_SCHEMA = dict(_FLAT_QUAD_SCHEMA)
del _EXP_SCHEMA["dim"]
_EXP_SCHEMA.update({
    "a00": _Param(0.1, -1.0, 1.0, "generator entry A[0,0]"),
    "a01": _Param(0.4, -1.0, 1.0, "generator entry A[0,1]"),
    "a10": _Param(-0.3, -1.0, 1.0, "generator entry A[1,0]"),
    "a11": _Param(0.2, -1.0, 1.0, "generator entry A[1,1]"),
})


def exp_law_generator(p: Mapping[str, float]) -> np.ndarray:
    return np.array([[p["a00"], p["a01"]], [p["a10"], p["a11"]]])


def _build_exp(p: Dict[str, float], r_base: float, s_eval: float) -> Scenario:
    coeff = np.zeros((2, 2, 2))
    # M(u) = A * xdot^0, so H(t,s) = expm(A (x^0(t)-x^0(s)))
    coeff[:, :, 0] = exp_law_generator(p)
    law = TransportLaw(coeff_at=lambda s, path: coeff)
    return _assemble("exp-transport", 2, _zero_connection(2), _identity_metric(2),
                     law, _flat_quadratic_surface(2, p), p, r_base, s_eval)


# ------------------------------------------------------------------- registry

def _with_masses(schema: Dict[str, _Param]) -> Dict[str, _Param]:
    return {**schema, **_MASS_SCHEMA}


_FAMILIES: Dict[str, _Family] = {
    "flat-euclidean/ruled": _Family(
        "flat chart, zero connection, straight worldlines (bilinear surface)",
        _with_masses(_FLAT_RULED_SCHEMA),
        lambda p, rb, se: _build_flat("ruled", p, rb, se, "flat-euclidean/ruled")),
    "flat-euclidean/quadratic": _Family(
        "flat chart, zero connection, accelerating worldlines",
        _with_masses(_FLAT_QUAD_SCHEMA),
        lambda p, rb, se: _build_flat("quadratic", p, rb, se,
                                      "flat-euclidean/quadratic")),
    "flat-torsion": _Family(
        "flat chart, constant non-symmetric connection: torsion without "
        "curvature (and nonmetricity against the identity metric)",
        _with_masses(_FLAT_TORSION_SCHEMA), _build_flat_torsion),
    "sphere": _Family(
        "unit 2-sphere chart with the round metric and its parallel "
        "transport; surfaces are families of great circles",
        _with_masses(_SPHERE_SCHEMA), _build_sphere),
    "minkowski": _Family(
        "flat 4-dimensional chart with Lorentz metric and timelike "
        "accelerating worldlines",
        _with_masses(_MINKOWSKI_SCHEMA), _build_minkowski),
    "offset-transport": _Family(
        "sphere geometry with a transport offset from parallel by a "
        "constant sigma: nonzero S-tensor, DS/ds, curvature and force",
        _with_masses(_OFFSET_SCHEMA), _build_offset),
    "exp-transport": _Family(
        "flat chart with the closed-form transport expm(A dx^0): analytic "
        "coefficient and approximant oracle",
        _with_masses(_EXP_SCHEMA), _build_exp),
}


def family_names() -> Tuple[str, ...]:
    return tuple(_FAMILIES)


def _resolve_parameters(family: _Family, supplied: Mapping[str, float],
                        name: str) -> Dict[str, float]:
    params = {key: spec.default for key, spec in family.schema.items()}
    for key, value in supplied.items():
        if key not in family.schema:
            raise ConfigError(f"unknown parameter '{key}' for scenario '{name}'")
        value = float(value)
        spec = family.schema[key]
        if not (spec.lo <= value <= spec.hi):
            raise ConfigError(
                f"parameter '{key}' = {value} outside [{spec.lo}, {spec.hi}] "
                f"for scenario '{name}'")
        params[key] = value
    return params


def build(spec: ScenarioSpec) -> Scenario:
    """Build a fully wired Scenario from a spec; deterministic for a given
    spec.  Unknown names, unknown parameter keys, and out-of-range values
    raise ConfigError naming the offender."""
    if spec.name not in _FAMILIES:
        known = ", ".join(_FAMILIES)
        raise ConfigError(f"unknown scenario '{spec.name}' (known: {known})")
    family = _FAMILIES[spec.name]
    params = _resolve_parameters(family, spec.parameters, spec.name)
    r_base = 0.0 if spec.r_base is None else float(spec.r_base)
    s_eval = DEFAULT_S_EVAL if spec.s_eval is None else float(spec.s_eval)
    return family.builder(params, r_base, s_eval)


def list_scenarios() -> list:
    """Stable, machine-readable description of every registered family."""
    out = []
    for name, family in _FAMILIES.items():
        out.append({
            "name": name,
            "description": family.description,
            "parameters": {
                key: {"default": spec.default, "min": spec.lo, "max": spec.hi,
                      "doc": spec.doc}
                for key, spec in family.schema.items()
            },
        })
    return out


# Scenario choices that exercise every nonzero term of each equation
# (torsion terms on flat-torsion, curvature terms on sphere-based families,
# S-tensor and DS/ds terms on offset-transport, mass terms via linear-drift
# masses, the energy equation on minkowski plus a nonmetricity case).
EQUATION_SCENARIOS: Dict[EquationId, Tuple[ScenarioSpec, ...]] = {
    EquationId.E2_10: (ScenarioSpec("offset-transport"), ScenarioSpec("flat-torsion")),
    EquationId.E2_13: (ScenarioSpec("sphere"),
                       ScenarioSpec("flat-euclidean/quadratic")),
    EquationId.E3_1: (ScenarioSpec("flat-torsion"), ScenarioSpec("sphere")),
    EquationId.E4_1: (ScenarioSpec("sphere"),
                      ScenarioSpec("flat-euclidean/quadratic")),
    EquationId.E4_3: (ScenarioSpec("offset-transport"), ScenarioSpec("flat-torsion")),
    EquationId.E4_4: (ScenarioSpec("flat-torsion"),
                      ScenarioSpec("offset-transport")),
    EquationId.E4_5: (ScenarioSpec("offset-transport"), ScenarioSpec("sphere")),
    EquationId.E5_1: tuple(ScenarioSpec(name, LINEAR_DRIFT_MASSES)
                           for name in _FAMILIES),
    EquationId.E5_2: (ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES),
                      ScenarioSpec("sphere", LINEAR_DRIFT_MASSES)),
    EquationId.E6_2: (ScenarioSpec("offset-transport"),),
    EquationId.E6_3: (ScenarioSpec("sphere"),
                      ScenarioSpec("flat-euclidean/quadratic")),
    EquationId.E6_4: (ScenarioSpec("flat-torsion"),
                      ScenarioSpec("offset-transport")),
    EquationId.E6_5: (ScenarioSpec("offset-transport"), ScenarioSpec("sphere")),
    EquationId.E7_1: (ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES),),
    EquationId.E7_2: (ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES),),
    EquationId.E7_4: (ScenarioSpec("minkowski", LINEAR_DRIFT_MASSES),
                      ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES),
                      ScenarioSpec("flat-torsion", LINEAR_DRIFT_MASSES)),
}
