"""Built-in scenario families.

Each family states its geometry: a chart dimension, a connection (with
analytic partials), a metric, a transport law and a two-parameter worldline
surface with analytic first and second partials; ``build`` makes it an
immutable Scenario with the mass function and probe field every family
shares.  Custom geometry is limited to the documented parameters of the
registered families, which keeps every analytic partial exact.

A surface family states its surface once, as the ``jets(s, r, order)`` of
its WorldSurface: the point and its first partials, and at order 2 also its
second partials, the order-1 part computed first and alike at either order.
Every read is on rows: s and r are ``(n,)`` arrays, and a point is a row of
one.  Each function is NumPy's where its entries carry ``math``'s bits, and
``math``'s on each entry where they do not (``_each``), so that a row's bits
do not depend on the rows read with it; so do the mass function and the
probe field, which a study reads over its grid in one row call each
(``kinematics._Ladder._grid``).  Every field is stated on a stack
(``geometry.ConnectionField``).

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
from .geometry import ConnectionField, MetricField
from .kinematics import MassSurface, Scenario, SurfaceField, WorldSurface
from .transport import TransportLaw, law_from_connection, law_with_offset

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


# a family's (dim, conn, metric, law, surface), from its resolved parameters
_Geometry = Tuple[int, ConnectionField, MetricField, TransportLaw, WorldSurface]


@dataclass(frozen=True)
class _Family:
    description: str
    schema: Dict[str, _Param]  # the family's own keys, which _MASS_SCHEMA's follow
    builder: Callable[[Dict[str, float]], _Geometry]


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

    def value(s, r) -> np.ndarray:  # (n, dim) on (n,) rows
        s, r = s[:, None], r[:, None]
        return (rows[:, 0] + rows[:, 1] * s + rows[:, 2] * r
                + rows[:, 3] * r * r + rows[:, 4] * s * r)

    def d_r(s, r) -> np.ndarray:
        s, r = s[:, None], r[:, None]
        return rows[:, 2] + 2.0 * rows[:, 3] * r + rows[:, 4] * s

    return SurfaceField(value=value, d_r=d_r)


def _repeated(value: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The field equal to ``value`` at every point: one copy per row of a stack."""
    return lambda coords: np.repeat(value[None], len(coords), axis=0)


def _constant_connection(gamma: np.ndarray) -> ConnectionField:
    """Gamma the same at every point; zero partials."""
    return ConnectionField(_repeated(gamma), _repeated(np.zeros(gamma.shape + gamma.shape[:1])))


def _zero_connection(dim: int) -> ConnectionField:
    return _constant_connection(np.zeros((dim, dim, dim)))


def _identity_metric(dim: int, signature: Optional[np.ndarray] = None) -> MetricField:
    diag = np.ones(dim) if signature is None else np.asarray(signature, float)
    return MetricField(g_at=_repeated(np.diag(diag)),
                       partials_at=_repeated(np.zeros((dim, dim, dim))))


def _each(fn: Callable[..., float]) -> Callable[..., np.ndarray]:
    """``fn``, a ``math`` function, on each entry of ``(n,)`` rows: NumPy's
    ``arccos`` and ``arctan2`` differ from ``math``'s in the last bit on some
    inputs, and the recorded outputs are ``math``'s."""
    return lambda *rows: np.array(list(map(fn, *(row.tolist() for row in rows))))


_acos, _atan2 = _each(math.acos), _each(math.atan2)


def _square(v: np.ndarray) -> np.ndarray:
    return np.float_power(v, 2)  # libm pow on each entry, not v * v


def _vec(r: np.ndarray, *components) -> np.ndarray:
    """A chart vector of its components on the ``(n,)`` rows ``r``, ``(n,
    d)``, where a float component is the same on every row."""
    out = np.empty((len(r), len(components)))
    for i, component in enumerate(components):
        out[:, i] = component
    return out


# ---------------------------------------------------------------- flat charts

def _flat_surface(dim: int, p: Dict[str, float]) -> WorldSurface:
    """The flat families' one surface: x^0 = s + shear r + cross_0 s r +
    curve_0 r^2/2, x^1 = spread r + cross_1 s r + accel (1 + accel_grad r)^2
    s^2/2 + curve_1 r^2/2, x^i = beta_i r + kappa_i s r for i >= 2, where a
    coefficient the family does not publish is 0 (so the ruled family's
    worldlines are straight)."""
    a, c, w1, b, c1, q, k, w2 = (p.get(key, 0.0) for key in (
        "shear", "cross_0", "curve_0", "spread", "cross_1", "accel", "accel_grad",
        "curve_1"))
    beta = [0.25 + 0.1 * i for i in range(dim - 2)]
    kappa = [0.15 - 0.05 * i for i in range(dim - 2)]

    def jets(s, r, order):
        g = 1.0 + k * r
        g2 = _square(g)
        x = _vec(r, s + a * r + c * s * r + 0.5 * w1 * r * r,
                 b * r + c1 * s * r + 0.5 * q * g2 * s * s + 0.5 * w2 * r * r,
                 *(bi * r + ki * s * r for bi, ki in zip(beta, kappa)))
        x_s = _vec(r, 1.0 + c * r, q * g2 * s + c1 * r, *(ki * r for ki in kappa))
        x_r = _vec(r, a + c * s + w1 * r, b + c1 * s + q * k * g * s * s + w2 * r,
                   *(bi + ki * s for bi, ki in zip(beta, kappa)))
        if order == 1:
            return x, x_s, x_r
        x_ss = _vec(r, 0.0, q * g2, *(0.0 for _ in kappa))
        x_sr = _vec(r, c, 2.0 * q * k * g * s + c1, *kappa)
        x_rr = _vec(r, w1, q * k * k * s * s + w2, *(0.0 for _ in kappa))
        return x, x_s, x_r, x_ss, x_sr, x_rr

    return WorldSurface(jets, (-0.6, 0.6), (-0.35, 0.35))


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


def _build_flat(p: Dict[str, float]) -> _Geometry:
    if p["dim"] != (dim := int(p["dim"])):
        raise ConfigError(f"parameter 'dim' must be an integer, got {p['dim']}")
    conn = _zero_connection(dim)
    return dim, conn, _identity_metric(dim), law_from_connection(conn), _flat_surface(dim, p)


# --------------------------------------------------------------- flat torsion

_FLAT_TORSION_SCHEMA = dict(_FLAT_QUAD_SCHEMA)
_FLAT_TORSION_SCHEMA["torsion_c"] = _Param(0.3, -1.0, 1.0,
                                           "constant Gamma^1_{21} coefficient")
del _FLAT_TORSION_SCHEMA["dim"]


def _torsion_connection(c: float) -> ConnectionField:
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = c  # Gamma^1_{21}: vector slot j=2, direction slot k=1
    return _constant_connection(gamma)


def _build_flat_torsion(p: Dict[str, float]) -> _Geometry:
    conn = _torsion_connection(p["torsion_c"])
    return 2, conn, _identity_metric(2), law_from_connection(conn), _flat_surface(2, p)


# --------------------------------------------------------------------- sphere

def _inverse(den: Callable[[float], float], th: np.ndarray) -> list:
    """``1 / den(theta)`` at each theta, by ``math`` on each entry; where
    that is infinite (``den`` zero, or too small to invert), DomainError
    names the first such theta."""
    thetas = th.tolist()
    inverses = [1.0 / v if (v := den(t)) else math.inf for t in thetas]
    if singular := [t for t, v in zip(thetas, inverses) if math.isinf(v)]:
        raise DomainError(f"sphere chart is singular at theta = {singular[0]}")
    return inverses


def _sphere_connection() -> ConnectionField:
    def gamma_at(coords):
        th, g = coords[:, 0], np.zeros((len(coords), 2, 2, 2))
        g[:, 0, 1, 1] = -np.sin(th) * np.cos(th)
        g[:, 1, 0, 1] = g[:, 1, 1, 0] = _inverse(math.tan, th)
        return g

    def partials_at(coords):
        th, dg = coords[:, 0], np.zeros((len(coords), 2, 2, 2, 2))
        dg[:, 0, 1, 1, 0] = -np.cos(2.0 * th)
        inverse = _inverse(lambda t: math.sin(t) ** 2, th)  # math's sin^2 on each entry
        dg[:, 1, 0, 1, 0] = dg[:, 1, 1, 0, 0] = np.negative(inverse)
        return dg

    return ConnectionField(gamma_at, partials_at)


def _sphere_metric() -> MetricField:
    def g_at(coords):
        g = np.zeros((len(coords), 2, 2))
        g[:, 0, 0], g[:, 1, 1] = 1.0, _square(np.sin(coords[:, 0]))
        return g

    def partials_at(coords):
        dg = np.zeros((len(coords), 2, 2, 2))
        dg[:, 1, 1, 0] = np.sin(2.0 * coords[:, 0])
        return dg

    return MetricField(g_at=g_at, partials_at=partials_at)


def _comb(a: float, p: tuple, b: float, q: tuple) -> tuple:  # a p + b q
    return (a * p[0] + b * q[0], a * p[1] + b * q[1], a * p[2] + b * q[2])


def _sphere_surface(tilt: float, accel: float) -> WorldSurface:
    """Family of great circles: the embedded surface is
    cos(f(s)) u(r) + sin(f(s)) w(r) with orthonormal u(r), w(r) and
    f(s) = s + accel s^2/2; chart partials follow by exact chain rules
    through theta = arccos z, phi = atan2(y, x), on 3-vectors as tuples of
    rows."""
    cb, sb = math.cos(tilt), math.sin(tilt)

    def jets(s, r, order):
        cr, sr = np.cos(r), np.sin(r)
        u, w = (cr, sr, 0.0), (-sr * cb, cr * cb, sb)
        du, dw = (-sr, cr, 0.0), (-cr * cb, -sr * cb, 0.0)
        f = s + 0.5 * accel * s * s
        fp = 1.0 + accel * s
        cf, sf = np.cos(f), np.sin(f)
        x, y, z = _comb(cf, u, sf, w)
        e_f = _comb(-sf, u, cf, w)  # d e / d f
        e_s = (fp * e_f[0], fp * e_f[1], fp * e_f[2])
        e_r = _comb(cf, du, sf, dw)
        rho2 = x * x + y * y
        sth = np.sqrt(rho2)
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

        point = _vec(r, _acos(z), _atan2(y, x))
        j_s = _vec(r, theta_first(e_s), phi_first(e_s))
        j_r = _vec(r, theta_first(e_r), phi_first(e_r))
        if order == 1:
            return point, j_s, j_r
        e_ss = _comb(accel, e_f, fp * fp, _comb(-cf, u, -sf, w))
        e_sr = tuple(fp * c for c in _comb(-sf, du, cf, dw))
        e_rr = _comb(cf, (-cr, -sr, -0.0), sf, (-w[0], -w[1], -0.0))
        j_ss = _vec(r, theta_second(e_s, e_s, e_ss), phi_second(e_s, e_s, e_ss))
        j_sr = _vec(r, theta_second(e_r, e_s, e_sr), phi_second(e_r, e_s, e_sr))
        j_rr = _vec(r, theta_second(e_r, e_r, e_rr), phi_second(e_r, e_r, e_rr))
        return point, j_s, j_r, j_ss, j_sr, j_rr

    return WorldSurface(jets, (-0.5, 0.5), (-0.3, 0.3))


_SPHERE_SCHEMA = {
    "tilt": _Param(0.6, 0.2, 1.2, "tilt angle between the circle frames"),
    "accel": _Param(0.0, -1.0, 1.0, "tangential reparametrization rate"),
}


def _build_sphere(p: Dict[str, float]) -> _Geometry:
    conn = _sphere_connection()
    return (2, conn, _sphere_metric(), law_from_connection(conn),
            _sphere_surface(p["tilt"], p["accel"]))


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
        g = 1.0 + k * r
        g2 = _square(g)
        x = _vec(r, s, v * s + 0.5 * q * g2 * s * s + a1 * r, r + 0.5 * w * r * r + c2 * s * r,
                 a3 * r + c3 * s * r)
        x_s = _vec(r, 1.0, v + q * g2 * s, c2 * r, c3 * r)
        x_r = _vec(r, 0.0, q * k * g * s * s + a1, 1.0 + w * r + c2 * s, a3 + c3 * s)
        if order == 1:
            return x, x_s, x_r
        x_ss = _vec(r, 0.0, q * g2, 0.0, 0.0)
        x_sr = _vec(r, 0.0, 2.0 * q * k * g * s, c2, c3)
        x_rr = _vec(r, 0.0, q * k * k * s * s, w, 0.0)
        return x, x_s, x_r, x_ss, x_sr, x_rr

    return WorldSurface(jets, (-0.5, 0.5), (-0.25, 0.25))


def _build_minkowski(p: Dict[str, float]) -> _Geometry:
    conn = _zero_connection(4)
    metric = _identity_metric(4, np.array([1.0, -1.0, -1.0, -1.0]))
    return 4, conn, metric, law_from_connection(conn), _minkowski_surface(p)


# ----------------------------------------------------------- offset transport

_OFFSET_SCHEMA = {
    "sigma": _Param(0.2, -1.0, 1.0, "constant S-tensor component S^1_{22}"),
    "tilt": _Param(0.6, 0.2, 1.2, "sphere-surface tilt"),
    "accel": _Param(0.3, -1.0, 1.0, "sphere-surface reparametrization rate"),
}


def _build_offset(p: Dict[str, float]) -> _Geometry:
    conn = _sphere_connection()
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = p["sigma"]
    return (2, conn, _sphere_metric(), law_with_offset(conn, sigma),
            _sphere_surface(p["tilt"], p["accel"]))


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


def _build_exp(p: Dict[str, float]) -> _Geometry:
    coeff = np.zeros((2, 2, 2))
    # M(u) = A * xdot^0, so H(t,s) = expm(A (x^0(t)-x^0(s)))
    coeff[:, :, 0] = exp_law_generator(p)
    law = TransportLaw(lambda us, path, coords: np.repeat(coeff[None], len(us), axis=0))
    return 2, _zero_connection(2), _identity_metric(2), law, _flat_surface(2, p)


# ------------------------------------------------------------------- registry

_FAMILIES: Dict[str, _Family] = {
    "flat-euclidean/ruled": _Family(
        "flat chart, zero connection, straight worldlines (bilinear surface)",
        _FLAT_RULED_SCHEMA, _build_flat),
    "flat-euclidean/quadratic": _Family(
        "flat chart, zero connection, accelerating worldlines",
        _FLAT_QUAD_SCHEMA, _build_flat),
    "flat-torsion": _Family(
        "flat chart, constant non-symmetric connection: torsion without "
        "curvature (and nonmetricity against the identity metric)",
        _FLAT_TORSION_SCHEMA, _build_flat_torsion),
    "sphere": _Family(
        "unit 2-sphere chart with the round metric and its parallel "
        "transport; surfaces are families of great circles",
        _SPHERE_SCHEMA, _build_sphere),
    "minkowski": _Family(
        "flat 4-dimensional chart with Lorentz metric and timelike "
        "accelerating worldlines",
        _MINKOWSKI_SCHEMA, _build_minkowski),
    "offset-transport": _Family(
        "sphere geometry with a transport offset from parallel by a "
        "constant sigma: nonzero S-tensor, DS/ds, curvature and force",
        _OFFSET_SCHEMA, _build_offset),
    "exp-transport": _Family(
        "flat chart with the closed-form transport expm(A dx^0): analytic "
        "coefficient and approximant oracle",
        _EXP_SCHEMA, _build_exp),
}


def family_names() -> Tuple[str, ...]:
    return tuple(_FAMILIES)


def _resolve_parameters(family: _Family, supplied: Mapping[str, float],
                        name: str) -> Dict[str, float]:
    schema = {**family.schema, **_MASS_SCHEMA}
    params = {key: spec.default for key, spec in schema.items()}
    for key, value in supplied.items():
        if key not in schema:
            raise ConfigError(f"unknown parameter '{key}' for scenario '{name}'")
        spec = schema[key]
        # compared before float(): an integer too large for a float is out of range
        if not (spec.lo <= value <= spec.hi):
            raise ConfigError(
                f"parameter '{key}' = {value} outside [{spec.lo}, {spec.hi}] "
                f"for scenario '{name}'")
        params[key] = float(value)
    return params


def build(spec: ScenarioSpec) -> Scenario:
    """Build a fully wired Scenario from a spec; deterministic for a given
    spec, its surface rebased to ``r_base``.  Unknown names, unknown
    parameter keys, out-of-range values, and ``r_base``/``s_eval`` outside
    the surface's domains raise ConfigError naming the offender."""
    if spec.name not in _FAMILIES:
        known = ", ".join(_FAMILIES)
        raise ConfigError(f"unknown scenario '{spec.name}' (known: {known})")
    family = _FAMILIES[spec.name]
    params = _resolve_parameters(family, spec.parameters, spec.name)
    dim, conn, metric, law, surf = family.builder(params)
    r_base = 0.0 if spec.r_base is None else spec.r_base
    s_eval = DEFAULT_S_EVAL if spec.s_eval is None else spec.s_eval
    for key, value, (lo, hi) in (("r_base", r_base, surf.r_domain),
                                 ("s_eval", s_eval, surf.s_domain)):
        if not (lo <= value <= hi):  # before float(), as in _resolve_parameters
            raise ConfigError(f"{key} {value} outside {key[0]}-domain "
                              f"[{lo}, {hi}]")
    return Scenario(dimension=dim, conn=conn, metric=metric, law=law,
                    surface=replace(surf, r_base=float(r_base)), mass=_mass_surface(params),
                    label=spec.name, probe_field=_probe_field(dim), s_eval=float(s_eval))


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
                for key, spec in {**family.schema, **_MASS_SCHEMA}.items()
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
