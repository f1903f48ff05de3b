import copy
import math
from fractions import Fraction
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodev.errors import EvaluationError, NullVectorError
from geodev.geometry import (ChartPoint, ConnectionField, MetricField, PathCurve,
                             checked_array, cov_tensor_components, curvature_at,
                             metric_dot, sign_of_square, torsion_at)
from geodev.scenarios import (_constant_connection, _identity_metric, _repeated,
                              _sphere_metric, _zero_connection)

from conftest import stacked

H_S = 1e-5  # step of the tests' central differences in s


def zero_connection(d=2):
    return _zero_connection(d)


def constant_connection(gamma):
    return _constant_connection(np.asarray(gamma, float))


def constant_metric(g):
    """A MetricField of the matrix ``g`` at every point, with zero partials."""
    g = np.asarray(g, float)
    return MetricField(g_at=_repeated(g), partials_at=_repeated(np.zeros(g.shape + g.shape[:1])))


def sphere_connection():
    def gamma_at(pt):
        th = pt.coords[0]
        g = np.zeros((2, 2, 2))
        g[0, 1, 1] = -math.sin(th) * math.cos(th)
        g[1, 0, 1] = g[1, 1, 0] = 1.0 / math.tan(th)
        return g

    def partials_at(pt):
        th = pt.coords[0]
        dg = np.zeros((2, 2, 2, 2))
        dg[0, 1, 1, 0] = -math.cos(2 * th)
        dg[1, 0, 1, 0] = dg[1, 1, 0, 0] = -1.0 / math.sin(th) ** 2
        return dg

    return ConnectionField(gamma_at=stacked(gamma_at), partials_at=stacked(partials_at))


def euclidean_metric(d=2):
    return _identity_metric(d)


def minkowski_metric():
    return _identity_metric(4, np.array([1.0, -1.0, -1.0, -1.0]))


def line_path(start, direction, domain=(-1.0, 1.0)):
    start = np.array(start, float)
    direction = np.array(direction, float)
    return PathCurve(lambda s: (start + s * direction, direction), domain)


# ---------------------------------------------------------------- base types

def test_chart_point_rejects_non_finite():
    with pytest.raises(EvaluationError):
        ChartPoint([0.0, np.nan])


def test_chart_point_is_immutable():
    # a point is shared through the workspace memos, so no caller may rebind
    # or drop its coordinates or give it other attributes; it still copies and
    # pickles
    point = ChartPoint([0.3, 0.4])
    for change in (lambda: setattr(point, "coords", np.zeros(2)),
                   lambda: delattr(point, "coords"),
                   lambda: setattr(point, "label", "x1")):
        with pytest.raises(AttributeError):
            change()
    assert point.coords.tolist() == [0.3, 0.4]
    for clone in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
        assert clone(point).coords.tolist() == [0.3, 0.4]


@pytest.mark.parametrize("shape", [(2,), (2, 2, 2), (4, 4, 4, 4)])
def test_finiteness_check_is_exact(shape):
    # one non-finite entry anywhere is rejected; every finite extreme passes
    for bad in (math.nan, math.inf, -math.inf):
        for index in np.ndindex(shape):
            arr = np.ones(shape)
            arr[index] = bad
            with pytest.raises(EvaluationError, match="non-finite"):
                checked_array(arr, shape, "entries")
            with pytest.raises(EvaluationError, match="finite"):
                ChartPoint(arr.reshape(-1))
    for extreme in (1.7e308, -1.7e308, 5e-324, -0.0):
        arr = np.full(shape, extreme)
        assert np.array_equal(checked_array(arr, shape, "entries"), arr)
        assert np.array_equal(ChartPoint(arr.reshape(-1)).coords, arr.reshape(-1))


def test_tangent_dimension_mismatch():
    # a path velocity of the wrong shape, or a non-finite one, is named
    for velocity in ([1.0, 0.0, 0.0], [1.0, math.nan]):
        path = PathCurve(lambda u, v=np.array(velocity): (np.array([u, 0.0]), v),
                         (-1.0, 1.0))
        with pytest.raises(EvaluationError, match="tangent components"):
            path.tangent(0.0)
    # so is a vector of the wrong dimension or rank given to the metric
    # products
    g, x = euclidean_metric(), ChartPoint([0.0, 0.0])
    for bad in ([1.0, 0.0, 0.0], [1.0], [[1.0, 0.0], [0.0, 1.0]]):
        for call in (lambda: metric_dot(g, x, bad, [1.0, 0.0]),
                     lambda: metric_dot(g, x, [1.0, 0.0], bad),
                     lambda: sign_of_square(g, x, bad)):
            with pytest.raises(EvaluationError, match="vector components"):
                call()


def test_metric_must_be_symmetric_and_nondegenerate():
    pt = ChartPoint([0.0, 0.0])
    lopsided = constant_metric([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(EvaluationError):
        lopsided.matrix(pt.coords[None])
    degenerate = constant_metric([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(EvaluationError):
        degenerate.matrix(pt.coords[None])


@pytest.mark.parametrize("partials,message", [
    (np.zeros((2, 2)), "metric partials have shape"),
    (np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [math.nan, 0.0]]]),
     "non-finite metric partials"),
])
def test_analytic_metric_partials_are_checked(partials, message):
    metric = MetricField(g_at=_repeated(np.eye(2)), partials_at=_repeated(partials))
    with pytest.raises(EvaluationError, match=message):
        metric.partials(np.zeros((1, 2)))


def test_concurrent_path_reads_get_their_own_parameters_values():
    # threads evaluating one path at different parameters each get the
    # point and velocity of their own parameter, never another thread's; the
    # velocity depends on u, so a read mixed up between threads shows in
    # either array
    path = PathCurve(lambda u: (np.array([0.3 + u, -0.2 + u * u]),
                                np.array([1.0, 2.0 * u])), (-1.0, 1.0))
    params = [-0.5, -0.2, 0.1, 0.4]
    expected = {u: ((0.3 + u, -0.2 + u * u), (1.0, 2.0 * u)) for u in params}
    errors = []

    def work(offset):
        for k in range(8000):
            u = params[(offset + k) % len(params)]
            got = tuple(path.map(u).coords), tuple(path.tangent(u))
            if got != expected[u]:
                errors.append(u)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


# ------------------------------------------------------------------- torsion

def test_torsion_zero_connection():
    t = torsion_at(zero_connection(), ChartPoint([0.3, 0.4]))
    assert np.all(t == 0.0)


def test_torsion_symmetric_connection_vanishes():
    t = torsion_at(sphere_connection(), ChartPoint([1.1, 0.2]))
    assert np.max(np.abs(t)) == 0.0


def test_torsion_constant_nonsymmetric():
    c = 0.7
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = c  # Gamma^1_{.21}
    t = torsion_at(constant_connection(gamma), ChartPoint([0.0, 0.0]))
    assert t[0, 1, 0] == pytest.approx(c)
    assert t[0, 0, 1] == pytest.approx(-c)
    mask = np.ones((2, 2, 2), bool)
    mask[0, 1, 0] = mask[0, 0, 1] = False
    assert np.all(t[mask] == 0.0)


def test_torsion_exactly_antisymmetric(rng):
    gamma = rng.normal(size=(3, 3, 3))
    t = torsion_at(constant_connection(gamma), ChartPoint([0.0, 0.0, 0.0]))
    assert np.all(t + np.swapaxes(t, 1, 2) == 0.0)


# ----------------------------------------------------------------- curvature

def test_curvature_zero_connection():
    r = curvature_at(zero_connection(), ChartPoint([0.1, 0.2]))
    assert np.all(r == 0.0)


def test_curvature_constant_torsion_connection_is_flat():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 0.3
    r = curvature_at(constant_connection(gamma), ChartPoint([0.0, 0.0]))
    assert np.max(np.abs(r)) == 0.0


def test_sphere_curvature_equator_component():
    # R^theta_{.phi theta phi} = sin^2(theta); equals 1 on the equator
    r = curvature_at(sphere_connection(), ChartPoint([math.pi / 2, 0.3]))
    assert r[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-12)
    th = 1.1
    r = curvature_at(sphere_connection(), ChartPoint([th, -0.4]))
    assert r[0, 1, 0, 1] == pytest.approx(math.sin(th) ** 2, abs=1e-12)


def test_curvature_antisymmetry_last_two_indices():
    r = curvature_at(sphere_connection(), ChartPoint([1.2, 0.1]))
    assert np.all(r + np.swapaxes(r, 2, 3) == 0.0)


def test_small_loop_holonomy_matches_curvature():
    """Transport around a small coordinate rectangle differs from the
    identity by -R[:, :, 0, 1] * area, fixing the sign convention."""
    from geodev.transport import law_from_connection, transport_matrix

    conn = sphere_connection()
    law = law_from_connection(conn)
    th0, ph0, d = 1.0, 0.5, 1e-3
    legs = [
        (line_path([th0, ph0], [1.0, 0.0], (0, d)), 0.0, d),
        (line_path([th0 + d, ph0], [0.0, 1.0], (0, d)), 0.0, d),
        (line_path([th0 + d, ph0 + d], [-1.0, 0.0], (0, d)), 0.0, d),
        (line_path([th0, ph0 + d], [0.0, -1.0], (0, d)), 0.0, d),
    ]
    loop = np.eye(2)
    for path, a, b in legs:
        loop = transport_matrix(law, path, a, b) @ loop
    defect = (loop - np.eye(2)) / d**2
    r = curvature_at(conn, ChartPoint([th0, ph0]))
    assert np.abs(defect + r[:, :, 0, 1]).max() < 5e-3


# -------------------------------------------------- covariant derivatives

def cov_along(path, conn, s, field, d_field=None, valence=(1, 0)):
    """Covariant derivative at ``s`` along ``path`` of the component field
    ``field`` by ``cov_tensor_components``; the component derivative is
    ``d_field(s)``, or a central difference with step ``H_S``."""
    if d_field is None:
        d_field = lambda u: (field(u + H_S) - field(u - H_S)) / (2.0 * H_S)
    gamma = conn.coefficients(path.map(s).coords[None])[0]
    return cov_tensor_components(gamma, path.tangent(s), field(s), d_field(s), valence)


def test_cov_derivative_flat_constant_field():
    path = line_path([0.0, 0.0], [1.0, 0.0])
    d = cov_along(path, zero_connection(), 0.2, lambda s: np.array([2.0, -1.0]))
    assert np.abs(d).max() < 1e-10


def test_cov_derivative_flat_linear_field():
    path = line_path([0.0, 0.0], [1.0, 1.0])
    d = cov_along(path, zero_connection(), 0.1, lambda s: np.array([s, 0.0]),
                  lambda s: np.array([1.0, 0.0]))
    assert np.allclose(d, [1.0, 0.0])


def test_cov_derivative_equator_tangent_is_geodesic():
    conn = sphere_connection()
    path = line_path([math.pi / 2, 0.0], [0.0, 1.0], domain=(-4.0, 4.0))
    d = cov_along(path, conn, 0.7, path.tangent)
    assert np.abs(d).max() < 1e-8


def test_cov_derivative_linearity():
    conn = sphere_connection()
    path = line_path([1.0, 0.2], [0.3, 1.0])
    f1 = lambda s: np.array([math.sin(s), s * s])
    d1 = lambda s: np.array([math.cos(s), 2 * s])
    f2 = lambda s: np.array([1.0 + s, math.cos(s)])
    d2 = lambda s: np.array([1.0, -math.sin(s)])
    a, b = 1.7, -0.6
    combo = lambda s: a * f1(s) + b * f2(s)
    dcombo = lambda s: a * d1(s) + b * d2(s)
    lhs = cov_along(path, conn, 0.15, combo, dcombo)
    rhs = (a * cov_along(path, conn, 0.15, f1, d1)
           + b * cov_along(path, conn, 0.15, f2, d2))
    assert np.abs(lhs - rhs).max() < 1e-12
    # with finite-difference component derivatives the 1/(2h) amplification
    # of roundoff still keeps linearity far below any geometric scale
    lhs_fd = cov_along(path, conn, 0.15, combo)
    rhs_fd = (a * cov_along(path, conn, 0.15, f1)
              + b * cov_along(path, conn, 0.15, f2))
    assert np.abs(lhs_fd - rhs_fd).max() < 1e-10


def test_cov_derivative_leibniz_scalar():
    conn = sphere_connection()
    path = line_path([1.0, 0.2], [0.3, 1.0])
    base = lambda s: np.array([math.sin(s), s])
    f = lambda s: 1.0 + 0.5 * s * s
    fprime = lambda s: s
    scaled = lambda s: f(s) * base(s)
    s0 = 0.2
    lhs = cov_along(path, conn, s0, scaled)
    rhs = fprime(s0) * base(s0) + f(s0) * cov_along(path, conn, s0, base)
    assert np.abs(lhs - rhs).max() < 1e-6


def test_cov_tensor_derivative_constant_flat():
    path = line_path([0.0, 0.0], [1.0, 0.5])
    w = np.arange(8.0).reshape(2, 2, 2)
    d = cov_along(path, zero_connection(), 0.1, lambda s: w,
                  lambda s: np.zeros((2, 2, 2)), (1, 2))
    assert np.all(d == 0.0)


def test_cov_tensor_derivative_metric_compatible_pair():
    path = line_path([0.0, 0.0], [1.0, 0.0])
    d = cov_along(path, zero_connection(), 0.3, lambda s: np.eye(2),
                  lambda s: np.zeros((2, 2)), (0, 2))
    assert np.all(d == 0.0)
    # the sphere's metric diag(1, sin^2 theta) is parallel for its
    # Levi-Civita connection along any curve
    path = line_path([1.0, 0.2], [0.3, 1.0])
    metric = _sphere_metric()
    g = lambda s: metric.matrix(path.map(s).coords[None])[0]
    dg = lambda s: np.diag([0.0, 0.3 * math.sin(2.0 * path.map(s).coords[0])])
    for s0 in (-0.5, 0.1, 0.6):
        d = cov_along(path, sphere_connection(), s0, g, dg, (0, 2))
        assert np.abs(d).max() < 1e-15
        assert np.abs(cov_along(path, sphere_connection(), s0, g,
                                valence=(0, 2))).max() < 1e-9


def test_cov_tensor_derivative_identity_metric_with_torsion():
    # frozen oracle computed symbolically before the build: with only
    # Gamma^1_{21} = c nonzero, (Dg/ds)_{12} = (Dg/ds)_{21} = -c * xdot^1
    # and all other components vanish for g = identity
    c = 0.4
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = c
    conn = constant_connection(gamma)
    direction = np.array([0.8, -0.3])
    path = line_path([0.0, 0.0], direction)
    d = cov_along(path, conn, 0.1, lambda s: np.eye(2),
                  lambda s: np.zeros((2, 2)), (0, 2))
    expected = np.zeros((2, 2))
    expected[0, 1] = expected[1, 0] = -c * direction[0]
    assert np.abs(d - expected).max() < 1e-12


def test_cov_tensor_components_match_tensordot_reference(rng):
    # reference: one tensordot per index; the einsum implementation sums in
    # another order, so the two agree to roundoff, not bit for bit
    def reference(gamma, xdot, w, dw, valence):
        gdot = np.einsum("ijk,k->ij", gamma, xdot)
        p, q = valence
        out = dw.copy()
        for axis in range(p):
            out += np.moveaxis(np.tensordot(gdot, w, axes=([1], [axis])), 0, axis)
        for axis in range(p, p + q):
            out -= np.moveaxis(np.tensordot(w, gdot, axes=([axis], [0])), -1, axis)
        return out

    for d in (2, 3, 4):
        for valence in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 1),
                        (1, 3)]:
            shape = (d,) * sum(valence)
            gamma, xdot = rng.normal(size=(d, d, d)), rng.normal(size=d)
            w, dw = rng.normal(size=shape), rng.normal(size=shape)
            got = cov_tensor_components(gamma, xdot, w, dw, valence)
            assert np.abs(got - reference(gamma, xdot, w, dw, valence)).max() < 1e-12


def test_cov_tensor_components_keeps_an_object_dtype_exact():
    # built in the entries' result type with float: a float stays float64,
    # and exact entries (an object array, as a symbolic oracle passes) stay
    # exact, with the value the float computation rounds
    gamma = np.array([[[Fraction(1, 3), 0], [Fraction(-2, 7), 1]],
                      [[0, Fraction(5, 11)], [2, Fraction(1, 2)]]], dtype=object)
    xdot = np.array([Fraction(3, 2), Fraction(-1, 5)], dtype=object)
    w = np.array([Fraction(2, 9), Fraction(4, 3)], dtype=object)
    dw = np.array([Fraction(1, 8), Fraction(-3, 4)], dtype=object)
    got = cov_tensor_components(gamma, xdot, w, dw, (1, 0))
    assert got.dtype == object and all(type(v) is Fraction for v in got)
    gdot = [[sum(gamma[i, m, k] * xdot[k] for k in range(2)) for m in range(2)]
            for i in range(2)]
    assert list(got) == [dw[i] + sum(gdot[i][m] * w[m] for m in range(2))
                         for i in range(2)]
    as_float = cov_tensor_components(*(a.astype(float) for a in (gamma, xdot, w, dw)),
                                     (1, 0))
    assert as_float.dtype == np.float64
    assert np.allclose(as_float, got.astype(float), rtol=1e-15, atol=0.0)


# ---------------------------------------------------------- metric products

def test_metric_dot_euclidean_orthogonal():
    g = euclidean_metric()
    x = ChartPoint([0.0, 0.0])
    assert metric_dot(g, x, [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_metric_dot_minkowski_timelike():
    g = minkowski_metric()
    x = ChartPoint([0.0, 0.0, 0.0, 0.0])
    u = [1.0, 0.0, 0.0, 0.0]
    assert metric_dot(g, x, u, u) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_metric_dot_symmetry(u_comp, v_comp):
    g = constant_metric([[2.0, 0.3], [0.3, 1.5]])
    x = ChartPoint([0.0, 0.0])
    assert metric_dot(g, x, u_comp, v_comp) == metric_dot(g, x, v_comp, u_comp)


def test_sign_of_square():
    x4 = ChartPoint([0.0, 0.0, 0.0, 0.0])
    g4 = minkowski_metric()
    assert sign_of_square(g4, x4, [1.0, 0.0, 0.0, 0.0]) == 1
    assert sign_of_square(g4, x4, [0.0, 1.0, 0.0, 0.0]) == -1
    with pytest.raises(NullVectorError):
        sign_of_square(g4, x4, [1.0, 1.0, 0.0, 0.0])
    x2 = ChartPoint([0.0, 0.0])
    assert sign_of_square(euclidean_metric(), x2, [1.0, 0.0]) == 1
