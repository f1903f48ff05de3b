import math

import numpy as np
import pytest
from scipy.linalg import expm

from geodev.errors import EvaluationError, TransportError
from geodev.geometry import ChartPoint, PathCurve, Tangent, metric_dot
from geodev.kinematics import worldline
from geodev.scenarios import ScenarioSpec, build, exp_law_generator
from geodev.transport import (OdeConfig, TransportLaw, approx_transport,
                              coordinate_probes, extract_first_coeff,
                              law_from_connection, law_with_offset, s_tensor,
                              transport_components, transport_matrix)

from test_geometry import (constant_connection, line_path, sphere_connection,
                           zero_connection)


def test_ode_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        OdeConfig(max_steps=0)


def test_identity_at_equal_parameters(sphere):
    line = worldline(sphere, 1)
    mat = transport_matrix(sphere.law, line, 0.2, 0.2)
    assert np.array_equal(mat.entries, np.eye(2))


def test_flat_parallel_transport_is_identity(flat_ruled):
    line = worldline(flat_ruled, 1)
    mat = transport_matrix(flat_ruled.law, line, -0.3, 0.4)
    assert np.abs(mat.entries - np.eye(2)).max() < 1e-12


def test_flow_property_random_triples(sphere, rng):
    line = worldline(sphere, 1)
    lo, hi = line.domain
    for _ in range(10):
        r, s, t = rng.uniform(lo, hi, size=3)
        lhs = (transport_matrix(sphere.law, line, r, t).entries
               @ transport_matrix(sphere.law, line, s, r).entries)
        rhs = transport_matrix(sphere.law, line, s, t).entries
        assert np.abs(lhs - rhs).max() < 1e-8


def test_round_trip_is_identity(sphere):
    line = worldline(sphere, 1)
    fwd = transport_matrix(sphere.law, line, -0.2, 0.35).entries
    back = transport_matrix(sphere.law, line, 0.35, -0.2).entries
    assert np.abs(back @ fwd - np.eye(2)).max() < 1e-9


def test_transport_components_matches_matrix_and_linearity(sphere):
    # the vector ODE and the matrix ODE are separate adaptive solves, so
    # they agree (and the vector map is linear) within solver tolerance
    line = worldline(sphere, 1)
    s, t = -0.1, 0.3
    mat = transport_matrix(sphere.law, line, s, t).entries
    u = np.array([0.7, -0.4])
    v = np.array([0.1, 1.2])
    for comps in (u, v, 2.5 * u - 1.25 * v):
        moved = transport_components(sphere.law, line, s, t, comps)
        assert np.abs(moved - mat @ comps).max() < 1e-9


def test_one_path_evaluation_per_rhs_parameter():
    # one RHS call reads the path point (in the law) and the tangent; the
    # path memo serves both from one jets call per parameter
    jets_calls, params = [], set()

    def jets(t):
        jets_calls.append(t)
        return np.array([0.8, t]), np.array([0.0, 1.0])

    parallel = law_from_connection(sphere_connection())

    def coeff_at(u, path):
        params.add(u)
        return parallel.coeff_at(u, path)

    path = PathCurve(jets, (0.0, 2.0 * math.pi))
    transport_matrix(TransportLaw(coeff_at), path, 0.0, 2.0 * math.pi)
    assert len(params) > 50
    assert len(jets_calls) <= len(params)


def test_step_budget_exhaustion(sphere):
    line = worldline(sphere, 1)
    tiny = OdeConfig(rel_tol=1e-13, abs_tol=1e-14, max_steps=1)
    with pytest.raises(TransportError):
        transport_matrix(sphere.law, line, line.domain[0], line.domain[1], tiny)


def test_non_finite_coefficients_error():
    law = TransportLaw(coeff_at=lambda s, path: np.full((2, 2, 2), np.nan))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError):
        transport_matrix(law, path, 0.0, 0.5)


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2), (2, 2, 3)])
def test_coefficients_must_be_a_cube_of_the_path_dimension(shape):
    # a cube of the wrong side used to reach the RHS einsum and fail there
    law = TransportLaw(coeff_at=lambda s, path: np.zeros(shape))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError, match=r"expected \(2, 2, 2\)"):
        transport_matrix(law, path, 0.0, 0.5)


def test_parallel_law_zero_connection():
    law = law_from_connection(zero_connection())
    path = line_path([0.0, 0.0], [1.0, 0.0])
    assert np.all(law.coefficients(0.3, path) == 0.0)


def test_parallel_law_coefficient_sign():
    # dH(t,s)/dt at t=s equals -Gamma_k xdot^k for the parallel law
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 0.5
    gamma[1, 0, 1] = -0.2
    conn = constant_connection(gamma)
    law = law_from_connection(conn)
    direction = np.array([0.6, 0.8])
    path = line_path([0.0, 0.0], direction)
    h = 1e-6
    plus = transport_matrix(law, path, 0.0, h).entries
    minus = transport_matrix(law, path, 0.0, -h).entries
    deriv = (plus - minus) / (2 * h)
    expected = -np.einsum("ijk,k->ij", gamma, direction)
    assert np.abs(deriv - expected).max() < 1e-9


def test_parallel_transport_preserves_sphere_metric(sphere):
    line = worldline(sphere, 1)
    s, t = -0.4, 0.5
    u = Tangent(line.map(s), [0.3, 1.1])
    v = Tangent(line.map(s), [-0.8, 0.2])
    before = metric_dot(sphere.metric, line.map(s), u, v)
    mat = transport_matrix(sphere.law, line, s, t).entries
    lu = Tangent(line.map(t), mat @ u.components)
    lv = Tangent(line.map(t), mat @ v.components)
    after = metric_dot(sphere.metric, line.map(t), lu, lv)
    assert abs(after - before) < 1e-9


def test_law_with_offset_reduces_to_parallel():
    conn = sphere_connection()
    law0 = law_from_connection(conn)
    law = law_with_offset(conn, lambda pt: np.zeros((2, 2, 2)))
    path = line_path([1.0, 0.3], [0.2, 1.0])
    assert np.array_equal(law.coefficients(0.1, path),
                          law0.coefficients(0.1, path))


def test_law_with_offset_matrix_exponential_oracle():
    # flat chart, constant sigma: the transport over a coordinate-line gap
    # equals expm(-(sigma contracted with the tangent) * gap)
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.4
    sigma[1, 0, 0] = -0.3
    law = law_with_offset(zero_connection(), lambda pt: sigma)
    direction = np.array([1.0, 0.8])
    path = line_path([0.0, 0.0], direction)
    gap = 0.7
    mat = transport_matrix(law, path, 0.0, gap)
    gen = -np.einsum("ijk,k->ij", sigma, direction)
    assert np.abs(mat.entries - expm(gen * gap)).max() < 1e-9


def test_s_tensor_parallel_law_vanishes(sphere):
    line = worldline(sphere, 1)
    s = s_tensor(sphere.law, sphere.conn, line, 0.2)
    assert np.all(s.entries == 0.0)


def test_s_tensor_offset_round_trip():
    conn = sphere_connection()
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.25
    law = law_with_offset(conn, lambda pt: sigma)
    path = line_path([1.1, 0.0], [0.0, 1.0])
    s = s_tensor(law, conn, path, 0.4)
    assert np.abs(s.entries - sigma).max() < 1e-12


def test_s_tensor_exp_law(exp_transport):
    # with a zero connection, S = -H
    line = worldline(exp_transport, 1)
    gen = exp_law_generator({"a00": 0.1, "a01": 0.4, "a10": -0.3, "a11": 0.2})
    s = s_tensor(exp_transport.law, exp_transport.conn, line, 0.1)
    expected = np.zeros((2, 2, 2))
    expected[:, :, 0] = -gen
    assert np.abs(s.entries - expected).max() < 1e-12


def test_extract_first_coeff_parallel_matches_gamma():
    conn = sphere_connection()
    law = law_from_connection(conn)
    pt = ChartPoint([1.2, 0.5])
    coeff = extract_first_coeff(law, pt, coordinate_probes(pt))
    assert np.abs(coeff + conn.coefficients(pt)).max() < 1e-6


def test_extract_first_coeff_offset():
    conn = sphere_connection()
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.3
    sigma[1, 0, 1] = -0.15
    law = law_with_offset(conn, lambda pt: sigma)
    pt = ChartPoint([1.0, -0.2])
    coeff = extract_first_coeff(law, pt, coordinate_probes(pt))
    assert np.abs(coeff + conn.coefficients(pt) + sigma).max() < 1e-6


def test_extract_first_coeff_exp_law(exp_transport):
    # oracle: the closed form H(t,s) = expm(A (x^0(t)-x^0(s))) differentiates
    # to H_k = A delta_{k0}
    pt = ChartPoint([0.15, 0.1])
    gen = exp_law_generator({"a00": 0.1, "a01": 0.4, "a10": -0.3, "a11": 0.2})
    coeff = extract_first_coeff(exp_transport.law, pt, coordinate_probes(pt))
    expected = np.zeros((2, 2, 2))
    expected[:, :, 0] = gen
    assert np.abs(coeff - expected).max() < 1e-6


def test_extract_first_coeff_rank_deficient(sphere):
    pt = ChartPoint([1.0, 0.0])
    probes = coordinate_probes(pt)
    with pytest.raises(EvaluationError):
        extract_first_coeff(sphere.law, pt, [probes[0], probes[0]])


def test_approx_transport_order_zero_is_identity(sphere):
    line = worldline(sphere, 1)
    mat = approx_transport(sphere.law, line, -0.2, 0.4, 0)
    assert np.array_equal(mat.entries, np.eye(2))


def test_approx_transport_first_order_constant_gamma():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 0.5
    conn = constant_connection(gamma)
    law = law_from_connection(conn)
    direction = np.array([1.0, 0.0])
    path = line_path([0.0, 0.0], direction)
    gap = 0.3
    mat = approx_transport(law, path, 0.0, gap, 1)
    expected = np.eye(2) - np.einsum("ijk,k->ij", gamma, direction) * gap
    assert np.abs(mat.entries - expected).max() < 1e-14


def test_approx_transport_error_halving(exp_transport):
    line = worldline(exp_transport, 1)
    s0 = 0.0
    for order, band in ((0, (1.8, 2.2)), (1, (3.5, 4.5))):
        errs = []
        for gap in (0.1, 0.05, 0.025):
            full = transport_matrix(exp_transport.law, line, s0, s0 + gap).entries
            approx = approx_transport(exp_transport.law, line, s0, s0 + gap,
                                      order).entries
            errs.append(np.abs(full - approx).max())
        for big, small in zip(errs, errs[1:]):
            assert band[0] <= big / small <= band[1]


def test_approx_transport_rejects_higher_orders(sphere):
    line = worldline(sphere, 1)
    with pytest.raises(ValueError):
        approx_transport(sphere.law, line, 0.0, 0.1, 2)


def test_determinant_liouville_bound(sphere):
    # det H(t,s) = exp(int tr M); |tr M| is bounded by the nuclear norm,
    # giving the sanity window [exp(-int ||M||), exp(+int ||M||)]
    line = worldline(sphere, 1)
    s, t = -0.4, 0.5
    mat = transport_matrix(sphere.law, line, s, t)
    det = np.linalg.det(mat.entries)
    us = np.linspace(s, t, 201)
    norms = []
    for u in us:
        coeff = sphere.law.coefficients(u, line)
        m = np.einsum("ijk,k->ij", coeff, line.tangent(u).components)
        norms.append(np.linalg.svd(m, compute_uv=False).sum())
    bound = np.trapezoid(norms, us)
    assert math.exp(-bound) <= det <= math.exp(bound)
