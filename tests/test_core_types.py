"""Grid construction, field algebra, and norm plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperwave as hw
from hyperwave.coords import logcosh
from hyperwave.core_types import _barycentric_matrix, extrapolate_to, \
    positive_half


def test_make_grid_basic():
    g = hw.make_grid(16)
    assert g.n == 16
    assert np.all(np.diff(g.nodes) > 0)
    assert np.allclose(g.nodes, -g.nodes[::-1])
    assert np.all(np.abs(g.nodes) < 1.0)


@pytest.mark.parametrize("n", [7, 6, 0, -4])
def test_make_grid_rejects_bad_sizes(n):
    with pytest.raises(hw.InvalidArgumentError):
        hw.make_grid(n)


def test_diff_matrix_exact_on_polynomials():
    g = hw.make_grid(24)
    y = g.nodes
    for k in range(1, 8):
        d = g.diff_matrix @ (y ** k)
        assert np.max(np.abs(d - k * y ** (k - 1))) < 1e-9


def test_quadrature_weights_integrate_polynomials():
    g = hw.make_grid(32)
    y = g.nodes
    assert abs(g.quad_weights @ np.ones_like(y) - 2.0) < 1e-12
    assert abs(g.quad_weights @ y ** 2 - 2.0 / 3.0) < 1e-12
    assert abs(g.quad_weights @ y ** 6 - 2.0 / 7.0) < 1e-12
    # odd integrands vanish by symmetry
    assert abs(g.quad_weights @ y ** 3) < 1e-14


def test_barycentric_interpolation_polynomial_exact():
    g = hw.make_grid(16)
    vals = g.nodes ** 5 - 3 * g.nodes
    xs = np.linspace(-0.95, 0.95, 17)
    got = hw.barycentric_interpolate(g, vals, xs)
    assert np.max(np.abs(got - (xs ** 5 - 3 * xs))) < 1e-12
    # exact at the nodes themselves
    at_node = hw.barycentric_interpolate(g, vals, g.nodes[3])
    assert at_node == pytest.approx(vals[3], abs=1e-14)


def test_barycentric_interpolation_columns_in_one_pass():
    g = hw.make_grid(16)
    cols = np.stack([g.nodes ** 5, 1j * g.nodes, np.cos(g.nodes)], axis=1)
    xs = np.concatenate([np.linspace(-0.95, 0.95, 17), g.nodes[2:4]])
    got = hw.barycentric_interpolate(g, cols, xs)
    assert got.shape == (len(xs), 3)
    for k in range(3):
        want = hw.barycentric_interpolate(g, cols[:, k], xs)
        assert np.max(np.abs(got[:, k] - want)) <= 1e-14
    at_x = hw.barycentric_interpolate(g, cols, 0.3)
    want = [hw.barycentric_interpolate(g, cols[:, k], 0.3) for k in range(3)]
    assert at_x.shape == (3,)
    assert np.max(np.abs(at_x - want)) <= 1e-14


@pytest.mark.parametrize("n", [16, 64, 128])
def test_barycentric_matrix_rows_interpolate(n):
    g = hw.make_grid(n)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n)
    # random points and the Cauchy cross-check's seeding points: the
    # level line t = 4 at dr = 1/32, where s = 4 - log cosh r >= 0
    r = -20.0 + np.arange(1281) / 32.0
    level = np.tanh(r[4.0 - logcosh(r) >= 0.0])
    xs = np.concatenate([rng.uniform(-0.999, 0.999, 200), level])
    got = _barycentric_matrix(g, xs) @ vals
    per_point = [hw.barycentric_interpolate(g, vals, x) for x in xs]
    assert np.max(np.abs(got - per_point)) <= 1e-14
    # the barycentric formula of the second kind, point by point
    second_kind = [(w @ vals) / w.sum()
                   for w in (g.bary_weights / (x - g.nodes) for x in xs)]
    assert np.max(np.abs(got - second_kind)) <= 1e-14


def test_barycentric_matrix_node_rows_are_one_hot():
    # no division by the zero difference: a RuntimeWarning fails the run
    g = hw.make_grid(16)
    xs = [g.nodes[3], g.nodes[10] + 5e-15, 0.3]
    W = _barycentric_matrix(g, xs)
    assert np.array_equal(W[0], np.eye(16)[3])
    assert np.array_equal(W[1], np.eye(16)[10])
    assert np.all(W[2] != 0.0)
    assert abs(W[2].sum() - 1.0) <= 1e-14


def test_parity_defect_detects_even_part():
    g = hw.make_grid(16)
    assert hw.parity_defect(g.nodes ** 3) < 1e-15
    assert hw.parity_defect(g.nodes ** 2) > 0.1


def test_odd_field_rejects_even_data():
    g = hw.make_grid(16)
    with pytest.raises(hw.InvalidDataError):
        hw.OddField(g, g.nodes ** 2)
    # the wormhole vacua W = +-1 are even constants: not representable
    with pytest.raises(hw.InvalidDataError):
        hw.OddField(g, np.ones(g.n))


def test_odd_field_rejects_nonfinite():
    g = hw.make_grid(16)
    bad = g.nodes.copy()
    bad[0] = np.nan
    with pytest.raises(hw.InvalidDataError):
        hw.OddField(g, bad)


def test_odd_field_arithmetic():
    g = hw.make_grid(16)
    a = hw.OddField(g, g.nodes)
    b = hw.OddField(g, g.nodes ** 3)
    s = a + b
    assert np.allclose(s.values, g.nodes + g.nodes ** 3)
    d = a - b
    assert np.allclose(d.values, g.nodes - g.nodes ** 3)
    m = 2.5 * a
    assert np.allclose(m.values, 2.5 * g.nodes)


def test_odd_field_preserves_real_dtype():
    g = hw.make_grid(16)
    f = hw.OddField(g, g.nodes)
    assert f.values.dtype == np.float64
    fc = hw.OddField(g, (1 + 1j) * g.nodes)
    assert np.issubdtype(fc.values.dtype, np.complexfloating)


def test_energy_state_grid_mismatch():
    a = hw.make_grid(16)
    b = hw.make_grid(32)
    with pytest.raises(hw.InvalidDataError):
        hw.EnergyState(hw.OddField.zero(a), hw.OddField.zero(b))


def test_energy_norm_oracles():
    # (y, 0): integral (1-y^2)*1 = 4/3; (0, y): integral y^2 = 2/3
    g = hw.make_grid(32)
    st_f = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    assert hw.energy_norm(st_f) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)
    st_g = hw.EnergyState.from_callables(g, lambda y: 0 * y, lambda y: y)
    assert hw.energy_norm(st_g) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
    st_fg = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    assert hw.energy_norm(st_fg) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_lq_norm_oracles():
    g = hw.make_grid(64)
    f = hw.OddField(g, g.nodes)
    assert hw.lq_norm(f, 2) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
    assert hw.lq_norm(f, 6) == pytest.approx((2.0 / 7.0) ** (1.0 / 6.0),
                                             rel=1e-12)
    assert hw.lq_norm(f, np.inf) == pytest.approx(np.max(np.abs(g.nodes)))
    with pytest.raises(hw.InvalidArgumentError):
        hw.lq_norm(f, 0.5)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0,
                 allow_nan=False, allow_infinity=False),
       st.sampled_from([1.0, 2.0, 3.0, 6.0, np.inf]))
def test_lq_norm_homogeneous(c, q):
    g = hw.make_grid(16)
    f = hw.OddField(g, g.nodes ** 3)
    assert hw.lq_norm(c * f, q) == pytest.approx(abs(c) * hw.lq_norm(f, q),
                                                 rel=1e-10, abs=1e-12)


def _const_in_s_trajectory(g, n_slices=11, s_max=1.0):
    U = np.tile(positive_half(g.nodes), (n_slices, 1))
    return hw.Trajectory.from_halves(g, np.linspace(0, s_max, n_slices), U,
                                     np.zeros_like(U))


def test_mixed_norm_constant_in_time():
    g = hw.make_grid(32)
    traj = _const_in_s_trajectory(g, s_max=2.0)
    l6 = hw.lq_norm(hw.OddField(g, g.nodes), 6)
    # L^p in s of a constant over [0, 2] is 2^(1/p) * value
    assert hw.mixed_norm(traj, 2, 6) == pytest.approx(np.sqrt(2.0) * l6,
                                                      rel=1e-12)
    assert hw.mixed_norm(traj, np.inf, 6) == pytest.approx(l6, rel=1e-12)
    with pytest.raises(hw.InvalidArgumentError):
        hw.mixed_norm(traj, 1.5, 6)


def test_trajectory_guards_and_restriction():
    g = hw.make_grid(16)
    U = np.tile(positive_half(g.nodes), (2, 1))
    with pytest.raises(hw.InvalidDataError):
        hw.Trajectory.from_halves(g, np.array([0.0, 0.0]), U,
                                  np.zeros_like(U))


def test_potential_evenness_guard():
    with pytest.raises(hw.InvalidDataError):
        hw.Potential.from_callable(lambda y: y)
    V = hw.Potential.from_callable(lambda y: y * y - 2.0, name="y2-2")
    assert V.max_abs() == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("fn", [
    lambda y: -1.0,
    lambda y: np.stack([y ** 2, y ** 2]),
    lambda y: np.sum(y ** 2)])
def test_potential_rejects_output_of_another_shape(fn):
    # one value per input point is required; a scalar would otherwise
    # only fail later, inside the Taylor fit at y = 1
    with pytest.raises(hw.InvalidDataError):
        hw.Potential.from_callable(fn)


def test_potential_taylor_at_one():
    # V = y^2 - 2 about y=1: -1 + 2(y-1) + (y-1)^2
    V = hw.Potential.from_callable(lambda y: y * y - 2.0)
    c = V.taylor_at_one(4)
    assert np.allclose(c[:3], [-1.0, 2.0, 1.0], atol=1e-9)
    assert np.max(np.abs(c[3:])) < 1e-9
    Vc = hw.Potential.constant(-6.0)
    cc = Vc.taylor_at_one(3)
    assert np.allclose(cc, [-6.0, 0.0, 0.0], atol=1e-12)


def _horner_closure(coeffs):
    # the complex-safe callable the CLI built for even_poly before the
    # polynomial kind existed: the reference for bit-identical values
    def V(y):
        y2 = np.asarray(y) ** 2
        out = np.zeros_like(y2)
        for c in reversed(coeffs):
            out = out * y2 + c
        return out
    return V


@pytest.mark.parametrize("coeffs", [[-6.0], [0.0, -6.0, 2.0], [-1.0, 0.5],
                                    [0.3, -2.5, 1.25, -0.75]])
def test_even_poly_values_are_the_horner_closure(coeffs):
    V = hw.Potential.even_poly(coeffs)
    ref = hw.Potential.from_callable(_horner_closure(coeffs))
    y = np.linspace(-1.0, 1.0, 1001)
    assert np.array_equal(V(y), ref(y))
    # the scalar route of the adaptive solver gives the same floats
    assert all(V.at(v) == float(ref(v)) for v in y[::50])
    assert V.name == "even_poly(" + ",".join(f"{c:g}" for c in coeffs) + ")"
    # the Taylor data at y = 1 come from the coefficients, and agree with
    # the numerical (Cauchy integral) route of a callable to its accuracy
    m = 2 * len(coeffs) + 2
    assert np.allclose(V.taylor_at_one(m), ref.taylor_at_one(m),
                       rtol=0.0, atol=1e-9)
    assert np.all(V.taylor_at_one(m)[2 * len(coeffs) - 1:] == 0.0)


def test_even_poly_taylor_at_one_is_exact():
    # -6 y^2 + 2 y^4 = -4 - 4(y-1) + 6(y-1)^2 + 8(y-1)^3 + 2(y-1)^4
    V = hw.Potential.even_poly([0, -6, 2])
    assert np.array_equal(V.taylor_at_one(7), [-4, -4, 6, 8, 2, 0, 0])
    assert np.array_equal(V.taylor_at_one(2), [-4, -4])


def test_constant_is_the_degree_zero_even_poly():
    V = hw.Potential.constant(-6.0)
    assert V.even_coeffs == (-6.0,) and V.name == "constant(-6)"
    y = np.linspace(-1.0, 1.0, 11)
    assert np.array_equal(V(y), -6.0 * np.ones_like(y))
    assert V.at(0.3) == -6.0
    assert np.array_equal(V.taylor_at_one(3), [-6.0, 0.0, 0.0])
    assert hw.Potential.from_callable(lambda y: -y * y).even_coeffs is None


@pytest.mark.parametrize("coeffs", [[], [float("nan")], [1.0, float("inf")]])
def test_even_poly_rejects_empty_or_non_finite_coefficients(coeffs):
    with pytest.raises(hw.InvalidArgumentError):
        hw.Potential.even_poly(coeffs)


def test_extrapolate_to_boundary():
    g = hw.make_grid(32)
    vals = g.nodes ** 3
    assert extrapolate_to(vals, g, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert extrapolate_to(vals, g, -1.0) == pytest.approx(-1.0, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False,
                          width=32), min_size=1, max_size=6))
def test_odd_projection_is_odd(coeffs):
    g = hw.make_grid(16)
    vals = np.zeros(g.n)
    for k, c in enumerate(coeffs):
        vals += c * g.nodes ** (2 * k + 1)
    f = hw.OddField(g, vals)
    assert hw.parity_defect(f.values) < 1e-12 * max(1.0,
                                                    np.max(np.abs(f.values)))
