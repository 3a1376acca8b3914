"""Analytic-branch construction, eigenvalue search, and Green function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperwave as hw
from hyperwave import cli, spectral
from hyperwave.spectral import (
    _CONTOUR_GUARD,
    GreenFunction,
    _rect_path,
    _u1_zero_batch,
    build_u1,
    build_v1_volterra,
    find_sigma_v,
    graded_mesh,
    resolvent_apply,
    wronskian_pair,
)


def test_u1_free_closed_form():
    # V = 0: the branch analytic at y=1 is (1+y)^(-lam), value 2^(-lam) at 1
    V = hw.Potential.constant(0.0)
    for lam in (0.3 + 2.0j, -0.2 + 5.0j, 1.0 + 0.0j):
        sol = build_u1(V, lam)
        ys = np.linspace(0.0, 0.999, 25)
        want = (1.0 + ys) ** (-lam)
        assert np.max(np.abs(sol.u1(ys) - want)) < 1e-10
        dwant = -lam * (1.0 + ys) ** (-lam - 1.0)
        assert np.max(np.abs(sol.du1(ys) - dwant)) < 1e-8


def test_u1_constructed_eigenfunction():
    # V = -6, lam = 1: ODE solved by y; normalized branch is y/2
    V = hw.Potential.constant(-6.0)
    sol = build_u1(V, 1.0 + 0.0j)
    ys = np.linspace(0.0, 0.999, 40)
    assert np.max(np.abs(sol.u1(ys) - ys / 2.0)) < 1e-11


def test_u1_rejects_deep_left_halfplane():
    V = hw.Potential.constant(0.0)
    with pytest.raises(hw.InvalidArgumentError):
        build_u1(V, -0.6 + 1.0j)


def test_u1_resonance_guard():
    V = hw.Potential.constant(-1.0)
    with pytest.raises(hw.ResonanceError):
        build_u1(V, 0.0 + 0.0j)


@pytest.mark.parametrize("vval", [0.0, -1.0, -6.0])
def test_wronskian_identity_constant_potentials(vval):
    V = hw.Potential.constant(vval)
    rng = np.random.default_rng(hash(vval) % 2 ** 31)
    for _ in range(4):
        lam = complex(rng.uniform(-0.25, 0.25),
                      rng.choice([-1, 1]) * rng.uniform(1.0, 15.0))
        w = wronskian_pair(V, lam)
        assert abs(w - 2 * lam) < 1e-8 * max(1.0, abs(2 * lam))


def test_wronskian_identity_variable_potential():
    V = hw.Potential.from_callable(lambda y: y * y - 2.0, name="y2-2")
    for lam in (0.1 + 2.0j, -0.2 - 7.0j, 0.25 + 12.0j):
        w = wronskian_pair(V, lam)
        assert abs(w - 2 * lam) < 1e-8 * max(1.0, abs(2 * lam))


def test_volterra_route_matches_frobenius():
    V = hw.Potential.constant(-1.0)
    mesh = graded_mesh(4000)
    for lam in (0.2 + 3.0j, -0.1 + 8.0j):
        vol = build_v1_volterra(V, lam, mesh=mesh)
        fro = build_u1(V, lam)
        uv = vol.u1_values()
        uf = fro.u1(mesh)
        rel = np.max(np.abs(uv - uf)) / np.max(np.abs(uf))
        assert rel < 1e-6


def test_volterra_route_matches_frobenius_20_random_pairs():
    # the two independent constructions of the same branch agree to 1e-8
    # away from the endpoint once the mesh resolves the kernel
    pots = [hw.Potential.constant(0.0), hw.Potential.constant(-1.0),
            hw.Potential.constant(-6.0),
            hw.Potential.from_callable(lambda y: y * y - 2.0, name="y2-2")]
    rng = np.random.default_rng(312)
    mesh = graded_mesh(16000)
    cut = mesh <= 1.0 - 1e-3
    for k in range(20):
        V = pots[k % 4]
        lam = complex(rng.uniform(-0.25, 0.25),
                      float(rng.choice([-1, 1])) * rng.uniform(0.2, 8.0))
        vol = build_v1_volterra(V, lam, mesh=mesh)
        fro = build_u1(V, lam)
        uv = vol.u1_values()[cut]
        uf = fro.u1(mesh[cut])
        assert np.max(np.abs(uv - uf)) < 1e-8


def test_volterra_rejects_tiny_lambda():
    V = hw.Potential.constant(-1.0)
    with pytest.raises(hw.InvalidArgumentError):
        build_v1_volterra(V, 1e-9 + 0.0j)


def test_graded_mesh_shape():
    mesh = graded_mesh(400)
    assert mesh[0] == 0.0
    assert mesh[-1] == pytest.approx(1.0 - 1e-12)
    assert np.all(np.diff(mesh) > 0)


def test_sigma_v_empty_for_yangmills_potential():
    roots = find_sigma_v(hw.Potential.constant(-1.0))
    assert roots == []


def test_sigma_v_empty_for_free_potential():
    roots = find_sigma_v(hw.Potential.constant(0.0))
    assert roots == []


@pytest.mark.parametrize("lam0", [0.5, 1.0, 1.5])
def test_sigma_v_constructed_roots(lam0):
    # V = -(lam0+1)(lam0+2) puts exactly one unstable eigenvalue at lam0,
    # with eigenfunction y
    V = hw.Potential.constant(-(lam0 + 1.0) * (lam0 + 2.0))
    roots = find_sigma_v(V)
    assert len(roots) == 1
    assert abs(roots[0].lam - lam0) < 1e-8
    assert roots[0].residual < 1e-8
    phi = roots[0].eigenfunction
    y = phi.grid.nodes
    c = (phi.values @ y) / (y @ y)
    assert np.max(np.abs(phi.values - c * y)) < 1e-8 * max(1.0, abs(c))


def test_green_function_domain_guards():
    V = hw.Potential.constant(-1.0)
    with pytest.raises(hw.InvalidArgumentError):
        GreenFunction(V, -0.1 + 0.0j)
    with pytest.raises(hw.InvalidArgumentError):
        GreenFunction(V, 0.5 + 0.0j)  # beyond the eps0 = 0.25 strip


def test_green_function_near_eigenvalue_guard():
    lam0 = 0.1
    V = hw.Potential.constant(-(lam0 + 1.0) * (lam0 + 2.0))
    with pytest.raises(hw.NearEigenvalueError):
        GreenFunction(V, lam0 + 0.0j)


def test_resolvent_apply_matches_matrix_route():
    g = hw.make_grid(64)
    V = hw.Potential.constant(-1.0)
    gen = hw.assemble_generator(g, V)
    lam = 0.05 + 2.0j
    handle = hw.resolvent_matrix(gen, lam)
    rng = np.random.default_rng(9)
    for _ in range(3):
        c = np.zeros(8)
        c[1::2] = rng.standard_normal(4) / (1 + np.arange(4)) ** 2
        d = np.zeros(8)
        d[1::2] = rng.standard_normal(4) / (1 + np.arange(4)) ** 2
        cheb = np.polynomial.chebyshev
        st = hw.EnergyState.from_callables(
            g, lambda y: cheb.chebval(y, c), lambda y: cheb.chebval(y, d))
        w_mat = handle.apply(st)
        w_gr = resolvent_apply(V, lam, st)
        rel = (np.linalg.norm(w_gr.stacked() - w_mat.stacked())
               / np.linalg.norm(w_mat.stacked()))
        assert rel < 1e-6


def test_resolvent_apply_second_component_identity():
    # second component of the resolvent is lam*w - f1 by construction;
    # check it against the definition via the generator instead
    g = hw.make_grid(64)
    V = hw.Potential.constant(-1.0)
    gen = hw.assemble_generator(g, V)
    lam = 0.1 + 1.0j
    st = hw.EnergyState.from_callables(g, lambda y: y - y ** 3,
                                       lambda y: 0.5 * y)
    w = resolvent_apply(V, lam, st)
    # (lam - L) w = st  (checked in the interior via the matrix generator)
    back = gen.apply(w)
    resid = lam * w.stacked() - back.stacked() - st.stacked()
    assert np.max(np.abs(resid)) < 1e-5


def test_spectral_point_fields():
    V = hw.Potential.constant(-6.0)
    roots = find_sigma_v(V)
    assert len(roots) == 1
    r = roots[0]
    assert r.eigenfunction is not None
    assert np.isfinite(r.residual)


def _contour_potential(name):
    if name == "even_poly":  # the CLI's complex-safe Horner closure
        return cli._build_potential(
            {"kind": "even_poly", "coeffs": [0, -6, 2]}, "potential")
    return hw.Potential.constant(float(name))


def _u1_zero_adaptive(V, lam):
    return build_u1(V, lam, check_resonance=False).u1_at_zero


_CONTOUR_WINDOWS = [
    ("0", (3.0, 40.0)), ("-1", (3.0, 20.0)), ("-6", (2.0, 10.0)),
    ("-30", (3.0, 40.0)), ("-30", (1.0, 1.0)), ("even_poly", (3.0, 20.0))]


@pytest.mark.parametrize("vname,window", _CONTOUR_WINDOWS)
def test_contour_evaluation_matches_adaptive_solver(vname, window):
    # the fixed-mesh batch values on a search contour against the adaptive
    # scalar solver, at the corners and edge midpoints (largest |lam|)
    V = _contour_potential(vname)
    a, b = window
    path = _rect_path(-0.015, a, -b, b, 256)
    vals = _u1_zero_batch(V, path)
    med = np.median(np.abs(vals))
    picks = np.arange(0, len(path) - 1, 128)
    ref = np.array([_u1_zero_adaptive(V, lam) for lam in path[picks]])
    err = np.abs(vals[picks] - ref)
    assert np.max(np.abs(np.angle(vals[picks] / ref))) <= 1e-3
    assert 10.0 * np.max(err) / med <= _CONTOUR_GUARD


@pytest.mark.parametrize("pts", [256, 512])
@pytest.mark.parametrize("vname,window", _CONTOUR_WINDOWS)
def test_contour_half_path_is_the_coarse_evaluation(vname, window, pts):
    # the winding check counts at pts from the even-indexed samples of its
    # 2*pts evaluation: those must be the pts evaluation bit for bit
    V = _contour_potential(vname)
    a, b = window
    rect = (-0.015, a, -b, b)
    fine = _rect_path(*rect, 2 * pts)
    coarse = _rect_path(*rect, pts)
    assert np.array_equal(fine[::2], coarse)
    assert np.array_equal(_u1_zero_batch(V, fine)[::2],
                          _u1_zero_batch(V, coarse))


@pytest.mark.parametrize("vval,window", [
    (-6.0, (2.0, 10.0)), (-2.0, (1.0, 1.0)), (-1.0, (3.0, 20.0))])
def test_winding_check_evaluates_the_contour_once(vval, window, monkeypatch):
    # each of these windows is settled by one winding check, which must
    # evaluate u1(0, .) once, on the 2*256 points per edge path
    sizes = []
    batch = spectral._u1_zero_batch

    def counting(V, lams, m=spectral.DEFAULT_SERIES_ORDER):
        sizes.append(len(lams))
        return batch(V, lams, m=m)

    monkeypatch.setattr(spectral, "_u1_zero_batch", counting)
    find_sigma_v(hw.Potential.constant(vval), window=window)
    assert sizes == [8 * 256 + 1]


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-0.015, max_value=3.0),
       st.floats(min_value=-40.0, max_value=40.0),
       st.sampled_from(["0", "-1", "-6", "-30", "even_poly"]))
def test_contour_evaluation_accuracy_in_strip(re, im, vname):
    V = _contour_potential(vname)
    path = _rect_path(re, re + 0.5, im, im + 0.5, 4)  # starts at lam
    vals = _u1_zero_batch(V, path)
    err = abs(vals[0] - _u1_zero_adaptive(V, complex(re, im)))
    assert 10.0 * err / np.median(np.abs(vals)) <= _CONTOUR_GUARD


def _generator_roots(V, window, n):
    a, b = window
    eigs = hw.assemble_generator(hw.make_grid(n), V).reduced_eigenvalues()
    return sorted((e for e in eigs
                   if -1e-6 <= e.real <= a + 0.1 and abs(e.imag) <= b),
                  key=lambda z: z.real)


@pytest.mark.parametrize("vval,window,want", [
    # the axis root 0 sits in a winding-1 cell whose centre polishes to 2
    (-12.0, (3.0, 20.0), [0.0, 2.0]),
    (-30.0, (3.0, 40.0), [0.0, 2.0]),
    # one window of winding 2: reached only by subdivision
    (-20.0, (3.0, 20.0), [1.0, 3.0])])
def test_sigma_v_finds_every_generator_root(vval, window, want):
    V = hw.Potential.constant(vval)
    got = sorted((r.lam for r in find_sigma_v(V, window=window)),
                 key=lambda z: z.real)
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8
    for n in (64, 128):
        eigs = _generator_roots(V, window, n)
        assert len(eigs) == len(want)
        assert max(abs(g - e) for g, e in zip(got, eigs)) < 1e-8


def test_sigma_v_depth_exhausted_raises():
    # the whole window has winding 2, so it must be split at least once
    with pytest.raises(hw.ContourAccuracyError):
        find_sigma_v(hw.Potential.constant(-20.0), window=(3.0, 20.0),
                     max_depth=0)


def test_green_function_reused_across_states_and_grids():
    V = hw.Potential.constant(-1.0)
    lam = 0.05 + 2.0j
    green = GreenFunction(V, lam)
    for n in (32, 64, 32):
        g = hw.make_grid(n)
        state = hw.EnergyState.from_callables(g, lambda y: y - y ** 3,
                                              lambda y: 0.5 * y ** 3)
        fresh = resolvent_apply(V, lam, state)
        np.testing.assert_array_equal(green.apply(state).stacked(),
                                      fresh.stacked())
    # complex data: the resolvent is complex-linear
    other = hw.EnergyState.from_callables(g, lambda y: y ** 5,
                                          lambda y: -y)
    both = hw.EnergyState(state.u + 1j * other.u, state.v + 1j * other.v)
    want = green.apply(state).stacked() + 1j * green.apply(other).stacked()
    got = green.apply(both).stacked()
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
