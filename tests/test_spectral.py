"""Analytic-branch construction, eigenvalue search, and Green function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma, psi

import hyperwave as hw
from hyperwave import cli, spectral
from hyperwave.core_types import odd_extension
from hyperwave.spectral import (
    _CONTOUR_GUARD,
    GreenFunction,
    _rect_path,
    _u1_zero_batch,
    _u1_zero_path,
    build_u1,
    build_v1_volterra,
    find_sigma_v,
    resolvent_apply,
    wronskian_pair,
)


def test_u1_free_closed_form():
    # V = 0: the branch analytic at y=1 is (1+y)^(-lam), value 2^(-lam) at 1
    V = hw.Potential.constant(0.0)
    for lam in (0.3 + 2.0j, -0.2 + 5.0j, 1.0 + 0.0j):
        sol = build_u1(V, lam)
        # the last three lie within _SEED_OFFSET of 1, on the series branch
        ys = np.append(np.linspace(0.0, 0.999, 25), [1 - 5e-7, 1 - 1e-9, 1])
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
    # the strip edge Re lam = -1/4, |Im lam| up to 40, a tiny lam, a large
    # real lam (q^lam leaves the float range at Re lam ~ 20 unless the
    # panel sums are scaled), the CLI's deepest polynomial potentials, and
    # deep wells where |V| / |lam| reaches 1e4, over the whole point range
    V1 = hw.Potential.constant(-1.0)
    V1000 = hw.Potential.constant(-1000.0)
    cases = [(V1, 0.2 + 3.0j), (V1, -0.1 + 8.0j),
             (V1, -0.25 + 3.0j), (V1, -0.25 + 0.5j),
             (V1, 0.1 + 20.0j), (V1, 0.25 + 40.0j), (V1, 25.0),
             (hw.Potential.constant(-6.0), 0.002 + 0.001j),
             (hw.Potential.even_poly([-7.0, 2.0]), 0.1 + 3.0j),
             (hw.Potential.constant(-30.0), 0.2 + 3.0j),
             (hw.Potential.constant(-100.0), 0.2 + 1.0j),
             (hw.Potential.constant(-300.0), 3.0),
             (V1000, 0.2 + 1.0j), (V1000, 0.2 + 10.0j),
             (hw.Potential.constant(-1e4), 0.2 + 1.0j)]
    for V, lam in cases:
        vol = build_v1_volterra(V, lam)
        fro = build_u1(V, lam)
        uv = vol.u1_values()
        uf = fro.u1(vol.mesh)
        rel = np.max(np.abs(uv - uf)) / np.max(np.abs(uf))
        assert rel < 1e-6


def test_volterra_route_matches_frobenius_20_random_pairs():
    # the two independent constructions of the same branch agree to 1e-8
    # away from the endpoint
    pots = [hw.Potential.constant(0.0), hw.Potential.constant(-1.0),
            hw.Potential.constant(-6.0),
            hw.Potential.from_callable(lambda y: y * y - 2.0, name="y2-2")]
    rng = np.random.default_rng(312)
    for k in range(20):
        V = pots[k % 4]
        lam = complex(rng.uniform(-0.25, 0.25),
                      float(rng.choice([-1, 1])) * rng.uniform(0.2, 8.0))
        vol = build_v1_volterra(V, lam)
        fro = build_u1(V, lam)
        cut = vol.mesh <= 1.0 - 1e-3
        uv = vol.u1_values()[cut]
        uf = fro.u1(vol.mesh[cut])
        assert np.max(np.abs(uv - uf)) < 1e-8


@pytest.mark.parametrize("lam", [1e-9 + 0.0j, -0.3 + 1.0j],
                         ids=["tiny", "left_of_strip"])
def test_volterra_rejects_tiny_lambda(lam):
    # |lam| < 1e-3, and Re lam < -1/4 outside the validity strip
    V = hw.Potential.constant(-1.0)
    with pytest.raises(hw.InvalidArgumentError):
        build_v1_volterra(V, lam)


def test_wronskian_pair_refuses_lambda_zero():
    with pytest.raises(hw.InvalidArgumentError, match="nonzero"):
        wronskian_pair(hw.Potential.constant(-1.0), 0)


@pytest.mark.parametrize("route", [build_v1_volterra, build_u1,
                                   wronskian_pair],
                         ids=["volterra", "frobenius", "wronskian"])
@pytest.mark.parametrize("lam", [
    complex("nan"), complex("inf"), complex(0.1, np.inf),
    complex(0.1, np.nan)], ids=["nan", "inf", "inf_imag", "nan_imag"])
def test_branch_routes_refuse_non_finite_lambda(route, lam):
    # an argument error before any arithmetic, as on the resolvent routes
    with pytest.raises(hw.InvalidArgumentError):
        route(hw.Potential.constant(-1.0), lam)


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
    v = odd_extension(phi.half)
    c = (v @ y) / (y @ y)
    assert np.max(np.abs(v - c * y)) < 1e-8 * max(1.0, abs(c))


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
        x = gen.reduce_state(st)
        w_mat = handle.solve(x)
        w_gr = resolvent_apply(V, lam, g, x)
        rel = np.linalg.norm(w_gr - w_mat) / np.linalg.norm(w_mat)
        assert rel < 1e-6


@pytest.mark.parametrize("route", ["matrix", "green"])
@pytest.mark.parametrize("lam, n_block", [
    (complex("nan"), 16), (complex("inf"), 16), (complex(0.05, np.inf), 16),
    (0.05 + 2.0j, 32)])
def test_resolvent_routes_refuse_bad_lambda_and_block(route, lam, n_block):
    # a non-finite lambda, or a block of 32-node states given to a
    # 16-node route, is an argument error before any arithmetic
    g = hw.make_grid(16)
    V = hw.Potential.constant(-1.0)
    X = np.ones((n_block, 3))
    with pytest.raises(hw.InvalidArgumentError):
        if route == "matrix":
            hw.resolvent_matrix(hw.assemble_generator(g, V), lam).solve(X)
        else:
            GreenFunction(V, lam).apply(g, X)


def test_resolvent_apply_second_component_identity():
    # second component of the resolvent is lam*w - f1 by construction;
    # check it against the definition via the generator instead
    g = hw.make_grid(64)
    V = hw.Potential.constant(-1.0)
    gen = hw.assemble_generator(g, V)
    lam = 0.1 + 1.0j
    st = hw.EnergyState.from_callables(g, lambda y: y - y ** 3,
                                       lambda y: 0.5 * y)
    x = gen.reduce_state(st)
    w = resolvent_apply(V, lam, g, x)
    # (lam - L) w = st  (checked in the interior via the matrix generator)
    resid = lam * w - gen.reduced @ w - x
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
            {"kind": "even_poly", "coeffs": [0, -6, 2]})
    if name == "cos":  # not a polynomial, and real input only
        return hw.Potential.from_callable(
            lambda y: -4.0 * np.cos(np.real(y)), name="-4cos")
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
    # evaluate u1(0, .) once, on the Im >= 0 half of the 2*256 points per
    # edge path (the other half is its conjugate)
    sizes = []
    batch = spectral._u1_zero_batch

    def counting(V, lams):
        sizes.append(len(lams))
        return batch(V, lams)

    monkeypatch.setattr(spectral, "_u1_zero_batch", counting)
    find_sigma_v(hw.Potential.constant(vval), window=window)
    assert sizes == [4 * 256 + 1]


@pytest.mark.parametrize("rect,pts", [
    ((-0.015, 3.0, -20.0, 20.0), 512), ((0.3, 0.7, -1.1, 1.1), 7)])
def test_symmetric_path_mirrors_its_upper_half(rect, pts):
    # every node below the real axis is the exact conjugate of a node
    # above it, so the Im >= 0 nodes are all that must be evaluated
    path = _rect_path(*rect, pts)
    upper = path[path.imag >= 0]
    assert np.all(np.isin(path[path.imag < 0].conj(), upper))
    assert len(np.unique(upper)) == 2 * pts + (pts % 2 == 0)


@pytest.mark.parametrize("vname,window",
                         _CONTOUR_WINDOWS + [("cos", (3.0, 20.0))])
def test_mirrored_contour_values_are_the_batch_values(vname, window):
    # the Im >= 0 evaluation, mirrored, is the whole path's evaluation
    V = _contour_potential(vname)
    a, b = window
    path = _rect_path(-0.015, a, -b, b, 512)
    assert np.array_equal(_u1_zero_path(V, path), _u1_zero_batch(V, path))


def test_jittered_symmetric_cell_stays_symmetric(monkeypatch):
    # an unreliable first count jitters the cell outward; both Im sides
    # move alike, so the jittered path still mirrors bit for bit
    calls = []
    winding = spectral._winding

    def flaky(path, vals):
        calls.append(len(path))
        return None if len(calls) == 1 else winding(path, vals)

    monkeypatch.setattr(spectral, "_winding", flaky)
    V = hw.Potential.constant(-6.0)
    w, _, rect = spectral._stable_winding(V, (-0.015, 2.0, -10.0, 10.0), 256)
    re_lo, re_hi, im_lo, im_hi = rect
    assert w == 1 and im_hi > 10.0 and im_lo == -im_hi
    path = _rect_path(*rect, 512)
    assert np.array_equal(_u1_zero_path(V, path), _u1_zero_batch(V, path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 1.0)])
def test_winding_counts_non_finite_samples_as_unreliable(bad):
    # u1(0, .) overflows for a large potential; a NaN or infinite sample
    # is a failed evaluation, not a winding
    path = _rect_path(0.1, 1.0, -1.0, 1.0, 8)
    vals = path - 0.5
    assert spectral._winding(path, vals)[0] == 1
    vals[3] = bad
    assert spectral._winding(path, vals) is None


@pytest.mark.parametrize("phases", [
    # one step of 3 rad (the steps still sum to one whole turn)
    [0.0, 3.0, 6.0, 2.0 * np.pi],
    # small steps summing to half a turn
    np.linspace(0.0, np.pi, 20),
])
def test_winding_refuses_a_large_phase_step_or_a_fractional_total(phases):
    path = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, len(phases)))
    assert spectral._winding(path, np.exp(1j * np.asarray(phases))) is None


def test_non_finite_contour_ends_in_a_contour_accuracy_error(monkeypatch):
    monkeypatch.setattr(spectral, "_u1_zero_path",
                        lambda V, path: np.full(path.shape, np.nan + 0j))
    with pytest.raises(hw.ContourAccuracyError):
        spectral._stable_winding(hw.Potential.constant(1e6),
                                 (-0.015, 1.0, -2.0, 2.0), 16)


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


@pytest.mark.parametrize("vval,window,most", [
    (-12.0, (3.0, 20.0), 3), (-30.0, (3.0, 40.0), 3),
    (-20.0, (3.0, 20.0), 5)])
def test_winding_two_windows_are_split_off_the_axis(vval, window, most,
                                                     monkeypatch):
    # a symmetric window is split at its Re midpoint, away from the real
    # roots: one check for the window, one per half (V = -20 has its root
    # 3 on the window's right edge, which costs up to two jitters)
    calls = []
    batch = spectral._u1_zero_batch

    def counting(V, lams):
        calls.append(len(lams))
        return batch(V, lams)

    monkeypatch.setattr(spectral, "_u1_zero_batch", counting)
    assert len(find_sigma_v(hw.Potential.constant(vval), window=window)) == 2
    assert len(calls) <= most


def test_sigma_v_conjugate_pair_from_the_upper_half(monkeypatch):
    # a real-coefficient stand-in for u1(0, .) with zeros 0.5 and 1 +- 2i:
    # the pair shares its real part, so Re splits leave a cell narrower
    # than 0.2 with winding 2, which is cut at Im = 0; only its upper half
    # is searched and the zero found there is conjugated (a short window
    # keeps the cubic's range on narrow cells above the near-zero guard)
    def p(lam):
        lam = np.asarray(lam, dtype=complex)
        return (lam - 0.5) * ((lam - 1.0) ** 2 + 4.0)

    def dp(lam):
        return (lam - 1.0) ** 2 + 4.0 + 2.0 * (lam - 0.5) * (lam - 1.0)

    cells = []

    def batch(V, lams):
        cells.append((np.ptp(lams.real), np.min(lams.imag)))
        return p(lams)

    monkeypatch.setattr(spectral, "_u1_zero_batch", batch)
    monkeypatch.setattr(spectral, "_u1_zero_slope",
                        lambda V, lam: (complex(p(lam)), dp(lam)))
    roots = find_sigma_v(hw.Potential.constant(-1.0), window=(3.0, 3.0))
    got = sorted((r.lam for r in roots), key=lambda z: (z.real, z.imag))
    want = [0.5, 1.0 - 2.0j, 1.0 + 2.0j]
    assert len(got) == 3
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    assert any(width < 0.2 and im_min >= 0.0 for width, im_min in cells)


def test_sigma_v_splits_a_narrow_upper_cell_in_im(monkeypatch):
    # stand-in zeros 0.5, 1 +- 1i and 1 +- 2i: the narrow cell cut at
    # Im = 0 keeps the winding 2 of 1 + 1i and 1 + 2i, and since it is
    # taller than wide it is split at its Im midpoint
    zeros = [0.5, 1.0 - 2.0j, 1.0 - 1.0j, 1.0 + 1.0j, 1.0 + 2.0j]
    coeffs = np.poly(zeros).real
    dcoeffs = np.polyder(coeffs)
    cells = []

    def batch(V, lams):
        cells.append(np.min(lams.imag))
        return np.polyval(coeffs, lams)

    monkeypatch.setattr(spectral, "_u1_zero_batch", batch)
    monkeypatch.setattr(spectral, "_u1_zero_slope", lambda V, lam: (
        complex(np.polyval(coeffs, lam)), complex(np.polyval(dcoeffs, lam))))
    roots = find_sigma_v(hw.Potential.constant(-1.0), window=(3.0, 3.0))
    assert len(roots) == len(zeros)
    assert max(min(abs(r.lam - w) for r in roots) for w in zeros) <= 1e-12
    # only an Im split yields a cell whose lowest Im lies above 0.5
    assert any(im_min > 0.5 for im_min in cells)


@pytest.mark.parametrize("kwargs", [
    {"window": (float("inf"), 1.0)}, {"window": (1.0, float("inf"))},
    {"points_per_edge": 0}, {"points_per_edge": -3}])
def test_sigma_v_rejects_bad_search_arguments(kwargs):
    with pytest.raises(hw.InvalidArgumentError):
        find_sigma_v(hw.Potential.constant(-6.0), **kwargs)


@pytest.mark.parametrize("lam0,rect,slope,evaluations", [
    # left of the validity strip: refused before any evaluation
    (-0.3 + 1.0j, (-0.4, 0.0, 0.5, 1.5), None, 0),
    # the zero of lam - 2 lies outside the small cell and its margin
    (1.0 + 0.0j, (0.95, 1.05, -0.05, 0.05), lambda lam: (lam - 2.0, 1.0), 1),
    # a zero slope
    (1.0 + 0.0j, (0.9, 1.1, -0.1, 0.1), lambda lam: (1.0, 0.0), 1),
    # x^3 - 2x + 2 in x = lam - 1: Newton's exact two-cycle 1 -> 2 -> 1
    # stays in the cell until the iterations run out
    (1.0 + 0.0j, (0.5, 2.5, -0.5, 0.5),
     lambda lam: ((lam - 1) ** 3 - 2 * (lam - 1) + 2, 3 * (lam - 1) ** 2 - 2),
     60)])
def test_newton_polish_gives_up(monkeypatch, lam0, rect, slope, evaluations):
    # each way Newton can fail returns None, so that the caller subdivides
    calls = []
    monkeypatch.setattr(spectral, "_u1_zero_slope",
                        lambda V, lam: calls.append(lam) or slope(lam))
    V = hw.Potential.constant(-1.0)
    assert spectral._newton_polish(V, lam0, rect) is None
    assert len(calls) == evaluations


def test_sigma_v_subdivides_when_a_polish_fails(monkeypatch):
    # the polish of the whole window fails once: the search splits the
    # window and polishes the root of V = -6, lam = 1, in a half instead
    V = hw.Potential.constant(-6.0)
    want = find_sigma_v(V, window=(2.0, 10.0))
    polish = spectral._newton_polish
    cells = []

    def flaky(V, lam0, rect):
        cells.append(rect)
        return None if len(cells) == 1 else polish(V, lam0, rect)

    monkeypatch.setattr(spectral, "_newton_polish", flaky)
    got = find_sigma_v(V, window=(2.0, 10.0))
    assert len(cells) == 2 and cells[1][0] > cells[0][0]
    assert len(got) == len(want) == 1
    assert abs(got[0].lam - want[0].lam) <= 1e-13
    assert abs(got[0].lam - 1.0) <= 1e-12


def test_sigma_v_refuses_a_small_cell_it_cannot_polish(monkeypatch):
    # a polish that always fails: the cells around lam = 1 shrink until
    # one is small (< 0.2 on both sides), which is refused, not split
    monkeypatch.setattr(spectral, "_newton_polish",
                        lambda V, lam0, rect: None)
    with pytest.raises(hw.ContourAccuracyError, match="failed to polish"):
        find_sigma_v(hw.Potential.constant(-6.0), window=(2.0, 10.0))


def test_sigma_v_depth_exhausted_raises(monkeypatch):
    # the whole window has winding 2, so it must be split at least once
    monkeypatch.setattr(spectral, "_MAX_DEPTH", 0)
    with pytest.raises(hw.ContourAccuracyError):
        find_sigma_v(hw.Potential.constant(-20.0), window=(3.0, 20.0))


@pytest.mark.parametrize("window", [(2.0, -10.0), (-1.0, 10.0), (0.0, 1.0),
                                    (1.0, 0.0), (float("nan"), 1.0)])
def test_sigma_v_rejects_non_positive_window(window):
    with pytest.raises(hw.InvalidArgumentError, match="half-widths"):
        find_sigma_v(hw.Potential.constant(-6.0), window=window)


def test_green_function_reused_across_states_and_grids():
    V = hw.Potential.constant(-1.0)
    lam = 0.05 + 2.0j
    green = GreenFunction(V, lam)
    for n in (32, 64, 32):
        g = hw.make_grid(n)
        gen = hw.assemble_generator(g, V)
        x = gen.reduce_state(hw.EnergyState.from_callables(
            g, lambda y: y - y ** 3, lambda y: 0.5 * y ** 3))
        fresh = resolvent_apply(V, lam, g, x)
        np.testing.assert_array_equal(green.apply(g, x), fresh)
    # complex data: the resolvent is complex-linear
    other = gen.reduce_state(hw.EnergyState.from_callables(
        g, lambda y: y ** 5, lambda y: -y))
    want = green.apply(g, x) + 1j * green.apply(g, other)
    got = green.apply(g, x + 1j * other)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # an (n, 3) block, one state per column: each column of its image, on
    # both routes, is the image of that column alone
    X = np.stack([x, other, x - 2j * other], axis=1)
    handle = hw.resolvent_matrix(gen, lam)
    for route in (lambda X: green.apply(g, X), handle.solve):
        W = route(X)
        assert W.shape == X.shape
        for j in range(X.shape[1]):
            w = route(X[:, j])
            assert np.max(np.abs(W[:, j] - w)) <= 1e-14 * np.max(np.abs(w))


def _green_mesh(V, lam, n=128):
    pos = hw.make_grid(n).nodes[n // 2:]
    return spectral._green_rule(lam, V.max_abs(), pos)[0]


@pytest.mark.parametrize("vname", ["0", "-1", "-6", "-30", "even_poly"])
def test_dense_taylor_branch_matches_adaptive_solver(vname):
    # the Green function's dense u1 against DOP853 on its quadrature
    # points, for both branches +-lam; its u1(0, lam) is the kernel's, bit
    # for bit
    V = _contour_potential(vname)
    for lam in (0.05 + 2.0j, 0.1 + 3.0j, 0.2 + 15.0j):
        xs = _green_mesh(V, lam)
        for branch in (lam, -lam):
            dense = spectral._TaylorSolution(V, branch)
            ref = build_u1(V, branch).u1(xs)
            err = np.max(np.abs(dense.u1(xs) - ref))
            assert err <= 1e-10 * np.max(np.abs(ref))
            assert dense.u1_at_zero == spectral._u1_taylor(
                V, branch, spectral._kappa(V, abs(branch)))


def test_green_function_dense_and_adaptive_branches_agree():
    lam = 0.05 + 2.0j
    dense = GreenFunction(hw.Potential.constant(-1.0), lam)
    adaptive = GreenFunction(
        hw.Potential.from_callable(lambda y: -1.0 + 0.0 * y), lam)
    assert isinstance(dense.u1_branch, spectral._TaylorSolution)
    assert isinstance(adaptive.u1_branch, hw.FrobeniusSolution)
    g = hw.make_grid(64)
    for f, h in ((lambda y: y - y ** 3, lambda y: 0.5 * y ** 3),
                 (lambda y: np.sin(3.0 * y), lambda y: y * np.exp(-y * y)),
                 (lambda y: y ** 5, lambda y: -y)):
        state = hw.EnergyState.from_callables(g, f, h)
        x = np.concatenate([state.u.half, state.v.half])
        want = adaptive.apply(g, x)
        got = dense.apply(g, x)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    for green in (dense, adaptive):
        for fn in (green.u1, green.u0):
            assert isinstance(fn(0.3), complex)
            for y in (-0.5, 1.5):
                with pytest.raises(hw.InvalidArgumentError):
                    fn(y)


# ---------------------------------------------------------------------------
# Taylor kernel for polynomial potentials

def _u1_zero_closed_form(c, lam):
    """u1(0, lam) and its lam-derivative for V = c: the mode ODE is
    hypergeometric in z/2 with gamma = lam + 1 = (alpha + beta + 1)/2, so
    Gauss's second summation theorem gives
    u1(0, lam) = 2^-lam sqrt(pi) Gamma(lam+1)
                 / (Gamma((lam+3/2+nu)/2) Gamma((lam+3/2-nu)/2)),
    nu = sqrt(1/4 - c), with zeros lam = nu - 3/2 - 2k."""
    nu = np.sqrt(complex(0.25 - c))
    lam = np.asarray(lam, dtype=complex)
    a, b = (lam + 1.5 + nu) / 2.0, (lam + 1.5 - nu) / 2.0
    u = np.exp(-lam * np.log(2.0) + 0.5 * np.log(np.pi) + loggamma(lam + 1.0)
               - loggamma(a) - loggamma(b))
    du = u * (psi(lam + 1.0) - np.log(2.0) - 0.5 * psi(a) - 0.5 * psi(b))
    return u, du


def _taylor(V, lams, slope=False):
    lam_abs = float(np.max(np.abs(lams)))
    return spectral._u1_taylor(V, lams, spectral._kappa(V, lam_abs),
                               slope=slope)


_CONSTANT_WINDOWS = [w for w in _CONTOUR_WINDOWS if w[0] != "even_poly"]


@pytest.mark.parametrize("vname,window", _CONSTANT_WINDOWS)
def test_taylor_kernel_matches_closed_form(vname, window):
    # values to 1e-11 of the median |u1| on the path; the lam-derivative
    # to 1e-9 of the median |d u1 / d lam|, or of the median |u1| for
    # V = 0, where u1 = 1 and the derivative vanishes
    a, b = window
    path = _rect_path(-0.015, a, -b, b, 256)
    V = _contour_potential(vname)
    u, du = _taylor(V, path, slope=True)
    uc, duc = _u1_zero_closed_form(float(vname), path)
    med = np.median(np.abs(uc))
    assert np.max(np.abs(u - uc)) <= 1e-11 * med
    dmed = med if vname == "0" else np.median(np.abs(duc))
    assert np.max(np.abs(du - duc)) <= 1e-9 * dmed
    # the contour route is the same kernel, without the derivative
    assert np.array_equal(_u1_zero_batch(V, path), u)
    # and one lambda at a time (plain complex arithmetic) agrees with it
    picks = path[::128]
    one = [_taylor(V, complex(lam), slope=True) for lam in picks]
    assert np.max(np.abs([f for f, _ in one] - uc[::128])) <= 1e-11 * med
    assert np.max(np.abs([d for _, d in one] - duc[::128])) <= 1e-9 * dmed


@pytest.mark.parametrize("c", [-1.0, -6.0, -30.0])
def test_adaptive_route_matches_closed_form(c):
    V = hw.Potential.constant(c)
    for lam in (0.3 + 2.0j, 1.7 - 5.0j, 2.5 + 10.0j):
        want, _ = _u1_zero_closed_form(c, lam)
        assert abs(_u1_zero_adaptive(V, lam) - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("vname,lams", [
    ("-6", [0.3 + 2.0j, 1.2 - 0.4j]), ("-30", [2.5 + 7.0j, 0.1 + 0.5j]),
    ("even_poly", [0.7 + 3.0j, 2.0 - 11.0j]),
    ("cos", [0.4 + 1.0j, 1.5 - 6.0j])])
def test_newton_slope_matches_adaptive_central_difference(vname, lams):
    # exact (polynomial) or finite-difference (callable) slope against a
    # central difference of the adaptive solver, whose error is ~1e-11
    V = _contour_potential(vname)
    h = 1e-4
    for lam in lams:
        f, fp = spectral._u1_zero_slope(V, lam)
        fd = (_u1_zero_adaptive(V, lam + h)
              - _u1_zero_adaptive(V, lam - h)) / (2.0 * h)
        assert abs(f - _u1_zero_adaptive(V, lam)) <= 1e-9 * abs(f)
        assert abs(fp - fd) <= 1e-6 * abs(fd)


def test_taylor_kernel_matches_adaptive_route_on_even_poly():
    # no closed form: the adaptive solver is the reference, on the window
    # path and near the roots of the search
    V = _contour_potential("even_poly")
    path = _rect_path(-0.015, 3.0, -20.0, 20.0, 256)
    vals = _taylor(V, path)
    med = np.median(np.abs(vals))
    picks = np.arange(0, len(path) - 1, 64)
    ref = np.array([_u1_zero_adaptive(V, lam) for lam in path[picks]])
    assert np.max(np.abs(vals[picks] - ref)) <= 1e-9 * med
    roots = [r.lam for r in find_sigma_v(V, window=(3.0, 20.0))]
    assert roots
    for lam in roots:
        assert abs(_taylor(V, lam) - _u1_zero_adaptive(V, lam)) <= 1e-9 * med


@pytest.mark.parametrize("vval,window,want", [
    (-6.0, (2.0, 10.0), [1.0]), (-2.0, (1.0, 1.0), [0.0]),
    (-12.0, (3.0, 20.0), [0.0, 2.0]), (-20.0, (3.0, 20.0), [1.0, 3.0]),
    (-30.0, (3.0, 40.0), [0.0, 2.0])])
def test_sigma_v_returns_the_closed_form_roots(vval, window, want):
    # the zeros nu - 3/2 - 2k of the closed form that lie in the window;
    # at each, the kernel and the adaptive solver agree to 1e-9 of
    # sup |u1(., root)|, the normalization of the reported residual
    V = hw.Potential.constant(vval)
    roots = sorted(find_sigma_v(V, window=window), key=lambda r: r.lam.real)
    assert len(roots) == len(want)
    for r, w in zip(roots, want):
        assert abs(r.lam - w) <= 1e-12
        sup = np.max(np.abs(build_u1(V, r.lam, check_resonance=False).u1(
            np.linspace(0.0, 1.0, 201))))
        assert abs(_taylor(V, r.lam) - _u1_zero_adaptive(V, r.lam)) \
            <= 1e-9 * sup


@pytest.mark.parametrize("vval,window", [
    (-6.0, (2.0, 10.0)), (-2.0, (1.0, 1.0)), (-1.0, (3.0, 20.0))])
def test_sigma_v_builds_u1_once_per_root(vval, window, monkeypatch):
    # Newton polishing takes value and slope from the Taylor kernel, so
    # the adaptive solver runs only for each root's eigenfunction and
    # residual
    calls = []
    build = spectral.build_u1

    def counting(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(spectral, "build_u1", counting)
    roots = find_sigma_v(hw.Potential.constant(vval), window=window)
    assert len(calls) <= len(roots)


@pytest.mark.parametrize("vname,window", _CONTOUR_WINDOWS)
def test_rk4_route_matches_taylor_kernel(vname, window):
    # the fixed-step RK4 route, kept for callables, against the kernel on
    # polynomial potentials: within its own error budget
    V = _contour_potential(vname)
    a, b = window
    path = _rect_path(-0.015, a, -b, b, 256)
    kappa = spectral._kappa(V, float(np.max(np.abs(path))))
    ref = spectral._u1_taylor(V, path, kappa)
    rk4 = spectral._u1_rk4(V, path, kappa)
    err = np.max(np.abs(rk4 - ref)) / np.median(np.abs(ref))
    assert 10.0 * err <= _CONTOUR_GUARD
