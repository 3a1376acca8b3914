"""Generator assembly, semigroup evolution, and spectral projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import hyperwave as hw
from hyperwave import evolution
from hyperwave.core_types import odd_extension, slice_energies


def _band_limited_state(grid, rng, K=5):
    cheb = np.polynomial.chebyshev
    c = np.zeros(2 * K + 2)
    d = np.zeros(2 * K + 2)
    c[1::2] = rng.standard_normal(K + 1) / (1 + np.arange(K + 1)) ** 2
    d[1::2] = rng.standard_normal(K + 1) / (1 + np.arange(K + 1)) ** 2
    return hw.EnergyState.from_callables(
        grid, lambda y: cheb.chebval(y, c), lambda y: cheb.chebval(y, d))


def test_generator_constructed_eigenpair():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    st = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    out = gen.apply(st)
    assert np.max(np.abs(out.stacked() - st.stacked())) < 1e-10


def test_generator_first_component_is_second_argument():
    g = hw.make_grid(32)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    st = hw.EnergyState.from_callables(g, lambda y: 0 * y,
                                       lambda y: y - y ** 5)
    out = gen.apply(st)
    assert np.max(np.abs(out.u.values - st.v.values)) < 1e-12


def test_generator_dissipation_defect():
    """Re(L0 f | f)_H = -|f2(-1)|^2 - |f2(1)|^2 for the free generator."""
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    rng = np.random.default_rng(12)
    w = g.quad_weights
    D = g.diff_matrix
    from hyperwave.core_types import extrapolate_to
    for _ in range(20):
        st = _band_limited_state(g, rng)
        out = gen.apply(st)
        f1, f2 = st.u.values, st.v.values
        h1, h2 = out.u.values, out.v.values
        ip = (w @ ((1 - g.nodes ** 2) * (D @ h1) * np.conj(D @ f1))
              + w @ (h2 * np.conj(f2)))
        # 12-point extrapolation is exact for the band-limited data here
        tr = (abs(extrapolate_to(f2, g, -1.0, num_points=12)) ** 2
              + abs(extrapolate_to(f2, g, 1.0, num_points=12)) ** 2)
        defect = abs(ip.real + tr)
        assert defect < 1e-6 * max(1.0, hw.energy_norm(st) ** 2)


def _odd_sector_maps(n):
    """Dense extension / restriction between odd fields on n nodes and
    their values at the n/2 positive nodes: the reference for the folded
    odd-sector layout."""
    half = n // 2
    E1 = np.zeros((n, half))
    for k in range(half):
        E1[half + k, k] = 1.0
        E1[half - 1 - k, k] = -1.0
    Z = np.zeros_like(E1)
    return (np.block([[E1, Z], [Z, E1]]),
            np.block([[0.5 * E1.T, Z.T], [Z.T, 0.5 * E1.T]]))


@pytest.mark.parametrize("n", [8, 16, 64, 128])
@pytest.mark.parametrize("V", [
    hw.Potential.constant(-1.0), hw.Potential.constant(-6.0),
    hw.Potential.from_callable(lambda y: -6.0 + 2.0 * y ** 2)])
def test_odd_sector_folds_match_dense_maps(n, V):
    g = hw.make_grid(n)
    gen = hw.assemble_generator(g, V)
    E, R = _odd_sector_maps(n)
    y, D, Iden = g.nodes, g.diff_matrix, np.eye(n)
    A = (1.0 - y ** 2)[:, None] * (D @ D) - 2.0 * y[:, None] * D \
        - np.diag(np.asarray(V(y), dtype=float))
    B = -2.0 * y[:, None] * D - Iden
    L = np.block([[np.zeros((n, n)), Iden], [A, B]])
    assert np.array_equal(gen.reduced, R @ L @ E)
    rng = np.random.default_rng(n)
    st = _band_limited_state(g, rng)
    for state in (st, hw.EnergyState(st.u, 1j * st.v)):
        assert np.array_equal(gen.reduce_state(state), R @ state.stacked())
    X = rng.standard_normal((3, n))
    assert np.array_equal(
        np.hstack([odd_extension(h) for h in np.split(X, 2, axis=-1)]),
        X @ E.T)


def test_free_eigenfamily_residual():
    # For V=0 every lam with Re(lam)<0 admits the eigenfunction
    # f1 = (1+y)^(-lam) - (1-y)^(-lam), f2 = lam*f1. Integer lam give
    # polynomial members the collocation matrix must reproduce exactly;
    # fractional lam have boundary singularities in high derivatives, so
    # those are checked at interior nodes with a scheme-level tolerance.
    g = hw.make_grid(96)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    y = g.nodes
    for lam, sel, tol in [
            (-1.0, slice(None), 1e-10),
            (-3.0, slice(None), 1e-10),
            (-2.5, np.abs(y) < 0.8, 5e-3)]:
        f1 = (1 + y) ** (-lam) - (1 - y) ** (-lam)
        st = hw.EnergyState(hw.OddField(g, f1), hw.OddField(g, lam * f1))
        out = gen.apply(st)
        resid = (out.stacked() - lam * st.stacked()).reshape(2, -1)
        scale = np.max(np.abs(st.stacked()))
        assert np.max(np.abs(resid[:, sel])) < tol * scale


def test_evolve_free_oracle():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    traj = hw.evolve(gen, init, 5.0, store_every=100)
    for s, st in zip(traj.times, traj):
        want = g.nodes * np.exp(-s) * (2 - np.exp(-s))
        assert np.max(np.abs(st.u.values - want)) < 1e-6


def test_evolve_growing_mode_oracle():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    traj = hw.evolve(gen, init, 3.0, store_every=100)
    want = g.nodes * np.exp(traj.times[-1])
    got = traj[-1].u.values
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-6


def test_evolve_zero_data():
    g = hw.make_grid(32)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    traj = hw.evolve(gen, hw.EnergyState.zero(g), 1.0, store_every=50)
    assert max(hw.energy_norm(st) for st in traj) == 0.0


def test_evolve_energy_non_increasing_free():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    rng = np.random.default_rng(5)
    st = _band_limited_state(g, rng)
    traj = hw.evolve(gen, st, 4.0, store_every=20)
    E = np.array([hw.energy_norm(x) for x in traj])
    assert np.max(np.diff(E)) <= 1e-6 * E[0]


def test_evolve_semigroup_property():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    rng = np.random.default_rng(8)
    st = _band_limited_state(g, rng)
    ds = 1e-3
    whole = hw.evolve(gen, st, 2.0, ds=ds, store_every=2000)
    first = hw.evolve(gen, st, 1.0, ds=ds, store_every=1000)
    second = hw.evolve(gen, first[-1], 1.0, ds=ds, store_every=1000)
    a = whole[-1].stacked()
    b = second[-1].stacked()
    assert np.max(np.abs(a - b)) < 1e-7 * max(1.0, np.max(np.abs(a)))


def test_evolve_large_step_matches_closed_form():
    # the step only spaces the slices: each one is e^{ds L} applied exactly
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    st = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    traj = hw.evolve(gen, st, 1.0, ds=0.5)
    assert np.allclose(traj.times, [0.0, 0.5, 1.0], rtol=0, atol=1e-15)
    for s, u in zip(traj.times, traj.U):
        want = g.nodes * np.exp(-s) * (2.0 - np.exp(-s))
        assert np.max(np.abs(odd_extension(u) - want)) < 1e-10


def test_evolve_divergence_guard_checks_every_50th_step():
    # a generator shifted by 50 I grows like e^{50 s}; the guard compares
    # against 10 e^{2 s} every 50th step, so the first check, at s = 0.05,
    # already fails (e^{2.4} > 10)
    g = hw.make_grid(16)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    bad = hw.GeneratorMatrix(g, gen.potential,
                             gen.reduced + 50.0 * np.eye(g.n))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    with pytest.raises(hw.DivergenceError, match="norm at s = 0.050"):
        hw.evolve(bad, init, 1.0, ds=0.001)


def test_evolve_divergence_guard_stops_a_non_finite_state(monkeypatch):
    # a NaN state compares False against any bound, so the guard stops
    # the run at its first check (step 50) as a divergence, a numerical
    # guard
    g = hw.make_grid(16)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    monkeypatch.setattr(evolution, "propagator",
                        lambda gen, h: np.full((g.n, g.n), np.nan))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    with pytest.raises(hw.DivergenceError, match=r"s = 0\.050 "):
        hw.evolve(gen, init, 1.0, ds=0.001)


def test_evolve_guard_energy_matches_slice_energies():
    # the guard's energy, |R x| with R built once, against the energy
    # kernel on the reduced state, for real and complex reduced vectors
    rng = np.random.default_rng(3)
    for n in (8, 64):
        g = hw.make_grid(n)
        gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
        R = gen.energy_factor()
        for x in (rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            want = slice_energies(*np.split(x[None], 2, axis=-1), g)[0]
            assert abs(np.linalg.norm(R @ x) - want) <= 1e-14 * want


@settings(max_examples=25, deadline=None)
@given(n=hst.sampled_from([16, 32]),
       v=hst.floats(min_value=-6.0, max_value=1.0),
       h=hst.floats(min_value=1e-3, max_value=0.5),
       k=hst.integers(min_value=1, max_value=8))
def test_propagator_semigroup(n, v, h, k):
    gen = hw.assemble_generator(hw.make_grid(n), hw.Potential.constant(v))
    Ek = np.linalg.matrix_power(hw.propagator(gen, h), k)
    want = hw.propagator(gen, k * h)
    assert np.max(np.abs(Ek - want)) <= 1e-10 * np.max(np.abs(want))


def _taylor_expm(A):
    """e^A in long double: 2^-s A of 1-norm <= 1/2, 20 Taylor terms
    (truncation below 1e-24), then s squarings."""
    A = A.astype(np.longdouble)
    norm = float(np.max(np.sum(np.abs(A), axis=0)))
    s = max(int(np.ceil(np.log2(2.0 * norm))), 0)
    B = A / np.longdouble(2.0) ** s
    X = term = np.eye(len(A), dtype=np.longdouble)
    for k in range(1, 21):
        term = term @ B / k
        X = X + term
    for _ in range(s):
        X = X @ X
    return X


@pytest.mark.parametrize("n", [16, 64, 128])
def test_expm_kernel_as_accurate_as_scipy(n):
    # against a long-double reference, the kernel's error on the steps
    # the commands take is within 2x that of scipy's expm
    from scipy.linalg import expm
    for v in (0.0, -1.0, -6.0):
        gen = hw.assemble_generator(hw.make_grid(n), hw.Potential.constant(v))
        for h in (4.0 / n ** 2, 0.0025, 0.01, 0.05):
            A = h * gen.reduced
            want = _taylor_expm(A)
            err = np.max(np.abs(evolution._expm(A) - want))
            ref = np.max(np.abs(expm(A) - want))
            assert err <= 2.0 * ref, (v, h, float(err), float(ref))


@pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_kernel_not_finite_gives_nan(bad, dtype):
    # overflowing powers or a non-finite entry give all NaN; pytest turns
    # any RuntimeWarning into an error
    A = np.eye(6, dtype=dtype)
    A[0, 3] = bad
    A[2, 1] = -bad if np.isfinite(bad) else 1.0
    E = evolution._expm(A)
    assert E.shape == A.shape and E.dtype == A.dtype
    assert np.all(np.isnan(E))


def test_propagator_is_computed_once_per_step_and_read_only():
    gen = hw.assemble_generator(hw.make_grid(16), hw.Potential.constant(-1.0))
    E = hw.propagator(gen, 0.05)
    assert hw.propagator(gen, 0.05) is E
    assert hw.propagator(gen, 0.1) is not E
    with pytest.raises(ValueError):
        E[0, 0] = 0.0


def test_expm_kernel_zero_is_identity():
    for n in (1, 2, 16):
        assert np.array_equal(evolution._expm(np.zeros((n, n))), np.eye(n))


def test_reduced_eigenvalue_convergence():
    # the constructed eigenvalue 1 of V=-6 must be resolved by the
    # collocation matrix and sharpen under refinement
    errs = []
    for n in (32, 64):
        gen = hw.assemble_generator(hw.make_grid(n),
                                    hw.Potential.constant(-6.0))
        eigs = gen.reduced_eigenvalues()
        errs.append(np.min(np.abs(eigs - 1.0)))
    assert errs[1] < 1e-10
    assert errs[1] <= errs[0] + 1e-12


def test_resolvent_matrix_identity():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    lam = 0.05 + 2.0j
    handle = hw.resolvent_matrix(gen, lam)
    R = handle.reduced_matrix()
    n = R.shape[0]
    ident = (lam * np.eye(n) - gen.reduced) @ R
    assert np.max(np.abs(ident - np.eye(n))) < 1e-8


def test_resolvent_matrix_near_eigenvalue_guard():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    with pytest.raises(hw.NearEigenvalueError):
        hw.resolvent_matrix(gen, 1.0 + 0.0j)


def test_riesz_projection_rank_one():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    proj = hw.riesz_projection(gen, {"kind": "circle", "center": [1.0, 0.0],
                                     "radius": 0.5})
    assert proj.rank == 1
    assert len(proj.eigenvalues_inside) == 1
    lam = proj.eigenvalues_inside[0]
    assert abs(lam - 1.0) < 1e-8
    assert proj.nilpotency[lam] == 0
    P = proj.reduced
    assert np.linalg.norm(P @ P - P, 2) < 1e-8
    Lr = gen.reduced
    assert np.linalg.norm(P @ Lr - Lr @ P, 2) < 1e-7
    # the range is spanned by the mode (y, y)
    st = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    pst = gen.expand_state(proj.reduced @ gen.reduce_state(st))
    assert np.max(np.abs(pst.stacked() - st.stacked())) < 1e-8


def test_riesz_projection_empty_interior():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    proj = hw.riesz_projection(gen, {"kind": "circle", "center": [1.0, 0.0],
                                     "radius": 0.8})
    assert proj.rank == 0
    assert np.max(np.abs(proj.reduced)) < 1e-8


def test_riesz_rectangle_matches_circle():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    pc = hw.riesz_projection(gen, {"kind": "circle", "center": [1.0, 0.0],
                                   "radius": 0.5})
    pr = hw.riesz_projection(gen, {"kind": "rect", "re": [0.5, 1.5],
                                   "im": [-0.5, 0.5]})
    assert pr.rank == 1
    assert np.max(np.abs(pc.reduced - pr.reduced)) < 1e-6


def test_riesz_parts_are_the_single_contour_projections():
    g = hw.make_grid(32)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    circles = [{"kind": "circle", "center": [c, 0.0], "radius": 0.3}
               for c in (1.0, 2.5)]
    proj = hw.riesz_projection(gen, circles)
    assert len(proj.parts) == 2
    for c, part in zip(circles, proj.parts):
        assert np.array_equal(part, hw.riesz_projection(gen, c).reduced)
    assert np.array_equal(proj.parts[0] + proj.parts[1], proj.reduced)


def test_riesz_contour_through_eigenvalue_rejected():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    with pytest.raises(hw.ContourAccuracyError):
        hw.riesz_projection(gen, {"kind": "circle", "center": [1.25, 0.0],
                                  "radius": 0.25})


@pytest.mark.parametrize("M", [64, 128])
def test_riesz_contour_through_eigenvalue_between_nodes_rejected(M):
    # the eigenvalue sits on the circle halfway between two of M
    # equispaced angles, where a check of quadrature nodes misses it
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    eigs = gen.reduced_eigenvalues()
    lam1 = eigs[np.argmin(np.abs(eigs - 1.0))]
    center = lam1 - 0.25 * np.exp(1j * (np.pi + np.pi / M))
    with pytest.raises(hw.ContourAccuracyError):
        hw.riesz_projection(gen, {"kind": "circle", "radius": 0.25,
                                  "center": [center.real, center.imag]})


@pytest.mark.parametrize("contour", [
    {"kind": "rect", "re": [1.5, 0.5], "im": [-0.5, 0.5]},
    {"kind": "rect", "re": [0.5, 1.5], "im": [0.5, -0.5]},
    {"kind": "rect", "re": [1.0, 1.0], "im": [-0.5, 0.5]},
    {"kind": "rect", "re": [0.5, 1.5], "im": [-0.5, 0.5], "points": 800},
    {"kind": "circle", "center": [1.0, 0.0], "radius": 0.5, "points": 128},
    {"kind": "circle", "center": [1.0, 0.0]},
])
def test_riesz_malformed_contour_rejected(contour):
    gen = hw.assemble_generator(hw.make_grid(48), hw.Potential.constant(-6.0))
    with pytest.raises(hw.InvalidArgumentError):
        hw.riesz_projection(gen, contour)


def test_decompose_and_evolve_single_mode():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    dec = hw.decompose_and_evolve(gen, init, 3.0, store_every=500)
    assert len(dec.unstable_modes) == 1
    got = dec.unstable_state(3.0).u.values
    want = g.nodes * np.exp(3.0)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8
    assert max(hw.energy_norm(x) for x in dec.stable_trajectory) < 1e-10
    tot = dec.total_state(0)
    assert np.max(np.abs(tot.stacked() - init.stacked())) < 1e-8


def _checked_state(grid, w):
    """The state of 2n stacked samples w through the checked OddField."""
    n = grid.n
    return hw.EnergyState(hw.OddField(grid, w[:n]), hw.OddField(grid, w[n:]))


def _rel_diff(a, b):
    return np.max(np.abs(a.stacked() - b.stacked())) \
        / np.max(np.abs(b.stacked()))


@pytest.mark.parametrize("n", [16, 64, 128])
def test_library_states_from_halves_match_checked_construction(n):
    # apply goes through the odd-sector matrix on positive-node halves;
    # the reference is the product with the dense maps, parity-checked
    g = hw.make_grid(n)
    E, R = _odd_sector_maps(n)
    rng = np.random.default_rng(n)
    for V in (-1.0, -6.0):
        gen = hw.assemble_generator(g, hw.Potential.constant(V))
        rough = hw.EnergyState(*(hw.OddField.from_half(g, h) for h in (
            rng.standard_normal((2, n // 2))
            + 1j * rng.standard_normal((2, n // 2)))))
        for st in (_band_limited_state(g, rng), rough):
            want = _checked_state(
                g, E @ (gen.reduced @ (R @ st.stacked())))
            assert _rel_diff(gen.apply(st), want) <= 1e-14


def test_decomposition_states_from_halves_match_checked_construction():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    init = _band_limited_state(g, np.random.default_rng(5))
    dec = hw.decompose_and_evolve(gen, init, 2.0, store_every=250)
    assert len(dec.unstable_modes) == 1
    traj = dec.stable_trajectory
    for i, s in enumerate(traj.times):
        uv = odd_extension(sum(np.array(m.state_at(s))
                               for m in dec.unstable_modes))
        un = _checked_state(g, uv.ravel())
        assert _rel_diff(dec.unstable_state(s), un) <= 1e-14
        tot = _checked_state(g, np.concatenate([
            odd_extension(traj.U[i]) + un.u.values,
            odd_extension(traj.V[i]) + un.v.values]))
        assert _rel_diff(dec.total_state(i), tot) <= 1e-14


def test_decompose_and_evolve_refuses_a_growing_mode_outside_the_window():
    # V = -6 has the growing mode 1; a window of Re <= 0.5 misses it, so
    # the remainder would still grow like e^s
    g = hw.make_grid(16)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    init = _band_limited_state(g, np.random.default_rng(3))
    with pytest.raises(hw.SpectralAssumptionError,
                       match="eigenvalue.* 1\\+0j .*outside the search"):
        hw.decompose_and_evolve(gen, init, 2.0, window=(0.5, 1.0))


def test_decompose_and_evolve_stable_only():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    rng = np.random.default_rng(3)
    init = _band_limited_state(g, rng)
    dec = hw.decompose_and_evolve(gen, init, 2.0, store_every=200)
    assert dec.unstable_modes == []
    tot = dec.total_state(0)
    assert np.max(np.abs(tot.stacked() - init.stacked())) < 1e-8


def test_decompose_rejects_axis_spectrum():
    # V = -2 places an eigenvalue exactly at 0
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(-2.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    with pytest.raises(hw.SpectralAssumptionError):
        hw.decompose_and_evolve(gen, init, 1.0)


def test_stored_steps_as_unique_of_appended_last():
    # the former formula: the stride's range with the last step appended
    for num_steps in [0, 1, 2, 7, 15, 16, 17, 100, 4000, 10240]:
        for store_every in [1, 2, 3, 16, 25, 99, 100, 101, 10 ** 9]:
            want = np.unique(np.append(
                np.arange(0, num_steps + 1, store_every), num_steps))
            got = evolution._stored_steps(num_steps, store_every)
            assert got.dtype == want.dtype and np.array_equal(got, want)
