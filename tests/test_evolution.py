"""Generator assembly, semigroup evolution, and spectral projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import hyperwave as hw


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


def test_generator_annihilates_even_sector():
    g = hw.make_grid(32)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    even = np.concatenate([g.nodes ** 2, np.ones(g.n)])
    assert np.max(np.abs(gen.matrix @ even)) < 1e-10


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
    for s, st in zip(traj.times, traj.states):
        want = g.nodes * np.exp(-s) * (2 - np.exp(-s))
        assert np.max(np.abs(st.u.values - want)) < 1e-6


def test_evolve_growing_mode_oracle():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    traj = hw.evolve(gen, init, 3.0, store_every=100)
    want = g.nodes * np.exp(traj.times[-1])
    got = traj.states[-1].u.values
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-6


def test_evolve_zero_data():
    g = hw.make_grid(32)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    traj = hw.evolve(gen, hw.EnergyState.zero(g), 1.0, store_every=50)
    assert max(hw.energy_norm(st) for st in traj.states) == 0.0


def test_evolve_energy_non_increasing_free():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    rng = np.random.default_rng(5)
    st = _band_limited_state(g, rng)
    traj = hw.evolve(gen, st, 4.0, store_every=20)
    E = np.array([hw.energy_norm(x) for x in traj.states])
    assert np.max(np.diff(E)) <= 1e-6 * E[0]


def test_evolve_semigroup_property():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    rng = np.random.default_rng(8)
    st = _band_limited_state(g, rng)
    ds = 1e-3
    whole = hw.evolve(gen, st, 2.0, ds=ds, store_every=2000)
    first = hw.evolve(gen, st, 1.0, ds=ds, store_every=1000)
    second = hw.evolve(gen, first.states[-1], 1.0, ds=ds, store_every=1000)
    a = whole.states[-1].stacked()
    b = second.states[-1].stacked()
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
        assert np.max(np.abs(u - want)) < 1e-10


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
    pst = proj.apply(gen, st)
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
                                   "im": [-0.5, 0.5], "points": 800})
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


def test_decompose_and_evolve_single_mode():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    dec = hw.decompose_and_evolve(gen, init, 3.0, store_every=500)
    assert len(dec.unstable_modes) == 1
    got = dec.unstable_state(3.0).u.values
    want = g.nodes * np.exp(3.0)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8
    assert max(hw.energy_norm(x) for x in dec.stable_trajectory.states) < 1e-10
    tot = dec.total_state(0)
    assert np.max(np.abs(tot.stacked() - init.stacked())) < 1e-8


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


def test_stable_growth_probe_free():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    rng = np.random.default_rng(17)
    ens = [_band_limited_state(g, rng) for _ in range(5)]
    ratio = hw.stable_growth_probe(gen, ens, 0.0, 5.0)
    assert 1.0 <= ratio <= 2.0


def test_stable_growth_probe_perturbed():
    g = hw.make_grid(48)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    rng = np.random.default_rng(23)
    ens = [_band_limited_state(g, rng) for _ in range(5)]
    ratio = hw.stable_growth_probe(gen, ens, 0.1, 20.0)
    assert np.isfinite(ratio)
    assert ratio > 0


def test_stable_growth_probe_zero_members():
    g = hw.make_grid(32)
    gen = hw.assemble_generator(g, hw.Potential.constant(-1.0))
    ens = [hw.EnergyState.zero(g)]
    assert hw.stable_growth_probe(gen, ens, 0.1, 2.0) == 0.0
