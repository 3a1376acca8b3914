"""Ensemble generation and mixed-norm ratio scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import hyperwave as hw
from hyperwave import free_wave, strichartz_harness
from hyperwave.core_types import _mixed_from_samples, odd_extension, \
    positive_half, slice_energies, slice_norms
from hyperwave.strichartz_harness import EnsembleSpec, _batch_slice_norms, \
    _coefficient_matrices, _free_norms, _node_fields, run_free_scan, \
    run_potential_scan


def test_ensemble_reproducible_and_odd():
    spec = EnsembleSpec(count=4, band_limit=5, seed=7)
    a = spec.coefficient_arrays()
    b = EnsembleSpec(count=4, band_limit=5, seed=7).coefficient_arrays()
    for (cf1, cg1), (cf2, cg2) in zip(a, b):
        assert np.array_equal(cf1, cf2)
        assert np.array_equal(cg1, cg2)
        assert np.max(np.abs(cf1[0::2])) == 0.0  # odd Chebyshev only
    g = hw.make_grid(32)
    for m in spec.fields(g):
        assert hw.parity_defect(odd_extension(m.state.u.half)) < 1e-12
        assert hw.energy_norm(m.state) > 0


def test_ensemble_prefix_stable():
    # enlarging the ensemble keeps the earlier members bit-identical
    small = EnsembleSpec(count=3, band_limit=4, seed=11).coefficient_arrays()
    large = EnsembleSpec(count=6, band_limit=4, seed=11).coefficient_arrays()
    for (cf1, cg1), (cf2, cg2) in zip(small, large):
        assert np.array_equal(cf1, cf2)
        assert np.array_equal(cg1, cg2)


def test_exponent_validation():
    spec = EnsembleSpec(count=2, band_limit=3, seed=1)
    with pytest.raises(hw.InvalidArgumentError):
        run_free_scan(spec, [(2.0, np.inf)], 4.0)
    with pytest.raises(hw.InvalidArgumentError):
        run_free_scan(spec, [(1.5, 4.0)], 4.0)
    with pytest.raises(hw.InvalidArgumentError):
        run_free_scan(spec, [(2.0, 0.5)], 4.0)
    with pytest.raises(hw.InvalidArgumentError, match="empty exponent list"):
        run_free_scan(spec, [], 4.0)


@pytest.mark.parametrize("decay", [-400.0, -1e-9, np.inf, np.nan])
def test_ensemble_refuses_negative_or_non_finite_decay(decay):
    # a negative decay grows (k+1)^(-decay) past a float; NaN or inf
    # would draw NaN coefficients
    with pytest.raises(hw.InvalidArgumentError, match="finite decay >= 0"):
        EnsembleSpec(count=2, band_limit=8, seed=1,
                     decay=decay).coefficient_arrays()


def test_free_scan_energy_pair_bounded():
    # (p,q) = (inf,2): the flow is an energy contraction, so the L2
    # amplitude stays comparable to the data norm
    spec = EnsembleSpec(count=8, band_limit=6, seed=5)
    rep = run_free_scan(spec, [(np.inf, 2.0)], 12.0, num_slices=240,
                        refine=False)
    mx = rep.max_ratio[(np.inf, 2.0)]
    assert np.isfinite(mx)
    assert 0 < mx <= 2.0


def test_free_scan_zero_member_excluded():
    class WithZero(EnsembleSpec):
        def coefficient_arrays(self):
            arrs = super().coefficient_arrays()
            z = (np.zeros_like(arrs[0][0]), np.zeros_like(arrs[0][1]))
            return [z] + arrs[1:]

    spec = WithZero(count=4, band_limit=4, seed=3)
    rep = run_free_scan(spec, [(3.0, 6.0)], 6.0, num_slices=120,
                        refine=False)
    assert np.isnan(rep.ratios[(3.0, 6.0)][0])
    assert np.isfinite(rep.max_ratio[(3.0, 6.0)])


def test_free_scan_refinement_deltas_small():
    spec = EnsembleSpec(count=5, band_limit=5, seed=13)
    rep = run_free_scan(spec, [(2.0, 4.0), (np.inf, 2.0)], 10.0,
                        num_slices=200, refine=True)
    for pq in rep.exponents:
        deltas = rep.refinement[pq]
        assert set(deltas) == {"grid_doubled", "horizon_doubled"}
        assert all(abs(v) <= 0.10 for v in deltas.values())


def test_free_scan_max_monotone_in_ensemble():
    base = EnsembleSpec(count=5, band_limit=5, seed=21)
    bigger = EnsembleSpec(count=10, band_limit=5, seed=21)
    r1 = run_free_scan(base, [(3.0, 6.0)], 8.0, num_slices=160,
                       refine=False)
    r2 = run_free_scan(bigger, [(3.0, 6.0)], 8.0, num_slices=160,
                       refine=False)
    assert r2.max_ratio[(3.0, 6.0)] >= r1.max_ratio[(3.0, 6.0)] - 1e-12


def test_potential_scan_free_consistency():
    spec = EnsembleSpec(count=5, band_limit=5, seed=5)
    pairs = [(2.0, 4.0), (3.0, 6.0)]
    free = run_free_scan(spec, pairs, 8.0, num_slices=160, refine=False)
    viaV = run_potential_scan(hw.Potential.constant(0.0), spec, pairs, 8.0,
                              num_slices=160, refine=False)
    for pq in pairs:
        a, b = free.ratios[pq], viaV.ratios[pq]
        assert np.nanmax(np.abs(a - b) / np.abs(a)) < 1e-6


def test_potential_scan_yangmills_finite_and_stable():
    spec = EnsembleSpec(count=6, band_limit=5, seed=17)
    rep = run_potential_scan(hw.Potential.constant(-1.0), spec,
                             [(3.0, 6.0)], 10.0, num_slices=200,
                             refine=True)
    mx = rep.max_ratio[(3.0, 6.0)]
    assert np.isfinite(mx) and mx > 0
    for v in rep.refinement[(3.0, 6.0)].values():
        assert abs(v) <= 0.10


def test_potential_scan_projected_mode_bounded():
    # V = -6 grows like e^s unprojected; after removing the lam=1 mode
    # the ratios stay of moderate size
    spec = EnsembleSpec(count=5, band_limit=5, seed=23)
    rep = run_potential_scan(hw.Potential.constant(-6.0), spec,
                             [(3.0, 6.0)], 5.0, num_slices=100,
                             refine=False)
    assert rep.max_ratio[(3.0, 6.0)] < 5.0


def test_potential_scan_refuses_axis_spectrum():
    spec = EnsembleSpec(count=3, band_limit=4, seed=2)
    with pytest.raises(hw.SpectralAssumptionError):
        run_potential_scan(hw.Potential.constant(-2.0), spec,
                           [(3.0, 6.0)], 4.0, num_slices=80, refine=False)


@pytest.mark.parametrize("s_max,num_slices", [
    (0.5, 0), (0.5, 4), (float("nan"), 8)])
def test_potential_scan_checks_the_time_window(s_max, num_slices,
                                               monkeypatch):
    # the free scan's check, made before the growing-mode search
    def no_search(*args):
        raise AssertionError("growing-mode search ran")

    monkeypatch.setattr(strichartz_harness, "_growing_modes", no_search)
    spec = EnsembleSpec(count=2, band_limit=2, seed=1)
    with pytest.raises(hw.InvalidArgumentError, match="num_slices >= 8"):
        run_potential_scan(hw.Potential.constant(-1.0), spec, [(3.0, 6.0)],
                           s_max, grid=hw.make_grid(16),
                           num_slices=num_slices)


def test_potential_scan_refuses_axis_root_beside_growing_mode():
    # V = -12 has the growing mode 2 and the axis root 0 (u1(0, 0) ~ 7e-13)
    spec = EnsembleSpec(count=3, band_limit=4, seed=2)
    with pytest.raises(hw.SpectralAssumptionError):
        run_potential_scan(hw.Potential.constant(-12.0), spec,
                           [(3.0, 6.0)], 4.0, num_slices=80, refine=False)


@pytest.mark.parametrize("V,window,missed", [
    # V = -25: the modes 1.525 and 3.525; only the first is in the window
    (-25.0, (3.0, 20.0), "3.52494"),
    # V = -6: the mode 1 lies right of a window of Re <= 0.5
    (-6.0, (0.5, 1.0), "1"),
])
def test_potential_scan_refuses_a_growing_mode_outside_the_window(
        V, window, missed, monkeypatch):
    def no_stepping(*args):
        raise AssertionError("the scan stepped")

    monkeypatch.setattr(strichartz_harness, "_batch_slice_norms",
                        no_stepping)
    spec = EnsembleSpec(count=4, band_limit=4, seed=1)
    with pytest.raises(hw.SpectralAssumptionError,
                       match=f"eigenvalue\\(s\\) {missed}\\+0j .*outside"):
        run_potential_scan(hw.Potential.constant(V), spec, [(3.0, 6.0)],
                           10.0, grid=hw.make_grid(32), window=window,
                           num_slices=40, refine=False)


def test_tail_share_fields():
    spec = EnsembleSpec(count=4, band_limit=4, seed=31)
    rep = run_free_scan(spec, [(2.0, 4.0)], 8.0, num_slices=160,
                        refine=False)
    share = rep.tail_share[(2.0, 4.0)]
    assert 0.0 <= share <= 1.0
    assert rep.s_max == 8.0
    assert rep.grid_n == 64


@settings(max_examples=25, deadline=None)
@given(count=hst.integers(1, 12), band_limit=hst.integers(0, 8),
       decay=hst.floats(0.0, 3.0),
       n=hst.sampled_from([16, 32, 64]), s_max=hst.floats(0.5, 20.0),
       num_slices=hst.integers(8, 60), seed=hst.integers(0, 2 ** 32 - 1))
def test_batch_scan_matches_per_member_route(count, band_limit, decay,
                                             n, s_max, num_slices, seed):
    # oracle: free_wave.evaluate (Clenshaw per datum) + slice_norms +
    # energy_norm, one member at a time
    spec = EnsembleSpec(count, band_limit, seed, decay=decay)
    pairs = [(2.0, 4.0), (3.0, 6.0), (np.inf, 2.0)]
    qs = [2.0, 4.0, 6.0]
    grid = hw.make_grid(n)
    times = np.linspace(0.0, s_max, num_slices + 1)
    cf, cg = _coefficient_matrices(spec)
    norms = _free_norms(cf, cg, grid, times, qs)
    energies = slice_energies(*_node_fields(grid, cf, cg), grid)
    ratios = run_free_scan(spec, pairs, s_max, grid=grid,
                           num_slices=num_slices, refine=False).ratios
    for i, (f, g) in enumerate(spec.coefficient_arrays()):
        sol = free_wave.from_chebyshev(grid, f, g)
        U = free_wave.evaluate(sol, times[:, None], grid.nodes)
        want = {q: slice_norms(positive_half(U), grid, q) for q in qs}
        energy = hw.energy_norm(hw.EnergyState(sol.f_field, sol.g_field))
        assert abs(energies[i] - energy) <= 1e-13 * energy
        for q in qs:
            # late slices hold ~e^{-s} of the data: compare on the
            # scale of the member's largest slice norm
            err = np.max(np.abs(norms[q][:, i] - want[q]))
            assert err <= 1e-13 * np.max(want[q])
        for p, q in pairs:
            r = _mixed_from_samples(times, want[q], p) / energy
            assert abs(ratios[(p, q)][i] - r) <= 1e-13 * r


def _per_step_norms(gen, X0, s_max, num_slices, qs):
    """Reference for _batch_slice_norms: one step of E and one
    slice_norms call per q on its u-rows (one contiguous row per member,
    the layout of the blocked stack) at a time."""
    E = hw.propagator(gen, s_max / num_slices)
    h = gen.grid.n // 2
    norms = {q: [] for q in qs}
    X = X0
    for i in range(num_slices + 1):
        if i:
            X = E @ X
        for q in qs:
            norms[q].append(slice_norms(np.ascontiguousarray(X[:h].T),
                                        gen.grid, q))
    return {q: np.array(v) for q, v in norms.items()}


@settings(max_examples=30, deadline=None)
@given(num_slices=hst.sampled_from([1, 15, 16, 17, 37]),
       qs=hst.lists(hst.sampled_from([2.0, 3.5, 4.0, 6.0, np.inf]),
                    min_size=1, max_size=5, unique=True),
       members=hst.integers(1, 5), is_complex=hst.booleans(),
       v=hst.sampled_from([0.0, -1.0, -6.0]), s_max=hst.floats(0.1, 5.0),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_blocked_scan_norms_equal_per_step_norms(num_slices, qs, members,
                                                 is_complex, v, s_max,
                                                 seed):
    gen = hw.assemble_generator(hw.make_grid(16), hw.Potential.constant(v))
    rng = np.random.default_rng(seed)
    X0 = rng.standard_normal((16, members))
    if is_complex:
        X0 = X0 + 1j * rng.standard_normal((16, members))
    times, norms = _batch_slice_norms(gen, X0, s_max, num_slices, qs)
    want = _per_step_norms(gen, X0, s_max, num_slices, qs)
    assert np.array_equal(times, np.linspace(0.0, s_max, num_slices + 1))
    assert sorted(norms) == sorted(qs)
    for q in qs:
        assert norms[q].shape == (num_slices + 1, members)
        assert np.array_equal(norms[q], want[q])


@pytest.mark.parametrize("slot,value", [(0, 0.5), (2, np.nan), (3, np.nan)],
                         ids=["even-order", "nan-even", "nan-odd"])
@pytest.mark.parametrize("mode", ["free", "potential"])
def test_scan_refuses_bad_coefficients(mode, slot, value):
    class Corrupted(EnsembleSpec):
        def coefficient_arrays(self):
            arrs = super().coefficient_arrays()
            cf = arrs[1][0].copy()
            cf[slot] = value
            return [arrs[0], (cf, arrs[1][1])] + arrs[2:]

    spec = Corrupted(count=3, band_limit=4, seed=3)
    with pytest.raises(hw.InvalidDataError):
        if mode == "free":
            run_free_scan(spec, [(3.0, 6.0)], 4.0, num_slices=40,
                          refine=False)
        else:
            run_potential_scan(hw.Potential.constant(-1.0), spec,
                               [(3.0, 6.0)], 4.0, grid=hw.make_grid(32),
                               window=(1.0, 2.0), num_slices=40,
                               refine=False)
