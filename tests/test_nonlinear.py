"""Cubic fixed-point solver, propagators, and the Cauchy cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import hyperwave as hw
from hyperwave import nonlinear
from hyperwave.coords import logcosh
from hyperwave.core_types import (
    _barycentric_matrix,
    extrapolate_to,
    odd_extension,
    slice_norms,
)
from hyperwave.evolution import _step_count


def _small_data(grid, energy=0.01, width=0.6):
    y = grid.nodes
    f = hw.OddField(grid, y * np.exp(-((y / width) ** 2)))
    g = hw.OddField.zero(grid)
    e0 = hw.energy_norm(hw.EnergyState(f, g))
    return (energy / e0) * f, g


def _zero_trajectory(grid, times):
    zeros = np.zeros((len(times), grid.n // 2))
    return hw.Trajectory.from_halves(grid, times, zeros, zeros)


def test_duhamel_zero_source_is_linear():
    grid = hw.make_grid(32)
    prop = hw.make_propagators(grid, 0.05, 2.0)
    f, g = _small_data(grid, energy=0.3)
    zero_traj = _zero_trajectory(grid, prop.times())
    out = hw.duhamel_step(prop, f, g, zero_traj)
    # compare against direct linear evolution of the V=-1 generator
    gen = hw.assemble_generator(grid, hw.Potential.constant(-1.0))
    sub = max(1, int(np.ceil(0.05 / (4.0 / grid.n ** 2))))
    lin = hw.evolve(gen, hw.EnergyState(f, g), 2.0, ds=0.05 / sub,
                    store_every=sub)
    m = min(len(out), len(lin))
    diff = out.U[:m] - lin.U[:m]
    assert np.max(np.abs(diff)) < 1e-6


def test_duhamel_zero_everything_is_zero():
    grid = hw.make_grid(32)
    prop = hw.make_propagators(grid, 0.05, 1.0)
    zero_traj = _zero_trajectory(grid, prop.times())
    out = hw.duhamel_step(prop, hw.OddField.zero(grid),
                          hw.OddField.zero(grid), zero_traj)
    assert max(hw.energy_norm(s) for s in out) == 0.0


def test_duhamel_grid_mismatch():
    prop = hw.make_propagators(hw.make_grid(32), 0.05, 1.0)
    other = hw.make_grid(64)
    zero_traj = _zero_trajectory(other, prop.times())
    with pytest.raises(hw.InvalidDataError):
        hw.duhamel_step(prop, hw.OddField.zero(other),
                        hw.OddField.zero(other), zero_traj)


def test_picard_zero_data():
    grid = hw.make_grid(32)
    run = hw.picard_solve(hw.OddField.zero(grid), hw.OddField.zero(grid),
                          2.0, 0.05)
    assert run.converged
    assert len(run.x_norms) <= 2
    assert max(hw.energy_norm(s) for s in run.final) == 0.0


def test_picard_rejects_large_data():
    grid = hw.make_grid(32)
    f, g = _small_data(grid, energy=0.2)
    with pytest.raises(hw.InvalidArgumentError):
        hw.picard_solve(f, g, 2.0, 0.05)


@pytest.mark.parametrize("max_iter", [0, -5])
def test_picard_refuses_no_iterates(max_iter):
    # zero iterates would return u_0 = 0 as a non-converged run
    grid = hw.make_grid(16)
    f, g = _small_data(grid, energy=0.01)
    with pytest.raises(hw.InvalidArgumentError, match="max_iter >= 1"):
        hw.picard_solve(f, g, 0.5, 0.05, max_iter=max_iter)


def test_picard_run_keeps_its_propagators():
    grid = hw.make_grid(16)
    f, g = _small_data(grid, energy=0.01)
    run = hw.picard_solve(f, g, 0.5, 0.05)
    assert run.prop.gen.grid is grid and run.prop.ds == 0.05
    assert np.array_equal(run.prop.times(), run.final.times)
    assert hw.fixed_point_residual(run.prop, f, g, run.final) < 1e-8


def test_picard_contraction_small_data():
    grid = hw.make_grid(64)
    f, g = _small_data(grid)
    run = hw.picard_solve(f, g, 10.0, 0.05)
    assert run.converged
    # ratios from iterate 2 onward obey the half-contraction bound
    assert all(r <= 0.5 for r in run.ratios[1:])
    # deltas eventually decrease monotonically
    tail = run.deltas[1:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_picard_ball_stability_under_rescaling():
    # ||u||_{L3 L6} <= M * delta with one M across data sizes in
    # [delta/2, delta]
    grid = hw.make_grid(64)
    ms = []
    for energy in (0.02, 0.04):
        f, g = _small_data(grid, energy=energy)
        run = hw.picard_solve(f, g, 10.0, 0.05)
        x3 = hw.mixed_norm(run.final, 3, 6)
        ms.append(x3 / energy)
    assert ms[0] > 0
    assert 0.5 <= ms[1] / ms[0] <= 2.0


def test_fixed_point_residual_small():
    grid = hw.make_grid(64)
    f, g = _small_data(grid)
    run = hw.picard_solve(f, g, 10.0, 0.05)
    prop = hw.make_propagators(grid, 0.05, 10.0)
    assert hw.fixed_point_residual(prop, f, g, run.final) < 1e-4


def test_direct_solver_zero_data():
    grid = hw.make_grid(32)
    traj = hw.nonlinear_evolve_direct(hw.OddField.zero(grid),
                                      hw.OddField.zero(grid), 1.0)
    assert max(hw.energy_norm(s) for s in traj) == 0.0


def test_direct_matches_picard():
    grid = hw.make_grid(64)
    f, g = _small_data(grid)
    run = hw.picard_solve(f, g, 8.0, 0.05)
    sub = max(1, int(np.ceil(0.05 / (4.0 / grid.n ** 2))))
    direct = hw.nonlinear_evolve_direct(f, g, 8.0, ds=0.05 / sub,
                                        store_every=sub)
    m = min(len(run.final), len(direct))
    Up = odd_extension(run.final.U[:m])
    Ud = odd_extension(direct.U[:m])
    l6 = np.max((np.abs(Up - Ud) ** 6 @ grid.quad_weights) ** (1.0 / 6.0))
    assert l6 < 1e-4
    # Gronwall probe: the discrepancy stays at discretization size over
    # the whole window instead of growing exponentially
    d6 = (np.abs(Up - Ud) ** 6 @ grid.quad_weights) ** (1.0 / 6.0)
    assert d6[-1] <= 10 * (np.max(d6[: m // 2]) + 1e-12)


@settings(max_examples=8, deadline=None)
@given(energy=st.floats(min_value=1e-3, max_value=0.02),
       width=st.floats(min_value=0.4, max_value=0.8))
def test_lawson_step_converged_on_small_data(energy, width):
    # the linear part is exact, so the Picard step 0.05 already resolves
    # the cubic term: it agrees with a 52x finer step on the shared nodes
    grid = hw.make_grid(64)
    f, g = _small_data(grid, energy=energy, width=width)
    coarse = hw.nonlinear_evolve_direct(f, g, 2.0, ds=0.05)
    fine = hw.nonlinear_evolve_direct(f, g, 2.0, ds=0.05 / 52,
                                      store_every=52)
    assert np.allclose(coarse.times, fine.times, rtol=0, atol=1e-12)
    d6 = slice_norms(coarse.U - fine.U, grid, 6)
    assert np.max(d6) < 1e-10


def _lawson_reference(f, g, s_max, ds):
    """Reduced rows of the Lawson RK4 run written out stage by stage,
    with full products by E = e^{ds L} and Eh = e^{ds L/2}."""
    gen = hw.assemble_generator(f.grid, hw.Potential.constant(-1.0))
    half = f.grid.n // 2
    E = hw.propagator(gen, ds)
    Eh = hw.propagator(gen, 0.5 * ds)

    def cubic(v):
        out = np.zeros_like(v)
        out[half:] = -v[:half] ** 3
        return out

    x = gen.reduce_state(hw.EnergyState(f, g))
    rows = [x]
    for _ in range(_step_count(s_max, ds, f.grid.n)[1]):
        Ex = E @ x
        Ehx = Eh @ x
        k1 = cubic(x)
        k2 = cubic(Ehx + (0.5 * ds) * (Eh @ k1))
        k3 = cubic(Ehx + (0.5 * ds) * k2)
        k4 = cubic(Ex + ds * (Eh @ k3))
        x = Ex + (ds / 6.0) * (E @ k1 + 2.0 * (Eh @ (k2 + k3)) + k4)
        rows.append(x)
    return gen, np.array(rows)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([16, 32, 64]),
       ds=st.floats(min_value=1e-3, max_value=0.1),
       energy=st.floats(min_value=1e-3, max_value=0.03),
       width=st.floats(min_value=0.4, max_value=0.8),
       store_every=st.integers(min_value=2, max_value=7))
def test_lawson_step_matches_stagewise_reference(n, ds, energy, width,
                                                 store_every):
    grid = hw.make_grid(n)
    f, g = _small_data(grid, energy=energy, width=width)
    s_max = 1.0
    gen, rows = _lawson_reference(f, g, s_max, ds)
    want = gen.trajectory(ds * np.arange(len(rows)), rows, ds)
    got = hw.nonlinear_evolve_direct(f, g, s_max, ds=ds)
    assert np.array_equal(got.times, want.times)
    scale = np.maximum(np.abs(want.U).max(axis=1), np.abs(want.V).max(axis=1))
    err = np.maximum(np.abs(got.U - want.U).max(axis=1),
                     np.abs(got.V - want.V).max(axis=1))
    # the products sum in another order: round-off that accumulates over
    # up to 1,000 steps (measured worst 3e-13) is all that may differ
    assert np.all(err <= 1e-12 * scale)
    # thinned storage keeps rows 0, k, 2k, ..., M of the full run exactly
    thin = hw.nonlinear_evolve_direct(f, g, s_max, ds=ds,
                                      store_every=store_every)
    M = len(got) - 1
    keep = np.unique(np.append(np.arange(0, M + 1, store_every), M))
    assert np.array_equal(thin.times, got.times[keep])
    assert np.array_equal(thin.U, got.U[keep])
    assert np.array_equal(thin.V, got.V[keep])


def test_direct_solver_reports_overflow_as_blow_up():
    # the solution overflows to NaN between two norm checks; NaN compares
    # false against the bound, so the check must not read as a pass
    grid = hw.make_grid(32)
    y = grid.nodes
    f = hw.OddField(grid, 30.0 * y * np.exp(-((y / 0.6) ** 2)))
    with pytest.warns(RuntimeWarning), pytest.raises(hw.BlowUpError):
        hw.nonlinear_evolve_direct(f, hw.OddField.zero(grid), 4.0, ds=0.5)


@pytest.mark.parametrize("s_max, ds", [(1.0, -0.01), (1.0, 0.0),
                                       (-1.0, 0.01)])
def test_cubic_solvers_reject_bad_steps(s_max, ds):
    grid = hw.make_grid(32)
    f, g = _small_data(grid)
    with pytest.raises(hw.InvalidArgumentError):
        hw.nonlinear_evolve_direct(f, g, s_max, ds=ds)
    with pytest.raises(hw.InvalidArgumentError):
        hw.asymptotic_stability_report(f, g, s_max, ds=ds)


def test_direct_parity_preserved():
    grid = hw.make_grid(48)
    f, g = _small_data(grid, energy=0.02)
    traj = hw.nonlinear_evolve_direct(f, g, 2.0, store_every=100)
    for st_ in traj:
        assert hw.parity_defect(st_.u.values) < 1e-10
        assert hw.parity_defect(st_.v.values) < 1e-10


def test_scaling_trend():
    # halving the data roughly halves the solution sup norm
    grid = hw.make_grid(48)
    sups = []
    for energy in (0.02, 0.01):
        f, g = _small_data(grid, energy=energy)
        traj = hw.nonlinear_evolve_direct(f, g, 4.0, store_every=50)
        sups.append(max(hw.lq_norm(s.u, np.inf) for s in traj))
    assert 1.5 <= sups[0] / sups[1] <= 2.5


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False,
                          width=32), min_size=2, max_size=8))
def test_cubic_difference_identity(vals):
    # a^3 - b^3 = (a - b)(a^2 + ab + b^2), the algebra behind the
    # contraction estimate, must hold for the implementation's cubes
    a = np.array(vals)
    b = a[::-1].copy()
    lhs = a ** 3 - b ** 3
    rhs = (a - b) * (a ** 2 + a * b + b ** 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(a)) ** 3)


def test_cross_check_zero_data():
    grid = hw.make_grid(32)
    z = hw.OddField.zero(grid)
    assert hw.cauchy_cross_check(z, z, s0=4.0, s1=5.0, dr=1.0 / 16) == 0.0


def _record_solve_steps(monkeypatch):
    """Step counts of the hyperboloidal solves that follow, in order."""
    steps = []
    solve = nonlinear.nonlinear_evolve_direct

    def spy(f, g, s_max, ds=None, store_every=1):
        steps.append(round(s_max / ds))
        return solve(f, g, s_max, ds=ds, store_every=store_every)

    monkeypatch.setattr(nonlinear, "nonlinear_evolve_direct", spy)
    return steps


def test_cross_check_step_choice_matches_finest_step(monkeypatch):
    # the benchmark's n = 64 run: the error-sized step moves the
    # discrepancy by less than 1e-3 of itself against the finest step 2e-3
    grid = hw.make_grid(64)
    f, g = _small_data(grid, energy=0.01)
    kw = dict(s0=4.0, s1=5.0, y_max=0.9, r_max=20.0, dr=1.0 / 32)
    steps = _record_solve_steps(monkeypatch)
    chosen = hw.cauchy_cross_check(f, g, **kw)
    assert max(steps) < 2500
    monkeypatch.setattr(nonlinear, "_cross_check_steps", lambda s1: [2500])
    forced = hw.cauchy_cross_check(f, g, **kw)
    assert steps[-1] == 2500
    assert abs(chosen - forced) <= 1e-3 * forced


def test_cross_check_warmup_config_takes_coarse_steps(monkeypatch):
    # the benchmark warm-up (n = 16, r_max 6, dr 0.25) used to run 2,500
    # Lawson steps; its first try, 500 steps checked against 250, passes
    grid = hw.make_grid(16)
    f, g = _small_data(grid, energy=0.01)
    steps = _record_solve_steps(monkeypatch)
    hw.cauchy_cross_check(f, g, r_max=6.0, dr=0.25)
    assert steps == [500, 250]


def test_cross_check_refines_from_a_coarse_first_try(monkeypatch):
    # a first try of 40 steps fails its estimate; each doubling reuses the
    # previous solve as its solve at twice the step, and the accepted run
    # agrees with the finest step
    grid = hw.make_grid(64)
    f, g = _small_data(grid, energy=0.01)
    monkeypatch.setattr(nonlinear, "_cross_check_steps",
                        lambda s1: [40, 80, 160, 320, 640, 1280, 2500])
    steps = _record_solve_steps(monkeypatch)
    chosen = hw.cauchy_cross_check(f, g, dr=1.0 / 32)
    assert steps[:3] == [40, 20, 80]
    assert steps[2:] == [40 * 2 ** k for k in range(1, len(steps) - 1)]
    assert steps[-1] < 2500
    monkeypatch.setattr(nonlinear, "_cross_check_steps", lambda s1: [2500])
    forced = hw.cauchy_cross_check(f, g, dr=1.0 / 32)
    assert abs(chosen - forced) <= 1e-3 * forced


def test_cross_check_step_counts():
    # even counts from a step of at most 1e-2, doubling, closed by the
    # count at step 2e-3
    assert nonlinear._cross_check_steps(5.0) == [500, 1000, 2000, 2500]
    assert nonlinear._cross_check_steps(4.5) == [450, 900, 1800, 2250]
    assert nonlinear._cross_check_steps(4.237) == [424, 848, 1696, 2119]


def test_cross_check_small_data():
    grid = hw.make_grid(64)
    f, g = _small_data(grid, energy=0.05)
    d = hw.cauchy_cross_check(f, g, s0=4.0, s1=5.0, y_max=0.9,
                              r_max=20.0, dr=1.0 / 32)
    assert d < 1e-3


@pytest.mark.parametrize("n", [64, 128])
def test_level_line_seed_equals_full_column_fit(n):
    # the seed fits splines to the positive-node half only; odd symmetry
    # makes that the fit of every column, bit for bit
    grid = hw.make_grid(n)
    f, g = _small_data(grid, energy=0.05)
    traj = hw.nonlinear_evolve_direct(f, g, 5.0, ds=5.0 / 2500)
    r = -20.0 + np.arange(1281) / 32.0
    s_line, y_line = 4.0 - logcosh(r), np.tanh(r)
    seeded = nonlinear._level_line_seed(traj, s_line, y_line)
    ok = s_line >= 0.0
    weights = _barycentric_matrix(grid, y_line[ok])
    for got, stack in zip(seeded, (traj.U, traj.V)):
        fit = CubicSpline(traj.times, odd_extension(stack.real), axis=0)
        want = np.zeros(r.size)
        want[ok] = np.einsum("kj,kj->k", weights, fit(s_line[ok]))
        assert np.any(got != 0.0)
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(min_value=-5.0, max_value=5.0),
       h=st.floats(min_value=1e-3, max_value=1.0),
       size=st.integers(min_value=4, max_value=40),
       where=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                      max_size=8),
       coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4,
                       max_size=4),
       n=st.sampled_from([8, 16, 32, 64, 128]))
def test_lagrange_weights_reproduce_cubics(lo, h, size, where, coeffs, n):
    # the leapfrog's 4-point interpolation on a uniform grid and the
    # boundary extrapolation from the 4 nodes nearest y = +-1 share one
    # Lagrange kernel; both are exact on cubics up to round-off
    cubic = np.polynomial.Polynomial(coeffs)
    pts = lo + h * np.arange(size)
    xs = lo + h * (size - 1) * np.array(where)
    idx, w = nonlinear._lagrange_rows(xs, pts, h, lo)
    got = np.sum(w * cubic(pts[idx[:, None] + np.arange(4)]), axis=1)
    scale = sum(abs(c) * (abs(lo) + h * size) ** k
                for k, c in enumerate(coeffs))
    assert np.max(np.abs(got - cubic(xs))) <= 1e-12 * max(scale, 1.0)
    g = hw.make_grid(n)
    for y in (1.0, -1.0):
        assert abs(extrapolate_to(cubic(g.nodes), g, y) - cubic(y)) \
            <= 1e-10 * max(sum(abs(c) for c in coeffs), 1.0)


def test_cross_check_preconditions():
    grid = hw.make_grid(32)
    z = hw.OddField.zero(grid)
    with pytest.raises(hw.InvalidArgumentError):
        hw.cauchy_cross_check(z, z, s0=4.0, s1=5.0, y_max=0.95)
    with pytest.raises(hw.InvalidArgumentError):
        hw.cauchy_cross_check(z, z, s0=1.0, s1=3.5)


def test_cross_check_domain_guard():
    grid = hw.make_grid(32)
    z = hw.OddField.zero(grid)
    with pytest.raises(hw.DomainError):
        hw.cauchy_cross_check(z, z, s0=4.0, s1=5.0, r_max=2.0)


def test_stability_report_zero_data():
    grid = hw.make_grid(32)
    z = hw.OddField.zero(grid)
    rep = hw.asymptotic_stability_report(z, z, 5.0)
    assert rep["l3_l6"] == 0.0
    assert rep["linf_l6"] == 0.0
    assert rep["tail_l3_l6"] == 0.0


def test_stability_report_small_data():
    grid = hw.make_grid(48)
    f, g = _small_data(grid)
    rep = hw.asymptotic_stability_report(f, g, 30.0)
    assert np.isfinite(rep["l3_l6"])
    assert rep["tail_l3_l6"] <= 0.1 * rep["l3_l6"]
    assert rep["decay_rate"] < 0.0
