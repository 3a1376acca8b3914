"""Closed-form free evolution and the energy identity."""

import numpy as np
import pytest

import hyperwave as hw
from hyperwave import free_wave


def _grid():
    return hw.make_grid(32)


def test_linear_data_oracle():
    # (f, g) = (y, 0) evolves to y e^{-s}(2 - e^{-s})
    g = _grid()
    sol = free_wave.from_chebyshev(g, np.array([0.0, 1.0]), np.array([0.0]))
    for s in [0.0, 0.25, 1.0, 3.0, 5.0]:
        got = free_wave.evaluate(sol, s, g.nodes)
        want = g.nodes * np.exp(-s) * (2.0 - np.exp(-s))
        assert np.max(np.abs(got - want)) < 1e-12


def test_velocity_data_oracle():
    # (f, g) = (0, y) evolves to y e^{-s}(1 - e^{-s})
    g = _grid()
    sol = free_wave.from_chebyshev(g, np.array([0.0]), np.array([0.0, 1.0]))
    for s in [0.0, 0.5, 2.0, 4.0]:
        got = free_wave.evaluate(sol, s, g.nodes)
        want = g.nodes * np.exp(-s) * (1.0 - np.exp(-s))
        assert np.max(np.abs(got - want)) < 1e-12


def test_initial_slice_reproduces_data():
    g = _grid()
    cf = np.array([0.0, 0.4, 0.0, -0.2, 0.0, 0.05])
    cg = np.array([0.0, -0.3, 0.0, 0.1])
    sol = free_wave.from_chebyshev(g, cf, cg)
    got = free_wave.evaluate(sol, 0.0, g.nodes)
    want = np.polynomial.chebyshev.chebval(g.nodes, cf)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ds_evaluate_matches_finite_difference():
    g = _grid()
    cf = np.array([0.0, 0.4, 0.0, -0.2])
    cg = np.array([0.0, -0.3])
    sol = free_wave.from_chebyshev(g, cf, cg)
    ys = np.array([-0.7, -0.2, 0.33, 0.8])
    for s in [0.4, 1.7]:
        h = 1e-6
        fd = (free_wave.evaluate(sol, s + h, ys)
              - free_wave.evaluate(sol, s - h, ys)) / (2 * h)
        an = free_wave.ds_evaluate(sol, s, ys)
        assert np.max(np.abs(fd - an)) < 1e-8


def test_linearity_of_evolution():
    g = _grid()
    cf1 = np.array([0.0, 1.0]); cg1 = np.array([0.0, 0.5])
    cf2 = np.array([0.0, 0.0, 0.0, 1.0]); cg2 = np.array([0.0, -1.0])
    a, b = 0.7, -1.3
    s = 1.2
    ys = np.linspace(-0.9, 0.9, 11)
    u1 = free_wave.evaluate(free_wave.from_chebyshev(g, cf1, cg1), s, ys)
    u2 = free_wave.evaluate(free_wave.from_chebyshev(g, cf2, cg2), s, ys)
    cf = a * np.pad(cf1, (0, 2)) + b * cf2
    cg = a * cg1 + b * cg2
    u = free_wave.evaluate(free_wave.from_chebyshev(g, cf, cg), s, ys)
    assert np.max(np.abs(u - (a * u1 + b * u2))) < 1e-12


def test_rejects_even_coefficients():
    g = _grid()
    with pytest.raises(hw.InvalidDataError):
        free_wave.from_chebyshev(g, np.array([0.0, 1.0, 0.3]),
                                 np.array([0.0]))


def test_rejects_negative_time():
    g = _grid()
    sol = free_wave.from_chebyshev(g, np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(hw.InvalidArgumentError):
        free_wave.evaluate(sol, -0.1, 0.5)


def test_free_trajectory_refuses_zero_step():
    with pytest.raises(hw.InvalidArgumentError, match="ds > 0"):
        free_wave.free_trajectory(np.array([0.0, 1.0]), np.array([0.0]),
                                  hw.make_grid(16), 1.0, 0.0)


def test_energy_flux_check_needs_three_slices():
    traj = free_wave.free_trajectory(np.array([0.0, 1.0]), np.array([0.0]),
                                     hw.make_grid(16), 0.1, 0.1)
    assert len(traj) == 2
    with pytest.raises(hw.InvalidDataError, match="at least 3 slices"):
        free_wave.energy_flux_check(traj)


def test_free_trajectory_keeps_last_slice_when_quotient_rounds_low():
    # s_max / ds rounds to 4001.9999999999986 here; the slice count must
    # match evolve's, which ends at s_max
    g = hw.make_grid(16)
    s_max, ds = 16.269, 0.561 / 138
    traj = free_wave.free_trajectory(np.array([0.0, 1.0]), np.array([0.0]),
                                     g, s_max, ds)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    ev = hw.evolve(gen, init, s_max, ds=ds, store_every=1000)
    assert len(traj) == 4003
    assert traj.times[-1] == ev.times[-1]
    assert abs(traj.times[-1] - s_max) < 1e-9


def test_evaluate_broadcasts_times():
    # one call over a (T, 1) time column equals the per-slice calls
    # exactly; scalar arguments keep their scalar results
    g = _grid()
    cf = np.array([0.0, 0.3, 0.0, -0.15, 0.0, 0.02])
    cg = np.array([0.0, 0.2, 0.0, 0.07])
    sol = free_wave.from_chebyshev(g, cf, cg)
    times = np.linspace(0.0, 4.0, 5)
    ys = np.linspace(-0.85, 0.85, 7)
    for fn in (free_wave.evaluate, free_wave.ds_evaluate):
        many = fn(sol, times[:, None], ys)
        assert many.shape == (5, 7) and many.dtype == complex
        assert np.array_equal(many, [fn(sol, s, ys) for s in times])
        assert isinstance(fn(sol, 0.5, 0.25), complex)
        assert np.array_equal(fn(sol, times, 0.25),
                              [fn(sol, s, 0.25) for s in times])
    with pytest.raises(hw.InvalidArgumentError):
        free_wave.evaluate(sol, np.array([0.5, -0.1]), 0.25)


def test_energy_flux_identity_random_data():
    """dE^2/ds must balance the boundary flux for band-limited data."""
    g = hw.make_grid(64)
    rng = np.random.default_rng(42)
    for _ in range(5):
        cf = np.zeros(10)
        cg = np.zeros(10)
        cf[1::2] = rng.standard_normal(5) / (1 + np.arange(5)) ** 2
        cg[1::2] = rng.standard_normal(5) / (1 + np.arange(5)) ** 2
        traj = free_wave.free_trajectory(cf, cg, g, 1.5, 5e-4)
        assert free_wave.energy_flux_check(traj) < 1e-3


def test_free_energy_non_increasing():
    g = hw.make_grid(48)
    cf = np.array([0.0, 0.5, 0.0, 0.25])
    cg = np.array([0.0, -0.4])
    traj = free_wave.free_trajectory(cf, cg, g, 4.0, 0.05)
    E = [hw.energy_norm(st) for st in traj]
    assert max(np.diff(E)) <= 1e-12 * E[0]
