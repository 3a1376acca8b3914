"""The one stored layout of odd data: OddField and Trajectory hold the
samples at the positive nodes, every public operation keeps the data odd
bit for bit, and the solvers never expand to all nodes."""

import operator
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperwave as hw
from hyperwave import free_wave, strichartz_harness
from hyperwave.core_types import odd_extension, positive_half
from hyperwave.strichartz_harness import EnsembleSpec


def _assert_odd(field):
    """values == -values[::-1] and positive_half(values) == half, bit for
    bit (signed zeros included)."""
    v = field.values
    assert v.tobytes() == (-v[::-1]).tobytes()
    assert positive_half(v).tobytes() == field.half.tobytes()


def _assert_odd_state(state):
    _assert_odd(state.u)
    _assert_odd(state.v)


def _halves(rng, T, h, cplx):
    H = rng.standard_normal((T, h))
    return H + 1j * rng.standard_normal((T, h)) if cplx else H


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([8, 16, 32]), cplx=st.booleans(),
       c=st.floats(-10.0, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_every_public_operation_preserves_parity(n, cplx, c, seed):
    rng = np.random.default_rng(seed)
    grid = hw.make_grid(n)
    H, K = _halves(rng, 2, n // 2, cplx), _halves(rng, 3, n // 2, cplx)
    # all-node input with an even defect inside the parity tolerance
    even = rng.standard_normal(n // 2)
    v = odd_extension(H[0]) + 1e-9 * np.concatenate([even[::-1], even])
    fields = [hw.OddField(grid, v), hw.OddField.from_half(grid, H[1])]
    a, b = fields
    fields += [a + b, a - b, a * c, c * b]
    for f in fields:
        _assert_odd(f)
    traj = hw.Trajectory.from_halves(grid, [0.0, 0.5, 1.0], K, 2.0 * K)
    for i in range(len(traj)):
        _assert_odd_state(traj[i])
    gen = hw.assemble_generator(grid, hw.Potential.constant(-1.0))
    state = hw.EnergyState(a, b)
    _assert_odd_state(gen.apply(state))
    for st_ in hw.evolve(gen, state, 0.1, ds=0.05):
        _assert_odd_state(st_)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16, 64]), d=st.integers(1, 8),
       s_max=st.floats(0.1, 20.0), slices=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_free_trajectory_is_the_positive_half_of_the_all_node_solution(
        n, d, s_max, slices, seed):
    grid = hw.make_grid(n)
    rng = np.random.default_rng(seed)
    cf, cg = np.zeros((2, 2 * d))
    cf[1::2], cg[1::2] = rng.standard_normal((2, d))
    traj = free_wave.free_trajectory(cf, cg, grid, s_max, s_max / slices)
    sol = free_wave.from_chebyshev(grid, cf, cg)
    s = traj.times[:, None]
    for stack, full in ((traj.U, free_wave.evaluate(sol, s, grid.nodes)),
                        (traj.V, free_wave.ds_evaluate(sol, s, grid.nodes))):
        assert stack.tobytes() == positive_half(full).tobytes()


def test_solvers_and_scans_never_expand_to_all_nodes(monkeypatch):
    grid = hw.make_grid(16)
    y = grid.nodes
    f = hw.OddField(grid, 0.01 * y * np.exp(-(y / 0.6) ** 2))
    g = hw.OddField.zero(grid)
    gen = hw.assemble_generator(grid, hw.Potential.constant(-1.0))
    spec = EnsembleSpec(count=3, band_limit=3, seed=1)
    calls = []

    def counting(half):
        calls.append(half.shape)
        return odd_extension(half)

    for name, module in list(sys.modules.items()):
        if name.startswith("hyperwave") and hasattr(module, "odd_extension"):
            monkeypatch.setattr(module, "odd_extension", counting)
    hw.evolve(gen, hw.EnergyState(f, g), 1.0)
    hw.nonlinear_evolve_direct(f, g, 1.0)
    hw.picard_solve(f, g, 1.0, 0.05)
    strichartz_harness.run_free_scan(spec, [(2.0, 4.0)], 2.0, grid=grid,
                                     num_slices=20)
    strichartz_harness.run_potential_scan(
        hw.Potential.constant(-1.0), spec, [(2.0, 4.0)], 2.0, grid=grid,
        num_slices=20)
    assert calls == []
    # the counter is live: reading all-node values goes through it
    assert f.values.shape == (grid.n,)
    assert calls == [(grid.n // 2,)]


def test_constructors_do_not_alias_the_callers_arrays():
    grid = hw.make_grid(8)
    h = np.arange(1.0, 5.0)
    f = hw.OddField.from_half(grid, h)
    H = np.outer(np.arange(1.0, 3.0), h)
    traj = hw.Trajectory.from_halves(grid, [0.0, 1.0], H, -H)
    h[:] = 0.0
    H[:] = 0.0
    assert h.flags.writeable and H.flags.writeable
    assert np.array_equal(f.half, np.arange(1.0, 5.0))
    assert np.array_equal(traj.U, np.outer([1.0, 2.0], np.arange(1.0, 5.0)))
    assert np.array_equal(traj.V, -traj.U)
    for a in (f.half, f.values, traj.U, traj.V):
        assert not a.flags.writeable


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_fields_on_different_grids_do_not_combine(op):
    a = hw.OddField.zero(hw.make_grid(8))
    with pytest.raises(hw.InvalidDataError, match="different grids"):
        op(a, hw.OddField.zero(hw.make_grid(16)))
    # equal nodes on another Grid object are the same grid
    c = hw.OddField.from_half(hw.make_grid(8), np.ones(4))
    assert np.array_equal(op(a, c).half, op(np.zeros(4), np.ones(4)))
