"""Slice-norm kernels, array-backed trajectories, and the complex-safe
Taylor data of CLI polynomial potentials."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import hyperwave as hw
from hyperwave import cli, free_wave
from hyperwave.core_types import (
    _horner,
    _odd_part,
    odd_extension,
    odd_fold,
    positive_half,
    slice_energies,
    slice_norms,
)
from hyperwave.strichartz_harness import _store_norms

QS = (2.0, 4.0, 6.0, 8.0, np.inf)


@st.composite
def odd_stacks(draw, count=1):
    """A grid and `count` random odd (T, n) sample stacks on it."""
    n = draw(st.sampled_from([8, 16, 32]))
    T = draw(st.integers(1, 6))
    grid = hw.make_grid(n)
    stacks = []
    for _ in range(count):
        half = draw(hnp.arrays(float, (T, n // 2), elements=st.integers(
            -1000, 1000).map(lambda k: k / 100.0)))
        stacks.append(np.concatenate([-half[:, ::-1], half], axis=1))
    return grid, stacks


@settings(max_examples=50, deadline=None)
@given(odd_stacks(count=2))
def test_kernels_match_per_slice_norms(data):
    grid, (U, V) = data
    H, K = positive_half(U), positive_half(V)
    energies = slice_energies(H, K, grid)
    for i in range(U.shape[0]):
        u, v = hw.OddField(grid, U[i]), hw.OddField(grid, V[i])
        want = hw.energy_norm(hw.EnergyState(u, v))
        assert energies[i] == pytest.approx(want, rel=1e-13, abs=0.0)
        for q in QS:
            assert slice_norms(H, grid, q)[i] == pytest.approx(
                hw.lq_norm(u, q), rel=1e-13, abs=0.0)


def _slice_energies_reference(U, V, grid):
    """slice_energies on positive-half stacks as one plain expression:
    the reference its in-place form must match bit for bit."""
    dU = U @ grid.half_diff.T
    return np.sqrt(np.abs(dU) ** 2 @ grid.half_grad_weights
                   + np.abs(V) ** 2 @ grid.half_weights)


@pytest.mark.parametrize("shape", [(64,), (1, 64), (7, 32), (2049, 64)])
def test_slice_energies_bitwise_as_before(shape):
    rng = np.random.default_rng(len(shape) * shape[0])
    grid = hw.make_grid(2 * shape[-1])
    U, V = rng.standard_normal(shape), rng.standard_normal(shape)
    cU, cV = U + 1j * rng.standard_normal(shape), V - 1j * U
    for u, v in ((U, V), (cU, cV), (U, cV), (cU, V)):
        keep = u.copy(), v.copy()
        got = slice_energies(u, v, grid)
        want = _slice_energies_reference(u, v, grid)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(u, keep[0]) and np.array_equal(v, keep[1])


def _all_node_norms(U, grid, q):
    """L^q norms of the rows of all-node sample stacks, summed over every
    node with the quadrature weights."""
    a = np.abs(U)
    if np.isinf(q):
        return np.max(a, axis=-1)
    return (a ** q @ grid.quad_weights) ** (1.0 / q)


def _all_node_energies(U, V, grid):
    """Energy norms of the rows of all-node sample stacks of u and v."""
    dU = U @ grid.diff_matrix.T
    w = grid.quad_weights
    return np.sqrt(np.abs(dU) ** 2 @ (w * (1.0 - grid.nodes ** 2))
                   + np.abs(V) ** 2 @ w)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(4, 256), T=st.integers(1, 5), cplx=st.booleans(),
       q=st.sampled_from([1.0, 2.0, 3.5, 4.0, 6.0, np.inf]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_half_kernels_equal_all_node_sums(h, T, cplx, q, seed):
    # |u|^q and (1 - y^2)|u'|^2 are even for odd u: the positive-half sums
    # with doubled weights are the all-node sums, up to round-off (the
    # Fejer weights are not bitwise symmetric)
    grid = hw.make_grid(2 * h)
    rng = np.random.default_rng(seed)
    H, K = rng.standard_normal((2, T, h))
    if cplx:
        H = H + 1j * rng.standard_normal((T, h))
        K = K - 1j * rng.standard_normal((T, h))
    U, V = odd_extension(H), odd_extension(K)
    got, want = slice_norms(H, grid, q), _all_node_norms(U, grid, q)
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    got, want = slice_energies(H, K, grid), _all_node_energies(U, V, grid)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None)
# a stack of 19,200 samples: the powers go through the spare in 3 chunks
@example(h=32, k=40, members=15, qs=[3, 4, 6], cplx=False, layout="stack",
         scale=0, seed=1)
@given(h=st.integers(4, 64), k=st.integers(1, 16), members=st.integers(1, 9),
       qs=st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True),
       cplx=st.booleans(),
       layout=st.sampled_from(["stack", "block", "transposed"]),
       scale=st.integers(-3, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_integer_powers_agree_with_pow(h, k, members, qs, cplx, layout,
                                       scale, seed):
    # integer q is multiplied out; pow is the reference. "block" is the
    # potential scan's (k, M, n/2) block, "transposed" the free scan's
    # view of a (k, n/2, M) array; both spend the block
    grid = hw.make_grid(2 * h)
    rng = np.random.default_rng(seed)
    shape = (k, h, members) if layout == "transposed" else (k, members, h)
    values = rng.standard_normal(shape) * 10.0 ** scale
    if cplx:
        values = values + 1j * rng.standard_normal(shape) * 10.0 ** scale
    U = values.transpose(0, 2, 1) if layout == "transposed" else values
    want = {q: (np.abs(U) ** q @ grid.half_weights) ** (1.0 / q)
            for q in qs}
    if layout == "stack":
        got = {q: slice_norms(U, grid, q) for q in qs}
    else:
        got = {q: np.empty((k, members)) for q in map(float, qs)}
        work = np.empty(values.shape).transpose(0, 2, 1) \
            if layout == "transposed" else np.empty(values.shape)
        _store_norms(got, 0, U, grid, work)
    for q in qs:
        assert np.all(np.abs(got[q] - want[q]) <= 4 * EPS * want[q])


def test_store_norms_allocates_no_block_sized_temporary():
    # a block-sized temporary per call page-faults on every block
    grid = hw.make_grid(64)
    rng = np.random.default_rng(5)
    block = np.empty((16, 100, 32))
    work = np.empty(block.shape)
    norms = {q: np.empty((16, 100)) for q in (2.0, 4.0, 6.0)}
    block[...] = rng.standard_normal(block.shape)
    _store_norms(norms, 0, block, grid, work)  # warm
    block[...] = rng.standard_normal(block.shape)
    tracemalloc.start()
    try:
        _store_norms(norms, 0, block, grid, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block.nbytes // 4


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 16, 64, 256, 512]), d=st.integers(1, 12),
       members=st.integers(1, 40), k=st.integers(1, 16),
       s_max=st.floats(0.0, 40.0), seed=st.integers(0, 2 ** 32 - 1))
def test_free_solution_at_positive_nodes_is_the_positive_half(
        n, d, members, k, s_max, seed):
    # at the mirrored node the characteristic endpoints a and b swap
    # exactly, so the all-node evaluation is odd bit for bit and its
    # positive half is the evaluation at the positive nodes
    grid = hw.make_grid(n)
    rng = np.random.default_rng(seed)
    cf, cg = np.zeros((2, 2 * d, members))
    cf[1::2], cg[1::2] = rng.standard_normal((2, d, members))
    H = free_wave.antiderivative_columns(cf, cg)
    times = np.sort(rng.uniform(0.0, s_max, k))
    full = free_wave.evaluate_columns(H, times, grid.nodes)
    half = free_wave.evaluate_columns(H, times, positive_half(grid.nodes))
    if members > 1:
        assert np.array_equal(positive_half(full), half)
        assert np.array_equal(full[..., ::-1], -full)
    else:
        # one column is a matrix-vector product, whose summation order
        # depends on the row count: equal to round-off only
        scale = np.max(np.abs(full), axis=-1, keepdims=True)
        assert np.all(np.abs(positive_half(full) - half) <= 1e-14 * scale)


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([16, 32, 64]), amplitude=st.floats(0.01, 100.0),
       width=st.floats(0.4, 0.8), s_max=st.floats(0.5, 4.0))
def test_free_evolve_energy_never_rises(n, amplitude, width, s_max):
    # V = 0: the energy only leaves through the boundary. Bumps are kept
    # resolved: narrower than ~0.35 on 16 nodes, the collocated flow
    # itself gains up to 1e-3 of the energy in a step
    grid = hw.make_grid(n)
    gen = hw.assemble_generator(grid, hw.Potential.constant(0.0))
    y = grid.nodes
    init = hw.EnergyState(
        hw.OddField(grid, amplitude * y * np.exp(-(y / width) ** 2)),
        hw.OddField.zero(grid))
    traj = hw.evolve(gen, init, s_max)
    E = slice_energies(traj.U, traj.V, grid)
    assert np.all(np.diff(E) <= 0.0)


@settings(max_examples=50, deadline=None)
@given(odd_stacks(), st.data())
def test_stacked_odd_part_rejects_non_odd_rows(data, draw):
    # the stacked parity check of the scans' node fields holds each row to
    # the OddField tolerance on its own
    grid, (U,) = data
    row = draw.draw(st.integers(0, U.shape[0] - 1))
    col = draw.draw(st.integers(0, grid.n - 1))
    bad = U.copy()
    bad[row, col] += 1e-3 * max(1.0, np.max(np.abs(U[row])))
    assert np.array_equal(_odd_part(grid, U, 2), positive_half(U))
    with pytest.raises(hw.InvalidDataError, match="not odd"):
        _odd_part(grid, bad, 2)


@settings(max_examples=50, deadline=None)
@given(odd_stacks(count=2))
def test_trajectory_states_view_matches_rows(data):
    grid, (U, V) = data
    traj = hw.Trajectory.from_halves(grid, np.arange(U.shape[0]) * 0.5,
                                     positive_half(U), positive_half(V))
    assert not traj.U.flags.writeable and not traj.V.flags.writeable
    assert len(traj) == U.shape[0]
    for i, st_ in enumerate(traj):
        assert np.array_equal(odd_extension(st_.u.half),
                              odd_extension(traj.U[i]))
        assert np.array_equal(odd_extension(st_.v.half),
                              odd_extension(traj.V[i]))
        assert np.array_equal(odd_extension(traj[i].u.half), U[i])


@settings(max_examples=50, deadline=None)
@given(odd_stacks(count=2), st.booleans())
def test_positive_half_constructors_match_checked_ones(data, cplx):
    grid, (U, V) = data
    H, K = positive_half(U), positive_half(V)
    if cplx:
        H = H + 1j * K
    U, V = odd_extension(H), odd_extension(K)
    assert odd_fold(U).tobytes() == H.tobytes()
    times = np.arange(U.shape[0]) * 0.5
    got = hw.Trajectory.from_halves(grid, times, H, K)
    # equal up to the sign of zero, which the complex projection's
    # multiplication by 0.5 + 0j does not keep
    for stack, rows in ((got.U, U), (got.V, V)):
        assert not stack.flags.writeable
        for a, u in zip(stack, rows):
            b = hw.OddField(grid, u).half
            assert a.dtype == b.dtype and np.array_equal(a, b)
    f = hw.OddField.from_half(grid, H[0])
    assert not f.half.flags.writeable
    assert np.array_equal(odd_extension(f.half),
                          odd_extension(hw.OddField(grid, U[0]).half))


def test_positive_half_constructors_keep_the_data_checks():
    grid = hw.make_grid(16)
    H = np.outer(np.arange(1.0, 4.0), positive_half(grid.nodes))
    times = np.arange(3.0)
    for bad_value in (np.nan, np.inf):
        bad = H.copy()
        bad[1, 2] = bad_value
        with pytest.raises(hw.InvalidDataError, match="non-finite"):
            hw.Trajectory.from_halves(grid, times, bad, H)
        with pytest.raises(hw.InvalidDataError, match="non-finite"):
            hw.Trajectory.from_halves(grid, times, H, bad)
        with pytest.raises(hw.InvalidDataError, match="non-finite"):
            hw.OddField.from_half(grid, bad[1])
    with pytest.raises(hw.InvalidDataError, match="shape"):
        hw.Trajectory.from_halves(grid, times, odd_extension(H), H)
    with pytest.raises(hw.InvalidDataError, match="shape"):
        hw.OddField.from_half(grid, grid.nodes)
    with pytest.raises(hw.InvalidDataError, match="increasing"):
        hw.Trajectory.from_halves(grid, times[::-1], H, H)
    with pytest.raises(hw.InvalidDataError, match="length"):
        hw.Trajectory.from_halves(grid, times[:2], H, H)


def test_cli_even_poly_is_complex_safe():
    V = cli._build_potential({"kind": "even_poly", "coeffs": [-1, 0.5]})
    z = 1.0 + 0.2 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(_horner(V.even_coeffs, z * z), -1.0 + 0.5 * z ** 2,
                       rtol=1e-15)
    # V = -1 + y^2/2 = -1/2 + (y-1) + (y-1)^2/2 about y = 1
    assert np.allclose(V.taylor_at_one(5), [-0.5, 1.0, 0.5, 0.0, 0.0],
                       rtol=0.0, atol=1e-13)


def test_taylor_at_one_fits_callables_with_real_output():
    # real output for complex input would make the Cauchy FFT return
    # Fourier coefficients of V(1 + rho cos theta)
    V = hw.Potential.from_callable(lambda y: np.real(y) ** 2 - 2.0)
    assert np.allclose(V.taylor_at_one(3), [-1.0, 2.0, 1.0], atol=1e-9)


def test_threads_flag_is_gone(tmp_path):
    cfg = tmp_path / "ev.json"
    cfg.write_text(json.dumps({"grid_n": 16, "data": {"kind": "linear"},
                               "s_max": 0.1}))
    with pytest.raises(SystemExit):
        cli.main(["evolve", "--config", str(cfg), "--out",
                  str(tmp_path / "o"), "--threads", "2"])
    assert cli.main(["evolve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert "threads" not in manifest


@pytest.mark.parametrize("store_every", [0, -3])
def test_evolve_rejects_bad_store_stride(store_every):
    g = hw.make_grid(16)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    init = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0 * y)
    with pytest.raises(hw.InvalidArgumentError):
        hw.evolve(gen, init, 0.1, store_every=store_every)
