"""Cubic wave dynamics on the hyperboloidal slices.

The equation evolved here is the first-order system of the linear
generator with V = -1 plus the nonlinearity (0, -u^3). Three independent
routes are provided and cross-checked: a Picard/Duhamel fixed-point
iteration on the nodes of the exact propagator e^{ds L}, direct time
stepping of the semilinear system by Lawson's integrating-factor RK4
(the same propagator carries the linear part exactly, RK4 the cubic
term), and a plain (t,r) leapfrog solver of the equivalent flat-space
equation

    W_tt - W_rr = W (1 - W^2) / cosh^2 r,

connected by W(t,r) = u(t - log cosh r, tanh r).
"""

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.linalg import block_diag

from .coords import logcosh, phi, phi_inv
from .core_types import (
    EnergyState,
    OddField,
    Potential,
    Trajectory,
    _barycentric_matrix,
    _lagrange_weights,
    _mixed_from_samples,
    energy_norm,
    odd_extension,
    positive_half,
    slice_norms,
)
from .errors import (
    BlowUpError,
    ContractionFailureError,
    DomainError,
    InvalidArgumentError,
    InvalidDataError,
)
from .evolution import (
    _step_count,
    _stored_steps,
    assemble_generator,
    propagator,
)

DEFAULT_DATA_THRESHOLD = 0.05  # empirical smallness threshold
_REPORT_SAMPLES = 4000  # slice budget of the stability report


def _x_norm(times, U, grid):
    """L^3_s L^6_y + L^inf_s L^6_y of a (T, n/2) positive-half stack."""
    l6 = slice_norms(U, grid, 6)
    return _mixed_from_samples(times, l6, 3) + float(np.max(l6))


class PropagatorSet:
    """Exact step propagator of the discretized V = -1 generator.

    The one-step matrix is e^{ds L} on the odd sector, so repeated
    application is the discrete semigroup with no time-stepping error.
    """

    __slots__ = ("gen", "ds", "num_steps", "expm_step")

    def __init__(self, gen, ds, num_steps, expm_step):
        self.gen = gen
        self.ds = ds
        self.num_steps = num_steps
        self.expm_step = expm_step

    def times(self):
        return np.arange(self.num_steps + 1) * self.ds


def make_propagators(grid, ds, s_max):
    """PropagatorSet for V = -1 on the grid with step ds up to s_max."""
    if ds <= 0 or s_max < ds:
        raise InvalidArgumentError("need 0 < ds <= s_max")
    gen = assemble_generator(grid, Potential.constant(-1.0))
    return PropagatorSet(gen, ds, _step_count(s_max, ds, grid.n)[1],
                         propagator(gen, ds))


def duhamel_step(prop, f, g, source):
    """One application of the integral map: the new trajectory is

        u(s_i) = C(s_i) f + S(s_i) g - int_0^{s_i} S(s_i - s') u(s')^3 ds'

    (C(s) f and S(s) g are the first components of the evolutions of
    (f, 0) and (0, g)), with `source` supplying the u(s') slices and the
    integral evaluated by trapezoid on the propagator nodes. The running
    sums reuse the one-step matrix, so the whole sweep costs O(M) matrix
    applications.
    """
    gen = prop.gen
    grid = gen.grid
    if f.grid is not grid or g.grid is not grid or source.grid is not grid:
        raise InvalidDataError("fields and propagators on different grids")
    times = prop.times()
    if len(source.times) != len(times) or \
            np.max(np.abs(source.times - times)) > 1e-9:
        raise InvalidDataError("source trajectory nodes differ from the"
                               " propagator nodes")
    half = grid.n // 2
    M = prop.num_steps
    E = prop.expm_step
    ds = prop.ds

    # odd-sector reduction of the cubes: values at the positive nodes
    Y = np.zeros((M + 1, 2 * half), dtype=source.U.dtype)
    Y[:, half:] = source.U ** 3

    x_lin = gen.reduce_state(EnergyState(f, g))
    out = np.empty((M + 1, 2 * half), dtype=np.result_type(Y, x_lin))
    out[0] = x_lin
    for i in range(1, M + 1):
        x_lin = E @ x_lin
        if i == 1:
            B = 0.5 * (E @ Y[0])
        else:
            B = E @ (B + Y[i - 1])
        out[i] = x_lin - ds * (B + 0.5 * Y[i])
    return gen.trajectory(times, out, ds)


@dataclass
class PicardRun:
    """Record of the iteration u_{n+1} = K(u_n), u_0 = 0: the last
    iterate, the X-norms of all (u_0 included) and K's propagators."""
    final: Trajectory
    x_norms: List[float]
    deltas: List[float]          # ||u_{n+1} - u_n||_X
    ratios: List[float]          # deltas[n] / deltas[n-1]
    converged: bool
    prop: PropagatorSet


def picard_solve(f, g, s_max, ds, max_iter=25, tol=1e-10,
                 data_threshold=DEFAULT_DATA_THRESHOLD):
    """Iterate the Duhamel map from u_0 = 0 until the X-norm increments
    stop moving.

    Requires max_iter >= 1 and energy_norm(f, g) below the smallness
    threshold. Three consecutive increment ratios above 1 abort with a
    contraction failure.
    """
    if max_iter < 1:
        raise InvalidArgumentError(f"max_iter >= 1 required, got {max_iter}")
    grid = f.grid
    init = EnergyState(f, g)
    e0 = energy_norm(init)
    if e0 >= data_threshold:
        raise InvalidArgumentError(
            f"data energy norm {e0:.3e} is not below the smallness"
            f" threshold {data_threshold}")
    prop = make_propagators(grid, ds, s_max)
    times = prop.times()
    zeros = np.zeros((times.size, grid.n // 2))
    cur = Trajectory.from_halves(grid, times, zeros, zeros, step=ds)
    x_norms = [0.0]
    deltas = []
    ratios = []
    bad_streak = 0
    converged = False
    for _ in range(max_iter):
        nxt = duhamel_step(prop, f, g, cur)
        d = _x_norm(times, nxt.U - cur.U, grid)
        cur = nxt
        x_norms.append(_x_norm(times, cur.U, grid))
        if deltas:
            r = d / deltas[-1] if deltas[-1] > 0 else 0.0
            ratios.append(r)
            bad_streak = bad_streak + 1 if r > 1.0 else 0
            if bad_streak >= 3:
                raise ContractionFailureError(
                    "X-norm increments grew for three consecutive"
                    " iterates; data too large for the contraction")
        deltas.append(d)
        if d <= tol:
            converged = True
            break
    return PicardRun(final=cur, x_norms=x_norms, deltas=deltas,
                     ratios=ratios, converged=converged, prop=prop)


def fixed_point_residual(prop, f, g, traj):
    """sup_s L^6 distance between a trajectory and its Duhamel image."""
    image = duhamel_step(prop, f, g, traj)
    return float(np.max(slice_norms(image.U - traj.U, prop.gen.grid, 6)))


def nonlinear_evolve_direct(f, g, s_max, ds=None, store_every=1):
    """Lawson RK4 time stepping of the full semilinear odd-sector system.

    E = e^{h L} and Eh = e^{h L/2} (h = ds) carry the linear part exactly;
    RK4 integrates c(x) = (0, -x_u^3) in the interaction picture, so ds is
    set by accuracy in u^3 alone (default 4/n^2):

        k1 = c(x),  k2 = c(Eh x + h/2 Eh k1),  k3 = c(Eh x + h/2 k2),
        k4 = c(E x + h Eh k3),  x' = E x + h/6 (E k1 + 2 Eh (k2 + k3) + k4).

    c reads only the u-half and writes only the v-half, so k2 has a zero
    u-half and k3 = c(Eh x) needs no product; the stages use only the
    u-rows of Eh on the v-columns (K) and the update only the v-columns of
    E and Eh. A step is three products: x -> x_u, (Eh x)_u, E x (and the
    linear reference E x_lin); the first two cubes -> both remaining stage
    arguments; all four cubes -> x' - E x. An L^6 norm above 10x the
    running linear bound (or the initial norm), or not finite, is a blow-up.
    """
    grid = f.grid
    gen = assemble_generator(grid, Potential.constant(-1.0))
    ds, M = _step_count(s_max, ds, grid.n)
    n, half = grid.n, grid.n // 2
    E, Eh = propagator(gen, ds), propagator(gen, 0.5 * ds)
    K = Eh[:half, half:]
    # row-vector form throughout: a state x is a row and M x is x @ M.T
    S = np.hstack([np.eye(n)[:, :half], Eh[:half].T, E.T])
    B = block_diag(-(0.5 * ds) * K.T, -ds * K.T)
    G = (-ds / 6.0) * np.vstack([E[:, half:].T, 2.0 * Eh[:, half:].T,
                                 2.0 * Eh[:, half:].T, np.eye(n)[half:]])

    X = np.stack([gen.reduce_state(EnergyState(f, g))] * 2)  # x, x_lin
    Y = np.empty((2, 2 * n), dtype=X.dtype)  # rows [x_u | (Eh x)_u | E x]
    cubes = np.empty(2 * n, dtype=X.dtype)  # stage u-args cubed: 1, 3, 2, 4
    sq = np.empty(n, dtype=X.dtype)
    x, x_lin, c13, c24 = X[0], X[1], cubes[:n], cubes[n:]
    y13, y24, Ex, Ex_lin = Y[0, :n], Y[0, half:n + half], Y[0, n:], Y[1, n:]

    bound = slice_norms(x[:half], grid, 6)
    steps = _stored_steps(M, store_every)
    rows = np.empty((steps.size, n), dtype=X.dtype)
    rows[0] = x
    for i in range(1, M + 1):
        np.matmul(X, S, out=Y)
        # cubes as a*a*a: pow() is slow on negative bases
        np.multiply(y13, y13, out=sq)
        np.multiply(sq, y13, out=c13)
        np.matmul(c13, B, out=c24)
        c24 += y24
        np.multiply(c24, c24, out=sq)
        c24 *= sq
        np.matmul(cubes, G, out=x)
        x += Ex
        x_lin[:] = Ex_lin
        if i % 25 == 0 or i == M:
            l6, l6_lin = slice_norms(X[:, :half], grid, 6)
            bound = max(bound, l6_lin)
            if not l6 <= 10.0 * bound:
                raise BlowUpError(
                    f"L^6 norm at s = {i * ds:.3f} is not finite or exceeds"
                    " 10x the linear reference bound; blow-up detected")
        if i % store_every == 0 or i == M:
            rows[-(-i // store_every)] = x
    return gen.trajectory(steps * ds, rows, ds)


def _lagrange_rows(xs, grid_pts, h, lo):
    """Indices and weights of 4-point Lagrange interpolation on a uniform
    grid (grid_pts = lo + k*h) for each x in xs."""
    idx0 = np.floor((xs - lo) / h).astype(int) - 1
    idx0 = np.clip(idx0, 0, len(grid_pts) - 4)
    return idx0, _lagrange_weights(grid_pts[idx0[:, None] + np.arange(4)], xs)


def _level_line_seed(traj, s_line, y_line, stride=1):
    """W and W_t at the level-line points (s_line[k], y_line[k]): a cubic
    spline in s of every stride-th stored slice, interpolated in y; zero
    where s_line < 0, before the data.

    Only the positive-node half is fitted: a spline is linear in its data
    and odd data give odd slices, so the odd extension of the half fit is
    the full fit bit for bit at half the cost.
    """
    # imported at its one call site: scipy.interpolate is slow to load
    from scipy.interpolate import CubicSpline

    times = traj.times[::stride]
    spline_u = CubicSpline(times, traj.U.real[::stride], axis=0)
    spline_v = CubicSpline(times, traj.V.real[::stride], axis=0)
    W = np.zeros(s_line.size)
    Wt = np.zeros(s_line.size)
    ok = s_line >= 0.0
    # row k of the weights interpolates the slice at s_line[k] to y_line[k]
    weights = _barycentric_matrix(traj.grid, y_line[ok])
    W[ok] = np.einsum("kj,kj->k", weights,
                      odd_extension(spline_u(s_line[ok])))
    Wt[ok] = np.einsum("kj,kj->k", weights,
                       odd_extension(spline_v(s_line[ok])))
    return W, Wt


def _cross_check_steps(s1):
    """Step counts that cauchy_cross_check tries for its hyperboloidal
    solve to s1, coarsest first: the fewest even count at a step of at
    most 1e-2, doubled while below the count at step 2e-3, which closes
    the list. Even counts keep s1 on the slices shared with the solve at
    twice the step, and each count but the last doubles the one before,
    so that the solve at twice the step is the previous try's."""
    if not np.isfinite(s1 / 2e-3):
        raise InvalidArgumentError("s1 / 2e-3 overflows")
    finest = int(np.ceil(s1 / 2e-3 - 1e-12))
    count = 2 * int(np.ceil(s1 / 2e-2 - 1e-12))
    counts = []
    while count < finest:
        counts.append(count)
        count *= 2
    return counts + [finest]


def cauchy_cross_check(f, g, s0=4.0, s1=5.0, y_max=0.9, r_max=20.0,
                       dr=1.0 / 64):
    """Independent (t,r) leapfrog check of the hyperboloidal solver.

    Runs the hyperboloidal solver to s1, seeds the flat-space leapfrog on
    the level line t = s0 by interpolating the stored slices along
    s = s0 - log cosh r (zero beyond the data region: those points lie
    outside the domain of influence of the comparison set, which the
    domain guard enforces), steps to the comparison times, and returns
    the max difference on the s = s1 slice restricted to |y| <= y_max.

    The hyperboloidal step is sized from an error estimate. Each step
    count of _cross_check_steps is tried in turn. A run is accepted once
    its estimated error in the discrepancy is at most 1e-3 of the
    discrepancy; the last count, a step of 2e-3, is accepted without an
    estimate. The error is estimated on the domain of dependence of the
    compared slice, |r| <= r_cmp + (t_end - s0), as the seed error
    sup|dW| + (t_end - s0) sup|dW_t| plus the solve's error on the
    compared slice. The seed error adds a spline part, the fit of every
    other slice against the fit of every slice, and a Lawson part, the
    solve at twice the step against this one on their shared slices; both
    are fourth order, so each difference is divided by 15 (step doubling,
    Hairer, Norsett & Wanner, Solving ODEs I, II.4).
    """
    if abs(y_max) > 0.9:
        raise InvalidArgumentError("|y_max| <= 0.9 required")
    if not (s0 < s1 <= s0 + 2.0):
        raise InvalidArgumentError("need s0 < s1 <= s0 + 2")
    if not 0.0 < dr <= 0.5 * r_max:
        raise InvalidArgumentError("need 0 < dr <= r_max / 2")
    grid = f.grid
    mask = np.abs(grid.nodes) <= y_max
    if not np.any(mask):
        raise InvalidArgumentError(f"no grid node has |y| <= y_max = {y_max}")

    r_cmp = np.arctanh(y_max)
    t_end = s1 + float(logcosh(np.asarray(r_cmp)))
    # radius inside which the t = s0 line carries actual data (s >= 0)
    r_data = np.arccosh(np.exp(s0))
    if r_data - (t_end - s0) < r_cmp + 0.5:
        raise DomainError(
            "comparison cone reaches the zero-filled region: increase s0"
            " or reduce y_max / s1")
    if r_max < r_cmp + (t_end - s0) + 1.0:
        raise DomainError(f"r_max = {r_max} too small for the requested"
                          " slice")

    # the leapfrog's level line t = s0, and the points of it and the
    # hyperboloidal nodes in the domain of dependence of the compared slice
    nr = int(round(2.0 * r_max / dr)) + 1
    r = -r_max + dr * np.arange(nr)
    s_line, y_line = phi_inv((s0, r))
    span = t_end - s0
    dep = np.abs(r) <= r_cmp + span
    # positive nodes, as stored: the sets are mirror-symmetric and the
    # slices odd, so each max |.| below is the all-node one
    y_dep = positive_half(grid.nodes) <= np.tanh(r_cmp + span)
    pos_mask = positive_half(mask)

    dt = 0.5 * dr
    nt = int(np.ceil(span / dt)) + 3
    cosh2 = np.cosh(r) ** 2
    t_levels = s0 + dt * np.arange(nt + 1)

    def accel(W):
        a = np.zeros_like(W)
        a[1:-1] = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / dr ** 2
        a += W * (1.0 - W ** 2) / cosh2
        a[0] = 0.0
        a[-1] = 0.0
        return a

    def leapfrog_discrepancy(u_end, W0, Wt0):
        levels = np.zeros((nt + 1, nr))
        levels[0] = W0
        W1 = W0 + dt * Wt0 + 0.5 * dt ** 2 * accel(W0)
        W1[0] = 0.0
        W1[-1] = 0.0
        levels[1] = W1
        for m in range(1, nt):
            Wn = 2.0 * levels[m] - levels[m - 1] + dt ** 2 * accel(levels[m])
            Wn[0] = 0.0
            Wn[-1] = 0.0
            levels[m + 1] = Wn
        if not np.all(np.isfinite(levels)):
            raise BlowUpError("Cauchy leapfrog produced non-finite values;"
                              " the data are too large for the step dr/2")

        # 4 x 4 Lagrange interpolation of the levels at the compared
        # nodes (the domain guard keeps their stencils inside the levels),
        # zero elsewhere; OddField checks and projects the parity
        t, rr = phi((s1, grid.nodes[mask]))
        it, wt = _lagrange_rows(t, t_levels, dt, t_levels[0])
        ir, wr = _lagrange_rows(rr, r, dr, r[0])
        four = np.arange(4)
        block = levels[(it[:, None] + four)[:, :, None],
                       (ir[:, None] + four)[:, None]]
        pulled = np.zeros(grid.n)
        pulled[mask] = (wt[:, None] @ block @ wr[:, :, None])[:, 0, 0]
        pulled = OddField(grid, pulled).half[pos_mask]
        return float(np.max(np.abs(pulled - u_end[pos_mask])))

    def run(steps):
        traj = nonlinear_evolve_direct(f, g, s1, ds=s1 / steps)
        W0, Wt0 = _level_line_seed(traj, s_line, y_line)
        return traj, W0, Wt0, leapfrog_discrepancy(traj.U[-1], W0, Wt0)

    *tries, finest = _cross_check_steps(s1)
    coarse = None
    for steps in tries:
        traj, W0, Wt0, disc = run(steps)
        if coarse is None:
            coarse = nonlinear_evolve_direct(f, g, s1, ds=s1 / (steps // 2))
        W2, Wt2 = _level_line_seed(traj, s_line[dep], y_line[dep], stride=2)
        spline_w = np.max(np.abs(W2 - W0[dep])) / 15.0
        spline_wt = np.max(np.abs(Wt2 - Wt0[dep])) / 15.0
        lawson_w, lawson_wt = (
            np.max(np.abs(fine[::2, y_dep] - half[:, y_dep])) / 15.0
            for fine, half in ((traj.U, coarse.U), (traj.V, coarse.V)))
        # the seed error carried to the compared slice, plus the solve's
        # own error on that slice
        bound = spline_w + lawson_w + span * (spline_wt + lawson_wt) \
            + lawson_w
        # zero data give a zero bound and a zero discrepancy: accepted
        if bound <= 1e-3 * disc:
            return disc
        coarse = traj
    return run(finest)[-1]


def _report_stride(num_steps):
    """Stride at which the stability report reads a run of num_steps
    steps: every slice of a run shorter than 2 _REPORT_SAMPLES steps,
    otherwise between _REPORT_SAMPLES and 2 _REPORT_SAMPLES of them."""
    return max(1, num_steps // _REPORT_SAMPLES)


def _lawson_substeps(ds, s_max, n):
    """Direct-solver steps per Picard step ds, for one direct solve that
    serves both the Picard comparison and the stability report.

    The fewest whose step ds/sub is no coarser than the coarser of the
    default step 4/n^2 and the report's sample spacing s_max /
    _REPORT_SAMPLES. The Lawson step is exact in the linear part, so the
    Picard step already resolves the cubic term; the finer step only sets
    how densely the report samples the L^6 decay.
    """
    coarsest = max(_step_count(s_max, None, n)[0], s_max / _REPORT_SAMPLES)
    # a quotient that rounds just above a whole number adds no substep
    return int(np.ceil(ds / coarsest * (1.0 - 1e-12)))


def _stability_summary(traj, s_max, every=1):
    """The asymptotic_stability_report summary of a direct-solver
    trajectory over [0, s_max], read at its slices 0, every, 2 every, ...
    and the last."""
    keep = _stored_steps(len(traj) - 1, every)
    times = traj.times[keep]
    l6 = slice_norms(traj.U[keep], traj.grid, 6)
    tail_sel = times >= 0.5 * s_max
    late = (times >= 0.5 * s_max) & (l6 > 1e-14)
    if np.sum(late) >= 2:
        rate = float(np.polyfit(times[late], np.log(l6[late]), 1)[0])
    else:
        rate = 0.0
    return {
        "l3_l6": _mixed_from_samples(times, l6, 3),
        "linf_l6": float(np.max(l6)),
        "tail_l3_l6": _mixed_from_samples(times[tail_sel], l6[tail_sel], 3),
        "decay_rate": rate,
        "s_max": float(s_max),
        "num_slices": int(times.size),
    }


def asymptotic_stability_report(f, g, s_max, ds=None):
    """Decay summary of one nonlinear evolution.

    Reports the X-norm pieces over [0, s_max], the last-half L^3 L^6 tail,
    and a log-linear fit of the L^6 decay over the late window, from about
    _REPORT_SAMPLES slices of a direct solve at step ds (default 4/n^2).
    """
    ds, M = _step_count(s_max, ds, f.grid.n)
    traj = nonlinear_evolve_direct(f, g, s_max, ds=ds,
                                   store_every=_report_stride(M))
    return _stability_summary(traj, s_max)
