"""Dense generator matrices, semigroup time stepping, Riesz projections,
and the growing/decaying-mode decomposition.

The first-order system evolved here is

    d/ds (f1, f2) = L (f1, f2),
    L (f1, f2) = (f2, (1-y^2) f1'' - 2y f1' - 2y f2' - f2 - V f1),

collocated at the parity-symmetric Chebyshev nodes. All states of
interest are odd, so the public 2n x 2n matrix is conjugated with the
parity projector, and time stepping runs on the equivalent odd-sector
reduction (one unknown per positive node, exact parity by construction,
and no spurious even-sector eigenvalues).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from .core_types import (
    EnergyState,
    OddField,
    Trajectory,
    energy_norm,
    slice_energies,
)
from .errors import (
    ContourAccuracyError,
    DivergenceError,
    InvalidArgumentError,
    NearEigenvalueError,
    SpectralAssumptionError,
)
from .spectral import find_sigma_v


def _odd_sector_maps(n):
    """Extension / restriction between odd fields on n nodes and their
    values at the n//2 positive nodes."""
    half = n // 2
    E1 = np.zeros((n, half))
    for k in range(half):
        E1[half + k, k] = 1.0
        E1[half - 1 - k, k] = -1.0
    R1 = 0.5 * E1.T
    return E1, R1


class GeneratorMatrix:
    """Discretized first-order generator for a fixed potential.

    `matrix` is the public parity-projected 2n x 2n operator; `reduced`
    is the equivalent n x n odd-sector matrix actually used for time
    stepping and resolvents (matrix = expand @ reduced @ restrict).
    """

    __slots__ = ("grid", "potential", "matrix", "reduced", "expand",
                 "restrict", "_eigs")

    def __init__(self, grid, potential, matrix, reduced, expand, restrict):
        self.grid = grid
        self.potential = potential
        self.matrix = matrix
        self.reduced = reduced
        self.expand = expand
        self.restrict = restrict
        self._eigs = None

    def apply(self, state):
        self._check_grid(state)
        n = self.grid.n
        w = self.matrix @ state.stacked()
        return EnergyState(OddField(self.grid, w[:n]),
                           OddField(self.grid, w[n:]))

    def reduced_eigenvalues(self):
        if self._eigs is None:
            self._eigs = np.linalg.eigvals(self.reduced)
        return self._eigs

    def _check_grid(self, state):
        if state.grid is not self.grid and not np.array_equal(
                state.grid.nodes, self.grid.nodes):
            raise InvalidArgumentError("state and generator grids differ")

    def reduce_state(self, state):
        self._check_grid(state)
        return self.restrict @ state.stacked()

    def expand_state(self, x):
        u, v = self.expand_rows(x)
        return EnergyState(OddField(self.grid, u), OddField(self.grid, v))

    def expand_rows(self, X):
        """Odd extensions (U, V) of reduced rows X of shape (..., n)."""
        half = self.grid.n // 2
        u, v = X[..., :half], X[..., half:]
        return (np.concatenate([-u[..., ::-1], u], axis=-1),
                np.concatenate([-v[..., ::-1], v], axis=-1))

    def trajectory(self, times, X, step):
        """Trajectory of the reduced rows X (one per time)."""
        U, V = self.expand_rows(X)
        return Trajectory.from_arrays(self.grid, times, U, V, step=step)

    def reduced_energy(self, x):
        """Energy norm of a reduced vector (or of each column of a batch)."""
        return slice_energies(*self.expand_rows(np.transpose(x)), self.grid)


def assemble_generator(grid, V):
    """Build the collocation matrix of the generator for potential V."""
    n = grid.n
    y = grid.nodes
    D = grid.diff_matrix
    Iden = np.eye(n)
    A = (1.0 - y ** 2)[:, None] * (D @ D) - 2.0 * y[:, None] * D \
        - np.diag(np.asarray(V(y), dtype=float))
    B = -2.0 * y[:, None] * D - Iden
    L = np.block([[np.zeros((n, n)), Iden], [A, B]])

    E1, R1 = _odd_sector_maps(n)
    Z = np.zeros_like(E1)
    E = np.block([[E1, Z], [Z, E1]])
    R = np.block([[R1, Z.T], [Z.T, R1]])
    reduced = R @ L @ E
    matrix = E @ reduced @ R  # parity projection composed on both sides
    return GeneratorMatrix(grid, V, matrix, reduced, E, R)


def propagator(gen, h):
    """The exact one-step matrix e^{h L} of the odd-sector generator."""
    return expm(h * gen.reduced)


def _step_count(s_max, ds, n):
    """Step size and number of steps over [0, s_max]. ds defaults to
    4/n^2, the spacing at which default runs store their slices."""
    if ds is None:
        ds = 4.0 / float(n) ** 2
    if ds <= 0:
        raise InvalidArgumentError("ds must be positive")
    if s_max < 0:
        raise InvalidArgumentError("s_max must be nonnegative")
    return ds, int(np.floor(s_max / ds + 1e-12))


def _stored_steps(num_steps, store_every):
    """Step indices kept in a trajectory: 0, every store_every-th step
    and the last one."""
    if store_every < 1:
        raise InvalidArgumentError("store_every must be >= 1")
    return np.unique(np.append(np.arange(0, num_steps + 1, store_every),
                               num_steps))


def _propagate(E, X, ds, num_steps, observer=None, observe_every=1,
               guard=None, guard_every=50):
    """Apply the one-step propagator E = e^{ds L} num_steps times to X, a
    vector or a column batch.

    observer(i, s, X) is called after selected steps; guard(i, s, X) may
    raise. The final X is returned.
    """
    for i in range(1, num_steps + 1):
        X = E @ X
        if observer is not None and (i % observe_every == 0 or i == num_steps):
            observer(i, i * ds, X)
        if guard is not None and (i % guard_every == 0 or i == num_steps):
            guard(i, i * ds, X)
    return X


def evolve(gen, init, s_max, ds=None, store_every=1):
    """Semigroup trajectory on the odd-sector system, stepped by the exact
    propagator e^{ds L}.

    Any ds > 0 is accepted; it sets the slice spacing only (default
    4/n^2). A norm growing past 10 e^{(max|V|+1)s} times the initial norm
    aborts with a divergence error (linear evolutions obey this bound
    with a wide margin).
    """
    ds, M = _step_count(s_max, ds, gen.grid.n)

    x = gen.reduce_state(init)
    norm0 = energy_norm(init)
    rate = gen.potential.max_abs() + 1.0

    steps = _stored_steps(M, store_every)
    rows = np.empty((steps.size, x.size), dtype=x.dtype)
    rows[0] = x

    def observer(i, s, X):
        rows[-(-i // store_every)] = X  # the last step may be off-stride

    def guard(i, s, X):
        if norm0 > 0 and gen.reduced_energy(X) \
                > 10.0 * np.exp(rate * s) * norm0:
            raise DivergenceError(
                f"norm at s = {s:.3f} exceeds 10 e^{{(max|V|+1)s}} times"
                " the initial norm")

    _propagate(propagator(gen, ds), x, ds, M, observer=observer,
               observe_every=store_every, guard=guard)
    return gen.trajectory(steps * ds, rows, ds)


# ---------------------------------------------------------------------------
# Resolvent and Riesz projection

class ResolventHandle:
    """LU-backed solve handle for (lambda I - L) on the odd sector."""

    __slots__ = ("gen", "lam", "_lu", "_reduced_inv")

    def __init__(self, gen, lam):
        self.gen = gen
        self.lam = lam
        half2 = gen.reduced.shape[0]
        self._lu = lu_factor(lam * np.eye(half2) - gen.reduced)
        self._reduced_inv = None

    def apply(self, state):
        x = self.gen.reduce_state(state).astype(complex)
        return self.gen.expand_state(lu_solve(self._lu, x))

    def reduced_matrix(self):
        if self._reduced_inv is None:
            half2 = self.gen.reduced.shape[0]
            self._reduced_inv = lu_solve(self._lu, np.eye(half2, dtype=complex))
        return self._reduced_inv


def resolvent_matrix(gen, lam):
    """Resolvent handle at lambda; refuses within 1e-6 of the reduced
    matrix spectrum."""
    lam = complex(lam)
    eigs = gen.reduced_eigenvalues()
    dist = float(np.min(np.abs(eigs - lam)))
    if dist < 1e-6:
        raise NearEigenvalueError(
            f"lambda = {lam:.6g} is within {dist:.2e} of a generator"
            " eigenvalue")
    return ResolventHandle(gen, lam)


def _as_complex(v):
    """Accept complex, real, or an (re, im) pair."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def _contour_nodes(contour):
    """Nodes and quadrature weights for (1/2 pi i) of the resolvent.

    Circle contours use the exact parametrization (spectrally accurate
    trapezoid); rectangles use composite trapezoid per edge.
    """
    kind = contour.get("kind", "circle")
    if kind == "circle":
        c = _as_complex(contour["center"])
        r = float(contour["radius"])
        M = int(contour.get("points", 64))
        if r <= 0 or M < 8:
            raise InvalidArgumentError("circle needs radius > 0, points >= 8")
        th = 2.0 * np.pi * np.arange(M) / M
        lams = c + r * np.exp(1j * th)
        w = (r / M) * np.exp(1j * th)  # (1/2pi i) * i r e^{i th} * (2pi/M)
        return lams, w
    if kind == "rect":
        re_lo, re_hi = map(float, contour["re"])
        im_lo, im_hi = map(float, contour["im"])
        M = int(contour.get("points", 512))
        corners = [re_lo + 1j * im_lo, re_hi + 1j * im_lo,
                   re_hi + 1j * im_hi, re_lo + 1j * im_hi]
        lams = []
        w = []
        for k in range(4):
            a, b = corners[k], corners[(k + 1) % 4]
            t = np.linspace(0.0, 1.0, M + 1)
            seg = a + t * (b - a)
            wt = np.full(M + 1, (b - a) / M)
            wt[0] *= 0.5
            wt[-1] *= 0.5
            lams.append(seg)
            w.append(wt)
        lams = np.concatenate(lams)
        w = np.concatenate(w) / (2j * np.pi)
        return lams, w
    raise InvalidArgumentError(f"unknown contour kind {kind!r}")


@dataclass
class RieszProjection:
    """Contour-quadrature spectral projection.

    `matrix` is the full 2n x 2n projection; `reduced` the odd-sector
    one, and `parts` the odd-sector projection of each contour in turn
    (their sum is `reduced`). `nilpotency[lam]` is the largest power k with
    (L - lam)^k P_lam nonzero at tolerance, i.e. the degree of the
    polynomial-in-s factor in the mode evolution (0 = no Jordan block).
    """
    contour_points: np.ndarray
    matrix: np.ndarray
    reduced: np.ndarray
    rank: int
    parts: List[np.ndarray] = field(default_factory=list)
    eigenvalues_inside: List[complex] = field(default_factory=list)
    multiplicity: Dict[complex, int] = field(default_factory=dict)
    nilpotency: Dict[complex, int] = field(default_factory=dict)

    def apply(self, gen, state):
        x = gen.reduce_state(state).astype(complex)
        return gen.expand_state(self.reduced @ x)


def _quadrature_projection(gen, lams, w):
    eigs = gen.reduced_eigenvalues()
    half2 = gen.reduced.shape[0]
    P = np.zeros((half2, half2), dtype=complex)
    Iden = np.eye(half2)
    for lam, wk in zip(lams, w):
        if float(np.min(np.abs(eigs - lam))) < 1e-6:
            raise ContourAccuracyError(
                f"contour node {lam:.6g} is within 1e-6 of the spectrum")
        P += wk * np.linalg.solve(lam * Iden - gen.reduced, Iden)
    return P


def _inside(contour, z):
    if contour.get("kind", "circle") == "circle":
        return abs(z - _as_complex(contour["center"])) < float(
            contour["radius"])
    re_lo, re_hi = map(float, contour["re"])
    im_lo, im_hi = map(float, contour["im"])
    return re_lo < z.real < re_hi and im_lo < z.imag < im_hi


def _matrix_rank_svd(P, threshold=1e-6):
    sv = np.linalg.svd(P, compute_uv=False)
    return int(np.sum(sv > threshold))


def _nilpotency_order(gen, lam, P):
    """Smallest k >= 0 such that (L - lam)^(k+1) P vanishes at tolerance."""
    half2 = gen.reduced.shape[0]
    A = gen.reduced - lam * np.eye(half2)
    scale = max(1.0, float(np.linalg.norm(P, 2)))
    tol = 1e-8 * (1.0 + abs(lam))
    Q = P.copy()
    for k in range(half2):
        Q = A @ Q
        if float(np.linalg.norm(Q, 2)) / scale <= tol:
            return k
    raise ContourAccuracyError(
        f"no nilpotency order found at lambda = {lam:.6g}")


def riesz_projection(gen, contour):
    """Trapezoid contour quadrature of the resolvent.

    contour: {"kind": "circle", "center", "radius", "points"} or
    {"kind": "rect", "re": (lo, hi), "im": (lo, hi), "points"}; a list of
    such dicts sums the projections of disjoint contours.
    """
    contours = contour if isinstance(contour, (list, tuple)) else [contour]
    lam_all = []
    parts = []
    P = np.zeros_like(gen.reduced, dtype=complex)
    for c in contours:
        lams, w = _contour_nodes(c)
        lam_all.append(lams)
        parts.append(_quadrature_projection(gen, lams, w))
        P += parts[-1]
    lam_all = np.concatenate(lam_all)

    rank = _matrix_rank_svd(P)
    eigs = gen.reduced_eigenvalues()
    inside = [complex(z) for z in eigs
              if any(_inside(c, complex(z)) for c in contours)]
    # cluster discretization eigenvalues that approximate one spectral point
    clusters = []
    for z in sorted(inside, key=lambda q: (q.real, q.imag)):
        for cl in clusters:
            if abs(z - cl[0]) < 1e-6:
                cl.append(z)
                break
        else:
            clusters.append([z])

    multiplicity = {}
    nilpotency = {}
    for cl in clusters:
        lam_c = complex(np.mean(cl))
        others = [complex(np.mean(c2)) for c2 in clusters if c2 is not cl]
        sep = min([abs(lam_c - o) for o in others], default=np.inf)
        radius = min(0.25, 0.45 * sep)
        small = {"kind": "circle", "center": lam_c, "radius": radius,
                 "points": 128}
        lams_s, w_s = _contour_nodes(small)
        P_lam = _quadrature_projection(gen, lams_s, w_s)
        multiplicity[lam_c] = _matrix_rank_svd(P_lam)
        nilpotency[lam_c] = _nilpotency_order(gen, lam_c, P_lam)

    matrix = gen.expand @ P @ gen.restrict
    return RieszProjection(contour_points=lam_all, matrix=matrix, reduced=P,
                           rank=rank, parts=parts, eigenvalues_inside=inside,
                           multiplicity=multiplicity, nilpotency=nilpotency)


# ---------------------------------------------------------------------------
# Decomposition

@dataclass
class UnstableMode:
    """One exponential-polynomial mode: e^{lam s} sum_k s^k phi_k."""
    lam: complex
    phis: List[EnergyState]  # phi_k = (1/k!) (L-lam)^k P_lam init, k <= n(lam)

    def state_at(self, s):
        u = v = 0.0
        for k, ph in enumerate(self.phis):
            c = np.exp(self.lam * s) * s ** k
            u = u + ph.u.values * c
            v = v + ph.v.values * c
        return [u, v]


@dataclass
class DecomposedEvolution:
    """Spectral splitting of a linear trajectory.

    unstable_modes carries the finite-rank exponential part; the stable
    trajectory is the semigroup evolution of the spectrally-projected
    remainder (I - P) init.
    """
    unstable_modes: List[UnstableMode]
    stable_trajectory: Trajectory
    projection: Optional[RieszProjection]

    def unstable_state(self, s):
        grid = self.stable_trajectory.grid
        uv = np.zeros((2, grid.n), dtype=complex)
        for mode in self.unstable_modes:
            uv += mode.state_at(s)
        return EnergyState(OddField(grid, uv[0]), OddField(grid, uv[1]))

    def total_state(self, index):
        """Unstable + stable at the index-th stored time."""
        traj = self.stable_trajectory
        un = self.unstable_state(traj.times[index])
        return EnergyState(OddField(traj.grid, traj.U[index] + un.u.values),
                           OddField(traj.grid, traj.V[index] + un.v.values))


def _growing_modes(V, window, grid, consequence):
    """Right-half-plane spectral points of V in the window; an
    imaginary-axis point violates the spectral assumption."""
    roots = find_sigma_v(V, window=window, grid=grid)
    axis = [r.lam for r in roots if abs(r.lam.real) < 1e-6]
    if axis:
        bad = ", ".join(f"{lam:.6g}" for lam in axis)
        raise SpectralAssumptionError(
            f"imaginary-axis spectral point(s) {bad} for {V!r}:"
            f" {consequence}")
    return [r.lam for r in roots if r.lam.real >= 1e-6]


def _root_circles(lams, points=128):
    """Small disjoint circles around each growing mode, kept off the axis."""
    out = []
    for lam in lams:
        sep = min([abs(lam - o) for o in lams if o != lam], default=np.inf)
        radius = min(0.25, 0.45 * sep, 0.9 * lam.real)
        out.append({"kind": "circle", "center": lam, "radius": radius,
                    "points": points})
    return out


def growing_mode_projection(gen, lams):
    """Total Riesz projection onto the listed growing modes (None if no
    modes are given)."""
    lams = list(lams)
    if not lams:
        return None
    return riesz_projection(gen, _root_circles(lams))


def decompose_and_evolve(gen, init, s_max, ds=None, window=(3.0, 20.0),
                         store_every=1):
    """Split off the growing modes, evolve the remainder.

    Scans for right-half-plane spectral points; an imaginary-axis point
    violates the spectral assumption and aborts. Each growing mode gets a
    small-circle Riesz projection; phi_k = (1/k!) (L-lam)^k P_lam init.
    """
    lams = _growing_modes(gen.potential, window, gen.grid,
                          "the decomposition does not apply")
    if not lams:
        traj = evolve(gen, init, s_max, ds=ds, store_every=store_every)
        return DecomposedEvolution([], traj, None)

    proj = growing_mode_projection(gen, lams)

    x0 = gen.reduce_state(init).astype(complex)
    modes = []
    half2 = gen.reduced.shape[0]
    for lam, P_lam in zip(lams, proj.parts):
        n_lam = _nilpotency_order(gen, lam, P_lam)
        cur = P_lam @ x0
        phis = [gen.expand_state(cur)]
        A = gen.reduced - lam * np.eye(half2)
        for k in range(1, n_lam + 1):
            cur = (A @ cur) / k
            phis.append(gen.expand_state(cur))
        modes.append(UnstableMode(lam=lam, phis=phis))

    rem = x0 - proj.reduced @ x0
    stable_traj = evolve(gen, gen.expand_state(rem), s_max, ds=ds,
                         store_every=store_every)
    return DecomposedEvolution(modes, stable_traj, proj)


def stable_growth_probe(gen, ensemble, epsilon, s_max, ds=None,
                        window=(3.0, 20.0), check_every=10):
    """max over members and s of e^{-eps s} ||u~(s)|| / ||init||.

    Members with zero initial norm contribute 0 by convention. All
    members evolve together as one column batch.
    """
    if not ensemble:
        return 0.0
    lams = _growing_modes(gen.potential, window, gen.grid,
                          "the growth probe is undefined")

    X0 = np.stack([gen.reduce_state(st) for st in ensemble], axis=1)
    proj = growing_mode_projection(gen, lams)
    if proj is not None:
        X0 = X0 - proj.reduced @ X0

    ds, M = _step_count(s_max, ds, gen.grid.n)

    norm0 = gen.reduced_energy(X0)
    nz = norm0 > 0
    best = np.zeros(X0.shape[1])

    def observer(i, s, X):
        norms = gen.reduced_energy(X)
        r = np.zeros_like(best)
        r[nz] = np.exp(-epsilon * s) * norms[nz] / norm0[nz]
        np.maximum(best, r, out=best)

    observer(0, 0.0, X0)
    _propagate(propagator(gen, ds), X0, ds, M, observer=observer,
               observe_every=check_every)
    return float(np.max(best)) if np.any(nz) else 0.0
