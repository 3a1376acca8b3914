"""Dense generator matrices, semigroup time stepping, Riesz projections,
and the growing/decaying-mode decomposition.

The first-order system evolved here is

    d/ds (f1, f2) = L (f1, f2),
    L (f1, f2) = (f2, (1-y^2) f1'' - 2y f1' - 2y f2' - f2 - V f1),

collocated at the parity-symmetric Chebyshev nodes. All states of
interest are odd, so time stepping runs on the odd-sector reduction: the
unknowns are f1 and f2 at the n/2 positive nodes (exact parity by
construction, and no spurious even-sector eigenvalues), the samples that
OddField and Trajectory store; the layout itself lives in core_types.
"""

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from scipy.linalg import block_diag, expm, lu_factor, lu_solve, schur
from scipy.linalg.lapack import ztrsen, ztrsyl

from .core_types import (
    EnergyState,
    OddField,
    Trajectory,
    energy_norm,
    odd_fold,
    same_grid,
)
from .errors import (
    ContourAccuracyError,
    DivergenceError,
    InvalidArgumentError,
    NearEigenvalueError,
    SpectralAssumptionError,
)
from .spectral import find_sigma_v


class GeneratorMatrix:
    """Discretized first-order generator for a fixed potential.

    `reduced` is the n x n odd-sector matrix, acting on (f1, f2) at the
    positive nodes, that time stepping and resolvents use. Eigenvalues
    and the complex Schur form of `reduced` are computed on first use.
    """

    __slots__ = ("grid", "potential", "reduced", "_eigs", "_schur")

    def __init__(self, grid, potential, reduced):
        self.grid = grid
        self.potential = potential
        self.reduced = reduced
        self._eigs = None
        self._schur = None

    def apply(self, state):
        return self.expand_state(self.reduced @ self.reduce_state(state))

    def reduced_eigenvalues(self):
        if self._eigs is None:
            self._eigs = np.linalg.eigvals(self.reduced)
        return self._eigs

    def reduced_schur(self):
        """(T, Q) with reduced = Q T Q^H, T upper triangular."""
        if self._schur is None:
            self._schur = schur(self.reduced, output="complex")
        return self._schur

    def _check_grid(self, state):
        if not same_grid(state.grid, self.grid):
            raise InvalidArgumentError("state and generator grids differ")

    def reduce_state(self, state):
        """(f1, f2) at the positive nodes, as the fields store them."""
        self._check_grid(state)
        return np.concatenate([state.u.half, state.v.half])

    def expand_state(self, x):
        return EnergyState(*(OddField.from_half(self.grid, h)
                             for h in np.split(x, 2)))

    def trajectory(self, times, X, step):
        """Trajectory of the reduced rows X (one per time)."""
        return Trajectory.from_halves(self.grid, times,
                                      *np.split(X, 2, axis=-1), step=step)

    def energy_factor(self):
        """The matrix R whose product with a reduced vector x has the
        energy norm of x as its 2-norm: the energy is the Gram form
        x^H R^T R x. Its rows are u' weighted by sqrt(2 w (1 - y^2)) and v
        weighted by sqrt(2 w) at the positive nodes, w the quadrature
        weights, as in `slice_energies`."""
        g = self.grid
        return block_diag(np.sqrt(g.half_grad_weights)[:, None] * g.half_diff,
                          np.diag(np.sqrt(g.half_weights)))


def assemble_generator(grid, V):
    """Build the odd-sector collocation matrix of the generator for V."""
    n, h = grid.n, grid.n // 2
    y = grid.nodes
    D = grid.diff_matrix
    A = (1.0 - y ** 2)[:, None] * (D @ D) - 2.0 * y[:, None] * D \
        - np.diag(np.asarray(V(y), dtype=float))
    B = -2.0 * y[:, None] * D - np.eye(n)

    # odd sector of L = [[0, I], [A, B]]: fold the rows of each block,
    # then difference its columns; in this order each entry rounds as in
    # the dense product restrict @ L @ extend
    def fold(M):
        F = odd_fold(M.T).T
        return F[:, h:] - F[:, h - 1::-1]

    reduced = np.block([[np.zeros((h, h)), np.eye(h)], [fold(A), fold(B)]])
    return GeneratorMatrix(grid, V, reduced)


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
    # the quotient may round just below a whole count; the allowance is
    # relative because that rounding grows with the count
    r = s_max / ds
    if not 0 <= r < np.inf:
        raise InvalidArgumentError("need s_max >= 0 and s_max / ds finite")
    return ds, int(np.floor(r + 1e-12 * max(1.0, r)))


def _stored_steps(num_steps, store_every):
    """Step indices kept in a trajectory: 0, every store_every-th step
    and the last one."""
    if store_every < 1:
        raise InvalidArgumentError("store_every must be >= 1")
    return np.unique(np.append(np.arange(0, num_steps + 1, store_every),
                               num_steps))


def evolve(gen, init, s_max, ds=None, store_every=1):
    """Semigroup trajectory on the odd-sector system, stepped by the exact
    propagator e^{ds L}.

    Any ds > 0 is accepted; it sets the slice spacing only (default
    4/n^2). A norm not finite or past 10 e^{(max|V|+1)s} times the
    initial norm (compared in logs) aborts with a divergence error
    (linear evolutions obey this bound with a wide margin).
    """
    ds, M = _step_count(s_max, ds, gen.grid.n)

    x = gen.reduce_state(init)
    norm0 = energy_norm(init)
    rate = gen.potential.max_abs() + 1.0

    steps = _stored_steps(M, store_every)
    rows = np.empty((steps.size, x.size), dtype=x.dtype)
    rows[0] = x
    E = propagator(gen, ds)
    R = gen.energy_factor()
    for i in range(1, M + 1):
        x = E @ x
        s = i * ds
        if i % store_every == 0 or i == M:
            rows[-(-i // store_every)] = x  # the last step may be off-stride
        if i % 50 == 0 or i == M:
            norm = np.linalg.norm(R @ x)
            # zero data stay zero unless the propagator is not finite
            if not (norm == 0 or norm0 > 0 and np.log(norm) - np.log(norm0)
                    <= np.log(10.0) + rate * s):
                raise DivergenceError(
                    f"norm at s = {s:.3f} exceeds 10 e^{{(max|V|+1)s}}"
                    " times the initial norm")
    return gen.trajectory(steps * ds, rows, ds)


# ---------------------------------------------------------------------------
# Resolvent and Riesz projection

class ResolventHandle:
    """LU-backed solve handle for (lambda I - L) on the odd sector."""

    __slots__ = ("gen", "lam", "_lu")

    def __init__(self, gen, lam):
        self.gen = gen
        self.lam = lam
        half2 = gen.reduced.shape[0]
        self._lu = lu_factor(lam * np.eye(half2) - gen.reduced)

    def apply(self, state):
        x = self.gen.reduce_state(state).astype(complex)
        return self.gen.expand_state(lu_solve(self._lu, x))

    def reduced_matrix(self):
        half2 = self.gen.reduced.shape[0]
        return lu_solve(self._lu, np.eye(half2, dtype=complex))


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


def _boundary_distance(contour, z):
    """Signed distance of the points z to the contour curve: negative
    inside, positive outside. Refuses malformed contours."""
    kind = contour.get("kind", "circle")
    keys = {"circle": {"center", "radius"}, "rect": {"re", "im"}}.get(kind)
    if keys is None or set(contour) - {"kind"} != keys:
        raise InvalidArgumentError(
            f"bad contour {contour!r}: a circle takes exactly center and"
            " radius, a rect exactly re and im")
    if kind == "circle":
        r = float(contour["radius"])
        if not r > 0:
            raise InvalidArgumentError("circle radius must be positive")
        return np.abs(z - _as_complex(contour["center"])) - r
    re_lo, re_hi = map(float, contour["re"])
    im_lo, im_hi = map(float, contour["im"])
    if not (re_lo < re_hi and im_lo < im_hi):
        raise InvalidArgumentError("rect needs lo < hi on both axes")
    dx = np.maximum(re_lo - z.real, z.real - re_hi)
    dy = np.maximum(im_lo - z.imag, z.imag - im_hi)
    return np.where((dx < 0) & (dy < 0), np.maximum(dx, dy),
                    np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0)))


@dataclass
class RieszProjection:
    """Spectral projection onto the generator eigenvalues inside one or
    more contours, exact up to round-off (no quadrature).

    `reduced` is the odd-sector projection and `parts` the odd-sector
    projection of each contour in turn (their sum is `reduced`). `sep`
    holds each part's LAPACK estimate of sep(T11, T22), the separation of
    its eigenvalues from the rest; the smaller it is, the more sensitive
    the part. `multiplicity[lam]` is the size of the eigenvalue cluster at
    lam, and `nilpotency[lam]` the largest power k with (L - lam)^k P_lam
    nonzero at tolerance, i.e. the degree of the polynomial-in-s factor
    in the mode evolution (0 = no Jordan block).
    """
    reduced: np.ndarray
    rank: int
    parts: List[np.ndarray] = field(default_factory=list)
    sep: List[float] = field(default_factory=list)
    eigenvalues_inside: List[complex] = field(default_factory=list)
    multiplicity: Dict[complex, int] = field(default_factory=dict)
    nilpotency: Dict[complex, int] = field(default_factory=dict)


def _schur_split(T, Q, select):
    """Reorder the selected diagonal entries of the complex Schur form
    Q T Q^H to the front and block-diagonalize it. Returns the reordered
    T11 and Q, the solution Y of T11 Y - Y T22 = -T12, and the LAPACK
    estimate of sep(T11, T22)."""
    n = T.shape[0]
    T, Q, _, k, _, sep, info = ztrsen(select.astype(np.int32), T, Q,
                                      job="B", lwork=n * n)
    Y, scale = np.zeros((k, n - k), dtype=complex), 1.0
    if info == 0 and 0 < k < n:
        Y, scale, info = ztrsyl(T[:k, :k], T[k:, k:], -T[:k, k:], isgn=-1)
    if info != 0:
        raise ContourAccuracyError(
            "the eigenvalues inside the contour cannot be split from the"
            " others at working precision")
    return T[:k, :k], Q, Y / scale, float(sep)


def _nilpotency(T11, Y, lam):
    """Smallest k >= 0 with (L - lam)^(k+1) P_lam negligible, taken in the
    Schur basis: ||N^(k+1) [I, -Y]|| / max(1, ||P_lam||) <= 1e-8 (1 + |lam|)
    with N = T11 - lam I and ||P_lam|| = ||[I, -Y]||."""
    m = T11.shape[0]
    B = np.hstack([np.eye(m), -Y])
    N = T11 - lam * np.eye(m)
    scale = max(1.0, float(np.linalg.norm(B, 2)))
    for k in range(m):
        B = N @ B
        if float(np.linalg.norm(B, 2)) / scale <= 1e-8 * (1.0 + abs(lam)):
            return k
    raise ContourAccuracyError(
        f"no nilpotency order found at lambda = {lam:.6g}")


def _add_part(proj, T, Q, contour):
    """Add to proj the projection onto the eigenvalues of Q T Q^H inside
    the contour, P = Q [[I, -Y], [0, 0]] Q^H in the reordered basis, and
    the multiplicity and nilpotency of each eigenvalue cluster inside."""
    z = np.diag(T)
    dist = _boundary_distance(contour, z)
    if float(np.min(np.abs(dist))) < 1e-6:
        raise ContourAccuracyError(
            "the contour passes within 1e-6 of a generator eigenvalue")
    T11, Qs, Y, sep = _schur_split(T, Q, dist < 0)
    k = T11.shape[0]
    P = Qs[:, :k] @ (Qs[:, :k].conj().T - Y @ Qs[:, k:].conj().T)
    proj.parts.append(P)
    proj.sep.append(sep)
    proj.reduced += P
    proj.rank += k
    inside = np.sort_complex(z[dist < 0])
    proj.eigenvalues_inside.extend(complex(q) for q in inside)
    # a cluster gathers the discretization eigenvalues within 1e-6 of its
    # first member, which approximate one spectral point
    while inside.size:
        near = np.abs(inside - inside[0]) < 1e-6
        cl, inside = inside[near], inside[~near]
        lam = complex(np.mean(cl))
        if cl.size < k:
            T11, _, Y, _ = _schur_split(T, Q, np.isin(z, cl))
        proj.multiplicity[lam] = cl.size
        proj.nilpotency[lam] = _nilpotency(T11, Y, lam)


def riesz_projection(gen, contour):
    """Riesz projection onto the generator eigenvalues inside a contour,
    computed exactly from the ordered Schur form of the odd-sector matrix
    and one Sylvester solve per part (Golub & Van Loan, Matrix
    Computations, 7.6).

    contour: {"kind": "circle", "center", "radius"} or
    {"kind": "rect", "re": (lo, hi), "im": (lo, hi)}; a list of such
    dicts sums the projections of disjoint contours. A contour that
    passes within 1e-6 of an eigenvalue is refused.
    """
    T, Q = gen.reduced_schur()
    proj = RieszProjection(reduced=np.zeros_like(T), rank=0)
    for c in contour if isinstance(contour, (list, tuple)) else [contour]:
        _add_part(proj, T, Q, c)
    return proj


# ---------------------------------------------------------------------------
# Decomposition

@dataclass
class UnstableMode:
    """One exponential-polynomial mode: e^{lam s} sum_k s^k phi_k."""
    lam: complex
    phis: List[EnergyState]  # phi_k = (1/k!) (L-lam)^k P_lam init, k <= n(lam)

    def state_at(self, s):
        """[u, ds_u] of the mode at time s, at the positive nodes."""
        u = v = 0.0
        for k, ph in enumerate(self.phis):
            c = np.exp(self.lam * s) * s ** k
            u = u + ph.u.half * c
            v = v + ph.v.half * c
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

    def unstable_state(self, s):
        grid = self.stable_trajectory.grid
        uv = np.zeros((2, grid.n // 2), dtype=complex)
        for mode in self.unstable_modes:
            uv += mode.state_at(s)
        return EnergyState(*(OddField.from_half(grid, h) for h in uv))

    def total_state(self, index):
        """Unstable + stable at the index-th stored time."""
        st = self.stable_trajectory[index]
        un = self.unstable_state(self.stable_trajectory.times[index])
        return EnergyState(st.u + un.u, st.v + un.v)


def _growing_modes(gen, window, consequence):
    """Right-half-plane spectral points of gen's potential in the window.
    An imaginary-axis point violates the spectral assumption, and so does
    a growing eigenvalue of gen outside every circle of `_root_circles`:
    the window missed its spectral point, so no projection removes it."""
    V = gen.potential
    roots = find_sigma_v(V, window=window, grid=gen.grid)
    axis = [r.lam for r in roots if abs(r.lam.real) < 1e-6]
    if axis:
        bad = ", ".join(f"{lam:.6g}" for lam in axis)
        raise SpectralAssumptionError(
            f"imaginary-axis spectral point(s) {bad} for {V!r}:"
            f" {consequence}")
    lams = [r.lam for r in roots if r.lam.real >= 1e-6]
    z = gen.reduced_eigenvalues()
    missed = z[z.real >= 1e-6]
    for c in _root_circles(lams):
        missed = missed[_boundary_distance(c, missed) >= 0]
    if missed.size:
        bad = ", ".join(f"{lam:.6g}" for lam in np.sort_complex(missed))
        raise SpectralAssumptionError(
            f"growing generator eigenvalue(s) {bad} for {V!r} lie outside"
            f" the search window re <= {window[0]:g}, |im| <="
            f" {window[1]:g}: {consequence}")
    return lams


def _root_circles(lams):
    """Small disjoint circles around each growing mode, kept off the axis."""
    out = []
    for lam in lams:
        sep = min([abs(lam - o) for o in lams if o != lam], default=np.inf)
        radius = min(0.25, 0.45 * sep, 0.9 * lam.real)
        out.append({"kind": "circle", "center": lam, "radius": radius})
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
    small-circle Riesz projection P_lam, and its nilpotency order n(lam)
    is the one that projection found for its eigenvalue cluster;
    phi_k = (1/k!) (L-lam)^k P_lam init for k <= n(lam).
    """
    lams = _growing_modes(gen, window, "the decomposition does not apply")
    if not lams:
        traj = evolve(gen, init, s_max, ds=ds, store_every=store_every)
        return DecomposedEvolution([], traj)

    proj = growing_mode_projection(gen, lams)

    x0 = gen.reduce_state(init).astype(complex)
    modes = []
    half2 = gen.reduced.shape[0]
    for lam, P_lam in zip(lams, proj.parts):
        near = min(proj.nilpotency, key=lambda z: abs(z - lam), default=None)
        n_lam = proj.nilpotency.get(near, 0)
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
    return DecomposedEvolution(modes, stable_traj)
