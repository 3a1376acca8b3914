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

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

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
    positive nodes, that time stepping and resolvents use. Eigenvalues,
    the complex Schur form of `reduced` and its one-step propagators
    e^{h L} (per step h, see `propagator`) are computed on first use.
    """

    __slots__ = ("grid", "potential", "reduced", "_eigs", "_schur",
                 "_steps")

    def __init__(self, grid, potential, reduced):
        self.grid = grid
        self.potential = potential
        self.reduced = reduced
        self._eigs = None
        self._schur = None
        self._steps = {}

    def apply(self, state):
        return self.expand_state(self.reduced @ self.reduce_state(state))

    def reduced_eigenvalues(self):
        if self._eigs is None:
            self._eigs = np.linalg.eigvals(self.reduced)
        return self._eigs

    def reduced_schur(self):
        """(T, Q) with reduced = Q T Q^H, T upper triangular."""
        if self._schur is None:
            # scipy.linalg is imported where its LAPACK-only routines run:
            # loading it costs more than a small command's whole run
            from scipy.linalg import schur
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
        g, h = self.grid, self.grid.n // 2
        return np.block([
            [np.sqrt(g.half_grad_weights)[:, None] * g.half_diff,
             np.zeros((h, h))],
            [np.zeros((h, h)), np.diag(np.sqrt(g.half_weights))]])


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


# Scaling and squaring for e^A (Al-Mohy & Higham, SIAM J. Matrix Anal.
# Appl. 31 (2009) 970-989, Alg. 5.1, with exact 1-norms): the coefficients
# b_k of the degree-m diagonal Pade approximant p_m(A) / p_m(-A), the bound
# theta_m on 2^-s ||A^k||^(1/k) up to which degree m has backward error at
# most u = 2^-53, and 1 / |c_{2m+1}|, c_{2m+1} the leading coefficient of
# that backward error's series
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
_ERROR_COEFF = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
                9: 5914384781877411840000.0,
                13: 113250775606021113483283660800000000.0}


def _onenorm(A):
    return float(np.max(np.sum(np.abs(A), axis=0)))


def _ell(A, m, norm_a):
    """Extra squarings that keep degree m's backward error at u for A:
    max(ceil(log2(alpha / u) / 2m), 0) with alpha = |c_{2m+1}|
    || |A|^(2m+1) ||_1 / ||A||_1. The norm is exact: the column sums of
    B^(2m+1), B = |A| / ||A||_1, by 2m + 1 products with a row vector;
    since ||B||_1 = 1, no power overflows."""
    if norm_a == 0.0:
        return 0
    B = np.abs(A)
    B /= norm_a
    v = np.ones(A.shape[0])
    for _ in range(2 * m + 1):
        v = v @ B
    w = float(np.max(v))
    if w == 0.0:
        return 0
    log2_alpha = 2 * m * math.log2(norm_a) + math.log2(w) \
        - math.log2(_ERROR_COEFF[m]) + 53
    return max(math.ceil(log2_alpha / (2 * m)), 0)


def _add_terms(out, tmp, terms, diag=0.0):
    """out += c_1 M_1 + c_2 M_2 + ... + diag I, left to right in place
    (tmp is scratch), so each entry rounds as in the expression; out is
    a C-contiguous n x n matrix."""
    for c, M in terms:
        out += np.multiply(M, c, out=tmp)
    if diag:
        out.reshape(-1)[::out.shape[0] + 1] += diag


def _pade(A, W, m):
    """r_m(A) = p_m(A) / p_m(-A) from A and the workspace W of seven
    n x n matrices: A^2, A^4, A^6, A^8 in W[0:4] (A^8 for m = 9 only) and
    three work matrices. It is the right division (V + U)(V - U)^(-1), U
    and V the odd and even parts of p_m(A), written as
    I + 2 U (V - U)^(-1) and solved transposed. Against a long-double
    reference on the steps h L the commands take (n = 16-128), this form
    stays within 1.8x of scipy's expm error; (V + U)(V - U)^(-1) solved
    the same way reached 5.8x, at entries near 1."""
    b = _PADE[m]
    t1, t2, U = W[4:]
    if m == 13:
        A2, A4, A6 = W[:3]
        np.multiply(A6, b[13], out=t1)
        _add_terms(t1, t2, [(b[11], A4), (b[9], A2)])
        np.matmul(A6, t1, out=t2)
        _add_terms(t2, t1, [(b[7], A6), (b[5], A4), (b[3], A2)], b[1])
        np.matmul(A, t2, out=U)
        np.multiply(A6, b[12], out=t1)
        _add_terms(t1, t2, [(b[10], A4), (b[8], A2)])
        V = np.matmul(A6, t1, out=t2)
        _add_terms(V, t1, [(b[6], A6), (b[4], A4), (b[2], A2)], b[0])
    else:
        powers = W[m // 2 - 1::-1]  # A^(m-1), ..., A^2
        np.multiply(powers[0], b[m], out=t1)
        _add_terms(t1, t2, zip(b[m - 2:1:-2], powers[1:]), b[1])
        np.matmul(A, t1, out=U)
        V = t1
        np.multiply(powers[0], b[m - 1], out=V)
        _add_terms(V, t2, zip(b[m - 3:0:-2], powers[1:]), b[0])
    np.subtract(V, U, out=t2)
    U *= 2.0
    X = np.linalg.solve(t2.T, U.T).T
    X[np.diag_indices_from(X)] += 1.0
    return X


def _expm(A):
    """e^A for a square float or complex matrix A by scaling and
    squaring: Alg. 5.1 of Al-Mohy & Higham (2009) chooses the Pade degree
    m in {3, 5, 7, 9, 13} and the scaling s from ||A^k||_1^(1/k) and
    `_ell`. All products go into one workspace of seven n x n matrices.
    A matrix that is not finite, or whose powers overflow, gives all NaN,
    without a warning."""
    nan = np.full(A.shape, np.nan, dtype=A.dtype)
    with np.errstate(all="ignore"):
        norm_a = _onenorm(A)  # NaN or inf unless every entry is finite
        if not math.isfinite(norm_a):
            return nan
        W = np.empty((7,) + A.shape, dtype=A.dtype)
        A2, A4, A6, A8 = W[:4]
        np.matmul(A, A, out=A2)
        np.matmul(A2, A2, out=A4)
        np.matmul(A4, A2, out=A6)
        d4 = _onenorm(A4) ** 0.25
        d6 = _onenorm(A6) ** (1.0 / 6.0)
        # NaN or inf once a power overflows (max() would hide a NaN)
        if not math.isfinite(d4 + d6):
            return nan
        eta = max(d4, d6)
        for m in (3, 5):
            if eta <= _THETA[m] and _ell(A, m, norm_a) == 0:
                return _pade(A, W, m)
        np.matmul(A4, A4, out=A8)
        d8 = _onenorm(A8) ** 0.125
        if not math.isfinite(d8):
            return nan
        eta = max(d6, d8)
        for m in (7, 9):
            if eta <= _THETA[m] and _ell(A, m, norm_a) == 0:
                return _pade(A, W, m)
        d10 = _onenorm(np.matmul(A4, A6, out=A8)) ** 0.1
        if not math.isfinite(d10):
            return nan
        eta = min(eta, max(d8, d10))
        s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta else 0
        s += _ell(A * 2.0 ** -s, 13, norm_a * 2.0 ** -s)
        A = A * 2.0 ** -s
        for k, M in ((2, A2), (4, A4), (6, A6)):
            M *= 2.0 ** (-k * s)
        X = _pade(A, W, 13)
        Y = np.empty_like(X)
        for _ in range(s):
            np.matmul(X, X, out=Y)
            X, Y = Y, X
    return X


def propagator(gen, h):
    """The exact one-step matrix e^{h L} of the odd-sector generator,
    computed once per step h and kept, read-only, on gen."""
    E = gen._steps.get(h)
    if E is None:
        E = gen._steps[h] = _expm(h * gen.reduced)
        E.flags.writeable = False
    return E


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
    steps = np.arange(0, num_steps + 1, store_every)
    return steps if steps[-1] == num_steps else np.append(steps, num_steps)


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
        if store_every == 1:
            x = np.dot(E, x, out=rows[i])
        else:
            x = np.dot(E, x)
            if i % store_every == 0 or i == M:
                rows[-(-i // store_every)] = x  # the last may be off-stride
        s = i * ds
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
        from scipy.linalg import lu_factor
        self._lu = lu_factor(lam * np.eye(half2) - gen.reduced)

    def apply(self, state):
        from scipy.linalg import lu_solve
        x = self.gen.reduce_state(state).astype(complex)
        return self.gen.expand_state(lu_solve(self._lu, x))

    def reduced_matrix(self):
        from scipy.linalg import lu_solve
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
    from scipy.linalg.lapack import ztrsen, ztrsyl
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
