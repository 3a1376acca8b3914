"""Grids, odd fields, energy states, quadrature, differentiation, norms.

Everything downstream works on samples over an interior Chebyshev-Gauss
grid on (-1,1): no endpoint nodes, because the wave operator degenerates
at y = +-1 and the solutions live on the open interval. Boundary traces,
where needed, are obtained by polynomial extrapolation. The nodes ascend
and are antisymmetric, so an odd field is fixed by its samples at the
n/2 positive nodes (the upper half), the one form that OddField,
Trajectory and the norm and energy kernels (slice_norms, slice_energies)
take; positive_half, odd_extension and odd_fold convert it to and from
all-node samples. For odd u, |u|^q and (1-y^2)|u'|^2 are even, so every
norm is a sum over the positive nodes with doubled weights.
"""

from collections.abc import Sequence

import numpy as np

from .errors import InvalidArgumentError, InvalidDataError


class Grid:
    """Interior Chebyshev-Gauss collocation grid on (-1,1).

    nodes are cos((2j+1)pi/(2n)) reordered ascending and symmetrized so
    that nodes[i] == -nodes[n-1-i] exactly. diff_matrix is the
    barycentric first-derivative collocation matrix; quad_weights are
    Fejer-type weights for the open node set, exact for polynomials of
    degree < n and summing to 2.

    The odd-sector data of the norm and energy kernels act on the n/2
    positive nodes: half_weights is 2 w there, half_grad_weights is
    2 w (1 - y^2), and half_diff is the folded derivative
    D[h:, h:] - D[h:, :h][:, ::-1] (h = n/2), which maps the positive
    samples of an odd u to those of the even u'. All arrays are
    read-only.
    """

    __slots__ = ("n", "nodes", "diff_matrix", "quad_weights", "bary_weights",
                 "half_weights", "half_grad_weights", "half_diff")

    def __init__(self, n, nodes, diff_matrix, quad_weights, bary_weights):
        self.n = n
        self.nodes = nodes
        self.diff_matrix = diff_matrix
        self.quad_weights = quad_weights
        self.bary_weights = bary_weights
        h = n // 2
        self.half_weights = 2.0 * quad_weights[h:]
        self.half_grad_weights = self.half_weights * (1.0 - nodes[h:] ** 2)
        self.half_diff = diff_matrix[h:, h:] - diff_matrix[h:, h - 1::-1]
        for a in (nodes, diff_matrix, quad_weights, bary_weights,
                  self.half_weights, self.half_grad_weights, self.half_diff):
            a.setflags(write=False)

    def __repr__(self):
        return f"Grid(n={self.n})"


def make_grid(n):
    """Build the n-point interior grid; n must be even and >= 8."""
    if not isinstance(n, (int, np.integer)):
        raise InvalidArgumentError("grid size must be an integer")
    n = int(n)
    if n < 8 or n % 2 != 0:
        raise InvalidArgumentError(
            f"grid size must be even and >= 8, got {n}")
    j = np.arange(n)
    theta = ((2 * j + 1) * np.pi / (2 * n))[::-1].copy()  # ascending nodes
    nodes = np.cos(theta)
    nodes = 0.5 * (nodes - nodes[::-1])  # exact antisymmetry

    # barycentric weights for the Chebyshev-Gauss points
    bw = ((-1.0) ** j) * np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = (bw[None, :] / bw[:, None]) / (nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))

    # Fejer quadrature for the open node set
    m = np.arange(1, n // 2 + 1)
    qw = (2.0 / n) * (
        1.0 - 2.0 * np.sum(
            np.cos(2.0 * np.outer(theta, m)) / (4.0 * m ** 2 - 1.0), axis=1)
    )
    return Grid(n, nodes, diff, qw, bw)


def parity_defect(values):
    values = np.asarray(values)
    return float(np.max(np.abs(values + values[::-1])))


def positive_half(values):
    """The samples at the n/2 positive nodes, along the last axis."""
    return values[..., values.shape[-1] // 2:]


def odd_extension(half):
    """All-node samples [-reversed(h), h] of the odd function whose
    samples at the positive nodes are h (along the last axis)."""
    return np.concatenate([-half[..., ::-1], half], axis=-1)


def odd_fold(values):
    """Positive-node samples 0.5 v[h:] - 0.5 v[h-1::-1] of the odd part of
    the all-node samples v (along the last axis), h = n/2."""
    h = values.shape[-1] // 2
    return 0.5 * values[..., h:] - 0.5 * values[..., h - 1::-1]


def _checked(grid, values, ndim, size):
    """values as a finite float or complex array of `ndim` dimensions
    whose last axis has length `size`."""
    values = np.asarray(values)
    values = values.astype(complex if np.iscomplexobj(values) else float,
                           copy=False)
    if values.ndim != ndim or values.shape[-1] != size:
        raise InvalidDataError(
            f"field shape {values.shape} does not match grid n={grid.n}")
    if not np.all(np.isfinite(values)):
        raise InvalidDataError("non-finite field values")
    return values


def _frozen(a):
    a.setflags(write=False)
    return a


def _odd_part(grid, values, ndim=1):
    """Checked positive-node samples of the odd part of one field's
    all-node samples (ndim 1) or of a (T, n) stack of them (ndim 2).

    Each field's parity defect max|v_i + v_{n-1-i}| must stay within 1e-6
    times max(1, max|v|); the result, odd_fold(v), is read-only.
    """
    values = _checked(grid, values, ndim, grid.n)
    defect = np.max(np.abs(values + values[..., ::-1]), axis=-1)
    ratio = defect / np.maximum(1.0, np.max(np.abs(values), axis=-1))
    if np.any(ratio > 1e-6):
        raise InvalidDataError(
            f"parity defect {np.max(ratio):.3e} times max(1, max|v|)"
            " exceeds 1.0e-06; data is not odd")
    return _frozen(odd_fold(values))


def _from_half(grid, half, ndim=1):
    """Checked, read-only private copy of one field's positive-node
    samples (ndim 1) or of a (T, n/2) stack of them (ndim 2)."""
    return _frozen(_checked(grid, half, ndim, grid.n // 2).copy())


def same_grid(a, b):
    """Whether two grids are one: the same object or equal nodes."""
    return a is b or np.array_equal(a.nodes, b.nodes)


class OddField:
    """Samples of an odd function of y on a grid.

    `half` holds a read-only copy of the samples at the n/2 positive
    nodes; `values` expands it to all n nodes on each access. The
    constructor rejects all-node samples v whose parity defect
    max|v_i + v_{n-1-i}| exceeds 1e-6 relative to the field size and
    stores odd_fold(v); `from_half` takes positive-node samples.
    """

    __slots__ = ("grid", "half")

    def __init__(self, grid, values):
        self.grid = grid
        self.half = _odd_part(grid, values)

    @classmethod
    def from_half(cls, grid, half):
        """The odd field with samples `half` at the n/2 positive nodes."""
        f = cls.__new__(cls)
        f.grid, f.half = grid, _from_half(grid, half)
        return f

    @classmethod
    def from_callable(cls, grid, fn):
        return cls(grid, np.asarray(fn(grid.nodes)))

    @classmethod
    def zero(cls, grid):
        return cls.from_half(grid, np.zeros(grid.n // 2))

    @property
    def values(self):
        """The read-only samples at all n nodes."""
        return _frozen(odd_extension(self.half))

    def _other_half(self, other):
        if same_grid(self.grid, other.grid):
            return other.half
        raise InvalidDataError(
            f"fields on different grids: {self.grid!r}, {other.grid!r}")

    def __add__(self, other):
        return OddField.from_half(self.grid,
                                  self.half + self._other_half(other))

    def __sub__(self, other):
        return OddField.from_half(self.grid,
                                  self.half - self._other_half(other))

    def __mul__(self, c):
        return OddField.from_half(self.grid, self.half * c)

    __rmul__ = __mul__


class EnergyState:
    """A pair (u, ds_u) of odd fields measured in the energy norm."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        if not same_grid(u.grid, v.grid):
            raise InvalidDataError("state components live on different grids")
        self.u = u
        self.v = v

    @property
    def grid(self):
        return self.u.grid

    @classmethod
    def from_callables(cls, grid, f, g):
        return cls(OddField.from_callable(grid, f),
                   OddField.from_callable(grid, g))

    @classmethod
    def zero(cls, grid):
        return cls(OddField.zero(grid), OddField.zero(grid))

    def stacked(self):
        return np.concatenate([self.u.values, self.v.values])


def _horner(coeffs, y2):
    """sum_j coeffs[j] y2^j by Horner's rule, from the last coefficient."""
    v = coeffs[-1]
    for c in coeffs[-2::-1]:
        v = v * y2 + c
    return v


def _taylor_shift(p, x0):
    """Coefficients in powers of t of sum_i p[i] (x0 + t)^i (repeated
    synthetic division)."""
    q = list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += x0 * q[j + 1]
    return q


class Potential:
    """An even function V on [-1,1] with Taylor access at y = 1.

    Potential.even_poly(coeffs) is the polynomial
    V(y) = sum_j coeffs[j] y^(2j), held by its exact coefficients
    (`even_coeffs`); Potential.constant(c) is its degree-0 case. Its values
    are Horner sums in y*y, and its Taylor data come from the
    coefficients. Potential.from_callable(fn) wraps an opaque function
    (`even_coeffs` is None); its evenness is checked on a fixed probe set
    at construction and its Taylor data are computed numerically.
    taylor_at_one(m) returns the first m coefficients of V at y = 1 in
    powers of (y - 1); `at(y)` is V at one point as a float.
    """

    __slots__ = ("even_coeffs", "_fn", "name")

    def __init__(self, even_coeffs=None, fn=None, name=None):
        self.even_coeffs = even_coeffs
        self._fn = fn
        self.name = name

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls((c,), name=f"constant({c:g})")

    @classmethod
    def even_poly(cls, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs or not all(np.isfinite(coeffs)):
            raise InvalidArgumentError(
                "even_poly needs a nonempty list of finite coefficients")
        return cls(coeffs, name="even_poly("
                   + ",".join(f"{c:g}" for c in coeffs) + ")")

    @classmethod
    def from_callable(cls, fn, name=None):
        p = cls(fn=fn, name=name or "callable")
        yy = np.linspace(0.0, 0.997, 61)
        v_plus = np.asarray(fn(yy), dtype=float)
        v_minus = np.asarray(fn(-yy), dtype=float)
        if v_plus.shape != yy.shape or v_minus.shape != yy.shape:
            raise InvalidDataError(
                "potential must return one value per input point, got"
                f" shape {v_plus.shape} for input shape {yy.shape}")
        scale = 1.0 + float(np.max(np.abs(v_plus)))
        if np.max(np.abs(v_plus - v_minus)) > 1e-12 * scale:
            raise InvalidDataError("potential is not even to 1e-12")
        return p

    def __call__(self, y):
        if self.even_coeffs is None:
            return np.asarray(self._fn(np.asarray(y)), dtype=float)
        y = np.asarray(y, dtype=float)
        return np.ones_like(y) * _horner(self.even_coeffs, y * y)

    def at(self, y):
        """V(y) at one point, as a float: the value of self(y), without
        building arrays for a polynomial."""
        if self.even_coeffs is None:
            return float(self(y))
        y = float(y)
        return _horner(self.even_coeffs, y * y)

    def max_abs(self):
        yy = np.linspace(-0.999, 0.999, 201)
        return float(np.max(np.abs(self(yy))))

    def taylor_at_one(self, m):
        """First m Taylor coefficients of V at y=1, powers of (y-1).

        For complex-safe callables (a complex array out for complex input)
        the coefficients come from the Cauchy integral on a small circle
        around 1 (trapezoid = FFT, spectrally accurate); otherwise a
        Chebyshev fit on [0.5, 1] is
        differentiated, which is adequate for the low orders but loses
        accuracy beyond the first few. A polynomial's coefficients are
        its monomial coefficients shifted to y = 1, exact up to round-off.
        """
        if m < 1:
            raise InvalidArgumentError("need at least one coefficient")
        if self.even_coeffs is not None:
            mono = np.zeros(2 * len(self.even_coeffs) - 1)
            mono[::2] = self.even_coeffs
            out = np.zeros(max(m, len(mono)))
            out[:len(mono)] = _taylor_shift(mono, 1.0)
            return out[:m]
        rho = 0.2
        N = 256
        w = rho * np.exp(2j * np.pi * np.arange(N) / N)
        try:
            vals = np.asarray(self._fn(1.0 + w))
            if not np.iscomplexobj(vals) or vals.shape != w.shape \
                    or not np.all(np.isfinite(vals)):
                raise ValueError
        except Exception:
            return self._taylor_at_one_fit(m)
        coeffs = np.fft.fft(vals) / N
        scale = max(1.0, float(np.max(np.abs(vals))))
        ak = coeffs[:m] / rho ** np.arange(m)
        if np.max(np.abs(ak.imag) * rho ** np.arange(m)) > 1e-9 * scale:
            return self._taylor_at_one_fit(m)
        return ak.real.copy()

    def _taylor_at_one_fit(self, m):
        deg = max(2 * m + 8, 24)
        xs = np.cos(np.linspace(0.0, np.pi, deg + 1))  # [-1,1]
        window = 0.75 + 0.25 * xs  # [0.5, 1.0]
        ch = np.polynomial.chebyshev.Chebyshev.fit(
            window, self(window), deg, domain=[0.5, 1.0])
        out = np.empty(m)
        fact = 1.0
        d = ch
        for k in range(m):
            if k > 0:
                fact *= k
                d = d.deriv()
            out[k] = d(1.0) / fact
        return out

    def __repr__(self):
        return f"Potential({self.name})"


class Trajectory(Sequence):
    """Time-stamped stack of odd energy states on one shared grid.

    `times` has shape (T,); `U` and `V` of shape (T, n/2) hold the
    samples of u and ds_u at the positive nodes on each slice, read-only
    private copies of the stacks given to `Trajectory.from_halves`, the
    one constructor. The trajectory is a read-only sequence of its
    slices: indexing builds an EnergyState.
    """

    __slots__ = ("grid", "times", "U", "V", "step")

    @classmethod
    def from_halves(cls, grid, times, U, V, step=None):
        """Trajectory of (T,) times and (T, n/2) stacks U of u, V of ds_u
        at the positive nodes."""
        times = np.array(times, dtype=float)
        if times.size == 0:
            raise InvalidDataError("empty trajectory")
        if len(U) != times.size or len(V) != times.size:
            raise InvalidDataError("times/states length mismatch")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise InvalidDataError("times must be strictly increasing")
        traj = cls.__new__(cls)
        traj.grid = grid
        traj.times = _frozen(times)
        traj.U = _from_half(grid, U, ndim=2)
        traj.V = _from_half(grid, V, ndim=2)
        if step is None:
            step = float(times[1] - times[0]) if times.size > 1 else 0.0
        traj.step = step
        return traj

    def __len__(self):
        return self.times.size

    def __getitem__(self, i):
        return EnergyState(OddField.from_half(self.grid, self.U[i]),
                           OddField.from_half(self.grid, self.V[i]))


def slice_norms(U, grid, q):
    """L^q(-1,1) norms of the odd fields whose positive-node samples are
    the rows of a (..., n/2) stack U (one row: a scalar); q = inf gives
    the sample sup."""
    return _lq_norms(U, grid, [q])[q][()]


def _chain(k):
    """The products that raise x to an integer power k >= 1 by
    left-to-right binary powering: "s" squares the running power, "m"
    multiplies it by x. It depends on k alone, so every caller gets the
    same bits, and powers whose chains share a prefix share its
    products."""
    return bin(k)[3:].replace("1", "sm").replace("0", "s")


# floats (64 kB) in the spare block of a slice-norm call given none
_SPARE_FLOATS = 8192


def _lq_norms(U, grid, qs, work=None, spare=None):
    """{q: slice_norms(U, grid, q)} for every q in qs, as arrays: the one
    slice-norm kernel. |U| is taken once for q = inf and all integer q,
    which are multiplied out by `_chain`: (|U| |U|)^(q/2) for even q,
    |U|^q for odd q. This agrees with pow to round-off, and |U| |U| is
    numpy's square, so q = 2 is exact. A non-integer q takes its own |U|
    and raises it to q in place with pow.

    `work`, a float array of U's shape and memory layout, receives |U|,
    and `spare`, a float array of U's shape, the powers; U may be
    `spare`'s memory, as it is not read once `spare` is written. Without
    them the powers go through a spare of _SPARE_FLOATS, a few slices at
    a time: a stack-sized temporary page-faults on large stacks (the
    scans' 16-slice blocks, long trajectories).
    """
    w = grid.half_weights
    norms = {q: np.empty(np.shape(U)[:-1]) for q in qs}
    powers = []  # (even, chain, q): |U|^q for odd q, (|U| |U|)^(q/2) else
    for q, out in norms.items():
        if q < 1:
            raise InvalidArgumentError(f"q must be >= 1, got {q}")
        if float(q).is_integer():
            even = q % 2 == 0
            powers.append((even, _chain(int(q) // 2 if even else int(q)), q))
        elif q != np.inf:
            a = np.abs(U, out=work)
            a **= q
            np.matmul(a, w, out=out)
            out **= 1.0 / q
    if not powers and np.inf not in norms:
        return norms
    a = np.abs(U, out=work)
    if np.inf in norms:
        np.max(a, axis=-1, out=norms[np.inf])
    chunks = [...]
    if spare is None and any(chain for _, chain, _ in powers):
        if a.ndim > 1 and a.size > _SPARE_FLOATS:
            rows = max(1, _SPARE_FLOATS // a[0].size)
            chunks = [slice(lo, lo + rows) for lo in range(0, len(a), rows)]
        spare = np.empty(a[chunks[0]].shape)
    # odd q first, while |U| lasts; chains that extend one another in turn
    powers.sort()
    for c in chunks:
        x = a[c]
        into = None if spare is None else spare[:len(x)]
        squared = False
        r, done = x, ""  # r is x to the power that the products `done` give
        for even, chain, q in powers:
            if even and not squared:
                np.multiply(x, x, out=x)
                squared = True
                r, done = x, ""
            if not chain.startswith(done):
                r, done = x, ""
            for op in chain[len(done):]:
                r = np.multiply(r, r if op == "s" else x, out=into)
            done = chain
            out = norms[q][c]
            np.matmul(r, w, out=out)
            out **= 1.0 / q
    return norms


def slice_energies(U, V, grid):
    """Energy norms sqrt(int (1-y^2)|u'|^2 + int |v|^2) of odd states
    whose positive-node samples of u and v = ds_u are the rows of
    (..., n/2) stacks U and V (one row each: a scalar)."""
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise InvalidDataError("non-finite state")
    dU = U @ grid.half_diff.T
    # in place, as in `_lq_norms`: each stack-sized temporary
    # page-faults on a long trajectory
    du2 = np.abs(dU, out=dU) if dU.dtype == float else np.abs(dU)
    np.square(du2, out=du2)
    v2 = np.abs(V, dtype=float)
    np.square(v2, out=v2)
    return np.sqrt(du2 @ grid.half_grad_weights + v2 @ grid.half_weights)


def energy_norm(state):
    """Energy norm of a state: sqrt(int (1-y^2)|u'|^2 + int |v|^2)."""
    return float(slice_energies(state.u.half, state.v.half, state.grid))


def lq_norm(field, q):
    """L^q(-1,1) norm of an odd field; q = inf gives the sample sup."""
    return float(slice_norms(field.half, field.grid, q))


def _mixed_from_samples(times, lq_values, p):
    """L^p in s of per-slice norms sampled at `times` (an array) along
    axis 0: a float for one series, one value per column of a stack."""
    if np.isinf(p):
        out = np.max(lq_values, axis=0)
    else:
        out = np.trapezoid(lq_values ** p, times, axis=0) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


def mixed_norm(traj, p, q):
    """L^p in s of the L^q(-1,1) norms of the u component."""
    if p < 2:
        raise InvalidArgumentError(f"p must be >= 2, got {p}")
    return _mixed_from_samples(
        traj.times, slice_norms(traj.U, traj.grid, q), p)


def _lagrange_weights(stencils, x):
    """Lagrange weights (N, p) at the points x (N,) on the rows of the
    stencil nodes (N, p)."""
    w = np.ones(stencils.shape)
    for j, xj in enumerate(stencils.T):
        for k, xk in enumerate(stencils.T):
            if k != j:
                w[:, j] *= (x - xk) / (xj - xk)
    return w


def extrapolate_to(values, grid, y_target, num_points=4):
    """Polynomial extrapolation of node samples to a point off the grid.

    Uses the `num_points` nodes nearest to y_target with a Lagrange form;
    intended for boundary traces at y = +-1. `values` holds one field's
    samples (giving a complex number) or fields as the columns of an
    (n, T) array (giving T values).
    """
    nodes = grid.nodes
    order = np.argsort(np.abs(nodes - y_target))[:num_points]
    w = _lagrange_weights(nodes[order][None], np.atleast_1d(y_target))[0]
    out = w @ np.asarray(values)[order]
    return complex(out) if out.ndim == 0 else out


def _barycentric_matrix(grid, x):
    """Row-normalized barycentric weights at the points x (|x| < 1), one
    row per point; a point within 1e-14 of a node gets its one-hot row."""
    W = np.atleast_1d(np.asarray(x, dtype=float))[:, None] - grid.nodes
    hit = np.abs(W) < 1e-14
    W[hit] = 1.0
    np.divide(grid.bary_weights, W, out=W)  # in place: W can be large
    exact = hit.any(axis=1)
    W[exact] = hit[exact]
    W /= W.sum(axis=1, keepdims=True)
    return W


def barycentric_interpolate(grid, values, x):
    """Barycentric evaluation of the interpolant of node samples at x.

    x may be a scalar or an array with |x| < 1. values is (n,) or (n, k)
    for k sample columns interpolated in one pass; the result then has a
    trailing k axis. Exact reproduction at the nodes themselves is
    handled explicitly.
    """
    out = (_barycentric_matrix(grid, x) @ np.asarray(values)).astype(complex)
    if np.ndim(x) == 0:
        return complex(out[0]) if out.ndim == 1 else out[0]
    return out
