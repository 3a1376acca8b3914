"""Grids, odd fields, energy states, quadrature, differentiation, norms.

Everything downstream works on samples over an interior Chebyshev-Gauss
grid on (-1,1): no endpoint nodes, because the wave operator degenerates
at y = +-1 and the solutions live on the open interval. Boundary traces,
where needed, are obtained by polynomial extrapolation.
"""

from collections.abc import Sequence

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDataError,
    UndefinedRatioError,
)

# operations that claim to preserve parity are held to this relative defect
PARITY_ASSERT_TOL = 1e-10


class Grid:
    """Interior Chebyshev-Gauss collocation grid on (-1,1).

    nodes are cos((2j+1)pi/(2n)) reordered ascending and symmetrized so
    that nodes[i] == -nodes[n-1-i] exactly. diff_matrix is the
    barycentric first-derivative collocation matrix; quad_weights are
    Fejer-type weights for the open node set, exact for polynomials of
    degree < n and summing to 2.
    """

    __slots__ = ("n", "nodes", "diff_matrix", "quad_weights", "bary_weights")

    def __init__(self, n, nodes, diff_matrix, quad_weights, bary_weights):
        self.n = n
        self.nodes = nodes
        self.diff_matrix = diff_matrix
        self.quad_weights = quad_weights
        self.bary_weights = bary_weights
        for a in (nodes, diff_matrix, quad_weights, bary_weights):
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


def _odd_part(grid, values, tol, ndim=1):
    """Checked odd projection of one field's samples (ndim 1) or of a
    (T, n) stack of them (ndim 2).

    Each field's parity defect max|v_i + v_{n-1-i}| must stay within
    `tol` times max(1, max|v|); the result (v - reversed(v))/2 is
    read-only.
    """
    values = np.asarray(values)
    values = values.astype(complex if np.iscomplexobj(values) else float)
    if values.ndim != ndim or values.shape[-1] != grid.n:
        raise InvalidDataError(
            f"field shape {values.shape} does not match grid n={grid.n}")
    if not np.all(np.isfinite(values)):
        raise InvalidDataError("non-finite field values")
    flipped = values[..., ::-1]
    defect = np.max(np.abs(values + flipped), axis=-1)
    ratio = defect / np.maximum(1.0, np.max(np.abs(values), axis=-1))
    if np.any(ratio > tol):
        raise InvalidDataError(
            f"parity defect {np.max(ratio):.3e} times max(1, max|v|)"
            f" exceeds {tol:.1e}; data is not odd")
    out = values - flipped
    out *= 0.5
    out.setflags(write=False)
    return out


class OddField:
    """Samples of an odd function of y on a grid.

    The constructor measures the parity defect max|v_i + v_{n-1-i}|,
    rejects input whose defect exceeds `tol` relative to the field size,
    and stores the projected samples (v - reversed(v))/2.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid, values, tol=1e-6):
        self.grid = grid
        self.values = _odd_part(grid, values, tol)

    @classmethod
    def from_callable(cls, grid, fn):
        return cls(grid, np.asarray(fn(grid.nodes)))

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.n))

    def deriv(self):
        """Collocation derivative (an even function, returned as raw samples)."""
        return self.grid.diff_matrix @ self.values

    def __add__(self, other):
        return OddField(self.grid, self.values + other.values, tol=np.inf)

    def __sub__(self, other):
        return OddField(self.grid, self.values - other.values, tol=np.inf)

    def __mul__(self, c):
        return OddField(self.grid, self.values * c, tol=np.inf)

    __rmul__ = __mul__


class EnergyState:
    """A pair (u, ds_u) of odd fields measured in the energy norm."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        if u.grid is not v.grid:
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


class Potential:
    """An even function V on [-1,1] with Taylor access at y = 1.

    Use Potential.constant(c) or Potential.from_callable(fn). Evenness is
    checked on a fixed probe set at construction; taylor_at_one(m) returns
    the first m coefficients of V at y = 1 in powers of (y - 1).
    """

    __slots__ = ("kind", "_const", "_fn", "name")

    def __init__(self, kind, const=None, fn=None, name=None):
        self.kind = kind
        self._const = const
        self._fn = fn
        self.name = name

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls("constant", const=c, name=f"constant({c:g})")

    @classmethod
    def from_callable(cls, fn, name=None):
        p = cls("callable", fn=fn, name=name or "callable")
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
        if self.kind == "constant":
            return self._const * np.ones_like(np.asarray(y, dtype=float))
        return np.asarray(self._fn(np.asarray(y)), dtype=float)

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
        accuracy beyond the first few.
        """
        if m < 1:
            raise InvalidArgumentError("need at least one coefficient")
        if self.kind == "constant":
            out = np.zeros(m)
            out[0] = self._const
            return out
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

    `times` has shape (T,); `U` and `V` of shape (T, n) hold the samples
    of u and ds_u on each slice. `Trajectory(times, states, step)` stacks
    a list of energy states and `Trajectory.from_arrays` takes the stacks
    directly; either way every slice is held to the OddField parity
    tolerance and projected, in one vectorised pass. The trajectory is a
    read-only sequence of its slices: indexing builds an EnergyState.
    """

    __slots__ = ("grid", "times", "U", "V", "step")

    def __init__(self, times, states, step=None):
        if len(states) == 0:
            raise InvalidDataError("empty trajectory")
        grid = states[0].grid
        if any(st.grid is not grid for st in states):
            raise InvalidDataError("states live on different grids")
        self._fill(grid, times, [st.u.values for st in states],
                   [st.v.values for st in states], step)

    @classmethod
    def from_arrays(cls, grid, times, U, V, step=None):
        """Trajectory of (T,) times and (T, n) stacks U of u, V of ds_u."""
        traj = cls.__new__(cls)
        traj._fill(grid, times, U, V, step)
        return traj

    def _fill(self, grid, times, U, V, step):
        times = np.array(times, dtype=float)
        if times.size == 0:
            raise InvalidDataError("empty trajectory")
        if len(U) != times.size or len(V) != times.size:
            raise InvalidDataError("times/states length mismatch")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise InvalidDataError("times must be strictly increasing")
        times.setflags(write=False)
        self.grid = grid
        self.times = times
        self.U = _odd_part(grid, U, 1e-6, ndim=2)
        self.V = _odd_part(grid, V, 1e-6, ndim=2)
        if step is None:
            step = float(times[1] - times[0]) if times.size > 1 else 0.0
        self.step = step

    @property
    def states(self):
        """The slices as energy states (the trajectory itself)."""
        return self

    def __len__(self):
        return self.times.size

    def __getitem__(self, i):
        return EnergyState(OddField(self.grid, self.U[i]),
                           OddField(self.grid, self.V[i]))

    def first_components(self):
        """(num_slices, n) array of the u components."""
        return self.U

    def restricted(self, s_lo, s_hi):
        sel = (self.times >= s_lo - 1e-12) & (self.times <= s_hi + 1e-12)
        if not np.any(sel):
            raise InvalidDataError("no slices in the requested window")
        return Trajectory.from_arrays(self.grid, self.times[sel],
                                      self.U[sel], self.V[sel],
                                      step=self.step)


def slice_norms(U, grid, q):
    """L^q(-1,1) norms of the rows of a (T, n) sample stack (one row: a
    scalar); q = inf gives the sample sup."""
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    a = np.abs(U)
    if np.isinf(q):
        return np.max(a, axis=-1)
    return (a ** q @ grid.quad_weights) ** (1.0 / q)


def slice_energies(U, V, grid):
    """Energy norms sqrt(int (1-y^2)|u'|^2 + int |v|^2) of the rows of
    (T, n) stacks of u and v = ds_u (one row each: a scalar)."""
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise InvalidDataError("non-finite state")
    dU = (grid.diff_matrix @ np.transpose(U)).T
    val = np.sum(grid.quad_weights * (1.0 - grid.nodes ** 2)
                 * np.abs(dU) ** 2, axis=-1) \
        + np.sum(grid.quad_weights * np.abs(V) ** 2, axis=-1)
    return np.sqrt(np.maximum(np.real(val), 0.0))


def energy_norm(state):
    """Energy norm of a state: sqrt(int (1-y^2)|u'|^2 + int |v|^2)."""
    return float(slice_energies(state.u.values, state.v.values, state.grid))


def lq_norm(field, q):
    """L^q(-1,1) norm of an odd field; q = inf gives the sample sup."""
    return float(slice_norms(field.values, field.grid, q))


def _mixed_from_samples(times, lq_values, p):
    """L^p in s of per-slice norms sampled at `times` (an array)."""
    if np.isinf(p):
        return float(np.max(lq_values))
    return float(np.trapezoid(lq_values ** p, times) ** (1.0 / p))


def mixed_norm(traj, p, q):
    """L^p in s of the L^q(-1,1) norms of the u component."""
    if p < 2:
        raise InvalidArgumentError(f"p must be >= 2, got {p}")
    return _mixed_from_samples(traj.times, slice_norms(traj.U, traj.grid, q),
                               p)


def sobolev_embedding_ratio(f, q):
    """||f||_{L^q} divided by the weighted derivative norm of f."""
    den = slice_energies(f.values, np.zeros(f.grid.n), f.grid)
    if den <= 1e-300:
        raise UndefinedRatioError("weighted derivative norm vanishes")
    return lq_norm(f, q) / float(den)


def extrapolate_to(values, grid, y_target, num_points=4):
    """Polynomial extrapolation of node samples to a point off the grid.

    Uses the `num_points` nodes nearest to y_target with a Lagrange form;
    intended for boundary traces at y = +-1. `values` holds one field's
    samples (giving a complex number) or fields as the columns of an
    (n, T) array (giving T values).
    """
    nodes = grid.nodes
    order = np.argsort(np.abs(nodes - y_target))[:num_points]
    xs = nodes[order]
    w = np.ones(num_points)
    for i in range(num_points):
        for k in range(num_points):
            if k != i:
                w[i] *= (y_target - xs[k]) / (xs[i] - xs[k])
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
