"""Exact closed-form solution of the free problem (V = 0).

For odd data (f, g) the solution is

    u(s,y) = 1/2 * integral over [1-e^{-s}(1+y), 1-e^{-s}(1-y)]
             of (1+x) f'(x) + g(x) dx,

and its s-derivative consists of the Leibniz boundary terms only. This
makes the module a machine-accuracy oracle for the evolution code. Data
are Chebyshev coefficient arrays; the antiderivative is exact in
coefficient space and is built by one routine for a single datum and for
a batch of data alike.
"""

from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as C

from .core_types import (
    Grid,
    OddField,
    Trajectory,
    extrapolate_to,
    odd_extension,
    positive_half,
    slice_energies,
)
from .errors import InvalidArgumentError, InvalidDataError
from .evolution import _step_count


class ClosedFormSolution(NamedTuple):
    """Free solution defined by odd data; see module docstring.

    f_field/g_field hold grid samples of the data; F = (1+x) f' + g and
    its antiderivative H are Chebyshev coefficient arrays.
    """
    grid: Grid
    f_field: OddField
    g_field: OddField
    F: np.ndarray
    H: np.ndarray


def from_chebyshev(grid, cf, cg):
    """Build a solution from Chebyshev coefficient arrays of odd data."""
    cf = np.atleast_1d(np.asarray(cf, dtype=float))
    cg = np.atleast_1d(np.asarray(cg, dtype=float))
    if np.max(np.abs(cf[0::2])) > 0 or np.max(np.abs(cg[0::2])) > 0:
        raise InvalidDataError("even-order Chebyshev coefficients present")
    f_field = OddField(grid, C.chebval(grid.nodes, cf))
    g_field = OddField(grid, C.chebval(grid.nodes, cg))
    # one column of the batch routine, which needs equal lengths >= 2
    d = max(len(cf), len(cg), 2)
    F = _flux_columns(np.pad(cf, (0, d - len(cf)))[:, None],
                      np.pad(cg, (0, d - len(cg)))[:, None])[:, 0]
    return ClosedFormSolution(grid, f_field, g_field, F, C.chebint(F))


def _region_endpoints(s, y):
    es = np.exp(-s)
    a = 1.0 - es * (1.0 + y)
    b = 1.0 - es * (1.0 - y)
    # for s >= 0 and |y| <= 1 both endpoints lie in [-1, 1]; at large s
    # rounding can land them exactly on 1, so clip rather than reject
    if max(np.max(np.abs(a)), np.max(np.abs(b))) > 1.0 + 1e-12:
        raise InvalidArgumentError("characteristic endpoint outside [-1, 1]")
    return np.clip(a, -1.0, 1.0), np.clip(b, -1.0, 1.0)


def _as_times(s):
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise InvalidArgumentError(f"s must be >= 0, got {np.min(s)}")
    return s


def _complex_result(out):
    out = np.asarray(out)
    return complex(out) if out.ndim == 0 else out.astype(complex)


def evaluate(sol, s, y):
    """u(s, y) for odd data; s and y may be scalars or arrays that
    broadcast against each other (e.g. times (T, 1) and nodes (n,))."""
    a, b = _region_endpoints(_as_times(s), np.asarray(y, dtype=float))
    return _complex_result(0.5 * (C.chebval(b, sol.H) - C.chebval(a, sol.H)))


def _flux_columns(cf, cg):
    """Chebyshev coefficients of F = (1+x) f'(x) + g(x), one column per
    datum, for (d, M) coefficient matrices cf, cg (d >= 2) of odd data."""
    dcf = C.chebder(cf, axis=0)
    # x f' by x T_0 = T_1, x T_k = (T_{k+1} + T_{k-1})/2 (chebmulx is
    # 1-D and trims trailing zeros, so the columns would not stack)
    F = np.zeros((len(dcf) + 1, dcf.shape[1]))
    half = dcf[1:] / 2
    F[1] = dcf[0]
    F[2:] = half
    F[:-2] += half
    F[:-1] += dcf
    F += cg
    return F


def antiderivative_columns(cf, cg):
    """Chebyshev coefficients of H = integral of (1+x) f'(x) + g(x), one
    column per datum, for (d, M) coefficient matrices cf, cg (d >= 2) of
    odd data."""
    return C.chebint(_flux_columns(cf, cg), axis=0)


def evaluate_columns(H, s, y, out=None):
    """u(s, y) = (T(b) - T(a)) H / 2 for every column of H (from
    antiderivative_columns) at the times s (k,) and points y (n,), with
    T the Chebyshev-Vandermonde matrix of the characteristic endpoints;
    shape (k, M, n), a transposed view of a (k, n, M) array: `out` if
    given (C-contiguous, of H's dtype), else a new one."""
    a, b = _region_endpoints(_as_times(s)[:, None], np.asarray(y, float))
    deg = len(H) - 1
    T = C.chebvander(b, deg) - C.chebvander(a, deg)  # (k, n, deg+1)
    U = np.matmul(T.reshape(-1, deg + 1), H,
                  out=None if out is None else out.reshape(-1, H.shape[1]))
    U *= 0.5
    return U.reshape(len(s), len(y), -1).transpose(0, 2, 1)


def ds_evaluate(sol, s, y):
    """Exact s-derivative of the odd-data solution (boundary terms); s
    and y broadcast as in evaluate."""
    s = _as_times(s)
    y = np.asarray(y, dtype=float)
    a, b = _region_endpoints(s, y)
    es = np.exp(-s)
    return _complex_result(0.5 * (C.chebval(b, sol.F) * es * (1.0 - y)
                                  - C.chebval(a, sol.F) * es * (1.0 + y)))


def free_trajectory(f, g, grid, s_max, ds):
    """Sample the closed-form solution and its s-derivative on slices.

    f, g are Chebyshev coefficient arrays of odd data. Slices run over
    0, ds, ..., up to s_max. Only the positive nodes are evaluated: the
    characteristic endpoints swap exactly at the mirrored node.
    """
    if ds <= 0 or s_max < ds:
        raise InvalidArgumentError("need ds > 0 and s_max >= ds")
    sol = from_chebyshev(grid, f, g)
    num = _step_count(s_max, ds, grid.n)[1]
    times = np.arange(num + 1) * ds
    U = evaluate(sol, times[:, None], positive_half(grid.nodes))
    V = ds_evaluate(sol, times[:, None], positive_half(grid.nodes))
    return Trajectory.from_halves(grid, times, U, V)


def energy_flux_check(traj):
    """Max defect of the energy identity along a trajectory.

    The identity couples the s-derivative of the squared energy to the
    outgoing flux |ds_u|^2 at the two endpoints. dE/ds is centered; the
    boundary traces come from 4-point extrapolation. The defect is
    normalized by E(0).
    """
    if len(traj) < 3:
        raise InvalidDataError("need at least 3 slices")
    E = slice_energies(traj.U, traj.V, traj.grid) ** 2
    if E[0] == 0.0:
        return 0.0
    t = traj.times
    dE = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    V = odd_extension(traj.V[1:-1]).T
    fl = np.abs(extrapolate_to(V, traj.grid, 1.0)) ** 2 \
        + np.abs(extrapolate_to(V, traj.grid, -1.0)) ** 2
    return float(np.max(np.abs(dE + 2.0 * fl))) / E[0]
