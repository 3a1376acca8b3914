"""Exact closed-form solution of the free problem (V = 0).

For odd data (f, g) the solution is

    u(s,y) = 1/2 * integral over [1-e^{-s}(1+y), 1-e^{-s}(1-y)]
             of (1+x) f'(x) + g(x) dx,

and its s-derivative consists of the Leibniz boundary terms only. This
makes the module a machine-accuracy oracle for the evolution code. Data
given as Chebyshev coefficient arrays use an exact antiderivative in
coefficient space; callables fall back to adaptive quadrature.
"""

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy.integrate import quad

from .core_types import (
    OddField,
    Trajectory,
    extrapolate_to,
    slice_energies,
)
from .errors import InvalidArgumentError, InvalidDataError


class ClosedFormSolution:
    """Free solution defined by odd data; see module docstring.

    Attributes f_field/g_field hold grid samples of the data. Exactly one
    of (cheb coefficients, callables) backs the evaluation.
    """

    __slots__ = ("grid", "f_field", "g_field", "_cheb_H", "_cheb_F",
                 "_callables")

    def __init__(self, grid, f_field, g_field, cheb=None, callables=None):
        self.grid = grid
        self.f_field = f_field
        self.g_field = g_field
        self._cheb_H = None
        self._cheb_F = None
        self._callables = None
        if cheb is not None:
            cf, cg = cheb
            dcf = C.chebder(cf)
            if len(dcf) == 0:
                dcf = np.zeros(1)
            # F(x) = (1+x) f'(x) + g(x) in coefficient space
            F = C.chebadd(C.chebadd(dcf, C.chebmulx(dcf)), cg)
            self._cheb_F = F
            self._cheb_H = C.chebint(F)
        elif callables is not None:
            self._callables = callables  # (f, fp, g)
        else:
            raise InvalidDataError("need Chebyshev data or callables")


def from_chebyshev(grid, cf, cg):
    """Build a solution from Chebyshev coefficient arrays of odd data."""
    cf = np.atleast_1d(np.asarray(cf, dtype=float))
    cg = np.atleast_1d(np.asarray(cg, dtype=float))
    if np.max(np.abs(cf[0::2])) > 0 or np.max(np.abs(cg[0::2])) > 0:
        raise InvalidDataError("even-order Chebyshev coefficients present")
    f_field = OddField(grid, C.chebval(grid.nodes, cf))
    g_field = OddField(grid, C.chebval(grid.nodes, cg))
    return ClosedFormSolution(grid, f_field, g_field, cheb=(cf, cg))


def from_callables(grid, f, fp, g):
    f_field = OddField.from_callable(grid, f)
    g_field = OddField.from_callable(grid, g)
    return ClosedFormSolution(grid, f_field, g_field, callables=(f, fp, g))


def _region_endpoints(s, y):
    es = np.exp(-s)
    a = 1.0 - es * (1.0 + y)
    b = 1.0 - es * (1.0 - y)
    # for s >= 0 and |y| <= 1 both endpoints lie in [-1, 1]; at large s
    # rounding can land them exactly on 1, so clip rather than reject
    if max(np.max(np.abs(a)), np.max(np.abs(b))) > 1.0 + 1e-12:
        raise InvalidArgumentError("characteristic endpoint outside [-1, 1]")
    return np.clip(a, -1.0, 1.0), np.clip(b, -1.0, 1.0)


def _quad_cc(fn, a, b):
    val, _ = quad(fn, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


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
    s = _as_times(s)
    y = np.asarray(y, dtype=float)
    a, b = _region_endpoints(s, y)
    if sol._cheb_H is not None:
        H = sol._cheb_H
        return _complex_result(0.5 * (C.chebval(b, H) - C.chebval(a, H)))
    f, fp, g = sol._callables
    integrand = lambda x: (1.0 + x) * fp(x) + g(x)
    out = [0.5 * _quad_cc(integrand, float(ai), float(bi))
           for ai, bi in zip(a.ravel(), b.ravel())]
    return _complex_result(np.reshape(out, a.shape))


def ds_evaluate(sol, s, y):
    """Exact s-derivative of the odd-data solution (boundary terms); s
    and y broadcast as in evaluate."""
    s = _as_times(s)
    y = np.asarray(y, dtype=float)
    a, b = _region_endpoints(s, y)
    es = np.exp(-s)
    if sol._cheb_F is not None:
        F = lambda x: C.chebval(x, sol._cheb_F)
    else:
        f, fp, g = sol._callables
        F = lambda x: (1.0 + x) * fp(x) + g(x)
    return _complex_result(
        0.5 * (F(b) * es * (1.0 - y) - F(a) * es * (1.0 + y)))


def _as_solution(f, g, grid, fp):
    if isinstance(f, ClosedFormSolution):
        return f
    if callable(f) or callable(g):
        if fp is None:
            raise InvalidArgumentError("callable data needs fp (f')")
        return from_callables(grid, f, fp, g)
    return from_chebyshev(grid, f, g)


def free_trajectory(f, g, grid, s_max, ds, fp=None):
    """Sample the closed-form solution and its s-derivative on slices.

    f, g are Chebyshev coefficient arrays of odd data, or callables (then
    fp must be supplied). Slices run over 0, ds, ..., up to s_max.
    """
    if ds <= 0 or s_max < ds:
        raise InvalidArgumentError("need ds > 0 and s_max >= ds")
    sol = _as_solution(f, g, grid, fp)
    num = int(np.floor(s_max / ds + 1e-12))
    times = np.arange(num + 1) * ds
    U = evaluate(sol, times[:, None], grid.nodes)
    V = ds_evaluate(sol, times[:, None], grid.nodes)
    return Trajectory.from_arrays(grid, times, U, V, step=ds)


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
    V = traj.V[1:-1].T
    fl = np.abs(extrapolate_to(V, traj.grid, 1.0)) ** 2 \
        + np.abs(extrapolate_to(V, traj.grid, -1.0)) ** 2
    return float(np.max(np.abs(dE + 2.0 * fl))) / E[0]
