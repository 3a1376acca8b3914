"""The hyperboloidal chart and transport of functions between charts.

Forward map: (s, y) -> (t, x) = (s - log sqrt(1 - y^2), artanh y).
Inverse map: (t, x) -> (t - log cosh x, tanh x).
Level sets of s are asymptotic to forward light cones in (t, x).
"""

from typing import NamedTuple

import numpy as np

from .core_types import OddField
from .errors import InterpolationDomainError, OutOfChartError


class CartesianPoint(NamedTuple):
    t: float
    x: float


class HyperboloidalPoint(NamedTuple):
    s: float
    y: float


def logcosh(x):
    """log(cosh x), overflow-safe for large |x|."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def phi(p):
    """Map hyperboloidal coordinates (numbers or arrays) to Cartesian."""
    s, y = p
    if not np.all(np.abs(y) < 1.0):
        raise OutOfChartError(
            f"|y| must be < 1, got max |y| = {np.max(np.abs(y)):g}")
    return CartesianPoint(s - 0.5 * np.log1p(-y * y), np.arctanh(y))


def phi_inv(p):
    """Map Cartesian coordinates (numbers or arrays) to hyperboloidal
    ones (total map)."""
    t, x = p
    return HyperboloidalPoint(t - logcosh(x), np.tanh(x))


def pull_back_slice(W, s, grid):
    """Sample u(s, y_i) = W(s - log sqrt(1-y_i^2), artanh y_i) on a grid.

    W is a callable of (t, r). Evaluation failures are reported as
    interpolation-domain errors; the result is returned as an OddField
    (W odd in r makes the slice odd in y).
    """
    t, r = phi((s, grid.nodes))
    vals = np.empty(grid.n, dtype=complex)
    for i in range(grid.n):
        try:
            vals[i] = W(t[i], r[i])
        except Exception as exc:
            raise InterpolationDomainError(
                f"W evaluation failed at (t,r)=({t[i]:.6g},{r[i]:.6g}): {exc}"
            ) from exc
    return OddField(grid, vals)
