"""The analytic-at-one branch u1, Volterra comparison, Wronskians, the
mode finder, and the Green-function resolvent.

In the variable z = 1 - y the homogeneous spectral ODE reads

    z(2-z) w'' + 2(lam+1)(1-z) w' - [lam(lam+1) + V(1-z)] w = 0,

with a regular singular point at z = 0 and indicial roots {0, -lam}.
The analytic branch is seeded by a Taylor series at z = 0 normalized so
that w(0) = 2^(-lam) (which makes u1(0, lam) = 1 for vanishing V), then
carried to y = 0 by high-order ODE integration (`build_u1`, which also
samples each root's eigenfunction and residual). u1(0, lam) is the mode
function whose zeros in the closed right half-plane form the point set
the evolution code must project out.

The mode finder evaluates u1(0, lam) many times. For a polynomial V
(`Potential.constant`, `Potential.even_poly`) the ODE has polynomial
coefficients, and `_u1_taylor` continues its Taylor series analytically
from the Frobenius series to z = 1, for a whole contour at once or for
one lambda with its exact lambda-derivative (Newton); its error is about
1e-13 of |u1|. A callable V takes fixed-step RK4 on contours and a
central difference of adaptive solves in Newton. The Green function
keeps the Taylor terms of one continuation per branch as dense output
(`_TaylorSolution`) for a polynomial V, and calls `build_u1` for a
callable.

The Volterra route (`build_v1_volterra`) builds the same branch by
successive approximation of an integral equation, a check on `build_u1`.
It and the Green function share the module's one quadrature rule, the
Gauss-Legendre panels sized by |lambda| of `_green_rule`.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core_types import (
    EnergyState,
    OddField,
    _barycentric_matrix,
    _taylor_shift,
    make_grid,
    positive_half,
)
from .errors import (
    ContourAccuracyError,
    InconsistencyError,
    InvalidArgumentError,
    NearEigenvalueError,
    ResonanceError,
    StiffFailureError,
    VolterraDivergenceError,
)

# series order and seeding offset: truncation ~ _SEED_OFFSET^(m+1), far
# below the 1e-8 root tolerance
DEFAULT_SERIES_ORDER = 12
_SEED_OFFSET = 1e-6


def _resonance_check(lam):
    lr = -complex(lam)
    kr = round(lr.real)
    if kr >= 0 and abs(lr - kr) <= 1e-12:
        raise ResonanceError(
            f"-lambda = {lr:.3g} is a nonnegative integer (indicial"
            " resonance); perturb lambda or raise the series order")


def _v_z_coefficients(V, m):
    """Coefficients of V at y=1 in powers of z = 1-y."""
    t = V.taylor_at_one(m + 1)
    return t * (-1.0) ** np.arange(len(t))


def _frobenius_coefficients(bz, lam, m, check=True, c0=None, slope=False):
    """Taylor recurrence of the z-form ODE at z = 0, branch exponent 0.

    2 (k+1)(k+1+lam) c_{k+1} = (k+lam)(k+lam+1) c_k + sum_j bz_j c_{k-j},
    seeded with c_0 = 2^(-lam), or with a given c0 that does not depend
    on lam. Returns the list c_0, ..., c_m; `lam` is a complex number or
    an array of N values (each c_k is then an array). With `slope`, also
    returns the list of the lam-derivatives of the c_k, from the same
    recurrence differentiated. The denominators only vanish at negative
    integer lambda; `check=False` skips the resonance test for paths that
    are known to stay right of Re lambda = -1/2.
    """
    if check:
        _resonance_check(lam)
    c = [np.exp(-lam * np.log(2.0)) if c0 is None else c0]
    d = [-np.log(2.0) * c[0] if c0 is None else 0.0] if slope else None
    for k in range(m):
        s = (k + lam) * (k + lam + 1.0) * c[k]
        for j in range(min(k, len(bz) - 1) + 1):
            s += bz[j] * c[k - j]
        den = 2.0 * (k + 1) * (k + 1 + lam)
        c.append(s / den)
        if slope:
            t = ((2.0 * k + 1.0 + 2.0 * lam) * c[k]
                 + (k + lam) * (k + lam + 1.0) * d[k]
                 - 2.0 * (k + 1) * c[k + 1])
            for j in range(min(k, len(bz) - 1) + 1):
                t += bz[j] * d[k - j]
            d.append(t / den)
    return (c, d) if slope else c


def _z_samples(y):
    """The points y as an array, and z = 1 - y as a 1-D array; y must lie
    in [0, 1]."""
    y = np.asarray(y, dtype=float)
    if np.any(y < -1e-14) or np.any(y > 1.0 + 1e-14):
        raise InvalidArgumentError("u1 samples live on [0, 1]")
    return y, np.atleast_1d(np.clip(1.0 - y, 0.0, 1.0))


class FrobeniusSolution:
    """u1(., lam): series near y=1 glued to an ODE solution on
    [0, 1 - _SEED_OFFSET]."""

    __slots__ = ("taylor_coeffs", "u1_at_zero", "_dense")

    def __init__(self, coeffs, dense):
        self.taylor_coeffs = coeffs
        self._dense = dense
        self.u1_at_zero = complex(dense.sol(1.0)[0])

    def _eval(self, y, d):
        """w (d = 0) or dw/dz (d = 1) at the points y: the dense ODE
        solution where z = 1 - y >= _SEED_OFFSET, the series below."""
        y, z = _z_samples(y)
        on_dense = z >= _SEED_OFFSET
        out = np.empty(z.shape, dtype=complex)
        if np.any(on_dense):
            out[on_dense] = self._dense.sol(z[on_dense])[d]
        if np.any(~on_dense):
            c = self.taylor_coeffs[None, d:]
            k = np.arange(d, self.taylor_coeffs.size)
            zk = z[~on_dense][:, None] ** (k - d)
            out[~on_dense] = np.sum((c * k if d else c) * zk, axis=1)
        return complex(out[0]) if y.ndim == 0 else out

    def u1(self, y):
        return self._eval(y, 0)

    def du1(self, y):
        """d u1 / dy (the dense state carries dw/dz = -du1/dy)."""
        return -self._eval(y, 1)


def build_u1(V, lam, m=DEFAULT_SERIES_ORDER, check_resonance=True):
    """Construct the analytic-at-one branch for one lambda.

    Requires Re lambda >= -1/4. Detects indicial resonance (which only
    obstructs pairing with the second branch, so root polishing disables
    the check), seeds the series at z = _SEED_OFFSET and integrates to
    y = 0 with adaptive high-order stepping (dense output retained for
    later sampling).
    """
    lam = complex(lam)
    if lam.real < -0.25 - 1e-12:
        raise InvalidArgumentError(
            f"Re lambda >= -1/4 required, got {lam.real}")
    if abs(lam) < 1e-150:
        # DOP853's error norm underflows to 0/0 on the O(lam) slope such a
        # lam gives for V ~ 0; u1 is analytic in lam, so lam = 0 differs
        # from it far below round-off
        lam = 0j
    bz = _v_z_coefficients(V, m)
    c = np.array(_frobenius_coefficients(bz, np.asarray(lam), m,
                                         check=check_resonance))
    k = np.arange(m + 1)
    w0 = complex(np.sum(c * _SEED_OFFSET ** k))
    dw0 = complex(np.sum(c[1:] * k[1:] * _SEED_OFFSET ** (k[1:] - 1.0)))

    def rhs(z, st):
        w, dw = st
        vy = V.at(1.0 - z)
        dd = (-2.0 * (lam + 1.0) * (1.0 - z) * dw
              + (lam * (lam + 1.0) + vy) * w) / (z * (2.0 - z))
        return [dw, dd]

    # imported at its one call site: scipy.integrate is slow to load
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (_SEED_OFFSET, 1.0), [w0, dw0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.success:
        raise StiffFailureError(f"integration failed: {sol.message}")
    return FrobeniusSolution(c, sol)


# Contour samples of u1(0, lam) are held to this error, relative to the
# median |u1| on the contour; `_z_mesh` is sized for it.
_CONTOUR_REL_ERROR = 1e-5
# `_winding` trusts a node only when |u1| is at least this share of the
# median: 10x the sample error, so its phase is off by at most ~0.1 rad.
_CONTOUR_GUARD = 10.0 * _CONTOUR_REL_ERROR


def _z_mesh(kappa):
    """RK4 mesh on [_SEED_OFFSET, 1] for the contour evaluation of u1(0, .).

    kappa >= 1 bounds the rates of the ODE's solutions on z >= 0.1: |lam|
    for the analytic branch ~ (2-z)^(-lam) and sqrt(|V| / (z(2-z))) for
    the potential. Up to z = 0.1 the mesh is geometric with
    kappa * (ratio - 1) <= 1, which keeps the non-analytic branch
    ~ z^(-lam) inside RK4's stability region. Beyond, RK4's error on a
    rate-kappa branch over the remaining length 0.9 is about
    0.9 kappa (h kappa)^4 / 120, so h kappa is chosen to hold that to
    _CONTOUR_REL_ERROR (h <= 0.01 resolves V and the 1/(z(2-z))
    coefficient).
    """
    zs = [_SEED_OFFSET]
    ratio = 1.0 + min(0.1, 1.0 / kappa)
    while zs[-1] < 0.1:
        zs.append(min(zs[-1] * ratio, 0.1))
    theta = (120.0 * _CONTOUR_REL_ERROR / (0.9 * kappa)) ** 0.25
    h = min(0.01, theta / kappa)
    return np.concatenate(
        [zs, np.linspace(0.1, 1.0, int(np.ceil(0.9 / h)) + 1)[1:]])


def _kappa(V, lam_abs):
    """The rate bound of `_z_mesh` and `_taylor_mesh` for |lam| <= lam_abs
    (z(2-z) = 0.19 at z = 0.1, where the rate of the potential peaks)."""
    return max(1.0, lam_abs, np.sqrt(V.max_abs() / 0.19))


def _u1_zero_batch(V, lams):
    """u1(0, lam) for an array of lambdas, on one z-mesh sized by the
    largest |lam|.

    A polynomial V goes to the Taylor kernel `_u1_taylor` (error ~1e-13
    relative to the median |u1|), a callable to the vectorized fixed-step
    RK4 `_u1_rk4` (error _CONTOUR_REL_ERROR), each with its own fixed
    series order: the `m` of `find_sigma_v` reaches only each root's final
    `build_u1`. Either is enough for winding counts, where thousands of
    evaluations are needed; roots are always re-polished by
    `_newton_polish`.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if np.any(lams.real < -0.49):
        raise InvalidArgumentError("batch evaluation requires Re lambda > -1/2")
    kappa = _kappa(V, float(np.max(np.abs(lams))))
    if V.even_coeffs is not None:
        return _u1_taylor(V, lams, kappa)
    return _u1_rk4(V, lams, kappa)


# Taylor kernel (`_u1_taylor`). A step h <= z0 min(1/2, _TAYLOR_REACH /
# kappa) from an expansion point z0 holds the terms of both solution
# branches below _TAYLOR_REACH^k / k!: the analytic one (rate <= kappa)
# and the one ~ z^(-lam) that round-off excites (rate |lam| / z0). With
# _TAYLOR_TERMS terms the truncation is below 8^48 / 48! ~ 2e-18, and
# round-off in the largest term, 8^8 / 8! ~ 4e2, keeps the error near
# 1e-13 of |u1| (about 5e-14 against the closed form for constant V).
_TAYLOR_TERMS = 48
_TAYLOR_REACH = 8.0
# where the Frobenius series at z = 0 (radius 2) is summed, at most
_TAYLOR_SEED = 0.2


def _taylor_mesh(kappa):
    """Expansion points of `_u1_taylor`: the seed min(_TAYLOR_SEED,
    2 _TAYLOR_REACH / kappa), where the Frobenius terms obey the same
    bound, then a geometric mesh to z = 1 whose ratio is at most
    1 + min(1/2, _TAYLOR_REACH / kappa)."""
    q = min(0.5, _TAYLOR_REACH / kappa)
    z = min(_TAYLOR_SEED, 2.0 * _TAYLOR_REACH / kappa)
    n = math.ceil(math.log(1.0 / z) / math.log1p(q))
    return [z ** (1.0 - i / n) for i in range(n)] + [1.0]


def _series_at(c, z):
    """The value and z-derivative of sum_k c_k z^k."""
    zk = [z ** k for k in range(len(c))]
    return (sum(ck * p for ck, p in zip(c, zk)),
            sum(k * ck * p for k, (ck, p) in enumerate(zip(c[1:], zk), 1)))


def _u1_taylor(V, lam, kappa, slope=False):
    """u1(0, lam) for a polynomial V by analytic continuation of its
    Taylor series (Corliss & Chang 1982; van der Hoeven 1999).

    `lam` is a complex number (Newton) or an array (contours): the
    recurrences are written once for both. The Frobenius series, seeded
    with c_0 = 1, is summed at the first point of `_taylor_mesh(kappa)`;
    at each next point z0 the solution is re-expanded in t = z - z0 up to
    the step h to the next point (`_taylor_continuation`). With `slope`,
    returns (u1, d u1 / d lam): the lam-derivatives are carried along the
    same recurrences in forward mode. The normalization 2^(-lam) is
    applied at the end.
    """
    _, w = _taylor_continuation(V, lam, _taylor_mesh(kappa), slope)
    norm = np.exp(-lam * np.log(2.0))
    if slope:
        w, lw = w
        return norm * w, norm * (lw - np.log(2.0) * w)
    return norm * w


def _taylor_continuation(V, lam, zs, slope=False, panels=None):
    """The panel loop of `_u1_taylor` on the mesh `zs`.

    Returns the Frobenius seed (c_0 = 1) and w(1), both without the
    normalization 2^(-lam); with `slope`, each is the pair of it and its
    lam-derivative. With p0 = z0(2 - z0), p1 = 2(1 - z0) and r_j the
    coefficients of lam(lam+1) + V(1 - z0 - t), the Taylor coefficients
    a_k of the solution at an expansion point z0 satisfy

      p0 (k+1)(k+2) a_{k+2} = -p1 (k+1)(k+lam+1) a_{k+1}
                              + k(k+2 lam+1) a_k + sum_j r_j a_{k-j},

    the ODE's three-term part plus the convolution with V; the loop
    carries the terms a_k h^k, and appends each panel's list of them to
    the list `panels` when one is given.
    """
    bz = [float(b) for b in
          _v_z_coefficients(V, 2 * len(V.even_coeffs) - 2)]
    seed = _frobenius_coefficients(bz, lam, _TAYLOR_TERMS, check=False,
                                   c0=1.0, slope=slope)
    if slope:
        w, dw = _series_at(seed[0], zs[0])
        lw, ldw = _series_at(seed[1], zs[0])
    else:
        w, dw = _series_at(seed, zs[0])
    twolam1 = 2.0 * lam + 1.0
    lamlam = lam * (lam + 1.0)
    for z0, z1 in zip(zs[:-1], zs[1:]):
        h = z1 - z0
        p0 = z0 * (2.0 - z0)
        alpha = -2.0 * (1.0 - z0) * h / p0
        beta = h * h / p0
        rho = [r * h ** (j + 2) / p0
               for j, r in enumerate(_taylor_shift(bz, z0))]
        r0 = beta * lamlam + rho[0]
        deg = len(rho) - 1
        a = [w, h * dw]
        w, dw = a[0] + a[1], a[1]
        if slope:
            b = [lw, h * ldw]
            lw, ldw = b[0] + b[1], b[1]
        for k in range(_TAYLOR_TERMS - 1):
            u = alpha * (k + 1) * (lam + (k + 1))
            x = beta * k * (twolam1 + k) + r0
            conv = range(1, min(k, deg) + 1)
            inv = 1.0 / ((k + 1) * (k + 2))
            s = u * a[k + 1] + x * a[k]
            for j in conv:
                s += rho[j] * a[k - j]
            s = s * inv
            a.append(s)
            w = w + s
            dw = dw + (k + 2) * s
            if slope:
                t = (u * b[k + 1] + alpha * (k + 1) * a[k + 1] + x * b[k]
                     + beta * (twolam1 + 2 * k) * a[k])
                for j in conv:
                    t += rho[j] * b[k - j]
                t = t * inv
                b.append(t)
                lw = lw + t
                ldw = ldw + (k + 2) * t
        dw = dw / h
        if slope:
            ldw = ldw / h
        if panels is not None:
            panels.append(a)
    return seed, ((w, lw) if slope else w)


class _TaylorSolution:
    """u1(., lam) for a polynomial V: the dense form of one `_u1_taylor`
    continuation, the same analytic branch `build_u1` integrates.

    The terms a_k h^k of every panel [z0, z1] of `_taylor_mesh` are kept;
    a point z = 1 - y on a panel is summed by Horner in
    t = (z - z0) / h in [0, 1], a point below the first expansion point
    by Horner on the Frobenius series, and 2^(-lam) is applied at the
    end. `u1_at_zero` is the value `_u1_taylor` gives, bit for bit.
    """

    __slots__ = ("u1_at_zero", "_zs", "_z0", "_h", "_coeffs", "_norm")

    def __init__(self, V, lam):
        lam = complex(lam)
        # as in build_u1: the series divides by k + 1 + lam, and at
        # lam = 0 the Green function's branches +-lam coincide
        _resonance_check(lam)
        zs = _taylor_mesh(_kappa(V, abs(lam)))
        panels = []
        seed, w = _taylor_continuation(V, lam, zs, panels=panels)
        self._norm = np.exp(-lam * np.log(2.0))
        self.u1_at_zero = complex(self._norm * w)
        # the series is the last column: points below zs[0] take panel
        # index -1, with origin 0 and width 1 (so t = z)
        self._zs = np.array(zs)
        self._z0 = np.append(self._zs[:-1], 0.0)
        self._h = np.append(np.diff(self._zs), 1.0)
        self._coeffs = np.array(panels + [seed]).T

    def u1(self, y):
        y, z = _z_samples(y)
        i = np.minimum(np.searchsorted(self._zs, z, side="right") - 1,
                       self._zs.size - 2)
        t = (z - self._z0[i]) / self._h[i]
        acc = self._coeffs[-1, i]
        for row in self._coeffs[-2::-1]:
            acc = acc * t + row[i]
        out = self._norm * acc
        return complex(out[0]) if y.ndim == 0 else out


def _u1_rk4(V, lams, kappa):
    """u1(0, lam) for an array of lambdas by vectorized fixed-step RK4.

    The Frobenius seeds of all lambdas come from one array recurrence (of
    order DEFAULT_SERIES_ORDER) and the state (w, w') is carried as two
    arrays over one z-mesh (V sampled once per node and midpoint). The
    error relative to the median |u1| is _CONTOUR_REL_ERROR (see
    `_z_mesh`).
    """
    m = DEFAULT_SERIES_ORDER
    c = np.array(_frobenius_coefficients(_v_z_coefficients(V, m), lams, m,
                                         check=False))
    k = np.arange(m + 1)
    w = _SEED_OFFSET ** k @ c
    dw = (k[1:] * _SEED_OFFSET ** (k[1:] - 1.0)) @ c[1:]

    zs = _z_mesh(kappa)
    hs = np.diff(zs)
    zm = zs[:-1] + 0.5 * hs
    v_node = V(1.0 - zs)
    v_mid = V(1.0 - zm)
    a = -2.0 * (lams + 1.0)
    b = lams * (lams + 1.0)

    def ddw(z, vz, w_, dw_):
        return (a * (1.0 - z) * dw_ + (b + vz) * w_) / (z * (2.0 - z))

    for i, h in enumerate(hs):
        z0, z1 = zs[i], zs[i + 1]
        k1w, k1d = dw, ddw(z0, v_node[i], w, dw)
        k2w = dw + 0.5 * h * k1d
        k2d = ddw(zm[i], v_mid[i], w + 0.5 * h * k1w, k2w)
        k3w = dw + 0.5 * h * k2d
        k3d = ddw(zm[i], v_mid[i], w + 0.5 * h * k2w, k3w)
        k4w = dw + h * k3d
        k4d = ddw(z1, v_node[i + 1], w + h * k3w, k4w)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        dw = dw + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return w


# ---------------------------------------------------------------------------
# Volterra route

class VolterraSolution:
    """Samples of h1 at the ascending panel points `mesh`; v1 = psi1 h1."""

    __slots__ = ("lam", "mesh", "h1")

    def __init__(self, lam, mesh, h1):
        self.lam = lam
        self.mesh = mesh
        self.h1 = h1

    def u1_values(self):
        """Reconstruction of u1 at the panel points: (1+y)^(-lam) h1(y)."""
        return np.exp(-self.lam * np.log1p(self.mesh)) * self.h1


def build_v1_volterra(V, lam):
    """Successive approximation for h1 on `_green_rule`'s Gauss panels.

    h1 <- 1 + (1/2lam) [ int_y^1 V h1 - q(y)^(-lam) int_y^1 q^lam V h1 ],
    q = (1-y)/(1+y), on one segment [0, 1 - _GREEN_TAIL] (no node
    breakpoints) with _VOLTERRA_POINTS points per panel. int_y^1 is the
    sum over the panels above y plus the part of y's own panel above it.
    Iterates until the sup-difference drops below 1e-12, at most 200
    times.
    """
    lam = complex(lam)
    if abs(lam) < 1e-3:
        raise InvalidArgumentError(
            "|lambda| >= 1e-3 required on the Volterra route (the origin"
            " is handled by build_u1, which has no lambda-singularity)")
    if lam.real < -0.25 - 1e-12:
        raise InvalidArgumentError("Re lambda >= -1/4 required")
    p = _VOLTERRA_POINTS
    x, w, _ = _green_rule(lam, V.max_abs(), np.empty(0), points=p)
    w = w.reshape(-1, p)
    half = 0.5 * w.sum(axis=1, keepdims=True)
    # M[i, k] = int_{t_i}^1 of the k-th Lagrange polynomial of the Gauss
    # nodes t of [-1, 1]: the columns of the inverse Vandermonde matrix
    # are its Legendre coefficients
    leg = np.polynomial.legendre
    t = leg.leggauss(p)[0]
    anti = leg.legint(np.linalg.inv(leg.legvander(t, p - 1)), axis=0)
    ends = leg.legvander(np.append(t, 1.0), p) @ anti
    M = ends[-1] - ends[:-1]

    def from_top(f):
        """int_y^1 f at every point y, from f at the points."""
        f = f.reshape(w.shape)
        above = np.cumsum((w * f).sum(axis=1)[:0:-1])[::-1]
        return (half * (f @ M.T) + np.append(above, 0.0)[:, None]).ravel()

    Vx = np.asarray(V(x), dtype=complex)
    logq = np.log1p(-x) - np.log1p(x)
    qlam = np.exp(lam * logq)
    qlam_inv = np.exp(-lam * logq)
    h = np.ones_like(x, dtype=complex)
    for _ in range(200):
        IV = from_top(Vx * h)
        Iq = from_top(qlam * Vx * h)
        hn = 1.0 + (IV - Iq * qlam_inv) / (2.0 * lam)
        d = float(np.max(np.abs(hn - h)))
        h = hn
        if d <= 1e-12:
            return VolterraSolution(lam, x, h)
    raise VolterraDivergenceError(
        f"no convergence in 200 iterations (last delta {d:.3e}): max|V|"
        " too large against |lambda| for successive approximation")


# ---------------------------------------------------------------------------
# Wronskians

def wronskian_pair(V, lam):
    """The pair Wronskian of the analytic branches at +-lambda.

    Evaluated as (1-y^2)(u1(lam) u1'(-lam) - u1'(lam) u1(-lam))
    + 2 lam y u1(lam) u1(-lam) at several interior points; the exact
    value is 2 lam. Significant y-dependence raises an error.
    """
    lam = complex(lam)
    if lam == 0:
        raise InvalidArgumentError("lambda must be nonzero")
    if abs(lam.real) > 0.25 + 1e-12:
        raise InvalidArgumentError("|Re lambda| <= 1/4 required")
    sp = build_u1(V, lam)
    sm = build_u1(V, -lam)
    ys = np.array([0.0, 0.15, 0.30, 0.45, 0.60, 0.75])
    up, dup = sp.u1(ys), sp.du1(ys)
    um, dum = sm.u1(ys), sm.du1(ys)
    w = (1.0 - ys ** 2) * (up * dum - dup * um) + 2.0 * lam * ys * up * um
    mean = complex(np.mean(w))
    dev = float(np.max(np.abs(w - mean)))
    if dev > 1e-6 * max(1.0, abs(mean)):
        raise InconsistencyError(
            f"Wronskian varies by {dev:.3e} across check points")
    return mean


# ---------------------------------------------------------------------------
# Mode finder

@dataclass
class SpectralPoint:
    """One point of the right-half-plane spectrum: a zero of u1(0, .),
    its eigenfunction, and the residual |u1(0, lam)| / sup |u1|.
    Multiplicities come from the Riesz projections of the evolution
    module."""
    lam: complex
    eigenfunction: Optional[OddField] = None
    residual: float = field(default=np.nan)


def _rect_path(re_lo, re_hi, im_lo, im_hi, pts):
    """Counterclockwise rectangle boundary, pts points per edge, closed
    and starting at the corner re_lo + i im_lo.

    On a cell symmetric in Im lam (im_lo == -im_hi) each node below the
    real axis is the exact conjugate of a node above it (node k mirrors
    node 3 pts - k, mod 4 pts), so `_u1_zero_path` evaluates only the
    Im >= 0 half."""
    bottom = re_lo + np.linspace(0, 1, pts, endpoint=False) * (re_hi - re_lo) \
        + 1j * im_lo
    right = re_hi + 1j * (im_lo + np.linspace(0, 1, pts, endpoint=False)
                          * (im_hi - im_lo))
    top = re_hi + np.linspace(0, 1, pts, endpoint=False) * (re_lo - re_hi) \
        + 1j * im_hi
    left = re_lo + 1j * (im_hi + np.linspace(0, 1, pts, endpoint=False)
                         * (im_lo - im_hi))
    path = np.concatenate([bottom, right, top, left])
    path = np.append(path, path[0])
    if im_lo == -im_hi:
        k = np.flatnonzero(path.imag < 0)
        path[k] = path[(3 * pts - k) % (4 * pts)].conj()
    return path


def _u1_zero_path(V, path):
    """u1(0, .) at the nodes of a path, each conjugate pair evaluated once.

    A Potential is real, so u1(0, conj lam) = conj u1(0, lam) holds bit
    for bit in `_u1_zero_batch`. Nodes below the real axis are folded
    onto their conjugates and the batch runs on the distinct folded
    nodes: the Im >= 0 half of a symmetric cell's path (see `_rect_path`),
    every node but the closing one of any other path. The fold keeps
    max |lam|, so the z-mesh and the values are those of the whole path.
    """
    below = path.imag < 0
    nodes, where = np.unique(np.where(below, path.conj(), path),
                             return_inverse=True)
    vals = _u1_zero_batch(V, nodes)[where]
    return np.where(below, vals.conj(), vals)


def _winding(path, vals):
    """Winding of u1(0, .) along a closed path, from its samples `vals`
    at the path nodes, with its first log-derivative moment.

    Returns (w, mu): the integer winding w, and
    mu = sum lam_mid * dlog u1 / (2 pi i), the midpoint rule for the
    contour integral of lam u1'/u1 / (2 pi i), which is the sum of the
    zeros inside (Delves & Lyness 1967), so the zero itself when w = 1.
    Returns None when the sampling looks unreliable (a non-finite node,
    a node below _CONTOUR_GUARD times the median, or phase steps too
    large), so the caller can jitter/refine. The phase errors telescope,
    so only a step misjudged by a whole turn can change w.
    """
    if not np.all(np.isfinite(vals)):
        return None
    mags = np.abs(vals)
    if np.min(mags) < _CONTOUR_GUARD * max(np.median(mags), 1e-30):
        return None
    dlog = np.log(vals[1:] / vals[:-1])
    if np.max(np.abs(dlog.imag)) > 2.5:
        return None
    w = float(np.sum(dlog.imag) / (2.0 * np.pi))
    wi = int(round(w))
    if abs(w - wi) > 0.1:
        return None
    mu = np.sum(0.5 * (path[1:] + path[:-1]) * dlog) / (2j * np.pi)
    return wi, complex(mu)


def _stable_winding(V, rect, pts):
    """(winding, moment, rect): the winding agreed at pts and 2*pts
    points per edge, the moment of the 2*pts count, and the rectangle,
    jittered outward when a count was unreliable.

    u1(0, .) is evaluated once per attempt, on the 2*pts path: its
    even-indexed nodes are the pts path, and the batch z-mesh depends
    only on the corners, so those samples are the pts evaluation."""
    for attempt in range(6):
        path = _rect_path(*rect, 2 * pts)
        vals = _u1_zero_path(V, path)
        c1 = _winding(path[::2], vals[::2])
        if c1 is not None:
            c2 = _winding(path, vals)
            if c2 is not None and c2[0] == c1[0]:
                return c2[0], c2[1], rect
        # deterministic jitter: expand the rectangle slightly, with
        # different factors per side so symmetric zeros are not re-hit;
        # a cell symmetric in Im lam moves both Im sides alike and stays
        # symmetric (its zeros are conjugate pairs anyway)
        re_lo, re_hi, im_lo, im_hi = rect
        d = 1e-3 * (attempt + 1)
        im_lo = -(im_hi + 2.1 * d) if im_lo == -im_hi else im_lo - 1.7 * d
        rect = (re_lo - d, re_hi + 1.3 * d, im_lo, im_hi + 2.1 * d)
    raise ContourAccuracyError(
        f"winding number did not stabilize on rectangle {rect}")


def _u1_zero_scalar(V, lam):
    return build_u1(V, lam, check_resonance=False).u1_at_zero


def _u1_zero_slope(V, lam):
    """u1(0, lam) and d u1(0, lam) / d lam at one lambda: exact, from one
    Taylor kernel call, for a polynomial V; a central difference of three
    adaptive solves for a callable."""
    if V.even_coeffs is not None:
        return _u1_taylor(V, lam, _kappa(V, abs(lam)), slope=True)
    h = 1e-6 * (1.0 + abs(lam))
    return (_u1_zero_scalar(V, lam),
            (_u1_zero_scalar(V, lam + h)
             - _u1_zero_scalar(V, lam - h)) / (2.0 * h))


def _newton_polish(V, lam0, rect):
    re_lo, re_hi, im_lo, im_hi = rect
    # keep iterates near the cell and inside the validity strip of u1
    margin = min(0.5 * max(re_hi - re_lo, im_hi - im_lo), 0.5) + 0.05
    lam = complex(lam0)
    for _ in range(60):
        if lam.real < -0.25 - 1e-12:
            return None  # outside the strip: caller subdivides further
        f0, fp = _u1_zero_slope(V, lam)
        if fp == 0:
            return None
        step = complex(f0 / fp)
        lam = lam - step
        if lam.real < -0.2 or not (
                re_lo - margin <= lam.real <= re_hi + margin
                and im_lo - margin <= lam.imag <= im_hi + margin):
            return None  # left the cell: caller subdivides further
        if abs(step) <= 1e-13 * (1.0 + abs(lam)):
            return lam
    return None


def find_sigma_v(V, window=(3.0, 20.0), grid=None, m=DEFAULT_SERIES_ORDER,
                 points_per_edge=256, max_depth=40):
    """Zeros of u1(0, .) on the rectangle Re in [0, a], |Im| <= b.

    Argument-principle counting with adaptive cell subdivision until each
    cell holds at most one zero. A count is trusted only when it agrees
    at points_per_edge and twice that, and every node clears the
    near-zero guard (_CONTOUR_GUARD times the median |u1|); otherwise the
    cell is jittered outward. In a cell of winding 1, Newton polishing
    (the exact derivative from the Taylor kernel for a polynomial V, a
    finite difference for a callable) starts from the cell's first
    log-derivative moment, which is the zero up to quadrature error; the
    polished zero is kept only if it lies inside the (jittered) cell,
    otherwise the cell is subdivided. Eigenfunctions (u1(., root) at the
    grid's positive nodes) and residuals come from one adaptive
    `build_u1` per root, which checks the root independently of the
    route that found it. The left edge sits slightly left
    of the axis so purely imaginary zeros are caught rather than
    straddled.

    V is real, so the zeros are symmetric under conjugation. A cell
    symmetric in Im lam is evaluated on its Im >= 0 half only (see
    `_u1_zero_path`) and is split at its Re midpoint, so both halves stay
    symmetric and real zeros do not sit on the cut. Only a symmetric
    cell narrower than 0.2 is cut at Im = 0: its upper half is searched
    and the zeros found there are conjugated.

    `m`, the order of the Frobenius series that seeds the adaptive
    solver, reaches only the final `build_u1` of each root, whatever V:
    the search itself (winding checks and Newton steps) uses the Taylor
    kernel's fixed number of terms for a polynomial V and
    DEFAULT_SERIES_ORDER for a callable.
    """
    a, b = window
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise InvalidArgumentError(
            f"window half-widths must be finite and positive, got {window}")
    if not (isinstance(points_per_edge, numbers.Integral)
            and points_per_edge >= 1):
        raise InvalidArgumentError(
            f"points_per_edge must be an integer >= 1, got {points_per_edge!r}")
    if not (max_depth >= 0):
        raise InvalidArgumentError(f"max_depth must be >= 0, got {max_depth!r}")
    if grid is None:
        grid = make_grid(64)
    roots = []

    def recurse(rect, depth):
        w, mu, rect = _stable_winding(V, rect, points_per_edge)
        if w == 0:
            return
        re_lo, re_hi, im_lo, im_hi = rect
        narrow = re_hi - re_lo < 0.2
        small = narrow and im_hi - im_lo < 0.2
        if w == 1:
            root = _newton_polish(V, mu, rect)
            if root is not None and re_lo <= root.real <= re_hi \
                    and im_lo <= root.imag <= im_hi:
                roots.append(root)
                return
            if small:
                raise ContourAccuracyError(
                    f"failed to polish the root inside {rect}")
        if depth >= max_depth:
            raise ContourAccuracyError("cell subdivision depth exhausted")
        symmetric = im_lo == -im_hi
        if symmetric and narrow:
            found = len(roots)
            recurse((re_lo, re_hi, 0.0, im_hi), depth + 1)
            roots.extend([r.conjugate() for r in roots[found:]])
        elif symmetric or re_hi - re_lo >= im_hi - im_lo:
            mid = 0.5 * (re_lo + re_hi)
            recurse((re_lo, mid, im_lo, im_hi), depth + 1)
            recurse((mid, re_hi, im_lo, im_hi), depth + 1)
        else:
            mid = 0.5 * (im_lo + im_hi)
            recurse((re_lo, re_hi, im_lo, mid), depth + 1)
            recurse((re_lo, re_hi, mid, im_hi), depth + 1)

    recurse((-0.015, float(a), -float(b), float(b)), 0)

    # deduplicate and keep right-half-plane points (tolerance for the axis)
    uniq = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        if all(abs(r - u) > 1e-7 for u in uniq):
            uniq.append(r)
    out = []
    for r in uniq:
        if r.real < -1e-8:
            continue
        sol = build_u1(V, r, m=m, check_resonance=False)
        upos = sol.u1(positive_half(grid.nodes))
        sup = max(float(np.max(np.abs(upos))), abs(sol.u1_at_zero))
        # normalized by the first largest sample of the odd extension,
        # which lies on its negative half, -upos[::-1]
        rev = upos[::-1]
        ef = OddField.from_half(grid, upos / -rev[np.argmax(np.abs(rev))])
        out.append(SpectralPoint(lam=r, eigenfunction=ef,
                                 residual=abs(sol.u1_at_zero) / sup))
    return out


# ---------------------------------------------------------------------------
# Green function and resolvent

# The one quadrature rule of this module (`_green_rule`), for the Green
# route and the Volterra route. In s = log(1 - x) the kernels are smooth
# on [0, 1), with the branch point of (1 - x^2)^lam at x = 1, and their
# phase turns at most at the rate max(|lam|, sqrt(max|V| (1-x))): |lam|
# from (1 -+ x)^(+-lam), the rest from the potential. A panel spans at
# most _GREEN_SPAN in s, which keeps the branch point 2.2 half-widths
# from its centre, and at most _GREEN_PHASE radians of that phase; with
# _GREEN_POINTS Gauss points either holds a panel's error near 1e-14 of
# the kernels' size. More points per panel with longer panels at large
# |lam| saved no points: the panels between nodes set the count there.
# The Volterra route also integrates from every point to its panel's end,
# through the interpolant of the panel's values, which is exact to degree
# p - 1 rather than 2p - 1. Against build_u1 on the 20 random pairs of
# its test (y <= 1 - 1e-3), the worst gap read 5.8e-7 with 10 points,
# 4.8e-10 with 10 points on panels of half the span and phase (700-1,380
# points), and 5.0e-11 with _VOLTERRA_POINTS = 16 (560-1,104 points).
_GREEN_POINTS = 10
_VOLTERRA_POINTS = 16
_GREEN_SPAN = 1.0
_GREEN_PHASE = 4.0
# the last breakpoint, in 1 - x: beyond it the integrals are ~1e-15 of
# the kernels' size
_GREEN_TAIL = 1e-15


def _green_rule(lam, vmax, pos, points=_GREEN_POINTS):
    """Gauss-Legendre panels on [0, 1) for the Green and Volterra routes
    at lam, for a potential with max |V| = vmax, with `points` Gauss
    points per panel.

    The breakpoints 0, the positive nodes `pos` and 1 - _GREEN_TAIL bound
    n/2 + 1 segments; each is split into equal parts in s = log(1 - x),
    as few as keep every panel within _GREEN_SPAN and _GREEN_PHASE at the
    rate of the segment's lower end (see above), so the last segment is
    a geometric tail. Returns the points and weights, ascending, and the
    index of each segment's first point.
    """
    d = np.concatenate([[1.0], 1.0 - pos, [_GREEN_TAIL]])
    span = np.log(d[:-1] / d[1:])
    rate = np.maximum(abs(lam), np.sqrt(vmax * d[:-1]))
    k = np.ceil(span / np.minimum(_GREEN_SPAN, _GREEN_PHASE / rate))
    k = k.astype(int)
    seg = np.repeat(np.arange(k.size), k)
    first = np.cumsum(k) - k
    # 1 - x at each panel's lower and upper end
    top = d[seg] * np.exp(-span[seg] * (np.arange(seg.size) - first[seg])
                          / k[seg])
    bot = np.append(top[1:], _GREEN_TAIL)
    t, wt = np.polynomial.legendre.leggauss(points)
    half = 0.5 * (top - bot)[:, None]
    xs = 1.0 - (0.5 * (top + bot)[:, None] - half * t)
    return xs.ravel(), (half * wt).ravel(), first * points


def _check_finite(*values):
    """Refuse Green-function data that overflowed at working precision."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise StiffFailureError(
            "the Green function overflows at working precision (the"
            " branches u1(., +-lambda) grow past the float range)")


class GreenFunction:
    """Green kernel data of the spectral ODE at one lambda.

    u0 is the odd solution vanishing at 0, assembled from the analytic
    branches at +-lambda; the Wronskian factor 2 lam u1(0,lam) is the
    constant p W(u0, u1) with p = (1-y^2)^(1+lam). Each branch is built
    once: for a polynomial V as the dense Taylor continuation
    (`_TaylorSolution`), for a callable by the adaptive solver
    (`build_u1`). `apply` is the resolvent at lambda, for Re lambda in
    (0, 1/4]; build one GreenFunction per lambda and apply it to every
    state and grid, since each grid's Green matrix is computed once.
    """

    __slots__ = ("lam", "u1_branch", "u1_minus", "wronskian_factor",
                 "_vmax", "_kernels")

    def __init__(self, V, lam):
        lam = complex(lam)
        if not (0.0 < lam.real <= 0.25 + 1e-12):
            raise InvalidArgumentError(
                f"Re lambda must lie in (0, 0.25], got {lam.real}")
        self.lam = lam
        branch = _TaylorSolution if V.even_coeffs is not None else build_u1
        # a strong potential can make a branch overflow on its way from
        # y = 1 to 0; that is refused below rather than warned about
        with np.errstate(all="ignore"):
            self.u1_branch = branch(V, lam)
            self.u1_minus = branch(V, -lam)
        _check_finite(self.u1_branch.u1_at_zero, self.u1_minus.u1_at_zero)
        u10 = self.u1_branch.u1_at_zero
        if abs(u10) < 1e-10:
            raise NearEigenvalueError(
                f"|u1(0,lambda)| = {abs(u10):.3e} < 1e-10: resolvent"
                " blow-up (lambda is an eigenvalue or too close to one)")
        self.wronskian_factor = 2.0 * lam * u10
        self._vmax = V.max_abs()
        self._kernels = {}

    def u1(self, y):
        return self.u1_branch.u1(y)

    def u0(self, y):
        # the branches check y before the weight is taken
        up, um = self.u1_branch.u1(y), self.u1_minus.u1(y)
        y = np.asarray(y, dtype=float)
        wgt = np.exp(-self.lam * np.log1p(-y * y))
        return (self.u1_minus.u1_at_zero * up
                - self.u1_branch.u1_at_zero * wgt * um)

    def _kernel(self, grid):
        """The Green matrix of `grid`, computed once per grid size: the
        complex (n/2 x n/2) map from F at the positive nodes to w there.

        w(y) = -(u0(y) int_y^1 (1-x^2)^lam u1 F + u1(y) int_0^y
        (1-x^2)^lam u0 F) / (2 lam u1(0, lam)), on `_green_rule`'s
        panels. F enters through the barycentric matrix B onto the panel
        points, folded onto the positive nodes (an odd function's samples
        there, times B[:, h:] - B[:, h-1::-1] with h = n/2, give its
        interpolant), which is exact because F has degree < n. Each row,
        times its point's kernel and weight, is summed over the segment
        between two nodes: the integral up to the node y_i is the sum of
        the segments below it, the one from y_i the sum of those above.
        """
        G = self._kernels.get(grid.n)
        if G is None:
            with np.errstate(all="ignore"):
                G = self._green_matrix(grid)
            _check_finite(G)
            self._kernels[grid.n] = G
        return G

    def _green_matrix(self, grid):
        pos = positive_half(grid.nodes)
        xs, ws, first = _green_rule(self.lam, self._vmax, pos)
        u1x = self.u1_branch.u1(xs)
        wfac = np.exp(self.lam * np.log1p(-xs * xs))  # (1-x^2)^lam
        # (1-x^2)^lam u0(x): written so the growing factor cancels
        # exactly
        low = (self.u1_minus.u1_at_zero * wfac * u1x
               - self.u1_branch.u1_at_zero * self.u1_minus.u1(xs))
        B = _barycentric_matrix(grid, xs)
        h = grid.n // 2
        # in place: the two column sets are disjoint
        B[:, h:] -= B[:, h - 1::-1]
        B = B[:, h:]
        above = np.add.reduceat((ws * wfac * u1x)[:, None] * B, first)
        above = np.cumsum(above[:0:-1], axis=0)[::-1]
        below = np.add.reduceat((ws * low)[:, None] * B, first)
        below = np.cumsum(below[:h], axis=0)
        return -(self.u0(pos)[:, None] * above
                 + self.u1(pos)[:, None] * below) / self.wronskian_factor

    def apply(self, state):
        """Apply the Green-function resolvent (lam - L)^(-1) to a state.

        First component: w = G F at the positive nodes, with G the grid's
        Green matrix (`_kernel`) and F(x) = 2x f1'(x) + (lam+1) f1(x) +
        f2(x) assembled there (f1' from `Grid.half_diff`); second
        component lam * w - f1.
        """
        grid = state.grid
        pos = positive_half(grid.nodes)
        f1 = state.u.half
        F = 2.0 * pos * (grid.half_diff @ f1) + (self.lam + 1.0) * f1 \
            + state.v.half
        w_pos = self._kernel(grid) @ F
        return EnergyState(
            OddField.from_half(grid, w_pos),
            OddField.from_half(grid, self.lam * w_pos - f1))


def resolvent_apply(V, lam, state):
    """Apply the Green-function resolvent to a state.

    Builds the GreenFunction at lam, with the Green matrix of the
    state's grid, and applies it (see GreenFunction.apply). Requires
    Re lambda in (0, 1/4] and lambda away from the point spectrum; to
    apply one lambda to many states, build the GreenFunction once, so
    that its Green matrix is computed once per grid.
    """
    return GreenFunction(V, lam).apply(state)
