"""The analytic-at-one branch u1, Volterra comparison, Wronskians, the
mode finder, and the Green-function resolvent.

In the variable z = 1 - y the homogeneous spectral ODE reads

    z(2-z) w'' + 2(lam+1)(1-z) w' - [lam(lam+1) + V(1-z)] w = 0,

with a regular singular point at z = 0 and indicial roots {0, -lam}.
The analytic branch is seeded by a Taylor series at z = 0 normalized so
that w(0) = 2^(-lam) (which makes u1(0, lam) = 1 for vanishing V), then
carried to y = 0 by high-order ODE integration. u1(0, lam) is the mode
function whose zeros in the closed right half-plane form the point set
the evolution code must project out.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .core_types import (
    EnergyState,
    OddField,
    _barycentric_matrix,
    make_grid,
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


def _frobenius_coefficients(bz, lam, m, check=True):
    """Taylor recurrence of the z-form ODE at z = 0, branch exponent 0.

    2 (k+1)(k+1+lam) c_{k+1} = (k+lam)(k+lam+1) c_k + sum_j bz_j c_{k-j},
    seeded with c_0 = 2^(-lam). `lam` may be an array of N values; the
    coefficients are then an (m+1, N) array. The denominators only vanish
    at negative integer lambda; `check=False` skips the resonance test
    for contour paths that are known to stay right of Re lambda = -1/2.
    """
    if check:
        _resonance_check(lam)
    lam = np.asarray(lam, dtype=complex)
    c = np.zeros((m + 1,) + lam.shape, dtype=complex)
    c[0] = np.exp(-lam * np.log(2.0))
    for k in range(m):
        s = (k + lam) * (k + lam + 1.0) * c[k]
        for j in range(min(k, len(bz) - 1) + 1):
            s += bz[j] * c[k - j]
        c[k + 1] = s / (2.0 * (k + 1) * (k + 1 + lam))
    return c


class FrobeniusSolution:
    """u1(., lam): series near y=1 glued to an ODE solution on
    [0, 1 - _SEED_OFFSET]."""

    __slots__ = ("lam", "potential", "taylor_coeffs", "u1_at_zero",
                 "_dense", "sample_u1")

    def __init__(self, lam, potential, coeffs, dense, grid=None):
        self.lam = lam
        self.potential = potential
        self.taylor_coeffs = coeffs
        self._dense = dense
        self.u1_at_zero = complex(dense.sol(1.0)[0])
        self.sample_u1 = None if grid is None else self.u1(
            grid.nodes[grid.nodes > 0])

    def _split(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y < -1e-14) or np.any(y > 1.0 + 1e-14):
            raise InvalidArgumentError("u1 samples live on [0, 1]")
        z = np.clip(1.0 - y, 0.0, 1.0)
        return z, z >= _SEED_OFFSET

    def u1(self, y):
        scalar = np.ndim(y) == 0
        z, on_dense = self._split(y)
        z = np.atleast_1d(z)
        on_dense = np.atleast_1d(on_dense)
        out = np.empty(z.shape, dtype=complex)
        if np.any(on_dense):
            out[on_dense] = self._dense.sol(z[on_dense])[0]
        if np.any(~on_dense):
            k = np.arange(len(self.taylor_coeffs))
            zz = z[~on_dense][:, None]
            out[~on_dense] = np.sum(self.taylor_coeffs[None, :] * zz ** k, axis=1)
        return complex(out[0]) if scalar else out

    def du1(self, y):
        """d u1 / dy (the dense state carries dw/dz = -du1/dy)."""
        scalar = np.ndim(y) == 0
        z, on_dense = self._split(y)
        z = np.atleast_1d(z)
        on_dense = np.atleast_1d(on_dense)
        out = np.empty(z.shape, dtype=complex)
        if np.any(on_dense):
            out[on_dense] = -self._dense.sol(z[on_dense])[1]
        if np.any(~on_dense):
            c = self.taylor_coeffs
            k = np.arange(1, len(c))
            zz = z[~on_dense][:, None]
            out[~on_dense] = -np.sum(c[None, 1:] * k * zz ** (k - 1), axis=1)
        return complex(out[0]) if scalar else out


def build_u1(V, lam, m=DEFAULT_SERIES_ORDER, grid=None, check_resonance=True):
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
    bz = _v_z_coefficients(V, m)
    c = _frobenius_coefficients(bz, lam, m, check=check_resonance)
    k = np.arange(m + 1)
    w0 = complex(np.sum(c * _SEED_OFFSET ** k))
    dw0 = complex(np.sum(c[1:] * k[1:] * _SEED_OFFSET ** (k[1:] - 1.0)))

    def rhs(z, st):
        w, dw = st
        vy = float(V(1.0 - z))
        dd = (-2.0 * (lam + 1.0) * (1.0 - z) * dw
              + (lam * (lam + 1.0) + vy) * w) / (z * (2.0 - z))
        return [dw, dd]

    sol = solve_ivp(rhs, (_SEED_OFFSET, 1.0), [w0, dw0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.success:
        raise StiffFailureError(f"integration failed: {sol.message}")
    return FrobeniusSolution(lam, V, c, sol, grid=grid)


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


def _u1_zero_batch(V, lams, m=DEFAULT_SERIES_ORDER):
    """u1(0, lam) for an array of lambdas by vectorized fixed-step RK4.

    The Frobenius seeds of all lambdas come from one array recurrence and
    the state (w, w') is carried as two arrays over one z-mesh (V sampled
    once per node and midpoint). The error relative to the median |u1|
    is _CONTOUR_REL_ERROR (see `_z_mesh`): enough for winding counts,
    where thousands of evaluations are needed. Roots are always
    re-polished by the scalar adaptive route.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if np.any(lams.real < -0.49):
        raise InvalidArgumentError("batch evaluation requires Re lambda > -1/2")
    c = _frobenius_coefficients(_v_z_coefficients(V, m), lams, m, check=False)
    k = np.arange(m + 1)
    w = _SEED_OFFSET ** k @ c
    dw = (k[1:] * _SEED_OFFSET ** (k[1:] - 1.0)) @ c[1:]

    # z(2-z) = 0.19 at z = 0.1, where the rate of the potential peaks
    kappa = max(1.0, float(np.max(np.abs(lams))),
                np.sqrt(V.max_abs() / 0.19))
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

def graded_mesh(n=400):
    """Mesh on [0, 1) uniform up to 0.9, then geometrically graded toward
    1 (last gap ~ 1e-12), matching the (1-x)^(-1/2) integrability of the
    kernel."""
    n_geo = n // 2
    g = 1e-12 ** (np.arange(n_geo) / (n_geo - 1.0))
    tail = 1.0 - g
    tail = tail[tail > 0.9]
    ys = np.concatenate([np.linspace(0.0, 0.9, n - len(tail)), tail])
    return np.unique(ys)


def _panel_weights(x):
    """Per-interval quadrature of a local quadratic through 3 neighbours.

    Weights are computed in panel-local coordinates; evaluating the
    antiderivative in global coordinates cancels catastrophically in the
    graded tail where panels are ~1e-13 wide.
    """
    n = len(x)
    i = np.arange(n - 1)
    j0 = np.where(i == 0, 0, i - 1)
    j1 = np.where(i == 0, 1, i)
    j2 = np.where(i == 0, 2, i + 1)
    a = x[i]
    x0 = x[j0] - a
    x1 = x[j1] - a
    x2 = x[j2] - a
    h = x[i + 1] - a

    def I(p, q, den):
        return (h ** 3 / 3.0 - (p + q) * h ** 2 / 2.0 + p * q * h) / den

    W = np.stack([
        I(x1, x2, (x0 - x1) * (x0 - x2)),
        I(x0, x2, (x1 - x0) * (x1 - x2)),
        I(x0, x1, (x2 - x0) * (x2 - x1)),
    ], axis=1)
    idx = np.stack([j0, j1, j2], axis=1)
    return idx, W


def _cum_from_top(idx, W, f):
    """I[i] ~ integral from x_i to x_max of f."""
    S = (W * f[idx]).sum(axis=1)
    return np.concatenate([np.cumsum(S[::-1])[::-1], [0.0]])


def _cum_from_bottom(idx, W, f):
    """I[i] ~ integral from x_0 to x_i of f."""
    S = (W * f[idx]).sum(axis=1)
    return np.concatenate([[0.0], np.cumsum(S)])


class VolterraSolution:
    """Samples of h1 on a graded mesh; v1 = psi1 * h1."""

    __slots__ = ("lam", "mesh", "h1", "iterations")

    def __init__(self, lam, mesh, h1, iterations):
        self.lam = lam
        self.mesh = mesh
        self.h1 = h1
        self.iterations = iterations

    def u1_values(self):
        """Reconstruction of u1 on the mesh: (1+y)^(-lam) h1(y)."""
        return np.exp(-self.lam * np.log1p(self.mesh)) * self.h1


def build_v1_volterra(V, lam, mesh=None):
    """Successive approximation for h1 on a graded mesh.

    h1 <- 1 + (1/2lam) [ int_y^1 V h1 - q(y)^(-lam) int_y^1 q^lam V h1 ],
    q = (1-y)/(1+y). Iterates until the sup-difference drops below 1e-12,
    at most 200 times.
    """
    lam = complex(lam)
    if abs(lam) < 1e-3:
        raise InvalidArgumentError(
            "|lambda| >= 1e-3 required on the Volterra route (the origin"
            " is handled by build_u1, which has no lambda-singularity)")
    if lam.real < -0.25 - 1e-12:
        raise InvalidArgumentError("Re lambda >= -1/4 required")
    if mesh is None:
        mesh = graded_mesh()
    x = np.asarray(mesh, dtype=float)
    idx, Wp = _panel_weights(x)
    Vx = np.asarray(V(x), dtype=complex)
    logq = np.log1p(-x) - np.log1p(x)
    qlam = np.exp(lam * logq)
    qlam_inv = np.exp(-lam * logq)
    h = np.ones_like(x, dtype=complex)
    for it in range(200):
        IV = _cum_from_top(idx, Wp, Vx * h)
        Iq = _cum_from_top(idx, Wp, qlam * Vx * h)
        hn = 1.0 + (IV - Iq * qlam_inv) / (2.0 * lam)
        d = float(np.max(np.abs(hn - h)))
        h = hn
        if d <= 1e-12:
            return VolterraSolution(lam, x, h, it + 1)
    raise VolterraDivergenceError(
        f"no convergence in 200 iterations (last delta {d:.3e});"
        " lambda outside the validity strip or mesh too coarse")


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
    """Counterclockwise rectangle boundary, pts points per edge."""
    bottom = re_lo + np.linspace(0, 1, pts, endpoint=False) * (re_hi - re_lo) \
        + 1j * im_lo
    right = re_hi + 1j * (im_lo + np.linspace(0, 1, pts, endpoint=False)
                          * (im_hi - im_lo))
    top = re_hi + np.linspace(0, 1, pts, endpoint=False) * (re_lo - re_hi) \
        + 1j * im_hi
    left = re_lo + 1j * (im_hi + np.linspace(0, 1, pts, endpoint=False)
                         * (im_lo - im_hi))
    path = np.concatenate([bottom, right, top, left])
    return np.append(path, path[0])


def _winding(path, vals):
    """Winding of u1(0, .) along a closed path, from its samples `vals`
    at the path nodes, with its first log-derivative moment.

    Returns (w, mu): the integer winding w, and
    mu = sum lam_mid * dlog u1 / (2 pi i), the midpoint rule for the
    contour integral of lam u1'/u1 / (2 pi i), which is the sum of the
    zeros inside (Delves & Lyness 1967), so the zero itself when w = 1.
    Returns None when the sampling looks unreliable (a node below
    _CONTOUR_GUARD times the median, or phase steps too large), so the
    caller can jitter/refine. The phase errors of the steps telescope,
    so only a step misjudged by a whole turn can change w.
    """
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


def _stable_winding(V, rect, pts, m):
    """(winding, moment, rect): the winding agreed at pts and 2*pts
    points per edge, the moment of the 2*pts count, and the rectangle,
    jittered outward when a count was unreliable.

    u1(0, .) is evaluated once per attempt, on the 2*pts path: its
    even-indexed nodes are the pts path, and the batch z-mesh depends
    only on the corners, so those samples are the pts evaluation."""
    for attempt in range(6):
        path = _rect_path(*rect, 2 * pts)
        vals = _u1_zero_batch(V, path, m=m)
        c1 = _winding(path[::2], vals[::2])
        if c1 is not None:
            c2 = _winding(path, vals)
            if c2 is not None and c2[0] == c1[0]:
                return c2[0], c2[1], rect
        # deterministic jitter: expand the rectangle slightly, with
        # different factors per side so symmetric zeros are not re-hit
        re_lo, re_hi, im_lo, im_hi = rect
        d = 1e-3 * (attempt + 1)
        rect = (re_lo - d, re_hi + 1.3 * d, im_lo - 1.7 * d, im_hi + 2.1 * d)
    raise ContourAccuracyError(
        f"winding number did not stabilize on rectangle {rect}")


def _u1_zero_scalar(V, lam, m):
    return build_u1(V, lam, m=m, check_resonance=False).u1_at_zero


def _newton_polish(V, lam0, m, rect):
    re_lo, re_hi, im_lo, im_hi = rect
    # keep iterates near the cell and inside the validity strip of u1
    margin = min(0.5 * max(re_hi - re_lo, im_hi - im_lo), 0.5) + 0.05
    lam = complex(lam0)
    for _ in range(60):
        try:
            f0 = _u1_zero_scalar(V, lam, m)
        except ResonanceError:
            lam += 1e-9 + 1e-9j
            continue
        except InvalidArgumentError:
            return None  # outside the strip: caller subdivides further
        h = 1e-6 * (1.0 + abs(lam))
        fp = (_u1_zero_scalar(V, lam + h, m)
              - _u1_zero_scalar(V, lam - h, m)) / (2.0 * h)
        if fp == 0:
            return None
        step = f0 / fp
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
    (finite-difference derivative) starts from the cell's first
    log-derivative moment, which is the zero up to quadrature error; the
    polished zero is kept only if it lies inside the (jittered) cell,
    otherwise the cell is subdivided. Eigenfunctions are odd extensions
    of u1(., root) sampled on the grid. The left edge sits slightly left
    of the axis so purely imaginary zeros are caught rather than
    straddled.
    """
    a, b = window
    if grid is None:
        grid = make_grid(64)
    roots = []

    def recurse(rect, depth):
        w, mu, rect = _stable_winding(V, rect, points_per_edge, m)
        if w == 0:
            return
        re_lo, re_hi, im_lo, im_hi = rect
        small = max(re_hi - re_lo, im_hi - im_lo) < 0.2
        if w == 1:
            root = _newton_polish(V, mu, m, rect)
            if root is not None and re_lo <= root.real <= re_hi \
                    and im_lo <= root.imag <= im_hi:
                roots.append(root)
                return
            if small:
                raise ContourAccuracyError(
                    f"failed to polish the root inside {rect}")
        if depth >= max_depth:
            raise ContourAccuracyError("cell subdivision depth exhausted")
        if re_hi - re_lo >= im_hi - im_lo:
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
        sol = build_u1(V, r, m=m, grid=grid, check_resonance=False)
        upos = sol.sample_u1
        sup = max(float(np.max(np.abs(upos))), abs(sol.u1_at_zero))
        vals = np.concatenate([-upos[::-1], upos])
        scale = vals[np.argmax(np.abs(vals))]
        ef = OddField(grid, vals / scale)
        out.append(SpectralPoint(lam=r, eigenfunction=ef,
                                 residual=abs(sol.u1_at_zero) / sup))
    return out


# ---------------------------------------------------------------------------
# Green function and resolvent

class GreenFunction:
    """Green kernel data of the spectral ODE at one lambda.

    u0 is the odd solution vanishing at 0, assembled from the analytic
    branches at +-lambda; the Wronskian factor 2 lam u1(0,lam) is the
    constant p W(u0, u1) with p = (1-y^2)^(1+lam). `apply` is the
    resolvent at lambda, for Re lambda in (0, 1/4]; build one
    GreenFunction per lambda and apply it to every state, since the
    kernel samples are reused.
    """

    __slots__ = ("lam", "u1_branch", "u1_minus", "wronskian_factor",
                 "_kernels")

    def __init__(self, V, lam):
        lam = complex(lam)
        if not (0.0 < lam.real <= 0.25 + 1e-12):
            raise InvalidArgumentError(
                f"Re lambda must lie in (0, 0.25], got {lam.real}")
        self.lam = lam
        self.u1_branch = build_u1(V, lam)
        self.u1_minus = build_u1(V, -lam)
        u10 = self.u1_branch.u1_at_zero
        if abs(u10) < 1e-10:
            raise NearEigenvalueError(
                f"|u1(0,lambda)| = {abs(u10):.3e} < 1e-10: resolvent"
                " blow-up (lambda is an eigenvalue or too close to one)")
        self.wronskian_factor = 2.0 * lam * u10
        self._kernels = {}

    def u1(self, y):
        return self.u1_branch.u1(y)

    def u0(self, y):
        y = np.asarray(y, dtype=float)
        wgt = np.exp(-self.lam * np.log1p(-y * y))
        return (self.u1_minus.u1_at_zero * self.u1_branch.u1(y)
                - self.u1_branch.u1_at_zero * wgt * self.u1_minus.u1(y))

    def _kernel(self, grid):
        """Kernel samples and the barycentric interpolation matrix onto
        the quadrature mesh (a 6000-point graded mesh merged with `grid`'s
        positive nodes), computed once per grid size."""
        key = grid.n
        if key not in self._kernels:
            pos = grid.nodes[grid.nodes > 0]
            xs = np.unique(np.concatenate([graded_mesh(6000), pos]))
            u1x = self.u1_branch.u1(xs)
            wfac = np.exp(self.lam * np.log1p(-xs * xs))  # (1-x^2)^lam
            # (1-x^2)^lam u0(x): written so the growing factor cancels
            # exactly
            low = (self.u1_minus.u1_at_zero * wfac * u1x
                   - self.u1_branch.u1_at_zero * self.u1_minus.u1(xs))
            self._kernels[key] = (xs, _barycentric_matrix(grid, xs),
                                  _panel_weights(xs), wfac * u1x, low,
                                  np.searchsorted(xs, pos), self.u0(pos),
                                  self.u1(pos))
        return self._kernels[key]

    def apply(self, state):
        """Apply the Green-function resolvent (lam - L)^(-1) to a state.

        First component: integral of the Green kernel against
        F(x) = 2x f1'(x) + (lam+1) f1(x) + f2(x); second component
        lam * (first) - f1.
        """
        grid = state.grid
        xs, interp, (idx, Wp), up_kernel, low_kernel, sel, u0_pos, u1_pos = \
            self._kernel(grid)
        f1 = state.u.values
        f2 = state.v.values
        cols = np.stack([grid.diff_matrix @ f1, f1, f2], axis=1)
        # parts apart: matmul would cast the real matrix to complex
        samples = interp @ cols.real
        if np.iscomplexobj(cols):
            samples = samples + 1j * (interp @ cols.imag)
        Fx = (2.0 * xs * samples[:, 0] + (self.lam + 1.0) * samples[:, 1]
              + samples[:, 2])
        I_up = _cum_from_top(idx, Wp, up_kernel * Fx)
        I_low = _cum_from_bottom(idx, Wp, low_kernel * Fx)
        w_pos = -(u0_pos * I_up[sel] + u1_pos * I_low[sel]) \
            / self.wronskian_factor
        w_full = np.concatenate([-w_pos[::-1], w_pos])
        return EnergyState(OddField(grid, w_full),
                           OddField(grid, self.lam * w_full - f1))


def resolvent_apply(V, lam, state):
    """Apply the Green-function resolvent to a state.

    Builds the GreenFunction at lam and applies it (see
    GreenFunction.apply). Requires Re lambda in (0, 1/4] and lambda away
    from the point spectrum; to apply one lambda to many states, build
    the GreenFunction once.
    """
    return GreenFunction(V, lam).apply(state)
