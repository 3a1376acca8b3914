"""Dormand and Prince's explicit Runge-Kutta method of order 8 with dense
output (DOP853; Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 2nd ed., 1993, sections II.5 and II.10), for the forward
complex integration of `spectral.build_u1`.

`solve` is scipy 1.17's `solve_ivp(fun, (t0, t_bound), y0,
method="DOP853", rtol=rtol, atol=atol, dense_output=True)` cut to that
case: t_bound > t0, scalar tolerances, no maximum or first step, no
events. It copies the tableau literals of scipy's dop853_coefficients.py
and makes the numpy calls of its rk.py, common.py and ivp.py in the same
order on arrays of the same shapes, so every accepted step, state and
dense value is scipy's bit for bit; the package thus never loads
scipy.integrate, which pulls in some 270 scipy modules.
"""

from itertools import groupby

import numpy as np

from .errors import StiffFailureError

_SAFETY = 0.9  # step factors from the error's asymptotics are scaled by it
_MIN_FACTOR = 0.2  # the largest decrease of a step
_MAX_FACTOR = 10  # the largest increase of a step
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# The 12 stages of a step, 3 more for the dense output (rows 13-15 of A);
# row 12 of A is B, the weights of the 8th-order solution.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])
_A = np.zeros((16, 16))
for _i, _row in enumerate((
        (5.26001519587677318785587544488e-2,),
        (1.97250569845378994544595329183e-2,
         5.91751709536136983633785987549e-2),
        (2.95875854768068491816892993775e-2, 0,
         8.87627564304205475450678981324e-2),
        (2.41365134159266685502369798665e-1, 0,
         -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1),
        (3.7037037037037037037037037037e-2, 0, 0,
         1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1),
        (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2),
        (3.70920001185047927108779319836e-2, 0, 0,
         1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1,
         -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3),
        (6.24110958716075717114429577812e-1, 0, 0,
         -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
         2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
         -4.34898841810699588477366255144e1),
        (4.77662536438264365890433908527e-1, 0, 0,
         -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
         2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
         -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2),
        (-9.3714243008598732571704021658e-1, 0, 0,
         5.18637242884406370830023853209, 1.09143734899672957818500254654,
         -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
         2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
         -3.0467644718982195003823669022),
        (2.27331014751653820792359768449, 0, 0,
         -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
         -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
         -2.85899827713502369474065508674, -8.87285693353062954433549289258,
         1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1),
        (5.42937341165687622380535766363e-2, 0, 0, 0, 0,
         4.45031289275240888144113950566, 1.89151789931450038304281599044,
         -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
         -1.52160949662516078556178806805e-1,
         2.01365400804030348374776537501e-1,
         4.47106157277725905176885569043e-2),
        (5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
         2.53500210216624811088794765333e-1,
         -2.46239037470802489917441475441e-1,
         -1.24191423263816360469010140626e-1,
         1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
         7.56789766054569976138603589584e-3, -8.298e-3),
        (3.18346481635021405060768473261e-2, 0, 0, 0, 0,
         2.83009096723667755288322961402e-2,
         5.35419883074385676223797384372e-2,
         -5.49237485713909884646569340306e-2, 0, 0,
         -1.08347328697249322858509316994e-4,
         3.82571090835658412954920192323e-4,
         -3.40465008687404560802977114492e-4,
         1.41312443674632500278074618366e-1),
        (-4.28896301583791923408573538692e-1, 0, 0, 0, 0,
         -4.69762141536116384314449447206, 7.68342119606259904184240953878,
         4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
         0, 0, 0, -1.39902416515901462129418009734e-3,
         2.9475147891527723389556272149, -9.15095847217987001081870187138),
        ), start=1):
    _A[_i, :len(_row)] = _row
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0])
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0, 0, 0, 0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0, 0, 0, 0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0, 0, 0, 0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0, 0, 0, 0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3]])
_B = _A[12, :12]
_E3 = np.zeros(13)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """scipy's select_initial_step (Hairer et al., section II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _stages(fun, K, t, y, h, first, last):
    """K[s] = fun(t + C[s] h, y + h sum_j A[s, j] K[j]), s in [first, last)."""
    for s in range(first, last):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = fun(t + _C[s] * h, y + dy)


def _error_norm(K, h, scale):
    """The step's error, blended from the 5th- and 3rd-order estimates."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve(fun, t0, y0, t_bound, rtol, atol):
    """Integrate y' = fun(t, y) from t0 to t_bound > t0 from the complex
    state y0; returns the dense solution. A step size falling below ten
    spacings of t raises StiffFailureError with scipy's message."""
    def f(t, y):
        return np.asarray(fun(t, y), dtype=complex)

    t, y = t0, np.asarray(y0, dtype=complex)
    if not np.isfinite(y).all():
        raise ValueError(
            "All components of the initial state `y0` must be finite.")
    fy = f(t, y)
    h_abs = _initial_step(f, t, y, t_bound, fy, rtol, atol)
    K = np.empty((16, y.size), dtype=complex)
    ts, segments = [t], []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffFailureError(
                    f"integration failed: {_TOO_SMALL_STEP}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            _stages(f, K, t, y, h, 1, 12)
            y_new = y + h * np.dot(K[:12].T, _B)
            K[12] = f_new = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR,
                         _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        h_abs *= factor
        # the dense output's three extra stages and its coefficients F
        _stages(f, K, t, y, h, 13, 16)
        delta_y = y_new - y
        F = np.empty((7, y.size), dtype=complex)
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (f_new + K[0])
        F[3:] = h * np.dot(_D, K)
        segments.append((t, h, y, F))
        t, y, fy = t_new, y_new, f_new
        ts.append(t)
    return DenseSolution(np.array(ts), segments)


class DenseSolution:
    """The piecewise interpolant of `solve`, called as scipy's OdeSolution:
    y at a point t, shape (n,), or at a 1-D array of points, (n, len(t)).
    A step time belongs to the step that ends there; points outside
    [ts[0], ts[-1]] take the nearest step's polynomial."""

    __slots__ = ("ts", "_segments")

    def __init__(self, ts, segments):
        self.ts = ts
        self._segments = segments

    def _segment(self, i, t):
        t_old, h, y_old, F = self._segments[i]
        x = (t - t_old) / h
        if t.ndim == 0:
            y = np.zeros_like(y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(y_old)), dtype=y_old.dtype)
        for k, f in enumerate(reversed(F)):
            y += f
            if k % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old
        return y.T

    def __call__(self, t):
        t = np.asarray(t)
        last = len(self._segments) - 1
        if t.ndim == 0:
            i = np.searchsorted(self.ts, t, side="left")
            return self._segment(min(max(i - 1, 0), last), t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.searchsorted(self.ts, t_sorted, side="left")
        segments = np.clip(segments - 1, 0, last)
        ys, start = [], 0
        for i, group in groupby(segments):
            end = start + len(list(group))
            ys.append(self._segment(i, t_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, reverse]
