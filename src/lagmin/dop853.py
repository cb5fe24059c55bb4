"""Explicit Runge-Kutta DOP853 with dense output and event location.

The method is Dormand-Prince 8(5,3) as given by Hairer, Norsett and Wanner,
*Solving Ordinary Differential Equations I* (2nd ed.), sections II.5-II.6.
This module ports the DOP853 path of scipy's ``solve_ivp`` (scipy 1.17,
``scipy/integrate/_ivp/{ivp,rk,common,base,dop853_coefficients}.py``) and
the C ``brentq`` it locates events with, operation for operation on the
same numpy kernels, so that step sizes, rhs evaluations, dense output and
event roots are bit-identical to scipy's.  Only what lagmin uses is ported:
DOP853 on a real state, scalar rtol and atol, dense output always on, and
at most one event with ``direction`` and an integer ``terminal``.  Loading
it costs numpy only, where ``import scipy.integrate`` costs about half a
second.

The layout differs, not the arithmetic: the stages reuse preallocated
buffers, and the dense output keeps each step's interpolant as one row of
an array that ``OdeSolution`` evaluates for all query points in one pass
(scipy sorts them and calls each step's interpolant), event roots included.

The tableau and the step control are scipy's, under its license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OdeResult", "OdeSolution", "solve_ivp", "brentq"]

EPS = np.finfo(float).eps

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}

# step control
SAFETY = 0.9  # multiply steps computed from asymptotic behaviour of errors by this
MIN_FACTOR = 0.2  # minimum allowed decrease in a step size
MAX_FACTOR = 10  # maximum allowed increase in a step size
ERROR_ESTIMATOR_ORDER = 7
ERROR_EXPONENT = -1 / (ERROR_ESTIMATOR_ORDER + 1)

# ---------------------------------------------------------------------------
# the tableau (scipy's dop853_coefficients.py)

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# (stage s, row a[:s], node c) of each stage after the first, and of the
# three extra stages of the dense output: the same views scipy's DOP853 slices
_STEP_STAGES = [(s, A[s, :s], float(C[s])) for s in range(1, N_STAGES)]
_EXTRA_STAGES = [(s, A[s, :s], float(C[s])) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]


# ---------------------------------------------------------------------------
# dense output


class OdeSolution:
    """Piecewise degree-7 dense output over the accepted steps.

    ``steps`` has one row [t_old, t, y_old, F] per step, F being the
    coefficient vectors of the step's interpolant.  A call evaluates all
    points at once: ``searchsorted`` on the boundaries ``ts`` gives each
    point its step (on a boundary the earlier one, outside the span the end
    one), one gather takes those steps' columns, and the interpolant's
    nested product runs over all points with scipy's operations in scipy's
    order.  ``interpolants[k]`` is step k alone, whose ``t_old`` and ``t``
    (``ts[0]`` and ``ts[-1]``) are the ends of that step.
    """

    def __init__(self, ts, steps):
        self.ts = np.asarray(ts, dtype=float)
        self.n_segments = len(steps)
        self.n = (steps.shape[1] - 2) // (INTERPOLATOR_POWER + 1)
        self.ascending = bool(self.ts[-1] >= self.ts[0])
        self.side = "left" if self.ascending else "right"
        # the interior boundaries, ascending: searching them puts a point
        # outside the span in an end step
        self.interior = self.ts[1:-1] if self.ascending else self.ts[-2:0:-1]
        self.t_old, self.t = self.ts[0], self.ts[-1]
        self._columns = np.ascontiguousarray(steps.T)

    @property
    def interpolants(self):
        return [OdeSolution(row[:2], row[None]) for row in self._columns.T]

    def __call__(self, t):
        t = np.asarray(t)
        points = t.reshape(-1)
        segments = self.interior.searchsorted(points, side=self.side)
        if not self.ascending:
            segments = self.n_segments - 1 - segments
        columns = self._columns.take(segments, axis=1)
        t_old, t_new = columns[:2]
        y_old = columns[2:2 + self.n]
        F = columns[2 + self.n:].reshape(INTERPOLATOR_POWER, self.n, -1)

        x = (points - t_old) / (t_new - t_old)
        one_minus_x = 1 - x
        y = np.zeros((self.n, len(points)))
        for i, f in enumerate(reversed(F)):
            y += f
            y *= x if i % 2 == 0 else one_minus_x
        y += y_old
        return y[:, 0] if t.ndim == 0 else y


@dataclass
class OdeResult:
    """What ``solve_ivp`` returns: the accepted times ``t``, the piecewise
    dense output ``sol``, the event roots ``t_events`` (None without an
    event), the rhs evaluation count ``nfev``, and ``status`` (-1 failed,
    0 reached the end, 1 stopped by the event) with its ``message``."""

    t: np.ndarray
    sol: OdeSolution
    t_events: np.ndarray | None
    nfev: int
    status: int
    message: str

    @property
    def success(self) -> bool:
        return self.status >= 0


# ---------------------------------------------------------------------------
# the integrator


def _l2(x):
    """``np.linalg.norm`` of a real vector: np.sqrt(x . x)."""
    return np.sqrt(x.dot(x))


def _rms(x):
    return _l2(x) / x.size ** 0.5


def _initial_step(f, t0, y0, f0, interval_length, direction, rtol, atol):
    """Hairer's starting step (scipy's ``select_initial_step``)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(f(t0 + h0 * direction, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _error_norm(KT, h, scale):
    """RMS norm of the error estimate, the E5 estimate damped by E3."""
    err5 = KT.dot(E5) / scale
    err3 = KT.dot(E3) / scale
    err5_norm_2 = _l2(err5) ** 2
    err3_norm_2 = _l2(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, event=None) -> OdeResult:
    """Integrate y' = fun(t, y) over ``t_span`` with DOP853 and dense output.

    Matches scipy's ``solve_ivp(..., method="DOP853", dense_output=True,
    events=event)`` bit for bit, for a real state and scalar tolerances.
    ``fun`` gets its stage states in reused buffers, so it must not keep
    ``y``.  ``event`` is one callable g(t, y); its optional ``direction``
    attribute keeps only crossings of that sign, and a positive integer
    ``terminal`` stops the solve at that crossing.  Its roots are those of
    g on the step's dense output, found by ``brentq``.
    """
    t0, tf = map(float, t_span)
    if t0 == tf:
        raise ValueError("t_span must have positive length")
    if rtol < 100 * EPS:
        raise ValueError(f"rtol must be at least {100 * EPS}")
    if atol < 0:
        raise ValueError("atol must be non-negative")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite 1-dimensional state")
    if event is not None:
        terminal = getattr(event, "terminal", None) or 0
        if int(terminal) != terminal or terminal < 0:
            raise ValueError("the event's `terminal` must be a boolean or positive integer")
        event_direction = getattr(event, "direction", 0)
        event_count = 0
        g = event(t0, y0)
        t_events = []
    direction = math.copysign(1.0, tf - t0)
    n = len(y)
    K_extended = np.empty((N_STAGES_EXTENDED, n))
    K = K_extended[:N_STAGES + 1]
    # the transposed stage blocks K[:s].T as views, made once per solve
    KT = [K_extended[:s].T for s in range(N_STAGES_EXTENDED)]
    K[0] = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, K[0], abs(tf - t0), direction, rtol, atol)
    nfev = 2
    dy, y_stage = np.empty((2, n))
    # one row [t_old, t, y_old, F] per accepted step, the capacity doubled when full
    steps = np.empty((64, 2 + (INTERPOLATOR_POWER + 1) * n))
    n_steps = 0
    t = t0
    ts = [t0]
    status = None
    while status is None:
        # one accepted step (scipy's RungeKutta._step_impl); K[0] is f(t, y)
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            h = float(h_abs * direction)
            t_new = t + h
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)

            for s, a, c in _STEP_STAGES:
                KT[s].dot(a, out=dy)
                dy *= h
                np.add(y, dy, out=y_stage)
                K[s] = fun(t + c * h, y_stage)
            KT[N_STAGES].dot(B, out=dy)
            dy *= h
            y_new = y + dy
            K[-1] = fun(t + h, y_new)
            nfev += N_STAGES

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(KT[N_STAGES + 1], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y = t_new, y_new
        if direction * (t - tf) >= 0:
            status = 0

        # dense output of the step (scipy's DOP853._dense_output_impl), into its row
        for s, a, c in _EXTRA_STAGES:
            KT[s].dot(a, out=dy)
            dy *= h
            np.add(y_old, dy, out=y_stage)
            K_extended[s] = fun(t_old + c * h, y_stage)
        nfev += N_STAGES_EXTENDED - N_STAGES - 1
        if n_steps == len(steps):
            steps = np.concatenate([steps, np.empty_like(steps)])
        row = steps[n_steps]
        row[:2] = t_old, t
        row[2:2 + n] = y_old
        F = row[2 + n:].reshape(INTERPOLATOR_POWER, n)
        f_old, f_new = K[0], K[-1]
        F[0] = delta_y = y - y_old
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        D.dot(K_extended, out=F[3:])
        F[3:] *= h
        K[0] = f_new

        t_end = t
        if event is not None:
            g_new = event(t, y)
            up = g <= 0 and g_new >= 0
            down = g >= 0 and g_new <= 0
            if (up and event_direction > 0 or down and event_direction < 0
                    or (up or down) and event_direction == 0):
                event_count += 1
                step = OdeSolution(row[:2], steps[n_steps:n_steps + 1])
                t_events.append(brentq(lambda x: event(x, step(x)), t_old, t))
                if terminal and event_count >= terminal:
                    status = 1
                    t_end = t_events[-1]
            g = g_new

        # a terminal root on the previous step's end adds no step
        if len(ts) == 1 or ts[-1] != t_end:
            ts.append(t_end)
            n_steps += 1

    return OdeResult(
        t=np.array(ts), sol=OdeSolution(ts, steps[:n_steps]),
        t_events=None if event is None else np.asarray(t_events),
        nfev=nfev, status=status, message=MESSAGES.get(status, TOO_SMALL_STEP),
    )


# ---------------------------------------------------------------------------
# root bracketing (scipy's C brentq)

BRENTQ_TOL = 4 * EPS  # xtol and rtol alike, as solve_ivp locates events
BRENTQ_MAXITER = 100


def brentq(f, xa, xb):
    """A root of f in the bracket [xa, xb] by Brent's method, as scipy's
    ``brentq(f, xa, xb, xtol=4 * EPS, rtol=4 * EPS)``: inverse quadratic or
    secant steps kept inside the bracket, bisection otherwise, until the
    bracket is narrower than BRENTQ_TOL (1 + |x|)."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (BRENTQ_TOL + BRENTQ_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations.")
