"""Dense-output integration and scalar event location.

Integration uses the explicit eighth-order Dormand-Prince method with its
seventh-order continuous extension (DOP853; Dormand & Prince, J. Comput.
Appl. Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6):
about 15 right-hand-side evaluations per accepted step, 12 for the step (the
derivative at its end is the next step's first stage) and 3 for the dense
output.  ``integrate`` runs the step loop itself and calls the right-hand
side directly.  The tableau is held here as module constants, bitwise the
class attributes of scipy's ``DOP853``, and the tolerance check and the
initial step (II.4) are scipy's ``validate_tol`` and
``select_initial_step``, ported with scipy's operations in scipy's order;
scipy is not imported.  Every operation of scipy's ``rk_step``,
``_step_impl``, ``_estimate_error_norm`` and ``_dense_output_impl`` keeps
scipy's form and order on arrays of the same layout, so the steps, the
states, the coefficients and the counts are bitwise the ones ``solve_ivp``
gives; finiteness is checked once per attempt, on its stages.  After each
accepted step the loop keeps the step's seven dense-output coefficient rows,
and all the steps' rows go into one array.  A Trajectory owns the step
mesh, the states there, that array and the evaluation grid used everywhere
else for sampling, event search and report curves, and answers every lookup
from them in one vectorised pass; the grid cuts each step into
``SAMPLES_PER_STEP`` pieces, and readers that need a finer spacing somewhere
resample there (``dip_points``).

A solve always ends.  DOP853 as published stops after NMAX steps and at a
step too small for the time it has reached (IDID = -2 and -3 in the code of
Hairer, Norsett & Wanner, 1993); here a solve raises StepSizeUnderflow,
with the time, the state, the last step and the steps taken, once an
accepted step short of T falls below ``MIN_STEP`` times T or the solve has
taken ``MAX_STEPS`` steps.  The catalog defaults never step below 9e-4 T
and take at most 72 steps; a force that blows up within the horizon
crosses the floor within a few hundred steps.

Event search comes in two kinds, both over samples the caller has already
taken on a grid: ``locate_events`` refines sign changes, and
``refined_minima`` refines discrete minima (the caller decides which minima
count as touching zero, may pass its cut so that minima that cannot reach
it are not refined, and may pass zeros it has found otherwise, so that the
minima around them are not refined again).  Both refine all their brackets together by multisection
(``_multisect``): each round samples ``SECTION_POINTS`` points inside every
open bracket in one call of f, which maps an array of times to an array of
values, and keeps a sub-interval of each.  Minima are sampled evenly in
every round.  Sign changes are sampled evenly in the first round only;
later rounds sample a narrow window about the false-position point of the
bracket's ends, so a bracket closes at float resolution in about four
rounds instead of about ten.  ``dip_points`` gives extra times around those
minima, for a caller that resamples before it searches, so that zeros
closer together than the grid spacing separate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFiniteState, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-13
DEFAULT_ABS_TOL = 1e-15
MIN_STEP = 1e-9           # smallest accepted step short of T, relative to T
MAX_STEPS = 20_000        # accepted steps of one solve
SAMPLES_PER_STEP = 8
DIP_POINTS = 256          # extra samples around each dip of a detection track
SECTION_POINTS = 16       # samples per bracket and round of the event searches
MINIMUM_TOL = 1e-12       # relative width at which a minimum's bracket closes
EVENT_ULPS = 4            # float spacings at which a sign change's bracket closes
WINDOW = 2.0 ** -12       # half-width of a sign change's later rounds, relative to its bracket

# DOP853 (Dormand & Prince 1980; Hairer, Norsett & Wanner 1993, II.5-II.6):
# the coefficients of Hairer's dop853.f as scipy.integrate._ivp keeps them,
# digit for digit, and scipy's step control.  A, B, C and E3, E5 are the
# step's tableau (the 12 stages, the weights, the nodes and the embedded
# fifth- and third-order error weights over the stages and f(t + h));
# A_EXTRA, C_EXTRA give the 3 extra stages of the dense output and D its
# last 4 coefficient rows (the first 3 are formed from the step's ends).
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7
ERROR_EXPONENT = -1 / 8               # -1 / (error estimator order + 1)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EPS = np.finfo(float).eps


def _table(shape, rows):
    """Zeros of ``shape`` with the entries {column: value} of each row."""
    a = np.zeros(shape)
    for i, entries in rows.items():
        for j, value in entries.items():
            a[i, j] = value
    return a


_A = _table((N_STAGES_EXTENDED, N_STAGES_EXTENDED), {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
})
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778])
A = _A[:N_STAGES, :N_STAGES]
B = _A[N_STAGES, :N_STAGES]
C = _C[:N_STAGES]
A_EXTRA = _A[N_STAGES + 1:]
C_EXTRA = _C[N_STAGES + 1:]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]
E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0])
D = _table((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED), {
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
})
__all__ = ["Trajectory", "integrate", "locate_events", "refine_minimum", "refined_minima",
           "dip_points", "dense_grid"]


@dataclass(frozen=True)
class Trajectory:
    """Dense numerical solution of x' = field(x) on [0, T].

    ``steps`` are the accepted step endpoints; ``states`` the solution there.
    Evaluation between endpoints goes through the continuous extension of
    the step that holds t, whose coefficients are kept in one array;
    evaluation at an endpoint returns the stepped value exactly.
    """

    t_span: tuple
    steps: np.ndarray
    states: np.ndarray          # shape (len(steps), n)
    rel_tol: float
    abs_tol: float
    n_steps: int
    n_rhs_evals: int              # 2 + 12 (n_steps + n_rejected) + 3 n_steps
    n_rejected: int               # attempts the error test rejected
    _coef: np.ndarray = field(repr=False)    # shape (7, n, n_steps): step k's F[p] in [p, :, k]

    @property
    def T(self):
        return self.t_span[1]

    def at(self, t):
        """Dense evaluation; scalar t -> (n,), array t -> (n, len(t)).  Every
        reader of the array ``grid()`` shares one cached, read-only lookup."""
        if np.ndim(t) and t is self.grid():
            return self._grid_states
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.t_span[0] - 1e-12) or np.any(t_arr > self.t_span[1] + 1e-12):
            raise ValueError(f"dense evaluation outside [{self.t_span[0]}, {self.t_span[1]}]")
        return self._lookup(t_arr)

    def _lookup(self, t):
        """The solution at the times t (0-d or 1-d float array): the stored
        state at a step endpoint, else the continuous extension of the step
        that holds t (the first step before 0, the last past T), evaluated
        with the operations of scipy's ``Dop853DenseOutput`` in their order,
        so that every value has the bits scipy's ``OdeSolution`` gives."""
        ts = t.reshape(-1)
        end = np.minimum(np.searchsorted(self.steps, ts), self.n_steps)
        hit = self.steps[end] == ts
        seg = np.maximum(end - 1, 0)
        t_old = self.steps[seg]
        x = (ts - t_old) / (self.steps[seg + 1] - t_old)
        powers = (x, 1 - x)
        y = np.zeros((self._coef.shape[1], len(ts)))
        for i, coef in enumerate(self._coef[::-1]):    # a power at a time: one gather alive
            y += np.take(coef, seg, axis=1)
            y *= powers[i % 2]
        y += self.states[seg].T
        y[:, hit] = self.states[end[hit]].T
        return y if t.ndim else y[:, 0]

    def grid(self):
        """``dense_grid`` of the steps: one read-only array, computed once."""
        return self._grid

    @cached_property
    def _grid(self):
        return _read_only(dense_grid(self.steps))

    @cached_property
    def _grid_states(self):
        return _read_only(self.at(self._grid.copy()))   # a copy is looked up


def _read_only(a):
    a.flags.writeable = False
    return a


def dense_grid(steps):
    """Every accepted step subdivided into SAMPLES_PER_STEP pieces, each
    step's points as ``np.linspace(a, b, SAMPLES_PER_STEP, endpoint=False)``
    computes them."""
    steps = np.asarray(steps, dtype=float)
    a = steps[:-1, None]
    pieces = np.arange(SAMPLES_PER_STEP) * ((steps[1:, None] - a) / SAMPLES_PER_STEP) + a
    return np.concatenate([pieces.ravel(), steps[-1:]])


def _rms(x):
    """scipy's RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _validate_tol(rtol, atol, n):
    """scipy's ``validate_tol``: rtol below 100 eps is raised to it, with a
    warning; atol must be a scalar or have n entries, none negative."""
    if np.any(rtol < 100 * EPS):
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=3)
        rtol = np.maximum(rtol, 100 * EPS)
    atol = np.asarray(atol)
    if atol.ndim > 0 and atol.shape != (n,):
        raise ValueError("`atol` has wrong shape.")
    if np.any(atol < 0):
        raise ValueError("`atol` must be positive.")
    return rtol, atol


def _select_initial_step(fun, y0, T, f0, rtol, atol):
    """scipy's ``select_initial_step`` for DOP853 (error estimator order 7)
    from t = 0 forward with no step cap (Hairer, Norsett & Wanner, II.4):
    one evaluation of ``fun(t, y)`` at an Euler step; scipy's products with
    the direction, 1.0 here, are exact and left out."""
    if y0.size == 0:
        return np.inf
    interval_length = abs(T - 0.0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(0.0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def integrate(field, x0, T, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL) -> Trajectory:
    """Integrate x' = field(x) over [0, T] with dense output.

    Deterministic for fixed inputs.  Raises ValueError for a state that is
    not a finite vector or a negative tolerance, NonFiniteState if the
    right-hand side returns NaN/inf, StepSizeUnderflow if the step control
    collapses: scipy's own stop, an accepted step short of T below
    MIN_STEP * T, or MAX_STEPS steps taken before T.  The loop is scipy's
    DOP853 step loop (see the module docstring); the time argument scipy
    would pass the right-hand side is not formed, since ``field`` does not
    read it.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or not np.isfinite(x0).all():
        raise ValueError("x0 must be a 1-d array of finite values")
    T = float(T)

    def rhs(t, x):
        dx = np.asarray(field(x), dtype=float)
        if not np.isfinite(dx).all():
            raise NonFiniteState(f"non-finite derivative at t={t}")
        return dx

    n = len(x0)
    rtol, atol = _validate_tol(rel_tol, abs_tol, n)
    t, y, f = 0.0, x0, rhs(0.0, x0)
    h_abs = _select_initial_step(rhs, y, T, f, rtol, atol)
    # scipy's stage block: the 12 stages, f(t + h), the 3 dense-output stages
    K_ext = np.empty((N_STAGES_EXTENDED, n))
    K = K_ext[:N_STAGES + 1]
    stages = [(s, K[:s].T, a[:s]) for s, a in enumerate(A[1:], start=1)]
    extra = [(s, K_ext[:s].T, a[:s]) for s, a in enumerate(A_EXTRA, start=len(K))]
    K_T, K_head_T = K.T, K[:-1].T
    steps, states, coefs = [t], [y], []
    n_evals, n_rejected = 2, 0
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        step_start = h_abs
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:                # attempts: rk_step and the error test
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers.", t=float(t),
                    point=y, step=step_start, n_steps=len(coefs))
            t_new = t + h_abs
            if t_new - T > 0:
                t_new = T
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            try:
                for s, KsT, a in stages:
                    K[s] = field(y + np.dot(KsT, a) * h)
                s += 1
                y_new = y + h * np.dot(K_head_T, B)
                K[s] = field(y_new)
            except Exception as err:
                # an evaluation at a point that a non-finite stage led to
                # fails because of that stage
                if np.isfinite(K[:s]).all():
                    raise
                raise NonFiniteState(f"non-finite derivative near t={t}") from err
            n_evals += 12
            if not np.isfinite(K).all():
                raise NonFiniteState(f"non-finite derivative in the step from t={t}")
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(K_T, E5) / scale
            err3 = np.dot(K_T, E3) / scale
            err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2     # np.linalg.norm's 1-d path
            err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        y_old, y, f_old, f = y, y_new, K[0], K[-1].copy()
        for s, KsT, a in extra:    # the dense output of the accepted step
            K_ext[s] = field(y_old + np.dot(KsT, a) * h)
        n_evals += 3
        F = np.empty((INTERPOLATOR_POWER, n))
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f + f_old)
        F[3:] = h * np.dot(D, K_ext)
        coefs.append(F)
        t = t_new
        steps.append(t)
        states.append(y)
        if t - T >= 0:
            break
        if h < MIN_STEP * T or len(coefs) >= MAX_STEPS:
            reason = (f"step {h:.3e} below {MIN_STEP:g} T" if h < MIN_STEP * T
                      else "step budget spent")
            raise StepSizeUnderflow(
                f"solve stalled: {reason} at t={t:.17g} of T={T!r} after {len(coefs)}"
                " steps", t=float(t), point=y, step=h, n_steps=len(coefs))
    states = np.array(states)
    coef = np.stack(coefs, axis=-1)
    if not (np.isfinite(states).all() and np.isfinite(coef).all()):
        raise NonFiniteState("integration produced non-finite state")
    return Trajectory(
        t_span=(0.0, T),
        steps=np.array(steps),
        states=states,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        n_steps=len(coefs),
        n_rhs_evals=n_evals,
        n_rejected=n_rejected,
        _coef=coef,
    )


def _multisect(f, lo, hi, narrow, closed, place=None):
    """Shrink every bracket [lo_i, hi_i] (1-d arrays, narrowed in place) by
    rounds of ``SECTION_POINTS`` interior samples, one call of f over the
    samples of every open bracket per round.  The first round spaces them
    evenly; later rounds do too, unless ``place(idx, lo, hi)`` gives them:
    the sample times, shape (len(idx), SECTION_POINTS), of the brackets
    ``idx`` with ends ``lo`` and ``hi``.  ``narrow(idx, ts, values)``
    returns the new ends of the brackets ``idx`` from their times ``ts``
    (ends included, shape (len(idx), SECTION_POINTS + 2)) and interior
    ``values``; a bracket closes once ``closed(lo, hi)`` holds for it, or
    when a round leaves it as it was (its samples have run into its ends).
    A bracket's rounds depend on its own ends and samples alone, whatever
    the placement."""
    idx = np.arange(len(lo))
    sample = _even
    while idx.size:
        inner = sample(idx, lo[idx], hi[idx])
        ts = np.column_stack([lo[idx], inner, hi[idx]])
        values = np.asarray(f(inner.ravel()), dtype=float).reshape(inner.shape)
        before = lo[idx], hi[idx]
        lo[idx], hi[idx] = narrow(idx, ts, values)
        still = (lo[idx] == before[0]) & (hi[idx] == before[1])
        idx = idx[~(closed(lo[idx], hi[idx]) | still)]
        sample = place or _even


def _even(idx, lo, hi):
    """``SECTION_POINTS`` evenly spaced interior points of each bracket."""
    h = (hi - lo) / (SECTION_POINTS + 1)
    return lo[:, None] + h[:, None] * np.arange(1, SECTION_POINTS + 1)


def _brackets(a, b):
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return lo.shape, lo.ravel().copy(), hi.ravel().copy()


def refine_minimum(f, a, b):
    """Minimum of f on every bracket [a, b] by multisection; returns (t_min,
    f_min) of the shape of the bracket ends (scalars or equal-shape arrays).
    ``f`` maps an array of times to an array of values.  Each round keeps the
    two sub-intervals around the smallest sample, until the bracket is
    narrower than MINIMUM_TOL (1 + |a| + |b|); the result is that sample."""
    shape, lo, hi = _brackets(a, b)
    t_min, f_min = np.empty_like(lo), np.empty_like(lo)

    def narrow(idx, ts, values):
        rows, k = np.arange(len(idx)), np.argmin(values, axis=1) + 1
        t_min[idx], f_min[idx] = ts[rows, k], values[rows, k - 1]
        return ts[rows, k - 1], ts[rows, k + 1]

    _multisect(f, lo, hi, narrow,
               lambda lo, hi: hi - lo < MINIMUM_TOL * (1.0 + np.abs(lo) + np.abs(hi)))
    return t_min.reshape(shape)[()], f_min.reshape(shape)[()]


def refined_minima(f, grid, values, interior=False, cut=None, skip=()):
    """(t_min, f_min) of each discrete local minimum of the samples ``values``
    of f on ``grid`` (``_minima``), refined over its two neighbouring
    intervals; one ``refine_minimum`` call takes every bracket, so f maps an
    array of times to an array of values.  A minimum whose bracket holds
    one of the sorted times ``skip`` (zeros found otherwise) is dropped."""
    found = np.array(_minima(grid, values, interior, cut), dtype=int).reshape(-1, 2)
    grid = np.asarray(grid, dtype=float)
    lo, hi = grid[found[:, 0] - 1], grid[found[:, 1]]
    keep = np.searchsorted(skip, lo) == np.searchsorted(skip, hi, side="right")
    if not keep.any():
        return []
    t_min, f_min = refine_minimum(f, lo[keep], hi[keep])
    return list(zip(t_min.tolist(), f_min.tolist()))


def _minima(grid, values, interior=False, cut=None):
    """(i, right) of each discrete local minimum i of the samples ``values``
    on ``grid``, with ``right`` its right neighbour (i itself at the end).
    The last grid point counts when not above its left neighbour, unless
    ``interior``.

    With ``cut``, only minima that can fall to ``cut`` count.  Near a kink
    |t - t0| or a parabola about its minimum, f falls below the sample by at
    most the slope to the steeper neighbour times the wider interval; a
    sample above ``cut`` by more than that is a plateau or a shallow dip."""
    last = len(grid) - 1
    values = np.asarray(values)
    idx = np.arange(1, last if interior else last + 1)
    right = np.minimum(idx + 1, last)
    low = (values[idx] <= values[idx - 1]) & (values[idx] <= values[right])
    return [(i, r) for i, r in zip(idx[low].tolist(), right[low].tolist())
            if cut is None or values[i] - _reach(grid, values, i, r) <= cut]


def dip_points(grid, values, cut):
    """Sorted times that resample the two intervals around each minimum of
    ``values`` on ``grid`` that can fall to ``cut`` (``_minima``, the last
    grid point included): DIP_POINTS / 2 evenly spaced points inside each
    interval, an interval two dips share once.  Merged into the grid, they
    resolve zeros closer together than the grid spacing."""
    ends = sorted({j for i, right in _minima(grid, values, cut=cut) for j in (i, right)})
    parts = [np.linspace(grid[j - 1], grid[j], DIP_POINTS // 2 + 2)[1:-1] for j in ends]
    return np.concatenate(parts) if parts else np.empty(0)


def _reach(grid, values, i, right):
    sides = [(grid[i] - grid[i - 1], values[i - 1] - values[i])]
    if right > i:
        sides.append((grid[right] - grid[i], values[right] - values[i]))
    return max(rise / h for h, rise in sides) * max(h for h, _ in sides)


def locate_events(f, grid, values):
    """Sign changes of a scalar function f sampled as ``values`` on ``grid``.

    ``f`` maps an array of times to an array of values.  Every change of sign
    between adjacent samples is refined by multisection, all together: each
    round keeps the first sub-interval whose ends differ in sign, until it is
    at most EVENT_ULPS spacings of floats wide at its larger end, or a round
    no longer narrows it, and returns its midpoint; a sample that is exactly
    zero ahead of the first change is returned.  The first round samples
    evenly; each later one samples a window of +-WINDOW of the bracket's
    width, at least EVENT_ULPS spacings wide and clipped inside the bracket,
    about the false-position point of the bracket's ends (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4): on a smooth f the
    window holds the zero from the second round on, so a bracket closes in
    about four rounds, and a window that misses keeps one side of it and is
    placed again.  A grid sample that is exactly zero counts when its two
    neighbours have opposite signs.  Nothing is reported at the edges of
    the grid, and zeros where f touches without changing sign are not found
    here (refine the minima of |f| with ``refined_minima`` for those).
    Returns the sorted times."""
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    change = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    zero = 1 + np.flatnonzero((values[1:-1] == 0.0) & (values[:-2] * values[2:] < 0.0))
    _, lo, hi = _brackets(grid[change], grid[change + 1])
    negative = values[change] < 0.0
    f_lo, f_hi = values[change], values[change + 1]      # f at each bracket's ends

    def narrow(idx, ts, values):
        # keep the sub-interval that ends at the first sample exactly zero or
        # across zero from the left end (the right end when none is); a zero
        # closes its bracket on itself
        zero = np.column_stack([values == 0.0, np.zeros(len(idx), bool)])
        across = np.column_stack([(values < 0.0) != negative[idx, None], np.ones(len(idx), bool)])
        rows, k = np.arange(len(idx)), np.argmax(zero | across, axis=1) + 1
        left = np.where(zero[rows, k - 1], k, k - 1)
        full = np.column_stack([f_lo[idx], values, f_hi[idx]])
        f_lo[idx], f_hi[idx] = full[rows, left], full[rows, k]
        return ts[rows, left], ts[rows, k]

    def place(idx, lo, hi):
        # the ends differ in sign, so the false-position point lies in the bracket
        width = hi - lo
        at = lo + width * (f_lo[idx] / (f_lo[idx] - f_hi[idx]))
        half = np.maximum(WINDOW * width, 0.5 * EVENT_ULPS * _spacing(lo, hi))
        return np.linspace(np.maximum(at - half, lo), np.minimum(at + half, hi), SECTION_POINTS,
                           axis=-1)

    _multisect(f, lo, hi, narrow, lambda lo, hi: hi - lo <= EVENT_ULPS * _spacing(lo, hi), place)
    return np.sort(np.concatenate([0.5 * (lo + hi), grid[zero]])).tolist()


def _spacing(lo, hi):
    """Spacing of floats at the larger end of each bracket."""
    return np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
