"""Adaptive ODE integration with dense output, crossing events, splitting at
forcing discontinuities and potential kinks, and a hard guard near singular
endpoints.  One step loop over Python floats runs the Dormand-Prince 8(5,3)
pair DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10) with the
controller and starting-step rule of Sec. II.4, as scipy's DOP853 runs them:
order 8 steps, its error norm from the order 5 and order 3 estimates, and
its degree-7 dense output.

Cost model.  An attempted step costs 11 right-hand-side evaluations (its
stages), an accepted one 1 more (f_new, which the error estimate does not
read), one that builds its dense output 3 more, and every restart (start,
forcing break, kink) 2 more: nfev = 2 n_segments + 12 n_steps +
11 n_rejected + 3 n_dense.  A system is plain or sampled: every step of a
plain one builds its dense output, and a step of a sampled one builds it
only where it holds the next of the solve's samples or ends at a watched
kink or guard crossing (see _system_source).  A resonance_run window is a
sampled solve (forced_system's samples), and so is Newton's period map
(forced_system's tangent), with no samples: its steps record their stage x,
and its monodromy is one pass over them (RawSolution.variations) at one V''
and no V' per recorded stage (12 a step, 15 one that ends at a kink root,
1 more at the start and at each root).  The whole accept/reject loop over
one span is generated as source over scalar locals (_system_source) and
compiled once per structure: the state size n, the tangent lines and
whether it is sampled, the system's body (the lines that compute the
right-hand side), its span statements (lines run once per span) and the
expressions of the kink and the guard it watches.
forced_system, the one builder of x'' = -V'(x) +
eps*p(t) and its extra components (n = 2 for a forced run, 3 with the
Rofe-Beketov integral, 6 with the variational pairs; solve_forced solves
it), writes that body from the expression text a built-in potential
declares for V' and V'' and from the statements a forcing writes for p:
TrigPoly's over math.cos/math.sin, a step's or sampled forcing's piece
(start, value, slope) read by span statements once per span, so that each
stage reads one line of arithmetic.  The loop runs the body inline at each
stage, so no stage makes a Python call (custom potentials and custom
forcings call their callbacks from the body), and the system carries p's
split points, where forcing.partition cuts each solve.  The constants (eps, the
coefficients, the clamp, the guard's threshold) are globals bound per
system, so systems that differ only in values share one code object.  The
loop returns to integrate_ode only at the span's end, after the step that
crosses max_steps, when the step size falls below the spacing of floats,
or on a sign change of the kink or the guard, which ends a step and is
root-found on the step's interpolant there; integrate_ode loops over the
spans between the split points and restarts the step at each kink root,
by one rule for the kink (see integrate_ode).  An attempted step of a forced
Pinney run costs 9-10 us and an accepted asymmetric:1:1 one 12-15 us,
0.7-0.9 us per right-hand side with its share of the stage sums (sampled
solves, 2-core VM, Python 3.11).  At rel_tol 1e-11 a forced period takes 3-7
times fewer steps than the Dormand-Prince 5(4) loop it replaced took at
1e-10, to a smaller error.  The stage sums keep the terms and the order of a
loop over components, and the controller's comparisons give min's and max's
floats (the tests' reference loop), so the results are the same to the bit.
The v=0 and x=0 crossings are found when RawSolution.events is first read.
Each accepted step is recorded once, in flat lists: its knot, its size and
its 16 stage rows if it builds them, from which the dense output is built
(np.fromiter, then one array product) at the end; RawSolution.eval evaluates
any number of times in one array operation.
"""

from __future__ import annotations

import math
import numbers
import re
from bisect import bisect_left
from functools import cached_property, lru_cache

import numpy as np

from ._record import record
from .errors import ConfigError, IntegrationError
from .forcing import ForcingTerm, partition
from .potentials import PotentialSpec, brentq


@record
class State:
    """Phase point (position, velocity)."""
    x: float
    v: float


@record
class IntegratorConfig:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-12
    singularity_margin: float = 1e-9
    max_steps: int = 2_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "singularity_margin"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"integrator.{name}: must be finite and positive")
        if (isinstance(self.max_steps, bool) or not isinstance(self.max_steps, numbers.Integral)
                or self.max_steps < 1):
            raise ConfigError("integrator.max_steps: must be an integer >= 1")


@record
class Event:
    kind: str
    t: float


class RawSolution:
    """Chained dense solution of an n-dimensional compiled system: what
    integrate_ode returns, and what a failed solve attaches to its
    IntegrationError as ``trajectory``.

    ts and ys are the knots, one row of ys per knot; for the systems of
    solve_forced, ys[:, 0] is x and ys[:, 1] is v.  Step k starts at knot k,
    has size h[k] and covers knot interval (ts[k], ts[k + 1]], picked as
    scipy's OdeSolution picks its interpolant; coef[k], shape (7, n), is its
    DOP853 dense output in powers of s = (t - ts[k]) / h[k]:
    y = ys[k] + h[k] * sum_j coef[k, j] * s**(j+1).
    A plain solve has rows None: step k's row is coef[k].  A sampled one
    (see _system_source) has rows, and step k's row is coef[rows[k]], none
    if rows[k] is -1: eval, state and events raise ValueError where they
    need a step that has none; samples is its np.linspace.  Nothing
    changes it once built, so it is safe to share.
    """

    def __init__(self, ts, ys, h, coef, log, stats, rows=None, samples=None, tangent=None):
        self.ts, self.ys, self.h, self.coef = map(np.asarray, (ts, ys, h, coef))
        self.rows, self.samples = rows, samples
        self._log = log                   # Events logged while stepping
        self.stats = stats
        self._tangent = tangent           # (system, its stage x's) of a tangent solve

    def variations(self, start=(1.0, 0.0, 0.0, 1.0)):
        """A tangent solve's (u, u', w, w') at each knot from start, tuples of
        floats: its tangent lines over its steps' stage x's, k1 carried as k13
        (the same floats at a break) and taken afresh at a kink root, read on
        the 4 columns' own interpolant.  From (1, 0, 0, 1) the last is M's."""
        system, xs = self._tangent
        ts, hs, x = self.ts.tolist(), self.h.tolist(), self.ys[:, 0].tolist()
        vs, k = [tuple(map(float, start))], 0      # numpy scalars would make the pass numpy's
        try:   # a float ** or / raises where numpy's would give inf, as in a step
            k1 = system.tangent_at(x[0], *vs[0])
            for end in [*np.flatnonzero(self.rows >= 0).tolist(), -1]:
                rows = system.vary(k, end, *vs[-1], *k1, hs, xs, vs)   # end's, from vs[-1]
                if end < 0:
                    return vs
                y_at = _interpolant(ts[end], hs[end], vs[-1], _DENSE @ np.reshape(rows, (16, 4)))
                vs.append(tuple(y_at(ts[end + 1])))
                k, k1 = end + 1, system.tangent_at(x[end + 1], *vs[-1])
        except (OverflowError, ZeroDivisionError) as exc:
            raise IntegrationError(f"integration failed: a variation ({exc.args[-1]})") from None

    def _dense(self, k):
        """The rows of coef of the steps k, an index array."""
        rows = k if self.rows is None else self.rows[k]
        if rows.min(initial=0) < 0:
            raise ValueError("a sampled solve keeps no dense output inside a step that "
                             "holds none of its samples and ends at no kink or guard crossing")
        return rows

    @cached_property
    def events(self):
        """The logged breaks and guard stop and every v=0 and x=0 crossing in
        time order (ties: v_zero, x_zero, log).  A sign change between knots
        is root-found on its step's interpolant, as the loop finds the kink."""
        found = [(e.t, 2, e.kind) for e in self._log]
        for rank, c, name in ((0, 1, "v_zero"), (1, 0, "x_zero")):
            sign = np.sign(self.ys[:, c])
            # a zero on a knot counts once, and never for a component that is 0
            arrive = (sign == 0) & np.append(sign.any(), sign[:-1] != 0)
            found += [(t, rank, name) for t in self.ts[arrive].tolist()]
            steps = np.flatnonzero(sign[:-1] * sign[1:] < 0)
            for k, row in zip(steps.tolist(), self._dense(steps).tolist()):
                t_old, h = float(self.ts[k]), float(self.h[k])
                y_at = _interpolant(t_old, h, self.ys[k].tolist(), self.coef[row])
                found.append((brentq(lambda t: y_at(t)[c], t_old, t_old + h,
                                     xtol=_ROOT_TOL, rtol=_ROOT_TOL), rank, name))
        return [Event(name, t) for t, _, name in sorted(found)]

    def events_of(self, name):
        return [e for e in self.events if name == e.kind]

    def state(self, t) -> State:
        x, v = self.eval(float(t))[:2]
        return State(float(x), float(v))

    def end_state(self) -> State:
        return State(float(self.ys[-1, 0]), float(self.ys[-1, 1]))

    def eval(self, t):
        """Dense evaluation at scalar or array times inside [ts[0], ts[-1]],
        every step's interpolant in one array operation: one value per
        component, each an array over the times for array input."""
        t0, t1 = float(self.ts[0]), float(self.ts[-1])
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.size and (t_arr.min() < t0 - 1e-9 or t_arr.max() > t1 + 1e-9):
            raise ValueError("evaluation time outside the integrated span")
        t_arr = np.clip(t_arr, t0, t1)
        k = np.searchsorted(self.ts[1:-1], t_arr, side="left")
        rows = self._dense(k)
        n_rows, powers, n = self.coef.shape
        h = self.h.take(k)
        # one flat run per component, [c_0 at every time, c_1 ...], so that
        # each operation below is on contiguous arrays of one shape
        s = np.concatenate([(t_arr - self.ts.take(k)) / h] * n)
        coef = self.coef.reshape(n_rows, -1).T.take(rows, axis=1).reshape(powers, -1)
        p = s
        y = coef[0] * p
        for c in coef[1:]:
            p = p * s
            y += c * p
        y = np.concatenate([h] * n) * y + self.ys.T.take(k, axis=1).ravel()
        return y.reshape(n, -1)[:, 0] if np.ndim(t) == 0 else y.reshape(n, -1)


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10),
# each row a dict {j: coefficient of stage k_{j+1}} of its nonzero entries in
# stage order.  _C[:12] and _A[:12] are the 12 stages (k1 = f at the step's
# start), _C[12] and _B = _A[12] the order 8 solution and f_new = k13 at it,
# _C[13:] and _A[13:] the 3 stages only the dense output needs, _E5 and _E3
# the order 5 and order 3 error weights (k13's weight is 0 in both) and _D
# the rows 4..7 of the degree-7 dense output.
# tests/test_integrate.py::test_tableau_is_scipys pins every float to scipy's
# DOP853 arrays.
_C = [0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778]
_A = [{},
      {0: 0.05260015195876773},
      {0: 0.0197250569845379, 1: 0.0591751709536137},
      {0: 0.02958758547680685, 2: 0.08876275643042054},
      {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
      {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
      {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
       5: -0.017578125},
      {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
       5: -0.015319437748624402, 6: 0.008273789163814023},
      {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
       5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
      {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
       5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
       8: -0.020331201708508627},
      {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
       5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
       8: 2.4936055526796523, 9: -3.0467644718982196},
      {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
       5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
       8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
      {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
       7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
       10: 0.20136540080403034, 11: 0.04471061572777259},
      {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
       8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
       11: 0.007567897660545699, 12: -0.008298},
      {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
       7: -0.05492374857139099, 10: -0.00010834732869724932,
       11: 0.0003825710908356584, 12: -0.00034046500868740456, 13: 0.1413124436746325},
      {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
       7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
       13: 2.9475147891527724, 14: -9.15095847217987}]
_B = _A[12]
_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
       7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
       10: 0.08192320648511571, 11: -0.022355307863886294}
_E3 = {**_B, 0: _B[0] - 0.2440944881889764, 8: _B[8] - 0.7338466882816118,
       11: _B[11] - 0.022058823529411766}
_D = [{0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
       7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
       10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
       13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
      {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
       7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
       10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
       13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
      {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
       7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
       10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
       13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
      {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
       7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
       10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
       13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564}]


def _dense_matrix():
    """_DENSE, (7, 16): coef = _DENSE K for a step's 16 stage rows K is its
    degree-7 dense output in powers of s (see RawSolution).  scipy's DOP853
    writes it as s (F0 + (1-s) (F1 + s (F2 + (1-s) (F3 + s (F4 + (1-s) (F5
    + s F6)))))) with F0 = y_new - y_old = h B.K, F1 = h k1 - F0, F2 = 2 F0 -
    h (k1 + k13) and F3..F6 = h D.K; w expands each F_i's factor in powers
    of s."""
    def row(coefs):
        out = np.zeros(16)
        out[list(coefs)] = list(coefs.values())
        return out
    b, k1, k13 = row(_B), row({0: 1.0}), row({12: 1.0})
    f = np.array([b, k1 - b, 2 * b - k1 - k13, *map(row, _D)])
    w = np.array([[1, 0, 0, 0, 0, 0, 0],        # s
                  [1, -1, 0, 0, 0, 0, 0],       # s (1-s)
                  [0, 1, -1, 0, 0, 0, 0],       # s^2 (1-s)
                  [0, 1, -2, 1, 0, 0, 0],       # s^2 (1-s)^2
                  [0, 0, 1, -2, 1, 0, 0],       # s^3 (1-s)^2
                  [0, 0, 1, -3, 3, -1, 0],      # s^3 (1-s)^3
                  [0, 0, 0, 1, -3, 3, -1]])     # s^4 (1-s)^3
    return w.T @ f


_DENSE = _dense_matrix()
_ROOT_TOL = 4 * math.ulp(1.0)      # scipy's event-root tolerance, a Python float


def _system_source(n, span, body, kink, guard, tangent, sampled):
    """Sources of rhs(tt, y, tm) and run(...), the DOP853 loop over one span
    (then of a tangent system's pass), for an n-component system body: lines
    that read tt and s_0..s_{n-1} and set r_0..r_{n-1} (no loop name).  The
    body may read tm, a time inside the span: run sets it to the midpoint of
    the span it steps over, and rhs to tt unless it is given.  The span
    statements (lines over tm and constants only, such as a forcing's
    piece) run once where tm is set, at run's start and in each rhs call,
    and the body reads the names they set at every stage.

    run(t, y_0.., k1_0.., h_abs, tb, d_0.., g_0.., n_steps, n_rej, max_steps,
    atol, rtol, ts, ys, hs, ks, xs) steps from (t, y) with k1 = rhs(t, y, tm)
    towards tb: accept/reject, scipy DOP853's error norm |h| |e5|^2 / sqrt((|e5|^2 +
    0.01 |e3|^2) n), its controller (exponent -1/8) and its step-size
    update, with the body inline at each of the 11 stages, and at f_new =
    k13 once the step is accepted (k13's error weights are 0).  The norm is
    0 where the root's argument is 0, also where it underflows to 0
    (scipy's 0/0 there is nan, which rejects the step).  Stage j writes
    the body's r_i as k{j}_i.  An accepted step appends h to hs, its knot
    t_new to ts and its n components to ys (its start is the last knot), and
    runs the 3 stages of its dense output inline and appends its 16 stage
    rows to ks (16n floats), every step of a plain system.  The kink and
    the guard (each an expression over t_new and the step's end state
    z_0..z_{n-1}, or None) are the watched functions, kink first; g_i is
    one's value at the step's start and d_i the direction of the crossing
    that ends a step (scipy's test d*g_old <= 0 <= d*g_new).  A nan
    direction watches neither way; the kink's is set to -sign(g) at the first step end where its g is
    not 0, so a kink watched from g = 0 is watched for leaving the side g
    first moves to.  run returns (why, n_steps, n_rej, hit) at the span's end
    ("end"), after the step that crosses max_steps ("budget"), when h_abs
    falls below the spacing of floats at t ("min_step"), or on a watched sign
    change ("hit", hit = (t_new, the g at its start, the g at its end, the
    directions)): the step's row is appended but not its knot.  min(a, b) is
    written b if b < a else a, and max(a, b) b if b > a else a, which give
    min's and max's floats, nan included.  Each sum keeps the terms and the
    order of the loop over components that the tests compare it with bit for
    bit (the tableau's zeros skipped).  Each watched expression is
    also written as watch_kink(t_new, z) or watch_guard(t_new, z), its value
    at a state z, for the root-find.

    A sampled system's run takes grid, kept after g_0..: grid is the
    solve's samples in increasing order, ending with inf.  nxt is the first
    sample at or after the span's start, then the first past the last
    step, and an accepted step runs its 3 dense stages, appends its rows
    and appends its index n_steps to kept only if it holds nxt or ends at a
    watched sign change, whose root-find reads them.  A tangent system
    (tangent: lines over s_0 = x and s_2..s_5 = (u, u', w, w') that set
    r_2..r_5) is sampled; its stage j's x is x{j}, and a step appends
    (x2, ..., x13) to xs, (..., x16) where it builds its rows.  vary(k, end,
    y_2.., k1_2.., hs, xs, vs) runs the tangent lines over the steps from k
    with the terms and order of the loop's sums, appending each knot to vs,
    and returns step end's 16 rows (its start vs[-1]), None past the last."""
    watch = [expr for expr in (kink, guard) if expr is not None]
    m = len(watch)

    def indent(lines, depth):
        return ["    " * depth + line for line in lines]

    def each(fmt, count=n, first=0):   # fmt(i) for every component, comma-joined
        return ", ".join(fmt(i) for i in range(first, count))

    def combo(coefs, i):           # (c1) * k1_i + (c2) * k2_i + ..., zeros skipped
        return " + ".join(f"({c!r}) * k{j + 1}_{i}" for j, c in coefs.items())

    def sums(j, comps):            # stage j's state
        return [f"s_{i} = y_{i} + h * ({combo(_A[j - 1], i)})" for i in comps]

    def point(j):                  # stage j's time and state
        t_j = "t + h" if _C[j - 1] == 1.0 else f"t + ({_C[j - 1]!r}) * h"
        return [f"tt = {t_j}"] + sums(j, range(n))

    def value(j, lines=body):      # the lines there, r_i renamed k{j}_i (and s_0 x{j})
        lines = [re.sub(r"\br_(\d+)\b", rf"k{j}_\1", line) for line in lines]
        return [re.sub(r"\bs_0\b", f"x{j}", line) for line in lines] if tangent else lines

    def stage(j):
        return value(j, [*point(j), *body])

    # stages 2..12, then the order 8 solution z = y + h B.K; f_new = k13 at z
    # has weight 0 in the error, so only an accepted step evaluates it
    step = [line for j in range(2, 13) for line in stage(j)]
    step += value(13, point(13) + ["; ".join(f"z_{i} = s_{i}" for i in range(n))])
    for i in range(n):
        step += [f"a, b = abs(y_{i}), abs(z_{i})",
                 "sc = atol + (b if b > a else a) * rtol",
                 f"e5_{i} = ({combo(_E5, i)}) / sc",
                 f"e3_{i} = ({combo(_E3, i)}) / sc"]
    # the loop's sums start at 0.0, and 0.0 + e * e is e * e for every float e
    sq5, sq3 = (" + ".join(f"e{o}_{i} * e{o}_{i}" for i in range(n)) for o in (5, 3))
    step += [f"sq5 = {sq5}",
             f"sq3 = {sq3}",
             f"den = (sq5 + 0.01 * sq3) * {n}",
             "err = h * sq5 / sqrt(den) if den else 0.0",
             "if err < 1:",
             "    factor = 10.0",
             "    if err != 0:",
             "        q = 0.9 * err ** -0.125",
             "        if q < factor: factor = q",
             "    if rejected and not factor < 1.0: factor = 1.0",
             "    h_abs = h * factor",
             "    break",
             "q = 0.9 * err ** -0.125",
             "h_abs = h * (q if q > 0.2 else 0.2)",
             "rejected = True",
             "n_rej += 1"]

    stages = each(lambda j: each(lambda i: f"k{j + 1}_{i}"), 16)
    dense = [line for j in range(14, 17) for line in stage(j)]
    dense += [f"ks += ({stages},)", *(["xs[-1] += (x14, x15, x16)"] if tangent else [])]
    if sampled:    # a sampled step builds its rows only where they are read
        dense = [f"if {'hit or ' if m else ''}nxt <= t_new:", *indent(dense, 1),
                 "    kept.append(n_steps)"]
    accepted = value(13) + ([f"xs.append(({each(lambda j: f'x{j}', 14, 2)},))"] if tangent else [])
    if m:
        olds, news = each(lambda i: f"g_{i}", m), each(lambda i: f"w_{i}", m)
        crossed = " or ".join(f"d_{i} * g_{i} <= 0 <= d_{i} * w_{i}" for i in range(m))
        accepted += [*(f"w_{i} = {expr}" for i, expr in enumerate(watch)), f"hit = {crossed}"]
    accepted += [*dense, "hs.append(h)"]
    if m:
        accepted += ["if hit:",
                     f"    return 'hit', n_steps, n_rej, (t_new, ({olds},), ({news},), "
                     f"({each(lambda i: f'd_{i}', m)},))",
                     f"{olds}, = {news},"]
        if kink is not None:
            accepted += ["if d_0 != d_0 and w_0: d_0 = -1.0 if w_0 > 0 else 1.0"]
    if sampled:
        accepted += ["while nxt <= t_new: i += 1; nxt = grid[i]"]
    accepted += ["ts.append(t_new)",
                 f"ys += ({each(lambda i: f'z_{i}')},)",
                 "n_steps += 1",
                 "if n_steps > max_steps:",
                 "    return 'budget', n_steps, n_rej, None",
                 f"t, {each(lambda i: f'y_{i}')}, = t_new, {each(lambda i: f'z_{i}')},",
                 f"{each(lambda i: f'k1_{i}')}, = {each(lambda i: f'k13_{i}')},",
                 "if t == tb:",
                 "    return 'end', n_steps, n_rej, None"]

    args = ", ".join([each(lambda i: f"y_{i}"), each(lambda i: f"k1_{i}"), "h_abs, tb",
                      *([each(lambda i: f"d_{i}", m), each(lambda i: f"g_{i}", m)] if m else []),
                      *(["grid, kept"] if sampled else []),
                      "n_steps, n_rej, max_steps, atol, rtol, ts, ys, hs, ks, xs"])
    lines = ["def rhs(tt, y, tm=None):",
             "    if tm is None: tm = tt",
             *indent(span, 1),
             f"    {each(lambda i: f's_{i}')}, = y",
             *indent(body, 1),
             f"    return ({each(lambda i: f'r_{i}')},)",
             f"def run(t, {args}):",
             "    tm = 0.5 * (t + tb)",
             *(["    i = bisect_left(grid, t); nxt = grid[i]"] if sampled else []),
             *indent(span, 1),
             "    while True:",
             "        min_step = 10 * (nextafter(t, inf) - t)",
             "        if min_step > h_abs: h_abs = min_step",
             "        rejected = False",
             "        while True:",
             "            if h_abs < min_step:",
             "                return 'min_step', n_steps, n_rej, None",
             "            t_new = t + h_abs",
             "            if tb < t_new: t_new = tb",
             "            h = t_new - t",
             *indent(step, 3),
             *indent(accepted, 2)]
    for name, expr in (("kink", kink), ("guard", guard)):
        if expr is not None:
            lines += [f"def watch_{name}(t_new, z):",
                      f"    {each(lambda i: f'z_{i}')}, = z",
                      f"    return {expr}"]
    sources = [lines]
    if tangent:    # the pass over (u, u', w, w'), stage by stage, a source of its own
        y, k1, s, k13 = (each(lambda i: f"{c}_{i}", 6, 2) for c in ("y", "k1", "s", "k13"))
        rows = each(lambda j: f"k{j}_2, k{j}_3, k{j}_4, k{j}_5", 17, 1)
        replay = [value(j, [*sums(j, range(2, 6)), *tangent]) for j in range(2, 17)]
        sources += [[f"def vary(k, end, {y}, {k1}, hs, xs, vs):",
                     "    while k < len(hs):",
                     f"        h = hs[k]; {each(lambda j: f'x{j}', 14, 2)}, *dense = xs[k]",
                     *indent(sum(replay[:12], []), 2),
                     "        if k == end:",
                     "            x14, x15, x16, = dense",
                     *indent(sum(replay[12:], []), 3),
                     f"            return ({rows},)",
                     f"        {y}, {k1}, = {s}, {k13},",
                     f"        vs.append(({y},)); k += 1",
                     f"def tangent_at(s_0, {s}):",
                     *indent(tangent, 1),
                     f"    return ({each(lambda i: f'r_{i}', 6, 2)},)"]]
    return ["\n".join(source) + "\n" for source in sources]


@lru_cache(maxsize=64)
def _compiled(n, span, body, kink, guard, tangent, sampled):
    """Each source of _system_source(n, span, body, kink, guard, tangent,
    sampled) compiled on its own, cached by structure (span statements too):
    systems that differ only in the values of their constants share code."""
    return tuple(compile(source, f"<isores system, n={n}>", "exec")
                 for source in _system_source(n, span, body, kink, guard, tangent, sampled))


def _compile_system(n, body, constants, kink=None, guard=None, span=(), splits=(),
                    tangent=(), samples=0):
    """rhs(t, y) of an n-component system from its body and span statements
    (lines, see _system_source), with everything integrate_ode needs to
    solve it: its loop as rhs.run; the kink, an expression over t_new and
    the step's end state z_0..z_{n-1}, and the guard, (kind, expression),
    that the loop watches, as rhs.kink = g(t, y) and rhs.guard = (kind,
    g(t, y)), or None; and rhs.splits, the split points in [0, 2*pi) of a
    2*pi-periodic p, as floats, where every solve restarts.  constants are
    the values of the globals that the body, the span statements and the
    expressions read, bound per system.  A system with tangent lines
    (rhs.tangent, whose pass is rhs.vary, see _system_source) is sampled
    with no samples, and one with rhs.samples > 0 is sampled: its steps
    build their dense output only where rhs.samples uniform samples of each
    solve fall or a kink or guard crossing ends them."""
    if tangent and samples:
        raise ValueError("a tangent system takes no samples")
    namespace = {"sqrt": math.sqrt, "cos": math.cos, "sin": math.sin,
                 "nextafter": math.nextafter, "inf": math.inf, "bisect_left": bisect_left,
                 **constants}
    for code in _compiled(n, tuple(span), tuple(body), kink, guard and guard[1], tuple(tangent),
                          bool(tangent) or samples > 0):
        exec(code, namespace)
    rhs = namespace["rhs"]
    rhs.run = namespace["run"]
    rhs.kink = namespace.get("watch_kink")
    rhs.guard = guard and (guard[0], namespace["watch_guard"])
    rhs.splits = tuple(map(float, splits))
    rhs.tangent, rhs.samples = tuple(tangent), samples
    rhs.vary, rhs.tangent_at = namespace.get("vary"), namespace.get("tangent_at")
    return rhs


def _initial_step(fun, t, y, f, span, cfg):
    """scipy's starting-step rule for an error estimator of order 7."""
    scale = [cfg.abs_tol + abs(a) * cfg.rel_tol for a in y]
    rms = lambda v: math.sqrt(sum((x / s) ** 2 for x, s in zip(v, scale)) / len(y))
    d0, d1 = rms(y), rms(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = fun(t + h0, [a + h0 * p for a, p in zip(y, f)])
    d2 = rms([q - p for p, q in zip(f, f1)]) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.125)
    return min(100 * h0, h1, span)


def _interpolant(t_old, h, y_old, coef):
    """The step's dense output t -> y(t) over floats, by Horner's rule;
    coef: (7, n), see RawSolution."""
    columns = coef[::-1].T.tolist()        # per component, highest power first

    def y_at(t):
        s = (t - t_old) / h
        out = []
        for a, column in zip(y_old, columns):
            acc = 0.0
            for c in column:
                acc = acc * s + c
            out.append(a + h * s * acc)
        return out
    return y_at


def _floats(values):
    """A flat list of floats as a float64 array, the values of np.array's
    (np.fromiter builds it about twice as fast)."""
    return np.fromiter(values, float, len(values))


def integrate_ode(system, y0, t0, t1, cfg: IntegratorConfig) -> RawSolution:
    """Integrate y' = system(t, y) over [t0, t1] with dense output, for a
    system made by _compile_system (forced_system's): it steps with
    system.run, which runs the body and the expressions of system.kink and
    system.guard inline, and restarts at partition(system.splits, t0, t1).

    splits -- the step grid restarts at each inner point of that partition,
              logged as a ``forcing_break`` event;
    kink   -- g(t, y) whose zero crossings force a restart so that no step
              straddles them;
    guard  -- (kind, g(t, y)): a downward crossing aborts with the partial
              RawSolution attached to the raised IntegrationError.

    One pass per span between split points, with one restart per kink root:
    the earliest kink or guard root on the step's interpolant ends the step.
    Every pass starts at the last knot, so step k starts at knot k.
    At a span's start the kink is watched for leaving g's side, and at g = 0
    for leaving the side g first moves to, so a rest point on the kink stays
    at rest; after a root, the other way.  v=0 and x=0 crossings are found
    when RawSolution.events is read.  Each restart re-runs the starting-step
    rule, as a new solve_ivp call would, with tm the midpoint of what the
    loop then steps over (see _system_source); nfev = 2 n_segments +
    12 n_steps + 11 n_rejected + 3 n_dense (the module's cost model).  A
    sampled system (tangent, or system.samples = N > 0) has the samples
    np.linspace(t0, t1, N) (RawSolution.samples; none for N = 0), and its
    steps build their dense output only where these or a kink or guard
    root read it; a tangent one's steps record its stage x's (see
    _system_source).
    """
    t0, t1 = float(t0), float(t1)     # a numpy bound would make the loop's arithmetic numpy's
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("integrate_ode: t0 and t1 must be finite")
    if t1 <= t0:
        raise ValueError("integrate_ode: need t1 > t0")
    y = np.asarray(y0, dtype=float).tolist()
    if not all(map(math.isfinite, y)):
        raise ValueError("integrate_ode: y0 must be finite")
    n = len(y)
    stops = partition(system.splits, t0, t1)
    run, kink, guard = system.run, system.kink, system.guard
    # the functions whose sign change ends a step, kink first
    watched = [g for g in (kink, guard and guard[1]) if g is not None]
    samples = np.linspace(t0, t1, system.samples) if system.samples else None
    kept, xs = [], []  # a sampled solve's steps that built their rows, a tangent's stage x's
    # a sampled loop's grid (its samples, then inf) and kept
    sampled = (((samples.tolist() if system.samples else []) + [math.inf], kept)
               if system.tangent or system.samples else ())
    ts, ys, hs, ks, log = [t0], list(y), [], [], []   # ys: n, ks: 16n floats a row
    n_steps = n_rejected = n_segments = 0

    def solution():
        table = _floats(ks).reshape(-1, 16, n)      # the steps that built their rows
        stats = {"n_steps": n_steps,
                 "nfev": 2 * n_segments + 12 * n_steps + 11 * n_rejected + 3 * len(table),
                 "n_segments": n_segments, "n_rejected": n_rejected}
        rows = None
        if sampled:
            rows = np.full(len(ts) - 1, -1)
            rows[kept] = np.arange(len(kept))
        return RawSolution(_floats(ts), _floats(ys).reshape(-1, n), _floats(hs), _DENSE @ table,
                           log, stats, rows, samples, (system, xs) if system.tangent else None)

    def fail(msg):
        raise IntegrationError(msg, trajectory=solution())

    for ta, tb in zip(stops, stops[1:]):
        if ta != t0:
            log.append(Event("forcing_break", ta))
        ta = ts[-1]        # before ta if a kink root within 1e-12 of it ended the last span
        dirs = []          # the direction of the crossing of each watched g that ends a step
        if kink is not None:   # leave g's side; at g = 0 the loop sets it (nan until then)
            side = kink(ta, y)
            dirs.append(-math.copysign(1.0, side) if side else math.nan)
        if guard is not None:
            dirs.append(-1.0)
        while True:        # one restart of the integrator at (ta, y) per pass
            n_segments += 1
            # at the span's midpoint, as run reads it (a forcing's piece)
            at = lambda t, y, tm=0.5 * (ta + tb): system(t, y, tm)
            try:   # a float ** or / in the system raises where numpy's would give inf
                f = at(ta, y)
                h_abs = _initial_step(at, ta, y, f, tb - ta, cfg)
            except (OverflowError, ZeroDivisionError) as exc:   # a state too large to scale
                fail(f"integration failed: no starting step at t = {ta} ({exc.args[-1]})")
            if not math.isfinite(h_abs):       # system is not finite at (ta, y) or near it
                fail(f"integration failed: no starting step at t = {ta} (h = {h_abs})")
            try:
                why, n_steps, n_rejected, hit = run(
                    ta, *y, *f, h_abs, tb, *dirs, *(g(ta, y) for g in watched), *sampled, n_steps,
                    n_rejected, cfg.max_steps, cfg.abs_tol, cfg.rel_tol, ts, ys, hs, ks, xs)
            except (OverflowError, ZeroDivisionError) as exc:
                n_steps = len(ts) - 1   # run's step count is lost with it: count its knots
                fail(f"integration failed: a step from t = {ts[-1]} ({exc.args[-1]})")
            if why == "min_step":
                fail("integration failed: Required step size is less than spacing "
                     "between numbers.")
            if why == "hit":   # the earliest root on the step's interpolant ends the step
                t_new, g_old, g_new, dirs = hit
                t, h = ts[-1], hs[-1]     # the step's start: its knot is not appended
                y_at = _interpolant(t, h, ys[-n:], _DENSE @ np.array(ks[-16 * n:]).reshape(16, n))
                t_end, stop = min((brentq(lambda s, g=watched[i]: g(s, y_at(s)),
                                          t, t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL), i)
                                  for i, (a, b, d) in enumerate(zip(g_old, g_new, dirs))
                                  if d * a <= 0 <= d * b)
                ts.append(t_end)
                ys += y_at(t_end)
                n_steps += 1
            if n_steps > cfg.max_steps:
                fail(f"step budget exceeded ({n_steps} > {cfg.max_steps})")
            y = ys[-n:]
            if why != "hit":   # the span's end
                break
            if guard is not None and stop == len(watched) - 1:
                log.append(Event(guard[0], t_end))
                fail(f"{guard[0]} reached at t = {t_end}")
            # kink root: restart there, watching the crossing back
            ta, dirs = t_end, [-dirs[0], *dirs[1:]]
            if tb - ta <= 1e-12:
                break
    return solution()


# The variational pairs (u, u') and (w, w') of u'' = -V''(x) u as forced_system's
# extra lines: the system over (x, v, u, u', w, w') behind psi and the monodromy.
VARIATIONAL = ("s_3", "-d2v * s_2", "s_5", "-d2v * s_4")


def forced_system(pot: PotentialSpec, f: ForcingTerm, eps: float, cfg: IntegratorConfig,
                  extra=(), *, tangent=False, samples=0):
    """The compiled right-hand side of x'' = -V'(x) + eps*p(t) over (s_0, s_1)
    = (x, v) and one more component per extra line: r_{2+i} = extra[i], an
    expression over tt, s_0..s_{n-1}, r_1 = x'' and V's derivatives dv and
    d2v at x (d2v is computed only when read).  V' and V'' are the
    potential's ``scalar`` text, p is its scalar source (a step's or
    sampled forcing's piece is a span statement, read once per span at its
    midpoint tm, so the stages at a break see the span's own piece), and
    fun.run is the DOP853 loop over one span (_system_source), which
    restarts at a kink of V'' at x = 0 and stops where x falls to a +
    cfg.singularity_margin above a singular endpoint a (stages past a see V
    at a + 1e-13); fun.kink and fun.guard carry them.  fun.splits is where
    every solve restarts: p's split points, none when eps = 0, f is None or
    p is trigonometric.

    tangent makes Newton's period map: sampled with no samples, its steps
    and (x, v) are the plain system's bit for bit, and they record the
    stage x's over which RawSolution.variations replays VARIATIONAL, the
    terms of the 6-component system stepped by (x, v) alone.  samples > 0
    makes a sampled system, whose steps build their dense output where
    samples uniform times of each solve fall (see integrate_ode)."""
    if not math.isfinite(eps):
        raise ConfigError("eps: must be finite")
    dv, d2v, constants = pot.scalar
    body, constants = ["x = s_0"], dict(constants)
    if pot.singular_left:
        body.append("if x < clamp: x = clamp")
        constants.update(clamp=pot.domain_left + 1e-13,
                         thresh=pot.domain_left + cfg.singularity_margin)
    # the tangent pass's lines: x as the body reads it, then the variational pairs
    vary = [*body, f"d2v = {d2v}", *(f"r_{i} = {e}" for i, e in enumerate(VARIATIONAL, 2))]
    body.append(f"dv = {dv}")
    if any("d2v" in expr for expr in extra):
        body.append(f"d2v = {d2v}")
    acc, span, splits = "-dv", [], ()
    if eps != 0.0 and f is not None:
        span, p_lines, p_constants = f.scalar_source()
        splits = f.split_points()
        body += p_lines
        constants.update(p_constants, eps=eps)
        acc = "-dv + eps * p"
    body += ["r_0 = s_1", f"r_1 = {acc}"]
    body += [f"r_{i} = {expr}" for i, expr in enumerate(extra, 2)]
    return _compile_system(2 + len(extra), body, constants,
                           kink="z_0" if pot.kink_at_zero else None,
                           guard=("singularity", "z_0 - thresh") if pot.singular_left else None,
                           span=span, splits=splits, samples=samples,
                           tangent=vary if tangent else ())


def solve_forced(pot: PotentialSpec, f: ForcingTerm, eps: float, y0, t0: float,
                 t1: float, cfg: IntegratorConfig, extra=(), *, tangent=False) -> RawSolution:
    """Solve forced_system(pot, f, eps, cfg, extra, tangent=tangent) from y0 =
    (x, v, ...) over [t0, t1]: the dense solution (for a tangent solve, only
    where a kink or guard crossing ends a step, and its variations),
    restarted where the system says (at p's breaks when p is given and eps
    != 0).  x must lie in V's domain; a failure raises
    IntegrationError, whose ``trajectory`` is a RawSolution too."""
    system = forced_system(pot, f, eps, cfg, extra, tangent=tangent)
    pot._check_domain(y0[0])
    return integrate_ode(system, y0, t0, t1, cfg)


def integrate_autonomous(pot: PotentialSpec, s0: State, t0: float, t1: float,
                         cfg: IntegratorConfig) -> RawSolution:
    """solve_forced(pot, None, 0.0, [s0.x, s0.v], t0, t1, cfg), kept only
    because perfbench/tracing.py wraps it by name: the package does not
    export or call it."""
    return solve_forced(pot, None, 0.0, [s0.x, s0.v], t0, t1, cfg)


def integrate_forced(pot: PotentialSpec, f: ForcingTerm, eps: float, s0: State,
                     t0: float, t1: float, cfg: IntegratorConfig) -> RawSolution:
    """solve_forced(pot, f, eps, [s0.x, s0.v], t0, t1, cfg), kept only
    because perfbench/tracing.py wraps it by name: the package does not
    export or call it."""
    return solve_forced(pot, f, eps, [s0.x, s0.v], t0, t1, cfg)


def energy(pot: PotentialSpec, s: State) -> float:
    """E = v^2/2 + V(x)."""
    return 0.5 * s.v * s.v + float(pot.v(s.x))

