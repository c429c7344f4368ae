"""Adaptive ODE integration with dense output, crossing events, splitting at
forcing discontinuities and potential kinks, and a hard guard near singular
endpoints.  One step loop over Python floats runs the Dormand-Prince 5(4)
pair (J. Comput. Appl. Math. 6, 1980) with the controller and starting-step
rule of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4, as scipy's RK45
runs them, with its order 5 steps and quartic dense interpolant.

Cost model.  An attempted step costs 6 right-hand-side evaluations and
every restart (start, forcing breakpoint, kink) 2 more calls.  The whole
accept/reject loop over one span is generated as source over scalar locals
(_system_source) and compiled once per structure: the state size n, the
system's body (the lines that compute the right-hand side) and the
expressions of the kink and the guard it watches.  forced_system, the one
builder of x'' = -V'(x) + eps*p(t) and its extra components (n = 2 for a
forced run, 3 with the Rofe-Beketov integral, 6 with the variational pairs;
solve_forced solves it), writes that body from the expression text a
built-in potential declares for V' and V'' and from the statements TrigPoly
writes for p (math.cos/math.sin, no numpy call), and the loop runs the body
inline at each stage, so no stage
makes a Python call (custom potentials and other forcings call their
callbacks from the body, and a plain function is called from a body of one
line).  The constants (eps, the coefficients, the clamp, the guard's
threshold) are globals bound per system, so systems that differ only in
values share one code object.  The loop returns to integrate_ode only at the
span's end, after the step that crosses max_steps, when the step size falls
below the spacing of floats, or on a sign change of the kink or the guard,
which ends a step and is root-found on the step's interpolant there;
integrate_ode loops over the spans between breakpoints and restarts the
step at each kink root, by one rule for the kink (see integrate_ode).  A
forced Pinney step costs about 6.5-7 us in all, nearly all of it the
step's arithmetic with its 6 inlined right-hand sides; a Python loop around
a generated step took 11-12 us (2-core VM, Python 3.11).  The stage sums
keep the terms and the order of a loop over components, and the
controller's comparisons give min's and max's floats (the tests' reference
loop), so the results are the same to the bit.  The v=0 and x=0 crossings
are found when RawSolution.events is first read.  Each step appends its 7
stage rows to a flat list; the dense output (StepTable) is built from them
in one array product at the end, and RawSolution.eval evaluates any number
of times in one array operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IntegrationError
from .forcing import ForcingTerm, abs_integral, tiled_split_points
from .potentials import PotentialSpec, brentq


@dataclass(frozen=True)
class State:
    """Phase point (position, velocity)."""
    x: float
    v: float


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    singularity_margin: float = 1e-9
    max_steps: int = 2_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "singularity_margin"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"integrator.{name}: must be finite and positive")
        if self.max_steps < 1:
            raise ConfigError("integrator.max_steps: must be >= 1")


@dataclass(frozen=True)
class Event:
    kind: str
    t: float


class StepTable(NamedTuple):
    """Dense output of a chained solution as arrays, one row per step.

    Row k interpolates over [t_old[k], t_old[k] + h[k]] from y_old[k] with
    the scaled time s = (t - t_old[k]) / h[k].  coef[k] is RK45's Q
    transposed, shape (4, n): y = y_old + h * sum_j coef[k, j] * s**(j+1).
    """
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    coef: np.ndarray


class RawSolution:
    """Chained dense solution of an n-dimensional first-order system: what
    every solve returns, and what a failed one attaches to its
    IntegrationError as ``trajectory``.

    ts and ys are the knots, one row of ys per knot; for the (x, v) systems
    of integrate_forced and integrate_autonomous, ys[:, 0] is x and ys[:, 1]
    is v.  Knot interval (ts[k], ts[k + 1]] is covered by row k of
    ``steps``: the row is picked as scipy's OdeSolution picks its
    interpolant.  Nothing changes it once built, so it is safe to share.
    """

    def __init__(self, ts, ys, steps: StepTable, log, stats):
        self.ts = np.asarray(ts)
        self.ys = np.asarray(ys)
        self.steps = steps
        self._log = log                   # Events logged while stepping
        self.stats = stats

    @cached_property
    def events(self):
        """The logged breaks and guard stop and every v=0 and x=0 crossing in
        time order (ties: v_zero, x_zero, log).  A sign change between knots
        is root-found on its step's interpolant, as the loop finds the kink."""
        found, tab = [(e.t, 2, e.kind) for e in self._log], self.steps
        for rank, c, kind in ((0, 1, "v_zero"), (1, 0, "x_zero")):
            sign = np.sign(self.ys[:, c])
            # a zero on a knot counts once, and never for a component that is 0
            arrive = (sign == 0) & np.append(sign.any(), sign[:-1] != 0)
            found += [(t, rank, kind) for t in self.ts[arrive].tolist()]
            for k in np.flatnonzero(sign[:-1] * sign[1:] < 0).tolist():
                t_old, h = float(tab.t_old[k]), float(tab.h[k])
                y_at = _interpolant(t_old, h, tab.y_old[k].tolist(), tab.coef[k])
                found.append((brentq(lambda t: y_at(t)[c], t_old, t_old + h,
                                     xtol=_ROOT_TOL, rtol=_ROOT_TOL), rank, kind))
        return [Event(kind, t) for t, _, kind in sorted(found)]

    def events_of(self, kind):
        return [e for e in self.events if e.kind == kind]

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
        tab = self.steps
        k = np.searchsorted(self.ts[1:-1], t_arr, side="left")
        s = ((t_arr - tab.t_old[k]) / tab.h[k])[:, None]
        coef = tab.coef[k]
        p = s
        y = coef[:, 0] * p
        for j in range(1, coef.shape[1]):
            p = p * s
            y += coef[:, j] * p
        y = tab.h[k][:, None] * y + tab.y_old[k]
        if np.ndim(t) == 0:
            return y[0]
        return y.T


# The Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math.
# 6, 1980) as rationals: _A the stage weights, _B the order 5 weights, _C the
# nodes, _E the order 4 weights minus the order 5 weights (last entry for
# f_new), and P the quartic dense output of Shampine, Math. Comp. 46, 1986.
# tests/test_integrate.py::test_tableau_is_scipys pins every float to scipy's
# RK45 arrays.
_A = [[0.0, 0.0, 0.0, 0.0, 0.0],
      [1/5, 0.0, 0.0, 0.0, 0.0],
      [3/40, 9/40, 0.0, 0.0, 0.0],
      [44/45, -56/15, 32/9, 0.0, 0.0],
      [19372/6561, -25360/2187, 64448/6561, -212/729, 0.0],
      [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]]
_B = [35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84]
_C = [0.0, 1/5, 3/10, 4/5, 8/9, 1.0]
_E = [-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
_PT = np.array([           # (4, 7): coef = P^T K for a step's stage rows K
    [1.0, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0.0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0.0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0.0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423]]).T.copy()
_ROOT_TOL = 4 * np.finfo(float).eps      # scipy's event-root tolerance


def _system_source(n, body, kink, guard):
    """Source of rhs(tt, y) and of run(...), the Dormand-Prince loop over one
    span, for an n-component system body: lines that read tt and
    s_0..s_{n-1} and set r_0..r_{n-1} (and no name of the loop's own).

    run(t, y_0.., k1_0.., h_abs, tb, d_0.., g_0.., n_steps, n_rej, max_steps,
    atol, rtol, ts, ys, th, ks) steps from (t, y) with k1 = rhs(t, y) towards
    tb: accept/reject, the error controller and the step-size update of
    integrate_ode, with the body inline at each of the 6 stages.  Each
    accepted step appends (t, h) to th and its 7 stage rows to ks (7n floats);
    its knot, t_new to ts and its n components to ys.  The kink and the guard
    (each an expression over t_new and the step's end state z_0..z_{n-1}, or
    None) are the watched functions, kink first; g_i is one's value at the
    step's start and d_i the direction of the crossing that ends a step
    (scipy's test d*g_old <= 0 <= d*g_new).  A nan direction watches neither
    way; the kink's is set to -sign(g) at the first step end where its g is
    not 0, so a kink watched from g = 0 is watched for leaving the side g
    first moves to.  run returns (why, n_steps, n_rej, hit) at the span's end
    ("end"), after the step that crosses max_steps ("budget"), when h_abs
    falls below the spacing of floats at t ("min_step"), or on a watched sign
    change ("hit", hit = (t_new, the g at its start, the g at its end, the
    directions)): the step's row is appended but not its knot.  min(a, b) is
    written b if b < a else a, and max(a, b) b if b > a else a, which give
    min's and max's floats, nan included.  Each sum keeps the terms and the
    order of the loop over components that the tests compare it with bit for
    bit (the tableau's zeros, B2 and E2, skipped).  Each watched expression is
    also written as watch_kink(t_new, z) or watch_guard(t_new, z), its value
    at a state z, for the root-find."""
    watch = [expr for expr in (kink, guard) if expr is not None]
    m = len(watch)

    def each(fmt, count=n):        # fmt(i) for every component, comma-joined
        return ", ".join(fmt(i) for i in range(count))

    def combo(coefs, i):           # (c1) * k1_i + (c2) * k2_i + ..., zeros skipped
        return " + ".join(f"({c!r}) * k{j}_{i}" for j, c in enumerate(coefs, 1) if c)

    def stage(j, t_j, s_j):        # the body at (t_j, s_j) into stage row j
        return ([f"tt = {t_j}"] + [f"s_{i} = {s_j(i)}" for i in range(n)] + list(body)
                + ["; ".join(f"k{j}_{i} = r_{i}" for i in range(n))])

    step = []
    for j in range(2, 7):
        t_j = "t + h" if _C[j - 1] == 1.0 else f"t + ({_C[j - 1]!r}) * h"
        step += stage(j, t_j, lambda i: f"y_{i} + h * ({combo(_A[j - 1], i)})")
    step += [f"z_{i} = y_{i} + h * ({combo(_B, i)})" for i in range(n)]
    step += stage(7, "t + h", lambda i: f"z_{i}")
    for i in range(n):
        step += [f"a, b = abs(y_{i}), abs(z_{i})",
                 f"e_{i} = ({combo(_E, i)}) * h / (atol + (b if b > a else a) * rtol)"]
    # the loop's sum starts at 0.0, and 0.0 + e * e is e * e for every float e
    squares = " + ".join(f"e_{i} * e_{i}" for i in range(n))
    step += [f"err = sqrt(({squares}) / {n})",
             "if err < 1:",
             "    factor = 10.0",
             "    if err != 0:",
             "        q = 0.9 * err ** -0.2",
             "        if q < factor: factor = q",
             "    if rejected and not factor < 1.0: factor = 1.0",
             "    h_abs = h * factor",
             "    break",
             "q = 0.9 * err ** -0.2",
             "h_abs = h * (q if q > 0.2 else 0.2)",
             "rejected = True",
             "n_rej += 1"]

    stages = each(lambda j: each(lambda i: f"k{j + 1}_{i}"), 7)
    accepted = ["th += (t, h)", f"ks += ({stages},)"]
    if m:
        olds, news = each(lambda i: f"g_{i}", m), each(lambda i: f"w_{i}", m)
        crossed = " or ".join(f"d_{i} * g_{i} <= 0 <= d_{i} * w_{i}" for i in range(m))
        accepted += [f"w_{i} = {expr}" for i, expr in enumerate(watch)]
        accepted += [f"if {crossed}:",
                     f"    return 'hit', n_steps, n_rej, (t_new, ({olds},), ({news},), "
                     f"({each(lambda i: f'd_{i}', m)},))",
                     f"{olds}, = {news},"]
        if kink is not None:
            accepted += ["if d_0 != d_0 and w_0: d_0 = -1.0 if w_0 > 0 else 1.0"]
    accepted += ["ts.append(t_new)",
                 f"ys += ({each(lambda i: f'z_{i}')},)",
                 "n_steps += 1",
                 "if n_steps > max_steps:",
                 "    return 'budget', n_steps, n_rej, None",
                 f"t, {each(lambda i: f'y_{i}')}, = t_new, {each(lambda i: f'z_{i}')},",
                 f"{each(lambda i: f'k1_{i}')}, = {each(lambda i: f'k7_{i}')},",
                 "if t == tb:",
                 "    return 'end', n_steps, n_rej, None"]

    def indent(lines, depth):
        return ["    " * depth + line for line in lines]

    args = ", ".join([each(lambda i: f"y_{i}"), each(lambda i: f"k1_{i}"), "h_abs, tb",
                      *([each(lambda i: f"d_{i}", m), each(lambda i: f"g_{i}", m)] if m else []),
                      "n_steps, n_rej, max_steps, atol, rtol, ts, ys, th, ks"])
    lines = ["def rhs(tt, y):",
             f"    {each(lambda i: f's_{i}')}, = y",
             *indent(body, 1),
             f"    return ({each(lambda i: f'r_{i}')},)",
             f"def run(t, {args}):",
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
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def _compiled(n, body, kink, guard):
    """The compiled _system_source(n, body, kink, guard), cached by structure:
    systems that differ only in the values of their constants share one code
    object."""
    return compile(_system_source(n, body, kink, guard), f"<isores system, n={n}>", "exec")


def _compile_system(n, body, constants, kink=None, guard=None):
    """rhs(t, y) of an n-component system from its body (lines, see
    _system_source), with its loop as rhs.run.  The loop watches the kink,
    an expression over t_new and the step's end state z_0..z_{n-1}, and the
    guard, (kind, expression); rhs.kink and rhs.guard are the same
    expressions as integrate_ode's options, g(t, y) and (kind, g(t, y)), or
    None.  constants are the values of the globals that the body and the
    expressions read, bound per system."""
    namespace = {"sqrt": math.sqrt, "cos": math.cos, "sin": math.sin,
                 "nextafter": math.nextafter, "inf": math.inf, **constants}
    exec(_compiled(n, tuple(body), kink, guard and guard[1]), namespace)
    rhs = namespace["rhs"]
    rhs.run = namespace["run"]
    rhs.kink = namespace.get("watch_kink")
    rhs.guard = guard and (guard[0], namespace["watch_guard"])
    return rhs


def _initial_step(fun, t, y, f, span, cfg):
    """scipy's starting-step rule for an error estimator of order 4."""
    scale = [cfg.abs_tol + abs(a) * cfg.rel_tol for a in y]
    rms = lambda v: math.sqrt(sum((x / s) ** 2 for x, s in zip(v, scale)) / len(v))
    d0, d1 = rms(y), rms(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = fun(t + h0, [a + h0 * p for a, p in zip(y, f)])
    d2 = rms([q - p for p, q in zip(f, f1)]) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    return min(100 * h0, h1, span)


def _interpolant(t_old, h, y_old, coef):
    """The step's quartic dense output t -> y(t) over floats; coef: (4, n)."""
    columns = coef.T.tolist()

    def y_at(t):
        s = (t - t_old) / h
        return [a + h * s * (c1 + s * (c2 + s * (c3 + s * c4)))
                for a, (c1, c2, c3, c4) in zip(y_old, columns)]
    return y_at


def integrate_ode(fun, y0, t0, t1, cfg: IntegratorConfig, *, breakpoints=(),
                  kink=None, guard=None) -> RawSolution:
    """Integrate y' = fun(t, y) over [t0, t1] with dense output; fun maps a
    list of floats to a sequence of floats.  A fun made by _compile_system
    (forced_system's, say) steps with its own fun.run, which runs fun's body
    and the expressions of its own fun.kink and fun.guard inline, and takes
    neither option; any other fun gets a run that calls fun, kink and guard.

    breakpoints -- interior times where the step grid must restart (logged
                   as ``forcing_break`` events);
    kink        -- g(t, y) whose zero crossings force a restart so that no
                   step straddles them;
    guard       -- (kind, g(t, y)): downward crossing aborts with the partial
                   RawSolution attached to the raised IntegrationError.

    One pass per span between breakpoints, with one restart per kink root:
    the earliest kink or guard root on the step's interpolant ends the step.
    At a span's start the kink is watched for leaving g's side, and at g = 0
    for leaving the side g first moves to, so a rest point on the kink stays
    at rest; after a root, the other way.  v=0 and x=0 crossings are found
    when RawSolution.events is read.  Each restart re-runs the starting-step
    rule, as a new solve_ivp call would, so
    nfev = 2 n_segments + 6 (n_steps + n_rejected).
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("integrate_ode: t0 and t1 must be finite")
    if t1 <= t0:
        raise ValueError("integrate_ode: need t1 > t0")
    y = np.asarray(y0, dtype=float).tolist()
    if not all(map(math.isfinite, y)):
        raise ValueError("integrate_ode: y0 must be finite")
    n = len(y)
    stops = [t0] + [float(b) for b in sorted(breakpoints)
                    if t0 + 1e-12 < b < t1 - 1e-12] + [t1]
    if getattr(fun, "run", None) is None:   # a loop that calls fun, kink and guard
        s, r, z = (", ".join(f"{c}_{i}" for i in range(n)) for c in "srz")
        calls = {"fun": fun, "kink": kink, "guard": guard and guard[1]}
        system = _compile_system(
            n, [f"{r}, = fun(tt, [{s},])"], calls, kink and f"kink(t_new, [{z},])",
            guard and (guard[0], f"guard(t_new, [{z},])"))
    elif kink is not None or guard is not None:
        raise ValueError("integrate_ode: a compiled system watches its own kink and guard")
    else:
        system = fun
    run, kink, guard = system.run, system.kink, system.guard
    # the functions whose sign change ends a step, kink first
    watched = [g for g in (kink, guard and guard[1]) if g is not None]
    ts, ys, th, ks, log = [t0], list(y), [], [], []   # ys: n, ks: 7n floats a row
    n_steps = n_rejected = n_segments = 0

    def solution():
        knots, rows = np.array(ys).reshape(-1, n), np.array(th).reshape(-1, 2)
        steps = StepTable(rows[:, 0], rows[:, 1], knots[:-1],
                          _PT @ np.array(ks).reshape(-1, 7, n))
        stats = {"n_steps": n_steps, "nfev": 2 * n_segments + 6 * (n_steps + n_rejected),
                 "n_segments": n_segments, "n_rejected": n_rejected}
        return RawSolution(np.array(ts), knots, steps, log, stats)

    def fail(msg):
        raise IntegrationError(msg, trajectory=solution())

    for ta, tb in zip(stops, stops[1:]):
        if ta != t0:
            log.append(Event("forcing_break", ta))
        dirs = []          # the direction of the crossing of each watched g that ends a step
        if kink is not None:   # leave g's side; at g = 0 the loop sets it (nan until then)
            side = kink(ta, y)
            dirs.append(-math.copysign(1.0, side) if side else math.nan)
        if guard is not None:
            dirs.append(-1.0)
        while True:        # one restart of the integrator at (ta, y) per pass
            n_segments += 1
            f = fun(ta, y)
            try:
                h_abs = _initial_step(fun, ta, y, f, tb - ta, cfg)
            except (OverflowError, ZeroDivisionError) as exc:   # a state too large to scale
                fail(f"integration failed: no starting step at t = {ta} ({exc})")
            if not math.isfinite(h_abs):       # fun is not finite at (ta, y) or near it
                fail(f"integration failed: no starting step at t = {ta} (h = {h_abs})")
            why, n_steps, n_rejected, hit = run(
                ta, *y, *f, h_abs, tb, *dirs, *(g(ta, y) for g in watched), n_steps,
                n_rejected, cfg.max_steps, cfg.abs_tol, cfg.rel_tol, ts, ys, th, ks)
            if why == "min_step":
                fail("integration failed: Required step size is less than spacing "
                     "between numbers.")
            if why == "hit":   # the earliest root on the step's interpolant ends the step
                t_new, g_old, g_new, dirs = hit
                t, h = th[-2:]
                y_at = _interpolant(t, h, ys[-n:], _PT @ np.array(ks[-7 * n:]).reshape(7, n))
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
                  extra=()):
    """The compiled right-hand side of x'' = -V'(x) + eps*p(t) over (s_0, s_1)
    = (x, v) and one more component per extra line: r_{2+i} = extra[i], an
    expression over tt, s_0..s_{n-1}, r_1 = x'' and V's derivatives dv and
    d2v at x (d2v is computed only when read).  V' and V'' are a built-in
    potential's declared expressions (a custom one's callbacks on the float
    x), p is its scalar source, and fun.run is the Dormand-Prince loop over
    one span (_system_source), which restarts at a kink of V'' at x = 0 and
    stops where x falls to a + cfg.singularity_margin above a singular
    endpoint a (stages past a see V at a + 1e-13); fun.kink and fun.guard
    carry them."""
    if not math.isfinite(eps):
        raise ConfigError("eps: must be finite")
    dv, d2v, constants = pot.scalar or ("float(_dv(x))", "float(_d2v(x))",
                                        {"_dv": pot._dv, "_d2v": pot._d2v})
    body, constants = ["x = s_0"], dict(constants)
    if pot.singular_left:
        body.append("if x < clamp: x = clamp")
        constants.update(clamp=pot.domain_left + 1e-13,
                         thresh=pot.domain_left + cfg.singularity_margin)
    body.append(f"dv = {dv}")
    if any("d2v" in expr for expr in extra):
        body.append(f"d2v = {d2v}")
    acc = "-dv"
    if eps != 0.0 and f is not None:
        p_lines, p_constants = f.scalar_source()
        body += p_lines
        constants.update(p_constants, eps=eps)
        acc = "-dv + eps * p"
    body += ["r_0 = s_1", f"r_1 = {acc}"]
    body += [f"r_{i} = {expr}" for i, expr in enumerate(extra, 2)]
    return _compile_system(2 + len(extra), body, constants,
                           kink="z_0" if pot.kink_at_zero else None,
                           guard=("singularity", "z_0 - thresh") if pot.singular_left else None)


def solve_forced(pot: PotentialSpec, f: ForcingTerm, eps: float, y0, t0: float,
                 t1: float, cfg: IntegratorConfig, extra=()) -> RawSolution:
    """Solve forced_system(pot, f, eps, cfg, extra) from y0 = (x, v, ...)
    over [t0, t1]: the dense solution, with its steps split at p's breaks
    when p is given and eps != 0.  x must lie in V's domain; a failure raises
    IntegrationError, whose ``trajectory`` is a RawSolution too."""
    fun = forced_system(pot, f, eps, cfg, extra)
    pot._check_domain(y0[0])
    breaks = tiled_split_points(f, t0, t1) if eps != 0.0 and f is not None else ()
    return integrate_ode(fun, y0, t0, t1, cfg, breakpoints=breaks)


def integrate_autonomous(pot: PotentialSpec, s0: State, t0: float, t1: float,
                         cfg: IntegratorConfig) -> RawSolution:
    """Solve x'' = -V'(x) from s0 over [t0, t1]; the dense (x, v) solution.

    Its x=0 and v=0 crossings are found when its events are read, refined
    on the dense output to well below 1e-12; potentials with a kink at x=0
    restart the step there so the discontinuous V'' never degrades the order.
    Raises IntegrationError, whose ``trajectory`` is the RawSolution up to
    the failure, if the step budget is exhausted or the orbit reaches
    domain_left + singularity_margin.
    """
    return integrate_forced(pot, None, 0.0, s0, t0, t1, cfg)


def integrate_forced(pot: PotentialSpec, f: ForcingTerm, eps: float, s0: State,
                     t0: float, t1: float, cfg: IntegratorConfig,
                     check_envelope: bool = True) -> RawSolution:
    """Solve x'' = -V'(x) + eps*p(t); the dense (x, v) solution.

    Steps never straddle a discontinuity of p: the grid is split there and a
    ``forcing_break`` event is logged at every breakpoint.  With eps = 0 or
    f = None the forcing is inert and this is integrate_autonomous.  When
    check_envelope is set, the a-priori bound |sqrt(E(t1)) - sqrt(E(t0))| <=
    |eps|/sqrt(2) * int |p| is verified at the endpoint (slack 1e-6).  A
    failure raises IntegrationError, whose ``trajectory`` is a RawSolution too.
    """
    raw = solve_forced(pot, f, eps, [s0.x, s0.v], t0, t1, cfg)
    if check_envelope and eps != 0.0 and f is not None and t0 >= 0:
        e0 = energy(pot, s0)
        e1 = energy(pot, raw.end_state())
        budget = abs(eps) / math.sqrt(2.0) * (abs_integral(f, t1) - abs_integral(f, t0))
        slack = abs(math.sqrt(e1) - math.sqrt(e0)) - budget
        if slack > 1e-6:
            raise IntegrationError(
                f"energy envelope violated by {slack:.3e}: integrator failure",
                trajectory=raw)
    return raw


def energy(pot: PotentialSpec, s: State) -> float:
    """E = v^2/2 + V(x)."""
    return 0.5 * s.v * s.v + float(pot.v(s.x))

