"""Adaptive ODE integration with dense output, crossing events, splitting at
forcing discontinuities and potential kinks, and a hard guard near singular
endpoints.  One step loop over Python floats runs the Dormand-Prince 5(4)
pair (J. Comput. Appl. Math. 6, 1980) with the controller and starting-step
rule of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4, as scipy's RK45
runs them, with its order 5 steps and quartic dense interpolant.

Cost model.  An attempted step costs 6 right-hand-side calls and every
restart (start, forcing breakpoint, kink) 2 more; a forced Pinney step costs
about 19 us in all, 11 us of it the loop's own float arithmetic and
bookkeeping, 8 us the right-hand side (2-core VM, Python 3.11).  The step
itself is generated once per state size n (_stepper): the stage sums are
written out over scalar locals, with no list built per stage, and keep the
terms and the order of a loop over components (the tests' reference step),
so the results are the same to the bit.  After each accepted step the step
budget, the singularity guard and the kink are float comparisons at the
step's ends; only a sign change of the guard or the kink, which end a step,
is root-found on the step's interpolant.  The v=0 and x=0 crossings are
found when RawSolution.events is first read.  Each step keeps its 7 stage
rows; the dense output (StepTable) is built from them in one array product
at the end, and RawSolution.eval evaluates any number of times in one array
operation.
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


def _stepper_source(n):
    """Source of the n-component step over scalar locals.  Each sum keeps
    the terms and the order of the loop over components that the tests
    compare it with bit for bit (the tableau's zeros, B2 and E2, skipped)."""
    def each(fmt):                 # fmt(i) for every component, comma-joined
        return ", ".join(fmt(i) for i in range(n))

    def combo(coefs, i):           # (c1) * k1_i + (c2) * k2_i + ..., zeros skipped
        return " + ".join(f"({c!r}) * k{j}_{i}" for j, c in enumerate(coefs, 1) if c)

    def row(j):                    # stage row j: k1 = f, ..., k7 = f_new
        return each(lambda i: f"k{j}_{i}")

    lines = ["def step(fun, t, y, f, h, cfg):",
             f"    {each(lambda i: f'y_{i}')}, = y",
             f"    {row(1)}, = f"]
    for j in range(2, 7):
        t_j = "t + h" if _C[j - 1] == 1.0 else f"t + ({_C[j - 1]!r}) * h"
        y_j = each(lambda i: f"y_{i} + h * ({combo(_A[j - 1], i)})")
        lines.append(f"    {row(j)}, = fun({t_j}, [{y_j},])")
    lines += [f"    z_{i} = y_{i} + h * ({combo(_B, i)})" for i in range(n)]
    lines += [f"    y_new = [{each(lambda i: f'z_{i}')},]",
              "    f_new = fun(t + h, y_new)",
              f"    {row(7)}, = f_new",
              "    atol, rtol = cfg.abs_tol, cfg.rel_tol"]
    for i in range(n):             # max(a, b) is b if b > a else a
        lines += [f"    a, b = abs(y_{i}), abs(z_{i})",
                  f"    e_{i} = ({combo(_E, i)}) * h / (atol + (b if b > a else a) * rtol)"]
    stages = ", ".join(row(j) for j in range(1, 8))
    # the loop's sum starts at 0.0, and 0.0 + e * e is e * e for every float e
    squares = " + ".join(f"e_{i} * e_{i}" for i in range(n))
    lines.append(f"    return y_new, f_new, ({stages},), sqrt(({squares}) / {n})")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _stepper(n):
    """One Dormand-Prince step of size h from (t, y), f = fun(t, y), for an
    n-component state: (y_new, f_new, the 7 stage rows flat, RMS error norm).
    Compiled from _stepper_source on first use per n."""
    namespace = {"sqrt": math.sqrt}
    exec(_stepper_source(n), namespace)
    return namespace["step"]


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
    list of floats to a sequence of floats.

    breakpoints -- interior times where the step grid must restart (logged
                   as ``forcing_break`` events);
    kink        -- g(t, y) whose zero crossings force a restart so that no
                   step straddles them;
    guard       -- (kind, g(t, y)): downward crossing aborts with the partial
                   RawSolution attached to the raised IntegrationError.

    The earliest kink or guard root on the step's interpolant ends the step;
    v=0 and x=0 crossings are found when RawSolution.events is read.  Each
    restart re-runs the starting-step rule, as a new solve_ivp call would, so
    nfev = 2 n_segments + 6 (n_steps + n_rejected).
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("integrate_ode: t0 and t1 must be finite")
    if t1 <= t0:
        raise ValueError("integrate_ode: need t1 > t0")
    stops = [t0] + [float(b) for b in sorted(breakpoints)
                    if t0 + 1e-12 < b < t1 - 1e-12] + [t1]
    y = np.asarray(y0, dtype=float).tolist()
    step = _stepper(len(y))
    ts, ys, rows, log = [t0], [y], [], []       # rows: (t_old, h, stages)
    stats = {"n_steps": 0, "nfev": 0, "n_segments": 0, "n_rejected": 0}

    def solution():
        t_old, h, stages = zip(*rows) if rows else ((), (), ())
        coef = _PT @ np.array(stages, dtype=float).reshape(-1, 7, len(y))
        steps = StepTable(np.array(t_old), np.array(h),
                          np.array(ys[:-1]).reshape(-1, len(y)), coef)
        return RawSolution(np.array(ts), np.array(ys), steps, log, stats)

    def fail(msg):
        raise IntegrationError(msg, trajectory=solution())

    i_stop, ta, tb = 0, t0, stops[1]
    armed, kdir = kink is not None, None
    resume = None          # end of the span interrupted by a tangency step-off
    while True:            # one restart of the integrator at (ta, y) per pass
        stats["n_segments"] += 1
        stats["nfev"] += 2
        f = fun(ta, y)
        try:
            h_abs = _initial_step(fun, ta, y, f, tb - ta, cfg)
        except (OverflowError, ZeroDivisionError) as exc:   # a state too large to scale
            fail(f"integration failed: no starting step at t = {ta} ({exc})")
        watch = []         # (g, direction) of the crossings that end a step
        if armed:
            if kdir is None:   # leave x's side, or at x = 0 the side it moves to
                kdir = -1.0 if (kink(ta, y) or y[1] or fun(ta, y)[1]) > 0 else 1.0
            watch.append((kink, kdir))
        if guard is not None:
            watch.append((guard[1], -1.0))
        i_guard = len(watch) - 1 if guard is not None else -1
        g_old = [g(ta, y) for g, _ in watch]
        t, advance = ta, False
        while True:        # one accepted step per pass
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    fail("integration failed: Required step size is less "
                         "than spacing between numbers.")
                t_new = min(t + h_abs, tb)
                h = t_new - t
                y_new, f_new, stages, err = step(fun, t, y, f, h, cfg)
                stats["nfev"] += 6
                if err < 1:
                    factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                h_abs = h * max(0.2, 0.9 * err ** -0.2)
                rejected = True
                stats["n_rejected"] += 1

            stop, t_end, y_end, g_new, hits = None, t_new, y_new, g_old, ()
            if watch:      # scipy's test: a sign change in the direction d = +-1
                g_new = [g(t_new, y_new) for g, _ in watch]
                hits = [i for i, (a, b, (_, d)) in enumerate(zip(g_old, g_new, watch))
                        if d * a <= 0 <= d * b]
            if hits:       # the earliest root on the step's interpolant ends it
                y_at = _interpolant(t, h, y, _PT @ np.array(stages).reshape(7, -1))
                t_end, stop = min((brentq(lambda s, g=watch[i][0]: g(s, y_at(s)),
                                          t, t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL), i)
                                  for i in hits)
                y_end = y_at(t_end)
            ts.append(t_end)
            ys.append(y_end)
            rows.append((t, h, stages))
            stats["n_steps"] += 1
            if stats["n_steps"] > cfg.max_steps:
                fail(f"step budget exceeded ({stats['n_steps']} > {cfg.max_steps})")
            if stop == i_guard:
                log.append(Event(guard[0], t_end))
                fail(f"{guard[0]} reached at t = {t_end}")
            if stop is not None:        # kink crossing: restart so no step straddles it
                y = y_end
                if t_end - ta <= 1e-12:
                    # no progress (degenerate tangency): integrate a short span
                    # without the kink, then restart with it re-armed
                    resume, tb, armed, kdir = tb, min(tb, ta + 1e-9), False, None
                else:
                    # the next crossing runs the other way, whichever side of
                    # zero the root's rounding left x on
                    ta, kdir = t_end, -kdir
                    advance = tb - ta <= 1e-12
                break
            t, y, f, g_old = t_new, y_new, f_new, g_new
            if t == tb:
                advance = resume is None or resume - tb <= 1e-12
                if resume is not None:      # the short span is done: re-arm
                    ta, tb, armed, resume = tb, resume, True, None
                break
        if advance:
            i_stop += 1
            if i_stop == len(stops) - 1:
                return solution()
            ta, tb = stops[i_stop], stops[i_stop + 1]
            log.append(Event("forcing_break", ta))
            armed, kdir = kink is not None, None


def _clamp(pot: PotentialSpec):
    """Lowest x at which a right-hand side evaluates V's derivatives, or None."""
    return pot.domain_left + 1e-13 if pot.singular_left else None


def _standard_events(pot: PotentialSpec, cfg: IntegratorConfig):
    kink = (lambda t, y: y[0]) if pot.kink_at_zero else None
    thresh = pot.domain_left + cfg.singularity_margin
    guard = ("singularity", lambda t, y: y[0] - thresh) if pot.singular_left else None
    return kink, guard


def forced_system(pot: PotentialSpec, f: ForcingTerm, eps: float, y0, t0: float,
                  t1: float, cfg: IntegratorConfig):
    """(fun, options) for integrate_ode(fun, y0, t0, t1, cfg, **options):
    x'' = -V'(x) + eps*p(t) from y0 = (x, v), or from (x, v, u, u', w, w')
    with the variational equation u'' = -V''(x) u.  The options split the
    steps at p's breaks and at a kink, and guard a singular endpoint (stages
    past it see V at the clamp a + 1e-13, which no accepted step reaches)."""
    if not math.isfinite(eps):
        raise ConfigError("eps: must be finite")
    pot._check_domain(y0[0])
    breaks = tiled_split_points(f, t0, t1) if eps != 0.0 else ()
    dv, d2v, clamp = pot._dv, pot._d2v, _clamp(pot)

    if eps == 0.0 or f is None:
        def rhs(t, y):
            x = y[0]
            if clamp is not None and x < clamp:
                x = clamp
            return (y[1], -float(dv(x)))
    else:
        pe = f.eval

        def rhs(t, y):
            x = y[0]
            if clamp is not None and x < clamp:
                x = clamp
            return (y[1], -float(dv(x)) + eps * float(pe(t)))

    if len(y0) == 6:
        phase = rhs

        def rhs(t, y):
            a = float(d2v(y[0] if clamp is None else max(y[0], clamp)))
            return (*phase(t, y), y[3], -a * y[2], y[5], -a * y[4])

    kink, guard = _standard_events(pot, cfg)
    return rhs, {"breakpoints": breaks, "kink": kink, "guard": guard}


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
    ``forcing_break`` event is logged at every breakpoint.  With eps = 0 the
    forcing is inert and this is integrate_autonomous.  When check_envelope
    is set, the a-priori bound |sqrt(E(t1)) - sqrt(E(t0))| <= |eps|/sqrt(2)
    * int |p| is verified at the endpoint (slack 1e-6).  A failure raises
    IntegrationError, whose ``trajectory`` is a RawSolution too.
    """
    y0 = [s0.x, s0.v]
    fun, options = forced_system(pot, f, eps, y0, t0, t1, cfg)
    raw = integrate_ode(fun, y0, t0, t1, cfg, **options)
    if check_envelope and eps != 0.0 and t0 >= 0:
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

