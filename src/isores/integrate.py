"""Adaptive ODE integration with dense output, event logging, splitting at
forcing discontinuities and potential kinks, and a hard guard near singular
endpoints.  Built on scipy's embedded Runge-Kutta pairs (RK45 by default:
order 5 steps with a quartic dense interpolant).

Cost model.  An accepted step costs 6 right-hand-side calls with RK45 (12
with DOP853, plus 3 for its dense output) and scipy's per-step bookkeeping.
The built-in right-hand sides hand the forcing and the potential
derivatives a Python float, which they evaluate with float arithmetic and
the math module instead of numpy.  Every event function is called once per step and every
sign change is root-found on the step's interpolant, so the v=0 and x=0
crossings are recorded only for callers that read them (``record_events``);
the kink restart and the singularity guard always run.  Dense output is a
table with one row per step (StepTable), and RawSolution.eval evaluates any
number of times in one array operation, so a window of a resonance run
costs one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, IntegrationError
from .forcing import ForcingTerm, TWO_PI, abs_integral
from .potentials import PotentialSpec


@dataclass(frozen=True)
class State:
    """Phase point (position, velocity)."""
    x: float
    v: float

    def __iter__(self):
        yield self.x
        yield self.v


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    singularity_margin: float = 1e-9
    max_steps: int = 2_000_000
    method: str = "RK45"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigError("integrator.tolerances: must be positive")
        if self.singularity_margin <= 0:
            raise ConfigError("integrator.singularity_margin: must be positive")
        if self.max_steps < 1:
            raise ConfigError("integrator.max_steps: must be >= 1")
        if self.method not in ("RK45", "DOP853"):
            raise ConfigError("integrator.method: must be RK45 or DOP853")


@dataclass(frozen=True)
class Event:
    kind: str
    t: float


class StepTable(NamedTuple):
    """Dense output of a chained solution as arrays, one row per step.

    Row k interpolates over [t_old[k], t_old[k] + h[k]] from y_old[k] with
    the scaled time s = (t - t_old[k]) / h[k].  coef[k] is RK45's Q
    transposed, shape (4, n): y = y_old + h * sum_j coef[k, j] * s**(j+1);
    or DOP853's F, shape (7, n), in its nested form (``nested`` set).
    """
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    coef: np.ndarray
    nested: bool

    @classmethod
    def from_interpolants(cls, interps, nested):
        """Table of scipy's per-step RkDenseOutput (nested=False) or
        Dop853DenseOutput (nested=True) objects."""
        return cls(np.array([d.t_old for d in interps]),
                   np.array([d.h for d in interps]),
                   np.array([d.y_old for d in interps]),
                   np.array([d.F if nested else d.Q.T for d in interps]),
                   nested)


class RawSolution:
    """Chained dense solution of an n-dimensional first-order system.

    Knot interval (ts[k], ts[k + 1]] is covered by row k of ``steps``: the
    row is picked as scipy's OdeSolution picks its interpolant.
    """

    def __init__(self, ts, ys, steps: StepTable, events, stats):
        self.ts = np.asarray(ts)
        self.ys = np.asarray(ys)
        self.steps = steps
        self.events = events              # list of Event, time-ordered
        self.stats = stats

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t1(self):
        return float(self.ts[-1])

    def eval(self, t):
        """Dense evaluation at scalar or array times inside [t0, t1], every
        step's interpolant in one array operation."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.size and (t_arr.min() < self.t0 - 1e-9 or t_arr.max() > self.t1 + 1e-9):
            raise ValueError("evaluation time outside the integrated span")
        t_arr = np.clip(t_arr, self.t0, self.t1)
        tab = self.steps
        k = np.searchsorted(self.ts[1:-1], t_arr, side="left")
        s = ((t_arr - tab.t_old[k]) / tab.h[k])[:, None]
        coef = tab.coef[k]
        n_coef = coef.shape[1]
        if tab.nested:      # F[6], ..., F[0], alternately times s and 1 - s
            y = np.zeros((t_arr.size, self.ys.shape[1]))
            for i in range(n_coef):
                y += coef[:, n_coef - 1 - i]
                y *= s if i % 2 == 0 else 1.0 - s
            y += tab.y_old[k]
        else:
            p = s
            y = coef[:, 0] * p
            for j in range(1, n_coef):
                p = p * s
                y += coef[:, j] * p
            y = tab.h[k][:, None] * y + tab.y_old[k]
        if np.ndim(t) == 0:
            return y[0]
        return y.T


def _event_fn(g, direction, terminal):
    fn = lambda t, y: g(t, y)
    fn.direction = direction
    fn.terminal = terminal
    return fn


def integrate_ode(fun, y0, t0, t1, cfg: IntegratorConfig, *, breakpoints=(),
                  record=(), kink=None, guard=None) -> RawSolution:
    """Integrate y' = fun(t, y) over [t0, t1] with dense output.

    breakpoints -- interior times where the step grid must restart (logged
                   as ``forcing_break`` events);
    record      -- (kind, g(t, y)) pairs logged, non-terminating, with event
                   times refined on the dense interpolant to root precision;
    kink        -- g(t, y) whose zero crossings force a restart so that no
                   step straddles them (logged as ``x_zero``);
    guard       -- (kind, g(t, y)): downward crossing aborts with the partial
                   trajectory attached to the raised IntegrationError.
    """
    if t1 <= t0:
        raise ValueError("integrate_ode: need t1 > t0")
    y0 = np.asarray(y0, dtype=float)
    stops = [t0] + [float(b) for b in sorted(breakpoints)
                    if t0 + 1e-12 < b < t1 - 1e-12] + [t1]

    ts = [t0]
    ys = [y0]
    interps = []                          # scipy's per-step interpolants
    events = []
    stats = {"n_steps": 0, "nfev": 0, "n_segments": 0}

    def solution():
        steps = StepTable.from_interpolants(interps, cfg.method == "DOP853")
        return RawSolution(np.array(ts), np.array(ys), steps, events, stats)

    def fail(msg):
        raise IntegrationError(msg, trajectory=solution())

    y = y0
    for i_stop in range(len(stops) - 1):
        ta, tb = stops[i_stop], stops[i_stop + 1]
        if i_stop > 0:
            events.append(Event("forcing_break", ta))
        kink_active = kink is not None
        while True:
            ev_fns = []
            ev_kinds = []
            for kind, g in record:
                ev_fns.append(_event_fn(g, 0, False))
                ev_kinds.append(kind)
            if kink_active:
                gx = kink(ta, y)
                trend = y[1] if gx == 0 else 0.0
                if gx == 0 and trend == 0:
                    trend = fun(ta, y)[1]
                direction = -1.0 if (gx > 0 or (gx == 0 and trend > 0)) else 1.0
                ev_fns.append(_event_fn(kink, direction, True))
                ev_kinds.append("x_zero")
            if guard is not None:
                ev_fns.append(_event_fn(guard[1], -1, True))
                ev_kinds.append(guard[0])

            sol = solve_ivp(fun, (ta, tb), y, method=cfg.method,
                            rtol=cfg.rel_tol, atol=cfg.abs_tol,
                            max_step=cfg.max_step, dense_output=True,
                            events=ev_fns or None)
            if sol.status == -1:
                fail(f"integration failed: {sol.message}")
            first_call = stats["n_segments"] == 0
            stats["n_steps"] += len(sol.t) - 1
            stats["nfev"] += sol.nfev
            stats["n_segments"] += 1
            ts.extend(sol.t[1:].tolist())
            for k in range(1, len(sol.t)):
                ys.append(sol.y[:, k])
            interps.extend(sol.sol.interpolants)
            guard_fired = (guard is not None and sol.status == 1
                           and sol.t_events[-1].size > 0)
            if sol.t_events is not None:
                seg_events = []
                for kind, t_ev in zip(ev_kinds, sol.t_events):
                    if guard is not None and kind == guard[0]:
                        continue
                    for te in np.atleast_1d(t_ev):
                        if te > ta + 1e-12 or (first_call and te <= ta + 1e-12):
                            seg_events.append(Event(kind, float(te)))
                seg_events.sort(key=lambda e: e.t)
                events.extend(seg_events)
            if stats["n_steps"] > cfg.max_steps:
                fail(f"step budget exceeded ({stats['n_steps']} > {cfg.max_steps})")
            if sol.status == 1:
                t_end = float(sol.t[-1])
                y = sol.y[:, -1].copy()
                if guard_fired:
                    events.append(Event(guard[0], t_end))
                    fail(f"{guard[0]} reached at t = {t_end}")
                # kink crossing: restart so no step straddles it
                if t_end - ta <= 1e-12:
                    # no progress (degenerate tangency); integrate a short
                    # span without the kink event before re-arming it
                    kink_active = False
                    tb_save = tb
                    tb = min(tb, ta + 1e-9)
                    continue
                if not kink_active:
                    kink_active = True
                    tb = tb_save
                ta = t_end
                if tb - ta <= 1e-12:
                    break
                continue
            if not kink_active and kink is not None:
                # micro-span finished; resume with the kink event re-armed
                kink_active = True
                ta = float(sol.t[-1])
                tb = tb_save
                y = sol.y[:, -1].copy()
                if tb - ta > 1e-12:
                    continue
                break
            y = sol.y[:, -1].copy()
            break
    return solution()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense (x, v) solution over [t0, t1] with knots, event log and step
    statistics.  Immutable and safe to share."""

    raw: RawSolution

    @property
    def t0(self):
        return self.raw.t0

    @property
    def t1(self):
        return self.raw.t1

    @property
    def knot_times(self):
        return self.raw.ts

    @property
    def knot_states(self):
        return self.raw.ys[:, :2]

    @property
    def events(self):
        return self.raw.events

    @property
    def stats(self):
        return self.raw.stats

    def eval(self, t):
        """(x, v) at scalar or array times."""
        out = self.raw.eval(t)
        return out[0], out[1]

    def state(self, t) -> State:
        x, v = self.raw.eval(float(t))[:2]
        return State(float(x), float(v))

    def end_state(self) -> State:
        return State(float(self.raw.ys[-1, 0]), float(self.raw.ys[-1, 1]))

    def events_of(self, kind):
        return [e for e in self.events if e.kind == kind]


def _forced_rhs(pot: PotentialSpec, f, eps):
    """Right-hand side of x'' = -V'(x) + eps*p(t) as a first-order system.

    Near a singular endpoint the stage evaluations may overshoot the guard
    position; the force is then evaluated at the clamp a + 1e-13, which the
    terminal guard event prevents from ever being part of an accepted step.
    """
    dv = pot._dv
    clamp = pot.domain_left + 1e-13 if pot.singular_left else None

    if eps == 0.0 or f is None:
        def rhs(t, y):
            x = float(y[0])
            if clamp is not None and x < clamp:
                x = clamp
            return (y[1], -float(dv(x)))
        return rhs

    pe = f.eval

    def rhs(t, y):
        x = float(y[0])
        if clamp is not None and x < clamp:
            x = clamp
        return (y[1], -float(dv(x)) + eps * float(pe(t)))
    return rhs


def _standard_events(pot: PotentialSpec, cfg: IntegratorConfig):
    record = [("v_zero", lambda t, y: y[1])]
    kink = None
    if pot.kink_at_zero:
        kink = lambda t, y: y[0]
    else:
        record.append(("x_zero", lambda t, y: y[0]))
    guard = None
    if pot.singular_left:
        thresh = pot.domain_left + cfg.singularity_margin
        guard = ("singularity", lambda t, y: y[0] - thresh)
    return record, kink, guard


def integrate_autonomous(pot: PotentialSpec, s0: State, t0: float, t1: float,
                         cfg: IntegratorConfig) -> Trajectory:
    """Solve x'' = -V'(x) from s0 over [t0, t1].

    Logs x=0 and v=0 crossing events (times refined on the dense output to
    well below 1e-12); potentials with a kink at x=0 restart the step there
    so the discontinuous V'' never degrades the order.  Raises
    IntegrationError (carrying the partial trajectory) if the step budget is
    exhausted or the orbit reaches domain_left + singularity_margin.
    """
    return integrate_forced(pot, None, 0.0, s0, t0, t1, cfg)


def integrate_forced(pot: PotentialSpec, f: ForcingTerm, eps: float, s0: State,
                     t0: float, t1: float, cfg: IntegratorConfig,
                     check_envelope: bool = True, *,
                     record_events: bool = True) -> Trajectory:
    """Solve x'' = -V'(x) + eps*p(t).

    Steps never straddle a discontinuity of p: the grid is split there and a
    ``forcing_break`` event is logged at every breakpoint.  With eps = 0 the
    forcing is inert and this is integrate_autonomous.  When check_envelope
    is set, the a-priori bound |sqrt(E(t1)) - sqrt(E(t0))| <= |eps|/sqrt(2)
    * int |p| is verified at the endpoint (slack 1e-6).  record_events=False
    skips the v=0 and x=0 crossing log, which costs root-finding work on
    every step; the kink restarts, the singularity guard and therefore every
    step are unchanged.
    """
    pot.v(s0.x)  # domain check
    breaks = []
    pts = f.split_points() if eps != 0.0 else np.empty(0)
    if pts.size:
        k0 = math.floor(t0 / TWO_PI) - 1
        k1 = math.ceil(t1 / TWO_PI) + 1
        breaks = np.concatenate([pts + k * TWO_PI for k in range(k0, k1 + 1)])
        breaks = breaks[(breaks > t0) & (breaks < t1)]
    record, kink, guard = _standard_events(pot, cfg)
    raw = integrate_ode(_forced_rhs(pot, f, eps), [s0.x, s0.v], t0, t1, cfg,
                        breakpoints=breaks, record=record if record_events else (),
                        kink=kink, guard=guard)
    traj = Trajectory(raw)
    if check_envelope and eps != 0.0 and t0 >= 0:
        e0 = energy(pot, s0)
        e1 = energy(pot, traj.end_state())
        budget = abs(eps) / math.sqrt(2.0) * (abs_integral(f, t1) - abs_integral(f, t0))
        slack = abs(math.sqrt(e1) - math.sqrt(e0)) - budget
        if slack > 1e-6:
            raise IntegrationError(
                f"energy envelope violated by {slack:.3e}: integrator failure",
                trajectory=traj.raw)
    return traj


def energy(pot: PotentialSpec, s: State) -> float:
    """E = v^2/2 + V(x)."""
    return 0.5 * s.v * s.v + float(pot.v(s.x))


def write_trajectory_csv(traj: Trajectory, pot: PotentialSpec, path,
                         n_samples: int = 1001):
    """CSV export with columns t,x,v,E on a uniform sample of [t0, t1]."""
    from .io import write_csv
    t = np.linspace(traj.t0, traj.t1, n_samples)
    x, v = traj.eval(t)
    e = 0.5 * v * v + pot.v(x)
    return write_csv(path, ["t", "x", "v", "E"], np.column_stack([t, x, v, e]))


def write_events_csv(traj: Trajectory, path):
    """CSV export of the event log with columns kind,t."""
    from .io import write_csv
    rows = [(e.kind, e.t) for e in traj.events]
    return write_csv(path, ["kind", "t"], rows)
