"""Forced-system experiments: long resonance runs with windowed growth
diagnostics and the a-priori energy envelope, the stroboscopic period map,
and a damped-Newton shooting search for periodic solutions seeded from zeros
of the resonance functional."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ._record import record
from .autonomous import ActionAngle, from_action_angle
from .errors import ConfigError, DomainError, IntegrationError, NumericsError
from .forcing import ForcingTerm, TWO_PI, l1_norm
from .integrate import IntegratorConfig, State, energy, forced_system, integrate_ode, solve_forced
from .potentials import PotentialSpec

ENVELOPE_SLACK = 1e-6
_WINDOW_SAMPLES = 512         # uniform times per window; an integrated one adds its knots
# A declared flow's table is read this many windows at a time.  A 200-period
# harmonic:1 run took 9.9 ms at 1 window a block, 3.6-3.8 at 4, 2.2-2.6 at
# 8, 1.7-2.1 at 16 and 2.0-2.3 at 64, while its peak traced memory grew with
# the block: 0.26 MB at 8, 1.5 MB at 64 (2-core x86 VM, best of 5)
_TABLE_BLOCK = 8
_NEWTON_TOL = 1e-10           # the residual norm at which Newton has converged
_NEWTON_MAX_ITER = 50


@record
class SolveStats:
    """The work of a forced run or a Newton search, 0 where it does none: its
    solves (failed ones too), their RawSolution.stats summed, and its windows,
    monodromy passes and step halvings."""
    solves: int = 0
    n_steps: int = 0
    n_rejected: int = 0
    n_segments: int = 0
    nfev: int = 0
    windows: int = 0
    passes: int = 0
    halvings: int = 0


@record
class ResonanceDiagnostics:
    """Windowed records of a forced run over whole periods.

    window_sup[k] is the supremum of |x| + |v| over the k-th period window
    (the paper-verbatim unboundedness witness); window_sup_x tracks sup |x|
    alone, whose growth rate for the linear oscillator equals eps/2 per unit
    time.  energy_sqrt[k] = sqrt(E) at the window end and envelope_bound[k]
    the a-priori budget sqrt(E0) + |eps|/sqrt(2) * int_0^{2 pi k} |p|.
    A run cut short (partial) keeps in stop_reason the message of the
    IntegrationError that stopped it; stop_reason is None for a full run.
    """

    window_sup: np.ndarray
    window_sup_x: np.ndarray
    energy_sqrt: np.ndarray
    envelope_bound: np.ndarray
    verdict: str
    eps: float
    n_periods: int
    final_state: State
    partial: bool = False
    stop_reason: str | None = None
    stats: SolveStats = SolveStats()


def _window_verdict(window_sup: np.ndarray) -> str:
    """The verdict of a full run's n >= 10 window suprema (resonance_run)."""
    n = len(window_sup)
    half = window_sup[n - math.ceil(n / 2):]
    growing = bool(np.all(np.diff(half) > 0)) and half[-1] > 2.0 * window_sup[0]
    if growing:
        return "growing"
    if np.max(window_sup) <= 1.5 * np.max(window_sup[:n // 4]):
        return "bounded"
    return "inconclusive"


def _sups(x, v):
    """sup |x| + |v| and sup |x| over the samples of a window, along the
    last axis (resonance_run)."""
    ax = np.abs(x)
    return (ax + np.abs(v)).max(axis=-1), ax.max(axis=-1)


def _integrated_windows(pot, f, eps, s0, cfg, records, work):
    """Fill records (resonance_run's) window by window, each window one
    integrate_ode solve, counted in work, of the run's one system from the
    end of the window before; return the number of windows run and the
    message of the IntegrationError that stopped the chain, or None.  The
    chain stops after a window whose end is not finite too (caller names it)."""
    system = forced_system(pot, f, eps, cfg, samples=_WINDOW_SAMPLES)
    y = [s0.x, s0.v]
    for k in range(records.shape[1]):
        if not (math.isfinite(y[0]) and math.isfinite(y[1])):
            return k, None
        t0, t1 = k * TWO_PI, (k + 1) * TWO_PI
        try:
            traj = integrate_ode(system, y, t0, t1, cfg)
        except IntegrationError as exc:
            if k == 0 and (exc.trajectory is None or exc.trajectory.stats["n_steps"] == 0):
                raise      # no step from the start: no run to report
            work.update(exc.trajectory.stats, solves=1)
            return k, str(exc)
        work.update(traj.stats, solves=1)
        # the samples, then the knots: the last is the end
        xv = np.concatenate([traj.eval(traj.samples), traj.ys.T], axis=1)
        records[:2, k] = _sups(xv[0], xv[1])
        y = traj.ys[-1].tolist()
        records[2:, k] = y
    return records.shape[1], None


def resonance_run(pot: PotentialSpec, f: ForcingTerm, eps: float, s0: State,
                  n_periods: int, cfg: IntegratorConfig) -> ResonanceDiagnostics:
    """Integrate the forced equation over n_periods * 2*pi and classify the
    growth of the windowed suprema of |x| + |v|.

    Verdict: "growing" when the last ceil(n/2) window suprema increase
    strictly and the final one exceeds twice the first window's; "bounded"
    when the run-wide maximum stays within 1.5x the first-quarter maximum;
    "inconclusive" otherwise.  The energy envelope inequality is asserted at
    every window end (slack 1e-6); violation is an integrator failure.
    An integration failure (singularity guard, step budget) or a window
    whose end state or energy leaves the float range returns partial
    diagnostics with verdict "inconclusive", partial=True and its message in
    stop_reason.  A start of non-finite energy is a DomainError, and a start
    from which no step can be taken, or whose first window leaves the float
    range, raises an IntegrationError: none of these is a run.

    Each window [2 pi k, 2 pi (k + 1)] gives its records: sup |x| + |v|, sup
    |x| and its end state.  Where the centre declares its forced flow for p
    (PotentialSpec.forced_flow: harmonic:n with a trigonometric p), they
    come from that exact flow's table, read _TABLE_BLOCK windows at a time:
    a window's samples are the _WINDOW_SAMPLES times 2 pi k + tau_j, tau_j
    uniform in [0, 2 pi] with both ends included, and its end is the next
    window's start, s0 + (k + 1) D for the exact translation D that is the
    period map.  That run reads no tolerance of cfg and can take no failed
    step.  Otherwise the run builds its sampled system (forced_system with
    samples) once and steps each window as its own integrate_ode solve
    (_integrated_windows), which restarts where the system says, so the
    steps, knots and end states are those of a chain of solve_forced calls;
    a window's suprema are over its step knots and _WINDOW_SAMPLES uniform
    times, evaluated in one dense-output call that only the steps holding
    them (and those a kink or guard root ends) build.  One pass over the
    window ends then serves both: it reads their energies in one pot.v
    call, cuts the run at the first end that leaves the float range, checks
    the envelope and gives the verdict.  stats counts the windows run and the
    solves (none on a table).  Memory grows with n_periods only by these records.
    """
    if n_periods < 10:
        raise ConfigError("periods: must be >= 10")
    e0 = energy(pot, s0)
    if not math.isfinite(e0):
        raise DomainError("resonance_run: the energy of the start must be finite")
    sqrt_e0 = math.sqrt(e0)
    l1 = l1_norm(f)
    budget_rate = abs(eps) / math.sqrt(2.0) * l1
    if not math.isfinite(eps):
        raise ConfigError("eps: must be finite")
    records = np.empty((4, n_periods))     # sup |x| + |v|, sup |x|, end x, end v
    work = Counter()
    with np.errstate(over="ignore", invalid="ignore"):    # named below
        windows = (pot.forced_flow(f, eps, s0, np.linspace(0.0, TWO_PI, _WINDOW_SAMPLES))
                   if pot.forced_flow else None)
        if windows is None:
            n_run, stop_reason = _integrated_windows(pot, f, eps, s0, cfg, records, work)
        else:
            for k0 in range(0, n_periods, _TABLE_BLOCK):
                k1 = min(k0 + _TABLE_BLOCK, n_periods)
                x, v = windows(k0, k1)
                records[:2, k0:k1] = _sups(x, v)
                records[2:, k0:k1] = x[:, -1], v[:, -1]
            n_run, stop_reason = n_periods, None
        sup_xv, sup_x, end_x, end_v = records[:, :n_run]
        # a non-finite end is read at the start, whose V is finite
        e = 0.5 * end_v * end_v + pot.v(np.where(np.isfinite(end_x), end_x, s0.x))
        finite = np.isfinite(end_x) & np.isfinite(e)
    n_ok = n_run if finite.all() else int(np.argmin(finite))
    if n_ok < n_run:
        stop_reason = f"resonance_run: window {n_ok} leaves the float range"
        if n_ok == 0:
            raise IntegrationError(stop_reason)
    k = np.arange(1, n_ok + 1)
    sqrt_e = np.sqrt(e[:n_ok])
    violated = np.abs(sqrt_e - sqrt_e0) > budget_rate * k + ENVELOPE_SLACK
    if violated.any():
        j = int(np.argmax(violated))
        raise NumericsError(
            f"resonance_run: energy envelope violated at window {j} "
            f"(excess {abs(sqrt_e[j] - sqrt_e0) - budget_rate * (j + 1):.3e})")

    window_sup = sup_xv[:n_ok]
    partial = stop_reason is not None
    verdict = "inconclusive" if partial else _window_verdict(window_sup)
    return ResonanceDiagnostics(
        window_sup=window_sup, window_sup_x=sup_x[:n_ok],
        energy_sqrt=np.append(sqrt_e0, sqrt_e),
        envelope_bound=np.append(sqrt_e0, sqrt_e0 + budget_rate * k),
        verdict=verdict, eps=eps, n_periods=n_periods,
        final_state=State(float(end_x[n_ok - 1]), float(end_v[n_ok - 1])) if n_ok else s0,
        partial=partial, stop_reason=stop_reason, stats=SolveStats(windows=n_run, **work))


def stroboscopic_map(pot: PotentialSpec, f: ForcingTerm, eps: float,
                     s: State, cfg: IntegratorConfig) -> State:
    """solve_forced(pot, f, eps, [s.x, s.v], 0.0, 2*pi, cfg).end_state(),
    kept only because perfbench/tracing.py wraps it by name: the package
    does not export or call it (Newton solves _newton_system)."""
    return solve_forced(pot, f, eps, [s.x, s.v], 0.0, TWO_PI, cfg).end_state()


@record
class PeriodicSolution:
    state: State
    residual: float
    converged: bool
    iterations: int
    message: str
    stats: SolveStats = SolveStats()


def _newton_system(pot: PotentialSpec, f: ForcingTerm, eps: float, s: State,
                   cfg: IntegratorConfig):
    """G(s) = P(s) - s for the period map P, and the solve that gives it:
    the tangent 2-component solve_forced(pot, f, eps, [s.x, s.v], 0.0, 2*pi,
    cfg, tangent=True), P(s) to the bit, whose variations give the monodromy
    M = [[u, w], [u', w']] and G's Jacobian M - I.  M differentiates that
    discrete map along its steps with their sizes held (internal numerical
    differentiation)."""
    raw = solve_forced(pot, f, eps, [s.x, s.v], 0.0, TWO_PI, cfg, tangent=True)
    return raw.ys[-1] - [s.x, s.v], raw


def _cond(a, b, c, d):
    """The 2-norm condition number of [[a, b], [c, d]], inf where it is singular:
    s_max^2 / |det|, s_max^2 the larger root of z^2 - |.|_F^2 z + det^2."""
    det, norm2 = a * d - b * c, a * a + b * b + c * c + d * d
    root = math.sqrt(max((norm2 - 2.0 * abs(det)) * (norm2 + 2.0 * abs(det)), 0.0))
    return 0.5 * (norm2 + root) / abs(det) if det else math.inf


def find_periodic_solution(pot: PotentialSpec, f: ForcingTerm, eps: float,
                           seed: State, cfg: IntegratorConfig) -> PeriodicSolution:
    """Damped Newton iteration on G(s) = P(s) - s, P the period map: the
    end state of solve_forced(pot, f, eps, [s.x, s.v], 0.0, 2*pi, cfg).

    Each candidate is one period-map solve (_newton_system), G = P(s) - s bit
    for bit, and the Jacobian M - I along its steps one pass over them, run
    only where Newton steps from.  Steps are halved (8 times at most)
    until the residual falls; a candidate that fails or leaves the domain is
    halved too.  A Jacobian with condition number
    above 1e12 or norm below 1e-6 aborts with a diagnostic: at eps = 0 (and
    for any forcing that leaves the isochronous period map a translation)
    the whole plane is fixed or shifted and Newton has nothing to solve.
    It converges at a residual norm of _NEWTON_TOL or less, and gives up
    after _NEWTON_MAX_ITER iterations.  stats counts the solves (the refused
    and failed candidates too) with their steps, the passes and the halvings.
    """
    work = Counter()

    def period_map(s):
        work["solves"] += 1
        try:
            g, raw = _newton_system(pot, f, eps, s, cfg)
        except IntegrationError as exc:
            work.update(exc.trajectory.stats)
            raise
        work.update(raw.stats)
        return g, raw

    def answer(s, res, converged, it, message):
        return PeriodicSolution(s, res, converged, it, message, SolveStats(**work))

    s = seed
    g, raw = period_map(s)
    res = math.hypot(*g)
    if res <= _NEWTON_TOL:
        return answer(s, res, True, 0, "seed is a fixed point")
    for it in range(1, _NEWTON_MAX_ITER + 1):
        u, du, w, dw = raw.variations()[-1]       # M, where Newton steps from
        work["passes"] += 1
        a, b, c, d = u - 1.0, w, du, dw - 1.0     # M - I
        cond, norm = _cond(a, b, c, d), math.hypot(a, b, c, d)
        # the isochronous period map degenerates to a translation when the
        # forcing cannot tilt it (eps = 0, a linear oscillator): M = I, and
        # the computed M - I is integration noise (norm up to 2.5e-10 for
        # Pinney at eps = 0, 1e-11 for x'' + x = eps sin t)
        if not math.isfinite(cond) or cond > 1e12 or norm < 1e-6:
            return answer(s, res, False, it, f"singular Jacobian (cond = {cond:.2e}, norm = "
                          f"{norm:.2e}); the period map is degenerate here, Newton cannot proceed")
        step = np.linalg.solve(np.array([[a, b], [c, d]]), -g)
        lam = 1.0
        for _ in range(8):
            cand = State(s.x + lam * step[0], s.v + lam * step[1])
            try:
                g_new, raw_new = period_map(cand)
                if math.hypot(*g_new) < res:
                    break
            except (DomainError, IntegrationError, NumericsError):
                pass       # a failed candidate is refused and halved too
            lam *= 0.5
            work["halvings"] += 1
        else:
            return answer(s, res, False, it, "damping failed to reduce the residual")
        s, g, raw = cand, g_new, raw_new
        res = math.hypot(*g)
        if res <= _NEWTON_TOL:
            return answer(s, res, True, it, "converged")
    return answer(s, res, False, _NEWTON_MAX_ITER, "iteration budget exhausted")


def seed_from_phi_zero(pot: PotentialSpec, theta_star: float,
                       action_star: float, cfg: IntegratorConfig) -> State:
    """Newton seed for the periodic solution associated to a zero of Phi_p
    at (theta*, I*): the phase point with angle -theta* and action I* (the
    scan stores theta in the defining convention; the correspondence with
    period-map zeros flips its sign)."""
    return from_action_angle(pot, ActionAngle(theta=-theta_star,
                                              action=action_star), cfg)

