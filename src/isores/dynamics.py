"""Forced-system experiments: long resonance runs with windowed growth
diagnostics and the a-priori energy envelope, the stroboscopic period map,
and a damped-Newton shooting search for periodic solutions seeded from zeros
of the resonance functional."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autonomous import ActionAngle, from_action_angle
from .errors import DomainError, IntegrationError, NumericsError
from .forcing import ForcingTerm, TWO_PI, l1_norm
from .integrate import (VARIATIONAL, IntegratorConfig, State, energy, forced_system,
                        integrate_ode, solve_forced)
from .potentials import PotentialSpec

ENVELOPE_SLACK = 1e-6
_WINDOW_SAMPLES = 512         # uniform times per window beside the step knots
_NEWTON_TOL = 1e-10           # the residual norm at which Newton has converged
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
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


def resonance_run(pot: PotentialSpec, f: ForcingTerm, eps: float, s0: State,
                  n_periods: int, cfg: IntegratorConfig) -> ResonanceDiagnostics:
    """Integrate the forced equation over n_periods * 2*pi and classify the
    growth of the windowed suprema of |x| + |v|.

    Verdict: "growing" when the last ceil(n/2) window suprema increase
    strictly and the final one exceeds twice the first window's; "bounded"
    when the run-wide maximum stays within 1.5x the first-quarter maximum;
    "inconclusive" otherwise.  The energy envelope inequality is asserted at
    every window end (slack 1e-6); violation is an integrator failure.
    An integration failure (singularity guard, step budget) returns partial
    diagnostics with verdict "inconclusive", partial=True and its message in
    stop_reason.  A start of non-finite energy is a DomainError, and a start
    from which no step can be taken re-raises its IntegrationError: neither
    is a run.

    The run builds its system (forced_system) once and steps each window
    [2 pi k, 2 pi (k + 1)] as its own integrate_ode solve, which restarts
    where the system says, so the steps, knots and end states are those of
    a chain of solve_forced calls, and memory does not grow with
    n_periods.  A window's suprema are taken over its step knots and
    _WINDOW_SAMPLES uniform times, evaluated in one dense-output call.
    """
    if n_periods < 10:
        raise ValueError("resonance_run: need n_periods >= 10")
    e0 = energy(pot, s0)
    if not math.isfinite(e0):
        raise DomainError("resonance_run: the energy of the start must be finite")
    sqrt_e0 = math.sqrt(e0)
    l1 = l1_norm(f)
    budget_rate = abs(eps) / math.sqrt(2.0) * l1
    system = forced_system(pot, f, eps, cfg)

    sup_xv = []
    sup_x = []
    sqrt_e = [sqrt_e0]
    envelope = [sqrt_e0]
    state = s0
    stop_reason = None
    for k in range(n_periods):
        t0, t1 = k * TWO_PI, (k + 1) * TWO_PI
        try:
            traj = integrate_ode(system, [state.x, state.v], t0, t1, cfg)
        except IntegrationError as exc:
            if k == 0 and exc.trajectory.stats["n_steps"] == 0:
                raise      # no step from the start: no run to report
            stop_reason = str(exc)
            break
        xv = np.abs(np.concatenate(
            [traj.eval(np.linspace(t0, t1, _WINDOW_SAMPLES)), traj.ys.T], axis=1))
        sup_xv.append(float((xv[0] + xv[1]).max()))
        sup_x.append(float(xv[0].max()))
        state = traj.end_state()
        sqrt_e.append(math.sqrt(energy(pot, state)))
        envelope.append(sqrt_e0 + budget_rate * (k + 1))
        if abs(sqrt_e[-1] - sqrt_e0) > budget_rate * (k + 1) + ENVELOPE_SLACK:
            raise NumericsError(
                f"resonance_run: energy envelope violated at window {k} "
                f"(excess {abs(sqrt_e[-1] - sqrt_e0) - budget_rate * (k + 1):.3e})")

    window_sup = np.asarray(sup_xv)
    partial = stop_reason is not None
    verdict = "inconclusive" if partial else _window_verdict(window_sup)
    return ResonanceDiagnostics(
        window_sup=window_sup, window_sup_x=np.asarray(sup_x),
        energy_sqrt=np.asarray(sqrt_e), envelope_bound=np.asarray(envelope),
        verdict=verdict, eps=eps, n_periods=n_periods, final_state=state,
        partial=partial, stop_reason=stop_reason)


def stroboscopic_map(pot: PotentialSpec, f: ForcingTerm, eps: float,
                     s: State, cfg: IntegratorConfig) -> State:
    """State at t = 2*pi of the forced flow started from s at t = 0: one
    solve_forced call, kept as a name because perfbench/tracing.py wraps it;
    Newton (find_periodic_solution) solves _newton_system instead."""
    return solve_forced(pot, f, eps, [s.x, s.v], 0.0, TWO_PI, cfg).end_state()


@dataclass(frozen=True)
class PeriodicSolution:
    state: State
    residual: float
    converged: bool
    iterations: int
    message: str


def _newton_system(pot: PotentialSpec, f: ForcingTerm, eps: float, s: State,
                   cfg: IntegratorConfig):
    """G(s) = P(s) - s for the period map P, and G's Jacobian M - I: one
    forced variational solve, the monodromy matrix M = [[u, w], [u', w']]."""
    raw = solve_forced(pot, f, eps, [s.x, s.v, 1.0, 0.0, 0.0, 1.0], 0.0, TWO_PI, cfg,
                       VARIATIONAL)
    x, v, u, du, w, dw = raw.ys[-1]
    return np.array([x - s.x, v - s.v]), np.array([[u - 1.0, w], [du, dw - 1.0]])


def find_periodic_solution(pot: PotentialSpec, f: ForcingTerm, eps: float,
                           seed: State, cfg: IntegratorConfig) -> PeriodicSolution:
    """Damped Newton iteration on G(s) = stroboscopic_map(s) - s.

    One forced variational solve gives G and its exact Jacobian.  Steps are
    halved (8 times at most) until the residual falls; a candidate that fails
    or leaves the domain is halved too.  A Jacobian with condition number
    above 1e12 or norm below 1e-6 aborts with a diagnostic: at eps = 0 (and
    for any forcing that leaves the isochronous period map a translation)
    the whole plane is fixed or shifted and Newton has nothing to solve.
    It converges at a residual norm of _NEWTON_TOL or less, and gives up
    after _NEWTON_MAX_ITER iterations.
    """
    s = seed
    g, jac = _newton_system(pot, f, eps, s, cfg)
    res = float(np.linalg.norm(g))
    if res <= _NEWTON_TOL:
        return PeriodicSolution(state=s, residual=res, converged=True,
                                iterations=0, message="seed is a fixed point")
    for it in range(1, _NEWTON_MAX_ITER + 1):
        cond = np.linalg.cond(jac)
        # the isochronous period map degenerates to a translation when the
        # forcing cannot tilt it (eps = 0, a linear oscillator): M = I, and
        # the computed M - I is integration noise (norm ~ 1e-10)
        if not np.isfinite(cond) or cond > 1e12 or np.linalg.norm(jac) < 1e-6:
            return PeriodicSolution(
                state=s, residual=res, converged=False, iterations=it,
                message=f"singular Jacobian (cond = {cond:.2e}, norm = "
                        f"{np.linalg.norm(jac):.2e}); the period map is "
                        "degenerate here, Newton cannot proceed")
        step = np.linalg.solve(jac, -g)
        lam = 1.0
        for _ in range(8):
            cand = State(s.x + lam * step[0], s.v + lam * step[1])
            try:
                g_new, jac_new = _newton_system(pot, f, eps, cand, cfg)
            except (DomainError, IntegrationError, NumericsError):
                lam *= 0.5
                continue
            if np.linalg.norm(g_new) < res:
                break
            lam *= 0.5
        else:
            return PeriodicSolution(state=s, residual=res, converged=False,
                                    iterations=it,
                                    message="damping failed to reduce the residual")
        s, g, jac = cand, g_new, jac_new
        res = float(np.linalg.norm(g))
        if res <= _NEWTON_TOL:
            return PeriodicSolution(state=s, residual=res, converged=True,
                                    iterations=it, message="converged")
    return PeriodicSolution(state=s, residual=res, converged=False,
                            iterations=_NEWTON_MAX_ITER, message="iteration budget exhausted")


def seed_from_phi_zero(pot: PotentialSpec, theta_star: float,
                       action_star: float, cfg: IntegratorConfig) -> State:
    """Newton seed for the periodic solution associated to a zero of Phi_p
    at (theta*, I*): the phase point with angle -theta* and action I* (the
    scan stores theta in the defining convention; the correspondence with
    period-map zeros flips its sign)."""
    return from_action_angle(pot, ActionAngle(theta=-theta_star,
                                              action=action_star), cfg)


def write_diagnostics_csv(diag: ResonanceDiagnostics, path):
    """CSV export with columns window_index,window_sup,sqrtE,envelope."""
    from .io import write_csv
    rows = [(k, diag.window_sup[k], diag.energy_sqrt[k + 1],
             diag.envelope_bound[k + 1]) for k in range(len(diag.window_sup))]
    return write_csv(path, ["window_index", "window_sup", "sqrtE", "envelope"], rows)


def verdict_dict(diag: ResonanceDiagnostics):
    return {"verdict": diag.verdict, "eps": diag.eps,
            "n_periods": diag.n_periods, "partial": diag.partial,
            "final_x": diag.final_state.x, "final_v": diag.final_state.v,
            "max_window_sup": float(np.max(diag.window_sup))
            if len(diag.window_sup) else None}
