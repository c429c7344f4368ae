"""Unforced dynamics of a potential center: orbits, the complex variational
solution, measured minimal periods, action-angle coordinates, the Rofe-Beketov
action derivative, the negative semi-period (closed form where the center
declares one) and large-action (bouncing) limit audits.  Action-angle
coordinates need a certified n_iso = N: every period is then 2*pi/N, so
I = E/N = V(r)/N both ways, with no area quadrature and no measured period."""

from __future__ import annotations

import math

import numpy as np

from ._record import record, replace
from .errors import ConfigError, DomainError, NumericsError
from .forcing import TWO_PI, _quad_checked
from .integrate import (VARIATIONAL, IntegratorConfig, RawSolution, State, energy,
                        solve_forced)
from .potentials import PotentialSpec, brentq, inverse_V


# ---------------------------------------------------------------------------
# orbits and periods

def _orbit(pot: PotentialSpec, r: float, t1: float, cfg: IntegratorConfig):
    """t -> (x, v) on [0, t1] along the orbit through (r, 0): the orbit the
    center declares, else one solve_forced read through its dense output."""
    if pot.orbit is not None:
        return lambda t: pot.orbit(r, t)
    return solve_forced(pot, None, 0.0, [r, 0.0], 0.0, t1, cfg).eval


def minimal_period(pot: PotentialSpec, r: float, cfg: IntegratorConfig) -> float:
    """First return time of the orbit through (r, 0) to the section
    {v = 0, x > 0}, refined on the dense output.

    Raises NumericsError if the orbit does not return within 10 periods of
    2*pi (non-oscillatory input).
    """
    if not 0 < r < math.inf:
        raise DomainError("minimal_period: r must be finite and positive")
    pot._check_domain(r)
    guess = TWO_PI / pot.n_iso if pot.n_iso else TWO_PI
    for horizon in (1.25 * guess, 10.0 * TWO_PI):
        traj = solve_forced(pot, None, 0.0, [r, 0.0], 0.0, horizon, cfg)
        for ev in traj.events_of("v_zero"):
            if ev.t > 1e-9 and traj.eval(ev.t)[0] > 0:
                return float(ev.t)
    raise NumericsError(
        f"minimal_period: no return to the section within {10 * TWO_PI:.3f} "
        "time units; the motion does not look periodic")


# ---------------------------------------------------------------------------
# variational solutions

@record(eq=False)
class VariationalSolution:
    """Fundamental complex solution psi = u + i*v of the linearization along
    the orbit of amplitude r: u(0)=1, u'(0)=0, v(0)=0, v'(0)=1."""

    pot: PotentialSpec
    r: float
    t1: float
    raw: RawSolution | None = None       # components (x, xdot, u, udot, v, vdot)
    lin_freq: float | None = None        # r = 0: explicit linearization

    def _parts(self, t):
        if self.raw is not None:
            return self.raw.eval(t)
        w = self.lin_freq
        t = np.asarray(t, dtype=float)
        zeros = np.zeros_like(t)
        return np.stack([zeros, zeros, np.cos(w * t), -w * np.sin(w * t),
                         np.sin(w * t) / w, np.cos(w * t)])

    def u(self, t):
        return self._parts(t)[2]

    def du(self, t):
        return self._parts(t)[3]

    def v(self, t):
        return self._parts(t)[4]

    def dv(self, t):
        return self._parts(t)[5]

    def psi(self, t):
        p = self._parts(t)
        return p[2] + 1j * p[4]

    def dpsi(self, t):
        """Public API: psi' = u' + i*v'; the package does not call it."""
        p = self._parts(t)
        return p[3] + 1j * p[5]

    def wronskian(self, t):
        """Test oracle: u*v' - u'*v, 1 on an exact solution; the package
        does not call it."""
        p = self._parts(t)
        return p[2] * p[5] - p[3] * p[4]


def profile_amplitude(pot: PotentialSpec, r: float) -> float:
    """The amplitude whose psi serves r, and the one check of r: DomainError
    unless 0 <= r <= inf.  On a homogeneous center (pot.homogeneous: the
    harmonic and asymmetric ones) every finite r >= 0 shares psi(., 1),
    r = 0 as its r -> 0+ limit; any other potential keeps its r (Pinney's
    r = inf too)."""
    if not r >= 0:
        raise DomainError(f"r must be nonnegative or inf, got {r}")
    if pot.homogeneous and math.isfinite(r):
        return 1.0
    return r


def psi_solution(pot: PotentialSpec, r: float, cfg: IntegratorConfig,
                 t1: float = TWO_PI) -> VariationalSolution:
    """Numerically integrated variational pair along the orbit of amplitude r.

    r = 0 uses the explicit linearization at the center (frequency
    sqrt(V''(0))) instead of integrating a degenerate orbit, unless the
    center shares one profile over its amplitudes (profile_amplitude) and V''
    jumps at the center (asymmetric): the linearization there is not the
    r -> 0+ limit, so r = 0 takes the shared psi instead.
    """
    shared = profile_amplitude(pot, r)
    if r == 0:
        if shared != 0.0 and pot.kink_at_zero:
            return replace(psi_solution(pot, shared, cfg, t1), r=0.0)
        w0 = math.sqrt(float(pot.d2v(0.0)))
        return VariationalSolution(pot, 0.0, t1, lin_freq=w0)
    raw = solve_forced(pot, None, 0.0, [r, 0.0, 1.0, 0.0, 0.0, 1.0], 0.0, t1, cfg,
                       VARIATIONAL)
    return VariationalSolution(pot, float(r), t1, raw=raw)


# ---------------------------------------------------------------------------
# action-angle machinery

@record
class ActionAngle:
    theta: float
    action: float


def action_of_amplitude(pot: PotentialSpec, r: float) -> float:
    """Action I(r) = (enclosed area)/(2*pi) of the orbit through (r, 0): on a
    center with a certified n_iso = N every period 2*pi dI/dE is 2*pi/N, so
    I = V(r)/N."""
    if not 0 <= r < math.inf:
        raise DomainError("action_of_amplitude: r must be finite and nonnegative")
    return float(pot.v(r)) / pot.require_isochronous()


def amplitude_of_action(pot: PotentialSpec, action: float) -> float:
    """Inverse of action_of_amplitude for isochronous potentials: the r > 0
    with V(r) = N*I, by inverse_V on the positive side, exact to rounding
    for every action whose r is a float."""
    if action < 0:
        raise DomainError("amplitude_of_action: action must be nonnegative")
    if action == 0:
        return 0.0
    n = pot.require_isochronous()
    return inverse_V(pot, n * action, 1)


def to_action_angle(pot: PotentialSpec, s: State, cfg: IntegratorConfig) -> ActionAngle:
    """Action-angle coordinates of a phase point for a certified n_iso = N:
    the action E/N, the angle N tau for the time tau from (r, 0) to it.  The
    flow turns clockwise, so the polar angle atan2(-v, x) mod 2*pi of _orbit
    rises from 0 to 2*pi over the period 2*pi/N; brentq finds where it meets
    the point's."""
    e = energy(pot, s)
    if not 0.0 < e < math.inf:
        raise DomainError("to_action_angle: the energy must be finite and positive")
    n = pot.require_isochronous()
    if s.v == 0.0 and s.x > 0.0:
        return ActionAngle(0.0, e / n)
    period, target = TWO_PI / n, math.atan2(-s.v, s.x) % TWO_PI
    orbit = _orbit(pot, inverse_V(pot, e, 1), period, cfg)

    def gap(t):
        x, v = orbit(t)
        return (TWO_PI if t >= period else math.atan2(-v, x) % TWO_PI) - target

    tau = brentq(gap, 0.0, period, xtol=math.ulp(0.0), rtol=8.9e-16, maxiter=200)
    return ActionAngle(math.fmod(n * tau, TWO_PI), e / n)


def from_action_angle(pot: PotentialSpec, aa: ActionAngle,
                      cfg: IntegratorConfig) -> State:
    """Phase point with the given action and angle: _orbit at tau = theta/N,
    the inverse of to_action_angle to rounding on a center that declares
    its orbit, and up to integration tolerance on one solve otherwise."""
    if not (math.isfinite(aa.theta) and math.isfinite(aa.action)):
        raise ConfigError("from_action_angle: angle and action must be finite")
    if aa.action <= 0:
        raise DomainError("from_action_angle: action must be positive")
    r = amplitude_of_action(pot, aa.action)
    theta = math.fmod(aa.theta, TWO_PI)
    tau = (theta + TWO_PI if theta < 0 else theta) / pot.require_isochronous()
    if tau == 0.0:
        return State(float(r), 0.0)
    x, v = _orbit(pot, r, tau, cfg)(tau)
    return State(float(x), float(v))


# ---------------------------------------------------------------------------
# Rofe-Beketov derivative with respect to the action

# The Rofe-Beketov integrand (1 - V''(x)) ((xdot^2 - xddot^2) / q) / q, q = xdot^2 + xddot^2,
# as forced_system's extra line over (x, v, its integral): q^2 overflows from I ~ 1e154
ROFE_BEKETOV = ("(1.0 - d2v) * ((s_1 * s_1 - r_1 * r_1) / (s_1 * s_1 + r_1 * r_1)"
                " / (s_1 * s_1 + r_1 * r_1))")


def _rofe_raw(pot: PotentialSpec, r: float, t_max: float, cfg: IntegratorConfig):
    return solve_forced(pot, None, 0.0, [r, 0.0, 0.0], 0.0, t_max, cfg, (ROFE_BEKETOV,))


def dx_dI_rofe_beketov(pot: PotentialSpec, r: float, t_grid,
                       cfg: IntegratorConfig):
    """dx/dI along the orbit of amplitude r at the given times, via the
    closed-form combination of xdot, xddot and the accumulated integral of
    (1 - V''(x)) (xdot^2 - xddot^2) / (xdot^2 + xddot^2)^2.

    The derivative is even in t; negative grid times are mapped to |t|.
    """
    n = pot.require_isochronous()
    if not 0 < r < math.inf:
        raise DomainError("dx_dI_rofe_beketov: r must be finite and positive")
    t = np.abs(np.asarray(t_grid, dtype=float))
    if not np.all(np.isfinite(t)):
        raise DomainError("dx_dI_rofe_beketov: t_grid must be finite")
    if t.size == 0:
        return np.empty(t.shape)
    t_max = float(t.max())
    x, v, w = _rofe_raw(pot, float(r), t_max if t_max > 0 else 1e-9, cfg).eval(t.ravel())
    acc = -np.asarray(pot.dv(x))
    return (n * (-acc / (v * v + acc * acc) + v * w)).reshape(t.shape)


# ---------------------------------------------------------------------------
# negative semi-period

def negative_semiperiod(pot: PotentialSpec, action: float) -> float:
    """Time per period spent at x < 0 by the orbit of the given action: the
    center's closed form where it declares one (pot.t_minus, Pinney's), else
    sqrt(2) * integral over (r_-, 0) of dx / sqrt(Omega(I) - V(x)),
    with a square-root substitution at the turning point."""
    n = pot.require_isochronous()
    if not 0 < action < math.inf:
        raise DomainError("negative_semiperiod: action must be finite and positive")
    if pot.t_minus is not None:
        return pot.t_minus(action)
    energy = n * action
    r_neg = inverse_V(pot, energy, -1)

    def integrand(u):
        val = energy - pot.v(r_neg * (1.0 - u * u))
        return 2.0 * abs(r_neg) * u / np.sqrt(np.maximum(val, 1e-300))

    return math.sqrt(2.0) * _quad_checked(integrand, 0.0, 1.0)


# ---------------------------------------------------------------------------
# bouncing-problem limit audit

_BOUNCING_GRID = 2001       # times over the period; half as many inside (0, pi - delta)


@record
class BouncingAudit:
    action: float
    sup_x_defect: float
    sup_dxdI_defect: float
    dxdI_at_0: float


def bouncing_limit_audit(pot: PotentialSpec, I_list, cfg: IntegratorConfig,
                         delta: float = 0.1):
    """Compare rescaled large-action orbits with the bouncing-problem limits
    2*sqrt(2)|cos(t/2)| (for x/sqrt(I), over the whole period) and
    sqrt(2)|cos(t/2)| (for sqrt(I)*dx/dI, away from a delta-neighbourhood of
    the contact time pi).  Returns one record per action."""
    I_list = [float(action) for action in I_list]
    if not all(0 < action < math.inf for action in I_list):
        raise DomainError("bouncing_limit_audit: every action I must be finite and positive")
    if not 0 < delta < math.pi:
        raise ConfigError("delta: must satisfy 0 < delta < pi")
    if pot.require_isochronous() != 1:
        raise NumericsError("bouncing_limit_audit: needs minimal period 2*pi")
    records = []
    for action in I_list:
        r = amplitude_of_action(pot, action)
        sqrt_i = math.sqrt(action)
        t_full = np.linspace(0.0, TWO_PI, _BOUNCING_GRID)
        x, _ = _orbit(pot, r, TWO_PI, cfg)(t_full)
        limit_x = 2.0 * math.sqrt(2.0) * np.abs(np.cos(0.5 * t_full))
        sup_x = float(np.max(np.abs(x / sqrt_i - limit_x)))

        t_in = np.linspace(0.0, math.pi - delta, _BOUNCING_GRID // 2)
        dxdi = dx_dI_rofe_beketov(pot, r, t_in, cfg)
        limit_d = math.sqrt(2.0) * np.abs(np.cos(0.5 * t_in))
        sup_d = float(np.max(np.abs(sqrt_i * dxdi - limit_d)))
        records.append(BouncingAudit(action=action, sup_x_defect=sup_x,
                                     sup_dxdI_defect=sup_d,
                                     dxdI_at_0=float(sqrt_i * dxdi[0])))
    return records

