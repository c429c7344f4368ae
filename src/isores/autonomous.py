"""Unforced dynamics of a potential center: orbits, the complex variational
solution, measured minimal periods, action-angle coordinates, the
Rofe-Beketov action derivative, the negative semi-period, rotation-argument
diagnostics, and large-action (bouncing) limit audits."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .forcing import TWO_PI, _quad_checked
from .integrate import (IntegratorConfig, RawSolution, State, StepTable,
                        _clamp, _standard_events, forced_system,
                        integrate_autonomous, integrate_ode)
from .potentials import (PotentialSpec, inverse_V_negative, inverse_V_positive)


# ---------------------------------------------------------------------------
# closed forms (the shifted Pinney potential, harmonic and asymmetric centers)

def pinney_phi_closed(r, t):
    """Closed-form orbit of the Pinney center: position and velocity of the
    solution with x(0)=r, v(0)=0, written with lambda = 1 + r."""
    lam = 1.0 + float(r)
    t = np.asarray(t, dtype=float)
    c2 = np.cos(0.5 * t) ** 2
    s2 = np.sin(0.5 * t) ** 2
    q = lam ** 2 * c2 + lam ** -2 * s2
    root = np.sqrt(q)
    x = -1.0 + root
    v = (lam ** -2 - lam ** 2) * np.sin(t) / (4.0 * root)
    return x, v


def pinney_psi_closed(r, t):
    """Closed-form complex variational solution along the Pinney orbit of
    amplitude r (psi(0)=1, psi'(0)=i)."""
    lam = 1.0 + float(r)
    t = np.asarray(t, dtype=float)
    c2 = np.cos(0.5 * t) ** 2
    s2 = np.sin(0.5 * t) ** 2
    den = np.sqrt(c2 + lam ** -4 * s2)
    re = (c2 - lam ** -4 * s2) / den
    im = np.sin(t) / den
    return re + 1j * im


def pinney_psi_infinity(t):
    """Pointwise large-amplitude limit of the Pinney variational solution."""
    t = np.asarray(t, dtype=float)
    c = np.cos(0.5 * t)
    return np.abs(c) + 2j * np.sin(0.5 * t) * np.sign(c)


def asymmetric_psi_closed(w, mu, t):
    """psi(t, r) of V = (w^2 (x+)^2 + mu^2 (x-)^2)/2 at every r >= 0: x(t; r) =
    r X(t), so psi = X - i X'/w^2, with X = cos(w s) on the x > 0 arcs (s the
    time from the nearest maximum) and -(w/mu) sin(mu (t - t1)) on the x < 0
    arc from t1 = pi/(2w).  X has period pi/w + pi/mu, not always 2*pi."""
    t = np.asarray(t, dtype=float)
    if w == mu:                     # harmonic: one sinusoid, no kink
        return np.cos(w * t) + 1j * np.sin(w * t) / w
    t1, period = 0.5 * math.pi / w, math.pi / w + math.pi / mu
    s = np.mod(t, period)
    s = np.where(s > t1 + math.pi / mu, s - period, s)   # the last x > 0 arc
    arc = mu * (s - t1)
    return np.where(s > t1, -(w / mu) * np.sin(arc) + 1j * np.cos(arc) / w,
                    np.cos(w * s) + 1j * np.sin(w * s) / w)


# ---------------------------------------------------------------------------
# orbits and periods

def _constant_trajectory(y, t0, t1):
    """A rest point over [t0, t1]: one step whose interpolant is constant."""
    y = np.asarray(y, dtype=float)
    steps = StepTable(np.array([t0]), np.array([t1 - t0]), y[None, :],
                      np.zeros((1, 4, y.size)))
    return RawSolution(np.array([t0, t1]), np.array([y, y]), steps, [],
                       {"n_steps": 0, "nfev": 0, "n_segments": 1, "n_rejected": 0})


@dataclass(frozen=True, eq=False)
class AutonomousOrbit:
    """One measured period of the unforced orbit through (r, 0)."""

    pot: PotentialSpec
    r: float
    period: float
    trajectory: RawSolution
    energy: float

    def eval(self, t):
        """(x, v) at any time, reduced modulo the measured period."""
        tau = np.mod(np.asarray(t, dtype=float), self.period)
        return self.trajectory.eval(tau)


def _section_return(pot: PotentialSpec, s: State, horizon: float,
                    cfg: IntegratorConfig):
    """First time in (1e-9, horizon] at which the unforced orbit from s
    crosses the section {v = 0, x > 0}, refined on the dense output; None if
    it does not get there within the horizon."""
    traj = integrate_autonomous(pot, s, 0.0, horizon, cfg)
    for ev in traj.events_of("v_zero"):
        if ev.t > 1e-9 and traj.eval(ev.t)[0] > 0:
            return float(ev.t)
    return None


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
        tau = _section_return(pot, State(r, 0.0), horizon, cfg)
        if tau is not None:
            return tau
    raise NumericsError(
        f"minimal_period: no return to the section within {10 * TWO_PI:.3f} "
        "time units; the motion does not look periodic")


def phi_orbit(pot: PotentialSpec, r: float, cfg: IntegratorConfig) -> AutonomousOrbit:
    """Numeric orbit through (r, 0) over one measured period (r >= 0)."""
    if r < 0:
        raise DomainError("phi_orbit: r must be nonnegative")
    if r == 0:
        period = TWO_PI / pot.n_iso if pot.n_iso else TWO_PI
        traj = _constant_trajectory([0.0, 0.0], 0.0, period)
        return AutonomousOrbit(pot, 0.0, period, traj, 0.0)
    period = minimal_period(pot, r, cfg)
    traj = integrate_autonomous(pot, State(r, 0.0), 0.0, period, cfg)
    return AutonomousOrbit(pot, float(r), period, traj, float(pot.v(r)))


# ---------------------------------------------------------------------------
# variational solutions

@dataclass(frozen=True, eq=False)
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
        p = self._parts(t)
        return p[3] + 1j * p[5]

    def wronskian(self, t):
        p = self._parts(t)
        return p[2] * p[5] - p[3] * p[4]


def profile_amplitude(pot: PotentialSpec, r: float) -> float:
    """The amplitude whose psi serves r.  The harmonic and asymmetric centers
    are positively homogeneous of degree 2 (x(t; r) = r x(t; 1), V''(r x) =
    V''(x)), so every finite r >= 0 shares psi(., 1), r = 0 as its r -> 0+
    limit; any other potential keeps its r (Pinney's r = inf too)."""
    if pot.kind in ("harmonic", "asymmetric") and math.isfinite(r):
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
    if r < 0:
        raise DomainError("psi_solution: r must be nonnegative")
    if r == 0:
        shared = profile_amplitude(pot, 0.0)
        if shared != 0.0 and pot.kink_at_zero:
            return replace(psi_solution(pot, shared, cfg, t1), r=0.0)
        w0 = math.sqrt(float(pot.d2v(0.0)))
        return VariationalSolution(pot, 0.0, t1, lin_freq=w0)
    y0 = [r, 0.0, 1.0, 0.0, 0.0, 1.0]
    fun, options = forced_system(pot, None, 0.0, y0, 0.0, t1, cfg)
    raw = integrate_ode(fun, y0, 0.0, t1, cfg, **options)
    return VariationalSolution(pot, float(r), t1, raw=raw)


# ---------------------------------------------------------------------------
# action-angle machinery

@dataclass(frozen=True)
class ActionAngle:
    theta: float
    action: float


def _area_integral(pot: PotentialSpec, energy: float, x_lo: float, x_hi: float) -> float:
    """integral over [x_lo, x_hi] of sqrt(2(E - V(x))) dx with the sine
    substitution that removes the square-root turning points."""
    c = 0.5 * (x_hi + x_lo)
    h = 0.5 * (x_hi - x_lo)

    def integrand(u):
        val = 2.0 * (energy - pot.v(c + h * np.sin(u)))
        return np.sqrt(np.maximum(val, 0.0)) * h * np.cos(u)

    kink = pot.kink_at_zero and x_lo < 0.0 < x_hi
    points = [math.asin(max(-1.0, min(1.0, -c / h)))] if kink else ()
    return _quad_checked(integrand, -0.5 * math.pi, 0.5 * math.pi, points)


def action_of_amplitude(pot: PotentialSpec, r: float) -> float:
    """Action I(r) = (enclosed area)/(2*pi) of the orbit through (r, 0)."""
    if r < 0:
        raise DomainError("action_of_amplitude: r must be nonnegative")
    if r == 0:
        return 0.0
    energy = float(pot.v(r))
    x_lo = inverse_V_negative(pot, energy)
    return _area_integral(pot, energy, x_lo, float(r)) / math.pi


def amplitude_of_action(pot: PotentialSpec, action: float) -> float:
    """Inverse of action_of_amplitude for isochronous potentials, using
    Omega(I) = N*I = V(r)."""
    if action < 0:
        raise DomainError("amplitude_of_action: action must be nonnegative")
    if action == 0:
        return 0.0
    n = pot.require_isochronous()
    return inverse_V_positive(pot, n * action)


def to_action_angle(pot: PotentialSpec, s: State, cfg: IntegratorConfig) -> ActionAngle:
    """Action-angle coordinates of a phase point; the angle is the travel
    time from the section {v=0, x>0}, scaled by 2*pi/T."""
    e = 0.5 * s.v * s.v + float(pot.v(s.x))
    if e <= 0.0:
        raise DomainError("to_action_angle: the center has no angle")
    r = inverse_V_positive(pot, e)
    action = action_of_amplitude(pot, r)
    period = minimal_period(pot, r, cfg)
    if s.v == 0.0 and s.x > 0.0:
        return ActionAngle(0.0, action)
    # reversibility: the forward orbit from (x, -v) reaches (r, 0) at the
    # same travel time at which the original point was reached from (r, 0)
    tau = _section_return(pot, State(s.x, -s.v), 1.25 * period, cfg)
    if tau is None:
        raise NumericsError("to_action_angle: section return not found")
    return ActionAngle(math.fmod(TWO_PI * tau / period, TWO_PI), action)


def from_action_angle(pot: PotentialSpec, aa: ActionAngle,
                      cfg: IntegratorConfig) -> State:
    """Phase point with the given action and angle (inverse of
    to_action_angle up to integration tolerance)."""
    if not (math.isfinite(aa.theta) and math.isfinite(aa.action)):
        raise ConfigError("from_action_angle: angle and action must be finite")
    if aa.action <= 0:
        raise DomainError("from_action_angle: action must be positive")
    r = amplitude_of_action(pot, aa.action)
    theta = math.fmod(aa.theta, TWO_PI)
    tau = (theta + TWO_PI if theta < 0 else theta) / pot.require_isochronous()
    if tau == 0.0:
        return State(float(r), 0.0)
    traj = integrate_autonomous(pot, State(float(r), 0.0), 0.0, tau, cfg)
    return traj.end_state()


# ---------------------------------------------------------------------------
# Rofe-Beketov derivative with respect to the action

def _rofe_raw(pot: PotentialSpec, r: float, t_max: float, cfg: IntegratorConfig):
    dv, d2v, clamp = pot._dv, pot._d2v, _clamp(pot)

    def rhs(t, y):
        x = y[0]
        if clamp is not None and x < clamp:
            x = clamp
        acc = -float(dv(x))
        v2, a2 = y[1] * y[1], acc * acc
        w = (1.0 - float(d2v(x))) * (v2 - a2) / (v2 + a2) ** 2
        return (y[1], acc, w)

    kink, guard = _standard_events(pot, cfg)
    return integrate_ode(rhs, [r, 0.0, 0.0], 0.0, t_max, cfg, kink=kink, guard=guard)


def dx_dI_rofe_beketov(pot: PotentialSpec, r: float, t_grid,
                       cfg: IntegratorConfig):
    """dx/dI along the orbit of amplitude r at the given times, via the
    closed-form combination of xdot, xddot and the accumulated integral of
    (1 - V''(x)) (xdot^2 - xddot^2) / (xdot^2 + xddot^2)^2.

    The derivative is even in t; negative grid times are mapped to |t|.
    """
    n = pot.require_isochronous()
    if r <= 0:
        raise DomainError("dx_dI_rofe_beketov: r must be positive")
    t = np.abs(np.asarray(t_grid, dtype=float))
    raw = _rofe_raw(pot, float(r), float(np.max(t)) if np.max(t) > 0 else 1e-9, cfg)
    flat = t.ravel()
    vals = raw.eval(flat) if flat.size else np.empty((3, 0))
    x, v, w = vals
    acc = -np.asarray(pot.dv(x))
    out = (n * (-acc / (v * v + acc * acc) + v * w)).reshape(t.shape)
    return out


# ---------------------------------------------------------------------------
# negative semi-period

def negative_semiperiod(pot: PotentialSpec, action: float) -> float:
    """Time per period spent at x < 0 by the orbit of the given action:
    sqrt(2) * integral over (r_-, 0) of dx / sqrt(Omega(I) - V(x)),
    with a square-root substitution at the turning point."""
    n = pot.require_isochronous()
    if action <= 0:
        raise DomainError("negative_semiperiod: action must be positive")
    energy = n * action
    r_neg = inverse_V_negative(pot, energy)

    def integrand(u):
        val = energy - pot.v(r_neg * (1.0 - u * u))
        return 2.0 * abs(r_neg) * u / np.sqrt(np.maximum(val, 1e-300))

    return math.sqrt(2.0) * _quad_checked(integrand, 0.0, 1.0)


# ---------------------------------------------------------------------------
# rotation argument (Sturm diagnostics)

def argument_increment(z_of, t0, t1, z0, z1, name, depth=0):
    """Change of arg z_of(t) from t0 to t1, given z0 = z_of(t0) and z1 =
    z_of(t1): [t0, t1] is halved until every increment is at most pi/2, so
    branch jumps cannot alias; NumericsError after 48 halvings."""
    d = cmath.phase(z1 / z0)
    if abs(d) <= 0.5 * math.pi:
        return d
    if depth >= 48:
        raise NumericsError(f"{name}: argument varies too fast")
    tm = 0.5 * (t0 + t1)
    zm = z_of(tm)
    return (argument_increment(z_of, t0, tm, z0, zm, name, depth + 1)
            + argument_increment(z_of, tm, t1, zm, z1, name, depth + 1))


def sturm_argument(vs: VariationalSolution, t_grid, component: str = "u"):
    """Continuous (unwrapped) argument of y + i*y' along t_grid, where y is
    the real (component="u") or imaginary (component="v") part of psi; each
    increment between grid nodes is an argument_increment.
    """
    if component == "u":
        z_of = lambda t: complex(vs.u(t) + 1j * vs.du(t))
    elif component == "v":
        z_of = lambda t: complex(vs.v(t) + 1j * vs.dv(t))
    else:
        raise ValueError("component must be 'u' or 'v'")
    t = np.asarray(t_grid, dtype=float)
    out = np.empty(t.shape)
    z_prev = z_of(t.flat[0])
    out.flat[0] = math.atan2(z_prev.imag, z_prev.real)
    for i in range(1, t.size):
        z_next = z_of(t.flat[i])
        out.flat[i] = out.flat[i - 1] + argument_increment(
            z_of, t.flat[i - 1], t.flat[i], z_prev, z_next, "sturm_argument")
        z_prev = z_next
    return out


# ---------------------------------------------------------------------------
# bouncing-problem limit audit

@dataclass(frozen=True)
class BouncingAudit:
    action: float
    sup_x_defect: float
    sup_dxdI_defect: float
    dxdI_at_0: float


def bouncing_limit_audit(pot: PotentialSpec, I_list, cfg: IntegratorConfig,
                         delta: float = 0.1, n_grid: int = 2001):
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
        traj = integrate_autonomous(pot, State(r, 0.0), 0.0, TWO_PI, cfg)
        t_full = np.linspace(0.0, TWO_PI, n_grid)
        x, _ = traj.eval(t_full)
        limit_x = 2.0 * math.sqrt(2.0) * np.abs(np.cos(0.5 * t_full))
        sup_x = float(np.max(np.abs(x / sqrt_i - limit_x)))

        t_in = np.linspace(0.0, math.pi - delta, n_grid // 2)
        dxdi = dx_dI_rofe_beketov(pot, r, t_in, cfg)
        limit_d = math.sqrt(2.0) * np.abs(np.cos(0.5 * t_in))
        sup_d = float(np.max(np.abs(sqrt_i * dxdi - limit_d)))
        records.append(BouncingAudit(action=action, sup_x_defect=sup_x,
                                     sup_dxdI_defect=sup_d,
                                     dxdI_at_0=float(sqrt_i * dxdi[0])))
    return records

