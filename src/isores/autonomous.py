"""Unforced dynamics of a potential center: orbits, the complex variational
solution, measured minimal periods, action-angle coordinates, the
Rofe-Beketov action derivative, the negative semi-period, and large-action
(bouncing) limit audits.  Action-angle
coordinates need a certified n_iso = N: every period is then 2*pi/N, so
I = E/N = V(r)/N both ways, with no area quadrature and no measured period."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .forcing import TWO_PI, _quad_checked
from .integrate import (VARIATIONAL, IntegratorConfig, RawSolution, State,
                        integrate_autonomous, solve_forced)
from .potentials import PotentialSpec, inverse_V


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
    amplitude r (psi(0)=1, psi'(0)=i) for every 0 <= r <= inf.  With mu =
    (1 + r)^-4, r = 0 (mu = 1) is the linearisation e^{it} and r = inf
    (mu = 0) the large-amplitude limit |cos(t/2)| + 2i sin(t/2) sgn cos(t/2)."""
    mu = 0.0 if math.isinf(r) else (1.0 + float(r)) ** -4
    t = np.asarray(t, dtype=float)
    c2 = np.cos(0.5 * t) ** 2
    s2 = np.sin(0.5 * t) ** 2
    den = np.sqrt(c2 + mu * s2)
    return (c2 - mu * s2) / den + 1j * (np.sin(t) / den)


def carlson_rf_rd(x, y, z):
    """Carlson's symmetric integrals (R_F(x, y, z), R_D(x, y, z)) for x, y, z
    >= 0 with at most one of x, y zero and z > 0.  One duplication loop
    serves both, since they contract the same iterates x, y, z (Carlson,
    Numer. Algorithms 10, 1995; DLMF 19.36.1-2); R_D also sums
    4^-n / (sqrt(z_n) (z_n + lam_n)).  The loop stops when 4^-n Q < A_n for
    every element and both means, which bounds each series remainder by
    r = 2^-53: Q is (3r)^-1/6 max|A0 - x_i| for R_F and (r/4)^-1/6 for R_D."""
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    a0_f, a0_d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    spread = np.maximum(np.abs(x - z), np.abs(y - z)) + np.abs(x - y)
    q = (2.0 ** -55) ** (-1 / 6) * spread       # >= both Q: |A0 - x_i| <= spread
    x0, y0 = x, y
    a_f, a_d, tail, scale = a0_f, a0_d, np.zeros(x.shape), 1.0
    while np.any(q * scale >= np.minimum(a_f, a_d)):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail = tail + scale / (sz * (z + lam))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        a_f, a_d, scale = 0.25 * (a_f + lam), 0.25 * (a_d + lam), 0.25 * scale
    fx, fy = scale * (a0_f - x0) / a_f, scale * (a0_f - y0) / a_f
    fz = -(fx + fy)
    e2, e3 = fx * fy - fz * fz, fx * fy * fz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a_f)
    dx, dy = scale * (a0_d - x0) / a_d, scale * (a0_d - y0) / a_d
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * dz
    rd = (scale / (a_d * np.sqrt(a_d))
          * (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
             - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0) + 3.0 * tail)
    return rf, rd


def pinney_psi_antiderivative(r, t):
    """Psi(t, r) = int_0^t psi(s, r) ds on the Pinney orbit of amplitude r
    (r = inf the limit profile), exact for every real t.  With mu = (1 + r)^-4,
    c, s = cos, sin of phi = t/2 in [0, pi/2] and y = c^2 + mu s^2, psi
    integrates to the incomplete elliptic integrals E and F of parameter
    1 - mu; DLMF 19.25.10 writes E with R_F and R_D so that no 1/(1 - mu) and
    no cancellation is left at either end:
        Re Psi = 2 (1 + mu) c s / sqrt(y) - 2 mu s R_F(c^2, 1, y)
                 + (2/3) mu (1 + mu) s^3 R_D(c^2, 1, y),
        Im Psi = 4 s^2 / (1 + sqrt(y)).
    Re psi is even about 0 and pi, so t in (pi, 2pi) reads 2 Re Psi(pi) -
    Re Psi(2pi - t), and each period adds 2 Re Psi(pi).  At mu = 0 the R_F,
    R_D terms vanish: Re Psi = 2 s over the first half period."""
    mu = 0.0 if math.isinf(r) else (1.0 + float(r)) ** -4
    shape, t = np.shape(t), np.ravel(np.asarray(t, dtype=float))
    turns = np.floor(t / TWO_PI)
    u = t - TWO_PI * turns
    back = u > math.pi
    phi = 0.5 * np.append(np.where(back, TWO_PI - u, u), math.pi)   # and t = pi
    s, c = np.sin(phi), np.cos(phi)
    y = c * c + mu * s * s
    re = 2.0 * (1.0 + mu) * c * s / np.sqrt(y)
    if mu > 0.0:
        rf, rd = carlson_rf_rd(c * c, 1.0, y)
        re = re + mu * s * ((2.0 / 3.0) * (1.0 + mu) * s * s * rd - 2.0 * rf)
    im = 4.0 * s * s / (1.0 + np.sqrt(y))
    re = 2.0 * (turns + back) * re[-1] + np.where(back, -re[:-1], re[:-1])
    return (re + 1j * im[:-1]).reshape(shape)


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
# periods

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
    """The amplitude whose psi serves r, and the one check of r: DomainError
    unless 0 <= r <= inf.  The harmonic and asymmetric centers are
    positively homogeneous of degree 2 (x(t; r) = r x(t; 1), V''(r x) =
    V''(x)), so every finite r >= 0 shares psi(., 1), r = 0 as its r -> 0+
    limit; any other potential keeps its r (Pinney's r = inf too)."""
    if not r >= 0:
        raise DomainError(f"r must be nonnegative or inf, got {r}")
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

@dataclass(frozen=True)
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
    the action is E/N, the angle the travel time from the section
    {v=0, x>0} times 2*pi over the period 2*pi/N."""
    e = 0.5 * s.v * s.v + float(pot.v(s.x))
    if not 0.0 < e < math.inf:
        raise DomainError("to_action_angle: the energy must be finite and positive")
    n = pot.require_isochronous()
    if s.v == 0.0 and s.x > 0.0:
        return ActionAngle(0.0, e / n)
    # reversibility: the forward orbit from (x, -v) reaches (r, 0) at the
    # same travel time at which the original point was reached from (r, 0)
    tau = _section_return(pot, State(s.x, -s.v), 1.25 * TWO_PI / n, cfg)
    if tau is None:
        raise NumericsError("to_action_angle: section return not found")
    return ActionAngle(math.fmod(n * tau, TWO_PI), e / n)


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

# The Rofe-Beketov integrand (1 - V''(x)) (xdot^2 - xddot^2) / (xdot^2 + xddot^2)^2
# as forced_system's extra line: the system over (x, v, its integral)
ROFE_BEKETOV = "(1.0 - d2v) * (s_1 * s_1 - r_1 * r_1) / (s_1 * s_1 + r_1 * r_1) ** 2"


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
    """Time per period spent at x < 0 by the orbit of the given action:
    sqrt(2) * integral over (r_-, 0) of dx / sqrt(Omega(I) - V(x)),
    with a square-root substitution at the turning point.

    Pinney's is closed form: on its orbit x < 0 iff cos^2(t/2) < 1/(l + 1)
    with l = 4I + 1 + sqrt((4I + 1)^2 - 1), so T- = 2 pi - 4 arccos((l + 1)^-1/2)
    = 4 arcsin((l + 1)^-1/2).  (4I + 1)^2 - 1 is written 8I(1 + 2I), and
    arcsin spares the difference: within 1e-15 of 40-digit arithmetic for
    I = 1e-10...1e8.  Its quadrature would lose digits at small I, where
    E - V(x) cancels near the turning point (6e-5 at I = 1e-8)."""
    n = pot.require_isochronous()
    if not 0 < action < math.inf:
        raise DomainError("negative_semiperiod: action must be finite and positive")
    if pot.kind == "pinney":
        lam2 = 4.0 * action + 1.0 + math.sqrt(8.0 * action * (1.0 + 2.0 * action))
        return 4.0 * math.asin(1.0 / math.sqrt(lam2 + 1.0))
    energy = n * action
    r_neg = inverse_V(pot, energy, -1)

    def integrand(u):
        val = energy - pot.v(r_neg * (1.0 - u * u))
        return 2.0 * abs(r_neg) * u / np.sqrt(np.maximum(val, 1e-300))

    return math.sqrt(2.0) * _quad_checked(integrand, 0.0, 1.0)


# ---------------------------------------------------------------------------
# bouncing-problem limit audit

_BOUNCING_GRID = 2001       # times over the period; half as many inside (0, pi - delta)


@dataclass(frozen=True)
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
        traj = integrate_autonomous(pot, State(r, 0.0), 0.0, TWO_PI, cfg)
        t_full = np.linspace(0.0, TWO_PI, _BOUNCING_GRID)
        x, _ = traj.eval(t_full)
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

