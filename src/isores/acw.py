"""The multiplicative Pinney-type equation x'' + x = R(t)/x^3 with a
pi-periodic two-level R: exact quarter-period maps, the composed Poincare
map and its first integral, orbit iteration, and cross-validation against
direct integration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericsError
from .integrate import IntegratorConfig, _compile_system, integrate_ode


@dataclass(frozen=True)
class AcwState:
    """Point of the half-plane D = (0, inf) x R."""
    x: float
    y: float

    def __post_init__(self):
        if not (self.x > 0):
            raise NumericsError("AcwState: x must be positive")


def _check_c(c: float):     # the one check of the level c of R
    if not 0 < c < math.inf:
        raise ConfigError("c: must be finite and positive")


def phi_lambda(lam: float, s: AcwState) -> AcwState:
    """Time-pi/2 solution map of x'' + x = lam/x^3 (lam > 0):
    (x0, y0) -> (x0*phi, -y0/phi) with phi = sqrt(y0^2/x0^2 + lam/x0^4)."""
    if lam <= 0:
        raise NumericsError("phi_lambda: lam must be positive")
    phi = math.sqrt(s.y ** 2 / s.x ** 2 + lam / s.x ** 4)
    return AcwState(s.x * phi, -s.y / phi)


def acw_poincare(c: float, s: AcwState) -> AcwState:
    """Poincare map of x'' + x = R(t)/x^3 over one period pi, where R is 1 on
    [0, pi/2) and c on [pi/2, pi):
    (x0, y0) -> (x0*Pi, y0/Pi), Pi = sqrt((x0^2 y0^2 + c)/(x0^2 y0^2 + 1)).
    Algebraically identical to phi_lambda(c) o phi_lambda(1)."""
    _check_c(c)
    q = s.x * s.x * s.y * s.y
    pi_factor = math.sqrt((q + c) / (q + 1.0))
    return AcwState(s.x * pi_factor, s.y / pi_factor)


def two_piece_map(r1: float, r2: float, s: AcwState) -> AcwState:
    """Period map for a general pi-periodic two-level profile (r1 on the
    first quarter-period, r2 on the second)."""
    return phi_lambda(r2, phi_lambda(r1, s))


def acw_first_integral(s: AcwState) -> float:
    """I(x, y) = x*y, invariant under the Poincare map."""
    return s.x * s.y


def acw_orbit(c: float, s0: AcwState, n_steps: int):
    """Iterates (x_n, y_n) of the Poincare map; geometric in n because the
    growth factor Pi is itself a first integral."""
    _check_c(c)
    if n_steps < 1:
        raise ValueError("acw_orbit: n_steps must be >= 1")
    out = [s0]
    s = s0
    for _ in range(n_steps):
        s = acw_poincare(c, s)
        out.append(s)
    return out


@dataclass(frozen=True)
class AcwCheck:
    analytic: AcwState
    numeric: AcwState
    max_err: float


def acw_numeric_check(c: float, s0: AcwState, cfg: IntegratorConfig) -> AcwCheck:
    """Integrate x'' + x = R(t)/x^3 over [0, pi] (Caratheodory: the step
    grid splits exactly at the R jump at pi/2) and compare the endpoint with
    the closed-form Poincare map."""
    analytic = acw_poincare(c, s0)      # checks c
    # R is read once per span at tm, a time inside it, so the stages at
    # pi/2 read the span's own piece
    fun = _compile_system(2, ["x = s_0",
                              "if x < 1e-9: x = 1e-9",
                              "r_0 = s_1",
                              "r_1 = -s_0 + lam / x ** 3"],
                          {"pi": math.pi, "half_pi": 0.5 * math.pi, "c": c},
                          guard=("x_zero_guard", "z_0 - 1e-9"),
                          span=["lam = 1.0 if tm % pi < half_pi else c"])
    raw = integrate_ode(fun, [s0.x, s0.y], 0.0, math.pi, cfg, breakpoints=[0.5 * math.pi])
    numeric = AcwState(float(raw.ys[-1, 0]), float(raw.ys[-1, 1]))
    err = max(abs(numeric.x - analytic.x), abs(numeric.y - analytic.y))
    return AcwCheck(analytic=analytic, numeric=numeric, max_err=err)


def write_acw_csv(orbit, path):
    """CSV export with columns n,x,y,xy."""
    from .io import write_csv
    rows = [(n, s.x, s.y, s.x * s.y) for n, s in enumerate(orbit)]
    return write_csv(path, ["n", "x", "y", "xy"], rows)
