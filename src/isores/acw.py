"""The multiplicative Pinney-type equation x'' + x = R(t)/x^3 with a
pi-periodic two-level R: exact quarter-period maps, the composed Poincare
map and its first integral, orbit iteration, and cross-validation against
direct integration."""

from __future__ import annotations

import math

from ._record import record
from .errors import ConfigError, NumericsError
from .integrate import IntegratorConfig, solve_forced
from .potentials import custom


@record
class AcwState:
    """Point of the half-plane D = (0, inf) x R, in floats."""
    x: float
    y: float

    def __post_init__(self):
        if not (0 < self.x < math.inf and math.isfinite(self.y)):
            raise NumericsError(f"AcwState: need a finite x > 0 and a finite y, got {self}")


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
    Algebraically identical to phi_lambda(c) o phi_lambda(1).  x0^2 y0^2 is
    the first integral squared, inf where |x0 y0| > 1.3e154; Pi is then its
    limit 1, to which it rounds already from x0^2 y0^2 ~ 1e32 on."""
    _check_c(c)
    i = s.x * s.y
    q = i * i
    pi_factor = math.sqrt((q + c) / (q + 1.0)) if q < math.inf else 1.0
    return AcwState(s.x * pi_factor, s.y / pi_factor)


def two_piece_map(r1: float, r2: float, s: AcwState) -> AcwState:
    """Period map for a general pi-periodic two-level profile (r1 on the
    first quarter-period, r2 on the second).  Public API, exported by isores;
    the package does not call it (acw_poincare is its r1 = 1, r2 = c case)."""
    return phi_lambda(r2, phi_lambda(r1, s))


def acw_first_integral(s: AcwState) -> float:
    """I(x, y) = x*y, invariant under the Poincare map."""
    return s.x * s.y


def acw_orbit(c: float, s0: AcwState, n_steps: int):
    """Iterates (x_n, y_n) of the Poincare map; geometric in n because the
    growth factor Pi is itself a first integral.  An iterate past the float
    range (x_1024 = 2^1024 from (1, 0) at c = 4) raises NumericsError."""
    _check_c(c)
    if n_steps < 1:
        raise ConfigError("steps: must be an integer >= 1")
    out = [s0]
    s = s0
    for n in range(1, n_steps + 1):
        try:
            s = acw_poincare(c, s)
        except NumericsError as exc:
            raise NumericsError(f"acw_orbit: step {n} leaves the float range ({exc})") from None
        out.append(s)
    return out


def _ermakov(lam: float):     # x'' + x = lam/x^3 is x'' = -V'(x) on (0, inf)
    return custom(lambda x: 0.5 * x * x + 0.5 * lam / (x * x), lambda x: x - lam / x ** 3,
                  lambda x: 1.0 + 3.0 * lam / x ** 4, domain_left=0.0)


@record
class AcwCheck:
    analytic: AcwState
    numeric: AcwState
    max_err: float


def acw_numeric_check(c: float, s0: AcwState, cfg: IntegratorConfig) -> AcwCheck:
    """Integrate x'' + x = R(t)/x^3 over [0, pi], one solve per quarter
    period on the centre V = x^2/2 + R/(2 x^2) with R's level on it
    (Caratheodory: no step straddles the R jump at pi/2), and compare the
    endpoint with the closed-form Poincare map."""
    analytic = acw_poincare(c, s0)      # checks c
    y = [s0.x, s0.y]
    for lam, t0 in ((1.0, 0.0), (c, 0.5 * math.pi)):
        y = solve_forced(_ermakov(lam), None, 0.0, y, t0, t0 + 0.5 * math.pi,
                         cfg).ys[-1].tolist()
    numeric = AcwState(*y)
    err = max(abs(numeric.x - analytic.x), abs(numeric.y - analytic.y))
    return AcwCheck(analytic=analytic, numeric=numeric, max_err=err)


def write_acw_csv(orbit, path):
    """CSV export with columns n,x,y,xy."""
    from .io import write_csv
    rows = [(n, s.x, s.y, s.x * s.y) for n, s in enumerate(orbit)]
    return write_csv(path, ["n", "x", "y", "xy"], rows)
