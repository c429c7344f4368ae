"""Potential families for isochronous centers: harmonic, shifted Pinney,
asymmetric (piecewise-quadratic), and user-supplied callbacks; inverse_V,
the inversion of V on either side of the centre, exact to rounding at every
level; and the singular-endpoint sigma map with its structural audit."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericsError

DOMAIN_GUARD = 1e-14
_BRENT_RTOL = 4 * math.ulp(1.0)


def brentq(f, a, b, *, xtol, rtol, maxiter=100):
    """A zero of f in the bracket [a, b], where f(a) and f(b) differ in sign:
    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4), transcribed from the C loop of scipy's optimize.brentq iterate
    for iterate, so it returns the same float.  It stops when f is 0 or the
    bracket is narrower than xtol + rtol*|x|.  A nan value of f or a bracket
    without a sign change raises ValueError; running out of maxiter
    iterations raises NumericsError."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    # xcur is the best iterate and xblk the other end of the bracket; xpre
    # is the previous iterate, and spre, scur the previous two steps
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf                 # bisect unless interpolation steps short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C gets inf or nan here, and bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericsError(f"brentq: no convergence after {maxiter} iterations "
                        f"(last iterate {xcur!r})")


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A potential V with its derivatives and structural metadata.

    ``n_iso`` is the isochrony integer N (minimal period 2*pi/N) when known;
    None means the potential has not been certified isochronous and callers
    must audit the period themselves.  Evaluator callbacks must be pure and
    accept numpy arrays.  A built-in family declares V, V' and V'' once, as
    expression text in a float x (_declared): its callbacks evaluate that
    text, and ``scalar`` is (dv, d2v, constants), the text of V' and V''
    with the values of the constants they read, which the integrator
    compiles into its right-hand sides.  Only a custom potential (scalar
    None) has its _dv and _d2v called with Python floats by the integrator,
    which uses each result as a scalar.
    """

    kind: str
    params: tuple
    domain_left: float
    n_iso: int | None
    _v: callable
    _dv: callable
    _d2v: callable
    kink_at_zero: bool = False
    scalar: tuple | None = None

    @property
    def singular_left(self):
        return math.isfinite(self.domain_left)

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError(f"{self.kind}: non-finite evaluation point")
        if self.singular_left and np.any(x <= self.domain_left + DOMAIN_GUARD):
            raise DomainError(
                f"{self.kind}: x <= {self.domain_left} + {DOMAIN_GUARD} is outside the domain")
        return x

    def _evaluate(self, callback, x):
        out = callback(self._check_domain(x))
        return out if np.ndim(out) else float(out)

    def v(self, x):
        return self._evaluate(self._v, x)

    def dv(self, x):
        return self._evaluate(self._dv, x)

    def d2v(self, x):
        return self._evaluate(self._d2v, x)

    def require_isochronous(self):
        if self.n_iso is None:
            raise ConfigError(
                f"{self.kind}: operation requires a certified isochrony integer; "
                "audit the period first (minimal_period) and construct with n_iso")
        return self.n_iso


def _declared(kind, params, domain_left, n_iso, v, dv, d2v, constants, kink_at_zero=False):
    """A built-in family from its one declaration: V, V' and V'' as
    expression text in a float x (squares written as products, since a float
    ** raises OverflowError where a product is inf) and the values of the
    constants they read.  Each text is compiled once and taken by a float or
    by each element of an array, so both see the same float arithmetic."""
    def elementwise(expr):
        f = eval(f"lambda x: {expr}", dict(constants))
        return lambda x: (np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
                          if np.ndim(x) else f(float(x)))
    return PotentialSpec(kind, params, domain_left, n_iso, *map(elementwise, (v, dv, d2v)),
                         kink_at_zero=kink_at_zero, scalar=(dv, d2v, constants))


@functools.lru_cache(maxsize=64)
def harmonic(n: int) -> PotentialSpec:
    """V(x) = n^2 x^2 / 2; every orbit has minimal period 2*pi/n."""
    if n < 1 or n != int(n):
        raise ConfigError("potential.n: must be a positive integer")
    n = int(n)
    return _declared("harmonic", (n,), -math.inf, n,
                     "0.5 * n2 * x * x", "n2 * x", "n2", {"n2": float(n * n)})


@functools.lru_cache(maxsize=1)
def pinney() -> PotentialSpec:
    """Shifted Pinney potential on (-1, inf), with a vertical asymptote at
    x=-1: V(x) = ((x+1)^2 + (x+1)^-2)/8 - 1/4, evaluated as (x(x+2)/(x+1))^2/8,
    which does not cancel near 0.  All orbits are 2*pi-periodic."""
    return _declared("pinney", (), -1.0, 1,
                     "0.125 * ((w := x * (x + 2.0) / (x + 1.0)) * w)",
                     "0.25 * ((x + 1.0) - (x + 1.0) ** -3)",
                     "0.25 + 0.75 * (x + 1.0) ** -4", {})


@functools.lru_cache(maxsize=64)
def asymmetric(alpha: float, beta: float) -> PotentialSpec:
    """V(x) = (alpha (x^+)^2 + beta (x^-)^2)/2.

    V'' jumps at x=0; by convention d2v(0) = alpha.  The minimal period is
    pi/sqrt(alpha) + pi/sqrt(beta); when that equals 2*pi/N for an integer N
    the potential is registered as isochronous, otherwise n_iso is None and
    only the measured period is meaningful.
    """
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ConfigError("potential.alpha/beta: must be finite and positive")
    alpha, beta = float(alpha), float(beta)
    nu = 2.0 / (1.0 / math.sqrt(alpha) + 1.0 / math.sqrt(beta))
    n_iso = int(round(nu)) if abs(nu - round(nu)) < 1e-9 and round(nu) >= 1 else None
    return _declared("asymmetric", (alpha, beta), -math.inf, n_iso,
                     "0.5 * (alpha * (x * x) if x > 0 else beta * (x * x))",
                     "alpha * x if x > 0 else beta * x", "alpha if x >= 0 else beta",
                     {"alpha": alpha, "beta": beta}, kink_at_zero=True)


def custom(v, dv, d2v, domain_left=-math.inf, n_iso=None,
           kink_at_zero=False) -> PotentialSpec:
    """Wrap user-supplied evaluators.  Isochrony is not assumed: pass n_iso
    only after auditing the period.  Its kind is always "custom": the
    closed forms that phi and autonomous pick by kind belong to the
    built-in families only."""
    return PotentialSpec(kind="custom", params=(), domain_left=float(domain_left),
                         n_iso=n_iso, _v=v, _dv=dv, _d2v=d2v,
                         kink_at_zero=kink_at_zero)


def _level_gap(pot, level):
    """g(s) = V(s) - level, +inf where V overflows (an OverflowError of a
    float callback included): above every level."""
    def g(s):
        try:
            return pot.v(s) - level
        except OverflowError:
            return math.inf
    return g


# brentq stops on a width relative to the root x of V = level, 8.9e-16 |x|
# plus the smallest subnormal, so a root of any size is exact to rounding
_LEVEL_RTOL, _LEVEL_XTOL = 8.9e-16, math.ulp(0.0)


def inverse_V(pot: PotentialSpec, level: float, side: int) -> float:
    """The unique x with V(x) = level (0 < level < inf) on one side of the
    centre: (0, inf) for side = 1, (a, 0) for side = -1.

    One walk brackets it on either side, from x0 = side (a/2 where that side
    ends at a finite a) along the ladder x0 2^(k/2): outward while V is below
    the level, inward while V is above it; on a finite side an outward step
    halves the gap to a, down to the first float above a + DOMAIN_GUARD, the
    point of V's domain nearest a (_check_domain rejects x <= a +
    DOMAIN_GUARD).  The first two points that straddle the level bracket the
    root (a point on the level is it), and brentq narrows the bracket to a
    width relative to the root."""
    if not 0 < level < math.inf:
        raise DomainError("inverse_V: level must be finite and positive")
    a = pot.domain_left if side < 0 else math.inf
    x0 = a / 2.0 if math.isfinite(a) else float(side)
    g = _level_gap(pot, level)
    floor = math.nextafter(a + DOMAIN_GUARD, math.inf)

    def point(k):
        if k > 0 and math.isfinite(a):
            return max(a + (x0 - a) * 2.0 ** -k, floor)
        return x0 * 2.0 ** (k / 2.0) if k < 2048 else math.inf

    k, x, gx = 0, x0, g(x0)
    step = 1 if gx < 0 else -1
    while gx != 0:
        nxt = point(k + step)
        if nxt in (x, 0.0) or math.isinf(nxt):
            raise NumericsError(f"inverse_V: could not bracket V = {level} on side {side}")
        gn = g(nxt)
        if gn != 0 and (gn < 0) != (gx < 0):
            r = brentq(g, min(x, nxt), max(x, nxt), xtol=_LEVEL_XTOL, rtol=_LEVEL_RTOL,
                       maxiter=200)
            # where V overflows just past r towards the end above the level,
            # the sign change is that overflow and not the level
            above = nxt if gn > 0 else x
            if math.isinf(g(r + math.copysign(_LEVEL_XTOL + _LEVEL_RTOL * abs(r), above - r))):
                raise NumericsError(f"inverse_V: V overflows before it reaches {level}")
            return r
        k, x, gx = k + step, nxt, gn
    return x


def sigma_map(pot: PotentialSpec, x: float) -> float:
    """The negative preimage sigma(x) in (a, 0) with V(sigma(x)) = V(x), by
    inverse_V; needs a finite singular left endpoint a and x > 0."""
    if not pot.singular_left:
        raise DomainError(f"{pot.kind}: sigma map needs a finite left endpoint")
    if x <= 0:
        raise DomainError("sigma_map: x must be positive")
    return inverse_V(pot, pot.v(x), -1)


@dataclass(frozen=True)
class AppendixAudit:
    """Per-point diagnostics of the singular-isochronous structure:
    iso_residuals[i] = V(x_i) - (x_i - sigma(x_i))^2 / 8 and
    slope_defects[i] = V'(x_i) - x_i/4, to be compared with slope_limit."""

    x: np.ndarray
    iso_residuals: np.ndarray
    slope_defects: np.ndarray
    slope_limit: float


def appendix_audit(pot: PotentialSpec, x_grid) -> AppendixAudit:
    """Audit the identity V(x) = (x - sigma(x))^2/8 and the slope defect
    V'(x) - x/4 on a grid of positive points (2*pi-isochronous potentials
    with one asymptote)."""
    if pot.require_isochronous() != 1:
        raise ConfigError(f"{pot.kind}: appendix audit needs minimal period 2*pi")
    if not pot.singular_left:
        raise DomainError(f"{pot.kind}: appendix audit needs a finite left endpoint")
    x = np.asarray(x_grid, dtype=float)
    if not np.all((0 < x) & (x < math.inf)):
        raise ConfigError("x: every appendix audit point must be finite and positive")
    sig = np.array([sigma_map(pot, xi) for xi in x])
    iso = pot.v(x) - (x - sig) ** 2 / 8.0
    slope = pot.dv(x) - x / 4.0
    return AppendixAudit(x=x, iso_residuals=np.asarray(iso),
                         slope_defects=np.asarray(slope),
                         slope_limit=-pot.domain_left / 4.0)


def potential_from_descriptor(d) -> PotentialSpec:
    """Build a PotentialSpec from its JSON descriptor (dict)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("potential: descriptor must be an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "harmonic":
            return harmonic(int(d["n"]))
        if kind == "pinney":
            return pinney()
        if kind == "asymmetric":
            return asymmetric(float(d["alpha"]), float(d["beta"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"potential: malformed descriptor ({exc})") from exc
    raise ConfigError(f"potential.kind: unknown kind {kind!r}")

