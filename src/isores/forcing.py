"""2*pi-periodic forcing terms: trigonometric polynomials, piecewise-constant
profiles and sampled signals, their L1 norms and Fourier data, and the one
adaptive quadrature of the package (adaptive_complex_quad)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError

TWO_PI = 2.0 * math.pi


class ForcingTerm:
    """Base class for 2*pi-periodic locally integrable forcings.

    Instances are immutable and all evaluations are pure, so they can be
    shared freely between threads.
    """

    def eval(self, t):
        raise NotImplementedError

    def jump_points(self):
        """Discontinuity times of p within [0, 2*pi), as a sorted array."""
        return np.empty(0)

    def kink_points(self):
        """Times in [0, 2*pi) where p is continuous but not smooth."""
        return np.empty(0)

    def split_points(self):
        """All smoothness breakpoints (jumps plus kinks) in [0, 2*pi)."""
        pts = np.concatenate([self.jump_points(), self.kink_points()])
        return np.unique(pts)


@dataclass(frozen=True, eq=False)
class TrigPoly(ForcingTerm):
    """a0 + sum_k (a_k cos(kt) + b_k sin(kt)) with finitely many harmonics."""

    a0: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        for name in ("a0", "cos_coeffs", "sin_coeffs"):
            vals = getattr(self, name)
            vals = vals if isinstance(vals, tuple) else (vals,)
            if not all(math.isfinite(v) for v in vals):
                raise ConfigError(f"forcing.{name}: coefficients must be finite")
        # (k, a_k, b_k) for every harmonic with a nonzero coefficient
        terms = tuple((k,) + self.harmonic(k) for k in range(1, self.degree + 1))
        object.__setattr__(self, "_terms", tuple(h for h in terms if h[1] or h[2]))

    @property
    def degree(self):
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def harmonic(self, k):
        """(a_k, b_k) with zero padding beyond the stored degree; k >= 1."""
        a = self.cos_coeffs[k - 1] if k <= len(self.cos_coeffs) else 0.0
        b = self.sin_coeffs[k - 1] if k <= len(self.sin_coeffs) else 0.0
        return a, b

    def eval(self, t):
        if isinstance(t, float):
            # scalar fast path (the integrator's right-hand side); the same
            # operations in the same order as the array path below
            out = self.a0
            for k, a, b in self._terms:
                if a:
                    out = out + a * math.cos(k * t)
                if b:
                    out = out + b * math.sin(k * t)
            return out
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.a0, dtype=float)
        for k, a, b in self._terms:
            if a:
                out = out + a * np.cos(k * t)
            if b:
                out = out + b * np.sin(k * t)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class PiecewiseConst(ForcingTerm):
    """Right-continuous step function of period ``period`` (a divisor of 2*pi).

    ``breakpoints`` are the piece starts within [0, period); the value at a
    breakpoint belongs to the piece on its right.  Times below the first
    breakpoint wrap around to the last piece.
    """

    breakpoints: tuple
    values: tuple
    period: float = TWO_PI

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.period <= 0 or not math.isfinite(self.period):
            raise ConfigError("forcing.period: must be a positive real")
        m = TWO_PI / self.period
        if abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise ConfigError("forcing.period: 2*pi/period must be a positive integer")
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ConfigError("forcing.breaks: need one value per breakpoint")
        b = np.asarray(self.breakpoints)
        if np.any(np.diff(b) <= 0) or b[0] < 0 or b[-1] >= self.period:
            raise ConfigError("forcing.breaks: must be strictly increasing within [0, period)")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError("forcing.values: must be finite")

    @property
    def repetitions(self):
        return int(round(TWO_PI / self.period))

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        tau = np.mod(t, self.period)
        idx = np.searchsorted(self.breakpoints, tau, side="right") - 1
        vals = np.asarray(self.values)[idx % len(self.values)]
        return vals if vals.ndim else float(vals)

    def jump_points(self):
        base = np.asarray(self.breakpoints)
        pts = np.concatenate([base + k * self.period for k in range(self.repetitions)])
        return np.unique(np.mod(pts, TWO_PI))


@dataclass(frozen=True, eq=False)
class Sampled(ForcingTerm):
    """Values on the uniform grid 2*pi*j/n, j=0..n-1, linearly interpolated
    and wrapped periodically."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 2:
            raise ConfigError("forcing.values: sampled forcing needs >= 2 samples")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError("forcing.values: must be finite")

    @property
    def times(self):
        return np.linspace(0.0, TWO_PI, len(self.values), endpoint=False)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        tau = np.mod(t, TWO_PI)
        tgrid = np.append(self.times, TWO_PI)
        vgrid = np.append(self.values, self.values[0])
        out = np.interp(tau, tgrid, vgrid)
        return out if out.ndim else float(out)

    def kink_points(self):
        return self.times.copy()


def tiled_split_points(f: ForcingTerm, a: float, b: float):
    """f's smoothness breakpoints pts + k*2*pi over every period that meets
    [a, b], and one more on each side, unsorted."""
    pts = f.split_points()
    k0 = math.floor(a / TWO_PI) - 1
    k1 = math.ceil(b / TWO_PI) + 1
    return np.concatenate([pts + k * TWO_PI for k in range(k0, k1 + 1)])


def _partition(a, b, points=()):
    """a, the points strictly inside (a, b) in order, and b."""
    pts = np.asarray(points, dtype=float)
    return np.concatenate([[a], np.unique(pts[(pts > a + 1e-13) & (pts < b - 1e-13)]), [b]])


@functools.lru_cache(maxsize=None)
def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


# Live segments one integral may hold before it stops refining (QUADPACK's
# limit): at its noise floor an integrand would double them on every pass.
_MAX_LIVE = 800


def adaptive_complex_quad(g, segments, rtol=1e-11, atol=1e-13,
                          min_width=1e-13, order=16, hard_rtol=None):
    """Adaptive Gauss-Legendre quadrature of many complex integrals at once.

    ``segments`` = (a, b, owner) arrays: [a[j], b[j]] is a piece of integral
    owner[j].  The vectorized ``g(x, k)`` evaluates integral k[j] at x[j].
    Each integral keeps its own h-refinement error control; returns integrals
    0..max(owner).  An integral stops refining a segment narrower than min_width
    of its length, and all its segments once it holds more than _MAX_LIVE; their
    error is its forced error: NumericsError above 10 times its tolerance, or
    above hard_rtol*max(1, |I|) if given."""
    nodes, weights = _gauss(order)
    a, b, k = map(np.asarray, segments)
    n = int(k.max()) + 1

    def gl(a, b, k):
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        x = mid + half * nodes[None, :]
        vals = g(x.ravel(), np.repeat(k, order)).reshape(x.shape)
        return (vals * weights[None, :]).sum(axis=1) * half[:, 0]

    def per_owner(w, k):
        # bincount adds each owner's terms in segment order
        return np.bincount(k, weights=w, minlength=n)

    total_len = per_owner(b - a, k)
    est = gl(a, b, k)
    tol = atol + rtol * np.maximum(per_owner(np.abs(est), k), atol)

    parts = []           # (values, owners) of the finished segments
    forced_err = np.zeros(n)
    while a.size:
        m = 0.5 * (a + b)
        left = gl(a, m, k)
        right = gl(m, b, k)
        child = left + right
        err = np.abs(child - est)
        done = err <= tol[k] * (b - a) / total_len[k]
        go = ~done & ((b - a) >= min_width * total_len[k])
        go &= (per_owner(go, k) <= _MAX_LIVE)[k]
        parts.append((child[~go], k[~go]))
        forced_err += per_owner(err * ~(done | go), k)
        a = np.stack([a[go], m[go]], axis=1).ravel()
        b = np.stack([m[go], b[go]], axis=1).ravel()
        est = np.stack([left[go], right[go]], axis=1).ravel()
        k = np.repeat(k[go], 2)
    vals, owner = map(np.concatenate, zip(*parts))
    out = per_owner(vals.real, owner) + 1j * per_owner(vals.imag, owner)
    bound = 10.0 * tol if hard_rtol is None else hard_rtol * np.maximum(1.0, np.abs(out))
    if np.any(forced_err > bound):
        raise NumericsError("adaptive quadrature stalled with residual error "
                            f"{forced_err.max():.2e}")
    return out


def _quad_checked(integrand, a, b, points=()):
    """Integral of the vectorized real or complex integrand over [a, b], split
    at the points, as a Python float or complex: one adaptive_complex_quad
    integral held to its achieved error, not its tolerance (near-center orbits
    reach the noise floor of E - V(x) first): NumericsError above 1e-5*max(1, |I|)."""
    knots = _partition(a, b, points)
    segments = (knots[:-1], knots[1:], np.zeros(knots.size - 1, int))
    val = adaptive_complex_quad(lambda t, k: integrand(t), segments, hard_rtol=1e-5)[0]
    return float(val.real) if val.imag == 0 else complex(val)


@functools.lru_cache(maxsize=256)
def l1_norm(f: ForcingTerm) -> float:
    """Integral of |p| over one period, by adaptive quadrature split at the
    breakpoints of p (relative tolerance well below 1e-10)."""
    return _quad_checked(lambda t: np.abs(f.eval(t)), 0.0, TWO_PI,
                         tiled_split_points(f, 0.0, TWO_PI))


def abs_integral(f: ForcingTerm, t: float) -> float:
    """Integral of |p| over [0, t] for t >= 0 (whole periods reuse l1_norm)."""
    if t < 0:
        raise ValueError("abs_integral: t must be nonnegative")
    k = math.floor(t / TWO_PI)
    rem = t - k * TWO_PI
    total = k * l1_norm(f)
    if rem > 0:
        total += _quad_checked(lambda s: np.abs(f.eval(s)), 0.0, rem,
                               tiled_split_points(f, 0.0, rem))
    return total


def fourier_coefficient(f: ForcingTerm, n: int) -> complex:
    """I_n(p) = integral of p(t) e^{int} over [0, 2*pi], n >= 1.

    Exact for trigonometric polynomials and step functions; adaptive
    quadrature otherwise.
    """
    if n < 1:
        raise ValueError("fourier_coefficient: n must be >= 1")
    if isinstance(f, TrigPoly):
        # orthogonality: only the matching harmonic survives
        a, b = f.harmonic(n)
        return complex(math.pi * a, math.pi * b)
    if isinstance(f, PiecewiseConst):
        total = 0.0 + 0.0j
        knots = _partition(0.0, TWO_PI, tiled_split_points(f, 0.0, TWO_PI))
        for lo, hi in zip(knots[:-1], knots[1:]):
            c = float(f.eval(0.5 * (lo + hi)))
            total += c * (np.exp(1j * n * hi) - np.exp(1j * n * lo)) / (1j * n)
        return complex(total)
    return fourier_coefficient_quadrature(f, n)


def fourier_coefficient_quadrature(f: ForcingTerm, n: int) -> complex:
    """I_n(p) by pure quadrature regardless of the forcing kind (used to
    cross-check the closed forms)."""
    if n < 1:
        raise ValueError("fourier_coefficient: n must be >= 1")
    return complex(_quad_checked(lambda t: f.eval(t) * np.exp(1j * n * t), 0.0, TWO_PI,
                                 tiled_split_points(f, 0.0, TWO_PI)))


def complex_fourier_coefficients(f: TrigPoly, kmax: int):
    """Coefficients p_hat_k, k = -kmax..kmax, of p(t) = sum p_hat_k e^{ikt}."""
    out = np.zeros(2 * kmax + 1, dtype=complex)
    out[kmax] = f.a0
    for k in range(1, kmax + 1):
        a, b = f.harmonic(k)
        out[kmax + k] = 0.5 * (a - 1j * b)
        out[kmax - k] = 0.5 * (a + 1j * b)
    return out


def forcing_from_descriptor(d) -> ForcingTerm:
    """Build a ForcingTerm from its JSON descriptor (dict)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("forcing: descriptor must be an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "trig":
            return TrigPoly(a0=float(d.get("a0", 0.0)),
                            cos_coeffs=tuple(d.get("a", ())),
                            sin_coeffs=tuple(d.get("b", ())))
        if kind == "piecewise":
            return PiecewiseConst(breakpoints=tuple(d["breaks"]),
                                  values=tuple(d["values"]),
                                  period=float(d.get("period", TWO_PI)))
        if kind == "sampled":
            return Sampled(values=tuple(d["values"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"forcing: malformed descriptor ({exc})") from exc
    raise ConfigError(f"forcing.kind: unknown kind {kind!r}")
