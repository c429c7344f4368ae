"""The resonance functional over the cylinder: pointwise evaluation, closed
harmonic forms, the Pinney large-amplitude slice and Fourier constants,
full-grid scans with a certification verdict, and boundary winding numbers.

Cost model: Phi(., r) correlates p with the one profile psi(., r), so a scan
makes one call of the package's adaptive quadrature (forcing.adaptive_complex_quad,
imported here by name) per r-column (and one for the Pinney infinity slice):
the Fourier modes of psi for a trigonometric p (cached per profile), else its
integrals between the shifted breakpoints of p; each node is then a finite
sum.  Columns that share a profile (profile_amplitude) are computed once, and
psi is a closed form for every built-in center (_profile).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .forcing import (ForcingTerm, TrigPoly, TWO_PI, adaptive_complex_quad,
                      complex_fourier_coefficients)
from .integrate import IntegratorConfig
from .autonomous import (argument_increment, asymmetric_psi_closed,
                         pinney_psi_closed, pinney_psi_infinity,
                         profile_amplitude, psi_solution)
from .potentials import PotentialSpec, pinney

def _knots(points):
    """Knots of a partition of [0, 2*pi]: 0, 2*pi and the points mod 2*pi."""
    return np.unique(np.concatenate([[0.0, TWO_PI], np.mod(points, TWO_PI)]))


def _pinney_layer_points(r):
    """Extra split points around t = pi resolving the sharp layer of the
    Pinney variational solution at large amplitude; no point lies nearer to
    pi than a float can, so the ladder ends when (1 + r)**-2 underflows."""
    lam = 1.0 + r
    if lam < 10.0:
        return ()
    pts = []
    scale = max(lam ** -2, math.ulp(math.pi))
    while scale < 0.5:
        pts.extend([math.pi - scale, math.pi + scale])
        scale *= 16.0
    pts.append(math.pi)
    return tuple(pts)


_PSI_INFINITY = math.inf


@functools.lru_cache(maxsize=64)
def _profile(pot: PotentialSpec, r: float, cfg: IntegratorConfig):
    """(psi(., r), extra split points for its quadratures), the one place
    that picks psi: the Pinney limit at r = inf, the closed forms of the
    built-in centers (split at the kink x = 0 or the Pinney layer), else the
    integrated variational solution.  Cached: winding_number reuses a scan's."""
    if r == _PSI_INFINITY:
        if pot.kind != "pinney":
            raise NumericsError(f"{pot.kind}: no large-amplitude limit profile")
        return pinney_psi_infinity, (math.pi,)
    if pot.kind in ("harmonic", "asymmetric"):
        w, mu = math.sqrt(pot.d2v(1.0)), math.sqrt(pot.d2v(-1.0))
        down = np.arange(0.5 * math.pi / w, TWO_PI, math.pi / w + math.pi / mu)
        crossings = np.concatenate([down, down + math.pi / mu])
        kinks = () if w == mu else tuple(crossings[crossings <= TWO_PI].tolist())
        return (lambda t: asymmetric_psi_closed(w, mu, t)), kinks
    if pot.kind == "pinney" and r > 0:
        return (lambda t: pinney_psi_closed(r, t)), _pinney_layer_points(r)
    return psi_solution(pot, r, cfg).psi, ()


@functools.lru_cache(maxsize=4096)
def _psi_fourier(pot: PotentialSpec, r: float, kmax: int,
                 cfg: IntegratorConfig):
    """Fourier coefficients c_m(r) = (1/2pi) int psi(t, r) e^{-imt} dt for
    m = -kmax..kmax, all modes in one batched quadrature; r = inf uses the
    Pinney limit profile."""
    psi, extra = _profile.__wrapped__(pot, r, cfg)    # cache the c_m, not psi too
    m = np.arange(-kmax, kmax + 1)
    g = lambda t, k: psi(t) * np.exp(-1j * m[k] * t)
    knots = _knots(extra)
    owner, j = np.divmod(np.arange(m.size * (knots.size - 1)), knots.size - 1)
    return adaptive_complex_quad(g, (knots[j], knots[j + 1], owner)) / TWO_PI


def _phi_trig(f: TrigPoly, cm, theta):
    """Phi(theta) = sum_k p_hat_k c_{-k} e^{-ik theta} (exact reordering of
    the defining quadrature for trigonometric forcings)."""
    kmax = (len(cm) - 1) // 2
    p_hat = complex_fourier_coefficients(f, kmax)
    out = np.zeros(theta.shape, dtype=complex)
    for k in range(-kmax, kmax + 1):
        coef = p_hat[k + kmax] * cm[kmax - k]
        if coef != 0:
            out = out + coef * np.exp(-1j * k * theta)
    return out


def _phi_column(pot: PotentialSpec, f: ForcingTerm, theta, r: float,
                cfg: IntegratorConfig):
    """Phi(theta, r) for an array of theta at one amplitude r (r = inf is the
    Pinney limit), on the profile of r.  A trigonometric p reuses its cached
    c_m.  Any other p (step, sampled) is v_j + m_j (u - s_j) on its pieces
    [s_j, s_j+1): Phi sums int psi and int (t - a) psi between the shifted
    starts s_j + theta, cumulative sums of one quadrature between them all."""
    theta = np.asarray(theta, dtype=float)
    r = profile_amplitude(pot, r)
    if isinstance(f, TrigPoly):
        return _phi_trig(f, _psi_fourier(pot, r, max(f.degree, 1), cfg), theta)
    psi, extra = _profile(pot, r, cfg)
    s = f.split_points()
    h = np.diff(np.append(s, s[0] + TWO_PI))
    # p at the quarter points of each piece: its start value and slope
    lo, hi = np.split(f.eval(np.concatenate([s + 0.25 * h, s + 0.75 * h])), 2)
    value, slope = lo + 0.5 * (lo - hi), 2.0 * (hi - lo) / h
    x = np.mod(s[None, :] + theta[:, None], TWO_PI)    # piece starts of p(t - theta)
    knots = _knots(np.concatenate([x.ravel(), extra]))
    n, copies = knots.size - 1, 2 if np.any(slope) else 1
    a, b = np.tile(knots[:-1], copies), np.tile(knots[1:], copies)
    g = ((lambda t, k: psi(t) * np.where(k < n, 1.0, t - a[k])) if copies == 2
         else (lambda t, k: psi(t)))           # owners n.. integrate (t - a) psi
    # a scan's knots are dense and its segments short: 8 nodes meet the tolerance
    quad = adaptive_complex_quad(g, (a, b, np.arange(copies * n)), order=8)
    at = np.searchsorted(knots, x)
    end = np.roll(at, -1, axis=1)               # piece j ends where j + 1 starts,
    wrap = np.roll(x, -1, axis=1) <= x          # one period on if it crosses 2*pi
    f_knot = np.concatenate([[0.0], np.cumsum(quad[:n])])
    df = f_knot[end] - f_knot[at] + wrap * f_knot[-1]
    phi = df @ value
    if copies == 2:                             # int (t - x) psi via int t psi
        t_knot = np.concatenate([[0.0], np.cumsum(quad[n:] + a[:n] * quad[:n])])
        moment = (t_knot[end] - t_knot[at] - x * df
                  + wrap * (t_knot[-1] + TWO_PI * f_knot[end]))
        phi = phi + moment @ slope
    return phi / TWO_PI


def eval_phi(pot: PotentialSpec, f: ForcingTerm, theta: float, r: float,
             cfg: IntegratorConfig) -> complex:
    """Phi_p(theta, r) = (1/2pi) int_0^{2pi} p(t - theta) psi(t, r) dt.

    One column of a scan; psi is the closed form for the built-in centers,
    the numerically integrated variational solution otherwise.
    """
    return complex(_phi_column(pot, f, [float(theta)], float(r), cfg)[0])


def harmonic_phi_closed(n: int, f: ForcingTerm, theta: float) -> complex:
    """Phi for the harmonic potential of frequency n, reduced to the n-th
    Fourier integral I_n(p).  Satisfies
    |I_n|/(2 pi n) <= |Phi| <= |I_n|/(2 pi)."""
    from .forcing import fourier_coefficient
    i_n = fourier_coefficient(f, n)
    a, b = i_n.real, i_n.imag
    c, s = math.cos(n * theta), math.sin(n * theta)
    return complex((a * c - b * s) + 1j * (b * c + a * s) / n) / TWO_PI


def phi_at_infinity_pinney(f: ForcingTerm, theta: float) -> complex:
    """Limit of Phi_p(theta, r) as r -> inf for the Pinney potential: Phi on
    the limit profile |cos(t/2)| + 2i sin(t/2) sgn cos(t/2), split at t = pi."""
    return complex(_phi_column(pinney(), f, [float(theta)], _PSI_INFINITY,
                               IntegratorConfig())[0])


@dataclass(frozen=True)
class PinneyConstants:
    """First Fourier data of the Pinney variational solution:
    c0 = mean of Re psi, d_plus/d_minus the cos/sin projections pairing with
    the first forcing harmonic."""
    c0: float
    d_plus: float
    d_minus: float


def pinney_fourier_constants(r: float) -> PinneyConstants:
    """The constants (c0, d+, d-) at amplitude r; r = inf returns the
    large-amplitude limits (2/pi, 2/(3 pi), 8/(3 pi))."""
    if not r >= 0:
        raise DomainError("pinney_fourier_constants: r must be nonnegative or inf")
    key_r = _PSI_INFINITY if math.isinf(r) else float(r)
    cm = _psi_fourier(pinney(), key_r, 1, IntegratorConfig())
    c_m1, c0, c1 = cm
    return PinneyConstants(c0=float(c0.real),
                           d_plus=float(0.5 * (c1 + c_m1).real),
                           d_minus=float(0.5 * (c1 - c_m1).real))


@dataclass(frozen=True)
class CorollaryBound:
    margin: float
    phi_lower_bound: float
    resonant: bool


def corollary_bound(a0: float, a1: float, b1: float) -> CorollaryBound:
    """Resonance certificate for p = a0 + a1 cos t + b1 sin t on the Pinney
    center: certified when a1^2 + b1^2 > 9 a0^2, with the uniform bound
    |Phi_p| >= (sqrt(a1^2+b1^2) - 3|a0|) / (3 pi^2)."""
    margin = math.hypot(a1, b1) - 3.0 * abs(a0)
    bound = margin / (3.0 * math.pi ** 2) if margin > 0 else 0.0
    return CorollaryBound(margin=margin, phi_lower_bound=bound,
                          resonant=margin > 0)


@dataclass(frozen=True, eq=False)
class PhiField:
    """Sampled |Phi| data over the cylinder grid plus, for the Pinney
    potential, the analytic r -> inf slice.  argmin reports (theta, r) with
    r = inf pointing into the infinity slice; ties report the first r-column,
    so the r-independent asymmetric and harmonic fields report r = 0."""

    theta_grid: np.ndarray
    r_grid: np.ndarray
    values: np.ndarray                  # complex, shape (n_theta, n_r)
    infinity_slice: np.ndarray | None
    min_modulus: float
    argmin: tuple
    _evaluator: object = None

    def eval(self, theta, r):
        if self._evaluator is None:
            raise NumericsError("PhiField carries no evaluator")
        return self._evaluator(theta, r)


def default_r_grid(r_max: float = 1e3, n: int = 60):
    """r = 0 plus an increasing log-spaced ladder of n - 1 amplitudes from
    0.01 up to r_max (r_max alone when n = 2)."""
    if not 0 < r_max < math.inf:
        raise ConfigError("r_max: must be finite and positive")
    if n < 1:
        raise ConfigError("r_points: must be >= 1")
    if n == 2:
        return np.array([0.0, r_max])
    if n > 2 and r_max <= 0.01:
        raise ConfigError("r_max: must exceed 0.01 for 3 or more r_points")
    return np.concatenate([[0.0], np.logspace(-2, math.log10(r_max), n - 1)])


def phi_scan(pot: PotentialSpec, f: ForcingTerm, theta_count: int,
             r_grid, cfg: IntegratorConfig) -> PhiField:
    """Evaluate Phi_p on the product grid (uniform theta x given r ladder),
    one column per profile, copied into every r that shares it; Pinney
    fields also carry the infinity slice.  Never returns a partial field:
    any evaluation error propagates."""
    if theta_count < 1 or len(r_grid) < 1:
        raise NumericsError("phi_scan: grids must be nonempty")
    theta = np.linspace(0.0, TWO_PI, theta_count, endpoint=False)
    r_grid = np.asarray(r_grid, dtype=float)
    keys = [profile_amplitude(pot, float(r)) for r in r_grid]
    columns = {k: _phi_column(pot, f, theta, k, cfg) for k in dict.fromkeys(keys)}
    values = np.column_stack([columns[k] for k in keys])
    infinity = None
    if pot.kind == "pinney":
        infinity = _phi_column(pot, f, theta, _PSI_INFINITY, cfg)

    mods = np.abs(values)
    i, j = np.unravel_index(np.argmin(mods), mods.shape)
    min_mod = float(mods[i, j])
    argmin = (float(theta[i]), float(r_grid[j]))
    if infinity is not None:
        k = int(np.argmin(np.abs(infinity)))
        if abs(infinity[k]) < min_mod:
            min_mod = float(abs(infinity[k]))
            argmin = (float(theta[k]), math.inf)

    evaluator = lambda th, r: eval_phi(pot, f, th, r, cfg)
    return PhiField(theta_grid=theta, r_grid=r_grid, values=values,
                    infinity_slice=infinity, min_modulus=min_mod,
                    argmin=argmin, _evaluator=evaluator)


@dataclass(frozen=True)
class Verdict:
    certified_resonant: bool
    min_modulus: float
    argmin: tuple
    threshold: float
    coverage: str

    def to_dict(self):
        theta, r = self.argmin
        return {"certified_resonant": self.certified_resonant,
                "min_modulus": self.min_modulus,
                "argmin_theta": theta,
                "argmin_r": "inf" if math.isinf(r) else r,
                "threshold": self.threshold,
                "coverage": self.coverage}


def resonance_verdict(field: PhiField, threshold: float = 1e-4) -> Verdict:
    """Grid-level resonance certificate: certified when the sampled modulus
    never drops below the threshold separating quadrature noise from genuine
    near-zeros.  Evidence over the scanned grid (plus the infinity slice
    when present), not a proof.  The threshold must be finite and positive:
    at 0 or below every field certifies, at nan none does."""
    if not 0 < threshold < math.inf:
        raise ConfigError("threshold: must be finite and positive")
    coverage = "grid+infinity" if field.infinity_slice is not None else "grid-only"
    return Verdict(certified_resonant=field.min_modulus >= threshold,
                   min_modulus=field.min_modulus, argmin=field.argmin,
                   threshold=threshold, coverage=coverage)


def winding_number(field: PhiField, rectangle, zero_tol: float = 1e-9) -> int:
    """Winding number of Phi along the boundary of
    rectangle = (theta_lo, theta_hi, r_lo, r_hi), counterclockwise.

    Each side's argument change is an argument_increment.  A boundary
    modulus below zero_tol aborts (boundary too close to a zero of the
    field)."""
    th0, th1, r0, r1 = rectangle

    def val(theta, r):
        z = field.eval(theta, r)
        if abs(z) < zero_tol:
            raise NumericsError(
                f"winding_number: |Phi| = {abs(z):.2e} on the boundary at {(theta, r)}")
        return z

    # each side varies one coordinate: (z_of, start, end)
    sides = [(lambda th: val(th, r0), th0, th1), (lambda r: val(th1, r), r0, r1),
             (lambda th: val(th, r1), th1, th0), (lambda r: val(th0, r), r1, r0)]
    total = sum(argument_increment(z_of, a, b, z_of(a), z_of(b), "winding_number")
                for z_of, a, b in sides)
    w = total / TWO_PI
    if abs(w - round(w)) > 0.05:
        raise NumericsError(f"winding_number: non-integer winding {w:.4f}")
    return int(round(w))


def write_phi_csv(field: PhiField, path):
    """CSV rows (theta, r, re, im, abs); the infinity slice uses r = -1."""
    from .io import write_csv
    th, n = field.theta_grid, field.theta_grid.size
    theta, r = np.tile(th, field.r_grid.size), np.repeat(field.r_grid, n)
    z = field.values.T.ravel()
    if field.infinity_slice is not None:
        theta = np.concatenate([theta, th])
        r = np.concatenate([r, np.full(n, -1.0)])
        z = np.concatenate([z, field.infinity_slice])
    # Python's abs(complex): np.abs can differ in the last bit
    modulus = np.array([abs(v) for v in z.tolist()])
    return write_csv(path, ["theta", "r", "re", "im", "abs"],
                     np.column_stack([theta, r, z.real, z.imag, modulus]))
