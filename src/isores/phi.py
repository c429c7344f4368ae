"""The resonance functional over the cylinder: pointwise evaluation, the
Pinney large-amplitude slice and Fourier constants, full-grid scans with a
certification verdict, and boundary winding numbers, read by the one
argument walk (_argument_change).

Cost model: Phi(., r) correlates p with the one profile psi(., r), so a scan
works per r-column (and on the Pinney infinity slice), never per node.  A
trigonometric p takes the Fourier modes of psi up to its highest harmonic,
cached per profile: the closed form a center declares (the harmonic and
asymmetric sinusoid chain's), else one call of the package's adaptive
quadrature (forcing.adaptive_complex_quad, imported here by name).  Any other p
differences the antiderivative Psi = int psi at the shifted piece starts of
p, in one step whichever source Psi comes from: for a step p the closed form
every built-in center declares, with no quadrature; else (a sloped p, or a
custom center) one quadrature per column between all the starts.  Each node
is then a finite sum.  Columns that share a profile (profile_amplitude) are
computed once, and psi is the center's declared closed form (_profile) where
it has one: every built-in center does.  So a harmonic or asymmetric scan
with a trigonometric or step p makes no quadrature and solves no ODE.
Its CSV (write_phi_csv) formats the theta grid, each r and each distinct
column once, and joins each r block in one call.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericsError
from .forcing import ForcingTerm, TrigPoly, TWO_PI, adaptive_complex_quad
from .integrate import IntegratorConfig
from .autonomous import profile_amplitude, psi_solution
from .potentials import PotentialSpec, pinney

def _knots(points):
    """Knots of a partition of [0, 2*pi]: 0, 2*pi and the points mod 2*pi."""
    return np.unique(np.concatenate([[0.0, TWO_PI], np.mod(points, TWO_PI)]))


@functools.lru_cache(maxsize=64)
def _profile(pot: PotentialSpec, r: float, cfg: IntegratorConfig):
    """(psi(., r), extra split points for its quadratures, its antiderivative
    Psi(., r) = int_0^. psi or None): the profile the center declares, else
    the integrated variational solution.  Only a declared profile that is
    not homogeneous (Pinney's) serves r = inf.  Cached: winding_number and
    the Fourier modes reuse a scan's."""
    if r == math.inf and (pot.profile is None or pot.homogeneous):
        raise NumericsError(f"{pot.kind}: no large-amplitude limit profile")
    if pot.profile is not None:
        return pot.profile(r)
    return psi_solution(pot, r, cfg).psi, (), None


@functools.lru_cache(maxsize=4096)
def _psi_fourier(pot: PotentialSpec, r: float, kmax: int,
                 cfg: IntegratorConfig):
    """Fourier coefficients c_m(r) = (1/2pi) int psi(t, r) e^{-imt} dt for
    m = -kmax..kmax of the profile _profile picks (which checks r): the
    ones the center declares (the sinusoid chain's), else all modes in one
    batched quadrature (Pinney, custom)."""
    psi, extra, _ = _profile(pot, r, cfg)
    if pot.fourier is not None:
        return pot.fourier(r, kmax)
    m = np.arange(-kmax, kmax + 1)
    g = lambda t, k: psi(t) * np.exp(-1j * m[k] * t)
    knots = _knots(extra)
    owner, j = np.divmod(np.arange(m.size * (knots.size - 1)), knots.size - 1)
    return adaptive_complex_quad(g, (knots[j], knots[j + 1], owner)) / TWO_PI


def _phi_trig(f: TrigPoly, cm, theta):
    """Phi(theta) = sum_k p_hat_k c_{-k} e^{-ik theta} (exact reordering of
    the defining quadrature for trigonometric forcings) over the k that p
    declares, in increasing k: p_hat_0 = a0 and p_hat_{+-k} = (a_k -+ i b_k)/2
    for each of its harmonics, paired with the c_{-+k} in cm (m = -K..K)."""
    kmax = (len(cm) - 1) // 2
    p_hat = {0: complex(f.a0)}
    for k, a, b in f.harmonics:
        p_hat[k], p_hat[-k] = 0.5 * (a - 1j * b), 0.5 * (a + 1j * b)
    out = np.zeros(theta.shape, dtype=complex)
    for k in sorted(p_hat):
        coef = p_hat[k] * cm[kmax - k]
        if coef != 0:
            out = out + coef * np.exp(-1j * k * theta)
    return out


def _phi_column(pot: PotentialSpec, f: ForcingTerm, theta, r: float,
                cfg: IntegratorConfig):
    """Phi(theta, r) for an array of theta at one amplitude r (r = inf is the
    Pinney limit), on the profile of r.  A trigonometric p reuses its cached
    c_m.  Any other p declares its pieces (else ConfigError), v_j +
    m_j (u - s_j) on [s_j, s_j+1), s_n = s_0 + 2pi: Phi sums int psi and
    int (t - a) psi between the shifted starts, reduced to x_j = s_j + theta
    mod 2pi.  One differencing step serves both sources of Psi = int_0 psi:
    piece j takes Psi(x_j+1) - Psi(x_j), plus Psi(2pi) if it crosses 2pi.
    With every m_j = 0 and a closed-form Psi, Psi is read at the starts and
    at 2pi; else it is a table of cumulative sums of one quadrature between
    all the starts, which also gives int t psi for the slopes."""
    theta = np.asarray(theta, dtype=float)
    r = profile_amplitude(pot, r)
    if isinstance(f, TrigPoly):
        kmax = max((k for k, _, _ in f.harmonics), default=1)
        return _phi_trig(f, _psi_fourier(pot, r, kmax, cfg), theta)
    if f.pieces is None:
        raise ConfigError(f"phi: {type(f).__name__} is no TrigPoly and declares no pieces")
    psi, extra, antiderivative = _profile(pot, r, cfg)
    s, value, slope = map(np.asarray, f.pieces)
    sloped = bool(np.any(slope))
    x = np.mod(s[None, :] + theta[:, None], TWO_PI)    # piece starts of p(t - theta)
    if antiderivative is not None and not sloped:
        at_starts = antiderivative(np.append(x, TWO_PI))    # and at 2*pi
        f_at, f_period = at_starts[:-1].reshape(x.shape), at_starts[-1]
    else:
        knots = _knots(np.concatenate([x.ravel(), extra]))
        n, copies = knots.size - 1, 2 if sloped else 1
        a, b = np.tile(knots[:-1], copies), np.tile(knots[1:], copies)
        g = ((lambda t, k: psi(t) * np.where(k < n, 1.0, t - a[k])) if sloped
             else (lambda t, k: psi(t)))       # owners n.. integrate (t - a) psi
        # a scan's knots are dense and its segments short: 8 nodes meet the tolerance
        quad = adaptive_complex_quad(g, (a, b, np.arange(copies * n)), order=8)
        at = np.searchsorted(knots, x)
        f_knot = np.concatenate([[0.0], np.cumsum(quad[:n])])
        f_at, f_period = f_knot[at], f_knot[-1]
    f_end = np.roll(f_at, -1, axis=1)           # piece j ends where j + 1 starts,
    wrap = np.roll(x, -1, axis=1) <= x          # one period on if it crosses 2*pi
    df = f_end - f_at + wrap * f_period
    phi = df @ value
    if sloped:                                  # int (t - x) psi via int t psi
        t_knot = np.concatenate([[0.0], np.cumsum(quad[n:] + a[:n] * quad[:n])])
        t_at = t_knot[at]
        moment = (np.roll(t_at, -1, axis=1) - t_at - x * df
                  + wrap * (t_knot[-1] + TWO_PI * f_end))
        phi = phi + moment @ slope
    return phi / TWO_PI


def eval_phi(pot: PotentialSpec, f: ForcingTerm, theta: float, r: float,
             cfg: IntegratorConfig) -> complex:
    """Phi_p(theta, r) = (1/2pi) int_0^{2pi} p(t - theta) psi(t, r) dt, one
    column of a scan on the profile that _profile picks."""
    return complex(_phi_column(pot, f, [float(theta)], float(r), cfg)[0])


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
    pot = pinney()
    cm = _psi_fourier(pot, profile_amplitude(pot, float(r)), 1, IntegratorConfig())
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
    |Phi_p| >= (sqrt(a1^2+b1^2) - 3|a0|) / (3 pi^2).  Public API, exported by
    isores; no command calls it."""
    margin = math.hypot(a1, b1) - 3.0 * abs(a0)
    bound = margin / (3.0 * math.pi ** 2) if margin > 0 else 0.0
    return CorollaryBound(margin=margin, phi_lower_bound=bound,
                          resonant=margin > 0)


@dataclass(frozen=True, eq=False)
class PhiField:
    """Sampled Phi over the cylinder grid plus the r -> inf slice of a
    declared profile (Pinney's), as views of one table with r = inf last.
    min_modulus is its smallest np.abs, argmin (theta, r) the first theta
    in the first r-column holding it: the r-independent asymmetric and
    harmonic fields report r = 0."""

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
    """Evaluate Phi_p on one table: a column per r of the ladder, then r =
    inf where a declared profile (Pinney's) serves it, each distinct profile
    computed once.  Its np.abs, as the CSV prints it, gives min_modulus and
    the argmin: the first r-column holding it (r = inf last), at its first
    theta.  Never returns a partial field: any error propagates."""
    if theta_count < 1 or len(r_grid) < 1:
        raise NumericsError("phi_scan: grids must be nonempty")
    theta = np.linspace(0.0, TWO_PI, theta_count, endpoint=False)
    r_grid = np.asarray(r_grid, dtype=float)
    with_inf = pot.profile is not None and not pot.homogeneous
    amplitudes = r_grid.tolist() + [math.inf] * with_inf
    keys = [profile_amplitude(pot, r) for r in amplitudes]
    columns = {k: _phi_column(pot, f, theta, k, cfg) for k in dict.fromkeys(keys)}
    table = np.column_stack([columns[k] for k in keys])
    mods = np.abs(table)
    j = int(np.argmin(mods.min(axis=0)))         # the first r-column holding the minimum
    i = int(np.argmin(mods[:, j]))               # and in it the first theta
    evaluator = lambda th, r: eval_phi(pot, f, th, r, cfg)
    return PhiField(theta_grid=theta, r_grid=r_grid, values=table[:, :r_grid.size],
                    infinity_slice=table[:, -1] if with_inf else None,
                    min_modulus=float(mods[i, j]),
                    argmin=(float(theta[i]), amplitudes[j]), _evaluator=evaluator)


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


def _argument_change(z_of, nodes, floor, name) -> float:
    """Change of arg z_of along the nodes, in the order given (scalars, or
    points as arrays).  z_of is read once per node, and a gap whose arg step
    exceeds pi/2 is halved, at most 48 times, so a branch jump cannot alias.
    NumericsError where |z| < floor or z is nan, or after the 48th halving."""
    def at(t):
        z = z_of(t)
        if not abs(z) >= floor:
            raise NumericsError(f"{name}: |z| = {abs(z):.2e} at {t}")
        return z

    total, t0 = 0.0, nodes[0]
    z0 = at(t0)
    for t1 in nodes[1:]:
        ahead = [(t1, at(t1), 0)]       # right ends still to reach, nearest last
        while ahead:
            t, z, depth = ahead[-1]
            d = cmath.phase(z / z0)
            if abs(d) <= 0.5 * math.pi:
                total += d
                t0, z0, _ = ahead.pop()
            elif depth >= 48:
                raise NumericsError(f"{name}: argument varies too fast")
            else:
                tm = 0.5 * (t0 + t)
                ahead[-1] = (t, z, depth + 1)
                ahead.append((tm, at(tm), depth + 1))
    return total


def winding_number(field: PhiField, rectangle, zero_tol: float = 1e-9) -> int:
    """Winding number of Phi along the boundary of the finite
    rectangle = (theta_lo, theta_hi, r_lo, r_hi), counterclockwise.

    The boundary nodes are the corners and the scan's nodes strictly inside
    each side (theta_grid or r_grid), so a side on which Phi turns by nearly
    2*pi is not read as its small remainder.  A boundary modulus below
    zero_tol, which must be finite and positive, aborts (too close to a
    zero)."""
    if not all(math.isfinite(c) for c in rectangle):
        raise NumericsError(f"winding_number: the rectangle {rectangle} must be finite")
    if not 0 < zero_tol < math.inf:
        raise ConfigError("zero_tol: must be finite and positive")
    th0, th1, r0, r1 = rectangle
    nodes = []
    # each side varies one coordinate: (start, end, the other coordinate, axis)
    for a, b, fixed, axis in ((th0, th1, r0, 0), (r0, r1, th1, 1),
                              (th1, th0, r1, 0), (r1, r0, th0, 1)):
        grid = field.r_grid if axis else field.theta_grid
        inner = np.sort(grid[(grid - a) * (grid - b) < 0])
        for s in np.concatenate([[a], inner if a < b else inner[::-1]]):
            nodes.append((fixed, s) if axis else (s, fixed))
    nodes.append((th0, r0))
    total = _argument_change(lambda p: field.eval(p[0], p[1]), np.array(nodes),
                             zero_tol, "winding_number")
    w = total / TWO_PI
    if abs(w - round(w)) > 0.05:
        raise NumericsError(f"winding_number: non-integer winding {w:.4f}")
    return int(round(w))


def write_phi_csv(field: PhiField, path):
    """CSV rows (theta, r, re, im, abs), one block per r and the infinity
    slice last with r = -1.  Each theta, r and column is formatted once (a
    column equal bit for bit to the one before reuses its text), abs is one
    np.abs over the field, as the verdict takes it, and a block is one join."""
    from .io import format_rows
    z, r = field.values, field.r_grid.tolist()
    if field.infinity_slice is not None:
        z, r = np.column_stack([z, field.infinity_slice]), r + [-1.0]
    columns = np.stack([z.real, z.imag, np.abs(z)]).T      # (r, theta, (re, im, abs))
    bits = columns.view(np.int64)
    theta = format_rows(field.theta_grid.tolist()).split()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write("theta,r,re,im,abs\n")
        for j, r_text in enumerate(format_rows(r).split()):
            if j == 0 or (bits[j] != bits[j - 1]).any():
                # the text between r cells: "theta_0,", ",re,im,abs\ntheta_1,", ...
                tails = format_rows(columns[j].ravel().tolist(), 3).splitlines(True)
                pieces = [theta[0] + ",", *map(",{}{},".format, tails, theta[1:]),
                          "," + tails[-1]]
            f.write(r_text.join(pieces))
    return path
