"""The resonance functional over the cylinder as one evaluator, _phi_table,
which a full-grid scan with its certification verdict, a point (eval_phi)
and the boundary winding number all read, plus the Pinney large-amplitude
slice and Fourier constants.

Cost model: Phi(., r) correlates p with the one profile psi(., r), so a table
is a column per distinct profile (profile_amplitude), the Pinney infinity
slice too, never a node at a time.  A trigonometric p takes the Fourier
modes of psi up to its highest harmonic, cached per profile: the closed form
a center declares (the harmonic and asymmetric sinusoid chain's), else one
call of the package's adaptive quadrature (forcing.adaptive_complex_quad,
imported here by name).  Any other p differences the antiderivative Psi =
int psi at the shifted piece starts of p, found once for the table, in one
step whichever source Psi comes from: for a step p the closed form every
built-in center declares, one call over all the columns with no quadrature;
else (a sloped p, or a custom center) one quadrature per column between all
the starts.  So a harmonic or asymmetric scan with a trigonometric or step p
makes no quadrature and solves no ODE.  The winding walk reads a table a
side and a point a halving: 4 tables in 6 ms on a 256 x 60 Pinney step
scan, where a table a node took 0.33 s (2-core x86 VM).  Sums over pieces
run in order (np.einsum: a matmul's BLAS kernel, which the table's shape
picks, may not), so a point or a side is its scan node bit for bit from c_m
or a declared Psi, and to the tolerance of a quadrature column (a sloped p,
a custom center).  The CSV formats each theta, r and column once.
"""

from __future__ import annotations

import cmath
import functools
import math
from pathlib import Path

import numpy as np

from ._record import record
from .errors import ConfigError, DomainError, NumericsError
from .forcing import ForcingTerm, TrigPoly, TWO_PI, adaptive_complex_quad
from .integrate import IntegratorConfig
from .autonomous import profile_amplitude, psi_solution
from .potentials import PotentialSpec, pinney

def _knots(points):
    """Knots of a partition of [0, 2*pi]: 0, 2*pi and the points mod 2*pi."""
    return np.unique(np.concatenate([[0.0, TWO_PI], np.mod(points, TWO_PI)]))


@functools.lru_cache(maxsize=64)
def _profile(pot: PotentialSpec, r: float, cfg: IntegratorConfig):
    """(psi(., r), extra split points for its quadratures): the declared
    profile, else the integrated variational solution.  Cached, so that every
    table of one field (phi_scan's, eval_phi's, winding_number's) builds it once."""
    if pot.profile is not None:
        return pot.profile(r)
    return psi_solution(pot, r, cfg).psi, ()


@functools.lru_cache(maxsize=4096)
def _psi_fourier(pot: PotentialSpec, r: float, kmax: int,
                 cfg: IntegratorConfig):
    """Fourier coefficients c_m(r) = (1/2pi) int psi(t, r) e^{-imt} dt for
    m = -kmax..kmax: the ones the center declares (the sinusoid chain's),
    else all modes of _profile's psi in one batched quadrature (Pinney,
    custom)."""
    if pot.fourier is not None:
        return pot.fourier(r, kmax)
    psi, extra = _profile(pot, r, cfg)
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


def _phi_table(pot: PotentialSpec, f: ForcingTerm, theta, amplitudes, cfg: IntegratorConfig):
    """Phi(theta, r), (theta.size, len(amplitudes)): _phi_columns' column of each amplitude."""
    return np.take(*_phi_columns(pot, f, theta, amplitudes, cfg), axis=1)


def _phi_columns(pot: PotentialSpec, f: ForcingTerm, theta, amplitudes,
                 cfg: IntegratorConfig):
    """Phi(theta, r) on a row per theta and a column per distinct profile
    (profile_amplitude, which checks r), and the column of each amplitude (r
    = inf the Pinney limit).  A trigonometric p reuses each profile's cached
    c_m.  Any other p declares its pieces (else ConfigError), v_j + m_j (u -
    s_j) on [s_j, s_j+1), s_n = s_0 + 2pi: Phi sums int psi and int (t - a)
    psi between the shifted starts, reduced to x_j = s_j + theta mod 2pi,
    which, with the pieces that wrap past 2pi, are found once for all
    columns.  One differencing step (_differences) serves both sources of
    Psi = int_0 psi.  With every m_j = 0 and a declared Psi, one call of
    pot.antiderivative reads it at the starts and at 2pi, a row a profile;
    else each profile takes one quadrature between all the starts
    (_phi_quadrature)."""
    theta = np.asarray(theta, dtype=float)
    keys = [profile_amplitude(pot, float(r)) for r in amplitudes]
    column = {k: j for j, k in enumerate(dict.fromkeys(keys))}
    if math.inf in column and (pot.profile is None or pot.homogeneous):
        raise NumericsError("phi: the center declares no large-amplitude limit profile")
    if isinstance(f, TrigPoly):
        kmax = max((k for k, _, _ in f.harmonics), default=1)
        table = np.column_stack([_phi_trig(f, _psi_fourier(pot, r, kmax, cfg), theta)
                                 for r in column])
    elif f.pieces is None:
        raise ConfigError(f"phi: {type(f).__name__} is no TrigPoly and declares no pieces")
    else:
        s, value, slope = map(np.asarray, f.pieces)
        x = np.mod(s[None, :] + theta[:, None], TWO_PI)    # piece starts of p(t - theta)
        wrap = np.roll(x, -1, axis=1) <= x                 # the pieces that cross 2*pi
        if pot.antiderivative is None or np.any(slope):
            table = np.column_stack([_phi_quadrature(*_profile(pot, r, cfg), x, wrap,
                                                     value, slope) for r in column])
        else:                                          # and at 2*pi, a row a profile
            at = pot.antiderivative(np.append(x, TWO_PI), np.array(list(column)))
            df = _differences(at[:, :-1].reshape(len(column), *x.shape), at[:, -1:, None], wrap)
            table = np.einsum("...j,j->...", df, value).T / TWO_PI
    return table, [column[k] for k in keys]


def _differences(f_at, f_period, wrap):
    """Psi(x_j+1) - Psi(x_j) over each piece j from Psi at its start x_j
    (the last axis), plus Psi(2pi) where it crosses 2pi: piece j ends where
    j + 1 starts, one period on."""
    return np.roll(f_at, -1, axis=-1) - f_at + wrap * f_period


def _phi_quadrature(psi, extra, x, wrap, value, slope):
    """The column of Phi on one profile psi (with extra split points) at the
    piece starts x: Psi is a table of cumulative sums of one quadrature
    between all the starts, which also gives int t psi for the slopes."""
    sloped = bool(np.any(slope))
    knots = _knots(np.concatenate([x.ravel(), extra]))
    n, copies = knots.size - 1, 2 if sloped else 1
    a, b = np.tile(knots[:-1], copies), np.tile(knots[1:], copies)
    g = ((lambda t, k: psi(t) * np.where(k < n, 1.0, t - a[k])) if sloped
         else (lambda t, k: psi(t)))       # owners n.. integrate (t - a) psi
    # a scan's knots are dense and its segments short: 8 nodes meet the tolerance
    quad = adaptive_complex_quad(g, (a, b, np.arange(copies * n)), order=8)
    at = np.searchsorted(knots, x)
    f_knot = np.concatenate([[0.0], np.cumsum(quad[:n])])
    f_at = f_knot[at]
    df = _differences(f_at, f_knot[-1], wrap)
    phi = np.einsum("...j,j->...", df, value)
    if sloped:                                  # int (t - x) psi via int t psi
        t_knot = np.concatenate([[0.0], np.cumsum(quad[n:] + a[:n] * quad[:n])])
        t_at = t_knot[at]
        moment = (np.roll(t_at, -1, axis=1) - t_at - x * df
                  + wrap * (t_knot[-1] + TWO_PI * np.roll(f_at, -1, axis=1)))
        phi = phi + np.einsum("...j,j->...", moment, slope)
    return phi / TWO_PI


def eval_phi(pot: PotentialSpec, f: ForcingTerm, theta: float, r: float,
             cfg: IntegratorConfig) -> complex:
    """Phi_p(theta, r) = (1/2pi) int_0^{2pi} p(t - theta) psi(t, r) dt: a
    table of one theta and one r, theta finite (else DomainError)."""
    if not math.isfinite(theta):
        raise DomainError(f"eval_phi: theta must be finite, got {theta}")
    return complex(_phi_table(pot, f, [float(theta)], [float(r)], cfg)[0, 0])


@record
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


@record
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


@record
class ScanStats:
    """The work of a scan: Phi values computed, a column per distinct profile."""
    values: int
    columns: int


@record(eq=False)
class PhiField:
    """Sampled Phi over the cylinder grid plus the r -> inf slice of a
    declared profile (Pinney's), as views of one table with r = inf last.
    min_modulus is its smallest np.abs, argmin (theta, r) the first theta
    in the first r-column holding it: the r-independent asymmetric and
    harmonic fields report r = 0.  It is a field of pot, f and cfg (None
    in a field built by hand), which winding_number reads, and of stats."""

    theta_grid: np.ndarray
    r_grid: np.ndarray
    values: np.ndarray                  # complex, shape (n_theta, n_r)
    infinity_slice: np.ndarray | None
    min_modulus: float
    argmin: tuple
    pot: PotentialSpec | None = None
    f: ForcingTerm | None = None
    cfg: IntegratorConfig | None = None
    stats: ScanStats | None = None


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
    inf where a declared profile (Pinney's) serves it.  Its np.abs, as the
    CSV prints it, gives min_modulus and the argmin: the first r-column
    holding it (r = inf last), at its first theta.  Never returns a partial
    field: any error propagates, and a node where Phi is not finite is a
    NumericsError.  stats counts a column per distinct profile: 61 on a
    Pinney scan of 60 r, r = inf included, 1 on a homogeneous one."""
    if theta_count < 1:
        raise ConfigError("theta_points: must be >= 1")
    if len(r_grid) < 1:
        raise ConfigError("r_grid: must be nonempty")
    theta = np.linspace(0.0, TWO_PI, theta_count, endpoint=False)
    r_grid = np.asarray(r_grid, dtype=float)
    with_inf = pot.profile is not None and not pot.homogeneous
    amplitudes = r_grid.tolist() + [math.inf] * with_inf
    with np.errstate(over="ignore", invalid="ignore"):     # named below
        columns, index = _phi_columns(pot, f, theta, amplitudes, cfg)
        table = np.take(columns, index, axis=1)
    bad = ~np.isfinite(table)
    if bad.any():                   # the first r-column holding one, at its first theta
        j = int(np.argmax(bad.any(axis=0)))
        i = int(np.argmax(bad[:, j]))
        raise NumericsError(f"phi_scan: Phi = {table[i, j]} at theta = {float(theta[i])!r}, "
                            f"r = {amplitudes[j]!r} is not finite")
    mods = np.abs(table)
    j = int(np.argmin(mods.min(axis=0)))         # the first r-column holding the minimum
    i = int(np.argmin(mods[:, j]))               # and in it the first theta
    return PhiField(theta_grid=theta, r_grid=r_grid, values=table[:, :r_grid.size],
                    infinity_slice=table[:, -1] if with_inf else None,
                    min_modulus=float(mods[i, j]), argmin=(float(theta[i]), amplitudes[j]),
                    pot=pot, f=f, cfg=cfg, stats=ScanStats(columns.size, columns.shape[1]))


@record
class Verdict:
    certified_resonant: bool
    min_modulus: float
    argmin: tuple
    threshold: float
    coverage: str


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


def _argument_change(z_of, nodes, values, floor, name) -> float:
    """Change of arg z along the nodes, in the order given (scalars, or
    points as arrays), from its values there.  A gap whose arg step exceeds
    pi/2 is halved by reading z_of at its midpoint, at most 48 times, so a
    branch jump cannot alias.  NumericsError where |z| < floor or z is nan,
    or after the 48th halving."""
    def at(t, z):
        if not abs(z) >= floor:
            raise NumericsError(f"{name}: |z| = {abs(z):.2e} at {t}")
        return z

    total, t0 = 0.0, nodes[0]
    z0 = at(t0, values[0])
    for t1, z1 in zip(nodes[1:], values[1:]):
        ahead = [(t1, at(t1, z1), 0)]   # right ends still to reach, nearest last
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
                ahead.append((tm, at(tm, z_of(tm)), depth + 1))
    return total


def winding_number(field: PhiField, rectangle, zero_tol: float = 1e-9) -> int:
    """Winding number of Phi along the boundary of the finite
    rectangle = (theta_lo, theta_hi, r_lo, r_hi), counterclockwise.

    The boundary nodes are the corners and the scan's nodes strictly inside
    each side (theta_grid or r_grid), so a side on which Phi turns by nearly
    2*pi is not read as its small remainder: one table a side, and a point
    (eval_phi) at each halving.  A boundary modulus below zero_tol, which
    must be finite and positive, aborts (too close to a zero)."""
    if not all(math.isfinite(c) for c in rectangle):
        raise NumericsError(f"winding_number: the rectangle {rectangle} must be finite")
    if not 0 < zero_tol < math.inf:
        raise ConfigError("zero_tol: must be finite and positive")
    pot, f, cfg = field.pot, field.f, field.cfg
    if pot is None:
        raise NumericsError("winding_number: the field records no potential")
    th0, th1, r0, r1 = rectangle
    nodes, values = [], []
    # each side varies one coordinate: (start, end, the other coordinate, axis)
    for a, b, fixed, axis in ((th0, th1, r0, 0), (r0, r1, th1, 1),
                              (th1, th0, r1, 0), (r1, r0, th0, 1)):
        grid = field.r_grid if axis else field.theta_grid
        inner = np.sort(grid[(grid - a) * (grid - b) < 0])
        side = np.concatenate([[a], inner if a < b else inner[::-1]])
        th, r = ([fixed], side) if axis else (side, [fixed])
        nodes += [(t, s) for t in th for s in r]
        values += _phi_table(pot, f, th, r, cfg).ravel().tolist()
    total = _argument_change(lambda p: eval_phi(pot, f, p[0], p[1], cfg),
                             np.array(nodes + [(th0, r0)]), values + values[:1],
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
