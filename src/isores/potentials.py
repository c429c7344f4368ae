"""Potential families for isochronous centers, with the closed forms they
declare: harmonic, shifted Pinney, asymmetric; and user callbacks; inverse_V,
the inversion of V on either side of the centre, exact to rounding at every
level; and the singular-endpoint sigma map with its structural audit."""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from ._record import record
from .errors import ConfigError, DomainError, NumericsError
from .forcing import TWO_PI, from_descriptor

DOMAIN_GUARD = 1e-14
_BRENT_RTOL = 4 * math.ulp(1.0)
# the code of "lambda x: expr" for a declared text, compiled once (_declared)
_lambda_code = functools.cache(lambda expr: compile(f"lambda x: {expr}", "<declared>", "eval"))


def brentq(f, a, b, *, xtol, rtol, maxiter=100):
    """A zero of f in the bracket [a, b], where f(a) and f(b) differ in sign:
    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4), transcribed from the C loop of scipy's optimize.brentq iterate
    for iterate, so it returns the same float.  It stops when f is 0 or the
    bracket is narrower than xtol + rtol*|x|.  A nan value of f or a bracket
    without a sign change raises ValueError; running out of maxiter
    iterations raises NumericsError."""
    xtol, rtol = float(xtol), float(rtol)    # a numpy float's 0/0 would warn, not raise
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


@record(eq=False)
class PotentialSpec:
    """A potential V with its derivatives and structural metadata.

    ``n_iso`` is the isochrony integer N (minimal period 2*pi/N) when known;
    None means the potential has not been certified isochronous and callers
    must audit the period themselves.  Evaluator callbacks must be pure and
    accept numpy arrays.  ``scalar`` is (dv, d2v, constants): the text of
    V' and V'' in a float x with the values of the names they read, which
    the integrator compiles into its right-hand sides.  A built-in family
    declares V, V' and V'' once, as that text (_declared), and its callbacks
    evaluate it; a custom potential's text calls its _dv and _d2v on the
    Python float x and takes each result as a float.  Closed forms, where
    declared: ``profile`` maps 0 <= r <= inf to (psi(., r), split points
    for its quadratures), or if ``homogeneous`` (x(t; r) = r x(t; 1)) every
    finite r to one profile.  ``antiderivative`` maps (t, rs) to Psi(t, r) =
    int_0^t psi(s, r) ds, a row of t's shape for each r of a 1-D array rs,
    so that a Phi table reads all its amplitudes in one call.  ``orbit`` maps
    (r, t) to (x, v) at times t in [0, 2*pi] on the orbit through (r, 0), for
    finite r > 0 (autonomous._orbit).  ``fourier`` maps (r, m_max) to the
    c_m(r) = (1/2pi) int_0^2pi psi(t, r) e^{-imt} dt of that profile, m =
    -m_max..m_max; ``t_minus`` maps I to T-.  From a declared Psi or c_m,
    phi's Phi at a point is its scan node bit for bit; a quadrature of psi (a
    sloped p, a custom centre) agrees to its tolerance.  ``forced_flow``
    maps (p, eps, state, tau) to the exact flow of x'' = -V'(x) + eps p(t)
    from state at t = 0 as a table over whole periods, or to None where it
    has no closed form for that p: windows(k0, k1) -> (x, v), each of shape
    (k1 - k0, len(tau)), the flow at the times 2 pi k + tau of the windows
    k0 <= k < k1, for offsets tau from 0 to 2 pi, both included, where the
    last column of window k is the start of window k + 1.  Its period map
    is exact, and memory grows with k1 - k0, not with the run;
    resonance_run reads it in blocks in place of the integrator.
    """

    kind: str
    params: tuple
    domain_left: float
    n_iso: int | None
    _v: callable
    _dv: callable
    _d2v: callable
    scalar: tuple
    kink_at_zero: bool = False
    profile: callable | None = None
    antiderivative: callable | None = None
    orbit: callable | None = None
    fourier: callable | None = None
    homogeneous: bool = False
    t_minus: callable | None = None
    forced_flow: callable | None = None

    @property
    def singular_left(self):
        return math.isfinite(self.domain_left)

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            finite = np.all(np.isfinite(x))
            below = self.singular_left and np.any(x <= self.domain_left + DOMAIN_GUARD)
        else:   # float comparisons: numpy's reductions over a 0-d array cost more than V
            xf = float(x)
            finite, below = math.isfinite(xf), xf <= self.domain_left + DOMAIN_GUARD
        if not finite:
            raise DomainError(f"{self.kind}: non-finite evaluation point")
        if below:
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


def _declared(kind, params, domain_left, n_iso, v, dv, d2v, constants, **closed):
    """A built-in family from its one declaration: V, V' and V'' as
    expression text in a float x (squares written as products, since a float
    ** raises OverflowError where a product is inf), the constants they read
    and its closed forms.  Each text is compiled once a process and taken by a
    float or by each element of an array, so both see the same float arithmetic."""
    def elementwise(expr):
        f = eval(_lambda_code(expr), dict(constants))
        return lambda x: (np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
                          if np.ndim(x) else f(float(x)))
    return PotentialSpec(kind, params, domain_left, n_iso, *map(elementwise, (v, dv, d2v)),
                         scalar=(dv, d2v, constants), **closed)


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


# Carlson's loop takes its rows in blocks of about this many elements, so
# that a block's arrays stay in cache.  phi_scan of a 256-theta, 4-piece
# Pinney step scan (60 rows of 1025 points) took, against one Psi call a
# column, 0.93 of the time at 1 row a block, 0.76 at 2, 0.62 at 4, 0.56 at
# 8, 0.68 at 16, 0.75 at 32 and 0.79 at 60 (2-core x86 VM, best of 7)
_CARLSON_BLOCK = 8192


def carlson_rf_rd(x, y, z):
    """Carlson's symmetric integrals (R_F(x, y, z), R_D(x, y, z)) for x, y, z
    >= 0 with at most one of x, y zero and z > 0, broadcast against each
    other.  A 2-D shape is a stack of rows, any other shape one row.  One
    duplication loop serves both, since they contract the same iterates x,
    y, z (Carlson, Numer. Algorithms 10, 1995; DLMF 19.36.1-2); R_D also
    sums 4^-n / (sqrt(z_n) (z_n + lam_n)).  Each row stops when 4^-n Q < A_n
    for its every element and both means, which bounds each series
    remainder by r = 2^-53: Q is (3r)^-1/6 max|A0 - x_i| for R_F and
    (r/4)^-1/6 for R_D.  So a row takes the steps, and gets the floats, of
    a call on it alone.  The rows run in blocks of about _CARLSON_BLOCK
    elements (_carlson_rows)."""
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    shape = x.shape
    if x.ndim != 2:
        x, y, z = (v.reshape(1, -1) for v in (x, y, z))
    rf, rd = np.empty(x.shape), np.empty(x.shape)
    block = max(1, round(_CARLSON_BLOCK / max(x.shape[1], 1)))
    for lo in range(0, x.shape[0], block):
        rows = slice(lo, lo + block)
        rf[rows], rd[rows] = _carlson_rows(x[rows], y[rows], z[rows])
    return rf.reshape(shape), rd.reshape(shape)


def _carlson_rows(x, y, z):
    """carlson_rf_rd on one block of rows: the duplication loop records each
    row's means, tail and scale 4^-n at the step where it meets its stopping
    test, and drops it from the block.  The block's rows stop after 6 to 11
    steps: stepping them all until the last has stopped made a 256 x 60
    Pinney step scan's Carlson calls 1.7 times as slow (23 vs 13 ms,
    2-core x86 VM)."""
    a0_f, a0_d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    spread = np.maximum(np.abs(x - z), np.abs(y - z)) + np.abs(x - y)
    q = (2.0 ** -55) ** (-1 / 6) * spread       # >= both Q: |A0 - x_i| <= spread
    x0, y0 = x, y
    lf, ld, lt, ls = a0_f, a0_d, np.zeros(x.shape), np.ones((len(x), 1))
    a_f, a_d, tail, scale = (np.empty(v.shape) for v in (lf, ld, lt, ls))
    live = np.arange(len(x))                    # the rows still stepping
    while True:
        go = np.any(q * ls >= np.minimum(lf, ld), axis=1)
        if not go.all():
            done = live[~go]
            a_f[done], a_d[done], tail[done], scale[done] = lf[~go], ld[~go], lt[~go], ls[~go]
            if not go.any():
                break
            live = live[go]
            x, y, z, q, lf, ld, lt, ls = (v[go] for v in (x, y, z, q, lf, ld, lt, ls))
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        lt = lt + ls / (sz * (z + lam))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        lf, ld, ls = 0.25 * (lf + lam), 0.25 * (ld + lam), 0.25 * ls
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
    (r = inf the limit profile), exact for every real t: an array shaped as
    t, or for a 1-D array of amplitudes r one row each, (len(r), *t.shape).
    With mu = (1 + r)^-4, c, s = cos, sin of phi = t/2 in [0, pi/2] and y =
    c^2 + mu s^2, psi integrates to the incomplete elliptic integrals E and F
    of parameter 1 - mu; DLMF 19.25.10 writes E with R_F and R_D so that no
    1/(1 - mu) and no cancellation is left at either end:
        Re Psi = 2 (1 + mu) c s / sqrt(y) - 2 mu s R_F(c^2, 1, y)
                 + (2/3) mu (1 + mu) s^3 R_D(c^2, 1, y),
        Im Psi = 4 s^2 / (1 + sqrt(y)).
    Re psi is even about 0 and pi, so t in (pi, 2pi) reads 2 Re Psi(pi) -
    Re Psi(2pi - t), and each period adds 2 Re Psi(pi).  At mu = 0 the R_F,
    R_D terms vanish: Re Psi = 2 s over the first half period.  c, s and the
    reduction of t are computed once for all rows, and one carlson_rf_rd
    call takes every row with mu > 0, each row with the floats of a call at
    its r alone."""
    mu = np.array([[0.0 if math.isinf(a) else (1.0 + float(a)) ** -4] for a in np.ravel(r)])
    shape, t = np.shape(r) + np.shape(t), np.ravel(np.asarray(t, dtype=float))
    turns = np.floor(t / TWO_PI)
    u = t - TWO_PI * turns
    back = u > math.pi
    phi = 0.5 * np.append(np.where(back, TWO_PI - u, u), math.pi)   # and t = pi
    s, c = np.sin(phi), np.cos(phi)
    y = c * c + mu * s * s
    re = 2.0 * (1.0 + mu) * c * s / np.sqrt(y)
    elliptic = mu[:, 0] > 0.0
    if elliptic.any():
        m = mu[elliptic]
        rf, rd = carlson_rf_rd(c * c, 1.0, y[elliptic])
        re[elliptic] = re[elliptic] + m * s * ((2.0 / 3.0) * (1.0 + m) * s * s * rd - 2.0 * rf)
    im = 4.0 * s * s / (1.0 + np.sqrt(y))
    re = 2.0 * (turns + back) * re[:, -1:] + np.where(back, -re[:, :-1], re[:, :-1])
    return (re + 1j * im[:, :-1]).reshape(shape)


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


def _sinc(y):
    """sin(y)/y, and 1 at y = 0."""
    safe = np.where(y == 0.0, 1.0, y)
    return np.where(y == 0.0, 1.0, np.sin(safe) / safe)


@functools.lru_cache(maxsize=64)
def _arc_table(w, mu):
    """The arcs of [0, 2*pi] on which the unit orbit X of V = (w^2 (x+)^2 +
    mu^2 (x-)^2)/2 (X(0) = 1, X'(0) = 0) is one sinusoid, as rows (start,
    end, centre c, omega, a, b): psi = X - i X'/w^2 = a e^{i omega (t - c)} +
    b e^{-i omega (t - c)} on the arc, c the extremum of X it is about.  The
    x > 0 arcs have omega = w and a, b = (1 +- 1/w)/2, about the maxima
    k (pi/w + pi/mu); the x < 0 arcs omega = mu and a, b = -(w/mu +- 1/w)/2,
    from the down crossings k (pi/w + pi/mu) + pi/(2w) to the up crossings
    pi/mu later.  X has period pi/w + pi/mu, not always 2*pi.  Where w = mu
    (harmonic) it is one arc, with no kink."""
    w, mu = float(w), float(mu)
    period = math.pi / w + math.pi / mu
    if w == mu:
        edges = [0.0, TWO_PI]
    else:
        down = np.arange(0.5 * math.pi / w, TWO_PI, period)
        cuts = np.stack([down, down + math.pi / mu], axis=1).ravel()
        edges = [0.0, *cuts[cuts < TWO_PI].tolist(), TWO_PI]
    rows = []
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if j % 2 == 0:      # x > 0, about the maximum j/2 periods on
            rows.append((lo, hi, j // 2 * period, w, 0.5 * (1.0 + 1.0 / w), 0.5 * (1.0 - 1.0 / w)))
        else:               # x < 0, about the minimum pi/(2 mu) past the down crossing
            rows.append((lo, hi, lo + 0.5 * math.pi / mu, mu,
                         -0.5 * (w / mu + 1.0 / w), -0.5 * (w / mu - 1.0 / w)))
    return np.array(rows)


def asymmetric_psi_closed(w, mu, t):
    """psi(t, r) of V = (w^2 (x+)^2 + mu^2 (x-)^2)/2 at every r >= 0, for t
    in [0, 2*pi]: x(t; r) = r X(t), so psi = X - i X'/w^2, read from the arc
    holding t in the arc table."""
    arcs = _arc_table(w, mu)
    t = np.asarray(t, dtype=float)
    j = np.maximum(np.searchsorted(arcs[:, 0], t, side="right") - 1, 0)
    _, _, c, omega, a, b = np.moveaxis(arcs[j], -1, 0)
    u = omega * (t - c)
    return a * np.exp(1j * u) + b * np.exp(-1j * u)


def _arc_integral(arcs, t, k):
    """int_0^t psi(s) e^{-iks} ds on an arc table, for t in [0, 2*pi] and k
    broadcast against each other.  The part [lo, top] of an arc inside
    [0, t], of length L and midpoint mid, adds
        L e^{-ik mid} (a e^{i omega (mid - c)} sinc((omega - k) L/2)
                       + b e^{-i omega (mid - c)} sinc((omega + k) L/2)),
    which needs no branch at omega = k and cancels nothing there, where
    (e^{i kappa L} - 1)/(i kappa) loses digits."""
    lo, hi, c, omega, a, b = arcs.T
    t, k = (np.asarray(v, dtype=float)[..., None] for v in (t, k))
    top = np.clip(t, lo, hi)
    length, mid = top - lo, 0.5 * (lo + top)
    phase = omega * (mid - c)
    return np.sum(length * np.exp(-1j * k * mid)
                  * (a * np.exp(1j * phase) * _sinc(0.5 * (omega - k) * length)
                     + b * np.exp(-1j * phase) * _sinc(0.5 * (omega + k) * length)), axis=-1)


def _sinusoid_chain(w, mu):
    """The closed forms of V = (w^2 (x+)^2 + mu^2 (x-)^2)/2, as fields of its
    _declared call: every finite r shares one profile (psi split at the
    kinks), one Psi and one set of c_m, all read from the arc table, which
    the first read builds; the orbit r X = r Re psi, r X' = -r w^2 Im psi;
    and T- = pi/mu, its x < 0 arc, at every action."""
    def orbit(r, t):
        psi = asymmetric_psi_closed(w, mu, t)
        return r * psi.real, -r * w * w * psi.imag

    def profile(r):
        return (functools.partial(asymmetric_psi_closed, w, mu),
                tuple(_arc_table(w, mu)[1:, 0].tolist()))

    def antiderivative(t, rs):
        return np.broadcast_to(_arc_integral(_arc_table(w, mu), t, 0), (len(rs), *np.shape(t)))

    def fourier(r, m_max):
        return _arc_integral(_arc_table(w, mu), TWO_PI, np.arange(-m_max, m_max + 1)) / TWO_PI
    return {"homogeneous": True, "profile": profile, "antiderivative": antiderivative,
            "orbit": orbit, "fourier": fourier, "t_minus": lambda i: math.pi / mu}


def _harmonic_forced_flow(n, f, eps, state, tau):
    """The forced flow of x'' + n^2 x = eps p(t) from state at t = 0
    (PotentialSpec.forced_flow), for a p that declares its harmonics, a
    trigonometric one, else None.  At the offset tau into the window [2 pi k,
    2 pi (k + 1)] it is x = x_p + u cos n tau + (v/n) sin n tau, with u, v
    the window start's offsets from x_p and x_p' at tau = 0 and
        x_p = eps (a0/n^2 + sum_{k != n} (a_k cos k tau + b_k sin k tau)/(n^2 - k^2)
                   + tau (a_n sin n tau - b_n cos n tau)/(2n)).
    n and k are integers (k = n, or |n^2 - k^2| >= 1), and the secular k = n
    term restarts at each window's start, so x_p, x_p' and the rotation are
    the same in every window: one table over the offsets tau (0 to 2 pi, both
    included), and no window subtracts a large x_p.  At tau = 2 pi every cos
    is 1 and every sin 0, exactly, so the period map is the translation s ->
    s + D, D = (x_p(2 pi) - x_p(0), x_p'(2 pi) - x_p'(0)): window k starts at
    state + k D, with no chain of windows whose rounding builds up.  Returns
    windows(k0, k1) -> (x, v), each (k1 - k0, len(tau)): the flow at 2 pi k +
    tau for k0 <= k < k1, whose last column is the start of window k + 1,
    the same floats, so memory grows with k1 - k0 and not with the run."""
    harmonics = getattr(f, "harmonics", None)
    if harmonics is None:
        return None
    w, n2 = float(n), n * n
    a_n, b_n = next(((a, b) for k, a, b in harmonics if k == n), (0.0, 0.0))
    alpha, beta, c0 = eps * a_n / (2.0 * w), eps * b_n / (2.0 * w), eps * f.a0 / n2

    def turns(k):      # cos and sin of k tau, which ends on whole turns
        c, s = np.cos(k * tau), np.sin(k * tau)
        c[-1], s[-1] = 1.0, 0.0
        return c, s
    cn, sn = turns(w)
    xp = c0 + tau * (alpha * sn - beta * cn)
    vp = alpha * sn - beta * cn + w * tau * (alpha * cn + beta * sn)
    for k, a, b in harmonics:
        if k != n:
            a, b = eps * a / (n2 - k * k), eps * b / (n2 - k * k)
            ck, sk = turns(float(k))
            xp = xp + (a * ck + b * sk)
            vp = vp + k * (b * ck - a * sk)
    dx, dv = xp[-1] - xp[0], vp[-1] - vp[0]

    def windows(k0, k1):
        k = np.arange(k0, k1 + 1.0)
        xs, vs = state.x + k * dx, state.v + k * dv      # the starts of windows k0..k1
        u, v = (xs[:-1] - xp[0])[:, None], (vs[:-1] - vp[0])[:, None]
        xt, vt = xp + u * cn + (v / w) * sn, vp + v * cn - w * u * sn
        xt[:, -1], vt[:, -1] = xs[1:], vs[1:]
        return xt, vt
    return windows


@functools.lru_cache(maxsize=64)
def harmonic(n: int) -> PotentialSpec:
    """V(x) = n^2 x^2 / 2; every orbit has minimal period 2*pi/n.  Besides
    the sinusoid chain's closed forms it declares its forced flow for a
    trigonometric p (_harmonic_forced_flow): the one-arc asymmetric(a, a)
    does not, since there sqrt(a) need not be an integer and n^2 - k^2 may
    come near 0."""
    if not 1 <= n < math.inf or n != int(n):
        raise ConfigError("potential.n: must be a positive integer")
    n = int(n)
    if n * n > sys.float_info.max:
        raise ConfigError("potential.n: must be below 1.34e154, where n^2 leaves the float range")
    return _declared("harmonic", (n,), -math.inf, n, "0.5 * n2 * x * x", "n2 * x", "n2",
                     {"n2": float(n * n)}, **_sinusoid_chain(n, n),
                     forced_flow=functools.partial(_harmonic_forced_flow, n))


@functools.lru_cache(maxsize=1)
def pinney() -> PotentialSpec:
    """Shifted Pinney potential on (-1, inf), with a vertical asymptote at
    x=-1: V(x) = ((x+1)^2 + (x+1)^-2)/8 - 1/4, evaluated as (x(x+2)/(x+1))^2/8,
    which does not cancel near 0.  All orbits are 2*pi-periodic; the one of
    action I has x < 0 iff cos^2(t/2) < 1/(l + 1), l = 4I + 1 + sqrt(8I(1 +
    2I)), so T- = 4 arcsin((l + 1)^-1/2), within 1e-15 of 40-digit arithmetic
    for I = 1e-10...1e8 (the quadrature lost 6e-5 at I = 1e-8)."""
    return _declared("pinney", (), -1.0, 1,
                     "0.125 * ((w := x * (x + 2.0) / (x + 1.0)) * w)",
                     "0.25 * ((x + 1.0) - (x + 1.0) ** -3)",
                     "0.25 + 0.75 * (x + 1.0) ** -4", {},
                     profile=lambda r: (functools.partial(pinney_psi_closed, r),
                                        _pinney_layer_points(r)),
                     antiderivative=lambda t, rs: pinney_psi_antiderivative(rs, t),
                     orbit=pinney_phi_closed,
                     t_minus=lambda i: 4.0 * math.asin(1.0 / math.sqrt(
                         4.0 * i + 1.0 + math.sqrt(8.0 * i * (1.0 + 2.0 * i)) + 1.0)))


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
                     {"alpha": alpha, "beta": beta}, kink_at_zero=True,
                     **_sinusoid_chain(math.sqrt(alpha), math.sqrt(beta)))


def custom(v, dv, d2v, domain_left=-math.inf, n_iso=None,
           kink_at_zero=False) -> PotentialSpec:
    """Wrap user-supplied evaluators.  Isochrony is not assumed: pass n_iso
    only after auditing the period.  It declares no closed forms, so phi
    and autonomous take their numeric paths (psi_solution, the solved orbit,
    the T- quadrature)."""
    return PotentialSpec(kind="custom", params=(), domain_left=float(domain_left),
                         n_iso=n_iso, _v=v, _dv=dv, _d2v=d2v,
                         kink_at_zero=kink_at_zero,
                         scalar=("float(_dv(x))", "float(_d2v(x))", {"_dv": dv, "_d2v": d2v}))


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


@record
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
    """A PotentialSpec from its JSON descriptor (dict), read by
    forcing.from_descriptor: harmonic (n), pinney or asymmetric (alpha, beta)."""
    return from_descriptor("potential", d, {
        "harmonic": lambda d: harmonic(float(d["n"])),
        "pinney": lambda d: pinney(),
        "asymmetric": lambda d: asymmetric(float(d["alpha"]), float(d["beta"])),
    }, ("n", "alpha", "beta"))

