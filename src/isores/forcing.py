"""2*pi-periodic forcing terms: trigonometric polynomials, piecewise-constant
profiles and sampled signals, their L1 norms and Fourier data, and the one
adaptive quadrature of the package (adaptive_complex_quad).  Each kind
declares its data once, a trigonometric p its harmonics and a step or
sampled p its pieces, and every reader takes them from there."""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from ._record import record
from .errors import ConfigError, NumericsError

TWO_PI = 2.0 * math.pi
# The most copies of its breaks a step forcing tiles over [0, 2*pi): every
# solve and every Phi column splits at each piece
_MAX_REPETITIONS = 1024


class ForcingTerm:
    """Base class for 2*pi-periodic locally integrable forcings.

    Instances are immutable and all evaluations are pure, so they can be
    shared freely between threads.
    """

    # (starts, values, slopes) of a piecewise-linear p (_Pieces), else None;
    # a TrigPoly declares its harmonics instead
    pieces = None

    def eval(self, t):
        raise NotImplementedError

    def scalar_source(self):
        """(span, lines, constants): statements that set p to p(tt) for a
        float tt in the integrator's compiled right-hand sides, and the
        values of the names they read.  The span statements read only tm, a
        time inside the span between the split points that tt lies in, and
        run once per span (and once per right-hand-side call), not at every
        stage: there a forcing reads the piece it has on the span, and the
        lines, which run at every stage, read what they set.  Names start
        with p, and none is one of the step loop's own."""
        return [], ["p = float(p_eval(tt))"], {"p_eval": self.eval}

    def split_points(self):
        """Where p jumps or has a kink in [0, 2*pi), sorted: the integrator and
        the quadratures split there.  A custom forcing with breaks overrides it."""
        return np.empty(0)


@record(eq=False)
class TrigPoly(ForcingTerm):
    """a0 + sum_k (a_k cos(kt) + b_k sin(kt)), declared once as a0 and
    ``harmonics``: (k, a_k, b_k) for every k >= 1 with a nonzero a_k or b_k,
    in increasing k.  eval, the integrator's scalar source, I_n and phi
    read them."""

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
        pairs = itertools.zip_longest(self.cos_coeffs, self.sin_coeffs, fillvalue=0.0)
        object.__setattr__(self, "harmonics",
                           tuple((k, a, b) for k, (a, b) in enumerate(pairs, 1) if a or b))

    def scalar_source(self):
        # the operations of eval in its order, each coefficient a name, in
        # one expression (1 * tt is tt)
        terms, constants = ["p_a0"], {"p_a0": self.a0}
        for k, a, b in self.harmonics:
            for name, c, fn in ((f"p_a{k}", a, "cos"), (f"p_b{k}", b, "sin")):
                if c:
                    terms.append(f"{name} * {fn}({'tt' if k == 1 else f'{k} * tt'})")
                    constants[name] = c
        return [], [f"p = {' + '.join(terms)}"], constants

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.a0, dtype=float)
        for k, a, b in self.harmonics:
            if a:
                out = out + a * np.cos(k * t)
            if b:
                out = out + b * np.sin(k * t)
        return out if out.ndim else float(out)


class _Pieces(ForcingTerm):
    """p declared once by its pieces (starts, values, slopes), tuples of floats
    a subclass sets: p = v_j + m_j (t - s_j) on [s_j, s_j+1), s_n = s_0 + 2*pi,
    and below s_0 on the last piece, one period back.  eval, the integrator's
    scalar source, the split points, phi and I_n all read them."""

    def piece(self, t):
        """(start in absolute time, value, slope) of the piece holding float t."""
        starts, values, slopes = self.pieces
        k, tau = divmod(t, TWO_PI)
        j = bisect.bisect_right(starts, tau) - 1
        if j < 0:
            j, k = len(starts) - 1, k - 1
        return starts[j] + k * TWO_PI, values[j], slopes[j]

    def eval(self, t):
        # the arithmetic of piece, so the array and float paths agree bit for bit
        starts, values, slopes = map(np.asarray, self.pieces)
        t = np.asarray(t, dtype=float)
        k, tau = np.divmod(t, TWO_PI)
        j = np.searchsorted(starts, tau, side="right") - 1
        k = np.where(j < 0, k - 1, k)
        out = values[j] + slopes[j] * (t - (starts[j] + k * TWO_PI))
        return out if out.ndim else float(out)

    def scalar_source(self):
        # p is linear between the starts the integrator splits at, so the
        # span reads its piece once, at tm: its start, value and slope; each
        # stage is then v + m (tt - s), and a step's 0.0 slope leaves v
        return (["p_s, p_v, p_m = p_segment(tm)"], ["p = p_v + p_m * (tt - p_s)"],
                {"p_segment": self.piece})

    def split_points(self):
        return np.array(self.pieces[0])


@record(eq=False)
class PiecewiseConst(_Pieces):
    """Right-continuous step function of period ``period`` (a divisor of 2*pi).

    ``breakpoints`` are the piece starts within [0, period); the value at a
    breakpoint belongs to the piece on its right.  Times below the first
    breakpoint wrap around to the last piece.  Its pieces are the breaks
    tiled over [0, 2*pi), each with slope 0.
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
        if m > _MAX_REPETITIONS:
            raise ConfigError(f"forcing.period: 2*pi/period must be at most {_MAX_REPETITIONS}")
        if abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise ConfigError("forcing.period: 2*pi/period must be a positive integer")
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ConfigError("forcing.breaks: need one value per breakpoint")
        b = np.asarray(self.breakpoints)
        if np.any(np.diff(b) <= 0) or b[0] < 0 or b[-1] >= self.period:
            raise ConfigError("forcing.breaks: must be strictly increasing within [0, period)")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError("forcing.values: must be finite")
        tiled = np.concatenate([b + k * self.period for k in range(round(m))])
        starts, j = np.unique(np.mod(tiled, TWO_PI), return_index=True)
        values = tuple(self.values[i % b.size] for i in j)
        object.__setattr__(self, "pieces", (tuple(starts.tolist()), values, (0.0,) * j.size))


@record(eq=False)
class Sampled(_Pieces):
    """Values on the uniform grid 2*pi*j/n, j=0..n-1, linearly interpolated
    and wrapped periodically: its pieces start at the samples, with
    np.interp's slopes."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 2:
            raise ConfigError("forcing.values: sampled forcing needs >= 2 samples")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError("forcing.values: must be finite")
        starts = np.linspace(0.0, TWO_PI, len(self.values), endpoint=False).tolist()
        ends, ahead = [*starts[1:], TWO_PI], [*self.values[1:], self.values[0]]
        slopes = [(w - v) / (e - s) for s, e, v, w in zip(starts, ends, self.values, ahead)]
        object.__setattr__(self, "pieces", (tuple(starts), self.values, tuple(slopes)))


def partition(points, a: float, b: float):
    """[a, *inner, b], where every solve and every quadrature of p cuts [a, b]:
    inner is p's split_points() tiled as point + k*2*pi, kept where more than
    1e-12 inside [a, b], each once and in order; [a, b] at no cost for none."""
    if not len(points):
        return [a, b]
    k0, k1 = math.floor(a / TWO_PI) - 1, math.ceil(b / TWO_PI) + 1
    tiled = {p + k * TWO_PI for p in points for k in range(k0, k1 + 1)}
    return [a, *sorted(t for t in tiled if a + 1e-12 < t < b - 1e-12), b]


@functools.lru_cache(maxsize=None)
def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


# Live segments one integral may hold before it stops refining (QUADPACK's
# limit): at its noise floor an integrand would double them on every pass.
_MAX_LIVE = 800
# Each integral's error control: atol + rtol*|I|, and the narrowest segment
# it refines, as a fraction of its length.
_QUAD_RTOL, _QUAD_ATOL, _MIN_WIDTH = 1e-11, 1e-13, 1e-13


def adaptive_complex_quad(g, segments, order=16, hard_rtol=None):
    """Adaptive Gauss-Legendre quadrature of many complex integrals at once.

    ``segments`` = (a, b, owner) arrays: [a[j], b[j]] is a piece of integral
    owner[j].  The vectorized ``g(x, k)`` evaluates integral k[j] at x[j].
    Each integral keeps its own h-refinement error control, _QUAD_ATOL +
    _QUAD_RTOL*|I|; returns integrals 0..max(owner).  An integral stops
    refining a segment narrower than _MIN_WIDTH of its length, and all its
    segments once it holds more than _MAX_LIVE; their error is its forced
    error: NumericsError above 10 times its tolerance, or above
    hard_rtol*max(1, |I|) if given."""
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
    tol = _QUAD_ATOL + _QUAD_RTOL * np.maximum(per_owner(np.abs(est), k), _QUAD_ATOL)

    parts = []           # (values, owners) of the finished segments
    forced_err = np.zeros(n)
    while a.size:
        m = 0.5 * (a + b)
        left = gl(a, m, k)
        right = gl(m, b, k)
        child = left + right
        err = np.abs(child - est)
        done = err <= tol[k] * (b - a) / total_len[k]
        go = ~done & ((b - a) >= _MIN_WIDTH * total_len[k])
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
    """Integral of the vectorized real or complex integrand over [a, b], cut
    where partition(points, a, b) cuts it (points: a forcing's 2*pi-periodic
    split points), as a Python float or complex: one adaptive_complex_quad
    integral held to its achieved error, not its tolerance (near-center orbits
    reach the noise floor of E - V(x) first): NumericsError above 1e-5*max(1, |I|)."""
    knots = np.array(partition(points, a, b))
    segments = (knots[:-1], knots[1:], np.zeros(knots.size - 1, int))
    val = adaptive_complex_quad(lambda t, k: integrand(t), segments, hard_rtol=1e-5)[0]
    return float(val.real) if val.imag == 0 else complex(val)


@functools.lru_cache(maxsize=256)
def l1_norm(f: ForcingTerm) -> float:
    """Integral of |p| over one period, by adaptive quadrature split at the
    breakpoints of p (relative tolerance well below 1e-10)."""
    return _quad_checked(lambda t: np.abs(f.eval(t)), 0.0, TWO_PI, f.split_points())


def fourier_coefficient(f: ForcingTerm, n: int) -> complex:
    """I_n(p) = integral of p(t) e^{int} over [0, 2*pi], n >= 1.

    Exact for trigonometric polynomials and piecewise-linear p (steps and
    sampled signals); adaptive quadrature otherwise.
    """
    if n < 1:
        raise ValueError("fourier_coefficient: n must be >= 1")
    if isinstance(f, TrigPoly):
        # orthogonality: only the matching harmonic survives, if p declares it
        a, b = next(((a, b) for k, a, b in f.harmonics if k == n), (0.0, 0.0))
        return complex(math.pi * a, math.pi * b)
    if f.pieces is not None:
        # on [a, b] with p = p_a + m (t - a): (p_b e^{inb} - p_a e^{ina}) / (in)
        # - m (e^{inb} - e^{ina}) / (in)^2, over one period from s_0
        a, pa, m = map(np.asarray, f.pieces)
        b = np.append(a[1:], a[0] + TWO_PI)
        ea, eb, pb = np.exp(1j * n * a), np.exp(1j * n * b), pa + m * (b - a)
        return complex(np.sum((pb * eb - pa * ea) / (1j * n) - m * (eb - ea) / (1j * n) ** 2))
    return fourier_coefficient_quadrature(f, n)


def fourier_coefficient_quadrature(f: ForcingTerm, n: int) -> complex:
    """I_n(p) by pure quadrature regardless of the forcing kind: the path of
    fourier_coefficient for a custom forcing, and the tests' oracle for its
    closed forms."""
    if n < 1:
        raise ValueError("fourier_coefficient: n must be >= 1")
    return complex(_quad_checked(lambda t: f.eval(t) * np.exp(1j * n * t), 0.0, TWO_PI,
                                 f.split_points()))


def from_descriptor(name, d, builders, numbers, arrays=()):
    """builders[kind](d) for d, a JSON object whose kind names a builder, once
    the keys in numbers that d holds name numbers (ints or floats, never
    booleans or strings) and those in arrays arrays of numbers.  A builder's
    KeyError, TypeError, ValueError or OverflowError (an int too large for a
    float) is a malformed descriptor; every error is a ConfigError after name."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{name}: descriptor must be an object with a 'kind' field")
    for key in arrays:
        if key in d and not isinstance(d[key], (list, tuple)):
            raise ConfigError(f"{name}.{key}: must be an array, not {type(d[key]).__name__}")
    fields = [(k, d[k]) for k in numbers if k in d] + [(k, x) for k in arrays for x in d.get(k, ())]
    for key, x in fields:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{name}.{key}: {x!r} is not a number; "
                              f"{', '.join((*numbers, *arrays))} must be numbers, "
                              "not booleans or strings")
    kind = d["kind"]
    build = builders.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ConfigError(f"{name}.kind: unknown kind {kind!r}")
    try:
        return build(d)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: malformed descriptor ({exc})") from exc


def forcing_from_descriptor(d) -> ForcingTerm:
    """A ForcingTerm from its JSON descriptor (dict), read by from_descriptor:
    trig (a0, a, b), piecewise (breaks, values, period) or sampled (values)."""
    return from_descriptor("forcing", d, {
        "trig": lambda d: TrigPoly(d.get("a0", 0.0), d.get("a", ()), d.get("b", ())),
        "piecewise": lambda d: PiecewiseConst(d["breaks"], d["values"], d.get("period", TWO_PI)),
        "sampled": lambda d: Sampled(d["values"]),
    }, ("a0", "period"), ("a", "b", "breaks", "values"))
