import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipeinc, ellipkinc

import isores as iso
from isores._record import replace
from isores.errors import ConfigError, DomainError, NumericsError
from isores.forcing import (PiecewiseConst, Sampled, TrigPoly, TWO_PI,
                            fourier_coefficient, fourier_coefficient_quadrature)
from isores.autonomous import negative_semiperiod, psi_solution
import isores.phi
import isores.potentials
from isores.potentials import pinney_psi_closed
from isores.phi import (_argument_change, adaptive_complex_quad,
                        corollary_bound, default_r_grid, eval_phi, phi_scan,
                        pinney_fourier_constants, resonance_verdict,
                        winding_number, write_phi_csv)

RNG = np.random.default_rng(20260811)


def pinney_limit_profile(t):
    """The large-amplitude limit of the Pinney psi, |cos(t/2)| + 2i sin(t/2)
    sgn cos(t/2), written apart from the closed form under test."""
    c = np.cos(0.5 * t)
    return np.abs(c) + 2j * np.sin(0.5 * t) * np.sign(c)


def random_trig(degree=3, scale=1.0):
    return TrigPoly(a0=float(RNG.uniform(-scale, scale)),
                    cos_coeffs=tuple(RNG.uniform(-scale, scale, degree)),
                    sin_coeffs=tuple(RNG.uniform(-scale, scale, degree)))


# -- pointwise evaluation ------------------------------------------------------

def test_harmonic_sin_modulus_constant(har, sin_f, cfg):
    for th in np.linspace(0, TWO_PI, 9):
        for r in (0.0, 0.7, 3.0):
            assert abs(eval_phi(har, sin_f, th, r, cfg)) == \
                pytest.approx(0.5, abs=1e-10)


def test_zero_forcing(pin, cfg):
    assert eval_phi(pin, TrigPoly(), 0.3, 1.0, cfg) == 0.0


def test_dual_quadrature_oracle(pin, sin_f, cfg, simpson):
    # independent high-resolution Simpson rule on the closed-form psi
    ts = np.linspace(0.0, TWO_PI, 40001)
    oracle = simpson(np.sin(ts) * pinney_psi_closed(1.0, ts), ts) / TWO_PI
    assert abs(eval_phi(pin, sin_f, 0.0, 1.0, cfg) - oracle) < 1e-9


def test_piecewise_forcing_direct_quadrature(pin, cfg, simpson):
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                       period=math.pi)
    theta = 0.9
    # oracle: segment-wise Simpson between the jumps of p(t - theta)
    cuts = np.sort(np.concatenate([[0.0, TWO_PI],
                                   np.mod(f.split_points() + theta, TWO_PI)]))
    oracle = 0.0 + 0.0j
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-12:
            continue
        ts = np.linspace(lo + 1e-12, hi - 1e-12, 40001)
        oracle += simpson(np.asarray(f.eval(ts - theta))
                          * pinney_psi_closed(1.0, ts), ts)
    oracle /= TWO_PI
    assert abs(eval_phi(pin, f, theta, 1.0, cfg) - oracle) < 1e-8


def test_sampled_forcing_direct_quadrature(pin, cfg, simpson):
    f = Sampled(values=(0.0, 1.0, 0.5, -1.0))
    ts = np.linspace(0.0, TWO_PI, 160001)
    vals = np.asarray(f.eval(ts)) * pinney_psi_closed(2.0, ts)
    oracle = simpson(vals, ts) / TWO_PI
    assert abs(eval_phi(pin, f, 0.0, 2.0, cfg) - oracle) < 1e-7


def test_linearity_in_forcing(pin, cfg):
    f1, f2 = random_trig(), random_trig()
    alpha, beta = 0.7, -1.3
    combo = TrigPoly(
        a0=alpha * f1.a0 + beta * f2.a0,
        cos_coeffs=tuple(alpha * a + beta * b for a, b in
                         zip(f1.cos_coeffs, f2.cos_coeffs)),
        sin_coeffs=tuple(alpha * a + beta * b for a, b in
                         zip(f1.sin_coeffs, f2.sin_coeffs)))
    th, r = 1.1, 2.0
    lhs = eval_phi(pin, combo, th, r, cfg)
    rhs = alpha * eval_phi(pin, f1, th, r, cfg) + beta * eval_phi(pin, f2, th, r, cfg)
    assert abs(lhs - rhs) < 1e-10


def test_asymmetric_homogeneity(cfg, har, sin_f):
    # psi does not depend on the amplitude for homogeneous potentials
    # and r = 0 takes the r -> 0+ limit, psi(., 1)
    for pot in (iso.asymmetric(1.0, 1.0), iso.asymmetric(4.0, 4.0 / 9.0)):
        vals = [eval_phi(pot, sin_f, 0.7, r, cfg) for r in (1.0, 2.0, 5.0, 0.0)]
        assert abs(vals[0] - vals[1]) < 1e-6
        assert abs(vals[0] - vals[2]) < 1e-6
        assert vals[3] == vals[0]
    # alpha = beta = 1 degenerates to the harmonic oscillator
    v_asym = eval_phi(iso.asymmetric(1.0, 1.0), sin_f, 0.7, 2.0, cfg)
    v_harm = eval_phi(har, sin_f, 0.7, 2.0, cfg)
    assert abs(v_asym - v_harm) < 1e-8


def _asymmetric_psi_pieces(alpha, beta):
    """psi(., 1) of asymmetric(alpha, beta) without an ODE solver: a C^1
    piecewise sinusoid of frequency sqrt(alpha) while the orbit is at x > 0
    ([0, t1] and [t2, 2pi]) and sqrt(beta) on [t1, t2].  Returns the smooth
    pieces as (t_lo, t_hi, psi)."""
    w, mu = math.sqrt(alpha), math.sqrt(beta)
    t1 = math.pi / (2.0 * w)
    t2 = t1 + math.pi / mu
    pieces = []
    y, dy = 1.0 + 0j, 1j
    for lo, hi, k in ((0.0, t1, w), (t1, t2, mu), (t2, TWO_PI, w)):
        pieces.append((lo, hi, lambda t, lo=lo, y=y, dy=dy, k=k:
                       y * np.cos(k * (t - lo)) + dy / k * np.sin(k * (t - lo))))
        c, s = math.cos(k * (hi - lo)), math.sin(k * (hi - lo))
        y, dy = y * c + dy / k * s, -y * k * s + dy * c
    return pieces


def test_phi_scan_asymmetric_matches_piecewise_sinusoid_reference(cfg):
    a = 1.3
    alpha, beta = 1.0 / a ** 2, 1.0 / (2.0 - a) ** 2   # period 2*pi
    f = TrigPoly(a0=0.2, cos_coeffs=(0.5,), sin_coeffs=(-0.8,))
    field = phi_scan(iso.asymmetric(alpha, beta), f, 16, default_r_grid(1e3, 6), cfg)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    ref = np.zeros(16, dtype=complex)
    for lo, hi, psi in _asymmetric_psi_pieces(alpha, beta):
        t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        vals = np.asarray(f.eval(t[None, :] - field.theta_grid[:, None])) * psi(t)
        ref += 0.5 * (hi - lo) * (vals * weights).sum(axis=1)
    ref /= TWO_PI
    assert field.r_grid[0] == 0.0
    # the scan's psi is the same closed form: Phi is exact up to quadrature
    assert np.max(np.abs(field.values - ref[:, None])) <= 1e-13


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (4.0, 4.0 / 9.0)],
                         ids=["harmonic1", "asymmetric"])
def test_step_phi_on_the_chain_matches_a_gauss_legendre_sum(cfg, alpha, beta):
    # a step p on the chain differences the declared Psi; the reference sums
    # p(t - theta) psi(t) by 40-node Gauss-Legendre between the kinks of psi
    # and the jumps of p, where the integrand is one sinusoid
    breaks, values = np.array([0.3, 1.9, 3.4, 5.0]), np.array([0.7, -0.4, 0.9, -0.8])
    pot = iso.harmonic(1) if alpha == beta else iso.asymmetric(alpha, beta)
    field = phi_scan(pot, PiecewiseConst(tuple(breaks), tuple(values)), 64, [0.0, 2.0], cfg)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    ref = np.zeros(64, dtype=complex)
    for i, th in enumerate(field.theta_grid):
        for lo, hi, psi in _asymmetric_psi_pieces(alpha, beta):
            cuts = np.mod(breaks + th, TWO_PI)
            edges = np.unique(np.concatenate([[lo, hi], cuts[(cuts > lo) & (cuts < hi)]]))
            for a, b in zip(edges[:-1], edges[1:]):
                t = 0.5 * (a + b) + 0.5 * (b - a) * nodes
                p = values[np.searchsorted(breaks, np.mod(t - th, TWO_PI), side="right") - 1]
                ref[i] += 0.5 * (b - a) * np.sum(weights * p * psi(t))
    assert np.max(np.abs(field.values - ref[:, None] / TWO_PI)) <= 1e-14


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_homogeneous_scans_share_one_profile(monkeypatch, cfg, har):
    import isores.integrate
    import isores.phi
    solves = _count_calls(monkeypatch, isores.integrate, "integrate_ode")
    quads = _count_calls(monkeypatch, isores.phi, "adaptive_complex_quad")
    isores.phi._psi_fourier.cache_clear()    # no c_m left by other tests
    field = phi_scan(iso.asymmetric(4.0, 4.0 / 9.0), TrigPoly(sin_coeffs=(1.0,)),
                     16, default_r_grid(1e3, 8), cfg)
    assert (len(solves), len(quads)) == (0, 0)
    assert all(np.array_equal(field.values[:, 0], field.values[:, j]) for j in range(8))
    assert field.argmin[1] == 0.0        # ties report the first r-column
    step = PiecewiseConst(breakpoints=(0.0, 1.0, 3.0), values=(1.0, -0.5, 0.25))
    phi_scan(har, step, 16, np.linspace(0.0, 5.0, 8), cfg)
    assert (len(solves), len(quads)) == (0, 0)


def test_eval_phi_reuses_the_scan_profile(cfg):
    # the asymmetric psi is a closed form, so the cache shows in its
    # statistics, not in a count of ODE solves; a sampled p integrates psi
    # (a step p reads the declared Psi and builds no profile)
    import isores.phi
    isores.phi._profile.cache_clear()
    field = phi_scan(iso.asymmetric(4.0, 4.0 / 9.0), Sampled(values=(1.0, 4.0, -0.5)),
                     32, default_r_grid(1e3, 8), cfg)
    scanned = isores.phi._profile.cache_info()
    assert scanned.misses == 1
    winding_number(field, (0.1, 3.0, 0.5, 50.0))
    wound = isores.phi._profile.cache_info()
    assert wound.misses == scanned.misses and wound.hits > scanned.hits


@pytest.mark.parametrize("center", ["harmonic", "asymmetric", "pinney"])
def test_a_closed_form_step_scan_builds_no_profile(monkeypatch, cfg, center):
    # Psi is the centre's declaration, not a profile's: _phi_table built the
    # profile of the first amplitude only to read its Psi
    pot = {"harmonic": iso.harmonic(1), "asymmetric": iso.asymmetric(4.0, 4.0 / 9.0),
           "pinney": iso.pinney()}[center]
    profiles = _count_calls(monkeypatch, isores.phi, "_profile")
    field = phi_scan(pot, STEP_4, 32, default_r_grid(1e3, 8), cfg)
    winding_number(field, (0.1, 3.0, 0.5, 50.0))
    assert profiles == []


@pytest.mark.parametrize("r", [-1.0, math.nan])
@pytest.mark.parametrize("center", ["harmonic", "pinney", "asymmetric"])
def test_phi_rejects_negative_and_nan_amplitudes(cfg, sin_f, center, r):
    # the harmonic and asymmetric profiles served any r: eval_phi returned
    # 0.5j for harmonic(1) at r = -1 and 0.2401j for asymmetric(4, 4/9) at
    # nan, and phi_scan scanned r = -1 beside r = 1
    pot = {"harmonic": iso.harmonic(1), "pinney": iso.pinney(),
           "asymmetric": iso.asymmetric(4.0, 4.0 / 9.0)}[center]
    step = PiecewiseConst((0.0, 1.0, 3.0), (1.0, -0.5, 0.25))
    for f in (sin_f, step):
        with pytest.raises(DomainError, match="r must be nonnegative or inf"):
            eval_phi(pot, f, 0.0, r, cfg)
        with pytest.raises(DomainError, match="r must be nonnegative or inf"):
            phi_scan(pot, f, 8, [r, 1.0], cfg)
    with pytest.raises(DomainError, match="r must be nonnegative or inf"):
        psi_solution(pot, r, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_eval_phi_rejects_a_non_finite_theta(cfg, sin_f, theta):
    # eval_phi returned nan+nanj, with numpy's "invalid value" RuntimeWarnings
    step = PiecewiseConst((0.0, 1.0, 3.0), (1.0, -0.5, 0.25))
    for f in (sin_f, step):
        with pytest.raises(DomainError, match=f"eval_phi: theta must be finite, got {theta}"):
            eval_phi(iso.pinney(), f, theta, 1.0, cfg)


def test_phi_at_infinity_needs_the_pinney_center(cfg, sin_f):
    for pot in (iso.harmonic(1), iso.asymmetric(4.0, 4.0 / 9.0)):
        with pytest.raises(NumericsError, match="no large-amplitude limit profile"):
            eval_phi(pot, sin_f, 0.0, math.inf, cfg)


def test_custom_centre_scan_matches_pinney_closed_forms(cfg):
    # a custom centre with Pinney's callbacks takes phi._profile's psi_solution
    # branch; its field is that of the closed forms, without the r = inf slice
    pin = iso.pinney()
    centre = iso.custom(pin._v, pin._dv, pin._d2v, domain_left=-1, n_iso=1)
    r_grid = [0.0, 0.01, 0.5, 2.0, 30.0]
    step = PiecewiseConst(breakpoints=(0.3, 1.9, 3.4, 5.0), values=(0.7, -0.4, 0.9, -0.8))
    for f in (TrigPoly(sin_coeffs=(1.0,)), TrigPoly(a0=1.0, cos_coeffs=(2.0,)), step):
        field = phi_scan(centre, f, 64, r_grid, cfg)
        closed = phi_scan(pin, f, 64, r_grid, cfg)
        assert np.max(np.abs(field.values - closed.values)) <= 2e-9
        assert field.infinity_slice is None
        assert resonance_verdict(field).coverage == "grid-only"


def test_a_renamed_pinney_keeps_its_closed_forms(monkeypatch, pin, cfg, sin_f):
    # phi and autonomous picked the closed forms by kind: a Pinney centre of
    # another name took psi_solution at each of the 8 amplitudes, lost the
    # r = inf slice, moved its values and integrated T-
    renamed = replace(pin, kind="shifted-pinney")
    solves = _count_calls(monkeypatch, isores.phi, "psi_solution")
    step = PiecewiseConst((0.3, 1.9, 3.4, 5.0), (0.7, -0.4, 0.9, -0.8))
    for f in (sin_f, step):
        field, closed = (phi_scan(p, f, 32, default_r_grid(1e3, 8), cfg) for p in (renamed, pin))
        assert np.array_equal(field.values, closed.values)
        assert field.infinity_slice is not None
        assert np.array_equal(field.infinity_slice, closed.infinity_slice)
    assert solves == []
    for action in (1e-8, 0.5, 1e6):
        assert negative_semiperiod(renamed, action) == negative_semiperiod(pin, action)


def test_pinney_scan_at_r0_solves_no_variational_equation(monkeypatch, pin, cfg, sin_f):
    # r = 0 took psi_solution's linearisation; the closed form covers it
    solves = _count_calls(monkeypatch, isores.phi, "psi_solution")
    isores.phi._profile.cache_clear()
    isores.phi._psi_fourier.cache_clear()
    step = PiecewiseConst((0.0, 1.0, 3.0), (1.0, -0.5, 0.25))
    for f in (sin_f, step, Sampled(values=(0.0, 1.0, 0.5))):
        field = phi_scan(pin, f, 16, default_r_grid(1e3, 6), cfg)
        assert field.r_grid[0] == 0.0
    assert solves == []


# -- batched quadrature ----------------------------------------------------------

EPS_PEAK = 1e-4


def _mixed_integrand(x, k):
    """Integral 0: e^{ix} (easy); 1: a Lorentzian peak of width 1e-4 at an
    off-grid point (deep refinement); 2: sqrt(x) + ix (endpoint refinement)."""
    peak = EPS_PEAK / ((x - 0.3) ** 2 + EPS_PEAK ** 2)
    return np.select([k == 0, k == 1],
                     [np.exp(1j * x), peak + 0j], np.sqrt(x) + 1j * x)


MIXED_SEGMENTS = ([0.0, 0.5, 0.0, 0.0], [0.5, 1.0, 1.0, 1.0], [0, 0, 1, 2])
MIXED_EXACT = [(np.exp(1j) - 1.0) / 1j,
               math.atan(0.7 / EPS_PEAK) + math.atan(0.3 / EPS_PEAK),
               2.0 / 3.0 + 0.5j]


def test_batched_quad_matches_exact_and_single_calls():
    got = adaptive_complex_quad(_mixed_integrand, MIXED_SEGMENTS)
    assert got.shape == (3,)
    for k, exact in enumerate(MIXED_EXACT):
        assert abs(got[k] - exact) <= 1e-10 * max(1.0, abs(exact))
    # per-integral error control: each batch member is exactly what a
    # one-integral call returns
    a, b, owner = (np.asarray(s) for s in MIXED_SEGMENTS)
    for k in range(3):
        sel = owner == k
        single = adaptive_complex_quad(
            lambda x, j: _mixed_integrand(x, np.full_like(j, k)),
            (a[sel], b[sel], np.zeros(int(sel.sum()), dtype=int)))
        assert single.shape == (1,)
        assert single[0] == got[k]


def test_batched_quad_one_stalled_member_raises():
    # 1/sqrt(x) keeps an error of order sqrt(width) at x = 0 down to the
    # narrowest allowed segment; the smooth member alone would converge
    g = lambda x, k: np.where(k == 0, np.exp(1j * x), 1.0 / np.sqrt(x))
    with pytest.raises(NumericsError, match="stalled"):
        adaptive_complex_quad(g, ([0.0, 0.0], [1.0, 1.0], [0, 1]))


def _quad_complex(fun, lo, hi):
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    re = quad(lambda t: fun(t).real, lo, hi, **opts)[0]
    im = quad(lambda t: fun(t).imag, lo, hi, **opts)[0]
    return re + 1j * im


def _piecewise_psi(pieces):
    """psi(t) at a scalar t from the (t_lo, t_hi, psi) pieces."""
    return lambda t: next(fn(t) for lo, hi, fn in pieces if t <= hi)


@pytest.mark.parametrize("center, f", [
    ("pinney", PiecewiseConst((0.0, 1.1, 2.5, 4.0), (1.0, -0.3, 2.0, 0.5))),
    ((4.0, 4.0 / 9.0), PiecewiseConst((0.9, 2.2, 4.1, 5.6), (0.3, -1.0, 2.0, 0.7))),
    ((4.0, 4.0), PiecewiseConst((0.4, 1.9), (1.0, -2.0), period=math.pi))],
    ids=["pinney", "asymmetric", "harmonic2"])
def test_phi_scan_step_forcing_matches_scipy_quad(cfg, center, f):
    # both sources of Psi through the one differencing step: Pinney's closed
    # form, and the knot table of asymmetric(4, 4/9) and harmonic:2 (the
    # equal-frequency asymmetric center).  Early thetas carry the last piece
    # across 2pi ([4 + theta, 2pi + theta), and [5.6, 0.9 + 2pi) at theta = 0)
    r_grid = default_r_grid(1e3, 6)
    if center == "pinney":
        field = phi_scan(iso.pinney(), f, 16, r_grid, cfg)
        profiles = [(lambda t, r=r: pinney_psi_closed(r, t)) for r in r_grid]
        profiles.append(pinney_limit_profile)
        columns = np.column_stack([field.values, field.infinity_slice])
        # psi(., r) has a layer of width (1 + r)^-2 around t = pi and the
        # limit profile a kink there: split at pi and at pi +- 4^k (1 + r_max)^-2
        widths = (1.0 + r_grid[-1]) ** -2 * 4.0 ** np.arange(10)
        splits = math.pi + np.concatenate([[0.0], widths, -widths])
    else:
        pot = iso.harmonic(2) if center[0] == center[1] else iso.asymmetric(*center)
        field = phi_scan(pot, f, 16, r_grid, cfg)
        pieces = _asymmetric_psi_pieces(*center)
        profiles = [_piecewise_psi(pieces)]
        columns = field.values[:, :1]      # every column is psi(., 1)'s
        splits = [hi for _, hi, _ in pieces]
    for i, th in enumerate(field.theta_grid):
        # and at the jumps of p(t - theta)
        cuts = np.unique(np.concatenate([[0.0, TWO_PI], splits,
                                         np.mod(f.split_points() + th, TWO_PI)]))
        for j, psi in enumerate(profiles):
            fun = lambda t: f.eval(t - th) * psi(t)
            ref = sum(_quad_complex(fun, lo, hi)
                      for lo, hi in zip(cuts[:-1], cuts[1:])) / TWO_PI
            assert abs(columns[i, j] - ref) < 1e-10, (th, j)


# -- step and sampled forcings: antiderivative differences ------------------------

def _pinney_psi_antiderivative(t, r):
    """int_0^t psi(s, r) ds for the Pinney profile, exact for every real t:
    psi = (c^2 - mu s^2 + i sin t) / sqrt(c^2 + mu s^2) with c, s = cos, sin
    of t/2 and mu = (1 + r)^-4 integrates to incomplete elliptic integrals of
    parameter m = 1 - mu; r = inf is mu = 0, r = 0 the linearisation e^{it}."""
    mu = 0.0 if math.isinf(r) else (1.0 + r) ** -4
    u = 0.5 * np.asarray(t, dtype=float)
    if mu == 1.0:
        return np.sin(2.0 * u) + 1j * (1.0 - np.cos(2.0 * u))
    m = 1.0 - mu
    re = 2.0 * (1.0 + mu) / m * ellipeinc(u, m)
    if mu > 0.0:
        re = re - 4.0 * mu / m * ellipkinc(u, m)
    im = 4.0 * (1.0 - np.sqrt(np.cos(u) ** 2 + mu * np.sin(u) ** 2)) / m
    return re + 1j * im


def _pinney_step_phi(f, theta, r):
    """Phi of the step forcing f: (1/2pi) sum_j v_j [Psi(b_j+1 + theta) -
    Psi(b_j + theta)] over its pieces on [0, 2pi), b_n = b_0 + 2pi."""
    reps = round(TWO_PI / f.period)
    b = np.concatenate([np.asarray(f.breakpoints) + k * f.period for k in range(reps)])
    v = np.tile(f.values, reps)
    ends = np.append(b, b[0] + TWO_PI)[None, :] + np.asarray(theta)[:, None]
    return np.diff(_pinney_psi_antiderivative(ends, r), axis=1) @ v / TWO_PI


STEP_CASES = {
    "random 4 pieces": PiecewiseConst(tuple(np.sort(RNG.uniform(0.0, TWO_PI, 4))),
                                      tuple(RNG.uniform(-1.0, 1.0, 4))),
    "period pi": PiecewiseConst((0.4, 1.9), (1.0, -2.0), period=math.pi),
    "last piece wraps": PiecewiseConst((0.9, 2.2, 4.1, 5.6), (0.3, -1.0, 2.0, 0.7)),
    # theta = k pi/32 puts the shifted break 0 exactly on 0 and on the layer point pi
    "break at 0": PiecewiseConst((0.0, 1.0, 2.5, 4.0), (1.0, -0.3, 2.0, 0.5)),
}


@pytest.mark.parametrize("name", STEP_CASES)
def test_step_forcing_scan_matches_elliptic_oracle(pin, cfg, name):
    f = STEP_CASES[name]
    r_grid = default_r_grid(1e3, 8)
    field = phi_scan(pin, f, 64, r_grid, cfg)
    th = field.theta_grid
    for j, r in enumerate(r_grid):
        assert np.max(np.abs(field.values[:, j] - _pinney_step_phi(f, th, r))) <= 1e-12, r
    assert np.max(np.abs(field.infinity_slice - _pinney_step_phi(f, th, math.inf))) <= 1e-12


def test_step_forcing_knots_on_zero_and_layer_points(pin, cfg):
    # breaks 0 and 1: theta = 0 and 2pi - 1 put a shifted break on (or one
    # rounding off) 0 = 2pi, theta = a layer point puts break 0 on it
    f = PiecewiseConst((0.0, 1.0, 3.5), (2.0, -1.0, 0.5))
    for r in (50.0, 1e3, math.inf):
        extra = isores.phi._profile(pin, r, cfg)[1]
        assert extra
        theta = np.concatenate([[0.0, TWO_PI - 1.0, 0.5], extra])
        got = isores.phi._phi_table(pin, f, theta, [r], cfg)[:, 0]
        assert np.max(np.abs(got - _pinney_step_phi(f, theta, r))) <= 1e-12, r
        for k, t in enumerate(theta):
            assert abs(eval_phi(pin, f, t, r, cfg) - got[k]) <= 1e-12


def test_pinney_layer_points_terminate_at_huge_r():
    # (1 + r)**-2 underflows to 0 at r = 1e200: the ladder starts at the
    # float spacing near pi instead of looping forever
    for r in (1e200, math.inf):
        pts = isores.potentials._pinney_layer_points(r)
        assert 0 < len(pts) < 64 and pts[-1] == math.pi
        assert min(abs(p - math.pi) for p in pts[:-1]) == math.ulp(math.pi)
        assert max(abs(p - math.pi) for p in pts) < 0.5
    # default scans keep their ladder: it starts at the layer width
    pts = isores.potentials._pinney_layer_points(1e3)
    assert pts[:2] == (math.pi - 1001.0 ** -2, math.pi + 1001.0 ** -2)
    assert isores.potentials._pinney_layer_points(8.0) == ()


def test_sampled_scan_matches_scipy_quad(pin, cfg):
    # piecewise linear: the (t - a) psi moments of the antiderivative path
    f = Sampled(values=(0.0, 1.0, 0.5, -1.0, 0.3))
    r_grid = np.array([0.0, 0.5, 20.0])
    field = phi_scan(pin, f, 8, r_grid, cfg)
    profiles = [(lambda t, r=r: pinney_psi_closed(r, t)) for r in r_grid]   # r = 0: e^{it}
    columns = np.column_stack([field.values, field.infinity_slice])
    layer = math.pi + np.array([0.0, -1e-2, 1e-2, -0.1, 0.1])
    for i, th in enumerate(field.theta_grid):
        cuts = np.unique(np.concatenate([[0.0, TWO_PI], layer,
                                         np.mod(f.split_points() + th, TWO_PI)]))
        for j, psi in enumerate(profiles + [pinney_limit_profile]):
            fun = lambda t: f.eval(t - th) * psi(t)
            ref = sum(_quad_complex(fun, lo, hi)
                      for lo, hi in zip(cuts[:-1], cuts[1:])) / TWO_PI
            assert abs(columns[i, j] - ref) < 1e-11, (th, j)


@pytest.mark.parametrize("f, pieces", [
    (PiecewiseConst((0.0, 1.0, 3.0), (1.0, -0.5, 0.25)), 3),
    (PiecewiseConst((0.4, 1.9), (1.0, -2.0), period=math.pi), 4),
    (Sampled(values=(0.0, 1.0, 0.5, -1.0, 0.3)), 5)])
def test_step_and_sampled_scans_cost(monkeypatch, pin, cfg, f, pieces):
    # a step p differences the closed-form Pinney Psi and makes no quadrature;
    # a sampled p makes one per distinct profile plus the infinity slice.  p
    # is read from its declared pieces, never evaluated
    quads = _count_calls(monkeypatch, isores.phi, "adaptive_complex_quad")
    points = []
    cls_eval = type(f).eval

    def counted(self, t):
        points.append(np.size(t))
        return cls_eval(self, t)
    monkeypatch.setattr(type(f), "eval", counted)
    r_grid = default_r_grid(1e3, 8)
    phi_scan(pin, f, 64, r_grid, cfg)
    columns = r_grid.size + 1
    assert len(quads) == (columns if isinstance(f, Sampled) else 0)
    assert len(f.pieces[0]) == pieces and points == []


# the 4-piece step forcing of the command-line step scans in test_cli.py
STEP_4 = PiecewiseConst((0.3, 1.9, 3.4, 5.0), (0.7, -0.4, 0.9, -0.8))
STEP_3 = PiecewiseConst((0.0, 1.0, 3.0), (1.0, -0.5, 0.25))


@pytest.mark.parametrize("pot, columns", [
    (iso.pinney(), 61), (iso.harmonic(1), 1), (iso.asymmetric(4.0, 4.0 / 9.0), 1)],
    ids=["pinney", "harmonic", "asymmetric"])
def test_a_scan_counts_a_column_per_distinct_profile(pot, columns, cfg):
    # Pinney: 60 r and r = inf; a homogeneous centre shares one profile
    field = phi_scan(pot, STEP_4, 256, default_r_grid(), cfg)
    assert field.stats == isores.phi.ScanStats(values=256 * columns, columns=columns)


@pytest.mark.parametrize("theta_count", [1, 7, 256])
@pytest.mark.parametrize("r_points", [5, 13, 61])
@pytest.mark.parametrize("f", [STEP_4, STEP_3], ids=["4 pieces", "3 pieces"])
def test_pinney_step_scan_equals_its_one_amplitude_tables(pin, cfg, f, theta_count, r_points):
    # one Psi table over every amplitude, with Carlson's rows in one block,
    # a partial one or several, gives each column the floats of the table of
    # its amplitude alone
    field = phi_scan(pin, f, theta_count, default_r_grid(1e3, r_points), cfg)
    table = np.column_stack([field.values, field.infinity_slice])
    for j, r in enumerate([*field.r_grid, math.inf]):
        alone = isores.phi._phi_table(pin, f, field.theta_grid, [r], cfg)[:, 0]
        assert table[:, j].tobytes() == alone.tobytes(), r


@pytest.mark.parametrize("center", ["harmonic", "asymmetric", "pinney"])
def test_a_step_point_is_its_scan_node_bit_for_bit(cfg, center):
    # eval_phi at every node (and the r = inf slice) of a 256 x 61 step scan
    # reads the scan's floats: the pieces were summed by a matmul, whose BLAS
    # kernel the table's shape picked, and a point differed from its node on
    # 79-86 % of the nodes, by up to 1.2e-16
    pot = {"harmonic": iso.harmonic(1), "asymmetric": iso.asymmetric(4.0, 4.0 / 9.0),
           "pinney": iso.pinney()}[center]
    field = phi_scan(pot, STEP_4, 256, default_r_grid(1e3, 61), cfg)
    table, rs = field.values, [*field.r_grid]
    if field.infinity_slice is not None:
        table, rs = np.column_stack([table, field.infinity_slice]), rs + [math.inf]
    points = np.array([[eval_phi(pot, STEP_4, th, r, cfg) for r in rs] for th in field.theta_grid])
    assert points.tobytes() == table.tobytes()


def test_a_step_scan_reads_psi_in_one_call(monkeypatch, pin, cfg):
    # one Psi call for the scan, where there was one a column, and one run of
    # Carlson's loop for each block of 8 rows (of 1025 points): the 60 finite
    # r take it, r = inf (mu = 0) does not
    psi = _count_calls(monkeypatch, isores.potentials, "pinney_psi_antiderivative")
    blocks = _count_calls(monkeypatch, isores.potentials, "_carlson_rows")
    phi_scan(pin, STEP_4, 256, default_r_grid(), cfg)
    assert (len(psi), len(blocks)) == (1, 8)


class AbsSine(iso.ForcingTerm):
    """|sin t|, a custom forcing with kinks at 0 and pi."""

    def eval(self, t):
        return np.abs(np.sin(t))

    def split_points(self):
        return np.array([0.0, math.pi])


class Smooth(iso.ForcingTerm):
    """cos t + 0.3 sin 2t, a custom forcing with no split points."""

    def eval(self, t):
        return np.cos(t) + 0.3 * np.sin(2.0 * t)


@pytest.mark.parametrize("f", [AbsSine(), Smooth()])
def test_phi_refuses_a_forcing_without_pieces(pin, cfg, f):
    # phi read p's pieces from two evaluations at the quarter points of its
    # split intervals: |sin t| gave 0.2891+0j at (0.3, 0.5), where the
    # integral is 0.2813+0.0317j, and no split points raised IndexError
    with pytest.raises(ConfigError, match="declares no pieces"):
        eval_phi(pin, f, 0.3, 0.5, cfg)
    with pytest.raises(ConfigError, match="declares no pieces"):
        phi_scan(pin, f, 8, [0.0, 1.0], cfg)
    # the package's other readers of p still take it: I_n by quadrature
    assert abs(fourier_coefficient(f, 1) - fourier_coefficient_quadrature(f, 1)) == 0.0


# -- harmonic closed form --------------------------------------------------------

def harmonic_phi_closed(n, f, theta):
    """Phi for the harmonic potential of frequency n, reduced to the n-th
    Fourier integral I_n(p), written apart from the scan: it satisfies
    |I_n|/(2 pi n) <= |Phi| <= |I_n|/(2 pi)."""
    i_n = fourier_coefficient(f, n)
    a, b = i_n.real, i_n.imag
    c, s = math.cos(n * theta), math.sin(n * theta)
    return complex((a * c - b * s) + 1j * (b * c + a * s) / n) / TWO_PI


def test_harmonic_phi_closed_examples(sin_f):
    assert abs(harmonic_phi_closed(1, sin_f, 0.4)) == pytest.approx(0.5, abs=1e-12)
    assert abs(harmonic_phi_closed(2, sin_f, 1.0)) == pytest.approx(0.0, abs=1e-12)
    sin2 = TrigPoly(sin_coeffs=(0.0, 1.0))
    mods = [abs(harmonic_phi_closed(2, sin2, th))
            for th in np.linspace(0, TWO_PI, 64, endpoint=False)]
    assert min(mods) == pytest.approx(0.25, abs=1e-12)
    assert max(mods) == pytest.approx(0.5, abs=1e-12)
    assert max(mods) - min(mods) > 0.2   # varies with theta


def test_harmonic_two_sided_bound_random(cfg):
    for _ in range(20):
        f = random_trig(degree=3)
        for n in (1, 2, 3):
            i_n = abs(fourier_coefficient(f, n))
            pot = iso.harmonic(n)
            for th in np.linspace(0, TWO_PI, 8):
                for r in (0.0, 1.0, 4.0):
                    mod = abs(eval_phi(pot, f, th, r, cfg))
                    assert mod <= i_n / TWO_PI + 1e-9
                    assert mod >= i_n / (TWO_PI * n) - 1e-9
                closed = harmonic_phi_closed(n, f, th)
                assert abs(closed - eval_phi(pot, f, th, 1.0, cfg)) < 1e-10


# -- infinity slice ----------------------------------------------------------------

def test_pinney_psi_closed_spans_zero_to_infinity():
    # one closed form: r = 0 is the linearisation e^{it}, r = inf the limit
    # profile; pi and 3pi sit on the limit's kink
    ts = np.concatenate([np.linspace(-10.0, 20.0, 3001), [math.pi, 3.0 * math.pi]])
    assert np.max(np.abs(pinney_psi_closed(0.0, ts) - np.exp(1j * ts))) <= 1e-15
    assert np.max(np.abs(pinney_psi_closed(math.inf, ts) - pinney_limit_profile(ts))) <= 1e-15


def phi_inf(f, theta):
    """Phi on the Pinney r = inf slice."""
    return eval_phi(iso.pinney(), f, theta, math.inf, iso.IntegratorConfig())


def test_phi_infinity_constant_forcing():
    one = TrigPoly(a0=1.0)
    for th in (0.0, 1.0, 4.0):
        z = phi_inf(one, th)
        assert z.real == pytest.approx(2.0 / math.pi, abs=1e-11)
        assert z.imag == pytest.approx(0.0, abs=1e-11)


def test_phi_infinity_sin_constants(sin_f, simpson):
    mods = [abs(phi_inf(sin_f, th))
            for th in np.linspace(0, TWO_PI, 128, endpoint=False)]
    assert min(mods) == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-10)
    assert max(mods) == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-10)
    # d-(inf) oracle by independent quadrature of the limit profile
    ts = np.linspace(0, TWO_PI, 80001)
    d_minus = simpson(pinney_limit_profile(ts).imag * np.sin(ts) + 0j, ts).real / TWO_PI
    assert d_minus == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-9)


def test_phi_infinity_linearity(sin_f):
    one = TrigPoly(a0=1.0)
    combo = TrigPoly(a0=2.0, sin_coeffs=(-0.5,))
    th = 0.8
    lhs = phi_inf(combo, th)
    rhs = 2.0 * phi_inf(one, th) - 0.5 * phi_inf(sin_f, th)
    assert abs(lhs - rhs) < 1e-11


def test_phi_infinity_piecewise_path():
    f = PiecewiseConst(breakpoints=(0.0, math.pi), values=(1.0, 0.0))
    z = phi_inf(f, 0.0)
    # oracle: (1/2pi) int_0^pi (cos(t/2) + 2i sin(t/2)) dt = (1/pi) (1 + 2i)
    assert z == pytest.approx((1.0 + 2.0j) / math.pi, abs=1e-10)


# -- Pinney Fourier constants ---------------------------------------------------------

def test_pinney_constants_r0_and_infinity():
    c0 = pinney_fourier_constants(0.0)
    assert c0.c0 == pytest.approx(0.0, abs=1e-9)
    assert c0.d_plus == pytest.approx(0.5, abs=1e-9)
    assert c0.d_minus == pytest.approx(0.5, abs=1e-9)
    cinf = pinney_fourier_constants(math.inf)
    assert cinf.c0 == pytest.approx(2.0 / math.pi, abs=1e-11)
    assert cinf.d_plus == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-11)
    assert cinf.d_minus == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-11)


def test_pinney_constants_between_extremes():
    c = pinney_fourier_constants(1.0)
    assert 0.0 < c.c0 < 2.0 / math.pi
    assert 2.0 / (3.0 * math.pi) < c.d_plus < 0.5
    assert 0.5 < c.d_minus < 8.0 / (3.0 * math.pi)


def test_pinney_constants_monotonicity():
    rs = np.logspace(-2, 3, 20)
    consts = [pinney_fourier_constants(r) for r in rs]
    c0s = [c.c0 for c in consts]
    dps = [c.d_plus for c in consts]
    dms = [c.d_minus for c in consts]
    assert all(a < b for a, b in zip(c0s[:-1], c0s[1:]))       # c0 increasing
    assert all(a > b for a, b in zip(dps[:-1], dps[1:]))       # d+ decreasing
    assert all(d >= 0.5 - 1e-12 for d in dms)                  # d- >= d-(0)


# -- corollary bound -----------------------------------------------------------------

def test_corollary_bound_examples():
    b = corollary_bound(0.0, 0.0, 1.0)
    assert b.resonant and b.margin == pytest.approx(1.0)
    assert b.phi_lower_bound == pytest.approx(1.0 / (3.0 * math.pi ** 2))
    b2 = corollary_bound(1.0, 0.0, 0.0)
    assert not b2.resonant and b2.margin == pytest.approx(-3.0)
    assert b2.phi_lower_bound == 0.0
    b3 = corollary_bound(0.1, 0.2, 0.2)
    assert not b3.resonant
    assert b3.margin == pytest.approx(math.sqrt(0.08) - 0.3)


# -- scans ----------------------------------------------------------------------------

def test_phi_scan_harmonic(har, sin_f, cfg):
    field = phi_scan(har, sin_f, 64, np.linspace(0.0, 10.0, 16), cfg)
    assert field.min_modulus == pytest.approx(0.5, abs=1e-8)
    assert field.infinity_slice is None
    v = resonance_verdict(field)
    assert v.certified_resonant and v.coverage == "grid-only"


def test_phi_scan_pinney_sin(pin, sin_f, cfg):
    field = phi_scan(pin, sin_f, 64, default_r_grid(1e3, 24), cfg)
    assert field.min_modulus > 0.03
    assert field.infinity_slice is not None
    assert field.min_modulus >= corollary_bound(0.0, 0.0, 1.0).phi_lower_bound - 1e-6
    v = resonance_verdict(field)
    assert v.certified_resonant and v.coverage == "grid+infinity"
    # the minimum sits on the infinity slice at theta = pi/2 (d+(inf))
    assert math.isinf(v.argmin[1])


def test_phi_scan_crafted_zero(pin, crafted_zero, cfg):
    forcing, r_star, _ = crafted_zero
    r_grid = np.unique(np.concatenate([default_r_grid(1e3, 24), [r_star]]))
    field = phi_scan(pin, forcing, 64, r_grid, cfg)
    assert field.min_modulus < 1e-3
    th_min, r_min = field.argmin
    assert th_min == pytest.approx(math.pi, abs=1e-12)
    assert r_min == pytest.approx(r_star, rel=1e-12)
    assert not resonance_verdict(field).certified_resonant


def test_default_r_grid_ends_at_r_max():
    # n = 2 gave [0, 0.01] whatever r_max
    assert default_r_grid(50.0, 2).tolist() == [0.0, 50.0]
    assert default_r_grid(1e-3, 2).tolist() == [0.0, 1e-3]
    grid = default_r_grid(1e3, 60)
    assert grid[-1] == pytest.approx(1e3, rel=1e-14) and np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("r_max", [0.01, 1e-3])
def test_default_r_grid_rejects_a_ladder_that_cannot_rise(r_max):
    # 0.01 repeated 0.01 three times; 1e-3 ran downwards from 0.01
    with pytest.raises(ConfigError, match="r_max"):
        default_r_grid(r_max, 4)


def test_phi_scan_zero_forcing(pin, cfg):
    field = phi_scan(pin, TrigPoly(), 8, [0.0, 1.0], cfg)
    assert field.min_modulus == 0.0
    assert not resonance_verdict(field).certified_resonant
    with pytest.raises(ConfigError, match="theta_points: must be >= 1"):
        phi_scan(pin, TrigPoly(), 0, [0.0, 1.0], cfg)
    with pytest.raises(ConfigError, match="r_grid: must be nonempty"):
        phi_scan(pin, TrigPoly(), 8, [], cfg)


def test_dirac_bump_lower_bound(har, cfg):
    # Prop R_V setting (bounded V''): narrow unit-mass bumps stay certified
    mins = []
    for w in (0.5, 0.1, 0.02):
        bump = PiecewiseConst(breakpoints=(0.0, w), values=(1.0 / w, 0.0))
        field = phi_scan(har, bump, 32, np.linspace(0.0, 5.0, 8), cfg)
        mins.append(field.min_modulus)
    floor = 0.95 / TWO_PI
    assert all(m >= floor for m in mins)
    # no shrinkage towards the Dirac limit
    assert mins[-1] >= mins[0] - 1e-3


# -- winding numbers ---------------------------------------------------------------------

def test_winding_number_crafted_zero(pin, crafted_zero, cfg):
    forcing, r_star, _ = crafted_zero
    field = phi_scan(pin, forcing, 32, default_r_grid(10.0, 8), cfg)
    w = winding_number(field, (math.pi - 0.5, math.pi + 0.5,
                               0.7 * r_star, 1.4 * r_star))
    assert abs(w) == 1
    # additivity over a 2x2 sub-partition whose cuts avoid the zero at
    # (pi, r*): the zero falls strictly inside the upper-right cell
    th_mid, r_mid = math.pi - 0.1, 0.8 * r_star
    quads = [(math.pi - 0.5, th_mid, 0.7 * r_star, r_mid),
             (th_mid, math.pi + 0.5, 0.7 * r_star, r_mid),
             (math.pi - 0.5, th_mid, r_mid, 1.4 * r_star),
             (th_mid, math.pi + 0.5, r_mid, 1.4 * r_star)]
    assert sum(winding_number(field, q) for q in quads) == w


def test_winding_number_no_zero(har, sin_f, cfg):
    field = phi_scan(har, sin_f, 16, np.linspace(0.5, 5.0, 4), cfg)
    assert winding_number(field, (0.5, 2.0, 1.0, 4.0)) == 0


def test_winding_number_seeds_each_side_with_the_scan_nodes(pin, crafted_zero, cfg):
    # the r = 0 side turns by 2 pi - 0.08: read between its two corners
    # alone, that aliases to -0.08 and the rectangle around the zero at
    # (pi, r*) winds 0; its 8 theta-slices, each turning by less, sum to 1
    forcing, r_star, _ = crafted_zero
    field = phi_scan(pin, forcing, 32, default_r_grid(10.0, 8), cfg)
    assert winding_number(field, (0.0, 6.2, 0.0, 1e4)) == 1
    assert sum(winding_number(field, (6.2 * k / 8, 6.2 * (k + 1) / 8, 0.0, 1e4))
               for k in range(8)) == 1


@pytest.mark.parametrize("corner", [math.inf, math.nan])
def test_winding_number_rejects_a_non_finite_rectangle(pin, crafted_zero, cfg, corner):
    forcing, _, _ = crafted_zero
    field = phi_scan(pin, forcing, 32, default_r_grid(10.0, 8), cfg)
    with pytest.raises(NumericsError, match="must be finite"):
        winding_number(field, (0.0, 6.2, 0.0, corner))


def test_winding_number_needs_the_field_of_a_potential(pin, sin_f, cfg):
    # a field built by hand records no pot, f or cfg to evaluate Phi with
    field = replace(phi_scan(pin, sin_f, 8, [0.0, 1.0], cfg), pot=None)
    with pytest.raises(NumericsError, match="the field records no potential"):
        winding_number(field, (0.5, 2.0, 0.0, 1.0))


def test_winding_number_boundary_guard(pin, crafted_zero, cfg):
    forcing, r_star, _ = crafted_zero
    field = phi_scan(pin, forcing, 16, default_r_grid(10.0, 6), cfg)
    # boundary passing through the zero itself must abort
    with pytest.raises(NumericsError):
        winding_number(field, (math.pi - 0.4, math.pi + 0.4,
                               r_star, 2.0 * r_star), zero_tol=1e-6)


def test_winding_number_requires_a_positive_zero_tol(har2, sin_f, cfg):
    # harmonic:2 with sin has Phi = 0 up to 8e-17: at zero_tol 0, -1 or nan
    # the guard was off and rounding noise read as winding 0
    field = phi_scan(har2, sin_f, 16, np.linspace(0.5, 5.0, 4), cfg)
    with pytest.raises(NumericsError, match=r"\|z\|"):
        winding_number(field, (0.5, 2.0, 1.0, 4.0))
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="zero_tol: must be finite and positive"):
            winding_number(field, (0.5, 2.0, 1.0, 4.0), zero_tol=tol)


@pytest.mark.parametrize("forcing", ["1+2cos", "step"])
def test_winding_number_on_a_coarse_scan_halves_its_sides(pin, crafted_zero, cfg,
                                                          monkeypatch, forcing):
    # 4 theta nodes leave gaps on the theta sides that turn by more than
    # pi/2: only halving between them gives the 256-node windings
    f = (crafted_zero[0] if forcing == "1+2cos" else
         PiecewiseConst(breakpoints=(0.3, 1.9, 3.4, 5.0), values=(0.7, -0.4, 0.9, -0.8)))
    r_star = crafted_zero[1]
    rects = [(math.pi - 0.5, math.pi + 0.5, 0.7 * r_star, 1.4 * r_star),
             (0.0, 6.2, 0.0, 1e4), (0.5, 2.0, 1.0, 4.0)]
    fine = phi_scan(pin, f, 256, default_r_grid(10.0, 8), cfg)
    expected = [winding_number(fine, q) for q in rects]
    coarse = phi_scan(pin, f, 4, default_r_grid(10.0, 8), cfg)
    points = []
    evaluate = isores.phi.eval_phi
    monkeypatch.setattr(isores.phi, "eval_phi",
                        lambda *a: points.append(a[2:4]) or evaluate(*a))
    assert [winding_number(coarse, q) for q in rects] == expected
    # some boundary point is neither a corner nor a scan node: a midpoint
    th_nodes = {*coarse.theta_grid, *(c for q in rects for c in q[:2])}
    r_nodes = {*coarse.r_grid, *(c for q in rects for c in q[2:])}
    assert any(th not in th_nodes or r not in r_nodes for th, r in points)


def test_winding_number_reads_each_side_as_one_table(pin, cfg, monkeypatch):
    # each side's corner and scan nodes are one table and a halving one point:
    # the walk read every node as a table of its own, 625 on the 256-theta scan
    for theta_count, halvings in ((256, False), (4, True)):
        field = phi_scan(pin, STEP_4, theta_count, default_r_grid(), cfg)
        tables = _count_calls(monkeypatch, isores.phi, "_phi_table")
        points = _count_calls(monkeypatch, isores.phi, "eval_phi")
        assert winding_number(field, (0.0, 6.2, 0.0, 1e3)) == 1
        assert len(tables) == 4 + len(points) and bool(points) == halvings
        monkeypatch.undo()


# -- the argument walk -----------------------------------------------------------------

def _turn_of(vs, component):
    """t -> y + i y' for y the real (u) or imaginary (v) part of psi."""
    if component == "u":
        return lambda t: complex(vs.u(t) + 1j * vs.du(t))
    return lambda t: complex(vs.v(t) + 1j * vs.dv(t))


def test_argument_change_harmonic_turns_once(har, cfg):
    # u + iu' = cos t - i sin t: its argument is -t
    z_of = _turn_of(psi_solution(har, 1.0, cfg), "u")
    ts = np.linspace(0.0, TWO_PI, 200)
    for k in (1, 57, 100, 199):
        nodes = ts[:k + 1]
        assert _argument_change(z_of, nodes, [z_of(t) for t in nodes], 1e-9, "u") == \
            pytest.approx(-ts[k], abs=1e-9)


@pytest.mark.parametrize("component", ["u", "v"])
def test_argument_change_pinney_turns_back_once(pin, cfg, component):
    z_of = _turn_of(psi_solution(pin, 1.0, cfg), component)
    ts = np.linspace(0.0, TWO_PI, 400)
    values = [z_of(t) for t in ts]
    steps = [_argument_change(z_of, ts[i:i + 2], values[i:i + 2], 1e-9, component)
             for i in range(ts.size - 1)]
    assert max(steps) < 0
    assert _argument_change(z_of, ts, values, 1e-9, component) == \
        pytest.approx(-TWO_PI, abs=1e-6)


def test_argument_change_halves_coarse_gaps(har2, cfg):
    # at t-steps of pi/2 the argument of cos 2t - 2i sin 2t turns by -pi per
    # step, beyond pi/2: only the halving finds it, as a fine grid does
    z_of = _turn_of(psi_solution(har2, 1.0, cfg), "u")
    coarse = 0.5 * math.pi * np.arange(5)
    values = [z_of(t) for t in coarse]
    steps = [_argument_change(z_of, coarse[i:i + 2], values[i:i + 2], 1e-9, "u")
             for i in range(4)]
    assert all(abs(d) > 0.5 * math.pi for d in steps)
    total = _argument_change(z_of, coarse, values, 1e-9, "u")
    assert total == pytest.approx(-2 * TWO_PI, abs=1e-9)
    ts = np.linspace(0.0, TWO_PI, 401)
    fine = _argument_change(z_of, ts, [z_of(t) for t in ts], 1e-9, "u")
    assert abs(total - fine) < 1e-9


@pytest.mark.parametrize("bad", [1e-12, math.nan])
def test_argument_change_refuses_a_small_or_nan_modulus(bad):
    # a nan value was halved 48 times and read as "argument varies too fast"
    z_of = lambda t: complex(bad) if t == 0.5 else cmath.exp(1j * t)
    with pytest.raises(NumericsError, match=r"walk: \|z\| = .* at 0.5"):
        nodes = [0.0, 0.5, 1.0]
        _argument_change(z_of, nodes, [z_of(t) for t in nodes], 1e-9, "walk")


def test_argument_change_gives_up_after_48_halvings():
    # the argument jumps by pi at t = 0.5: no halving resolves it
    z_of = lambda t: 1.0 if t < 0.5 else -1.0 + 1e-3j
    with pytest.raises(NumericsError, match="walk: argument varies too fast"):
        _argument_change(z_of, [0.0, 1.0], [z_of(0.0), z_of(1.0)], 1e-9, "walk")


# -- export ---------------------------------------------------------------------------------

def test_phi_csv_export(pin, sin_f, cfg, tmp_path):
    field = phi_scan(pin, sin_f, 8, [0.0, 1.0], cfg)
    p = write_phi_csv(field, tmp_path / "field.csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "theta,r,re,im,abs"
    # grid rows plus the infinity slice (r = -1 sentinel)
    assert len(lines) == 1 + 8 * 2 + 8
    assert any(line.split(",")[1] == "-1" for line in lines[1:])


def test_phi_csv_abs_is_the_verdict_modulus(pin, cfg, tmp_path):
    # (a0, a1, b1, whether the minimum lies on r = inf)
    cases = [
        # abs(complex) row by row differed from the verdict's np.abs in the
        # last digit: this field's smallest CSV abs was 0.02982550180973451,
        # its min_modulus 0.029825501809734513
        (0.9125345096721971, -0.4315976725024171, 0.2970944141596501, False),
        # a scalar abs() on the r = inf slice gave min_modulus
        # 0.12358093609426314 against the CSV's 0.12358093609426316
        (0.2349050409322333, -0.7466015348994606, -0.9964502755949307, True),
    ]
    for a0, a1, b1, at_infinity in cases:
        f = TrigPoly(a0=a0, cos_coeffs=(a1,), sin_coeffs=(b1,))
        field = phi_scan(pin, f, 64, default_r_grid(1e3, 20), cfg)
        assert math.isinf(field.argmin[1]) == at_infinity
        table = np.loadtxt(write_phi_csv(field, tmp_path / "field.csv"), delimiter=",",
                           skiprows=1)
        z = np.concatenate([field.values.T.ravel(), field.infinity_slice])
        assert np.array_equal(table[:, 4], np.abs(z))
        assert table[:, 4].min() == field.min_modulus == resonance_verdict(field).min_modulus


def _row_by_row_csv(field):
    """The phi CSV built apart from the writer: rows (theta, r, re, im, abs)
    one at a time, with the modulus phi_scan's verdict takes (np.abs of the
    array), and every cell printed "%.17g" of its float."""
    mods = np.abs(field.values)
    rows = [(th, r, field.values[i, j].real, field.values[i, j].imag, mods[i, j])
            for j, r in enumerate(field.r_grid)
            for i, th in enumerate(field.theta_grid)]
    if field.infinity_slice is not None:
        rows += [(th, -1.0, z.real, z.imag, m) for th, z, m in
                 zip(field.theta_grid, field.infinity_slice, np.abs(field.infinity_slice))]
    lines = ["theta,r,re,im,abs"] + [",".join("%.17g" % float(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_phi_csv_bytes_match_row_writer(pin, sin_f, cfg, tmp_path):
    from isores.phi import PhiField
    base = phi_scan(pin, sin_f, 8, [0.0, 1.0, 50.0], cfg)
    values = base.values.copy()
    values[1, 0] = complex(-0.0, 0.25)
    values[2, 1] = 0.0
    field = PhiField(base.theta_grid, base.r_grid, values, base.infinity_slice,
                     base.min_modulus, base.argmin)
    got = write_phi_csv(field, tmp_path / "field.csv").read_bytes()
    assert got == _row_by_row_csv(field)
    assert b",-0,0.25,0.25\n" in got and b",0,0,0\n" in got

    # a step scan with its infinity slice: no column repeats the one before
    step = phi_scan(pin, STEP_4, 16, [0.0, 1.0, 50.0], cfg)
    columns = np.column_stack([step.values, step.infinity_slice]).T
    assert all((a != b).any() for a, b in zip(columns, columns[1:]))
    # columns A, A, B, A, Z, Z': equal adjacent and apart, so text reused by
    # anything but the column before (its r, its profile, the first column)
    # shows; Z and Z' differ only in the sign of a zero, which == misses
    a, b = base.values[:, 0], base.values[:, 1]
    z, z_ = a.copy(), a.copy()
    z[0], z_[0] = 0.0, complex(-0.0, 0.0)
    repeats = PhiField(base.theta_grid, np.arange(6.0), np.column_stack([a, a, b, a, z, z_]),
                       None, 0.0, (0.0, 0.0))
    # one theta and one r, with the infinity slice
    single = phi_scan(pin, sin_f, 1, [1.0], cfg)
    # cells that print apart from ordinary floats, in the grid and the slice
    special = np.array([complex(math.nan, -0.0), complex(math.inf, 5e-324),
                        complex(-math.inf, 0.0), complex(-0.0, math.nan)])
    slice_ = np.array([complex(-0.0, math.inf), complex(5e-324, math.nan),
                       complex(0.0, -math.inf), complex(math.nan, -0.0)])
    odd = PhiField(np.linspace(0.0, TWO_PI, 4, endpoint=False), np.array([0.0, 1.0]),
                   np.column_stack([special, special[::-1]]), slice_, 0.0, (0.0, 0.0))
    for field in (step, repeats, single, odd):
        got = write_phi_csv(field, tmp_path / "field.csv").read_bytes()
        assert got == _row_by_row_csv(field)
    assert got.splitlines()[1:10:4] == [b"0,0,nan,-0,nan", b"0,1,-0,nan,nan",
                                        b"0,-1,-0,inf,inf"]


def test_phi_csv_formats_each_theta_r_and_distinct_column_once(pin, cfg, tmp_path,
                                                               monkeypatch):
    # counted at the one formatting helper: the theta grid, the r values
    # (-1 for the infinity slice) and each column's 3 cells per theta, a
    # column equal to the one before formatted with it
    import isores.io
    counted, format_rows = [], isores.io.format_rows

    def counting(values, width=1):
        counted.append(len(values))
        return format_rows(values, width)
    monkeypatch.setattr(isores.io, "format_rows", counting)
    homogeneous = phi_scan(iso.asymmetric(4.0, 4.0 / 9.0), TrigPoly(sin_coeffs=(1.0,)), 256,
                           default_r_grid(), cfg)
    write_phi_csv(homogeneous, tmp_path / "a.csv")
    assert sum(counted) == 256 + 60 + 3 * 256
    counted.clear()
    write_phi_csv(phi_scan(pin, STEP_4, 256, default_r_grid(), cfg), tmp_path / "b.csv")
    assert sum(counted) == 256 + 61 + 3 * 256 * 61


def test_phi_csv_of_a_homogeneous_scan_repeats_one_column(cfg, tmp_path):
    # every r of an asymmetric centre shares one profile, so the scan's r
    # columns are equal bit for bit and the CSV's re, im and abs columns
    # repeat the first column's 256 rows in every r block
    field = phi_scan(iso.asymmetric(4.0, 4.0 / 9.0), TrigPoly(sin_coeffs=(1.0,)), 256,
                     [0.5, 1.0, 50.0, 1e3], cfg)
    assert field.infinity_slice is None
    bits = field.values.view(np.int64).reshape(256, 4, 2)    # theta, r, (re, im)
    assert (bits == bits[:, :1]).all()
    got = write_phi_csv(field, tmp_path / "field.csv").read_bytes()
    assert got == _row_by_row_csv(field)
    cells = [line.split(b",")[2:] for line in got.splitlines()[1:]]
    assert len(cells) == 4 * 256
    assert all(cells[k] == cells[k % 256] for k in range(len(cells)))


