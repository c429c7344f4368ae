import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import isores as iso
from isores.errors import ConfigError, DomainError, NumericsError
from isores.potentials import (appendix_audit, asymmetric, brentq, custom,
                               harmonic, inverse_V_negative, inverse_V_positive,
                               pinney, potential_from_descriptor, sigma_map)


def test_pinney_values(pin):
    assert pin.v(0.0) == pytest.approx(0.0, abs=1e-15)
    assert pin.dv(0.0) == pytest.approx(0.0, abs=1e-15)
    assert pin.d2v(0.0) == pytest.approx(1.0, abs=1e-15)   # 1/4 + 3/4
    assert pin.dv(1.0) == pytest.approx(15.0 / 32.0, abs=1e-15)
    assert pin.v(1.0) == pytest.approx(9.0 / 32.0, abs=1e-15)


def test_harmonic_values():
    h = harmonic(2)
    assert h.v(3.0) == 18.0
    assert h.dv(3.0) == 12.0
    assert h.d2v(3.0) == 4.0
    assert h.n_iso == 2
    with pytest.raises(ConfigError):
        harmonic(0)


def test_asymmetric_values_and_convention():
    a = asymmetric(4.0, 4.0 / 9.0)
    assert a.v(2.0) == pytest.approx(8.0)
    assert a.v(-3.0) == pytest.approx(2.0)
    assert a.dv(2.0) == pytest.approx(8.0)
    assert a.dv(-3.0) == pytest.approx(-4.0 / 3.0)
    assert a.d2v(1.0) == 4.0
    assert a.d2v(-1.0) == pytest.approx(4.0 / 9.0)
    assert a.d2v(0.0) == 4.0          # convention: alpha at the kink
    assert a.n_iso == 1               # pi/2 + 3*pi/2 = 2*pi
    assert asymmetric(1.0, 1.0).n_iso == 1
    assert asymmetric(2.0, 3.0).n_iso is None


@pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.inf),
                                         (math.nan, 1.0), (1.0, 0.0)])
def test_asymmetric_requires_finite_positive_coefficients(alpha, beta):
    with pytest.raises(ConfigError, match="potential.alpha/beta"):
        asymmetric(alpha, beta)


@pytest.mark.parametrize("pot", [harmonic(1), harmonic(3), pinney(),
                                 asymmetric(4.0, 4.0 / 9.0)],
                         ids=lambda p: p.kind + str(p.params))
def test_derivative_float_path_matches_array_path(pot):
    # the float path is the declared expression the integrator compiles
    xs = np.concatenate([np.linspace(-0.999, 5.0, 3001), [0.0, -0.0, 40.0]])
    *exprs, constants = pot.scalar
    for fn, expr in zip((pot._dv, pot._d2v), exprs):
        code = compile(expr, "<scalar>", "eval")
        scalar = lambda x: eval(code, dict(constants), {"x": x})
        arr = np.asarray(fn(xs), dtype=float)
        got = np.array([scalar(float(x)) for x in xs])
        assert all(type(scalar(float(x))) is float for x in xs[::100])
        # a 0-d argument takes the array path with the scalar arithmetic
        assert np.array_equal(got, [float(fn(np.asarray(x))) for x in xs])
        if pot.kind == "pinney":
            # numpy's vectorised power may round u**-3 and u**-4 differently
            # from libm's pow by an ulp: bound the error by the power term
            u = xs + 1.0
            assert np.all(np.abs(got - arr) <= 4.5e-16 * (u + u ** -4))
        else:
            assert np.array_equal(got, arr)


def test_domain_guard(pin):
    assert pin.v(-1.0 + 1e-6) > 1e6 * 0.1
    with pytest.raises(DomainError):
        pin.v(-1.0)
    with pytest.raises(DomainError):
        pin.dv(-1.0 + 1e-15)
    with pytest.raises(DomainError):
        pin.v(math.inf)


def test_restoring_sign_property(pin):
    for pot in (pin, harmonic(3), asymmetric(4.0, 4.0 / 9.0)):
        xs = np.concatenate([-np.logspace(-3, -0.5, 15), np.logspace(-3, 1.5, 15)])
        if pot.singular_left:
            xs = xs[xs > pot.domain_left + 1e-3]
        assert np.all(xs * pot.dv(xs) > 0)
        assert pot.v(0.0) == 0.0


def test_finite_difference_consistency(pin):
    xs = np.concatenate([-1 + np.logspace(-3, -0.31, 10), np.logspace(-2, 2, 12)])
    for x in xs:
        # step scaled to the distance from the asymptote so the truncation
        # term (h/(x+1))^2 stays far below the tolerance
        h = 1e-6 * min(1.0, 0.01 * (x + 1.0))
        dv_fd = (pin.v(x + h) - pin.v(x - h)) / (2 * h)
        d2v_fd = (pin.dv(x + h) - pin.dv(x - h)) / (2 * h)
        assert dv_fd == pytest.approx(pin.dv(x), rel=1e-6, abs=1e-8)
        assert d2v_fd == pytest.approx(pin.d2v(x), rel=1e-5, abs=1e-7)


def test_pinney_d2v_range(pin):
    xs = np.logspace(-4, 3, 50)
    vals = pin.d2v(xs)
    assert np.all(vals > 0.25) and np.all(vals <= 1.0)
    xs_neg = -1 + np.logspace(-4, -0.01, 40)
    assert np.all(pin.d2v(xs_neg) > 0)


def _bisect_sigma(pin, x, tol=1e-13):
    # independent oracle: plain bisection of V(s) = V(x) on (-1, 0)
    target = pin.v(x)
    lo, hi = -1 + 1e-12, -1e-14
    assert pin.v(lo) > target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pin.v(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_sigma_map_examples(pin):
    # x -> 0+ continuity
    assert abs(sigma_map(pin, 1e-8)) < 1e-6
    # x = 1: bisection oracle (and the algebraic value -x/(x+1))
    s1 = sigma_map(pin, 1.0)
    assert s1 == pytest.approx(_bisect_sigma(pin, 1.0), abs=1e-11)
    assert s1 == pytest.approx(-0.5, abs=1e-12)
    # x = 100: asymptotically -1 + 1/(x+1)
    s100 = sigma_map(pin, 100.0)
    assert s100 == pytest.approx(_bisect_sigma(pin, 100.0), abs=1e-11)
    assert abs(s100 - (-1.0 + 1.0 / 101.0)) < 1e-3


def test_sigma_map_level_and_monotonicity(pin):
    xs = np.logspace(-2, 2, 25)
    sig = np.array([sigma_map(pin, x) for x in xs])
    for x, s in zip(xs, sig):
        assert pin.v(s) == pytest.approx(pin.v(x), rel=1e-11, abs=1e-13)
    assert np.all(np.diff(sig) < 0)
    with pytest.raises(DomainError):
        sigma_map(iso.harmonic(1), 1.0)
    with pytest.raises(DomainError):
        sigma_map(pin, -1.0)


def test_appendix_audit_examples(pin):
    audit = appendix_audit(pin, [0.5, 1.0, 2.0, 10.0])
    assert np.all(np.abs(audit.iso_residuals) <= 1e-9)
    assert audit.slope_limit == pytest.approx(0.25)
    a100 = appendix_audit(pin, [100.0])
    assert a100.slope_defects[0] == pytest.approx(0.25 - 0.25 / 101.0 ** 3, abs=1e-9)
    # closed-form defect bound: |defect - 1/4| = 1/(4 (x+1)^3) exactly
    xs = np.array([0.5, 1.0, 2.0, 10.0, 100.0])
    audit = appendix_audit(pin, xs)
    assert np.allclose(np.abs(audit.slope_defects - 0.25),
                       0.25 / (xs + 1.0) ** 3, rtol=1e-9)
    # and -> 1/4 monotonically
    assert np.all(np.diff(audit.slope_defects) > 0)


def test_appendix_audit_near_zero(pin):
    audit = appendix_audit(pin, [1e-6])
    assert audit.slope_defects[0] == pytest.approx(0.0, abs=1e-5)


def test_inverse_level_helpers(pin):
    e = pin.v(2.5)
    assert inverse_V_positive(pin, e) == pytest.approx(2.5, rel=1e-12)
    s = inverse_V_negative(pin, e)
    assert pin.v(s) == pytest.approx(e, rel=1e-12)
    h = harmonic(2)
    assert inverse_V_negative(h, 2.0) == pytest.approx(-1.0, rel=1e-12)
    # roots past 2^199.5 and below 2^-100 in size; below 1e-15 the root is
    # found to brentq's absolute xtol only
    assert inverse_V_positive(harmonic(1), 1e120) == pytest.approx(math.sqrt(2e120), rel=1e-15)
    assert abs(inverse_V_negative(harmonic(1), 1e-121) + math.sqrt(2e-121)) <= 1e-15


def test_inverse_level_walks_from_one(pin):
    # the walk starts at 1, so a level near V(1) reads V a handful of times,
    # not the ~200 of a scan up the ladder from 2^-100
    calls = []
    counted = custom(v=lambda x: calls.append(1) or pin.v(x), dv=pin.dv, d2v=pin.d2v,
                     domain_left=-1.0)
    assert inverse_V_positive(counted, 0.337) == inverse_V_positive(pin, 0.337)
    assert len(calls) <= 20


# x^2/2 + x^4/4 with Python float powers, whose x**4 raises OverflowError
# past 2^256, where V would be about 4.5e307
_QUARTIC = custom(v=lambda x: float(x) ** 2 / 2 + float(x) ** 4 / 4,
                  dv=lambda x: x + x ** 3, d2v=lambda x: 1 + 3 * x ** 2)


@pytest.mark.parametrize("pot", [pinney(), harmonic(3), asymmetric(2.0, 0.3), _QUARTIC],
                         ids=["pinney", "harmonic3", "asymmetric", "quartic"])
@pytest.mark.parametrize("level", [1e-300, 1e-121, 1e-40, 1e-3, 0.337, 1.0, 7.5, 1e40,
                                   1e120, 1e300])
def test_inverse_level_brackets_at_the_first_ladder_point(pot, level):
    # the walk finds the same first ladder point as a scan from the ladder's
    # far end, 2^(k/2) for k = -200, ..., 2047 (negated and read outside in
    # on an unbounded left side, to k = 2148), so the root is the same to the
    # bit; below 2^-100 and above 2^199.5 (levels 1e-121 and 1e120 on the
    # harmonic centres) the walks once stopped and could not bracket
    g = lambda x: pot.v(x) - level
    hi = next(2.0 ** (k / 2.0) for k in range(-200, 2048) if g(2.0 ** (k / 2.0)) > 0)
    lo = next(hi * 2.0 ** (-k) for k in range(2000) if g(hi * 2.0 ** (-k)) < 0)
    assert inverse_V_positive(pot, level) == brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16,
                                                    maxiter=200)
    if math.isinf(pot.domain_left):
        hi = next(-(2.0 ** (-k / 2.0)) for k in range(-200, 2149) if g(-(2.0 ** (-k / 2.0))) < 0)
        lo = next(hi * 2.0 ** k for k in range(2000) if g(hi * 2.0 ** k) > 0)
        assert inverse_V_negative(pot, level) == brentq(g, lo, hi, xtol=1e-15,
                                                        rtol=8.9e-16, maxiter=200)


@pytest.mark.parametrize("inverse, sign", [(inverse_V_positive, 1.0),
                                           (inverse_V_negative, -1.0)])
def test_inverse_level_past_the_overflow_of_v_raises(inverse, sign):
    # the walk reaches 2^256 at level 1.2e307, where x**4 overflows: an
    # overflow counts as above the level, and the root below it is V's; at
    # 1e308 the only sign change is the overflow itself
    root = inverse(_QUARTIC, 1.2e307)
    assert sign * root == pytest.approx((4.8e307) ** 0.25, rel=1e-15)
    assert _QUARTIC.v(root) == pytest.approx(1.2e307, rel=1e-15)
    for pot in (_QUARTIC, custom(v=lambda x: x ** 2 / 2 + x ** 4 / 4,   # inf, not an error
                                 dv=_QUARTIC.dv, d2v=_QUARTIC.d2v)):
        with pytest.raises(NumericsError, match="V overflows before it reaches 1e"):
            with np.errstate(over="ignore"):
                inverse(pot, 1e308)


@pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("inverse", [inverse_V_positive, inverse_V_negative])
def test_inverse_level_must_be_finite_and_positive(pin, inverse, level):
    # a nan level passed the old level <= 0 test and failed in the bracketing
    # with "could not bracket V = nan"
    with pytest.raises(DomainError, match="level must be finite and positive"):
        inverse(pin, level)


# -- brentq: the port of scipy.optimize.brentq -------------------------------------

_EPS4 = 4 * np.finfo(float).eps


def _outcome(solver, f, a, b, xtol, rtol):
    """The root's bits, or the error type (NumericsError is a RuntimeError)."""
    try:
        return solver(f, a, b, xtol=xtol, rtol=rtol, maxiter=100).hex()
    except NumericsError:
        return RuntimeError
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@st.composite
def _root_case(draw):
    """A random cubic or tanh(k (x - c)) on a random bracket, in either order."""
    coef = st.floats(-3.0, 3.0)
    if draw(st.booleans()):
        c3, c2, c1, c0 = (draw(coef) for _ in range(4))
        f = lambda x: ((c3 * x + c2) * x + c1) * x + c0
    else:
        k, c = draw(st.floats(0.1, 1e4)), draw(coef)
        f = lambda x: math.tanh(k * (x - c))
    a, b = draw(coef), draw(coef)
    xtol, rtol = draw(st.sampled_from([(1e-15, 8.9e-16), (_EPS4, _EPS4)]))
    return f, a, b, xtol, rtol


@given(case=_root_case())
@settings(max_examples=400, deadline=None)
def test_brentq_is_scipys_float_for_float(case):
    f, a, b, xtol, rtol = case
    assert _outcome(brentq, f, a, b, xtol, rtol) == \
        _outcome(scipy.optimize.brentq, f, a, b, xtol, rtol)


def test_brentq_error_paths():
    with pytest.raises(ValueError, match="The function value at x=1.0 is NaN"):
        brentq(lambda x: math.nan if x > 0.9 else x - 0.2, 0.0, 1.0,
               xtol=1e-15, rtol=_EPS4)
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
        brentq(lambda x: x + 2.0, 0.0, 1.0, xtol=1e-15, rtol=_EPS4)
    with pytest.raises(NumericsError, match="no convergence after 3 iterations"):
        brentq(lambda x: math.tanh(50 * (x - 1 / 3)), 0.0, 1.0, xtol=1e-15, rtol=_EPS4,
               maxiter=3)
    with pytest.raises(ValueError, match="rtol too small"):
        brentq(lambda x: x - 0.2, 0.0, 1.0, xtol=1e-15, rtol=_EPS4 / 2)
    with pytest.raises(ValueError, match="xtol too small"):
        brentq(lambda x: x - 0.2, 0.0, 1.0, xtol=0.0, rtol=_EPS4)


def test_custom_potential_requires_isochrony_flag():
    pot = custom(v=lambda x: 0.5 * np.asarray(x) ** 2,
                 dv=lambda x: np.asarray(x),
                 d2v=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(ConfigError):
        pot.require_isochronous()


def test_custom_potential_kind_is_fixed():
    # phi and autonomous pick closed forms (Pinney's psi, its r = inf slice)
    # by kind, and only the built-in families have them
    args = dict(v=lambda x: 0.5 * np.asarray(x) ** 2, dv=lambda x: np.asarray(x),
                d2v=lambda x: np.ones_like(np.asarray(x, dtype=float)), n_iso=1)
    assert custom(**args).kind == "custom"
    with pytest.raises(TypeError):
        custom(**args, kind="pinney")


def test_descriptor_round_trip():
    for d in ({"kind": "harmonic", "n": 2}, {"kind": "pinney"},
              {"kind": "asymmetric", "alpha": 4.0, "beta": 4.0 / 9.0}):
        pot = potential_from_descriptor(d)
        assert pot.kind == d["kind"]
        assert pot.params == tuple(v for k, v in d.items() if k != "kind")
    with pytest.raises(ConfigError):
        potential_from_descriptor({"kind": "harmonic"})
    with pytest.raises(ConfigError):
        potential_from_descriptor({"kind": "mystery"})
