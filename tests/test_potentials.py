import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

import isores as iso
from isores.errors import ConfigError, DomainError, NumericsError
from isores.potentials import (DOMAIN_GUARD, appendix_audit, asymmetric, brentq,
                               custom, harmonic, inverse_V, pinney,
                               potential_from_descriptor, sigma_map)


def test_pinney_values(pin):
    assert pin.v(0.0) == pytest.approx(0.0, abs=1e-15)
    assert pin.dv(0.0) == pytest.approx(0.0, abs=1e-15)
    assert pin.d2v(0.0) == pytest.approx(1.0, abs=1e-15)   # 1/4 + 3/4
    assert pin.dv(1.0) == pytest.approx(15.0 / 32.0, abs=1e-15)
    assert pin.v(1.0) == pytest.approx(9.0 / 32.0, abs=1e-15)


# V(x) = ((x+1)^2 + (x+1)^-2)/8 - 1/4 at the float x, in 40-digit mpmath
_PINNEY_V_MP = [(0.01, 4.950617586511126565256355e-5), (1e-4, 4.999500062492501354045501e-9),
                (1e-6, 4.999995000006249539981806e-13), (1e-8, 4.999999950000000834225598e-17),
                (-1e-8, 5.000000050000000834225619e-17), (-0.01, 5.050632588511376601506422e-5),
                (-0.9, 12.25125000000000555056001), (2.5, 1.29145408163265306122449),
                (1e8, 1250000024999999.875)]


def test_pinney_v_has_no_cancellation_near_the_centre(pin):
    # 0.125 (u^2 + u^-2) - 0.25 cancelled near 0: 6.9e-13 off at x = 0.01,
    # the first nonzero r of default_r_grid, and 0.11 at 1e-8
    for x, ref in _PINNEY_V_MP:
        assert abs(pin.v(x) / ref - 1) <= 1e-15, x
    xs = np.array([x for x, _ in _PINNEY_V_MP])
    assert np.array_equal(pin.v(xs), [pin.v(x) for x in xs])


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
    # V, V' and V'' are declared once, as text: an array takes the float
    # arithmetic of that text at each element, and V' and V'' are the text
    # the integrator compiles
    xs = np.concatenate([np.linspace(-0.999, 5.0, 3001), [0.0, -0.0, 40.0, 1e150]])
    *exprs, constants = pot.scalar
    for fn in (pot._v, pot._dv, pot._d2v):
        # the text gives a Python float on a float, used as a scalar
        assert all(type(fn(float(x))) is float for x in xs)
    for fn, expr in zip((pot._dv, pot._d2v), exprs):
        code = compile(expr, "<scalar>", "eval")
        scalar = [eval(code, dict(constants), {"x": float(x)}) for x in xs]
        assert all(type(y) is float for y in scalar)
        assert scalar == [fn(float(x)) for x in xs]
    for method in (pot.v, pot.dv, pot.d2v):
        got = [method(float(x)) for x in xs]
        assert all(type(y) is float for y in got)
        # a 0-d argument takes the float path too
        assert np.array_equal(got, [method(np.asarray(x)) for x in xs])
        assert np.array_equal(got, method(xs))
        assert np.array_equal(np.signbit(got), np.signbit(method(xs)))
        assert method(xs.reshape(5, -1)).shape == (5, 3005 // 5)


@pytest.mark.parametrize("pot, name, x", [
    (harmonic(1), "v", -1e160), (pinney(), "v", 1e160), (asymmetric(4.0, 4.0 / 9.0), "v", 1e160),
    (asymmetric(4.0, 4.0 / 9.0), "v", -1e160), (harmonic(3), "dv", 1e308),
    (asymmetric(4.0, 4.0 / 9.0), "dv", 1e308)], ids=lambda p: getattr(p, "kind", str(p)))
def test_builtin_overflow_is_inf(pot, name, x):
    # a float ** raises OverflowError where a product is inf, so the text
    # writes its squares as products (inverse_V reads an inf as "above")
    method = getattr(pot, name)
    assert method(x) == math.inf
    with np.errstate(over="ignore"):
        assert method(np.array([x, 1.0]))[0] == math.inf


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


def test_appendix_audit_needs_a_bounded_center_of_period_2pi():
    with pytest.raises(ConfigError, match="needs minimal period 2\\*pi"):
        appendix_audit(harmonic(2), [1.0])
    with pytest.raises(DomainError, match="needs a finite left endpoint"):
        appendix_audit(harmonic(1), [1.0])


def test_inverse_level_helpers(pin):
    e = pin.v(2.5)
    assert inverse_V(pin, e, 1) == pytest.approx(2.5, rel=1e-12)
    s = inverse_V(pin, e, -1)
    assert pin.v(s) == pytest.approx(e, rel=1e-12)
    h = harmonic(2)
    assert inverse_V(h, 2.0, -1) == pytest.approx(-1.0, rel=1e-12)
    # roots past 2^199.5 and below 2^-100 in size, both to a relative width
    assert inverse_V(harmonic(1), 1e120, 1) == pytest.approx(math.sqrt(2e120), rel=1e-15)
    assert inverse_V(harmonic(1), 1e-121, -1) == pytest.approx(-math.sqrt(2e-121), rel=1e-15)


def test_inverse_level_walks_from_one(pin):
    # the walk starts at 1, so a level near V(1) reads V a handful of times,
    # not the ~200 of a scan up the ladder from 2^-100
    calls = []
    counted = custom(v=lambda x: calls.append(1) or pin.v(x), dv=pin.dv, d2v=pin.d2v,
                     domain_left=-1.0)
    assert inverse_V(counted, 0.337, 1) == inverse_V(pin, 0.337, 1)
    assert len(calls) <= 20


# x^2/2 + x^4/4 with Python float powers, whose x**4 raises OverflowError
# past 2^256, where V would be about 4.5e307
_QUARTIC = custom(v=lambda x: float(x) ** 2 / 2 + float(x) ** 4 / 4,
                  dv=lambda x: x + x ** 3, d2v=lambda x: 1 + 3 * x ** 2)


def _ladder_from_zero(pot, side):
    """The walk's ladder on one side, read from its far end at 0 outwards:
    x0 2^(k/2) with x0 = side (a/2 on a finite side a), then on a finite
    side the points that halve the gap to a, down to the first float above
    a + DOMAIN_GUARD."""
    a = pot.domain_left if side < 0 else math.inf
    if math.isinf(a):
        return [side * 2.0 ** (k / 2.0) for k in range(-2150, 2048)]
    floor = math.nextafter(a + DOMAIN_GUARD, math.inf)
    inner = [a / 2 * 2.0 ** (k / 2.0) for k in range(-2150, 1)]
    outer = [a + (a / 2 - a) * 2.0 ** -k for k in range(1, 60)]
    return inner + [x for x in outer if x > floor] + [floor]


@pytest.mark.parametrize("pot", [pinney(), harmonic(3), asymmetric(2.0, 0.3), _QUARTIC],
                         ids=["pinney", "harmonic3", "asymmetric", "quartic"])
@pytest.mark.parametrize("level", [1e-300, 1e-121, 1e-40, 1e-3, 0.337, 1.0, 7.5, 1e40,
                                   1e120, 1e300])
def test_inverse_level_brackets_at_the_first_ladder_point(pot, level):
    # the walk from 1 (or a/2) finds the same straddling pair as a scan of
    # its ladder from 0, so the root is the same to the bit; on Pinney's
    # finite side a level above V at the walk's floor has no bracket
    g = lambda x: pot.v(x) - level
    for side in (1, -1):
        ladder = _ladder_from_zero(pot, side)
        k = next((k for k, x in enumerate(ladder) if g(x) >= 0), None)
        if k is None:
            with pytest.raises(NumericsError, match="could not bracket"):
                inverse_V(pot, level, side)
            continue
        lo, hi = sorted((ladder[k - 1], ladder[k]))
        root = ladder[k] if g(ladder[k]) == 0 else brentq(
            g, lo, hi, xtol=math.ulp(0.0), rtol=8.9e-16, maxiter=200)
        assert inverse_V(pot, level, side) == root


def _closed_form_root(pot, level, side):
    """The root x* of V(x) = level in 400-digit decimal arithmetic:
    side sqrt(2 level/alpha), alpha the curvature on that side, or on
    Pinney u - 1/u = side sqrt(8 level) with u = x + 1, so x* = s/2 (1 +
    s/(sqrt(s^2 + 4) + 2)) with s = side sqrt(8 level)."""
    with localcontext() as ctx:
        ctx.prec = 400
        level = Decimal(level)
        if pot.kind == "pinney":
            s = side * (8 * level).sqrt()
            return s / 2 * (1 + s / ((s * s + 4).sqrt() + 2))
        alpha = pot.params[0] ** 2 if pot.kind == "harmonic" else pot.params[side < 0]
        return side * (2 * level / Decimal(alpha)).sqrt()


@pytest.mark.parametrize("pot", [harmonic(1), harmonic(3), asymmetric(2.0, 0.3), pinney()],
                         ids=["harmonic1", "harmonic3", "asymmetric", "pinney"])
@pytest.mark.parametrize("side", [1, -1])
def test_inverse_level_is_exact_to_rounding(pot, side):
    # every factor 10^7 from 1e-300 to 1e295, each root in V's domain (on
    # Pinney's finite side, above a + DOMAIN_GUARD); the
    # ladder walks once stopped at 2^-100 and 2^199.5 and refined below 1e-15
    # to an absolute width (harmonic(1): 44 % off at 1e-119), and Pinney's V
    # cancelled near 0 (32 % off at 1e-40)
    floor = Decimal(pot.domain_left + DOMAIN_GUARD) if pot.singular_left else None
    checked = 0
    for k in range(-300, 301, 7):
        level = float(f"1e{k}")
        exact = _closed_form_root(pot, level, side)
        if floor is not None and exact <= floor:
            continue
        x = inverse_V(pot, level, side)
        assert abs(Decimal(x) / exact - 1) <= Decimal("1e-15"), (level, x)
        checked += 1
    assert checked >= 40


def test_inverse_level_reaches_the_edge_of_the_domain(pin):
    # Pinney's roots between a + DOMAIN_GUARD and a + 4 DOMAIN_GUARD are in
    # V's domain: the walk once stopped at the latter and could not bracket
    # them (level 1e26: root -1 + 3.5e-14); a root inside the guard still
    # has no bracket
    for level in (1e26, 1e27, 1.2e27):
        exact = _closed_form_root(pin, level, -1)
        assert exact < Decimal(pin.domain_left + 4 * DOMAIN_GUARD)
        x = inverse_V(pin, level, -1)
        assert abs(Decimal(x) / exact - 1) <= Decimal("1e-15"), (level, x)
    for level in (1.3e27, 1e28):
        with pytest.raises(NumericsError, match="could not bracket"):
            inverse_V(pin, level, -1)


@pytest.mark.parametrize("side", [1, -1])
def test_inverse_level_past_the_overflow_of_v_raises(side):
    # the walk reaches 2^256 at level 1.2e307, where x**4 overflows: an
    # overflow counts as above the level, and the root below it is V's; at
    # 1e308 the only sign change is the overflow itself
    root = inverse_V(_QUARTIC, 1.2e307, side)
    assert side * root == pytest.approx((4.8e307) ** 0.25, rel=1e-15)
    assert _QUARTIC.v(root) == pytest.approx(1.2e307, rel=1e-15)
    for pot in (_QUARTIC, custom(v=lambda x: x ** 2 / 2 + x ** 4 / 4,   # inf, not an error
                                 dv=_QUARTIC.dv, d2v=_QUARTIC.d2v)):
        with pytest.raises(NumericsError, match="V overflows before it reaches 1e"):
            with np.errstate(over="ignore"):
                inverse_V(pot, 1e308, side)


@pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("side", [1, -1])
def test_inverse_level_must_be_finite_and_positive(pin, side, level):
    # a nan level passed the old level <= 0 test and failed in the bracketing
    # with "could not bracket V = nan"
    with pytest.raises(DomainError, match="level must be finite and positive"):
        inverse_V(pin, level, side)


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


_TINY = 2.2250738585072014e-308


@given(case=_root_case())
# subnormal values of f make a divisor of the interpolation 0: with numpy
# float tolerances the iterates were numpy floats, whose 0/0 warned
@example(case=(lambda x: ((_TINY * x + 0.0) * x + 0.0) * x + _TINY, 0.0, -2.0, _EPS4, _EPS4))
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
    # a custom centre declares no closed forms (Pinney's psi, its r = inf
    # slice, T-), and neither its kind nor those can be passed in
    args = dict(v=lambda x: 0.5 * np.asarray(x) ** 2, dv=lambda x: np.asarray(x),
                d2v=lambda x: np.ones_like(np.asarray(x, dtype=float)), n_iso=1)
    assert custom(**args).kind == "custom"
    with pytest.raises(TypeError):
        custom(**args, kind="pinney")
    assert (custom(**args).profile, custom(**args).fourier, custom(**args).t_minus) == (None,) * 3
    for name in ("profile", "fourier", "homogeneous", "t_minus"):
        with pytest.raises(TypeError):
            custom(**args, **{name: getattr(pinney(), name)})


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
    with pytest.raises(ConfigError, match="must be an object"):
        potential_from_descriptor("x")


@pytest.mark.parametrize("d", [{"kind": "harmonic", "n": 2.5}, {"kind": "harmonic", "n": True},
                               {"kind": "harmonic", "n": math.inf},
                               {"kind": "asymmetric", "alpha": True, "beta": 4.0},
                               {"kind": "asymmetric", "alpha": 4.0, "beta": False}])
def test_descriptor_rejects_fractional_and_boolean_numbers(d):
    # int(2.5) built harmonic(2), int(True) harmonic(1) and float(True) an
    # alpha of 1; int(inf) raised OverflowError, which no caller catches
    with pytest.raises(ConfigError):
        potential_from_descriptor(d)


@pytest.mark.parametrize("d", [{"kind": "harmonic", "n": "2"},     # built harmonic(2)
                               {"kind": "asymmetric", "alpha": "4", "beta": 0.25},
                               {"kind": "asymmetric", "alpha": 4.0, "beta": "0.25"},
                               {"kind": "harmonic", "n": None}])
def test_descriptor_numbers_are_not_strings(d):
    with pytest.raises(ConfigError, match="is not a number"):
        potential_from_descriptor(d)


def test_harmonic_n_whose_square_leaves_the_float_range_is_a_usage_error():
    # float(n * n) overflowed: harmonic(10**200) escaped as OverflowError and
    # the well-formed descriptor read "malformed descriptor (int too large to
    # convert to float)"
    for build in (lambda: harmonic(10**200),
                  lambda: potential_from_descriptor({"kind": "harmonic", "n": 1e300})):
        with pytest.raises(ConfigError, match=r"^potential\.n: must be below 1\.34e154"):
            build()
    assert harmonic(2**511).d2v(0.0) == 2.0**1022


@pytest.mark.parametrize("pot", [harmonic(1), harmonic(3), asymmetric(4.0, 4.0 / 9.0),
                                 asymmetric(2.5, 0.5347), asymmetric(16.0, 0.3265),
                                 asymmetric(1.0, 1.0 / 9.0), asymmetric(1.0 + 2e-6, 1.0 / 9.0)],
                         ids=lambda pot: f"{pot.kind}{pot.params}")
def test_chain_fourier_and_antiderivative_match_the_quadrature(pot):
    # the declared c_m and Psi of the sinusoid chain (isochronous, not
    # isochronous, and omega - m = 1e-6 from a harmonic) against
    # adaptive_complex_quad over the declared psi, split at its kinks
    from isores.forcing import TWO_PI, adaptive_complex_quad
    psi, kinks, antiderivative = pot.profile(1.0)
    knots = np.unique(np.concatenate([[0.0, TWO_PI], kinks]))
    m = np.arange(-8, 9)
    owner, j = np.divmod(np.arange(m.size * (knots.size - 1)), knots.size - 1)
    cm = adaptive_complex_quad(lambda t, k: psi(t) * np.exp(-1j * m[k] * t),
                               (knots[j], knots[j + 1], owner)) / TWO_PI
    assert np.max(np.abs(pot.fourier(1.0, 8) - cm)) <= 1e-14
    ts = np.linspace(0.0, TWO_PI, 53)
    a, b, owner = [], [], []        # int_0^t psi is integral i - 1 for t = ts[i]
    for i, t in enumerate(ts[1:]):
        edges = np.unique(np.concatenate([[0.0, t], knots[knots < t]]))
        a, b, owner = a + edges[:-1].tolist(), b + edges[1:].tolist(), owner + [i] * (edges.size - 1)
    quad = adaptive_complex_quad(lambda t, k: psi(t), tuple(map(np.array, (a, b, owner))))
    assert np.max(np.abs(antiderivative(ts) - np.append(0.0, quad))) <= 1e-14
