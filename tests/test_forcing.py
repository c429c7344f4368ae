import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import isores as iso
from isores.errors import ConfigError, NumericsError
from isores.forcing import (PiecewiseConst, Sampled, TrigPoly, TWO_PI, _MAX_LIVE,
                            abs_integral, adaptive_complex_quad,
                            complex_fourier_coefficients,
                            forcing_from_descriptor,
                            fourier_coefficient, fourier_coefficient_quadrature,
                            l1_norm)

coeff = st.floats(-3.0, 3.0, allow_nan=False)
trig_polys = st.builds(
    TrigPoly,
    a0=coeff,
    cos_coeffs=st.lists(coeff, min_size=0, max_size=4).map(tuple),
    sin_coeffs=st.lists(coeff, min_size=0, max_size=4).map(tuple))


def test_eval_trig_examples():
    assert TrigPoly(sin_coeffs=(1.0,)).eval(math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    f = TrigPoly(a0=0.5, cos_coeffs=(2.0,), sin_coeffs=(0.0, 1.0))
    t = 0.37
    assert f.eval(t) == pytest.approx(0.5 + 2 * math.cos(t) + math.sin(2 * t))


def test_trig_float_path_matches_array_path():
    # harmonic 2 is all zero, the others have one zero coefficient each
    f = TrigPoly(a0=0.3, cos_coeffs=(1.0, 0.0, -0.5, 0.0),
                 sin_coeffs=(0.0, 0.0, 0.25, 2.0))
    ts = np.linspace(-40.0, 40.0, 4001)
    arr = f.eval(ts)
    for t, want in zip(ts, arr):
        got = f.eval(float(t))
        assert type(got) is float and got == want
        assert f.eval(np.float64(t)) == want
    assert type(TrigPoly(a0=2).eval(1.0)) is float


def test_eval_piecewise_thm_c_profile():
    # the pi-periodic two-level profile: 1 on [0, pi/2), c=4 on [pi/2, pi)
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                       period=math.pi)
    assert f.eval(0.1) == 1.0
    assert f.eval(2.0) == 4.0
    # right continuity: the breakpoint belongs to the right piece
    assert f.eval(math.pi / 2) == 4.0
    assert f.eval(0.0) == 1.0
    # pi-periodicity
    assert f.eval(0.1 + math.pi) == 1.0


def test_eval_sampled_interpolation():
    f = Sampled(values=(0.0, 1.0, 0.0, -1.0))
    assert f.eval(math.pi / 4) == pytest.approx(0.5)
    # wraps linearly from the last sample back to the first
    assert f.eval(2 * math.pi - math.pi / 4) == pytest.approx(-0.5)


@given(trig_polys, st.floats(-50.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_periodicity(f, t):
    assert f.eval(t + TWO_PI) == pytest.approx(f.eval(t), abs=1e-9)


@pytest.mark.parametrize("fac", [
    PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0), period=math.pi),
    Sampled(values=(0.0, 1.0, 0.5, -1.0, 0.25)),
])
def test_periodicity_nonsmooth(fac):
    for t in np.linspace(-7.0, 7.0, 41):
        assert fac.eval(t + TWO_PI) == pytest.approx(fac.eval(t), abs=1e-12)


def test_l1_norm_examples():
    assert l1_norm(TrigPoly(sin_coeffs=(1.0,))) == pytest.approx(4.0, rel=1e-10)
    assert l1_norm(TrigPoly()) == 0.0
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0), period=math.pi)
    # independent oracle: piecewise sum 2*(1*pi/2 + 4*pi/2) = 5*pi
    assert l1_norm(f) == pytest.approx(5 * math.pi, rel=1e-12)


def test_l1_norm_is_exact_to_rounding():
    # the kinks of |p| are not split points: the adaptive quadrature finds
    # them; reference from mpmath at 30 digits, split at the zeros of p
    f = TrigPoly(a0=0.3, cos_coeffs=(1.0,), sin_coeffs=(0.0, 0.0, -0.7))
    assert abs(l1_norm(f) - 4.7372561473572980) <= 1e-13
    assert l1_norm(TrigPoly(cos_coeffs=(0.0, 1.0))) == 4.0


def test_noise_floor_integrand_stops_at_the_refinement_budget():
    # 1e-8 sin(1e12 t) is rounding noise to every Gauss-Legendre rule, so no
    # segment meets the tolerance; without a budget each pass doubled them
    for hard_rtol in (None, 1e-5):
        points = []

        def g(x, k):
            points.append(x.size)
            return 1.0 + 1e-8 * np.sin(1e12 * x) + 0j
        try:
            val = adaptive_complex_quad(g, ([0.0], [1.0], [0]), hard_rtol=hard_rtol)
            assert abs(val[0] - 1.0) <= (hard_rtol or 1e-10)
        except NumericsError as exc:
            assert hard_rtol is None and "stalled" in str(exc)
        # every pass halves at most 2 * _MAX_LIVE segments at 2 * 16 nodes,
        # and the live counts double up to that: a geometric sum
        assert sum(points) <= 8 * 16 * _MAX_LIVE


def test_abs_integral_partial_periods():
    f = TrigPoly(sin_coeffs=(1.0,))
    assert abs_integral(f, 0.0) == 0.0
    assert abs_integral(f, math.pi) == pytest.approx(2.0, rel=1e-10)
    assert abs_integral(f, 2 * TWO_PI + math.pi) == pytest.approx(10.0, rel=1e-10)


def test_fourier_examples():
    sin = TrigPoly(sin_coeffs=(1.0,))
    cos = TrigPoly(cos_coeffs=(1.0,))
    assert fourier_coefficient(sin, 1) == pytest.approx(1j * math.pi, abs=1e-12)
    assert fourier_coefficient(sin, 2) == pytest.approx(0.0, abs=1e-12)
    assert fourier_coefficient(cos, 1) == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        fourier_coefficient(sin, 0)


@given(trig_polys, st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_fourier_closed_form_vs_quadrature(f, n):
    closed = fourier_coefficient(f, n)
    quad = fourier_coefficient_quadrature(f, n)
    assert abs(closed - quad) < 1e-10


@given(trig_polys, st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_fourier_bounded_by_l1(f, n):
    assert abs(fourier_coefficient(f, n)) <= l1_norm(f) + 1e-9


def test_fourier_piecewise_exact_vs_quadrature():
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0), period=math.pi)
    for n in (1, 2, 3):
        assert abs(fourier_coefficient(f, n)
                   - fourier_coefficient_quadrature(f, n)) < 1e-10


def test_complex_fourier_coefficients_reconstruct():
    f = TrigPoly(a0=0.3, cos_coeffs=(1.0, -0.5), sin_coeffs=(0.25,))
    cm = complex_fourier_coefficients(f, 3)
    ts = np.linspace(0, TWO_PI, 17)
    rec = sum(cm[k + 3] * np.exp(1j * k * ts) for k in range(-3, 4))
    assert np.allclose(rec.imag, 0.0, atol=1e-14)
    assert np.allclose(rec.real, f.eval(ts), atol=1e-13)


def test_descriptor_round_trip():
    # each descriptor builds the forcing its fields name
    for desc, f in (
            ({"kind": "trig", "a0": 1.0, "a": [2.0], "b": [0.0, 3.0]},
             TrigPoly(a0=1.0, cos_coeffs=(2.0,), sin_coeffs=(0.0, 3.0))),
            ({"kind": "piecewise", "period": math.pi, "breaks": [0.0, 1.0],
              "values": [1.0, -1.0]},
             PiecewiseConst(breakpoints=(0.0, 1.0), values=(1.0, -1.0), period=math.pi)),
            ({"kind": "sampled", "values": [0.0, 1.0, 0.0, -1.0]},
             Sampled(values=(0.0, 1.0, 0.0, -1.0)))):
        g = forcing_from_descriptor(desc)
        for t in np.linspace(0, TWO_PI, 23):
            assert g.eval(t) == pytest.approx(f.eval(t), abs=1e-15)


def test_descriptor_validation():
    with pytest.raises(ConfigError):
        forcing_from_descriptor({"kind": "nope"})
    with pytest.raises(ConfigError):
        forcing_from_descriptor({"kind": "piecewise", "period": 1.0,
                                 "breaks": [0.0], "values": [1.0]})  # 2pi/1 not integer
    with pytest.raises(ConfigError):
        PiecewiseConst(breakpoints=(0.5, 0.1), values=(1.0, 2.0), period=math.pi)
    with pytest.raises(ConfigError):
        Sampled(values=(1.0,))
    with pytest.raises(ConfigError):
        TrigPoly(a0=math.nan)
