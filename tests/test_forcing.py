import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import isores as iso
from isores.errors import ConfigError, NumericsError
from isores.forcing import (PiecewiseConst, Sampled, TrigPoly, TWO_PI, _MAX_LIVE,
                            adaptive_complex_quad,
                            forcing_from_descriptor,
                            fourier_coefficient, fourier_coefficient_quadrature,
                            l1_norm, partition)

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
    # the float path is the scalar source the integrator compiles, one
    # expression; harmonic 2 is all zero, the others have one zero
    # coefficient each
    f = TrigPoly(a0=0.3, cos_coeffs=(1.0, 0.0, -0.5, 0.0),
                 sin_coeffs=(0.0, 0.0, 0.25, 2.0))
    span, lines, constants = f.scalar_source()
    assert span == [] and len(lines) == 1
    assert set(constants) == {"p_a0", "p_a1", "p_a3", "p_b3", "p_b4"}
    code = compile("\n".join(lines), "<scalar>", "exec")
    ts = np.linspace(-40.0, 40.0, 4001)
    arr = f.eval(ts)
    for t, want in zip(ts, arr):
        scope = {"tt": float(t)}
        exec(code, {"cos": math.cos, "sin": math.sin, **constants}, scope)
        assert type(scope["p"]) is float and scope["p"] == want
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


# period-pi and period-2pi/3 steps whose first start is past 0 (so their
# last piece wraps across 2*pi) and a sampled signal: (forcing, starts,
# values, slopes) of the declaration, written out from the constructor
# arguments
STEP = PiecewiseConst(breakpoints=(0.4, 1.9), values=(1.0, -2.0), period=math.pi)
SAMPLED = Sampled(values=(0.2, 1.0, -0.5, 0.3, -0.9))
THIRD = TWO_PI / 3
DECLARED = [
    (STEP, [0.4, 1.9, 0.4 + math.pi, 1.9 + math.pi], [1.0, -2.0, 1.0, -2.0], [0.0] * 4),
    (PiecewiseConst(breakpoints=(0.4, 1.9), values=(1.0, -2.0), period=THIRD),
     [0.4, 1.9, 0.4 + THIRD, 1.9 + THIRD, 0.4 + 2 * THIRD, 1.9 + 2 * THIRD],
     [1.0, -2.0] * 3, [0.0] * 6),
    (SAMPLED, [TWO_PI * j / 5 for j in range(5)], [0.2, 1.0, -0.5, 0.3, -0.9],
     [(b - a) / (TWO_PI / 5) for a, b in zip((0.2, 1.0, -0.5, 0.3, -0.9),
                                              (1.0, -0.5, 0.3, -0.9, 0.2))])]


@pytest.mark.parametrize("f, starts, values, slopes", DECLARED)
def test_pieces_are_the_declaration(f, starts, values, slopes):
    s, v, m = f.pieces
    assert np.allclose(s, starts, rtol=0, atol=1e-15) and v == tuple(values)
    assert np.allclose(m, slopes, rtol=1e-15, atol=0)
    assert np.array_equal(f.split_points(), s)


@pytest.mark.parametrize("period", [1e-300, TWO_PI / 2 ** 20, TWO_PI / 1025])
def test_step_of_more_than_1024_periods_is_rejected_at_once(period):
    # its breaks were tiled round(2*pi/period) times: 6.3e300 copies at
    # period 1e-300, allocated until memory ran out; 1024 still builds
    PiecewiseConst(breakpoints=(0.0,), values=(1.0,), period=TWO_PI / 1024)
    with pytest.raises(ConfigError, match=r"forcing.period: 2\*pi/period must be at most 1024"):
        PiecewiseConst(breakpoints=(0.0,), values=(1.0,), period=period)


@pytest.mark.parametrize("f, starts, values, slopes", DECLARED)
def test_eval_is_value_plus_slope_times_offset(f, starts, values, slopes):
    s, v, m = f.pieces
    ends = [*s[1:], s[0] + TWO_PI]
    for j in range(len(s)):
        # right-continuity: a start belongs to its own piece
        assert f.eval(s[j]) == v[j]
        for frac in (0.1, 0.5, 0.999):
            d = frac * (ends[j] - s[j])
            want = v[j] + m[j] * d
            assert f.eval(s[j] + d) == pytest.approx(want, abs=1e-15)
            for k in (-3, -1, 1, 4):
                assert f.eval(s[j] + d + k * TWO_PI) == pytest.approx(want, abs=1e-13)
    # below s_0: the last piece, one period back, on arrays as on floats
    below = np.linspace(0.0, s[0], 7, endpoint=False)
    want = v[-1] + m[-1] * (below + TWO_PI - s[-1])
    assert np.allclose(f.eval(below), want, rtol=0, atol=1e-15)
    assert [f.eval(t) for t in below] == f.eval(below).tolist()


@pytest.mark.parametrize("f", [STEP, SAMPLED])
def test_pieces_float_path_matches_array_path(f):
    # the span statements and the stage line the integrator compiles give
    # the float eval gives at tm, and a stage at the span's end (the next
    # start) keeps the span's own piece
    span, lines, constants = f.scalar_source()
    assert (span, lines) == (["p_s, p_v, p_m = p_segment(tm)"], ["p = p_v + p_m * (tt - p_s)"])
    code = compile("\n".join(span + lines), "<scalar>", "exec")
    ts = np.linspace(-40.0, 40.0, 4001)
    for t, want in zip(ts, f.eval(ts)):
        scope = {"tm": float(t), "tt": float(t)}
        exec(code, dict(constants), scope)
        assert type(scope["p"]) is float and scope["p"] == want
    s, v, m = f.pieces
    ends = [*s[1:], s[0] + TWO_PI]
    for j in range(len(s)):
        scope = {"tm": 0.5 * (s[j] + ends[j]), "tt": ends[j]}
        exec(code, dict(constants), scope)
        assert scope["p"] == pytest.approx(v[j] + m[j] * (ends[j] - s[j]), abs=1e-15)


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


def test_partition_tiles_each_split_point_once_inside():
    assert partition(np.empty(0), 0.5, 1.5) == [0.5, 1.5]
    # by 2*pi over [a, b]; a repeated point cuts once
    assert partition([1.0, 1.0], -TWO_PI, 2 * TWO_PI) == [
        -TWO_PI, 1.0 - TWO_PI, 1.0, 1.0 + TWO_PI, 2 * TWO_PI]
    # a point within 1e-12 of an end makes no cut
    assert partition([1.0], 1.0 - 5e-13, 1.0 + TWO_PI + 5e-13) == [
        1.0 - 5e-13, 1.0 + TWO_PI + 5e-13]
    assert partition([1.0], 1.0 - 2e-12, 2.0) == [1.0 - 2e-12, 1.0, 2.0]


def test_abs_integral_partial_periods(abs_integral):
    f = TrigPoly(sin_coeffs=(1.0,))
    assert abs_integral(f, 0.0) == 0.0
    assert abs_integral(f, math.pi) == pytest.approx(2.0, rel=1e-10)
    assert abs_integral(f, 2 * TWO_PI + math.pi) == pytest.approx(10.0, rel=1e-10)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        abs_integral(f, -1)


def test_fourier_examples():
    sin = TrigPoly(sin_coeffs=(1.0,))
    cos = TrigPoly(cos_coeffs=(1.0,))
    assert fourier_coefficient(sin, 1) == pytest.approx(1j * math.pi, abs=1e-12)
    assert fourier_coefficient(sin, 2) == pytest.approx(0.0, abs=1e-12)
    assert fourier_coefficient(cos, 1) == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        fourier_coefficient(sin, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        fourier_coefficient_quadrature(sin, 0)


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


def test_fourier_of_sampled_is_the_exact_integral():
    # the piecewise-linear integral written out from the samples alone: on
    # [a, b] with p = p_a + m (t - a), (p_b e^{inb} - p_a e^{ina}) / (in)
    # - m (e^{inb} - e^{ina}) / (in)^2, against fourier_coefficient's sum
    # over the declared pieces and against the quadrature
    f = Sampled((0.2, 1.0, -0.5, 0.3, -0.9))
    ts = [*np.linspace(0.0, TWO_PI, 5, endpoint=False).tolist(), TWO_PI]
    ps = [*f.values, f.values[0]]
    for n in (1, 2, 3):
        exact = 0.0
        for a, b, pa, pb in zip(ts, ts[1:], ps, ps[1:]):
            ea, eb, m = np.exp(1j * n * a), np.exp(1j * n * b), (pb - pa) / (b - a)
            exact += (pb * eb - pa * ea) / (1j * n) - m * (eb - ea) / (1j * n) ** 2
        assert abs(fourier_coefficient(f, n) - exact) <= 1e-12
        assert abs(fourier_coefficient_quadrature(f, n) - exact) <= 1e-12


def test_harmonics_reconstruct():
    # p is a0 plus its declared harmonics; the zero ones are left out
    f = TrigPoly(a0=0.3, cos_coeffs=(1.0, -0.5, 0.0, 0.0), sin_coeffs=(0.25, 0.0, 0.0, 2.0))
    assert f.harmonics == ((1, 1.0, 0.25), (2, -0.5, 0.0), (4, 0.0, 2.0))
    ts = np.linspace(0, TWO_PI, 17)
    # p_hat_{+-k} = (a_k -+ i b_k) / 2, as phi pairs them with c_{-+k}
    rec = f.a0 + sum(0.5 * (a - 1j * b) * np.exp(1j * k * ts)
                     + 0.5 * (a + 1j * b) * np.exp(-1j * k * ts) for k, a, b in f.harmonics)
    assert np.allclose(rec.imag, 0.0, rtol=0, atol=1e-14)
    assert np.allclose(rec.real, f.eval(ts), rtol=0, atol=1e-13)


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


def test_a_custom_forcing_must_declare_eval():
    # the base class declares no p, and every reader of p goes through eval
    class Bare(iso.ForcingTerm):
        pass
    with pytest.raises(NotImplementedError):
        Bare().eval(0.0)
    assert Bare().split_points().size == 0


@pytest.mark.parametrize("desc", [
    {"kind": "trig", "a": "12"},           # read as cos t + 2 cos 2t
    {"kind": "trig", "b": "1"},
    {"kind": "piecewise", "breaks": "0", "values": [1.0]},
    {"kind": "sampled", "values": "12"},   # read as (1, 2)
    {"kind": "trig", "a": 1.0}])
def test_descriptor_arrays_must_be_arrays(desc):
    with pytest.raises(ConfigError, match="must be an array"):
        forcing_from_descriptor(desc)


@pytest.mark.parametrize("desc", [
    {"kind": "trig", "a0": True},          # read as 1.0
    {"kind": "trig", "a": [1.0, False]},
    {"kind": "piecewise", "breaks": [0, True], "values": [1.0, 2.0]},
    {"kind": "piecewise", "period": True, "breaks": [0.0], "values": [1.0]},
    {"kind": "sampled", "values": [True, False]}])
def test_descriptor_numbers_are_not_booleans(desc):
    with pytest.raises(ConfigError, match="not booleans"):
        forcing_from_descriptor(desc)


@pytest.mark.parametrize("desc", [
    {"kind": "trig", "a": ["12"], "a0": "0.5"},     # built 0.5 + 12 cos t
    {"kind": "trig", "a0": "0.5"},
    {"kind": "piecewise", "breaks": [0.0, "1"], "values": [1.0, -1.0]},
    {"kind": "piecewise", "period": "3.14", "breaks": [0.0], "values": [1.0]},
    {"kind": "sampled", "values": ["1", "2"]}])
def test_descriptor_numbers_are_not_strings(desc):
    with pytest.raises(ConfigError, match="is not a number"):
        forcing_from_descriptor(desc)


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
    for build, message in (
            (lambda: PiecewiseConst((0.0, 1.0), (1.0,)), "forcing.breaks: need one value"),
            (lambda: PiecewiseConst((0.0,), (1.0,), period=-1),
             "forcing.period: must be a positive real"),
            (lambda: PiecewiseConst((0.0,), (math.nan,)), "forcing.values: must be finite"),
            (lambda: Sampled((0.0, math.nan)), "forcing.values: must be finite"),
            (lambda: forcing_from_descriptor([1, 2]), "must be an object"),
            (lambda: forcing_from_descriptor({"kind": "piecewise", "breaks": [0.0]}),
             r"forcing: malformed descriptor \('values'\)")):
        with pytest.raises(ConfigError, match=message):
            build()
