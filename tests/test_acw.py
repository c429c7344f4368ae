import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isores.errors import ConfigError, NumericsError
from isores.acw import (AcwState, acw_first_integral, acw_numeric_check,
                        acw_orbit, acw_poincare, phi_lambda, two_piece_map)


def acw_exact_orbit(c, s0, n_steps):
    """Closed geometric form of the orbit: (x0 Pi^n, y0 Pi^-n)."""
    q = s0.x * s0.x * s0.y * s0.y
    pi_factor = math.sqrt((q + c) / (q + 1.0))
    return [AcwState(s0.x * pi_factor ** n, s0.y * pi_factor ** -n)
            for n in range(n_steps + 1)]


def pinney_unit_solution(lam, s0, t):
    """Explicit solution of x'' + x = lam/x^3 through (x0, y0):
    x(t) = sqrt((x0 cos t + y0 sin t)^2 + lam sin^2 t / x0^2)."""
    base = s0.x * np.cos(t) + s0.y * np.sin(t)
    return np.sqrt(base ** 2 + lam * np.sin(t) ** 2 / s0.x ** 2)


states = st.builds(AcwState,
                   x=st.floats(0.1, 10.0, allow_nan=False),
                   y=st.floats(-5.0, 5.0, allow_nan=False))
cs = st.floats(0.05, 20.0, allow_nan=False)


def test_phi_lambda_examples():
    assert phi_lambda(1.0, AcwState(1.0, 0.0)) == AcwState(1.0, 0.0)
    out = phi_lambda(4.0, AcwState(1.0, 0.0))
    assert out.x == pytest.approx(2.0) and out.y == 0.0
    out2 = phi_lambda(1.0, AcwState(2.0, 0.0))
    assert out2.x == pytest.approx(0.5, abs=1e-15)
    # cross-check against the explicit solution at t = pi/2
    assert pinney_unit_solution(1.0, AcwState(2.0, 0.0), math.pi / 2) == \
        pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NumericsError):
        phi_lambda(-1.0, AcwState(1.0, 0.0))
    with pytest.raises(NumericsError):
        AcwState(0.0, 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
def test_every_acw_map_checks_c_once(c, cfg):
    # acw_poincare(inf) returned x = inf, and acw_numeric_check(nan) failed
    # inside the integrator with "no starting step"
    s = AcwState(1.0, 0.5)
    for call in (lambda: acw_poincare(c, s), lambda: acw_orbit(c, s, 3),
                 lambda: acw_numeric_check(c, s, cfg)):
        with pytest.raises(ConfigError, match="c: must be finite and positive"):
            call()


def test_poincare_examples():
    out = acw_poincare(4.0, AcwState(1.0, 0.0))
    assert out.x == pytest.approx(2.0) and out.y == 0.0
    s = AcwState(1.7, -0.6)
    ident = acw_poincare(1.0, s)
    assert ident.x == s.x and ident.y == s.y          # c = 1: exact identity
    out9 = acw_poincare(9.0, AcwState(1.0, 1.0))
    assert out9.x == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert out9.y == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-15)
    assert acw_first_integral(out9) == pytest.approx(1.0, rel=1e-14)


@given(cs, states)
@settings(max_examples=300, deadline=None)
def test_composition_identity(c, s):
    via_quarters = two_piece_map(1.0, c, s)
    direct = acw_poincare(c, s)
    assert via_quarters.x == pytest.approx(direct.x, rel=1e-12, abs=1e-13)
    assert via_quarters.y == pytest.approx(direct.y, rel=1e-12, abs=1e-13)


@given(cs, states)
@settings(max_examples=300, deadline=None)
def test_first_integral_invariance(c, s):
    i0 = acw_first_integral(s)
    assert acw_first_integral(acw_poincare(c, s)) == \
        pytest.approx(i0, rel=1e-12, abs=1e-13)
    # each quarter map flips the sign of x*y, so |x*y| is invariant
    assert abs(acw_first_integral(phi_lambda(c, s))) == \
        pytest.approx(abs(i0), rel=1e-12, abs=1e-13)


def test_orbit_geometric_growth():
    orbit = acw_orbit(4.0, AcwState(1.0, 0.0), 10)
    assert orbit[-1].x == pytest.approx(1024.0, rel=1e-12)
    xs = np.array([s.x for s in orbit])
    slope = np.polyfit(np.arange(11), np.log(xs), 1)[0]
    assert slope == pytest.approx(math.log(2.0), abs=1e-9)


def test_orbit_constant_at_c1():
    orbit = acw_orbit(1.0, AcwState(1.0, 1.0), 100)
    assert all(s.x == 1.0 and s.y == 1.0 for s in orbit)


def test_orbit_velocity_growth_below_one():
    s0 = AcwState(1.0, 1.0)
    pi_factor = math.sqrt((1.0 + 0.25) / 2.0)
    orbit = acw_orbit(0.25, s0, 20)
    ys = np.array([s.y for s in orbit])
    assert pi_factor < 1
    assert ys[-1] == pytest.approx(pi_factor ** -20, rel=1e-10)


def test_orbit_matches_exact_form():
    s0 = AcwState(1.3, -0.8)
    n = 30
    orbit = acw_orbit(2.5, s0, n)
    exact = acw_exact_orbit(2.5, s0, n)
    for k, (a, b) in enumerate(zip(orbit, exact)):
        assert a.x == pytest.approx(b.x, rel=1e-10 * max(k, 1))
        assert a.y == pytest.approx(b.y, rel=1e-10 * max(k, 1))


def test_numeric_check_examples(cfg):
    chk = acw_numeric_check(4.0, AcwState(1.0, 0.0), cfg)
    assert chk.max_err <= 1e-6
    assert chk.numeric.x == pytest.approx(2.0, abs=1e-6)
    chk2 = acw_numeric_check(1.0, AcwState(1.5, -0.2), cfg)
    assert chk2.max_err <= 1e-8          # pi-periodic free system
    chk3 = acw_numeric_check(4.0, AcwState(1.0, 1.0), cfg)
    assert chk3.max_err <= 1e-6
    assert chk3.analytic.x == pytest.approx(math.sqrt(5.0 / 2.0), rel=1e-14)


def test_numeric_check_sample_grid(cfg):
    for c in (0.25, 1.0, 4.0):
        for x0 in np.linspace(0.5, 3.0, 5):
            for y0 in np.linspace(-2.0, 2.0, 5):
                chk = acw_numeric_check(c, AcwState(float(x0), float(y0)), cfg)
                assert chk.max_err <= 1e-6


@pytest.mark.parametrize("c", [4.0, 0.25])
def test_numeric_check_reads_r_on_its_span(monkeypatch, cfg, c):
    # R read at the stage time gave the stages at pi/2 the next piece's
    # level: 148 steps (76 shorter than 1e-4) and 3028 right-hand sides at
    # c = 4; one solve per quarter period, each on its own level, takes 27
    import isores.acw as acw_mod
    solves, real = [], acw_mod.solve_forced
    monkeypatch.setattr(acw_mod, "solve_forced",
                        lambda *a, **k: solves.append(real(*a, **k)) or solves[-1])
    chk = acw_numeric_check(c, AcwState(1.0, 0.0), cfg)
    assert chk.max_err <= 1e-10
    assert [(s.ts[0], s.ts[-1]) for s in solves] == [(0.0, 0.5 * math.pi),
                                                     (0.5 * math.pi, math.pi)]
    assert sum(s.stats["n_steps"] for s in solves) <= 40


def test_numeric_check_end_state_is_pinned(cfg):
    # the two quarter-period solves on the Ermakov centres land where the
    # one compiled system with R read per span landed, bit for bit
    chk = acw_numeric_check(4.0, AcwState(1.0, 0.0), cfg)
    assert chk.numeric == AcwState(1.999999999997274, 1.8321455463876646e-13)
    assert chk.analytic == AcwState(2.0, 0.0)


@pytest.mark.parametrize("x, y", [(math.inf, 0.0), (math.nan, 0.0), (0.0, 1.0),
                                  (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_acw_state_is_finite(x, y):
    with pytest.raises(NumericsError, match="AcwState: need a finite x > 0 and a finite y"):
        AcwState(x, y)


def test_orbit_names_the_step_that_leaves_the_float_range():
    # x_n = 2^n, and x_1023 is the last iterate in the float range; q = x^2
    # y^2 evaluated as x x y y was inf * 0 = nan at step 513, which failed as
    # "AcwState: x must be positive"
    assert acw_orbit(4.0, AcwState(1.0, 0.0), 1023)[-1].x == 2.0 ** 1023
    with pytest.raises(NumericsError, match="step 1024 leaves the float range"):
        acw_orbit(4.0, AcwState(1.0, 0.0), 1024)


def test_poincare_past_a_squared_first_integral_in_the_float_range():
    # (x y)^2 = 1e320 is inf, and (inf + c)/(inf + 1) was nan, which failed
    # as "step 1 leaves the float range" though Pi rounds to 1 and the next
    # state is the same state
    s = AcwState(1e160, 1.0)
    assert acw_poincare(4.0, s) == s
    assert acw_orbit(4.0, s, 3)[-1] == s


@pytest.mark.parametrize("n_steps", [0, -1])
def test_orbit_requires_an_integer_step_count(n_steps):
    with pytest.raises(ConfigError, match=r"steps: must be an integer >= 1"):
        acw_orbit(4.0, AcwState(1.0, 0.0), n_steps)


def test_two_piece_generalization(cfg):
    # r1 = r2 = lam: the period map of the autonomous equation with that lam
    s = AcwState(1.4, 0.7)
    out = two_piece_map(3.0, 3.0, s)
    # autonomous pinney with lam=3 is pi-periodic: period map is identity
    assert out.x == pytest.approx(s.x, rel=1e-12)
    assert out.y == pytest.approx(s.y, rel=1e-12)

