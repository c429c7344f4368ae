import math

import numpy as np
import pytest
from scipy.optimize import brentq

import isores as iso
from isores.errors import ConfigError, DomainError, NumericsError
from isores.forcing import TWO_PI
from isores.integrate import IntegratorConfig, State, integrate_autonomous
from isores.autonomous import (ActionAngle, action_of_amplitude,
                               amplitude_of_action, asymmetric_psi_closed,
                               bouncing_limit_audit,
                               dx_dI_rofe_beketov, from_action_angle,
                               minimal_period, negative_semiperiod, phi_orbit,
                               pinney_phi_closed, pinney_psi_closed,
                               psi_solution, sturm_argument, to_action_angle)
from isores.potentials import custom, inverse_V_positive


def pinney_t_minus_closed(action):
    """Independent oracle: on the closed-form orbit, x < 0 iff
    cos^2(t/2) < 1/(lambda^2+1), so T- = 2*pi - 4*arccos((lambda^2+1)^-1/2)."""
    lam2 = 4.0 * action + 1.0 + math.sqrt((4.0 * action + 1.0) ** 2 - 1.0)
    return TWO_PI - 4.0 * math.acos(1.0 / math.sqrt(lam2 + 1.0))


# -- orbits -----------------------------------------------------------------

def test_phi_orbit_examples(pin, har2, cfg):
    orb = phi_orbit(pin, 1.0, cfg)
    x, _ = orb.eval(math.pi / 2)
    assert x == pytest.approx(-1.0 + math.sqrt(2.0 + 1.0 / 8.0), abs=1e-9)
    assert orb.energy == pytest.approx(9.0 / 32.0)
    end = orb.trajectory.end_state()
    assert abs(end.x - 1.0) + abs(end.v) < 1e-8

    orb2 = phi_orbit(har2, 2.0, cfg)
    ts = np.linspace(0, orb2.period, 50)
    x, v = orb2.eval(ts)
    assert np.max(np.abs(x - 2.0 * np.cos(2 * ts))) < 1e-9

    orb0 = phi_orbit(pin, 0.0, cfg)
    x, v = orb0.eval(1.234)
    assert x == 0.0 and v == 0.0


def test_closed_form_cross_validation(pin, cfg):
    ts = np.linspace(0.0, TWO_PI, 1001)
    for r in (0.5, 1.0, 5.0):
        traj = integrate_autonomous(pin, State(r, 0.0), 0.0, TWO_PI, cfg)
        x, v = traj.eval(ts)
        xc, vc = pinney_phi_closed(r, ts)
        assert np.max(np.abs(x - xc)) <= 1e-8
        assert np.max(np.abs(v - vc)) <= 1e-8
        vs = psi_solution(pin, r, cfg)
        assert np.max(np.abs(vs.psi(ts) - pinney_psi_closed(r, ts))) <= 1e-8


# -- variational solutions ---------------------------------------------------

def test_psi_examples(pin, har2, cfg):
    vs = psi_solution(pin, 1.0, cfg)
    assert vs.psi(0.0) == pytest.approx(1.0, abs=1e-12)
    assert vs.dpsi(0.0) == pytest.approx(1j, abs=1e-12)
    assert vs.psi(math.pi) == pytest.approx(-0.25, abs=1e-9)
    vs2 = psi_solution(har2, 1.0, cfg)
    assert vs2.psi(math.pi / 4) == pytest.approx(0.5j, abs=1e-9)


def test_psi_at_center_linearization(pin, har2, cfg):
    for pot, n in ((pin, 1), (har2, 2)):
        vs = psi_solution(pot, 0.0, cfg)
        ts = np.linspace(0, TWO_PI, 33)
        assert np.allclose(vs.psi(ts), np.cos(n * ts) + 1j * np.sin(n * ts) / n,
                           atol=1e-12)


def test_wronskian_and_product_bound(pin, cfg):
    ts = np.linspace(0.0, TWO_PI, 801)
    for r in (0.5, 1.0, 5.0, 50.0):
        vs = psi_solution(pin, r, cfg)
        assert np.max(np.abs(vs.wronskian(ts) - 1.0)) <= 1e-8
        sup_dpsi = np.max(np.abs(vs.dpsi(ts)))
        assert np.min(np.abs(vs.psi(ts))) * sup_dpsi >= 1.0 - 1e-6


def test_asymmetric_psi_does_not_depend_on_amplitude(cfg):
    # the premise of the one-profile scan: V is positively homogeneous of
    # degree 2, so the integrated psi(., r) is psi(., 1), isochronous or not
    ts = np.linspace(0.0, TWO_PI, 2001)
    for pot in (iso.asymmetric(4.0, 4.0 / 9.0), iso.asymmetric(2.0, 3.0)):
        ref = psi_solution(pot, 1.0, cfg).psi(ts)
        for r in (1e-2, 37.0, 1e3):
            assert np.max(np.abs(psi_solution(pot, r, cfg).psi(ts) - ref)) <= 1e-8


@pytest.mark.parametrize("alpha, beta", [(4.0, 4.0 / 9.0), (2.0, 3.0),
                                         (1.0 / 1.3 ** 2, 1.0 / 0.7 ** 2)])
def test_asymmetric_psi_closed_matches_integrated_psi(cfg, alpha, beta):
    # isochronous, not isochronous (period != 2*pi), and a second isochronous
    # pair with its x < 0 arc longer than pi
    ts = np.linspace(0.0, TWO_PI, 4001)
    ref = psi_solution(iso.asymmetric(alpha, beta), 1.0, cfg).psi(ts)
    closed = asymmetric_psi_closed(math.sqrt(alpha), math.sqrt(beta), ts)
    assert np.max(np.abs(closed - ref)) <= 1e-9


def test_psi_periodicity(pin, cfg):
    vs = psi_solution(pin, 2.0, cfg)
    assert abs(vs.psi(TWO_PI) - vs.psi(0.0)) < 1e-8
    assert abs(vs.dpsi(TWO_PI) - vs.dpsi(0.0)) < 1e-8


# -- periods ------------------------------------------------------------------

def test_minimal_period_examples(pin, har2, cfg):
    for r in (0.3, 1.7, 11.0):
        assert minimal_period(har2, r, cfg) == pytest.approx(math.pi, abs=1e-10)
    for r in (0.1, 1.0, 10.0, 100.0):
        assert minimal_period(pin, r, cfg) == pytest.approx(TWO_PI, abs=1e-6)
    assert minimal_period(iso.asymmetric(1.0, 1.0), 2.0, cfg) == \
        pytest.approx(TWO_PI, abs=1e-9)
    assert minimal_period(iso.asymmetric(4.0, 4.0 / 9.0), 1.0, cfg) == \
        pytest.approx(TWO_PI, abs=1e-9)
    with pytest.raises(DomainError):
        minimal_period(pin, 0.0, cfg)


def test_minimal_period_isochrony_four_decades(pin, cfg):
    for r in np.logspace(-1, 2, 7):
        assert minimal_period(pin, r, cfg) == pytest.approx(TWO_PI, abs=1e-6)


def test_minimal_period_non_return(cfg):
    slow = custom(v=lambda x: 0.5e-4 * np.asarray(x) ** 2,
                  dv=lambda x: 1e-4 * np.asarray(x),
                  d2v=lambda x: np.full_like(np.asarray(x, dtype=float), 1e-4))
    with pytest.raises(NumericsError):
        minimal_period(slow, 1.0, cfg)


# -- action-angle -------------------------------------------------------------

def test_action_examples(pin, har, har2):
    assert action_of_amplitude(har, 2.0) == pytest.approx(2.0, rel=1e-10)
    assert action_of_amplitude(har2, 1.0) == pytest.approx(1.0, rel=1e-10)
    assert action_of_amplitude(pin, 0.0) == 0.0


def test_action_landau_identity(pin):
    # N * I(r) = V(r) for isochronous centers
    for pot in (iso.harmonic(1), iso.harmonic(2), iso.harmonic(3), pin):
        for r in (0.5, 1.0, 3.0):
            n = pot.n_iso
            assert n * action_of_amplitude(pot, r) == \
                pytest.approx(pot.v(r), rel=1e-8, abs=1e-12)


def test_action_amplitude_mutual_inverse(pin, har2):
    for pot in (pin, har2):
        for r in (0.25, 1.0, 7.5):
            i = action_of_amplitude(pot, r)
            assert amplitude_of_action(pot, i) == pytest.approx(r, rel=1e-9)
        for i in (0.1, 2.0, 40.0):
            r = amplitude_of_action(pot, i)
            assert action_of_amplitude(pot, r) == pytest.approx(i, rel=1e-9)


def test_action_requires_isochrony():
    pot = custom(v=lambda x: 0.5 * np.asarray(x) ** 2,
                 dv=lambda x: np.asarray(x),
                 d2v=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(ConfigError):
        amplitude_of_action(pot, 1.0)


def test_to_action_angle_examples(pin, har, cfg):
    aa = to_action_angle(har, State(0.0, -2.0), cfg)
    assert aa.theta == pytest.approx(math.pi / 2, abs=1e-8)
    assert aa.action == pytest.approx(2.0, rel=1e-9)
    aa0 = to_action_angle(pin, State(1.5, 0.0), cfg)
    assert aa0.theta == 0.0
    with pytest.raises(DomainError):
        to_action_angle(pin, State(0.0, 0.0), cfg)


def test_action_angle_round_trip(pin, cfg):
    s = State(1.0, 0.3)
    aa = to_action_angle(pin, s, cfg)
    back = from_action_angle(pin, aa, cfg)
    assert abs(back.x - s.x) + abs(back.v - s.v) < 1e-8
    # and the other direction
    aa2 = ActionAngle(theta=2.2, action=0.7)
    s2 = from_action_angle(pin, aa2, cfg)
    aa3 = to_action_angle(pin, s2, cfg)
    assert aa3.theta == pytest.approx(aa2.theta, abs=1e-8)
    assert aa3.action == pytest.approx(aa2.action, rel=1e-8)


def test_from_action_angle_integrates_once(monkeypatch, pin, cfg):
    # the period of a certified isochronous center is 2*pi/N, not measured
    import isores.integrate
    calls = []
    solve = isores.integrate.integrate_ode
    monkeypatch.setattr(isores.integrate, "integrate_ode",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    from_action_angle(pin, ActionAngle(theta=2.2, action=0.7), cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("theta, action", [(math.nan, 0.337), (math.inf, 0.337),
                                           (1.0, math.nan), (1.0, math.inf)])
def test_from_action_angle_rejects_non_finite_input(pin, theta, action):
    # a nan angle made the flight time nan, and the solve spun to its budget
    with pytest.raises(ConfigError, match="must be finite"):
        from_action_angle(pin, ActionAngle(theta=theta, action=action),
                          IntegratorConfig(max_steps=50))


# -- Rofe-Beketov --------------------------------------------------------------

def test_rofe_beketov_t0_and_sign(pin, cfg):
    val0 = dx_dI_rofe_beketov(pin, 1.0, [0.0], cfg)[0]
    assert val0 == pytest.approx(32.0 / 15.0, rel=1e-9)
    val_pi = dx_dI_rofe_beketov(pin, 1.0, [math.pi], cfg)[0]
    assert val_pi < 0
    # dx/dI(T/2) = 1/V'(sigma(r)): sigma(1) = -1/2, V'(-1/2) = -15/8
    assert val_pi == pytest.approx(-8.0 / 15.0, rel=1e-8)


def test_rofe_beketov_harmonic_closed_form(har, cfg):
    # x(t, I) = sqrt(2 I) cos t so dx/dI = cos t / sqrt(2 I)
    ts = np.linspace(0.0, TWO_PI, 11)
    vals = dx_dI_rofe_beketov(har, 2.0, ts, cfg)
    assert np.max(np.abs(vals - np.cos(ts) / 2.0)) < 1e-9
    assert vals[0] == pytest.approx(0.5, rel=1e-10)


def test_rofe_beketov_vs_finite_differences(pin, cfg):
    # independent oracle: central difference of the closed-form orbit in I
    ts = np.linspace(0.0, TWO_PI, 61)
    ts = ts[np.abs(ts - math.pi) >= 0.2]
    for r in (0.5, 1.0, 5.0):
        action = pin.v(r)
        h = 1e-4 * action
        rp = inverse_V_positive(pin, action + h)
        rm = inverse_V_positive(pin, action - h)
        xp, _ = pinney_phi_closed(rp, ts)
        xm, _ = pinney_phi_closed(rm, ts)
        fd = (xp - xm) / (2.0 * h)
        rb = dx_dI_rofe_beketov(pin, r, ts, cfg)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(rb - fd) / scale) <= 1e-4


def test_rofe_beketov_monotone_on_half_period(pin, cfg):
    # d(xdot)/dI < 0 on (0, pi): dx/dI strictly decreasing there
    ts = np.linspace(0.05, math.pi - 0.05, 120)
    vals = dx_dI_rofe_beketov(pin, 1.0, ts, cfg)
    assert np.all(np.diff(vals) < 0)


# -- negative semi-period -------------------------------------------------------

def test_negative_semiperiod_closed_form(pin):
    action = pin.v(1.0)
    expected = TWO_PI - 4.0 * math.acos(1.0 / math.sqrt(5.0))
    assert negative_semiperiod(pin, action) == pytest.approx(expected, abs=1e-7)
    assert pinney_t_minus_closed(action) == pytest.approx(expected, rel=1e-12)


def test_negative_semiperiod_limits(pin, har):
    assert negative_semiperiod(pin, 1e-8) == pytest.approx(math.pi, abs=1e-3)
    for action in (0.5, 3.0, 42.0):
        assert negative_semiperiod(har, action) == pytest.approx(math.pi, rel=1e-10)
    vals = [negative_semiperiod(pin, i) for i in np.logspace(-2, 4, 13)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    assert negative_semiperiod(pin, 1e4) < 0.1


def test_negative_semiperiod_matches_closed_form_on_grid(pin):
    for action in np.logspace(-1, 3, 9):
        assert negative_semiperiod(pin, action) == \
            pytest.approx(pinney_t_minus_closed(action), rel=1e-9)


# -- Sturm argument --------------------------------------------------------------

def test_sturm_argument_harmonic_exact(har, cfg):
    vs = psi_solution(har, 1.0, cfg)
    ts = np.linspace(0.0, TWO_PI, 200)
    arg = sturm_argument(vs, ts)
    assert np.max(np.abs(arg + ts)) < 1e-9


def test_sturm_argument_strictly_decreasing(pin, cfg):
    vs = psi_solution(pin, 1.0, cfg)
    ts = np.linspace(0.0, TWO_PI, 400)
    for comp in ("u", "v"):
        arg = sturm_argument(vs, ts, component=comp)
        assert np.all(np.diff(arg) < 0)


def test_sturm_argument_quantized_winding(pin, har2, cfg):
    ts = np.linspace(0.0, TWO_PI, 300)
    vs = psi_solution(pin, 1.0, cfg)
    total = sturm_argument(vs, ts)[-1] - sturm_argument(vs, ts)[0]
    assert total == pytest.approx(-TWO_PI, abs=1e-6)
    vs2 = psi_solution(har2, 1.0, cfg)
    total2 = sturm_argument(vs2, ts)[-1] - sturm_argument(vs2, ts)[0]
    assert total2 == pytest.approx(-2 * TWO_PI, abs=1e-6)



def test_sturm_argument_halves_coarse_steps(har2, cfg):
    # at t-steps of pi/2 the argument of cos 2t - 2i sin 2t turns by -pi per
    # step, beyond pi/2: only the halving finds it, as a fine grid does
    vs = psi_solution(har2, 1.0, cfg)
    coarse = sturm_argument(vs, 0.5 * math.pi * np.arange(5))
    fine = sturm_argument(vs, np.linspace(0.0, TWO_PI, 401))
    assert np.all(np.abs(np.diff(coarse)) > 0.5 * math.pi)
    assert np.max(np.abs(coarse - fine[::100])) < 1e-9
    assert coarse[-1] - coarse[0] == pytest.approx(-2 * TWO_PI, abs=1e-9)

def _critical_points(fn, dfn, t_lo, t_hi, n=4000):
    ts = np.linspace(t_lo, t_hi, n)
    dv = dfn(ts)
    roots = []
    for i in range(n - 1):
        if dv[i] == 0.0:
            continue
        if dv[i] * dv[i + 1] < 0:
            roots.append(brentq(lambda t: float(dfn(t)), ts[i], ts[i + 1]))
    return [(t, float(fn(t))) for t in roots]


def test_sturm_alternation_of_critical_points(pin, cfg):
    # between consecutive maxima (minima) of u lies a maximum (minimum) of v
    vs = psi_solution(pin, 1.0, cfg, t1=2 * TWO_PI)
    u_crit = _critical_points(vs.u, vs.du, 1e-3, 2 * TWO_PI - 1e-3)
    v_crit = _critical_points(vs.v, vs.dv, 1e-3, 2 * TWO_PI - 1e-3)
    u_max = [0.0] + [t for t, y in u_crit if y > 0]      # t=0 is a maximum of u
    v_max = [t for t, y in v_crit if y > 0]
    u_min = [t for t, y in u_crit if y < 0]
    v_min = [t for t, y in v_crit if y < 0]
    assert len(u_max) >= 2 and len(u_min) >= 2
    for a, b in zip(u_max[:-1], u_max[1:]):
        assert any(a < t < b for t in v_max)
    for a, b in zip(u_min[:-1], u_min[1:]):
        assert any(a < t < b for t in v_min)


# -- bouncing limits ---------------------------------------------------------------

def test_bouncing_limit_audit(pin, cfg):
    recs = bouncing_limit_audit(pin, [1e2, 1e3, 1e4], cfg)
    big = recs[-1]
    assert big.sup_x_defect <= 0.05
    assert big.dxdI_at_0 == pytest.approx(math.sqrt(2.0), abs=1e-2)
    for name in ("sup_x_defect", "sup_dxdI_defect"):
        vals = [getattr(r, name) for r in recs]
        assert vals[0] > vals[1] > vals[2]
    d0 = [abs(r.dxdI_at_0 - math.sqrt(2.0)) for r in recs]
    assert d0[0] > d0[1] > d0[2]
