import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import isores as iso
from isores.errors import ConfigError, DomainError, NumericsError
from isores.forcing import TWO_PI
from isores.integrate import IntegratorConfig, State, solve_forced
from isores.autonomous import (ActionAngle, action_of_amplitude,
                               amplitude_of_action, bouncing_limit_audit,
                               dx_dI_rofe_beketov, from_action_angle,
                               minimal_period, negative_semiperiod,
                               psi_solution, to_action_angle)
from isores.potentials import (asymmetric_psi_closed, carlson_rf_rd, custom,
                               inverse_V, pinney_phi_closed,
                               pinney_psi_antiderivative, pinney_psi_closed)


def pinney_t_minus_closed(action):
    """Independent oracle: on the closed-form orbit, x < 0 iff
    cos^2(t/2) < 1/(lambda^2+1), so T- = 2*pi - 4*arccos((lambda^2+1)^-1/2)."""
    lam2 = 4.0 * action + 1.0 + math.sqrt((4.0 * action + 1.0) ** 2 - 1.0)
    return TWO_PI - 4.0 * math.acos(1.0 / math.sqrt(lam2 + 1.0))


def _undeclared(pot):
    """pot's V, V' and V'' as a custom centre, which declares no closed form."""
    return custom(v=pot._v, dv=pot._dv, d2v=pot._d2v, n_iso=pot.n_iso,
                  kink_at_zero=pot.kink_at_zero)


_BUILT_INS = [iso.pinney(), iso.harmonic(1), iso.harmonic(2), iso.asymmetric(4.0, 4.0 / 9.0)]
_BUILT_IN_IDS = ["pinney", "harmonic1", "harmonic2", "asymmetric"]


# -- orbits -----------------------------------------------------------------

def test_closed_form_cross_validation(pin, cfg):
    ts = np.linspace(0.0, TWO_PI, 1001)
    for r in (0.5, 1.0, 5.0):
        traj = solve_forced(pin, None, 0.0, [r, 0.0], 0.0, TWO_PI, cfg)
        x, v = traj.eval(ts)
        xc, vc = pinney_phi_closed(r, ts)
        assert np.max(np.abs(x - xc)) <= 1e-8
        assert np.max(np.abs(v - vc)) <= 1e-8
        vs = psi_solution(pin, r, cfg)
        assert np.max(np.abs(vs.psi(ts) - pinney_psi_closed(r, ts))) <= 1e-8


@pytest.mark.parametrize("pot", _BUILT_INS[1:], ids=_BUILT_IN_IDS[1:])
def test_chain_orbit_matches_the_solved_orbit(pot, cfg):
    # r Re psi and -r w^2 Im psi of the arc table against DOP853; 4e-11 to
    # 8e-11 of r apart, across the kinks of the asymmetric centre
    ts = np.linspace(0.0, TWO_PI, 1001)
    for r in (0.3, 1.0, 5.0):
        x, v = pot.orbit(r, ts)
        xs, vs = solve_forced(pot, None, 0.0, [r, 0.0], 0.0, TWO_PI, cfg).eval(ts)
        assert np.max(np.abs(x - xs)) <= 1e-9 * r
        assert np.max(np.abs(v - vs)) <= 1e-9 * r


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
                           rtol=0, atol=1e-12)


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
    # r = 0 takes the shared profile, not the linearization at the kink
    asym = iso.asymmetric(4.0, 4.0 / 9.0)
    at_zero = psi_solution(asym, 0.0, cfg)
    assert at_zero.r == 0.0
    assert np.array_equal(at_zero.psi(ts), psi_solution(asym, 1.0, cfg).psi(ts))


@pytest.mark.parametrize("alpha, beta", [(4.0, 4.0 / 9.0), (2.0, 3.0),
                                         (1.0 / 1.3 ** 2, 1.0 / 0.7 ** 2),
                                         (2.5, 0.5347), (16.0, 0.3265), (1.0, 1.0 / 9.0),
                                         (9.0, 9.0), (36.0, 9.0)])
def test_asymmetric_psi_closed_matches_integrated_psi(cfg, alpha, beta):
    # isochronous, not isochronous (period != 2*pi), a second isochronous
    # pair with its x < 0 arc longer than pi, three more (the last of period
    # 4*pi, one kink), the harmonic one arc (w = mu = 3) and a chain of nine
    # arcs; the profile the centre declares reads the same arc table
    ts = np.linspace(0.0, TWO_PI, 4001)
    pot = iso.asymmetric(alpha, beta)
    ref = psi_solution(pot, 1.0, cfg).psi(ts)
    closed = asymmetric_psi_closed(math.sqrt(alpha), math.sqrt(beta), ts)
    assert np.max(np.abs(closed - ref)) <= 1e-9
    assert np.array_equal(pot.profile(1.0)[0](ts), closed)


def test_psi_periodicity(pin, cfg):
    vs = psi_solution(pin, 2.0, cfg)
    assert abs(vs.psi(TWO_PI) - vs.psi(0.0)) < 1e-8
    assert abs(vs.dpsi(TWO_PI) - vs.dpsi(0.0)) < 1e-8


# -- the antiderivative of the Pinney psi ----------------------------------------

def test_carlson_rf_rd_match_scipy():
    from scipy.special import elliprd, elliprf
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 100),
                        10.0 ** rng.uniform(-40.0, 0.0, 100)])
    for y in 10.0 ** np.array([-32.0, -20.0, -12.0, -4.0, -1.0, 0.0]):
        # the layout Psi uses, R_F in its other order, and x = 0 with tiny y
        for args in ((x, 1.0, x + y), (x, x + y, 1.0), (0.0, y, 1.0), (0.0, 1.0, y)):
            rf, rd = carlson_rf_rd(*args)
            assert np.max(np.abs(rf / elliprf(*args) - 1.0)) <= 2e-15, (y, args)
            assert np.max(np.abs(rd / elliprd(*args) - 1.0)) <= 2e-15, (y, args)
    xyz = 10.0 ** rng.uniform(-3.0, 3.0, (3, 200))
    rf, rd = carlson_rf_rd(*xyz)
    assert np.max(np.abs(rf / elliprf(*xyz) - 1.0)) <= 2e-15
    assert np.max(np.abs(rd / elliprd(*xyz) - 1.0)) <= 2e-15


# int_0^t psi(s, r) ds at 40 digits (mpmath 1.3: ellipe/ellipf of parameter
# 1 - (1 + r)^-4; r = 0 is sin t + i (1 - cos t), r = inf mpmath.quad of the
# limit profile), rounded to doubles: real, imaginary part for each r of
# _PSI_R and t of _PSI_T, t running fastest
_PSI_R = (0.0, 1e-8, 1e-4, 0.01, 1.0, 1e3, 1e8, math.inf)
_PSI_T = (-5.0, 1e-3, math.pi, 4.0, TWO_PI, 9.0, 2 * TWO_PI)
_PINNEY_PSI_MP = [float.fromhex(x) for x in """
0x1.eaf81f5e09933p-1 0x1.6ec3d47ca5a93p-1 0x1.0624da5218a62p-10 0x1.0c6f7894120eep-21
0x1.1a62633145c07p-53 0x1.0000000000000p+1 -0x1.837b9dddc1eaep-1 0x1.a7553036d9260p+0
-0x1.1a62633145c07p-52 0x1.377ce85800000p-105 0x1.a6026360c2f91p-2 0x1.e93fd53530cb6p+0
-0x1.1a62633145c07p-51 0x1.377ce85880000p-103 0x1.eaf81c7bbd140p-1 0x1.6ec3d492afb18p-1
0x1.0624da5218a79p-10 0x1.0c6f7894120fap-21 0x1.94ca873dba306p-25 0x1.0000002af31dcp+1
-0x1.837b9bae9950ep-1 0x1.a7553071926d0p+0 0x1.94ca871a6de40p-24 0x1.35f1b48200001p-105
0x1.a6026c497f45cp-2 0x1.e93fd583a02dfp+0 0x1.94ca871a6de40p-23 0x1.35f1b48200001p-103
0x1.ea877bbf37522p-1 0x1.6ec7313d3c1dcp-1 0x1.0624da5250ee1p-10 0x1.0c6f78942edfcp-21
0x1.ee0e419aba301p-12 0x1.00068da341383p+1 -0x1.83264eefb10d9p-1 0x1.a75e25ea8ba0bp+0
0x1.ee0e419ab915bp-11 0x1.377d00274de25p-105 0x1.a75e5939dedadp-2 0x1.e94bcce5fbf5ap+0
0x1.ee0e419ab915bp-10 0x1.377cec9e0dde3p-103 0x1.bf97d0fc05642p-1 0x1.700e31208f5a8p-1
0x1.0624da678c2d3p-10 0x1.0c6f789f0db86p-21 0x1.7c51e2f179717p-5 0x1.028c155739cccp+1
-0x1.62a31b2516ff1p-1 0x1.aacdabe63d40fp+0 0x1.7c51e2f1796f4p-4 0x1.377ce87fbbcc8p-105
0x1.15f792e3d5301p-1 0x1.ede59c79f7057p+0 0x1.7c51e2f1796f4p-3 0x1.377ce84c7a34fp-103
-0x1.17f95ff89b259p+1 0x1.94265d1acf941p-1 0x1.0624dc557e091p-10 0x1.0c6f799bf40cap-21
0x1.aefe160e49546p+0 0x1.999999999999ap+1 0x1.a7fb66a3451fdp+0 0x1.1f29cd75ca760p+1
0x1.aefe160e49545p+1 0x1.377ce85dddddep-105 0x1.47fbb0b130f32p+2 0x1.71e08d1c2c1cap+1
0x1.aefe160e49545p+2 0x1.377ce85777777p-103 -0x1.66ca879153b35p+1 0x1.9742041e9ce96p-1
0x1.0624dc77da20ep-10 0x1.0c6f79ad8ba63p-21 0x1.ffffffffd1e20p+0 0x1.ffffde833a649p+1
0x1.173848a945421p+1 0x1.2aeecd45638a3p+1 0x1.ffffffffd1e1fp+1 0x1.377ce85801552p-105
0x1.7d1fb4f704e9dp+2 0x1.941292ae9bce0p+1 0x1.ffffffffd1e1fp+2 0x1.377ce85801552p-103
-0x1.66ca879181aa8p+1 0x1.9742041e9d20bp-1 0x1.0624dc77da20ep-10 0x1.0c6f79ad8ba63p-21
0x1.0000000000000p+1 0x1.fffffffffffffp+1 0x1.173848a9725ddp+1 0x1.2aeecd45646fep+1
0x1.fffffffffffffp+1 0x1.377ce85800000p-105 0x1.7d1fb4f71d020p+2 0x1.941292ae9f0a5p+1
0x1.fffffffffffffp+2 0x1.377ce85800000p-103 -0x1.66ca879181aa8p+1 0x1.9742041e9d20bp-1
0x1.0624dc77da20ep-10 0x1.0c6f79ad8ba63p-21 0x1.0000000000000p+1 0x1.fffffffffffffp+1
0x1.173848a9725ddp+1 0x1.2aeecd45646fep+1 0x1.fffffffffffffp+1 0x1.377ce8585c140p-105
0x1.7d1fb4f71d020p+2 0x1.941292ae9f0a5p+1 0x1.fffffffffffffp+2 0x1.377ce85e3c0e2p-103
""".split()]


def test_pinney_psi_antiderivative_matches_mpmath():
    ref = np.array(_PINNEY_PSI_MP).view(complex).reshape(len(_PSI_R), len(_PSI_T))
    for k, r in enumerate(_PSI_R):
        got = pinney_psi_antiderivative(r, np.array(_PSI_T))
        assert np.max(np.abs(got - ref[k])) <= 1e-13, r
        # any shape, one point at a time too
        assert pinney_psi_antiderivative(r, _PSI_T[2]) == got[2]


def test_pinney_psi_antiderivative_tends_to_the_limit():
    # (1 + r)^-4 is subnormal at r = 1e80 and 0 at 1e100: both read as r = inf
    ts = np.linspace(-5.0, 13.0, 101)
    limit = pinney_psi_antiderivative(math.inf, ts)
    for r in (1e20, 1e80, 1e100):
        assert np.max(np.abs(pinney_psi_antiderivative(r, ts) - limit)) <= 1e-14, r


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.int64)


# mu = (1 + r)^-4 at these r: Psi's rows of carlson_rf_rd take 7, 10, 6, 9,
# 11, 8 and 6 duplication steps (r = 0 is mu = 1, r = 1e80 a subnormal mu)
_CARLSON_R = (1.0, 1e3, 0.0, 100.0, 1e80, 10.0, 0.1)


def _psi_rows(r, n=33):
    """The arguments (c^2, 1, c^2 + mu s^2) Psi passes carlson_rf_rd, as
    rows, for phi = t/2 on n points of [0, pi/2] and each amplitude of r."""
    phi = np.linspace(0.0, 0.5 * math.pi, n)
    s, c = np.sin(phi), np.cos(phi)
    mu = np.array([(1.0 + a) ** -4 for a in r])[:, None]
    return np.broadcast_arrays(c * c, 1.0, c * c + mu * s * s)


def test_carlson_rows_take_their_own_steps(monkeypatch):
    # each row stops on its own test: np.sqrt runs 3 times a step and twice
    # after the loop, so a row alone shows its steps
    sqrts = []

    class Counting:
        def __getattr__(self, name):
            return getattr(np, name)

        def sqrt(self, x):
            sqrts.append(1)
            return np.sqrt(x)
    monkeypatch.setattr(iso.potentials, "np", Counting())
    steps = []
    for row in zip(*_psi_rows(_CARLSON_R)):
        sqrts.clear()
        carlson_rf_rd(*row)
        steps.append((len(sqrts) - 2) // 3)
    assert steps == [7, 10, 6, 9, 11, 8, 6]


@pytest.mark.parametrize("block", [8192, 66, 33, 1])
def test_carlson_rows_equal_one_call_a_row(monkeypatch, block):
    # rows of 6 to 11 steps in no order, mu = 1 and mu -> 0 among them, in
    # one block, in blocks of 2 rows and a partial one, and a row a block
    monkeypatch.setattr(iso.potentials, "_CARLSON_BLOCK", block)
    x, y, z = _psi_rows(_CARLSON_R)
    rf, rd = carlson_rf_rd(x, y, z)
    assert rf.shape == rd.shape == x.shape
    for k, row in enumerate(zip(x, y, z)):
        one_rf, one_rd = carlson_rf_rd(*row)
        assert np.array_equal(_bits(rf[k]), _bits(one_rf)), k
        assert np.array_equal(_bits(rd[k]), _bits(one_rd)), k
    # a 1-D input is one row, a scalar one element
    assert np.array_equal(_bits(carlson_rf_rd(x[3], y[3], z[3])[0]), _bits(rf[3]))
    assert carlson_rf_rd(x[3, 5], 1.0, z[3, 5])[1].shape == ()


def test_pinney_psi_antiderivative_rows_equal_one_call_an_amplitude():
    # the default ladder and inf, at t on 0, pi, 2 pi, past 2 pi and below 0
    r = np.append(iso.phi.default_r_grid(), math.inf)
    t = np.array([0.0, 1e-3, 1.0, math.pi, 4.0, TWO_PI, 9.0, 2 * TWO_PI + 0.5, -0.5, -7.0])
    rows = pinney_psi_antiderivative(r, t)
    assert rows.shape == (r.size, t.size)
    for k, a in enumerate(r):
        assert np.array_equal(_bits(rows[k]), _bits(pinney_psi_antiderivative(a, t))), a
    grid = t.reshape(2, 5)
    assert pinney_psi_antiderivative(r[:3], grid).shape == (3, 2, 5)
    assert np.array_equal(_bits(pinney_psi_antiderivative(r[:3], grid)[1]),
                          _bits(pinney_psi_antiderivative(r[1], grid)))


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
    assert amplitude_of_action(har2, 0.0) == 0.0
    with pytest.raises(DomainError, match="r must be finite and nonnegative"):
        action_of_amplitude(har2, -1)
    with pytest.raises(DomainError, match="action must be nonnegative"):
        amplitude_of_action(har2, -1)
    with pytest.raises(DomainError, match="action must be positive"):
        from_action_angle(har2, ActionAngle(0.0, 0.0), IntegratorConfig())


def test_action_landau_identity(pin):
    # N * I(r) = V(r) for isochronous centers; I(r) by an independent
    # quadrature of the enclosed area / (2 pi), from the left turning point
    # x_- to r, split at the center (the asymmetric kink)
    for pot in (iso.harmonic(1), iso.harmonic(2), iso.harmonic(3), pin,
                iso.asymmetric(4.0, 4.0 / 9.0)):
        for r in (0.5, 1.0, 3.0):
            e = pot.v(r)
            x_lo = brentq(lambda x: pot.v(x) - e, max(pot.domain_left + 1e-12, -1e3), 0.0,
                          xtol=1e-15, rtol=8.9e-16)
            height = lambda x: math.sqrt(max(2.0 * (e - pot.v(x)), 0.0))
            area = sum(quad(height, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                       for a, b in ((x_lo, 0.0), (0.0, r)))
            assert pot.n_iso * area / math.pi == pytest.approx(e, rel=1e-8, abs=1e-12)
            assert action_of_amplitude(pot, r) == pot.v(r) / pot.n_iso


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
    with pytest.raises(ConfigError):
        action_of_amplitude(pot, 1.0)
    with pytest.raises(ConfigError):
        to_action_angle(pot, State(1.0, 0.3), IntegratorConfig())


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


@pytest.mark.parametrize("theta", [0.0, TWO_PI])
def test_from_action_angle_at_whole_turns_solves_nothing(monkeypatch, pin, cfg, theta):
    import isores.integrate
    calls = []
    solve = isores.integrate.integrate_ode
    monkeypatch.setattr(isores.integrate, "integrate_ode",
                        lambda *a: calls.append(1) or solve(*a))
    r = amplitude_of_action(pin, 0.7)
    assert from_action_angle(pin, ActionAngle(theta=theta, action=0.7), cfg) == State(r, 0.0)
    assert calls == []


def _counted(monkeypatch):
    """Lists that grow by one at each integrate_ode and each
    adaptive_complex_quad call."""
    import isores.forcing
    import isores.integrate
    solves, quads = [], []
    solve, quad_ = isores.integrate.integrate_ode, isores.forcing.adaptive_complex_quad
    monkeypatch.setattr(isores.integrate, "integrate_ode",
                        lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(isores.forcing, "adaptive_complex_quad",
                        lambda *a, **k: quads.append(1) or quad_(*a, **k))
    return solves, quads


@pytest.mark.parametrize("pot", _BUILT_INS, ids=_BUILT_IN_IDS)
def test_from_action_angle_solves_only_an_undeclared_orbit(monkeypatch, pot, cfg):
    # a built-in centre reads its declared orbit; its custom twin solves once
    solves, _ = _counted(monkeypatch)
    from_action_angle(pot, ActionAngle(theta=2.2, action=0.7), cfg)
    assert len(solves) == 0
    from_action_angle(_undeclared(pot), ActionAngle(theta=2.2, action=0.7), cfg)
    assert len(solves) == 1


@pytest.mark.parametrize("pot", _BUILT_INS, ids=_BUILT_IN_IDS)
def test_to_action_angle_solves_only_an_undeclared_orbit_and_integrates_no_area(
        monkeypatch, pot, cfg):
    # I = E/N and T = 2*pi/N: the declared orbit gives the angle with no
    # solve, its custom twin's one solve, and neither the action nor the
    # period takes a quadrature
    solves, quads = _counted(monkeypatch)
    aa = to_action_angle(pot, State(0.5, 0.3), cfg)
    assert (len(solves), len(quads)) == (0, 0)
    assert aa.action == (0.5 * 0.3 ** 2 + pot.v(0.5)) / pot.n_iso
    twin = to_action_angle(_undeclared(pot), State(0.5, 0.3), cfg)
    assert (len(solves), len(quads)) == (1, 0)
    assert twin.action == aa.action
    assert twin.theta == pytest.approx(aa.theta, abs=1e-9)


_ROUND_TRIP_THETAS = [1e-12, 1e-6, 0.3, 2.2, math.pi, 4.0, TWO_PI - 1e-6, TWO_PI - 1e-12]


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "undeclared"])
@pytest.mark.parametrize("pot", _BUILT_INS, ids=_BUILT_IN_IDS)
@pytest.mark.parametrize("action", [1e-6, 0.7, 1e3])
def test_action_angle_round_trip_over_the_turn(pot, action, declared, cfg):
    # a declared orbit is inverse to rounding (3.4e-14 at worst), a solved
    # one to integration tolerance (1.6e-10); the twin's states lie on the
    # declared orbit at the same angle.  The angle, not the state: at
    # Pinney's bounce (I = 1e3, theta = pi) V' is -1.8e5, so the twin's
    # 2.5e-12 in time is 4.5e-7 in v
    centre = pot if declared else _undeclared(pot)
    tol = 1e-13 if declared else 1e-9
    for theta in _ROUND_TRIP_THETAS:
        s = from_action_angle(centre, ActionAngle(theta=theta, action=action), cfg)
        for reader in (pot,) if declared else (centre, pot):
            back = to_action_angle(reader, s, cfg)
            assert abs(math.remainder(back.theta - theta, TWO_PI)) <= tol
            assert back.action == pytest.approx(action, rel=1e-12 if declared else 1e-9)


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
        rp = inverse_V(pin, action + h, 1)
        rm = inverse_V(pin, action - h, 1)
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


def test_rofe_beketov_empty_grid(pin, cfg):
    # np.max of the empty grid raised before any solve
    assert dx_dI_rofe_beketov(pin, 1.0, [], cfg).shape == (0,)


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_rofe_beketov_requires_finite_positive_r(pin, cfg, r):
    with pytest.raises(DomainError, match="dx_dI_rofe_beketov: r must be finite and positive"):
        dx_dI_rofe_beketov(pin, r, [0.0, 1.0], cfg)


@pytest.mark.parametrize("t_grid", [[math.inf], [math.nan], [0.5, -math.inf]])
def test_rofe_beketov_requires_finite_times(pin, cfg, t_grid):
    # inf reached the solve as its end time, nan the Pinney derivative
    with pytest.raises(DomainError, match="dx_dI_rofe_beketov: t_grid must be finite"):
        dx_dI_rofe_beketov(pin, 1.0, t_grid, cfg)


# -- negative semi-period -------------------------------------------------------

# T- = 2 pi - 4 arccos((lambda^2 + 1)^-1/2) on the grid np.logspace(-10, 8, 37)
# of actions, worked out once with mpmath at 40 digits and rounded to double
_PINNEY_T_MINUS_MP = [float.fromhex(x) for x in """
0x1.921ec80040427p+1 0x1.921e0f578d485p+1 0x1.921cc6f77c042p+1
0x1.921a7f0615a6ep+1 0x1.9216709c2a41ap+1 0x1.920f3a05313adp+1
0x1.920266449f3f7p+1 0x1.91eb96d735a6ap+1 0x1.91c306b74f758p+1
0x1.917ae4e41e02ep+1 0x1.90fa9fc6a402ep+1 0x1.901687ca9a6bdp+1
0x1.8e80f36b1c114p+1 0x1.8bafe9898dfe8p+1 0x1.86aeccf54da7cp+1
0x1.7dcec49797517p+1 0x1.6e289331ce0a6p+1 0x1.530d1e4bd1c39p+1
0x1.267791e35f0c4p+1 0x1.cc429debe69ecp+0 0x1.3b2028082e8d4p+0
0x1.838ca741eb32ep-1 0x1.c2890e8369da2p-2 0x1.002d86b6b63bfp-2
0x1.2126504587c65p-3 0x1.45924568f82cfp-4 0x1.6e4bdcb02243fp-5
0x1.9c039a3ac1fbdp-6 0x1.cf66dad9234e1p-7 0x1.0497cad90dbb9p-7
0x1.2515dda84414ep-8 0x1.49a0e271aad3ap-9 0x1.72ba3ff3525eap-10
0x1.a0f36cbb640a3p-11 0x1.d4effbc280c81p-12 0x1.07b3f15f5f5a6p-12
0x1.2895032ade232p-13
""".split()]
_PINNEY_T_MINUS_MP_1E_8 = _PINNEY_T_MINUS_MP[4]


def test_negative_semiperiod_closed_form(pin):
    action = pin.v(1.0)
    expected = TWO_PI - 4.0 * math.acos(1.0 / math.sqrt(5.0))
    assert negative_semiperiod(pin, action) == pytest.approx(expected, abs=1e-14)
    assert pinney_t_minus_closed(action) == pytest.approx(expected, rel=1e-12)


def test_negative_semiperiod_limits(pin):
    # the quadrature was off by 6e-5 at action 1e-8, where E - V(x) cancels
    # near the turning point
    assert negative_semiperiod(pin, 1e-8) == pytest.approx(_PINNEY_T_MINUS_MP_1E_8, abs=1e-14)
    vals = [negative_semiperiod(pin, i) for i in np.logspace(-2, 4, 13)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    assert negative_semiperiod(pin, 1e4) < 0.1


@pytest.mark.parametrize("pot, t_minus", [
    (iso.harmonic(1), math.pi), (iso.harmonic(3), math.pi / 3),
    (iso.asymmetric(4.0, 4 / 9), math.pi / math.sqrt(4 / 9))])
def test_negative_semiperiod_of_the_sinusoid_chain_is_pi_over_mu(pot, t_minus):
    # its x < 0 arc; the quadrature gave 4.71238898038519 for asymmetric(4, 4/9)
    # at I = 1e-6, 5.0e-13 off 3 pi/2
    for action in (1e-6, 1.0, 1e6):
        assert negative_semiperiod(pot, action) == t_minus


def test_negative_semiperiod_quadrature_for_other_centres(har):
    # a centre without a closed form keeps the quadrature: harmonic spends
    # pi at x < 0, and asymmetric(4, 4/9) half a period of frequency 2/3
    har, asym = _undeclared(har), _undeclared(iso.asymmetric(4.0, 4.0 / 9.0))
    for action in (1e-4, 0.5, 3.0, 42.0):
        assert negative_semiperiod(har, action) == pytest.approx(math.pi, rel=1e-10)
        assert negative_semiperiod(asym, action) == pytest.approx(1.5 * math.pi, rel=1e-10)


@pytest.mark.parametrize("pot, action", [
    (iso.pinney(), math.nan), (iso.pinney(), math.inf), (iso.harmonic(1), math.inf)])
def test_negative_semiperiod_requires_finite_positive_action(pot, action):
    # Pinney's closed form gave nan for nan and 0.0 for inf, and harmonic's
    # quadrature failed in the inversion of V instead of naming the action
    with pytest.raises(DomainError, match="negative_semiperiod: action must be finite"):
        negative_semiperiod(pot, action)


def test_negative_semiperiod_matches_closed_form_on_grid(pin):
    actions = np.logspace(-10, 8, 37).tolist()
    for action, ref in zip(actions, _PINNEY_T_MINUS_MP, strict=True):
        assert abs(negative_semiperiod(pin, action) - ref) <= 1e-14 * min(1.0, ref)


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
    with pytest.raises(NumericsError, match="needs minimal period 2\\*pi"):
        bouncing_limit_audit(iso.harmonic(2), [1.0], cfg)


def test_bouncing_limit_audit_reads_the_declared_or_the_solved_orbit(pin, cfg):
    # Pinney's closed-form orbit and its custom twin's one solve give the
    # same x defect to 3.0e-10 relative, and the same dx/dI records
    for rec, twin in zip(bouncing_limit_audit(pin, [1e2, 1e3, 1e4], cfg),
                         bouncing_limit_audit(_undeclared(pin), [1e2, 1e3, 1e4], cfg)):
        assert rec.sup_x_defect == pytest.approx(twin.sup_x_defect, rel=1e-9)
        assert (rec.sup_dxdI_defect, rec.dxdI_at_0) == (twin.sup_dxdI_defect, twin.dxdI_at_0)
