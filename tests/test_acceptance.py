"""Acceptance suite: every criterion at its stated tolerance, one pass line
printed per criterion (run with -s to see them inline)."""

import math

import numpy as np
import pytest

import isores as iso
from isores.forcing import PiecewiseConst, TrigPoly, TWO_PI
from isores.integrate import State, energy, solve_forced
from isores.autonomous import (bouncing_limit_audit, dx_dI_rofe_beketov,
                               minimal_period, negative_semiperiod,
                               psi_solution)
from isores.phi import (corollary_bound, default_r_grid, eval_phi, phi_scan,
                        pinney_fourier_constants, winding_number)
from isores.potentials import (appendix_audit, inverse_V, pinney_phi_closed,
                               pinney_psi_closed)
from isores.dynamics import find_periodic_solution, seed_from_phi_zero
from isores.acw import (AcwState, acw_first_integral, acw_numeric_check,
                        acw_orbit, acw_poincare, phi_lambda)

RNG = np.random.default_rng(1234)


def _report(num, text):
    print(f"PASS criterion {num:2d}: {text}")


def test_criterion_01_harmonic_phi_oracle(har, sin_f, cfg):
    field = phi_scan(har, sin_f, 64, np.linspace(0.0, 8.0, 16), cfg)
    dev = np.max(np.abs(np.abs(field.values) - 0.5))
    assert dev <= 1e-8
    _report(1, f"|Phi_sin| = 1/2 on a 64x16 grid (max deviation {dev:.2e})")


def test_criterion_02_harmonic_two_sided_bound(cfg):
    from isores.forcing import fourier_coefficient
    worst = 0.0
    thetas = np.linspace(0.0, TWO_PI, 12, endpoint=False)
    for _ in range(20):
        f = TrigPoly(a0=float(RNG.uniform(-1, 1)),
                     cos_coeffs=tuple(RNG.uniform(-1, 1, 3)),
                     sin_coeffs=tuple(RNG.uniform(-1, 1, 3)))
        for n in (1, 2, 3):
            pot = iso.harmonic(n)
            i_n = abs(fourier_coefficient(f, n))
            for th in thetas:
                for r in (0.0, 0.5, 2.0, 8.0):
                    mod = abs(eval_phi(pot, f, th, r, cfg))
                    worst = max(worst, mod - i_n / TWO_PI,
                                i_n / (TWO_PI * n) - mod)
    assert worst <= 1e-9
    _report(2, f"two-sided harmonic bound, 20 random forcings, n in 1..3 "
               f"(worst violation {worst:.2e})")


def test_criterion_03_pinney_isochrony(pin, cfg):
    errs = [abs(minimal_period(pin, r, cfg) - TWO_PI)
            for r in (0.1, 1.0, 10.0, 100.0)]
    assert max(errs) <= 1e-6
    _report(3, f"Pinney minimal periods = 2*pi for r in 0.1..100 "
               f"(max error {max(errs):.2e})")


def test_criterion_04_closed_form_cross_validation(pin, cfg):
    ts = np.linspace(0.0, TWO_PI, 1201)
    worst = 0.0
    for r in (0.5, 1.0, 5.0):
        traj = solve_forced(pin, None, 0.0, [r, 0.0], 0.0, TWO_PI, cfg)
        x, _ = traj.eval(ts)
        xc, _ = pinney_phi_closed(r, ts)
        vs = psi_solution(pin, r, cfg)
        worst = max(worst, float(np.max(np.abs(x - xc))),
                    float(np.max(np.abs(vs.psi(ts) - pinney_psi_closed(r, ts)))))
    assert worst <= 1e-8
    _report(4, f"numeric phi/psi vs closed forms, sup error {worst:.2e}")


def test_criterion_05_rofe_beketov_vs_finite_differences(pin, cfg):
    ts = np.linspace(0.0, TWO_PI, 81)
    ts = ts[np.abs(ts - math.pi) >= 0.2]
    worst = 0.0
    for r in (0.5, 1.0, 5.0):
        action = pin.v(r)
        h = 1e-4 * action
        xp, _ = pinney_phi_closed(inverse_V(pin, action + h, 1), ts)
        xm, _ = pinney_phi_closed(inverse_V(pin, action - h, 1), ts)
        fd = (xp - xm) / (2.0 * h)
        rb = dx_dI_rofe_beketov(pin, r, ts, cfg)
        worst = max(worst, float(np.max(np.abs(rb - fd)
                                        / np.maximum(np.abs(fd), 1e-3))))
    assert worst <= 1e-4
    _report(5, f"Rofe-Beketov vs central differences, rel error {worst:.2e}")


def test_criterion_06_wronskian_and_psi_product_bound(pin, cfg):
    ts = np.linspace(0.0, TWO_PI, 1001)
    worst_w = 0.0
    worst_p = math.inf
    for r in (0.0, 0.5, 1.0, 5.0, 50.0):
        vs = psi_solution(pin, r, cfg)
        worst_w = max(worst_w, float(np.max(np.abs(vs.wronskian(ts) - 1.0))))
        prod = np.abs(vs.psi(ts)) * np.max(np.abs(vs.dpsi(ts)))
        worst_p = min(worst_p, float(np.min(prod)))
    assert worst_w <= 1e-8
    assert worst_p >= 1.0 - 1e-6
    _report(6, f"Wronskian error {worst_w:.2e}; min |psi|*sup|psi'| = {worst_p:.9f}")


def test_criterion_07_negative_semiperiod(pin):
    expected = TWO_PI - 4.0 * math.acos(1.0 / math.sqrt(5.0))
    got = negative_semiperiod(pin, pin.v(1.0))
    assert abs(got - expected) <= 1e-7
    grid = np.logspace(-2, 4, 13)
    vals = [negative_semiperiod(pin, i) for i in grid]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    assert negative_semiperiod(pin, 1e4) < 0.1
    _report(7, f"T-(V(1)) = {got:.9f} (err {abs(got - expected):.2e}), "
               f"strictly decreasing, T-(1e4) = {vals[-1]:.4f}")


def test_criterion_08_bouncing_limits(pin, cfg):
    recs = bouncing_limit_audit(pin, [1e2, 1e3, 1e4], cfg)
    big = recs[-1]
    assert big.sup_x_defect <= 0.05
    assert abs(big.dxdI_at_0 - math.sqrt(2.0)) <= 1e-2
    xs = [r.sup_x_defect for r in recs]
    ds = [r.sup_dxdI_defect for r in recs]
    assert xs[0] > xs[1] > xs[2] and ds[0] > ds[1] > ds[2]
    _report(8, f"bouncing limits at I=1e4: sup_x {big.sup_x_defect:.3f}, "
               f"sqrt(I) dx/dI(0) = {big.dxdI_at_0:.4f}; defects decrease")


def test_criterion_09_corollary_constants(pin, cfg):
    d0 = pinney_fourier_constants(0.0)
    assert abs(d0.d_minus - 0.5) <= 1e-9
    c_top = pinney_fourier_constants(1e3)
    assert abs(c_top.d_plus - 2.0 / (3.0 * math.pi)) <= 1e-3
    assert abs(c_top.c0 - 2.0 / math.pi) <= 1e-3
    rs = np.logspace(-2, 3, 20)
    consts = [pinney_fourier_constants(r) for r in rs]
    assert all(a.d_plus > b.d_plus for a, b in zip(consts[:-1], consts[1:]))
    assert all(a.c0 < b.c0 for a, b in zip(consts[:-1], consts[1:]))
    worst_slack = math.inf
    for coeffs in ((0.0, 0.0, 1.0), (0.1, 1.0, 0.0), (0.2, 0.5, 0.5)):
        a0, a1, b1 = coeffs
        bound = corollary_bound(a0, a1, b1)
        assert bound.resonant
        f = TrigPoly(a0=a0, cos_coeffs=(a1,), sin_coeffs=(b1,))
        field = phi_scan(pin, f, 64, default_r_grid(1e3, 24), cfg)
        worst_slack = min(worst_slack,
                          field.min_modulus - bound.phi_lower_bound)
    assert worst_slack >= -1e-6
    _report(9, f"d-(0)=1/2, d+/c0 limits and monotonicity, corollary bound "
               f"holds on scans (min slack {worst_slack:.3e})")


def test_criterion_10_resonance_growth(diag_harm_sin, diag_pin_sin,
                                       diag_harm_cos2):
    k = np.arange(diag_harm_sin.n_periods)
    slope = np.polyfit(k[50:], diag_harm_sin.window_sup_x[50:], 1)[0]
    assert slope == pytest.approx(0.05 / 2.0 * TWO_PI, rel=0.10)
    assert diag_pin_sin.verdict == "growing"
    assert np.all(np.diff(diag_pin_sin.window_sup[-100:]) > 0)
    assert diag_harm_cos2.verdict == "bounded"
    _report(10, f"growth: harmonic slope {slope:.5f} (eps/2 per unit time), "
                f"Pinney growing with increasing last 100 windows, "
                f"cos2t bounded")


def test_criterion_11_periodic_solution_converse(pin, crafted_zero, cfg):
    forcing, r_star, action_star = crafted_zero
    field = phi_scan(pin, forcing, 32, default_r_grid(10.0, 8), cfg)
    w = winding_number(field, (math.pi - 0.5, math.pi + 0.5,
                               0.7 * r_star, 1.4 * r_star))
    assert abs(w) == 1
    seed = seed_from_phi_zero(pin, math.pi, action_star, cfg)
    res = find_periodic_solution(pin, forcing, 0.01, seed, cfg)
    assert res.converged and res.residual <= 1e-8
    traj = solve_forced(pin, forcing, 0.01, [res.state.x, res.state.v], 0.0, 10 * TWO_PI,
                        cfg)
    drift = max(abs(traj.state(k * TWO_PI).x - res.state.x)
                + abs(traj.state(k * TWO_PI).v - res.state.v)
                for k in range(1, 11))
    assert drift <= 1e-7
    _report(11, f"crafted Phi zero (winding {w:+d}) -> Newton residual "
                f"{res.residual:.2e}, 10-period closure {drift:.2e}")


def test_criterion_12_theorem_c_suite(cfg):
    # composition identity and first integral on 1000 random samples
    worst_comp = worst_int = 0.0
    for _ in range(1000):
        c = float(RNG.uniform(0.05, 20.0))
        s = AcwState(float(RNG.uniform(0.5, 3.0)), float(RNG.uniform(-2.0, 2.0)))
        via = phi_lambda(c, phi_lambda(1.0, s))
        direct = acw_poincare(c, s)
        worst_comp = max(worst_comp, abs(via.x - direct.x), abs(via.y - direct.y))
        worst_int = max(worst_int, abs(acw_first_integral(direct)
                                       - acw_first_integral(s)))
    assert worst_comp <= 1e-12
    assert worst_int <= 1e-12
    # log-linear growth
    s0 = AcwState(1.0, 0.0)
    orbit = acw_orbit(4.0, s0, 20)
    slope = np.polyfit(np.arange(21), np.log([s.x for s in orbit]), 1)[0]
    assert abs(slope - math.log(2.0)) <= 1e-9
    # analytic vs numeric half-period map on the 5x5x3 sample
    worst_num = 0.0
    for c in (0.25, 1.0, 4.0):
        for x0 in np.linspace(0.5, 3.0, 5):
            for y0 in np.linspace(-2.0, 2.0, 5):
                worst_num = max(worst_num, acw_numeric_check(
                    c, AcwState(float(x0), float(y0)), cfg).max_err)
    assert worst_num <= 1e-6
    # c = 1 orbits exactly constant
    orbit1 = acw_orbit(1.0, AcwState(1.3, -0.4), 100)
    assert all(s.x == 1.3 and s.y == -0.4 for s in orbit1)
    _report(12, f"Theorem C: composition {worst_comp:.1e}, first integral "
                f"{worst_int:.1e}, slope err "
                f"{abs(slope - math.log(2)):.1e}, map/flow {worst_num:.1e}, "
                f"c=1 frozen")


def test_criterion_13_appendix_audit(pin):
    audit = appendix_audit(pin, [0.5, 1.0, 2.0, 10.0])
    assert np.max(np.abs(audit.iso_residuals)) <= 1e-9
    a100 = appendix_audit(pin, [100.0])
    expected = 0.25 - 0.25 / 101.0 ** 3
    assert abs(a100.slope_defects[0] - expected) <= 1e-9
    grid = appendix_audit(pin, [0.5, 1.0, 2.0, 10.0, 100.0, 1000.0])
    assert np.all(np.diff(grid.slope_defects) > 0)
    assert grid.slope_defects[-1] < 0.25
    _report(13, f"appendix: iso residuals <= "
                f"{np.max(np.abs(audit.iso_residuals)):.1e}, slope defect "
                f"-> 1/4 monotonically")


def test_criterion_14_energy_envelope_global(pin, diag_harm_sin, diag_pin_sin,
                                             diag_harm_cos2, sin_f, cfg, abs_integral):
    worst = -math.inf
    for diag in (diag_harm_sin, diag_pin_sin, diag_harm_cos2):
        drift = np.abs(diag.energy_sqrt - diag.energy_sqrt[0])
        budget = diag.envelope_bound - diag.energy_sqrt[0]
        worst = max(worst, float(np.max(drift - budget)))
    # one discontinuous forcing as well
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                       period=math.pi)
    eps = 0.02
    traj = solve_forced(pin, f, eps, [1.0, 0.0], 0.0, 20 * TWO_PI, cfg)
    e0 = energy(pin, State(1.0, 0.0))
    for t in np.linspace(0.3, 20 * TWO_PI, 60):
        e = energy(pin, traj.state(t))
        slack = abs(math.sqrt(e) - math.sqrt(e0)) \
            - eps / math.sqrt(2.0) * abs_integral(f, t)
        worst = max(worst, slack)
    assert worst <= 1e-6
    _report(14, f"energy envelope holds at every checkpoint "
                f"(worst slack {worst:+.2e} <= 1e-6)")
