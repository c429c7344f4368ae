import math

import numpy as np
import pytest

import isores as iso
from isores import dynamics
from isores.forcing import TrigPoly, TWO_PI
from isores.integrate import IntegratorConfig, State, integrate_forced
from isores.dynamics import (find_periodic_solution, resonance_run,
                             seed_from_phi_zero, stroboscopic_map,
                             verdict_dict, write_diagnostics_csv)


# -- resonance runs -------------------------------------------------------------

def test_harmonic_sin_growing(diag_harm_sin):
    assert diag_harm_sin.verdict == "growing"
    # sup|x| grows at eps/2 per unit time (variation-of-constants oracle)
    k = np.arange(diag_harm_sin.n_periods)
    slope = np.polyfit(k[50:], diag_harm_sin.window_sup_x[50:], 1)[0]
    assert slope == pytest.approx(0.05 * math.pi, rel=0.10)
    # the |x|+|v| witness grows at sqrt(2) times that rate
    slope_xv = np.polyfit(k[50:], diag_harm_sin.window_sup[50:], 1)[0]
    assert slope_xv == pytest.approx(math.sqrt(2.0) * 0.05 * math.pi, rel=0.10)


def test_pinney_sin_growing(diag_pin_sin):
    assert diag_pin_sin.verdict == "growing"
    assert np.all(np.diff(diag_pin_sin.window_sup[-100:]) > 0)
    assert not diag_pin_sin.partial and diag_pin_sin.stop_reason is None


@pytest.mark.parametrize("start, cfg, reason", [
    (State(0.5, -2.0), IntegratorConfig(singularity_margin=0.3), "singularity"),
    (State(1.0, 0.0), IntegratorConfig(max_steps=10), "step budget"),
])
def test_partial_run_says_why_it_stopped(pin, sin_f, start, cfg, reason):
    diag = resonance_run(pin, sin_f, 0.05, start, 10, cfg)
    assert diag.partial and diag.verdict == "inconclusive"
    assert reason in diag.stop_reason
    assert len(diag.window_sup) < 10
    assert "stop_reason" not in verdict_dict(diag)


def test_resonance_run_budget_holds_at_the_crossing_step(pin, sin_f):
    diag = resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 10,
                         IntegratorConfig(max_steps=10))
    assert diag.stop_reason == "step budget exceeded (11 > 10)"


@pytest.mark.parametrize("pot, start", [
    (iso.pinney(), State(1.0, 0.0)),                       # singularity guard
    (iso.asymmetric(4.0, 4.0 / 9.0), State(1.0, 0.0)),     # kink restarts
])
def test_resonance_run_steps_match_recorded_chain(pot, start, sin_f, cfg,
                                                  monkeypatch):
    # every step, every event and so the end state of the run's windows are
    # those of a chain of integrate_forced calls made directly
    runs = []
    real = dynamics.integrate_forced

    def recording(*args, **kwargs):
        traj = real(*args, **kwargs)
        runs.append(traj)
        return traj
    monkeypatch.setattr(dynamics, "integrate_forced", recording)
    diag = resonance_run(pot, sin_f, 0.05, start, 10, cfg)
    assert len(runs) == 10
    state = start
    for k, traj in enumerate(runs):
        chain = integrate_forced(pot, sin_f, 0.05, state, k * TWO_PI,
                                 (k + 1) * TWO_PI, cfg, check_envelope=False)
        assert chain.events_of("v_zero")
        assert chain.events == traj.events
        assert chain.stats["n_steps"] == traj.stats["n_steps"]
        assert np.array_equal(chain.ts, traj.ts)
        assert np.array_equal(chain.ys, traj.ys)
        state = chain.end_state()
    assert diag.final_state == state


def test_harmonic_cos2_bounded(diag_harm_cos2):
    assert diag_harm_cos2.verdict == "bounded"
    # bounded oracle: x = (eps/3)(cos t - cos 2t) stays within eps
    assert np.max(diag_harm_cos2.window_sup) < 10 * 0.05


def test_energy_envelope_never_violated(diag_harm_sin, diag_pin_sin,
                                         diag_harm_cos2):
    for diag in (diag_harm_sin, diag_pin_sin, diag_harm_cos2):
        drift = np.abs(diag.energy_sqrt - diag.energy_sqrt[0])
        budget = diag.envelope_bound - diag.energy_sqrt[0]
        assert np.max(drift - budget) <= 1e-6


def test_verdict_stability_under_doubling(pin, har, sin_f, cos2_f, cfg):
    # doubling the horizon never flips growing -> bounded
    d1 = iso.resonance_run(har, sin_f, 0.05, State(0.0, 0.0), 200, cfg)
    assert d1.verdict == "growing"
    d2 = iso.resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 400, cfg)
    assert d2.verdict == "growing"
    d3 = iso.resonance_run(har, cos2_f, 0.05, State(0.0, 0.0), 400, cfg)
    assert d3.verdict == "bounded"


def test_resonance_run_validation(har, sin_f, cfg):
    with pytest.raises(ValueError):
        iso.resonance_run(har, sin_f, 0.05, State(0.0, 0.0), 5, cfg)


def test_diagnostics_csv(diag_harm_sin, tmp_path):
    p = write_diagnostics_csv(diag_harm_sin, tmp_path / "diag.csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "window_index,window_sup,sqrtE,envelope"
    assert len(lines) == 101


# -- stroboscopic map -------------------------------------------------------------

def test_strobo_identity_at_eps_zero(pin, sin_f, cfg):
    for s in (State(0.7, 0.2), State(1.5, -0.4), State(0.1, 0.05)):
        out = stroboscopic_map(pin, sin_f, 0.0, s, cfg)
        assert abs(out.x - s.x) + abs(out.v - s.v) < 1e-8


def test_strobo_exact_periodic_solution(har, cos2_f, cfg):
    # x = -(eps/3) cos 2t with eps = 0.3 passes through (-0.1, 0)
    out = stroboscopic_map(har, cos2_f, 0.3, State(-0.1, 0.0), cfg)
    assert abs(out.x + 0.1) + abs(out.v) < 1e-8


def test_strobo_moves_under_certified_forcing(pin, sin_f, cfg):
    out = stroboscopic_map(pin, sin_f, 0.05, State(1.0, 0.0), cfg)
    assert abs(out.x - 1.0) + abs(out.v) > 1e-3


# -- periodic-solution shooting ------------------------------------------------------

def test_finder_trivial_at_eps_zero(pin, sin_f, cfg):
    res = find_periodic_solution(pin, sin_f, 0.0, State(1.2, 0.0), cfg)
    assert res.converged and res.residual <= 1e-10
    assert res.iterations == 0
    assert abs(res.state.x - 1.2) + abs(res.state.v) < 1e-12


def test_finder_linear_oscillator_family(har, cos2_f, cfg):
    # every point of the plane is fixed for the linear isochronous
    # oscillator under a 2pi-periodic forcing with a periodic particular
    # solution: the finder honestly converges at the seed itself
    res = find_periodic_solution(har, cos2_f, 0.09, State(0.0, 0.0), cfg)
    assert res.converged and res.residual <= 1e-10
    assert abs(res.state.x) + abs(res.state.v) < 1e-12
    # the spec's oracle point -(eps/3) cos 2t is also a fixed point
    res2 = find_periodic_solution(har, cos2_f, 0.09, State(-0.03, 0.0), cfg)
    assert res2.converged
    assert abs(res2.state.x + 0.03) + abs(res2.state.v) < 1e-12


def test_finder_detects_degenerate_jacobian(har, sin_f, cfg):
    # harmonic + sin t is resonant: no periodic solution exists and the
    # period map is a rigid translation, so the Jacobian of G vanishes
    res = find_periodic_solution(har, sin_f, 0.05, State(0.3, 0.1), cfg)
    assert not res.converged
    assert "singular Jacobian" in res.message


def test_finder_jacobian_matches_central_differences(pin, cfg):
    # J = M - I from the forced variational solve against central
    # differences of the period map at non-degenerate points (cond J < 50)
    f = TrigPoly(a0=1.0, cos_coeffs=(2.0,))
    for s in (State(1.0, 0.0), State(0.5, 0.3)):
        g, jac = dynamics._newton_system(pin, f, 0.01, s, cfg)
        m = stroboscopic_map(pin, f, 0.01, s, cfg)
        assert np.max(np.abs(g - [m.x - s.x, m.v - s.v])) <= 1e-9
        assert np.linalg.cond(jac) < 50
        for col in range(2):
            h = 1e-6 * (abs((s.x, s.v)[col]) + 1.0)
            dx, dv = (h, 0.0) if col == 0 else (0.0, h)
            mp = stroboscopic_map(pin, f, 0.01, State(s.x + dx, s.v + dv), cfg)
            mm = stroboscopic_map(pin, f, 0.01, State(s.x - dx, s.v - dv), cfg)
            fd = np.array([mp.x - mm.x - 2.0 * dx, mp.v - mm.v - 2.0 * dv]) / (2.0 * h)
            assert np.max(np.abs(jac[:, col] - fd)) <= 1e-8


def test_finder_crafted_zero(pin, crafted_zero, cfg):
    forcing, r_star, action_star = crafted_zero
    seed = seed_from_phi_zero(pin, math.pi, action_star, cfg)
    # theta* = pi: the seed sits on the negative x-axis side of the orbit
    assert seed.x < 0 and abs(seed.v) < 1e-8
    res = find_periodic_solution(pin, forcing, 0.01, seed, cfg)
    assert res.converged and res.residual <= 1e-8
    # re-integration closes period after period
    traj = integrate_forced(pin, forcing, 0.01, res.state, 0.0, 10 * TWO_PI, cfg)
    for k in range(1, 11):
        s = traj.state(k * TWO_PI)
        assert abs(s.x - res.state.x) + abs(s.v - res.state.v) <= \
            10 * max(res.residual, 1e-9)
