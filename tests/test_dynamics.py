import math

import numpy as np
import pytest

import isores as iso
from isores import dynamics
from isores.errors import IntegrationError
from isores.forcing import ForcingTerm, PiecewiseConst, Sampled, TrigPoly, TWO_PI
from isores.integrate import IntegratorConfig, State, integrate_forced, solve_forced
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


def test_a_start_with_no_step_is_an_error(har, sin_f, cfg):
    # the starting-step rule overflows at x0 = 1e150: no step was taken, and
    # the run was reported as partial, verdict inconclusive
    with pytest.raises(IntegrationError, match="no starting step") as err:
        resonance_run(har, sin_f, 0.05, State(1e150, 0.0), 10, cfg)
    assert err.value.trajectory.stats["n_steps"] == 0


def test_a_later_window_with_no_step_stays_partial(har, sin_f, cfg, monkeypatch):
    # only the start's own window makes a failure before the first step an
    # error; window 1 here restarts where no step can be taken
    real = dynamics.integrate_ode
    monkeypatch.setattr(dynamics, "integrate_ode", lambda system, y0, t0, t1, cfg:
                        real(system, [1e150, 0.0] if t0 > 0 else y0, t0, t1, cfg))
    diag = resonance_run(har, sin_f, 0.05, State(1.0, 0.0), 10, cfg)
    assert diag.partial and diag.verdict == "inconclusive"
    assert "no starting step" in diag.stop_reason and len(diag.window_sup) == 1


def test_resonance_run_budget_holds_at_the_crossing_step(pin, sin_f):
    diag = resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 10,
                         IntegratorConfig(max_steps=10))
    assert diag.stop_reason == "step budget exceeded (11 > 10)"


@pytest.mark.parametrize("f", [
    TrigPoly(sin_coeffs=(1.0,)),                                           # no breaks
    PiecewiseConst((0.4, 1.9), (1.0, -2.0), period=math.pi),               # 4 jumps a period
    Sampled((0.2, 1.0, -0.5, 0.3, -0.9)),                                  # 5 kinks a period
], ids=["sin", "step", "sampled"])
@pytest.mark.parametrize("pot, start", [
    (iso.pinney(), State(1.0, 0.0)),                       # singularity guard
    (iso.asymmetric(4.0, 4.0 / 9.0), State(1.0, 0.0)),     # kink restarts
])
def test_resonance_run_steps_match_recorded_chain(pot, start, f, cfg, monkeypatch):
    # every step, every event (the forcing breaks too) and so the end state
    # of the run's windows are those of a chain of solve_forced calls made
    # directly
    runs = []
    real = dynamics.integrate_ode

    def recording(*args):
        traj = real(*args)
        runs.append(traj)
        return traj
    monkeypatch.setattr(dynamics, "integrate_ode", recording)
    diag = resonance_run(pot, f, 0.05, start, 10, cfg)
    assert len(runs) == 10
    state = start
    for k, traj in enumerate(runs):
        chain = solve_forced(pot, f, 0.05, [state.x, state.v], k * TWO_PI,
                             (k + 1) * TWO_PI, cfg)
        assert chain.events_of("v_zero")
        assert chain.events == traj.events
        assert chain.stats["n_steps"] == traj.stats["n_steps"]
        assert np.array_equal(chain.ts, traj.ts)
        assert np.array_equal(chain.ys, traj.ys)
        state = chain.end_state()
    assert diag.final_state == state


def test_custom_forcing_subclass_runs_like_trigpoly(pin, sin_f, cfg):
    # the base scalar_source calls p_eval at every stage
    class Sine(ForcingTerm):
        def eval(self, t):
            return np.sin(t)
    custom = resonance_run(pin, Sine(), 0.05, State(1.0, 0.0), 20, cfg).final_state
    trig = resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 20, cfg).final_state
    assert abs(custom.x - trig.x) + abs(custom.v - trig.v) <= 1e-12


def test_resonance_run_builds_its_system_once(monkeypatch, pin, sin_f, cfg):
    # one compiled system serves every window of the run
    import isores.integrate
    built, real = [], isores.integrate._compile_system
    monkeypatch.setattr(isores.integrate, "_compile_system",
                        lambda *a, **k: built.append(1) or real(*a, **k))
    resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 10, cfg)
    assert len(built) == 1


def test_envelope_violation_stops_the_run_at_its_window(monkeypatch, pin, sin_f, cfg):
    # with no budget the energy's first move breaks the envelope, and the run
    # raises at the end of that window
    monkeypatch.setattr(dynamics, "l1_norm", lambda f: 0.0)
    with pytest.raises(iso.NumericsError, match="energy envelope violated at window 0 "):
        resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 10, cfg)


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


def test_finder_stops_when_the_iteration_budget_is_spent(pin, cfg, monkeypatch):
    # one Newton step from the README's seed leaves a residual of ~2e-4
    monkeypatch.setattr(dynamics, "_NEWTON_MAX_ITER", 1)
    f = TrigPoly(a0=1.0, cos_coeffs=(2.0,))
    seed = seed_from_phi_zero(pin, math.pi, 0.337, cfg)
    res = find_periodic_solution(pin, f, 0.01, seed, cfg)
    assert (res.converged, res.iterations) == (False, 1)
    assert res.message == "iteration budget exhausted"
    assert 1e-4 < res.residual < 1e-3


def test_finder_stops_when_damping_cannot_reduce_the_residual(pin, sin_f, cfg, monkeypatch):
    # G is (1, 0) everywhere: every halved step keeps the residual at 1
    monkeypatch.setattr(dynamics, "_newton_system",
                        lambda pot, f, eps, s, cfg: (np.array([1.0, 0.0]), np.eye(2)))
    seed = State(1.0, 0.0)
    res = find_periodic_solution(pin, sin_f, 0.01, seed, cfg)
    assert (res.converged, res.iterations, res.state) == (False, 1, seed)
    assert res.message == "damping failed to reduce the residual"
    assert res.residual == 1.0
