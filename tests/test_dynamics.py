import math

import numpy as np
import pytest

import isores as iso
from isores import dynamics
from isores.errors import IntegrationError
from isores.forcing import ForcingTerm, PiecewiseConst, Sampled, TrigPoly, TWO_PI
from isores.integrate import IntegratorConfig, State, solve_forced
from isores.dynamics import (find_periodic_solution, resonance_run, seed_from_phi_zero,
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


def test_a_start_with_no_step_is_an_error(pin, sin_f, cfg):
    # the starting-step rule overflows at x0 = 1e150: no step was taken, and
    # the run was reported as partial, verdict inconclusive
    with pytest.raises(IntegrationError, match="no starting step") as err:
        resonance_run(pin, sin_f, 0.05, State(1e150, 0.0), 10, cfg)
    assert err.value.trajectory.stats["n_steps"] == 0


def test_a_later_window_with_no_step_stays_partial(pin, sin_f, cfg, monkeypatch):
    # only the start's own window makes a failure before the first step an
    # error; window 1 here restarts where no step can be taken
    real = dynamics.integrate_ode
    monkeypatch.setattr(dynamics, "integrate_ode", lambda system, y0, t0, t1, cfg:
                        real(system, [1e150, 0.0] if t0 > 0 else y0, t0, t1, cfg))
    diag = resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 10, cfg)
    assert diag.partial and diag.verdict == "inconclusive"
    assert "no starting step" in diag.stop_reason and len(diag.window_sup) == 1


def test_a_window_past_the_float_range_ends_the_run(har, sin_f, cfg):
    # x grows by eps pi a period, so its energy leaves the float range in
    # window 60: that read "energy envelope violated at window 60 (excess inf)"
    diag = resonance_run(har, sin_f, 1e152, State(1.0, 0.0), 100, cfg)
    assert diag.partial and diag.verdict == "inconclusive"
    assert diag.stop_reason == "resonance_run: window 60 leaves the float range"
    assert len(diag.window_sup) == 60 and np.all(np.isfinite(diag.energy_sqrt))
    assert abs(diag.final_state.x) == pytest.approx(1e152 * math.pi * 60, rel=1e-9)


def test_resonance_run_budget_holds_at_the_crossing_step(pin, sin_f):
    diag = resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 10,
                         IntegratorConfig(max_steps=10))
    assert diag.stop_reason == "step budget exceeded (11 > 10)"


@pytest.mark.parametrize("f", [
    TrigPoly(sin_coeffs=(1.0,)),                                           # no breaks
    PiecewiseConst((0.4, 1.9), (1.0, -2.0), period=math.pi),               # 4 jumps a period
    Sampled((0.2, 1.0, -0.5, 0.3, -0.9)),                                  # 5 kinks a period
], ids=["sin", "step", "sampled"])
@pytest.mark.parametrize("pot, start, mostly_rowless", [
    pytest.param(iso.pinney(), State(1.0, 0.0), False, id="pot0-start0"),    # singularity guard
    pytest.param(iso.asymmetric(4.0, 4.0 / 9.0), State(1.0, 0.0), False,
                 id="pot1-start1"),                                         # kink restarts
    # most steps are short ones at the bounce, between two samples
    pytest.param(iso.pinney(), State(0.0, 16.0), True, id="pot2-start2"),
])
def test_resonance_run_steps_match_recorded_chain(pot, start, mostly_rowless, f, cfg,
                                                  monkeypatch):
    # every step and so the end state of the run's windows are those of a
    # chain of solve_forced calls made directly, and so is every sample of
    # each window, though a window keeps the dense output of only the steps
    # that hold its samples or end at a kink or guard root
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
        assert chain.stats["n_steps"] == traj.stats["n_steps"]
        assert np.array_equal(chain.ts, traj.ts)
        assert np.array_equal(chain.ys, traj.ys)
        samples = np.linspace(k * TWO_PI, (k + 1) * TWO_PI, 512)
        assert np.array_equal(chain.eval(samples), traj.eval(samples))
        state = chain.end_state()
    assert diag.final_state == state
    kept = sum(int((traj.rows >= 0).sum()) for traj in runs)
    steps = sum(traj.stats["n_steps"] for traj in runs)
    assert 2 * kept < steps if mostly_rowless else kept <= steps


class Sine(ForcingTerm):
    """sin t without declared harmonics: a custom forcing."""

    def eval(self, t):
        return np.sin(t)


def test_custom_forcing_subclass_runs_like_trigpoly(pin, sin_f, cfg):
    # the base scalar_source calls p_eval at every stage
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


@pytest.mark.parametrize("pot, f, built", [
    (iso.harmonic(1), TrigPoly(sin_coeffs=(1.0,)), 0),       # the declared flow
    (iso.harmonic(1), PiecewiseConst((0.4, 1.9), (1.0, -2.0)), 1),
    (iso.harmonic(1), Sine(), 1),
    (iso.asymmetric(1.0, 1.0), TrigPoly(sin_coeffs=(1.0,)), 1),   # declares no flow
], ids=["harmonic-trig", "harmonic-step", "harmonic-custom", "asymmetric-1-1-trig"])
def test_the_declared_flow_chooses_the_path(pot, f, built, cfg, monkeypatch):
    # only harmonic:n with a trigonometric p reads its exact flow; every other
    # run builds its one system and its end state is that of a chain of
    # solve_forced calls, bit for bit
    import isores.integrate
    systems, real = [], isores.integrate._compile_system
    monkeypatch.setattr(isores.integrate, "_compile_system",
                        lambda *a, **k: systems.append(1) or real(*a, **k))
    diag = resonance_run(pot, f, 0.05, State(1.0, 0.0), 10, cfg)
    assert len(systems) == built
    if built:
        state = State(1.0, 0.0)
        for k in range(10):
            state = solve_forced(pot, f, 0.05, [state.x, state.v], k * TWO_PI,
                                 (k + 1) * TWO_PI, cfg).end_state()
        assert diag.final_state == state


def _window_sups(x, v, n_periods):
    """The sup of |x| + |v| and of |x| over the 512 uniform times of each
    window [2 pi k, 2 pi (k + 1)], for closed forms x(t) and v(t)."""
    t = np.array([np.linspace(k * TWO_PI, (k + 1) * TWO_PI, 512) for k in range(n_periods)])
    return (np.abs(x(t)) + np.abs(v(t))).max(axis=1), np.abs(x(t)).max(axis=1)


def test_harmonic_window_sups_are_the_exact_solutions(har, sin_f, cfg):
    # x'' + x = eps sin t from (1, 0): x = cos t + (eps/2)(sin t - t cos t)
    eps = 0.025
    diag = resonance_run(har, sin_f, eps, State(1.0, 0.0), 35, cfg)
    x = lambda t: np.cos(t) + 0.5 * eps * (np.sin(t) - t * np.cos(t))
    v = lambda t: -np.sin(t) + 0.5 * eps * t * np.sin(t)
    sup_xv, sup_x = _window_sups(x, v, 35)
    assert np.allclose(diag.window_sup, sup_xv, rtol=1e-12, atol=0)
    assert np.allclose(diag.window_sup_x, sup_x, rtol=1e-12, atol=0)
    t = 35 * TWO_PI
    end = diag.final_state
    assert abs(end.x - x(t)) + abs(end.v - v(t)) <= 1e-12 * (1 + abs(end.x) + abs(end.v))


def test_harmonic_resonant_term_is_exact(har2, cos2_f, cfg):
    # the k = n term: x'' + 4x = eps cos 2t from rest is x = eps t sin(2t)/4
    eps = 0.05
    end = resonance_run(har2, cos2_f, eps, State(0.0, 0.0), 50, cfg).final_state
    t = 50 * TWO_PI
    x = eps * t * math.sin(2 * t) / 4
    v = eps * (math.sin(2 * t) + 2 * t * math.cos(2 * t)) / 4
    assert abs(end.x - x) + abs(end.v - v) <= 1e-12 * (1 + abs(end.x) + abs(end.v))


def test_harmonic_flow_with_a_constant_and_off_resonant_terms(har2, cfg):
    # p = 0.3 + cos t + 0.5 sin 3t on n = 2, against an independent solve;
    # every window's sups too, since at whole periods the a0 term and the
    # sin kt terms of x_p' vanish and the end states alone would not see them
    from scipy.integrate import solve_ivp
    f = TrigPoly(a0=0.3, cos_coeffs=(1.0,), sin_coeffs=(0.0, 0.0, 0.5))
    eps, start = 0.4, (0.7, -0.2)
    diag = resonance_run(har2, f, eps, State(*start), 10, cfg)
    ref = solve_ivp(lambda t, y: [y[1], -4.0 * y[0] + eps * (0.3 + np.cos(t) + 0.5 * np.sin(3 * t))],
                    (0.0, 10 * TWO_PI), start, method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True).sol
    sup_xv, sup_x = _window_sups(lambda t: ref(t.ravel())[0].reshape(t.shape),
                                 lambda t: ref(t.ravel())[1].reshape(t.shape), 10)
    assert np.allclose(diag.window_sup, sup_xv, rtol=1e-10, atol=0)
    assert np.allclose(diag.window_sup_x, sup_x, rtol=1e-10, atol=0)
    end, (x, v) = diag.final_state, ref(10 * TWO_PI)
    assert abs(end.x - x) + abs(end.v - v) <= 1e-10 * (1 + abs(x) + abs(v))


def test_harmonic_window_sups_scale_with_eps(har, sin_f, cfg):
    # x solves the run at (eps, s) iff x / eps solves it at (1, s / eps)
    eps = 0.05
    small = resonance_run(har, sin_f, eps, State(0.3, -0.2), 20, cfg)
    unit = resonance_run(har, sin_f, 1.0, State(0.3 / eps, -0.2 / eps), 20, cfg)
    assert np.allclose(small.window_sup, eps * unit.window_sup, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_periods", [10, 17, 37])
def test_the_harmonic_table_is_the_same_in_any_block(har2, cfg, n_periods, monkeypatch):
    # each window is its own rows of the table, so the blocks it is read in
    # (a last block short or not) move no bit; nor does a tolerance or a
    # step budget, which a closed-form run never reads
    f = TrigPoly(a0=0.3, cos_coeffs=(1.0, 0.5), sin_coeffs=(0.0, 0.7, 0.5))
    loose = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3, max_steps=1)
    runs = []
    for block, config in ((1, cfg), (8, loose), (64, cfg)):
        monkeypatch.setattr(dynamics, "_TABLE_BLOCK", block)
        runs.append(resonance_run(har2, f, 0.4, State(0.7, -0.2), n_periods, config))
    for diag in runs[1:]:
        for read in ("window_sup", "window_sup_x", "energy_sqrt", "envelope_bound"):
            assert getattr(diag, read).tobytes() == getattr(runs[0], read).tobytes()
        assert diag.final_state == runs[0].final_state


@pytest.mark.parametrize("n_periods", [200, 20_000])
def test_a_harmonic_run_is_a_translation_with_no_drift(har, sin_f, cfg, n_periods):
    # x'' + x = 0.05 sin t from rest ends at x = -0.05 pi N, v = 0: window k
    # starts at k D, not at the end of a chain of windows, and the whole turn
    # at tau = 2 pi rotates nothing (the window chain was 1.9e-12 off at N =
    # 20 000)
    end = resonance_run(har, sin_f, 0.05, State(0.0, 0.0), n_periods, cfg).final_state
    x = -0.05 * math.pi * n_periods
    assert abs(end.x - x) + abs(end.v) <= 1e-15 * (1 + abs(x))


def test_a_harmonic_run_holds_its_memory_flat(har, sin_f, cfg):
    # the table is read 8 windows at a time, so beyond its four records a
    # window holds nothing (a list of floats a window read 3.3 MB here)
    import tracemalloc
    tracemalloc.start()
    try:
        resonance_run(har, sin_f, 0.05, State(0.0, 0.0), 20_000, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


@pytest.mark.parametrize("end", [1e200, math.inf])
def test_an_integrated_window_past_the_float_range_ends_the_run(pin, sin_f, cfg, end,
                                                              monkeypatch):
    # window 3 ends where the energy (1e200) or the state (inf) leaves the
    # float range: the run is cut there, as a harmonic one is, whatever the
    # chain then does
    real = dynamics.integrate_ode

    def leaving(system, y0, t0, t1, cfg):
        traj = real(system, y0, t0, t1, cfg)
        if t0 == 3 * TWO_PI:
            traj.ys[-1] = (end, 0.0)
        return traj
    monkeypatch.setattr(dynamics, "integrate_ode", leaving)
    diag = resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 10, cfg)
    assert diag.partial and diag.verdict == "inconclusive"
    assert diag.stop_reason == "resonance_run: window 3 leaves the float range"
    assert len(diag.window_sup) == 3 and len(diag.energy_sqrt) == 4


def test_harmonic_flow_rejects_a_non_finite_eps(har, sin_f, cfg):
    with pytest.raises(iso.ConfigError, match="eps: must be finite"):
        resonance_run(har, sin_f, math.nan, State(1.0, 0.0), 10, cfg)


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
        out = solve_forced(pin, sin_f, 0.0, [s.x, s.v], 0.0, TWO_PI, cfg).end_state()
        assert abs(out.x - s.x) + abs(out.v - s.v) < 1e-8


def test_strobo_exact_periodic_solution(har, cos2_f, cfg):
    # x = -(eps/3) cos 2t with eps = 0.3 passes through (-0.1, 0)
    out = solve_forced(har, cos2_f, 0.3, [-0.1, 0.0], 0.0, TWO_PI, cfg).end_state()
    assert abs(out.x + 0.1) + abs(out.v) < 1e-8


def test_strobo_moves_under_certified_forcing(pin, sin_f, cfg):
    out = solve_forced(pin, sin_f, 0.05, [1.0, 0.0], 0.0, TWO_PI, cfg).end_state()
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
        g, raw = dynamics._newton_system(pin, f, 0.01, s, cfg)
        u, du, w, dw = raw.variations()[-1]
        jac = np.array([[u - 1.0, w], [du, dw - 1.0]])
        m = solve_forced(pin, f, 0.01, [s.x, s.v], 0.0, TWO_PI, cfg).end_state()
        assert np.max(np.abs(g - [m.x - s.x, m.v - s.v])) <= 1e-9
        assert np.linalg.cond(jac) < 50
        for col in range(2):
            h = 1e-6 * (abs((s.x, s.v)[col]) + 1.0)
            dx, dv = (h, 0.0) if col == 0 else (0.0, h)
            mp = solve_forced(pin, f, 0.01, [s.x + dx, s.v + dv], 0.0, TWO_PI,
                              cfg).end_state()
            mm = solve_forced(pin, f, 0.01, [s.x - dx, s.v - dv], 0.0, TWO_PI,
                              cfg).end_state()
            fd = np.array([mp.x - mm.x - 2.0 * dx, mp.v - mm.v - 2.0 * dv]) / (2.0 * h)
            assert np.max(np.abs(jac[:, col] - fd)) <= 1e-8


# (centre, p, eps, start) of Newton solves whose watched crossings differ:
# Pinney watches its singularity guard, the asymmetric centre crosses its
# kink at x = 0 (the crossing step's dense row is built), a step forcing
# splits the period, and the README's periodic-find seed
_NEWTON_CASES = {
    "pinney-guard": (iso.pinney(), TrigPoly(a0=1.0, cos_coeffs=(2.0,)), 0.01, (0.4, 0.1)),
    "asymmetric-kink": (iso.asymmetric(4.0, 4.0 / 9.0), TrigPoly(sin_coeffs=(1.0,)), 0.01,
                        (0.5, 0.2)),
    "step": (iso.pinney(), PiecewiseConst(breakpoints=(0.3, 1.9, 3.4, 5.0),
                                          values=(0.7, -0.4, 0.9, -0.8)), 0.05, (0.5, 0.2)),
    "readme-seed": (iso.pinney(), TrigPoly(a0=1.0, cos_coeffs=(2.0,)), 0.01,
                    (-0.527143510900082, -2.7509910248427227e-16)),
}


@pytest.mark.parametrize("case", list(_NEWTON_CASES))
def test_newton_solve_takes_the_period_maps_steps(case, cfg):
    # the tangent solve is the 2-component solve: its knots, step sizes and
    # (x, v) rows are the plain one's, so G is P(s) - s exactly
    pot, f, eps, (x, v) = _NEWTON_CASES[case]
    two = solve_forced(pot, f, eps, [x, v], 0.0, TWO_PI, cfg)
    tangent = solve_forced(pot, f, eps, [x, v], 0.0, TWO_PI, cfg, tangent=True)
    assert tangent.ts.tolist() == two.ts.tolist()
    assert tangent.h.tolist() == two.h.tolist()
    assert tangent.ys.tolist() == two.ys.tolist()
    if case in ("asymmetric-kink", "step"):
        assert two.stats["n_segments"] > 1       # restarts at a kink root or a break
    g, _ = dynamics._newton_system(pot, f, eps, State(x, v), cfg)
    end = two.end_state()
    assert g.tolist() == [end.x - x, end.v - v]


# (centre, p, eps, start) of the Newton solves whose G and monodromy M are
# pinned: the README seed, a start whose period crosses the asymmetric kink
# (restarts at its roots), one whose step forcing splits the period
# (restarts at its breaks) and a custom centre, with G = P(s) - s and M =
# (u, u', w, w') at the period's end as float.hex
_PINNED_NEWTON = {
    "readme-seed": (_NEWTON_CASES["readme-seed"],
                    ("0x1.006be1e874000p-15", "-0x1.54f1c65e7ba58p-8"),
                    ("0x1.fee9485ed56c6p-1", "0x1.6139b210f298cp-2", "-0x1.80aed5aea7484p-7",
                     "0x1.ff036657d24dbp-1")),
    "asymmetric-kink": (_NEWTON_CASES["asymmetric-kink"],
                        ("-0x1.f5c4a802a5600p-7", "-0x1.02a1c12d28000p-14"),
                        ("0x1.003a6fb83200fp+0", "0x1.7e98ca2742400p-12",
                         "-0x1.1da0ad9683680p-9", "0x1.ff8b208cf1336p-1")),
    "pinney-step": ((iso.pinney(), PiecewiseConst(breakpoints=(0.3, 1.9, 3.4, 5.0),
                                                  values=(1.0, -0.5, 0.7, -1.2)), 0.05,
                     (0.5, 0.2)),
                    ("-0x1.2ad7414868de8p-5", "-0x1.9b00232006530p-6"),
                    ("0x1.0d61ce0d09b72p+0", "0x1.d64668d94fde8p-6", "-0x1.c22b9ebb332b4p-4",
                     "0x1.e507d0208cc5ep-1")),
    "custom": ((iso.custom(v=lambda x: 0.5 * np.asarray(x) ** 2 + 0.025 * np.asarray(x) ** 4,
                           dv=lambda x: x + 0.1 * x ** 3, d2v=lambda x: 1.0 + 0.3 * x ** 2),
                TrigPoly(sin_coeffs=(1.0,)), 0.05, (0.5, 0.2)),
               ("-0x1.278a8a9887532p-3", "-0x1.99c2a8c217350p-6"),
               ("0x1.0af1d96af9b6cp+0", "-0x1.28ea9c4df6bd0p-3", "0x1.31d5641ccf6fap-4",
                "0x1.e5b15dd006202p-1")),
}


@pytest.mark.parametrize("case", list(_PINNED_NEWTON))
def test_newton_g_and_monodromy_are_pinned(case, cfg):
    # G and M to the bit (Newton's Jacobian is M - I)
    (pot, f, eps, (x, v)), g_hex, m_hex = _PINNED_NEWTON[case]
    g, raw = dynamics._newton_system(pot, f, eps, State(x, v), cfg)
    assert [a.hex() for a in g.tolist()] == list(g_hex)
    assert [a.hex() for a in raw.variations()[-1]] == list(m_hex)
    restarts = {"asymmetric-kink": 3, "pinney-step": 5}.get(case, 1)
    assert raw.stats["n_segments"] == restarts


@pytest.mark.parametrize("seed, iterations, n_solves", [
    (None, 3, 4),                 # the README seed: every full step is taken
    (State(0.3, 0.0), 5, 11),     # the line search refuses 6 candidates, 3 of them failed
])
def test_newton_reads_the_monodromy_only_where_it_steps_from(pin, cfg, monkeypatch, seed,
                                                             iterations, n_solves):
    # each candidate is one period-map solve; the pass over its steps runs
    # for the seed and each candidate Newton steps from, never for the
    # converged one or one the line search refuses
    from isores.integrate import RawSolution
    seed = seed or seed_from_phi_zero(pin, math.pi, 0.337, cfg)
    solves, passes = [], []       # a solve that raised is None
    real_solve, real_pass = dynamics.solve_forced, RawSolution.variations

    def solve(*args, **kwargs):
        solves.append(None)
        solves[-1] = real_solve(*args, **kwargs)
        return solves[-1]
    monkeypatch.setattr(dynamics, "solve_forced", solve)
    monkeypatch.setattr(RawSolution, "variations",
                        lambda self, *a: passes.append(self) or real_pass(self, *a))
    sol = find_periodic_solution(pin, TrigPoly(a0=1.0, cos_coeffs=(2.0,)), 0.01, seed, cfg)
    assert (sol.converged, sol.iterations, len(solves)) == (True, iterations, n_solves)
    assert len(passes) == iterations and passes[0] is solves[0]
    assert solves[-1] not in passes and all(raw in solves for raw in passes)


def test_a_pass_from_numpy_scalars_runs_on_floats(pin, cfg):
    # a line-search candidate holds np.float64 coordinates (s.x + lam *
    # step[0]); the pass starts from the solve's knots and start, as floats,
    # so none of its arithmetic is numpy's
    f = TrigPoly(a0=1.0, cos_coeffs=(2.0,))
    cand = State(np.float64(-0.51), np.float64(1e-3))
    g, raw = dynamics._newton_system(pin, f, 0.01, cand, cfg)
    for start in ((1.0, 0.0, 0.0, 1.0), tuple(np.array([1.0, 0.0, 0.0, 1.0]))):
        knots = raw.variations(start)
        assert len(knots) == raw.ts.size
        assert {type(a) for knot in knots for a in knot} == {float}
    assert raw.variations() == dynamics._newton_system(pin, f, 0.01, State(-0.51, 1e-3),
                                                       cfg)[1].variations()


def test_finder_crafted_zero(pin, crafted_zero, cfg):
    forcing, r_star, action_star = crafted_zero
    seed = seed_from_phi_zero(pin, math.pi, action_star, cfg)
    # theta* = pi: the seed sits on the negative x-axis side of the orbit
    assert seed.x < 0 and abs(seed.v) < 1e-8
    res = find_periodic_solution(pin, forcing, 0.01, seed, cfg)
    assert res.converged and res.residual <= 1e-8
    # re-integration closes period after period
    traj = solve_forced(pin, forcing, 0.01, [res.state.x, res.state.v], 0.0, 10 * TWO_PI,
                        cfg)
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
    class Solve:       # M = 2 I, so the Jacobian M - I is I
        variations = staticmethod(lambda: [(2.0, 0.0, 0.0, 2.0)])
    monkeypatch.setattr(dynamics, "_newton_system",
                        lambda pot, f, eps, s, cfg: (np.array([1.0, 0.0]), Solve))
    seed = State(1.0, 0.0)
    res = find_periodic_solution(pin, sin_f, 0.01, seed, cfg)
    assert (res.converged, res.iterations, res.state) == (False, 1, seed)
    assert res.message == "damping failed to reduce the residual"
    assert res.residual == 1.0
