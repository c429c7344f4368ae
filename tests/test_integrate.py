import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import RK45, solve_ivp

import isores as iso
from isores.errors import ConfigError, IntegrationError
from isores.forcing import PiecewiseConst, TrigPoly, TWO_PI, abs_integral, tiled_split_points
from isores.integrate import (VARIATIONAL, IntegratorConfig, State, energy,
                              forced_system, integrate_autonomous,
                              integrate_forced)
from isores.autonomous import ROFE_BEKETOV, pinney_phi_closed


def test_harmonic_closed_orbit(har, cfg):
    traj = integrate_autonomous(har, State(1.0, 0.0), 0.0, TWO_PI, cfg)
    end = traj.end_state()
    assert abs(end.x - 1.0) + abs(end.v) < 1e-9


def test_pinney_half_and_full_period(pin, cfg):
    half = integrate_autonomous(pin, State(1.0, 0.0), 0.0, math.pi, cfg).end_state()
    assert abs(half.x + 0.5) + abs(half.v) < 1e-8
    full = integrate_autonomous(pin, State(1.0, 0.0), 0.0, TWO_PI, cfg).end_state()
    assert abs(full.x - 1.0) + abs(full.v) < 1e-8


def test_knots_match_interpolation(pin, cfg):
    traj = integrate_autonomous(pin, State(1.0, 0.0), 0.0, TWO_PI, cfg)
    ts = traj.ts
    assert np.all(np.diff(ts) > 0)
    x, v = traj.eval(ts)
    assert np.allclose(x, traj.ys[:, 0], atol=1e-12)
    assert np.allclose(v, traj.ys[:, 1], atol=1e-12)


def test_eps_zero_reduces_to_autonomous(pin, cfg):
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                       period=math.pi)
    auto = integrate_autonomous(pin, State(1.0, 0.0), 0.0, TWO_PI, cfg)
    forced = integrate_forced(pin, f, 0.0, State(1.0, 0.0), 0.0, TWO_PI, cfg)
    assert np.array_equal(auto.ts, forced.ts)
    assert np.array_equal(auto.ys, forced.ys)


def test_no_forcing_with_nonzero_eps_is_autonomous(pin, cfg):
    # f = None is unforced whatever eps is: no breaks to tile, no envelope
    auto = integrate_autonomous(pin, State(1.0, 0.0), 0.0, 1.0, cfg)
    forced = integrate_forced(pin, None, 0.1, State(1.0, 0.0), 0.0, 1.0, cfg)
    assert np.array_equal(auto.ts, forced.ts)
    assert np.array_equal(auto.ys, forced.ys)
    assert auto.stats == forced.stats


def test_forced_harmonic_variation_of_constants(har, cfg):
    # oracle: x(t) = -(eps/2) t cos t + (eps/2) sin t for x'' + x = eps sin t
    eps = 0.1
    f = TrigPoly(sin_coeffs=(1.0,))
    traj = integrate_forced(har, f, eps, State(0.0, 0.0), 0.0, TWO_PI, cfg)
    end = traj.end_state()
    assert end.x == pytest.approx(-eps * math.pi, abs=1e-7)
    ts = np.linspace(0, TWO_PI, 101)
    x, v = traj.eval(ts)
    oracle = -(eps / 2) * ts * np.cos(ts) + (eps / 2) * np.sin(ts)
    assert np.max(np.abs(x - oracle)) < 1e-8


def test_forcing_breakpoints_are_split_events(pin, cfg):
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                       period=math.pi)
    traj = integrate_forced(pin, f, 0.05, State(1.0, 0.0), 0.0, 2 * TWO_PI, cfg)
    breaks = sorted(e.t for e in traj.events_of("forcing_break"))
    expected = [k * math.pi / 2 for k in range(1, 8)]
    assert np.allclose(breaks, expected, atol=1e-12)
    # splits are exact knots
    for b in expected:
        assert np.min(np.abs(traj.ts - b)) < 1e-12


def test_sampled_forcing_splits_at_kinks(pin, cfg):
    f = iso.Sampled(values=(0.0, 1.0, 0.5, -1.0))
    traj = integrate_forced(pin, f, 0.05, State(1.0, 0.0), 0.0, 2 * TWO_PI, cfg)
    breaks = sorted(e.t for e in traj.events_of("forcing_break"))
    expected = [k * math.pi / 2 for k in range(1, 8)]
    assert np.allclose(breaks, expected, atol=1e-12)


def test_energy_values(pin, har, cfg):
    assert energy(har, State(1.0, 0.0)) == pytest.approx(0.5)
    assert energy(pin, State(1.0, 0.0)) == pytest.approx(9.0 / 32.0)
    assert energy(pin, State(0.0, 0.0)) == 0.0


def test_energy_drift_100_periods(pin, cfg):
    traj = integrate_autonomous(pin, State(1.0, 0.0), 0.0, 100 * TWO_PI, cfg)
    ts = np.linspace(0.0, 100 * TWO_PI, 20001)
    x, v = traj.eval(ts)
    e = 0.5 * v ** 2 + pin.v(x)
    e0 = energy(pin, State(1.0, 0.0))
    assert np.max(np.abs(e - e0)) / e0 <= 1e-8


def test_forced_energy_envelope_runtime_check(pin, sin_f, cfg):
    eps = 0.05
    traj = integrate_forced(pin, sin_f, eps, State(1.0, 0.0), 0.0, 10 * TWO_PI, cfg)
    e0 = energy(pin, State(1.0, 0.0))
    for t in np.linspace(0.5, 10 * TWO_PI, 25):
        e = energy(pin, traj.state(t))
        budget = abs(eps) / math.sqrt(2.0) * abs_integral(sin_f, t)
        assert abs(math.sqrt(e) - math.sqrt(e0)) <= budget + 1e-6


def test_v_zero_events_have_zero_velocity(pin, cfg):
    traj = integrate_autonomous(pin, State(2.0, 0.0), 0.0, 3 * TWO_PI, cfg)
    evs = traj.events_of("v_zero")
    assert len(evs) >= 6
    for ev in evs:
        _, v = traj.eval(ev.t)
        assert abs(v) <= 1e-10


def test_x_zero_events_recorded(pin, cfg):
    traj = integrate_autonomous(pin, State(1.0, 0.0), 0.0, TWO_PI, cfg)
    evs = traj.events_of("x_zero")
    assert len(evs) == 2
    for ev in evs:
        x, _ = traj.eval(ev.t)
        assert abs(x) <= 1e-10


def test_dense_output_midpoint_accuracy(pin, cfg):
    # midpoints of accepted steps vs the exact closed-form orbit
    traj = integrate_autonomous(pin, State(1.0, 0.0), 0.0, TWO_PI, cfg)
    ts = traj.ts
    mids = 0.5 * (ts[:-1] + ts[1:])
    x, v = traj.eval(mids)
    xc, vc = pinney_phi_closed(1.0, mids)
    err = np.max(np.abs(x - xc) + np.abs(v - vc))
    assert err <= 10 * cfg.rel_tol


def test_singularity_guard_carries_partial(pin):
    cfg = IntegratorConfig(singularity_margin=0.3)
    with pytest.raises(IntegrationError) as exc:
        integrate_autonomous(pin, State(0.5, -2.0), 0.0, TWO_PI, cfg)
    partial = exc.value.trajectory
    assert partial is not None
    assert partial.ts[-1] < TWO_PI
    assert any(e.kind == "singularity" for e in partial.events)
    # the state stopped right at the guard line
    assert partial.ys[-1, 0] == pytest.approx(-1.0 + 0.3, abs=1e-9)


def test_max_steps_exceeded(pin):
    cfg = IntegratorConfig(max_steps=10)
    with pytest.raises(IntegrationError) as exc:
        integrate_autonomous(pin, State(1.0, 0.0), 0.0, 100 * TWO_PI, cfg)
    assert exc.value.trajectory is not None
    # the budget holds at the step that crosses it
    assert "step budget exceeded (11 > 10)" in str(exc.value)
    assert exc.value.trajectory.stats["n_steps"] == 11
    assert len(exc.value.trajectory.ts) == 12


@pytest.mark.parametrize("name, value", [
    ("rel_tol", math.inf), ("rel_tol", 0.0), ("abs_tol", math.nan),
    ("abs_tol", -1.0), ("singularity_margin", math.inf),
    ("singularity_margin", math.nan)])
def test_config_requires_finite_positive_tolerances(name, value):
    # an infinite or nan tolerance accepts every step (or none): it must not
    # reach the step loop
    with pytest.raises(ConfigError, match=f"integrator.{name}"):
        IntegratorConfig(**{name: value})


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_forced_system_rejects_non_finite_eps(pin, sin_f, cfg, eps):
    with pytest.raises(ConfigError, match="eps"):
        forced_system(pin, sin_f, eps, cfg)


def test_asymmetric_kink_handling(cfg):
    # alpha=4, beta=4/9: piecewise closed form, period 2*pi
    pot = iso.asymmetric(4.0, 4.0 / 9.0)
    traj = integrate_autonomous(pot, State(1.0, 0.0), 0.0, TWO_PI, cfg)
    end = traj.end_state()
    assert abs(end.x - 1.0) + abs(end.v) < 1e-8
    x_pi, _ = traj.eval(math.pi)
    assert x_pi == pytest.approx(-3.0, abs=1e-8)
    crossings = sorted(e.t for e in traj.events_of("x_zero"))
    assert np.allclose(crossings, [math.pi / 4, math.pi / 4 + 3 * math.pi / 2],
                       atol=1e-9)
    # crossings are exact knots (steps never straddle the kink)
    for c in crossings:
        assert np.min(np.abs(traj.ts - c)) < 1e-9


def test_kink_crossed_at_the_start_ends_where_a_start_on_it_does(cfg):
    # x starts a hair above the kink and moving down: the crossing comes at
    # once and restarts the step, watching the crossing back; from x = 0 the
    # loop watches for leaving the side x first moves to
    pot = iso.asymmetric(4.0, 4.0 / 9.0)
    off = integrate_autonomous(pot, State(1e-20, -1.0), 0.0, TWO_PI, cfg)
    at = integrate_autonomous(pot, State(0.0, -1.0), 0.0, TWO_PI, cfg)
    end, ref = off.end_state(), at.end_state()
    assert abs(end.x - ref.x) + abs(end.v - ref.v) < 1e-9


def test_rest_point_on_the_kink_stays_at_rest():
    # x = 0 never leaves the kink, so no side is ever chosen and no crossing
    # restarts the step
    raw = integrate_autonomous(iso.asymmetric(4.0, 4.0 / 9.0), State(0.0, 0.0), 0.0, 1.0,
                               IntegratorConfig(max_steps=20000))
    assert raw.end_state() == State(0.0, 0.0)
    assert raw.stats["n_steps"] <= 10 and raw.stats["n_segments"] == 1


# -- the step loop against scipy's RK45 -------------------------------------------

def _recorded_calls(monkeypatch, module):
    """Record the arguments and the result of every integrate_ode call made
    through ``module``."""
    calls = []
    real = module.integrate_ode

    def recording(fun, y0, t0, t1, cfg, **kwargs):
        raw = real(fun, y0, t0, t1, cfg, **kwargs)
        calls.append((fun, y0, t0, kwargs, raw))
        return raw
    monkeypatch.setattr(module, "integrate_ode", recording)
    return calls


def _scipy_chain(fun, y0, t0, t1, cfg, breaks, kink, method):
    """Reference: one solve_ivp run per span between forcing breaks,
    restarted at every kink crossing with the kink armed the other way."""
    sols, y = [], np.asarray(y0, dtype=float)
    stops = [t0, *breaks, t1]
    for ta, tb in zip(stops[:-1], stops[1:]):
        direction = None if kink is None else (-1.0 if kink(ta, y) > 0 else 1.0)
        while True:
            events = None
            if kink is not None:
                events = lambda t, y: kink(t, y)
                events.terminal, events.direction = True, direction
            sol = solve_ivp(fun, (ta, tb), y, method=method, rtol=cfg.rel_tol,
                            atol=cfg.abs_tol, dense_output=True, events=events)
            sols.append(sol)
            y = sol.y[:, -1]
            if sol.status != 1:
                break
            ta, direction = float(sol.t[-1]), -direction
    return sols


def _chain_eval(sols, t):
    """Pick the run by its end time, then let its OdeSolution pick the step."""
    bounds = np.array([sol.t[-1] for sol in sols])
    idx = np.searchsorted(bounds[:-1], t, side="left")
    out = np.empty((sols[0].y.shape[0], t.size))
    for i in np.unique(idx):
        out[:, idx == i] = sols[i].sol(t[idx == i])
    return out


@pytest.mark.parametrize("method", ["RK45"])
@pytest.mark.parametrize("case", ["pinney-forced", "asymmetric-kinks",
                                  "pinney-breaks", "variational", "tangency-start"])
def test_dense_table_matches_segment_loop(case, method, monkeypatch):
    """The steps of scipy's RK45 over the same restarts.  Two summation
    orders round the error estimate differently, and at rel_tol 1e-10 its
    last digits set h, so knots agree to a few 1e-7 (1 + |t|), not to
    rounding.  Near x = 0 the tolerance is mostly abs_tol and the 6-dim
    variational run is rounding-bound there: scipy's own step count for it
    ranges over 240..256 when its right-hand side is scaled by 1 + k 1e-16,
    |k| <= 6, so it is compared within 10 %; both runs are within 3e-10 of
    the exact piecewise-sinusoid psi, so dense values within 1e-9."""
    import isores.integrate
    from isores.autonomous import psi_solution
    cfg = IntegratorConfig()
    calls = _recorded_calls(monkeypatch, isores.integrate)
    t1 = 3 * TWO_PI
    if case == "pinney-forced":
        integrate_forced(iso.pinney(), TrigPoly(sin_coeffs=(1.0,)), 0.05,
                         State(1.0, 0.0), 0.0, t1, cfg)
    elif case == "asymmetric-kinks":
        integrate_forced(iso.asymmetric(4.0, 4.0 / 9.0),
                         TrigPoly(a0=0.2, cos_coeffs=(1.0,)), 0.1,
                         State(1.0, 0.0), 0.0, t1, cfg)
    elif case == "pinney-breaks":
        f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                           period=math.pi)
        integrate_forced(iso.pinney(), f, 0.05, State(1.0, 0.0), 0.0, t1, cfg)
    elif case == "tangency-start":
        # a kink crossed at once, then twice more: 4 runs
        t1 = TWO_PI
        integrate_autonomous(iso.asymmetric(4.0, 4.0 / 9.0), State(1e-20, -1.0),
                             0.0, t1, cfg)
    else:
        t1 = TWO_PI
        psi_solution(iso.asymmetric(4.0, 4.0 / 9.0), 1.0, cfg)
    (fun, y0, t0, _, raw), = calls
    breaks = [e.t for e in raw.events if e.kind == "forcing_break"]
    sols = _scipy_chain(fun, y0, t0, t1, cfg, breaks, fun.kink, method)
    ts, n_ref = raw.ts, sum(len(sol.t) - 1 for sol in sols)
    assert raw.stats["n_segments"] == len(sols)
    if case != "pinney-forced":
        assert len(sols) > 1          # kink restarts or forcing breaks
    if case == "variational":
        assert abs(raw.stats["n_steps"] - n_ref) <= 0.1 * n_ref
    else:
        assert raw.stats["n_steps"] == n_ref
        ref_ts = np.concatenate([[t0]] + [sol.t[1:] for sol in sols])
        assert np.all(np.abs(ts - ref_ts) <= 1e-6 * (1.0 + np.abs(ref_ts)))
    kinks = [e.t for e in raw.events
             if e.kind == "x_zero" and fun.kink is not None]
    ref_kinks = [sol.t[-1] for sol in sols if sol.status == 1]
    assert np.all(np.abs(np.subtract(kinks, ref_kinks)) <= 1e-12)
    t = np.concatenate([np.linspace(0.0, t1, 2001), ts,
                        0.5 * (ts[:-1] + ts[1:]), [0.0, t1]])
    ref = _chain_eval(sols, t)
    got = raw.eval(t)
    assert got.shape == ref.shape
    bound = 1e-9 if case == "variational" else 1e-10
    assert np.all(np.abs(got - ref) <= bound * np.maximum(1.0, np.abs(ref)))
    for tk in (0.0, ts[len(ts) // 2], 1.2345, t1):
        one = raw.eval(tk)
        assert one.shape == (raw.ys.shape[1],)
        assert np.array_equal(one, raw.eval(np.array([tk]))[:, 0])
    # the first knot is the initial value exactly
    assert np.array_equal(raw.eval(0.0), raw.ys[0])
    # 2 calls per restart (f0 and the starting-step probe), 6 per attempted step
    stats = raw.stats
    assert stats["nfev"] == 2 * stats["n_segments"] + 6 * (stats["n_steps"]
                                                           + stats["n_rejected"])


def test_guard_time_matches_scipy_terminal_event(pin):
    from isores.integrate import forced_system
    cfg = IntegratorConfig(singularity_margin=0.3)
    with pytest.raises(IntegrationError) as exc:
        integrate_autonomous(pin, State(0.5, -2.0), 0.0, TWO_PI, cfg)
    guard_t = [e.t for e in exc.value.trajectory.events if e.kind == "singularity"]
    event = lambda t, y: y[0] - (-1.0 + 0.3)
    event.terminal, event.direction = True, -1.0
    fun = forced_system(pin, None, 0.0, cfg)
    sol = solve_ivp(fun, (0.0, TWO_PI), [0.5, -2.0],
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, events=event)
    assert sol.status == 1
    assert len(guard_t) == 1 and abs(guard_t[0] - sol.t_events[0][0]) <= 1e-10


# -- the generated step loop ------------------------------------------------------

(_, (_A21, *_), (_A31, _A32, *_), (_A41, _A42, _A43, *_),
 (_A51, _A52, _A53, _A54, _), (_A61, _A62, _A63, _A64, _A65)) = RK45.A.tolist()
_B1, _, _B3, _B4, _B5, _B6 = RK45.B.tolist()
_E1, _, _E3, _E4, _E5, _E6, _E7 = RK45.E.tolist()
_, _C2, _C3, _C4, _C5, _ = RK45.C.tolist()


def _dp_step_reference(fun, t, y, f, h, cfg):
    """The list-based Dormand-Prince step the generated loop runs inline: the
    reference for its arithmetic, term by term."""
    k2 = fun(t + _C2 * h, [a + h * (_A21 * p) for a, p in zip(y, f)])
    k3 = fun(t + _C3 * h, [a + h * (_A31 * p + _A32 * q)
                           for a, p, q in zip(y, f, k2)])
    k4 = fun(t + _C4 * h, [a + h * (_A41 * p + _A42 * q + _A43 * r)
                           for a, p, q, r in zip(y, f, k2, k3)])
    k5 = fun(t + _C5 * h, [a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * s)
                           for a, p, q, r, s in zip(y, f, k2, k3, k4)])
    k6 = fun(t + h, [a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * s + _A65 * u)
                     for a, p, q, r, s, u in zip(y, f, k2, k3, k4, k5)])
    y_new = [a + h * (_B1 * p + _B3 * r + _B4 * s + _B5 * u + _B6 * w)
             for a, p, r, s, u, w in zip(y, f, k3, k4, k5, k6)]
    f_new = fun(t + h, y_new)
    sq = 0.0
    for a, b, p, r, s, u, w, z in zip(y, y_new, f, k3, k4, k5, k6, f_new):
        e = ((_E1 * p + _E3 * r + _E4 * s + _E5 * u + _E6 * w + _E7 * z) * h
             / (cfg.abs_tol + max(abs(a), abs(b)) * cfg.rel_tol))
        sq += e * e
    return y_new, f_new, (f, k2, k3, k4, k5, k6, f_new), math.sqrt(sq / len(y))


def _reference_loop(fun, t, y, tb, cfg):
    """The list-based accept/reject loop over one span [t, tb] that the
    generated loop replaces, with min and max for its controller and
    _dp_step_reference for its step: knots, rows (t, h, stages), rejections."""
    from isores.integrate import _initial_step
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, tb - t, cfg)
    ts, ys, rows, n_rejected = [t], [y], [], 0
    while t < tb:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, tb)
            h = t_new - t
            y_new, f_new, stages, err = _dp_step_reference(fun, t, y, f, h, cfg)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err ** -0.2)
            rejected = True
            n_rejected += 1
        ts.append(t_new)
        ys.append(y_new)
        rows.append((t, h, stages))
        t, y, f = t_new, y_new, f_new
    return ts, ys, rows, n_rejected


def _bits(values):
    return [float(v).hex() for v in values]


_coef = st.floats(-3.0, 3.0)


@st.composite
def _span_case(draw, n):
    """A polynomial right-hand side y_i' = a_i t + sum_j b_ij y_j
    + c_i y_i y_{i+1} and a span [t, t + span] from y for it."""
    a = draw(st.lists(_coef, min_size=n, max_size=n))
    b = draw(st.lists(st.lists(_coef, min_size=n, max_size=n), min_size=n, max_size=n))
    c = draw(st.lists(_coef, min_size=n, max_size=n))

    def fun(t, y):
        return tuple(a[i] * t + sum(b[i][j] * y[j] for j in range(n))
                     + c[i] * y[i] * y[(i + 1) % n] for i in range(n))
    t = draw(st.floats(-10.0, 10.0))
    y = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    span = draw(st.floats(1e-6, 0.05))
    cfg = IntegratorConfig(rel_tol=draw(st.sampled_from([1e-10, 1e-6, 1e-3])),
                           abs_tol=draw(st.sampled_from([1e-12, 1e-8, 1e-2])))
    return fun, t, y, span, cfg


@pytest.mark.parametrize("n", [2, 3, 6])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_list_step_bit_for_bit(n, data):
    # the generated loop for a plain function, which it calls at each stage:
    # its steps, rejections and stage rows are those of the list loop with
    # the list step, float for float
    from isores.integrate import _PT, integrate_ode
    fun, t, y, span, cfg = data.draw(_span_case(n))
    raw = integrate_ode(fun, y, t, t + span, cfg)
    ts, ys, rows, n_rejected = _reference_loop(fun, t, y, t + span, cfg)
    assert _bits(raw.ts) == _bits(ts)
    assert _bits(raw.ys.ravel()) == _bits(np.ravel(ys))
    assert _bits(raw.steps.t_old) == _bits([row[0] for row in rows])
    assert _bits(raw.steps.h) == _bits([row[1] for row in rows])
    coef = _PT @ np.array([row[2] for row in rows]).reshape(-1, 7, n)
    assert _bits(raw.steps.coef.ravel()) == _bits(coef.ravel())
    assert (raw.stats["n_steps"], raw.stats["n_rejected"]) == (len(rows), n_rejected)


# -- compiled right-hand sides ------------------------------------------------------

_POTENTIALS = {
    "pinney": iso.pinney(), "harmonic:2": iso.harmonic(2),
    "asymmetric:4:4/9": iso.asymmetric(4.0, 4.0 / 9.0),
    "custom": iso.custom(v=lambda x: 0.5 * np.asarray(x) ** 2 + 0.025 * np.asarray(x) ** 4,
                         dv=lambda x: x + 0.1 * x ** 3, d2v=lambda x: 1.0 + 0.3 * x ** 2)}
_FORCINGS = {"sin": TrigPoly(sin_coeffs=(1.0,)),
             "trig3": TrigPoly(a0=0.3, cos_coeffs=(1.0,), sin_coeffs=(0.0, 0.0, -0.7)),
             "step": PiecewiseConst(breakpoints=(0.0, 2.0), values=(1.0, -1.0))}


def _closure_rhs(pot, f, eps, n):
    """The right-hand side as a closure over V's callbacks and p's terms, in
    the operations and order of the compiled one."""
    clamp = pot.domain_left + 1e-13 if pot.singular_left else None

    def p(t):
        if not isinstance(f, TrigPoly):
            return float(f.eval(t))
        out = f.a0
        for k, a, b in f._terms:
            if a:
                out = out + a * math.cos(k * t)
            if b:
                out = out + b * math.sin(k * t)
        return out

    def rhs(t, y):
        x = y[0] if clamp is None else max(y[0], clamp)
        acc = -float(pot._dv(x))
        if eps != 0.0:
            acc = acc + eps * p(t)
        if n == 2:
            return (y[1], acc)
        a = float(pot._d2v(x))
        if n == 3:
            return (y[1], acc, (1.0 - a) * (y[1] * y[1] - acc * acc)
                    / (y[1] * y[1] + acc * acc) ** 2)
        return (y[1], acc, y[3], -a * y[2], y[5], -a * y[4])
    return rhs


# forced_system's extra lines for each state size: the forced run, the
# Rofe-Beketov integral and the variational pairs
_EXTRA = {2: (), 3: (ROFE_BEKETOV,), 6: VARIATIONAL}


def _record(fun, y0, t0, t1, cfg, options):
    """Everything a solve leaves, as bits: the message of the IntegrationError
    it raised (None if none), its stats, events, knots and dense table."""
    from isores.integrate import integrate_ode
    try:
        raw, message = integrate_ode(fun, y0, t0, t1, cfg, **options), None
    except IntegrationError as exc:
        raw, message = exc.trajectory, str(exc)
    return (message, raw.stats, [(e.kind, float(e.t).hex()) for e in raw.events],
            *(_bits(np.ravel(a)) for a in (raw.ts, raw.ys, *raw.steps)))


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("forcing", list(_FORCINGS))
@pytest.mark.parametrize("potential", list(_POTENTIALS))
def test_compiled_system_matches_closure_and_reference_step(potential, forcing, n, eps):
    # the body, the kink and the guard inline in the loop against the same
    # loop calling the closure and the kink and guard functions, over spans
    # long enough to cross x = 0 and the step's breaks; a span without a
    # restart against the list loop with the list step too
    pot, f = _POTENTIALS[potential], _FORCINGS[forcing]
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    closure = _closure_rhs(pot, f, eps, n)
    rng = np.random.default_rng(7)     # Python floats, as integrate_ode passes
    cases = [(float(rng.uniform(-20.0, 20.0)),
              [*rng.uniform(-0.9, 2.0, 2).tolist(), *rng.uniform(-1, 1, n - 2).tolist()],
              float(rng.uniform(1.0, 4.0))) for _ in range(6)]
    if potential == "pinney":
        # x below -1 + 1e-13: the right-hand side sees V at the clamp, at the
        # start and at the second stage of the step from (-0.99, -5), whose
        # solve ends at the singularity guard
        cases += [(1.0, [-1.0 + 1e-14, 0.3, 1.0, 0.0, 0.0, 1.0][:n], 0.01),
                  (1.0, [-0.99, -5.0, 1.0, 0.0, 0.0, 1.0][:n], 0.01)]
    for t, y, h in cases:
        fun = forced_system(pot, f, eps, cfg, _EXTRA[n])
        options = {"breakpoints": tiled_split_points(f, t, t + h) if eps != 0.0 else ()}
        assert _bits(fun(t, y)) == _bits(closure(t, y))
        got = _record(fun, y, t, t + h, cfg, options)
        assert got == _record(closure, y, t, t + h, cfg,
                              {**options, "kink": fun.kink, "guard": fun.guard})
        message, stats, _, ts, ys, *_ = got
        if message is None and stats["n_segments"] == 1:
            ref_ts, ref_ys, rows, n_rejected = _reference_loop(closure, t, y, t + h, cfg)
            assert (ts, ys) == (_bits(ref_ts), _bits(np.ravel(ref_ys)))
            assert (stats["n_steps"], stats["n_rejected"]) == (len(rows), n_rejected)


def test_systems_differing_in_constants_share_code():
    from isores.integrate import _compiled
    pin, cfg = iso.pinney(), IntegratorConfig()
    one = forced_system(pin, TrigPoly(sin_coeffs=(1.0,)), 0.05, cfg)
    before = _compiled.cache_info()
    two = forced_system(pin, TrigPoly(sin_coeffs=(0.7,)), 0.02, cfg)
    after = _compiled.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert after.maxsize is not None and after.currsize <= after.maxsize
    assert two.__code__ is one.__code__ and two.run.__code__ is one.run.__code__
    # each binds its own constants
    assert one(1.0, [0.5, 0.0])[1] != two(1.0, [0.5, 0.0])[1]


def test_compiled_system_watches_only_its_own_kink_and_guard(cfg):
    # the loop of a compiled system has its kink and guard inline: they come
    # with it as fun.kink and fun.guard, and integrate_ode takes no others
    from isores.integrate import integrate_ode
    asym = iso.asymmetric(4.0, 4.0 / 9.0)
    fun = forced_system(asym, None, 0.0, cfg)
    assert fun.guard is None
    assert fun.kink(0.0, [0.25, -3.0]) == 0.25
    with pytest.raises(ValueError, match="its own kink and guard"):
        integrate_ode(fun, [1.0, 0.0], 0.0, 1.0, cfg,
                      guard=("singularity", lambda t, y: y[0] + 1.0))
    pin_fun = forced_system(iso.pinney(), None, 0.0, cfg)
    kind, g = pin_fun.guard
    assert (kind, g(0.0, [0.25, 0.0])) == ("singularity", 0.25 - (-1.0 + cfg.singularity_margin))
    assert pin_fun.kink is None


def test_tableau_is_scipys():
    # the rationals written out in integrate.py are scipy's RK45 floats
    from isores.integrate import _A, _B, _C, _E, _PT
    for ours, theirs in ((_A, RK45.A), (_B, RK45.B), (_C, RK45.C), (_E, RK45.E),
                         (_PT, RK45.P.T)):
        ours = np.array(ours)
        assert ours.shape == theirs.shape and (ours == theirs).all()


def test_forced_run_end_state_is_pinned(monkeypatch, pin, sin_f, cfg):
    # exact floats of the list-based step: any reordering of the step's
    # arithmetic moves their last digits
    import isores.integrate
    calls = _recorded_calls(monkeypatch, isores.integrate)
    d = iso.resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 20, cfg)
    assert (d.final_state.x, d.final_state.v) == (-0.7549530348777969, 1.0999127446588444)
    assert float(d.window_sup[-1]) == 4.048133755147269
    assert len(calls) == 20
    assert [sum(c[-1].stats[k] for c in calls) for k in _STATS] == [4327, 98, 26590, 20]


def test_periodic_find_state_is_pinned(pin, cfg):
    # the README periodic-find example: 2-component seeding, 6-component Newton
    from isores.dynamics import find_periodic_solution, seed_from_phi_zero
    seed = seed_from_phi_zero(pin, 3.141592653589793, 0.337, cfg)
    assert (seed.x, seed.v) == (-0.5271435109081402, -2.1794994303249438e-11)
    sol = find_periodic_solution(pin, TrigPoly(a0=1.0, cos_coeffs=(2.0,)), 0.01, seed, cfg)
    assert (float(sol.state.x), float(sol.state.v)) == (-0.5114233983715495,
                                                        9.050767249243119e-10)
    assert (sol.residual, sol.iterations) == (9.420128276716946e-13, 3)


def test_rofe_beketov_three_component_solve_is_pinned(pin, cfg):
    from isores.autonomous import dx_dI_rofe_beketov
    assert dx_dI_rofe_beketov(pin, 2.0, [0.5, 2.0], cfg).tolist() == [
        1.3064531952239145, 0.6972044397745695]


@pytest.mark.parametrize("n", [2, 3, 6])
def test_nfev_counts_every_right_hand_side_call(monkeypatch, pin, cfg, n):
    # Pinney forced by a step (restarts at its breaks) with and without its
    # variational pairs, and the Rofe-Beketov system (restarts at the kink)
    from isores.autonomous import _rofe_raw
    from isores.integrate import integrate_ode
    calls = []
    counted = lambda fun: lambda t, y: calls.append(1) or fun(t, y)
    if n == 3:
        monkeypatch.setattr(iso.integrate, "integrate_ode",
                            lambda fun, *a, **k: integrate_ode(counted(fun), *a, kink=fun.kink,
                                                               guard=fun.guard, **k))
        raw = _rofe_raw(iso.asymmetric(4.0, 4.0 / 9.0), 2.0, TWO_PI, cfg)
    else:
        y0 = [0.5, 0.2, 1.0, 0.0, 0.0, 1.0][:n]
        step = PiecewiseConst(breakpoints=(0.0, 2.0), values=(1.0, -1.0))
        fun = forced_system(pin, step, 0.1, cfg, VARIATIONAL[:n - 2])
        raw = integrate_ode(counted(fun), y0, 0.0, 2 * TWO_PI, cfg, kink=fun.kink,
                            guard=fun.guard,
                            breakpoints=tiled_split_points(step, 0.0, 2 * TWO_PI))
    s = raw.stats
    assert s["n_segments"] > 1 and s["n_steps"] > 0
    assert s["nfev"] == len(calls)
    assert s["nfev"] == 2 * s["n_segments"] + 6 * (s["n_steps"] + s["n_rejected"])


def _stopping(rhs):
    """rhs, giving up after 1000 calls: a step loop that does not stop fails
    a test instead of hanging it."""
    calls = []

    def fun(t, y):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("the step loop did not stop")
        return rhs(t, y)
    return fun


@pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (math.nan, 1.0),
                                    (0.0, math.inf), (-math.inf, 0.0)])
def test_non_finite_time_span_is_rejected(t0, t1):
    # a nan end compares False with every time, so the step loop ran to the
    # step budget; a non-finite start made every step nan and rejected, with
    # no budget at all
    from isores.integrate import integrate_ode
    with pytest.raises(ValueError, match="must be finite"):
        integrate_ode(_stopping(lambda t, y: (y[1], -y[0])), [1.0, 0.0], t0, t1,
                      IntegratorConfig(max_steps=50))


@pytest.mark.parametrize("y0", [[1.0, math.nan], [math.inf, 0.0]])
def test_non_finite_start_is_rejected(y0):
    # a nan starting step: h < min_step is never true, every step is
    # rejected, and max_steps counts only accepted steps
    from isores.integrate import integrate_ode
    with pytest.raises(ValueError, match="y0 must be finite"):
        integrate_ode(_stopping(lambda t, y: (y[1], -y[0])), y0, 0.0, 1.0,
                      IntegratorConfig(max_steps=50))


def test_non_finite_right_hand_side_at_the_start_fails():
    from isores.integrate import integrate_ode
    with pytest.raises(IntegrationError, match="no starting step at t = 0.0") as exc:
        integrate_ode(_stopping(lambda t, y: (math.nan, -y[0])), [1.0, 0.0], 0.0, 1.0,
                      IntegratorConfig(max_steps=50))
    assert exc.value.trajectory.stats["n_steps"] == 0


# -- crossing events, found when read ---------------------------------------------

_TOLERANCES = {"default": IntegratorConfig(),
               "loose": IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)}


def _pinned_run(name, cfg):
    pin, asym = iso.pinney(), iso.asymmetric(4.0, 4.0 / 9.0)
    step = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                          period=math.pi)
    if name == "pinney-autonomous":
        return integrate_autonomous(pin, State(2.0, 0.0), 0.0, 3 * TWO_PI, cfg)
    if name == "pinney-sin":
        return integrate_forced(pin, TrigPoly(sin_coeffs=(1.0,)), 0.05,
                                State(1.0, 0.0), 0.0, 3 * TWO_PI, cfg)
    if name == "asymmetric-autonomous":
        return integrate_autonomous(asym, State(1.0, 0.0), 0.0, 2 * TWO_PI, cfg)
    if name == "asymmetric-forced":
        return integrate_forced(asym, TrigPoly(a0=0.2, cos_coeffs=(1.0,)), 0.1,
                                State(1.0, 0.0), 0.0, 3 * TWO_PI, cfg)
    if name == "tangency-start":
        return integrate_autonomous(asym, State(1e-20, -1.0), 0.0, TWO_PI, cfg)
    if name == "pinney-step":
        return integrate_forced(pin, step, 0.05, State(1.0, 0.0), 0.0, 2 * TWO_PI, cfg)
    assert name == "singularity-guard"
    guard_cfg = IntegratorConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                                 singularity_margin=0.3)
    with pytest.raises(IntegrationError) as exc:
        integrate_autonomous(pin, State(0.5, -2.0), 0.0, TWO_PI, guard_cfg)
    return exc.value.trajectory


_PINNED_EVENTS = json.loads(Path(__file__).with_name("pinned_events.json").read_text())


@pytest.mark.parametrize("key", sorted(_PINNED_EVENTS))
def test_events_are_pinned(key):
    # kind and exact time of every event as the step loop found them when it
    # root-found each crossing while stepping: the crossings found on read,
    # each on its own step's interpolant, are the same floats
    name, tol = key.split("/")
    events = _pinned_run(name, _TOLERANCES[tol]).events
    assert [[e.kind, float(e.t).hex()] for e in events] == _PINNED_EVENTS[key]


_STATS = ("n_steps", "n_rejected", "nfev", "n_segments")

# raw.stats (in _STATS order) and the last knot of every _pinned_run case: a
# change to the step loop that moves a step, a rejection or a restart shows
_PINNED_STATS = {
    "pinney-autonomous/default": ([707, 21, 4370, 1],
                                  ["0x1.000000008f666p+1", "-0x1.31299e0000000p-35"]),
    "pinney-autonomous/loose": ([117, 36, 920, 1],
                                ["0x1.0000195899462p+1", "-0x1.9a0654eef0000p-20"]),
    "pinney-sin/default": ([590, 3, 3560, 1],
                           ["0x1.598fd650862fbp-2", "0x1.28ea3e8062247p-6"]),
    "pinney-sin/loose": ([95, 24, 716, 1],
                         ["0x1.598ff5ddccd8ap-2", "0x1.28e5d8d6ef688p-6"]),
    "asymmetric-autonomous/default": ([421, 29, 2710, 5],
                                      ["0x1.00000018bf5d6p+0", "-0x1.e846fa0000000p-35"]),
    "asymmetric-autonomous/loose": ([78, 23, 616, 5],
                                    ["0x1.0000903c7861fp+0", "-0x1.44c0fbb3a0000p-19"]),
    "asymmetric-forced/default": ([626, 62, 4142, 7],
                                  ["0x1.b8a4a624654bfp-1", "0x1.44f7d434add14p+0"]),
    "asymmetric-forced/loose": ([114, 35, 908, 7],
                                ["0x1.b8a9b4e55e225p-1", "0x1.44f8be07de7e0p+0"]),
    "tangency-start/default": ([208, 7, 1298, 4],
                               ["-0x1.40b31ffc69d67p-38", "-0x1.fffffffa46170p-1"]),
    "tangency-start/loose": ([39, 12, 314, 4],
                             ["-0x1.47da32327340fp-22", "-0x1.ffff7edeec296p-1"]),
    "pinney-step/default": ([682, 159, 5062, 8],
                            ["0x1.58db927e7623ap-2", "0x1.485350f2f598dp-1"]),
    "pinney-step/loose": ([152, 58, 1276, 8],
                          ["0x1.58da7dab61e77p-2", "0x1.4852c6db19f50p-1"]),
    "singularity-guard/default": ([52, 4, 338, 1],
                                  ["-0x1.6666666666666p-1", "-0x1.5e62f894d6b2ap+0"]),
    "singularity-guard/loose": ([10, 8, 110, 1],
                                ["-0x1.6666666666666p-1", "-0x1.5e6319ac05635p+0"]),
}


@pytest.mark.parametrize("key", sorted(_PINNED_STATS))
def test_stats_and_last_knot_are_pinned(key):
    name, tol = key.split("/")
    raw = _pinned_run(name, _TOLERANCES[tol])
    assert ([raw.stats[k] for k in _STATS], _bits(raw.ys[-1])) == _PINNED_STATS[key]


@pytest.mark.parametrize("s0, pinned", [
    ((1.0, 0.0), ([229, 68, 1786, 2], ["0x1.ffffffffada73p+0", "-0x1.b9d0e8be9f921p-35"])),
    ((1.0, 1.0), ([254, 47, 1810, 2], ["0x1.94c583aca3f19p+0", "0x1.43d1361cc8e95p-1"]))])
def test_call_form_stats_and_last_knot_are_pinned(monkeypatch, cfg, s0, pinned):
    # a plain-function right-hand side with a callable guard and a break
    import isores.acw
    calls = _recorded_calls(monkeypatch, isores.acw)
    isores.acw.acw_numeric_check(4.0, isores.acw.AcwState(*s0), cfg)
    (*_, raw), = calls
    assert ([raw.stats[k] for k in _STATS], _bits(raw.ys[-1])) == pinned


def test_crossings_are_root_found_only_when_read(monkeypatch):
    import isores.integrate
    calls = []
    real = isores.integrate.brentq
    monkeypatch.setattr(isores.integrate, "brentq",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    traj = integrate_autonomous(iso.pinney(), State(2.0, 0.0), 0.0, 3 * TWO_PI,
                                IntegratorConfig())
    assert calls == []
    crossings = traj.events_of("v_zero") + traj.events_of("x_zero")
    # one root search per crossing inside a step; the one at t = 0 is a knot
    assert len(calls) == len(crossings) - 1 == 12
    traj.events_of("v_zero")
    assert len(calls) == 12                      # found once, then cached


def test_knot_zeros_count_once_and_rest_points_cross_nothing():
    from isores.integrate import Event, RawSolution, StepTable
    rest = integrate_autonomous(iso.pinney(), State(0.0, 0.0), 0.0, TWO_PI,
                                IntegratorConfig())
    assert rest.events == []
    # x lands on 0 exactly at the middle knot, then leaves it; v never crosses
    ts, ys = np.array([0.0, 1.0, 2.0]), np.array([[1.0, -1.0], [0.0, -1.0], [-1.0, -1.0]])
    steps = StepTable(ts[:2], np.ones(2), ys[:2], np.zeros((2, 4, 2)))
    raw = RawSolution(ts, ys, steps, [], {})
    assert raw.events == [Event("x_zero", 1.0)]
