import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp

import isores as iso
from isores.errors import ConfigError, IntegrationError
from isores.forcing import ForcingTerm, PiecewiseConst, Sampled, TrigPoly, TWO_PI, partition
from isores.integrate import (VARIATIONAL, IntegratorConfig, State, energy,
                              forced_system, integrate_ode, solve_forced)
from isores.autonomous import ROFE_BEKETOV
from isores.potentials import pinney_phi_closed


def test_harmonic_closed_orbit(har, cfg):
    traj = solve_forced(har, None, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg)
    end = traj.end_state()
    assert abs(end.x - 1.0) + abs(end.v) < 1e-9


def test_pinney_half_and_full_period(pin, cfg):
    half = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, math.pi, cfg).end_state()
    assert abs(half.x + 0.5) + abs(half.v) < 1e-8
    full = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg).end_state()
    assert abs(full.x - 1.0) + abs(full.v) < 1e-8


def test_knots_match_interpolation(pin, cfg):
    traj = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg)
    ts = traj.ts
    assert np.all(np.diff(ts) > 0)
    x, v = traj.eval(ts)
    assert np.allclose(x, traj.ys[:, 0], rtol=0, atol=1e-12)
    assert np.allclose(v, traj.ys[:, 1], rtol=0, atol=1e-12)


def test_eps_zero_reduces_to_autonomous(pin, cfg):
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                       period=math.pi)
    auto = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg)
    forced = solve_forced(pin, f, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg)
    assert np.array_equal(auto.ts, forced.ts)
    assert np.array_equal(auto.ys, forced.ys)


def test_no_forcing_with_nonzero_eps_is_autonomous(pin, cfg):
    # f = None is unforced whatever eps is: no breaks to tile
    auto = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, 1.0, cfg)
    forced = solve_forced(pin, None, 0.1, [1.0, 0.0], 0.0, 1.0, cfg)
    assert np.array_equal(auto.ts, forced.ts)
    assert np.array_equal(auto.ys, forced.ys)
    assert auto.stats == forced.stats


_WRAPPED = {"autonomous": (None, 0.0),
            "forced-trig": (TrigPoly(a0=0.2, cos_coeffs=(1.0,)), 0.1),
            "forced-step": (PiecewiseConst(breakpoints=(0.0, math.pi / 2),
                                           values=(1.0, 4.0), period=math.pi), 0.05),
            "stroboscopic": (TrigPoly(sin_coeffs=(1.0,)), 0.05)}


@pytest.mark.parametrize("name", list(_WRAPPED))
def test_kept_wrappers_are_solve_forced_bit_for_bit(pin, cfg, name):
    # integrate_autonomous, integrate_forced and stroboscopic_map are names
    # only: the same knots, steps, dense rows, stats and end state.  They
    # stay defined because perfbench/tracing.py wraps them by name, but
    # isores does not export them, and no other test names them
    from isores.dynamics import stroboscopic_map
    from isores.integrate import integrate_autonomous, integrate_forced
    assert not {"integrate_autonomous", "integrate_forced", "stroboscopic_map"} & set(vars(iso))
    f, eps = _WRAPPED[name]
    s0 = State(1.0, 0.0)
    ref = solve_forced(pin, f, eps, [s0.x, s0.v], 0.0, TWO_PI, cfg)
    if name == "stroboscopic":
        assert stroboscopic_map(pin, f, eps, s0, cfg) == ref.end_state()
        return
    raw = (integrate_autonomous(pin, s0, 0.0, TWO_PI, cfg) if f is None
           else integrate_forced(pin, f, eps, s0, 0.0, TWO_PI, cfg))
    for part in ("ts", "ys", "h", "coef"):
        assert np.array_equal(getattr(raw, part), getattr(ref, part))
    assert raw.stats == ref.stats and raw.end_state() == ref.end_state()


def test_kept_wrappers_are_named_nowhere_else():
    # the wrappers are the module-level functions of src/ kept for the tracer;
    # src/ and tests/, comments included, name them only in their own def
    # lines and in the body of the test that pins them to solve_forced
    root = Path(__file__).resolve().parents[1]
    files = [path for top in ("src", "tests") for path in sorted((root / top).rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts]
    allowed, wrappers = set(), []
    for path in files:
        if path.suffix != ".py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if "perfbench/tracing.py wraps it by name" in (ast.get_docstring(node) or ""):
                wrappers.append(node.name)
                allowed.add((path, node.lineno))
            if node.name == "test_kept_wrappers_are_solve_forced_bit_for_bit":
                allowed.update((path, n) for n in range(node.lineno + 1, node.end_lineno + 1))
    assert len(wrappers) == 3, wrappers
    word = re.compile(r"\b(%s)\b" % "|".join(wrappers))
    named = [f"{path.relative_to(root)}:{n}: {line.strip()}" for path in files
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if word.search(line) and (path, n) not in allowed]
    assert not named, named


def test_no_source_module_imports_dataclasses():
    # dataclasses wrote and compiled 102 methods for the package's 19
    # records at every import, 11-20 ms of each command's start; the records
    # are isores._record's, whose methods are closures
    src = Path(__file__).resolve().parents[1] / "src" / "isores"
    imports = re.compile(r"^\s*(import|from)\s+dataclasses\b")
    named = [f"{path.name}:{n}: {line.strip()}" for path in sorted(src.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if imports.match(line)]
    assert len(list(src.glob("*.py"))) >= 12
    assert not named, named


def test_the_package_exports_the_solve_it_runs():
    import isores.integrate
    assert iso.solve_forced is isores.integrate.solve_forced


@pytest.mark.parametrize("tangent", [False, True])
def test_an_overflow_inside_a_step_is_an_integration_error(cfg, tangent):
    # a custom V' whose float exp overflows past x = 0.888: the first
    # right-hand side at x = 0 is fine, a stage of a later step is not.  The
    # error keeps the steps taken before it, each with its knot
    def dv(x):
        return x + 0.0 * math.exp(800.0 * x)
    pot = iso.custom(v=lambda x: 0.5 * np.asarray(x) ** 2, dv=dv, d2v=lambda x: 1.0 + 0.0 * x)
    with pytest.raises(IntegrationError, match=r"^integration failed: a step from t = .* "
                                               r"\(math range error\)$") as exc:
        solve_forced(pot, None, 0.0, [0.0, 1.0], 0.0, TWO_PI, cfg, tangent=tangent)
    raw = exc.value.trajectory
    assert raw.h.size == raw.ts.size - 1 == raw.stats["n_steps"] > 0
    assert 0.8 < raw.ys[-1, 0] < 0.888 and raw.ts[-1] < math.pi / 2


def test_an_overflow_inside_the_tangent_pass_is_an_integration_error(cfg):
    # V'' is read only by the pass over a tangent solve's stages: a custom
    # V'' whose float exp overflows past x = 0.888 leaves the solve whole
    # and stops its variations with the error a step would raise
    pot = iso.custom(v=lambda x: 0.5 * np.asarray(x) ** 2, dv=lambda x: x,
                     d2v=lambda x: 1.0 + 0.0 * math.exp(800.0 * x))
    raw = solve_forced(pot, None, 0.0, [0.0, 1.0], 0.0, TWO_PI, cfg, tangent=True)
    assert raw.ts[-1] == TWO_PI and np.max(raw.ys[:, 0]) > 0.888
    with pytest.raises(IntegrationError, match=r"^integration failed: a variation "
                                               r"\(math range error\)$"):
        raw.variations()


_ROWLESS = "a sampled solve keeps no dense output inside a step that holds none of its samples"


@pytest.mark.parametrize("read", ["eval", "state", "events", "windowed"])
def test_a_tangent_solve_has_no_dense_output(pin, sin_f, cfg, read):
    # Newton's tangent solve is sampled with no samples: on Pinney, which
    # has no kink, it keeps its knots only, and a dense read says so
    # instead of reading an empty table.  A windowed solve (a resonance_run
    # window's) keeps the rows of the steps its samples fall in, and eval
    # says so inside any other step
    if read == "windowed":
        system = forced_system(pin, sin_f, 0.05, cfg, samples=512)
        raw = integrate_ode(system, [0.0, 16.0], 0.0, TWO_PI, cfg)
        k = int(np.argmin(raw.rows))
        assert raw.rows[k] == -1 and raw.coef.shape[0] < raw.stats["n_steps"]
        with pytest.raises(ValueError, match=_ROWLESS):
            raw.eval([0.0, float(raw.ts[k] + 0.5 * raw.h[k])])
        return
    raw = solve_forced(pin, sin_f, 0.05, [0.5, 0.2], 0.0, TWO_PI, cfg, tangent=True)
    assert raw.stats["n_steps"] > 0
    assert raw.end_state() == State(*raw.ys[-1].tolist())
    with pytest.raises(ValueError, match=_ROWLESS):
        {"eval": lambda: raw.eval(1.0), "state": lambda: raw.state(1.0),
         "events": lambda: raw.events}[read]()


def _kink_tangent_solve(cfg):
    """Newton's tangent solve on asymmetric(4, 4/9) over a period, whose
    steps that end at the kink x = 0 keep their rows, and the 2-component
    solve from the same start."""
    asym, f = iso.asymmetric(4.0, 4.0 / 9.0), TrigPoly(sin_coeffs=(1.0,))
    raw = solve_forced(asym, f, 0.05, [0.5, 0.2], 0.0, TWO_PI, cfg, tangent=True)
    return raw, solve_forced(asym, f, 0.05, [0.5, 0.2], 0.0, TWO_PI, cfg)


def test_a_tangent_solve_reads_inside_a_step_that_ends_at_the_kink(cfg):
    # the root-find of a kink crossing reads the step's rows, so they are
    # kept: they are the 2-component solve's, and eval inside that step
    # gives its floats
    raw, two = _kink_tangent_solve(cfg)
    kept = np.flatnonzero(raw.rows >= 0)
    assert kept.size and raw.coef.shape[0] == kept.size < raw.stats["n_steps"]
    assert np.array_equal(raw.ts, two.ts) and np.array_equal(raw.coef, two.coef[kept])
    assert np.all(np.abs(raw.ys[kept + 1, 0]) < 1e-12)     # each ends at x = 0
    t = raw.ts[kept] + 0.37 * (raw.ts[kept + 1] - raw.ts[kept])   # h runs past the root
    assert _bits(np.ravel(raw.eval(t))) == _bits(np.ravel(two.eval(t)))


@pytest.mark.parametrize("read", ["eval", "state", "events"])
def test_a_tangent_solve_with_kink_rows_still_refuses_a_rowless_step(cfg, read):
    # the same solve has no rows in the steps that end elsewhere: a read
    # there, or the v = 0 root-find, raises the one message
    raw, _ = _kink_tangent_solve(cfg)
    k = int(np.argmin(raw.rows))
    assert raw.rows[k] == -1
    t = float(raw.ts[k] + 0.5 * raw.h[k])
    with pytest.raises(ValueError, match=_ROWLESS):
        {"eval": lambda: raw.eval(t), "state": lambda: raw.state(t),
         "events": lambda: raw.events}[read]()


def test_a_window_reads_no_events_where_a_sign_change_holds_no_sample(pin, sin_f, cfg):
    # a Pinney window from (0, 16) spends most of its steps at the bounce,
    # between two samples: the v = 0 crossing there has no rows to
    # root-find on, since no reader of a window reads its events
    system = forced_system(pin, sin_f, 0.05, cfg, samples=512)
    raw = integrate_ode(system, [0.0, 16.0], 0.0, TWO_PI, cfg)
    assert 2 * raw.coef.shape[0] < raw.stats["n_steps"]
    with pytest.raises(ValueError, match=_ROWLESS):
        raw.events


def test_a_windowed_solve_keeps_the_row_of_its_last_sample(pin, sin_f, cfg):
    # on [1.4, 5.7] with 2 samples the last sample is the window's end, 5.7,
    # as np.linspace gives it (its step times 1, plus 1.4, would round past
    # it): the step that ends the window keeps its row for it, though it
    # holds no other sample
    assert (5.7 - 1.4) + 1.4 > 5.7
    raw = integrate_ode(forced_system(pin, sin_f, 0.05, cfg, samples=2), [1.0, 0.0],
                        1.4, 5.7, cfg)
    plain = solve_forced(pin, sin_f, 0.05, [1.0, 0.0], 1.4, 5.7, cfg)
    assert raw.rows[0] == 0 and raw.rows[-1] > 0 and raw.coef.shape[0] < raw.stats["n_steps"]
    assert np.array_equal(raw.eval(np.linspace(1.4, 5.7, 2)),
                          plain.eval(np.linspace(1.4, 5.7, 2)))


def test_forced_harmonic_variation_of_constants(har, cfg):
    # oracle: x(t) = -(eps/2) t cos t + (eps/2) sin t for x'' + x = eps sin t
    eps = 0.1
    f = TrigPoly(sin_coeffs=(1.0,))
    traj = solve_forced(har, f, eps, [0.0, 0.0], 0.0, TWO_PI, cfg)
    end = traj.end_state()
    assert end.x == pytest.approx(-eps * math.pi, abs=1e-7)
    ts = np.linspace(0, TWO_PI, 101)
    x, v = traj.eval(ts)
    oracle = -(eps / 2) * ts * np.cos(ts) + (eps / 2) * np.sin(ts)
    assert np.max(np.abs(x - oracle)) < 1e-8


def test_forcing_breakpoints_are_split_events(pin, cfg):
    f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                       period=math.pi)
    traj = solve_forced(pin, f, 0.05, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg)
    breaks = sorted(e.t for e in traj.events_of("forcing_break"))
    expected = [k * math.pi / 2 for k in range(1, 8)]
    assert np.allclose(breaks, expected, rtol=0, atol=1e-12)
    # splits are exact knots
    for b in expected:
        assert np.min(np.abs(traj.ts - b)) < 1e-12


def test_sampled_forcing_splits_at_kinks(pin, cfg):
    f = iso.Sampled(values=(0.0, 1.0, 0.5, -1.0))
    traj = solve_forced(pin, f, 0.05, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg)
    breaks = sorted(e.t for e in traj.events_of("forcing_break"))
    expected = [k * math.pi / 2 for k in range(1, 8)]
    assert np.allclose(breaks, expected, rtol=0, atol=1e-12)


def test_a_repeated_split_point_restarts_once(har, cfg):
    # [0.0, 1.0, 1.0] gave the solve a zero-length span at t = 1.0, where it
    # failed: "no starting step at t = 1.0 (float division by zero)"
    class Step(ForcingTerm):
        def __init__(self, points):
            self.points = points

        def eval(self, t):
            return np.where(np.mod(t, TWO_PI) < 1.0, 1.0, -0.5)

        def split_points(self):
            return np.array(self.points)

    once, twice = (solve_forced(har, Step(points), 0.1, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg)
                   for points in ([0.0, 1.0], [0.0, 1.0, 1.0]))
    assert np.array_equal(twice.ts, once.ts) and np.array_equal(twice.ys, once.ys)
    assert twice.events == once.events and len(once.events_of("forcing_break")) == 3
    assert twice.end_state() == once.end_state()


def test_energy_values(pin, har, cfg):
    assert energy(har, State(1.0, 0.0)) == pytest.approx(0.5)
    assert energy(pin, State(1.0, 0.0)) == pytest.approx(9.0 / 32.0)
    assert energy(pin, State(0.0, 0.0)) == 0.0


def test_energy_drift_100_periods(pin, cfg):
    traj = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, 100 * TWO_PI, cfg)
    ts = np.linspace(0.0, 100 * TWO_PI, 20001)
    x, v = traj.eval(ts)
    e = 0.5 * v ** 2 + pin.v(x)
    e0 = energy(pin, State(1.0, 0.0))
    assert np.max(np.abs(e - e0)) / e0 <= 1e-8


def test_forced_energy_envelope_runtime_check(pin, sin_f, cfg, abs_integral):
    eps = 0.05
    traj = solve_forced(pin, sin_f, eps, [1.0, 0.0], 0.0, 10 * TWO_PI, cfg)
    e0 = energy(pin, State(1.0, 0.0))
    for t in np.linspace(0.5, 10 * TWO_PI, 25):
        e = energy(pin, traj.state(t))
        budget = abs(eps) / math.sqrt(2.0) * abs_integral(sin_f, t)
        assert abs(math.sqrt(e) - math.sqrt(e0)) <= budget + 1e-6


def test_v_zero_events_have_zero_velocity(pin, cfg):
    traj = solve_forced(pin, None, 0.0, [2.0, 0.0], 0.0, 3 * TWO_PI, cfg)
    evs = traj.events_of("v_zero")
    assert len(evs) >= 6
    for ev in evs:
        _, v = traj.eval(ev.t)
        assert abs(v) <= 1e-10


def test_x_zero_events_recorded(pin, cfg):
    traj = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg)
    evs = traj.events_of("x_zero")
    assert len(evs) == 2
    for ev in evs:
        x, _ = traj.eval(ev.t)
        assert abs(x) <= 1e-10


def test_dense_output_midpoint_accuracy(pin, cfg):
    # midpoints of accepted steps vs the exact closed-form orbit
    traj = solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg)
    ts = traj.ts
    mids = 0.5 * (ts[:-1] + ts[1:])
    x, v = traj.eval(mids)
    xc, vc = pinney_phi_closed(1.0, mids)
    err = np.max(np.abs(x - xc) + np.abs(v - vc))
    assert err <= 10 * cfg.rel_tol


def test_singularity_guard_carries_partial(pin):
    cfg = IntegratorConfig(singularity_margin=0.3)
    with pytest.raises(IntegrationError) as exc:
        solve_forced(pin, None, 0.0, [0.5, -2.0], 0.0, TWO_PI, cfg)
    partial = exc.value.trajectory
    assert partial is not None
    assert partial.ts[-1] < TWO_PI
    assert any(e.kind == "singularity" for e in partial.events)
    # the state stopped right at the guard line
    assert partial.ys[-1, 0] == pytest.approx(-1.0 + 0.3, abs=1e-9)


def test_max_steps_exceeded(pin):
    cfg = IntegratorConfig(max_steps=10)
    with pytest.raises(IntegrationError) as exc:
        solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, 100 * TWO_PI, cfg)
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


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True, 0])
def test_config_requires_an_integer_step_budget(value):
    # n_steps > nan is never true: a nan or inf budget never stopped a solve
    with pytest.raises(ConfigError, match=r"integrator.max_steps: must be an integer >= 1"):
        IntegratorConfig(max_steps=value)


def test_config_accepts_a_numpy_integer_step_budget(pin):
    cfg = IntegratorConfig(max_steps=np.int64(10))
    with pytest.raises(IntegrationError, match=r"step budget exceeded \(11 > 10\)"):
        solve_forced(pin, None, 0.0, [1.0, 0.0], 0.0, 100 * TWO_PI, cfg)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_forced_system_rejects_non_finite_eps(pin, sin_f, cfg, eps):
    with pytest.raises(ConfigError, match="eps"):
        forced_system(pin, sin_f, eps, cfg)


def test_asymmetric_kink_handling(cfg):
    # alpha=4, beta=4/9: piecewise closed form, period 2*pi
    pot = iso.asymmetric(4.0, 4.0 / 9.0)
    traj = solve_forced(pot, None, 0.0, [1.0, 0.0], 0.0, TWO_PI, cfg)
    end = traj.end_state()
    assert abs(end.x - 1.0) + abs(end.v) < 1e-8
    x_pi, _ = traj.eval(math.pi)
    assert x_pi == pytest.approx(-3.0, abs=1e-8)
    crossings = sorted(e.t for e in traj.events_of("x_zero"))
    assert np.allclose(crossings, [math.pi / 4, math.pi / 4 + 3 * math.pi / 2],
                       rtol=0, atol=1e-9)
    # crossings are exact knots (steps never straddle the kink)
    for c in crossings:
        assert np.min(np.abs(traj.ts - c)) < 1e-9


# |x(N T) - r| + |v(N T)| after N = 200 unforced periods T = 2 pi / n_iso
# from (r, 0), as the Dormand-Prince 5(4) loop that DOP853 replaced left it
# at its default rel_tol 1e-10 and abs_tol 1e-12 (measured once with this
# package's loop): the floor that the default config must not fall below
_DP5_RETURN_DEFECTS = {
    ("pinney", 0.5): 9.103130462970177e-09,
    ("pinney", 1.0): 9.647111637745703e-09,
    ("pinney", 10.0): 4.965732401801537e-07,
    ("harmonic:1", 1.0): 1.61067373470776e-08,
    ("harmonic:3", 1.0): 1.7774927175973065e-08,
    ("asymmetric:4:4/9", 1.0): 1.7850962916524105e-07,
}


@pytest.mark.parametrize("potential, r", sorted(_DP5_RETURN_DEFECTS))
def test_return_defect_is_no_worse_than_dormand_prince(potential, r):
    pot = {"pinney": iso.pinney(), "harmonic:1": iso.harmonic(1),
           "harmonic:3": iso.harmonic(3),
           "asymmetric:4:4/9": iso.asymmetric(4.0, 4.0 / 9.0)}[potential]
    end = solve_forced(pot, None, 0.0, [r, 0.0], 0.0, 200 * TWO_PI / pot.n_iso,
                       IntegratorConfig()).end_state()
    assert abs(end.x - r) + abs(end.v) <= _DP5_RETURN_DEFECTS[potential, r]


def test_kink_crossed_at_the_start_ends_where_a_start_on_it_does(cfg):
    # x starts a hair above the kink and moving down: the crossing comes at
    # once and restarts the step, watching the crossing back; from x = 0 the
    # loop watches for leaving the side x first moves to
    pot = iso.asymmetric(4.0, 4.0 / 9.0)
    off = solve_forced(pot, None, 0.0, [1e-20, -1.0], 0.0, TWO_PI, cfg)
    at = solve_forced(pot, None, 0.0, [0.0, -1.0], 0.0, TWO_PI, cfg)
    end, ref = off.end_state(), at.end_state()
    assert abs(end.x - ref.x) + abs(end.v - ref.v) < 1e-9


def test_rest_point_on_the_kink_stays_at_rest():
    # x = 0 never leaves the kink, so no side is ever chosen and no crossing
    # restarts the step
    raw = solve_forced(iso.asymmetric(4.0, 4.0 / 9.0), None, 0.0, [0.0, 0.0], 0.0, 1.0,
                       IntegratorConfig(max_steps=20000))
    assert raw.end_state() == State(0.0, 0.0)
    assert raw.stats["n_steps"] <= 10 and raw.stats["n_segments"] == 1


def test_restart_at_a_kink_root_keeps_python_floats(cfg):
    # a numpy-float root tolerance made brentq return the kink root as
    # np.float64, which spread to the restarted state and k1 and made every
    # later step run numpy-scalar arithmetic, about 3x slower per attempt
    fun = forced_system(iso.asymmetric(4.0, 4.0 / 9.0), None, 0.0, cfg)
    received, run = [], fun.run

    def spy(t, *args):
        received.append((t, *args[:4]))        # t, x, v, k1_0, k1_1
        return run(t, *args)
    fun.run = spy
    raw = integrate_ode(fun, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg)
    assert raw.stats["n_segments"] >= 4         # two kink roots a period
    assert all(type(value) is float for call in received for value in call)
    assert raw.events_of("x_zero")
    assert all(type(e.t) is float for e in raw.events)


def test_a_numpy_bound_steps_in_python_floats(pin, cfg):
    # a np.float64 t1 (a window's last sample time) reached run as tb, and
    # what it touched ran numpy-scalar arithmetic (with a step p, the span's
    # piece read at tm, so every stage): 200 windows of a 3-component Pinney
    # system with a 2-piece step took 0.89-0.98 s against 0.38 s, same bits
    fun = forced_system(pin, PiecewiseConst((0.4, 1.9), (1.0, -2.0)), 0.05, cfg,
                        (ROFE_BEKETOV,))
    bounds, run = [], fun.run

    def spy(ta, *args):
        bounds.append(args[2 * 3 + 1])     # run(ta, *y, *f, h, tb, ...) over 3 components
        return run(ta, *args)
    fun.run = spy
    raws = [integrate_ode(fun, [1.0, 0.0, 0.0], t0, t1, cfg)
            for t0, t1 in ((0.0, TWO_PI), (np.float64(0.0), np.float64(TWO_PI)))]
    assert bounds and all(type(tb) is float for tb in bounds)
    for read in ("ts", "ys", "h", "coef"):
        a, b = (getattr(raw, read) for raw in raws)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- the step loop against scipy's DOP853 ------------------------------------------

def _recorded_calls(monkeypatch, module):
    """Record the arguments and the result of every integrate_ode call made
    through ``module``."""
    calls = []
    real = module.integrate_ode

    def recording(fun, y0, t0, t1, cfg):
        raw = real(fun, y0, t0, t1, cfg)
        calls.append((fun, y0, t0, raw))
        return raw
    monkeypatch.setattr(module, "integrate_ode", recording)
    return calls


def _scipy_chain(fun, y0, t0, t1, cfg, breaks, kink):
    """Reference: one solve_ivp run per span between forcing breaks,
    restarted at every kink crossing with the kink armed the other way."""
    sols, y = [], np.asarray(y0, dtype=float)
    stops = [t0, *breaks, t1]
    for ta, tb in zip(stops[:-1], stops[1:]):
        direction = None if kink is None else (-1.0 if kink(ta, y) > 0 else 1.0)
        at = lambda t, y, tm=0.5 * (ta + tb): fun(t, y, tm)     # a step's piece
        while True:
            events = None
            if kink is not None:
                events = lambda t, y: kink(t, y)
                events.terminal, events.direction = True, direction
            sol = solve_ivp(at, (ta, tb), y, method="DOP853", rtol=cfg.rel_tol,
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


@pytest.mark.parametrize("case", ["pinney-forced", "asymmetric-kinks",
                                  "pinney-breaks", "variational", "tangency-start"])
def test_dense_table_matches_segment_loop(case, monkeypatch):
    """Every step, rejection, knot and kink root of the list chain
    (_list_chain), float for float, and the dense values of scipy's DOP853
    over the same restarts.  Two summation orders round the error estimate
    differently, and where it is small its last digits set h, so knots
    agree with scipy's to a few 1e-7 (1 + |t|), not to rounding.  Where it
    is rounding-bound, scaling scipy's right-hand side by 1 + k 1e-16, |k|
    <= 6, moves scipy's own knots by up to 2e-5 (1 + |t|) on the short spans
    between breaks (pinney-breaks), its step count over 140..142 after the
    kink restarts near x = 0 (asymmetric-kinks) and over 74..90 on the 6-dim
    run (variational), and its kink times by 6e-12 (asymmetric-kinks).
    Those are compared with the list chain only (the 6-dim count with
    scipy's within 10 %); every other count, knot and kink is compared with
    scipy's as well.  The dense values agree with scipy's within 1e-10, and
    within 1e-9 for the 6-dim run."""
    import isores.integrate
    from isores.autonomous import psi_solution
    cfg = IntegratorConfig()
    calls = _recorded_calls(monkeypatch, isores.integrate)
    t1 = 3 * TWO_PI
    if case == "pinney-forced":
        solve_forced(iso.pinney(), TrigPoly(sin_coeffs=(1.0,)), 0.05, [1.0, 0.0], 0.0, t1,
                     cfg)
    elif case == "asymmetric-kinks":
        solve_forced(iso.asymmetric(4.0, 4.0 / 9.0), TrigPoly(a0=0.2, cos_coeffs=(1.0,)),
                     0.1, [1.0, 0.0], 0.0, t1, cfg)
    elif case == "pinney-breaks":
        f = PiecewiseConst(breakpoints=(0.0, math.pi / 2), values=(1.0, 4.0),
                           period=math.pi)
        solve_forced(iso.pinney(), f, 0.05, [1.0, 0.0], 0.0, t1, cfg)
    elif case == "tangency-start":
        # a kink crossed at once, then once more (the third crossing falls
        # at t1 itself): 3 runs
        t1 = TWO_PI
        solve_forced(iso.asymmetric(4.0, 4.0 / 9.0), None, 0.0, [1e-20, -1.0], 0.0, t1, cfg)
    else:
        t1 = TWO_PI
        psi_solution(iso.asymmetric(4.0, 4.0 / 9.0), 1.0, cfg)
    (fun, y0, t0, raw), = calls
    breaks = [e.t for e in raw.events if e.kind == "forcing_break"]
    kinks = [e.t for e in raw.events
             if e.kind == "x_zero" and fun.kink is not None]
    ts, n_steps = raw.ts, raw.stats["n_steps"]
    # the list chain, to the bit
    ref_ts, ref_ys, ref_kinks, counts = _list_chain(fun, y0, t0, t1, cfg, breaks, fun.kink)
    assert (n_steps, raw.stats["n_rejected"], raw.stats["n_segments"]) == counts
    assert _bits(ts) == _bits(ref_ts)
    assert _bits(raw.ys.ravel()) == _bits(np.ravel(ref_ys))
    assert _bits(kinks) == _bits(ref_kinks)
    # scipy's chain
    sols = _scipy_chain(fun, y0, t0, t1, cfg, breaks, fun.kink)
    n_ref = sum(len(sol.t) - 1 for sol in sols)
    assert raw.stats["n_segments"] == len(sols)
    if case != "pinney-forced":
        assert len(sols) > 1          # kink restarts or forcing breaks
    if case == "variational":
        assert abs(n_steps - n_ref) <= 0.1 * n_ref
    elif case != "asymmetric-kinks":
        assert n_steps == n_ref
    if case in ("pinney-forced", "tangency-start"):
        ref_ts = np.concatenate([[t0]] + [sol.t[1:] for sol in sols])
        assert np.all(np.abs(ts - ref_ts) <= 1e-6 * (1.0 + np.abs(ref_ts)))
    if case != "asymmetric-kinks":
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
    # 2 calls per restart (f0 and the starting-step probe), 11 per attempted
    # step and 4 more per accepted one (f_new and its dense output)
    stats = raw.stats
    assert stats["nfev"] == (2 * stats["n_segments"] + 15 * stats["n_steps"]
                             + 11 * stats["n_rejected"])


def test_guard_time_matches_scipy_terminal_event(pin):
    from isores.integrate import forced_system
    cfg = IntegratorConfig(singularity_margin=0.3)
    with pytest.raises(IntegrationError) as exc:
        solve_forced(pin, None, 0.0, [0.5, -2.0], 0.0, TWO_PI, cfg)
    guard_t = [e.t for e in exc.value.trajectory.events if e.kind == "singularity"]
    event = lambda t, y: y[0] - (-1.0 + 0.3)
    event.terminal, event.direction = True, -1.0
    fun = forced_system(pin, None, 0.0, cfg)
    sol = solve_ivp(fun, (0.0, TWO_PI), [0.5, -2.0], method="DOP853",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, events=event)
    assert sol.status == 1
    assert len(guard_t) == 1 and abs(guard_t[0] - sol.t_events[0][0]) <= 1e-10


# -- the generated step loop ------------------------------------------------------

def _nonzero(row):
    return [(j, c) for j, c in enumerate(np.asarray(row).tolist()) if c]


# scipy's DOP853 tableau, each row as its nonzero (stage, coefficient) pairs:
# the 12 stages (k1 first) and the 3 stages of the dense output, (node, row)
_STAGES = [(c, _nonzero(a)) for c, a in zip(DOP853.C.tolist(), DOP853.A)]
_DENSE_STAGES = [(c, _nonzero(a)) for c, a in zip(DOP853.C_EXTRA.tolist(), DOP853.A_EXTRA)]
_WEIGHTS, _ERR5, _ERR3 = _nonzero(DOP853.B), _nonzero(DOP853.E5), _nonzero(DOP853.E3)


def _combo(pairs, ks, i):
    """sum c * ks[j][i] over the pairs, left to right from the first term."""
    terms = [c * ks[j][i] for j, c in pairs]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def _stage(fun, t, y, h, ks, node, pairs):
    return fun(t + node * h, [a + h * _combo(pairs, ks, i) for i, a in enumerate(y)])


def _dop853_step_reference(fun, t, y, f, h, cfg, norm):
    """The list-based DOP853 step the generated loop runs inline: the
    reference for its arithmetic, term by term.  Returns y_new, the 13
    stage rows (f_new last) and scipy's error norm over the first norm
    components, 0 where its denominator is 0 (scipy's 0/0 there, when 0.01
    |e3|^2 underflows, is nan)."""
    ks = [f]
    for node, pairs in _STAGES[1:]:
        ks.append(_stage(fun, t, y, h, ks, node, pairs))
    y_new = [a + h * _combo(_WEIGHTS, ks, i) for i, a in enumerate(y)]
    ks.append(fun(t + h, y_new))
    sq5 = sq3 = 0.0
    for i, (a, b) in enumerate(zip(y[:norm], y_new)):
        scale = cfg.abs_tol + max(abs(a), abs(b)) * cfg.rel_tol
        e5, e3 = _combo(_ERR5, ks, i) / scale, _combo(_ERR3, ks, i) / scale
        sq5 += e5 * e5
        sq3 += e3 * e3
    den = (sq5 + 0.01 * sq3) * norm
    return y_new, ks, 0.0 if den == 0 else h * sq5 / math.sqrt(den)


def _reference_loop(fun, t, y, tb, cfg, kink=None, d=0.0, tangent=False):
    """The list-based accept/reject loop over one span [t, tb] that the
    generated loop replaces, with min and max for its controller,
    _dop853_step_reference for its step and the dense stages after each
    accepted step: knots, rows (t, h, 16 stage rows), rejections, and the
    end t_new of the step that crossed the kink g(t, y) in direction d (d
    g_old <= 0 <= d g_new), whose row is kept and whose knot is not, or
    None if the loop reached tb.  A tangent system's starting step and error
    norm read its first 2 components only, (x, v), which the others do not
    move."""
    from isores.integrate import _initial_step
    norm = 2 if tangent else len(y)
    f = fun(t, y)
    two = (lambda s, z: fun(s, [*z, *y[2:]])[:2]) if tangent else fun
    h_abs = _initial_step(two, t, y[:norm], f[:norm], tb - t, cfg)
    ts, ys, rows, n_rejected = [t], [y], [], 0
    g = kink and kink(t, y)
    while t < tb:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, tb)
            h = t_new - t
            y_new, ks, err = _dop853_step_reference(fun, t, y, f, h, cfg, norm)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err ** -0.125)
            rejected = True
            n_rejected += 1
        for node, pairs in _DENSE_STAGES:
            ks.append(_stage(fun, t, y, h, ks, node, pairs))
        rows.append((t, h, ks))
        if kink is not None:
            g_new = kink(t_new, y_new)
            if d * g <= 0 <= d * g_new:
                return ts, ys, rows, n_rejected, t_new
            g = g_new
        ts.append(t_new)
        ys.append(y_new)
        t, y, f = t_new, y_new, ks[12]
    return ts, ys, rows, n_rejected, None


def _list_chain(fun, y0, t0, t1, cfg, breaks, kink):
    """The restarts of integrate_ode over _reference_loop, for a compiled
    fun: one loop per span between breaks, with tm the midpoint of what it
    steps over, restarted at each kink root on the crossing step's
    interpolant and watching the crossing back.  Knots, their states, the
    kink roots and (n_steps, n_rejected, number of loops)."""
    from isores.integrate import _DENSE, _ROOT_TOL, _interpolant
    from isores.potentials import brentq
    ts, ys, roots, counts = [t0], [list(y0)], [], [0, 0, 0]
    stops = [t0, *breaks, t1]
    for ta, tb in zip(stops, stops[1:]):
        d = 0.0 if kink is None else -math.copysign(1.0, kink(ta, ys[-1]))
        while True:
            at = lambda t, y, tm=0.5 * (ta + tb): fun(t, y, tm)
            span_ts, span_ys, rows, n_rejected, hit = _reference_loop(
                at, ta, ys[-1], tb, cfg, kink, d)
            ts += span_ts[1:]
            ys += span_ys[1:]
            counts = [a + b for a, b in zip(counts, (len(rows), n_rejected, 1))]
            if hit is None:
                break
            t, h, ks = rows[-1]
            y_at = _interpolant(t, h, span_ys[-1], _DENSE @ np.array(ks))
            ta, d = brentq(lambda s: kink(s, y_at(s)), t, hit,
                           xtol=_ROOT_TOL, rtol=_ROOT_TOL), -d
            roots.append(ta)
            ts.append(ta)
            ys.append(y_at(ta))
            if tb - ta <= 1e-12:
                break
    return ts, ys, roots, tuple(counts)


def _calling_system(fun, n, kink=None, guard=None, splits=(), reads_tm=False,
                    tangent=None, samples=0):
    """A compiled system whose body calls fun(t, y), or fun(t, y, tm) if
    reads_tm (a step forcing reads its piece at tm), at each stage and whose
    loop calls the kink and the guard functions: the tests' closures run in
    the loop integrate_ode runs for every system, a tangent one's too, whose
    tangent lines call tangent(x, u, u', w, w') for (u', u'', w', w'')."""
    from isores.integrate import _compile_system
    s, r, z = (", ".join(f"{c}_{i}" for i in range(n)) for c in "srz")
    return _compile_system(
        n, [f"{r}, = fun(tt, [{s},]{', tm' if reads_tm else ''})"],
        {"fun": fun, "kink": kink, "guard": guard and guard[1], "vary_fun": tangent},
        kink and f"kink(t_new, [{z},])", guard and (guard[0], f"guard(t_new, [{z},])"),
        splits=splits, samples=samples,
        tangent=["r_2, r_3, r_4, r_5, = vary_fun(s_0, s_2, s_3, s_4, s_5)"] if tangent else ())


def test_error_norm_is_zero_where_its_denominator_underflows():
    # a right-hand side of size 1e-154: |e5|^2 is 0 and 0.01 |e3|^2
    # underflows to 0, so the norm is 0/0; read as 0, the steps are accepted
    c = 1e-154
    raw = integrate_ode(_calling_system(lambda t, y: (c + t * c, y[0] + c), 2), [0.0, 0.0],
                        0.5, 0.53125, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-8))
    assert raw.ts[-1] == 0.53125 and raw.stats["n_rejected"] == 0


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
    # the generated loop for a system that calls a plain function at each
    # stage: its steps, rejections and stage rows are those of the list loop
    # with the list step, float for float
    from isores.integrate import _DENSE
    fun, t, y, span, cfg = data.draw(_span_case(n))
    raw = integrate_ode(_calling_system(fun, n), y, t, t + span, cfg)
    ts, ys, rows, n_rejected, _ = _reference_loop(fun, t, y, t + span, cfg)
    assert _bits(raw.ts) == _bits(ts)
    assert _bits(raw.ys.ravel()) == _bits(np.ravel(ys))
    assert _bits(raw.ts[:-1]) == _bits([row[0] for row in rows])
    assert _bits(raw.h) == _bits([row[1] for row in rows])
    coef = _DENSE @ np.array([row[2] for row in rows]).reshape(-1, 16, n)
    assert _bits(raw.coef.ravel()) == _bits(coef.ravel())
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

    def p(t, tm):
        if not isinstance(f, TrigPoly):     # a step: its piece at tm
            return float(f.eval(tm))
        out = f.a0
        for k, a, b in f.harmonics:
            if a:
                out = out + a * math.cos(k * t)
            if b:
                out = out + b * math.sin(k * t)
        return out

    def rhs(t, y, tm=None):
        x = y[0] if clamp is None else max(y[0], clamp)
        acc = -float(pot._dv(x))
        if eps != 0.0:
            acc = acc + eps * p(t, t if tm is None else tm)
        if n == 2:
            return (y[1], acc)
        a = float(pot._d2v(x))
        if n == 3:
            q = y[1] * y[1] + acc * acc
            return (y[1], acc, (1.0 - a) * ((y[1] * y[1] - acc * acc) / q / q))
        return (y[1], acc, y[3], -a * y[2], y[5], -a * y[4])
    return rhs


# forced_system's extra lines for each state size: the forced run, the
# Rofe-Beketov integral and the variational pairs
_EXTRA = {2: (), 3: (ROFE_BEKETOV,), 6: VARIATIONAL}


def _record(fun, y0, t0, t1, cfg):
    """Everything a solve leaves, as bits: the message of the IntegrationError
    it raised (None if none), its stats, events, knots and dense table (a
    tangent solve's table holds the rows of its kink and guard steps only,
    and its events are None: a v = 0 crossing may fall in a rowless step).
    A tangent solve runs from (x, v) = y0[:2] and its variations from
    y0[2:], and each of its knots is (x, v, u, u', w, w')."""
    try:
        raw, message = integrate_ode(fun, y0[:2] if fun.tangent else y0, t0, t1, cfg), None
    except IntegrationError as exc:
        raw, message = exc.trajectory, str(exc)
    ys = np.hstack([raw.ys, raw.variations(y0[2:])]) if fun.tangent else raw.ys
    return (message, raw.stats,
            [(e.kind, float(e.t).hex()) for e in raw.events] if raw.rows is None else None,
            *(_bits(np.ravel(a)) for a in (raw.ts, ys, raw.h, raw.coef)))


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("n", [2, 3, 6, "tangent"])
@pytest.mark.parametrize("forcing", list(_FORCINGS))
@pytest.mark.parametrize("potential", list(_POTENTIALS))
def test_compiled_system_matches_closure_and_reference_step(potential, forcing, n, eps):
    # the body, the kink and the guard inline in the loop against the same
    # loop calling the closure and the kink and guard functions, over spans
    # long enough to cross x = 0 and the step's breaks; a span without a
    # restart against the list loop with the list step too.  "tangent" is
    # the 2-component period map Newton solves and its pass over the
    # variational pairs: its knots, sizes and (x, v) are the 2-component
    # solve's, and every knot's (x, v, u, u', w, w') the 6-component
    # system's stepped by (x, v) alone
    tangent = n == "tangent"
    n = 6 if tangent else n
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
        fun = forced_system(pot, f, eps, cfg, () if tangent else _EXTRA[n], tangent=tangent)
        body = _closure_rhs(pot, f, eps, 2) if tangent else closure
        vary = tangent and (lambda x, *u: closure(0.0, [x, 0.0, *u])[2:])
        m = 2 if tangent else n
        assert _bits(fun(t, y[:m])) == _bits(closure(t, y)[:m])
        if tangent:
            assert _bits(fun.tangent_at(y[0], *y[2:])) == _bits(vary(y[0], *y[2:]))
        got = _record(fun, y, t, t + h, cfg)
        # a step forcing reads its piece at tm
        calling = _calling_system(body, m, fun.kink, fun.guard, fun.splits,
                                  reads_tm=forcing == "step", tangent=vary)
        assert got == _record(calling, y, t, t + h, cfg)
        message, stats, _, ts, ys, hs, _ = got
        if tangent:
            two_message, two_stats, _, two_ts, two_ys, two_hs, _ = _record(
                forced_system(pot, f, eps, cfg), y[:2], t, t + h, cfg)
            assert (two_message, two_ts, two_hs) == (message, ts, hs)
            assert two_ys == [b for row in np.reshape(ys, (-1, 6)).tolist() for b in row[:2]]
            counts = ("n_steps", "n_rejected", "n_segments")
            assert [two_stats[k] for k in counts] == [stats[k] for k in counts]
        if message is None and stats["n_segments"] == 1:
            at = lambda s, z, tm=0.5 * (t + (t + h)): closure(s, z, tm)
            ref_ts, ref_ys, rows, n_rejected, _ = _reference_loop(at, t, y, t + h, cfg,
                                                                  tangent=tangent)
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
    # with it as fun.kink and fun.guard
    asym = iso.asymmetric(4.0, 4.0 / 9.0)
    fun = forced_system(asym, None, 0.0, cfg)
    assert fun.guard is None
    assert fun.kink(0.0, [0.25, -3.0]) == 0.25
    pin_fun = forced_system(iso.pinney(), None, 0.0, cfg)
    kind, g = pin_fun.guard
    assert (kind, g(0.0, [0.25, 0.0])) == ("singularity", 0.25 - (-1.0 + cfg.singularity_margin))
    assert pin_fun.kink is None


def test_tableau_is_scipys():
    # the rows written out in integrate.py are scipy's DOP853 floats
    from isores.integrate import _A, _B, _C, _D, _E3, _E5

    def dense(rows, width):
        out = np.zeros((len(rows), width))
        for i, row in enumerate(rows):
            out[i, list(row)] = list(row.values())
        return out
    for ours, theirs in ((dense(_A[:12], 12), DOP853.A), (dense([_B], 12)[0], DOP853.B),
                         (np.array(_C[:12]), DOP853.C), (dense([_E3], 13)[0], DOP853.E3),
                         (dense([_E5], 13)[0], DOP853.E5), (dense(_A[13:], 16), DOP853.A_EXTRA),
                         (np.array(_C[13:]), DOP853.C_EXTRA), (dense(_D, 16), DOP853.D)):
        assert ours.shape == theirs.shape and (ours == theirs).all()
    # f_new = k13 is taken at t + h from the order 8 solution
    assert _C[12] == 1.0 and _A[12] is _B
    assert all(c for row in (*_A, _E3, _E5, *_D) for c in row.values())


def test_forced_run_end_state_is_pinned(monkeypatch, pin, sin_f, cfg):
    # exact floats of the list-based step: any reordering of the step's
    # arithmetic moves their last digits
    import isores.dynamics
    calls = _recorded_calls(monkeypatch, isores.dynamics)
    d = iso.resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 20, cfg)
    assert (d.final_state.x, d.final_state.v) == (-0.7549530350356217, 1.099912740734585)
    assert float(d.window_sup[-1]) == 4.048133753943679
    assert len(calls) == 20
    assert [sum(c[-1].stats[k] for c in calls) for k in _STATS] == [982, 259, 17601, 20]


def test_periodic_find_state_is_pinned(pin, cfg):
    # the README periodic-find example: seeding on Pinney's closed-form
    # orbit, Newton on the 6-component tangent solve that takes the
    # 2-component map's steps
    from isores.dynamics import find_periodic_solution, seed_from_phi_zero
    seed = seed_from_phi_zero(pin, 3.141592653589793, 0.337, cfg)
    assert (seed.x, seed.v) == (-0.527143510900082, -2.7509910248427227e-16)
    sol = find_periodic_solution(pin, TrigPoly(a0=1.0, cos_coeffs=(2.0,)), 0.01, seed, cfg)
    assert (float(sol.state.x), float(sol.state.v)) == (-0.5114233982852648,
                                                        -1.1007947756452205e-10)
    assert (sol.residual, sol.iterations) == (9.360519328086657e-13, 3)


def test_rofe_beketov_three_component_solve_is_pinned(pin, cfg):
    from isores.autonomous import dx_dI_rofe_beketov
    assert dx_dI_rofe_beketov(pin, 2.0, [0.5, 2.0], cfg).tolist() == [
        1.3064531953413425, 0.6972044398109127]


def test_step_piece_is_read_once_per_span(monkeypatch, pin, cfg):
    # a span statement reads the piece where tm is set: twice in the
    # starting-step rule and once in run, per restart, not at each of the 15
    # stages of every step
    lookups, real = [], PiecewiseConst.piece
    monkeypatch.setattr(PiecewiseConst, "piece", lambda self, t: lookups.append(t) or real(self, t))
    step = PiecewiseConst(breakpoints=(0.3, 1.9, 3.4, 5.0), values=(0.7, -0.4, 0.9, -0.8))
    raw = solve_forced(pin, step, 0.05, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg)
    assert raw.stats["n_segments"] == 9 and raw.stats["n_steps"] > 9
    assert len(lookups) == 3 * raw.stats["n_segments"]


def test_sampled_segment_matches_interpolation_at_every_stage(pin, cfg):
    # the span's own segment v + m (t - s) against a plain right-hand side
    # that interpolates f at every stage
    f = Sampled((0.2, 1.0, -0.5, 0.3, -0.9))
    t1 = 4 * TWO_PI
    raw = solve_forced(pin, f, 0.05, [1.0, 0.0], 0.0, t1, cfg)
    rhs = lambda t, y: (y[1], -pin.dv(y[0]) + 0.05 * f.eval(t))
    ref = integrate_ode(_calling_system(rhs, 2, splits=f.split_points()), [1.0, 0.0],
                        0.0, t1, cfg)
    assert raw.stats["n_segments"] == ref.stats["n_segments"] == 20
    assert np.allclose(raw.ys[-1], ref.ys[-1], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 6, "tangent", "windowed"])
def test_nfev_counts_every_right_hand_side_call(monkeypatch, pin, cfg, n):
    # Pinney forced by a step (restarts at its breaks) with and without its
    # variational pairs, the Rofe-Beketov system (restarts at the kink),
    # Newton's tangent solve on the asymmetric centre forced by a step, whose
    # steps that end at the kink alone build their dense output, and a
    # windowed Pinney solve, whose steps that hold none of its samples do not
    from isores.autonomous import _rofe_raw
    calls = []

    counted = lambda fun, n: _calling_system(lambda t, y: calls.append(1) or fun(t, y), n,
                                             fun.kink, fun.guard, fun.splits,
                                             tangent=fun.tangent_at, samples=fun.samples)
    step = PiecewiseConst(breakpoints=(0.0, 2.0), values=(1.0, -1.0))
    y0 = [0.5, 0.2, 1.0, 0.0, 0.0, 1.0]
    if n == 3:
        monkeypatch.setattr(iso.integrate, "integrate_ode",
                            lambda fun, *a: integrate_ode(counted(fun, 3), *a))
        raw = _rofe_raw(iso.asymmetric(4.0, 4.0 / 9.0), 2.0, TWO_PI, cfg)
    elif n == "tangent":
        fun = forced_system(iso.asymmetric(4.0, 4.0 / 9.0), step, 0.1, cfg, tangent=True)
        raw = integrate_ode(counted(fun, 2), y0[:2], 0.0, 2 * TWO_PI, cfg)
    elif n == "windowed":
        fun = forced_system(pin, step, 0.1, cfg, samples=512)
        raw = integrate_ode(counted(fun, 2), [0.0, 8.0], 0.0, 2 * TWO_PI, cfg)
    else:
        fun = forced_system(pin, step, 0.1, cfg, VARIATIONAL[:n - 2])
        raw = integrate_ode(counted(fun, n), y0[:n], 0.0, 2 * TWO_PI, cfg)
    s = raw.stats
    assert s["n_segments"] > 1 and s["n_steps"] > 0
    assert s["nfev"] == len(calls)
    # the steps that build their dense output: every accepted one, but only
    # those that end at a kink root for a tangent solve, each a restart past
    # the starts of the spans between the step's breaks, and those that keep
    # their row for a windowed one
    spans = len(partition(step.split_points(), 0.0, 2 * TWO_PI)) - 1
    dense = (s["n_segments"] - spans if n == "tangent" else
             raw.coef.shape[0] if n == "windowed" else s["n_steps"])
    assert 0 < dense <= s["n_steps"] and (n != "windowed" or dense < s["n_steps"])
    assert s["nfev"] == 2 * s["n_segments"] + 12 * s["n_steps"] + 11 * s["n_rejected"] + 3 * dense


def _stopping(rhs):
    """The system of rhs, giving up after 1000 calls: a step loop that does
    not stop fails a test instead of hanging it."""
    calls = []

    def fun(t, y):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("the step loop did not stop")
        return rhs(t, y)
    return _calling_system(fun, 2)


@pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (math.nan, 1.0),
                                    (0.0, math.inf), (-math.inf, 0.0)])
def test_non_finite_time_span_is_rejected(t0, t1):
    # a nan end compares False with every time, so the step loop ran to the
    # step budget; a non-finite start made every step nan and rejected, with
    # no budget at all
    with pytest.raises(ValueError, match="must be finite"):
        integrate_ode(_stopping(lambda t, y: (y[1], -y[0])), [1.0, 0.0], t0, t1,
                      IntegratorConfig(max_steps=50))


@pytest.mark.parametrize("t1", [1.0, 0.5])
def test_an_empty_or_backward_span_is_rejected(t1):
    with pytest.raises(ValueError, match="need t1 > t0"):
        integrate_ode(_stopping(lambda t, y: (y[1], -y[0])), [1.0, 0.0], 1.0, t1,
                      IntegratorConfig(max_steps=50))


def test_dense_output_is_read_inside_its_span_only():
    sol = integrate_ode(_stopping(lambda t, y: (y[1], -y[0])), [1.0, 0.0], 0.0, 1.0,
                        IntegratorConfig(max_steps=50))
    with pytest.raises(ValueError, match="outside the integrated span"):
        sol.eval(1.5)


@pytest.mark.parametrize("y0", [[1.0, math.nan], [math.inf, 0.0]])
def test_non_finite_start_is_rejected(y0):
    # a nan starting step: h < min_step is never true, every step is
    # rejected, and max_steps counts only accepted steps
    with pytest.raises(ValueError, match="y0 must be finite"):
        integrate_ode(_stopping(lambda t, y: (y[1], -y[0])), y0, 0.0, 1.0,
                      IntegratorConfig(max_steps=50))


def test_non_finite_right_hand_side_at_the_start_fails():
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
        return solve_forced(pin, None, 0.0, [2.0, 0.0], 0.0, 3 * TWO_PI, cfg)
    if name == "pinney-sin":
        return solve_forced(pin, TrigPoly(sin_coeffs=(1.0,)), 0.05, [1.0, 0.0], 0.0,
                            3 * TWO_PI, cfg)
    if name == "asymmetric-autonomous":
        return solve_forced(asym, None, 0.0, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg)
    if name == "asymmetric-forced":
        return solve_forced(asym, TrigPoly(a0=0.2, cos_coeffs=(1.0,)), 0.1,
                            [1.0, 0.0], 0.0, 3 * TWO_PI, cfg)
    if name == "tangency-start":
        return solve_forced(asym, None, 0.0, [1e-20, -1.0], 0.0, TWO_PI, cfg)
    if name == "pinney-step":
        return solve_forced(pin, step, 0.05, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg)
    assert name == "singularity-guard"
    guard_cfg = IntegratorConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                                 singularity_margin=0.3)
    with pytest.raises(IntegrationError) as exc:
        solve_forced(pin, None, 0.0, [0.5, -2.0], 0.0, TWO_PI, guard_cfg)
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
    "pinney-autonomous/default": ([177, 57, 3284, 1],
                                  ["0x1.fffffffffe7b3p+0", "0x1.1ee0400000000p-37"]),
    "pinney-autonomous/loose": ([49, 18, 935, 1],
                                ["0x1.0002af0fc4371p+1", "0x1.2c5927e440000p-18"]),
    "pinney-sin/default": ([117, 25, 2032, 1],
                           ["0x1.598fd652e5f28p-2", "0x1.28ea3e84f2874p-6"]),
    "pinney-sin/loose": ([32, 10, 592, 1],
                         ["0x1.598fe6ff43481p-2", "0x1.28eabe2c58f58p-6"]),
    "asymmetric-autonomous/default": ([81, 41, 1676, 5],
                                      ["0x1.000000000a6e0p+0", "0x1.5024100000000p-35"]),
    "asymmetric-autonomous/loose": ([38, 30, 910, 5],
                                    ["0x1.fffff33e25872p-1", "0x1.6a0f9b20c0000p-19"]),
    "asymmetric-forced/default": ([141, 96, 3185, 7],
                                  ["0x1.b8a4a6547ee11p-1", "0x1.44f7d43cccf2cp+0"]),
    "asymmetric-forced/loose": ([54, 45, 1319, 7],
                                ["0x1.b8a48b7abf690p-1", "0x1.44f7ea943bf66p+0"]),
    "tangency-start/default": ([37, 11, 682, 3],
                               ["0x1.62c4000000000p-38", "-0x1.000000001a154p+0"]),
    "tangency-start/loose": ([16, 6, 312, 3],
                             ["0x1.6e38921700000p-22", "-0x1.0000046079d7dp+0"]),
    "pinney-step/default": ([83, 17, 1448, 8],
                            ["0x1.58db927be071dp-2", "0x1.485350f410308p-1"]),
    "pinney-step/loose": ([31, 5, 536, 8],
                          ["0x1.58db84cd3be2bp-2", "0x1.48534f369cb60p-1"]),
    "singularity-guard/default": ([16, 10, 352, 1],
                                  ["-0x1.6666666666666p-1", "-0x1.5e62f89475f69p+0"]),
    "singularity-guard/loose": ([5, 3, 110, 1],
                                ["-0x1.6666666666667p-1", "-0x1.5e6394a6b16fbp+0"]),
}


@pytest.mark.parametrize("key", sorted(_PINNED_STATS))
def test_stats_and_last_knot_are_pinned(key):
    name, tol = key.split("/")
    raw = _pinned_run(name, _TOLERANCES[tol])
    assert ([raw.stats[k] for k in _STATS], _bits(raw.ys[-1])) == _PINNED_STATS[key]


@pytest.mark.parametrize("s0, pinned", [
    ((1.0, 0.0), ([148, 67, 2961, 2], ["0x1.fffffffffd021p+0", "-0x1.fc513a63ebd00p-39"])),
    ((1.0, 1.0), ([115, 50, 2279, 2], ["0x1.94c583ada6454p+0", "0x1.43d1362452f48p-1"]))])
def test_call_form_stats_and_last_knot_are_pinned(cfg, s0, pinned):
    # a system that calls a plain function, with a callable guard and a
    # break: x'' + x = R(t)/x^3 with c = 4, R read at the stage time, as
    # acw's check once built it

    def rhs(t, y):
        lam = 1.0 if (t % math.pi) < 0.5 * math.pi else 4.0
        x = max(y[0], 1e-9)
        return (y[1], -y[0] + lam / x ** 3)
    system = _calling_system(rhs, 2, guard=("x_zero_guard", lambda t, y: y[0] - 1e-9),
                             splits=[0.5 * math.pi])
    raw = integrate_ode(system, list(s0), 0.0, math.pi, cfg)
    assert ([raw.stats[k] for k in _STATS], _bits(raw.ys[-1])) == pinned


def test_crossings_are_root_found_only_when_read(monkeypatch):
    import isores.integrate
    calls = []
    real = isores.integrate.brentq
    monkeypatch.setattr(isores.integrate, "brentq",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    traj = solve_forced(iso.pinney(), None, 0.0, [2.0, 0.0], 0.0, 3 * TWO_PI,
                        IntegratorConfig())
    assert calls == []
    crossings = traj.events_of("v_zero") + traj.events_of("x_zero")
    # one root search per crossing inside a step; the one at t = 0 is a knot
    assert len(calls) == len(crossings) - 1 == 11
    traj.events_of("v_zero")
    assert len(calls) == 11                      # found once, then cached


def test_record_holds_one_row_per_step(cfg):
    # step k starts at knot k: one size and one dense row per step, on every
    # solve and on a failed one's partial trajectory
    pin, asym = iso.pinney(), iso.asymmetric(4.0, 4.0 / 9.0)
    step = PiecewiseConst(breakpoints=(0.3, 1.9, 3.4, 5.0), values=(0.7, -0.4, 0.9, -0.8))
    solves = [lambda: solve_forced(pin, step, 0.05, [1.0, 0.0], 0.0, 2 * TWO_PI, cfg),
              lambda: solve_forced(asym, step, 0.05, [1.0, 0.0], 0.0, TWO_PI, cfg),
              lambda: solve_forced(pin, None, 0.0, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0], 0.0,
                                   TWO_PI, cfg, VARIATIONAL),
              lambda: solve_forced(pin, None, 0.0, [0.5, -2.0], 0.0, TWO_PI,
                                   IntegratorConfig(singularity_margin=0.3)),
              lambda: solve_forced(asym, None, 0.0, [1.0, 0.0], 0.0, TWO_PI,
                                   IntegratorConfig(max_steps=10))]
    partial = 0
    for solve in solves:
        try:
            raw = solve()
        except IntegrationError as exc:
            raw, partial = exc.trajectory, partial + 1
        k, n = raw.h.size, raw.ys.shape[1]
        assert k > 0
        assert (raw.h.shape, raw.coef.shape, raw.ts.shape, raw.ys.shape) == \
            ((k,), (k, 7, n), (k + 1,), (k + 1, n))
        # each row starts at its knot and reaches the next one
        assert np.max(np.abs(raw.eval(raw.ts[1:]).T - raw.ys[1:])) < 1e-12
    assert partial == 2


def test_kink_root_at_a_break_restarts_from_its_knot(cfg):
    # a kink root within 1e-12 before a breakpoint ends that span; the next
    # one starts from the root's knot, so y' = 1 gains t1 - root after it
    # (a restart at the breakpoint lost the 5e-13 between them)
    root = 1.0 - 5e-13
    system = _calling_system(lambda t, y: (1.0,), 1, kink=lambda t, y: t - root, splits=[1.0])
    raw = integrate_ode(system, [0.0], 0.0, 2.0, cfg)
    k = int(np.flatnonzero(raw.ts < 1.0)[-1])
    assert raw.ts[k] == root and raw.ts[k + 1] > 1.0
    assert abs((raw.ys[-1, 0] - raw.ys[k, 0]) - (2.0 - root)) < 1e-14


def test_knot_zeros_count_once_and_rest_points_cross_nothing():
    from isores.integrate import Event, RawSolution
    rest = solve_forced(iso.pinney(), None, 0.0, [0.0, 0.0], 0.0, TWO_PI,
                        IntegratorConfig())
    assert rest.events == []
    # x lands on 0 exactly at the middle knot, then leaves it; v never crosses
    ts, ys = np.array([0.0, 1.0, 2.0]), np.array([[1.0, -1.0], [0.0, -1.0], [-1.0, -1.0]])
    raw = RawSolution(ts, ys, np.ones(2), np.zeros((2, 4, 2)), [], {})
    assert raw.events == [Event("x_zero", 1.0)]
