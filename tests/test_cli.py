import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import isores
from isores.cli import main, parse_forcing, parse_potential
from isores.errors import ConfigError

# a fresh interpreter's environment, importing the isores these tests import
_SOURCE_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(isores.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


def test_parse_forcing_shorthand():
    f = parse_forcing("sin")
    assert f.sin_coeffs == (1.0,) and f.a0 == 0.0
    f = parse_forcing("cos2t")
    assert f.cos_coeffs == (0.0, 1.0)
    f = parse_forcing("0.1+1*cos+0.5*sin2t")
    assert f.a0 == pytest.approx(0.1)
    assert f.cos_coeffs == (1.0, 0.0)
    assert f.sin_coeffs == (0.0, 0.5)
    f = parse_forcing("1-0.5*sin")
    assert f.a0 == 1.0 and f.sin_coeffs == (-0.5,)
    f = parse_forcing('{"kind":"trig","a0":0.2,"a":[1],"b":[]}')
    assert f.a0 == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        parse_forcing("tan t")
    with pytest.raises(ConfigError):
        parse_forcing("{bad json")


def test_parse_forcing_exponent_coefficients():
    # a + or - inside an exponent belongs to the number, not to a new term
    f = parse_forcing("1e-3*sin")
    assert f.a0 == 0.0 and f.sin_coeffs == (1e-3,)
    f = parse_forcing("2.5E+2*cos2t")
    assert f.cos_coeffs == (0.0, 250.0)
    assert parse_forcing("-1e-3").a0 == -1e-3
    f = parse_forcing("1.5e1-2e-1*cos+.5*sin")
    assert (f.a0, f.cos_coeffs, f.sin_coeffs) == (15.0, (-0.2,), (0.5,))
    for bad in ("1e", "e5*sin", ".*sin", "1e-*sin"):
        with pytest.raises(ConfigError):
            parse_forcing(bad)


def test_parse_forcing_rejects_a_zero_harmonic():
    # cos 0t = 1, but the term was dropped: '2*cos0t+sin' scanned plain sin t
    for bad in ("cos0t", "sin0t", "2*cos0t+sin", "cos00t"):
        with pytest.raises(ConfigError, match="harmonic 0"):
            parse_forcing(bad)
    f = parse_forcing("cos10t")
    assert f.cos_coeffs == (0.0,) * 9 + (1.0,) and f.sin_coeffs == (0.0,) * 10
    assert main(["phi-scan", "--potential", "pinney", "--forcing", "2*cos0t+sin"]) == 1


@pytest.mark.parametrize("text, sign, at", [
    ("sin+", "+", 4),        # ran as sin t (exit 0)
    ("+", "+", 1),           # scanned p = 0 (exit 2)
    ("sin++cos", "+", 4),    # read as sin t + cos t
    ("--sin", "-", 1),       # read as -sin t
    ("1 - -cos", "-", 2)])
def test_parse_forcing_rejects_a_stray_sign(text, sign, at):
    with pytest.raises(ConfigError, match=rf"stray sign '\{sign}' at {at} in "):
        parse_forcing(text)


def test_a_stray_sign_is_a_usage_error(capsys):
    assert main(["phi-scan", "--potential", "pinney", "--forcing", "sin+"]) == 1
    assert "stray sign '+'" in capsys.readouterr().err
    assert parse_forcing("-sin+cos2t-0.5").a0 == -0.5


def test_parse_potential():
    assert parse_potential("pinney").kind == "pinney"
    assert parse_potential("harmonic:3").params == (3,)
    pot = parse_potential("asymmetric:4:0.4444444444444444")
    assert pot.kind == "asymmetric"
    assert parse_potential('{"kind":"harmonic","n":2}').params == (2,)
    assert parse_potential("asymmetric:4:0.44").params == (4.0, 0.44)
    for text in ("cubic", "harmonic:two", "asymmetric:4:4/9"):
        with pytest.raises(ConfigError, match="potential: cannot parse"):
            parse_potential(text)


@pytest.mark.parametrize("flag, text", [
    ("--potential", '{"kind":"harmonic","n":"2"}'),             # scanned harmonic(2), exit 2
    ("--forcing", '{"kind":"trig","a":["12"],"a0":"0.5"}')])    # scanned 0.5 + 12 cos t, exit 0
def test_a_string_where_a_descriptor_number_belongs_is_a_usage_error(flag, text, capsys):
    argv = {"--potential": "pinney", "--forcing": "sin", flag: text}
    assert main(["phi-scan", *(x for item in argv.items() for x in item)]) == 1
    assert "is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text, message", [
    ("--forcing", "   ", "forcing: empty shorthand"),
    ("--potential", "{nope", "potential: invalid JSON")])
def test_an_empty_or_broken_spec_is_a_usage_error(flag, text, message, capsys):
    argv = {"--potential": "pinney", "--forcing": "sin", flag: text}
    assert main(["phi-scan", *(x for item in argv.items() for x in item)]) == 1
    assert message in capsys.readouterr().err


def test_a_fractional_harmonic_n_is_a_usage_error(capsys):
    # {"n": 2.5} scanned harmonic(2) and exited 2, a scientific result
    assert main(["phi-scan", "--potential", '{"kind":"harmonic","n":2.5}',
                 "--forcing", "sin"]) == 1
    assert "potential.n: must be a positive integer" in capsys.readouterr().err


def test_phi_scan_exit_codes(tmp_path):
    rc = main(["phi-scan", "--potential", "pinney", "--forcing", "sin",
               "--theta-points", "32", "--r-points", "8",
               "--out", str(tmp_path / "a")])
    assert rc == 0
    verdict = json.loads((tmp_path / "a" / "verdict.json").read_text())
    assert verdict["certified_resonant"] is True
    assert verdict["min_modulus"] > 0.03
    rc = main(["phi-scan", "--potential", "harmonic:1", "--forcing", "cos2t",
               "--theta-points", "16", "--r-points", "4"])
    assert rc == 2
    rc = main(["phi-scan", "--potential", "pinney", "--forcing", "{oops"])
    assert rc == 1
    # the asymmetric center certifies: at r = 0, psi is the r -> 0+ limit
    rc = main(["phi-scan", "--potential", "asymmetric:4:0.4444444444444444",
               "--forcing", "sin", "--theta-points", "16", "--r-points", "3"])
    assert rc == 0


def test_resonance_run_exit_codes(har, sin_f, cfg, tmp_path):
    rc = main(["resonance-run", "--potential", "harmonic:1", "--forcing", "sin",
               "--eps", "0.05", "--periods", "40",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    rows = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
    assert rows[0] == "window_index,window_sup,sqrtE,envelope"
    assert len(rows) == 41
    # a window's index, sup |x| + |v|, and sqrt(E) and the envelope at its end
    d = isores.resonance_run(har, sin_f, 0.05, isores.State(0.0, 0.0), 40, cfg)
    np.testing.assert_array_equal([[float(v) for v in row.split(",")] for row in rows[1:]],
                                  np.column_stack([np.arange(40), d.window_sup,
                                                   d.energy_sqrt[1:], d.envelope_bound[1:]]))
    rc = main(["resonance-run", "--potential", "harmonic:1", "--forcing",
               "cos2t", "--eps", "0.05", "--periods", "40"])
    assert rc == 2


def test_resonance_run_that_shrinks_then_grows_is_inconclusive(capsys):
    # the amplitude |1 - eps t/2| of x'' + x = eps sin t from (1, 0) falls to
    # 0 at t = 80 and grows again: neither growing nor bounded over 35 periods
    assert main(["resonance-run", "--potential", "harmonic:1", "--forcing", "sin",
                 "--eps", "0.025", "--x0", "1", "--periods", "35"]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "inconclusive" and verdict["partial"] is False
    assert verdict["max_window_sup"] == pytest.approx(2.468247333520525, rel=1e-9)


@pytest.mark.parametrize("eps", ["1e308", "1e160"])
def test_a_harmonic_window_past_the_float_range_is_named(eps, capsys):
    # the closed-form window overflowed: at 1e308 with numpy RuntimeWarnings
    # and "harmonic: non-finite evaluation point", at 1e160 as "energy
    # envelope violated at window 0 (excess inf)"
    assert main(["resonance-run", "--potential", "harmonic:1", "--forcing", "sin",
                 "--eps", eps, "--periods", "10"]) == 1
    assert "resonance_run: window 0 leaves the float range" in capsys.readouterr().err


def test_a_partial_run_says_why_it_stopped_on_stderr(tmp_path, capsys):
    # window 60 leaves the float range: exit 3 with partial true, and nothing
    # said why; stderr says it now, and stdout and verdict.json keep no
    # stop_reason
    assert main(["resonance-run", "--potential", "harmonic:1", "--forcing", "sin",
                 "--eps", "1e152", "--periods", "100", "--out", str(tmp_path)]) == 3
    out = capsys.readouterr()
    assert out.err == "partial run: resonance_run: window 60 leaves the float range\n"
    verdict = json.loads(out.out)
    assert verdict["partial"] is True and "stop_reason" not in verdict
    assert json.loads((tmp_path / "verdict.json").read_text()) == verdict


def test_a_step_budget_stop_is_named_on_stderr(monkeypatch, capsys):
    # no flag sets max_steps, so the command's config is given a budget of 10
    import functools
    import isores.cli
    from isores.integrate import IntegratorConfig
    monkeypatch.setattr(isores.cli, "IntegratorConfig",
                        functools.partial(IntegratorConfig, max_steps=10))
    assert main(["resonance-run", "--potential", "pinney", "--forcing", "sin",
                 "--eps", "0.05", "--periods", "10", "--x0", "1"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("partial run: ") and "step budget" in out.err
    assert json.loads(out.out)["partial"] is True


def test_a_full_run_prints_nothing_on_stderr(capsys):
    assert main(["resonance-run", "--potential", "pinney", "--forcing", "sin",
                 "--eps", "0.05", "--periods", "20", "--x0", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_tolerance_defaults_are_the_integrators(tmp_path):
    # the flags' defaults are IntegratorConfig's: no --rel-tol is its rel_tol;
    # on Pinney, since a harmonic run with a trigonometric p reads no tolerance
    from isores.integrate import IntegratorConfig
    args = ["resonance-run", "--potential", "pinney", "--forcing", "sin",
            "--eps", "0.05", "--periods", "20", "--x0", "1"]
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    assert main(args + ["--rel-tol", repr(IntegratorConfig().rel_tol),
                        "--abs-tol", repr(IntegratorConfig().abs_tol),
                        "--out", str(tmp_path / "explicit")]) == 0
    assert ((tmp_path / "default" / "verdict.json").read_bytes()
            == (tmp_path / "explicit" / "verdict.json").read_bytes())


def test_acw_command(tmp_path, capsys):
    rc = main(["acw", "--c", "4", "--x0", "1", "--y0", "0", "--steps", "10",
               "--check", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "acw_orbit.csv").read_text().splitlines()
    assert lines[0] == "n,x,y,xy"
    assert lines[-1].startswith("10,1024,")
    orbit = isores.acw_orbit(4.0, isores.AcwState(1.0, 0.0), 10)
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == \
        [[n, s.x, s.y, s.x * s.y] for n, s in enumerate(orbit)]
    # the numeric cross-check of the map against the closed form, to 1e-10
    assert json.loads(capsys.readouterr().out)["numeric_check_max_err"] <= 1e-10


@pytest.mark.parametrize("c", ["nan", "inf", "-1"])
def test_acw_c_must_be_finite_and_positive(c, capsys):
    # nan and inf failed with "AcwState: x must be positive", -1 with a
    # message naming acw_poincare instead of the option
    assert main(["acw", "--c", c, "--x0", "1", "--y0", "0", "--steps", "3"]) == 1
    assert "c: must be finite and positive" in capsys.readouterr().err


def test_acw_steps_must_be_at_least_one(capsys):
    # a ValueError named the function's argument: "acw_orbit: n_steps"
    assert main(["acw", "--c", "4", "--steps", "0"]) == 1
    assert "steps: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--steps", "1100"], "step 1024 leaves the float range"),
    (["--y0", "nan", "--steps", "3"], "need a finite x > 0 and a finite y"),
])
def test_acw_names_a_state_outside_the_float_range(args, message, capsys):
    # both failed as "AcwState: x must be positive": x x y y = inf * 0 made
    # step 513 nan, and y0 = nan was accepted and made the next x nan
    assert main(["acw", "--c", "4", *args]) == 1
    assert message in capsys.readouterr().err


def test_period_audit_command(tmp_path, capsys):
    rc = main(["period-audit", "--potential", "pinney", "--r", "100",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["periods"][0]["period"] == pytest.approx(2 * math.pi, abs=1e-6)


def test_an_unknown_table_format_is_a_usage_error(tmp_path, capsys):
    rc = main(["period-audit", "--potential", "harmonic:1", "--format", "xml",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "format: must be csv or json, not 'xml'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_periodic_find_command(capsys):
    rc = main(["periodic-find", "--potential", "harmonic:1", "--forcing",
               "cos2t", "--eps", "0.09", "--x0", "0", "--v0", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    rc = main(["periodic-find", "--potential", "harmonic:1", "--forcing",
               "sin", "--eps", "0.05", "--x0", "0.3", "--v0", "0.1"])
    assert rc == 2


def test_periodic_find_writes_its_payload(tmp_path, capsys):
    assert main(["periodic-find", *_VALID["periodic-find"], "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads((tmp_path / "periodic.json").read_text()) == payload
    assert payload["converged"] is True


def test_periodic_find_backs_off_out_of_domain_steps(capsys):
    # the first full Newton step from this seed lands beyond Pinney's
    # endpoint x = -1: the line search halves it instead of exiting
    forcing = json.dumps({"kind": "trig", "a0": 1.0, "a": [0.14147440345512107],
                          "b": [1.994989973208109]})
    rc = main(["periodic-find", "--potential", "pinney", "--forcing", forcing,
               "--eps", "0.01", "--zero-theta", "1.6415926535897931",
               "--zero-action", "0.337"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True and payload["residual"] <= 1e-10


@pytest.mark.parametrize("argv, message", [
    (["period-audit", "--potential", "pinney", "--r", "nan"], "r must be finite and positive"),
    (["period-audit", "--potential", "pinney", "--r", "inf"], "r must be finite and positive"),
    (["fourier-constants", "--r", "nan"], "r must be nonnegative or inf"),
    (["limits-audit", "--I", "nan"], "action I must be finite and positive"),
    (["limits-audit", "--I", "inf"], "action I must be finite and positive"),
    (["limits-audit", "--I", "0"], "action I must be finite and positive"),
])
def test_audit_inputs_are_checked_by_name(argv, message, capsys):
    # r = nan or inf failed with "pinney: non-finite evaluation point", a nan
    # or inf action with "could not bracket V = nan", and I = 0 warned
    # "invalid value encountered in divide" before failing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_COMMANDS_WITHOUT_SCIPY = """
import sys
from isores.cli import main
codes = [
    main(["phi-scan", "--potential", "pinney", "--forcing", "sin"]),
    main(["period-audit", "--potential", "pinney", "--r", "100"]),
    main(["periodic-find", "--potential", "pinney", "--forcing", "1+2*cos",
          "--eps", "0.01", "--zero-theta", "3.141592653589793", "--zero-action", "0.337"]),
    main(["resonance-run", "--potential", "pinney", "--forcing", "sin",
          "--eps", "0.05", "--periods", "10"]),
]
print(codes, sorted(m for m in sys.modules if m.startswith("scipy")), file=sys.stderr)
"""


def test_the_runtime_never_loads_scipy():
    # a scan, a period read from crossings (brentq in integrate), a Newton
    # solve seeded through inverse_V (brentq in potentials) and a
    # forced run, all in a fresh interpreter
    run = subprocess.run([sys.executable, "-c", _COMMANDS_WITHOUT_SCIPY],
                         capture_output=True, text=True, env=_SOURCE_ENV, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "[0, 0, 0, 0] []"


@pytest.mark.parametrize("action, why", [("1e300", "Numerical result out of range"),
                                          ("1e-300", "float division by zero")],
                         ids=["1e300", "1e-300"])
def test_an_action_out_of_float_range_is_an_integration_error(action, why, capsys):
    # the Rofe-Beketov solve's starting-step rule overflows a float ** (1e300)
    # or its first right-hand side divides by zero (1e-300): it escaped as a
    # traceback, and the overflow's (errno, text) pair was printed in a second
    # pair of parentheses
    assert main(["limits-audit", "--I", action]) == 1
    assert capsys.readouterr().err == (
        f"error: integration failed: no starting step at t = 0.0 ({why})\n")


def test_limits_audit_command(tmp_path, capsys):
    rc = main(["limits-audit", "--potential", "pinney", "--I", "100",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["limits"][0]["I"] == 100.0
    assert "appendix" in payload
    assert (tmp_path / "bouncing.csv").exists()
    assert (tmp_path / "appendix.csv").exists()


def test_fourier_constants_command(capsys):
    rc = main(["fourier-constants", "--r", "0", "--r", "inf"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constants"][0]["d_plus"] == pytest.approx(0.5, abs=1e-9)
    assert payload["constants"][1]["c0"] == pytest.approx(2 / math.pi, abs=1e-9)


def test_json_tables_are_strict_json(tmp_path):
    # the default --r list ends at inf, which json.dumps wrote as the token
    # Infinity: no strict parser reads it, so a JSON table writes "inf", as
    # stdout does, and write_json refuses a non-finite float
    from isores.io import write_json
    assert main(["fourier-constants", "--format", "json", "--out", str(tmp_path)]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    rows = json.loads((tmp_path / "fourier_constants.json").read_text(),
                      parse_constant=refuse)
    assert rows[-1]["r"] == "inf" and rows[0]["r"] == 0.0
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"x": math.nan})


def test_config_file_defaults(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "potential": "pinney", "forcing": "sin", "theta_points": 16,
        "r_points": 4, "out": str(tmp_path / "out")}))
    rc = main(["phi-scan", "--config", str(cfgfile)])
    assert rc == 0
    assert (tmp_path / "out" / "phi_field.csv").exists()
    # explicit flags override the config file
    rc = main(["phi-scan", "--config", str(cfgfile), "--forcing", "cos2t",
               "--potential", "harmonic:1"])
    assert rc == 2


def test_byte_identical_reruns(tmp_path):
    args = ["phi-scan", "--potential", "pinney", "--forcing", "sin",
            "--theta-points", "16", "--r-points", "6"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    for name in ("phi_field.csv", "verdict.json"):
        b1 = (tmp_path / "one" / name).read_bytes()
        b2 = (tmp_path / "two" / name).read_bytes()
        assert b1 == b2
    # determinism of a second command family as well
    a2 = ["acw", "--c", "0.25", "--x0", "1", "--y0", "1", "--steps", "50"]
    assert main(a2 + ["--out", str(tmp_path / "three")]) == 0
    assert main(a2 + ["--out", str(tmp_path / "four")]) == 0
    assert (tmp_path / "three" / "acw_orbit.csv").read_bytes() == \
        (tmp_path / "four" / "acw_orbit.csv").read_bytes()


def test_format_json_tables(tmp_path):
    rc = main(["fourier-constants", "--r", "0", "--format", "json",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "fourier_constants.json").read_text())
    assert rows[0]["d_plus"] == pytest.approx(0.5, abs=1e-9)
    rc = main(["period-audit", "--potential", "harmonic:2", "--r", "1.5",
               "--format", "json", "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "periods.json").read_text())
    assert rows[0]["period"] == pytest.approx(math.pi, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["period-audit", "--potential", "pinney", "--r", "1", "--rel-tol", "inf"],
    ["period-audit", "--potential", "pinney", "--r", "1", "--abs-tol", "nan"],
    ["phi-scan", "--potential", "asymmetric:inf:1", "--forcing", "sin"],
    ["resonance-run", "--potential", "pinney", "--forcing", "sin",
     "--eps", "nan", "--periods", "10"],
    ["acw", "--c", "4", "--rel-tol", "nan"],
    ["resonance-run", "--potential", "harmonic:1", "--forcing", "sin",
     "--eps", "0.05", "--periods", "10", "--v0", "nan"],
    ["resonance-run", "--potential", "pinney", "--forcing", "sin",
     "--eps", "0.05", "--periods", "10", "--v0", "inf"],
    ["resonance-run", "--potential", "harmonic:1", "--forcing", "sin",
     "--eps", "0.05", "--periods", "10", "--x0", "1e200"],
    ["resonance-run", "--potential", "pinney", "--forcing", "sin",
     "--eps", "0.05", "--periods", "10", "--x0", "1e200"]],
    ids=["rel-tol-inf", "abs-tol-nan", "alpha-inf", "eps-nan", "acw-rel-tol-nan",
         "v0-nan", "v0-inf", "harmonic-energy-overflow", "pinney-energy-overflow"])
def test_non_finite_inputs_are_config_errors(argv, capsys):
    # each one ran on (or hung) instead of naming the bad field; acw checked
    # its tolerances only under --check, and exited 0 without it; a
    # non-finite v0 made the starting step nan, and every step was rejected;
    # x0 = 1e200 has energy inf, and its failed first step was reported as a
    # partial run, verdict inconclusive (exit 3)
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err


def test_a_start_with_no_step_exits_1(capsys):
    # x0 = 1e150 has finite energy, but the starting-step rule overflows
    # before the first step: it was reported as a partial run, verdict
    # inconclusive (exit 3); on Pinney, since a harmonic run with a
    # trigonometric p takes no step
    assert main(["resonance-run", "--potential", "pinney", "--forcing", "sin",
                 "--eps", "0.05", "--periods", "10", "--x0", "1e150"]) == 1
    assert "no starting step" in capsys.readouterr().err


def test_periodic_find_non_finite_zero_angle_exits_at_once(capsys):
    # the nan angle reached the seed's solve, which never finished
    assert main(["periodic-find", "--potential", "pinney", "--forcing", "1+2*cos",
                 "--eps", "0.01", "--zero-theta", "nan", "--zero-action", "0.337"]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["phi-scan", "--potential", "harmonic:1", "--forcing", "cos2t", "--threshold", "0"],
    ["phi-scan", "--potential", "pinney", "--forcing", "1+2*cos", "--threshold", "-1"],
    ["phi-scan", "--potential", "pinney", "--forcing", "sin", "--threshold", "nan"]],
    ids=["zero-certified-phi-identically-0", "negative-certified-a-zero", "nan-never-certified"])
def test_phi_scan_threshold_must_be_finite_and_positive(argv, capsys):
    assert main(argv) == 1
    assert "threshold: must be finite and positive" in capsys.readouterr().err


def test_phi_scan_threshold_from_config_file_is_checked(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"potential": "harmonic:1", "forcing": "cos2t",
                                  "threshold": 0.0}))
    assert main(["phi-scan", "--config", str(config)]) == 1
    assert "threshold: must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("r_max", ["nan", "inf", "0", "-5"])
def test_phi_scan_r_max_must_be_finite_and_positive(r_max, capsys):
    # nan put nan amplitudes in the grid and certified; 0 and -5 failed with
    # a bare "math domain error"
    assert main(["phi-scan", "--potential", "harmonic:1", "--forcing", "sin",
                 "--r-max", r_max]) == 1
    assert "r_max: must be finite and positive" in capsys.readouterr().err


def test_phi_scan_grid_from_config_file_is_checked(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"potential": "asymmetric:4:0.4444444444444444",
                                  "forcing": "sin", "r_max": float("nan")}))
    assert main(["phi-scan", "--config", str(config)]) == 1
    assert "r_max: must be finite and positive" in capsys.readouterr().err
    assert main(["phi-scan", "--potential", "pinney", "--forcing", "sin",
                 "--r-points", "0"]) == 1
    assert "r_points: must be >= 1" in capsys.readouterr().err


def test_phi_scan_two_r_points_end_at_r_max(tmp_path):
    # the ladder was logspace(-2, log10(r_max), 1) = [0.01] whatever r_max
    assert main(["phi-scan", "--potential", "pinney", "--forcing", "sin",
                 "--theta-points", "4", "--r-max", "50", "--r-points", "2",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "phi_field.csv").read_text().splitlines()[1:]
    assert sorted({float(row.split(",")[1]) for row in rows}) == [-1.0, 0.0, 50.0]


def test_missing_required_parameter():
    assert main(["resonance-run", "--potential", "harmonic:1",
                 "--forcing", "sin"]) == 1


def _isores(argv, capsys, timeout=None):
    """(exit code, stderr) of `isores argv`: run in process, or, given a
    timeout in seconds, in a fresh interpreter killed past it (a hang fails
    the test instead of stalling the suite)."""
    if timeout is None:
        code = main(argv)
        return code, capsys.readouterr().err
    run = subprocess.run([sys.executable, "-m", "isores.cli", *argv], capture_output=True,
                         text=True, env=_SOURCE_ENV, timeout=timeout)
    return run.returncode, run.stderr


_HUGE_INT = "1" + "0" * 400    # 401 digits, past the largest float
_HUGE_INT_FORCINGS = [
    f'{{"kind":"trig","a0":{_HUGE_INT}}}',
    f'{{"kind":"trig","a":[1,{_HUGE_INT}]}}',
    f'{{"kind":"piecewise","breaks":[0,3],"values":[1,{_HUGE_INT}]}}',
    f'{{"kind":"piecewise","breaks":[0,3],"values":[1,-1],"period":{_HUGE_INT}}}',
    f'{{"kind":"sampled","values":[1,{_HUGE_INT},0,-1]}}',
]


@pytest.mark.parametrize("argv, message, timeout", [
    (["phi-scan", "--potential", "pinney", "--forcing", "sin", "--bogus", "1"],
     "unrecognized arguments: --bogus", None),
    (["phi-scan", "--potential", "pinney", "--forcing", "sin", "--r-points", "abc"],
     "r_points: invalid literal", None),
    (["period-audit", "--potential", "pinney", "--r", "one"], "r: could not convert", None),
    ([], "required", None),
    (["periodic-find", "--potential", "pinney", "--forcing", "1+2*cos", "--eps", "0.01",
      "--zero-theta", "3.141592653589793"], "zero_theta, zero_action: give both or neither",
     None),
    (["periodic-find", "--potential", "pinney", "--forcing", "1+2*cos", "--eps", "0.01",
      "--zero-action", "0.337"], "zero_theta, zero_action: give both or neither", None),
    (["phi-scan", "--potential", "pinney", "--forcing", '{"kind":"trig","a":"12"}'],
     "error: forcing.a: must be an array, not str", None),
    (["resonance-run", "--potential", "harmonic:1", "--forcing", "sin", "--eps", "0.05",
      "--periods", "10", "--v0", "nan"], "must be finite", 60),
    (["phi-scan", "--potential", "pinney", "--forcing",
      '{"kind":"piecewise","breaks":[0],"values":[1],"period":1e-300}'],
     "error: forcing.period: 2*pi/period must be at most 1024", 30),
    (["phi-scan", "--potential", "pinney", "--forcing", "sin", "--theta-points", "0"],
     "error: theta_points: must be >= 1", None),
    (["resonance-run", "--potential", "harmonic:1", "--forcing", "sin", "--eps", "0.05",
      "--periods", "5"], "error: periods: must be >= 10", None),
    *((["phi-scan", "--potential", "pinney", "--forcing", descriptor],
       "error: forcing: malformed descriptor (int too large to convert to float)", None)
      for descriptor in _HUGE_INT_FORCINGS),
    (["phi-scan", "--potential", "pinney", "--forcing", '{"kind":[]}'],
     "error: forcing.kind: unknown kind []", None),
], ids=["unknown-flag", "malformed-int", "malformed-repeated", "no-command",
        "half-phi-zero-theta", "half-phi-zero-action", "descriptor-array-as-string",
        "non-finite-start", "step-of-a-tiny-period", "no-theta-points", "too-few-periods",
        "huge-int-trig-a0", "huge-int-trig-a", "huge-int-piecewise-value",
        "huge-int-piecewise-period", "huge-int-sampled-value", "unhashable-kind"])
def test_usage_errors_exit_1(argv, message, timeout, capsys):
    # argparse exited 2, the code of a negative result; half a Phi-zero seed
    # fell back to (x0, v0), and Newton's failure there exited 2 too; "a":
    # "12" was split into characters and scanned cos t + 2 cos 2t (exit 0).
    # Two hung: v0 = nan made the starting step nan and every step was
    # rejected, and a step of period 1e-300 tiled its breaks 6.3e300 times.
    # --theta-points 0 and --periods 5 named phi_scan's and resonance_run's
    # arguments ("grids must be nonempty", "need n_periods >= 10").  An int
    # too large for a float in a forcing escaped main as an OverflowError
    code, err = _isores(argv, capsys, timeout)
    assert code == 1
    assert message in err


_HUGE_SAMPLED = '{"kind":"sampled","values":[1e308,-1e308]}'


@pytest.mark.parametrize("argv, out, message", [
    (["phi-scan", "--potential", "pinney", "--forcing", _HUGE_SAMPLED], False,
     "error: phi_scan: Phi = (nan+nanj) at theta = 0.0, r = 0.0 is not finite"),
    (["phi-scan", "--potential", "pinney", "--forcing", _HUGE_SAMPLED], True,
     "error: phi_scan: Phi = (nan+nanj) at theta = 0.0, r = 0.0 is not finite"),
    # x0 y0 = 1e600: the first integral overflows, and "Infinity" exited 0
    (["acw", "--c", "4", "--x0", "1e300", "--y0", "1e300", "--steps", "5"], False,
     "error: Out of range float values are not JSON compliant"),
    # each array is larger than x86-64's 128 TiB user address space, so it
    # is refused at once whatever the overcommit setting: nothing is allocated
    (["resonance-run", "--potential", "pinney", "--forcing", "sin", "--eps", "0.05",
      "--periods", "10000000000000"], False, "error: Unable to allocate 291. TiB"),
    (["phi-scan", "--potential", "pinney", "--forcing", "sin",
      "--theta-points", "100000000000000"], False, "error: Unable to allocate 728. TiB"),
    (["phi-scan", "--potential", "pinney", "--forcing", "sin",
      "--r-points", "100000000000000"], False, "error: Unable to allocate 728. TiB"),
], ids=["nan-scan", "nan-scan-out", "inf-first-integral",
        "run-records-too-large", "theta-grid-too-large", "r-grid-too-large"])
def test_a_result_that_cannot_be_held_exits_1(argv, out, message, tmp_path, capsys):
    # a nan Phi printed NaN, which is not JSON, and exited 2; with --out, the
    # CSV was written and then the JSON refused (exit 1).  numpy's refused
    # allocation escaped main as a traceback.  A nan scan printed numpy's
    # "invalid value" RuntimeWarnings before its error line
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, *(["--out", str(tmp_path / "out")] if out else [])])
    stdout, stderr = capsys.readouterr()
    assert (code, stdout) == (1, "")
    assert stderr.startswith(message) and stderr.count("\n") == 1, stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("potential", ["pinney", "harmonic:1"])
def test_periodic_find_at_a_huge_eps_prints_a_finite_residual(potential, out, tmp_path,
                                                              capsys):
    # G = P(s) - s is finite near 1e300, and np.linalg.norm's sum of squares
    # overflowed: the residual printed as inf (exit 1, "Out of range float
    # values are not JSON compliant"), with numpy's overflow warning.  Its
    # norm is math.hypot's, and Newton stops at the singular Jacobian
    argv = ["periodic-find", "--potential", potential, "--forcing", "sin", "--eps", "1e300",
            *(["--out", str(tmp_path)] if out else [])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    stdout, stderr = capsys.readouterr()
    payload = json.loads(stdout)
    assert (code, stderr) == (2, "")
    assert 1e300 < payload["residual"] < math.inf and not payload["converged"]
    assert payload["message"].startswith("singular Jacobian")
    if out:
        assert json.loads((tmp_path / "periodic.json").read_text()) == payload


def test_half_phi_zero_seed_from_config_file_is_a_usage_error(tmp_path, capsys):
    # one of the pair fell back to the seed (x0, v0), and Newton exited 2
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"potential": "pinney", "forcing": "1+2*cos", "eps": 0.01,
                                  "zero_theta": 3.141592653589793}))
    assert main(["periodic-find", "--config", str(config)]) == 1
    assert "zero_theta, zero_action: give both or neither" in capsys.readouterr().err


def test_unknown_flag_prints_the_command_usage(capsys):
    # argparse handed the flag back to the top-level parser, whose usage
    # lists the commands instead of the flags of the one given
    assert main(["phi-scan", "--potential", "pinney", "--forcing", "sin",
                 "--bogus", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: isores phi-scan [-h]")
    assert "isores phi-scan: error: unrecognized arguments: --bogus 1" in err


def test_unknown_flag_before_the_command_prints_the_top_level_usage(capsys):
    # the top level's leftovers went to the command's parser with its own
    assert main(["--bogus", "phi-scan", "--potential", "pinney", "--forcing", "sin"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: isores [-h]")
    assert "isores: error: unrecognized arguments: --bogus" in err


def test_help_exits_0(capsys):
    assert main(["phi-scan", "--help"]) == 0
    assert "--r-points" in capsys.readouterr().out


_VALID = {
    "phi-scan": ["--potential", "pinney", "--forcing", "sin", "--theta-points", "4",
                 "--r-points", "2"],
    "resonance-run": ["--potential", "harmonic:1", "--forcing", "sin", "--eps", "0.05",
                      "--periods", "10"],
    "acw": ["--c", "4"],
    "period-audit": ["--potential", "harmonic:1", "--r", "1"],
    "periodic-find": ["--potential", "harmonic:1", "--forcing", "cos2t", "--eps", "0.09",
                      "--x0", "0", "--v0", "0"],
    "limits-audit": ["--potential", "harmonic:1", "--I", "10"],
    "fourier-constants": ["--r", "1"],
}


@pytest.mark.parametrize("command", list(_VALID))
def test_every_command_prints_its_help(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: isores {command} [-h]")


_REMOVED_FLAGS = ([(command, ["--seedless"]) for command in _VALID]
                  + [(command, ["--format", "json"]) for command in
                     ("phi-scan", "resonance-run", "acw", "periodic-find")]
                  + [("fourier-constants", ["--rel-tol", "1e-8"]),
                     ("phi-scan", ["--rel-tol", "1e-8"])])


@pytest.mark.parametrize("command, flag", _REMOVED_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in _REMOVED_FLAGS])
def test_commands_reject_flags_they_do_not_read(command, flag, capsys):
    # each of these exited 0 and the flag did nothing
    assert main([command, *_VALID[command]]) == 0
    capsys.readouterr()
    assert main([command, *_VALID[command], *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {flag[0]}" in err


_SCAN = ["--potential", "pinney", "--forcing", "sin", "--theta-points", "8", "--r-points", "4"]


@pytest.mark.parametrize("command, flags, name, value", [
    ("phi-scan", _SCAN[:2] + _SCAN[4:], "forcing", {"kind": "trig", "a0": 0.5, "b": [1]}),
    ("phi-scan", _SCAN[:2] + _SCAN[4:], "forcing",
     {"kind": "piecewise", "breaks": [0, 3], "values": [1, -1]}),
    ("period-audit", ["--r", "100"], "potential", {"kind": "pinney"}),
    ("period-audit", ["--r", "100"], "potential", {"kind": "harmonic", "n": 2}),
    *(("acw", ["--steps", "2"], "c", value) for value in ([4], {"c": 4}, True)),
    *(("phi-scan", _SCAN[:6], "r_points", value) for value in ([4], {"n": 4}, True)),
    *(("fourier-constants", ["--r", "1"], "out", value) for value in ([1], {"a": 1}, True)),
    ("acw", ["--c", "4", "--steps", "2"], "x0", None),
    ("resonance-run", _SCAN[:4], "eps", None),
], ids=["trig-forcing", "piecewise-forcing", "pinney-potential", "harmonic-potential",
        "float-array", "float-object", "float-true", "int-array", "int-object", "int-true",
        "out-array", "out-object", "out-true", "absent-x0", "absent-eps"])
def test_a_config_value_is_read_as_its_flag_text(command, flags, name, value, tmp_path,
                                                 monkeypatch, capsys):
    # a config value other than a string is its JSON text, and takes its
    # flag's conversion and checks; null is the flag left out.  A descriptor
    # object failed ("'dict' object has no attribute 'strip'"), and an array
    # or object for a number printed int()'s or float()'s TypeError text
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: value}))
    flag = [] if value is None else ["--" + name.replace("_", "-"), json.dumps(value)]
    results = []
    for where, argv in [("config", ["--config", str(config)]), ("flag", flag)]:
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)        # a relative --out lands here
        code = main([command, *flags, *argv])
        files = {str(f.relative_to(Path.cwd())): f.read_bytes()
                 for f in sorted(Path.cwd().rglob("*")) if f.is_file()}
        results.append((code, *capsys.readouterr(), files))
    assert results[0] == results[1]


@pytest.mark.parametrize("command, values, keys", [
    ("resonance-run", {"potential": "pinney", "forcing": "sin", "eps": 0.05, "periods": 10,
                       "x_0": 1.0}, '["x_0"]'),
    ("phi-scan", {"potential": "pinney", "forcing": "sin", "theta_pionts": 8},
     '["theta_pionts"]'),
    ("fourier-constants", {"r": [1], "zeta": 1, "config": "run.json", "eps": 0.1},
     '["config", "eps", "zeta"]'),
], ids=["misspelt-x0", "misspelt-theta-points", "keys-of-no-parameter"])
def test_an_unknown_config_key_is_a_usage_error(command, values, keys, tmp_path, capsys):
    # the keys were dropped: "x_0" ran from x0 = 0 (exit 0, final_x -0.6905)
    # and "theta_pionts" scanned 256 theta; as flags both exit 1
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", f"error: config: unknown keys {keys}\n")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered, tmp_path):
    # unbuffered, print raised BrokenPipeError out of main, a traceback;
    # buffered, the flush at exit printed "Exception ignored ... BrokenPipeError"
    # and exited 120.  The read end is closed before the child starts, so its
    # first write fails
    env = {k: v for k, v in _SOURCE_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "isores.cli", "fourier-constants",
                              "--r", "0", "--r", "1", "--r", "inf", "--out", str(tmp_path)],
                             stdout=write_end, stderr=subprocess.PIPE, text=True,
                             env=env, timeout=60)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert "Broken pipe" in run.stderr
    assert (tmp_path / "fourier_constants.csv").is_file()


@pytest.mark.parametrize("text", [None, "[1, 2]", "{\"eps\": "],
                         ids=["missing", "not-an-object", "invalid-json"])
def test_unreadable_config_is_a_usage_error(text, tmp_path, capsys):
    config = tmp_path / "run.json"
    if text is not None:
        config.write_text(text)
    assert main(["fourier-constants", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error: config: ")


_DEEP = '{"kind": ' + "[" * 20000 + "]" * 20000 + "}"


@pytest.mark.parametrize("flag, name, text, reason", [
    ("--forcing", "forcing", _DEEP, "maximum recursion depth exceeded"),
    ("--potential", "potential", _DEEP, "maximum recursion depth exceeded"),
    ("--config", "config", _DEEP, "maximum recursion depth exceeded"),
    ("--config", "config", '{"r": [' + "1" * 5000 + "]}", "Exceeds the limit (4300 digits)"),
], ids=["deep-forcing", "deep-potential", "deep-config", "long-integer-config"])
def test_malformed_json_is_one_error_line_naming_its_source(flag, name, text, reason,
                                                            tmp_path, capsys):
    # JSON nested past the recursion limit escaped main as a RecursionError,
    # and a 5000-digit integer printed the digit limit's message alone
    if flag == "--config":
        (tmp_path / "run.json").write_text(text)
        argv = ["fourier-constants", "--config", str(tmp_path / "run.json")]
    else:
        specs = {"--potential": "pinney", "--forcing": "sin", flag: text}
        argv = ["phi-scan", *(x for item in specs.items() for x in item)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and reason in err
    assert err.startswith(f"error: {name}: invalid JSON (")


def test_config_values_pass_through_the_flag_type(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"r": ["inf"]}))
    assert main(["fourier-constants", "--config", str(config)]) == 0
    row, = json.loads(capsys.readouterr().out)["constants"]
    assert row["r"] == "inf" and row["c0"] == pytest.approx(2 / math.pi, abs=1e-9)
    config.write_text(json.dumps({"potential": "pinney", "forcing": "sin",
                                  "r_points": "abc"}))
    assert main(["phi-scan", "--config", str(config)]) == 1
    assert "r_points: invalid literal" in capsys.readouterr().err
    config.write_text(json.dumps({"potential": "pinney", "r": 100}))
    assert main(["period-audit", "--config", str(config)]) == 1
    assert "r: must be a list" in capsys.readouterr().err
    # a descriptor object is read as its JSON text, as its flag gives it
    config.write_text(json.dumps({"potential": {"kind": "pinney"}, "r": [100]}))
    assert main(["period-audit", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert main(["period-audit", "--potential", '{"kind": "pinney"}', "--r", "100"]) == 0
    assert capsys.readouterr().out == stdout
    # a value its flag could not give: 10.9 ran 10 periods, true ran eps 1
    # and "false" turned the check on, all with exit 0
    run = {"potential": "pinney", "forcing": "sin", "eps": 0.05}
    for command, values, message in [
            ("resonance-run", {**run, "periods": 10.9}, "periods: invalid literal for int()"),
            ("resonance-run", {**run, "eps": True}, "eps: could not convert string to float: 'true'"),
            ("acw", {"c": 4, "check": "false"}, 'check: must be true or false, not "false"'),
            ("period-audit", {"potential": "pinney", "r": [1, False]},
             "r: could not convert string to float: 'false'")]:
        config.write_text(json.dumps(values))
        assert main([command, "--config", str(config)]) == 1
        assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", ["1e150", "1e200", "1e300"])
def test_period_audit_huge_amplitude_is_an_integration_error(r, capsys):
    # the starting-step rule raised OverflowError (1e150, 1e200) or
    # ZeroDivisionError (1e300) through the CLI as a traceback, and the
    # domain probes evaluated V, which overflowed with a RuntimeWarning
    assert main(["period-audit", "--potential", "pinney", "--r", r]) == 1
    assert capsys.readouterr().err.startswith(
        "error: integration failed: no starting step")


@pytest.mark.parametrize("argv, message", [
    (["--delta", "5"], "delta: must satisfy 0 < delta < pi"),
    (["--delta", "nan"], "delta: must satisfy 0 < delta < pi"),
    (["--delta", "0"], "delta: must satisfy 0 < delta < pi"),
    (["--x", "nan"], "x: every appendix audit point must be finite and positive"),
    (["--x", "inf"], "x: every appendix audit point must be finite and positive"),
    (["--x", "-1"], "x: every appendix audit point must be finite and positive"),
])
def test_limits_audit_delta_and_x_are_checked_by_name(argv, message, capsys):
    # delta = 5 audited over negative times and exited 0; nan delta or x
    # failed with "pinney: non-finite evaluation point"
    assert main(["limits-audit", "--potential", "pinney", "--I", "100", *argv]) == 1
    assert message in capsys.readouterr().err


# -- results and files of whole commands: one row a case ---------------------------------

def _ends_on_the_exact_solution(bound):
    # x'' + x = 0.05 sin t from rest is x = 0.025 (sin t - t cos t): after 200
    # periods x = -0.05 pi 200 and x' = 0
    def check(verdict):
        err = max(abs(verdict["final_x"] + 0.05 * math.pi * 200), abs(verdict["final_v"]))
        assert err <= bound, err
    return check


def _grows_in_full(verdict):
    assert verdict["verdict"] == "growing" and verdict["partial"] is False, verdict


_FORCED_200 = ["resonance-run", "--forcing", "sin", "--eps", "0.05", "--periods", "200"]
_STEP_4 = '{"kind":"piecewise","breaks":[0.3,1.9,3.4,5.0],"values":[0.7,-0.4,0.9,-0.8]}'
_SAMPLED_5 = '{"kind":"sampled","values":[0.2,1.0,-0.5,0.3,-0.9]}'
_ASYMMETRIC = "asymmetric:4:0.4444444444444444"


@pytest.mark.parametrize("argv, code, check, timeout", [
    # harmonic:1 reads its closed-form table, whose period map is an exact
    # translation (a chain of closed-form windows was 2.5e-13 off)
    ([*_FORCED_200, "--potential", "harmonic:1"], 0, _ends_on_the_exact_solution(1e-13),
     None),
    # the same equation on a centre that declares no flow: the DOP853 loop
    # on a linear centre (2.3e-8 off at rtol 1e-11)
    ([*_FORCED_200, "--potential", "asymmetric:1:1"], 0, _ends_on_the_exact_solution(2.5e-7),
     None),
    # a step's or sampled forcing's piece is read once per span, a path no
    # benchmark workload runs; both runs grow, and a slow one is killed
    (["resonance-run", "--potential", "pinney", "--eps", "0.05", "--periods", "200",
      "--x0", "1", "--forcing", _STEP_4], 0, _grows_in_full, 60),
    (["resonance-run", "--potential", "pinney", "--eps", "0.05", "--periods", "200",
      "--x0", "1", "--forcing", _SAMPLED_5], 0, _grows_in_full, 60),
    # x = v = 0 on the asymmetric kink never moves: bounded, where a loop
    # that restarted at every step never returned
    (["resonance-run", "--potential", _ASYMMETRIC, "--forcing", "sin", "--eps", "0",
      "--periods", "10"], 2, None, 30),
    # the Rofe-Beketov integrand squared xdot^2 + xddot^2, which overflowed
    # from an action of about 1e154 though the quotient is small: exit 1 with
    # "no starting step"
    *((["limits-audit", "--I", action], 0, None, None) for action in ("1e155", "1e200", "1e250")),
], ids=["harmonic-exact", "undeclared-linear-centre-exact", "pinney-step-grows",
        "pinney-sampled-grows", "rest-point-on-the-kink", "limits-audit-1e155",
        "limits-audit-1e200", "limits-audit-1e250"])
def test_scientific_results_set_the_exit_code(argv, code, check, timeout, tmp_path, capsys):
    assert _isores([*argv, "--out", str(tmp_path)], capsys, timeout) == (code, "")
    if check is not None:
        check(json.loads((tmp_path / "verdict.json").read_text()))


def _csv_rows(path):
    """The header and the cells of a CSV file, read without the writer."""
    header, *rows = path.read_text().splitlines()
    return header, [line.split(",") for line in rows]


def _min_abs_is_the_verdict_modulus(out, at_infinity=False):
    # min_modulus is the smallest abs of the table the CSV prints, the r = -1
    # block included
    _, rows = _csv_rows(out / "phi_field.csv")
    verdict = json.loads((out / "verdict.json").read_text())
    assert min(float(row[4]) for row in rows) == verdict["min_modulus"], verdict
    assert (verdict["argmin_r"] == "inf") == at_infinity, verdict


def _cells_print_as_themselves(out, columns):
    # every cell is the "%.17g" of its own float, and the infinity slice
    # (r = -1), where there is one, is the last block
    header, rows = _csv_rows(out / "phi_field.csv")
    assert header == "theta,r,re,im,abs"
    assert len(rows) == 256 * columns
    bad = [c for row in rows for c in row if c != "%.17g" % float(c)]
    assert not bad, bad[:5]
    r = [row[1] for row in rows]
    assert "-1" not in r[:-256]
    return rows


def _homogeneous_cells(out):
    # every r of an asymmetric centre shares one profile, so the writer
    # formats one column: the abs column holds no more strings than its rows
    rows = _cells_print_as_themselves(out, 60)
    assert len({row[4] for row in rows}) <= 256


def _pinney_step_cells(out):
    # no r column of a Pinney step scan repeats the one before
    rows = _cells_print_as_themselves(out, 61)
    assert [row[1] for row in rows[-256:]] == ["-1"] * 256


def _small_step_scan_cells(out):
    # each column holds the floats of the table of its amplitude alone, which
    # eval_phi reads at one theta; eval_phi's Carlson loop runs on that
    # theta's points only, so it may stop a step earlier, 6e-17 off
    import isores.phi
    from isores import IntegratorConfig, PiecewiseConst, pinney
    pot, cfg = pinney(), IntegratorConfig()
    f = PiecewiseConst((0.3, 1.9, 3.4, 5.0), (0.7, -0.4, 0.9, -0.8))
    _, rows = _csv_rows(out / "phi_field.csv")
    assert len(rows) == 7 * 14
    theta = np.array([float(row[0]) for row in rows[:7]])
    for k in range(14):
        block = rows[7 * k:7 * k + 7]
        r = float(block[0][1])
        r = math.inf if r == -1 else r
        alone = isores.phi._phi_table(pot, f, theta, [r], cfg)[:, 0]
        for row, th, z in zip(block, theta, alone):
            assert row[2:4] == ["%.17g" % z.real, "%.17g" % z.imag], (row, z)
            e = isores.phi.eval_phi(pot, f, th, r, cfg)
            assert max(abs(e.real - z.real), abs(e.imag - z.imag)) <= 1e-15, (row, e)


def _a_fixed_point_of_its_map(out):
    # Newton's tangent solve takes the steps of the 2-component period map,
    # so one solve_forced period from the reported (x, v) gives the reported
    # residual to the bit ('1+2*cos' is a0 = 1, a1 = 2)
    from isores import IntegratorConfig, TrigPoly, pinney, solve_forced
    r = json.loads((out / "periodic.json").read_text())
    end = solve_forced(pinney(), TrigPoly(a0=1.0, cos_coeffs=(2.0,)), 0.01, [r["x"], r["v"]],
                       0.0, 2 * math.pi, IntegratorConfig()).ys[-1]
    res = math.hypot(*(end - [r["x"], r["v"]]))
    assert res == r["residual"] and res <= 1e-10, (res, r)


@pytest.mark.parametrize("argv, check", [
    # no benchmark workload takes phi's knot-table path (a sloped forcing,
    # such as a sampled one, or a custom centre)
    (["phi-scan", "--potential", _ASYMMETRIC, "--forcing", _SAMPLED_5],
     _min_abs_is_the_verdict_modulus),
    # the minimum lies on the r = inf slice, the scan's last column
    (["phi-scan", "--potential", "pinney", "--theta-points", "64", "--r-points", "20",
      "--forcing", '{"kind":"trig","a0":0.2349050409322333,"a":[-0.7466015348994606],'
                   '"b":[-0.9964502755949307]}'],
     lambda out: _min_abs_is_the_verdict_modulus(out, at_infinity=True)),
    (["phi-scan", "--potential", _ASYMMETRIC, "--forcing", "sin"], _homogeneous_cells),
    (["phi-scan", "--potential", "pinney", "--forcing", _STEP_4], _pinney_step_cells),
    (["phi-scan", "--potential", "pinney", "--forcing", _STEP_4, "--theta-points", "7",
      "--r-points", "13"], _small_step_scan_cells),
    (["periodic-find", "--potential", "pinney", "--forcing", "1+2*cos", "--eps", "0.01",
      "--zero-theta", "3.141592653589793", "--zero-action", "0.337"],
     _a_fixed_point_of_its_map),
], ids=["sampled-scan-min-modulus", "min-modulus-at-r-inf", "homogeneous-scan-cells",
        "pinney-step-scan-cells", "small-step-scan-cells", "periodic-orbit-is-fixed"])
def test_the_files_a_command_writes(argv, check, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    check(tmp_path)


def _readme_block(heading, fence):
    """The first fenced block under a README heading, its fence "```bash"
    or "```python"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(f"## {heading}", 1)[1].split(f"{fence}\n", 1)[1].split("```", 1)[0]


_README_LINES = _readme_block("Command line", "```bash").replace("\\\n", " ").splitlines()


@pytest.mark.parametrize("line", _README_LINES)
def test_run_gives_what_main_prints_for_each_readme_example(line, run_is_main):
    report = run_is_main(shlex.split(line.partition("#")[0])[1:])
    if line.startswith("isores phi-scan") and "--out" in line:
        # the certificate: 256 theta on 60 r and r = inf, and the largest file
        assert report["stats"] == isores.phi.ScanStats(values=15616, columns=61)
        assert set(report["files"]) == {"phi_field.csv", "verdict.json"}
        assert report["files"]["phi_field.csv"] > 10 ** 6


def test_readme_examples_run_as_documented(monkeypatch, tmp_path):
    # every line of the "Command line" block exits with the code of its
    # "# exit N" comment, 0 otherwise, writing its --out files under
    # tmp_path, and the "Library quick tour" block runs; a numpy
    # RuntimeWarning (an overflow, say) fails either
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("Command line", "```bash").replace("\\\n", " ").splitlines()
    assert len(lines) == 8
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for line in lines:
            cmd, _, comment = line.partition("#")
            m = re.search(r"exit (\d+)", comment)
            program, *argv = shlex.split(cmd)
            assert program == "isores"
            assert main(argv) == (int(m.group(1)) if m else 0), cmd
        exec(compile(_readme_block("Library quick tour", "```python"),
                     "README.md quick tour", "exec"), {})
    assert (tmp_path / "out").is_dir()
