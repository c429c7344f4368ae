"""The truth table: known answers to "is this forced oscillator resonant?",
each checked against every command that speaks to it, through cli.main.

A command's exit code gives the answer its evidence supports, read by
inverting the command's row of cli.EXIT_CODES.  That answer may be None
(the command supports nothing), but it must never contradict the truth.
A row the package answers wrongly today carries a strict xfail naming the
ROADMAP item that fixes it: the fix flips the mark, so the mark must go.
"""

import json
import math

import pytest

import isores as iso
from isores.cli import EXIT_CODES, main, parse_forcing, parse_potential
from isores.integrate import IntegratorConfig, State

RESONANT, NOT_RESONANT = "resonant", "not resonant"
METHODS = {"phi-scan": "phi-grid", "resonance-run": "forced-run",
           "periodic-find": "periodic-orbit"}
# what each command prints of its answer, as the answer it supports
PRINTED = {
    "phi-scan": lambda d: RESONANT if d["certified_resonant"] else None,
    "resonance-run": lambda d: {"growing": RESONANT, "bounded": NOT_RESONANT}.get(d["verdict"]),
    "periodic-find": lambda d: NOT_RESONANT if d["converged"] else None,
}

COROLLARY = ("phi.corollary_bound: on Pinney, p = a0 + a1 cos t + b1 sin t resonates iff "
             "|p1| > 3|a0|")
LINEAR = "x'' + x = eps p(t) resonates iff p's first harmonic is nonzero (exact flow)"
DANCER = ("runs from six angles at r = 50 stay bounded over 3000 periods (ROADMAP item 20); "
          "the theorem behind it is not yet checked against the paper")

# p = 1 + 2 cos(t - 1): its Phi zero is at theta* = pi - 1, r* = 1.0653340752
SHIFTED = f"1+{2 * math.cos(1.0)!r}*cos+{2 * math.sin(1.0)!r}*sin"
SHIFTED_ZERO = {"zero_theta": math.pi - 1.0,
                "zero_action": iso.action_of_amplitude(iso.pinney(), 1.0653340752)}
README_ZERO = {"zero_theta": math.pi, "zero_action": 0.337}

# name, centre, p, eps, start (flag values), truth, source, {command: xfail item or None}
CASES = [
    ("pinney-sin", "pinney", "sin", 0.05, {"x0": 1.0, "v0": 0.0}, RESONANT, COROLLARY,
     {"phi-scan": None, "resonance-run": None}),
    ("pinney-1+2cos", "pinney", "1+2*cos", 0.01, README_ZERO, NOT_RESONANT, COROLLARY,
     {"phi-scan": 31, "periodic-find": None}),
    ("pinney-0.5+cos", "pinney", "0.5+cos", None, {}, NOT_RESONANT, COROLLARY,
     {"phi-scan": 31}),
    ("harmonic1-sin-from-rest", "harmonic:1", "sin", 0.05, {"x0": 0.0, "v0": 0.0}, RESONANT,
     LINEAR, {"phi-scan": None, "resonance-run": None}),
    # -(eps/2) t cos t: the amplitude falls for about 8000 time units first
    ("harmonic1-sin-from-200", "harmonic:1", "sin", 0.05, {"x0": 200.0, "v0": 0.0}, RESONANT,
     LINEAR, {"resonance-run": 21}),
    ("harmonic1-cos2t", "harmonic:1", "cos2t", 0.05, {"x0": 1.0, "v0": 0.0}, NOT_RESONANT,
     LINEAR, {"phi-scan": None, "resonance-run": None, "periodic-find": None}),
    # a zero-free Phi of winding 0
    ("asymmetric-0.3+cos2t", "asymmetric:4:0.4444444444444444", "0.3+cos2t", None, {},
     NOT_RESONANT, DANCER, {"phi-scan": 20}),
    # the seed --zero-theta makes sits at -theta* = 4.1416; the orbit at 2.1423;
    # the scan's grid misses the zero (min |Phi| 0.0295) and certifies it
    ("pinney-1+2cos(t-1)", "pinney", SHIFTED, 0.01, SHIFTED_ZERO, NOT_RESONANT, COROLLARY,
     {"phi-scan": 31, "periodic-find": 3}),
]

ROWS = [pytest.param(command, case, id=f"{case[0]}:{command}", marks=[
            pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")
        ] if item else []) for case in CASES for command, item in case[7].items()]


def _argv(command, centre, p, eps, start):
    flags = {"potential": centre, "forcing": p}
    if command != "phi-scan":
        flags.update(eps=eps, **start)
    if command == "resonance-run":
        flags["periods"] = 200
    return [command, *(x for name, value in flags.items()
                       for x in ("--" + name.replace("_", "-"), str(value)))]


def _supports(method, code):
    """The answer a method's exit code says its evidence supports."""
    return {c: supports for (m, supports), c in EXIT_CODES.items() if m == method}[code]


def _angle_gap(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def test_exit_codes_are_one_to_one_for_each_method():
    assert EXIT_CODES == {
        ("phi-grid", RESONANT): 0, ("phi-grid", None): 2,
        ("forced-run", RESONANT): 0, ("forced-run", NOT_RESONANT): 2, ("forced-run", None): 3,
        ("periodic-orbit", NOT_RESONANT): 0, ("periodic-orbit", None): 2}
    for method in METHODS.values():
        codes = [c for (m, _), c in EXIT_CODES.items() if m == method]
        assert len(set(codes)) == len(codes)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0])
def test_a_truth_follows_from_its_source(case):
    _, centre, p, _, _, truth, source, _ = case
    f = parse_forcing(p)
    if source == COROLLARY:
        (a1,), (b1,) = f.cos_coeffs, f.sin_coeffs
        assert iso.corollary_bound(f.a0, a1, b1).resonant == (truth == RESONANT)
    elif source == LINEAR:
        assert centre == "harmonic:1"
        assert (iso.fourier_coefficient(f, 1) != 0) == (truth == RESONANT)


@pytest.mark.parametrize("command, case", ROWS)
def test_no_answer_contradicts_the_truth(command, case, capsys):
    _, centre, p, eps, start, truth, _, _ = case
    code = main(_argv(command, centre, p, eps, start))
    printed = json.loads(capsys.readouterr().out)
    supports = _supports(METHODS[command], code)
    assert PRINTED[command](printed) == supports
    assert supports in (None, truth)
    if "zero_theta" in start:
        # the seed sits at the angle of the orbit Newton finds from it
        pot, cfg = parse_potential(centre), IntegratorConfig()
        seed = iso.seed_from_phi_zero(pot, start["zero_theta"], start["zero_action"], cfg)
        orbit = State(printed["x"], printed["v"])
        assert _angle_gap(iso.to_action_angle(pot, seed, cfg).theta,
                          iso.to_action_angle(pot, orbit, cfg).theta) < 0.01


@pytest.mark.parametrize("command, case", [pytest.param(*row.values, id=row.id) for row in ROWS])
def test_run_gives_what_main_prints(command, case, run_is_main):
    _, centre, p, eps, start, _, _, _ = case
    report = run_is_main(_argv(command, centre, p, eps, start))
    stats = report["stats"]
    assert report["files"] == {}
    if command == "phi-scan":
        assert stats.values == 256 * stats.columns
    elif command == "resonance-run":
        assert stats.windows == 200
    else:   # the seed, then a candidate accepted per pass (but perhaps the last) or halved
        assert stats.solves - stats.passes - stats.halvings in (0, 1)
