"""Seeded task streams for the four workloads.

A task is one ``isores`` CLI invocation plus the parameters its oracle
needs.  ``tasks(workload, seed)`` yields an endless stream; the same seed
gives the same stream, and the inputs inside a stream are distinct, so no
task can reuse a cache entry filled by an earlier one.  Task 0 of three
workloads is a fixed baseline case from the project's ROADMAP/README.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import oracles

TWO_PI = 2.0 * math.pi
PERIODS = 200

# Tasks per pass; wall_s is the time of one pass.  A pass keeps the task mix
# fixed (forced-run runs one task of each kind) so that passes of different
# seeds cost about the same.  scan-numeric's task 0 costs less than its
# other tasks (its kink times fall on quadrature bisection points), so it
# runs on its own before the passes and the --seconds budget.
PASS_LEN = {"scan-numeric": 2, "scan-piecewise": 2, "forced-run": 3, "shoot": 12}
SOLO_TASK0 = {"scan-numeric"}

# Seconds one pass takes at the reference CPU speed of speed.py (median
# pass times measured at commit 11e4c2e).  A run makes round(--seconds / PASS_S)
# passes, at least one: the number of tasks, and so `attempted` and
# `failed`, depends on --seconds alone and not on how fast the machine
# happens to be during the run.
PASS_S = {"scan-numeric": 7.97, "scan-piecewise": 9.09, "forced-run": 14.86, "shoot": 4.52}


def passes(workload, seconds):
    return max(1, round(seconds / PASS_S[workload]))


@dataclass(frozen=True)
class Task:
    index: int
    label: str
    argv: tuple
    ref: dict


def _trig_json(a0, a1, b1):
    return json.dumps({"kind": "trig", "a0": a0, "a": [a1], "b": [b1]})


def _scan_numeric(rng):
    # ROADMAP baseline: asymmetric(4, 4/9) with p = sin t.
    yield Task(0, "asymmetric:4:4/9 sin",
               ("phi-scan", "--potential", "asymmetric:4:0.4444444444444444",
                "--forcing", "sin"),
               {"alpha": 4.0, "beta": 0.4444444444444444, "coeffs": (0.0, 0.0, 1.0)})
    index = 1
    while True:
        # isochronous family alpha = 1/a^2, beta = 1/(2-a)^2 (period 2*pi).
        # On a in [1.15, 1.45] a scan costs about the same for every a: the
        # kink times pi*a/2 avoid the bisection points of the quadrature
        # (a = 1/2 and 3/2 need 4x fewer points) and the near-symmetric
        # a ~ 1 (2x more points); sqrt(alpha) stays off the integers >= 2.
        a = rng.uniform(1.15, 1.45)
        alpha, beta = 1.0 / a ** 2, 1.0 / (2.0 - a) ** 2
        coeffs = (rng.uniform(-0.3, 0.3), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        # skip forcings whose exact |Phi| comes within 1e-2 of zero, where the
        # grid verdict and the continuous one could disagree
        if oracles.asym_min_modulus(alpha, beta, coeffs) < 1e-2:
            continue
        yield Task(index, f"asymmetric a={a:.4f}",
                   ("phi-scan", "--potential", f"asymmetric:{alpha!r}:{beta!r}",
                    "--forcing", _trig_json(*coeffs)),
                   {"alpha": alpha, "beta": beta, "coeffs": coeffs})
        index += 1


def _scan_piecewise(rng):
    index = 0
    while True:
        # four pieces, each at least 0.3 long, levels in [-1, 1]
        cuts = sorted(rng.uniform(0.0, TWO_PI - 1.7) for _ in range(3))
        start = rng.uniform(0.0, 0.5)
        breaks = [start] + [start + c + 0.3 * (k + 1) for k, c in enumerate(cuts)]
        values = [rng.uniform(-1.0, 1.0) for _ in breaks]
        desc = json.dumps({"kind": "piecewise", "breaks": breaks, "values": values})
        yield Task(index, "pinney piecewise",
                   ("phi-scan", "--potential", "pinney", "--forcing", desc),
                   {"breaks": breaks, "values": values})
        index += 1


def _forced_task(index, potential, forcing, eps, x0, v0, verdict):
    label = f"{potential} {forcing} eps={eps:.4f}"
    argv = ("resonance-run", "--potential", "pinney" if potential == "pinney" else "harmonic:1",
            "--forcing", forcing, "--eps", repr(eps), "--periods", str(PERIODS),
            "--x0", repr(x0), "--v0", repr(v0))
    return Task(index, label, argv,
                {"potential": potential, "forcing": forcing, "eps": eps, "x0": x0,
                 "v0": v0, "periods": PERIODS, "verdict": verdict})


def _forced_run(rng):
    # ROADMAP baseline: Pinney, sin, eps = 0.05, from (1, 0).
    yield _forced_task(0, "pinney", "sin", 0.05, 1.0, 0.0, "growing")
    index = 1
    while True:
        kind = index % 3
        if kind == 0:   # p = sin t on Pinney is resonant (a1^2 + b1^2 > 9 a0^2)
            yield _forced_task(index, "pinney", "sin", rng.uniform(0.04, 0.06),
                               rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1), "growing")
        else:           # x'' + x = eps sin t grows; eps cos 2t stays bounded
            forcing, verdict = ("sin", "growing") if kind == 1 else ("cos2t", "bounded")
            yield _forced_task(index, "harmonic", forcing, rng.uniform(0.02, 0.08),
                               rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), verdict)
        index += 1


def _shoot(rng):
    # README example: p = 1 + 2 cos t, zero of Phi at theta = pi, I ~ 0.337.
    yield Task(0, "pinney 1+2*cos",
               ("periodic-find", "--potential", "pinney", "--forcing", "1+2*cos",
                "--eps", "0.01", "--zero-theta", "3.141592653589793",
                "--zero-action", "0.337"),
               {"coeffs": (1.0, 2.0, 0.0), "eps": 0.01})
    # p = s (1 + 2 cos(t - phi)) has its Phi zero at theta* = pi - phi.
    # seed_from_phi_zero seeds at angle -zero_theta, but the periodic orbit
    # sits at angle +theta*: with zero_theta = theta* Newton leaves the domain
    # (exit 1) for most phi, and only phi = 0, where pi = -pi mod 2 pi, hides
    # this.  Task 1 keeps that defect visible; the seeded tasks pass -theta*
    # so that each of them measures a converging Newton solve.
    yield _shoot_task(1, 1.0, 1.5, 0.01, math.pi - 1.5)
    index = 2
    while True:
        s, phi, eps = rng.uniform(0.5, 1.5), rng.uniform(0.0, TWO_PI), rng.uniform(0.005, 0.02)
        yield _shoot_task(index, s, phi, eps, math.fmod(math.pi + phi, TWO_PI))
        index += 1


def _shoot_task(index, s, phi, eps, zero_theta):
    coeffs = (s, 2.0 * s * math.cos(phi), 2.0 * s * math.sin(phi))
    return Task(index, f"pinney s={s:.3f} phi={phi:.3f} zero_theta={zero_theta:.3f}",
                ("periodic-find", "--potential", "pinney", "--forcing", _trig_json(*coeffs),
                 "--eps", repr(eps), "--zero-theta", repr(zero_theta),
                 "--zero-action", "0.337"),
                {"coeffs": coeffs, "eps": eps})


_STREAMS = {"scan-numeric": _scan_numeric, "scan-piecewise": _scan_piecewise,
            "forced-run": _forced_run, "shoot": _shoot}


def tasks(workload, seed):
    """Endless, reproducible task stream of one workload."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))
