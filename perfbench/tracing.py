"""Per-layer tracing from outside the program.

The traced run rebinds the public entry points of each ``isores`` module,
at every module that imported them by name, to wrappers that record spans
(name, start, end, parent, task).  Per-call callbacks (forcing ``eval``,
``RawSolution.eval``, each potential instance's derivative callbacks and the
quadrature integrand) are aggregated into counters instead.  A span's self
time is its duration minus the time covered by its child spans and by the
outermost counters that ran directly inside it.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import isores
from isores import (acw, autonomous, cli, dynamics, forcing, integrate, io,
                    phi, potentials)
from isores.errors import IntegrationError

MODULES = (isores, acw, autonomous, cli, dynamics, forcing, integrate, io, phi,
           potentials)

# (module, function) pairs whose calls become spans named "<module>.<function>".
SPANS = [
    (cli, "main"),
    (io, "write_csv"), (io, "write_json"),
    (phi, "phi_scan"), (phi, "resonance_verdict"), (phi, "write_phi_csv"),
    (autonomous, "psi_solution"), (autonomous, "minimal_period"),
    (autonomous, "from_action_angle"), (autonomous, "to_action_angle"),
    (integrate, "integrate_ode"), (integrate, "integrate_forced"),
    (integrate, "integrate_autonomous"),
    (dynamics, "resonance_run"), (dynamics, "stroboscopic_map"),
    (dynamics, "find_periodic_solution"), (dynamics, "seed_from_phi_zero"),
    (forcing, "forcing_from_descriptor"), (forcing, "l1_norm"),
    (potentials, "potential_from_descriptor"),
]
FORCING_CLASSES = (forcing.TrigPoly, forcing.PiecewiseConst, forcing.Sampled)
FACTORIES = ("harmonic", "pinney", "asymmetric")

# lru caches whose statistics the traced run records
CACHES = {"phi._psi_fourier": phi._psi_fourier, "forcing.l1_norm": forcing.l1_norm,
          **{f"potentials.{name}": getattr(potentials, name) for name in FACTORIES}}


def clear_caches():
    for cache in CACHES.values():
        cache.cache_clear()


def _points(args):
    return int(np.size(args[-1]))


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, task, covered_s]
        self.stack = []
        self.counters = defaultdict(lambda: [0, 0, 0.0])   # calls, points, s
        self.counts = defaultdict(lambda: defaultdict(int))   # task -> key -> n
        self.task = -1
        self._counter_depth = 0
        self._undo = []

    def add(self, key, value):
        self.counts[self.task][key] += value

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.task, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            result = error = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]
                if after is not None:
                    after(args, result, error)
        return wrapper

    def counter(self, name, fn, points=_points):
        """Counters wrap leaf callbacks only: no span may open inside one."""
        totals = self.counters[name]

        def wrapper(*args, **kwargs):
            outermost = self._counter_depth == 0
            self._counter_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._counter_depth -= 1
                totals[0] += 1
                totals[1] += points(args)
                totals[2] += elapsed
                if outermost and self.stack:
                    self.spans[self.stack[-1]][5] += elapsed
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, fn, new):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._rebind(mod, attr, new)

    def install(self):
        for mod, fname in SPANS:
            fn = getattr(mod, fname)
            name = f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"
            self._rebind_everywhere(fn, self.span(name, fn, self._after(name)))

        quad = phi.adaptive_complex_quad
        counted = self.counter

        def traced_quad(g, segments, *args, **kwargs):
            return quad(counted("phi.integrand", g), segments, *args, **kwargs)
        self._rebind_everywhere(quad, self.span("phi.adaptive_complex_quad", traced_quad))

        for cls in FORCING_CLASSES:
            self._rebind(cls, "eval", self.counter("forcing.eval", cls.eval))
        raw_eval = integrate.RawSolution.eval
        self._rebind(integrate.RawSolution, "eval", self.counter("integrate.eval", raw_eval))

        for name in FACTORIES:
            self._rebind_everywhere(getattr(potentials, name),
                                    self._instrumented_factory(getattr(potentials, name)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _instrumented_factory(self, factory):
        def wrapper(*args):
            pot = factory(*args)
            for attr in ("_dv", "_d2v"):
                callback = getattr(pot, attr)
                if not getattr(callback, "traced", False):
                    counted = self.counter("potentials.deriv", callback)
                    counted.traced = True
                    object.__setattr__(pot, attr, counted)
            return pot
        return wrapper

    def _after(self, name):
        """Counts taken from a span's arguments or result, outside its time."""
        if name == "integrate.integrate_ode":
            def after(args, raw, error):
                if isinstance(error, IntegrationError):
                    self.add("integrate.failures", 1)
                    raw = error.trajectory
                if raw is not None:
                    for key in ("n_steps", "nfev", "n_segments"):
                        self.add(f"integrate.{key}", raw.stats[key])
            return after
        if name == "autonomous.psi_solution":
            def after(args, result, error):
                if args[1] > 0:
                    self.add("autonomous.psi_solves", 1)
            return after
        if name == "phi.phi_scan":
            def after(args, field, error):
                if field is not None:
                    n = field.values.size
                    if field.infinity_slice is not None:
                        n += field.infinity_slice.size
                    self.add("phi.values", n)
            return after
        if name in ("io.write_csv", "io.write_json"):
            def after(args, path, error):
                if path is not None:
                    self.add("io.bytes_written", os.path.getsize(path))
            return after
        return None

    # -- reporting ----------------------------------------------------------

    def total(self, key, task=None):
        if task is not None:
            return self.counts[task][key]
        return sum(c[key] for c in self.counts.values())

    def span_count(self, name, task=None):
        return sum(1 for s in self.spans
                   if s[0] == name and (task is None or s[4] == task))

    def write_spans(self, path, origin):
        with open(path, "w") as fh:
            for name, start, end, parent, task, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "task": task}) + "\n")

    def layer_metrics(self, newton_iters, ref_err, phi_err, overhead_s):
        """Per-layer metrics over the traced pass.  newton_iters maps task
        index -> Newton iterations reported by periodic-find."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        for s, d in zip(spans, dur):
            self_s[s[0].split(".")[0]] += d - s[5]
            inclusive[s[0]] += d
        quad_self = sum(d - s[5] for s, d in zip(spans, dur)
                        if s[0] == "phi.adaptive_complex_quad")

        # resonance_run time outside its integrate.* children
        run_children = defaultdict(float)
        for s, d in zip(spans, dur):
            if s[3] >= 0 and s[0].startswith("integrate.") \
                    and spans[s[3]][0] == "dynamics.resonance_run":
                run_children[s[3]] += d
        windows = sum(1 for s in spans if s[0] == "integrate.integrate_forced"
                      and s[3] >= 0 and spans[s[3]][0] == "dynamics.resonance_run")
        window_post = sum(d - run_children[i] for i, (s, d) in enumerate(zip(spans, dur))
                          if s[0] == "dynamics.resonance_run")

        steps = self.total("integrate.n_steps")
        values = self.total("phi.values")
        quad_points = self.counters["phi.integrand"][1]
        maps = self.span_count("dynamics.stroboscopic_map")
        iters = sum(newton_iters.values())
        # per Newton solve: 1 initial map, then per iteration 4 Jacobian maps
        # plus 1 accepted line-search map; any further map is a rejection
        rejects = sum(max(0, self.span_count("dynamics.stroboscopic_map", t) - 1 - 5 * n)
                      for t, n in newton_iters.items())
        info = CACHES["phi._psi_fourier"].cache_info()
        lookups = info.hits + info.misses

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counters
        return {
            "integrate.calls": self.span_count("integrate.integrate_ode"),
            "integrate.steps": steps,
            "integrate.nfev": self.total("integrate.nfev"),
            "integrate.segments": self.total("integrate.n_segments"),
            "integrate.self_s": self_s["integrate"],
            "integrate.us_per_step": ratio(1e6 * inclusive["integrate.integrate_ode"], steps),
            "integrate.eval_points": c["integrate.eval"][1],
            "integrate.eval_s": c["integrate.eval"][2],
            "integrate.failures": self.total("integrate.failures"),
            "integrate.ref_err": ref_err,
            "forcing.eval_calls": c["forcing.eval"][0],
            "forcing.eval_points": c["forcing.eval"][1],
            "forcing.eval_s": c["forcing.eval"][2],
            "potentials.deriv_calls": c["potentials.deriv"][0],
            "potentials.deriv_s": c["potentials.deriv"][2],
            "autonomous.psi_solves": self.total("autonomous.psi_solves"),
            "autonomous.psi_s": inclusive["autonomous.psi_solution"],
            "autonomous.period_calls": self.span_count("autonomous.minimal_period"),
            "autonomous.action_angle_s": inclusive["autonomous.from_action_angle"]
            + inclusive["autonomous.to_action_angle"],
            "phi.values": values,
            "phi.quad_calls": self.span_count("phi.adaptive_complex_quad"),
            "phi.quad_points": quad_points,
            "phi.points_per_value": ratio(quad_points, values),
            "phi.quad_self_s": quad_self,
            "phi.fourier_cache_hit_ratio": ratio(info.hits, lookups),
            "phi.max_abs_err": phi_err,
            "dynamics.windows": windows,
            "dynamics.window_post_s": window_post,
            "dynamics.strobe_maps": maps,
            "dynamics.newton_iters": iters,
            "dynamics.maps_per_iter": ratio(maps, iters),
            "dynamics.linesearch_rejects": rejects,
            "cli.self_s": self_s["cli"],
            "io.bytes_written": self.total("io.bytes_written"),
            "io.write_s": inclusive["io.write_csv"] + inclusive["io.write_json"],
            "trace.overhead_s": overhead_s,
        }
