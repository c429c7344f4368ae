"""Command-line surface: scans, long runs, audits and data export.

phi-scan, resonance-run and periodic-find answer with an Evidence, and
EXIT_CODES maps its (method, supports) to the exit code; the other commands
exit 0, and every command 1 on a usage, configuration, IO or numerical error.
run(argv) does all that main does but print the payload, and returns it
with a report: the stats of the answer's record and each --out file's size.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import acw as acw_mod
from ._record import astuple, record
from . import autonomous, dynamics, phi as phi_mod
from .errors import ConfigError, IsoresError
from .forcing import forcing_from_descriptor
from .integrate import IntegratorConfig, State
from .io import format_rows, write_csv, write_json
from .potentials import appendix_audit, potential_from_descriptor

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"([+-]?)(?:({_NUMBER})?\*)?(sin|cos)(\d*)t?$")
_TOKEN_RE = re.compile(r"[+-]?(?:[^+-]|(?<=[\d.][eE])[+-])+")    # not at an exponent's sign
_STRAY_RE = re.compile(r"(?<![\d.][eE])[+-](?=[+-]|$)")    # a sign that starts no token


def _json_value(name, text):
    """The value JSON text spells, else (bad syntax, nesting past the recursion
    limit, an integer past the digit limit) a ConfigError naming name."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:     # JSONDecodeError is a ValueError
        raise ConfigError(f"{name}: invalid JSON ({exc})") from None


def parse_forcing(text: str):
    """A forcing from its JSON descriptor or from the CLI shorthand of a
    trigonometric polynomial ('sin', 'cos2t', '0.1+1*cos+0.5*sin2t'); a
    constant is a number, and a cos or sin term of harmonic 0 or a sign that
    starts no term ('sin+') is a ConfigError."""
    text = text.strip()
    if text.startswith("{"):
        return forcing_from_descriptor(_json_value("forcing", text))
    s = text.replace(" ", "")
    if not s:
        raise ConfigError("forcing: empty shorthand")
    stray = _STRAY_RE.search(s)
    if stray:
        raise ConfigError(f"forcing: stray sign {stray.group()!r} at {stray.start() + 1} in {s!r}")
    tokens = _TOKEN_RE.findall(s)
    a0 = 0.0
    a: dict[int, float] = {}
    b: dict[int, float] = {}
    for tok in tokens:
        m = _TERM_RE.fullmatch(tok)
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            coef = float(m.group(2)) if m.group(2) else 1.0
            k = int(m.group(4)) if m.group(4) else 1
            if k == 0:
                raise ConfigError(f"forcing: term {tok!r} has harmonic 0; "
                                  "write a constant as a number")
            target = a if m.group(3) == "cos" else b
            target[k] = target.get(k, 0.0) + sign * coef
        else:
            try:
                a0 += float(tok)
            except ValueError:
                raise ConfigError(f"forcing: cannot parse term {tok!r}") from None
    kmax = max(list(a) + list(b) + [0])
    return forcing_from_descriptor({"kind": "trig", "a0": a0,
                                    "a": [a.get(k, 0.0) for k in range(1, kmax + 1)],
                                    "b": [b.get(k, 0.0) for k in range(1, kmax + 1)]})


def parse_potential(text: str):
    """'pinney', 'harmonic:n', 'asymmetric:alpha:beta', or a JSON object."""
    text = text.strip()
    if text.startswith("{"):
        return potential_from_descriptor(_json_value("potential", text))
    kind, *values = text.split(":")
    names = {"pinney": (), "harmonic": ("n",), "asymmetric": ("alpha", "beta")}.get(kind)
    if names is None or len(values) != len(names):
        raise ConfigError(f"potential: cannot parse {text!r}")
    try:
        values = [float(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"potential: cannot parse {text!r} ({exc})") from None
    return potential_from_descriptor({"kind": kind, **dict(zip(names, values))})


def _json_rows(header, rows):
    """Table rows as JSON objects, a non-finite float as its CSV text ("inf",
    "-inf", "nan"): strict JSON has no token for it."""
    cell = lambda v: v if math.isfinite(v) else format_rows([v]).strip()
    return [{key: cell(v) for key, v in zip(header, row)} for row in rows]


def _write_table(out_path, stem, header, rows, fmt):
    """Tabular export honoring --format: csv (default) or json rows."""
    if fmt == "json":
        return write_json(out_path / f"{stem}.json", _json_rows(header, rows))
    return write_csv(out_path / f"{stem}.csv", header, rows)


def _table_format(text):
    if text not in ("csv", "json"):
        raise ValueError(f"must be csv or json, not {text!r}")
    return text


@record
class Evidence:
    """A scientific command's answer; EXIT_CODES gives its exit code."""
    method: str             # "phi-grid", "forced-run" or "periodic-orbit"
    supports: str | None    # "resonant", "not resonant", or None: neither
    detail: dict            # what the command prints and writes to JSON
    stats: object = None    # the stats of the record it rests on


EXIT_CODES = {      # (method, supports) -> exit code, one-to-one for each method
    ("phi-grid", "resonant"): 0, ("phi-grid", None): 2,
    ("forced-run", "resonant"): 0, ("forced-run", "not resonant"): 2, ("forced-run", None): 3,
    ("periodic-orbit", "not resonant"): 0, ("periodic-orbit", None): 2}


def _answer(p, name, evidence):
    """(detail, exit code, stats) of evidence, its detail written to p.out/name under --out."""
    if p.out is not None:
        p.files.append(write_json(p.out / name, evidence.detail))
    return evidence.detail, EXIT_CODES[evidence.method, evidence.supports], evidence.stats


def cmd_phi_scan(p):
    # every centre the CLI builds declares its psi and Psi, so no tolerance is read
    r_grid = phi_mod.default_r_grid(p.r_max, p.r_points)
    field = phi_mod.phi_scan(p.potential, p.forcing, p.theta_points, r_grid, IntegratorConfig())
    verdict = phi_mod.resonance_verdict(field, p.threshold)
    if p.out is not None:
        p.files.append(phi_mod.write_phi_csv(field, p.out / "phi_field.csv"))
    theta, r = verdict.argmin
    supports = "resonant" if verdict.certified_resonant else None
    return _answer(p, "verdict.json", Evidence("phi-grid", supports, {
        "certified_resonant": verdict.certified_resonant, "min_modulus": verdict.min_modulus,
        "argmin_theta": theta, "argmin_r": "inf" if math.isinf(r) else r,
        "threshold": verdict.threshold, "coverage": verdict.coverage}, field.stats))


def cmd_resonance_run(p):
    diag = dynamics.resonance_run(p.potential, p.forcing, p.eps, State(p.x0, p.v0),
                                  p.periods, p.cfg)
    if diag.partial:        # stderr: the artifacts keep no stop_reason
        print(f"partial run: {diag.stop_reason}", file=sys.stderr)
    n = len(diag.window_sup)
    if p.out is not None:
        p.files.append(write_csv(
            p.out / "diagnostics.csv", ["window_index", "window_sup", "sqrtE", "envelope"],
            np.column_stack([np.arange(n), diag.window_sup, diag.energy_sqrt[1:],
                             diag.envelope_bound[1:]])))
    supports = {"growing": "resonant", "bounded": "not resonant"}.get(diag.verdict)
    return _answer(p, "verdict.json", Evidence("forced-run", supports, {
        "verdict": diag.verdict, "eps": diag.eps, "n_periods": diag.n_periods,
        "partial": diag.partial, "final_x": diag.final_state.x, "final_v": diag.final_state.v,
        "max_window_sup": float(np.max(diag.window_sup)) if n else None}, diag.stats))


def cmd_acw(p):
    s0 = acw_mod.AcwState(p.x0, p.y0)
    orbit = acw_mod.acw_orbit(p.c, s0, p.steps)
    if p.out is not None:
        p.files.append(write_csv(p.out / "acw_orbit.csv", ["n", "x", "y", "xy"], [
            (n, s.x, s.y, acw_mod.acw_first_integral(s)) for n, s in enumerate(orbit)]))
    summary = {"c": p.c, "steps": p.steps, "x_final": orbit[-1].x,
               "y_final": orbit[-1].y,
               "first_integral": acw_mod.acw_first_integral(orbit[-1])}
    if p.check:
        chk = acw_mod.acw_numeric_check(p.c, s0, p.cfg)
        summary["numeric_check_max_err"] = chk.max_err
    return summary, 0, None


def cmd_period_audit(p):
    rows = [(r, autonomous.minimal_period(p.potential, r, p.cfg)) for r in p.r]
    if p.out is not None:
        p.files.append(_write_table(p.out, "periods", ["r", "period"], rows, p.format))
    return {"periods": _json_rows(["r", "period"], rows)}, 0, None


def cmd_periodic_find(p):
    if (p.zero_theta is None) != (p.zero_action is None):
        raise ConfigError("zero_theta, zero_action: give both or neither")
    if p.zero_theta is not None:
        seed = dynamics.seed_from_phi_zero(p.potential, p.zero_theta, p.zero_action, p.cfg)
    else:
        seed = State(p.x0, p.v0)
    result = dynamics.find_periodic_solution(p.potential, p.forcing, p.eps, seed, p.cfg)
    supports = "not resonant" if result.converged else None
    return _answer(p, "periodic.json", Evidence("periodic-orbit", supports, {
        "converged": result.converged, "x": result.state.x, "v": result.state.v,
        "residual": result.residual, "iterations": result.iterations,
        "message": result.message}, result.stats))


def cmd_limits_audit(p):
    records = autonomous.bouncing_limit_audit(p.potential, p.I, p.cfg, delta=p.delta)
    header = ["I", "sup_x_defect", "sup_dxdI_defect", "dxdI_at_0"]
    rows = [(rec.action, rec.sup_x_defect, rec.sup_dxdI_defect, rec.dxdI_at_0)
            for rec in records]
    payload = {"limits": _json_rows(header, rows)}
    if p.out is not None:
        p.files.append(_write_table(p.out, "bouncing", header, rows, p.format))
    if p.potential.singular_left:
        audit = appendix_audit(p.potential, p.x)
        payload["appendix"] = {
            "x": list(audit.x), "iso_residuals": list(audit.iso_residuals),
            "slope_defects": list(audit.slope_defects),
            "slope_limit": audit.slope_limit}
        if p.out is not None:
            p.files.append(_write_table(p.out, "appendix", ["x", "iso_residual", "slope_defect"],
                                        np.column_stack([audit.x, audit.iso_residuals,
                                                         audit.slope_defects]), p.format))
    return payload, 0, None


def cmd_fourier_constants(p):
    header = ["r", "c0", "d_plus", "d_minus"]     # PinneyConstants' fields after r
    rows = [(r, *astuple(phi_mod.pinney_fourier_constants(r))) for r in p.r]
    if p.out is not None:
        p.files.append(_write_table(p.out, "fourier_constants", header, rows, p.format))
    return {"constants": _json_rows(header, rows)}, 0, None


# Every parameter of a command, declared once as (name, type, default): the
# flag is --name with "_" as "-", and a list default makes it repeatable.
_REQUIRED = object()
_POTENTIAL = ("potential", parse_potential, _REQUIRED)
_FORCING = ("forcing", parse_forcing, _REQUIRED)
_TOLERANCES = tuple((name, float, getattr(IntegratorConfig, name))
                    for name in ("rel_tol", "abs_tol"))   # IntegratorConfig's defaults
_OUT = ("out", Path, None)
_FORMAT = ("format", _table_format, "csv")

COMMANDS = {
    "phi-scan": (cmd_phi_scan, "scan |Phi_p| over the cylinder", [
        _POTENTIAL, _FORCING, ("theta_points", int, 256), ("r_max", float, 1e3),
        ("r_points", int, 60), ("threshold", float, 1e-4), _OUT]),
    "resonance-run": (cmd_resonance_run, "long forced run with growth verdict", [
        _POTENTIAL, _FORCING, ("eps", float, _REQUIRED), ("periods", int, 100),
        ("x0", float, 0.0), ("v0", float, 0.0), *_TOLERANCES, _OUT]),
    "acw": (cmd_acw, "orbit of the multiplicative Pinney map; --check "
                     "cross-validates it against direct integration", [
        ("c", float, _REQUIRED), ("x0", float, 1.0), ("y0", float, 0.0),
        ("steps", int, 10), ("check", bool, False), *_TOLERANCES, _OUT]),
    "period-audit": (cmd_period_audit, "measure minimal periods", [
        _POTENTIAL, ("r", float, [1.0]), *_TOLERANCES, _OUT, _FORMAT]),
    "periodic-find": (cmd_periodic_find, "Newton shooting for a periodic "
                      "solution, seeded at (x0, v0) or, given --zero-theta and "
                      "--zero-action, at that zero of Phi", [
        _POTENTIAL, _FORCING, ("eps", float, _REQUIRED), ("x0", float, 1.0),
        ("v0", float, 0.0), ("zero_theta", float, None), ("zero_action", float, None),
        *_TOLERANCES, _OUT]),
    "limits-audit": (cmd_limits_audit, "large-action audit at the actions --I "
                     "and appendix audit at the points --x", [
        ("potential", parse_potential, "pinney"), ("I", float, [1e2, 1e3, 1e4]),
        ("delta", float, 0.1), ("x", float, [0.5, 1.0, 2.0, 10.0]),
        *_TOLERANCES, _OUT, _FORMAT]),
    "fourier-constants": (cmd_fourier_constants, "Pinney constants c0, d+, d-", [
        ("r", float, [0.0, 1.0, math.inf]), _OUT, _FORMAT]),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it rejects the arguments it does not know itself,
    so their usage message is the command's; the top level's own unknown
    arguments get the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@functools.lru_cache(maxsize=None)
def build_parser():
    """The one parser of the process: parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="isores",
        description="Resonance tools for periodically forced isochronous "
                    "oscillators")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (run, text, params) in COMMANDS.items():
        p = sub.add_parser(command, help=text, description=text)
        p.add_argument("--config", help="JSON file of parameter values; "
                                         "flags take precedence")
        for name, kind, default in params:
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, action="append" if isinstance(default, list) else "store")
        p.set_defaults(run=run, params=params)
    return ap


def _as_flag_text(name, kind, default, value):
    """A --config value as its flag gives it: a JSON string as it stands, any
    other value as its JSON text (10.9 is no int, true no float, an object a
    JSON descriptor), an array one text per element for a repeatable
    parameter; a switch takes only true or false."""
    if kind is bool:
        if not isinstance(value, (bool, type(None))):
            raise ConfigError(f"{name}: must be true or false, not {json.dumps(value)}")
        return value
    if isinstance(default, list) and isinstance(value, list):
        return [v if isinstance(v, str) else json.dumps(v) for v in value]
    return value if isinstance(value, (str, type(None))) else json.dumps(value)


def _resolve(args, files):
    """Each parameter from its flag, else from the --config key of its name,
    else its default, passed through its type whatever its source, and files
    for the paths the command writes; a config key that names no parameter
    is a usage error, as an unknown flag is."""
    config = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config} ({exc})") from exc
        config = _json_value("config", text)
        if not isinstance(config, dict):
            raise ConfigError("config: top level must be a JSON object")
        unknown = config.keys() - {name for name, _, _ in args.params}
        if unknown:
            raise ConfigError(f"config: unknown keys {json.dumps(sorted(unknown))}")
    values = {}
    for name, kind, default in args.params:
        value = getattr(args, name)
        if value is None:
            value = _as_flag_text(name, kind, default, config.get(name))
        if value is None or value == []:     # an empty list counts as absent
            value = default
        if value is _REQUIRED:
            raise ConfigError(f"{name}: required parameter missing")
        if isinstance(default, list) and not isinstance(value, list):
            raise ConfigError(f"{name}: must be a list")
        try:
            if isinstance(default, list):
                value = [kind(v) for v in value]
            elif value is not None:
                value = kind(value)
        except IsoresError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        values[name] = value
    if "rel_tol" in values:         # _TOLERANCES: the command's one IntegratorConfig
        values["cfg"] = IntegratorConfig(values.pop("rel_tol"), values.pop("abs_tol"))
    return argparse.Namespace(**values, files=files)


def run(argv=None):
    """All that main does but print the payload: (exit code, the payload's JSON
    text or None, report), the report {"stats": the answer's record's stats or
    None, "files": {name: size in bytes} of each --out file written}."""
    files, report = [], {"stats": None, "files": {}}
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse: 0 after --help, 2 on a usage error
        return (1 if exc.code else 0), None, report
    try:
        payload, code, report["stats"] = args.run(_resolve(args, files))
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except (IsoresError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)     # strict JSON: a nan is a ValueError
        code, text = 1, None
    report["files"] = {path.name: path.stat().st_size for path in files}
    return code, text, report


def main(argv=None) -> int:
    code, text, _ = run(argv)
    if text is None:
        return code
    try:
        print(text, flush=True)
    except BrokenPipeError as exc:  # stdout's reader has gone: an IO error
        # what is left in stdout's buffer goes to devnull, not to a traceback at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
