"""Command-line surface: scans, long runs, audits and data export.

Exit codes encode the scientific outcome so shell harnesses can branch on
them: 0 = positive result (certified / growing / converged), 2 = negative,
3 = inconclusive, 1 = usage, configuration, IO or numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import acw as acw_mod
from ._record import astuple
from . import autonomous, dynamics, phi as phi_mod
from .errors import ConfigError, IsoresError
from .forcing import TrigPoly, forcing_from_descriptor
from .integrate import IntegratorConfig, State
from .io import format_rows, write_csv, write_json
from .potentials import appendix_audit, potential_from_descriptor

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"([+-]?)(?:({_NUMBER})?\*)?(sin|cos)(\d*)t?$")
_TOKEN_RE = re.compile(r"[+-]?(?:[^+-]|(?<=[\d.][eE])[+-])+")    # not at an exponent's sign
_STRAY_RE = re.compile(r"(?<![\d.][eE])[+-](?=[+-]|$)")    # a sign that starts no token


def parse_forcing(text: str) -> "TrigPoly":
    """Compile the CLI shorthand ('sin', 'cos2t', '0.1+1*cos+0.5*sin2t') to a
    trigonometric polynomial; a constant is a number, and a cos or sin term
    of harmonic 0 or a sign that starts no term ('sin+') is a ConfigError.
    A JSON object is passed through the full descriptor parser."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return forcing_from_descriptor(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"forcing: invalid JSON ({exc})") from exc
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
    return TrigPoly(a0=a0,
                    cos_coeffs=tuple(a.get(k, 0.0) for k in range(1, kmax + 1)),
                    sin_coeffs=tuple(b.get(k, 0.0) for k in range(1, kmax + 1)))


def parse_potential(text: str):
    """'pinney', 'harmonic:n', 'asymmetric:alpha:beta', or a JSON object."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return potential_from_descriptor(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"potential: invalid JSON ({exc})") from exc
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


def cmd_phi_scan(p):
    # every centre the CLI builds declares its psi and Psi, so no tolerance is read
    r_grid = phi_mod.default_r_grid(p.r_max, p.r_points)
    field = phi_mod.phi_scan(p.potential, p.forcing, p.theta_points, r_grid, IntegratorConfig())
    verdict = phi_mod.resonance_verdict(field, p.threshold)
    if p.out is not None:
        phi_mod.write_phi_csv(field, p.out / "phi_field.csv")
        write_json(p.out / "verdict.json", verdict.to_dict())
    return verdict.to_dict(), 0 if verdict.certified_resonant else 2


def cmd_resonance_run(p):
    diag = dynamics.resonance_run(p.potential, p.forcing, p.eps, State(p.x0, p.v0),
                                  p.periods, p.cfg)
    if diag.partial:        # stderr: the artifacts keep no stop_reason
        print(f"partial run: {diag.stop_reason}", file=sys.stderr)
    if p.out is not None:
        dynamics.write_diagnostics_csv(diag, p.out / "diagnostics.csv")
        write_json(p.out / "verdict.json", dynamics.verdict_dict(diag))
    return (dynamics.verdict_dict(diag),
            {"growing": 0, "bounded": 2, "inconclusive": 3}[diag.verdict])


def cmd_acw(p):
    s0 = acw_mod.AcwState(p.x0, p.y0)
    orbit = acw_mod.acw_orbit(p.c, s0, p.steps)
    if p.out is not None:
        acw_mod.write_acw_csv(orbit, p.out / "acw_orbit.csv")
    summary = {"c": p.c, "steps": p.steps, "x_final": orbit[-1].x,
               "y_final": orbit[-1].y,
               "first_integral": acw_mod.acw_first_integral(orbit[-1])}
    if p.check:
        chk = acw_mod.acw_numeric_check(p.c, s0, p.cfg)
        summary["numeric_check_max_err"] = chk.max_err
    return summary, 0


def cmd_period_audit(p):
    rows = [(r, autonomous.minimal_period(p.potential, r, p.cfg)) for r in p.r]
    if p.out is not None:
        _write_table(p.out, "periods", ["r", "period"], rows, p.format)
    return {"periods": _json_rows(["r", "period"], rows)}, 0


def cmd_periodic_find(p):
    if (p.zero_theta is None) != (p.zero_action is None):
        raise ConfigError("zero_theta, zero_action: give both or neither")
    if p.zero_theta is not None:
        seed = dynamics.seed_from_phi_zero(p.potential, p.zero_theta, p.zero_action, p.cfg)
    else:
        seed = State(p.x0, p.v0)
    result = dynamics.find_periodic_solution(p.potential, p.forcing, p.eps, seed, p.cfg)
    payload = {"converged": result.converged, "x": result.state.x,
               "v": result.state.v, "residual": result.residual,
               "iterations": result.iterations, "message": result.message}
    if p.out is not None:
        write_json(p.out / "periodic.json", payload)
    return payload, 0 if result.converged else 2


def cmd_limits_audit(p):
    records = autonomous.bouncing_limit_audit(p.potential, p.I, p.cfg, delta=p.delta)
    header = ["I", "sup_x_defect", "sup_dxdI_defect", "dxdI_at_0"]
    rows = [(rec.action, rec.sup_x_defect, rec.sup_dxdI_defect, rec.dxdI_at_0)
            for rec in records]
    payload = {"limits": _json_rows(header, rows)}
    if p.out is not None:
        _write_table(p.out, "bouncing", header, rows, p.format)
    if p.potential.singular_left:
        audit = appendix_audit(p.potential, p.x)
        payload["appendix"] = {
            "x": list(audit.x), "iso_residuals": list(audit.iso_residuals),
            "slope_defects": list(audit.slope_defects),
            "slope_limit": audit.slope_limit}
        if p.out is not None:
            _write_table(p.out, "appendix", ["x", "iso_residual", "slope_defect"],
                         np.column_stack([audit.x, audit.iso_residuals,
                                          audit.slope_defects]), p.format)
    return payload, 0


def cmd_fourier_constants(p):
    header = ["r", "c0", "d_plus", "d_minus"]     # PinneyConstants' fields after r
    rows = [(r, *astuple(phi_mod.pinney_fourier_constants(r))) for r in p.r]
    if p.out is not None:
        _write_table(p.out, "fourier_constants", header, rows, p.format)
    return {"constants": _json_rows(header, rows)}, 0


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


def _as_flag_text(name, kind, value):
    """A --config value as its flag gives it: a JSON number, true or false
    as its JSON text, so that it takes the flag's conversion (10.9 is not an
    int, true not a float); a switch takes only true or false."""
    if kind is bool:
        if not isinstance(value, (bool, type(None))):
            raise ConfigError(f"{name}: must be true or false, not {json.dumps(value)}")
        return value
    if isinstance(value, list):
        return [_as_flag_text(name, kind, v) for v in value]
    return json.dumps(value) if isinstance(value, (bool, int, float)) else value


def _resolve(args):
    """Each parameter from its flag, else from the --config key of its name,
    else its default, passed through its type whatever its source."""
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config} ({exc})") from exc
        if not isinstance(config, dict):
            raise ConfigError("config: top level must be a JSON object")
    values = {}
    for name, kind, default in args.params:
        value = getattr(args, name)
        if value is None:
            value = _as_flag_text(name, kind, config.get(name))
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
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from None
        values[name] = value
    if "rel_tol" in values:         # _TOLERANCES: the command's one IntegratorConfig
        values["cfg"] = IntegratorConfig(values.pop("rel_tol"), values.pop("abs_tol"))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        payload, code = args.run(_resolve(args))
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except (IsoresError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)     # strict JSON: a nan is a ValueError
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
