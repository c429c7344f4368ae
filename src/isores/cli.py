"""Command-line surface: scans, long runs, audits and data export.

Exit codes encode the scientific outcome so shell harnesses can branch on
them: 0 = positive result (certified / growing / converged), 2 = negative,
3 = inconclusive, 1 = configuration, IO or numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import acw as acw_mod
from . import autonomous, dynamics, phi as phi_mod
from .errors import ConfigError, IsoresError
from .forcing import TrigPoly, forcing_from_descriptor
from .integrate import IntegratorConfig, State
from .io import write_csv, write_json
from .potentials import potential_from_descriptor

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"([+-]?)(?:({_NUMBER})?\*)?(sin|cos)(\d*)t?$")
_TOKEN_RE = re.compile(r"[+-]?(?:[^+-]|(?<=[\d.][eE])[+-])+")    # not at an exponent's sign


def parse_forcing(text: str) -> "TrigPoly":
    """Compile the CLI shorthand ('sin', 'cos2t', '0.1+1*cos+0.5*sin2t') to a
    trigonometric polynomial; a JSON object is passed through the full
    descriptor parser."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return forcing_from_descriptor(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"forcing: invalid JSON ({exc})") from exc
    s = text.replace(" ", "")
    if not s:
        raise ConfigError("forcing: empty shorthand")
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
    parts = text.split(":")
    kind = parts[0]
    if kind == "pinney" and len(parts) == 1:
        return potential_from_descriptor({"kind": "pinney"})
    if kind == "harmonic" and len(parts) == 2:
        return potential_from_descriptor({"kind": "harmonic", "n": int(parts[1])})
    if kind == "asymmetric" and len(parts) == 3:
        return potential_from_descriptor({"kind": "asymmetric",
                                          "alpha": float(parts[1]),
                                          "beta": float(parts[2])})
    raise ConfigError(f"potential: cannot parse {text!r}")


def _load_config(path):
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path} ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    return cfg


def _pick(args, config, name, default=None):
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    if name in config:
        return config[name]
    return default


def _int_cfg(args, config):
    return IntegratorConfig(
        rel_tol=float(_pick(args, config, "rel_tol", 1e-10)),
        abs_tol=float(_pick(args, config, "abs_tol", 1e-12)))


def _require(value, name):
    if value is None:
        raise ConfigError(f"{name}: required parameter missing")
    return value


def _out_dir(args, config):
    out = _pick(args, config, "out")
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_table(out_path, stem, header, rows, fmt):
    """Tabular export honoring --format: csv (default) or json rows."""
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return write_json(out_path / f"{stem}.json", payload)
    return write_csv(out_path / f"{stem}.csv", header, rows)


def cmd_phi_scan(args) -> int:
    config = _load_config(args.config)
    pot = parse_potential(_require(_pick(args, config, "potential"), "potential"))
    f = parse_forcing(_require(_pick(args, config, "forcing"), "forcing"))
    cfg = _int_cfg(args, config)
    theta_points = int(_pick(args, config, "theta_points", 256))
    r_max = float(_pick(args, config, "r_max", 1e3))
    r_points = int(_pick(args, config, "r_points", 60))
    threshold = float(_pick(args, config, "threshold", 1e-4))
    r_grid = phi_mod.default_r_grid(r_max, r_points)
    field = phi_mod.phi_scan(pot, f, theta_points, r_grid, cfg)
    verdict = phi_mod.resonance_verdict(field, threshold)
    out = _out_dir(args, config)
    if out is not None:
        phi_mod.write_phi_csv(field, out / "phi_field.csv")
        write_json(out / "verdict.json", verdict.to_dict())
    print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    return 0 if verdict.certified_resonant else 2


def cmd_resonance_run(args) -> int:
    config = _load_config(args.config)
    pot = parse_potential(_require(_pick(args, config, "potential"), "potential"))
    f = parse_forcing(_require(_pick(args, config, "forcing"), "forcing"))
    cfg = _int_cfg(args, config)
    eps = float(_require(_pick(args, config, "eps"), "eps"))
    periods = int(_pick(args, config, "periods", 100))
    s0 = State(float(_pick(args, config, "x0", 0.0)),
               float(_pick(args, config, "v0", 0.0)))
    diag = dynamics.resonance_run(pot, f, eps, s0, periods, cfg)
    out = _out_dir(args, config)
    if out is not None:
        dynamics.write_diagnostics_csv(diag, out / "diagnostics.csv")
        write_json(out / "verdict.json", dynamics.verdict_dict(diag))
    print(json.dumps(dynamics.verdict_dict(diag), indent=2, sort_keys=True))
    return {"growing": 0, "bounded": 2, "inconclusive": 3}[diag.verdict]


def cmd_acw(args) -> int:
    config = _load_config(args.config)
    c = float(_require(_pick(args, config, "c"), "c"))
    s0 = acw_mod.AcwState(float(_pick(args, config, "x0", 1.0)),
                          float(_pick(args, config, "y0", 0.0)))
    steps = int(_pick(args, config, "steps", 10))
    orbit = acw_mod.acw_orbit(c, s0, steps)
    out = _out_dir(args, config)
    if out is not None:
        acw_mod.write_acw_csv(orbit, out / "acw_orbit.csv")
    summary = {"c": c, "steps": steps, "x_final": orbit[-1].x,
               "y_final": orbit[-1].y,
               "first_integral": acw_mod.acw_first_integral(orbit[-1])}
    if getattr(args, "check", False):
        chk = acw_mod.acw_numeric_check(c, s0, _int_cfg(args, config))
        summary["numeric_check_max_err"] = chk.max_err
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_period_audit(args) -> int:
    config = _load_config(args.config)
    pot = parse_potential(_require(_pick(args, config, "potential"), "potential"))
    cfg = _int_cfg(args, config)
    rs = _pick(args, config, "r") or [1.0]
    rows = []
    for r in rs:
        period = autonomous.minimal_period(pot, float(r), cfg)
        rows.append((float(r), period))
    out = _out_dir(args, config)
    if out is not None:
        _write_table(out, "periods", ["r", "period"], rows,
                     _pick(args, config, "format", "csv"))
    print(json.dumps({"periods": [{"r": r, "period": p} for r, p in rows]},
                     indent=2, sort_keys=True))
    return 0


def cmd_periodic_find(args) -> int:
    config = _load_config(args.config)
    pot = parse_potential(_require(_pick(args, config, "potential"), "potential"))
    f = parse_forcing(_require(_pick(args, config, "forcing"), "forcing"))
    cfg = _int_cfg(args, config)
    eps = float(_require(_pick(args, config, "eps"), "eps"))
    zero_theta = _pick(args, config, "zero_theta")
    zero_action = _pick(args, config, "zero_action")
    if zero_theta is not None and zero_action is not None:
        seed = dynamics.seed_from_phi_zero(pot, float(zero_theta),
                                           float(zero_action), cfg)
    else:
        seed = State(float(_pick(args, config, "x0", 1.0)),
                     float(_pick(args, config, "v0", 0.0)))
    result = dynamics.find_periodic_solution(pot, f, eps, seed, cfg)
    payload = {"converged": result.converged, "x": result.state.x,
               "v": result.state.v, "residual": result.residual,
               "iterations": result.iterations, "message": result.message}
    out = _out_dir(args, config)
    if out is not None:
        write_json(out / "periodic.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if result.converged else 2


def cmd_limits_audit(args) -> int:
    config = _load_config(args.config)
    pot = parse_potential(_pick(args, config, "potential", "pinney"))
    cfg = _int_cfg(args, config)
    actions = [float(v) for v in (_pick(args, config, "I") or [1e2, 1e3, 1e4])]
    delta = float(_pick(args, config, "delta", 0.1))
    records = autonomous.bouncing_limit_audit(pot, actions, cfg, delta=delta)
    payload = {"limits": [{"I": rec.action, "sup_x_defect": rec.sup_x_defect,
                           "sup_dxdI_defect": rec.sup_dxdI_defect,
                           "dxdI_at_0": rec.dxdI_at_0} for rec in records]}
    out = _out_dir(args, config)
    fmt = _pick(args, config, "format", "csv")
    if out is not None:
        _write_table(out, "bouncing",
                     ["I", "sup_x_defect", "sup_dxdI_defect", "dxdI_at_0"],
                     [(rec.action, rec.sup_x_defect, rec.sup_dxdI_defect,
                       rec.dxdI_at_0) for rec in records], fmt)
    if pot.singular_left:
        from .potentials import appendix_audit
        xs = [float(v) for v in (_pick(args, config, "x") or [0.5, 1.0, 2.0, 10.0])]
        audit = appendix_audit(pot, xs)
        payload["appendix"] = {
            "x": list(audit.x), "iso_residuals": list(audit.iso_residuals),
            "slope_defects": list(audit.slope_defects),
            "slope_limit": audit.slope_limit}
        if out is not None:
            _write_table(out, "appendix", ["x", "iso_residual", "slope_defect"],
                         np.column_stack([audit.x, audit.iso_residuals,
                                          audit.slope_defects]), fmt)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_fourier_constants(args) -> int:
    config = _load_config(args.config)
    rs = _pick(args, config, "r") or ["0", "1", "inf"]
    rows = []
    for r in rs:
        rv = math.inf if str(r).lower() in ("inf", "infinity") else float(r)
        const = phi_mod.pinney_fourier_constants(rv)
        rows.append((float("inf") if math.isinf(rv) else rv,
                     const.c0, const.d_plus, const.d_minus))
    out = _out_dir(args, config)
    if out is not None:
        _write_table(out, "fourier_constants",
                     ["r", "c0", "d_plus", "d_minus"], rows,
                     _pick(args, config, "format", "csv"))
    print(json.dumps({"constants": [
        {"r": ("inf" if math.isinf(r) else r), "c0": c0, "d_plus": dp,
         "d_minus": dm} for r, c0, dp, dm in rows]}, indent=2, sort_keys=True))
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON file with defaults for any parameter")
    p.add_argument("--out", help="output directory for CSV/JSON files")
    p.add_argument("--format", choices=["csv", "json"], default=None,
                   help="preferred tabular format (csv files are always csv)")
    p.add_argument("--rel-tol", type=float, dest="rel_tol")
    p.add_argument("--abs-tol", type=float, dest="abs_tol")
    p.add_argument("--seedless", action="store_true",
                   help="assert deterministic execution (the core uses no "
                        "randomness; this flag is a no-op marker)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="isores",
        description="Resonance tools for periodically forced isochronous "
                    "oscillators")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi-scan", help="scan |Phi_p| over the cylinder")
    p.add_argument("--potential")
    p.add_argument("--forcing")
    p.add_argument("--theta-points", type=int, dest="theta_points")
    p.add_argument("--r-max", type=float, dest="r_max")
    p.add_argument("--r-points", type=int, dest="r_points")
    p.add_argument("--threshold", type=float)
    _add_common(p)
    p.set_defaults(fn=cmd_phi_scan)

    p = sub.add_parser("resonance-run", help="long forced run with growth verdict")
    p.add_argument("--potential")
    p.add_argument("--forcing")
    p.add_argument("--eps", type=float)
    p.add_argument("--periods", type=int)
    p.add_argument("--x0", type=float)
    p.add_argument("--v0", type=float)
    _add_common(p)
    p.set_defaults(fn=cmd_resonance_run)

    p = sub.add_parser("acw", help="orbit of the multiplicative Pinney map")
    p.add_argument("--c", type=float)
    p.add_argument("--x0", type=float)
    p.add_argument("--y0", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--check", action="store_true",
                   help="cross-validate against direct integration")
    _add_common(p)
    p.set_defaults(fn=cmd_acw)

    p = sub.add_parser("period-audit", help="measure minimal periods")
    p.add_argument("--potential")
    p.add_argument("--r", type=float, action="append")
    _add_common(p)
    p.set_defaults(fn=cmd_period_audit)

    p = sub.add_parser("periodic-find", help="Newton shooting for a periodic solution")
    p.add_argument("--potential")
    p.add_argument("--forcing")
    p.add_argument("--eps", type=float)
    p.add_argument("--x0", type=float)
    p.add_argument("--v0", type=float)
    p.add_argument("--zero-theta", type=float, dest="zero_theta",
                   help="theta* of a Phi zero (seed via action-angle)")
    p.add_argument("--zero-action", type=float, dest="zero_action",
                   help="action I* of a Phi zero")
    _add_common(p)
    p.set_defaults(fn=cmd_periodic_find)

    p = sub.add_parser("limits-audit", help="large-action and appendix audits")
    p.add_argument("--potential")
    p.add_argument("--I", type=float, action="append")
    p.add_argument("--delta", type=float)
    p.add_argument("--x", type=float, action="append",
                   help="appendix audit grid points")
    _add_common(p)
    p.set_defaults(fn=cmd_limits_audit)

    p = sub.add_parser("fourier-constants", help="Pinney constants c0, d+, d-")
    p.add_argument("--r", action="append")
    _add_common(p)
    p.set_defaults(fn=cmd_fourier_constants)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except IsoresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
