"""Reference answers for every benchmark task, computed without the isores
package: closed forms, exact antiderivatives and an independent scipy
integration.  Each check returns (ok, error, message); ``error`` is the raw
deviation that the traced run reports per layer."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ellipeinc, ellipkinc

TWO_PI = 2.0 * math.pi
THRESHOLD = 1e-4          # the CLI's default certification threshold
GROWTH_CODES = {"growing": 0, "bounded": 2, "inconclusive": 3}

# Tolerances on the program's numbers at its default rtol 1e-10 / atol 1e-12.
ASYM_PHI_TOL = 1e-6       # Phi from the integrated variational solution
PINNEY_PHI_TOL = 1e-8     # Phi by adaptive quadrature of the closed-form psi
HARMONIC_STATE_TOL = 1e-6  # relative to 1 + |x| + |v| after 200 periods
PERIODIC_RESIDUAL = 1e-10
PERIOD_MAP_TOL = 1e-7     # independent DOP853 period map of the found orbit

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


# ---------------------------------------------------------------------------
# asymmetric centre V = (alpha (x+)^2 + beta (x-)^2)/2: psi is a piecewise
# sinusoid whose switching times do not depend on the amplitude r > 0.

def _asym_pieces(alpha, beta):
    """(t_lo, t_hi, omega, psi(t_lo), psi'(t_lo)) over one period; the orbit
    starts at its positive turning point."""
    w1, w2 = math.sqrt(alpha), math.sqrt(beta)
    t1 = 0.5 * math.pi / w1
    t2 = t1 + math.pi / w2
    pieces = []
    psi, dpsi = 1.0 + 0.0j, 1.0j
    for lo, hi, w in ((0.0, t1, w1), (t1, t2, w2), (t2, t2 + t1, w1)):
        pieces.append((lo, hi, w, psi, dpsi))
        c, s = math.cos(w * (hi - lo)), math.sin(w * (hi - lo))
        psi, dpsi = psi * c + dpsi * s / w, -psi * w * s + dpsi * c
    return pieces


def asym_phi(alpha, beta, coeffs, theta):
    """Phi(theta) for p = a0 + a1 cos t + b1 sin t, for every r > 0 (and the
    r -> 0+ limit), by Gauss-Legendre on each smooth piece of psi."""
    a0, a1, b1 = coeffs
    ts, ws, psis = [], [], []
    for lo, hi, w, psi0, dpsi0 in _asym_pieces(alpha, beta):
        half = 0.5 * (hi - lo)
        t = lo + half * (_GL_NODES + 1.0)
        ts.append(t)
        ws.append(half * _GL_WEIGHTS)
        psis.append(psi0 * np.cos(w * (t - lo)) + dpsi0 / w * np.sin(w * (t - lo)))
    t, wts, psi = np.concatenate(ts), np.concatenate(ws), np.concatenate(psis)
    s = t[None, :] - np.asarray(theta, dtype=float)[:, None]
    p = a0 + a1 * np.cos(s) + b1 * np.sin(s)
    return (p * (wts * psi)[None, :]).sum(axis=1) / TWO_PI


def asym_min_modulus(alpha, beta, coeffs, n_theta=4096):
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    return float(np.min(np.abs(asym_phi(alpha, beta, coeffs, theta))))


# ---------------------------------------------------------------------------
# Pinney centre: the Ermakov-Pinney superposition u^2 = A c^2 + 2C c s + B s^2
# (c, s = cos, sin of t/2; AB - C^2 = 1) gives the orbit through (r, 0) and,
# by varying A and C, the variational solution
#   psi = (c^2 - mu s^2 + i sin t) / sqrt(c^2 + mu s^2),  mu = (1 + r)^-4.
# Its antiderivative is exact in incomplete elliptic integrals of parameter
# m = 1 - mu, so Phi for a step forcing needs no quadrature at all.

def pinney_psi_integral(t, mu):
    """G(t) = int_0^t psi; mu = 1 is r = 0 and mu = 0 the r -> inf limit
    |cos(t/2)| + 2i sin(t/2) sgn cos(t/2)."""
    t = np.asarray(t, dtype=float)
    half = 0.5 * t
    if mu == 1.0:
        return np.sin(t) + 1j * (1.0 - np.cos(t))
    m = 1.0 - mu
    re = 2.0 * (1.0 + mu) / m * ellipeinc(half, m)
    if mu > 0.0:
        re = re - 4.0 * mu / m * ellipkinc(half, m)
    im = 4.0 * (1.0 - np.sqrt(np.cos(half) ** 2 + mu * np.sin(half) ** 2)) / m
    return re + 1j * im


def pinney_phi_piecewise(breaks, values, theta, mu):
    """Phi(theta, r) for the 2*pi-periodic step forcing with piece starts
    ``breaks`` and levels ``values``: (1/2pi) sum_j v_j (G(b_j+1 + theta) -
    G(b_j + theta)), valid because psi is 2*pi-periodic."""
    b = np.append(np.asarray(breaks, dtype=float), breaks[0] + TWO_PI)
    g = pinney_psi_integral(b[None, :] + np.asarray(theta)[:, None], mu)
    return (np.diff(g, axis=1) * np.asarray(values)[None, :]).sum(axis=1) / TWO_PI


# ---------------------------------------------------------------------------
# output parsing

def read_phi_field(text):
    """phi_field.csv -> (theta, r, Phi) arrays; r = -1 marks the r = inf row."""
    data = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2] + 1j * data[:, 3]


# ---------------------------------------------------------------------------
# checks: each takes the task's reference parameters, the CLI's exit code,
# its parsed stdout and the text of the files it wrote to --out

def check_scan_asymmetric(ref, rc, out, files):
    alpha, beta, coeffs = ref["alpha"], ref["beta"], ref["coeffs"]
    theta, r, phi = read_phi_field(files["phi_field.csv"])
    positive = r > 0
    err = float(np.max(np.abs(phi[positive] - asym_phi(alpha, beta, coeffs,
                                                       theta[positive]))))
    certified = asym_min_modulus(alpha, beta, coeffs) >= THRESHOLD
    want = 0 if certified else 2
    if rc != want:
        return False, err, (f"exit {rc}, reference {'certified' if certified else 'not certified'}"
                            f" (exit {want}); program min at r = {out['argmin_r']}")
    if err > ASYM_PHI_TOL:
        return False, err, f"|Phi - Phi_ref| = {err:.3e} at r > 0"
    return True, err, ""


def check_scan_pinney_piecewise(ref, rc, out, files):
    breaks, values = ref["breaks"], ref["values"]
    theta, r, phi = read_phi_field(files["phi_field.csv"])
    expect = np.empty_like(phi)
    for rv in np.unique(r):
        sel = r == rv
        mu = 0.0 if rv < 0 else (1.0 + rv) ** -4
        expect[sel] = pinney_phi_piecewise(breaks, values, theta[sel], mu)
    err = float(np.max(np.abs(phi - expect)))
    ref_min = float(np.min(np.abs(expect)))
    want = 0 if ref_min >= THRESHOLD else 2
    reported = out["min_modulus"]
    if rc != want:
        return False, err, f"exit {rc}, reference grid minimum {ref_min:.3e} gives exit {want}"
    if err > PINNEY_PHI_TOL or abs(reported - ref_min) > PINNEY_PHI_TOL:
        return False, err, (f"|Phi - Phi_ref| = {err:.3e}, min_modulus "
                            f"{reported:.6e} vs reference {ref_min:.6e}")
    return True, err, ""


def harmonic_final_state(kind, eps, x0, v0, n_periods):
    """x'' + x = eps sin t and x'' + x = eps cos 2t at t = 2 pi n, exactly."""
    if kind == "sin":   # x = x0 cos t + (v0 + eps/2) sin t - (eps/2) t cos t
        return x0 - 0.5 * eps * TWO_PI * n_periods, v0
    if kind == "cos2t":  # x = (x0 + eps/3) cos t + v0 sin t - (eps/3) cos 2t
        return x0, v0
    raise ValueError(kind)


def check_forced(ref, rc, out, files):
    verdict = out["verdict"]
    if rc != GROWTH_CODES.get(verdict) or verdict != ref["verdict"]:
        return False, 0.0, f"verdict {verdict} (exit {rc}), reference {ref['verdict']}"
    if ref["potential"] != "harmonic":
        return True, 0.0, ""
    x, v = harmonic_final_state(ref["forcing"], ref["eps"], ref["x0"], ref["v0"],
                                ref["periods"])
    err = max(abs(out["final_x"] - x), abs(out["final_v"] - v))
    if err > HARMONIC_STATE_TOL * (1.0 + abs(x) + abs(v)):
        return False, err, f"final state off the exact solution by {err:.3e}"
    return True, err, ""


def pinney_period_map_defect(coeffs, eps, x, v):
    """|P(s) - s| for the one-period map of x'' = -(u - u^-3)/4 + eps p(t),
    u = x + 1, integrated by scipy's DOP853 at rtol 1e-12."""
    a0, a1, b1 = coeffs

    def rhs(t, y):
        u = y[0] + 1.0
        return (y[1], -0.25 * (u - u ** -3)
                + eps * (a0 + a1 * math.cos(t) + b1 * math.sin(t)))

    sol = solve_ivp(rhs, (0.0, TWO_PI), [x, v], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        return math.inf
    return float(math.hypot(sol.y[0, -1] - x, sol.y[1, -1] - v))


def check_periodic(ref, rc, out, files):
    if rc != 0 or not out["converged"]:
        return False, 0.0, f"exit {rc}: {out['message']}"
    if out["residual"] > PERIODIC_RESIDUAL:
        return False, 0.0, f"residual {out['residual']:.3e} > {PERIODIC_RESIDUAL}"
    err = pinney_period_map_defect(ref["coeffs"], ref["eps"], out["x"], out["v"])
    if err > PERIOD_MAP_TOL:
        return False, err, f"independent period map moves the orbit by {err:.3e}"
    return True, err, ""
