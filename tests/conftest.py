import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import isores as iso
from isores import cli
from isores.forcing import TWO_PI, _quad_checked, l1_norm
from isores.integrate import IntegratorConfig, State


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig()


@pytest.fixture(scope="session")
def pin():
    return iso.pinney()


@pytest.fixture(scope="session")
def har():
    return iso.harmonic(1)


@pytest.fixture(scope="session")
def har2():
    return iso.harmonic(2)


@pytest.fixture(scope="session")
def sin_f():
    return iso.TrigPoly(sin_coeffs=(1.0,))


@pytest.fixture(scope="session")
def cos2_f():
    return iso.TrigPoly(cos_coeffs=(0.0, 1.0))


@pytest.fixture(scope="session")
def crafted_zero(pin):
    """Forcing p = 1 + 2 cos t whose Phi field has a simple zero at theta=pi,
    r=r* where c0(r*) = 2 d+(r*); returns (forcing, r*, I*)."""
    from isores.phi import pinney_fourier_constants
    from isores.autonomous import action_of_amplitude

    def gap(r):
        c = pinney_fourier_constants(r)
        return c.c0 - 2.0 * c.d_plus

    r_star = brentq(gap, 0.5, 100.0, xtol=1e-13, rtol=8.9e-16)
    forcing = iso.TrigPoly(a0=1.0, cos_coeffs=(2.0,))
    return forcing, r_star, action_of_amplitude(pin, r_star)


@pytest.fixture(scope="session")
def diag_harm_sin(har, sin_f, cfg):
    return iso.resonance_run(har, sin_f, 0.05, State(0.0, 0.0), 100, cfg)


@pytest.fixture(scope="session")
def diag_pin_sin(pin, sin_f, cfg):
    return iso.resonance_run(pin, sin_f, 0.05, State(1.0, 0.0), 200, cfg)


@pytest.fixture(scope="session")
def diag_harm_cos2(har, cos2_f, cfg):
    return iso.resonance_run(har, cos2_f, 0.05, State(0.0, 0.0), 200, cfg)


def simpson_complex(values, ts):
    """Independent composite-Simpson oracle for dual-quadrature checks."""
    from scipy.integrate import simpson
    return simpson(values.real, x=ts) + 1j * simpson(values.imag, x=ts)


@pytest.fixture(scope="session")
def simpson():
    return simpson_complex


def abs_integral_oracle(f, t):
    """Integral of |p| over [0, t] for t >= 0, the energy envelope's budget:
    whole periods by l1_norm, the rest by _quad_checked split at p's breaks."""
    if t < 0:
        raise ValueError("abs_integral: t must be nonnegative")
    k = math.floor(t / TWO_PI)
    rem = t - k * TWO_PI
    total = k * l1_norm(f)
    if rem > 0:
        total += _quad_checked(lambda s: np.abs(f.eval(s)), 0.0, rem, f.split_points())
    return total


@pytest.fixture(scope="session")
def abs_integral():
    return abs_integral_oracle


@pytest.fixture
def run_is_main(capsys, monkeypatch, tmp_path):
    """A check that cli.run(argv), its text then printed, gives what
    cli.main(argv) gives: the exit code, stdout, stderr and the files
    written, each side run in a directory of its own; the report names each
    file with its size.  It returns the report."""
    def check(argv):
        seen = []
        for side in ("main", "run"):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            if side == "main":
                code = cli.main(argv)
            else:
                code, text, report = cli.run(argv)
                if text is not None:
                    print(text)
            files = {path.relative_to(tmp_path / side).as_posix(): path.read_bytes()
                     for path in sorted(Path.cwd().rglob("*")) if path.is_file()}
            seen.append((code, *capsys.readouterr(), files))
        assert seen[0] == seen[1]
        assert report["files"] == {Path(name).name: len(data) for name, data in files.items()}
        return report
    return check
