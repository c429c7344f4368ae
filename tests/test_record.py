import math

import pytest

from isores._record import astuple, record, replace
from isores.acw import AcwState
from isores.errors import ConfigError, NumericsError
from isores.forcing import TrigPoly
from isores.integrate import IntegratorConfig, State


@record
class _Point:
    x: float
    y: float = 2.0
    label: str = "p"


def test_fields_by_position_keyword_and_default():
    assert astuple(_Point(1.0)) == (1.0, 2.0, "p")
    assert astuple(_Point(1.0, 3.0, "q")) == (1.0, 3.0, "q")
    assert astuple(_Point(label="q", x=1.0)) == (1.0, 2.0, "q")
    assert astuple(_Point(1.0, label="q", y=4.0)) == (1.0, 4.0, "q")
    assert _Point._fields == ("x", "y", "label")
    assert IntegratorConfig(1e-9).abs_tol == 1e-12


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((), {"y": 1.0}), ((1.0,), {"z": 1.0}), ((1.0,), {"x": 1.0}),
    ((1.0, 2.0, "p", 4.0), {})],
    ids=["missing", "missing-with-keyword", "unknown", "repeated", "too-many"])
def test_a_missing_or_unknown_field_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        _Point(*args, **kwargs)


def test_fields_can_be_neither_assigned_nor_deleted():
    s = State(1.0, 2.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        s.x = 3.0
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del s.x
    with pytest.raises(AttributeError):
        s.other = 1.0
    assert astuple(s) == (1.0, 2.0)


def test_equality_is_by_fields_or_by_identity():
    a, b = State(1.0, 2.0), State(x=1.0, v=2.0)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != State(1.0, -2.0)
    assert a != (1.0, 2.0) and _Point(1.0, 2.0) != State(1.0, 2.0)
    p, q = TrigPoly(sin_coeffs=(1.0,)), TrigPoly(sin_coeffs=(1.0,))
    assert p != q and p == p and hash(p) != hash(q)


def test_repr_is_the_dataclasses_text():
    assert repr(State(1.0, -0.5)) == "State(x=1.0, v=-0.5)"
    assert repr(_Point(1.0)) == "_Point(x=1.0, y=2.0, label='p')"
    assert repr(IntegratorConfig()) == ("IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12, "
                                        "singularity_margin=1e-09, max_steps=2000000)")
    with pytest.raises(NumericsError, match=r"got AcwState\(x=0.0, y=0.0\)$"):
        AcwState(0.0, 0.0)


def test_replace_builds_through_post_init():
    f = TrigPoly(a0=1, cos_coeffs=[2])
    g = replace(f, sin_coeffs=(0.5,))
    assert astuple(g) == (1.0, (2.0,), (0.5,)) and g.harmonics == ((1, 2.0, 0.5),)
    assert astuple(f) == (1.0, (2.0,), ())
    with pytest.raises(ConfigError, match="forcing.a0: coefficients must be finite"):
        replace(f, a0=math.nan)
    with pytest.raises(TypeError):
        replace(f, a1=1.0)
