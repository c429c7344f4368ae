import math

import numpy as np

from isores.io import fmt, write_csv


def test_fmt_pinned_outputs():
    cases = [(3, "3"), (True, "1"), (np.int64(-7), "-7"),
             (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
             (1.0 / 3.0, "0.33333333333333331"), (1e-300, "1e-300"),
             (np.float32(0.1), "0.10000000149011612"),
             (1 + 2j, "1+2j"), (np.complex128(0.5 - 0.25j), "0.5-0.25j"),
             (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
             (-0.0, "-0"), (np.float64(-0.0), "-0"), ("x", "x")]
    for value, text in cases:
        assert fmt(value) == text, value


def test_write_csv_float_array_rows_print_as_fmt(tmp_path):
    special = np.array([[0.1, -0.0, 1.0 / 3.0], [1e-300, math.inf, -math.inf],
                        [math.nan, 2.0, -1e22], [5e-324, 123456789.0, 0.0]])
    # more rows than one formatting block
    noise = np.random.default_rng(7).standard_normal((2500, 3)) * 10.0 ** np.arange(-3, 6, 3)
    values = np.concatenate([special, noise, special])
    got = write_csv(tmp_path / "a.csv", ["x", "y", "z"], values).read_text()
    expected = write_csv(tmp_path / "b.csv", ["x", "y", "z"],
                         [list(row) for row in values]).read_text()
    assert got == expected
    assert got.splitlines()[1] == "0.10000000000000001,-0,0.33333333333333331"
