import math

import numpy as np

from isores.io import write_csv


def test_write_csv_pinned_values(tmp_path):
    # every value a table holds, an int or a float, prints as "%.17g" of
    # its float
    cases = [(3, "3"), (True, "1"), (np.int64(-7), "-7"),
             (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
             (1.0 / 3.0, "0.33333333333333331"), (1e-300, "1e-300"),
             (np.float32(0.1), "0.10000000149011612"),
             (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
             (-0.0, "-0"), (np.float64(-0.0), "-0")]
    text = write_csv(tmp_path / "a.csv", ["value", "n"],
                     [(value, 1) for value, _ in cases]).read_text()
    assert text.splitlines() == ["value,n"] + [f"{t},1" for _, t in cases]
    assert write_csv(tmp_path / "b.csv", ["x", "y"], []).read_text() == "x,y\n"


def test_write_csv_float_array_rows_print_as_row_lists(tmp_path):
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
