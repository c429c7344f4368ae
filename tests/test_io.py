import math

import numpy as np
import pytest

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


def _cell_by_cell(header, table):
    # the reference text: every cell printed on its own as "%.17g" of its float
    lines = [",".join(header)] + [",".join("%.17g" % float(v) for v in row) for row in table]
    return "\n".join(lines) + "\n"


def _first_difference(got, want):
    # pytest's own diff of two long, similar texts runs for minutes; name the
    # first line that differs instead
    pairs = zip(got.splitlines(True), want.splitlines(True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), (len(got), len(want)))


def _repeating_table():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.nan, -np.nan, math.inf, -math.inf, 5e-324, -5e-324,
                        1e17, 99999999999999984.0, 123456789.0, 0.1])
    noise = rng.standard_normal(40) * 1e3
    wholes = rng.integers(-10**17, 10**17, 50).astype(float)
    # 3000 rows: every column repeats its values across the three 1024-row blocks
    table = np.column_stack([rng.choice(special, 3000), rng.choice(noise, 3000),
                             rng.choice(wholes, 3000)])
    table[:len(special), 0] = special
    return table


@pytest.mark.parametrize("columns, nrows", [(3, 3000), (3, 0), (1, 3000)],
                         ids=["table", "no-rows", "one-column"])
def test_write_csv_matches_cell_by_cell_formatting(tmp_path, columns, nrows):
    table = _repeating_table()[:nrows, :columns]
    header = ["x", "y", "z"][:columns]
    nan_bits = {int(b) for b in table[:, 0].view(np.int64)[np.isnan(table[:, 0])]}
    assert nrows == 0 or len(nan_bits) == 2    # np.nan and -np.nan, both "nan"
    got = write_csv(tmp_path / "a.csv", header, table).read_text()
    want = _cell_by_cell(header, table)
    same = got == want
    assert same, _first_difference(got, want)
    if nrows:
        firsts = [line.split(",")[0] for line in got.splitlines()[1:9]]
        assert firsts == ["0", "-0", "nan", "nan", "inf", "-inf", "4.9406564584124654e-324",
                          "-4.9406564584124654e-324"]
