import math

import numpy as np

from isores.io import fmt


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
