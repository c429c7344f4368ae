"""Set-up time of a fresh interpreter, measured from inside it.

    python3 perfbench/setup_child.py SRC

times ``import isores.cli`` (which imports numpy and scipy) plus
``build_parser()``, scaled by probes that run in this same process, and
prints the raw and the scaled seconds.  The probes use no numpy, so nothing
the timed import needs is loaded before it.
"""

import sys

sys.dont_write_bytecode = True      # no cache files in the benchmark directory
from speed import timed             # noqa: E402  (after the flag above)

sys.dont_write_bytecode = False     # isores is imported as a user's interpreter would


def load():
    sys.path.insert(0, sys.argv[1])
    import isores.cli
    isores.cli.build_parser()


_, raw, scaled = timed(load, with_numpy=False)
print(raw, scaled)
