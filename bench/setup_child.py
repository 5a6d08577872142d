"""Set-up cost as a fresh process pays it: import the ``coresolve`` command
line (and with it the whole package) and parse the given program files.
Prints the seconds that took, then the mean time of the reference block
(see ``reference``) run right after it, which corrects it for machine speed.

Usage: python3 setup_child.py SRC_DIR PROGRAM...
"""

import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import coresolve.cli  # noqa: E402,F401
from coresolve.program import parse_program  # noqa: E402
from coresolve.terms import FreshVars  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_program(fh.read(), FreshVars())
setup = perf_counter() - t0

import reference  # noqa: E402

reference.block()  # warm-up
blocks = [reference.block() for _ in range(2 * reference.WINDOW)]
print(setup, sum(blocks) / len(blocks))
