"""Cold start of a CLI process: import cpgate and build all named trains.

    python3 perfbench/setup_probe.py <src dir>

Prints the seconds taken, scaled by the machine slowdown, and then the raw
seconds.  Building a named train runs the Newton/mpmath polish of its
printed phases, which every new ``cpgate`` process pays.  The machine's
speed swings within a second, too fast for probes outside this process to
follow, so the reference kernel (reference.py) is probed after the import
and after each train, and each step is scaled by the mean slowdown of the
probes on either side of it (the import by the first probe alone).
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from cpgate import catalog  # noqa: E402

imported = time.perf_counter() - start

import reference  # noqa: E402  (numpy and mpmath are loaded by now)

reference.warm_up()
before = reference.slowdown()
raw, scaled = imported, imported / before
for name in catalog.names():
    start = time.perf_counter()
    catalog.to_sequence(catalog.get(name))
    seconds = time.perf_counter() - start
    after = reference.slowdown()
    raw += seconds
    scaled += seconds / ((before + after) / 2)
    before = after
print(scaled, raw)
