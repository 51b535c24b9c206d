"""One set-up sample: a fresh interpreter's `import idelink` plus its first item.

Usage: python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED J

Prints the seconds spent importing idelink (backend selection included)
plus preparing and running its first item, item J of pass 0, then the time of
the calibration loop (calibrate.py) right after.  Generating that
item's plain input is benchmark work and is not counted.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import idelink  # noqa: E402

t1 = time.perf_counter()
from workloads import Runner  # noqa: E402  (this script's directory is on sys.path)

runner = Runner(sys.argv[2], idelink)
seed = int(sys.argv[3])
first = runner.order(seed, 0)[int(sys.argv[4])]
plain = runner.plain(seed, 0, first)
t2 = time.perf_counter()
_, x = runner.prepare((first, plain))
runner.run(x)
t3 = time.perf_counter()
from calibrate import reference_median  # noqa: E402

print(repr((t1 - t0) + (t3 - t2)), repr(reference_median()))
