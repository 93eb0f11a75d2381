"""Set-up probe: build one workload's library inputs in a fresh process.

    python3 bench/setup_probe.py <workload> <seed>

Prints the monotonic clock once ``conegeom`` is imported, the fixtures are
loaded (with their ``kahler_points`` validation) and the synthetic tensors
are built, then the median of five timings of the host-speed reference
(hostspeed.py) taken after that.  ``run.py`` starts it, with BLAS pinned to
one thread, and takes ``setup_s`` from the process start to that time,
scaled to reference seconds.  The benchmark's own set-up (the oracle, the
inputs of each pass) comes later and is not counted.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
ready = time.monotonic()

import hostspeed  # noqa: E402

print(repr(ready), repr(sorted(hostspeed.reference_s() for _ in range(5))[2]))
