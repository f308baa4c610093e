"""Time one workload's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed>

Prints the seconds spent on imports, catalog load, trace generation and
Simulation construction, then the median of three reference times measured
right after it (see reference.py).  ``run.py`` starts this several times per
run, scales each set-up time by its own reference and reports the median
as ``setup_s``; it pins BLAS threads in the environment it passes down.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    workloads.set_up(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    setup = time.perf_counter() - t0
    from reference import Reference
    ref = Reference()
    print(setup, sorted(ref.seconds() for _ in range(3))[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
