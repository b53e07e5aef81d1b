"""Cold-start probe for the setup_s metric.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Imports adaptik (through the workload module, which imports adaptik.cli
and the layer modules), builds the workload's spec, DGP parameters and
bases up to its first ready cell, and prints time.monotonic() at that
moment.  The caller subtracts the time at which it started this
interpreter.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import workloads

    workloads.WORKLOADS[name].setup(seed, workdir)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
