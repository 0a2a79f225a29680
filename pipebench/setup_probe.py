"""Set-up of one workload in a fresh interpreter, as a user pays it.

Imports soliton_reduce, builds the workload's fixed inputs and runs one
untimed op (so bytecode and lazy set-up are paid here, not in op times),
then prints one JSON line with the elapsed times. run.py starts several
of these per run and reports their median as setup_s; the package must
be importable (run.py puts src/ on PYTHONPATH).

Usage: python3 pipebench/setup_probe.py WORKLOAD SEED WORKDIR
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import soliton_reduce  # noqa: E402,F401

T_IMPORT = perf_counter()

import workloads  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = workloads.WORKLOADS[name](seed, workdir)
    _, _, faults = workloads.run_op(wl, wl.make_input(0))
    print(json.dumps({"setup_s": perf_counter() - T0,
                      "import_s": T_IMPORT - T0, "faults": faults}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
