"""Time one fresh-process set-up of a workload, for ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED T0

T0 is a ``time.time()`` value the caller takes just before starting this
process. The probe imports the program, builds the workload's inputs exactly
as a benchmark run does, and prints the seconds elapsed since T0: interpreter
start, imports and input construction, up to where the first operation would
begin.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(__file__).resolve().parent.parent / ".bench_out")
elapsed = time.time() - float(sys.argv[3])
workload.close()
print(repr(elapsed))
