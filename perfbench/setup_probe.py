"""Time one set-up of the program in a fresh interpreter.

    python3 setup_probe.py SRC WORKLOAD SCRATCH

Prints the seconds spent importing pibilliards (through ``ops``) and running
the workload's untimed warm-up op.  Interpreter start-up is not included.
``run.py`` starts this several times per run and reports the median.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ops  # noqa: E402  (the import is what is being timed)

ops.warm_up(sys.argv[2], Path(sys.argv[3]))
print(time.perf_counter() - start)
