"""Time one workload's cold start in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <workdir>

The clock starts before ``import pathexec`` (which pulls in numpy and scipy)
and stops once the workload's scenario is loaded, where the first path could
start.  ``run.py`` starts this script several times and reports the median.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].load(Path(sys.argv[2]))
print(repr(time.perf_counter() - start))
