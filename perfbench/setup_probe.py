"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Prints one JSON object of CPU times: `setup_s` is the time from the first
statement to a built workload (importing `invseq.cli` plus building specs
and configs), `import_s` the import alone and `cli_self_s` the part of it
spent on `invseq.cli` itself once the package is loaded.  The benchmark's
own import is not counted.  Needs `src` and this directory on PYTHONPATH.
"""

import time

t0 = time.process_time()
import invseq  # noqa: E402

t1 = time.process_time()
import invseq.cli  # noqa: E402,F401

t2 = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
t3 = time.process_time()
workloads.WORKLOADS[name](seed, out_dir)
t4 = time.process_time()
print(json.dumps({"setup_s": (t2 - t0) + (t4 - t3), "import_s": t2 - t0, "cli_self_s": t2 - t1}))
