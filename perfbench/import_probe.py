"""Per-process start-up costs of the segreg CLI, measured in a fresh interpreter.

Prints one JSON line: ``import_s`` (``import segreg.cli``) and
``kernel_disposition_s`` (the kernel layouts every process computes once).
Run by perfbench/run.py with the benchmark's environment.
"""

import json
import time

t0 = time.perf_counter()
import segreg.cli  # noqa: E402,F401
t1 = time.perf_counter()

from segreg.kpconv import kernel_disposition  # noqa: E402
from segreg.networks import RegNetConfig, SegNetConfig  # noqa: E402

t2 = time.perf_counter()
for cfg in (SegNetConfig(), RegNetConfig()):
    kernel_disposition(cfg.kernel_size, cfg.kernel_seed)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "kernel_disposition_s": t3 - t2}))
