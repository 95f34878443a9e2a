"""Cold-start cost of one benchmark workload, measured in a fresh interpreter.

Reads a JSON payload on stdin, either ``{"runs": [config, ...]}`` or
``{"sweeps": [spec, ...]}``, and prints the seconds spent importing hexswarm plus
``engine.initialize`` over every run config (for a sweep, plus ``expand``).
bench.py starts it several times per run and reports the median as setup_s.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
payload = json.load(sys.stdin)

start = time.perf_counter()
import hexswarm  # noqa: E402
from hexswarm.engine import SimConfig, initialize  # noqa: E402
from hexswarm.experiment import SweepSpec, expand  # noqa: E402

elapsed = time.perf_counter() - start

configs = [SimConfig(**config) for config in payload.get("runs", [])]
for spec in payload.get("sweeps", []):
    start = time.perf_counter()
    configs += [config for config, _ in expand(SweepSpec(**spec))]
    elapsed += time.perf_counter() - start
for config in configs:
    start = time.perf_counter()
    initialize(config)
    elapsed += time.perf_counter() - start
print(repr(elapsed))
