"""The repository's benchmark: eight workloads, one result schema.

``python -m bench run`` measures the end-to-end metrics of every
workload (untraced) and the per-layer metrics (a second, traced run),
checks each output against a dense FP64 reference, and prints every
metric named in ``BENCHMARK.json`` with its unit.  ``python -m bench
compare A.json B.json`` judges two result files against the bounds.
See ``bench/README.md``.
"""

import json
from pathlib import Path

#: Directory that holds ``BENCHMARK.json``, ``bench/`` and ``src/``.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every BLAS the process might load is pinned to one thread through these.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The contract file: the one place metric names, units and bounds live.
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
