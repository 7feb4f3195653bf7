"""``python -m bench compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric): both medians with their
quartiles, B over A with A as the stated base, and the bound from
``BENCHMARK.json``.  A row whose own A-side inter-quartile spread
exceeds the bound is ``unresolved`` — the benchmark cannot tell such a
difference from noise — and never counts as unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench import BENCHMARK


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressions = 0
    print(f"{'workload':18s} {'metric':15s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload in a:
        if workload not in b:
            print(f"{workload:18s} missing from {path_b}")
            regressions += 1
            continue
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa = a[workload]["end_to_end"].get(name)
            sb = b[workload]["end_to_end"].get(name)
            if sa is None:
                continue   # A never measured it (a request metric off serve_burst)
            if sb is None:
                print(f"{workload:18s} {name:15s} missing from {path_b}  REGRESSION")
                regressions += 1
                continue
            worse = _worse_by(sa["median"], sb["median"], metric["better"])
            own_spread = (sa["q3"] - sa["q1"]) / sa["median"] if sa["median"] else 0.0
            if own_spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            fmt = "{median:11.5g} [{q1:.5g}, {q3:.5g}]"
            print(f"{workload:18s} {name:15s} {fmt.format(**sa):>32s} "
                  f"{fmt.format(**sb):>32s} "
                  f"{sb['median'] / sa['median'] if sa['median'] else 0:7.3f} "
                  f"{bound:6.2f}  {verdict} (base A = {sa['median']:.5g} "
                  f"{metric['unit']}, n = {sa['n']}/{sb['n']})")
        fa, fb = a[workload]["failed_frac"], b[workload]["failed_frac"]
        rose = fb > fa
        regressions += rose
        print(f"{workload:18s} {'failed_frac':15s} {fa:32.5g} {fb:32.5g} "
              f"{'':7s} {0:6.2f}  {'REGRESSION' if rose else 'ok'}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
