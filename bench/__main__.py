"""``python -m bench run|compare`` — see ``bench/README.md``.

``run`` with ``--trace`` is the contract's entry point: one workload,
measured in this process.  Without ``--trace`` it is the suite: every
selected workload twice (plain, then traced), each in its own child
process so that ``peak_rss_mb`` is per workload and no cache, pool or
garbage leaks from one workload into the next.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import BLAS_VARS, END_TO_END_UNITS, REPO_ROOT

DEFAULT_SECONDS = 10   # = run_seconds of BENCHMARK.json


def pin_environment() -> Path:
    """Scrub ``REPRO_*``, pin BLAS to one thread, keep temp files in the checkout.

    Must run before numpy is imported: BLAS reads its thread count once.
    Returns this process's scratch directory (spill segments, exchange
    arenas and the calibration file land there through ``TMPDIR``).
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for var in BLAS_VARS:
        os.environ[var] = "1"
    tmp = REPO_ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None   # re-read TMPDIR
    return tmp


def _ensure_repro_importable() -> None:
    src = REPO_ROOT / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro  # noqa: F401 - fails here, before any result, if absent


def _run_one(args) -> int:
    tmp = pin_environment()
    try:
        _ensure_repro_importable()
        from bench import runner

        smoke = args.scale == "smoke"
        seconds = args.seconds if args.seconds is not None else (
            0 if smoke else DEFAULT_SECONDS)
        return runner.run_workload(
            args.workload[0], args.seed, seconds, bool(args.trace), smoke, tmp,
            out=args.out, perturb=args.perturb_reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass


def _run_suite(args) -> int:
    """Every workload, plain then traced, one child process each."""
    from bench import stats
    from bench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    scratch = REPO_ROOT / ".bench_tmp" / f"suite-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    result = {"schema": 1, "seed": args.seed, "scale": args.scale,
              "workloads": {}}
    ok = True
    try:
        for name in names:
            entry = {"correct": True, "attempted": 0, "failed": 0,
                     "pred_rel_err": [], "end_to_end": {}, "per_layer": {}}
            for trace in (0, 1):
                out = scratch / f"{name}-{trace}.json"
                cmd = [sys.executable, "-m", "bench", "run",
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(trace), "--scale", args.scale,
                       "--out", str(out)]
                if args.seconds is not None:
                    cmd += ["--seconds", str(args.seconds)]
                if args.perturb_reference:
                    cmd.append("--perturb-reference")
                code = subprocess.run(cmd, cwd=REPO_ROOT).returncode
                if not out.exists():
                    print(f"{name}: child exited {code} without a result")
                    entry["correct"] = False
                    continue
                detail = json.loads(out.read_text())
                entry["correct"] &= detail["correct"] and code == 0
                entry["attempted"] += detail["attempted"]
                entry["failed"] += detail["failed"]
                if detail["pred_rel_err"] is not None:
                    entry["pred_rel_err"].append(detail["pred_rel_err"])
                if trace:
                    entry["per_layer"] = detail["metrics"]
                    for key in ("host", "commit", "host_fingerprint"):
                        result[key] = detail[key]
                    spans = Path(str(out) + ".spans.json")
                    if args.out and spans.exists():
                        shutil.copy(spans, f"{args.out}.{name}.spans.json")
                else:
                    entry["end_to_end"] = {
                        key: dict(stats.summary(values), unit=END_TO_END_UNITS[key])
                        for key, values in detail["samples"].items()}
            entry["pred_rel_err"] = max(entry["pred_rel_err"], default=None)
            entry["failed_frac"] = entry["failed"] / max(entry["attempted"], 1)
            result["workloads"][name] = entry
            ok &= entry["correct"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("\nworkload           metric                 median         q1"
          "         q3        min    n  unit")
    for name, entry in result["workloads"].items():
        for key, s in entry["end_to_end"].items():
            print(f"{name:18s} {key:16s} {s['median']:12.5g} {s['q1']:10.5g} "
                  f"{s['q3']:10.5g} {s['min']:10.5g} {s['n']:4d}  {s['unit']}")
        print(f"{name:18s} {'failed_frac':16s} {entry['failed_frac']:12.5g}"
              f"{'':38s}ratio")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    if args.history:
        with open(args.history, "a") as f:
            f.write(json.dumps(result) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", default=[],
                     help="workload name; repeat to select several (default all)")
    run.add_argument("--seed", type=int, default=2024)
    run.add_argument("--seconds", type=float, default=None,
                     help="how long each run measures (default 10; smoke 0)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end metrics of one workload, in this "
                          "process; 1: its per-layer metrics; absent: the suite")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--out", help="write the detailed result here")
    run.add_argument("--history", help="append the result as one JSON line")
    run.add_argument("--perturb-reference", action="store_true",
                     help="check against a deliberately wrong reference "
                          "(every workload must then fail)")
    compare = sub.add_parser("compare", help="judge B against A by the bounds")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from bench import compare as comparing

        return comparing.compare(args.a, args.b)
    if args.trace is not None:
        if len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return _run_one(args)
    return _run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
