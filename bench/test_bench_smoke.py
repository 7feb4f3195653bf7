"""Smoke test of the benchmark itself (tier-1, well under 30 s).

Runs all eight workloads at the smoke scale, plain and traced, in this
process, and checks the things a later change could silently break:
that every metric ``BENCHMARK.json`` names is reported with its unit,
that counts repeat exactly, and that a wrong reference fails the run.
"""

import json
import os
import re

import pytest

from bench import BENCHMARK
from bench.__main__ import DEFAULT_SECONDS, _ensure_repro_importable

_ensure_repro_importable()

from bench import compare, layers, runner  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Workloads whose task order is fixed (one thread, one process, no
#: background prefetch reader), so that their counts repeat exactly.
SERIAL = ("build_wide", "factor_tall_fp32", "factor_tall_fp8", "cv_sweep_cg")


def _run(capsys, tmp_path, name, trace, **kwargs):
    code = runner.run_workload(name, seed=7, seconds=0, trace=bool(trace),
                               smoke=True, tmp=tmp_path, **kwargs)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_benchmark_json_is_well_formed():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS.values()]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert BENCHMARK["run_seconds"] == DEFAULT_SECONDS
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[group]:
            assert NAME.fullmatch(entry["name"]), entry["name"]
    # the contract's rules: no bound past 0.25, set-up gets the largest
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    setup_bound = bounds.pop("setup_s")
    assert all(0 < bound <= setup_bound <= 0.25 for bound in bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric(name, capsys, tmp_path):
    out = tmp_path / "plain.json"
    mask = os.sched_getaffinity(0)
    code, plain = _run(capsys, tmp_path, name, trace=0, out=str(out))
    assert code == 0 and plain["correct"] and plain["failed"] == 0
    assert os.sched_getaffinity(0) == mask   # default_fit confines itself
    # the result file, which `compare` judges, has request metrics for
    # the one workload that serves requests
    kept = set(json.loads(out.read_text())["samples"])
    assert (set(runner.SERVE_ONLY) <= kept) == (name == "serve_burst")
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    code, traced = _run(capsys, tmp_path, name, trace=1)
    assert code == 0 and traced["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    assert values["runtime.tasks"] > 0
    # a layer the workload does not use reports zeros, not noise
    if name != "oocore_fit":
        assert values["store.spills"] == values["store.io_s"] == 0
    if name != "process_fit":
        assert values["parallel.exchange_puts"] == values["parallel.pool_start_s"] == 0
    if name != "serve_burst":
        assert values["serve.batches"] == 0

    if name in SERIAL:
        _, again = _run(capsys, tmp_path, name, trace=1)
        for count in layers.COUNTS:
            assert again["metrics"][count]["value"] == values[count], count


def test_layer_specific_counters_move_where_predicted(capsys, tmp_path):
    _, oocore = _run(capsys, tmp_path, "oocore_fit", trace=1)
    values = {k: v["value"] for k, v in oocore["metrics"].items()}
    assert values["store.spills"] > 0 and values["store.reloads"] > 0
    assert values["store.peak_resident_mb"] > 0 and values["store.overhead_x"] > 0
    _, process = _run(capsys, tmp_path, "process_fit", trace=1)
    values = {k: v["value"] for k, v in process["metrics"].items()}
    assert values["parallel.exchange_puts"] > 0 and values["parallel.speedup_x"] > 0
    _, fp8 = _run(capsys, tmp_path, "factor_tall_fp8", trace=1)
    values = {k: v["value"] for k, v in fp8["metrics"].items()}
    assert values["tiles.lowp_tile_frac"] > 0 and values["precision.lowp_cost_x"] > 0


@pytest.mark.parametrize("name", ["factor_tall_fp8", "cv_sweep_cg", "serve_burst"])
def test_perturbed_reference_fails(name, capsys, tmp_path):
    code, result = _run(capsys, tmp_path, name, trace=0, perturb=True)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def _result(wall, q1, q3, failed_frac=0.0):
    stat = {"median": wall, "q1": q1, "q3": q3, "min": q1, "n": 10, "unit": "s"}
    return {"workloads": {"w": {"end_to_end": {"wall_s": stat},
                                "failed_frac": failed_frac}}}


def test_compare_verdicts(tmp_path, capsys):
    def verdict(a, b):
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        code = compare.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        return code, capsys.readouterr().out

    bound = next(m["bound"] for m in BENCHMARK["end_to_end"]
                 if m["name"] == "wall_s")
    steady = _result(1.0, 0.99, 1.01)
    code, out = verdict(steady, _result(1 + bound / 2, 1.0, 1.2))
    assert code == 0 and " ok " in out
    code, out = verdict(steady, _result(1 + 2 * bound, 1.0, 2.0))
    assert code == 1 and "REGRESSION" in out
    noisy = _result(1.0, 1 - bound, 1 + bound)
    code, out = verdict(noisy, _result(1 + 2 * bound, 1.0, 2.0))
    assert code == 0 and "unresolved" in out
    code, out = verdict(steady, _result(1.0, 0.99, 1.01, failed_frac=0.1))
    assert code == 1
    dropped = _result(1.0, 0.99, 1.01)
    del dropped["workloads"]["w"]["end_to_end"]["wall_s"]
    code, out = verdict(steady, dropped)
    assert code == 1 and "missing" in out
