"""Run one workload in this process and report its metrics.

This is the program the contract drives:
``run --workload W --seed N --seconds S --trace 0|1``.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1``
alternates plain reps with reps under :mod:`bench.tracer` and derives
the per-layer metrics from the traced ones — the paired difference
between the two is ``trace.overhead_frac``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from bench import END_TO_END_UNITS, PER_LAYER_UNITS, calibrate, layers, reference
from bench import tracer as tracing
from bench.workloads import WORKLOADS

SETUP_REPEATS = 3   # a plain run times set-up this often; the median is setup_s
MIN_REPS = 3
#: End-to-end metrics that describe requests.  Only ``serve_burst`` serves
#: requests; the contract wants every metric from every workload, so the
#: other seven report them as functions of ``wall_s`` (one "request" = one
#: rep) in the contract's result line and nowhere else.
SERVE_ONLY = ("rows_per_s", "latency_p50_ms", "latency_p90_ms")
#: Reps of the first seconds are discarded, at least one: they fill the
#: caches, start the pools and let the allocator learn the sizes that recur.
WARMUP_SECONDS = 1.5


def _reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark (Linux >= 4.0).

    Done before every rep, so that ``peak_rss_mb`` is a per-rep peak:
    without it the metric would report the dense FP64
    reference that set-up builds, or the one rep in which the cyclic
    collector happened to run late.  Where the kernel refuses, the
    mark stays that of the whole process.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """High-water mark of this process plus its largest reaped child.

    The child term (``process_fit``'s pool workers, reaped when a rep
    closes its runtime) is a maximum over the life of this process:
    the kernel offers no reset for it, so unlike the self term it can
    only rise from rep to rep.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM"):
                self_kb = int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux
        pass
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


class _Tally:
    """Kept reps of one kind (plain or traced) and what their checks found."""

    def __init__(self) -> None:
        self.reps = []
        self.rel_errs: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, workload, state, collect: bool = False, keep: bool = True):
        # collect, then keep the cyclic collector off for the rep (as
        # timeit does): whether it happens to run between two folds of a
        # CV sweep moved that workload's peak RSS by 15 % from run to run
        gc.collect()
        gc.disable()
        _reset_peak_rss()
        try:
            rep = workload.rep(state, collect=collect)
            rep.info["peak_rss_mb"] = _peak_rss_mb()
        except Exception:  # noqa: BLE001 - a raised rep is a failed operation
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        finally:
            gc.enable()
        check = workload.check(state, rep)
        rep.output = None   # checked; do not hold a rep's predictions
        if keep:
            self.attempted += rep.attempted
            self.failed += check.failed
            self.rel_errs.append(check.rel_err)
            self.reps.append(rep)
        return rep


def _repeat(seconds: float, min_reps: int, tallies, step) -> None:
    """Call ``step`` for ``seconds`` and at least ``min_reps`` times.

    A workload that is failing stops at ``min_reps``: it has no metrics
    to steady.
    """
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_reps or (time.perf_counter() < deadline
                              and not any(t.failed for t in tallies)):
        step()
        done += 1


def _end_to_end(workload, dims, reps, setup_times, setup_rates, rates
                ) -> tuple[dict, dict, dict]:
    """The contract's metrics, their per-rep samples, and what they came from.

    Every time is stated in seconds of the nominal host: as measured,
    times the rate of the GEMM probe that ran just before it over
    ``calibrate.NOMINAL_GFLOPS`` (see there for why raw seconds cannot
    be compared on a shared host).
    """
    gflop = workload.nominal_gflop(dims)
    nominal = calibrate.NOMINAL_GFLOPS[workload.peak]
    scaled = [(r, r.wall_s * rate / nominal, rate / nominal)
              for r, rate in zip(reps, rates)]
    samples = {
        "setup_s": [t * rate / nominal
                    for t, rate in zip(setup_times, setup_rates)],
        "wall_s": [wall for _, wall, _ in scaled],
        "peak_frac": [gflop / wall / nominal for _, wall, _ in scaled],
        "peak_rss_mb": [r.info["peak_rss_mb"] for r in reps],
        "rows_per_s": [r.rows / wall for r, wall, _ in scaled],
        # percentile over the requests of one rep, median over reps;
        # a rep that answers one request has p50 == p90 == its wall
        "latency_p50_ms": [1e3 * k * np.percentile(r.latencies_s, 50)
                           for r, _, k in scaled],
        "latency_p90_ms": [1e3 * k * np.percentile(r.latencies_s, 90)
                           for r, _, k in scaled],
    }
    samples = {k: [float(x) for x in v] for k, v in samples.items()}
    values = {k: statistics.median(v) for k, v in samples.items()}
    # a rep's mark is what it needs plus what the allocator kept of
    # earlier reps, and which thread's arena keeps a large temporary is
    # a matter of timing (default_fit: +5 % from some rep on, in four
    # runs of ten): the noise only ever adds, so the lowest mark it is
    values["peak_rss_mb"] = min(samples["peak_rss_mb"])
    raw = {"wall_s": [r.wall_s for r in reps], "probe_gflops": list(rates),
           "setup_s": list(setup_times), "setup_probe_gflops": list(setup_rates)}
    return values, samples, raw


def _per_layer(workload, state, host, plain: _Tally, traced: _Tally,
               per_rep: list[dict]) -> dict:
    values = {k: statistics.median(m[k] for m in per_rep) for k in PER_LAYER_UNITS}
    values.update(host)
    # each traced rep ran right after a plain one: the ratio is paired,
    # so a slow spell of the host hits both sides of it
    values["trace.overhead_frac"] = statistics.median(
        t.wall_s / p.wall_s for t, p in zip(traced.reps, plain.reps)) - 1.0
    values.update(workload.layer_extras(
        state, statistics.median(r.wall_s for r in plain.reps)))
    values["oracle.pred_rel_err"] = max(plain.rel_errs + traced.rel_errs)
    values["oracle.failed_frac"] = (
        (plain.failed + traced.failed) / (plain.attempted + traced.attempted))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, tmp: Path, out: str | None = None,
                 perturb: bool = False) -> int:
    """Measure one workload; print its metrics and the contract's last line."""
    workload = WORKLOADS[name]
    with calibrate.one_core(workload.one_core):
        return _measure(workload, seed, seconds, trace, smoke, tmp, out, perturb)


def _measure(workload, seed: int, seconds: float, trace: bool, smoke: bool,
             tmp: Path, out: str | None, perturb: bool) -> int:
    name = workload.name
    dims = workload.smoke if smoke else workload.full
    min_reps = 1 if smoke else MIN_REPS
    # a traced run's host probes are part of what it measures: they
    # come out of its --seconds, a plain run's set-up does not
    deadline = time.perf_counter() + seconds
    host = calibrate.host_block(tmp, smoke) if trace else {}

    # the first set-up of a process is cold (imports, BLAS buffers, the
    # allocator still learning which sizes recur): a plain run discards it
    # one GEMM probe before each set-up and each rep of a plain run: its
    # rate is what the time that follows is calibrated against
    probe = None if trace else calibrate.peak_probe(workload.peak, smoke)
    setup_times = []
    state = None
    for _ in range(1 if smoke or trace else 1 + SETUP_REPEATS):
        state = None
        gc.collect()
        if probe is not None:
            probe()
        t0 = time.perf_counter()
        state = workload.setup(seed, smoke, perturb)
        setup_times.append(time.perf_counter() - t0)
    setup_times = setup_times[-SETUP_REPEATS:]
    setup_rates = [] if trace else probe.take()[-SETUP_REPEATS:]

    plain, traced = _Tally(), _Tally()
    _repeat(0 if smoke else WARMUP_SECONDS, 1, [],
            lambda: plain.run(workload, state, keep=False))
    span_rows: list[dict] = []
    per_rep: list[dict] = []

    if not trace:
        def step():
            probe()
            if plain.run(workload, state) is None:
                probe.rates.pop()   # one probe per kept rep

        _repeat(seconds, min_reps, [plain], step)
    else:
        tracer = tracing.Tracer()

        def step():
            if plain.run(workload, state) is None:
                return
            tracer.install()
            try:
                rep = traced.run(workload, state, collect=True)
            finally:
                tracer.uninstall()
            spans = tracing.link(tracer.take())
            if rep is None:
                plain.reps.pop()   # keep the two lists paired
                return
            per_rep.append(layers.derive(spans, rep, workload, dims, host))
            if out is not None:
                span_rows.extend(tracing.to_rows(spans, len(per_rep) - 1))

        _repeat(deadline - time.perf_counter(), 1 if smoke else MIN_REPS,
                [plain, traced], step)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    metrics, samples = {}, {}
    if trace and per_rep:
        values = _per_layer(workload, state, host, plain, traced, per_rep)
        metrics = {k: {"value": float(values[k]), "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
        samples = {"wall_s": [r.wall_s for r in plain.reps],
                   "traced_wall_s": [r.wall_s for r in traced.reps]}
    elif not trace and plain.reps:
        values, samples, host = _end_to_end(
            workload, dims, plain.reps, setup_times, setup_rates, probe.take())
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
        if workload.kind != "serve":
            for key in SERVE_ONLY:
                del samples[key]

    correct = bool(metrics) and failed == 0
    for key, entry in metrics.items():
        note = ("  (the rep as one request: a function of wall_s)"
                if key in SERVE_ONLY and workload.kind != "serve" else "")
        print(f"{name:18s} {key:30s} {entry['value']:14.6g} {entry['unit']}{note}")
    if not trace and metrics:
        scale = (statistics.median(host["probe_gflops"])
                 / calibrate.NOMINAL_GFLOPS[workload.peak])
        print(f"{name:18s} times are of the nominal host: each as measured (wall_s "
              f"{statistics.median(host['wall_s']):.6g} s) x the rate of the probe "
              f"before it over the nominal rate (median {scale:.4f})")
    rel_errs = plain.rel_errs + traced.rel_errs
    if rel_errs:
        print(f"{name:18s} {'pred_rel_err':30s} {max(rel_errs):14.6g} ratio "
              f"(tolerance {_tolerance(workload):g})")
    print(f"{name:18s} {'failed_frac':30s} {failed / max(attempted, 1):14.6g} "
          f"ratio ({failed} of {attempted} operations)")

    if out is not None:
        detail = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "scale": "smoke" if smoke else "full",
            "correct": correct, "attempted": attempted, "failed": failed,
            "pred_rel_err": max(rel_errs) if rel_errs else None,
            "metrics": metrics, "samples": samples, "host": host,
            "commit": calibrate.commit_hash(),
            "host_fingerprint": calibrate.fingerprint(),
        }
        Path(out).write_text(json.dumps(detail, indent=1) + "\n")
        if trace:
            Path(out + ".spans.json").write_text(json.dumps(span_rows) + "\n")
    if not metrics:
        print(f"{name}: no rep completed; no result", flush=True)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def _tolerance(workload) -> float:
    return (reference.CV_MSPE_TOLERANCE if workload.kind == "cv"
            else reference.TOLERANCE[workload.plan])
