"""Same-run host calibration: the ``host.*`` block of every result.

Absolute seconds are not comparable across hosts; every rate the
benchmark reports is therefore also given as a share of what the same
process measured this host's BLAS to do a moment earlier.
"""

from __future__ import annotations

import contextlib
import os
import platform
import time
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from bench import BLAS_VARS, REPO_ROOT

#: Order of the GEMM / POTRF probes of the host block and their repeat
#: count (best-of): 3.5 s of a traced run on one BLAS thread.  The issue's
#: best of 7 read the same rates and took 6.3 s, which left a traced run
#: of 10 s two pairs of reps.
PROBE_N = 2048
PROBE_REPEATS = 3
TILE_N = 256
#: Order of the GEMM a plain run repeats before every set-up and rep
#: (17 ms in FP32, 10-30 times a run).  It reads ~8 % below the n=2048 rate.
INTERLEAVED_N = 1024


def cores() -> int:
    """CPUs this process may run on (affinity mask, not the machine)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextlib.contextmanager
def one_core(confine: bool):
    """Confine this thread, and every thread it starts, to one CPU.

    For a workload whose threads take turns on the GIL: where the kernel
    places them decides its speed (see ``default_fit`` in the README),
    and the placement follows whatever else the host is running.  The
    last CPU of the mask, because the first serves most interrupts.
    """
    if not confine or not hasattr(os, "sched_setaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: The host a plain run states its times for: one BLAS thread doing the
#: interleaved GEMM at these rates.  The reference VM has two speeds and
#: changes between them every few seconds to minutes (sgemm 115 and 160
#: GFLOP/s at n=1024, dgemm 55 and 76; every workload slows by the same
#: 1.35x), so the median rep of a run reads whatever share of the run
#: each speed had: over ten runs of one commit the raw medians spread by
#: 12-23 % of their median, and the medians of times each scaled by the
#: probe before it by 1-9 %.  Round numbers, near the slower speed.
NOMINAL_GFLOPS = {"host.sgemm_gflops": 100.0, "host.dgemm_gflops": 50.0}


class GemmProbe:
    """One GEMM timed again and again through a run; ``rates`` in GFLOP/s.

    Interleaved with the reps (one probe before each), so that a probe
    sees the host at the same moment as the rep it is paired with.
    """

    def __init__(self, dtype, n: int) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((n, n)).astype(dtype)
        self._b = rng.standard_normal((n, n)).astype(dtype)
        self._out = np.empty((n, n), dtype=dtype)
        self._flop = 2.0 * n ** 3
        self.rates: list[float] = []
        self()   # first call pays thread/buffer set-up
        self.rates.clear()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        np.matmul(self._a, self._b, out=self._out)
        self.rates.append(self._flop / (time.perf_counter() - t0) / 1e9)

    def take(self) -> list[float]:
        """The rates since the last ``take``."""
        rates, self.rates = self.rates, []
        return rates


def gemm_gflops(dtype, n: int = PROBE_N, repeats: int = PROBE_REPEATS) -> float:
    probe = GemmProbe(dtype, n)
    for _ in range(repeats):
        probe()
    return max(probe.take())


def potrf_gflops(dtype, n: int = PROBE_N, repeats: int = PROBE_REPEATS) -> float:
    rng = np.random.default_rng(0)
    m = rng.standard_normal((n, n))
    spd = np.asfortranarray((m @ m.T + n * np.eye(n)).astype(dtype))
    potrf = lapack.spotrf if dtype == np.float32 else lapack.dpotrf

    def run():
        _, info = potrf(spd, lower=1, overwrite_a=0)
        if info:
            raise RuntimeError(f"calibration potrf failed with info={info}")

    run()
    return n ** 3 / 3.0 / _best(run, repeats) / 1e9


def llc_bytes() -> int:
    """Summed last-level cache of the CPUs in the affinity mask (0 if unknown)."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return 0
    instances: dict[tuple[int, str], int] = {}
    top = 0
    for cpu in cpus:
        base = Path(f"/sys/devices/system/cpu/cpu{cpu}/cache")
        for index in base.glob("index*"):
            try:
                level = int((index / "level").read_text())
                if (index / "type").read_text().strip() == "Instruction":
                    continue
                size = (index / "size").read_text().strip()
                shared = (index / "shared_cpu_list").read_text().strip()
            except (OSError, ValueError):
                continue
            nbytes = int(size[:-1]) * {"K": 1 << 10, "M": 1 << 20}[size[-1]]
            instances[(level, shared)] = nbytes
            top = max(top, level)
    return sum(v for (level, _), v in instances.items() if level == top)


#: Bytes of each array of the copy probe.  The hpc guide asks for four
#: times the summed last-level cache; this VM reports its host's 260 MiB
#: L3, and first touch of a fresh page costs ~20 us here, so arrays of
#: that size would take 10 s of every traced run.  The probe prints both
#: sizes; where the array is the smaller, the rate is a cache-resident one.
COPY_BYTES = 64 << 20


def memcpy_gbs(smoke: bool = False) -> tuple[float, float, int, int]:
    """``(GB/s, us per first-touched page, array bytes, summed LLC bytes)``."""
    llc = llc_bytes()
    nbytes = (4 << 20) if smoke else COPY_BYTES
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    t0 = time.perf_counter()
    np.copyto(dst, src)   # first touch of dst: one fault per 4 KiB page
    first = time.perf_counter() - t0
    seconds = _best(lambda: np.copyto(dst, src), 3)
    touch_us = max(0.0, first - seconds) / (nbytes / 4096) * 1e6
    return 2.0 * nbytes / seconds / 1e9, touch_us, nbytes, llc


def file_read_gbs(directory: Path, smoke: bool = False) -> float:
    """Sequential read rate of a freshly written file under ``directory``."""
    nbytes = (4 << 20) if smoke else (64 << 20)
    path = Path(directory) / "calibrate-read.bin"
    block = np.random.default_rng(0).integers(
        0, 256, size=1 << 20, dtype=np.uint8).tobytes()
    try:
        with open(path, "wb") as f:
            for _ in range(nbytes >> 20):
                f.write(block)
            f.flush()
            os.fsync(f.fileno())
        t0 = time.perf_counter()
        with open(path, "rb", buffering=0) as f:
            while f.read(8 << 20):
                pass
        seconds = time.perf_counter() - t0
    finally:
        path.unlink(missing_ok=True)
    return nbytes / seconds / 1e9


def blas_info() -> dict:
    """BLAS vendor/version from numpy's build record; threads as pinned."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"vendor": blas.get("name", "unknown"),
                "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):  # pragma: no cover - older numpy
        info = {"vendor": "unknown", "version": "unknown"}
    pinned = {os.environ.get(v) for v in BLAS_VARS}
    info["threads"] = int(pinned.pop()) if len(pinned) == 1 and None not in pinned \
        else 0  # 0 = not pinned by the benchmark (library default)
    return info


def peak_probe(metric: str, smoke: bool = False) -> GemmProbe:
    """The GEMM probe a plain run interleaves with its reps (``peak_frac``)."""
    dtype = np.float64 if metric == "host.dgemm_gflops" else np.float32
    return GemmProbe(dtype, 256 if smoke else INTERLEAVED_N)


def host_block(directory: Path, smoke: bool = False) -> dict:
    """Every ``host.*`` metric (traced runs and result files carry it)."""
    n, reps = (256, 2) if smoke else (PROBE_N, PROBE_REPEATS)
    block = {"host.sgemm_gflops": gemm_gflops(np.float32, n, reps),
             "host.dgemm_gflops": gemm_gflops(np.float64, n, reps)}
    block["host.spotrf_gflops"] = potrf_gflops(np.float32, n, reps)
    block["host.dpotrf_gflops"] = potrf_gflops(np.float64, n, reps)
    block["host.sgemm_tile_gflops"] = gemm_gflops(np.float32, TILE_N, reps)
    gbs, touch_us, array_bytes, llc = memcpy_gbs(smoke)
    block["host.memcpy_gbs"] = gbs
    block["host.page_touch_us"] = touch_us
    block["host.file_read_gbs"] = file_read_gbs(directory, smoke)
    block["host.cores"] = cores()
    block["host.blas_threads"] = blas_info()["threads"]
    print(f"host: memcpy arrays of {array_bytes >> 20} MiB, "
          f"summed last-level cache {llc >> 20} MiB"
          + ("" if array_bytes >= 4 * llc else " (array < 4x cache: "
             "host.memcpy_gbs is not a memory-bandwidth figure)"))
    return block


def commit_hash() -> str:
    """HEAD of the enclosing git repository, read without running git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = git / head[5:]
            if ref.exists():
                return ref.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + head[5:]):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def fingerprint() -> dict:
    """What identifies the host a result came from."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:  # pragma: no cover - non-Linux
        pass
    return {"cpu": model, "machine": platform.machine(), "cores": cores(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info()}
