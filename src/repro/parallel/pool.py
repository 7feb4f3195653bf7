"""Worker-process pool of the process backend.

Owns worker lifecycles (spawn, respawn-after-crash, clean shutdown),
the pipe per worker, the shared exchange directory, and the BLAS
thread budget: each worker is capped to
``max(1, effective_cpu_count() // workers)`` BLAS threads (override
with ``REPRO_BLAS_THREADS``) so ``workers × blas_threads`` never
oversubscribes the machine — the classic failure mode of nesting an
OpenMP BLAS under a process pool.

The multiprocessing start method defaults to ``fork`` (cheap, shares
the parent's loaded BLAS and imported modules) and can be forced with
``REPRO_MP_START=spawn|forkserver`` on platforms where fork is
hazardous.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import tempfile

from repro.parallel.exchange import ExchangeSpec, TileExchange
from repro.parallel.worker import _BLAS_ENV_VARS, worker_main

__all__ = [
    "BLAS_THREADS_ENV",
    "MP_START_ENV",
    "ProcessPool",
    "effective_cpu_count",
]

MP_START_ENV = "REPRO_MP_START"
BLAS_THREADS_ENV = "REPRO_BLAS_THREADS"


def effective_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    mask a CI runner or batch scheduler grants — ``sched_getaffinity``
    is authoritative where it exists.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _resolve_blas_threads(workers: int) -> int:
    env = os.environ.get(BLAS_THREADS_ENV)
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(
                f"{BLAS_THREADS_ENV} must be an integer >= 1, got {env!r}")
        return value
    return max(1, effective_cpu_count() // max(1, workers))


def _resolve_start_method(method: str | None) -> str:
    if method is None:
        method = os.environ.get(MP_START_ENV) or "fork"
    if method not in mp.get_all_start_methods():
        raise ValueError(
            f"{MP_START_ENV} must be one of {mp.get_all_start_methods()}, "
            f"got {method!r}")
    return method


class _WorkerHandle:
    __slots__ = ("process", "conn", "tag", "generation")

    def __init__(self, process, conn, tag: str, generation: int) -> None:
        self.process = process
        self.conn = conn
        self.tag = tag
        self.generation = generation

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessPool:
    """A fixed-size pool of task workers plus the coordinator exchange."""

    def __init__(self, workers: int, start_method: str | None = None,
                 blas_threads: int | None = None) -> None:
        self.workers = max(1, int(workers))
        self.blas_threads = (int(blas_threads) if blas_threads
                             else _resolve_blas_threads(self.workers))
        method = _resolve_start_method(start_method)
        self._ctx = mp.get_context(method)
        self.spec = ExchangeSpec(
            directory=tempfile.mkdtemp(prefix="repro-xchg-"))
        #: Coordinator endpoint: publishes task inputs, reads outputs.
        self.exchange = TileExchange(self.spec, producer_tag="c0")
        self._handles: list[_WorkerHandle | None] = [None] * self.workers
        self._respawns = 0
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for index in range(self.workers):
            if self._handles[index] is None:
                self._handles[index] = self._spawn(index, generation=0)

    def _spawn(self, index: int, generation: int) -> _WorkerHandle:
        tag = f"w{index}g{generation}"
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Exported before the fork/spawn so a `spawn` child's BLAS
        # (loaded after env inheritance) starts capped; restored so the
        # coordinator's own BLAS budget is untouched.
        saved = {var: os.environ.get(var) for var in _BLAS_ENV_VARS}
        for var in _BLAS_ENV_VARS:
            os.environ[var] = str(self.blas_threads)
        try:
            process = self._ctx.Process(
                target=worker_main,
                args=(index, tag, child_conn, self.spec, self.blas_threads),
                name=f"repro-worker-{index}",
                daemon=True)
            process.start()
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        child_conn.close()
        return _WorkerHandle(process, parent_conn, tag, generation)

    def respawn(self, index: int) -> None:
        """Replace a dead (or wedged) worker with a fresh process."""
        handle = self._handles[index]
        generation = 0
        if handle is not None:
            generation = handle.generation + 1
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._respawns += 1
        self._handles[index] = self._spawn(index, generation)

    def reset_all(self) -> None:
        """Panic button: replace every worker and reset the exchange.

        Used when a drain aborts abnormally (e.g. KeyboardInterrupt)
        with tasks still in flight — stale in-flight replies must never
        leak into the next drain.
        """
        for index in range(self.workers):
            if self._handles[index] is not None:
                self.respawn(index)
        self.exchange.reset()

    def end_drain(self) -> None:
        """Reset exchange state on both sides between drains."""
        self.exchange.reset()
        for handle in self._handles:
            if handle is not None and handle.alive:
                try:
                    handle.conn.send(("reset",))
                except OSError:  # pragma: no cover - picked up on dispatch
                    pass

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if handle is None:
                continue
            try:
                if handle.alive:
                    handle.conn.send(("stop",))
            except OSError:
                pass
        for handle in self._handles:
            if handle is None:
                continue
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - stragglers
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._handles = [None] * self.workers
        self.exchange.close()
        shutil.rmtree(self.spec.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # accessors the executor uses
    # ------------------------------------------------------------------
    @property
    def respawns(self) -> int:
        """Workers respawned after crashes/timeouts (chaos tests assert
        coverage through this counter)."""
        return self._respawns

    @property
    def closed(self) -> bool:
        return self._closed

    def conn(self, index: int):
        return self._handles[index].conn

    def is_alive(self, index: int) -> bool:
        handle = self._handles[index]
        return handle is not None and handle.alive

    def exitcode(self, index: int):
        handle = self._handles[index]
        return None if handle is None else handle.process.exitcode

    def send(self, index: int, message: tuple) -> None:
        self._handles[index].conn.send(message)
