"""Worker-process pool of the process backend.

Owns worker lifecycles (fork, respawn-after-crash, clean shutdown),
the pipe per worker, the shared exchange directory, and the BLAS
thread budget: each worker is capped to
``max(1, effective_cpu_count() // workers)`` BLAS threads (the affinity
mask, as :mod:`repro.settings` measures it for the worker default) so
``workers × blas_threads`` never oversubscribes the machine — the
classic failure mode of nesting an OpenMP BLAS under a process pool.

Workers are forked (cheap, and they share the parent's loaded BLAS and
imported modules); a platform without ``fork`` gets a
``NotImplementedError`` when the pool is built.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import tempfile

from repro.parallel.exchange import ExchangeSpec, TileExchange
from repro.parallel.worker import worker_main
from repro.settings import effective_cpu_count

__all__ = ["ProcessPool"]


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

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self.blas_threads = max(1, effective_cpu_count() // self.workers)
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:
            raise NotImplementedError(
                'execution="process" forks its workers, and this platform '
                "has no fork start method") from None
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
        # the child caps its own BLAS in its bootstrap: a forked BLAS is
        # already loaded, so nothing exported here would reach it
        process = self._ctx.Process(
            target=worker_main,
            args=(index, tag, child_conn, self.spec, self.blas_threads),
            name=f"repro-worker-{index}",
            daemon=True)
        process.start()
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
        """Workers respawned after crashes (chaos tests assert
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
