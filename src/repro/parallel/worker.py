"""Worker-process entry point of the process backend.

Each worker owns one duplex pipe to the coordinator and one
:class:`~repro.parallel.exchange.TileExchange` endpoint.  The protocol
is deliberately tiny:

coordinator → worker
    ``("task", uid, kernel, input_refs, fault_key)`` — run one task's
    kernel descriptor (a :class:`~repro.runtime.task.BodySpec`);
    ``("reset", )`` — end of drain: truncate the segment, drop caches;
    ``("stop", )`` — clean shutdown.
worker → coordinator
    ``("ok", uid, output_refs)`` or ``("err", uid, exc_blob)``.

Workers re-resolve the ``REPRO_FAULTS`` plan from their own
environment (the fork inherits it) with fresh per-process counters —
the dedicated ``worker-kill`` site lets chaos tests hard-kill a worker
mid-task via ``os._exit``, which the coordinator observes as a closed
pipe and treats as a transient :class:`WorkerCrashError`.

BLAS thread capping: the bootstrap exports ``*_NUM_THREADS=<cap>``
(for anything the worker itself launches) and applies ``threadpoolctl``
when it is installed — the only way to re-limit the already-loaded BLAS
a fork inherits.  threadpoolctl is optional; without it a worker keeps
the parent's BLAS thread count.
"""

from __future__ import annotations

import os
import pickle
import traceback

from repro.parallel.exchange import ExchangeSpec, PayloadRef, TileExchange
from repro.resilience import faults
from repro.resilience.errors import RemoteTaskError

__all__ = ["dump_exception", "load_exception", "worker_main"]

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Exit code of a fault-injected worker kill (distinguishable from
#: crashes in post-mortem logs; the coordinator treats both the same).
KILLED_EXIT_CODE = 23


# ----------------------------------------------------------------------
# exception transport
# ----------------------------------------------------------------------
def dump_exception(exc: BaseException) -> tuple:
    """Encode a worker-side exception for the pipe.

    Pickled round-trip when possible; otherwise a text descriptor that
    the coordinator rebuilds as :class:`RemoteTaskError`, preserving
    the ``transient`` marker the retry machinery consults.
    """
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return ("pickle", blob)
    except Exception:
        transient = bool(getattr(exc, "transient", isinstance(exc, OSError)))
        return ("text", type(exc).__name__, str(exc), transient,
                traceback.format_exc())


def load_exception(blob: tuple) -> BaseException:
    """Invert :func:`dump_exception` on the coordinator side."""
    if blob[0] == "pickle":
        try:
            return pickle.loads(blob[1])
        except Exception:  # pragma: no cover - dump side pre-validated
            pass
        blob = ("text", "UnknownError", "undecodable worker exception",
                False, "")
    _, name, message, transient, tb = blob
    return RemoteTaskError(name, message, transient, tb)


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------
def _limit_blas_threads(limit: int) -> None:
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(limit)
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=int(limit))
    except Exception:
        # threadpoolctl is optional; without it the forked, already
        # loaded BLAS keeps the parent's setting.
        pass


def _bootstrap(blas_threads: int) -> None:
    _limit_blas_threads(blas_threads)
    # A fork can capture locks and cached fault plans mid-operation
    # (e.g. a threaded drain's lane thread holding the env-plan lock):
    # rebuild the module state so this process starts clean, with its
    # own injection counters.
    faults.reset_child_state()


# ----------------------------------------------------------------------
# main loop
# ----------------------------------------------------------------------
def worker_main(worker_id: int, tag: str, conn, spec: ExchangeSpec,
                blas_threads: int) -> None:
    _bootstrap(blas_threads)
    exchange = TileExchange(spec, producer_tag=tag)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "task":
                _, uid, kernel, refs, fault_key = message
                plan = faults.active_plan()
                if (plan is not None and
                        plan.fire(faults.SITE_WORKER_KILL, fault_key)
                        is not None):
                    os._exit(KILLED_EXIT_CODE)
                try:
                    args = [exchange.get_cached(r)
                            if isinstance(r, PayloadRef)
                            else None for r in refs]
                    out = kernel.run(*args)
                    outs = out if isinstance(out, tuple) else (out,)
                    out_refs = tuple(
                        exchange.put(o) if o is not None else None
                        for o in outs)
                    conn.send(("ok", uid, out_refs))
                except BaseException as exc:  # noqa: BLE001 - shipped back
                    try:
                        conn.send(("err", uid, dump_exception(exc)))
                    except (OSError, ValueError):
                        break
            elif op == "reset":
                exchange.reset()
            elif op == "stop":
                break
    finally:
        exchange.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
