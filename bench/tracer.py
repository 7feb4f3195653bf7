"""Outside-in span tracer for the traced run.

Nothing under ``src/`` knows it is being measured: :meth:`Tracer.install`
replaces each public callable named in :data:`TARGETS` with a timing
wrapper — module functions are rebound in every loaded ``repro.*`` (and
``bench.*``) namespace that holds them, methods on their class — and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

_NAMESPACES = ("repro", "bench")


class Span:
    """One timed call: name, layer, interval, and the span that caused it."""

    __slots__ = ("name", "layer", "t0", "t1", "parent", "thread", "info",
                 "children", "self_s")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


@dataclass(frozen=True)
class Target:
    """A public callable of one layer and how its span is recorded.

    ``owner`` is a module path, optionally followed by ``:Class``.
    ``probe(args, kwargs, result)`` extracts a small value (a count,
    bytes moved) from a finished call — never a reference to program
    state, which would keep a session's tiles alive past its rep.
    ``label(args)`` names the span from its arguments.
    """

    owner: str
    attr: str
    layer: str
    name: str
    probe: Callable | None = None
    label: Callable | None = None
    generator: bool = False


def _nbytes(args, kwargs, result):
    return getattr(args[0], "nbytes", 0)


def _session_flops(args, kwargs, result):
    session = args[0]
    return id(session), float(sum(session.phase_flops.values()))


def _run_events(args, kwargs, result):
    """Per-kernel-name task time of one drain, from its ``ScheduleResult``."""
    runtime = args[0]
    by_name: dict[str, list] = {}
    retries = 0
    for event in result.trace.events:
        row = by_name.setdefault(event.task_name, [0, 0.0])
        row[0] += 1
        row[1] += event.duration
        retries += event.retries
    workers = runtime.workers if runtime.execution in ("threaded", "process") else 1
    return {"execution": runtime.execution, "workers": workers,
            "by_name": by_name, "retries": retries}


#: Layer that owns a task body, by the name it was inserted under.
TASK_LAYER = {"build_row": "distance", "consume_row": "distance"}

TARGETS = (
    # gwas — the session surface the workloads drive
    Target("repro.gwas.session:KRRSession", "__init__", "gwas", "session_init"),
    Target("repro.gwas.session:KRRSession", "build", "gwas", "build", _session_flops),
    Target("repro.gwas.session:KRRSession", "associate", "gwas", "associate", _session_flops),
    Target("repro.gwas.session:KRRSession", "predict", "gwas", "predict", _session_flops),
    Target("repro.gwas.session:KRRSession", "predict_many", "gwas", "predict", _session_flops),
    Target("repro.gwas.session:KRRSession", "cross_kernel", "gwas", "predict", _session_flops),
    Target("repro.gwas.session:KRRSession", "predict_with_kernel", "gwas", "predict", _session_flops),
    Target("repro.gwas.session:KRRSession", "export_model", "gwas", "export_model"),
    Target("repro.gwas.session:KRRSession", "from_model", "gwas", "from_model"),
    Target("repro.gwas.cv", "grid_search_cv", "gwas", "grid_search_cv"),
    # distance
    Target("repro.distance.build:KernelBuilder", "build_training", "distance", "build_training"),
    Target("repro.distance.build:KernelBuilder", "build_cross", "distance", "cross"),
    Target("repro.distance.build:KernelBuilder", "train_operands", "distance", "cross"),
    Target("repro.distance.build:KernelBuilder", "iter_cross_rows", "distance", "cross",
           generator=True),
    # precision
    Target("repro.precision.quantize", "quantize", "precision", "quantize", _nbytes),
    Target("repro.precision.gemm:QuantizedOperand", "__init__", "precision", "quantize"),
    Target("repro.precision.gemm", "gemm_mixed", "precision", "gemm"),
    Target("repro.precision.gemm", "syrk_mixed", "precision", "gemm"),
    # tiles
    Target("repro.gwas.config:PrecisionPlan", "precision_map", "tiles", "adaptive"),
    Target("repro.tiles.adaptive", "decide_tile_precisions", "tiles", "adaptive"),
    Target("repro.tiles.matrix:TileMatrix", "apply_precision_map", "tiles", "adaptive"),
    Target("repro.tiles.matrix:TileMatrix", "from_dense", "tiles", "copy"),
    Target("repro.tiles.matrix:TileMatrix", "shallow_copy", "tiles", "copy"),
    Target("repro.tiles.matrix:TileMatrix", "unpacked_lower", "tiles", "copy"),
    Target("repro.tiles.matrix:TileMatrix", "copy", "tiles", "copy"),
    Target("repro.tiles.matrix:TileMatrix", "to_dense", "tiles", "copy"),
    # linalg
    Target("repro.linalg.cholesky", "cholesky", "linalg", "cholesky"),
    Target("repro.linalg.solve", "solve_cholesky", "linalg", "solve_cholesky"),
    Target("repro.linalg.cg", "cg_solve", "linalg", "cg_solve",
           lambda args, kwargs, result: result.iterations),
    Target("repro.linalg.blas3", "gemm", "linalg", "blas3_gemm"),
    # runtime — a drain, and each task body inside it
    Target("repro.runtime.runtime:Runtime", "run", "runtime", "run", _run_events),
    Target("repro.runtime.task:Task", "execute", "task", "task",
           label=lambda args: args[0].name),
    # store
    Target("repro.store.store:StoreBinding", "load", "store", "load"),
    Target("repro.store.store:StoreBinding", "set", "store", "set"),
    Target("repro.store.store:TileStore", "prefetch", "store", "prefetch"),
    # parallel — coordinator side only; worker processes are not visible
    Target("repro.parallel.executor", "ensure_pool", "parallel", "pool_start"),
    Target("repro.parallel.exchange:TileExchange", "put", "parallel", "exchange_put",
           lambda args, kwargs, result: result.length),
    Target("repro.parallel.exchange:TileExchange", "get", "parallel", "exchange_get",
           lambda args, kwargs, result: args[1].length),
)


class Tracer:
    """Thread-aware span recorder; see the module docstring.

    While a rep runs, a finished call is one list
    ``[name, layer, parent record, thread, start, end, info]`` appended to
    :attr:`records` — building :class:`Span` objects is left to
    :func:`link`, after the rep, because every microsecond a wrapper
    holds the GIL is paid several times over on the threaded workloads.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def take(self) -> list[list]:
        """The records so far; the recorder starts over."""
        records = self.records[:]
        self.records.clear()
        return records

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        tls = self._tls
        tls.ident = threading.get_ident()
        tls.stack = []
        return tls.stack

    def _wrap(self, fn, target: Target):
        name, layer = target.name, target.layer
        probe, label = target.probe, target.label
        tls, new_stack = self._tls, self._stack
        finished, clock = self.records.append, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = new_stack()
            record = [name if label is None else label(args), layer,
                      stack[-1] if stack else None, tls.ident, 0.0, 0.0, None]
            stack.append(record)
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
                finished(record)
            if probe is not None:
                record[6] = probe(args, kwargs, result)
            return result

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            # one span per produced item: the consumer's work between
            # two items belongs to the consumer, not to this layer
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    stack = tls.stack
                except AttributeError:
                    stack = new_stack()
                record = [name, layer, stack[-1] if stack else None,
                          tls.ident, 0.0, 0.0, None]
                stack.append(record)
                record[4] = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    record[5] = clock()
                    stack.pop()
                    finished(record)
                yield item

        return generator_wrapper if target.generator else wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for target in targets:
            module_path, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_path)
            if class_name:
                self._patch_method(getattr(module, class_name), target)
            else:
                self._patch_function(getattr(module, target.attr), target)

    def _patch_method(self, cls, target: Target) -> None:
        raw = cls.__dict__[target.attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, target))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._undo.append((cls, target.attr, raw))
        setattr(cls, target.attr, wrapped)

    def _patch_function(self, original, target: Target) -> None:
        wrapped = self._wrap(original, target)
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] not in _NAMESPACES:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ----------------------------------------------------------------------
# span tree
# ----------------------------------------------------------------------
def _covered(span: Span) -> float:
    """Length of ``span``'s interval that its child spans cover."""
    covered = 0.0
    edge = span.t0
    for child in sorted(span.children, key=lambda c: c.t0):
        lo, hi = max(child.t0, edge), min(child.t1, span.t1)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return covered


def link(records: list[list]) -> list[Span]:
    """Build the span tree of one rep and derive every span's self time.

    A span that began on a worker thread has no caller on its own
    stack; it is parented to the ``Runtime.run`` span whose interval
    contains it.  Self time is the span's duration minus the part of
    that interval its children cover (a union, so overlapping worker
    threads are not subtracted twice).
    """
    by_record: dict[int, Span] = {}
    spans = []
    for record in records:
        span = by_record[id(record)] = Span()
        (span.name, span.layer, _, span.thread, span.t0, span.t1,
         span.info) = record
        span.children = []
        spans.append(span)
    for record, span in zip(records, spans):
        # a parent still open when the rep ended was never recorded
        span.parent = by_record.get(id(record[2]))
    drains = sorted((s for s in spans if s.layer == "runtime"),
                    key=lambda s: s.t0)
    for span in spans:
        if span.parent is None and span.layer != "runtime":
            for drain in drains:
                if drain.t0 <= span.t0 and span.t1 <= drain.t1 \
                        and drain.thread != span.thread:
                    span.parent = drain
                    break
        if span.parent is not None:
            span.parent.children.append(span)
    for span in spans:
        span.self_s = max(0.0, span.duration - _covered(span))
    return spans


def to_rows(spans: list[Span], rep: int) -> list[dict]:
    """JSON rows: name, layer, start, end, parent id, rep id, thread."""
    ids = {id(span): i for i, span in enumerate(spans)}
    return [{"id": i, "name": s.name, "layer": s.layer, "start": s.t0,
             "end": s.t1, "parent": ids.get(id(s.parent)), "rep": rep,
             "thread": s.thread} for i, s in enumerate(spans)]
