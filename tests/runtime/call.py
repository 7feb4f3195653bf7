"""The tests' one task descriptor: ``call(fn)`` is a task that runs ``fn``.

Every task the runtime runs is a :class:`~repro.runtime.task.TaskSpec`,
so a test that needs a task doing something arbitrary wraps the
function in :class:`Call`.  ``fn`` receives the access list's payloads
in declaration order and returns the written handles' new payloads (one
value, or a tuple in declaration order of the writing accesses).  A
``Call`` holding a lambda runs on the serial and threaded lanes; the
process lane needs a module-level ``fn`` it can pickle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.runtime.task import BodySpec, TaskSpec


@dataclass(frozen=True)
class Call(BodySpec):
    fn: Callable

    def run(self, *args):
        return self.fn(*args)


def call(fn: Callable, **spec) -> TaskSpec:
    """``fn`` as a task's descriptor (``spec`` as for :class:`TaskSpec`)."""
    return TaskSpec(Call(fn), **spec)
