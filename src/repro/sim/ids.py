"""Run-scoped object numbering.

Several layers stamp objects with small serial numbers purely for
debuggability — packets, reliable channels, exported buffers, socket
connections, RPC clients.  The numbers carry no simulation meaning, but
they leak into the telemetry stream through reprs and span labels, so a
process-global counter would make two same-seed runs in one process
observably different.  Counters created here rewind whenever a fresh
:class:`~repro.node.machine.Machine` is built, making the numbering
per-run instead of per-process.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterator, List

__all__ = ["RunScopedCounter", "RunScopedRegistry", "reset_run_counters"]

#: Everything with a ``reset()`` method rewound at Machine construction.
_COUNTERS: List = []


class RunScopedCounter:
    """An ``itertools.count`` that :func:`reset_run_counters` rewinds.

    The instance itself is stable across resets — call sites may cache it
    or its bound ``__next__`` (e.g. as a dataclass ``default_factory``);
    only the iterator inside is replaced.
    """

    __slots__ = ("_start", "_it")

    def __init__(self, start: int = 0):
        self._start = start
        self._it = itertools.count(start)
        _COUNTERS.append(self)

    def __next__(self) -> int:
        return next(self._it)

    def reset(self) -> None:
        self._it = itertools.count(self._start)


class RunScopedRegistry:
    """A per-run collection of objects, cleared when a fresh Machine is built.

    Used by :mod:`repro.sim.resources` to keep the set of live
    synchronization primitives enumerable, so postmortem tooling
    (:mod:`repro.monitor`) can walk "every named Resource/Queue/Signal"
    without the primitives carrying back-references to a machine.

    The registry holds weak references, in creation order, and iteration
    skips objects that have died: enumerating a machine's primitives never
    keeps that machine (or its telemetry) alive after it is dropped.
    """

    __slots__ = ("_items",)

    def __init__(self):
        self._items: List[weakref.ref] = []
        _COUNTERS.append(self)

    def add(self, obj) -> None:
        self._items.append(weakref.ref(obj))

    def __iter__(self) -> Iterator:
        for ref in self._items:
            obj = ref()
            if obj is not None:
                yield obj

    def __len__(self) -> int:
        return sum(1 for ref in self._items if ref() is not None)

    def reset(self) -> None:
        self._items.clear()


def reset_run_counters() -> None:
    """Rewind every run-scoped counter (called when a Machine is built).

    Modules first imported *after* a Machine was built are also covered:
    their counters start fresh on creation, and every later Machine resets
    them, so same-seed runs always see identical numbering.
    """
    for counter in _COUNTERS:
        counter.reset()
