"""Outside-in per-layer host-time tracer.

The tracer wraps public functions of the simulator's packages from the
benchmark's own files (the ``repro`` sources are untouched) and keeps a
stack of the layers currently running.  Each clock reading charges the
time since the previous reading to the layer on top of the stack, so a
layer's *self time* excludes the nested calls it makes into other layers,
and the self times of all layers (the benchmark's own ``bench`` layer
included) add up to the traced wall time exactly.

Generators are timed only while they are being resumed: a wrapped
generator pushes its layer for each ``send``/``throw`` and pops it before
handing the yielded request back, so time suspended in the engine is never
charged to it.  ``Simulator.spawn`` is wrapped as well, so each process's
resumes are charged to the package that defines its generator function.

Each crossing into a layer (a wrapped call or a timed resume) costs the
tracer's own bookkeeping, part of which lands in the layer entered and part
in the layer it was entered from.  ``calibrate`` measures both parts on a
no-op, and ``LayerTracer.discount`` moves them from the layers to BENCH.
"""

from __future__ import annotations

import functools
import statistics
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, Optional, Tuple

__all__ = ["BENCH", "LayerTracer", "calibrate", "layer_of_module"]

#: The layer charged for time outside every wrapped call: the benchmark's
#: own code and the tracer's bookkeeping.
BENCH = "bench"

#: Kinds of crossing into a layer; their bookkeeping costs differ.
CALL = "call"
RESUME = "resume"

Count = Callable[[tuple, dict], int]


def layer_of_module(module: str, layers: Iterable[str]) -> Optional[str]:
    """``repro.<layer>.*`` -> layer; other ``repro`` packages -> None (not
    wrapped: their time stays with the caller); anything else -> BENCH."""
    parts = module.split(".")
    if parts[0] != "repro":
        return BENCH
    if len(parts) > 1 and parts[1] in layers:
        return parts[1]
    return None


class LayerTracer:
    """Self time per layer, call counts per wrapped function."""

    def __init__(self):
        #: layer -> seconds of host time spent in the layer's own code.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: wrapped function key (or extra counter name) -> count.
        self.counts: Dict[str, int] = defaultdict(int)
        #: wrapped function key -> seconds inside it, nested calls included.
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        #: (kind, layer entered) -> layer entered from -> crossings.
        self.crossings: Dict[Tuple[str, str], Dict[str, int]] = {}
        #: Estimated cost of all crossings, set by ``discount``.
        self.bookkeeping_s = 0.0
        self._stack = [BENCH]
        self._last = 0.0
        self._start = None
        self._stop = None
        self._patches = []

    # -- the layer stack ---------------------------------------------------

    def _tally(self, kind: str, layer: str) -> Dict[str, int]:
        return self.crossings.setdefault((kind, layer), defaultdict(int))

    def enter(self, layer: str, tally: Dict[str, int]) -> float:
        now = perf_counter()
        top = self._stack[-1]
        self.self_s[top] += now - self._last
        tally[top] += 1
        self._stack.append(layer)
        self._last = now
        return now

    def leave(self) -> float:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now
        return now

    def start(self) -> None:
        self._start = self._last = perf_counter()

    def stop(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError(f"tracer stopped inside layers {self._stack[1:]}")
        now = perf_counter()
        self.self_s[BENCH] += now - self._last
        self._last = self._stop = now

    @property
    def wall_s(self) -> float:
        """Host seconds between ``start`` and ``stop``."""
        return self._stop - self._start

    # -- wrappers ----------------------------------------------------------

    def timed_generator(self, gen, layer: str):
        """A generator that drives ``gen``, charging each resume to ``layer``.

        Return values, exceptions thrown in (``Interrupted``) and
        ``close()`` pass through with the meaning they have on ``gen``.
        """
        enter, leave = self.enter, self.leave
        tally = self._tally(RESUME, layer)
        send, throw = gen.send, gen.throw
        value = None
        exc = None
        while True:
            enter(layer, tally)
            try:
                request = send(value) if exc is None else throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            exc = None
            try:
                value = yield request
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into gen, as yield from does
                exc = thrown
                value = None

    def wrap(
        self,
        fn: Callable,
        layer: str,
        key: str,
        extra: Optional[Tuple[str, Count]] = None,
    ) -> Callable:
        """``fn`` charged to ``layer``; calls counted under ``key``.

        A generator that ``fn`` returns is wrapped by ``timed_generator``.
        ``extra`` = (counter, measure) adds ``measure(args, kwargs)`` to
        ``counts[counter]`` on each call.  ``inclusive_s[key]`` sums the time
        inside the call itself (for a generator function: its creation only).
        """
        counts, inclusive = self.counts, self.inclusive_s
        enter, leave = self.enter, self.leave
        tally = self._tally(CALL, layer)
        timed = self.timed_generator
        generator = types.GeneratorType

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if extra is not None:
                counts[extra[0]] += extra[1](args, kwargs)
            began = enter(layer, tally)
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive[key] += leave() - began
            if type(result) is generator:
                return timed(result, layer)
            return result

        return wrapper

    def patch(
        self,
        owner,
        attr: str,
        layer: str,
        extra: Optional[Tuple[str, Count]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module) by its wrapped form."""
        original = owner.__dict__[attr]
        key = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, key, extra))

    def patch_spawn(self, simulator_cls, layers: Iterable[str]) -> None:
        """Wrap ``simulator_cls.spawn``: each process's resumes are charged
        to the layer of the module defining its generator function."""
        layers = frozenset(layers)
        original = simulator_cls.spawn
        timed = self.timed_generator
        timed_code = LayerTracer.timed_generator.__code__
        cache: Dict[str, Optional[str]] = {}

        def spawn(sim, gen, name="", daemon=False):
            frame = getattr(gen, "gi_frame", None)
            if frame is not None and gen.gi_code is not timed_code:
                module = frame.f_globals.get("__name__", "")
                if module not in cache:
                    cache[module] = layer_of_module(module, layers)
                layer = cache[module]
                if layer is not None:
                    name = name or getattr(gen, "__name__", "process")
                    gen = timed(gen, layer)
            return original(sim, gen, name, daemon)

        self._patches.append((simulator_cls, "spawn", original))
        simulator_cls.spawn = self.wrap(spawn, "sim", "Simulator.spawn")

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def discount(self, costs: Dict[str, Tuple[float, float]]) -> None:
        """Move the estimated cost of every crossing from the layers to BENCH.

        ``costs[kind] = (callee_s, caller_s)``, as ``calibrate`` returns:
        host seconds one crossing of that kind charges to the layer entered
        and to the layer it was entered from.  Self times still add up to
        the wall time; a layer is never left below zero.  Inclusive times
        are not discounted.
        """
        charge: Dict[str, float] = defaultdict(float)
        for (kind, layer), callers in self.crossings.items():
            callee_s, caller_s = costs[kind]
            for caller, n in callers.items():
                charge[layer] += n * callee_s
                charge[caller] += n * caller_s
        self.bookkeeping_s = sum(charge.values())
        for layer, seconds in charge.items():
            if layer != BENCH:
                moved = min(seconds, self.self_s[layer])
                self.self_s[layer] -= moved
                self.self_s[BENCH] += moved

    def __enter__(self) -> "LayerTracer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if exc_info[0] is None:
                self.stop()
        finally:
            self.restore()


def _noop(_):
    pass


def _spin():
    while True:
        yield


#: Crossings timed per calibration sample, and samples per kind.
CALIBRATION_CROSSINGS = 20_000
CALIBRATION_SAMPLES = 5


def _crossing_cost(kind: str) -> Tuple[float, float]:
    n = CALIBRATION_CROSSINGS
    tracer = LayerTracer()
    if kind == CALL:
        bare = _noop
        traced = tracer.wrap(_noop, "calibrate", "calibrate")
    else:
        bare = _spin().send
        traced = tracer.timed_generator(_spin(), "calibrate").send
    began = perf_counter()
    for _ in range(n):
        bare(None)
    bare_s = perf_counter() - began
    tracer.start()
    for _ in range(n):
        traced(None)
    tracer.stop()
    return (
        tracer.self_s["calibrate"] / n,
        (tracer.self_s[BENCH] - bare_s) / n,
    )


def calibrate() -> Dict[str, Tuple[float, float]]:
    """Host seconds one crossing of each kind costs: (callee, caller).

    Times wrapped calls of a no-op and timed resumes of a generator that
    only yields, each against the same loop untraced; each part is the
    median over the samples.  The callee part holds the no-op
    itself and the caller part leaves it out, so their sum is exact.
    """
    costs = {}
    for kind in (CALL, RESUME):
        samples = [_crossing_cost(kind) for _ in range(CALIBRATION_SAMPLES)]
        costs[kind] = (
            max(0.0, statistics.median(callee for callee, _ in samples)),
            max(0.0, statistics.median(caller for _, caller in samples)),
        )
    return costs
