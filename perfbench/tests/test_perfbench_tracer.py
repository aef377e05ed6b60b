"""Tests of the per-layer tracer (run: python3 -m pytest perfbench/tests)."""

import time

import pytest

from layers import LAYERS, install, layer_metrics
from repro import DEFAULT_PARAMS, Machine, ReliableConfig, VMMCRuntime
from repro.sim import Interrupted, Simulator
from tracer import BENCH, LayerTracer, calibrate, layer_of_module
from workloads import digest, machine_fields

SMALL = DEFAULT_PARAMS.with_overrides(memory_bytes=1024 * 1024)


def _child():
    yield 1.0
    return "done"


def test_wrapped_generator_keeps_return_value():
    tracer = LayerTracer()
    with tracer:
        outer_result = []

        def parent():
            value = yield from tracer.timed_generator(_child(), "nic")
            outer_result.append(value)
            return value

        sim = Simulator()
        proc = sim.spawn(tracer.timed_generator(parent(), "apps"))
        sim.run()
    assert proc.result == "done"
    assert outer_result == ["done"]
    assert sim.now == 1.0


def test_thrown_interrupted_keeps_its_meaning():
    seen = []

    def sleeper():
        try:
            yield 100.0
        except Interrupted as exc:
            seen.append(exc.cause)
        yield 1.0
        return "woke"

    def interrupter(target):
        yield 5.0
        target.interrupt("wake up")

    tracer = LayerTracer()
    with tracer:
        sim = Simulator()
        proc = sim.spawn(tracer.timed_generator(sleeper(), "vmmc"))
        sim.spawn(interrupter(proc))
        sim.run()
    assert seen == ["wake up"]
    assert proc.result == "woke"


def test_uncaught_interrupted_propagates():
    def sleeper():
        yield 100.0

    tracer = LayerTracer()
    wrapped = tracer.timed_generator(sleeper(), "vmmc")
    tracer.start()
    next(wrapped)
    with pytest.raises(Interrupted) as info:
        wrapped.throw(Interrupted("stop"))
    assert info.value.cause == "stop"
    assert tracer._stack == [BENCH]


def test_close_reaches_the_wrapped_generator():
    closed = []

    def worker():
        try:
            while True:
                yield 1.0
        finally:
            closed.append(True)

    tracer = LayerTracer()
    inner = worker()
    wrapped = tracer.timed_generator(inner, "nic")
    tracer.start()
    assert next(wrapped) == 1.0
    wrapped.close()
    assert closed == [True]
    assert inner.gi_frame is None
    assert tracer._stack == [BENCH]


def test_layer_of_module():
    assert layer_of_module("repro.nic.dma", LAYERS) == "nic"
    assert layer_of_module("repro.msg.nx", LAYERS) is None
    assert layer_of_module("workloads", LAYERS) == BENCH


def _reliable_ping(seed: int):
    """Two nodes, four reliable one-page sends; returns the digest fields."""
    machine = Machine(num_nodes=2, params=SMALL, seed=seed)
    runtime = VMMCRuntime(machine)
    receiver = runtime.endpoint(machine.create_process(0))
    sender = runtime.endpoint(machine.create_process(1))
    page = SMALL.page_size

    def rx():
        buffer = yield from receiver.export(page, name="ping")
        yield from receiver.wait_bytes(buffer, 4 * page)

    def tx():
        imported = yield from sender.import_buffer("ping")
        src = sender.alloc(page)
        sender.poke(src, bytes(range(256)) * (page // 256))
        channel = sender.open_reliable(imported, ReliableConfig(timeout_us=300.0))
        for _ in range(4):
            yield from channel.send(src, page)
        yield from channel.drain()

    machine.sim.spawn(rx(), "rx")
    machine.sim.spawn(tx(), "tx")
    machine.sim.run()
    return machine_fields(machine)


def test_traced_run_matches_untraced_and_restores():
    originals = (Simulator.spawn, Simulator.run)
    untraced = digest(_reliable_ping(3))
    tracer = LayerTracer()
    install(tracer)
    with tracer:
        fields = _reliable_ping(3)
    assert digest(fields) == untraced
    assert (Simulator.spawn, Simulator.run) == originals
    metrics = layer_metrics(tracer, fields)
    assert metrics["vmmc.calls"] > 0
    assert metrics["network.packets"] == fields["packets"]
    assert metrics["telemetry.self_s"] == 0.0


def test_self_times_add_up_to_wall_time():
    tracer = LayerTracer()
    install(tracer)
    with tracer:
        _reliable_ping(5)
    resolution = time.get_clock_info("perf_counter").resolution
    total = sum(tracer.self_s.values())
    assert abs(total - tracer.wall_s) <= max(resolution, 1e-9) * 4
    assert set(tracer.self_s) <= set(LAYERS) | {BENCH}
    assert tracer.self_s[BENCH] > 0.0


def test_discount_moves_bookkeeping_to_bench():
    def noop():
        pass

    tracer = LayerTracer()
    inner = tracer.wrap(noop, "nic", "noop")

    def loop():
        for _ in range(20_000):
            inner()

    outer = tracer.wrap(loop, "vmmc", "loop")
    with tracer:
        outer()
    raw = dict(tracer.self_s)
    tracer.discount(calibrate())
    # Each crossing charges its callee (nic) and its caller (vmmc).
    assert tracer.self_s["nic"] < 0.75 * raw["nic"]
    assert tracer.self_s["vmmc"] < 0.75 * raw["vmmc"]
    assert tracer.bookkeeping_s > 0.25 * (raw["nic"] + raw["vmmc"])
    total = sum(tracer.self_s.values())
    assert abs(total - tracer.wall_s) <= 1e-9 * max(1.0, tracer.wall_s) * 4
