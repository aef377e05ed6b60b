"""The curated benchmark set.

Three families:

* **micro** — the section 4.1 microbenchmarks (word latency, send
  overhead, bulk bandwidth), one sample per seed;
* **ping** — telemetry-instrumented message streams whose per-operation
  ``vmmc.send`` spans yield latency distributions *and* critical-path
  attribution vectors (including a lossy reliable-channel variant, where
  retransmission timeouts surface as ``stall``);
* **apps** — study-suite applications (full mode only): end-to-end
  elapsed time plus the aggregate attribution of every top-level
  operation in the run.

Plus the growth-direction suites, gated by their own baselines rather
than ``BENCH_seed.json``: **serve** (serving-tier latency/goodput) and
**coll** (in-network collectives: barrier, allreduce, broadcast).

Everything is seeded and measured in virtual time, so a benchmark's
samples are a pure function of the code — which is what makes the
committed baseline comparable across machines.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..node import Machine
from ..telemetry import critpath
from ..vmmc import ReliableConfig, VMMCRuntime
from .core import BenchRun, BenchSpec, register

__all__ = [
    "PING_OPS",
    "measure_spans",
    "ping_run",
    "serve_run",
    "span_samples",
    "stream",
]

#: Operations per ping benchmark per seed (first op excluded as warm-up).
PING_OPS = 9


def _micro(fn: Callable[[], float]) -> Callable[[int], BenchRun]:
    """Wrap a repro.study.micro function (deterministic; seed-independent)."""

    def runner(seed: int) -> BenchRun:
        return BenchRun(samples=[fn()])

    return runner


def _payload(nbytes: int) -> bytes:
    return (bytes(range(256)) * (-(-nbytes // 256)))[:nbytes]


def stream(
    machine: Machine,
    senders: int,
    nbytes: int,
    ops: int,
    reliable: bool = False,
) -> None:
    """Spawn the (n-1)-to-1 VMMC stream on ``machine``; does not run it.

    Node 0 exports one ``nbytes`` buffer per sender and waits for
    ``ops`` messages into each; nodes ``1..senders`` each import theirs
    and send ``ops`` messages, synchronously delivered, or through a
    reliable channel when ``reliable``.
    """
    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(0))
    payload = _payload(nbytes)

    def rx():
        buffers = []
        for s in range(senders):
            buffer = yield from receiver.export(nbytes, name=f"stream.{s}")
            buffers.append(buffer)
        for buffer in buffers:
            yield from receiver.wait_bytes(buffer, nbytes * ops)

    def tx(s: int):
        endpoint = vmmc.endpoint(machine.create_process(s + 1))
        imported = yield from endpoint.import_buffer(f"stream.{s}")
        src = endpoint.alloc(nbytes)
        endpoint.poke(src, payload)
        if reliable:
            channel = endpoint.open_reliable(
                imported, ReliableConfig(timeout_us=300.0)
            )
            for _ in range(ops):
                yield from channel.send(src, nbytes)
        else:
            for _ in range(ops):
                yield from endpoint.send(
                    imported, src, nbytes, sync_delivered=True
                )

    machine.sim.spawn(rx(), "stream.rx")
    for s in range(senders):
        machine.sim.spawn(tx(s), f"stream.tx{s}")


def span_samples(telemetry, span_name: str) -> List[float]:
    """Per-operation durations with each node's cold first op dropped.

    The cold op (first use of a buffer, tree or queue, plus start skew)
    stays in the attribution sums; when no node has a second op, every
    root is a sample.
    """
    roots = critpath.operation_roots(telemetry, span_name)
    by_node: Dict[int, list] = {}
    for root in roots:
        by_node.setdefault(root.node, []).append(root)
    samples: List[float] = []
    for spans in by_node.values():
        spans.sort(key=lambda span: span.start)
        samples.extend(span.duration for span in spans[1:])
    return samples or [span.duration for span in roots]


def measure_spans(machine: Machine, span_name: str, **fields) -> BenchRun:
    """A drained, telemetry-armed ``machine``'s run, measured over its
    ``span_name`` operations; ``fields`` fill the rest of the result."""
    telemetry = machine.telemetry
    agg = critpath.aggregate(telemetry, span_name, top=0)
    return BenchRun(
        samples=span_samples(telemetry, span_name),
        attribution=agg.components,
        ops=agg.count,
        telemetry=telemetry,
        monitor=machine.monitor,
        virtual_end_us=machine.now,
        **fields,
    )


def ping_run(
    machine: Machine,
    senders: int,
    nbytes: int,
    ops: int = PING_OPS,
    reliable: bool = False,
) -> BenchRun:
    """Run :func:`stream` on a telemetry-armed ``machine``.

    One latency sample per ``vmmc.send`` span (see :func:`span_samples`).
    """
    stream(machine, senders, nbytes, ops, reliable=reliable)
    machine.sim.run()
    return measure_spans(machine, "vmmc.send")


def _ping(
    seed: int,
    nbytes: int,
    senders: int = 1,
    drop_rate: float = 0.0,
    reliable: bool = False,
) -> BenchRun:
    fault_config = None
    if drop_rate > 0.0:
        from ..faults import FaultConfig

        fault_config = FaultConfig(drop_rate=drop_rate)
    machine = Machine(
        num_nodes=senders + 1,
        seed=seed,
        telemetry=True,
        fault_config=fault_config,
    )
    return ping_run(machine, senders, nbytes, reliable=reliable)


def _app(
    name: str, mode: str, nprocs: int
) -> Callable[[int], BenchRun]:
    def runner(seed: int) -> BenchRun:
        from ..apps.base import run_app
        from ..study.suite import spec

        app_spec = spec(name)
        machine = Machine(
            nprocs, params=app_spec.params, seed=seed, telemetry=True
        )
        result = run_app(app_spec.factory(mode), nprocs, machine=machine)
        agg = critpath.aggregate(machine.telemetry, None, top=0)
        return BenchRun(
            samples=[result.elapsed_us],
            attribution=agg.components,
            ops=agg.count,
        )

    return runner


def _register_micro() -> None:
    from ..study import micro

    register(
        BenchSpec(
            "du_word_latency", "us", False, _micro(micro.du_word_latency),
            description="one-word deliberate-update end-to-end latency",
        )
    )
    register(
        BenchSpec(
            "au_word_latency", "us", False, _micro(micro.au_word_latency),
            description="one-word automatic-update end-to-end latency",
        )
    )
    register(
        BenchSpec(
            "du_send_overhead", "us", False, _micro(micro.du_send_overhead),
            description="send-side cost of an asynchronous deliberate update",
        )
    )
    register(
        BenchSpec(
            "du_bulk_bandwidth", "MB/s", True,
            _micro(micro.du_bulk_bandwidth),
            description="64 KB deliberate-update bandwidth",
        )
    )
    register(
        BenchSpec(
            "au_bulk_bandwidth", "MB/s", True,
            _micro(micro.au_bulk_bandwidth),
            description="64 KB combined automatic-update bandwidth",
        )
    )


def _register_pings() -> None:
    register(
        BenchSpec(
            "du_ping_word", "us", False,
            lambda seed: _ping(seed, nbytes=4),
            description="4 B deliberate-update send, initiation to delivery",
        )
    )
    register(
        BenchSpec(
            "du_ping_4k", "us", False,
            lambda seed: _ping(seed, nbytes=4096),
            description="one-page deliberate-update send",
        )
    )
    register(
        BenchSpec(
            "du_fanin_4k", "us", False,
            lambda seed: _ping(seed, nbytes=4096, senders=3),
            description="3-to-1 fan-in of one-page sends (contention)",
        )
    )
    register(
        BenchSpec(
            "rel_ping_lossy", "us", False,
            lambda seed: _ping(
                seed, nbytes=4096, drop_rate=0.1, reliable=True
            ),
            description="reliable-channel send over a 10%-drop fabric",
        )
    )


def _register_apps() -> None:
    register(
        BenchSpec(
            "radix_vmmc_du", "us", False, _app("Radix-VMMC", "du", 4),
            quick=False,
            description="Radix-VMMC (du, P=4) elapsed time",
        )
    )
    register(
        BenchSpec(
            "barnes_nx_du", "us", False, _app("Barnes-NX", "du", 4),
            quick=False,
            description="Barnes-NX (du, P=4) elapsed time",
        )
    )
    register(
        BenchSpec(
            "radix_svm_au", "us", False, _app("Radix-SVM", "au", 4),
            quick=False,
            description="Radix-SVM (au, P=4) elapsed time",
        )
    )


def serve_run(config, seed: int) -> BenchRun:
    """Per-request latency of a telemetry-armed serving tier.

    Samples are the durations of every completed ``serve.request`` span,
    so a baseline pins the whole latency distribution (tail included);
    the attribution records where request time goes (cpu vs link vs
    stall), and ``metrics`` the SLO outcome counts.
    """
    from ..serve import ServeCluster

    cluster = ServeCluster(config, seed=seed, telemetry=True)
    report = cluster.run()
    machine = cluster.machine
    telemetry = machine.telemetry
    agg = critpath.aggregate(telemetry, "serve.request", top=0)
    overall = report.overall
    return BenchRun(
        samples=[
            span.duration
            for span in critpath.operation_roots(telemetry, "serve.request")
        ],
        attribution=agg.components,
        ops=agg.count,
        telemetry=telemetry,
        monitor=machine.monitor,
        virtual_end_us=machine.now,
        metrics={
            "goodput_rps": report.goodput_rps,
            "ok": float(overall.ok),
            "late": float(overall.late),
            "failed": float(overall.failed),
        },
        report=report.render(),
    )


def _serve_latency(seed: int) -> BenchRun:
    """A small hash-balanced tier (see :func:`serve_run`)."""
    from ..serve import ServeConfig

    config = ServeConfig(
        num_shards=2,
        num_aggregates=2,
        balancer="hash",
        offered_rps=40_000.0,
        duration_us=5_000.0,
    )
    return serve_run(config, seed)


def _serve_goodput(seed: int) -> BenchRun:
    """Goodput of a p2c-balanced tier under bursty (MMPP) overload."""
    from ..serve import ServeCluster, ServeConfig

    config = ServeConfig(
        num_shards=2,
        num_aggregates=2,
        balancer="p2c",
        arrivals="mmpp",
        offered_rps=60_000.0,
        duration_us=5_000.0,
    )
    cluster = ServeCluster(config, seed=seed)
    report = cluster.run()
    return BenchRun(samples=[report.goodput_rps])


def _coll_ops(
    seed: int,
    backend: str,
    nodes: int,
    op: str = "barrier",
    ops: int = 8,
) -> BenchRun:
    """``ops`` collectives on ``nodes`` ranks; one sample per op span
    after each rank's cold first op (see :func:`span_samples`)."""
    from ..coll import CollConfig, CollWorld

    machine = Machine(num_nodes=nodes, seed=seed, telemetry=True)
    world = CollWorld(machine, nodes, CollConfig(backend=backend))

    def worker(rank: int):
        coll = world.join(rank, machine.create_process(rank))
        if op == "barrier":
            for _ in range(ops):
                yield from coll.barrier()
        elif op == "allreduce":
            for i in range(ops):
                yield from coll.allreduce(float(rank + i), op="sum")
        elif op == "bcast":
            data = _payload(4096) if rank == 0 else None
            for _ in range(ops):
                yield from coll.bcast(0, data)
        else:  # pragma: no cover - spec misconfiguration
            raise ValueError(f"unknown collective op {op!r}")

    for rank in range(nodes):
        machine.sim.spawn(worker(rank), f"bench.coll.r{rank}")
    machine.sim.run()
    return measure_spans(machine, f"coll.{op}")


def _register_coll() -> None:
    register(
        BenchSpec(
            "coll_barrier_nic_16", "us", False,
            lambda seed: _coll_ops(seed, "nic", 16, "barrier"),
            suite="coll",
            description="NIC-resident tree barrier, 16 nodes",
        )
    )
    register(
        BenchSpec(
            "coll_barrier_host_16", "us", False,
            lambda seed: _coll_ops(seed, "host", 16, "barrier"),
            suite="coll",
            description="host-backend tree barrier, 16 nodes",
        )
    )
    register(
        BenchSpec(
            "coll_allreduce_nic_16", "us", False,
            lambda seed: _coll_ops(seed, "nic", 16, "allreduce"),
            suite="coll",
            description="NIC-resident combining allreduce, 16 nodes",
        )
    )
    register(
        BenchSpec(
            "coll_bcast_4k_nic_16", "us", False,
            lambda seed: _coll_ops(seed, "nic", 16, "bcast"),
            suite="coll",
            description="switch-replicated 4 KB broadcast, 16 nodes",
        )
    )


def _register_serve() -> None:
    register(
        BenchSpec(
            "serve_request_latency", "us", False, _serve_latency,
            suite="serve",
            description="per-request latency, 2x2 tier, hash balancer",
        )
    )
    register(
        BenchSpec(
            "serve_goodput_mmpp", "rps", True, _serve_goodput,
            suite="serve",
            description="goodput under bursty MMPP overload, p2c balancer",
        )
    )


_register_micro()
_register_pings()
_register_apps()
_register_serve()
_register_coll()
