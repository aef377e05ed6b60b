"""The curated benchmark set: a catalog of named fleet specs.

Every benchmark is a :class:`Benchmark` row (name, spec, suite, quick),
run at each seed by the one workload registry,
:data:`repro.fleet.workloads.WORKLOADS`, where it is also registered as
``bench:<name>``.  Families:

* **micro** — the section 4.1 microbenchmarks (word latency, send
  overhead, bulk bandwidth), one sample per seed;
* **ping** — ``ping`` specs: telemetry-instrumented message streams whose
  per-operation ``vmmc.send`` spans yield latency distributions *and*
  critical-path attribution vectors (including a lossy reliable-channel
  variant on the ``drop10`` plan, where retransmission timeouts surface
  as ``stall``);
* **apps** — study-suite applications (full mode only): end-to-end
  elapsed time plus the aggregate attribution of every top-level
  operation in the run.

Plus the growth-direction suites, gated by their own baselines rather
than ``BENCH_seed.json``: **serve** (a 4-node ``serve`` spec, and MMPP
goodput) and **coll** (in-network collectives over the ``CollWorld``
API: barrier, allreduce, broadcast).  Runners with no parametric
spelling (micro, apps, MMPP goodput, ``coll_*``) are the fixed workloads
``bench:<name>``.  The workload shapes the harnesses share live here too:
:func:`stream`, :func:`span_samples`, :func:`measure_spans`,
:func:`ping_run` and :func:`serve_run`.

Everything is seeded and measured in virtual time, so a benchmark's
samples are a pure function of the code — which is what makes the
committed baseline comparable across machines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from ..fleet.catalog import ExperimentSpec, make_spec
from ..fleet.workloads import WORKLOADS, Workload, register, require_defaults
from ..node import Machine
from ..telemetry import critpath
from ..vmmc import ReliableConfig, VMMCRuntime
from .core import BenchRun

__all__ = [
    "Benchmark",
    "CATALOG",
    "PING_OPS",
    "measure_spans",
    "ping_run",
    "serve_run",
    "span_samples",
    "stream",
]

#: Operations per ping benchmark per seed (first op excluded as warm-up).
PING_OPS = 9


def _micro(name: str) -> Callable[[int], BenchRun]:
    """A repro.study.micro function (deterministic; seed-independent)."""

    def runner(seed: int) -> BenchRun:
        from ..study import micro

        return BenchRun(samples=[getattr(micro, name)()])

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


def measure_spans(
    machine: Machine,
    span_name: str,
    mean_as: Optional[str] = None,
    **fields,
) -> BenchRun:
    """A drained, telemetry-armed ``machine``'s run, measured over its
    ``span_name`` operations; ``fields`` fill the rest of the result.

    ``mean_as`` names a metric that receives the mean duration over every
    operation, cold ones included.
    """
    telemetry = machine.telemetry
    agg = critpath.aggregate(telemetry, span_name, top=0)
    run = BenchRun(
        samples=span_samples(telemetry, span_name),
        attribution=agg.components,
        ops=agg.count,
        telemetry=telemetry,
        monitor=machine.monitor,
        virtual_end_us=machine.now,
        **fields,
    )
    if mean_as is not None:
        run.metrics[mean_as] = agg.total_us / agg.count if agg.count else 0.0
    return run


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


@dataclass(frozen=True)
class Benchmark:
    """One row of the benchmark catalog: a named fleet spec."""

    name: str
    spec: ExperimentSpec
    #: Which benchmark suite the row belongs to.  The default selection
    #: runs only the ``"seed"`` suite, so the committed ``BENCH_seed.json``
    #: baseline stays byte-identical as new suites (e.g. ``"serve"``) are
    #: added; select others with ``--suite``.
    suite: str = "seed"
    #: Included in the --quick subset (CI-sized).
    quick: bool = True

    @property
    def workload(self) -> Workload:
        return WORKLOADS[self.spec.workload]

    def run(self, seed: int) -> BenchRun:
        return self.workload.run(replace(self.spec, seed=seed))


#: The benchmark set, in registration order.
CATALOG: List[Benchmark] = []


def _benchmark(
    name: str,
    description: str,
    spec: Optional[ExperimentSpec] = None,
    runner: Optional[Callable[[int], BenchRun]] = None,
    unit: str = "us",
    higher_is_better: bool = False,
    **row,
) -> None:
    """Add a catalog row and register it as ``bench:<name>``, run at the
    seed of the spec that names it.  ``spec`` spells the benchmark in a
    parametric workload; without one, ``runner(seed)`` is the fixed
    workload ``bench:<name>``."""
    bench = Benchmark(name, spec or make_spec(f"bench:{name}"), **row)
    if spec is not None:
        workload = bench.workload
        unit, higher_is_better = workload.unit, workload.higher_is_better
        runner = bench.run

    def run(fleet_spec: ExperimentSpec) -> BenchRun:
        require_defaults(fleet_spec)
        return runner(fleet_spec.seed)

    register(
        Workload(f"bench:{name}", unit, higher_is_better, description, run)
    )
    CATALOG.append(bench)


for _name, _unit, _higher, _description in (
    ("du_word_latency", "us", False,
     "one-word deliberate-update end-to-end latency"),
    ("au_word_latency", "us", False,
     "one-word automatic-update end-to-end latency"),
    ("du_send_overhead", "us", False,
     "send-side cost of an asynchronous deliberate update"),
    ("du_bulk_bandwidth", "MB/s", True, "64 KB deliberate-update bandwidth"),
    ("au_bulk_bandwidth", "MB/s", True,
     "64 KB combined automatic-update bandwidth"),
):
    _benchmark(
        _name, _description, runner=_micro(_name), unit=_unit,
        higher_is_better=_higher,
    )

_benchmark(
    "du_ping_word", "4 B deliberate-update send, initiation to delivery",
    make_spec("ping", nodes=2, nbytes=4),
)
_benchmark(
    "du_ping_4k", "one-page deliberate-update send",
    make_spec("ping", nodes=2, nbytes=4096),
)
_benchmark(
    "du_fanin_4k", "3-to-1 fan-in of one-page sends (contention)",
    make_spec("ping", nodes=4, nbytes=4096),
)
_benchmark(
    "rel_ping_lossy", "reliable-channel send over a 10%-drop fabric",
    make_spec("ping", nodes=2, fault_plan="drop10", nbytes=4096,
              reliable=True),
)

for _name, _app_name, _mode in (
    ("radix_vmmc_du", "Radix-VMMC", "du"),
    ("barnes_nx_du", "Barnes-NX", "du"),
    ("radix_svm_au", "Radix-SVM", "au"),
):
    _benchmark(
        _name, f"{_app_name} ({_mode}, P=4) elapsed time",
        runner=_app(_app_name, _mode, 4), quick=False,
    )

_benchmark(
    "serve_request_latency", "per-request latency, 2x2 tier, hash balancer",
    make_spec("serve", nodes=4), suite="serve",
)
_benchmark(
    "serve_goodput_mmpp", "goodput under bursty MMPP overload, p2c balancer",
    runner=_serve_goodput, unit="rps", higher_is_better=True, suite="serve",
)

# The coll_* benchmarks measure the CollWorld API itself, without the NX
# rendezvous the fleet's ``coll`` workload goes through.
for _name, _backend, _op, _description in (
    ("coll_barrier_nic_16", "nic", "barrier",
     "NIC-resident tree barrier, 16 nodes"),
    ("coll_barrier_host_16", "host", "barrier",
     "host-backend tree barrier, 16 nodes"),
    ("coll_allreduce_nic_16", "nic", "allreduce",
     "NIC-resident combining allreduce, 16 nodes"),
    ("coll_bcast_4k_nic_16", "nic", "bcast",
     "switch-replicated 4 KB broadcast, 16 nodes"),
):
    _benchmark(
        _name, _description,
        runner=functools.partial(
            _coll_ops, backend=_backend, nodes=16, op=_op
        ),
        suite="coll",
    )
