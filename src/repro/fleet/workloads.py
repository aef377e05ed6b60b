"""Fleet workloads: what one :class:`ExperimentSpec` actually runs.

One registry, :data:`WORKLOADS`, maps a spec's ``workload`` name to a
:class:`Workload`: unit, direction, description and the spec ->
:class:`repro.bench.core.BenchRun` runner (virtual-time samples, a
critical-path attribution vector, the telemetry collector for the
Chrome-trace sidecar, the health monitor, scalar metrics and any
rendered report text).  The parametric workloads:

* ``coll`` — the collectives study's cell (the mode → NX-world policy is
  :func:`repro.study.collectives.nx_barrier`): on ``spec.nodes`` ranks,
  a warm-up barrier, ``ops`` barriers, then ``ops`` allreduces.  Samples
  are the per-operation barrier span durations, attribution from
  :func:`repro.telemetry.critpath.aggregate`; ``barrier_us``,
  ``allreduce_us`` and ``coll_packets`` land in ``metrics``.
* ``ping`` — :func:`repro.bench.workloads.ping_run`: ``spec.nodes - 1``
  senders streaming into node 0, samples = ``vmmc.send`` span durations.
* ``serve`` — :func:`repro.bench.workloads.serve_run`; samples =
  ``serve.request`` span durations, goodput and SLO counts in
  ``metrics``.
* ``shard`` — the large-mesh packet model (:mod:`repro.shard`) at
  ``spec.nodes``; samples = per-delivery latencies in virtual time,
  counters in ``metrics``.  Worker count never changes the result (the
  shard determinism contract), so records stay reproducible.

The benchmark catalog (:mod:`repro.bench.workloads`) registers one
``bench:<name>`` entry per benchmark when this module is imported: a
named spec of the workloads above run at ``spec.seed``, or a fixed
workload for the runners with no parametric spelling.  ``study:<family>``
resolves lazily to a :data:`repro.study.__main__.FAMILIES` entry; the
rendered tables become the record's ``report.txt`` artifact.

Platforms come from :mod:`repro.study.platforms`; fault plans are the
named entries of :data:`FAULT_PLANS` so a catalog can say
``"fault_plan": ["none", "drop1"]`` and stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from ..bench.core import BenchRun
    from .catalog import ExperimentSpec

__all__ = [
    "Workload",
    "WORKLOADS",
    "FAULT_PLANS",
    "PLATFORMS",
    "register",
    "resolve_workload",
    "workload_names",
]


@dataclass(frozen=True)
class Workload:
    """A registered workload: metadata plus the spec -> result runner."""

    name: str
    unit: str
    higher_is_better: bool
    description: str
    run: Callable[[ExperimentSpec], BenchRun]


#: Named fault environments a catalog can select declaratively.
#: ``none`` maps to no plan at all (the zero-overhead gate stays closed).
FAULT_PLANS: Dict[str, Optional[dict]] = {
    "none": None,
    "drop1": {"drop_rate": 0.01},
    "drop10": {"drop_rate": 0.1},
    "corrupt1": {"corrupt_rate": 0.01},
    "outage": {"link_outages": 1, "outage_duration_us": 500.0},
    "rxdiscard": {"rx_overflow_discard": True},
}

#: Platform profiles (see repro.study.platforms).
PLATFORMS = ("shrimp", "myrinet")


def _fault_config(spec) -> Optional[object]:
    if spec.fault_plan not in FAULT_PLANS:
        raise ValueError(
            f"unknown fault plan {spec.fault_plan!r}; "
            f"choose from {sorted(FAULT_PLANS)}"
        )
    knobs = FAULT_PLANS[spec.fault_plan]
    if knobs is None:
        return None
    from ..faults import FaultConfig

    return FaultConfig(**knobs)


def _machine(spec, num_nodes: int):
    """A telemetry-armed, monitor-armed machine for one spec."""
    from ..node import Machine
    from ..study.platforms import (
        myrinet_nic_config,
        myrinet_params,
        shrimp_nic_config,
        shrimp_params,
    )

    if spec.platform == "shrimp":
        params, nic_config = shrimp_params(), shrimp_nic_config()
    elif spec.platform == "myrinet":
        params, nic_config = myrinet_params(), myrinet_nic_config()
    else:
        raise ValueError(
            f"unknown platform {spec.platform!r}; choose from {PLATFORMS}"
        )
    machine = Machine(
        num_nodes=num_nodes,
        params=params,
        nic_config=nic_config,
        seed=spec.seed,
        fault_config=_fault_config(spec),
        telemetry=True,
    )
    machine.enable_monitor()
    return machine


def _run_coll(spec) -> BenchRun:
    from ..bench.workloads import measure_spans
    from ..msg import NXWorld
    from ..study.collectives import nx_barrier
    from ..vmmc import VMMCRuntime

    ops = int(spec.param("ops", 8))
    coll, span_name = nx_barrier(spec.param("mode", "tree-nic"))
    machine = _machine(spec, spec.nodes)
    world = NXWorld(VMMCRuntime(machine), spec.nodes, coll=coll)
    marks: Dict[str, float] = {}

    def worker(rank: int):
        nx = yield from world.join(rank, machine.create_process(rank))
        # Warmup barrier absorbs the join rendezvous skew; its spans are
        # the cold ops span_samples drops.
        yield from nx.gsync()
        for _ in range(ops):
            yield from nx.gsync()
        if rank == 0:
            marks["mid"] = machine.now
        for i in range(ops):
            yield from nx.allreduce(float(rank + i), lambda a, b: a + b,
                                    name="sum")
        if rank == 0:
            marks["end"] = machine.now

    for rank in range(spec.nodes):
        machine.sim.spawn(worker(rank), f"fleet.coll.r{rank}")
    machine.sim.run()
    return measure_spans(
        machine,
        span_name,
        mean_as="barrier_us",
        metrics={
            "allreduce_us": (
                (marks["end"] - marks["mid"]) / ops if ops else 0.0
            ),
            "coll_packets": float(
                machine.stats.counter_value("coll.packets")
            ),
        },
    )


def _run_ping(spec) -> BenchRun:
    from ..bench.workloads import PING_OPS, ping_run

    senders = max(1, spec.nodes - 1)
    return ping_run(
        _machine(spec, senders + 1),
        senders,
        nbytes=int(spec.param("nbytes", 4096)),
        ops=int(spec.param("ops", PING_OPS)),
        reliable=bool(spec.param("reliable", False)),
    )


def _run_serve(spec) -> BenchRun:
    from ..bench.workloads import serve_run
    from ..serve import ServeConfig

    if spec.fault_plan != "none":
        raise ValueError(
            "the serve workload drives chaos through repro.serve scenarios; "
            "use fault_plan='none' (chaos knobs are future work)"
        )
    if spec.platform != "shrimp":
        raise ValueError("the serve workload runs on the shrimp platform")
    num_shards = max(1, spec.nodes // 2)
    config = ServeConfig(
        num_shards=num_shards,
        num_aggregates=max(1, spec.nodes - num_shards),
        balancer=str(spec.param("balancer", "hash")),
        arrivals=str(spec.param("arrivals", "poisson")),
        offered_rps=float(spec.param("rps", 40_000.0)),
        duration_us=float(spec.param("duration_us", 5_000.0)),
    )
    return serve_run(config, spec.seed)


def _run_shard(spec) -> BenchRun:
    """The large-mesh shard model at ``spec.nodes`` (virtual time only).

    Samples are per-delivery latencies; counters (packets, events, hops)
    land in ``metrics``.  Wall-clock figures (events/s, epochs) are
    deliberately excluded: records must regenerate byte-identically, and
    the shard contract makes the result independent of the worker count —
    ``workers`` only changes how fast the same bytes are produced.
    """
    from ..bench.core import BenchRun
    from ..shard import run_serial, run_sharded, spec_for_nodes

    require_defaults(spec, nodes_free=True)
    workers = int(spec.param("workers", 1))
    shard_spec = spec_for_nodes(
        spec.nodes,
        workload=str(spec.param("pattern", "uniform")),
        duration_us=float(spec.param("duration_us", 120.0)),
        inject_interval_us=float(spec.param("interval_us", 1.0)),
        packet_bytes=int(spec.param("nbytes", 256)),
        seed=spec.seed,
    )
    result = (
        run_sharded(shard_spec, workers) if workers > 1 else run_serial(shard_spec)
    )
    return BenchRun(
        samples=result.latency_samples(),
        ops=result.packets_delivered,
        virtual_end_us=result.virtual_end_us,
        metrics={
            "packets_injected": float(result.packets_injected),
            "packets_delivered": float(result.packets_delivered),
            "events": float(result.events),
            "mean_hops": result.mean_hops,
            "mean_latency_us": result.mean_latency_us,
        },
    )


def require_defaults(spec, *, nodes_free: bool = False) -> None:
    """``bench:``/``study:``/``shard`` entry points own their machines: the
    spec's platform/fault axes (and for ``bench:`` the node count) must stay
    at their defaults rather than being silently ignored."""
    from .catalog import ExperimentSpec

    if spec.platform != "shrimp" or spec.fault_plan != "none":
        raise ValueError(
            f"workload {spec.workload!r} fixes its own machine; "
            "platform/fault_plan must be the defaults"
        )
    default_nodes = ExperimentSpec.__dataclass_fields__["nodes"].default
    if not nodes_free and spec.nodes != default_nodes:
        raise ValueError(
            f"workload {spec.workload!r} fixes its own machine; "
            f"leave nodes at the default ({default_nodes})"
        )


def _run_study(spec) -> BenchRun:
    from ..bench.core import BenchRun
    from ..study import default_runner
    from ..study.__main__ import FAMILIES

    require_defaults(spec, nodes_free=True)
    family = spec.workload.split(":", 1)[1]
    if family not in FAMILIES:
        raise ValueError(
            f"unknown study family {family!r}; choose from {sorted(FAMILIES)}"
        )
    _description, _in_all, emitter = FAMILIES[family]
    text = emitter(default_runner, spec.nodes)
    return BenchRun(samples=[], report=text)


#: name -> workload: the parametric workloads below, then one
#: ``bench:<name>`` entry per benchmark of :mod:`repro.bench.workloads`.
WORKLOADS: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in WORKLOADS:
        raise ValueError(f"duplicate workload {workload.name!r}")
    WORKLOADS[workload.name] = workload
    return workload


register(
    Workload(
        "coll", "us", False,
        "barrier latency, then an allreduce leg: "
        "mode=nx|tree-host|tree-nic, ops=N",
        _run_coll,
    )
)
register(
    Workload(
        "ping", "us", False,
        "(nodes-1)-to-1 vmmc sends: nbytes=N, ops=N, reliable=0|1",
        _run_ping,
    )
)
register(
    Workload(
        "serve", "us", False,
        "serving-tier request latency: balancer=..., rps=..., duration_us=...",
        _run_serve,
    )
)
register(
    Workload(
        "shard", "us", False,
        "large-mesh packet latency: pattern=..., duration_us=..., workers=N",
        _run_shard,
    )
)


def resolve_workload(name: str) -> Workload:
    """The workload for a spec's ``workload`` field."""
    if name.startswith("study:"):
        return Workload(
            name, "report", False, "study family report (see repro.study)",
            _run_study,
        )
    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; registered: {sorted(WORKLOADS)}, "
            "plus study:<family>"
        )
    return WORKLOADS[name]


def workload_names() -> List[str]:
    """Registered workload names plus the ``study:`` prefix."""
    return sorted(WORKLOADS) + ["study:<family>"]


# Last, so that the catalog finds ``register`` and the parametric
# workloads its benchmarks are spelled in.
from ..bench import workloads as _benchmarks  # noqa: E402,F401
