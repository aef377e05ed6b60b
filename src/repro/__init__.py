"""repro: a behavioral reproduction of the SHRIMP multicomputer.

Reproduces "Design Choices in the SHRIMP System: An Empirical Study"
(Blumrich et al., ISCA 1998): the VMMC communication model, the SHRIMP
network interface with automatic and deliberate update, a Paragon-style
mesh backplane, the NX / stream-sockets / shared-virtual-memory software
stacks, the paper's application suite, and the what-if experiment harness
that regenerates every table and figure.

Quick start::

    from repro import Machine, VMMCRuntime

    machine = Machine(num_nodes=2)
    vmmc = VMMCRuntime(machine)
    ...

See ``examples/quickstart.py`` for a complete program.

The exports below load on first use (PEP 562), so ``import repro`` alone
imports no subsystem.
"""

import importlib

__version__ = "1.8.0"

__all__ = [
    "Machine",
    "Catalog",
    "Collective",
    "CollConfig",
    "CollWorld",
    "ExperimentSpec",
    "make_spec",
    "run_specs",
    "RunStore",
    "Node",
    "NodeProcess",
    "MachineParams",
    "DEFAULT_PARAMS",
    "NICConfig",
    "DEFAULT_NIC_CONFIG",
    "VMMCRuntime",
    "VMMCEndpoint",
    "FaultConfig",
    "FaultPlan",
    "ReliableChannel",
    "ReliableConfig",
    "DeliveryFailed",
    "HealthMonitor",
    "MonitorConfig",
    "MetricsRegistry",
    "ObsConfig",
    "Postmortem",
    "SamplingProfiler",
    "ServeCluster",
    "ServeConfig",
    "SloReport",
    "ShardSpec",
    "spec_for_nodes",
    "run_serial",
    "run_sharded",
    "Simulator",
    "Telemetry",
    "Timeout",
    "__version__",
]

#: export -> the subpackage that defines it.
_SOURCES = {
    name: package
    for package, names in (
        ("coll", "Collective CollConfig CollWorld"),
        ("faults", "FaultConfig FaultPlan"),
        ("fleet", "Catalog ExperimentSpec RunStore make_spec run_specs"),
        ("hardware", "DEFAULT_PARAMS MachineParams"),
        ("monitor", "HealthMonitor MonitorConfig Postmortem"),
        ("nic", "DEFAULT_NIC_CONFIG NICConfig"),
        ("node", "Machine Node NodeProcess"),
        ("obs", "MetricsRegistry ObsConfig SamplingProfiler"),
        ("serve", "ServeCluster ServeConfig SloReport"),
        ("shard", "ShardSpec run_serial run_sharded spec_for_nodes"),
        ("sim", "Simulator Timeout"),
        ("telemetry", "Telemetry"),
        ("vmmc", "DeliveryFailed ReliableChannel ReliableConfig "
                 "VMMCEndpoint VMMCRuntime"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    package = importlib.import_module(f".{_SOURCES[name]}", __name__)
    value = getattr(package, name)
    globals()[name] = value
    return value
