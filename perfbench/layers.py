"""The simulator's layers: which public calls the tracer wraps, and the
per-layer metrics computed from a traced run.

The layers are the ``repro`` packages a workload runs through.  The
rationale for each metric (the end-to-end metric and workload it should
move) is recorded in ``perfbench/rationale.json``.
"""

from __future__ import annotations

from typing import Dict

from tracer import BENCH, LayerTracer

__all__ = ["LAYERS", "install", "layer_metrics"]

LAYERS = (
    "sim", "node", "hardware", "network", "nic", "vmmc", "svm", "apps",
    "serve", "telemetry",
)

_MEM_CALLS = (
    "PhysicalMemory.read", "PhysicalMemory.write",
    "PhysicalMemory.read_page", "PhysicalMemory.write_page",
)
_VMMC_CALLS = (
    "VMMCEndpoint.send", "VMMCEndpoint.export", "VMMCEndpoint.import_buffer",
    "VMMCEndpoint.wait_messages", "VMMCEndpoint.wait_bytes",
    "VMMCEndpoint.au_write", "VMMCEndpoint.au_flush", "ReliableChannel.send",
)
_SVM_CALLS = (
    "SVMNode.read", "SVMNode.write", "SVMNode.acquire", "SVMNode.release",
    "SVMNode.barrier",
)


def _read_bytes(args, kwargs) -> int:
    return args[2]


def _write_bytes(args, kwargs) -> int:
    return len(args[2])


def _page_bytes(args, kwargs) -> int:
    return args[0].page_size


def install(tracer: LayerTracer) -> None:
    """Wrap every public call the per-layer metrics time (undo: restore)."""
    from repro.apps import base as apps_base
    from repro.hardware.memory import PhysicalMemory
    from repro.hardware.mmu import AddressSpace
    from repro.network.backplane import Backplane
    from repro.nic.interface import ShrimpNIC
    from repro.node.machine import Machine
    from repro.serve.cluster import ServeCluster
    from repro.sim.engine import Simulator
    from repro.svm.protocol import SVMNode
    from repro.telemetry import critpath
    from repro.telemetry.collector import Telemetry
    from repro.vmmc.api import VMMCEndpoint
    from repro.vmmc.reliable import ReliableChannel

    patch = tracer.patch
    tracer.patch_spawn(Simulator, LAYERS)
    patch(Simulator, "run", "sim")
    for attr in ("__init__", "start", "create_process"):
        patch(Machine, attr, "node")
    mem_bytes = "hardware.mem_bytes"
    patch(PhysicalMemory, "__init__", "hardware")
    patch(PhysicalMemory, "read", "hardware", (mem_bytes, _read_bytes))
    patch(PhysicalMemory, "write", "hardware", (mem_bytes, _write_bytes))
    patch(PhysicalMemory, "read_page", "hardware", (mem_bytes, _page_bytes))
    patch(PhysicalMemory, "write_page", "hardware", (mem_bytes, _page_bytes))
    for attr in ("translate", "read", "write"):
        patch(AddressSpace, attr, "hardware")
    patch(Backplane, "transmit", "network")
    for attr in ("initiate_du", "snoop_write", "send_control"):
        patch(ShrimpNIC, attr, "nic")
    for key in _VMMC_CALLS:
        cls = ReliableChannel if key.startswith("Reliable") else VMMCEndpoint
        patch(cls, key.split(".")[1], "vmmc")
    for key in _SVM_CALLS:
        patch(SVMNode, key.split(".")[1], "svm")
    patch(apps_base, "run_app", "apps")
    patch(ServeCluster, "setup", "serve")
    patch(ServeCluster, "run", "serve")
    for attr in ("begin", "end", "instant"):
        patch(Telemetry, attr, "telemetry")
    patch(critpath, "aggregate", "telemetry")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, fields: Dict) -> Dict[str, float]:
    """Every per-layer metric but ``trace.overhead_s`` for one traced run.

    ``fields`` are the run's digest fields (simulated statistics).
    """
    self_s = tracer.self_s
    calls = tracer.counts
    inclusive = tracer.inclusive_s
    counters = fields["counters"]
    events = fields["events"]
    packets = calls["Backplane.transmit"]
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS + (BENCH,)}
    slo = fields.get("slo")
    out.update({
        "sim.events": events,
        "sim.events_per_packet": _ratio(events, packets),
        "sim.processes": calls["Simulator.spawn"],
        "sim.events_per_s": _ratio(events, self_s.get("sim", 0.0)),
        "node.build_s": inclusive["Machine.__init__"],
        "hardware.mem_init_s": inclusive["PhysicalMemory.__init__"],
        "hardware.mem_calls": sum(calls[key] for key in _MEM_CALLS),
        "hardware.mem_bytes": calls["hardware.mem_bytes"],
        "hardware.translations": calls["AddressSpace.translate"],
        "network.packets": packets,
        "network.us_per_packet": 1e6 * _ratio(self_s.get("network", 0.0), packets),
        "nic.du_initiations": calls["ShrimpNIC.initiate_du"],
        "nic.snoop_writes": calls["ShrimpNIC.snoop_write"],
        "nic.control_sends": calls["ShrimpNIC.send_control"],
        "nic.au_runs_per_packet": _ratio(
            counters.get("au.write_runs", 0), counters.get("au.packets", 0)
        ),
        "vmmc.calls": sum(calls[key] for key in _VMMC_CALLS),
        "vmmc.retx_ratio": _ratio(
            counters.get("vmmc.retx.packets", 0),
            counters.get("vmmc.reliable.packets", 0),
        ),
        "svm.calls": sum(calls[key] for key in _SVM_CALLS),
        "svm.faults": counters.get("svm.read_faults", 0)
        + counters.get("svm.write_faults", 0),
        "svm.diff_bytes": counters.get("svm.diff_bytes", 0),
        "serve.requests": slo["offered"] if slo else 0,
        "serve.ok_ratio": _ratio(slo["ok"], slo["offered"]) if slo else 0.0,
        "telemetry.spans": calls["Telemetry.begin"],
        "telemetry.critpath_s": inclusive["critpath.aggregate"],
    })
    return out
