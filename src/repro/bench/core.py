"""The benchmark harness: run the curated set, emit ``BENCH_<label>.json``.

Every benchmark is a named fleet spec (a row of
:data:`repro.bench.workloads.CATALOG`) whose workload maps the spec at a
seed to a :class:`BenchRun` — one or more **virtual-time** samples plus
an optional critical-path attribution vector.  The harness runs each
benchmark once per seed, pools the samples (paired across files by
position, so two runs with the same seed list compare sample-for-sample),
and serializes a deterministic JSON document: no wall-clock or host
fields, so a committed baseline reproduces byte-for-byte on any machine.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from .workloads import Benchmark

__all__ = [
    "SCHEMA_VERSION",
    "BenchRun",
    "select",
    "make_entry",
    "run_benchmarks",
    "write_bench",
    "load_bench",
    "render_summary",
]

SCHEMA_VERSION = 1


@dataclass
class BenchRun:
    """The outcome of one workload run: a benchmark at one seed, or one
    fleet spec.  The benchmark harness reads the first three fields;
    the fleet's record builder reads them all."""

    #: Virtual-time samples (one per operation; empty only for
    #: report-only fleet workloads).
    samples: List[float]
    #: Summed critical-path attribution over the run's operations (us per
    #: component; see :data:`repro.telemetry.critpath.COMPONENTS`).
    attribution: Optional[Dict[str, float]] = None
    #: Number of operations the attribution sums over.
    ops: int = 0
    #: The run's telemetry collector (None: no trace sidecar).
    telemetry: object = None
    #: The run's health monitor (None: not armed).
    monitor: object = None
    #: Virtual time at the end of the run.
    virtual_end_us: float = 0.0
    #: Workload-specific scalar metrics (goodput, packet counts, ...).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Rendered report text (None: no report sidecar).
    report: Optional[str] = None


def select(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    suite: str = "seed",
) -> List[Benchmark]:
    """The benchmarks to run, validating any explicit name list.

    An explicit ``names`` list overrides the suite filter; otherwise only
    rows of ``suite`` are selected.
    """
    from .workloads import CATALOG

    if names:
        by_name = {row.name: row for row in CATALOG}
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise ValueError(
                f"unknown benchmarks {unknown}; choose from {sorted(by_name)}"
            )
        return [by_name[n] for n in names]
    rows = [row for row in CATALOG if row.suite == suite]
    if not rows:
        suites = sorted({row.suite for row in CATALOG})
        raise ValueError(f"unknown suite {suite!r}; choose from {suites}")
    if quick:
        rows = [row for row in rows if row.quick]
    return rows


def _percentile(samples: List[float], p: float) -> float:
    ordered = sorted(samples)
    rank = max(1, -(-int(p) * len(ordered) // 100))
    return ordered[rank - 1]


def make_entry(
    unit: str,
    higher_is_better: bool,
    samples: List[float],
    attribution: Optional[Dict[str, float]] = None,
    ops: int = 0,
) -> Dict:
    """One ``benchmarks`` entry of the ``BENCH_*`` schema.

    Shared with :mod:`repro.fleet`, whose ``RunRecord`` documents embed
    the same entry shape — which is what lets the explorer feed stored
    run records straight into :func:`repro.bench.compare.compare_docs`.
    """
    if not samples:
        raise ValueError("a bench entry needs at least one sample")
    entry: Dict = {
        "unit": unit,
        "higher_is_better": higher_is_better,
        "samples": samples,
        "median": statistics.median(samples),
        "mean": statistics.fmean(samples),
        "min": min(samples),
        "max": max(samples),
        "p95": _percentile(samples, 95),
    }
    if ops and attribution is not None:
        total = sum(attribution.values())
        entry["ops"] = ops
        entry["attribution"] = {
            key: value / ops for key, value in attribution.items()
        }
        entry["attribution_share"] = {
            key: (value / total if total else 0.0)
            for key, value in attribution.items()
        }
    return entry


def run_benchmarks(
    label: str,
    quick: bool = False,
    seeds: Sequence[int] = (1998, 1999, 2000),
    names: Optional[Sequence[str]] = None,
    log: Optional[Callable[[str], None]] = None,
    suite: str = "seed",
) -> Dict:
    """Run the selected benchmarks and build the ``BENCH_*`` document.

    The document schema is suite-independent (no suite field), so the
    committed ``BENCH_seed.json`` baseline is unaffected by new suites.
    """
    from .. import __version__
    from ..hardware import DEFAULT_PARAMS

    benchmarks: Dict[str, Dict] = {}
    for row in select(names, quick=quick, suite=suite):
        samples: List[float] = []
        attribution: Dict[str, float] = {}
        ops = 0
        for seed in seeds:
            run = row.run(seed)
            if not run.samples:
                raise RuntimeError(f"benchmark {row.name} produced no samples")
            samples.extend(run.samples)
            if run.attribution is not None:
                ops += run.ops
                for key, value in run.attribution.items():
                    attribution[key] = attribution.get(key, 0.0) + value
        workload = row.workload
        entry = make_entry(
            workload.unit,
            workload.higher_is_better,
            samples,
            attribution=attribution,
            ops=ops,
        )
        benchmarks[row.name] = entry
        if log is not None:
            log(
                f"{row.name}: n={len(samples)} median={entry['median']:.3f} "
                f"{workload.unit}"
            )
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "seeds": list(seeds),
        "meta": {
            "version": __version__,
            "params": DEFAULT_PARAMS.describe(),
        },
        "benchmarks": benchmarks,
    }


def write_bench(doc: Dict, path: str) -> str:
    """Serialize a bench document (sorted keys, stable floats)."""
    from ..telemetry.export import ensure_parent_dir

    with open(ensure_parent_dir(path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return doc


def render_summary(doc: Dict) -> str:
    """ASCII table of one bench document's headline numbers."""
    from ..study.report import format_table

    rows = []
    for name, entry in doc["benchmarks"].items():
        rows.append(
            [
                name,
                entry["unit"],
                len(entry["samples"]),
                entry["median"],
                entry["mean"],
                entry["p95"],
            ]
        )
    return format_table(
        f"Benchmarks: {doc['label']} (seeds {doc['seeds']})",
        ["benchmark", "unit", "n", "median", "mean", "p95"],
        rows,
    )
