"""The benchmark harness: run the curated set, emit ``BENCH_<label>.json``.

Every benchmark is a :class:`BenchSpec` whose runner maps a seed to a
:class:`BenchRun` — one or more **virtual-time** samples plus an optional
critical-path attribution vector.  The harness runs each benchmark once
per seed, pools the samples (paired across files by position, so two runs
with the same seed list compare sample-for-sample), and serializes a
deterministic JSON document: no wall-clock or host fields, so a committed
baseline reproduces byte-for-byte on any machine.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "BenchRun",
    "BenchSpec",
    "REGISTRY",
    "register",
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


@dataclass(frozen=True)
class BenchSpec:
    """One entry in the curated benchmark set."""

    name: str
    unit: str
    higher_is_better: bool
    runner: Callable[[int], BenchRun]
    #: Included in the --quick subset (CI-sized).
    quick: bool = True
    description: str = ""
    #: Which benchmark suite the spec belongs to.  The default selection
    #: runs only the ``"seed"`` suite, so the committed ``BENCH_seed.json``
    #: baseline stays byte-identical as new suites (e.g. ``"serve"``) are
    #: added; select others with ``--suite``.
    suite: str = "seed"


#: name -> spec, in registration order (dicts preserve it).
REGISTRY: Dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate benchmark {spec.name!r}")
    REGISTRY[spec.name] = spec
    return spec


def select(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    suite: str = "seed",
) -> List[BenchSpec]:
    """The benchmarks to run, validating any explicit name list.

    An explicit ``names`` list overrides the suite filter; otherwise only
    specs of ``suite`` are selected.
    """
    from . import workloads  # noqa: F401  (populates REGISTRY on import)

    if names:
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown benchmarks {unknown}; choose from {sorted(REGISTRY)}"
            )
        return [REGISTRY[n] for n in names]
    specs = [s for s in REGISTRY.values() if s.suite == suite]
    if not specs:
        suites = sorted({s.suite for s in REGISTRY.values()})
        raise ValueError(f"unknown suite {suite!r}; choose from {suites}")
    if quick:
        specs = [s for s in specs if s.quick]
    return specs


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

    specs = select(names, quick=quick, suite=suite)
    benchmarks: Dict[str, Dict] = {}
    for spec in specs:
        samples: List[float] = []
        attribution: Dict[str, float] = {}
        ops = 0
        for seed in seeds:
            run = spec.runner(seed)
            if not run.samples:
                raise RuntimeError(f"benchmark {spec.name} produced no samples")
            samples.extend(run.samples)
            if run.attribution is not None:
                ops += run.ops
                for key, value in run.attribution.items():
                    attribution[key] = attribution.get(key, 0.0) + value
        entry = make_entry(
            spec.unit,
            spec.higher_is_better,
            samples,
            attribution=attribution,
            ops=ops,
        )
        benchmarks[spec.name] = entry
        if log is not None:
            log(
                f"{spec.name}: n={len(samples)} median={entry['median']:.3f} "
                f"{spec.unit}"
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
