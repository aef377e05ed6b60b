"""repro.fleet: the catalog-driven experiment fleet runner.

The empirical-study layer (DESIGN.md §15).  The source paper's value is a
*matrix* of measured design choices; this package makes such matrices
cheap to declare, run and keep:

* :mod:`repro.fleet.catalog` — :class:`ExperimentSpec` (frozen,
  content-hash fingerprinted) and matrix expansion into a
  :class:`Catalog`;
* :mod:`repro.fleet.workloads` — the one workload registry: what a spec
  runs (collectives, pings, the serving tier, the shard model, every
  ``bench:`` benchmark, any ``study:`` family);
* :mod:`repro.fleet.runner` — serial or multiprocess fan-out with
  resumable cache hits;
* :mod:`repro.fleet.store` — ``runs/<fingerprint>/record.json`` plus
  Chrome-trace / postmortem / report sidecars, validated before being
  served from cache.

Quick start::

    python -m repro.fleet run --matrix smoke --workers 2
    python -m repro.fleet run --matrix smoke --workers 2   # 100% cache hits
    python -m repro.explore list

Every run is deterministic and records carry no wall-clock fields, so an
unchanged spec's record reproduces byte-for-byte — which is both the
cache-correctness argument and a regression test.
"""

from .catalog import (
    BUILTIN_MATRICES,
    Catalog,
    ExperimentSpec,
    expand_matrix,
    load_catalog,
    make_spec,
)
from .runner import RunOutcome, build_record, execute_spec, run_specs
from .store import RECORD_SCHEMA, RunStore, StoreError
from .workloads import (
    FAULT_PLANS,
    WORKLOADS,
    Workload,
    resolve_workload,
    workload_names,
)

__all__ = [
    "ExperimentSpec",
    "make_spec",
    "Catalog",
    "expand_matrix",
    "load_catalog",
    "BUILTIN_MATRICES",
    "RunStore",
    "StoreError",
    "RECORD_SCHEMA",
    "RunOutcome",
    "run_specs",
    "execute_spec",
    "build_record",
    "Workload",
    "WORKLOADS",
    "FAULT_PLANS",
    "resolve_workload",
    "workload_names",
]
