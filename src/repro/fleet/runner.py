"""The fan-out runner: specs -> workers -> run store, with cache hits.

``run_specs`` takes a list of :class:`ExperimentSpec`, checks each
against the store, and executes only the misses (and invalid records,
which are re-run rather than served).  Execution happens either inline
(``workers <= 1``) or on a process pool — every worker runs the
workload **in-process** via the existing study/bench entry points and
writes its own ``runs/<fingerprint>/`` directory, so parallel workers
never share mutable state and a 2-worker fan-out produces
byte-identical records to a serial run (tested).  A worker process that
dies breaks the pool: every spec it had not finished becomes an
``error`` outcome, and ``run_specs`` returns.

The record document (``RunRecord``) embeds a ``BENCH_*``-schema stats
entry built by :func:`repro.bench.core.make_entry`, which is what lets
``repro.explore compare`` feed two records straight into the
paired-bootstrap comparison machinery.
"""

from __future__ import annotations

import json
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from .catalog import ExperimentSpec
from .store import RECORD_SCHEMA, RunStore, code_digest
from .workloads import resolve_workload

if TYPE_CHECKING:
    from ..bench.core import BenchRun

__all__ = ["RunOutcome", "build_record", "execute_spec", "run_specs"]


@dataclass
class RunOutcome:
    """What happened to one spec during a fleet run."""

    spec: ExperimentSpec
    fingerprint: str
    #: "cached" | "ran" | "reran" (invalid record replaced) | "error"
    status: str
    error: Optional[str] = None

    @property
    def cached(self) -> bool:
        return self.status == "cached"


def build_record(
    spec: ExperimentSpec, result: BenchRun
) -> Tuple[Dict, Dict[str, str]]:
    """The (record document, sidecar contents) for one finished run.

    No wall-clock fields anywhere: the record is a pure function of the
    spec and the code (``code_digest``), so re-runs reproduce it
    byte-for-byte.  Unit and direction come from the spec's workload.
    """
    from .. import __version__
    from ..bench.core import make_entry
    from ..telemetry.export import to_chrome_trace

    workload = resolve_workload(spec.workload)
    fingerprint = spec.fingerprint
    record: Dict = {
        "schema": RECORD_SCHEMA,
        "fingerprint": fingerprint,
        "spec": spec.to_json(),
        "code_version": __version__,
        "code_digest": code_digest(),
        "workload": spec.workload,
        "unit": workload.unit,
        "virtual_end_us": result.virtual_end_us,
        "metrics": result.metrics,
    }
    if result.samples:
        record["bench"] = make_entry(
            workload.unit,
            workload.higher_is_better,
            result.samples,
            attribution=result.attribution,
            ops=result.ops,
        )
    sidecars: Dict[str, str] = {}
    artifacts: Dict[str, str] = {}
    if result.telemetry is not None:
        label = f"{spec.workload}@{fingerprint}"
        sidecars["trace.json"] = json.dumps(
            to_chrome_trace(result.telemetry, label=label)
        )
        artifacts["trace"] = "trace.json"
    monitor = result.monitor
    if monitor is not None:
        record["monitor"] = {
            "healthy": monitor.healthy,
            "trips": [
                {
                    "kind": trip.kind,
                    "time": trip.time,
                    "subject": trip.subject,
                    "detail": trip.detail,
                }
                for trip in monitor.trips
            ],
        }
        if not monitor.healthy:
            postmortem = monitor.postmortem()
            sidecars["postmortem.json"] = json.dumps(
                postmortem.to_json(), indent=2, sort_keys=True
            )
            artifacts["postmortem"] = "postmortem.json"
    if result.report is not None:
        sidecars["report.txt"] = result.report + "\n"
        artifacts["report"] = "report.txt"
    record["artifacts"] = artifacts
    return record, sidecars


def execute_spec(spec: ExperimentSpec, store: RunStore) -> str:
    """Run one spec and commit its record; returns the record path."""
    workload = resolve_workload(spec.workload)
    result = workload.run(spec)
    record, sidecars = build_record(spec, result)
    return store.put(record, sidecars)


def _pool_worker(args: Tuple[dict, str, object]) -> Optional[str]:
    """Run one spec in a pool worker; returns its traceback, or None.

    Module-level so it pickles under both fork and spawn starts.
    ``heartbeats`` (a manager queue, or None) is the fleet's progress
    side-channel: the worker puts ``("start", fingerprint)`` before the
    workload runs; the master reports ``done`` when the result arrives.
    Run records never contain wall-clock fields, so the heartbeat
    traffic cannot change a stored byte — it only feeds the ticker.
    """
    spec_doc, root, heartbeats = args
    spec = ExperimentSpec.from_json(spec_doc)
    if heartbeats is not None:
        heartbeats.put(("start", spec.fingerprint))
    try:
        execute_spec(spec, RunStore(root))
    except Exception:  # noqa: BLE001 - reported per-spec by the caller
        return traceback.format_exc()
    return None


def _drain_heartbeats(heartbeats, progress, described: Dict[str, str]) -> None:
    """Forward queued worker ``start`` heartbeats to the progress callback."""
    import queue as _queue

    while True:
        try:
            _kind, fingerprint = heartbeats.get_nowait()
        except _queue.Empty:
            return
        progress(("start", fingerprint, described[fingerprint]))


def _run_pool(
    pending: Sequence[ExperimentSpec],
    root: str,
    workers: int,
    progress: Optional[Callable[[Tuple], None]],
    finished: Callable[[ExperimentSpec, Optional[str]], None],
) -> None:
    """Execute ``pending`` on ``workers`` processes, calling ``finished``
    with each spec's traceback (None: ran) as its result arrives."""
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context()
    manager = None
    heartbeats = None
    if progress is not None:
        manager = context.Manager()
        heartbeats = manager.Queue()
    described = {spec.fingerprint: spec.describe() for spec in pending}
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = {
                pool.submit(
                    _pool_worker, (spec.to_json(), root, heartbeats)
                ): spec
                for spec in pending
            }
            waiting = set(futures)
            while waiting:
                done, waiting = wait(
                    waiting,
                    timeout=0.2 if heartbeats is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                if heartbeats is not None:
                    _drain_heartbeats(heartbeats, progress, described)
                for future in done:
                    spec = futures[future]
                    try:
                        error = future.result()
                    except BrokenProcessPool as exc:
                        error = (
                            f"spec {spec.fingerprint} ({spec.describe()}) "
                            f"did not finish: a worker process died ({exc})"
                        )
                    finished(spec, error)
    finally:
        if manager is not None:
            manager.shutdown()


def run_specs(
    specs: Sequence[ExperimentSpec],
    store: RunStore,
    workers: int = 1,
    force: bool = False,
    log: Optional[Callable[[str], None]] = None,
    progress: Optional[Callable[[Tuple], None]] = None,
) -> List[RunOutcome]:
    """Run a catalog's specs against the store; returns one outcome each.

    Duplicate fingerprints are collapsed (first occurrence wins); valid
    cached records of the running code are served without executing
    anything unless ``force``; invalid and stale records are replaced.
    Outcomes preserve the input order of the surviving specs.

    ``progress``, when given, receives live ``("start", fingerprint,
    description)`` and ``("done", fingerprint, status)`` events — for
    cache hits a lone ``done``/``"cached"``.  Pool workers relay their
    ``start`` events over a manager heartbeat queue, which exists only
    when ``progress`` is set, so the default pool path is untouched.
    """

    def note(line: str) -> None:
        if log is not None:
            log(line)

    unique: List[ExperimentSpec] = []
    seen = set()
    for spec in specs:
        if spec.fingerprint not in seen:
            seen.add(spec.fingerprint)
            unique.append(spec)

    pending: List[ExperimentSpec] = []
    at_start: Dict[str, str] = {}
    statuses: Dict[str, str] = {}
    for spec in unique:
        status = store.status(spec)
        if status == "hit" and not force:
            statuses[spec.fingerprint] = "cached"
            note(f"{spec.fingerprint}  cached  {spec.describe()}")
            if progress is not None:
                progress(("done", spec.fingerprint, "cached"))
        else:
            pending.append(spec)
            at_start[spec.fingerprint] = status

    errors: Dict[str, str] = {}

    def finished(spec: ExperimentSpec, error: Optional[str]) -> None:
        if error is not None:
            errors[spec.fingerprint] = error
            status = "error"
        elif at_start[spec.fingerprint] == "invalid":
            status = "reran"
        else:
            status = "ran"
        statuses[spec.fingerprint] = status
        if progress is not None:
            progress(("done", spec.fingerprint, status))

    if workers > 1 and pending:
        _run_pool(pending, store.root, workers, progress, finished)
    else:
        for spec in pending:
            if progress is not None:
                progress(("start", spec.fingerprint, spec.describe()))
            try:
                execute_spec(spec, store)
            except Exception:  # noqa: BLE001 - reported per-spec
                finished(spec, traceback.format_exc())
            else:
                finished(spec, None)
    verbs = {"error": "ERROR  ", "reran": "reran ", "ran": "ran   "}
    for spec in pending:
        verb = verbs[statuses[spec.fingerprint]]
        note(f"{spec.fingerprint}  {verb} {spec.describe()}")

    return [
        RunOutcome(
            spec=spec,
            fingerprint=spec.fingerprint,
            status=statuses[spec.fingerprint],
            error=errors.get(spec.fingerprint),
        )
        for spec in unique
    ]
