"""Tests for the experiment fleet: specs, store, runner, resumability.

The load-bearing properties pinned here:

* fingerprints are stable content hashes — param order, construction
  order and JSON round-trips never change them;
* a fresh run and a cache hit yield **byte-identical** ``record.json``;
* a two-worker parallel fan-out produces the same records as a serial
  run of the same catalog;
* a corrupted or partially-written record, or one computed by other
  code, is detected and re-run, never served;
* a worker process that dies fails its specs instead of hanging the run;
* a benchmark is a fleet spec: the ``bench:`` records of the pings and
  ``serve_request_latency`` carry the committed baselines' seed-1998
  samples;
* spec fingerprints and the ``coll`` barrier results are pinned.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.fleet import (
    BUILTIN_MATRICES,
    Catalog,
    ExperimentSpec,
    RunStore,
    StoreError,
    expand_matrix,
    load_catalog,
    make_spec,
    run_specs,
)
from repro.fleet import workloads
from repro.fleet.runner import build_record, execute_spec
from repro.fleet.store import code_digest, dumps_record
from repro.fleet.workloads import resolve_workload, workload_names

# Small, fast specs reused across the module: the published comparison
# (host dissemination vs NIC-resident tree) shrunk to 4 nodes / 4 ops.
SPEC_NX = make_spec("coll", nodes=4, mode="nx", ops=4)
SPEC_NIC = make_spec("coll", nodes=4, mode="tree-nic", ops=4)


# -- specs and fingerprints ----------------------------------------------


def test_fingerprint_is_stable_and_param_order_invariant():
    a = make_spec("coll", nodes=16, mode="nx", ops=8)
    b = make_spec("coll", ops=8, mode="nx", nodes=16)
    assert a == b
    assert a.fingerprint == b.fingerprint
    assert len(a.fingerprint) == 16
    int(a.fingerprint, 16)  # hex
    # Different content, different identity.
    assert a.fingerprint != make_spec("coll", nodes=16, mode="nx").fingerprint
    assert a.fingerprint != make_spec(
        "coll", nodes=16, mode="nx", ops=8, seed=7
    ).fingerprint


def test_fingerprint_pinned_against_accidental_schema_drift():
    """The content hash is an on-disk identity (runs/<fp>/): changing the
    canonical JSON form silently orphans every stored run, so pin one."""
    spec = make_spec("coll", nodes=16, mode="nx", ops=8)
    assert spec.fingerprint == ExperimentSpec.from_json(
        spec.to_json()
    ).fingerprint
    blob = json.dumps(spec.to_json(), sort_keys=True)
    assert '"schema": 1' in blob
    assert '"workload": "coll"' in blob


def test_spec_round_trips_through_json():
    spec = make_spec(
        "ping", platform="myrinet", fault_plan="drop1", nodes=8, seed=7,
        nbytes=256, reliable=True,
    )
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.param("nbytes") == 256
    assert again.param("missing", "dflt") == "dflt"


def test_spec_rejects_unsorted_or_non_scalar_params():
    with pytest.raises(ValueError):
        ExperimentSpec(workload="coll", params=(("b", 1), ("a", 2)))
    with pytest.raises(ValueError):
        make_spec("coll", bad={"nested": 1})
    with pytest.raises(ValueError):
        ExperimentSpec.from_json({"schema": 99, "workload": "coll"})


# -- catalogs and matrices -----------------------------------------------


def test_smoke_matrix_expands_to_four_specs():
    catalog = load_catalog("smoke")
    assert catalog.name == "smoke"
    assert len(catalog) == 4
    cells = {(s.param("mode"), s.nodes) for s in catalog}
    assert cells == {
        ("nx", 8), ("nx", 16), ("tree-nic", 8), ("tree-nic", 16),
    }


def test_matrix_cross_product_and_explicit_specs(tmp_path):
    doc = {
        "name": "mixed",
        "matrix": {
            "workload": ["coll"],
            "params": [{"mode": "nx"}, {"mode": "tree-nic"}],
            "nodes": [4, 8],
            "seed": [1, 2],
        },
        "specs": [{"workload": "ping", "nodes": 4}],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    catalog = load_catalog(str(path))
    assert catalog.name == "mixed"
    assert len(catalog) == 2 * 2 * 2 + 1
    assert catalog.specs[-1].workload == "ping"


def test_catalog_dedups_by_fingerprint_and_bad_names_rejected():
    spec = make_spec("coll", nodes=4, mode="nx")
    same = make_spec("coll", mode="nx", nodes=4)
    assert len(Catalog(name="d", specs=[spec, same, SPEC_NIC])) == 2
    with pytest.raises(ValueError):
        load_catalog("no-such-matrix")
    with pytest.raises(ValueError):
        expand_matrix({"name": "empty"})


def test_catalog_ingests_study_family_listing():
    from repro.study.__main__ import FAMILIES

    listing = "\n".join(
        f"{name}\t{description}"
        for name, (description, _in_all, _e) in FAMILIES.items()
    )
    catalog = Catalog.from_family_listing(listing, nodes=8)
    assert len(catalog) == len(FAMILIES)
    assert all(s.workload.startswith("study:") for s in catalog)
    assert catalog.specs[0].workload == "study:micro"
    assert catalog.specs[0].nodes == 8
    # Every ingested family resolves to a runnable fleet workload.
    for spec in catalog:
        resolve_workload(spec.workload)


def test_builtin_matrices_and_workload_registry_expand():
    for name in BUILTIN_MATRICES:
        assert len(load_catalog(name)) > 0
    names = workload_names()
    assert "coll" in names and "ping" in names and "serve" in names
    with pytest.raises(ValueError):
        resolve_workload("no-such-workload")
    # bench: workloads carry the registered benchmark's own metadata,
    # and an unknown benchmark fails when it is resolved.
    bench = resolve_workload("bench:du_bulk_bandwidth")
    assert (bench.unit, bench.higher_is_better) == ("MB/s", True)
    assert bench.description == "64 KB deliberate-update bandwidth"
    with pytest.raises(ValueError):
        resolve_workload("bench:no-such-benchmark")


# -- record building -----------------------------------------------------


def test_record_schema_and_sidecars(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    execute_spec(SPEC_NX, store)
    record = store.load(SPEC_NX.fingerprint)
    for key in ("schema", "fingerprint", "spec", "code_version", "workload",
                "unit", "metrics", "bench", "monitor", "artifacts"):
        assert key in record, key
    assert record["fingerprint"] == SPEC_NX.fingerprint
    assert record["bench"]["samples"], "per-op samples embedded"
    assert record["bench"]["attribution_share"]["cpu"] > 0.5
    assert record["monitor"]["healthy"] is True
    trace_path = store.artifact_path(record, "trace")
    assert trace_path and os.path.exists(trace_path)
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["otherData"]["label"] == f"coll@{SPEC_NX.fingerprint}"
    # No wall-clock anywhere: records must be pure functions of the spec.
    blob = json.dumps(record)
    assert "wall" not in blob and "timestamp" not in blob


def test_study_workload_produces_report_sidecar(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    spec = make_spec("study:micro", nodes=4)
    execute_spec(spec, store)
    record = store.load(spec.fingerprint)
    assert "bench" not in record  # report-only family: no samples
    report = store.artifact_path(record, "report")
    assert report and "latency" in open(report, encoding="utf-8").read()


# -- resumability and determinism ----------------------------------------


def _record_bytes(store, fingerprint):
    with open(store.record_path(fingerprint), "rb") as fh:
        return fh.read()


def test_fresh_run_then_cache_hit_is_byte_identical(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    first = run_specs([SPEC_NX], store)
    assert [o.status for o in first] == ["ran"]
    before = _record_bytes(store, SPEC_NX.fingerprint)

    second = run_specs([SPEC_NX], store)
    assert [o.status for o in second] == ["cached"]
    assert second[0].cached
    assert _record_bytes(store, SPEC_NX.fingerprint) == before

    # Even a forced re-execution reproduces the record byte-for-byte:
    # the run is virtual-time deterministic and carries no clock fields.
    forced = run_specs([SPEC_NX], store, force=True)
    assert [o.status for o in forced] == ["ran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == before


def test_two_worker_fanout_matches_serial_records(tmp_path):
    specs = [SPEC_NX, SPEC_NIC]
    serial = RunStore(str(tmp_path / "serial"))
    run_specs(specs, serial, workers=1)
    fanout = RunStore(str(tmp_path / "fanout"))
    outcomes = run_specs(specs, fanout, workers=2)
    assert [o.status for o in outcomes] == ["ran", "ran"]
    for spec in specs:
        assert _record_bytes(serial, spec.fingerprint) == _record_bytes(
            fanout, spec.fingerprint
        )


def test_corrupted_record_is_detected_and_rerun(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    run_specs([SPEC_NX], store)
    good = _record_bytes(store, SPEC_NX.fingerprint)
    path = store.record_path(SPEC_NX.fingerprint)

    # Truncation (the partial-write shape): invalid, re-run, not served.
    with open(path, "wb") as fh:
        fh.write(good[: len(good) // 2])
    assert store.status(SPEC_NX) == "invalid"
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == good

    # Tampering (spec no longer hashes to the directory name): same.
    record = json.loads(good)
    record["spec"]["nodes"] = 99
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert store.status(SPEC_NX) == "invalid"
    with pytest.raises(StoreError):
        store.load(SPEC_NX.fingerprint)
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == good

    # A missing sidecar also invalidates the record.
    trace = store.artifact_path(store.load(SPEC_NX.fingerprint), "trace")
    os.unlink(trace)
    assert store.status(SPEC_NX) == "invalid"
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert os.path.exists(trace)


def test_missing_record_is_a_miss_not_an_error(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    assert store.status(SPEC_NX) == "miss"
    assert store.fingerprints() == []
    with pytest.raises(StoreError):
        store.load(SPEC_NX.fingerprint)


def test_duplicate_specs_collapse_and_errors_are_reported(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    bogus = make_spec("no-such-workload", nodes=4)
    outcomes = run_specs([SPEC_NX, SPEC_NX, bogus], store)
    assert len(outcomes) == 2  # duplicate collapsed
    by_status = {o.status for o in outcomes}
    assert by_status == {"ran", "error"}
    err = next(o for o in outcomes if o.status == "error")
    assert "no-such-workload" in err.error
    assert store.status(bogus) == "miss"  # nothing committed for the error


def test_fault_plan_runs_trip_the_monitor(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    spec = make_spec("ping", nodes=2, fault_plan="drop1", reliable=True,
                     ops=4, nbytes=64)
    execute_spec(spec, store)
    record = store.load(spec.fingerprint)
    assert record["spec"]["fault_plan"] == "drop1"
    monitor = record["monitor"]
    if not monitor["healthy"]:
        assert store.artifact_path(record, "postmortem")


def test_build_record_embeds_bench_schema_entry():
    workload = resolve_workload("coll")
    result = workload.run(SPEC_NX)
    record, sidecars = build_record(SPEC_NX, result)
    entry = record["bench"]
    # Field-compatible with BENCH_* entries so the explorer can feed two
    # records straight into bench.compare.compare_docs.
    for key in ("unit", "higher_is_better", "samples", "median", "mean",
                "min", "max", "p95"):
        assert key in entry, key
    assert "trace.json" in sidecars


# -- stale code and dead workers -----------------------------------------


def test_record_of_other_code_is_rerun_but_still_readable(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    run_specs([SPEC_NX], store)
    good = _record_bytes(store, SPEC_NX.fingerprint)
    record = json.loads(good)
    assert record["code_digest"] == code_digest()
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["cached"]

    path = store.record_path(SPEC_NX.fingerprint)
    record["code_digest"] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_record(record))
    assert store.load(SPEC_NX.fingerprint)["code_digest"] == "0" * 64
    assert [fp for fp, _r in store.records()] == [SPEC_NX.fingerprint]
    assert store.status(SPEC_NX) == "invalid"
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == good

    # A record from before the digest existed is stale as well.
    del record["code_digest"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_record(record))
    assert store.status(SPEC_NX) == "invalid"


def test_dead_worker_fails_its_specs_instead_of_hanging(tmp_path, monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("a forked worker is needed to inherit the dying workload")
    monkeypatch.setitem(
        workloads.WORKLOADS,
        "die",
        workloads.Workload(
            "die", "us", False, "exits its worker process",
            lambda spec: os._exit(1),
        ),
    )
    dying = make_spec("die", nodes=4)
    store = RunStore(str(tmp_path / "runs"))
    outcomes = []
    runner = threading.Thread(
        target=lambda: outcomes.extend(
            run_specs([dying, SPEC_NX], store, workers=2)
        ),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "run_specs hung on a dead worker"
    statuses = {o.fingerprint: o.status for o in outcomes}
    assert statuses[dying.fingerprint] == "error"
    for outcome in outcomes:
        if outcome.status == "error":
            assert outcome.fingerprint in outcome.error
    assert store.status(dying) == "miss"


# -- benchmarks are fleet specs ------------------------------------------

_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks", "baseline"
)


def _seed_1998_samples(tmp_path, baseline, bench):
    """The ``bench:<bench>`` record's samples at seed 1998, and the
    committed baseline's samples (seeds 1998, 1999, 2000 pooled in order,
    so seed 1998's are the leading run of them)."""
    store = RunStore(str(tmp_path / "runs"))
    spec = make_spec(f"bench:{bench}")
    execute_spec(spec, store)
    record = store.load(spec.fingerprint)
    with open(os.path.join(_BASELINE, baseline), encoding="utf-8") as fh:
        committed = json.load(fh)["benchmarks"][bench]
    samples = record["bench"]["samples"]
    return record, samples, committed["samples"][: len(samples)]


@pytest.mark.parametrize(
    "nodes, bench", [(2, "du_ping_4k"), (4, "du_fanin_4k")]
)
def test_fleet_ping_is_the_bench_ping(tmp_path, nodes, bench):
    record, samples, committed = _seed_1998_samples(
        tmp_path, "BENCH_seed.json", bench
    )
    assert len(samples) == 8 * (nodes - 1)
    assert samples == committed
    # The same run, spelled as a parametric ping spec.
    spec = make_spec("ping", nodes=nodes, nbytes=4096, ops=9, seed=1998)
    assert resolve_workload("ping").run(spec).samples == samples


def test_fleet_serve_is_the_bench_serve(tmp_path):
    record, samples, committed = _seed_1998_samples(
        tmp_path, "BENCH_serve.json", "serve_request_latency"
    )
    assert len(samples) == 201
    assert samples == committed
    metrics = record["metrics"]
    assert (metrics["ok"], metrics["late"], metrics["failed"]) == (
        201.0, 0.0, 0.0,
    )
    assert RunStore(str(tmp_path / "runs")).artifact_path(record, "report")


# -- identities pinned against drift -------------------------------------

#: Fingerprints are on-disk identities (``runs/<fingerprint>/``).
MATRIX_FINGERPRINTS = {
    "smoke": [
        "fca9696613a4aaec", "cedaf6cb850aa1e8",
        "82cf6bdc38c29634", "3417385c87b836f3",
    ],
    "coll16": ["82cf6bdc38c29634", "5879ca6d03ad6352", "3417385c87b836f3"],
    "scaling": [
        "e5cdc4d4c441b122", "cedaf6cb850aa1e8",
        "3417385c87b836f3", "390450796308fa65",
    ],
    "largemesh": [
        "8cb934301d1212ef", "a1c440e39d35156e",
        "d43c4219cdbd2f37", "a96aa9fb4c75de34",
    ],
}
SPEC_FINGERPRINTS = {
    "bench:du_ping_4k": "1d18231ca12d5c32",
    "bench:rel_ping_lossy": "9e9afb43467d553b",
    "bench:du_word_latency": "bb8d2d226226ed63",
    "study:micro": "7fd52a567cb9c686",
}


def test_builtin_and_bench_fingerprints_are_pinned():
    for name, fingerprints in MATRIX_FINGERPRINTS.items():
        assert [s.fingerprint for s in load_catalog(name)] == fingerprints
    for workload, fingerprint in SPEC_FINGERPRINTS.items():
        assert make_spec(workload).fingerprint == fingerprint


#: sha256 of the barrier samples, attribution and op count of fleet
#: ``coll`` at 4 nodes, ``ops=4`` (16 samples over 20 ops: one warm-up
#: barrier per rank is dropped from the samples).
COLL_BARRIER_SHA256 = {
    "nx": "03d2622bb4dd1be970ee56c336478a9ab4707da60810a1d743ada64c0ff4b8d1",
    "tree-nic":
        "553511e19e2b529d46eff3a59756c9ad34edcc21abff9fdc53e6c284faf6487d",
}


@pytest.mark.parametrize("mode", sorted(COLL_BARRIER_SHA256))
def test_fleet_coll_barrier_is_pinned(mode):
    import hashlib

    spec = make_spec("coll", nodes=4, mode=mode, ops=4)
    run = resolve_workload("coll").run(spec)
    assert (run.ops, len(run.samples)) == (20, 16)
    doc = {
        "samples": run.samples,
        "attribution": run.attribution,
        "ops": run.ops,
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == COLL_BARRIER_SHA256[mode]
