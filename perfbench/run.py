"""Host-cost benchmark of the SHRIMP simulator.

Run from the repository root::

    python3 perfbench/run.py --workload mesh64_du --seed 1 --seconds 20 --trace 0

The workload (see ``perfbench/workloads.py``) runs again and again in this
one process, each run starting when the previous one has finished, until
``--seconds`` have passed (at least ``MIN_RUNS`` runs).  Every run's
simulated statistics are checked: against the digest recorded in
``perfbench/reference.json`` when the seed has one, and against the
first run of the process otherwise.  A run that raises, fails its own
output check or mismatches the digest counts as failed.

``--trace 0`` reports the end-to-end host costs, each the median over
the runs: ``setup_s`` (workload start until the measured simulated run
starts), ``run_s`` (the simulated run plus result extraction), ``cpu_s``
(user + sys seconds of the whole workload), ``peak_rss_mb`` (peak resident
memory of this process, one reading per invocation) and ``packets_per_s``
(backplane packets per second of ``run_s``).

``--trace 1`` alternates untraced runs with runs under the per-layer
tracer (``perfbench/tracer.py``, wrapped calls listed in
``perfbench/layers.py``) and reports the per-layer metrics, times as
medians over the traced runs.  Traced runs must give the untraced digest,
and every per-layer count must repeat exactly between traced runs.  The
tracer's own cost per crossing into a layer is calibrated before each
traced run and moved from the layers to ``bench.self_s``;
``trace.bookkeeping_s`` is that estimate, and ``trace.overhead_s``, the
median traced wall time minus the median untraced one, is what it should
come close to.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Seeds: ``reference.json`` records digests for the default seed 1, used while
writing a change, and for the held-out seed 7, which nobody uses while
writing a change; a claim about a change is checked on both.  ``--record``
runs the workload untraced and traced on ``--seed`` and records its digest
there (a traced digest that differs from the untraced one fails).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

#: Fewest runs per invocation, however long one run takes.
MIN_RUNS = 3
#: Fewest traced runs per ``--trace 1`` invocation (count stability needs 2).
MIN_TRACED = 2

#: Units of host-time metrics; every other per-layer metric is a count
#: that must repeat exactly from run to run for a given seed.
TIME_UNITS = ("s", "us", "1/s")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Bench:
    """One invocation: a workload, a seed, and the runs made so far."""

    def __init__(self, name: str, seed: int, reference: dict):
        from repro.sim.ids import reset_run_counters
        from workloads import WORKLOADS, digest

        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.digest = digest
        self.reset_run_counters = reset_run_counters
        self.expected = reference.get(name, {}).get(str(seed), {}).get("digest")
        self.attempted = 0
        self.failed = 0

    def run_once(self, tracer=None):
        """One workload run; returns (sample, fields), or None if it failed."""
        self.attempted += 1
        marks = []

        def mark():
            marks.append(time.perf_counter())

        gc.collect()
        try:
            t0 = time.perf_counter()
            c0 = time.process_time()
            if tracer is None:
                fields = self.workload(self.seed, mark)
            else:
                with tracer:
                    fields = self.workload(self.seed, mark)
            t1 = time.perf_counter()
            c1 = time.process_time()
        except Exception:
            self.failed += 1
            log(f"{self.name}: run {self.attempted} raised:\n{traceback.format_exc()}")
            return None
        finally:
            # The run-scoped primitive registry keeps the last machine alive
            # until the next Machine is built; drop it so runs never overlap.
            self.reset_run_counters()
            gc.collect()
        got = self.digest(fields)
        if self.expected is None:
            self.expected = got
        if len(marks) != 1 or got != self.expected:
            self.failed += 1
            log(
                f"{self.name}: run {self.attempted} "
                f"({'traced' if tracer else 'untraced'}) gave digest {got}, "
                f"expected {self.expected} ({len(marks)} marks)"
            )
            return None
        run_s = t1 - marks[0]
        sample = {
            "setup_s": marks[0] - t0,
            "run_s": run_s,
            "cpu_s": c1 - c0,
            "packets_per_s": fields["packets"] / run_s,
            "wall_s": t1 - t0,
        }
        return sample, fields


def median_of(samples, key):
    return statistics.median(sample[key] for sample in samples)


def summarize(name: str, samples, units) -> dict:
    """Median of every metric, with a readable line per metric on stdout."""
    metrics = {}
    for metric, unit in units.items():
        values = [sample[metric] for sample in samples if metric in sample]
        value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        print(
            f"{name} {metric:24s} median {value:<14.6g} min {min(values):<12.6g} "
            f"max {max(values):<12.6g} {unit:14s} n={len(values)}"
        )
    return metrics


def metric_units(spec: dict, kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def end_to_end(bench: Bench, seconds: float, units: dict) -> dict:
    samples = []
    started = time.perf_counter()
    while bench.attempted < MIN_RUNS or time.perf_counter() - started < seconds:
        result = bench.run_once()
        if result is not None:
            samples.append(result[0])
    if not samples:
        return {}
    # One process-lifetime reading; runs never overlap, so it is the peak
    # of the largest run.
    samples[0]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return summarize(bench.name, samples, units)


def per_layer(bench: Bench, seconds: float, units: dict) -> dict:
    from layers import install, layer_metrics
    from tracer import LayerTracer, calibrate

    untraced, traced = [], []
    started = time.perf_counter()
    while (
        len(traced) < MIN_TRACED
        or not untraced
        or time.perf_counter() - started < seconds
    ):
        if bench.attempted >= 4 * MIN_RUNS and not (traced and untraced):
            break  # every run fails: report what failed
        if len(untraced) <= len(traced):
            result = bench.run_once()
            if result is not None:
                untraced.append(result[0])
            continue
        # Calibrated next to each traced run: the cost per crossing moves
        # with the host's speed.
        costs = calibrate()
        tracer = LayerTracer()
        install(tracer)
        result = bench.run_once(tracer)
        if result is None:
            continue
        tracer.discount(costs)
        metrics = layer_metrics(tracer, result[1])
        metrics["wall_s"] = tracer.wall_s
        metrics["trace.bookkeeping_s"] = tracer.bookkeeping_s
        traced.append(metrics)
    if not traced or not untraced:
        return {}
    for index, metrics in enumerate(traced[1:], start=1):
        differ = [
            metric for metric, unit in units.items()
            if unit not in TIME_UNITS and metrics[metric] != traced[0][metric]
        ]
        if differ:
            bench.failed += 1
            log(f"{bench.name}: traced run {index + 1} counts differ: {differ}")
    traced[0]["trace.overhead_s"] = (
        median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    )
    return summarize(bench.name, traced, units)


def record(bench: Bench, reference: dict) -> int:
    """Record the digest of ``bench.seed``: untraced and traced must agree."""
    from layers import install
    from tracer import LayerTracer

    bench.expected = None
    untraced = bench.run_once()
    tracer = LayerTracer()
    install(tracer)
    traced = bench.run_once(tracer)
    if untraced is None or traced is None:
        return 1
    fields = untraced[1]
    reference.setdefault(bench.name, {})[str(bench.seed)] = {
        "digest": bench.expected,
        "end_us": fields["end_us"],
        "events": fields["events"],
        "packets": fields["packets"],
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    log(f"{bench.name} seed {bench.seed}: recorded {bench.expected}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--record", action="store_true",
        help="record the seed's reference digest instead of measuring",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no simulator sources at {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())
    bench = Bench(args.workload, args.seed, reference)
    if args.record:
        return record(bench, reference)
    if args.trace:
        metrics = per_layer(bench, args.seconds, metric_units(spec, "per_layer"))
    else:
        metrics = end_to_end(bench, args.seconds, metric_units(spec, "end_to_end"))
    if not metrics:
        log(f"{bench.name}: no run succeeded")
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
