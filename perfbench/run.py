"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mto_serial --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
units untraced, then the same units again with span wrappers on every
layer's public entry points, checks that both passes produced bit-for-bit
the same simulated results, and prints the per-layer metrics.  The run exits
non-zero, without a result line, when the ``repro`` sources are missing
or an output check fails.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

from reference import NOMINAL_SLICE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Independent set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Simulated metrics a traced run must reproduce exactly.
SIMULATED = (
    "queries_per_sample",
    "sim_s_per_sample",
    "queries_to_5pct",
    "rel_error",
    "worst_pace_ratio",
    "delivered_share",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_us_per_sample": "us",
    "queries_per_sample": "queries",
    "sim_s_per_sample": "s",
    "queries_to_5pct": "queries",
    "rel_error": "ratio",
    "worst_pace_ratio": "ratio",
    "delivered_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    from layers import LAYERS

    units = {"datasets.setup_s": "s", "compose.setup_s": "s"}
    for layer in LAYERS:
        if layer in ("datasets", "compose"):
            continue
        units[f"{layer}.calls_per_sample"] = "calls/sample"
        units[f"{layer}.self_us_per_sample"] = "us/sample"
    units.update(
        {
            "interface.hit_ratio": "ratio",
            "interface.refusals": "count",
            "fleet.retries_per_sample": "retries/sample",
            "fleet.bursts_per_sample": "bursts/sample",
            "planning.prefetch_used_ratio": "ratio",
            "planning.prediction_hit_ratio": "ratio",
            "scheduler.events_per_sample": "events/sample",
            "service.hibernations": "count",
            "service.wakes": "count",
            "obs.events_per_sample": "events/sample",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def setup(workload, seed, units, loop):
    """Build the network and assemble every unit.

    Returns ``(network, built, seconds, scale)``: wall seconds, and the
    factor that converts them to reference-host seconds, from reference
    slices run right before and after (see reference.py).  The
    built network is frozen out of the cyclic collector: it stands in for
    a remote provider's data, so collections inside the timed region
    should scan only what sampling allocates.  :func:`release` unfreezes
    it again.  The freeze itself is not part of the set-up time.
    """
    from workloads import build_network

    before = loop.slice()
    started = time.perf_counter()
    network = build_network()
    elapsed = time.perf_counter() - started
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    specs = workload.plan(network, seed, units)
    built = [workload.assemble(network, spec) for spec in specs]
    elapsed += time.perf_counter() - started
    return network, built, elapsed, NOMINAL_SLICE_S / ((before + loop.slice()) / 2)


def release():
    """Return everything :func:`setup` froze to the collector, and collect."""
    gc.unfreeze()
    gc.collect()


def execute(workload, network, built, loop, spans=None):
    """Run every unit in a closed loop.

    Returns ``(results, seconds, slices)``: per unit, its checked result,
    its timed region's wall seconds, and the reference slice run right
    before it.  Checks run outside the timed region (and, when tracing,
    outside every layer's counters), and so do the slice and the
    collection that clears the previous unit's garbage.
    """
    results, seconds, slices = [], [], []
    for i, unit in enumerate(built):
        gc.collect()
        slices.append(loop.slice())
        started = time.perf_counter()
        outputs = workload.execute(network, unit)
        seconds.append(time.perf_counter() - started)
        if spans is None:
            results.append(workload.finish(network, unit, outputs))
        else:
            with spans.paused():
                results.append(workload.finish(network, unit, outputs))
        built[i] = unit = outputs = None  # release the unit before the next one
    return results, seconds, slices


def end_to_end(results, seconds, slices):
    """The end-to-end figures of one pass (``setup_s`` and RSS aside)."""
    from workloads import check

    samples = sum(r.samples for r in results)
    check(
        4 * sum(r.settled for r in results) >= len(results),
        "fewer than a quarter of the units settled within 5 % relative error",
    )
    return {
        "host_us_per_sample": statistics.median(
            s * NOMINAL_SLICE_S / ref / r.samples * 1e6
            for s, ref, r in zip(seconds, slices, results)
        ),
        "queries_per_sample": sum(r.queries for r in results) / samples,
        "sim_s_per_sample": statistics.median(r.sim_s / r.samples for r in results),
        "queries_to_5pct": statistics.fmean(r.q5 for r in results),
        "rel_error": math.sqrt(statistics.fmean(r.rel_error**2 for r in results)),
        "worst_pace_ratio": statistics.median(r.pace for r in results),
        "delivered_share": samples / sum(r.requested for r in results),
    }


def host_metadata(results, seconds, slices):
    """Unscaled wall figures, printed beside the result for reference."""
    return {
        "wall_us_per_sample": statistics.median(
            s / r.samples * 1e6 for s, r in zip(seconds, results)
        ),
        "reference_slice_ms": statistics.median(slices) * 1e3,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(results, setup_stats, setup_scale, timed_stats, timed_scale, overhead):
    """Per-layer figures; ``*_scale`` convert wall ns to reference-host ns."""
    from layers import LAYERS

    samples = sum(r.samples for r in results)
    total = {}
    for key in (
        "cache_hits",
        "cache_misses",
        "retries",
        "bursts",
        "events",
        "prefetch_issued",
        "prefetch_used",
        "prediction_hits",
        "prediction_misses",
        "hibernations",
        "wakes",
        "obs_events",
    ):
        total[key] = sum(r.counters.get(key, 0) for r in results)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "datasets.setup_s": setup_stats["datasets"][1] * setup_scale / 1e9,
        "compose.setup_s": setup_stats["compose"][1] * setup_scale / 1e9,
    }
    for layer in LAYERS:
        if layer in ("datasets", "compose"):
            continue
        calls, self_ns, _ = timed_stats[layer]
        metrics[f"{layer}.calls_per_sample"] = calls / samples
        metrics[f"{layer}.self_us_per_sample"] = self_ns * timed_scale / 1e3 / samples
    metrics.update(
        {
            "interface.hit_ratio": ratio(
                total["cache_hits"], total["cache_hits"] + total["cache_misses"]
            ),
            "interface.refusals": timed_stats["interface"][2],
            "fleet.retries_per_sample": total["retries"] / samples,
            "fleet.bursts_per_sample": total["bursts"] / samples,
            "planning.prefetch_used_ratio": ratio(total["prefetch_used"], total["prefetch_issued"]),
            "planning.prediction_hit_ratio": ratio(
                total["prediction_hits"],
                total["prediction_hits"] + total["prediction_misses"],
            ),
            "scheduler.events_per_sample": total["events"] / samples,
            "service.hibernations": total["hibernations"],
            "service.wakes": total["wakes"],
            "obs.events_per_sample": total["obs_events"] / samples,
            "trace.overhead_ratio": overhead,
        }
    )
    return metrics


def run_plain(workload, seed, units, loop):
    """``--trace 0``: returns (results, metrics, units, metadata)."""
    timings = []
    network = built = None
    for _ in range(SETUP_REPEATS):
        network = built = None  # one network alive at a time
        release()
        network, built, elapsed, scale = setup(workload, seed, units, loop)
        timings.append(elapsed * scale)
    results, seconds, slices = execute(workload, network, built, loop)
    metrics = end_to_end(results, seconds, slices)
    metrics["setup_s"] = statistics.median(timings)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return results, metrics, END_TO_END_UNITS, host_metadata(results, seconds, slices)


def run_traced(workload, seed, units, loop):
    """``--trace 1``: returns (results, metrics, units, metadata)."""
    from layers import LayerSpans
    from workloads import check

    network, built, _, _ = setup(workload, seed, units, loop)
    plain, seconds, slices = execute(workload, network, built, loop)
    untraced = end_to_end(plain, seconds, slices)
    network = built = None
    release()
    with LayerSpans() as spans:
        network, built, _, setup_scale = setup(workload, seed, units, loop)
        setup_stats = spans.snapshot()
        spans.reset()
        traced_results, seconds, slices = execute(workload, network, built, loop, spans=spans)
        timed_stats = spans.snapshot()
    traced = end_to_end(traced_results, seconds, slices)
    for name in SIMULATED:
        check(
            traced[name] == untraced[name],
            f"traced run changed {name}: {traced[name]!r} != {untraced[name]!r}",
        )
    check(
        [r.digest for r in traced_results] == [r.digest for r in plain],
        "traced run changed the sample sequence",
    )
    overhead = traced["host_us_per_sample"] / untraced["host_us_per_sample"]
    timed_scale = NOMINAL_SLICE_S / statistics.median(slices)
    metrics = layer_metrics(
        traced_results, setup_stats, setup_scale, timed_stats, timed_scale, overhead
    )
    return traced_results, metrics, per_layer_units(), host_metadata(
        traced_results, seconds, slices
    )


def src_lines():
    """``src/`` Python line count: run metadata, not a gated metric."""
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from reference import ReferenceLoop
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    # A traced run makes two passes, each over half the units.
    units = workload.units_for(args.seconds / (2 if args.trace else 1))
    runner = run_traced if args.trace else run_plain
    try:
        results, metrics, metric_units, metadata = runner(
            workload, args.seed, units, ReferenceLoop()
        )
    except CheckFailed as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: check failed: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "units": units,
                "samples": sum(r.samples for r in results),
                "src_lines": src_lines(),
                "python": sys.version.split()[0],
                "nproc": os.cpu_count(),
                **metadata,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": len(results),
                "failed": 0,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
