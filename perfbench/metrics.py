"""Every metric the benchmark reports: name, unit, direction and clock.

``BENCHMARK.json`` and ``METRICS.md`` list the same names;
``test_benchmark_files.py`` keeps the three in step.  ``clock`` says
whether a value is host time, simulated time, a count or a ratio.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" or "higher"
    clock: str           # "host", "simulated", "count" or "ratio"


END_TO_END = (
    Metric("setup_s", "s", "lower", "host"),
    Metric("ops_per_s", "1/s", "higher", "host"),
    Metric("peak_rss_mb", "MB", "lower", "host"),
    Metric("served_share", "ratio", "higher", "simulated"),
)

#: Bound (share of the parent's median) by which each end-to-end metric
#: may worsen before a change is rejected.
BOUNDS = {
    "setup_s": 0.25,
    "ops_per_s": 0.25,
    "peak_rss_mb": 0.05,
    "served_share": 0.01,
}


def _layer(*entries: tuple[str, str, str, str]) -> tuple:
    """One layer's metrics; the groups follow METRICS.md's table."""
    return tuple(Metric(name, unit, better, clock)
                 for name, unit, clock, better in entries)


PER_LAYER = (
    *_layer(("coords.embed_s", "s", "host", "lower"),
            ("net.matrix_s", "s", "host", "lower")),
    *_layer(("core.record_batch_s", "s", "host", "lower"),
            ("core.record_batch_points", "count", "count", "higher"),
            ("core.absorb_us_per_point", "us", "host", "lower"),
            ("kernels.absorb_stream_s", "s", "host", "lower"),
            ("clustering.micro_spawned", "count", "count", "lower"),
            ("clustering.micro_absorbed", "count", "count", "higher"),
            ("clustering.micro_merged", "count", "count", "lower")),
    *_layer(("store.advance_s", "s", "host", "lower"),
            ("store.windows", "count", "count", "lower"),
            ("store.window_ms_p50", "ms", "host", "lower"),
            ("store.window_ms_p99", "ms", "host", "lower"),
            ("store.ops_per_window", "count", "ratio", "higher"),
            ("workloads.arrivals_s", "s", "host", "lower"),
            ("store.flush_s", "s", "host", "lower")),
    *_layer(("sim.run_s", "s", "host", "lower"),
            ("sim.events", "count", "count", "lower"),
            ("sim.loop_self_s", "s", "host", "lower"),
            ("store.events_per_op", "ratio", "ratio", "lower"),
            ("store.queue.bulk_share", "ratio", "ratio", "higher"),
            ("store.queue.demotions", "count", "count", "lower")),
    *_layer(("store.epoch_s", "s", "host", "lower"),
            ("store.epochs", "count", "count", "lower"),
            ("core.controller_epoch_s", "s", "host", "lower"),
            ("core.place_replicas_s", "s", "host", "lower"),
            ("clustering.kmeans_s", "s", "host", "lower"),
            ("clustering.kmeans_iterations", "count", "count", "lower")),
    *_layer(("catalog.epochs", "count", "count", "lower"),
            ("catalog.epoch_s", "s", "host", "lower"),
            ("catalog.moves", "count", "count", "lower"),
            ("store.migrations_started", "count", "count", "lower"),
            ("store.migrations_finished", "count", "count", "lower")),
    *_layer(("store.read_timeouts", "count", "count", "lower"),
            ("store.queue_rejections", "count", "count", "lower"),
            ("store.failed_reads", "count", "count", "lower"),
            ("controller.failovers", "count", "count", "lower"),
            ("controller.epochs_degraded", "count", "count", "lower")),
    *_layer(("runner.busy_s", "s", "host", "lower"),
            ("runner.parallel_efficiency", "ratio", "ratio", "higher"),
            ("runner.dispatch_overhead_s", "s", "host", "lower"),
            ("runner.chunks", "count", "count", "lower"),
            ("runner.chunk_size", "count", "count", "higher"),
            ("runner.shm_bytes", "bytes", "count", "lower"),
            ("runner.retries", "count", "count", "lower"),
            ("runner.worker_crashes", "count", "count", "lower")),
    *_layer(("placement.random.cell_ms_p50", "ms", "host", "lower"),
            ("placement.offline-kmeans.cell_ms_p50", "ms", "host", "lower"),
            ("placement.online.cell_ms_p50", "ms", "host", "lower"),
            ("placement.optimal.cell_ms_p50", "ms", "host", "lower"),
            ("placement.cell_ms_p95", "ms", "host", "lower"),
            ("placement.online.place_s", "s", "host", "lower")),
    *_layer(("bench.trace_overhead", "ratio", "ratio", "higher")),
)

UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
