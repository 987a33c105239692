"""The measured runs of each workload, untraced and traced.

An untraced run sets up several times (``setup_s`` is their median),
then repeats the timed call until ``--seconds`` have passed and reports
the median throughput.  A traced run sets up once inside a root span,
with the span recorder wrapping every layer boundary and a live
``repro.obs`` registry, then repeats the run untraced on the same world:
the two must give the same simulated outputs, and the ratio of their
throughputs is ``bench.trace_overhead``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import statistics
from contextlib import ExitStack
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import obs
from repro.core import ReplicaAccessSummary, ReplicationController
from repro.runner import PlacementRunSpec, execute
from repro.sim import Simulator
from repro.store import BatchedAccessEngine, ReplicatedStore
from repro.workloads import WorkloadArrivals

from perfbench import live, stats, sweep
from perfbench.calibration import (REFERENCE_CALIBRATION_S, Sampler,
                                   calibration_s, scaled)
from perfbench.spans import NullRecorder, SpanRecorder
from perfbench.world import build_world

SETUPS = 3               # set-ups per untraced run; setup_s is the median
#: Timed repetitions per untraced run, at the least; more run while
#: ``--seconds`` have not passed.
MIN_REPS = {"paper-read": 3, "catalog-mixed": 3, "paper-sweep": 3}

LIVE_CONFIGS = {"paper-read": live.PAPER_READ,
                "catalog-mixed": live.CATALOG_MIXED}
WORKLOADS = (*LIVE_CONFIGS, "paper-sweep")


@dataclass
class Report:
    """What one run measured, checked and saw."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    registry: obs.MetricsRegistry | None = None

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        """Record a metric and the number of samples it rests on."""
        self.metrics[name] = (float(value), unit)
        self.samples[name] = n

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def note(self, line: str) -> None:
        self.lines.append(line)


def digest(outputs) -> str:
    """A short fingerprint of simulated outputs, to compare across commits."""
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus its largest reaped child."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


@dataclass
class Timed:
    """One timed call: raw host seconds and the same at reference speed."""

    host_s: float
    reference_s: float

    @property
    def calibration_s(self) -> float:
        """The calibration the call was scaled by (a time-weighted mean)."""
        return REFERENCE_CALIBRATION_S * self.host_s / self.reference_s


def timed(call):
    """Run ``call()`` between two calibrations; returns (result, Timed).

    The host's speed changes within seconds, so each call gets its own
    calibrations, taken right before and right after it.
    """
    # Earlier calls leave garbage behind; collect it untimed so every
    # timed call starts from the same heap.
    gc.collect()
    before = calibration_s()
    start = perf_counter()
    result = call()
    host_s = perf_counter() - start
    return result, Timed(host_s, scaled(host_s, before, calibration_s()))


def sampled(call):
    """Run ``call()`` while a Sampler times the host; returns (result, Timed).

    For calls whose work runs in other processes on every CPU.
    """
    gc.collect()
    with Sampler() as sampler:
        start = perf_counter()
        result = call()
        host_s = perf_counter() - start
    speed = sampler.calibration_s()
    return result, Timed(host_s, scaled(host_s, speed, speed))


def _repeat(seconds: float, min_reps: int, first, make, run, observe):
    """Time ``run(state)`` until ``seconds`` pass and ``min_reps`` ran.

    ``first`` is the state left by the last set-up; ``make()`` builds a
    fresh one, untimed, for every later repetition.  ``run`` returns the
    work it did and its Timed; ``observe(state)``, untimed, the simulated
    outputs.
    """
    samples, outputs = [], []
    state, started = first, perf_counter()
    while len(samples) < min_reps or perf_counter() - started < seconds:
        if state is None:
            state = make()
        samples.append(run(state))
        outputs.append(observe(state))
        state = None
    return samples, outputs


def _throughput(report: Report, samples, what: str) -> None:
    """ops_per_s: the median over repetitions, at reference speed."""
    at_reference = [work / t.reference_s for work, t in samples]
    raw = [work / t.host_s for work, t in samples]
    report.put("ops_per_s", statistics.median(at_reference), "1/s",
               len(at_reference))
    calibrations = [t.calibration_s * 1e3 for _, t in samples]
    report.note(f"ops_per_s samples ({what}), at reference speed: "
                f"{', '.join(f'{v:.2f}' for v in at_reference)}; raw: "
                f"{', '.join(f'{v:.2f}' for v in raw)}; calibration ms: "
                f"{', '.join(f'{c:.2f}' for c in calibrations)}")


def _setups(report: Report, make_world, make_rest):
    """``SETUPS`` timed set-ups; returns the last world and state.

    Nothing runs between two set-ups, so the calibration after one is
    also the calibration before the next.
    """
    timings, worlds, rest = [], [], None
    calibrations = [calibration_s()]
    for _ in range(SETUPS):
        gc.collect()
        start = perf_counter()
        world = make_world()
        rest = make_rest(world)
        host_s = perf_counter() - start
        calibrations.append(calibration_s())
        timings.append(Timed(host_s, scaled(host_s, *calibrations[-2:])))
        worlds.append(world)
    report.check(all(w.same_as(worlds[0]) for w in worlds[1:]),
                 "world builds of one seed differ")
    report.put("setup_s",
               statistics.median([t.reference_s for t in timings]), "s",
               len(timings))
    report.note("setup_s samples at reference speed: "
                f"{', '.join(f'{t.reference_s:.3f}' for t in timings)}; "
                f"raw: {', '.join(f'{t.host_s:.3f}' for t in timings)}")
    return worlds[-1], rest


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------
#: A live repetition runs to its horizon in this many equal slices of
#: simulated time, calibrating between them; a rep of a few seconds then
#: has a calibration about every second.  The slices change no simulated
#: output (the traced run, in one slice, is checked against them).
SEGMENTS = 4
SEGMENT_LOOPS = 12


def _live_run(stack: live.LiveStack) -> tuple[int, Timed]:
    """The timed call of a live workload: run to the horizon."""
    gc.collect()
    horizon = stack.config.horizon_ms
    calibrations = [calibration_s(SEGMENT_LOOPS)]
    host_s = reference_s = 0.0
    for segment in range(1, SEGMENTS + 1):
        start = perf_counter()
        stack.sim.run_until(horizon * segment / SEGMENTS)
        elapsed = perf_counter() - start
        calibrations.append(calibration_s(SEGMENT_LOOPS))
        host_s += elapsed
        reference_s += scaled(elapsed, *calibrations[-2:])
    return stack.workload.operations_issued, Timed(host_s, reference_s)


def _check_live(report: Report, out: dict) -> bool:
    """Every issued operation is accounted for after the settle period.

    Returns whether this run broke any of the rules.
    """
    before = len(report.violations)
    report.check(out["ops_issued"] == out["reads_issued"]
                 + out["writes_issued"],
                 f"ops issued {out['ops_issued']} != reads "
                 f"{out['reads_issued']} + writes {out['writes_issued']} "
                 "of the arrival stream")
    report.check(out["reads_completed"] + out["reads_failed"]
                 + out["queue_rejections"] == out["reads_issued"],
                 f"reads issued {out['reads_issued']} != completed "
                 f"{out['reads_completed']} + failed {out['reads_failed']} "
                 f"+ rejected {out['queue_rejections']}")
    report.check(out["reads_failed"] == out["store_failed_reads"],
                 "logged read timeouts disagree with the store's count")
    report.check(out["writes_acked"] <= out["writes_issued"],
                 "more writes acknowledged than issued")
    report.check(out["placement_delay_ms"]
                 >= out["optimal_delay_ms"] * (1 - 1e-12),
                 "a live placement beat exhaustive search")
    return len(report.violations) > before


def client_failures(out: dict) -> int:
    """Failed reads, unacknowledged writes and queue rejections."""
    return (out["reads_failed"] + out["queue_rejections"]
            + out["writes_issued"] - out["writes_acked"])


def _live_outputs(report: Report, out: dict) -> None:
    """The simulated end-to-end outputs, with their sample counts."""
    reads = out["reads_completed"]
    ops = out["ops_issued"]
    failures = client_failures(out)
    report.note(f"simulated outputs sha256: {digest(out)}")
    report.put("served_share", 1.0 - stats.failed_share(failures, ops),
               "ratio", ops)
    quantiles = out["read_quantiles_ms"]
    for label, q in (("p50", 50.0), ("p99", 99.0), ("p999", 99.9)):
        shown = (f"{quantiles[label]:.4f} ms"
                 if stats.reportable(reads, q) else "not reportable")
        report.note(f"read_{label}_ms (simulated): {shown} "
                    f"[n={reads} reads, {stats.samples_beyond(reads, q)} "
                    "beyond]")
    report.note(f"read_mean_ms (simulated): {out['read_mean_ms']:.4f} ms "
                f"[n={reads}]")
    report.note(f"failed_share (simulated): "
                f"{stats.failed_share(failures, ops):.6f} "
                f"[{failures} of {ops} ops: {out['reads_failed']} failed "
                f"reads, {out['writes_issued'] - out['writes_acked']} "
                f"unacknowledged writes, {out['queue_rejections']} "
                "rejections]")
    report.note(f"migration_gb (simulated): {out['migration_gb']:.1f} GB")
    report.note(f"placement_delay_ms (simulated): "
                f"{out['placement_delay_ms']:.4f} ms over "
                f"{len(out['final_sites'])} unit(s); optimal "
                f"{out['optimal_delay_ms']:.4f} ms; ratio "
                f"{out['placement_delay_ms'] / out['optimal_delay_ms']:.6f}")


def run_live_untraced(workload: str, seed: int, seconds: float) -> Report:
    config = LIVE_CONFIGS[workload]
    report = Report()
    null = NullRecorder()
    world, stack = _setups(report, lambda: build_world(seed, null),
                           lambda w: live.build_stack(config, w, seed))
    samples, outputs = _repeat(
        seconds, MIN_REPS[workload], stack,
        lambda: live.build_stack(config, world, seed), _live_run,
        live.outcome)
    _throughput(report, samples, "client operations per second of "
                "run_until")
    report.put("peak_rss_mb", peak_rss_mb(), "MB")
    report.check(all(o == outputs[0] for o in outputs[1:]),
                 "repeated runs of one seed gave different simulated outputs")
    report.attempted = len(outputs)
    report.failed = sum(_check_live(report, out) for out in outputs)
    _live_outputs(report, outputs[0])
    return report


#: (class, attribute, span name, work units of one call)
LIVE_BOUNDARIES = (
    (Simulator, "run_until", "sim.run_until", None),
    (BatchedAccessEngine, "advance", "store.advance", None),
    (WorkloadArrivals, "generate_until", "workloads.generate_until",
     lambda args, result: result.size),
    (ReplicatedStore, "flush_pending_accesses", "store.flush", None),
    (ReplicatedStore, "run_epoch", "store.run_epoch", None),
    (ReplicationController, "run_epoch", "core.controller_epoch", None),
    (ReplicaAccessSummary, "record_batch", "core.record_batch",
     lambda args, result: int(np.atleast_2d(args[1]).shape[0])),
)


def _recording(recorder: SpanRecorder, boundaries) -> ExitStack:
    stack = ExitStack()
    for cls, attr, name, items in boundaries:
        stack.enter_context(recorder.wrap(cls, attr, name, items))
    return stack


def run_live_traced(workload: str, seed: int) -> Report:
    config = LIVE_CONFIGS[workload]
    report = Report()
    recorder = SpanRecorder(run=f"{workload}/seed={seed}")
    registry = obs.MetricsRegistry()
    with _recording(recorder, LIVE_BOUNDARIES), \
            obs.observe(registry, obs.NULL_TRACER), \
            recorder.span("bench.traced"):
        world = build_world(seed, recorder)
        with recorder.span("bench.stack"):
            traced = live.build_stack(config, world, seed)
        traced.sim.run_until(config.horizon_ms)
    run_span = recorder.by_name("sim.run_until")[0]
    traced_out = live.outcome(traced)
    plain = live.build_stack(config, world, seed)
    _, timing = _live_run(plain)
    report.check(live.outcome(plain) == traced_out,
                 "traced and untraced runs gave different simulated outputs")
    report.attempted = 2
    report.failed = int(_check_live(report, traced_out))
    # Throughput traced over untraced, for the same operations.
    report.put("bench.trace_overhead",
               timing.host_s / (run_span.end - run_span.start), "ratio")
    _live_layers(report, recorder, registry, traced, traced_out)
    _common_layers(report, recorder, registry)
    report.spans, report.registry = recorder.spans, registry
    return report


def _total(recorder: SpanRecorder, name: str) -> float:
    return sum(s.end - s.start for s in recorder.by_name(name))


def _timer(registry: obs.MetricsRegistry, name: str) -> float:
    return registry.timer(name).total_seconds


def _counter(registry: obs.MetricsRegistry, name: str) -> float:
    return registry.counter(name).value


def _gauge(registry: obs.MetricsRegistry, name: str) -> float:
    return registry.gauge(name).value


def _tail(report: Report, name: str, values_ms: list[float], q: float):
    """A percentile, or 0 when fewer than 10 samples lie beyond it."""
    value = (float(np.percentile(values_ms, q))
             if stats.reportable(len(values_ms), q) else 0.0)
    report.put(name, value, "ms")
    report.note(f"{name}: {value:.4f} ms [n={len(values_ms)}, "
                f"{stats.samples_beyond(len(values_ms), q)} beyond"
                f"{'' if value else '; not reportable, shown as 0'}]")


def _live_layers(report, recorder, registry, stack, out) -> None:
    spans = recorder.spans
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    windows = [
        span for i, span in enumerate(spans) if span.name == "store.advance"
        and any(c.name == "workloads.generate_until" and c.items > 0
                for c in children.get(i, ()))]
    report.check(len(windows) == registry.timer("sim.batched.advance").calls,
                 "window spans disagree with the engine's window timer")
    ops = out["ops_issued"]
    self_s = stats.self_time_by_name(spans)
    points = sum(s.items for s in recorder.by_name("core.record_batch"))
    record_s = _total(recorder, "core.record_batch")
    events = stack.sim.events_processed
    report.put("core.record_batch_s", record_s, "s")
    report.put("core.record_batch_points", points, "count")
    report.put("core.absorb_us_per_point",
               record_s / points * 1e6 if points else 0.0, "us")
    report.put("store.advance_s", _total(recorder, "store.advance"), "s")
    report.put("store.windows", len(windows), "count")
    window_ms = [(s.end - s.start) * 1e3 for s in windows]
    _tail(report, "store.window_ms_p50", window_ms, 50.0)
    _tail(report, "store.window_ms_p99", window_ms, 99.0)
    report.put("store.ops_per_window", ops / len(windows) if windows
               else 0.0, "count")
    report.put("workloads.arrivals_s",
               _total(recorder, "workloads.generate_until"), "s")
    report.put("store.flush_s", self_s.get("store.flush", 0.0), "s")
    report.put("sim.run_s", _total(recorder, "sim.run_until"), "s")
    report.put("sim.events", events, "count")
    report.put("sim.loop_self_s", self_s.get("sim.run_until", 0.0), "s")
    report.put("store.events_per_op", events / ops, "ratio")
    engine = stack.workload.engine
    offered = stack.store.queue_stats()["offered"]
    report.put("store.queue.bulk_share",
               engine.bulk_queue_admissions / offered if offered else 0.0,
               "ratio")
    report.put("store.queue.demotions", engine.queue_demotions, "count")
    report.put("store.epoch_s", _total(recorder, "store.run_epoch"), "s")
    report.put("store.epochs", len(recorder.by_name("store.run_epoch")),
               "count")
    report.put("core.controller_epoch_s",
               _total(recorder, "core.controller_epoch"), "s")
    report.put("store.queue_rejections", stack.store.queue_rejections,
               "count")
    report.put("store.failed_reads", stack.store.failed_reads, "count")


def _common_layers(report: Report, recorder, registry) -> None:
    """Layers read from the obs registry, and the span-tree check."""
    report.put("coords.embed_s", _total(recorder, "coords.embed"), "s")
    report.put("net.matrix_s", _total(recorder, "net.matrix"), "s")
    report.put("kernels.absorb_stream_s",
               _timer(registry, "kernels.cf.absorb_stream"), "s")
    for event in ("spawned", "absorbed", "merged"):
        report.put(f"clustering.micro_{event}",
                   _counter(registry, f"clustering.micro.{event}"), "count")
    report.put("core.place_replicas_s",
               _timer(registry, "macro.place_replicas"), "s")
    report.put("clustering.kmeans_s", _timer(registry, "clustering.kmeans"),
               "s")
    report.put("clustering.kmeans_iterations",
               _counter(registry, "clustering.kmeans.iterations"), "count")
    snapshot = registry.snapshot()
    shard = re.compile(r"catalog\.shard\d+\.")
    report.put("catalog.epochs", sum(
        v for n, v in snapshot["counters"].items()
        if shard.match(n) and n.endswith(".epochs")), "count")
    report.put("catalog.moves", sum(
        v for n, v in snapshot["counters"].items()
        if shard.match(n) and n.endswith(".moves")), "count")
    report.put("catalog.epoch_s", sum(
        t["total_seconds"] for n, t in snapshot["phase_timers"].items()
        if shard.match(n) and n.endswith(".epoch")), "s")
    report.put("store.migrations_started",
               _counter(registry, "store.migrations.started"), "count")
    report.put("store.migrations_finished",
               _counter(registry, "store.migrations.finished"), "count")
    report.put("store.read_timeouts",
               _counter(registry, "store.read_timeouts"), "count")
    report.put("controller.failovers",
               _counter(registry, "controller.failovers"), "count")
    report.put("controller.epochs_degraded",
               _counter(registry, "controller.epochs_degraded"), "count")
    report.put("placement.online.place_s",
               _timer(registry, "placement.online.place"), "s")
    root = recorder.by_name("bench.traced")[0]
    total_self = sum(stats.self_times(recorder.spans))
    report.check(abs(total_self - (root.end - root.start)) <= 1e-6,
                 f"self times sum to {total_self!r}, root span lasted "
                 f"{root.end - root.start!r}")
    for name, own in sorted(stats.self_time_by_name(recorder.spans).items(),
                            key=lambda item: -item[1]):
        report.note(f"self time {name}: {own:.4f} s")


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
def _workers() -> int:
    return os.cpu_count() or 1


@dataclass
class _Sweep:
    world: object
    specs: list
    results: list | None = None


def _sweep_run(state: _Sweep) -> int:
    """The timed call of the sweep: every cell through the runner."""
    state.results = execute(state.specs, jobs=_workers(),
                            world=state.world.as_tuple())
    return len(state.specs)


def _check_sweep(report: Report, world, specs, results, seed) -> None:
    report.check(len(results) == len(specs)
                 and all(np.isfinite(r) for r in results),
                 "a sweep cell returned no finite delay")
    for problem in sweep.optimal_violations(specs, results):
        report.check(False, problem)
    serial = {i: specs[i].execute(world.as_tuple())
              for i in sweep.sample_indices(seed, len(specs),
                                            sweep.GATE_SAMPLE)}
    report.check(all(serial[i] == results[i] for i in serial),
                 "serially re-executed cells differ from the parallel sweep")


def _sweep_outputs(report: Report, specs, results) -> None:
    online = sweep.series_mean(specs, results, "online")
    optimal = sweep.series_mean(specs, results, "optimal")
    report.note(f"simulated outputs sha256: {digest(results)}")
    report.put("served_share",
               1.0 - stats.failed_share(0, len(results)), "ratio",
               len(results))
    report.note(f"online_over_optimal (simulated): {online / optimal:.6f} "
                f"[{len(sweep.DC_COUNTS) * sweep.N_RUNS} cells each]")
    for label in sweep.STRATEGIES:
        report.note(f"{label}_delay_ms (simulated, mean of "
                    f"{len(sweep.DC_COUNTS) * sweep.N_RUNS} cells): "
                    f"{sweep.series_mean(specs, results, label):.4f} ms")


def run_sweep_untraced(seed: int, seconds: float) -> Report:
    report = Report()
    null = NullRecorder()
    world, specs = _setups(report, lambda: build_world(seed, null),
                           lambda w: sweep.build_specs(seed))
    samples, outputs = _repeat(
        seconds, MIN_REPS["paper-sweep"], _Sweep(world, specs),
        lambda: _Sweep(world, specs),
        lambda state: sampled(lambda: _sweep_run(state)),
        lambda state: state.results)
    _throughput(report, samples, f"cells per second of execute, "
                f"{_workers()} workers")
    report.put("peak_rss_mb", peak_rss_mb(children=True), "MB")
    report.check(all(o == outputs[0] for o in outputs[1:]),
                 "repeated sweeps of one seed gave different results")
    _check_sweep(report, world, specs, outputs[0], seed)
    _sweep_outputs(report, specs, outputs[0])
    report.attempted = sum(cells for cells, _ in samples)
    report.failed = sum(1 for o in outputs for r in o if not np.isfinite(r))
    return report


#: Serial traced pass: this many runs of every (DC count, strategy).
TRACED_RUNS = 10

SWEEP_BOUNDARIES = (
    (PlacementRunSpec, "execute", "placement.cell", None),
    (ReplicaAccessSummary, "record_batch", "core.record_batch",
     lambda args, result: int(np.atleast_2d(args[1]).shape[0])),
)


def run_sweep_traced(seed: int) -> Report:
    report = Report()
    recorder = SpanRecorder(run=f"paper-sweep/seed={seed}")
    registry = obs.MetricsRegistry()
    workers = _workers()
    with recorder.span("bench.traced"):
        world = build_world(seed, recorder)
        with recorder.span("bench.specs"):
            specs = sweep.build_specs(seed)
        with obs.observe(registry, obs.NULL_TRACER), \
                recorder.span("runner.execute") as run_span:
            results = execute(specs, jobs=workers, world=world.as_tuple())
        runs = set(sweep.sample_indices(seed, sweep.N_RUNS, TRACED_RUNS))
        picked = [i for i, s in enumerate(specs) if s.run_index in runs]
        with _recording(recorder, SWEEP_BOUNDARIES), \
                recorder.span("bench.serial_pass"):
            serial = [specs[i].execute(world.as_tuple()) for i in picked]
    report.check(all(serial[j] == results[i] for j, i in enumerate(picked)),
                 "serially re-executed cells differ from the parallel sweep")
    plain = _Sweep(world, specs)
    _, timing = timed(lambda: _sweep_run(plain))
    report.check(plain.results == results,
                 "traced and untraced sweeps gave different results")
    for problem in sweep.optimal_violations(specs, results):
        report.check(False, problem)
    wall = run_span.end - run_span.start
    report.put("bench.trace_overhead", timing.host_s / wall, "ratio")
    busy = _timer(registry, "runner.job")
    report.put("runner.busy_s", busy, "s")
    report.put("runner.parallel_efficiency",
               stats.parallel_efficiency(busy, wall, workers), "ratio")
    report.put("runner.dispatch_overhead_s",
               _gauge(registry, "runner.dispatch_overhead"), "s")
    report.put("runner.chunks", _counter(registry, "runner.chunks"), "count")
    report.put("runner.chunk_size", _gauge(registry, "runner.chunk_size"),
               "count")
    report.put("runner.shm_bytes", _gauge(registry, "runner.shm_bytes"),
               "bytes")
    report.put("runner.retries", _counter(registry, "runner.retries"),
               "count")
    report.put("runner.worker_crashes",
               _counter(registry, "runner.worker_crashes"), "count")
    cell_ms = [(s.end - s.start) * 1e3
               for s in recorder.by_name("placement.cell")]
    by_label: dict[str, list[float]] = {}
    for i, ms in zip(picked, cell_ms):
        by_label.setdefault(specs[i].series, []).append(ms)
    for label in sweep.STRATEGIES:
        _tail(report, f"placement.{label}.cell_ms_p50", by_label[label],
              50.0)
    _tail(report, "placement.cell_ms_p95", cell_ms, 95.0)
    points = sum(s.items for s in recorder.by_name("core.record_batch"))
    record_s = _total(recorder, "core.record_batch")
    report.put("core.record_batch_s", record_s, "s")
    report.put("core.record_batch_points", points, "count")
    report.put("core.absorb_us_per_point",
               record_s / points * 1e6 if points else 0.0, "us")
    _common_layers(report, recorder, registry)
    report.note(f"runner: {workers} workers, wall {wall:.3f} s, busy "
                f"{busy:.3f} s; serial traced pass over {len(picked)} cells")
    report.spans, report.registry = recorder.spans, registry
    report.attempted = len(specs) * 2 + len(picked)
    report.failed = sum(1 for r in results if not np.isfinite(r))
    return report
