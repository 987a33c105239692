"""Differential certification of server queueing and replica selection.

Three contracts, in increasing strength:

1. **Degenerate-case bitwise preservation.**  A queueing config whose
   service time is identically zero (and whose queue is unbounded) —
   and an explicitly passed ``nearest`` strategy — must leave every
   observable byte of a run identical to the pre-queueing store, on
   both engines.  This anchors the whole extension: the paper's
   RTT-only data plane is the exact degenerate case, not a separate
   code path.

2. **Exactness of the escalate-all path.**  Pending-aware selection
   strategies and capacity-bounded queues force the batched engine to
   replay every arrival through the per-event machinery; those runs
   must be byte-identical to the per-event oracle outright.

3. **Bounded error of the bulk window approximation.**  With an
   unbounded queue and ``nearest`` selection the batched engine serves
   whole windows through a vectorized Lindley recursion.  Per access,
   its delay may differ from the oracle's by at most
   ``(per-event admissions) x s`` for deterministic service ``s`` —
   the bound documented in docs/queueing.md — and the per-event
   admission count is observable as ``queue offered - bulk admissions``.
"""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import (
    BatchedAccessWorkload,
    DeterministicService,
    QueueingConfig,
    ReplicatedStore,
)
from repro.workloads import AccessWorkload, ClientPopulation

N_NODES = 24
N_DC = 8


def _build(seed, engine, *, queueing=None, strategy="nearest",
           timeout=None):
    rng = np.random.default_rng(seed + 999)
    coords = rng.normal(size=(N_NODES, 2)) * 40
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rtt += 5.0
    np.fill_diagonal(rtt, 0.0)
    matrix = LatencyMatrix((rtt + rtt.T) / 2)
    sim = Simulator(seed=seed)
    store = ReplicatedStore(
        sim, matrix, list(range(N_DC)), coords,
        read_timeout_ms=timeout, queueing=queueing, strategy=strategy)
    store.create_object("obj", size_gb=0.5, k=3)
    population = ClientPopulation.uniform(list(range(N_DC, N_NODES)))
    workload_cls = (BatchedAccessWorkload if engine == "batched"
                    else AccessWorkload)
    workload = workload_cls(store, population, ["obj"],
                            rate_per_second=400.0)
    return sim, store, workload


def _snapshot(store):
    """Every access-visible outcome of a run, as comparable values."""
    net = store.network
    return {
        "log": [(r.time, r.client, r.server, r.key, r.delay_ms, r.kind,
                 r.version, r.stale) for r in store.log.records],
        "net": (net.stats.messages_sent, net.stats.messages_received,
                net.stats.bytes_sent, net.stats.bytes_received),
        "dropped": net.messages_dropped,
        "failed_reads": store.failed_reads,
        "queue_stats": store.queue_stats(),
        "queue_rejections": store.queue_rejections,
    }


def _run(seed, engine, horizon_ms=10_000.0, **config):
    sim, store, workload = _build(seed, engine, **config)
    sim.run_until(horizon_ms)
    return store, workload


ZERO_SERVICE_CONFIGS = [
    QueueingConfig(),
    QueueingConfig(service=DeterministicService(0.0)),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("engine", ["event", "batched"])
def test_zero_service_bitwise_identical_to_seed_path(seed, engine):
    """Contract 1: zero service + unbounded queue changes nothing."""
    store_plain, _ = _run(seed, engine)
    baseline = _snapshot(store_plain)
    assert len(baseline["log"]) > 1_000, "run produced too little traffic"
    for queueing in ZERO_SERVICE_CONFIGS:
        assert not queueing.active
        store_q, _ = _run(seed, engine, queueing=queueing)
        assert _snapshot(store_q) == baseline
    # No request was ever admitted into a queue on the fast path.
    assert baseline["queue_stats"] == {"offered": 0, "accepted": 0,
                                       "rejected": 0}


@pytest.mark.parametrize("engine", ["event", "batched"])
def test_explicit_nearest_strategy_is_the_seed_path(engine):
    """Contract 1: passing strategy="nearest" is byte-for-byte free."""
    from repro.store import NearestSelection

    store_default, _ = _run(5, engine)
    store_named, _ = _run(5, engine, strategy="nearest")
    store_object, _ = _run(5, engine, strategy=NearestSelection())
    assert _snapshot(store_named) == _snapshot(store_default)
    assert _snapshot(store_object) == _snapshot(store_default)


@pytest.mark.parametrize("strategy", ["least-pending", "c3"])
def test_pending_aware_strategies_identical_across_engines(strategy):
    """Contract 2: escalate-all replays are exact, not approximate."""
    queueing = QueueingConfig(service=DeterministicService(2.0))
    store_event, _ = _run(11, "event", queueing=queueing,
                          strategy=strategy)
    store_batched, w = _run(11, "batched", queueing=queueing,
                            strategy=strategy)
    assert w.engine._escalate_all
    event, batched = _snapshot(store_event), _snapshot(store_batched)
    assert len(event["log"]) > 1_000
    assert event == batched
    assert event["queue_stats"]["accepted"] > 0


def test_bounded_queue_identical_across_engines_and_rejects():
    """Contract 2: capacity-bounded admission is replayed exactly."""
    queueing = QueueingConfig(service=DeterministicService(8.0),
                              queue_capacity=2)
    store_event, _ = _run(13, "event", queueing=queueing, timeout=120.0)
    store_batched, w = _run(13, "batched", queueing=queueing,
                            timeout=120.0)
    assert w.engine._escalate_all
    event, batched = _snapshot(store_event), _snapshot(store_batched)
    assert event == batched
    assert event["queue_rejections"] > 0
    stats = event["queue_stats"]
    assert stats["rejected"] == event["queue_rejections"]
    assert stats["offered"] == stats["accepted"] + stats["rejected"]


@pytest.mark.parametrize("service_ms", [1.0, 4.0])
def test_bulk_window_error_bounded_by_demoted_admissions(service_ms):
    """Contract 3: the vectorized window recursion's documented bound.

    Sorted-delay pairing minimizes the bottleneck distance over all
    pairings, so if every access's delay is within ``admissions x s``
    of its oracle twin under *some* pairing, the sorted sequences are
    too — which makes the assertion valid without reconstructing the
    engine's access identity mapping.
    """
    queueing = QueueingConfig(service=DeterministicService(service_ms))
    store_event, _ = _run(17, "event", queueing=queueing)
    store_batched, w = _run(17, "batched", queueing=queueing)
    assert not w.engine._escalate_all

    event_delays = np.sort(store_event.log.delays("read"))
    batched_delays = np.sort(store_batched.log.delays("read"))
    assert event_delays.size == batched_delays.size > 1_000

    stats = store_batched.queue_stats()
    per_event_admissions = (stats["offered"]
                            - w.engine.bulk_queue_admissions)
    assert per_event_admissions >= 0
    bound = per_event_admissions * service_ms
    worst = float(np.abs(event_delays - batched_delays).max())
    assert worst <= bound + 1e-9, \
        f"delay error {worst} exceeds documented bound {bound}"
    # The window path must actually be doing the bulk work: the
    # overwhelming majority of admissions go through the vectorized
    # recursion, not the per-event fallback.
    assert w.engine.bulk_queue_admissions > 0.9 * stats["offered"]
    # Both engines drain the same offered load.
    assert stats == store_event.queue_stats()


# sha256 of repr(_snapshot(store)) for the batched engine at seed 17,
# with the window's demotion count and failed reads alongside.  The
# 4 ms rows exercise both demotion branches: a queued completion past
# the window cutoff, and one past the 60 ms read-timeout horizon.
GOLDEN_BATCHED_SEED17 = {
    (None, None): (
        "27713d7bdcbaff853e28517760abe5c60fc2bdcbe3f907dcd28ae805a9e4be7f",
        0, 0),
    (None, 60.0): (
        "d513bfbe05b025c575a1cfcb8dd42b281fbdbfd0fe58b45ea0e492bb2cfcd757",
        0, 0),
    (1.0, None): (
        "e76a52438a1803fe92bcdfcf804658b688d5a0ccd2f24b352171cb991ad087ca",
        0, 0),
    (1.0, 60.0): (
        "d356feb4465583af3a6634492b084d7b9a0b7094599ad849d6dd6b9875ee9707",
        0, 1528),
    (4.0, None): (
        "d33e4a45403b1d97e40192e1b26df9eaf78c3c35958959decfd9dc2c640b561c",
        48, 0),
    (4.0, 60.0): (
        "4b88d9545a1e3ac94dae7cc8602ed81fa00d4a6cdce6b42cf1c199b0ceb53d79",
        6, 1532),
}


@pytest.mark.parametrize("service_ms, timeout",
                         sorted(GOLDEN_BATCHED_SEED17,
                                key=lambda k: (k[0] or 0.0, k[1] or 0.0)))
def test_batched_window_golden_pin(service_ms, timeout):
    """The batched window's exact output, demotions included.

    Contract 3 only bounds the queued window's error; this pins its
    bytes, so a refactor of the window pipeline must reproduce the
    same classification, backlog and demotion decisions exactly.
    """
    queueing = (None if service_ms is None else
                QueueingConfig(service=DeterministicService(service_ms)))
    store, w = _run(17, "batched", queueing=queueing, timeout=timeout)
    digest = hashlib.sha256(repr(_snapshot(store)).encode()).hexdigest()
    expected, demotions, failed = GOLDEN_BATCHED_SEED17[
        (service_ms, timeout)]
    assert (digest, w.engine.queue_demotions, store.failed_reads) == (
        expected, demotions, failed)


@pytest.mark.parametrize("service_ms", [None, 4.0])
def test_bucket_counters_account_for_every_operation(service_ms):
    """Every issued operation lands in exactly one window bucket.

    Bulk (A), materialized (B: late or demoted) and escalated (C) reads
    and writes sum to ``operations_issued``; the queue counters mirror
    the engine attributes.
    """
    queueing = (None if service_ms is None else
                QueueingConfig(service=DeterministicService(service_ms)))
    with obs.observe() as (registry, _):
        store, w = _run(17, "batched", queueing=queueing, timeout=60.0,
                        horizon_ms=4_000.0)
    counters = {name: registry.counter(f"store.batched.{name}").value
                for name in ("bulk", "materialized", "escalated",
                             "queue_demotions", "bulk_queue_admissions")}
    engine = w.engine
    assert engine.operations_issued > 0
    assert counters["bulk"] + counters["materialized"] \
        + counters["escalated"] == engine.operations_issued
    assert counters["bulk"] > 0 and counters["materialized"] > 0
    assert counters["queue_demotions"] == engine.queue_demotions
    assert counters["bulk_queue_admissions"] \
        == engine.bulk_queue_admissions
    if service_ms is not None:
        assert engine.queue_demotions > 0
        assert engine.bulk_queue_admissions > 0
