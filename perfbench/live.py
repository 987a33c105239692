"""The two live workloads: the replicated store driven by the batched engine.

``paper-read`` is the paper's setting on the live stack: one object,
k = 3 replicas, m = 10 micro-clusters, 20 dispersed candidate data
centers, the other 206 nodes uniform readers, 10 s placement epochs.

``catalog-mixed`` drives a sharded catalog on the same world: Zipf keys
in placement groups over 8 shards, 5 % writes, a deterministic FIFO
service time at every server, a read timeout, 5 s epochs under a global
migration budget, one replica-site crash and one lossy client link
(both healed mid-run), then a settle period with no new arrivals.

Every random stream derives from the workload seed; the simulated
outputs of one seed repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiment import draw_candidates
from repro.catalog import PlacementGroups, ShardedCatalog, keyspace
from repro.core import ControllerConfig
from repro.placement.base import PlacementProblem, average_access_delay
from repro.placement.optimal import OptimalPlacement
from repro.runner import seed_sequence
from repro.sim import FailureInjector, Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.store.queueing import QueueingConfig
from repro.workloads import ClientPopulation, WorkloadArrivals

#: Stream tags mixed into seed_sequence keys (the chaos harness's values).
_CANDIDATES_STREAM = 101
_FAULT_STREAM = 103

N_DC = 20        # candidate data centers, drawn dispersed
K = 3            # replicas per placement unit
M = 10           # micro-clusters per replica summary


@dataclass(frozen=True)
class LiveConfig:
    rate_per_second: float = 2000.0
    duration_ms: float = 50_000.0
    settle_ms: float = 0.0
    epoch_period_ms: float = 10_000.0
    write_fraction: float = 0.0
    n_keys: int = 0              # 0: one object, no catalog
    keys_per_group: int = 1
    n_shards: int = 1
    max_epoch_moves: int | None = None
    service_ms: float = 0.0
    read_timeout_ms: float | None = None
    faults: bool = False

    @property
    def horizon_ms(self) -> float:
        return self.duration_ms + self.settle_ms


PAPER_READ = LiveConfig(settle_ms=2_000.0)

CATALOG_MIXED = LiveConfig(
    rate_per_second=1000.0, duration_ms=15_000.0, settle_ms=7_000.0,
    epoch_period_ms=5_000.0, write_fraction=0.05, n_keys=2_000,
    keys_per_group=50, n_shards=8, max_epoch_moves=4, service_ms=0.5,
    read_timeout_ms=2_000.0, faults=True)


@dataclass
class LiveStack:
    config: LiveConfig
    sim: Simulator
    store: ReplicatedStore
    workload: BatchedAccessWorkload
    candidates: tuple[int, ...]
    clients: tuple[int, ...]
    keys: tuple[str, ...]
    units: tuple[str, ...]
    sim_seed: int


def build_stack(config: LiveConfig, world, seed: int) -> LiveStack:
    """Store, placement units, workload and fault schedule; nothing runs."""
    candidates, clients = draw_candidates(
        world.matrix, N_DC,
        np.random.default_rng(seed_sequence(seed, 0, _CANDIDATES_STREAM)))
    sim_seed = int(seed_sequence(seed, 0).generate_state(1)[0])
    sim = Simulator(seed=sim_seed)
    queueing = (QueueingConfig.from_params(service_model="deterministic",
                                           service_ms=config.service_ms)
                if config.service_ms > 0 else None)
    store = ReplicatedStore(sim, world.matrix, candidates, world.planar,
                            selection="oracle",
                            read_timeout_ms=config.read_timeout_ms,
                            queueing=queueing, strategy="nearest")
    controller = ControllerConfig(k=K, max_micro_clusters=M)
    if config.n_keys:
        keys = keyspace(config.n_keys)
        catalog = ShardedCatalog(
            store, keys, n_shards=config.n_shards,
            groups=PlacementGroups.chunked(keys, config.keys_per_group),
            k=K, controller_config=controller,
            epoch_period_ms=config.epoch_period_ms, epoch_stagger=1.0,
            max_epoch_moves=config.max_epoch_moves)
        keys = catalog.keys()
        units = catalog.unit_keys()
    else:
        store.create_object("obj", k=K, controller_config=controller,
                            epoch_period_ms=config.epoch_period_ms)
        keys = units = ("obj",)
    workload = BatchedAccessWorkload(
        store, ClientPopulation.uniform(clients), list(keys),
        rate_per_second=config.rate_per_second,
        write_fraction=config.write_fraction)
    sim.schedule_at(config.duration_ms, workload.stop)
    stack = LiveStack(config, sim, store, workload, tuple(candidates),
                      tuple(clients), tuple(keys), tuple(units), sim_seed)
    if config.faults:
        _schedule_faults(stack, seed)
    return stack


def _schedule_faults(stack: LiveStack, seed: int) -> None:
    """One replica-site crash and one lossy client link, both healed.

    Victims are chosen when the fault fires, from the placement at that
    instant: the candidate holding the most replicas crashes, and a
    seeded client loses half its messages to the replica it reads the
    hottest key from.
    """
    store, sim = stack.store, stack.sim
    duration = stack.config.duration_ms
    injector = FailureInjector(store.network)
    rng = np.random.default_rng(seed_sequence(seed, 0, _FAULT_STREAM))
    client = int(stack.clients[rng.integers(len(stack.clients))])

    def crash_busiest() -> None:
        load = {site: 0 for site in stack.candidates}
        for unit in stack.units:
            for site in store.installed_sites(unit):
                load[site] += 1
        victim = max(sorted(load), key=lambda site: load[site])
        injector.crash_now(victim)
        injector.recover_at(0.5 * duration, victim)

    def flaky_client_link() -> None:
        site = store.route_read(client, stack.keys[0])[0]
        injector.flaky_link_now(client, site, 0.5, symmetric=True)
        injector.fix_link_at(0.75 * duration, client, site, symmetric=True)

    sim.schedule_at(0.3 * duration, crash_busiest)
    sim.schedule_at(0.55 * duration, flaky_client_link)


def expected_arrivals(stack: LiveStack) -> tuple[int, int]:
    """(reads, writes) the workload must issue, from a second copy of its
    arrival stream: the same seed, population, keys and rate."""
    config = stack.config
    source = WorkloadArrivals(
        Simulator(seed=stack.sim_seed).rng("workload"),
        ClientPopulation.uniform(stack.clients), stack.keys,
        rate_per_second=config.rate_per_second,
        write_fraction=config.write_fraction)
    batch = source.generate_until(config.duration_ms)
    writes = int(batch.is_write.sum())
    return batch.size - writes, writes


def unit_size_gb(store: ReplicatedStore, unit: str) -> float:
    return sum(store.object(key).size_gb for key in store.group_members(unit))


def outcome(stack: LiveStack) -> dict:
    """The simulated outputs of one finished run (all deterministic)."""
    store = stack.store
    counts = {"read": 0, "read-timeout": 0, "write": 0}
    read_delays = []
    for record in store.log.records:
        if record.kind in counts:
            counts[record.kind] += 1
        if record.kind == "read":
            read_delays.append(record.delay_ms)
    reads_issued, writes_issued = expected_arrivals(stack)
    migration_gb = 0.0
    epochs = {}
    final_sites = {}
    for unit in stack.units:
        reports = store.epoch_reports(unit)
        epochs[unit] = len(reports)
        final_sites[unit] = tuple(sorted(store.installed_sites(unit)))
        size = unit_size_gb(store, unit)
        for report in reports:
            if report.migrated:
                moved = set(report.proposed_sites) - set(report.previous_sites)
                migration_gb += size * len(moved)
    matrix = store.network.matrix
    placement_delay = float(np.mean([
        average_access_delay(matrix, stack.clients, final_sites[unit])
        for unit in stack.units]))
    # Every unit sees the same uniform clients, so one exhaustive search
    # gives every unit's lower bound.
    best = OptimalPlacement().place(
        PlacementProblem(matrix, stack.candidates, stack.clients, K), None)
    optimal_delay = average_access_delay(matrix, stack.clients, best)
    return {
        "ops_issued": stack.workload.operations_issued,
        "reads_issued": reads_issued,
        "writes_issued": writes_issued,
        "reads_completed": counts["read"],
        "reads_failed": counts["read-timeout"],
        "store_failed_reads": store.failed_reads,
        "queue_rejections": store.queue_rejections,
        "writes_acked": counts["write"],
        "read_quantiles_ms": store.log.tail_quantiles("read"),
        "read_mean_ms": float(np.mean(read_delays)) if read_delays else 0.0,
        "migration_gb": migration_gb,
        "epochs": epochs,
        "final_sites": final_sites,
        "placement_delay_ms": placement_delay,
        "optimal_delay_ms": optimal_delay,
    }
