"""Batched data-plane engine: vectorized client accesses, exact semantics.

The reference path simulates every access as a chain of heap events:
workload tick -> request send -> request delivery (summary fold) ->
reply send -> reply delivery (log record).  At millions of accesses the
heap churn dominates wall-clock time even though, between control-plane
events, the outcome of each access is a pure function of frozen state.

:class:`BatchedAccessEngine` exploits exactly that.  It registers with
the simulator as a *data plane* (:meth:`Simulator.attach_data_plane`):
the event loop asks it to ``advance(bound)`` where ``bound`` is the next
*barrier* — the earliest non-inert event, i.e. the earliest instant
anything can mutate routing, versions, liveness, coordinates or loss
configuration.  Clean read chains are scheduled **inert** (see
:mod:`repro.sim.events`): their effects land only in order-tolerant
sinks — the lazily time-sorted :class:`~repro.store.objects.AccessLog`,
the store's deferred summary-fold buffer (flushed in access-time order
before every summary observation), and integer counters — so they fire
*without* ending a bulk window.  That keeps windows control-plane-sized
(epoch periods, chaos events) instead of event-sized, which is what
makes batching pay off.

Every window runs one pipeline, :meth:`BatchedAccessEngine._process`,
which sorts each arrival into one of three buckets:

``A`` — *bulk*.  Clean reads (client and all quorum targets up, links
    uncut and loss-free, replicas installed) that complete strictly
    before the window's cutoff and carry no timeout risk.  All their
    effects — traffic counters, delivery histograms, summary folds
    (deferred), access-log records — are applied vectorized.
``B`` — *materialized*.  Clean-at-issue reads that outlive the window
    or may time out.  Send-side accounting is bulk; request deliveries
    and the retry timeout become real (inert) heap events via
    :meth:`StorageClient.materialize_read`, so replies, retries and
    timeouts run through the untouched per-event machinery and observe
    any barrier-time state change for real.
``C`` — *escalated*.  Writes; reads whose issue legs are not provably
    clean (down nodes, cut or lossy links, missing replicas); and reads
    issued at or after the window's **first write** (the write chain
    bumps versions, so the staleness bound must be read live).  Each is
    scheduled as a real ``client.read``/``client.write`` event at its
    tick time — byte-identical behaviour including ``"net.loss"`` RNG
    draws in heap order.  Writes are barriers; escalated reads are
    inert.  When routing or admission depends on live state —
    pending-aware selection strategies, capacity-bounded queues — every
    arrival escalates, which makes the window exact but not fast.

The window cutoff is ``min(bound, first write issue time)``: an A item's
entire effect chain completes strictly before anything non-bulk can
touch shared state, so state frozen at classification time is the state
every A effect would have observed.

Under server queueing a **backlog** stage sits between classification
and emission: the A candidates' request legs run through a vectorized
per-server FIFO (Lindley) recursion that shares each server's
``busy_until`` with the per-event path, and a read whose queued
completion crosses the cutoff or its timeout is demoted from A to B.
This stage is the engine's one approximation; its error bound is
stated on :meth:`BatchedAccessEngine._process` and in docs/queueing.md.
Without queues a request is served on arrival and the stage is absent.

Residual divergence is measure-zero tie-breaking (two floating-point
event times colliding exactly) plus float summation order inside
histogram *sum* fields; the differential test suite pins everything
else bitwise.  With the registry enabled, the counters
``store.batched.{bulk,materialized,escalated}`` count each window's
buckets A, B and C; they sum to the operations issued.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.core.controller import ReplicationController
from repro.sim.simulator import Simulator
from repro.store.consistency import QuorumError
from repro.store.kvstore import REQUEST_BYTES, ReplicatedStore
from repro.store.objects import AccessRecord
from repro.workloads.batched import ArrivalBatch, WorkloadArrivals
from repro.workloads.population import ClientPopulation, ZipfObjectPopularity
from repro.workloads.temporal import TemporalPattern

__all__ = ["BatchedAccessEngine", "BatchedAccessWorkload"]


class _GroupInfo(NamedTuple):
    """Frozen routing/leg data for one (client, key) pair in a window."""

    client: int
    key: str
    targets: tuple[int, ...]
    d1: np.ndarray        # per-leg client -> server one-way delay
    d2: np.ndarray        # per-leg server -> client one-way delay
    versions: np.ndarray  # per-leg stored version
    vmax: int             # max(versions): the read's returned version
    latest: int           # latest committed version (staleness bound)
    read_size: int
    positions: tuple[int, ...]  # per-leg index into store.candidates
    unit: object                # the owning _PlacementUnit (fold buffer)


class BatchedAccessEngine:
    """Vectorized access delivery attached to a simulator data plane.

    Parameters
    ----------
    store:
        The replicated store accesses are issued against.  Attaching
        the engine switches the store to deferred summary folding
        (:meth:`ReplicatedStore.enable_fold_buffering`).
    source:
        An arrival generator — :class:`WorkloadArrivals` for live
        workloads, :class:`~repro.workloads.batched.TraceArrivals` for
        trace replay.  Its ``keys`` tuple defines the key index space.
    """

    #: Cache-miss sentinel (``None`` is a legitimate cached value: it
    #: means "this pair escalates until the fault state changes").
    _MISS = object()

    def __init__(self, store: ReplicatedStore, source) -> None:
        self.store = store
        self.source = source
        self.sim: Simulator = store.sim
        self.operations_issued = 0
        #: Reads the queued-mode window first bulk-served and then
        #: demoted to the per-event path because their *queued*
        #: completion crossed the window cutoff or the timeout horizon.
        #: Each demotion is one admission the oracle would have
        #: processed in-order — the approximation-error bound is
        #: proportional to this count (see docs/queueing.md).
        self.queue_demotions = 0
        #: Queue admissions performed by the vectorized window
        #: recursion (the complement of per-event admissions in
        #: ``store.queue_stats()["offered"]``).
        self.bulk_queue_admissions = 0
        queueing = store.queueing
        self._queue_mode = queueing is not None and queueing.active
        # Pending-aware selection strategies re-rank after every issued
        # read, and capacity-bounded queues admit based on live depth —
        # neither survives the frozen-window argument, so those runs
        # replay every arrival through the (exact) per-event path.
        self._escalate_all = (not store.strategy.supports_bulk
                              or (self._queue_mode
                                  and queueing.queue_capacity is not None))
        self._attached = True
        # Cross-window route cache.  A (client, key) group's _GroupInfo
        # is a pure function of (a) replica/version/installed state —
        # versioned by store._state_version — and (b) node/link fault
        # state — versioned by network.state_epoch — plus coordinates.
        # With both counters unchanged since the last window, last
        # window's answers (including the "escalate" Nones a dense fault
        # schedule produces) are still exact, so barriers that did not
        # actually touch state (repair-monitor ticks, summary/replicate
        # deliveries) cost O(1) lookups instead of a full re-derivation
        # per group.  Live coordinate gossip is the one input with no
        # version counter, so coordinate-routed stores with drifting
        # coords opt out.
        self._cacheable = ((store.selection == "oracle"
                            or not hasattr(store._coords, "planar_coords"))
                           and store.strategy.supports_bulk)
        self._info_cache: dict[tuple[int, str], _GroupInfo | None] = {}
        # Unit-level route cache: every member key of a placement unit
        # shares the unit's targets, per-leg delays and positions, so a
        # catalog that folds many keys into one group derives the
        # routing work once per (client, unit) instead of once per
        # (client, key).  Same validity stamp as the info cache.
        self._route_cache: dict[tuple[int, str], tuple | None] = {}
        self._cache_stamp: tuple[int, int] | None = None
        store.enable_fold_buffering()
        store.sim.attach_data_plane(self)

    def stop(self) -> None:
        """Stop generating arrivals, flush folds, detach."""
        self.source.stop()
        if self._attached:
            self.sim.detach_data_plane(self)
            self._attached = False
        self.store.flush_pending_accesses()

    def flush(self) -> None:
        """Apply deferred summary folds (called by the event loop when a
        ``run_until`` horizon is reached, so post-run summary inspection
        needs no manual step)."""
        self.store.flush_pending_accesses()

    # ------------------------------------------------------------------
    def advance(self, bound: float) -> None:
        """Process every arrival with ``time <= bound``.

        Called by the simulator with the next barrier time; between
        barriers no classification-relevant state changes, which is
        what makes bulk delivery exact.
        """
        batch = self.source.generate_until(bound)
        if batch.size == 0:
            return
        registry = obs.get_registry()
        with registry.phase("sim.batched.advance"):
            self._process(batch, float(bound))

    # ------------------------------------------------------------------
    def _process(self, batch: ArrivalBatch, bound: float) -> None:
        """One window: classify, run the backlog (queued mode), emit.

        **Classify.**  Writes escalate, and so does every read issued
        at or after the window's first write (all arrivals, when
        :attr:`_escalate_all`).  The other reads are grouped by
        (client, key); a group whose route cannot be proven clean
        escalates whole.  Per read, ``arrivals = t + d1`` per leg and
        ``comp = max(arrivals + d2)``; a read with ``comp >= cutoff``
        or ``comp >= t + timeout`` is *late* even with zero queue wait.

        **Backlog** (queued mode only).  The per-event oracle admits
        each read leg into its server's FIFO at delivery time
        (Lindley: ``finish = max(arrival, busy_until) + service``).
        The legs of every non-late read are sorted per server by
        arrival time and pushed through the same recursion in closed
        form (:meth:`_run_backlog`), sharing ``ServerQueue.busy_until``
        with the per-event path so escalations and bulk windows drain
        one backlog.  A read whose *queued* completion crosses the
        cutoff or the timeout horizon cannot be known clean until the
        recursion has run, so it is **demoted** post hoc: the recursion
        is re-run without its legs (waits only shrink, so no new
        demotions arise) and committed.  Every late, demoted or
        escalated read is one admission processed out of the oracle's
        FIFO order; each such admission perturbs any single access's
        wait by at most one service time, which gives the documented,
        test-asserted error bound: with deterministic service ``s``,
        per-access delay differs from the oracle by at most
        ``(per-event admissions in the run) * s`` (zero when every read
        is bulk-served).  Stochastic service adds draw-order skew: bulk
        draws consume the ``"service"`` stream in global arrival order,
        the oracle in heap order — identical sample *sets* per window
        only when nothing demotes.

        **Emit.**  Per group, in issue-time order, late and demoted
        reads re-enter through ``materialize_read`` (bucket B); the
        retained reads (bucket A) complete at ``finish + d2`` per leg,
        with ``finish = arrivals`` when there is no queue.  Escalated
        arrivals (bucket C) are scheduled last.
        """
        store = self.store
        keys = self.source.keys
        nkeys = len(keys)
        n = batch.size
        self.operations_issued += n
        t = batch.times
        clients = batch.clients
        key_idx = batch.key_idx
        is_write = batch.is_write
        timeout = store.read_timeout_ms

        # ---- stage 1: classify.  Reads issued before the first write
        # are untouched by it: a write's earliest effect (its request
        # delivery) lands strictly after its issue time, which caps the
        # window cutoff.  Later reads race the write chain (staleness
        # bound, reply versions) and must run live, in heap order.
        cutoff = bound
        if self._escalate_all:
            escalate = np.ones(n, dtype=bool)
        else:
            escalate = np.array(is_write, dtype=bool, copy=True)
            if is_write.any():
                first_write = float(t[is_write].min())
                cutoff = min(bound, first_write)
                escalate |= t >= first_write
        # Per group: [info, tg, arrivals, finish, replies, comp, out],
        # arrays over the group's reads in issue order (``finish`` is
        # ``arrivals`` until the backlog stage replaces it); ``out``
        # marks the reads that leave the bulk path (None: none do).
        groups: list[list] = []
        candidates = np.flatnonzero(~escalate)
        if candidates.size:
            # Route and leg delays are constant per (client, key).
            gid = clients[candidates] * nkeys + key_idx[candidates]
            uniq, inverse, counts = np.unique(gid, return_inverse=True,
                                              return_counts=True)
            order = candidates[np.argsort(inverse, kind="stable")]
            offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
            for g, gval in enumerate(uniq.tolist()):
                idx = order[offsets[g]:offsets[g + 1]]
                info = self._group_info(gval // nkeys, keys[gval % nkeys])
                if info is None:
                    escalate[idx] = True
                    continue
                tg = t[idx]
                # Left-associated float sums, exactly as the event chain
                # computes them: arrival = t + d1, completion = (t+d1) + d2.
                arrivals = tg[:, None] + info.d1
                replies = arrivals + info.d2
                comp = replies.max(axis=1)
                out = comp >= cutoff
                if timeout is not None:
                    # A completion at or past the timeout means the
                    # timeout event (scheduled at issue, hence lower
                    # seq) fires first — the retry machinery must run.
                    out |= comp >= tg + timeout
                groups.append([info, tg, arrivals, arrivals, replies, comp,
                               out if np.count_nonzero(out) else None])

        # ---- stage 2: the backlog (queued mode only).
        if self._queue_mode and groups:
            self._queue_window(groups, cutoff, timeout)

        # ---- stage 3: emit.
        registry = obs.get_registry()
        tracer = obs.get_tracer() if registry.enabled else None
        log = store.log
        planar = store.planar_coords()
        req_senders: list[np.ndarray] = []
        req_sizes: list[np.ndarray] = []
        rep_senders: list[np.ndarray] = []
        rep_sizes: list[np.ndarray] = []
        deliver_recipients: list[np.ndarray] = []
        deliver_sizes: list[np.ndarray] = []
        deliver_delays: list[np.ndarray] = []
        delay_blocks: list[np.ndarray] = []
        served = 0
        for info, tg, arrivals, finish, replies, comp, out in groups:
            q = len(info.targets)
            if out is not None:
                # Bucket B: bulk request-send accounting, real (inert)
                # deliveries and timeout via the client hook.
                issued = tg[out]
                req_senders.append(np.full(q * issued.size, info.client))
                req_sizes.append(np.full(q * issued.size, REQUEST_BYTES))
                client = store.clients[info.client]
                leg_delays = info.d1.tolist()
                for issued_at in issued.tolist():
                    client.materialize_read(info.key, issued_at,
                                            info.targets, leg_delays)
                if issued.size == tg.size:
                    continue
                keep = ~out
                tg, arrivals, finish = tg[keep], arrivals[keep], finish[keep]
                replies, comp = replies[keep], comp[keep]
            delays = comp - tg
            m = tg.size
            served += m
            delay_blocks.append(delays)

            # Freshest server: replies arrive in per-leg completion
            # order (stable on leg index); the oracle keeps the first
            # maximum-version reply.
            if q == 1:
                servers = itertools.repeat(info.targets[0], m)
            else:
                rank = np.argsort(replies, axis=1, kind="stable")
                first_max = info.versions[rank].argmax(axis=1)
                legs = rank[np.arange(m), first_max]
                servers = np.asarray(info.targets)[legs].tolist()
            coords_row = planar[info.client]
            client_ids = np.broadcast_to(info.client, (m,))
            req_bytes = np.broadcast_to(REQUEST_BYTES, (m,))
            rep_bytes = np.broadcast_to(info.read_size, (m,))
            weights = np.broadcast_to(float(info.read_size), (m,))
            coords_block = np.broadcast_to(coords_row, (m, coords_row.size))
            fold_buffer = info.unit.fold_buffer
            for j, server in enumerate(info.targets):
                arr_j = arrivals[:, j]
                # Deferred summary fold, stamped with the request
                # arrival time (when the event path would fold it).
                fold_buffer.append((arr_j, info.positions[j],
                                    coords_block, weights, "read"))
                # request leg: client -> server
                req_senders.append(client_ids)
                req_sizes.append(req_bytes)
                deliver_recipients.append(np.broadcast_to(server, (m,)))
                deliver_sizes.append(req_bytes)
                deliver_delays.append(arr_j - tg)
                # reply leg: server -> client, departing at service
                # completion; its transit is still just d2.
                rep_senders.append(np.broadcast_to(server, (m,)))
                rep_sizes.append(rep_bytes)
                deliver_recipients.append(client_ids)
                deliver_sizes.append(rep_bytes)
                deliver_delays.append(replies[:, j] - finish[:, j])

            # Access log: within a group completion times are monotone
            # in issue time, so appends stay sorted; across groups the
            # log re-sorts lazily.
            key = info.key
            client_id = info.client
            version = info.vmax
            is_stale = info.vmax < info.latest
            for when, dly, server in zip(comp.tolist(), delays.tolist(),
                                         servers):
                if tracer is not None:
                    tracer.record(obs.ACCESS_SERVED, time=when, op="read",
                                  client=client_id, server=server, key=key,
                                  delay_ms=dly)
                log.append(AccessRecord(
                    time=when, client=client_id, server=server, key=key,
                    delay_ms=dly, kind="read", version=version,
                    stale=is_stale))

        # ---- bulk traffic accounting (integer-valued, hence exact).
        net = store.network
        if req_senders:
            net.account_bulk_sends("read-req", np.concatenate(req_senders),
                                   np.concatenate(req_sizes))
        if rep_senders:
            net.account_bulk_sends("read-rep", np.concatenate(rep_senders),
                                   np.concatenate(rep_sizes))
        if deliver_recipients:
            net.account_bulk_deliveries(np.concatenate(deliver_recipients),
                                        np.concatenate(deliver_sizes),
                                        np.concatenate(deliver_delays))
        escalated = np.flatnonzero(escalate)
        if registry.enabled:
            registry.counter("store.batched.bulk").inc(served)
            registry.counter("store.batched.materialized").inc(
                n - served - escalated.size)
            registry.counter("store.batched.escalated").inc(escalated.size)
            if served:
                registry.counter("accesses.served").inc(served)
                registry.counter("store.reads").inc(served)
                registry.histogram("access.delay_ms").observe_many(
                    np.concatenate(delay_blocks))

        # ---- bucket C replays through the per-event path.  Writes are
        # barriers (their chains mutate versions/placement); escalated
        # reads stay inert.
        sim = self.sim
        for i in escalated.tolist():
            client = store.clients[int(clients[i])]
            if is_write[i]:
                sim.schedule_at(float(t[i]), client.write, keys[key_idx[i]])
            else:
                sim.schedule_at(float(t[i]), client.read, keys[key_idx[i]],
                                inert=True)

    def _queue_window(self, groups: list[list], cutoff: float,
                      timeout: float | None) -> None:
        """Stage 2 of :meth:`_process`: the window's committed backlog.

        Replaces each group's ``finish``, ``replies`` and ``comp`` with
        queued values and widens its ``out`` mask by its demoted reads.
        Late reads take no queue slot; their legs keep
        ``finish = arrival``.
        """
        groups = [group for group in groups if group[-1] is None
                  or np.count_nonzero(group[-1]) < group[-1].size]
        if not groups:
            return
        leg_arr = np.concatenate([arrivals.ravel()
                                  for _, _, arrivals, *_ in groups])
        leg_srv = np.concatenate([
            np.broadcast_to(info.targets, arrivals.shape).ravel()
            for info, _, arrivals, *_ in groups])
        # Draws consumed in global arrival order — the order the
        # oracle's heap would deliver the requests.
        draw_order = np.argsort(leg_arr, kind="stable")
        rec = np.lexsort((leg_arr, leg_srv))
        if any(out is not None for *_, out in groups):
            queued = np.concatenate([
                np.ones(arrivals.size, dtype=bool) if out is None
                else np.repeat(~out, arrivals.shape[1])
                for _, _, arrivals, *_, out in groups])
            draw_order = draw_order[queued[draw_order]]
            rec = rec[queued[rec]]
        services = np.empty(leg_arr.size)
        services[draw_order] = self.store.queueing.sample_service_block(
            self.sim, draw_order.size)
        finishes = leg_arr.copy()
        self._run_backlog(leg_srv, leg_arr, services, rec, finishes,
                          commit=False)

        # Demotion: a read whose queued completion crosses the cutoff or
        # the timeout horizon leaves the bulk path with its legs.  Late
        # reads, whose legs finish on arrival, stay out.
        retained = None
        demotions = 0
        start = 0
        for group in groups:
            info, tg, arrivals, *_, late = group
            stop = start + arrivals.size
            comp = (finishes[start:stop].reshape(arrivals.shape)
                    + info.d2).max(axis=1)
            out = comp >= cutoff
            if timeout is not None:
                out |= comp >= tg + timeout
            demoted = np.count_nonzero(out) - (
                0 if late is None else np.count_nonzero(late))
            if demoted:
                demotions += demoted
                if retained is None:
                    retained = np.ones(leg_arr.size, dtype=bool)
                retained[start:stop] = np.repeat(~out, arrivals.shape[1])
                group[-1] = out
            start = stop
        self.queue_demotions += demotions
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("store.batched.queue_demotions").inc(demotions)
        # Commit pass: excluding demoted legs only shrinks waits, so
        # the retained set is final after one re-run.
        if retained is not None:
            rec = rec[retained[rec]]
        self._run_backlog(leg_srv, leg_arr, services, rec, finishes,
                          commit=True)

        start = 0
        for group in groups:
            info, arrivals = group[0], group[2]
            stop = start + arrivals.size
            finish = finishes[start:stop].reshape(arrivals.shape)
            replies = finish + info.d2
            group[3:6] = finish, replies, replies.max(axis=1)
            start = stop

    def _run_backlog(self, leg_srv: np.ndarray, leg_arr: np.ndarray,
                     services: np.ndarray, rec: np.ndarray,
                     finishes: np.ndarray, commit: bool) -> None:
        """Per-server Lindley recursion over the legs selected by ``rec``
        (a view sorted by server, then arrival time).

        Writes each leg's service-completion time into ``finishes``.
        With ``commit``, also advances each server's ``busy_until`` to
        its segment's final completion and books the offered/accepted
        counters — the committed backlog every later per-event
        admission (escalated, demoted or next-window) queues behind.
        """
        if rec.size == 0:
            return
        store = self.store
        srv_sorted = leg_srv[rec]
        splits = np.flatnonzero(np.diff(srv_sorted)) + 1
        starts = np.concatenate(([0], splits))
        ends = np.concatenate((splits, [srv_sorted.size]))
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            sel = rec[lo:hi]
            queue = store.servers[int(srv_sorted[lo])].queue
            s_seg = services[sel]
            a_seg = leg_arr[sel]
            # f_i = max(a_i, f_{i-1}) + s_i in closed form: with running
            # sums S_i and c_i = a_i - S_{i-1}, the start-slack cummax
            # gives f = S + cummax(max(c, busy_until)).
            total = np.cumsum(s_seg)
            slack = a_seg - (total - s_seg)
            f = total + np.maximum.accumulate(
                np.maximum(slack, queue.busy_until))
            finishes[sel] = f
            if commit:
                queue.busy_until = float(f[-1])
                m = hi - lo
                queue.offered += m
                queue.accepted += m
                self.bulk_queue_admissions += m
        if commit:
            registry = obs.get_registry()
            if registry.enabled:
                registry.counter("store.batched.bulk_queue_admissions").inc(
                    rec.size)

    # ------------------------------------------------------------------
    def _group_info(self, client: int, key: str) -> _GroupInfo | None:
        """Routing and leg data for one (client, key), or ``None``.

        ``None`` means the access cannot be proven clean — it escalates
        to the per-event path, which then reproduces forwarding, drops,
        loss draws and quorum errors byte-for-byte.
        """
        if not self._cacheable:
            return self._derive_group_info(client, key)
        stamp = (self.store._state_version, self.store.network.state_epoch)
        if stamp != self._cache_stamp:
            self._info_cache.clear()
            self._route_cache.clear()
            self._cache_stamp = stamp
        cached = self._info_cache.get((client, key), self._MISS)
        if cached is not self._MISS:
            return cached
        info = self._derive_group_info(client, key)
        self._info_cache[(client, key)] = info
        return info

    def _derive_group_info(self, client: int, key: str) -> _GroupInfo | None:
        store = self.store
        try:
            unit = store._unit_of_key(key)
        except KeyError:
            return None
        obj = unit.members.get(key)
        if obj is None:
            return None  # a group key is not itself readable
        route = self._unit_route(client, unit)
        if route is None:
            return None
        targets, d1, d2_base, rtt_back, positions = route
        versions = np.empty(len(targets), dtype=int)
        for j, server in enumerate(targets):
            replicas = store.servers[server].replicas
            if key not in replicas:
                return None
            versions[j] = replicas[key]
        bandwidth = store.network.bandwidth
        if bandwidth is not None:
            # The reply leg's serialization time is the only per-key
            # part of the delays (it scales with the member's payload).
            d2 = d2_base + np.array([
                bandwidth.transfer_ms(rtt, obj.read_size_bytes)
                for rtt in rtt_back])
        else:
            d2 = d2_base
        return _GroupInfo(
            client=client, key=key, targets=targets, d1=d1, d2=d2,
            versions=versions, vmax=int(versions.max()),
            latest=unit.latest[key],
            read_size=obj.read_size_bytes,
            positions=positions, unit=unit)

    def _unit_route(self, client: int, unit) -> tuple | None:
        """The unit-level half of :meth:`_derive_group_info`, cached.

        Returns ``(targets, d1, d2_base, rtt_back, positions)`` — the
        quorum route, per-leg request delays (bandwidth included), reply
        propagation delays *without* the per-key serialization term, the
        reply-leg RTTs that term needs, and candidate positions — or
        ``None`` when any leg cannot be proven clean.  Everything here
        depends only on the placement unit, so member keys of one group
        share a single derivation per (client, unit) and stamp.
        """
        if self._cacheable:
            cached = self._route_cache.get((client, unit.unit_key),
                                           self._MISS)
            if cached is not self._MISS:
                return cached
        route = self._derive_unit_route(client, unit)
        if self._cacheable:
            self._route_cache[(client, unit.unit_key)] = route
        return route

    def _derive_unit_route(self, client: int, unit) -> tuple | None:
        store = self.store
        net = store.network
        try:
            targets = store.route_read(client, unit.unit_key)
        except (QuorumError, KeyError):
            return None
        if not net.is_up(client):
            return None
        d1 = np.empty(len(targets))
        d2 = np.empty(len(targets))
        rtt_back = np.empty(len(targets))
        for j, server in enumerate(targets):
            if (not net.is_up(server)
                    or not net.link_reliable(client, server)
                    or not net.link_reliable(server, client)):
                return None
            delay1 = net.matrix.one_way(client, server)
            if net.bandwidth is not None:
                delay1 += net.bandwidth.transfer_ms(
                    net.matrix.latency(client, server), REQUEST_BYTES)
            d1[j] = delay1
            d2[j] = net.matrix.one_way(server, client)
            rtt_back[j] = net.matrix.latency(server, client)
        return (tuple(targets), d1, d2, rtt_back,
                tuple(store._position_of[s] for s in targets))


class BatchedAccessWorkload:
    """Drop-in batched replacement for ``AccessWorkload``.

    Same constructor signature and RNG stream, so a run driven by this
    class produces the same accesses — and, via the engine, the same
    placement decisions, log and metric totals — as the per-event
    workload, at a fraction of the event count.
    """

    def __init__(self, store: ReplicatedStore, population: ClientPopulation,
                 keys: Sequence[str], rate_per_second: float = 100.0,
                 write_fraction: float = 0.0,
                 pattern: TemporalPattern | None = None,
                 popularity: ZipfObjectPopularity | None = None) -> None:
        self.store = store
        self.population = population
        self.keys = tuple(keys)
        for client in population.clients:
            if client not in store.clients:
                store.add_client(client)
        self.source = WorkloadArrivals(
            store.sim.rng("workload"), population, self.keys,
            rate_per_second=rate_per_second, write_fraction=write_fraction,
            pattern=pattern, popularity=popularity,
            start_time=store.sim.now)
        self.engine = BatchedAccessEngine(store, self.source)

    @property
    def operations_issued(self) -> int:
        return self.engine.operations_issued

    def stop(self) -> None:
        """Stop issuing operations."""
        self.engine.stop()
