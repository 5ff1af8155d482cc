"""Always-on serving layer: async micro-batching + hot-query registry.

REPOSE (ICDE 2021) is evaluated one batch at a time, but its target
deployment is an always-on service absorbing sustained query traffic.
This module supplies that front-end:

* :class:`ReposeService` — a long-lived ``asyncio`` admission queue in
  front of a built :class:`~repro.repose.DistributedTopK`.  Single
  ``top_k`` requests are micro-batched under a latency/size window
  (``max_wait_ms`` / ``max_batch``) into ``top_k_batch`` waves on the
  persistent :class:`~repro.cluster.engine.ExecutionEngine` pools, and
  each request resolves its own future with a per-request
  :class:`~repro.repose.QueryOutcome` sliced out of the batch — so a
  partial batch (under a :class:`~repro.cluster.engine.FaultPolicy`)
  degrades per-request, not per-service.

* :class:`HotQueryRegistry` — stream-level reuse *across* batches.
  Each finished batch persists, per exact complete query, its probe
  fingerprint, the representative query and the final merged top-k
  items.  A later batch seeds a recurring query's threshold ``dk``
  directly from its stored final threshold, and a *near-duplicate*
  query (within ``share_eps`` of a stored representative) from a
  metric triangle bound or a sampled non-metric cross-query bound —
  so hot queries start their search under a near-final ``dk`` instead
  of a cold one.  Entries are epoch-stamped against the driver's
  :class:`~repro.cluster.rdd.ProbeCache` epoch and invalidated on
  ``insert()``/``build()`` (the registry subscribes to epoch rolls),
  with LRU capacity and optional TTL eviction.

Bit-identity is preserved end to end: seeds are *certified upper
bounds* on each query's final k-th distance, applied through the same
strict ``nextafter`` cutoff as every other threshold in the planner,
so ties at ``dk`` survive and every served result matches the same
query run alone through ``engine.top_k`` exactly.

Concurrency model: a single admission coroutine owns the queue.  It
cuts one micro-batch at a time and awaits its execution (inline, or on
a worker thread) before reading further queue items, so ``insert()``
operations — which travel through the same queue — act as barriers:
an index write never overlaps an in-flight batch, and the epoch roll
it triggers purges the registry before the next batch is cut.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..exceptions import ServiceClosedError

__all__ = ["RegistryEntry", "HotQueryRegistry", "ServiceStats",
           "ReposeService"]


@dataclass
class RegistryEntry:
    """One persisted exact query result keyed by probe fingerprint.

    ``items`` is the final merged global top-k — ascending
    ``(distance, trajectory id)`` pairs exactly as returned by the
    driver merge — and ``query`` the trajectory that produced it (kept
    so near-duplicate candidates can measure their distance to this
    representative).  ``epoch`` stamps the index epoch the result was
    computed under; an entry from any other epoch is never served.
    ``stored_at`` is the registry clock reading at store time, used
    for TTL expiry.
    """

    fingerprint: bytes
    query: object
    items: list
    epoch: int
    stored_at: float

    def threshold(self, k: int) -> float:
        """The stored final k-th best distance (requires ``k`` results).

        This is a certified upper bound on the final threshold of any
        *identical* query at the same epoch: the search is
        deterministic, so re-running it reproduces exactly this value.
        """
        return float(self.items[k - 1][0])


class HotQueryRegistry:
    """Cross-batch store of final thresholds for recurring queries.

    Keyed by the same probe fingerprints as the
    :class:`~repro.cluster.rdd.ProbeCache` (query points + shared
    pivot distances), holding :class:`RegistryEntry` values in LRU
    order.  Reads are epoch-checked and TTL-checked; passing the
    driver's probe cache to the constructor additionally subscribes
    the registry to epoch rolls so every ``insert()`` or ``build()``
    purges it eagerly — a batch that *started* before a concurrent
    write stores entries stamped with its start epoch, which the
    post-write registry then refuses to serve (safe
    reads-during-writes without locks).

    The injectable ``clock`` (default ``time.monotonic``) makes TTL
    expiry deterministic under the virtual-clock test harness.
    """

    #: Cap on the cross-epoch pair-distance cache behind
    #: :meth:`neighbors`.  Distances between stored *queries* depend
    #: only on their (content-hashed) fingerprints, so they survive
    #: epoch purges; the cap merely bounds memory on endless streams —
    #: the cache is simply reset when it fills.
    PAIR_CACHE_LIMIT = 65536

    def __init__(self, probe_cache=None, capacity: int = 512,
                 ttl_seconds: float | None = None, clock=time.monotonic):
        self.capacity = max(1, int(capacity))
        self.ttl_seconds = ttl_seconds
        self.epoch = probe_cache.epoch if probe_cache is not None else 0
        self.hits = 0
        self.misses = 0
        self.neighbor_hits = 0
        self.stores = 0
        self.invalidations = 0
        self.evictions = 0
        self._clock = clock
        self._entries: OrderedDict[bytes, RegistryEntry] = OrderedDict()
        self._index = None          # lazily built metric lookup
        self._index_distance = None
        self._indexed: set[bytes] = set()
        self._pair_cache: dict = {}
        if probe_cache is not None:
            probe_cache.subscribe(self._on_epoch)

    def __len__(self) -> int:
        return len(self._entries)

    def _on_epoch(self, epoch: int) -> None:
        """Epoch-roll listener: purge everything, record the new epoch."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._index = None
        self._indexed.clear()
        self.epoch = epoch

    def _valid(self, entry: RegistryEntry) -> bool:
        """Entry is from the current epoch and within its TTL."""
        if entry.epoch != self.epoch:
            return False
        if self.ttl_seconds is not None:
            return self._clock() - entry.stored_at <= self.ttl_seconds
        return True

    def get(self, fingerprint: bytes, k: int) -> RegistryEntry | None:
        """The stored entry for an identical query, or None.

        Serves only entries that are epoch-current, unexpired and deep
        enough to certify a k-th threshold (``len(items) >= k``); a hit
        refreshes LRU recency.  Expired or stale entries are dropped on
        sight.
        """
        entry = self._entries.get(fingerprint)
        if entry is not None and not self._valid(entry):
            del self._entries[fingerprint]
            entry = None
        if entry is None or len(entry.items) < k:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry

    def recent(self, limit: int) -> list[RegistryEntry]:
        """Up to ``limit`` most recently used valid entries.

        The planner scans these as candidate near-duplicate
        representatives; the bound keeps the per-batch scan O(limit),
        not O(capacity).
        """
        out: list[RegistryEntry] = []
        for entry in reversed(self._entries.values()):
            if len(out) >= limit:
                break
            if self._valid(entry):
                out.append(entry)
        return out

    def neighbors(self, query, eps: float, distance, metric: bool = False,
                  budget: int | None = None, query_key: bytes | None = None,
                  ) -> tuple[list[tuple[RegistryEntry, float]], int]:
        """All valid stored entries within ``eps`` of ``query``.

        The batch planner's near-duplicate seeding lookup
        (``query_index`` mode): returns ``(matches, fresh_calls)``
        where each match is ``(entry, distance)`` and ``fresh_calls``
        counts the trajectory-distance evaluations actually performed.
        Under ``metric=True`` the lookup runs against a lazily
        maintained :class:`~repro.cluster.query_index.QueryIndex` over
        every live entry — new entries are drained into it on demand,
        entries evicted since are skipped at report time (same
        fingerprint means same query points, so a replaced entry's
        cached distances stay valid), and an epoch roll resets it with
        the rest of the registry.  Under ``metric=False`` (non-metric
        measures certify no pruning) it is a most-recent-first linear
        scan.  Either way ``budget`` caps *fresh* distance calls per
        lookup, and a cross-epoch pair cache keyed by fingerprints —
        pure content hashes, so epoch-stable — makes recurring
        queries' lookups nearly free; a truncated lookup just returns
        fewer candidates (the seed it feeds is a minimum over
        certified bounds, so any subset is sound).  Entries whose
        stored query has no point array are never candidates,
        mirroring the planner's greedy scan.
        """
        from .query_index import QueryIndex

        if len(self._pair_cache) > self.PAIR_CACHE_LIMIT:
            self._pair_cache = {}
        matches: list[tuple[RegistryEntry, float]] = []
        if not metric:
            fresh = 0
            for entry in reversed(self._entries.values()):
                if budget is not None and fresh >= budget:
                    break
                if not self._valid(entry):
                    continue
                if getattr(entry.query, "points", None) is None:
                    continue
                pair = None
                if query_key is not None:
                    pair = ((query_key, entry.fingerprint)
                            if query_key <= entry.fingerprint
                            else (entry.fingerprint, query_key))
                value = (self._pair_cache.get(pair)
                         if pair is not None else None)
                if value is None:
                    value = float(distance(query, entry.query))
                    fresh += 1
                    if pair is not None:
                        self._pair_cache[pair] = value
                if value <= eps:
                    matches.append((entry, value))
            return matches, fresh
        if (self._index is not None
                and (self._index_distance != distance
                     or len(self._indexed) > 2 * self.capacity)):
            # A different measure, or too many evicted-but-indexed
            # entries accumulated: rebuild lazily below (the pair
            # cache keeps the rebuild nearly free for repeat content).
            self._index = None
            self._indexed.clear()
        if self._index is None:
            self._index = QueryIndex(distance, metric=True,
                                     pair_cache=self._pair_cache)
            self._index_distance = distance
        calls_before = self._index.distance_calls
        for fingerprint, entry in self._entries.items():
            if fingerprint in self._indexed:
                continue
            if getattr(entry.query, "points", None) is None:
                continue
            if self._valid(entry):
                self._index.add(fingerprint, entry.query)
                self._indexed.add(fingerprint)
        for key, value in self._index.range_search(
                query, eps, obj_key=query_key, budget=budget):
            entry = self._entries.get(key)
            if entry is not None and self._valid(entry):
                matches.append((entry, value))
        return matches, self._index.distance_calls - calls_before

    def put(self, fingerprint: bytes, query, items,
            epoch: int | None = None) -> None:
        """Persist one exact final result under ``fingerprint``.

        ``epoch`` is the index epoch the result was computed under
        (the planner passes its batch-*start* epoch); an entry from a
        past epoch is dropped on arrival — it raced with a write and
        could never be served.  An existing valid entry with at least
        as many items is kept (refreshed in recency) rather than
        downgraded.  Storing beyond capacity evicts least-recently
        used entries.
        """
        if epoch is None:
            epoch = self.epoch
        if epoch != self.epoch:
            return
        existing = self._entries.get(fingerprint)
        if (existing is not None and self._valid(existing)
                and len(existing.items) >= len(items)):
            self._entries.move_to_end(fingerprint)
            return
        self._entries[fingerprint] = RegistryEntry(
            fingerprint=fingerprint, query=query, items=list(items),
            epoch=epoch, stored_at=self._clock())
        self._entries.move_to_end(fingerprint)
        self.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def counters(self) -> dict:
        """Snapshot of the registry's effectiveness counters."""
        return {"hits": self.hits, "misses": self.misses,
                "neighbor_hits": self.neighbor_hits,
                "stores": self.stores, "entries": len(self._entries),
                "invalidations": self.invalidations,
                "evictions": self.evictions, "epoch": self.epoch}


@dataclass
class ServiceStats:
    """Aggregate accounting for one :class:`ReposeService` lifetime.

    ``latencies`` holds per-request seconds from admission to future
    resolution on the service's loop clock (virtual seconds under the
    deterministic harness); ``batch_sizes`` one entry per cut
    micro-batch.  ``drained`` counts requests answered after shutdown
    was requested (``stop(drain=True)``), ``rejected`` submissions
    refused because the service was already closed.
    """

    requests: int = 0
    batches: int = 0
    inserts: int = 0
    rejected: int = 0
    drained: int = 0
    batch_sizes: list = field(default_factory=list)
    latencies: list = field(default_factory=list)


class _Request:
    """One admitted top-k request awaiting its micro-batch."""

    __slots__ = ("query", "k", "future", "enqueued")

    def __init__(self, query, k, future, enqueued):
        self.query = query
        self.k = k
        self.future = future
        self.enqueued = enqueued


class _InsertOp:
    """A queued index write; acts as a batch barrier."""

    __slots__ = ("trajectory", "future")

    def __init__(self, trajectory, future):
        self.trajectory = trajectory
        self.future = future


class _Shutdown:
    """Queue sentinel carrying the stop() drain decision."""

    __slots__ = ("drain",)

    def __init__(self, drain):
        self.drain = drain


class ReposeService:
    """Async micro-batching front-end over a built distributed engine.

    Usage::

        service = engine.serve(max_wait_ms=2.0, max_batch=16)
        outcome = await service.top_k(query, k=10)     # one request
        future = await service.submit(query, k=10)      # fire-and-await
        await service.insert(trajectory)                # barrier write
        await service.stop()                            # drain + stop

    The first admitted request opens a batching window; further
    requests join until ``max_batch`` is reached or ``max_wait_ms``
    elapses on the loop clock, then the batch is cut and executed as
    one ``top_k_batch`` (grouped by ``k``).  While a batch executes,
    new arrivals accumulate — under load the service batches
    adaptively up to ``max_batch``.  Every batch runs with this
    service's :attr:`registry`, so recurring and near-duplicate
    queries across the stream start under near-final thresholds.

    ``dispatch`` selects how batches execute: ``"thread"`` (default)
    runs each ``top_k_batch`` on a worker thread so the event loop
    stays responsive; ``"inline"`` runs it on the loop thread — fully
    deterministic, used by the virtual-clock tests.  Only the single
    admission coroutine ever touches the engine, so the two modes are
    behaviorally identical.

    ``insert()`` requests travel through the same admission queue and
    are applied strictly between batches (cutting any open window
    early), so index writes never overlap an in-flight batch and the
    epoch roll purges the registry before the next batch is cut.
    """

    def __init__(self, engine, max_wait_ms: float = 2.0,
                 max_batch: int = 16,
                 plan_options: dict | None = None,
                 registry: HotQueryRegistry | None = None,
                 registry_capacity: int = 512,
                 registry_ttl: float | None = None,
                 dispatch: str = "thread"):
        if dispatch not in ("thread", "inline"):
            raise ValueError(f"unknown dispatch mode: {dispatch!r}")
        self.engine = engine
        self.max_wait = max(0.0, float(max_wait_ms)) / 1000.0
        self.max_batch = max(1, int(max_batch))
        self.plan_options = plan_options
        self.dispatch = dispatch
        if registry is None:
            registry = HotQueryRegistry(
                probe_cache=engine.context.probe_cache,
                capacity=registry_capacity, ttl_seconds=registry_ttl)
        self.registry = registry
        self.stats = ServiceStats()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._closed = False
        self._draining = False
        self._abort = False

    async def __aenter__(self) -> "ReposeService":
        """Start the admission loop on entry (async context manager)."""
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Drain and stop the service on exit."""
        await self.stop(drain=exc_type is None)

    @property
    def running(self) -> bool:
        """Whether the admission coroutine is currently active."""
        return self._worker is not None and not self._worker.done()

    async def start(self) -> None:
        """Bind to the running event loop and start the admission
        coroutine; idempotent while running."""
        if self._closed:
            raise ServiceClosedError("service is stopped")
        if self.running:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._worker = self._loop.create_task(self._admission_loop())

    async def submit(self, query, k: int) -> asyncio.Future:
        """Admit one top-k request; returns a future resolving to its
        :class:`~repro.repose.QueryOutcome`.

        The future raises :class:`~repro.exceptions.ServiceClosedError`
        if the service stops without draining, or whatever exception
        its batch execution raised (other requests are unaffected; the
        service stays alive).
        """
        if self._closed:
            self.stats.rejected += 1
            raise ServiceClosedError("service is stopped")
        await self.start()
        future = self._loop.create_future()
        self._queue.put_nowait(
            _Request(query, k, future, self._loop.time()))
        self.stats.requests += 1
        return future

    async def top_k(self, query, k: int):
        """Admit one request and await its outcome (submit + await)."""
        return await (await self.submit(query, k))

    async def insert(self, trajectory) -> None:
        """Queue an index write, applied strictly between batches.

        Awaits until the write has been applied.  The write bumps the
        driver's index epoch, purging the probe cache and this
        service's registry, so no later request can be served
        pre-write state.
        """
        if self._closed:
            self.stats.rejected += 1
            raise ServiceClosedError("service is stopped")
        await self.start()
        future = self._loop.create_future()
        self._queue.put_nowait(_InsertOp(trajectory, future))
        await future

    async def stop(self, drain: bool = True) -> None:
        """Stop the service; with ``drain`` (default) every already
        admitted request and write is served first, otherwise every
        still-queued item fails with ServiceClosedError (a batch
        already executing completes and resolves its own requests).
        Idempotent."""
        self._closed = True
        if self._worker is None:
            return
        if drain:
            self._draining = True
        else:
            self._abort = True
        self._queue.put_nowait(_Shutdown(drain))
        await self._worker
        self._worker = None

    # -- admission coroutine internals --------------------------------------

    async def _admission_loop(self) -> None:
        """Single owner of the queue: cut batches, apply barriers."""
        queue = self._queue
        while True:
            item = await queue.get()
            if self._abort:
                future = getattr(item, "future", None)
                if future is not None and not future.done():
                    future.set_exception(ServiceClosedError(
                        "service stopped before request ran"))
                self._fail_pending()
                return
            if isinstance(item, _Shutdown):
                if not item.drain or queue.empty():
                    self._fail_pending()
                    return
                self._draining = True
                queue.put_nowait(item)  # re-queue behind remaining work
                continue
            if isinstance(item, _InsertOp):
                self._apply_insert(item)
                continue
            batch, barrier = await self._fill_batch(item)
            await self._run_batch(batch)
            if isinstance(barrier, _InsertOp):
                self._apply_insert(barrier)
            elif isinstance(barrier, _Shutdown):
                queue.put_nowait(barrier)

    async def _fill_batch(self, first: _Request):
        """Grow a batch from ``first`` until the window closes.

        The window closes at ``max_batch`` requests, after ``max_wait``
        seconds on the loop clock, or immediately when a barrier op
        (insert/shutdown) arrives — the barrier is returned to the
        caller to be handled after the batch runs.
        """
        batch = [first]
        barrier = None
        deadline = self._loop.time() + self.max_wait
        while len(batch) < self.max_batch:
            remaining = deadline - self._loop.time()
            if remaining <= 0 and not self._draining:
                break
            try:
                if self._draining:
                    # Shutdown is queued behind all remaining work, so
                    # every get() below returns instantly; batch at
                    # full size to finish the drain quickly.
                    item = self._queue.get_nowait()
                else:
                    item = await asyncio.wait_for(
                        self._queue.get(), remaining)
            except (asyncio.QueueEmpty, TimeoutError, asyncio.TimeoutError):
                break
            if isinstance(item, (_InsertOp, _Shutdown)):
                barrier = item
                break
            batch.append(item)
        return batch, barrier

    def _apply_insert(self, op: _InsertOp) -> None:
        """Apply one queued index write on the loop thread.

        Safe by construction: the admission loop awaits every batch
        before processing the next queue item, so no batch is in
        flight here.  ``DistributedTopK.insert`` bumps the index
        epoch, which purges the probe cache and (via subscription)
        this service's registry.
        """
        try:
            self.engine.insert(op.trajectory)
            self.stats.inserts += 1
            if not op.future.done():
                op.future.set_result(None)
        except BaseException as exc:  # surface, don't kill the loop
            if not op.future.done():
                op.future.set_exception(exc)

    async def _run_batch(self, batch: list) -> None:
        """Execute one cut micro-batch and resolve its futures.

        Requests are grouped by ``k`` (the batch planner plans one k at
        a time); each group runs as one ``top_k_batch`` carrying this
        service's registry.  A group's execution error is set on that
        group's futures only — the service keeps serving.
        """
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(batch))
        if self._draining:
            self.stats.drained += len(batch)
        groups: dict[int, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.k, []).append(request)
        for k, requests in groups.items():
            queries = [request.query for request in requests]
            call = functools.partial(
                self.engine.top_k_batch, queries, k,
                plan_options=self.plan_options, registry=self.registry)
            try:
                if self.dispatch == "thread":
                    outcome = await self._loop.run_in_executor(None, call)
                else:
                    outcome = call()
            except BaseException as exc:
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(exc)
                continue
            now = self._loop.time()
            for index, request in enumerate(requests):
                self.stats.latencies.append(now - request.enqueued)
                if not request.future.done():
                    request.future.set_result(
                        self._slice_outcome(outcome, index))

    @staticmethod
    def _slice_outcome(batch_outcome, index: int):
        """Project one query's :class:`~repro.repose.QueryOutcome` out
        of a :class:`~repro.repose.BatchOutcome` (per-request
        degradation: a partial batch fails only the affected
        requests' exactness/completeness, not the whole service)."""
        from ..repose import QueryOutcome
        failed = list(batch_outcome.failed_partitions[index])
        return QueryOutcome(
            result=batch_outcome.results[index],
            wall_seconds=batch_outcome.wall_seconds,
            simulated_seconds=batch_outcome.simulated_seconds,
            plan=batch_outcome.plan.per_query[index],
            schedule=batch_outcome.schedule, complete=not failed,
            exact=batch_outcome.exact[index], failed_partitions=failed)

    def _fail_pending(self) -> None:
        """Fail every still-queued request/write (non-drain stop)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            future = getattr(item, "future", None)
            if future is not None and not future.done():
                future.set_exception(
                    ServiceClosedError("service stopped before request ran"))
