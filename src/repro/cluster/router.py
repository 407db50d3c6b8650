"""Workload-aware routing across N divergently-adapted engine replicas.

The paper adapts one column inside one engine; the :class:`Router` scales
that out following Hang 2024's recipe (SNIPPETS.md ``Tuner``): cluster the
recent workload by query-range similarity, let each replica's adaptive
strategies specialize on its partition, iterate the partition→tune→re-cost
loop until total modeled cost stops dropping (:meth:`Router.retune`,
Algorithm 1's shape), and route from the resulting table with a hot-query
threshold so no single replica melts under a dominant cluster.

Where Hang shells out to Postgres+hypopg for *estimated* what-if costs, this
engine's substrate is real: the retune loop's what-if model reads the actual
adaptive layouts — overlapping-segment bytes for
:class:`~repro.core.segmentation.SegmentedColumn`, the interval-index cover
bytes for :class:`~repro.core.replication.ReplicatedColumn` — the same
quantities the paper's Fig 5–16 accounting tracks.  That cluster×replica
matrix is the fleet's one cost model: routing is a function of the seed, the
routed stream and health transitions, and no wall-clock time feeds it.

Fault tolerance: the router is also the fleet's failure detector.  Worker
exceptions surfacing from :meth:`execute_wave_on` and per-wave deadline
timeouts reported by the admission layer drive each replica's health state
machine (healthy → suspect → quarantined → rebuilding → healthy, see
:class:`~repro.cluster.replica.ReplicaHealth`).  :meth:`route` only considers
routable replicas: a cluster whose home is quarantined goes to the routable
replica with the fewest modeled bytes for it, and goes home again as soon as
:meth:`rebuild_replica` has restored the replica from a healthy sibling via
:func:`clone_database` on a fresh worker.  The last routable replica is never
quarantined — graceful degradation bottoms out at N=1, not N=0.

Threading model: :meth:`route` runs on the caller (event-loop) thread and is
a few microseconds; :meth:`execute_wave_on` runs **on the target replica's
worker thread** (the admission controller submits it to
``Router.executor(i)``), so each replica preserves the single-threaded
piggy-backed-adaptation invariant.  Shared routing state is guarded by one
lock with tiny hold times; rebuilds serialize on their own lock so they
never stall routing.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.api.exceptions import TransientError
from repro.cluster.replica import EngineReplica, ReplicaHealth, clone_database
from repro.cluster.stats import merge_cache_stats
from repro.cluster.workload_clustering import WorkloadClustering, cluster_workload
from repro.core.ranges import ValueRange
from repro.engine.database import Database
from repro.engine.plan_cache import PreparedPlan
from repro.util.half_open import half_open

__all__ = ["Router", "what_if_bytes"]

#: How many recent query bounds feed :meth:`Router.retune`.
HISTORY = 4096
#: Window (in routed queries) of the per-cluster traffic-share EWMA.
SHARE_WINDOW = 128
#: Hard per-replica join deadline of :meth:`Router.close` (``timeout=`` overrides).
JOIN_TIMEOUT_S = 5.0


def what_if_bytes(adaptive: Any, low: float, high: float) -> float:
    """Modeled bytes this adaptive column would read for ``[low, high)``.

    The footprint of the column's interval-index cover (a strategy without an
    index reads its whole column).  Reads only layout metadata — no data is
    touched and no adaptation runs — so it is safe as a cost probe (it still
    must run on the owning replica's thread, since adaptation may be
    rewriting the layout concurrently).
    """
    domain = adaptive.domain
    query = ValueRange(
        min(max(low, domain.low), domain.high),
        min(max(high, domain.low), domain.high),
    )
    if query.is_empty:
        return 0.0
    if adaptive.index is None:
        return float(adaptive.total_bytes)
    return float(adaptive.index.footprint(query))


class Router:
    """N database replicas behind one self-retuning front.

    The router quacks like a :class:`Database` for the server's admin and
    execution surface — DDL and data loads fan out to every routable replica,
    reads are routed — so :class:`~repro.server.ReproServer` keeps a single
    code path whether it fronts one engine or a fleet.

    Parameters
    ----------
    database:
        The seed engine; it becomes replica 0 as-is (no copy) and is cloned
        ``n_replicas - 1`` times (data copied, adaptive strategies re-enabled
        fresh so each clone diverges on its own traffic).
    n_replicas:
        Fleet size.
    n_clusters:
        Workload clusters for :meth:`retune`; defaults to ``n_replicas``.
    hot_query_threshold:
        A cluster whose share of recent routed traffic exceeds this fraction
        is *hot*: its queries round-robin across all replicas instead of
        sticking to its home replica.
    quarantine_after:
        Consecutive wave failures that escalate a suspect replica to
        quarantined (deadline timeouts quarantine immediately — the worker
        is presumed wedged).
    injector:
        Optional :class:`~repro.fault.FaultInjector`; when armed, every wave
        fires the ``wave.execute`` site with ``replica=<index>`` context on
        the target replica's worker thread.
    seed:
        Clustering determinism.
    """

    def __init__(
        self,
        database: Database,
        n_replicas: int = 2,
        *,
        n_clusters: int | None = None,
        hot_query_threshold: float = 0.5,
        quarantine_after: int = 2,
        injector: Any | None = None,
        seed: int | None = 0,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if not 0.0 < hot_query_threshold <= 1.0:
            raise ValueError("hot_query_threshold must be in (0, 1]")
        if quarantine_after < 1:
            raise ValueError(f"quarantine_after must be >= 1, got {quarantine_after}")
        self.hot_query_threshold = float(hot_query_threshold)
        self.n_clusters = int(n_clusters) if n_clusters else int(n_replicas)
        self.quarantine_after = int(quarantine_after)
        self.injector = injector
        self.seed = seed
        self.replicas: list[EngineReplica] = [EngineReplica(0, database)]
        for index in range(1, n_replicas):
            self.replicas.append(EngineReplica(index, clone_database(database)))

        self._lock = threading.Lock()
        self._rebuild_lock = threading.Lock()
        self._clustering: WorkloadClustering | None = None
        self._preferred: dict[int, int] = {}  # cluster -> home replica
        self._modeled: dict[int, list[float]] = {}  # replica -> bytes per cluster
        self._shares: list[float] = []  # recent traffic share per cluster
        self._history: deque[tuple[float, float]] = deque(maxlen=HISTORY)
        self._rr = itertools.count()
        self._routed = 0
        self._hot_routes = 0
        self._unclustered_routes = 0
        self._retunes = 0
        self._last_retune: dict[str, Any] | None = None
        self._health = {
            "wave_failures": 0,
            "timeouts": 0,
            "quarantines": 0,
            "quarantine_vetoes": 0,
            "rebuilds": 0,
            "rebuild_failures": 0,
        }
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def database(self) -> Database:
        """Replica 0's engine (the seed database)."""
        return self.replicas[0].database

    @property
    def plan_cache(self):
        """The lead replica's plan cache — the fleet's canonical generation counter.

        DDL fans out to every routable replica, so generations advance in
        lockstep; per-replica plans are resolved lazily by SQL text at wave
        time.
        """
        return self._lead_replica().database.plan_cache

    def executor(self, index: int):
        """The single-thread worker owning replica ``index``."""
        return self.replicas[index].executor

    def close(self, timeout: float = JOIN_TIMEOUT_S) -> bool:
        """Shut down every replica worker (idempotent, hard-timeout joins).

        Returns ``True`` when every worker joined within its deadline; a
        wedged worker — stuck in an injected hang or a runaway kernel — is
        abandoned (daemon thread) instead of hanging interpreter shutdown,
        and the method still returns.  Every replica that joined releases its
        engine's ``query_history`` (:meth:`EngineReplica.close`) — replica 0's
        engine is the seed database, so read its history before closing.
        """
        # A rebuild in flight (e.g. on an admission layer's pool thread) would
        # start a fresh worker after this close; let it finish first, within
        # the same hard deadline.
        locked = self._rebuild_lock.acquire(timeout=timeout)
        try:
            if self._closed:
                return not any(replica.wedged for replica in self.replicas)
            self._closed = True
        finally:
            if locked:
                self._rebuild_lock.release()
        clean = True
        for replica in self.replicas:
            clean = replica.close(timeout=timeout) and clean
        return clean

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _routable(self) -> list[EngineReplica]:
        """The routable replicas (``TransientError`` when the fleet has none)."""
        targets = [replica for replica in self.replicas if replica.health.routable]
        if not targets:
            raise TransientError("no routable replicas (entire fleet is quarantined)")
        return targets

    def _lead_replica(self) -> EngineReplica:
        """The first routable replica (the fleet's plan-cache authority)."""
        return self._routable()[0]

    def _routable_indices_locked(self) -> list[int]:
        return [replica.index for replica in self.replicas if replica.health.routable]

    def healthy_indices(self) -> list[int]:
        """Indices the router may currently send traffic to."""
        with self._lock:
            return self._routable_indices_locked()

    # -- bounds extraction ----------------------------------------------------

    @staticmethod
    def _bounds_of(
        prepared: PreparedPlan, values: tuple[float, ...]
    ) -> tuple[float, float] | None:
        """Half-open ``[low, high)`` of a bound range select, else ``None``.

        The statement was classified when it was prepared, so the per-query
        work is one template substitution — no parsing, no cache.  Pending
        deltas do not matter here: a range select is the same workload point
        whichever path the engine then answers it on.
        """
        template = prepared.template
        if template is None:
            return None
        try:
            return half_open(*template.bind(values))
        except (TypeError, ValueError, IndexError):
            return None

    # -- routing (event-loop thread, hot path) --------------------------------

    def route(self, prepared: PreparedPlan, values: tuple[float, ...]) -> int:
        """Pick the replica for one bound statement.

        A query goes to its cluster's home in the last :meth:`retune`'s
        table.  A cluster above the hot threshold, and anything before the
        first retune or without range bounds, spreads round-robin.  Only
        routable replicas (healthy or suspect) are considered: while a home
        is out of rotation its clusters go to the routable replica with the
        fewest modeled bytes for them (lower index on ties), and they go home
        again once :meth:`rebuild_replica` re-admits it.
        """
        bounds = self._bounds_of(prepared, values)
        with self._lock:
            eligible = self._routable_indices_locked()
            if not eligible:
                raise TransientError(
                    "no routable replicas (entire fleet is quarantined)"
                )
            self._routed += 1
            clustering = self._clustering
            if bounds is not None:
                self._history.append(bounds)
            if bounds is None or clustering is None:
                self._unclustered_routes += 1
                return eligible[next(self._rr) % len(eligible)]
            cluster = clustering.assign_one(*bounds)
            self._touch_share(cluster)
            if self._shares[cluster] > self.hot_query_threshold:
                self._hot_routes += 1
                return eligible[next(self._rr) % len(eligible)]
            home = self._preferred[cluster]
            if home in eligible:
                return home
            modeled = self._modeled
            return min(
                eligible,
                key=lambda i: (modeled[i][cluster] if i in modeled else math.inf, i),
            )

    def _touch_share(self, cluster: int) -> None:
        """EWMA traffic share per cluster (lock held)."""
        beta = 1.0 / SHARE_WINDOW
        shares = self._shares
        if len(shares) <= cluster:
            shares.extend([0.0] * (cluster + 1 - len(shares)))
        for index in range(len(shares)):
            shares[index] *= 1.0 - beta
        shares[cluster] += beta

    # -- failure detection & failover ------------------------------------------

    def record_wave_success(self, index: int) -> None:
        """A wave completed on replica ``index``: clear suspicion.

        Quarantined and rebuilding replicas stay put — a *stale* wave
        finishing late on an abandoned worker must not sneak a replica back
        into rotation around the rebuild.
        """
        replica = self.replicas[index]
        with self._lock:
            replica.consecutive_failures = 0
            if replica.health is ReplicaHealth.SUSPECT:
                replica.health = ReplicaHealth.HEALTHY

    def record_wave_failure(self, index: int, exc: BaseException) -> ReplicaHealth:
        """A wave died on replica ``index``: healthy → suspect → quarantined."""
        replica = self.replicas[index]
        with self._lock:
            self._health["wave_failures"] += 1
            replica.failures += 1
            replica.consecutive_failures += 1
            replica.last_error = f"{type(exc).__name__}: {exc}"
            if replica.health is ReplicaHealth.HEALTHY:
                replica.health = ReplicaHealth.SUSPECT
            if (
                replica.health is ReplicaHealth.SUSPECT
                and replica.consecutive_failures >= self.quarantine_after
            ):
                self._quarantine_locked(index)
            return replica.health

    def record_wave_timeout(self, index: int) -> ReplicaHealth:
        """A wave blew its deadline on replica ``index``: quarantine immediately.

        A timeout means the worker is presumed wedged — there is no point in
        ``quarantine_after`` more chances, every one of them would queue
        behind the wedge.
        """
        replica = self.replicas[index]
        with self._lock:
            self._health["timeouts"] += 1
            replica.failures += 1
            replica.consecutive_failures += 1
            replica.last_error = "wave deadline expired (worker presumed wedged)"
            if replica.health.routable:
                self._quarantine_locked(index)
            return replica.health

    def quarantine_replica(self, index: int) -> bool:
        """Take replica ``index`` out of rotation; :meth:`route` fails over.

        Public for operational tooling, benchmarks (degraded-mode throughput)
        and tests; the failure detector calls the same internal transition.
        Refuses — returning ``False`` — when this is the last routable
        replica: graceful degradation bottoms out at one replica.
        """
        with self._lock:
            return self._quarantine_locked(index)

    def _quarantine_locked(self, index: int) -> bool:
        """QUARANTINE (lock held).  False when vetoed (last routable replica)."""
        replica = self.replicas[index]
        if not replica.health.routable:
            return replica.health is ReplicaHealth.QUARANTINED
        if self._routable_indices_locked() == [index]:
            self._health["quarantine_vetoes"] += 1
            return False
        replica.health = ReplicaHealth.QUARANTINED
        self._health["quarantines"] += 1
        return True

    # -- rebuild ----------------------------------------------------------------

    def rebuild_replica(self, index: int, *, donor: int | None = None) -> dict[str, Any]:
        """Restore a quarantined replica from a healthy sibling and re-admit it.

        The donor's engine is cloned **on the donor's own worker thread**
        (:func:`clone_database` serialized with its waves, so the snapshot is
        consistent), then swapped in on a fresh worker — the quarantined
        replica's old worker may be wedged and is abandoned.  The rebuilt
        replica starts from the paper's initial one-segment state (plus the
        donor's data) and re-diverges on its own traffic: the routing table
        still names it as home for its clusters, so they come back to it on
        the next :meth:`route`, no retune needed.

        Rebuilds serialize on their own lock.  Returns a report dict;
        ``{"rebuilt": False, "reason": ...}`` when the replica is not
        quarantined or no routable donor exists (the replica then *stays*
        quarantined for a later attempt).
        """
        with self._rebuild_lock:
            replica = self.replicas[index]
            with self._lock:
                if self._closed:
                    return {"rebuilt": False, "reason": "router is closed"}
                if replica.health is not ReplicaHealth.QUARANTINED:
                    return {
                        "rebuilt": False,
                        "reason": f"replica {index} is {replica.health.value}, "
                                  "not quarantined",
                    }
                if donor is None:
                    # A healthy donor before a merely suspect one (the
                    # quarantined replica itself is in neither list).
                    routable = self._routable_indices_locked()
                    if not routable:
                        return {"rebuilt": False, "reason": "no routable donor"}
                    healthy = [
                        i for i in routable if self.replicas[i].health is ReplicaHealth.HEALTHY
                    ]
                    donor = (healthy or routable)[0]
                replica.health = ReplicaHealth.REBUILDING
            try:
                clone = self.replicas[donor].run(
                    clone_database, self.replicas[donor].database
                )
            except BaseException as exc:  # noqa: BLE001 - stay quarantined, retryable
                with self._lock:
                    replica.health = ReplicaHealth.QUARANTINED
                    self._health["rebuild_failures"] += 1
                return {
                    "rebuilt": False,
                    "reason": f"clone from replica {donor} failed: {exc}",
                }
            replica.replace_database(clone)
            with self._lock:
                replica.health = ReplicaHealth.HEALTHY
                self._health["rebuilds"] += 1
            return {"rebuilt": True, "replica": index, "donor": donor}

    # -- execution (replica worker threads) -----------------------------------

    def execute_wave_on(
        self,
        index: int,
        payload: Sequence[tuple[PreparedPlan, tuple[float, ...]]],
    ) -> list[Any]:
        """Run one admission wave on replica ``index`` (on its worker thread).

        Prepared plans were compiled against replica 0's catalog; they are
        re-resolved here by SQL text — a warm plan-cache dict hit per
        distinct statement — so every replica executes its *own* compiled
        plan against its *own* diverged layout.

        Per-member errors are **isolated** (``execute_wave(...,
        isolate=True)``): a poison member comes back as an exception instance
        in its slot while the rest of the wave completes.  Failures of the
        wave as a whole — an injected crash, a worker exception, anything
        thrown before member execution — are recorded with the failure
        detector and re-raised as :class:`TransientError` so the admission
        layer retries the wave on a failover replica.
        """
        replica = self.replicas[index]
        database = replica.database
        try:
            if self.injector is not None:
                self.injector.fire("wave.execute", replica=index)
            started = time.perf_counter()
            local = [
                (database.prepare_statement(prepared.sql), values)
                for prepared, values in payload
            ]
            results = database.execute_wave(local, isolate=True)
        except TransientError:
            self.record_wave_failure(index, TransientError("replica worker failed"))
            raise
        except Exception as exc:
            self.record_wave_failure(index, exc)
            raise TransientError(f"replica {index} failed mid-wave: {exc}") from exc
        elapsed = time.perf_counter() - started
        replica.queries_served += sum(
            1 for result in results if not isinstance(result, BaseException)
        )
        replica.waves_served += 1
        replica.busy_seconds += elapsed
        self.record_wave_success(index)
        return results

    def execute_prepared(self, prepared: PreparedPlan, values: tuple[float, ...]):
        """Route one bound statement and run it on its replica's thread."""
        index = self.route(prepared, values)
        result = self.replicas[index].run(
            self.execute_wave_on, index, [(prepared, tuple(values))]
        )[0]
        if isinstance(result, BaseException):
            raise result
        return result

    # -- retune (Hang 2024 Algorithm 1 shape) ---------------------------------

    def retune(
        self,
        *,
        n_clusters: int | None = None,
        max_iterations: int = 6,
        sample_per_cluster: int = 48,
    ) -> dict[str, Any]:
        """Re-partition the workload and re-specialize the fleet.

        1. cluster the recent query history by range similarity;
        2. seed a balanced cluster→replica assignment;
        3. loop: *tune* — replay each cluster's sample on its assigned
           replica (adaptation specializes the layout) — then *re-cost* the
           what-if matrix over the diverged layouts and re-assign every
           cluster best-fit; stop when total modeled cost stops dropping.

        Only routable replicas participate: a quarantined replica's wedged
        worker must not stall the tune loop.  Returns a report with the
        modeled cost trajectory; the routing table and the what-if matrix it
        won on (:meth:`route`'s failover order) are swapped atomically at the
        end.  Nothing schedules this call: it is an operator (or
        benchmark) action, refused — ``{"retuned": False, "reason": ...}`` —
        only when there is nothing to cluster or nobody to assign to.
        """
        with self._lock:
            history = list(self._history)
            active = [
                self.replicas[index] for index in self._routable_indices_locked()
            ]
        if not active:
            return {"retuned": False, "reason": "no routable replicas"}
        minimum = max(len(active), 2)
        if len(history) < minimum:
            return {
                "retuned": False,
                "reason": f"need >= {minimum} routed range queries, have {len(history)}",
            }
        lows = np.asarray([low for low, _ in history], dtype=np.float64)
        highs = np.asarray([high for _, high in history], dtype=np.float64)
        domain = self._fleet_domain(lows, highs)
        clustering = cluster_workload(
            lows,
            highs,
            n_clusters or self.n_clusters,
            domain_low=domain[0],
            domain_high=domain[1],
            seed=self.seed,
        )
        labels = clustering.labels
        samples: list[list[tuple[float, float]]] = []
        for cluster in range(clustering.n_clusters):
            member_indices = np.flatnonzero(labels == cluster)[:sample_per_cluster]
            samples.append([history[i] for i in member_indices])
        sizes = clustering.sizes()

        # Balanced seed: biggest clusters first, dealt round-robin over the
        # routable fleet.
        order = sorted(range(clustering.n_clusters), key=lambda c: -sizes[c])
        assignment = {
            cluster: active[position % len(active)].index
            for position, cluster in enumerate(order)
        }

        def cost_matrix() -> dict[int, list[float]]:
            futures = [
                replica.submit(self._modeled_costs, replica, samples)
                for replica in active
            ]
            return {
                replica.index: future.result()
                for replica, future in zip(active, futures)
            }

        matrix = cost_matrix()
        trajectory = [self._total_cost(matrix, assignment, sizes)]
        best_total = trajectory[0]
        best_assignment, best_matrix = dict(assignment), matrix
        for _ in range(max_iterations):
            futures = []
            for replica in active:
                bounds = [
                    pair
                    for cluster, target in assignment.items()
                    if target == replica.index
                    for pair in samples[cluster]
                ]
                if bounds:
                    futures.append(replica.submit(self._replay, replica, bounds))
            for future in futures:
                future.result()
            matrix = cost_matrix()
            assignment = {
                cluster: min(
                    (matrix[replica.index][cluster], replica.index)
                    for replica in active
                )[1]
                for cluster in range(clustering.n_clusters)
            }
            total = self._total_cost(matrix, assignment, sizes)
            trajectory.append(total)
            if total < best_total * (1.0 - 1e-3):
                best_total = total
                best_assignment, best_matrix = dict(assignment), matrix
            else:
                break  # Algorithm 1: stop when cost stops dropping

        report = {
            "retuned": True,
            "n_clusters": clustering.n_clusters,
            "history": len(history),
            "replicas": [replica.index for replica in active],
            "initial_cost_bytes": trajectory[0],
            "final_cost_bytes": best_total,
            "improved": best_total < trajectory[0],
            "cost_trajectory_bytes": trajectory,
            "assignment": {int(c): int(r) for c, r in best_assignment.items()},
            "clustering": clustering.describe(),
        }
        with self._lock:
            self._clustering = clustering
            self._preferred = dict(best_assignment)
            self._modeled = best_matrix
            total_trained = float(sizes.sum()) or 1.0
            self._shares = [float(s) / total_trained for s in sizes]
            self._retunes += 1
            self._last_retune = report
        return report

    def _fleet_domain(self, lows: np.ndarray, highs: np.ndarray) -> tuple[float, float]:
        """Feature-normalization domain: the managed columns', else the data's."""
        for handle in self.replicas[0].database.bpm.handles():
            domain = getattr(handle.adaptive, "domain", None)
            if domain is not None:
                return float(domain.low), float(domain.high)
        finite_lows = lows[np.isfinite(lows)]
        finite_highs = highs[np.isfinite(highs)]
        low = float(finite_lows.min()) if finite_lows.size else 0.0
        high = float(finite_highs.max()) if finite_highs.size else 1.0
        return low, max(high, low + 1e-9)

    @staticmethod
    def _modeled_costs(
        replica: EngineReplica, samples: list[list[tuple[float, float]]]
    ) -> list[float]:
        """Mean what-if bytes per cluster on this replica (replica thread)."""
        handles = list(replica.database.bpm.handles())
        costs: list[float] = []
        for sample in samples:
            if not sample or not handles:
                costs.append(0.0)
                continue
            total = 0.0
            for low, high in sample:
                for handle in handles:
                    total += what_if_bytes(handle.adaptive, low, high)
            costs.append(total / len(sample))
        return costs

    @staticmethod
    def _replay(replica: EngineReplica, bounds: list[tuple[float, float]]) -> None:
        """Replay sampled queries so adaptation specializes (replica thread)."""
        for handle in replica.database.bpm.handles():
            adaptive = handle.adaptive
            domain = adaptive.domain
            for low, high in bounds:
                low = min(max(low, domain.low), domain.high)
                high = min(max(high, low), domain.high)
                if high > low:
                    adaptive.select(low, high)

    @staticmethod
    def _total_cost(
        matrix: dict[int, list[float]], assignment: dict[int, int], sizes: np.ndarray
    ) -> float:
        """Traffic-weighted modeled cost of an assignment."""
        return float(
            sum(
                sizes[cluster] * matrix[replica][cluster]
                for cluster, replica in assignment.items()
            )
        )

    # -- database-compatible surface (fan-out & delegation) --------------------

    def _fan_out(
        self, op: str, *args: Any, copy_arrays: bool = False, **options: Any
    ) -> list[Any]:
        """Run ``database.<op>(*args, **options)`` on every routable replica at once.

        Quarantined replicas are skipped — their workers may be wedged, and
        their state is replaced wholesale by the next rebuild (the donor has
        the DDL applied, so the clone carries it over).
        """
        futures = []
        for replica in self._routable():
            replica_args = args
            if copy_arrays and replica.index > 0 and args:
                # Replicas must not share mutable base arrays.
                replica_args = tuple(
                    {
                        key: np.array(value, copy=True)
                        for key, value in argument.items()
                    }
                    if isinstance(argument, dict)
                    else argument
                    for argument in args
                )
            futures.append(
                replica.submit(
                    partial(getattr(replica.database, op), *replica_args, **options)
                )
            )
        return [future.result() for future in futures]

    def create_table(self, name: str, columns: dict[str, Any]) -> None:
        self._fan_out("create_table", name, columns)

    def drop_table(self, name: str) -> None:
        self._fan_out("drop_table", name)

    def bulk_load(self, table: str, data: dict[str, Any]) -> None:
        self._fan_out("bulk_load", table, data, copy_arrays=True)

    def insert(self, table: str, data: dict[str, Any]) -> None:
        self._fan_out("insert", table, data, copy_arrays=True)

    def delete(self, table: str, oids: Any) -> None:
        self._fan_out("delete", table, oids)

    def enable_adaptive(self, table: str, column: str, **options: Any) -> Any:
        return self._fan_out("enable_adaptive", table, column, **options)[0]

    def disable_adaptive(self, table: str, column: str) -> None:
        self._fan_out("disable_adaptive", table, column)

    def table_names(self) -> list[str]:
        return self._lead_replica().database.table_names()

    def prepare_statement(self, sql: str) -> PreparedPlan:
        lead = self._lead_replica()
        return lead.run(lead.database.prepare_statement, sql)

    def execute(self, sql: str):
        """Route a literal statement round-robin onto a routable replica worker."""
        eligible = self._routable()
        replica = eligible[next(self._rr) % len(eligible)]
        return replica.run(replica.database.execute, sql)

    def explain(self, sql: str) -> str:
        lead = self._lead_replica()
        return lead.run(lead.database.explain, sql)

    def cache_stats(self) -> dict[str, Any]:
        """Fleet cache counters: single-engine shape + per-replica breakdown."""
        return merge_cache_stats(
            [replica.database.cache_stats() for replica in self.replicas]
        )

    # -- observability ---------------------------------------------------------

    def router_stats(self) -> dict[str, Any]:
        """Routing, health and divergence summary for the admin surface."""
        with self._lock:
            clustering = self._clustering
            return {
                "replicas": [replica.stats() for replica in self.replicas],
                "routing": {
                    "routed": self._routed,
                    "hot_routes": self._hot_routes,
                    "unclustered_routes": self._unclustered_routes,
                    "history": len(self._history),
                    "hot_query_threshold": self.hot_query_threshold,
                },
                "health": {
                    "states": [
                        replica.health.value for replica in self.replicas
                    ],
                    "routable": self._routable_indices_locked(),
                    "quarantine_after": self.quarantine_after,
                    **dict(self._health),
                },
                "clusters": clustering.describe() if clustering else None,
                "assignment": {str(c): r for c, r in self._preferred.items()},
                "modeled_bytes": {
                    str(replica): list(costs) for replica, costs in self._modeled.items()
                },
                "shares": list(self._shares),
                "retunes": self._retunes,
                "last_retune": self._last_retune,
            }
