"""``dist:N`` — the sharded executor over socket-connected workers.

The cluster transport of :class:`~repro.backend.sharded.ShardedBackend`
(see there for the phase pipeline and what the two transports share):
a :class:`~repro.dist.Cluster` coordinator driving worker *processes
connected by localhost sockets* — the MapReduce master/worker shape,
scaled down to one host so the whole fault-tolerance story is testable
in CI.  What this transport decides:

* **task sizing** — Map input is cut GFS-style into M tasks of at most
  :data:`DEFAULT_SPLIT_BYTES` input bytes (``$REPRO_SPLIT_BYTES`` to
  override), deliberately finer than the worker count so scheduling,
  re-execution and speculation have real granularity; an eager Reduce
  is cut into R = workers x :data:`REDUCES_PER_WORKER` key ranges.
* **no partial combine** — workers ship plain pairs, so output is
  *byte-identical* to :class:`~repro.backend.fast.FastBackend` for
  every workload, including floating-point BR folds.  That identity
  is the invariant the fault story hangs on: a worker can die
  mid-task, the task re-runs elsewhere, a straggler gets speculatively
  duplicated, and the coordinator's first-result-wins dedupe (per
  ``(phase, shard)``) guarantees the retried run's bytes equal the
  faultless run's bytes.  The differential suite and the chaos fuzzer
  assert exactly that.
* **when to cluster** — at least ``min_records`` records (socket
  round-trips on a 50-record job cost far more than the job).

Fault tolerance, speculation and the scriptable
:class:`~repro.dist.faults.FaultPlan` live in :mod:`repro.dist`.
:meth:`close` reaps every worker process and socket on every exit
path, including a raising kernel, and keeps the cluster's scheduling
log in :attr:`DistributedBackend.last_events` /
:attr:`~DistributedBackend.last_counters`.
"""

from __future__ import annotations

from typing import Any

from ..dist import Cluster, FaultPlan
from ..errors import FrameworkError
from ..store import record_cost
from .base import env_positive_int
from .sharded import ShardedBackend

#: GFS-style split size: map tasks are cut at this many input bytes
#: (key + value + per-record overhead), so M tracks data volume, not
#: worker count — the paper-lineage "many more tasks than workers"
#: rule that gives retry and speculation their granularity.
DEFAULT_SPLIT_BYTES = 64 << 10

#: Environment override for the split size, in bytes.
SPLIT_BYTES_ENV = "REPRO_SPLIT_BYTES"

#: Reduce tasks per worker (R = workers x this).
REDUCES_PER_WORKER = 2

#: Per-phase scheduler counters surfaced as ``dist_<name>`` deltas.
_FAULT_COUNTERS = ("retries", "speculated", "duplicates", "worker_deaths",
                   "respawns")


def resolve_split_bytes(split_bytes: int | None = None) -> int:
    """Explicit argument, else ``$REPRO_SPLIT_BYTES``, else default."""
    if split_bytes is not None:
        if split_bytes < 1:
            raise FrameworkError("split_bytes must be >= 1")
        return split_bytes
    return env_positive_int(SPLIT_BYTES_ENV, DEFAULT_SPLIT_BYTES)


class DistributedBackend(ShardedBackend):
    """Coordinator/worker execution over localhost sockets, with
    retry, speculation and scriptable fault injection."""

    name = "dist"

    def __init__(self, workers: int | None = None,
                 min_records: int | None = None,
                 fault_plan: FaultPlan | None = None,
                 *, deterministic: bool = False,
                 split_bytes: int | None = None,
                 straggler_factor: float | None = None,
                 min_straggle_s: float | None = None):
        super().__init__(workers, min_records)
        self.fault_plan = fault_plan or FaultPlan.none()
        self.deterministic = deterministic
        self.split_bytes = resolve_split_bytes(split_bytes)
        self.straggler_factor = straggler_factor
        self.min_straggle_s = min_straggle_s
        #: Scheduling events of the most recently closed job (golden
        #: traces read these after ``run_job`` returns).
        self.last_events: list = []
        #: Scheduler counters of the most recently closed job.
        self.last_counters: dict[str, int] = {}

    def _big_enough(self, n_records: int) -> bool:
        return n_records >= self.min_records

    def _start(self, plan) -> Cluster:
        kwargs: dict[str, Any] = {}
        if self.straggler_factor is not None:
            kwargs["straggler_factor"] = self.straggler_factor
        if self.min_straggle_s is not None:
            kwargs["min_straggle_s"] = self.min_straggle_s
        cluster = Cluster(self.workers, self.fault_plan,
                          deterministic=self.deterministic, **kwargs)
        cluster.start(plan.spec, plan.strategy, plan.is_mars)
        return cluster

    def _stop(self, cluster: Cluster) -> None:
        self.last_events = list(cluster.events)
        self.last_counters = dict(cluster.counters)
        cluster.shutdown()

    def _split_slices(self, d_in):
        """Contiguous map splits of at most ``split_bytes`` input bytes
        each (always >= 1 record per split, >= 1 split)."""
        n = len(d_in)
        if n == 0:
            return [(0, 0)]
        keys, vals = d_in.keys, d_in.values
        limit = self.split_bytes
        slices: list[tuple[int, int]] = []
        lo = 0
        acc = 0
        for i in range(n):
            c = record_cost(keys[i], vals[i])
            if acc > 0 and acc + c > limit:
                slices.append((lo, i))
                lo = i
                acc = 0
            acc += c
        slices.append((lo, n))
        return slices

    def _reduce_ranges(self) -> int:
        return self.workers * REDUCES_PER_WORKER

    def _snapshot(self, ctx) -> dict[str, int]:
        return dict(ctx.executor.counters)

    def _run(self, ctx, phase, tasks) -> list[dict]:
        done = ctx.executor.run_phase(phase, tasks)
        return [done[shard] for shard in range(len(done))]

    def _count(self, stats, ctx, n_tasks, before, groups=None) -> None:
        """Task-grid shape plus this phase's fault-recovery activity."""
        cluster = ctx.executor
        stats.count("dist_tasks", n_tasks)
        stats.count("dist_workers", cluster.workers)
        for key in _FAULT_COUNTERS:
            delta = cluster.counters[key] - before.get(key, 0)
            if delta:
                stats.count(f"dist_{key}", delta)
        if groups is not None and n_tasks:
            stats.count("dist_groups", groups)
