"""The sharded executor: fast-backend phases cut into worker tasks.

One pipeline, two transports.  :class:`ShardedBackend` runs the
:class:`~repro.backend.fast.FastBackend` phase logic across worker
processes, mirroring the sharded many-core MapReduce designs in the
related work (Lu et al.'s Xeon Phi runtime):

* **Map** — the input is cut into contiguous tasks; each worker maps
  its task with :func:`repro.framework.tasks.map_task` and ships back
  its emissions, per-key partial accumulators (BR partial combine), or
  the paths of the spill runs it wrote.
* **Shuffle** — the coordinator merges the task results in task order
  (= input order) with ``KeyValueSet.extend`` and groups by key,
  sorted by key bytes exactly like the fast backend and the device's
  sort-based shuffle; spilled runs merge-stream without ever being
  loaded whole.
* **Reduce** — the sorted groups are cut into contiguous key ranges
  (a lazy spill-merge stream into :data:`STREAM_REDUCE_BATCH`-group
  chunks pulled as workers come free); outputs concatenate in range
  order = sorted key order.

Because tasks are contiguous and results concatenate in task order,
per-key value lists keep emission order and the output is
**record-identical to the fast backend**.  The one caveat is the BR
partial combine, which regroups the fold, so float accumulators can
differ in the last bit — the tolerance the differential suite applies.

Record batches in task payloads and results — a Map task's input
slice, a task's emissions, a Reduce task's output — are
:class:`~repro.framework.records.KeyValueSet` objects on both
transports; only the way they cross the process boundary differs.
What the transports supply (everything else lives here once):

===============  =========================  ==========================
transport        ``parallel:N``             ``dist:N``
===============  =========================  ==========================
executor         ``fork`` process ``Pool``  ``repro.dist.Cluster`` of
                                            socket workers
record batches   pickled ``KeyValueSet``    binary blob + ``<u4``
                                            lengths columns behind a
                                            JSON control header
                                            (:mod:`repro.dist.wire`)
Map tasks        N balanced shards          64 KiB byte splits
Reduce ranges    N                          2 x N
partial combine  BR jobs, memory store      never (byte-identical
                                            output under retries)
fault tolerance  none: a worker error       re-execution, scripted
                 fails the job              ``FaultPlan``
speculation      no                         straggler backup tasks
===============  =========================  ==========================

Workers run the record loop; only the coordinator's Map output is
merged, always as a ``KeyValueSet``, so it groups with the dict
shuffle.  Inputs below ``min_records`` (and platforms without
``fork``) never start the executor: the job runs in-process on the
inner fast backend, batch kernels included, and its handles pass
through this backend to that one untouched.
Timing semantics match the fast backend: transfers are model-costed,
kernel cycles read as zero.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import shutil
import tempfile
from itertools import count, islice
from typing import Any, Iterable

from ..errors import FrameworkError
from ..framework.host import shard_slices
from ..framework.modes import ReduceStrategy
from ..framework.records import KeyValueSet
from ..gpu.stats import KernelStats
from ..obs.telemetry import ShardProfile
from ..store import (
    DEFAULT_BUDGET,
    IntermediateStore,
    SpillStore,
    StoreStats,
    merge_runs,
    resolve_budget,
    resolve_spill_root,
    resolve_store_name,
)
from .base import ExecutionBackend, env_positive_int
from .fast import FastBackend, FastContext, StoreGroups
from .plan import JobPlan

#: Environment variable giving the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Below this many records a phase runs in-process: starting workers
#: and round-tripping tasks costs more than the work.
DEFAULT_MIN_RECORDS = 2048

#: Groups per Reduce task when the grouped intermediate is a lazy
#: spill-merge stream — bounds how much of it is materialised at once.
STREAM_REDUCE_BATCH = 1024


def default_workers() -> int:
    """``$REPRO_WORKERS`` if set, else the machine's CPU count."""
    return env_positive_int(WORKERS_ENV, os.cpu_count() or 1)


def _spill_active(plan: JobPlan) -> bool:
    """Does this plan (or the environment) select the spill store?"""
    return resolve_store_name(plan.store) == SpillStore.name


# ----------------------------------------------------------------------
# Coordinator-side handles
# ----------------------------------------------------------------------


class _MapOutput:
    """Map-phase handle: task results still in per-task form."""

    __slots__ = ("pairs", "combined", "emit_count")

    def __init__(self, pairs: KeyValueSet | None,
                 combined: list[list] | None, emit_count: int):
        #: Flat emissions in input order (None under partial combine).
        self.pairs = pairs
        #: Per-task ``[(key, (acc, count)), ...]`` lists, task order.
        self.combined = combined
        #: Records the user Map emitted (before any combining).
        self.emit_count = emit_count


class _CombinedGroups:
    """Shuffle-phase handle for partially combined intermediates."""

    __slots__ = ("groups",)

    def __init__(self, groups: list[tuple[bytes, list[tuple[bytes, int]]]]):
        self.groups = groups

    def __len__(self) -> int:
        return len(self.groups)


class _SpilledRuns:
    """Map-phase handle when tasks spilled: per-task run-file lists.

    ``run_lists`` is one chronological run-path list per task, in task
    order — exactly the producer layout
    :func:`repro.store.spill.merge_runs` needs to reconstruct global
    emission order for equal keys.  ``stats`` aggregates the workers'
    spill accounting (``peak_bytes`` sums the per-task highs: tasks
    buffer concurrently, so the sum is the job's tracked peak).
    """

    __slots__ = ("run_lists", "emit_count", "stats")

    def __init__(self, run_lists: list[list[str]], emit_count: int,
                 peak_bytes: int, spill_runs: int, spilled_bytes: int):
        self.run_lists = run_lists
        self.emit_count = emit_count
        self.stats = StoreStats(
            emitted_records=emit_count, peak_bytes=peak_bytes,
            spill_runs=spill_runs, spilled_bytes=spilled_bytes,
        )


class ShardedContext:
    """Per-job state: the inner fast context plus the executor."""

    __slots__ = ("fast", "executor", "profiles", "spill_dirs")

    def __init__(self, fast: FastContext):
        self.fast = fast
        #: The transport's worker pool or cluster, started on first
        #: real use; None while the job runs in-process.
        self.executor: Any = None
        #: Shard profiles of accepted task results, in phase order;
        #: harvested by :meth:`ShardedBackend.finish_telemetry`.
        self.profiles: list[ShardProfile] = []
        #: Coordinator-owned spill directories (workers write run files
        #: into them); removed wholesale in :meth:`ShardedBackend.close`,
        #: which also sweeps partial runs a failed or killed task left.
        self.spill_dirs: list[str] = []

    # The execution core reads/writes ``ctx.plan`` and reads
    # ``ctx.config``; keep the inner fast context authoritative.
    @property
    def plan(self) -> JobPlan:
        return self.fast.plan

    @plan.setter
    def plan(self, plan: JobPlan) -> None:
        self.fast.plan = plan

    @property
    def config(self):
        return self.fast.config


class ShardedBackend(ExecutionBackend):
    """Fast-backend execution sharded across worker processes.

    Subclasses are transports: they start and stop the executor,
    decide when a phase is big enough for it, size the tasks, run a
    phase's tasks, and name their own counters.  Hooks that use the
    running executor read it from ``ctx.executor`` instead of taking
    it as an argument: a failing phase's traceback then pins no
    executor, so :meth:`close` really releases it (a ``fork`` pool
    frees its pipes only once collected).
    """

    #: Partial-combine BR emissions inside each Map task.
    partial_combine = False

    def __init__(self, workers: int | None = None,
                 min_records: int | None = None):
        if workers is not None and workers < 1:
            raise FrameworkError("workers must be >= 1")
        self.workers = workers if workers is not None else default_workers()
        self.min_records = (DEFAULT_MIN_RECORDS if min_records is None
                            else max(0, min_records))
        self._fast = FastBackend()

    # -- transport hooks -------------------------------------------------

    @abc.abstractmethod
    def _big_enough(self, n_records: int) -> bool:
        """Is a phase over ``n_records`` worth the executor?"""

    @abc.abstractmethod
    def _start(self, plan: JobPlan) -> Any:
        """Start the executor for ``plan``'s job (fork happens here)."""

    @abc.abstractmethod
    def _stop(self, executor: Any) -> None:
        """Release every process and socket of a started executor."""

    @abc.abstractmethod
    def _split_slices(self, d_in: KeyValueSet) -> list[tuple[int, int]]:
        """Contiguous ``(lo, hi)`` Map tasks covering the input."""

    @abc.abstractmethod
    def _reduce_ranges(self) -> int:
        """How many key ranges an eager Reduce is cut into (at most)."""

    @abc.abstractmethod
    def _run(self, ctx: ShardedContext, phase: str,
             tasks: Iterable[tuple[int, dict]]) -> list[dict]:
        """Run ``(shard, task)`` pairs; results in task order.  Lazy
        task iterators must be consumed as workers come free."""

    def _snapshot(self, ctx: ShardedContext) -> Any:
        """Executor state to diff against in :meth:`_count`."""
        return None

    @abc.abstractmethod
    def _count(self, stats: KernelStats, ctx: ShardedContext,
               n_tasks: int, before: Any,
               groups: int | None = None) -> None:
        """Add the transport's own counters to a phase's stats
        (``groups`` is the Reduce group count; None for Map)."""

    # -- lifecycle -----------------------------------------------------

    def open(self, plan: JobPlan) -> ShardedContext:
        return ShardedContext(self._fast.open(plan))

    def close(self, ctx: ShardedContext) -> None:
        """Stop the executor (on every exit path: the core calls this
        under ``try/finally``), then release stores and spill dirs."""
        executor, ctx.executor = ctx.executor, None
        if executor is not None:
            self._stop(executor)
        self._fast.close(ctx.fast)
        dirs, ctx.spill_dirs = ctx.spill_dirs, []
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    def resolve_auto(self, ctx, plan, inp):
        return self._fast.resolve_auto(ctx.fast, plan, inp)

    def _use_executor(self, ctx: ShardedContext, n_records: int) -> bool:
        """Start the job's executor on first use; False when the phase
        is too small for it or the platform cannot fork."""
        if ctx.executor is None and self._big_enough(n_records) \
                and "fork" in multiprocessing.get_all_start_methods():
            ctx.executor = self._start(ctx.plan)
        # An executor from an earlier, larger batch serves small ones.
        return ctx.executor is not None

    # -- transfers and conversions (delegate to fast) -------------------

    def upload_input(self, ctx, kvs, label):
        return self._fast.upload_input(ctx.fast, kvs, label)

    def download_output(self, ctx, handle):
        return self._fast.download_output(ctx.fast,
                                          self._fast_handle(handle))

    def to_host(self, ctx, handle):
        return self._fast.to_host(ctx.fast, self._fast_handle(handle))

    def stage_intermediate(self, ctx, kvs, label):
        return kvs

    def record_count(self, ctx, handle) -> int:
        if isinstance(handle, (_MapOutput, _SpilledRuns)):
            return handle.emit_count
        return self._fast.record_count(ctx.fast, handle)

    def stream_sink(self, ctx):
        return self._fast.stream_sink(ctx.fast)

    def absorb_batch(self, ctx, sink, handle) -> None:
        if isinstance(sink, IntermediateStore):
            sink.emit_many(self.to_host(ctx, handle))
        else:
            super().absorb_batch(ctx, sink, handle)

    @staticmethod
    def _fast_handle(handle):
        """The inner fast backend's handle behind ``handle``: a sharded
        Map output's merged pairs, or — for phases that ran in-process
        — the fast backend's own handle, as is."""
        if isinstance(handle, _MapOutput):
            if handle.pairs is None:
                raise FrameworkError(
                    "partially combined intermediate cannot be read back "
                    "as records"
                )
            return handle.pairs
        return handle

    # -- phases ---------------------------------------------------------

    def _spill_config(self, ctx, *, batch) -> list | None:
        """Worker spill settings ``[run_dir, budget]`` for one Map, or
        None.

        Per-task spill applies to single-shot jobs with a Reduce tail:
        strategy-``None`` jobs download the Map output directly, and
        streamed batches flow into the coordinator's sink store
        instead.  The budget splits evenly across workers (tasks buffer
        concurrently, so the per-job bound is preserved).
        """
        plan = ctx.plan
        if batch is not None or plan.strategy is None \
                or not _spill_active(plan):
            return None
        # resolve_spill_root() validates $REPRO_SPILL_DIR (exists,
        # writable) so a bad setting fails here with a clear error
        # instead of surfacing as an OSError inside a worker.
        run_dir = tempfile.mkdtemp(prefix="repro-spill-",
                                   dir=resolve_spill_root())
        ctx.spill_dirs.append(run_dir)
        budget = resolve_budget(plan.memory_budget) or DEFAULT_BUDGET
        return [run_dir, max(1, budget // self.workers)]

    def _want_combine(self, plan: JobPlan, *, streamed: bool) -> bool:
        """Partial combine applies to single-shot BR jobs with a
        combiner, on transports that opt in.  The streamed driver
        flattens batch outputs into one host record set between Map and
        Shuffle, so partial accumulators cannot survive that hop.  A
        spilling job also skips it: run files carry plain pairs, and
        the full BR fold in Reduce keeps the output byte-identical to
        the fast backend (partial combining would regroup float
        folds)."""
        return (self.partial_combine and not streamed and not plan.is_mars
                and plan.strategy is ReduceStrategy.BR
                and plan.spec.combine is not None
                and not _spill_active(plan))

    def map_phase(self, ctx, d_in, tr, *, batch=None):
        if not self._use_executor(ctx, len(d_in)):
            return self._fast.map_phase(ctx.fast, d_in, tr, batch=batch)

        combine = self._want_combine(ctx.plan, streamed=batch is not None)
        spill = self._spill_config(ctx, batch=batch)
        keys, vals = d_in.keys, d_in.values
        tasks = []
        for shard, (lo, hi) in enumerate(self._split_slices(d_in)):
            task: dict[str, Any] = {
                "pairs": KeyValueSet.from_lists(keys[lo:hi], vals[lo:hi])
            }
            if spill is not None:
                task["spill"] = spill
            if combine:
                task["combine"] = True
            tasks.append((shard, task))

        before = self._snapshot(ctx)
        results = self._run(ctx, "map", tasks)
        profiles = self._record_profiles(ctx, tr, "map", results)
        emit_count = sum(p.records_out for p in profiles)
        if spill is not None:
            run_lists = [r["spilled"]["runs"] for r in results]
            handle: Any = _SpilledRuns(
                run_lists=run_lists,
                emit_count=emit_count,
                peak_bytes=sum(r["spilled"]["peak_bytes"] for r in results),
                spill_runs=sum(map(len, run_lists)),
                spilled_bytes=sum(p.spilled_bytes for p in profiles),
            )
        elif combine:
            handle = _MapOutput(pairs=None,
                                combined=[r["combined"] for r in results],
                                emit_count=emit_count)
        else:
            out = KeyValueSet()
            for r in results:  # task order = input order
                out.extend(r["pairs"])
            handle = _MapOutput(pairs=out, combined=None,
                                emit_count=emit_count)
        stats = self._phase_stats(ctx, before, records_in=len(d_in),
                                  records_out=emit_count,
                                  tasks=len(tasks))
        if combine:
            stats.count("parallel_combined_out",
                        sum(len(r["combined"]) for r in results))
        attrs = {"batch": batch} if batch is not None else {}
        tr.kernel("map_kernel", stats, **attrs)
        return handle, stats

    def shuffle_phase(self, ctx, inter, tr, label):
        if isinstance(inter, _SpilledRuns):
            # Per-task runs: merge-stream them task-major, exactly the
            # group order the in-memory shuffle would produce.
            with tr.span("shuffle_exec", records=inter.emit_count) as sp:
                if sp is not None:
                    sp.attrs["spill_runs"] = inter.stats.spill_runs
                    sp.attrs["spilled_bytes"] = inter.stats.spilled_bytes
                inter.stats.merge_fan_in = sum(map(len, inter.run_lists))
            grouped = StoreGroups(merge_runs(inter.run_lists), inter.stats)
            return grouped, 0.0, None
        if isinstance(inter, _MapOutput) and inter.combined is not None:
            merged: dict[bytes, list[tuple[bytes, int]]] = {}
            for part_list in inter.combined:  # task order = emission order
                for key, part in part_list:
                    bucket = merged.get(key)
                    if bucket is None:
                        merged[key] = [part]
                    else:
                        bucket.append(part)
            grouped = _CombinedGroups(sorted(merged.items()))
            return grouped, 0.0, len(grouped)
        # Merged pairs, a streamed sink store, or an in-process Map's
        # own handle: the fast logic groups it.
        return self._fast.shuffle_phase(ctx.fast, self._fast_handle(inter),
                                        tr, label)

    def reduce_phase(self, ctx, grouped, tr, *, include_grid=True):
        if ctx.executor is None:
            # The Map ran in-process (small input / no fork): finish the
            # job the same way.
            return self._fast.reduce_phase(ctx.fast, grouped, tr,
                                           include_grid=include_grid)
        ctx.plan.check_reduce()

        lazy = isinstance(grouped, StoreGroups)
        combined = isinstance(grouped, _CombinedGroups)
        if lazy:
            # A merge stream has unknown length: cut it into contiguous
            # fixed-size chunks (chunk order = sorted key order) that
            # the executor pulls as workers come free, so the grouped
            # intermediate is materialised per in-flight task, never
            # per job.
            tasks: Iterable = _chunks(grouped)
        else:
            groups = grouped.groups if combined else grouped
            n = len(groups)
            slices = shard_slices(n, max(1, min(n, self._reduce_ranges())))
            kind = {"combined": True} if combined else {}
            tasks = [(shard, {"groups": groups[lo:hi], **kind})
                     for shard, (lo, hi) in enumerate(slices)]

        before = self._snapshot(ctx)
        results = self._run(ctx, "reduce", tasks)
        profiles = self._record_profiles(ctx, tr, "reduce", results)

        out = KeyValueSet()
        for r in results:  # range order = sorted key order
            out.extend(r["pairs"])
        stats = self._phase_stats(
            ctx, before,
            records_in=sum(p.records_in for p in profiles),
            records_out=len(out), tasks=len(results),
            groups=sum(p.distinct_keys for p in profiles),
        )
        if combined:
            stats.count("parallel_combined_in", len(grouped))
        if lazy and grouped.stats is not None:
            for name, v in grouped.stats.as_extra().items():
                stats.count(name, v)
        tr.kernel("reduce_kernel", stats)
        return out, stats

    # -- telemetry ------------------------------------------------------

    @staticmethod
    def _record_profiles(ctx: ShardedContext, tr, phase: str,
                         results: list[dict]) -> list[ShardProfile]:
        """Turn accepted results' profile docs into ShardProfiles, bank
        them on the context and merge them into the tracer as
        per-worker tracks (task index = track id)."""
        profiles = [ShardProfile(phase=phase, shard=shard, **r["profile"])
                    for shard, r in enumerate(results)]
        ctx.profiles.extend(profiles)
        for p in profiles:
            tr.worker_span(
                p.shard, f"{p.phase}_shard", p.start_ns, p.end_ns,
                pid=p.pid, records_in=p.records_in,
                records_out=p.records_out, distinct_keys=p.distinct_keys,
                combine_ns=p.combine_ns if p.combined else None,
                spill_runs=p.spill_runs if p.spill_runs else None,
                spilled_bytes=p.spilled_bytes if p.spill_runs else None,
            )
        return profiles

    def finish_telemetry(self, ctx: ShardedContext):
        """Shard profiles collected this job (empty -> None: in-process
        runs have no cross-process telemetry to report)."""
        return ctx.profiles or None

    def _phase_stats(self, ctx, before, *, records_in: int,
                     records_out: int, tasks: int,
                     groups: int | None = None) -> KernelStats:
        """Like the fast backend's — zero cycles, throughput counters
        only — plus the transport's task-shape counters."""
        stats = KernelStats(threads_per_block=ctx.plan.threads_per_block)
        stats.count("fast_records_in", records_in)
        stats.count("fast_records_out", records_out)
        self._count(stats, ctx, tasks, before, groups)
        return stats


def _chunks(grouped: Iterable) -> Iterable[tuple[int, dict]]:
    """Contiguous :data:`STREAM_REDUCE_BATCH`-group Reduce tasks."""
    it = iter(grouped)
    for shard in count():
        chunk = list(islice(it, STREAM_REDUCE_BATCH))
        if not chunk:
            return
        yield shard, {"groups": chunk}
