"""``parallel:N`` — the sharded executor over a ``fork`` process pool.

The pool transport of :class:`~repro.backend.sharded.ShardedBackend`
(see there for the phase pipeline and what the two transports
share).  What this transport decides:

* **executor** — a ``multiprocessing`` ``fork`` ``Pool``; each worker
  receives the job ``(spec, strategy, is_mars)`` through the pool
  initializer, by memory inheritance, so user Map/Reduce functions —
  test closures included — never need pickling.  Only task payloads
  and results travel through the pool's queues.
* **task sizing** — Map input is cut into ``workers`` contiguous,
  balanced shards (:func:`repro.framework.host.shard_slices`), and an
  eager Reduce into ``workers`` key ranges.
* **partial combine** — on: for block-level (BR) reductions each
  shard collapses its emissions to one ``(accumulator, count)`` per
  distinct key before anything crosses the process boundary, the same
  traffic-shrinking trick the paper applies to its slow memory tier.
* **when to pool** — only with at least 2 workers and at least
  ``max(min_records, workers)`` records; smaller phases run in-process.

There is no fault tolerance: a worker exception fails the job (it is
re-raised in the caller), and :meth:`close` reaps the pool on every
exit path.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from ..framework.host import shard_slices
from ..framework.tasks import run_task
from .sharded import (  # noqa: F401  (re-exported configuration API)
    DEFAULT_MIN_RECORDS,
    WORKERS_ENV,
    ShardedBackend,
    default_workers,
)

#: The job a pool worker serves; set in each forked worker by the pool
#: initializer, never in the coordinator.
_POOL_JOB: tuple | None = None


def _install_job(job: tuple) -> None:
    global _POOL_JOB
    _POOL_JOB = job


def _pool_task(item: tuple[str, int, dict]) -> dict:
    phase, shard, task = item
    return run_task(_POOL_JOB, phase, shard, task)


def windowed_map(pool, fn: Callable, items: Iterable,
                 window: int) -> Iterator:
    """``fn(item)`` for each item on ``pool``, yielded in item order,
    pulling an item only while fewer than ``window`` results are
    unconsumed.

    ``Pool.imap`` would drain a lazy ``items`` in its feeder thread
    at once; this keeps a lazy task source (the spilled Reduce's
    group chunks) materialised a window at a time.
    """
    pending: deque = deque()
    for item in items:
        pending.append(pool.apply_async(fn, (item,)))
        if len(pending) >= window:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


class ParallelBackend(ShardedBackend):
    """Shard fast-backend execution across a ``fork`` process pool."""

    name = "parallel"
    partial_combine = True

    def _big_enough(self, n_records: int) -> bool:
        return (self.workers >= 2 and n_records >= self.min_records
                and n_records >= self.workers)

    def _start(self, plan) -> Any:
        return multiprocessing.get_context("fork").Pool(
            self.workers, initializer=_install_job,
            initargs=((plan.spec, plan.strategy, plan.is_mars),),
        )

    def _stop(self, pool) -> None:
        pool.close()
        pool.join()

    def _split_slices(self, d_in):
        return shard_slices(len(d_in), self.workers)

    def _reduce_ranges(self) -> int:
        return self.workers

    def _run(self, ctx, phase, tasks) -> list[dict]:
        try:
            return list(windowed_map(
                ctx.executor, _pool_task,
                ((phase, shard, task) for shard, task in tasks),
                window=2 * self.workers,
            ))
        except Exception as exc:
            # The worker's exception, re-raised as is (its remote
            # traceback rides along as __cause__).  Drop the pool's own
            # frames: they would pin its notifier pipe for as long as
            # the caller holds the exception.
            raise exc.with_traceback(None)

    def _count(self, stats, ctx, n_tasks, before, groups=None) -> None:
        stats.count("parallel_shards", n_tasks)
        stats.count("parallel_workers", self.workers)
