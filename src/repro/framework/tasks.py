"""Shard tasks: the Map and Reduce work one sharded worker runs.

Both transports of the sharded executor
(:mod:`repro.backend.sharded`) — the fork pool behind
``parallel:N`` and the socket workers behind ``dist:N`` — execute
exactly these functions; they differ only in how a task reaches the
worker and how the result comes back.  The job is passed explicitly as
a ``(spec, strategy, is_mars)`` triple that each worker process
inherits by ``fork`` (so user closures never need pickling), and a
task is a plain-data dict — it crosses a pool queue pickled or a
socket as binary record columns (:mod:`repro.dist.wire`).  Every
record batch in a task or a result is a
:class:`~repro.framework.records.KeyValueSet` (the pool pickles its
two lists; the wire ships them as blob + lengths columns), except the
reduce task's groups:

* **Map** — ``{"pairs": KeyValueSet}`` (any iterable of ``(key,
  value)`` also works), optionally with ``"combine": True`` (collapse
  BR emissions to one ``(accumulator, count)`` per distinct key before
  shipping) or ``"spill": [run_dir, budget]`` (land emissions in a
  :class:`~repro.store.SpillStore` and ship only its run paths).
* **Reduce** — ``{"groups": [(key, [value, ...]), ...]}``, or partial
  accumulators ``(key, [(acc, count), ...])`` with ``"combined":
  True`` (pool transport only: partial accumulators never cross the
  socket wire).

Every result carries a ``"profile"`` dict whose keys are
:class:`~repro.obs.telemetry.ShardProfile` fields (the coordinator
adds ``phase`` and ``shard``), plus the payload: ``"pairs"`` (a
:class:`~repro.framework.records.KeyValueSet`), ``"combined"`` or
``"spilled"``.

``tick`` is the fault-injection hook: when given it is called once per
input record (Map) or value (Reduce) before that record is processed.
When it is ``None`` the record loops carry no per-record check at all.
"""

from __future__ import annotations

import os
import time
from functools import reduce as _fold
from typing import Callable, Iterable

from ..gpu.accessor import Accessor, host_accessor
from ..store import SpillStore
from .modes import ReduceStrategy
from .records import KeyValueSet, checked_emit


def run_task(job: tuple, phase: str, shard: int, task: dict,
             tick: Callable[[], None] | None = None) -> dict:
    """Run one ``"map"`` or ``"reduce"`` task of ``job``, a
    ``(spec, strategy, is_mars)`` triple."""
    spec, strategy, is_mars = job
    if phase == "map":
        return map_task(spec, shard, task, tick)
    return reduce_task(spec, strategy, is_mars, shard, task, tick)


def map_task(spec, shard: int, task: dict,
             tick: Callable[[], None] | None = None) -> dict:
    """Map one contiguous input shard (see the module doc for shapes).

    Spill runs are named by the dispatch: ``task`` may carry the
    scheduler's ``attempt`` and per-send ``seq`` token, so a killed
    attempt's partial files — or a twin's (a speculated copy and a
    death-requeued retry can share ``(shard, attempt)``) — never
    collide with, or get merged as, the accepted execution's runs.
    """
    pairs = task["pairs"]
    n_in = len(pairs)
    t0 = time.perf_counter_ns()
    const = host_accessor(spec.const_bytes) if spec.const_bytes else None
    map_record = spec.map_record
    if tick is not None:
        pairs = _ticked(pairs, tick)

    spill = task.get("spill")
    if spill is not None:
        run_dir, budget = spill
        store = SpillStore(
            budget, spill_dir=run_dir, own_dir=False,
            prefix=(f"s{shard:04d}a{task.get('attempt', 0):02d}"
                    f"d{task.get('seq', 0):06d}"))
        emit = checked_emit(store.emit)
        for k, v in pairs:
            map_record(host_accessor(k), host_accessor(v), emit, const)
        runs = store.flush_runs()
        st = store.stats
        return {
            "spilled": {"runs": runs, "peak_bytes": st.peak_bytes},
            "profile": _profile(t0, n_in, st.emitted_records,
                                spill_runs=st.spill_runs,
                                spilled_bytes=st.spilled_bytes),
        }

    out = KeyValueSet()
    emit = checked_emit(out.append_unchecked)
    for k, v in pairs:
        map_record(host_accessor(k), host_accessor(v), emit, const)
    if not task.get("combine"):
        return {"pairs": out,
                "profile": _profile(t0, n_in, len(out), len(set(out.keys)))}
    t_combine = time.perf_counter_ns()
    combine = spec.combine
    acc: dict[bytes, tuple[bytes, int]] = {}
    for k, v in out:
        cur = acc.get(k)
        acc[k] = (v, 1) if cur is None else (combine(cur[0], v), cur[1] + 1)
    t1 = time.perf_counter_ns()
    return {"combined": list(acc.items()),
            "profile": _profile(t0, n_in, len(out), len(acc), combined=True,
                                combine_ns=t1 - t_combine)}


def reduce_task(spec, strategy, is_mars: bool, shard: int, task: dict,
                tick: Callable[[], None] | None = None) -> dict:
    """Reduce one contiguous, key-sorted range of groups; the output
    preserves group order."""
    groups = task["groups"]
    n_groups = len(groups)
    t0 = time.perf_counter_ns()
    out = KeyValueSet()
    combined = task.get("combined", False)
    if combined:
        n_values = sum(c for _, parts in groups for _, c in parts)
    else:
        n_values = sum(len(values) for _, values in groups)
    if tick is not None:
        groups = _ticked_groups(groups, tick)

    if combined:
        combine, finalize = spec.combine, spec.finalize
        for key, parts in groups:
            acc = _fold(combine, (a for a, _ in parts))
            k_out, v_out = finalize(key, acc, sum(c for _, c in parts))
            out.append_unchecked(bytes(k_out), bytes(v_out))
    elif strategy is ReduceStrategy.BR and not is_mars:
        combine, finalize = spec.combine, spec.finalize
        for key, values in groups:
            k_out, v_out = finalize(key, _fold(combine, values), len(values))
            out.append_unchecked(bytes(k_out), bytes(v_out))
    else:
        emit = checked_emit(out.append_unchecked)
        const = host_accessor(spec.const_bytes) if spec.const_bytes else None
        reduce_record = spec.reduce_record
        # Values repeat massively (Word Count's 1s): memoise accessors.
        cache: dict[bytes, Accessor] = {}

        def acc_of(data: bytes) -> Accessor:
            a = cache.get(data)
            if a is None:
                a = host_accessor(data)
                cache[data] = a
            return a

        for key, values in groups:
            reduce_record(acc_of(key), [acc_of(v) for v in values], emit,
                          const)
    return {"pairs": out,
            "profile": _profile(t0, n_values, len(out), n_groups)}


def _ticked(pairs: Iterable, tick: Callable[[], None]):
    for pair in pairs:
        tick()
        yield pair


def _ticked_groups(groups: Iterable, tick: Callable[[], None]):
    for group in groups:
        for _ in group[1]:
            tick()
        yield group


def _profile(t0: int, records_in: int, records_out: int,
             distinct_keys: int = 0, **extra) -> dict:
    return {"pid": os.getpid(), "start_ns": t0,
            "end_ns": time.perf_counter_ns(), "records_in": records_in,
            "records_out": records_out, "distinct_keys": distinct_keys,
            **extra}
