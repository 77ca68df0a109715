"""Mars's first pass: MapCount / ReduceCount kernels.

"The first pass, MapCount or ReduceCount, is only used to compute the
output sizes of each task" (Section II-B).  The kernel runs the *same*
user function with an emit callback that only tallies sizes, so it
pays the full input-reading and compute cost of the real pass, then
stores three 32-bit counts per task (key bytes, value bytes, record
count) with perfectly coalesced writes — no atomics anywhere, which is
precisely Mars's trade: an extra full pass instead of contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..framework.map_engine import MapRuntime, _charge_dir_reads, _replay, _replay_const
from ..framework.records import checked_record
from ..gpu.accessor import Accessor, AccessTrace
from ..gpu.config import WARP_SIZE
from ..gpu.kernel import WarpCtx
from ..framework.staging import Tile


@dataclass
class CountArrays:
    """Per-task output sizes produced by a count pass."""

    key_bytes: np.ndarray
    val_bytes: np.ndarray
    records: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "CountArrays":
        return cls(
            key_bytes=np.zeros(n, dtype=np.int64),
            val_bytes=np.zeros(n, dtype=np.int64),
            records=np.zeros(n, dtype=np.int64),
        )


@dataclass
class MarsCountRuntime:
    """Runtime for the MapCount kernel: a G-mode MapRuntime plus the
    count output arrays (device-resident + host mirror)."""

    rt: MapRuntime
    counts: CountArrays
    counts_addr: int  # 12 bytes per task in global memory


def mars_map_count_kernel(ctx: WarpCtx, crt: MarsCountRuntime):
    """One warp of MapCount: one task per thread, grid-stride tiles."""
    rt = crt.rt
    for t_i in range(ctx.block_id, len(rt.tiles), rt.grid):
        tile = rt.tiles[t_i]
        yield from _count_rounds(ctx, crt, tile)
        yield from ctx.barrier()


def _count_rounds(ctx: WarpCtx, crt: MarsCountRuntime, tile: Tile):
    rt = crt.rt
    spec = rt.spec
    nw = ctx.warps_per_block
    r = 0
    while True:
        base_rec = tile.start + (r * nw + ctx.warp_id) * WARP_SIZE
        if base_rec >= tile.end:
            break
        recs = list(range(base_rec, min(base_rec + WARP_SIZE, tile.end)))

        yield from _charge_dir_reads(ctx, rt, None, recs)

        key_traces: list[AccessTrace] = []
        val_traces: list[AccessTrace] = []
        const_traces: list[AccessTrace] = []
        for rec in recs:
            key_acc = Accessor(rt.record_key(rec))
            val_acc = Accessor(rt.record_val(rec))
            const_acc = Accessor(rt.const_data) if rt.const_data else None
            kb = vb = n = 0

            def emit(k: bytes, v: bytes) -> None:
                nonlocal kb, vb, n
                k, v = checked_record(k, v)
                kb += len(k)
                vb += len(v)
                n += 1

            spec.map_record(key_acc, val_acc, emit, const_acc)
            crt.counts.key_bytes[rec] = kb
            crt.counts.val_bytes[rec] = vb
            crt.counts.records[rec] = n
            ctx.gmem.write_u32(crt.counts_addr + 12 * rec, kb)
            ctx.gmem.write_u32(crt.counts_addr + 12 * rec + 4, vb)
            ctx.gmem.write_u32(crt.counts_addr + 12 * rec + 8, n)
            key_traces.append(key_acc.trace)
            val_traces.append(val_acc.trace)
            const_traces.append(const_acc.trace if const_acc else AccessTrace())

        yield from _replay(ctx, rt, None, recs, key_traces, which="key")
        yield from _replay(ctx, rt, None, recs, val_traces, which="val")
        if rt.const_data:
            yield from _replay_const(ctx, rt, const_traces)
        max_steps = max(
            len(k) + len(v) + len(c)
            for k, v, c in zip(key_traces, val_traces, const_traces)
        )
        yield from ctx.compute(
            spec.cycles_per_record + spec.cycles_per_access * max_steps
        )
        # Coalesced store of the three counts (12 B per consecutive task).
        from ..gpu.instructions import GlobalWrite

        yield GlobalWrite(addr=crt.counts_addr + 12 * recs[0], nbytes=12 * len(recs))
        r += 1
