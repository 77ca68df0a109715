"""Map-phase kernels for every memory-usage mode (G/GT/SI/SO/SIO).

One kernel body serves all five modes; what changes is the *plumbing*:

* where input bytes come from — staged shared memory (SI/SIO), global
  memory (G/SO), or the texture path (GT);
* where results go — the shared-memory output area with block-level
  flushes (SO/SIO) or warp-aggregated direct global writes (G/GT/SI);
* whether helper warps and the wait-signal machinery exist at all
  (only when output is staged).

The user Map function runs eagerly per record against traced
:class:`Accessor` views; its access trace is then replayed in SIMT
lockstep through the appropriate memory path, so identical user code
is costed faithfully under each mode (Section IV-C's requirement that
only GT needs a source-level variant is noted in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import FrameworkError
from ..gpu.accessor import Accessor, AccessTrace, lockstep_accesses
from ..gpu.analysis_cache import AnalysisCache, register
from ..gpu.banks import BANK_WIDTH, NUM_BANKS, conflict_degree_cached
from ..gpu.coalescing import scattered_transactions_cached
from ..gpu.config import WARP_SIZE
from ..gpu.instructions import AtomicShared, Compute, GlobalRead, SharedRead
from ..gpu.kernel import Device, WarpCtx
from ..gpu.stats import KernelStats
from .api import MapReduceSpec
from .collector import (
    COMPUTE_DONE,
    CollectorState,
    collect_warp_result,
    direct_emit_warp,
    init_collector,
    request_final_flush,
    wait_loop,
)
from .layout import SmemLayout, plan_layout
from .modes import MemoryMode
from .partition import partition_warps
from .records import DIR_ENTRY, DeviceRecordSet, OutputBuffers, collecting_emit
from .staging import StagedTile, Tile, plan_tiles_staged, plan_tiles_unstaged, stage_in


def chunk_steps(
    steps: list[list[tuple[int, int]]], mlp: int
) -> list[list[tuple[int, int]]]:
    """Group consecutive lockstep access steps into MLP-wide chunks.

    Streaming scans issue independent loads, so ``mlp`` of them share
    one memory round trip; transaction counts are unaffected (every
    access is still presented to the coalescer).
    """
    if mlp <= 1:
        return steps
    out = []
    for i in range(0, len(steps), mlp):
        merged: list[tuple[int, int]] = []
        for s in steps[i : i + mlp]:
            merged.extend(s)
        out.append(merged)
    return out


#: Shared-memory bank period in bytes: shifting every address of a
#: pattern by a multiple of this preserves each lane's bank.
_BANK_PERIOD = NUM_BANKS * BANK_WIDTH

#: Replay plans: the fully analyzed instruction sequence for replaying
#: one warp's lockstep access pattern, memoized on the normalized
#: pattern (per-lane word traces + rebased lane base addresses).  A
#: MapReduce launch replays a handful of distinct record shapes
#: thousands of times, so the lockstep zip + coalescing/bank analysis
#: runs once per shape instead of once per round.
_SMEM_REPLAY_PLANS = register(AnalysisCache("map.replay_smem"))
_GMEM_REPLAY_PLANS = register(AnalysisCache("map.replay_gmem"))
_DIR_READ_PLANS = register(AnalysisCache("framework.dir_reads"))


def dir_read_op(ctx: WarpCtx, dir_addr: int, first: int, count: int):
    """One lane-per-record directory read, transaction count memoized.

    Every compute round starts with each lane reading its record's
    8-byte directory entry — a fixed stride pattern whose transaction
    count depends only on the start address modulo the segment size
    and the lane count.  Callers must hold
    :attr:`WarpCtx.can_elide_gmem_addrs`.
    """
    start = dir_addr + DIR_ENTRY * first
    seg = ctx.timing.txn_bytes
    key = (seg, start % seg, count)
    cache = _DIR_READ_PLANS
    op = cache.data.get(key)
    if op is not None:
        cache.hits += 1
        return op
    cache.misses += 1
    ntxn = scattered_transactions_cached(
        [(start + DIR_ENTRY * i, DIR_ENTRY) for i in range(count)], seg
    )
    op = GlobalRead(nbytes=DIR_ENTRY * count, ntxn=ntxn, lanes=max(1, count))
    cache.room()
    cache.data[key] = op
    return op


def _pattern_key(
    traces: Sequence[AccessTrace], bases: Sequence[int], period: int
) -> tuple:
    """Normalized identity of a replay pattern.

    Both analyses are invariant under shifting *all* lane bases by a
    common multiple of their period (transaction segment / bank
    stride), so bases are rebased against the lowest covered period
    boundary.
    """
    base0 = (min(bases) // period) * period
    return (tuple(b - base0 for b in bases),) + tuple(
        tuple(t.words) for t in traces
    )


def _smem_replay_plan(
    traces: Sequence[AccessTrace], bases: Sequence[int]
) -> list[SharedRead]:
    """One :class:`SharedRead` per lockstep step of a shared replay.

    The plan stores the frozen op descriptors themselves, so a cache
    hit replays a pattern without constructing any objects at all.
    """
    key = _pattern_key(traces, bases, _BANK_PERIOD)
    cache = _SMEM_REPLAY_PLANS
    plan = cache.data.get(key)
    if plan is not None:
        cache.hits += 1
        return plan
    cache.misses += 1
    plan = [
        SharedRead(
            nbytes=4 * len(step),
            conflict=conflict_degree_cached([a for a, _ in step]),
        )
        for step in lockstep_accesses(traces, bases)
    ]
    cache.room()
    cache.data[key] = plan
    return plan


def _gmem_replay_plan(
    traces: Sequence[AccessTrace],
    bases: Sequence[int],
    seg: int,
    mlp: int,
) -> list[GlobalRead]:
    """One address-elided :class:`GlobalRead` per MLP chunk of a
    global replay (transaction count precomputed)."""
    key = (seg, mlp) + _pattern_key(traces, bases, seg)
    cache = _GMEM_REPLAY_PLANS
    plan = cache.data.get(key)
    if plan is not None:
        cache.hits += 1
        return plan
    cache.misses += 1
    plan = [
        GlobalRead(
            nbytes=4 * len(step),
            ntxn=scattered_transactions_cached(step, seg),
            lanes=max(1, len(step)),
        )
        for step in chunk_steps(lockstep_accesses(traces, bases), mlp)
    ]
    cache.room()
    cache.data[key] = plan
    return plan


def _replay_gmem_steps(ctx: WarpCtx, traces, bases):
    """Replay a global-memory access pattern, planned when possible."""
    if ctx.can_elide_gmem_addrs:
        yield from _gmem_replay_plan(
            traces, bases, ctx.timing.txn_bytes, ctx.timing.memory_parallelism
        )
    else:
        steps = chunk_steps(
            lockstep_accesses(traces, bases), ctx.timing.memory_parallelism
        )
        for step in steps:
            yield from ctx.gtouch_read(step)


@dataclass
class MapRuntime:
    """Read-only state shared by every block of a Map launch."""

    spec: MapReduceSpec
    mode: MemoryMode
    layout: SmemLayout
    inp: DeviceRecordSet
    out: OutputBuffers
    tiles: list[Tile]
    grid: int
    yield_sync: bool = True
    const_data: bytes | None = None
    const_addr: int = 0

    #: Per-record geometry (host mirror of the input directories).
    key_offs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    key_lens: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    val_offs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    val_lens: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def record_key(self, rec: int) -> bytes:
        return self.inp.gmem.read(
            self.inp.keys_addr + int(self.key_offs[rec]), int(self.key_lens[rec])
        )

    def record_val(self, rec: int) -> bytes:
        return self.inp.gmem.read(
            self.inp.vals_addr + int(self.val_offs[rec]), int(self.val_lens[rec])
        )


def build_map_runtime(
    device: Device,
    spec: MapReduceSpec,
    mode: MemoryMode,
    inp: DeviceRecordSet,
    *,
    threads_per_block: int,
    yield_sync: bool = True,
    io_ratio: float | None = None,
) -> MapRuntime:
    """Plan layout, tiles and output buffers for a Map launch."""
    spec.validate()
    cfg = device.config
    layout = plan_layout(
        smem_budget=cfg.shared_mem_per_mp,
        threads_per_block=threads_per_block,
        mode=mode,
        io_ratio=io_ratio if io_ratio is not None else spec.io_ratio,
        working_bytes_per_thread=spec.working_bytes_per_thread,
    )
    gmem = device.gmem
    n = inp.count
    key_dir = gmem.read_u32_array(inp.key_dir_addr, 2 * n).astype(np.int64)
    val_dir = gmem.read_u32_array(inp.val_dir_addr, 2 * n).astype(np.int64)
    key_offs, key_lens = key_dir[0::2], key_dir[1::2]
    val_offs, val_lens = val_dir[0::2], val_dir[1::2]

    occ_probe = cfg.blocks_per_mp(threads_per_block, layout.smem_bytes)
    if mode.stages_input:
        tiles = plan_tiles_staged(
            layout,
            key_lens.tolist(),
            val_lens.tolist(),
            stage_values=spec.stage_values,
            stage_keys=spec.stage_keys,
        )
        # Small scaled inputs can yield fewer tiles than the device
        # has block slots, starving MPs; split tiles so every resident
        # block gets work (stage-in of a smaller tile moves less data,
        # so total traffic is unchanged).
        target = max(1, cfg.mp_count * max(1, occ_probe))
        if 0 < len(tiles) < target:
            split = max(1, -(-target // len(tiles)))  # ceil
            new_tiles = []
            for t in tiles:
                if t.count <= 1:
                    new_tiles.append(t)
                    continue
                per = max(1, -(-t.count // split))
                s0 = t.start
                while s0 < t.end:
                    c = min(per, t.end - s0)
                    new_tiles.append(Tile(s0, c))
                    s0 += c
            tiles = new_tiles
    else:
        tiles = plan_tiles_unstaged(n, threads_per_block)

    kcap, vcap, rcap = spec.output_capacity(
        None, payload=inp.payload_bytes, count=n
    )
    out = OutputBuffers.allocate(
        gmem,
        key_capacity=kcap,
        val_capacity=vcap,
        record_capacity=rcap,
        label=f"map_out.{spec.name}.{mode.value}",
    )

    const_addr = 0
    const_data = spec.const_bytes
    if const_data:
        const_addr = gmem.alloc(len(const_data), f"const.{spec.name}")
        gmem.write(const_addr, const_data)

    occ = cfg.blocks_per_mp(threads_per_block, layout.smem_bytes)
    if occ == 0:
        raise FrameworkError("planned layout does not fit on an MP")
    grid = min(len(tiles), cfg.mp_count * occ)
    return MapRuntime(
        spec=spec,
        mode=mode,
        layout=layout,
        inp=inp,
        out=out,
        tiles=tiles,
        grid=max(1, grid),
        yield_sync=yield_sync,
        const_data=const_data,
        const_addr=const_addr,
        key_offs=key_offs,
        key_lens=key_lens,
        val_offs=val_offs,
        val_lens=val_lens,
    )


def launch_map(device: Device, rt: MapRuntime, *, max_cycles: float = float("inf"),
               timeline=None) -> KernelStats:
    """Run the Map phase and return its kernel statistics."""
    return device.launch(
        map_kernel,
        grid=rt.grid,
        block=rt.layout.threads_per_block,
        smem_bytes=rt.layout.smem_bytes,
        args=(rt,),
        uses_texture=rt.mode.uses_texture,
        max_cycles=max_cycles,
        timeline=timeline,
    )


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def map_kernel(ctx: WarpCtx, rt: MapRuntime):
    """One warp of the Map kernel (all modes)."""
    mode = rt.mode
    nw = ctx.warps_per_block
    bs = ctx.block_state

    for t_i in range(ctx.block_id, len(rt.tiles), rt.grid):
        tile = rt.tiles[t_i]
        staged: StagedTile | None = None
        if mode.stages_input:
            staged = yield from stage_in(
                ctx, rt.layout, rt.inp, tile,
                stage_values=rt.spec.stage_values,
                stage_keys=rt.spec.stage_keys,
            )
            yield from ctx.barrier()

        part = partition_warps(n_warps=nw, concurrency=tile.count, mode=mode)

        if mode.stages_output:
            if ctx.warp_id == 0:
                cs = CollectorState(
                    layout=rt.layout,
                    out=rt.out,
                    n_warps=nw,
                    n_compute=len(part.compute_warps),
                    yield_sync=rt.yield_sync,
                )
                init_collector(ctx, cs)
                bs["collector"] = cs
            yield from ctx.barrier()
            cs = bs["collector"]
            if ctx.warp_id in part.compute_warps:
                yield from _compute_rounds(ctx, rt, tile, staged, part, cs)
                # Last compute warp to finish triggers the final flush;
                # the others park with the helpers.
                done = ctx.smem.atomic_add_u32(
                    rt.layout.flags_off + COMPUTE_DONE, 1
                )
                yield AtomicShared(addr=rt.layout.flags_off + COMPUTE_DONE, old=done)
                if done == len(part.compute_warps) - 1:
                    yield from request_final_flush(ctx, cs)
                else:
                    yield from wait_loop(ctx, cs)
            else:
                yield from wait_loop(ctx, cs)
            yield from ctx.barrier()
        else:
            if ctx.warp_id in part.compute_warps:
                yield from _compute_rounds(ctx, rt, tile, staged, part, None)
            yield from ctx.barrier()


def _compute_rounds(
    ctx: WarpCtx,
    rt: MapRuntime,
    tile: Tile,
    staged: StagedTile | None,
    part,
    cs: CollectorState | None,
):
    """Process the tile's records, 32 per warp per round."""
    spec = rt.spec
    nc = len(part.compute_warps)
    my = part.compute_warps.index(ctx.warp_id)
    r = 0
    while True:
        base_rec = tile.start + (r * nc + my) * WARP_SIZE
        if base_rec >= tile.end:
            break
        recs = list(range(base_rec, min(base_rec + WARP_SIZE, tile.end)))

        # --- 1. directory reads -------------------------------------------
        yield from _charge_dir_reads(ctx, rt, staged, recs)

        # --- 2. run the user Map function eagerly -------------------------
        key_traces: list[AccessTrace] = []
        val_traces: list[AccessTrace] = []
        const_traces: list[AccessTrace] = []
        emissions: list[list[tuple[bytes, bytes]]] = []
        for rec in recs:
            key_acc = Accessor(rt.record_key(rec))
            val_acc = Accessor(rt.record_val(rec))
            const_acc = Accessor(rt.const_data) if rt.const_data else None
            lane_out: list[tuple[bytes, bytes]] = []
            emit = collecting_emit(lane_out)
            spec.map_record(key_acc, val_acc, emit, const_acc)
            key_traces.append(key_acc.trace)
            val_traces.append(val_acc.trace)
            const_traces.append(const_acc.trace if const_acc else AccessTrace())
            emissions.append(lane_out)

        # --- 3. replay input access traces --------------------------------
        yield from _replay(
            ctx, rt, staged, recs, key_traces, which="key"
        )
        yield from _replay(
            ctx, rt, staged, recs, val_traces, which="val"
        )
        if rt.const_data:
            yield from _replay_const(ctx, rt, const_traces)

        # --- 4. ALU cost ----------------------------------------------------
        max_steps = max(
            (len(k) + len(v) + len(c))
            for k, v, c in zip(key_traces, val_traces, const_traces)
        )
        yield Compute(
            cycles=spec.cycles_per_record + spec.cycles_per_access * max_steps
        )

        # --- 5. result collection, one warp result per emission layer -----
        layers = max((len(e) for e in emissions), default=0)
        for j in range(layers):
            pairs = [e[j] for e in emissions if len(e) > j]
            keys = [p[0] for p in pairs]
            vals = [p[1] for p in pairs]
            if cs is not None:
                yield from collect_warp_result(ctx, cs, keys, vals)
            else:
                yield from direct_emit_warp(ctx, rt.out, keys, vals)
        r += 1


# ----------------------------------------------------------------------
# Access replay
# ----------------------------------------------------------------------


def _charge_dir_reads(
    ctx: WarpCtx, rt: MapRuntime, staged: StagedTile | None, recs: Sequence[int]
):
    """Each lane reads its record's two directory entries."""
    if staged is not None:
        yield SharedRead(nbytes=2 * DIR_ENTRY * len(recs))
        return
    if not rt.mode.uses_texture and ctx.can_elide_gmem_addrs:
        yield dir_read_op(ctx, rt.inp.key_dir_addr, recs[0], len(recs))
        yield dir_read_op(ctx, rt.inp.val_dir_addr, recs[0], len(recs))
        return
    key_dir = [(rt.inp.key_dir_addr + DIR_ENTRY * r, DIR_ENTRY) for r in recs]
    val_dir = [(rt.inp.val_dir_addr + DIR_ENTRY * r, DIR_ENTRY) for r in recs]
    if rt.mode.uses_texture:
        yield from ctx.tex_touch(key_dir)
        yield from ctx.tex_touch(val_dir)
    else:
        yield from ctx.gtouch_read(key_dir)
        yield from ctx.gtouch_read(val_dir)


def _replay(
    ctx: WarpCtx,
    rt: MapRuntime,
    staged: StagedTile | None,
    recs: Sequence[int],
    traces: Sequence[AccessTrace],
    *,
    which: str,
):
    """Replay per-lane record access traces in SIMT lockstep."""
    if which == "key":
        offs, g_base = rt.key_offs, rt.inp.keys_addr
        delta = staged.key_delta if staged else 0
        in_smem = staged is not None and rt.spec.stage_keys
    else:
        offs, g_base = rt.val_offs, rt.inp.vals_addr
        delta = staged.val_delta if staged else 0
        in_smem = staged is not None and rt.spec.stage_values

    if in_smem:
        base = delta + g_base
        bases = [base + int(offs[r]) for r in recs]
        yield from _smem_replay_plan(traces, bases)
    else:
        bases = [g_base + int(offs[r]) for r in recs]
        if rt.mode.uses_texture:
            steps = chunk_steps(
                lockstep_accesses(traces, bases),
                ctx.timing.memory_parallelism,
            )
            for step in steps:
                yield from ctx.tex_touch(step)
        else:
            yield from _replay_gmem_steps(ctx, traces, bases)


def _replay_const(ctx: WarpCtx, rt: MapRuntime, traces: Sequence[AccessTrace]):
    """Constant-region accesses always come from global (or texture)."""
    bases = [rt.const_addr] * len(traces)
    if rt.mode.uses_texture:
        steps = chunk_steps(
            lockstep_accesses(traces, bases), ctx.timing.memory_parallelism
        )
        for step in steps:
            yield from ctx.tex_touch(step)
    else:
        yield from _replay_gmem_steps(ctx, traces, bases)
