"""DistributedBackend plumbing: registry, env wiring, split sizing,
FaultPlan units, telemetry, and the close()-reaps-everything contract."""

import multiprocessing
import os

import pytest

from repro.backend import (
    BACKENDS,
    DistributedBackend,
    ParallelBackend,
    get_backend,
)
from repro.backend.distributed import (
    DEFAULT_SPLIT_BYTES,
    SPLIT_BYTES_ENV,
    resolve_split_bytes,
)
from repro.dist import Cluster, FaultPlan, WorkerFault
from repro.dist import worker as worker_mod
from repro.dist.wire import MAX_FRAME, encode
from repro.errors import FrameworkError
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.framework.api import MapReduceSpec
from repro.framework.records import KeyValueSet
from repro.gpu import DeviceConfig

CFG = DeviceConfig.small(2)


def _ident_spec(reduce_fn=None):
    def ident(key, value, emit, const):
        emit(key.to_bytes(), value.to_bytes())

    return MapReduceSpec(name="ident", map_record=ident,
                         reduce_record=reduce_fn)


def _count_spec():
    def tokens(key, value, emit, const):
        for tok in value.to_bytes().split():
            emit(tok, b"\x01")

    def count(key, values, emit, const):
        emit(key.to_bytes(), len(values).to_bytes(4, "little"))

    return MapReduceSpec(name="count", map_record=tokens,
                         reduce_record=count)


def _words(n=120):
    inp = KeyValueSet()
    for i in range(n):
        inp.append(i.to_bytes(4, "little"),
                   f"alpha beta w{i % 7} gamma".encode())
    return inp


class TestRegistryAndEnv:
    def test_dist_registered(self):
        assert "dist" in BACKENDS
        assert isinstance(get_backend("dist"), DistributedBackend)

    def test_dist_n_pins_workers(self):
        b = get_backend("dist:3")
        assert isinstance(b, DistributedBackend)
        assert b.workers == 3

    def test_dist_bad_counts_rejected(self):
        with pytest.raises(FrameworkError):
            get_backend("dist:0")
        with pytest.raises(FrameworkError):
            get_backend("dist:x")
        with pytest.raises(FrameworkError):
            DistributedBackend(workers=0)

    def test_env_selects_dist(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "dist:2")
        b = get_backend(None)
        assert isinstance(b, DistributedBackend)
        assert b.workers == 2

    def test_split_bytes_env(self, monkeypatch):
        monkeypatch.delenv(SPLIT_BYTES_ENV, raising=False)
        assert resolve_split_bytes() == DEFAULT_SPLIT_BYTES
        monkeypatch.setenv(SPLIT_BYTES_ENV, "4096")
        assert resolve_split_bytes() == 4096
        assert DistributedBackend(workers=2).split_bytes == 4096
        monkeypatch.setenv(SPLIT_BYTES_ENV, "bogus")
        with pytest.raises(FrameworkError):
            resolve_split_bytes()
        monkeypatch.setenv(SPLIT_BYTES_ENV, "0")
        with pytest.raises(FrameworkError):
            resolve_split_bytes()


class TestFaultPlanUnits:
    def test_compose_and_query(self):
        plan = FaultPlan.kill(0, 5) + FaultPlan.delay(1, 0.5, shard=2)
        assert bool(plan)
        assert len(plan.faults) == 2
        assert plan.for_worker(0)[0].kind == "kill"
        assert plan.for_worker(1)[0].kind == "delay"
        assert plan.for_worker(9) == ()
        assert not FaultPlan.none()

    def test_seeded_is_deterministic(self):
        a, b = FaultPlan.seeded(42), FaultPlan.seeded(42)
        assert a == b
        assert a.faults[0].kind == "kill"
        assert 0 <= a.faults[0].worker < 2
        assert a.faults[0].after_records >= 1
        # Different seeds eventually differ.
        assert any(FaultPlan.seeded(s) != a for s in range(20))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkerFault(worker=0, kind="explode")

    def test_wire_round_trip(self):
        f = WorkerFault(worker=1, kind="delay", seconds=0.25, shard=3,
                        phase="map")
        assert WorkerFault.from_wire(f.to_wire()) == f

    def test_describe(self):
        docs = (FaultPlan.kill(1, 7) + FaultPlan.drop(0, 3)).describe()
        assert [d["kind"] for d in docs] == ["kill", "drop"]


class TestSplitSizing:
    def test_splits_cover_and_respect_limit(self):
        inp = KeyValueSet()
        for i in range(40):
            inp.append(b"k" * 4, b"v" * 12)  # record_cost = 32 each
        b = DistributedBackend(workers=2, split_bytes=100)
        slices = b._split_slices(inp)
        # Contiguous cover of [0, 40).
        assert slices[0][0] == 0 and slices[-1][1] == 40
        for (_, hi), (lo2, _) in zip(slices, slices[1:]):
            assert hi == lo2
        # 32 bytes/record under a 100-byte limit -> 3 records per split.
        assert all(hi - lo <= 3 for lo, hi in slices)
        assert len(slices) == 14

    def test_oversized_record_gets_own_split(self):
        inp = KeyValueSet()
        inp.append(b"a", b"x" * 500)
        inp.append(b"b", b"y")
        b = DistributedBackend(workers=2, split_bytes=64)
        assert b._split_slices(inp) == [(0, 1), (1, 2)]

    def test_empty_input(self):
        b = DistributedBackend(workers=2)
        assert b._split_slices(KeyValueSet()) == [(0, 0)]


class TestExecutionPlumbing:
    kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                  config=CFG, threads_per_block=64)

    def test_matches_fast_and_reports_telemetry(self):
        spec, inp = _count_spec(), _words()
        fast = run_job(spec, inp, backend="fast", **self.kwargs)
        b = DistributedBackend(workers=2, min_records=0, split_bytes=512)
        dist = run_job(spec, inp, backend=b, **self.kwargs)
        assert dist.output == fast.output
        assert dist.worker_profiles, "dist run must ship shard profiles"
        phases = {p.phase for p in dist.worker_profiles}
        assert phases == {"map", "reduce"}
        assert dist.straggler is not None
        assert dist.map_stats.extra["dist_tasks"] >= 2
        assert dist.reduce_stats.extra["dist_tasks"] >= 1
        assert b.last_counters["map_tasks"] >= 2

    def test_min_records_fallback_runs_in_process(self):
        spec, inp = _count_spec(), _words(20)
        fast = run_job(spec, inp, backend="fast", **self.kwargs)
        b = DistributedBackend(workers=2)  # default min_records = 2048
        dist = run_job(spec, inp, backend=b, **self.kwargs)
        assert dist.output == fast.output
        assert b.last_counters == {}  # no cluster was ever started
        assert dist.map_stats.extra.get("dist_tasks") is None

    def test_ledger_records_dist(self, tmp_path, monkeypatch):
        from repro.obs.ledger import LEDGER_NAME, read_ledger

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        b = DistributedBackend(workers=2, min_records=0)
        run_job(_count_spec(), _words(), backend=b, **self.kwargs)
        recs = read_ledger(str(tmp_path / "ledger" / LEDGER_NAME))
        assert recs and recs[-1]["backend"] == "dist"
        assert recs[-1]["workers"] == 2


#: Both transports of the sharded executor, forced onto their workers.
SHARDED = [
    pytest.param(lambda: DistributedBackend(workers=2, min_records=0),
                 id="dist"),
    pytest.param(lambda: ParallelBackend(workers=2, min_records=0),
                 id="parallel"),
]

#: What a raising user kernel surfaces as: dist reports the worker's
#: error as a FrameworkError, the pool re-raises the original.
KERNEL_ERROR = {"dist": FrameworkError, "parallel": ValueError}


class TestCloseReapsEverything:
    """``backend.close()`` must reap worker processes, sockets, pipes
    and spill directories on *every* exit path, including a raising
    kernel — on both transports."""

    kwargs = dict(mode=MemoryMode.SIO, strategy=None, config=CFG,
                  threads_per_block=64)

    @staticmethod
    def _fd_count():
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.parametrize("make_backend", SHARDED)
    def test_raising_kernel_leaves_no_orphans_or_fds(self, make_backend):
        def boom(key, value, emit, const):
            raise ValueError("scripted kernel failure")

        spec = MapReduceSpec(name="boom", map_record=boom)
        inp = _words()
        fd_before = self._fd_count()
        b = make_backend()
        with pytest.raises(KERNEL_ERROR[b.name], match="scripted kernel"):
            run_job(spec, inp, backend=b, **self.kwargs)
        # Every worker process reaped (active_children() also joins).
        assert multiprocessing.active_children() == []
        # Every socket and pipe released.
        assert self._fd_count() <= fd_before

    @pytest.mark.parametrize("make_backend", SHARDED)
    def test_clean_run_leaves_no_orphans_or_fds(self, make_backend):
        fd_before = self._fd_count()
        b = make_backend()
        run_job(_ident_spec(), _words(), backend=b, **self.kwargs)
        assert multiprocessing.active_children() == []
        assert self._fd_count() <= fd_before

    @pytest.mark.parametrize("make_backend", SHARDED)
    @pytest.mark.parametrize("fail", [False, True],
                             ids=["clean", "raising-reduce"])
    def test_spill_root_left_empty(self, make_backend, fail, tmp_path,
                                   monkeypatch):
        def count(key, values, emit, const):
            if fail:
                raise ValueError("scripted reduce failure")
            emit(key.to_bytes(), len(values).to_bytes(4, "little"))

        spill_root = tmp_path / "spill"
        spill_root.mkdir()
        monkeypatch.setenv("REPRO_SPILL_DIR", str(spill_root))
        spec = MapReduceSpec(name="count",
                             map_record=_count_spec().map_record,
                             reduce_record=count)
        b = make_backend()
        kwargs = dict(self.kwargs, strategy=ReduceStrategy.TR,
                      store="spill", memory_budget=256)
        if fail:
            with pytest.raises(KERNEL_ERROR[b.name],
                               match="scripted reduce"):
                run_job(spec, _words(), backend=b, **kwargs)
        else:
            res = run_job(spec, _words(), backend=b, **kwargs)
            assert res.reduce_stats.extra.get("spill_runs", 0) > 0
        assert multiprocessing.active_children() == []
        assert list(spill_root.iterdir()) == []

    def test_worker_death_still_reaps(self):
        fd_before = self._fd_count()
        b = DistributedBackend(workers=2, min_records=0,
                               fault_plan=FaultPlan.kill(0, 10))
        run_job(_ident_spec(), _words(), backend=b, **self.kwargs)
        assert multiprocessing.active_children() == []
        assert self._fd_count() <= fd_before
        assert b.last_counters["worker_deaths"] == 1


def _truncated_frame(msg) -> bytes:
    """A frame whose length prefix is honest but whose record sections
    are one byte short of what the header promises."""
    frame = encode(msg)[:-1]
    return (len(frame) - 4).to_bytes(4, "big") + frame[4:]


def _oversized_prefix(msg) -> bytes:
    return (MAX_FRAME + 1).to_bytes(4, "big")


class TestMalformedWorkerFrames:
    """A worker whose reply does not parse fails the phase with a
    FrameworkError naming that worker — never a raw ConnectionClosed."""

    @pytest.mark.parametrize("corrupt", [_truncated_frame, _oversized_prefix],
                             ids=["truncated-sections", "bad-length-prefix"])
    def test_corrupt_reply_names_the_worker(self, monkeypatch, corrupt):
        real_send = worker_mod.send_msg

        def corrupt_results(sock, msg):
            if msg.get("type") == "result":
                sock.sendall(corrupt(msg))
            else:
                real_send(sock, msg)

        # Patched before start(): the forked workers inherit it.
        monkeypatch.setattr(worker_mod, "send_msg", corrupt_results)
        cluster = Cluster(1)
        cluster.start(_ident_spec(), None, False)
        try:
            with pytest.raises(FrameworkError,
                               match="worker 0 sent a malformed frame"):
                cluster.run_phase(
                    "map", [(0, {"pairs": KeyValueSet([(b"k", b"v")])})])
        finally:
            cluster.shutdown()
        assert multiprocessing.active_children() == []
