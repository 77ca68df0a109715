"""One emit contract on every executor.

User Map/Reduce functions may emit ``bytes`` or ``bytearray`` keys and
values (a ``bytearray`` is copied, so mutating it afterwards cannot
change the output); anything else fails the job with "keys and values
must be bytes" — on the simulator as on the host executors, on the
shared engine as on the Mars baseline (count and write passes alike),
from Map as from Reduce.
"""

from dataclasses import replace

import pytest

from repro.backend import DistributedBackend, ParallelBackend
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.framework.api import MapReduceSpec
from repro.framework.records import KeyValueSet
from repro.gpu import DeviceConfig
from repro.mars.framework import run_mars_job

CFG = DeviceConfig.small(1)
MESSAGE = "keys and values must be bytes"


def _decline(cols, *, const=None):
    return None


def _shared(backend):
    def run(spec, strategy):
        return run_job(spec, _input(), mode=MemoryMode.SIO,
                       strategy=strategy, config=CFG, threads_per_block=64,
                       backend=backend())
    return run


def _batched(spec, strategy):
    """The fast backend's batched path: a ``map_batch`` that declines
    every batch sends the record loop's emits into columns."""
    return _shared(lambda: "fast")(replace(spec, map_batch=_decline),
                                   strategy)


def _mars(backend):
    def run(spec, strategy):
        return run_mars_job(spec, _input(), strategy=strategy, config=CFG,
                            threads_per_block=64, backend=backend)
    return run


EXECUTORS = [
    pytest.param(_shared(lambda: "sim"), id="sim"),
    pytest.param(_shared(lambda: "fast"), id="fast"),
    pytest.param(_batched, id="columnar"),
    pytest.param(_shared(lambda: ParallelBackend(workers=2, min_records=0)),
                 id="parallel"),
    pytest.param(_shared(lambda: DistributedBackend(workers=2,
                                                    min_records=0)),
                 id="dist"),
    pytest.param(_mars("sim"), id="mars-sim"),
    pytest.param(_mars("fast"), id="mars-fast"),
]

BAD_EMITS = [
    pytest.param(lambda k, v: (k, 5), id="int-value"),
    pytest.param(lambda k, v: ("key", v), id="str-key"),
    pytest.param(lambda k, v: (memoryview(k), v), id="memoryview-key"),
]


def _input(n=64):
    inp = KeyValueSet()
    for i in range(n):
        inp.append(i.to_bytes(4, "little"), (i % 8).to_bytes(4, "little"))
    return inp


def _ident(key, value, emit, const):
    emit(key.to_bytes(), value.to_bytes())


def _messages(exc):
    while exc is not None:
        yield str(exc)
        exc = exc.__cause__


@pytest.mark.parametrize("run", EXECUTORS)
@pytest.mark.parametrize("bad", BAD_EMITS)
class TestRejected:
    def test_from_map(self, run, bad):
        def m(key, value, emit, const):
            emit(*bad(key.to_bytes(), value.to_bytes()))

        spec = MapReduceSpec(name="bad_map", map_record=m)
        with pytest.raises(Exception) as info:
            run(spec, None)
        assert any(MESSAGE in msg for msg in _messages(info.value))

    def test_from_reduce(self, run, bad):
        def r(key, values, emit, const):
            emit(*bad(key.to_bytes(), values[0].to_bytes()))

        spec = MapReduceSpec(name="bad_reduce", map_record=_ident,
                             reduce_record=r)
        with pytest.raises(Exception) as info:
            run(spec, ReduceStrategy.TR)
        assert any(MESSAGE in msg for msg in _messages(info.value))


@pytest.mark.parametrize("run", EXECUTORS)
class TestBytearrayCopied:
    def test_from_map(self, run):
        def m(key, value, emit, const):
            buf = bytearray(value.to_bytes())
            emit(bytearray(key.to_bytes()), buf)
            buf[:] = b"XXXX"  # must not reach the output

        spec = MapReduceSpec(name="ba_map", map_record=m)
        res = run(spec, None)
        assert sorted(res.output) == sorted(_input())
        assert all(type(k) is bytes and type(v) is bytes
                   for k, v in res.output)

    def test_from_reduce(self, run):
        def r(key, values, emit, const):
            buf = bytearray(len(values).to_bytes(4, "little"))
            emit(bytearray(key.to_bytes()), buf)
            buf[:] = b"XXXX"

        spec = MapReduceSpec(name="ba_reduce", map_record=_ident,
                             reduce_record=r)
        res = run(spec, ReduceStrategy.TR)
        want = [(k, (1).to_bytes(4, "little")) for k in _input().keys]
        assert sorted(res.output) == want
        assert all(type(k) is bytes and type(v) is bytes
                   for k, v in res.output)
