"""The fast backend's batched path: selection, batching, fallback, parity.

Covers what the cross-backend differential matrix does not: that the
path follows from the spec alone (batch kernels run whenever the spec
ships ``map_batch``; kernel-less specs never round-trip through
columns; ``"columnar"`` is only an alias of ``"fast"``), the
batch-kernel decline contract (None -> per-batch record-loop
fallback), kernels that exist on only one side (batch Map + scalar
Reduce and vice versa), the batch width, streamed, Mars and sharded
jobs, and the observability counters (KernelStats extras + ledger
fields).  Parity is always against the same spec with its kernels
stripped, which keeps the record loop reachable.
"""

import dataclasses

import pytest

from repro.backend import (
    BACKENDS,
    DistributedBackend,
    FastBackend,
    ParallelBackend,
    get_backend,
)
from repro.errors import FrameworkError
from repro.framework import ReduceStrategy, run_job, run_streamed_job
from repro.framework.api import MapReduceSpec
from repro.framework.columns import ColumnBatch
from repro.framework.records import KeyValueSet
from repro.gpu.accessor import host_accessor
from repro.workloads import Histogram, KMeans, WordCount
from repro.workloads.wordcount import wc_map, wc_map_batch

BATCH_RECORDS = "repro.backend.fast.BATCH_RECORDS"


def _ident(key, value, emit, const):
    emit(key.to_bytes(), value.to_bytes())


def _count(key, values, emit, const):
    emit(key.to_bytes(), len(values).to_bytes(4, "little"))


def _decline(cols, *, const=None):
    return None  # every batch takes the record-loop fallback


def _scalar(spec):
    """The same spec with its batch kernels stripped: the record loop."""
    return dataclasses.replace(spec, map_batch=None, reduce_batch=None)


def _inp(n=100, keys=5):
    out = KeyValueSet()
    for i in range(n):
        out.append(b"k%02d" % (i % keys), i.to_bytes(4, "little"))
    return out


class TestSelection:
    def test_registry_has_columnar(self):
        """``"columnar"`` survives only as an alias of ``"fast"``."""
        assert BACKENDS["columnar"] is FastBackend
        be = get_backend("columnar")
        assert type(be) is FastBackend and be.name == "fast"

    def test_kernel_less_spec_skips_columns(self):
        """No ``map_batch``: the record loop and the dict group-by, with
        no round trip through columns in any phase."""
        maponly = run_job(MapReduceSpec(name="t", map_record=_ident),
                          _inp(), backend="fast")
        assert "columnar_batches" not in maponly.map_stats.extra
        spec = MapReduceSpec(name="t", map_record=_ident,
                             reduce_record=_count)
        res = run_job(spec, _inp(), strategy=ReduceStrategy.TR,
                      backend="fast")
        assert "columnar_batches" not in res.map_stats.extra
        assert "columnar_groups" not in res.reduce_stats.extra

    def test_plain_fast_runs_wordcount_kernels(self):
        wl = WordCount()
        inp = wl.generate("small", seed=1, scale=0.2)
        res = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                      backend="fast")
        extra = res.map_stats.extra
        assert extra["columnar_batches"] >= 1
        assert extra["columnar_map_vectorized"] == extra["columnar_batches"]
        assert res.reduce_stats.extra["columnar_reduce_vectorized"] == 1

    def test_batch_width_splits_batches(self, monkeypatch):
        monkeypatch.setattr(BATCH_RECORDS, 16)
        spec = MapReduceSpec(name="t", map_record=_ident,
                             reduce_record=_count, map_batch=_decline)
        res = run_job(spec, _inp(100), strategy=ReduceStrategy.TR,
                      backend="fast")
        assert res.map_stats.extra["columnar_batches"] == 7  # ceil(100/16)
        scalar = run_job(_scalar(spec), _inp(100),
                         strategy=ReduceStrategy.TR, backend="fast")
        assert res.output == scalar.output


class TestBatchKernelContract:
    def test_map_batch_only_with_scalar_reduce(self):
        """Regression: a spec with map_batch but no reduce_batch mixes
        the vectorized Map with the scalar Reduce loop over
        GroupedColumns — this seam once had no direct coverage."""

        def map_batch(cols, *, const=None):
            return cols  # identity, columnar

        spec = MapReduceSpec(name="mixed", map_record=_ident,
                             reduce_record=_count, map_batch=map_batch)
        inp = _inp(200)
        col = run_job(spec, inp, strategy=ReduceStrategy.TR,
                      backend="fast")
        scalar = run_job(_scalar(spec), inp, strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_vectorized"] >= 1
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 0

    def test_reduce_batch_only_with_scalar_map(self):
        """WordCount's Reduce kernel behind a Map that declines every
        batch: the record loop feeds ragged keys into columns, Reduce
        runs the batch kernel over the grouped columns."""
        wl = WordCount()
        inp = wl.generate("small", seed=2, scale=0.2)
        spec = dataclasses.replace(wl.spec(), map_batch=_decline)
        col = run_job(spec, inp, strategy=ReduceStrategy.TR,
                      backend="fast")
        scalar = run_job(_scalar(spec), inp, strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_vectorized"] == 0
        assert col.map_stats.extra["columnar_map_fallback"] >= 1
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 1

    def test_declining_map_batch_falls_back_per_batch(self, monkeypatch):
        monkeypatch.setattr(BATCH_RECORDS, 10)
        calls = []

        def map_batch(cols, *, const=None):
            calls.append(len(cols))
            if len(calls) % 2:
                return None  # decline odd batches
            return cols

        spec = MapReduceSpec(name="decline", map_record=_ident,
                             reduce_record=_count, map_batch=map_batch)
        inp = _inp(40)
        col = run_job(spec, inp, strategy=ReduceStrategy.TR,
                      backend="fast")
        scalar = run_job(_scalar(spec), inp, strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_vectorized"] == 2
        assert col.map_stats.extra["columnar_map_fallback"] == 2

    def test_declining_reduce_batch_falls_back(self):
        def reduce_batch(keys, offsets, values, *, const=None):
            return None

        spec = MapReduceSpec(name="rdecline", map_record=_ident,
                             reduce_record=_count, map_batch=_decline,
                             reduce_batch=reduce_batch)
        col = run_job(spec, _inp(50), strategy=ReduceStrategy.TR,
                      backend="fast")
        scalar = run_job(_scalar(spec), _inp(50),
                         strategy=ReduceStrategy.TR, backend="fast")
        assert col.output == scalar.output
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 0

    def test_bad_map_batch_return_type_rejected(self):
        spec = MapReduceSpec(name="bad", map_record=_ident,
                             map_batch=lambda cols, *, const=None: [1, 2])
        with pytest.raises(FrameworkError, match="map_batch"):
            run_job(spec, _inp(4), backend="fast")

    def test_bad_reduce_batch_return_type_rejected(self):
        spec = MapReduceSpec(
            name="bad", map_record=_ident, reduce_record=_count,
            map_batch=_decline,
            reduce_batch=lambda k, o, v, *, const=None: "nope",
        )
        with pytest.raises(FrameworkError, match="reduce_batch"):
            run_job(spec, _inp(4), strategy=ReduceStrategy.TR,
                    backend="fast")

    def test_reduce_batch_not_used_for_br(self):
        """BR folds stay scalar by contract even when a batch Reduce
        kernel exists — combine/finalize semantics differ from TR."""
        wl = Histogram()
        inp = wl.generate("small", seed=1, scale=0.2)
        col = run_job(wl.spec(), inp, strategy=ReduceStrategy.BR,
                      backend="fast")
        scalar = run_job(_scalar(wl.spec()), inp,
                         strategy=ReduceStrategy.BR, backend="fast")
        assert col.output == scalar.output
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 0


def _wc_map_scalar(lines):
    """The scalar Map's emissions, the reference for the batch kernel."""
    keys, vals = [], []

    def emit(k, v):
        keys.append(k)
        vals.append(v)

    for line in lines:
        wc_map(host_accessor(line), host_accessor(b""), emit, None)
    return keys, vals


class TestWordCountBatchMap:
    CASES = {
        "plain": [b"the cat sat", b"on the mat"],
        "edge_spaces": [b"  lead", b"trail  ", b"a  b   c", b" x "],
        "empty_lines": [b"", b"one", b"", b"", b"two words", b""],
        "all_space_lines": [b"   ", b" ", b"a b", b"    "],
        "no_words": [b"", b"  ", b" ", b""],
        "no_lines": [],
        "non_space_bytes": [b"a\tb c", b"\x00 \x00\x00", b"\xff\xfe x",
                            b"\t \n", b"caf\xc3\xa9 \xff"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_scalar_map(self, name):
        lines = self.CASES[name]
        cols = ColumnBatch.from_lists(
            lines, [i.to_bytes(4, "little") for i in range(len(lines))])
        out = wc_map_batch(cols)
        want_keys, want_vals = _wc_map_scalar(lines)
        assert out.keys.tolist() == want_keys
        assert out.values.tolist() == want_vals

    def test_batch_boundaries_mid_input(self, monkeypatch):
        monkeypatch.setattr(BATCH_RECORDS, 7)
        wl = WordCount()
        inp = wl.generate("small", seed=3, scale=0.2)
        col = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                      backend="fast")
        scalar = run_job(_scalar(wl.spec()), inp,
                         strategy=ReduceStrategy.TR, backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_batches"] == -(-len(inp) // 7)

    def test_medium_map_fully_vectorized(self):
        wl = WordCount()
        inp = wl.generate("medium", seed=0)
        res = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                      backend="fast")
        extra = res.map_stats.extra
        assert extra["columnar_map_fallback"] == 0
        assert extra["columnar_map_vectorized"] == extra["columnar_batches"]
        assert extra["columnar_batches"] >= 1


class TestJobShapes:
    def test_map_only_job(self):
        spec = MapReduceSpec(name="maponly", map_record=_ident,
                             map_batch=_decline)
        col = run_job(spec, _inp(60), backend="fast")
        scalar = run_job(_scalar(spec), _inp(60), backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_fallback"] == 1

    def test_streamed_job_columnar_tail(self):
        """Streamed batches keep the record loop even when the spec
        ships kernels."""
        wl = WordCount()
        inp = wl.generate("small", seed=4, scale=0.2)
        col = run_streamed_job(wl.spec(), inp, n_batches=3,
                               strategy=ReduceStrategy.TR, backend="fast")
        scalar = run_streamed_job(_scalar(wl.spec()), inp, n_batches=3,
                                  strategy=ReduceStrategy.TR,
                                  backend="fast")
        assert col.job.output == scalar.job.output

    def test_mars_job_columnar(self):
        from repro.mars.framework import run_mars_job

        wl = KMeans()
        inp = wl.generate("small", seed=6)
        spec = wl.spec_for_seed(6)
        col = run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                           backend="fast")
        scalar = run_mars_job(_scalar(spec), inp,
                              strategy=ReduceStrategy.TR, backend="fast")
        assert col.output == scalar.output
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 1

    def test_parallel_backend_stays_scalar(self):
        """Sharded workers run the record loop: the merged Map output
        is a record set, grouped by the dict shuffle."""
        wl = WordCount()
        inp = wl.generate("small", seed=5, scale=0.2)
        par = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                      backend=ParallelBackend(workers=2, min_records=0))
        scalar = run_job(_scalar(wl.spec()), inp,
                         strategy=ReduceStrategy.TR, backend="fast")
        assert par.output == scalar.output
        assert "columnar_batches" not in par.map_stats.extra

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ParallelBackend(workers=2), id="parallel"),
        pytest.param(lambda: DistributedBackend(workers=2), id="dist"),
    ])
    @pytest.mark.parametrize("strategy", [None, ReduceStrategy.TR])
    def test_sharded_in_process_runs_kernels(self, make, strategy):
        """Below ``min_records`` a sharded backend runs the job on its
        inner fast backend, batch kernels and column handles included."""
        wl = KMeans()
        inp = wl.generate("small", seed=7)
        spec = wl.spec_for_seed(7)
        res = run_job(spec, inp, strategy=strategy, backend=make())
        scalar = run_job(_scalar(spec), inp, strategy=strategy,
                         backend="fast")
        assert res.output == scalar.output
        assert res.intermediate_count == scalar.intermediate_count
        assert res.map_stats.extra["columnar_map_vectorized"] >= 1


class TestLedgerColumns:
    def test_ledger_records_columnar_counters(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        wl = KMeans()
        inp = wl.generate("small", seed=3)
        spec = wl.spec_for_seed(3)
        run_job(spec, inp, strategy=ReduceStrategy.TR, backend="fast")
        lines = (tmp_path / "runs.jsonl").read_text().splitlines()
        rec = json.loads(lines[-1])
        assert rec["columnar_batches"] >= 1
        assert rec["columnar_map_vectorized"] >= 1
        assert rec["columnar_reduce_vectorized"] == 1
        # A record-loop run leaves the columnar fields null.
        run_job(_scalar(spec), inp, strategy=ReduceStrategy.TR,
                backend="fast")
        rec2 = json.loads(
            (tmp_path / "runs.jsonl").read_text().splitlines()[-1]
        )
        assert rec2["columnar_batches"] is None


class TestWorkerCountValidation:
    def test_parallel_n_rejects_bad_counts(self):
        for bad in ("parallel:0", "parallel:-2", "parallel:two",
                    "parallel:"):
            with pytest.raises(FrameworkError):
                get_backend(bad)
        assert get_backend("parallel:3").workers == 3

    def test_workers_env_rejects_bad_values(self, monkeypatch):
        from repro.backend.parallel import default_workers

        for bad in ("0", "-1", "abc", "1.5"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(FrameworkError):
                default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4
