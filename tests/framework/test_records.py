"""Tests for record sets, device images, and output buffers."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameworkError
from repro.framework.records import (
    DIR_PER_RECORD,
    DeviceRecordSet,
    KeyValueSet,
    OutputBuffers,
)
from repro.gpu.memory import GlobalMemory

records_strategy = st.lists(
    st.tuples(st.binary(min_size=0, max_size=40), st.binary(min_size=0, max_size=40)),
    min_size=1,
    max_size=50,
)


class TestKeyValueSet:
    def test_append_and_iterate(self):
        kvs = KeyValueSet([(b"a", b"1"), (b"bb", b"22")])
        assert len(kvs) == 2
        assert list(kvs) == [(b"a", b"1"), (b"bb", b"22")]
        assert kvs[1] == (b"bb", b"22")

    def test_rejects_non_bytes(self):
        kvs = KeyValueSet()
        with pytest.raises(FrameworkError):
            kvs.append("str", b"x")
        with pytest.raises(FrameworkError):
            kvs.append(b"x", 42)

    def test_byte_totals(self):
        kvs = KeyValueSet([(b"abc", b"de"), (b"", b"fgh")])
        assert kvs.key_bytes == 3
        assert kvs.val_bytes == 5
        assert kvs.total_bytes == 8 + 2 * DIR_PER_RECORD

    def test_sorted_by_key(self):
        kvs = KeyValueSet([(b"z", b"1"), (b"a", b"2"), (b"m", b"3")])
        assert [k for k, _ in kvs.sorted_by_key()] == [b"a", b"m", b"z"]

    def test_record_stats(self):
        kvs = KeyValueSet([(b"ab", b"x"), (b"abcd", b"xyz")])
        s = kvs.record_stats()
        assert s["key_mean"] == 3.0
        assert s["val_mean"] == 2.0

    def test_equality(self):
        a = KeyValueSet([(b"k", b"v")])
        b = KeyValueSet([(b"k", b"v")])
        assert a == b
        b.append(b"x", b"y")
        assert a != b

    def test_from_lists_adopts_columns(self):
        keys, vals = [b"a", b""], [b"\x00", b"\xff"]
        kvs = KeyValueSet.from_lists(keys, vals)
        assert list(kvs) == [(b"a", b"\x00"), (b"", b"\xff")]
        assert kvs.keys is keys and kvs.values is vals

    def test_from_lists_rejects_ragged_columns(self):
        with pytest.raises(FrameworkError):
            KeyValueSet.from_lists([b"a", b"b"], [b"1"])

    def test_extend_appends_in_order(self):
        out = KeyValueSet([(b"a", b"1")])
        out.extend(KeyValueSet([(b"b", b"2"), (b"a", b"3")]))
        out.extend(KeyValueSet())
        assert list(out) == [(b"a", b"1"), (b"b", b"2"), (b"a", b"3")]

    def test_extend_leaves_source_untouched(self):
        src = KeyValueSet([(b"k", b"v")])
        out = KeyValueSet()
        out.extend(src)
        out.append(b"x", b"y")
        assert list(src) == [(b"k", b"v")]

    @given(records_strategy)
    @settings(max_examples=30, deadline=None)
    def test_pickle_round_trip(self, records):
        # The pool transport ships task payloads and results pickled.
        kvs = KeyValueSet(records)
        back = pickle.loads(pickle.dumps(kvs))
        assert back == kvs
        assert all(type(k) is bytes for k in back.keys)
        assert all(type(v) is bytes for v in back.values)


class TestDeviceRecordSet:
    def test_upload_download_roundtrip(self):
        g = GlobalMemory()
        kvs = KeyValueSet([(b"hello", b"world"), (b"", b"v"), (b"k", b"")])
        d = DeviceRecordSet.upload(g, kvs)
        assert d.count == 3
        assert d.download() == kvs

    def test_dir_entries(self):
        g = GlobalMemory()
        kvs = KeyValueSet([(b"ab", b"xyz"), (b"cde", b"pq")])
        d = DeviceRecordSet.upload(g, kvs)
        assert d.dir_entry(0) == (0, 2, 0, 3)
        assert d.dir_entry(1) == (2, 3, 3, 2)

    def test_per_record_access(self):
        g = GlobalMemory()
        d = DeviceRecordSet.upload(g, KeyValueSet([(b"key0", b"val0")]))
        assert d.key_bytes_of(0) == b"key0"
        assert d.val_bytes_of(0) == b"val0"

    def test_out_of_range(self):
        g = GlobalMemory()
        d = DeviceRecordSet.upload(g, KeyValueSet([(b"k", b"v")]))
        with pytest.raises(FrameworkError):
            d.dir_entry(1)

    def test_sizes(self):
        g = GlobalMemory()
        kvs = KeyValueSet([(b"abc", b"de")])
        d = DeviceRecordSet.upload(g, kvs)
        assert d.payload_bytes == 5
        assert d.total_bytes == 5 + DIR_PER_RECORD

    @given(records_strategy)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, records):
        g = GlobalMemory()
        kvs = KeyValueSet(records)
        assert DeviceRecordSet.upload(g, kvs).download() == kvs


class TestOutputBuffers:
    def make(self, g=None, **kw):
        g = g or GlobalMemory()
        defaults = dict(key_capacity=256, val_capacity=256, record_capacity=16)
        defaults.update(kw)
        return g, OutputBuffers.allocate(g, **defaults)

    def test_tails_start_zero(self):
        g, out = self.make()
        assert g.read_u32(out.key_tail) == 0
        assert g.read_u32(out.val_tail) == 0
        assert g.read_u32(out.rec_count) == 0

    def test_as_record_set_reflects_appends(self):
        g, out = self.make()
        # Simulate what the collector does: write record 0 manually.
        g.write(out.keys_addr, b"kk")
        g.write(out.vals_addr, b"vvv")
        g.write_u32(out.key_dir_addr, 0)
        g.write_u32(out.key_dir_addr + 4, 2)
        g.write_u32(out.val_dir_addr, 0)
        g.write_u32(out.val_dir_addr + 4, 3)
        g.write_u32(out.key_tail, 2)
        g.write_u32(out.val_tail, 3)
        g.write_u32(out.rec_count, 1)
        rs = out.as_record_set()
        assert rs.count == 1
        assert rs.download() == KeyValueSet([(b"kk", b"vvv")])

    def test_overflow_detection(self):
        _, out = self.make()
        with pytest.raises(FrameworkError, match="overflow"):
            out.check_reservation(300, 0, 0)
        with pytest.raises(FrameworkError):
            out.check_reservation(0, 300, 0)
        with pytest.raises(FrameworkError):
            out.check_reservation(0, 0, 17)
        out.check_reservation(256, 256, 16)  # exactly at capacity: fine
