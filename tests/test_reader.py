"""ContainerReader and the archive's lazy random-access surface."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.archive import Archive, append_archive, write_archive
from repro.core import container as fmt
from repro.core.executors import ThreadedExecutor
from repro.errors import ChecksumError
from repro.reader import ContainerReader


@pytest.fixture
def field(rng) -> np.ndarray:
    return np.cumsum(rng.normal(scale=0.01, size=30_000)).astype(np.float64)


@pytest.fixture
def blob(field) -> bytes:
    return repro.compress(field, "dpratio", fcm="restart")


class TestContainerReader:
    def test_metadata_without_decoding(self, field, blob):
        with ContainerReader(blob) as reader:
            assert len(reader) == field.size
            assert reader.dtype == np.float64
            assert reader.itemsize == 8
            assert reader.shape == (30_000,)
            assert reader.info.version == 3

    def test_slices_match_the_array(self, field, blob):
        reader = ContainerReader(blob)
        for key in [slice(None), slice(100, 9_000), slice(-500, None),
                    slice(2_000, 2_001), slice(5, 5), slice(9_000, 1_000),
                    slice(10, 5_000, 7), slice(5_000, 10, -3),
                    slice(None, None, -1)]:
            assert np.array_equal(reader[key], field[key]), key

    def test_int_indexing(self, field, blob):
        reader = ContainerReader(blob)
        assert reader[0] == field[0]
        assert reader[12_345] == field[12_345]
        assert reader[-1] == field[-1]
        with pytest.raises(IndexError):
            reader[30_000]
        with pytest.raises(IndexError):
            reader[-30_001]

    def test_read_with_salvage(self, field, blob):
        reader = ContainerReader(blob)
        got, report = reader.read(100, 200, errors="salvage")
        assert report.ok
        assert np.array_equal(got, field[100:200])

    @pytest.mark.parametrize("mmap", [True, False])
    def test_file_sources(self, field, blob, tmp_path, mmap):
        path = tmp_path / "field.fprz"
        path.write_bytes(blob)
        with ContainerReader(path, mmap=mmap) as reader:
            assert np.array_equal(reader[4_000:8_500], field[4_000:8_500])
        # Closed readers refuse reads but tolerate repeated close().
        reader.close()
        with pytest.raises(ValueError, match="closed"):
            reader[0:1]

    def test_mmap_with_threaded_executor(self, field, blob, tmp_path):
        path = tmp_path / "field.fprz"
        path.write_bytes(blob)
        with ContainerReader(path, workers=2, executor="threaded") as reader:
            assert np.array_equal(reader[1_000:21_000], field[1_000:21_000])

    def test_raw_bytes_container(self, rng):
        payload = rng.bytes(25_000)
        reader = ContainerReader(repro.compress(payload, "spspeed"))
        assert reader.dtype is None
        assert len(reader) == 25_000
        assert reader[100:900] == payload[100:900]
        assert reader[10:100:9] == payload[10:100:9]
        assert reader[7] == payload[7]

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError, match="bytes-like or a path"):
            ContainerReader(123)


@pytest.fixture
def parses(monkeypatch) -> list:
    """Count every header parse: one entry per ``inspect_container`` call."""
    calls: list = []
    original = fmt.inspect_container

    def counting(blob):
        calls.append(len(blob))
        return original(blob)

    monkeypatch.setattr(fmt, "inspect_container", counting)
    return calls


class TestParseOnce:
    """A range read pays for its chunks, not for the header: the reader
    parses at open and never again, ``decompress_range`` once a call."""

    def test_reader_parses_at_open_only(self, field, blob, parses, tmp_path):
        path = tmp_path / "field.fprz"
        path.write_bytes(blob)
        for source in (blob, path):
            parses.clear()
            with ContainerReader(source) as reader:
                assert len(parses) == 1
                for a, b in [(0, 10), (4_000, 9_000), (29_990, 30_000)]:
                    assert np.array_equal(reader[a:b], field[a:b])
                    assert np.array_equal(reader.read(a, b), field[a:b])
                _, report = reader.read(100, 200, errors="salvage")
                assert report.ok
            assert len(parses) == 1

    def test_decompress_range_parses_once_per_call(self, field, blob, parses):
        for k, (a, b) in enumerate([(0, 10), (4_000, 9_000), (-7, None)], 1):
            assert np.array_equal(repro.decompress_range(blob, a, b), field[a:b])
            assert len(parses) == k
        repro.decompress_range(blob, 5, 50, errors="salvage")
        assert len(parses) == 4

    def test_cached_header_still_verifies_chunk_crcs(self, field, blob, tmp_path):
        path = tmp_path / "field.fprz"
        path.write_bytes(blob)
        info = fmt.inspect_container(blob)
        assert info.chunk_crcs is not None and info.n_chunks > 4
        chunk = 3  # 2,048 doubles a chunk: elements 6,144..8,191
        where = fmt.payload_offsets(info)[chunk] + info.chunk_sizes[chunk] // 2
        with ContainerReader(path) as reader:
            assert np.array_equal(reader[6_200:6_300], field[6_200:6_300])
            with open(path, "r+b") as handle:  # the mapping sees the write
                handle.seek(where)
                byte = handle.read(1)[0]
                handle.seek(where)
                handle.write(bytes([byte ^ 0x40]))
            with pytest.raises(ChecksumError, match=f"chunk {chunk} "):
                reader[6_200:6_300]
            assert np.array_equal(reader[0:100], field[0:100])


class TestArchiveRandomAccess:
    @pytest.fixture
    def members(self, rng):
        t = rng.normal(size=(120, 100)).astype(np.float32)
        p = np.cumsum(rng.normal(scale=0.01, size=20_000)).astype(np.float64)
        return {"T": t, "P": p}

    @pytest.fixture
    def archive(self, members) -> Archive:
        return Archive.from_bytes(write_archive(members))

    def test_read_accepts_executor_policies(self, archive, members):
        for policy in ["serial", "threaded", ThreadedExecutor(3)]:
            got = archive.read("P", workers=2, policy=policy)
            assert np.array_equal(got, members["P"])

    def test_read_range(self, archive, members):
        got = archive.read("P", start=3_000, stop=7_000)
        assert np.array_equal(got, members["P"][3_000:7_000])

    def test_lazy_reader(self, archive, members):
        with archive.reader("P") as reader:
            assert np.array_equal(reader[100:300], members["P"][100:300])
        with pytest.raises(KeyError):
            archive.reader("missing")

    def test_append_copies_old_members_verbatim(self, archive, members, rng):
        blob = write_archive(members)
        extra = np.cumsum(rng.normal(size=5_000)).astype(np.float64)
        grown = append_archive(blob, {"Q": extra})
        archive2 = Archive.from_bytes(grown)
        assert archive2.members() == ["T", "P", "Q"]
        for name in members:
            assert archive2._member_blob(name) == archive._member_blob(name)
        assert np.array_equal(archive2.read("Q"), extra)
        with pytest.raises(ValueError, match="duplicate"):
            append_archive(grown, {"T": extra})

    def test_member_concat_is_v3_with_verbatim_payloads(self, rng):
        a = np.cumsum(rng.normal(scale=0.01, size=9_000)).astype(np.float64)
        b = np.cumsum(rng.normal(scale=0.01, size=7_000)).astype(np.float64)
        blob = write_archive({"a": a, "b": b}, codec="dpspeed")
        archive = Archive.from_bytes(blob)
        merged = archive.concat(["a", "b"])
        info = repro.inspect(merged)
        assert info.version == 3 and info.index_offsets is not None
        assert np.array_equal(repro.decompress(merged), np.concatenate([a, b]))

    def test_package_exports(self):
        for name in ["decompress_range", "concat", "ContainerReader",
                     "append_archive"]:
            assert name in repro.__all__ and hasattr(repro, name)
