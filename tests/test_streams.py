"""Bit-packed click streams: packing, concatenation, and file formats."""

import gc
import io
import struct
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim import streams as streams_module
from heraldsim.core import parse_config
from heraldsim.runner import simulate_run
from heraldsim.streams import (ClickStreams, SparseCsvWriter, StreamFormatError,
                               StreamWriter, read_streams, write_sparse_csv,
                               write_streams)

from helpers import bools, fail_after_first_write

# The qm source at three pairs per bin in 4 801-bin segments, as the dense
# simulate config of the CI runs.
DENSE_INI = """
[source]
pair_mean_per_bin = 3
[optics]
eta_h = 0.9
eta_1 = 0.7
eta_2 = 0.6
[run]
theory = qm
n_bins = 1000003
segment_bins = 4801
seed = 1
"""

# The simulate-qm benchmark config: README defaults, 1e7 bins in 48 000-bin
# segments, about one click per 80 bins on the herald and fewer on the
# signal arms, so every chunk goes through its nonzero bytes.
SPARSE_INI = """
[source]
pair_mean_per_bin = 0.05
mode_count = 1
[optics]
eta_h = 0.26
eta_1 = 0.075
eta_2 = 0.055
[detectors]
dark_rate_h = 150
dark_rate_1 = 150
dark_rate_2 = 150
bin_width = 20.83e-9
[run]
theory = qm
n_bins = 10000000
segment_bins = 48000
seed = 1
"""


def counted_write_rows(monkeypatch) -> list[int]:
    """The rows of each ``_write_rows`` call from now on, in call order."""
    write_rows = streams_module._write_rows
    sizes = []

    def counted(out, prefix, bins):
        sizes.append(bins.size)
        write_rows(out, prefix, bins)

    monkeypatch.setattr(streams_module, "_write_rows", counted)
    return sizes


def random_streams(n_bins: int, seed: int = 0,
                   bin_width: float = 20.83e-9) -> ClickStreams:
    rng = np.random.default_rng(seed)
    return ClickStreams.from_bools(
        rng.random(n_bins) < 0.3,
        rng.random(n_bins) < 0.2,
        rng.random(n_bins) < 0.1,
        bin_width=bin_width,
    )


bool_arrays = st.integers(min_value=1, max_value=500).flatmap(
    lambda n: st.tuples(*(st.lists(st.booleans(), min_size=n, max_size=n)
                          for _ in range(3))))

part_sizes = st.lists(st.integers(min_value=0, max_value=70), min_size=1,
                      max_size=8)


def oracle_rows(streams: ClickStreams) -> str:
    """The sparse CSV of ``streams``, one f-string per click."""
    return "channel,bin_index\n" + "".join(
        f"{name},{i}\n" for name, bits in zip(("H", "1", "2"), bools(streams))
        for i in np.flatnonzero(bits).tolist())


def random_parts(sizes) -> list[ClickStreams]:
    return [random_streams(n, seed=i + 1) for i, n in enumerate(sizes)]


def joined_bools(parts) -> list[np.ndarray]:
    return [np.concatenate(channel) for channel in
            zip(*(bools(part) for part in parts))]


class TestPacking:
    @given(bool_arrays)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bools(self, channels):
        arrays = [np.array(c, dtype=bool) for c in channels]
        streams = ClickStreams.from_bools(*arrays, bin_width=1e-9)
        for original, unpacked in zip(arrays, bools(streams)):
            np.testing.assert_array_equal(original, unpacked)

    def test_bit_order_is_lsb_first(self):
        streams = ClickStreams.from_bools([1, 0, 0, 0, 0, 0, 0, 0, 1],
                                          [0] * 9, [0] * 9, bin_width=1e-9)
        assert streams.herald.tolist() == [1, 1]  # bin 0 -> bit 0 of byte 0

    def test_trailing_pad_bits_zero(self):
        streams = ClickStreams.from_bools([1, 1, 1], [1, 1, 1], [1, 1, 1],
                                          bin_width=1e-9)
        assert streams.herald[0] == 0b0000_0111

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ClickStreams.from_bools([1, 0], [1], [0, 0], bin_width=1e-9)

    def test_wrong_byte_count_rejected(self):
        with pytest.raises(ValueError, match="herald"):
            ClickStreams(n_bins=9, bin_width=1e-9,
                         herald=np.zeros(1, dtype=np.uint8),
                         signal_1=np.zeros(2, dtype=np.uint8),
                         signal_2=np.zeros(2, dtype=np.uint8))


class TestConcat:
    @pytest.mark.parametrize(
        "sizes", [(8, 101), (16, 101), (800, 101), (3, 101), (7, 101),
                  (13, 101), (16, 13, 101)],
        ids=lambda sizes: "-".join(map(str, sizes[:-1])))
    def test_concat_matches_bool_concatenation(self, sizes):
        parts = [random_streams(n, seed=i + 1) for i, n in enumerate(sizes)]
        merged = parts[0].concat(*parts[1:])
        assert merged.n_bins == sum(sizes)
        for channel, joined in zip(zip(*(bools(p) for p in parts)),
                                   bools(merged)):
            np.testing.assert_array_equal(np.concatenate(channel), joined)

    @given(part_sizes)
    @settings(max_examples=80, deadline=None)
    def test_bit_splice_matches_bool_concatenation(self, sizes):
        parts = random_parts(sizes)
        merged = parts[0].concat(*parts[1:])
        assert merged.n_bins == sum(sizes)
        for expected, joined in zip(joined_bools(parts), bools(merged)):
            np.testing.assert_array_equal(expected, joined)
        # Pad bits stay zero: repacking the bools gives the same bytes.
        repacked = ClickStreams.from_bools(*bools(merged), bin_width=1e-9)
        np.testing.assert_array_equal(repacked.herald, merged.herald)

    def test_concat_requires_matching_bin_width(self):
        a = random_streams(8, bin_width=1e-9)
        b = random_streams(8, bin_width=2e-9)
        with pytest.raises(ValueError, match="bin width"):
            a.concat(b)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        streams = random_streams(12345, seed=3)
        path = tmp_path / "run.pstm"
        write_streams(streams, path)
        loaded = read_streams(path)
        assert loaded.n_bins == streams.n_bins
        assert loaded.bin_width == streams.bin_width
        np.testing.assert_array_equal(loaded.herald, streams.herald)
        np.testing.assert_array_equal(loaded.signal_1, streams.signal_1)
        np.testing.assert_array_equal(loaded.signal_2, streams.signal_2)

    def test_header_layout(self, tmp_path):
        streams = random_streams(100, seed=4, bin_width=20.83e-9)
        path = tmp_path / "run.pstm"
        write_streams(streams, path)
        raw = path.read_bytes()
        magic, version, n_bins, bin_width, channels = struct.unpack_from(
            "<4sHQdB", raw, 0)
        assert magic == b"PSTM"
        assert version == 1
        assert n_bins == 100
        assert bin_width == 20.83e-9
        assert channels == 3
        assert len(raw) == struct.calcsize("<4sHQdB") + 3 * 13

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pstm"
        streams = random_streams(8)
        write_streams(streams, path)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(StreamFormatError, match="magic"):
            read_streams(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.pstm"
        write_streams(random_streams(8), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match="version"):
            read_streams(path)

    def test_nonzero_pad_bits_rejected(self, tmp_path):
        # 10 silent bins: the last byte of each channel holds bins 8-9 and
        # six pad bits.  Setting the herald pad bits would let byte-aligned
        # counting see six heralds that are not in the stream.
        path = tmp_path / "bad.pstm"
        write_streams(ClickStreams.from_bools([0] * 10, [0] * 10, [0] * 10,
                                              bin_width=1e-9), path)
        raw = bytearray(path.read_bytes())
        raw[struct.calcsize("<4sHQdB") + 1] = 0b1111_1100
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match="pad bits"):
            read_streams(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pstm"
        write_streams(random_streams(8), path)
        path.write_bytes(path.read_bytes()[:struct.calcsize("<4sHQdB") - 1])
        with pytest.raises(StreamFormatError) as info:
            read_streams(path)
        assert str(info.value) == f"{path}: truncated header"

    @pytest.mark.parametrize("channels", [2, 4])
    def test_channel_count_other_than_three_rejected(self, tmp_path, channels):
        path = tmp_path / "bad.pstm"
        write_streams(random_streams(8), path)
        raw = bytearray(path.read_bytes())
        raw[struct.calcsize("<4sHQd")] = channels
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError) as info:
            read_streams(path)
        assert str(info.value) == f"{path}: expected 3 channels, got {channels}"

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.pstm"
        write_streams(random_streams(800), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StreamFormatError, match="size|truncated"):
            read_streams(path)


class TestStreamWriter:
    @given(part_sizes)
    @settings(max_examples=60, deadline=None)
    def test_parts_write_the_container_of_their_concatenation(self, tmp_path_factory,
                                                              sizes):
        tmp_path = tmp_path_factory.mktemp("writer")
        parts = random_parts(sizes)
        with StreamWriter(tmp_path / "parts.pstm", sum(sizes),
                          parts[0].bin_width) as writer:
            for part in parts:
                writer.append(part)
        write_streams(parts[0].concat(*parts[1:]), tmp_path / "whole.pstm")
        assert ((tmp_path / "parts.pstm").read_bytes()
                == (tmp_path / "whole.pstm").read_bytes())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["parts.pstm",
                                                               "whole.pstm"]

    def test_missing_bins_leave_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="8 of 9 bins"):
            with StreamWriter(tmp_path / "run.pstm", 9, 1e-9) as writer:
                writer.append(random_streams(8, bin_width=1e-9))
        assert list(tmp_path.iterdir()) == []

    def test_extra_bins_rejected(self, tmp_path):
        with StreamWriter(tmp_path / "run.pstm", 9, 1e-9) as writer:
            writer.append(random_streams(5, bin_width=1e-9))
            with pytest.raises(ValueError, match="exceed"):
                writer.append(random_streams(5, bin_width=1e-9))
            writer.append(random_streams(4, bin_width=1e-9))
        assert read_streams(tmp_path / "run.pstm").n_bins == 9

    def test_bin_width_mismatch_rejected(self, tmp_path):
        with StreamWriter(tmp_path / "run.pstm", 8, 1e-9) as writer:
            with pytest.raises(ValueError, match="bin width"):
                writer.append(random_streams(8, bin_width=2e-9))
            writer.append(random_streams(8, bin_width=1e-9))

    def test_exception_leaves_previous_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "run.pstm"
        write_streams(random_streams(16, seed=1), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with StreamWriter(path, 16, 20.83e-9) as writer:
                writer.append(random_streams(8, seed=2))
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.pstm"]

    def test_failed_header_write_leaves_no_file(self, tmp_path, monkeypatch):
        fail_after_first_write(monkeypatch)
        with pytest.raises(OSError, match="first write"):
            StreamWriter(tmp_path / "run.pstm", 16, 20.83e-9)
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "nodir" / "run.pstm"
        with pytest.raises(FileNotFoundError) as raised:
            StreamWriter(path, 16, 20.83e-9)
        assert raised.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []


class TestSparseCsv:
    def test_rows_match_clicks(self, tmp_path):
        streams = ClickStreams.from_bools([1, 0, 1], [0, 1, 0], [0, 0, 0],
                                          bin_width=1e-9)
        write_streams(streams, tmp_path / "run.pstm")
        path = tmp_path / "clicks.csv"
        assert write_sparse_csv(tmp_path / "run.pstm", path) == 3
        lines = path.read_text().splitlines()
        assert lines == ["channel,bin_index", "H,0", "H,2", "1,1"]

    @pytest.mark.filterwarnings("ignore:source.pair_mean_per_bin")
    def test_dense_steps_hold_at_most_a_click_buffer(self, tmp_path,
                                                     monkeypatch):
        # At three pairs per bin the herald clicks in most bins.  Each
        # formatting call takes at most _CLICK_BUFFER rows, the writer's
        # buffer (its row block stays below the mmap threshold), even
        # when a chunk of 4 096 bytes finds four buffers' worth of clicks
        # at once; and the bytes do not depend on the chunk.
        cfg = parse_config(DENSE_INI)
        write_streams(simulate_run(cfg), tmp_path / "run.pstm")
        steps = counted_write_rows(monkeypatch)
        rows = write_sparse_csv(tmp_path / "run.pstm", tmp_path / "clicks.csv")
        assert sum(steps) == rows
        assert max(steps) <= streams_module._CLICK_BUFFER
        steps.clear()
        with mock.patch.object(streams_module, "_CHUNK_BYTES", 1 << 12):
            assert write_sparse_csv(tmp_path / "run.pstm",
                                    tmp_path / "steps.csv") == rows
        assert max(steps) <= streams_module._CLICK_BUFFER
        assert ((tmp_path / "clicks.csv").read_bytes()
                == (tmp_path / "steps.csv").read_bytes())

    def test_sparse_container_fills_the_buffer_before_formatting(
            self, tmp_path, monkeypatch):
        # A chunk of this container holds about 1 700 herald clicks, a
        # fifth of the writer's buffer, and fewer signal clicks.  Rows
        # are formatted a full buffer at a time, with one partial buffer
        # per channel at the end.
        write_streams(simulate_run(parse_config(SPARSE_INI)),
                      tmp_path / "run.pstm")
        steps = counted_write_rows(monkeypatch)
        rows = write_sparse_csv(tmp_path / "run.pstm", tmp_path / "clicks.csv")
        assert sum(steps) == rows
        assert max(steps) <= streams_module._CLICK_BUFFER
        assert len(steps) <= -(-rows // streams_module._CLICK_BUFFER) + 3

    def test_empty_stream_writes_header_only(self, tmp_path):
        streams = ClickStreams.from_bools([0, 0], [0, 0], [0, 0],
                                          bin_width=1e-9)
        write_streams(streams, tmp_path / "run.pstm")
        path = tmp_path / "clicks.csv"
        assert write_sparse_csv(tmp_path / "run.pstm", path) == 0
        assert path.read_text() == "channel,bin_index\n"

    @pytest.mark.parametrize("n_bins", [1, 8, 63, 64, 65, 1001])
    def test_chunked_rows_match_per_bin_rows(self, tmp_path, monkeypatch,
                                             n_bins):
        # Chunks of 3 bytes cross many boundaries; the rows must be those
        # of a per-bin scan, grouped by channel, bins ascending.
        monkeypatch.setattr(streams_module, "_CHUNK_BYTES", 3)
        streams = random_streams(n_bins, seed=n_bins)
        write_streams(streams, tmp_path / "run.pstm")
        rows = write_sparse_csv(tmp_path / "run.pstm", tmp_path / "clicks.csv")
        expected = ["channel,bin_index"] + [
            f"{name},{i}" for name, bits in zip(("H", "1", "2"),
                                                 bools(streams))
            for i in range(n_bins) if bits[i]]
        assert (tmp_path / "clicks.csv").read_text().splitlines() == expected
        assert rows == len(expected) - 1

    @pytest.mark.parametrize("n_bins", [1, 7, 13, 1001])
    def test_every_byte_hot_and_every_step_split(self, tmp_path, monkeypatch,
                                                 n_bins):
        # All clicks, a partial last byte, in 3-byte chunks.
        monkeypatch.setattr(streams_module, "_CHUNK_BYTES", 3)
        ones = [1] * n_bins
        streams = ClickStreams.from_bools(ones, ones, ones, bin_width=1e-9)
        write_streams(streams, tmp_path / "run.pstm")
        rows = write_sparse_csv(tmp_path / "run.pstm", tmp_path / "clicks.csv")
        assert rows == 3 * n_bins
        assert (tmp_path / "clicks.csv").read_text() == oracle_rows(streams)

    @given(bool_arrays, st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_f_string_rows(self, tmp_path_factory, channels,
                                      chunk_bytes):
        tmp_path = tmp_path_factory.mktemp("csv")
        streams = ClickStreams.from_bools(*channels, bin_width=1e-9)
        write_streams(streams, tmp_path / "run.pstm")
        with mock.patch.object(streams_module, "_CHUNK_BYTES", chunk_bytes):
            rows = write_sparse_csv(tmp_path / "run.pstm",
                                    tmp_path / "clicks.csv")
        expected = oracle_rows(streams)
        assert (tmp_path / "clicks.csv").read_text() == expected
        assert rows == expected.count("\n") - 1

    def test_sparse_clicks_match_per_bin_rows(self, tmp_path, monkeypatch):
        # One click per 200 bins, as in a qm signal arm, in 8-byte chunks
        # that are mostly zero bytes.
        monkeypatch.setattr(streams_module, "_CHUNK_BYTES", 8)
        rng = np.random.default_rng(200)
        channels = [rng.random(20_011) < 1 / 200 for _ in range(3)]
        streams = ClickStreams.from_bools(*channels, bin_width=1e-9)
        write_streams(streams, tmp_path / "run.pstm")
        rows = write_sparse_csv(tmp_path / "run.pstm", tmp_path / "clicks.csv")
        expected = ["channel,bin_index"] + [
            f"{name},{i}" for name, bits in zip(("H", "1", "2"), channels)
            for i in range(bits.size) if bits[i]]
        assert (tmp_path / "clicks.csv").read_text().splitlines() == expected
        assert rows == len(expected) - 1

    def test_bin_indices_beyond_31_bits(self, tmp_path):
        # A sparse container of 2**31 + 9 bins whose only clicks are herald
        # bins 2**31, 2**31 + 7 and 2**31 + 8 (the last bin).
        n_bins = 2**31 + 9
        nbytes = (n_bins + 7) // 8
        header = struct.pack("<4sHQdB", b"PSTM", 1, n_bins, 1e-9, 3)
        path = tmp_path / "run.pstm"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + 3 * nbytes)
            fh.seek(len(header) + nbytes - 2)
            fh.write(bytes([0b1000_0001, 0b0000_0001]))
        assert write_sparse_csv(path, tmp_path / "clicks.csv") == 3
        assert (tmp_path / "clicks.csv").read_text().splitlines() == [
            "channel,bin_index", "H,2147483648", "H,2147483655",
            "H,2147483656"]

    def test_malformed_container_rejected(self, tmp_path):
        path = tmp_path / "bad.pstm"
        write_streams(random_streams(10), path)
        raw = bytearray(path.read_bytes())
        raw[struct.calcsize("<4sHQdB") + 1] |= 0b1000_0000
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match="pad bits"):
            write_sparse_csv(path, tmp_path / "clicks.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.pstm"]

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        write_streams(random_streams(1001, seed=5), tmp_path / "run.pstm")
        write_rows = streams_module._write_rows
        calls = []

        def interrupted(out, prefix, bins):
            if calls:
                raise RuntimeError("interrupted")
            calls.append(prefix)
            write_rows(out, prefix, bins)

        monkeypatch.setattr(streams_module, "_write_rows", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_sparse_csv(tmp_path / "run.pstm", tmp_path / "clicks.csv")
        assert calls
        assert [p.name for p in tmp_path.iterdir()] == ["run.pstm"]

    def test_memory_does_not_grow_with_length(self, tmp_path):
        # Every bin clicks on every channel, the densest container, whose
        # chunks are unpacked in place; and one bin in 64 clicks, whose
        # chunks go through the index of their nonzero bytes.  The peak of
        # numpy and Python allocations must not follow the length.
        for byte, every in ((0xFF, 1), (0x01, 8)):
            peaks = []
            for n_bins in (1 << 20, 1 << 22):
                packed = np.zeros(n_bins // 8, dtype=np.uint8)
                packed[::every] = byte
                write_streams(ClickStreams(n_bins, 1e-9, packed, packed,
                                           packed), tmp_path / "run.pstm")
                del packed
                tracemalloc.start()
                try:
                    rows = write_sparse_csv(tmp_path / "run.pstm",
                                            tmp_path / "clicks.csv")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert rows == 3 * n_bins // (8 * every) * bin(byte).count("1")
                (tmp_path / "clicks.csv").unlink()
            assert abs(peaks[1] - peaks[0]) < 1e6, (byte, every, peaks)


def part_clicks(part: ClickStreams) -> list[np.ndarray]:
    """Each channel's clicked bins of ``part``, ascending int64."""
    return [np.flatnonzero(bits).astype(np.int64) for bits in bools(part)]


class TestSparseCsvWriter:
    """Rows appended part by part, as simulate writes clicks.csv."""

    @given(part_sizes, st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_appended_parts_write_the_rows_of_their_container(
            self, tmp_path_factory, sizes, buffer):
        # A buffer of a few clicks splits parts across flushes and flushes
        # across parts; the bytes must be write_sparse_csv's of the
        # container the parts make, and the rows of an f-string per click.
        tmp_path = tmp_path_factory.mktemp("writer")
        parts = random_parts(sizes)
        whole = parts[0].concat(*parts[1:])
        write_streams(whole, tmp_path / "run.pstm")
        rows = write_sparse_csv(tmp_path / "run.pstm", tmp_path / "scan.csv")
        with mock.patch.object(streams_module, "_CLICK_BUFFER", buffer):
            with SparseCsvWriter(tmp_path / "clicks.csv") as writer:
                lo = 0
                for part in parts:
                    writer.append(lo, part_clicks(part))
                    lo += part.n_bins
        assert writer.rows == rows
        assert ((tmp_path / "clicks.csv").read_bytes()
                == (tmp_path / "scan.csv").read_bytes())
        assert (tmp_path / "clicks.csv").read_text() == oracle_rows(whole)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clicks.csv", "run.pstm", "scan.csv"]

    def test_held_tail_does_not_keep_its_part_alive(self, tmp_path,
                                                    monkeypatch):
        # A 100-click part into a 16-click buffer leaves 4 clicks held,
        # and a 5-click part is held whole.  The writer copies clicks
        # into its own buffer, so both parts, once their caller drops
        # them, are freed before the rows are written.
        monkeypatch.setattr(streams_module, "_CLICK_BUFFER", 16)
        parts = [np.arange(0, 200, 2, dtype=np.int64),
                 np.arange(5, dtype=np.int64)]
        alive = [weakref.ref(part) for part in parts]
        with SparseCsvWriter(tmp_path / "clicks.csv") as writer:
            writer.append(0, [parts[0], parts[1], parts[1][:0]])
            del parts
            gc.collect()
            assert [ref() is None for ref in alive] == [True, True]
        assert (tmp_path / "clicks.csv").read_text() == "".join(
            ["channel,bin_index\n"] + [f"H,{i}\n" for i in range(0, 200, 2)]
            + [f"1,{i}\n" for i in range(5)])

    def test_flushes_hold_at_most_the_buffer(self, tmp_path, monkeypatch):
        # A 100-click part into a 16-click buffer: every formatting call
        # takes at most 16 rows, and the rows come out whole and in order.
        monkeypatch.setattr(streams_module, "_CLICK_BUFFER", 16)
        sizes = counted_write_rows(monkeypatch)
        bins = np.arange(0, 300, 3, dtype=np.int64)
        with SparseCsvWriter(tmp_path / "clicks.csv") as writer:
            writer.append(1000, [bins, bins[:5], np.empty(0, np.int64)])
        assert max(sizes) == 16 and sum(sizes) == 105
        assert (tmp_path / "clicks.csv").read_text() == (
            "channel,bin_index\n" + "".join(f"H,{1000 + i}\n" for i in bins)
            + "".join(f"1,{1000 + i}\n" for i in bins[:5]))

    def test_exception_leaves_previous_file_and_no_temporary(self, tmp_path,
                                                            monkeypatch):
        # Rows of every channel were formatted before the failure, into
        # the file and both spill files.
        monkeypatch.setattr(streams_module, "_CLICK_BUFFER", 4)
        path = tmp_path / "clicks.csv"
        path.write_bytes(b"before")
        clicks = [np.arange(10, dtype=np.int64)] * 3
        with pytest.raises(RuntimeError, match="interrupted"):
            with SparseCsvWriter(path) as writer:
                writer.append(0, clicks)
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"before"
        assert [p.name for p in tmp_path.iterdir()] == ["clicks.csv"]

    def test_failure_at_close_leaves_no_file(self, tmp_path, monkeypatch):
        write_rows = streams_module._write_rows

        def signal_rows_fail(out, prefix, bins):
            if prefix != b"H,":
                raise OSError("disk full")
            write_rows(out, prefix, bins)

        monkeypatch.setattr(streams_module, "_write_rows", signal_rows_fail)
        with pytest.raises(OSError, match="disk full"):
            with SparseCsvWriter(tmp_path / "clicks.csv") as writer:
                writer.append(0, [np.arange(3, dtype=np.int64)] * 3)
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "nodir" / "clicks.csv"
        with pytest.raises(FileNotFoundError) as raised:
            SparseCsvWriter(path)
        assert raised.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []

    def test_memory_does_not_grow_with_clicks(self, tmp_path):
        # 2**17 and 2**19 clicks per channel, both far past the buffer,
        # appended 4 096 at a time from one reused part.
        part = np.arange(4096, dtype=np.int64)
        peaks = []
        for clicks in (1 << 17, 1 << 19):
            tracemalloc.start()
            try:
                with SparseCsvWriter(tmp_path / "clicks.csv") as writer:
                    for lo in range(0, clicks, part.size):
                        writer.append(lo, [part, part, part])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert writer.rows == 3 * clicks
        assert abs(peaks[1] - peaks[0]) < 1 << 17, peaks


class TestRowFormatter:
    @staticmethod
    def formatted(prefix: bytes, bins) -> bytes:
        out = io.BytesIO()
        streams_module._write_rows(out, prefix, np.array(bins, dtype=np.int64))
        return out.getvalue()

    @staticmethod
    def oracle(prefix: bytes, bins) -> bytes:
        return "".join(f"{prefix.decode()}{i}\n" for i in bins).encode()

    @pytest.mark.parametrize("bins", [[], [0], [7], [123456789]],
                             ids=["empty", "zero", "one-digit", "single-row"])
    def test_short_inputs(self, bins):
        assert self.formatted(b"H,", bins) == self.oracle(b"H,", bins)

    def test_every_decade_boundary(self):
        bins = [0] + [i for k in range(1, 13) for i in (10**k - 1, 10**k)]
        assert self.formatted(b"1,", bins) == self.oracle(b"1,", bins)

    def test_indices_beyond_32_bits(self):
        bins = [2**31 - 1, 2**31, 2**32 + 5, 10**18, 2**63 - 1]
        assert self.formatted(b"2,", bins) == self.oracle(b"2,", bins)

    @pytest.mark.parametrize("bins", [
        [10**8 + 1, 123400005678, 10**12 + 9999],
        [999_999_999, 10**9, 2**32 - 1, 2**32],
    ], ids=["inner-words-of-zeros-and-nines", "uint32-cast-boundary"])
    def test_four_digit_words(self, bins):
        assert self.formatted(b"1,", bins) == self.oracle(b"1,", bins)

    def test_word_table(self):
        assert streams_module._WORDS.tobytes() == b"".join(
            b"%04d" % i for i in range(10000))
