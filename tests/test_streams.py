"""Bit-packed click streams: packing, concatenation, and file formats."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.streams import (ClickStreams, StreamFormatError, read_streams,
                               write_sparse_csv, write_streams)


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


class TestPacking:
    @given(bool_arrays)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bools(self, channels):
        arrays = [np.array(c, dtype=bool) for c in channels]
        streams = ClickStreams.from_bools(*arrays, bin_width=1e-9)
        for original, unpacked in zip(arrays, streams.bools()):
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

    def test_duration(self):
        assert random_streams(1000).duration == pytest.approx(1000 * 20.83e-9)


class TestConcat:
    @pytest.mark.parametrize(
        "sizes", [(8, 101), (16, 101), (800, 101), (3, 101), (7, 101),
                  (13, 101), (16, 13, 101)],
        ids=lambda sizes: "-".join(map(str, sizes[:-1])))
    def test_concat_matches_bool_concatenation(self, sizes):
        parts = [random_streams(n, seed=i + 1) for i, n in enumerate(sizes)]
        merged = parts[0].concat(*parts[1:])
        assert merged.n_bins == sum(sizes)
        for channel, joined in zip(zip(*(p.bools() for p in parts)),
                                   merged.bools()):
            np.testing.assert_array_equal(np.concatenate(channel), joined)

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

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.pstm"
        write_streams(random_streams(800), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StreamFormatError, match="size|truncated"):
            read_streams(path)


class TestSparseCsv:
    def test_rows_match_clicks(self, tmp_path):
        streams = ClickStreams.from_bools([1, 0, 1], [0, 1, 0], [0, 0, 0],
                                          bin_width=1e-9)
        path = tmp_path / "clicks.csv"
        assert write_sparse_csv(streams, path) == 3
        lines = path.read_text().splitlines()
        assert lines == ["channel,bin_index", "H,0", "H,2", "1,1"]

    def test_empty_stream_writes_header_only(self, tmp_path):
        streams = ClickStreams.from_bools([0, 0], [0, 0], [0, 0],
                                          bin_width=1e-9)
        path = tmp_path / "clicks.csv"
        assert write_sparse_csv(streams, path) == 0
        assert path.read_text() == "channel,bin_index\n"
