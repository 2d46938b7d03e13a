"""Coincidence counting: exactness, segmentation, merging, serialisation."""

import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heraldsim import coincidence

from heraldsim.analysis import _quiet_counts
from heraldsim.coincidence import (CHANNEL_BITS, COUNT_FIELDS, FIELD_MASKS,
                                   CoincidenceCounts, accumulate,
                                   alternating_sum, counts_from_cells,
                                   law_counts, read_counts_json,
                                   read_segment_csv, segment_table,
                                   write_counts_json, write_segment_csv)
from heraldsim.streams import ClickStreams

from helpers import (bools, brute_force_counts, fail_after_first_write,
                     merge, pattern_counts, segment_csv_bytes)


def streams_from_bits(h, s1, s2, bin_width=20.83e-9) -> ClickStreams:
    return ClickStreams.from_bools(np.array(h, dtype=bool),
                                   np.array(s1, dtype=bool),
                                   np.array(s2, dtype=bool),
                                   bin_width=bin_width)


def random_streams(n_bins, seed, p=(0.4, 0.35, 0.3)) -> ClickStreams:
    rng = np.random.default_rng(seed)
    return ClickStreams.from_bools(*(rng.random(n_bins) < pi for pi in p),
                                   bin_width=20.83e-9)


class TestHandExample:
    def test_three_bin_worked_example(self):
        streams = streams_from_bits([1, 1, 0], [1, 0, 1], [1, 1, 1])
        counts = accumulate(streams)
        assert counts.N_H == 2
        assert counts.N_1 == 2
        assert counts.N_2 == 3
        assert counts.N_H1 == 1
        assert counts.N_H2 == 2
        assert counts.N_12 == 2
        assert counts.N_H12 == 1
        assert counts.n_bins == 3
        assert counts.duration == pytest.approx(3 * 20.83e-9)


stream_cases = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.integers(min_value=1, max_value=n),
    ))


class TestAgainstBruteForce:
    @given(stream_cases)
    @settings(max_examples=80, deadline=None)
    def test_totals_match_brute_force(self, case):
        h, s1, s2, segment_bins = case
        streams = streams_from_bits(h, s1, s2)
        fast = accumulate(streams, segment_bins=segment_bins)
        slow = brute_force_counts(streams)
        assert fast.totals() == slow.totals()

    @given(stream_cases)
    @settings(max_examples=80, deadline=None)
    def test_segment_invariants(self, case):
        h, s1, s2, segment_bins = case
        counts = accumulate(streams_from_bits(h, s1, s2),
                            segment_bins=segment_bins)
        assert [seg.segment_index for seg in counts.segments] == list(
            range(len(counts.segments)))
        assert sum(seg.n_bins for seg in counts.segments) == len(h)
        for seg in counts.segments:
            assert max(seg.N_H, seg.N_1, seg.N_2) <= seg.n_bins
            assert seg.N_H1 <= min(seg.N_H, seg.N_1)
            assert seg.N_H2 <= min(seg.N_H, seg.N_2)
            assert seg.N_12 <= min(seg.N_1, seg.N_2)
            assert seg.N_H12 <= min(seg.N_H1, seg.N_H2, seg.N_12)

    def test_large_random_stream_aligned_and_unaligned(self):
        streams = random_streams(100_003, seed=5)
        slow = brute_force_counts(streams).totals()
        for segment_bins in (100_003, 4096, 977):
            assert accumulate(streams, segment_bins=segment_bins).totals() == slow

    @pytest.mark.parametrize("segment_bins", [8, 977, 1003, 4096, 10_007])
    def test_each_row_is_its_segment_counted_bin_by_bin(self, segment_bins):
        # Aligned (8, 4096), unaligned (977, 1003) and one-segment cuts.
        streams = random_streams(10_007, seed=8)
        bits = bools(streams)
        counts = accumulate(streams, segment_bins=segment_bins)
        starts = range(0, streams.n_bins, segment_bins)
        assert len(counts.segments) == len(starts)
        for row, lo in zip(counts.segments, starts):
            part = ClickStreams.from_bools(
                *(b[lo:lo + segment_bins] for b in bits), bin_width=20.83e-9)
            assert row.item()[1:] == brute_force_counts(part).segments[0].item()[1:]

    @pytest.mark.parametrize("n_bins", [1, 7, 13, 1001])
    @pytest.mark.parametrize("segment_bins", [None, 0, 5, 8],
                             ids=["none", "n_bins", "more", "aligned"])
    def test_packed_count_never_unpacks(self, monkeypatch, n_bins,
                                        segment_bins):
        # One segment (None, or at least n_bins bins) or byte-aligned
        # segments count the packed bytes, the zero-padded final byte too.
        streams = random_streams(n_bins, seed=n_bins)
        slow = brute_force_counts(streams)
        if segment_bins in (0, 5):
            segment_bins += n_bins

        def refuse(*args, **kwargs):
            raise AssertionError("packed count unpacked its streams")

        monkeypatch.setattr(np, "unpackbits", refuse)
        counts = accumulate(streams, segment_bins=segment_bins)
        assert counts.totals() == slow.totals()
        if segment_bins is None or segment_bins >= n_bins:
            assert counts == slow

    @staticmethod
    def accumulate_peak(n_bins: int, segment_bins: int) -> int:
        """tracemalloc peak, in bytes, of counting random packed streams."""
        rng = np.random.default_rng(n_bins)
        streams = ClickStreams(n_bins, 20.83e-9, *(
            rng.integers(0, 256, n_bins // 8, dtype=np.uint8) for _ in range(3)))
        tracemalloc.start()
        try:
            accumulate(streams, segment_bins=segment_bins)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_unaligned_segments_count_in_bounded_memory(self):
        # Unaligned segments are re-packed one at a time; unpacking the
        # whole stream took 38 MiB at 1e7 bins.
        small = self.accumulate_peak(10**6, 47_999)
        large = self.accumulate_peak(10**7, 47_999)
        assert large - small < 10**6, (small, large)


class TestMerge:
    def test_split_and_merge_is_exact(self):
        streams = random_streams(60_000, seed=6)
        whole = accumulate(streams, segment_bins=8000)
        left = accumulate(random_streams(60_000, seed=6), segment_bins=8000)
        # Split at a segment boundary and merge the halves.
        first, second = streams, None
        h, s1, s2 = bools(streams)
        cut = 24_000
        first = ClickStreams.from_bools(h[:cut], s1[:cut], s2[:cut],
                                        bin_width=streams.bin_width)
        second = ClickStreams.from_bools(h[cut:], s1[cut:], s2[cut:],
                                         bin_width=streams.bin_width)
        merged = merge(accumulate(first, segment_bins=8000),
                       accumulate(second, segment_bins=8000))
        assert merged == whole == left

    def test_merge_with_empty_is_identity(self):
        counts = accumulate(random_streams(1000, seed=7), segment_bins=100)
        empty = CoincidenceCounts(bin_width=counts.bin_width,
                                  segments=segment_table())
        assert merge(counts, empty) == counts
        assert merge(empty, counts) == counts

    def test_merge_associativity(self):
        parts = [accumulate(random_streams(640, seed=s), segment_bins=64)
                 for s in (1, 2, 3)]
        a, b, c = parts
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    def test_merge_renumbers_segments(self):
        a = accumulate(random_streams(100, seed=8))
        b = accumulate(random_streams(100, seed=9))
        merged = merge(a, b)
        assert [seg.segment_index for seg in merged.segments] == [0, 1]

    def test_merge_rejects_bin_width_mismatch(self):
        a = accumulate(random_streams(8, seed=1))
        b = accumulate(ClickStreams.from_bools([0] * 8, [0] * 8, [0] * 8,
                                               bin_width=1e-9))
        with pytest.raises(ValueError, match="bin width"):
            merge(a, b)


class TestCellCensus:
    def test_matches_stream_counting(self):
        rng = np.random.default_rng(11)
        patterns = rng.integers(0, 8, size=5000)
        streams = streams_from_bits((patterns >> 2) & 1, (patterns >> 1) & 1,
                                    patterns & 1)
        cells = np.bincount(patterns, minlength=8)
        row = counts_from_cells(cells, segment_index=0)
        assert row == accumulate(streams).segments.item(0)
        assert all(type(v) is int for v in row)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="8"):
            counts_from_cells(np.zeros(7, dtype=np.int64))

    @pytest.mark.parametrize("cells", [np.zeros((8, 1), dtype=np.int64),
                                       [0] * 7, [[0]] * 8])
    def test_rejects_a_column_or_a_short_list(self, cells):
        with pytest.raises(ValueError, match="expected 8 pattern cells"):
            counts_from_cells(cells)

    @staticmethod
    def summed_row(cells, segment_index=0) -> tuple:
        """The row by its definition, each field's cells added in index order."""
        c = np.asarray(cells).tolist()
        return (segment_index, sum(c),
                c[4] + c[5] + c[6] + c[7], c[2] + c[3] + c[6] + c[7],
                c[1] + c[3] + c[5] + c[7], c[6] + c[7], c[5] + c[7],
                c[3] + c[7], c[7])

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.integers(0, 2**60), min_size=8, max_size=8),
           index=st.integers(0, 2**37 - 1), as_array=st.booleans())
    def test_integer_census_as_list_or_array(self, cells, index, as_array):
        row = counts_from_cells(np.array(cells) if as_array else cells, index)
        assert row == self.summed_row(cells, index)
        assert all(type(v) is int for v in row)

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.floats(1e-12, 1.0), min_size=8, max_size=8),
           n_bins=st.integers(1, 10**12))
    @example(weights=[0.9, 1e-3, 2e-3, 3e-7, 0.1, 1e-5, 3e-5, 7e-9],
             n_bins=60_000_000)
    def test_float_census_adds_in_the_same_order(self, weights, n_bins):
        # Float expectations are written with %r, so every bit counts.
        law = np.array(weights) / sum(weights)
        row = counts_from_cells(n_bins * law)
        expected = self.summed_row(n_bins * law)
        assert [repr(v) for v in row] == [repr(v) for v in expected]
        assert law_counts(law, n_bins) == dict(zip(COUNT_FIELDS, expected[2:]))


class TestPatternLattice:
    """The pattern index, its channel sets and inclusion-exclusion."""

    def test_alternating_sum_visits_subsets_by_size_herald_first(self):
        for mask, order in ((7, [0, 4, 2, 1, 6, 5, 3, 7]), (5, [0, 4, 1, 5]),
                            (3, [0, 2, 1, 3]), (0, [0])):
            seen = []
            total = alternating_sum(mask, lambda t: seen.append(t) or 1)
            assert seen == order
            assert total == (1 if mask == 0 else 0)

    @settings(max_examples=200, deadline=None)
    @given(bins=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
                         min_size=1, max_size=200))
    def test_quiet_and_coincident_bins_match_a_per_bin_count(self, bins):
        clicks = np.array(bins, dtype=bool).T
        counts = accumulate(ClickStreams.from_bools(*clicks, bin_width=1e-9))
        quiet = _quiet_counts(counts)
        coincident = law_counts(pattern_counts(*clicks), 1)

        def chosen(mask):
            return clicks[[c for c, bit in enumerate(CHANNEL_BITS) if mask & bit]]
        for mask in (0,) + FIELD_MASKS:
            assert quiet[mask] == np.sum(~chosen(mask).any(axis=0))
        for field, mask in zip(COUNT_FIELDS, FIELD_MASKS):
            assert coincident[field] == np.sum(chosen(mask).all(axis=0))


class TestSerialisation:
    def test_csv_round_trip(self, tmp_path):
        counts = accumulate(random_streams(10_000, seed=12), segment_bins=1024)
        path = tmp_path / "counts.csv"
        write_segment_csv(counts, path)
        loaded = read_segment_csv(path, bin_width=counts.bin_width)
        assert loaded == counts
        header = path.read_text().splitlines()[0]
        assert header == "segment_index,bins," + ",".join(COUNT_FIELDS)

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("段,bins\n")
        with pytest.raises(ValueError, match="header"):
            read_segment_csv(path, bin_width=1e-9)

    def test_json_round_trip_with_config_echo(self, tmp_path):
        counts = accumulate(random_streams(10_000, seed=13), segment_bins=1024)
        path = tmp_path / "counts.json"
        write_counts_json(counts, path, config={"run": {"seed": 13}})
        loaded, config = read_counts_json(path)
        assert loaded.totals() == counts.totals()
        assert loaded.bin_width == counts.bin_width
        assert config == {"run": {"seed": 13}}

    def test_json_without_config(self, tmp_path):
        counts = brute_force_counts(random_streams(100, seed=14))
        path = tmp_path / "counts.json"
        write_counts_json(counts, path)
        _, config = read_counts_json(path)
        assert config is None

    def test_json_format_field_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="coincidence-counts"):
            read_counts_json(path)


class TestSegmentTable:
    @pytest.mark.parametrize("rows", [
        [],
        [(3, 10, 4, 3, 2, 2, 1, 1, 1), (7, 5, 1, 1, 1, 1, 1, 1, 1),
         (2, 8, 0, 0, 0, 0, 0, 0, 0)],
    ], ids=["no-segments", "non-consecutive-indices"])
    def test_csv_round_trip_is_exact(self, tmp_path, rows):
        counts = CoincidenceCounts(bin_width=1e-9, segments=segment_table(rows))
        path = tmp_path / "counts.csv"
        write_segment_csv(counts, path)
        assert path.read_bytes() == segment_csv_bytes(counts)
        loaded = read_segment_csv(path, bin_width=1e-9)
        assert loaded == counts
        assert loaded.segments.shape == (len(rows),)
        assert loaded.segments.dtype == counts.segments.dtype
        assert loaded.segments.segment_index.tolist() == [r[0] for r in rows]
        assert loaded.totals() == counts.totals()

    def test_totals_are_python_ints(self):
        counts = accumulate(random_streams(1000, seed=16), segment_bins=96)
        assert all(type(v) is int for v in counts.totals().values())
        assert type(counts.n_bins) is int and type(counts.N_H12) is int

    def test_equality_compares_rows_and_bin_width(self):
        counts = accumulate(random_streams(1000, seed=17), segment_bins=96)
        same = CoincidenceCounts(bin_width=counts.bin_width,
                                 segments=segment_table(counts.segments))
        assert same == counts
        assert CoincidenceCounts(2 * counts.bin_width, counts.segments) != counts
        assert CoincidenceCounts(counts.bin_width, counts.segments[:-1]) != counts

    def test_tables_are_read_only(self):
        a = accumulate(random_streams(640, seed=20), segment_bins=64)
        for table in (a.segments, merge(a, a).segments, a.segments[2:]):
            with pytest.raises(ValueError, match="read-only"):
                table.N_H[0] = 0

    @pytest.mark.parametrize("line", [
        "1,10,1,1,1,1,1,1",
        "1,10,1,1,1,1,1,1,1,1",
        "1,10,1,1,x,1,1,1,1",
        "1,10,1,1,99999999999999999999,1,1,1,1",
        "1,10,1,1,1,1,1,1,9223372036854775808",
        "-9223372036854775809,10,1,1,1,1,1,1,1",
        "1,10,1,1,1,1,-1,1,1",
        "1,0,50,0,0,0,0,0,0",
        "1,10,11,1,1,1,1,1,1",
        "1,10,1,1,1,5,1,1,1",
        "1,10,5,5,5,5,5,5,9",
    ], ids=["too-few-columns", "too-many-columns", "not-an-integer",
            "above-int64", "just-above-int64", "below-int64", "negative",
            "no-bins", "count-above-bins", "pair-above-single",
            "triple-above-pair"])
    def test_malformed_csv_row_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "counts.csv"
        header = ",".join(("segment_index", "bins") + COUNT_FIELDS)
        path.write_text(f"{header}\n0,10,1,1,1,1,1,1,1\n{line}\n")
        with pytest.raises(ValueError, match=r"counts\.csv, line 3: "):
            read_segment_csv(path, bin_width=1e-9)

    @pytest.mark.parametrize("line", [
        "30000,10,1,1,1,1,1,1",
        "30000,10,1,1,x,1,1,1,1",
        "30000,10,1,1,99999999999999999999,1,1,1,1",
    ], ids=["too-few-columns", "not-an-integer", "above-int64"])
    def test_malformed_row_deep_in_a_long_csv_names_its_line(self, tmp_path,
                                                             line):
        # The rows stream into the table, so the error comes from inside
        # it, with 30 000 good rows read before and 20 000 after.
        path = tmp_path / "counts.csv"
        header = ",".join(("segment_index", "bins") + COUNT_FIELDS)
        good = [f"{i},10,1,1,1,1,1,1,1" for i in range(50_000)]
        good[30_000] = line
        path.write_text("\n".join([header] + good) + "\n")
        with pytest.raises(ValueError, match=r"counts\.csv, line 30002: "):
            read_segment_csv(path, bin_width=1e-9)
        good[30_000] = "30000,10,1,1,1,1,1,1,1"
        path.write_text("\n".join([header] + good) + "\n")
        tracemalloc.start()
        try:
            counts = read_segment_csv(path, bin_width=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts.segments) == 50_000 and counts.N_H12 == 50_000
        # A list of the rows as tuples would take about 2.5 times the
        # table's 3.6 MB on top of it.
        assert peak < 2 * counts.segments.nbytes, peak

    def test_csv_that_is_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ValueError, match=r"counts\.csv: not UTF-8: ") as raised:
            read_segment_csv(path, bin_width=1e-9)
        assert not isinstance(raised.value, UnicodeDecodeError)

    @pytest.mark.parametrize("key", ["bin_width", "n_bins", "N_H", "N_H12"])
    def test_json_missing_key_named(self, tmp_path, key):
        path = tmp_path / "counts.json"
        write_counts_json(accumulate(random_streams(100, seed=18)), path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"counts.json: missing key '{key}'"):
            read_counts_json(path)

    def test_json_fractional_count_rejected(self, tmp_path):
        path = tmp_path / "counts.json"
        write_counts_json(accumulate(random_streams(100, seed=19)), path)
        payload = json.loads(path.read_text())
        payload["N_1"] = 2.5
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'N_1' is not an integer"):
            read_counts_json(path)


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [write_segment_csv, write_counts_json])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, write):
        counts = accumulate(random_streams(10_000, seed=21), segment_bins=1024)
        fail_after_first_write(monkeypatch)
        with pytest.raises(OSError, match="first write"):
            write(counts, tmp_path / "counts")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [write_segment_csv, write_counts_json])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch,
                                                  write):
        counts = accumulate(random_streams(10_000, seed=22), segment_bins=1024)
        path = tmp_path / "counts"
        write(counts, path)
        before = path.read_bytes()
        fail_after_first_write(monkeypatch)
        with pytest.raises(OSError, match="first write"):
            write(accumulate(random_streams(10_000, seed=23)), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("write", [write_segment_csv, write_counts_json])
    def test_missing_directory_names_the_path(self, tmp_path, write):
        path = tmp_path / "nodir" / "counts.json"
        with pytest.raises(FileNotFoundError) as raised:
            write(accumulate(random_streams(100, seed=24)), path)
        assert raised.value.filename == str(path)
        assert str(raised.value) == (
            f"[Errno 2] No such file or directory: '{path}'")
        assert list(tmp_path.iterdir()) == []


# Both ends of int64's non-negative range and every change in digit count.
_DIGIT_EDGES = [0, 2**63 - 1] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
_COUNT = st.one_of(st.sampled_from(_DIGIT_EDGES), st.integers(0, 2**63 - 1))


def within_count_bounds(row) -> tuple:
    """``row`` with its bins raised to at least 1 and its largest count,
    and each pair and triple count lowered to the counts that bound it."""
    index, bins, h, s1, s2, h1, h2, s12, h12 = row
    h1, h2, s12 = min(h1, h, s1), min(h2, h, s2), min(s12, s1, s2)
    return (index, max(bins, h, s1, s2, 1), h, s1, s2, h1, h2, s12,
            min(h12, h1, h2, s12))


class TestSegmentCsvBytes:
    """write_segment_csv's formatter gives csv.writer's bytes, and reads back."""

    @staticmethod
    def assert_written_as_csv_writer(rows) -> None:
        # The table reads back when every row keeps the count bounds, and
        # is refused at the first row that does not.
        counts = CoincidenceCounts(bin_width=1e-9, segments=segment_table(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.csv"
            write_segment_csv(counts, path)
            assert path.read_bytes() == segment_csv_bytes(counts)
            line = next((line for line, row in enumerate(rows, start=2)
                         if tuple(row) != within_count_bounds(row)), None)
            if line is None:
                assert read_segment_csv(path, bin_width=1e-9) == counts
            else:
                with pytest.raises(ValueError,
                                   match=rf"counts\.csv, line {line}: "):
                    read_segment_csv(path, bin_width=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(*[_COUNT] * 9), max_size=12))
    @example(rows=[])
    @example(rows=[(0,) * 9])
    @example(rows=[(3, 48_000, 4, 3, 2, 2, 1, 1, 1)])
    # 38 rows that put every edge in every column (38 and 9 are coprime).
    @example(rows=[tuple((_DIGIT_EDGES * 9)[i:i + 9])
                   for i in range(0, 9 * len(_DIGIT_EDGES), 9)])
    def test_bytes_are_csv_writers(self, rows):
        self.assert_written_as_csv_writer(rows)
        self.assert_written_as_csv_writer(list(map(within_count_bounds, rows)))

    def test_negative_values_are_refused(self, tmp_path):
        # Each negative row is in the second chunk, after the first chunk
        # has gone to the temporary file.
        chunk = coincidence._CSV_CHUNK
        path = tmp_path / "counts.csv"
        for column in range(9):
            for value in (-1, -2**63):
                rows = [[i, 10, 1, 1, 1, 1, 1, 1, 1] for i in range(chunk + 3)]
                rows[chunk + 1][column] = value
                counts = CoincidenceCounts(
                    1e-9, segment_table(map(tuple, rows)))
                with pytest.raises(ValueError) as raised:
                    write_segment_csv(counts, path)
                assert str(raised.value) == (
                    f"{path}: cannot write a negative value")
                assert list(tmp_path.iterdir()) == []

    def test_chunks_that_change_word_count(self):
        # One digit word, then five words, then one word again: each chunk
        # is laid out for its own values.
        rng = np.random.default_rng(26)
        chunk = coincidence._CSV_CHUNK
        small = rng.integers(0, 10, size=(chunk, 9))
        large = rng.integers(10**18, 2**63 - 1, size=(chunk, 9), endpoint=True)
        values = np.concatenate([small, large, small[:7]])
        rows = [tuple(r) for r in values.tolist()]
        self.assert_written_as_csv_writer(rows)
        self.assert_written_as_csv_writer(list(map(within_count_bounds, rows)))

    def test_memory_is_bounded_by_the_chunk(self, tmp_path):
        n = 200_000
        table = np.zeros(n, dtype=segment_table().dtype)
        table["segment_index"] = np.arange(n)
        table["n_bins"] = 48_000
        for k, field in enumerate(COUNT_FIELDS):
            table[field] = np.arange(n) * (k + 1) % 40_000
        counts = CoincidenceCounts(1e-9, table.view(np.recarray))
        tracemalloc.start()
        try:
            write_segment_csv(counts, tmp_path / "counts.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "counts.csv").stat().st_size > 10**7
        # The table is 14.4 MB and its CSV 11 MB.  One chunk's int64 rows
        # take 72 bytes each; its words, their bytes and the formatter's
        # index arrays peaked at 7.4 times that (0.14 MB at 256 rows), and
        # a write of the whole table as one chunk at 100 MB.
        assert peak < 16 * 72 * coincidence._CSV_CHUNK, peak

    def test_rows_across_chunk_boundaries(self):
        rng = np.random.default_rng(24)
        n = 2 * coincidence._CSV_CHUNK + 1
        values = rng.integers(0, 2**63 - 1, size=(n, 9), dtype=np.int64)
        values[:, 0] = np.arange(n)
        rows = [tuple(r) for r in values.tolist()]
        self.assert_written_as_csv_writer(rows)
        self.assert_written_as_csv_writer(list(map(within_count_bounds, rows)))

    def test_a_table_view_of_strided_rows(self, tmp_path):
        counts = accumulate(random_streams(10_000, seed=25), segment_bins=100)
        every_other = CoincidenceCounts(counts.bin_width, counts.segments[::2])
        write_segment_csv(every_other, tmp_path / "counts.csv")
        assert ((tmp_path / "counts.csv").read_bytes()
                == segment_csv_bytes(every_other))

    @pytest.mark.parametrize("count_type", [np.int32])
    def test_other_count_types_are_written_as_csv_writer(self, tmp_path,
                                                         count_type):
        values = [1, 0, 3, 7, 2**31 - 1, 5, 9]
        rows = [(i, 10 + i, *np.roll(values, i).tolist())
                for i in range(2 * coincidence._CSV_CHUNK + 1)]
        counts = CoincidenceCounts(1e-9, segment_table(rows, count_type=count_type))
        write_segment_csv(counts, tmp_path / "counts.csv")
        assert ((tmp_path / "counts.csv").read_bytes()
                == segment_csv_bytes(counts))

    @pytest.mark.parametrize("count_type", [float, np.uint64, bool])
    def test_other_count_types_are_refused(self, tmp_path, count_type):
        counts = CoincidenceCounts(1e-9, segment_table(
            [(0, 10, 1, 1, 1, 1, 1, 1, 1)], count_type=count_type))
        path = tmp_path / "counts.csv"
        with pytest.raises(ValueError) as raised:
            write_segment_csv(counts, path)
        assert str(raised.value).startswith(
            f"{path}: cannot write {np.dtype(count_type)} counts")
        assert list(tmp_path.iterdir()) == []


class TestThroughput:
    def test_counts_millions_of_bins_per_second(self):
        streams = random_streams(5_000_000, seed=15)
        start = time.perf_counter()
        accumulate(streams, segment_bins=48_000)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0  # >= 1e6 bins/s with a wide margin
