"""Singles and coincidence counting over click streams and pattern laws.

Counting is defined per bin: a coincidence is two (or three) channels
clicking in the *same* bin.  With packed bitmaps this reduces to bytewise
AND plus population count, so 10^8-bin streams count in well under a
second; the test suite checks it against a naive per-bin loop.

Counts are reported the way a segmented counter would: one table with a
row per segment (:func:`segment_table`), bundled with the bin width in
:class:`CoincidenceCounts`, whose run totals are column sums.  The table
is what ``counts.csv`` holds (``n_bins`` is its ``bins`` column), and the
totals are what ``counts.json`` holds, so analysis never needs the raw
streams.  Both are written and read here; a negative value is refused.

The click-pattern encoding lives here, and in the outer product that
lays out ``pcsft``'s coupled law, herald bit highest.  A bin's joint
click pattern is ``(h << 2) | (s1 << 1) | s2``, the channel bits
``CHANNEL_BITS``; a channel set is a mask of them, and ``FIELD_MASKS``
holds each count field's set.  Each model's per-bin law and each
segment's census are 8 cells in that index, which
:func:`counts_from_cells` turns into counts, :func:`clicks_from_cells`
into clicks; :func:`alternating_sum` is their inclusion-exclusion.  The
placement behind :func:`clicks_from_cells` also places a run's censuses
as they arrive, a block of consecutive segments within ``_BLOCK_BYTES``
at a time, each from its own draw, and gives each channel's clicked bins
in ascending order, the rows of ``clicks.csv``, so a run's click record
is written without scanning its bitmaps.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import _MAX_BINS
from .streams import _WORDS, ClickStreams, _replacing

__all__ = [
    "CoincidenceCounts",
    "segment_table",
    "accumulate",
    "counts_from_cells",
    "law_counts",
    "clicks_from_cells",
    "alternating_sum",
    "write_segment_csv",
    "read_segment_csv",
    "write_counts_json",
    "read_counts_json",
]

COUNT_FIELDS = ("N_H", "N_1", "N_2", "N_H1", "N_H2", "N_12", "N_H12")
SEGMENT_FIELDS = ("segment_index", "n_bins") + COUNT_FIELDS
# Pattern bit of each channel: herald, signal detector 1, signal detector 2.
CHANNEL_BITS = (4, 2, 1)
# The channel set, a mask of CHANNEL_BITS, of each COUNT_FIELDS entry.
FIELD_MASKS = (4, 2, 1, 6, 5, 3, 7)
# Every channel set, by size and herald first: alternating_sum's order.
_SUBSETS = (0,) + FIELD_MASKS

# Whether each pattern has each channel's bit, and the value of each bit
# of a byte.
_HAS_BIT = np.array([[bool(pattern & bit) for pattern in range(8)]
                     for bit in CHANNEL_BITS])
_BIT_VALUES = np.array([1 << k for k in range(8)], dtype=np.uint8)
# The placed bins of a block whose censuses each hold one pattern.
_NO_BINS = np.empty(0, dtype=np.int64)
# A channel's clicked bins are its flips sorted while they are fewer than
# one bin in _SORT_BELOW, and a scan of its bits otherwise.  In a block of
# sixteen 48 000-bin segments, sorting and packing 8 000 flips took 97-116
# us against 409-417 us for the scan, 96 000 flips 1 188-1 658 us against
# 902-1 276 us, and 128 000 flips 1 555-2 233 us against 904-1 370 us
# (medians of 15, two runs, one Xeon core, numpy 2.4).  A block within
# _BLOCK_BYTES places at most about 47 000 bins, where sorting wins.
_SORT_BELOW = 6
# The bytes a block of simulate's segments may place at once
# (_placed_blocks), chosen by measurement.  Median ms of an in-process
# simulate run over five fresh processes per budget, with the range of
# minor page faults per run (one Xeon core, numpy 2.4; dense and mixed
# are the CI configs of that name, the last column simulate-qm cut into
# 4 800-bin segments):
#
#   budget  simulate-qm    simulate-pcsft  dense          mixed         qm 4 800
#   2**16   27.0 (0)       3.67 (29-132)   96.8 (0)       51.9 (4-76)   57.6 (5-98)
#   2**17   22.6 (1-2)     3.73 (0-157)    97.0 (0)       49.4 (3-5)    53.9 (4-5)
#   2**18   21.2 (0)       3.69 (0-157)    92.3 (1-4)     48.5 (1-3)    51.1 (0-85)
#   2**19   22.0 (134-164) 3.73 (0-157)    87.8 (144-222) 49.4 (1-2)    50.8 (1)
#   2**20   20.8 (375-493) 3.67 (205-231)  88.9 (558-790) 48.0 (99-269) 51.2 (0-490)
#
# The benchmark's calibrated simulate-qm wall_s, whose process has run
# the workload before it times it, read 18.3-18.8 ms at 2**19 against
# 19.1-19.7 at 2**18 and 18.4-18.6 at 2**20.  2**19 keeps a block's
# arrays within a core's 2 MB L2 cache and faults a third as often as
# 2**20.  simulate-pcsft places each of its segments as a block of its
# own at every budget up to 2**19.
_BLOCK_BYTES = 1 << 19
# Bits set per byte value, for popcounting packed bitmaps.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                          axis=1).sum(axis=1).astype(np.uint8)


def _segment_dtype(count_type) -> np.dtype:
    return np.dtype([(f, np.int64) for f in SEGMENT_FIELDS[:2]]
                    + [(f, count_type) for f in COUNT_FIELDS])


def segment_table(rows: Iterable = (), count_type=np.int64) -> np.recarray:
    """A segment table: one row per segment, fields ``SEGMENT_FIELDS``.

    ``rows`` holds tuples (segment_index, n_bins, N_H, N_1, N_2, N_H1,
    N_H2, N_12, N_H12) or rows of another table.  Observed counts are
    integers; ``count_type=float`` holds expectations (background
    subtraction), with ``segment_index`` and ``n_bins`` still integers.
    Rows are stored as they arrive, never held as a Python list.  Columns
    read as ``table.N_H12`` and rows as ``table[i].N_H12``.  The table is
    read-only, so counts that share it cannot change each other.
    """
    table = np.fromiter(rows, dtype=_segment_dtype(count_type)).view(np.recarray)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class CoincidenceCounts:
    """A segment table plus the bin width, for one observation.

    Totals are column sums of the table, so they can never drift out of
    sync, and come back as Python numbers.  Invariants (guaranteed by
    construction from real streams): every pair count is bounded by its
    singles, N_H12 <= min(N_H1, N_H2, N_12), and everything by n_bins.
    Two counts are equal when their bin widths and rows are.
    """

    bin_width: float
    segments: np.recarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoincidenceCounts):
            return NotImplemented
        return (self.bin_width == other.bin_width
                and np.array_equal(self.segments, other.segments))

    def _total(self, field: str):
        # A plain ndarray view: recarray field access costs microseconds.
        return np.add.reduce(self.segments.view(np.ndarray)[field]).item()

    n_bins = property(lambda self: self._total("n_bins"))
    N_H = property(lambda self: self._total("N_H"))
    N_1 = property(lambda self: self._total("N_1"))
    N_2 = property(lambda self: self._total("N_2"))
    N_H1 = property(lambda self: self._total("N_H1"))
    N_H2 = property(lambda self: self._total("N_H2"))
    N_12 = property(lambda self: self._total("N_12"))
    N_H12 = property(lambda self: self._total("N_H12"))

    @property
    def duration(self) -> float:
        """Total observation time in seconds."""
        return self.n_bins * self.bin_width

    def totals(self) -> dict[str, int | float]:
        """Run totals as a plain dict (plus n_bins).

        Python ints for observed counts; floats for the count fields of a
        float table.
        """
        return {f: self._total(f) for f in SEGMENT_FIELDS[1:]}


def _packed_counts(h: np.ndarray, s1: np.ndarray,
                   s2: np.ndarray) -> tuple[int, ...]:
    """The COUNT_FIELDS of packed channel bitmaps, by popcount."""
    h1 = h & s1
    h2 = h & s2
    return tuple(int(_POPCOUNT[arr].sum(dtype=np.int64))
                 for arr in (h, s1, s2, h1, h2, s1 & s2, h1 & s2))


def accumulate(streams: ClickStreams,
               segment_bins: int | None = None) -> CoincidenceCounts:
    """Count singles and same-bin coincidences, partitioned into segments.

    Segments of ``segment_bins`` are cut as ``ExperimentConfig`` cuts a
    run; ``segment_bins=None`` counts the whole stream as one segment.
    """
    if segment_bins is None:
        segment_bins = streams.n_bins
    if segment_bins < 1:
        raise ValueError(f"segment_bins must be >= 1, got {segment_bins}")

    packed = (streams.herald, streams.signal_1, streams.signal_2)
    # Aligned segments are slices (pad bits are zero); others are re-packed.
    aligned = segment_bins % 8 == 0 or segment_bins >= streams.n_bins
    rows = []
    for i, lo in enumerate(range(0, streams.n_bins, segment_bins)):
        n = min(segment_bins, streams.n_bins - lo)
        part = [c[lo // 8:(lo + n + 7) // 8] for c in packed]
        if not aligned:
            part = [np.packbits(np.unpackbits(c, bitorder="little")[lo % 8:][:n])
                    for c in part]
        rows.append((i, n, *_packed_counts(*part)))
    return CoincidenceCounts(bin_width=streams.bin_width,
                             segments=segment_table(rows))


def counts_from_cells(cells: np.ndarray, segment_index: int = 0) -> tuple[int, ...]:
    """Convert an 8-pattern bin census into one segment row.

    ``cells[(h << 2) | (s1 << 1) | s2]`` is the number of bins with exactly
    that joint click pattern: a census (see the segment_cells samplers),
    an integer array, or ``n * law`` for a per-bin pattern law, the
    expected census of ``n`` bins.  The row is a tuple of Python numbers in
    ``SEGMENT_FIELDS`` order, as :func:`segment_table` takes it.
    """
    if not isinstance(cells, np.ndarray):
        cells = np.asarray(cells)
    if cells.shape != (8,):
        raise ValueError(f"expected 8 pattern cells, got shape {cells.shape}")
    c = cells.tolist()
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    return (segment_index, sum(c),
            c4 + c5 + c6 + c7,   # N_H
            c2 + c3 + c6 + c7,   # N_1
            c1 + c3 + c5 + c7,   # N_2
            c6 + c7,             # N_H1
            c5 + c7,             # N_H2
            c3 + c7,             # N_12
            c7)                  # N_H12


def law_counts(law: np.ndarray, n_bins: int) -> dict[str, float]:
    """Expected ``COUNT_FIELDS`` over ``n_bins`` bins of a per-bin pattern law."""
    return dict(zip(COUNT_FIELDS, counts_from_cells(n_bins * np.asarray(law))[2:]))


def clicks_from_cells(cells, n_bins: int, rng: np.random.Generator,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-bin clicks (herald, signal_1, signal_2) showing a given census.

    ``cells[(h << 2) | (s1 << 1) | s2]`` is the number of bins with exactly
    that joint click pattern: 8 integers summing to ``n_bins``, or a
    ValueError naming the census.  The most frequent pattern fills the
    segment.  ``rng.choice`` draws the positions of the other bins as a
    uniformly random subset in uniformly random order, and consecutive
    blocks of those positions take the remaining patterns in index order.
    Every arrangement of the census is therefore equally likely: the law
    of any exchangeable bin sequence given its census (Diaconis &
    Freedman, Ann. Probab. 8, 1980), such as the independent bins whose
    census each model's ``segment_cells`` draws.
    """
    census = np.asarray(cells)
    if (census.shape != (8,) or census.dtype.kind not in "iu"
            or census.sum() != n_bins or census.min() < 0):
        raise ValueError(f"expected 8 pattern cells, integers summing to "
                         f"{n_bins}, got {census.tolist()}")
    (_, _, packed, _), = _placed_blocks([(census, counts_from_cells(census))],
                                        lambda _: rng)
    return tuple(np.unpackbits(channel, count=n_bins, bitorder="little")
                 .view(bool) for channel in packed)


def _placed_blocks(censuses: Iterable[tuple[np.ndarray, tuple[int, ...]]],
                   rng_of: Callable[[int], np.random.Generator],
                   ) -> Iterator[tuple]:
    """Consecutive segments' clicks, placed, packed and listed a block at a time.

    ``censuses`` yields each segment's census, an integer array, and its
    :func:`counts_from_cells` row.  Each segment is placed as
    :func:`clicks_from_cells` places it alone, ``rng_of(segment_index)``
    drawing its positions.  Yields each block's rows, its bins, one bitmap
    per channel (herald, signal_1, signal_2) packed as ClickStreams holds
    them, and each channel's clicked bins counted from the block's first
    bin, ascending int64.

    A block takes segments while its placement arrays stay within
    ``_BLOCK_BYTES``, and at least one.  A segment adds 11 bytes per
    placed bin (an int64 position and a bool per channel), 8 per click
    (int64 clicked bins) and 3 per 8 bins (bitmaps).  The block also
    holds a bool per bin once a segment can make a channel scan: one
    filled by a clicking pattern, or placing one bin in ``_SORT_BELOW``.
    Joining the draws holds the positions twice for a moment, uncounted.
    A 48 000-bin simulate-qm segment counts about 32 KB, 16 to a block; a
    simulate-pcsft one places about 10 700 bins and scans, counts about
    220 KB and is a block of its own.
    """
    block, others, held, bins, scans = [], [], 0, 0, False
    for cells, row in censuses:
        census = cells.tolist()
        n_bins, top = row[1], max(census)
        fill = census.index(top)
        scan = fill != 0 or _SORT_BELOW * (n_bins - top) >= n_bins
        size = (11 * (n_bins - top) + 3 * n_bins // 8
                + 8 * (row[2] + row[3] + row[4]))  # N_H + N_1 + N_2 clicks
        if block and (held + size + (bins + n_bins) * (scans or scan)
                      > _BLOCK_BYTES):
            yield _placed_block(block, others, rng_of)
            block, others, held, bins, scans = [], [], 0, 0, False
        census[fill] = 0
        block.append((row, fill, top))
        others += census
        held += size
        bins += n_bins
        scans = scans or scan
    if block:
        yield _placed_block(block, others, rng_of)


def _placed_block(block: list[tuple], others: list[int],
                  rng_of: Callable[[int], np.random.Generator]) -> tuple:
    """Place a block of :func:`_placed_blocks` once its last census is in.

    ``block`` holds each segment's row, fill pattern and fill count, and
    ``others`` its cells with the fill's zeroed, whose repeats give each
    placed bin's pattern.  Each generator is asked for just before its
    draw, as a pooled one is valid only until the next rekey.  A channel
    that no segment fills clicks on exactly the placed bins whose pattern
    has its bit; while they are fewer than one bin in ``_SORT_BELOW``
    they are sorted and packed straight into its bitmap.  Any other
    channel is a bool array of the block, each segment's fill bit
    overwritten by the pattern bit of its placed bins, and scanned.
    """
    rows, fills, tops = zip(*block)
    sizes = [row[1] for row in rows]
    draws, start = [], 0
    for row, size, top in zip(rows, sizes, tops):
        if top < size:
            draw = rng_of(row[0]).choice(size, size - top, replace=False)
            if start:
                draw += start
            draws.append(draw)
        start += size
    # A lone draw is used as it is.  Allocating its copy before or after
    # the choice, whose scratch array for a draw of many bins is larger
    # than the mmap threshold, made glibc map 196 KiB afresh at each
    # simulate-pcsft segment (minor faults).
    positions = draws[0] if len(draws) == 1 else np.concatenate(
        draws or [_NO_BINS])
    on_bits = np.repeat(_HAS_BIT if len(fills) == 1
                        else np.tile(_HAS_BIT, len(fills)), others, axis=1)
    packed, clicked = [], []
    for bit, on in zip(CHANNEL_BITS, on_bits):
        filled = [bool(fill & bit) for fill in fills]
        if not any(filled) and _SORT_BELOW * np.count_nonzero(on) < start:
            bins = positions[on]
            bins.sort()
            bitmap = np.zeros((start + 7) // 8, dtype=np.uint8)
            # Distinct bins set distinct bits, so adding them is or-ing
            # them, and np.add.at is several times faster than
            # np.bitwise_or.at (numpy 2.4).
            np.add.at(bitmap, bins >> 3, _BIT_VALUES[bins & 7])
        else:
            bits = (np.repeat(filled, sizes) if any(filled)
                    else np.zeros(start, dtype=bool))
            bits[positions] = on
            bins = np.flatnonzero(bits)
            bitmap = np.packbits(bits, bitorder="little")
        packed.append(bitmap)
        clicked.append(bins)
    return rows, start, tuple(packed), tuple(clicked)


def alternating_sum(mask: int, value: Callable[[int], float]):
    """Sum of (-1)^|T| * value(T) over the channel sets T within ``mask``.

    With ``value(T)`` the bins where all of T clicks (all bins for T = 0)
    it counts the bins where none of ``mask`` clicks, and vice versa.  Sets
    are visited in ``_SUBSETS`` order, so equal terms round the same way.
    """
    total = 0
    for t in _SUBSETS:
        if t & mask == t:
            total += -value(t) if bin(t).count("1") % 2 else value(t)
    return total


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

_SEGMENT_HEADER = ("segment_index", "bins") + COUNT_FIELDS
# csv.writer's dialect: comma-separated, no quoting needed, \r\n line ends.
_CSV_HEADER = (",".join(_SEGMENT_HEADER) + "\r\n").encode()
# Segment rows formatted per write, chosen by measurement.  Median ms of
# writing the four point tables of a sweep (sweep-qm 4 308 rows,
# sweep-pcsft 4 000) in-process, range over three processes, with minor
# page faults per write of the four and the tracemalloc peak (one Xeon
# core, numpy 2.4):
#
#   chunk  sweep-qm    sweep-pcsft  faults   peak
#   128    2.17-2.44   2.02-2.22    0         70 KiB
#   256    1.84-2.07   1.68-1.85    0        136 KiB
#   512    1.75-1.93   1.54-1.72    0-1      261 KiB
#   1024   2.00-2.22   1.82-2.02    119-152  511 KiB
#   2048   1.98-2.16   1.84-1.98    148-203  622 KiB
#
# From 1024 rows the arrays are mapped afresh on every chunk.  512 rows
# ran about 5 % faster than 256 (0.1 ms a sweep) at twice the heap peak,
# so 256 it is: a chunk's word array is then at most 54 KiB (9 cells of
# 6 words), half glibc's 128 KiB mmap threshold.
_CSV_CHUNK = 256
_INT64_SEGMENT = _segment_dtype(np.int64)
# No byte of a CSV line is 0xFF, so :func:`_csv_lines` can drop it.
_PAD = b"\xff"


def _word(text: bytes) -> np.uint32:
    """``text`` right-aligned in a native uint32, left-padded with 0xFF."""
    return np.frombuffer(text.rjust(4, _PAD), dtype=np.uint32)[0]


def _padded_words(zero: bytes) -> np.ndarray:
    """A word table of :func:`_csv_lines`: 20 000 native uint32.

    Entry ``10000 + w`` is ``streams._WORDS[w]``.  Entry ``w`` is the same
    word with its leading zeros replaced by the pad byte, and entry 0 is
    ``zero`` padded.
    """
    padded = _WORDS.copy()
    digits = padded.view(np.uint8).reshape(-1, 4)
    for k in range(3):  # digit k is a leading zero of the words below 10**(3-k)
        digits[:10**(3 - k), k] = _PAD[0]
    padded[0] = _word(zero)
    return np.concatenate([padded, _WORDS])


# A cell's lowest word ("0" for a zero cell) and its higher words (all pad
# above the cell's leading digit).
_UNIT_WORDS = _padded_words(b"0")
_HIGH_WORDS = _padded_words(b"")
_COMMA = _word(b",")
_CRLF = _word(b"\r\n")


def write_segment_csv(counts: CoincidenceCounts, path: str | Path) -> None:
    """The segment table as CSV, one row per segment, in order.

    The bytes are those of ``csv.writer``: each chunk of rows is read as
    one int64 array, in place when the counts are int64, and formatted by
    :func:`_csv_lines`.  Counts of a type int64 cannot hold exactly
    (floats, say) are refused with a ValueError naming the file and the
    type, a negative value with one naming the file, and nothing is
    written.  The file is renamed to ``path`` only once complete.
    """
    table = counts.segments.view(np.ndarray)
    count_type = table.dtype[COUNT_FIELDS[0]]
    if count_type.kind not in "iu" or not np.can_cast(count_type, np.int64):
        raise ValueError(f"{path}: cannot write {count_type} counts; "
                         "the counts of a segment table must be integers")
    with _replacing(path) as fh:
        fh.write(_CSV_HEADER)
        for lo in range(0, len(table), _CSV_CHUNK):
            rows = np.ascontiguousarray(table[lo:lo + _CSV_CHUNK],
                                        dtype=_INT64_SEGMENT)
            values = rows.view(np.int64).reshape(len(rows), -1)
            if values.min() < 0:
                raise ValueError(f"{path}: cannot write a negative value")
            fh.write(_csv_lines(values))


def _csv_lines(values: np.ndarray) -> bytes:
    """``csv.writer``'s lines of the non-empty, non-negative int64 ``values``.

    Every cell is laid out as fixed native uint32 words of one
    ``(rows, columns, words)`` array: the fewest digit words that hold the
    largest value (4 digits each, one ``np.take`` per word, in uint32
    arithmetic below 2**32), then a comma word, or CRLF for the last
    column.  A digit word's index is its value, plus 10 000 when a higher
    word is nonzero, so that only the leading word takes its padded
    entry; the pad bytes are dropped by one ``bytes.translate``.
    """
    rows, columns = values.shape
    top = int(values.max())
    k = 1
    while top >= 10000**k:
        k += 1
    x = values.astype(np.uint32) if top < 2**32 else values
    words = np.empty((rows, columns, k + 1), dtype=np.uint32)
    words[..., -1] = _COMMA
    words[:, -1, -1] = _CRLF
    table = _UNIT_WORDS
    for j in range(k - 1, 0, -1):  # lowest word first
        q = x // 10000
        t = q * 10000
        index = x - t
        np.minimum(t, 10000, out=t)  # 10 000 when a higher word is nonzero
        index += t
        # Every index is in range; "clip" writes out unbuffered.
        np.take(table, index, out=words[..., j], mode="clip")
        table, x = _HIGH_WORDS, q
    np.take(table, x, out=words[..., 0], mode="clip")
    return words.tobytes().translate(None, _PAD)


def read_segment_csv(path: str | Path, bin_width: float) -> CoincidenceCounts:
    """Read a table written by :func:`write_segment_csv`.

    The CSV carries no bin width, so it must be supplied (it lives in the
    JSON summary written alongside).  Rows go into the table as they are
    read.  Raises ValueError naming the file when it is not UTF-8, and the
    file and line of a malformed row, of one that holds a value outside
    the range 0 to 2**63 - 1, and of one whose counts no run can give:
    each row is checked as :func:`read_counts_json` checks its totals.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != _SEGMENT_HEADER:
                raise ValueError(f"{path}: unexpected header {header}")
            segments = segment_table(_csv_rows(reader, path))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    return CoincidenceCounts(bin_width=bin_width, segments=segments)


def _csv_rows(reader, path) -> Iterable[tuple[int, ...]]:
    """The integer rows of a segment CSV ``reader``, checked one by one."""
    for row in reader:
        if len(row) != len(_SEGMENT_HEADER):
            raise ValueError(f"{path}, line {reader.line_num}: expected "
                             f"{len(_SEGMENT_HEADER)} columns, got {len(row)}")
        try:
            values = tuple(int(v) for v in row)
            if not 0 <= min(values) <= max(values) <= _MAX_BINS:
                raise ValueError("a value outside the range 0 to 2**63 - 1")
        except ValueError as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        errors = _count_errors(dict(zip(_SEGMENT_HEADER, values)), "bins")
        if errors:
            raise ValueError("\n".join(f"{path}, line {reader.line_num}: {e}"
                                       for e in errors))
        yield values


def write_counts_json(counts: CoincidenceCounts, path: str | Path,
                      config: dict | None = None) -> None:
    """Run totals as JSON, optionally echoing the generating configuration.

    Written under a temporary name and renamed to ``path`` when complete,
    as :func:`write_segment_csv` is.
    """
    payload: dict = {
        "format": "coincidence-counts",
        "version": 1,
        "bin_width": counts.bin_width,
        "duration": counts.duration,
        "n_segments": len(counts.segments),
    }
    payload.update(counts.totals())
    if config is not None:
        payload["config"] = config
    with _replacing(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


# Each pair or triple total is bounded by these totals (CoincidenceCounts).
_COUNT_BOUNDS = {"N_H1": ("N_H", "N_1"), "N_H2": ("N_H", "N_2"),
                 "N_12": ("N_1", "N_2"), "N_H12": ("N_H1", "N_H2", "N_12")}


def _stored_total_errors(payload: dict) -> list[str]:
    """What is wrong with the bin width and totals of a counts payload."""
    errors = []
    width = payload.get("bin_width")
    if "bin_width" not in payload:
        errors.append("missing key 'bin_width'")
    elif (isinstance(width, bool) or not isinstance(width, (int, float))
          or not (math.isfinite(width) and width > 0)):
        errors.append(f"'bin_width' is not a finite number > 0: {width!r}")
    for key in SEGMENT_FIELDS[1:]:
        if key not in payload:
            errors.append(f"missing key '{key}'")
        elif type(payload[key]) is not int:
            errors.append(f"'{key}' is not an integer: {payload[key]!r}")
    return errors or _count_errors(payload, "n_bins")


def _count_errors(counts: dict, bins: str) -> list[str]:
    """What breaks the invariants of :class:`CoincidenceCounts` in ``counts``,
    which maps the key ``bins`` and each of ``COUNT_FIELDS`` to an int."""
    n_bins = counts[bins]
    if n_bins < 1:
        return [f"'{bins}' must be >= 1, got {n_bins}"]
    if n_bins > _MAX_BINS:
        return [f"'{bins}' must be at most 2**63 - 1, got {n_bins}"]
    errors = [f"'{key}' = {counts[key]} is outside [0, {bins} = {n_bins}]"
              for key in COUNT_FIELDS if not 0 <= counts[key] <= n_bins]
    errors += [f"'{key}' = {counts[key]} exceeds '{bound}' = {counts[bound]}"
               for key, bounds in _COUNT_BOUNDS.items() for bound in bounds
               if counts[key] > counts[bound]]
    return errors


def read_counts_json(path: str | Path) -> tuple[CoincidenceCounts, dict | None]:
    """Read totals written by :func:`write_counts_json` (as one segment).

    Returns the counts and the configuration echo (None when the file was
    written without one).  Raises ValueError naming the file and each key
    that is missing or malformed: the bin width must be a finite number
    > 0, the totals integers with n_bins >= 1 that keep the invariants of
    :class:`CoincidenceCounts`.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an over-long integer
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != "coincidence-counts":
        raise ValueError(f"{path}: not a coincidence-counts file")
    errors = _stored_total_errors(payload)
    if errors:
        raise ValueError("\n".join(f"{path}: {e}" for e in errors))
    row = (0,) + tuple(payload[f] for f in SEGMENT_FIELDS[1:])
    counts = CoincidenceCounts(bin_width=payload["bin_width"],
                               segments=segment_table([row]))
    return counts, payload.get("config")
