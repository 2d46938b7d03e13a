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
streams.

The click-pattern encoding lives here alone.  A bin's joint click pattern
is ``(h << 2) | (s1 << 1) | s2``, the channel bits ``CHANNEL_BITS``; a
channel set is a mask of them, and ``FIELD_MASKS`` holds each count
field's set.  Each model's per-bin law and each segment's census are 8
cells in that index, which :func:`counts_from_cells` turns into counts,
:func:`clicks_from_cells` into clicks; :func:`alternating_sum` is their
inclusion-exclusion.  The placement behind :func:`clicks_from_cells`
places a block of consecutive segments at once, each from its own draw,
and also gives each channel's clicked bins in ascending order, the rows
of ``clicks.csv``, so a run's click record is written without scanning
its bitmaps.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .core import _MAX_BINS
from .streams import ClickStreams, _replacing

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
# four 48 000-bin segments, sorting and packing 2 000 flips took 22 us
# against 105 us for the scan, 24 000 flips 254 us against 305 us, and
# 32 000 flips 437 us against 330 us (one Xeon core, numpy 2.4).
_SORT_BELOW = 6
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
    that joint click pattern; the cells sum to ``n_bins``.  The most
    frequent pattern fills the segment.  ``rng.choice`` draws the positions
    of the other bins as a uniformly random subset in uniformly random
    order, and consecutive blocks of those positions take the remaining
    patterns in index order.  Every arrangement of the census is therefore
    equally likely: the law of any exchangeable bin sequence given its
    census (Diaconis & Freedman, Ann. Probab. 8, 1980), such as the
    independent bins whose census each model's ``segment_cells`` draws.
    """
    packed, _ = _placed_channels([np.asarray(cells).tolist()], [n_bins],
                                 lambda _: rng)
    return tuple(np.unpackbits(channel, count=n_bins, bitorder="little")
                 .view(bool) for channel in packed)


def _placement_bytes(counts: list[int],
                     row: tuple[int, ...]) -> tuple[int, bool]:
    """What placing one census adds to a block of :func:`_placed_channels`.

    ``counts`` is the census as a list and ``row`` its segment row.
    Returns the bytes of the block's arrays that grow with the segment
    (int64 placed positions and each channel's bit of their patterns,
    packed bitmaps, int64 clicked bins), and whether the segment can make
    a channel of its block scan, which then holds a bool per bin of the
    block as well.  A segment that its silent pattern fills, with fewer
    placed bins than one in ``_SORT_BELOW``, cannot.  Joining the
    segments' draws holds the positions twice for a moment, which this
    does not count.  A 48 000-bin simulate-qm segment counts about 32 KB,
    so a block of the 512 KiB ``runner._BLOCK_BYTES`` holds 16 of them;
    a 48 000-bin simulate-pcsft segment, which places about 10 700 bins
    and scans, counts about 220 KB and is a block of its own.
    """
    n_bins, clicks = row[1], row[2] + row[3] + row[4]  # N_H + N_1 + N_2
    top = max(counts)
    placed = n_bins - top
    scans = counts[0] != top or _SORT_BELOW * placed >= n_bins
    return 11 * placed + 8 * clicks + 3 * n_bins // 8, scans


def _placed_channels(counts: list[list[int]], sizes: list[int],
                     rng_of: Callable[[int], np.random.Generator],
                     ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The clicks of consecutive segments, placed, packed and as bin lists.

    ``counts[i]`` is the census, as a list, of a segment of ``sizes[i]``
    bins, which is placed as :func:`clicks_from_cells` places it alone:
    its most frequent pattern fills it, and ``rng_of(i).choice``, asked
    for just before that segment's draw, positions its other bins.
    Returns one bitmap per channel (herald, signal_1, signal_2) of the
    block's ``sum(sizes)`` bins, packed as ClickStreams holds them
    (little-endian bit order, zero pad bits), and each channel's clicked
    bins counted from the block's first bin, ascending int64.

    Whether a placed bin's pattern has a channel's bit comes from the
    rows' other cells repeated in index order.  A channel that no segment
    fills clicks on exactly the placed bins whose pattern has its bit;
    while they are fewer than one bin in ``_SORT_BELOW`` they are sorted
    and packed straight into its bitmap.  Any other channel is a bool
    array of the block, each segment's fill bit overwritten by the pattern
    bit of its placed bins, which is scanned for its clicks.
    """
    fills, others, draws, start = [], [], [], 0
    for i, (row, n_bins) in enumerate(zip(counts, sizes)):
        if len(row) != 8 or sum(row) != n_bins or min(row) < 0:
            raise ValueError(f"expected 8 pattern cells summing to {n_bins}, "
                             f"got {row}")
        top = max(row)
        fill = row.index(top)
        fills.append(fill)
        others += row
        others[fill - 8] = 0
        if top < n_bins:
            draw = rng_of(i).choice(n_bins, n_bins - top, replace=False)
            if start:
                draw += start
            draws.append(draw)
        start += n_bins
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
    return tuple(packed), tuple(clicked)


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
_CSV_ROW = ",".join(["%d"] * len(_SEGMENT_HEADER)) + "\r\n"
# Segment rows formatted per write.  Small enough that each chunk's
# strings reuse heap memory rather than raise the peak.
_CSV_CHUNK = 256
_INT64_SEGMENT = _segment_dtype(np.int64)


def write_segment_csv(counts: CoincidenceCounts, path: str | Path) -> None:
    """The segment table as CSV, one row per segment, in order.

    The bytes are those of ``csv.writer``: each chunk of rows is read as
    one flat int64 array and formatted through one row template.  Counts
    of a type int64 cannot hold exactly (floats, say) are refused with a
    ValueError naming the file and the type, and nothing is written.  The
    file is renamed to ``path`` only once complete.
    """
    table = counts.segments.view(np.ndarray)
    count_type = table.dtype[COUNT_FIELDS[0]]
    if count_type.kind not in "iu" or not np.can_cast(count_type, np.int64):
        raise ValueError(f"{path}: cannot write {count_type} counts; "
                         "the counts of a segment table must be integers")
    with _replacing(path) as fh:
        fh.write(_CSV_HEADER)
        for lo in range(0, len(table), _CSV_CHUNK):
            rows = table[lo:lo + _CSV_CHUNK].astype(_INT64_SEGMENT, order="C")
            values = rows.view(np.int64).tolist()
            fh.write(((_CSV_ROW * len(rows)) % tuple(values)).encode())


def read_segment_csv(path: str | Path, bin_width: float) -> CoincidenceCounts:
    """Read a table written by :func:`write_segment_csv`.

    The CSV carries no bin width, so it must be supplied (it lives in the
    JSON summary written alongside).  Rows go into the table as they are
    read.  Raises ValueError naming the file when it is not UTF-8, and the
    file and line of a malformed row.
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
        except ValueError as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
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
    if errors:
        return errors
    n_bins = payload["n_bins"]
    if n_bins < 1:
        return [f"'n_bins' must be >= 1, got {n_bins}"]
    if n_bins > _MAX_BINS:
        return [f"'n_bins' must be at most 2**63 - 1, got {n_bins}"]
    errors += [f"'{key}' = {payload[key]} is outside [0, n_bins = {n_bins}]"
               for key in COUNT_FIELDS if not 0 <= payload[key] <= n_bins]
    errors += [f"'{key}' = {payload[key]} exceeds '{bound}' = {payload[bound]}"
               for key, bounds in _COUNT_BOUNDS.items() for bound in bounds
               if payload[key] > payload[bound]]
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
