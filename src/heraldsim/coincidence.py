"""Singles and coincidence counting over click streams.

Counting is defined per bin: a coincidence is two (or three) channels
clicking in the *same* bin.  With packed bitmaps this reduces to bytewise
AND plus population count, so 10^8-bin streams count in well under a
second; the test suite checks it against a naive per-bin loop.

Counts are reported the way a segmented counter would: per-segment rows
(:class:`SegmentCounts`) bundled with run totals (:class:`CoincidenceCounts`).
A short final segment is kept, never dropped — its smaller ``bins`` column
marks it.  Everything serialises to plain CSV / JSON so analysis never
needs the raw streams.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .streams import ClickStreams

__all__ = [
    "SegmentCounts",
    "CoincidenceCounts",
    "accumulate",
    "merge",
    "counts_from_cells",
    "write_segment_csv",
    "read_segment_csv",
    "write_counts_json",
    "read_counts_json",
]

COUNT_FIELDS = ("N_H", "N_1", "N_2", "N_H1", "N_H2", "N_12", "N_H12")

# Bits set per byte value, for popcounting packed bitmaps.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                          axis=1).sum(axis=1).astype(np.uint8)


@dataclass(frozen=True)
class SegmentCounts:
    """Counting results for one contiguous segment of bins.

    Invariants (guaranteed by construction from real streams): every pair
    count is bounded by its singles, N_H12 <= min(N_H1, N_H2, N_12), and
    everything is bounded by n_bins.
    """

    segment_index: int
    n_bins: int
    N_H: int
    N_1: int
    N_2: int
    N_H1: int
    N_H2: int
    N_12: int
    N_H12: int


@dataclass(frozen=True)
class CoincidenceCounts:
    """Per-segment counts plus run totals for one observation.

    Totals are derived from the segment rows, so they can never drift out
    of sync; ``duration`` is the observation time the counts represent.
    """

    bin_width: float
    segments: tuple[SegmentCounts, ...]

    def _total(self, field: str) -> int:
        return sum(getattr(seg, field) for seg in self.segments)

    @property
    def n_bins(self) -> int:
        return self._total("n_bins")

    @property
    def N_H(self) -> int:
        return self._total("N_H")

    @property
    def N_1(self) -> int:
        return self._total("N_1")

    @property
    def N_2(self) -> int:
        return self._total("N_2")

    @property
    def N_H1(self) -> int:
        return self._total("N_H1")

    @property
    def N_H2(self) -> int:
        return self._total("N_H2")

    @property
    def N_12(self) -> int:
        return self._total("N_12")

    @property
    def N_H12(self) -> int:
        return self._total("N_H12")

    @property
    def duration(self) -> float:
        """Total observation time in seconds."""
        return self.n_bins * self.bin_width

    def totals(self) -> dict[str, int]:
        """Run totals as a plain dict (plus n_bins)."""
        out = {"n_bins": self.n_bins}
        out.update({f: self._total(f) for f in COUNT_FIELDS})
        return out


def _popcount_bytes(packed: np.ndarray) -> np.ndarray:
    """Per-byte set-bit counts, without materialising bools."""
    return _POPCOUNT[packed]


def _segment_counts_packed(h: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                           index: int, n_bins: int) -> SegmentCounts:
    h1 = h & s1
    h2 = h & s2

    def pop(arr: np.ndarray) -> int:
        return int(_popcount_bytes(arr).sum(dtype=np.int64))

    return SegmentCounts(
        segment_index=index,
        n_bins=n_bins,
        N_H=pop(h),
        N_1=pop(s1),
        N_2=pop(s2),
        N_H1=pop(h1),
        N_H2=pop(h2),
        N_12=pop(s1 & s2),
        N_H12=pop(h1 & s2),
    )


def accumulate(streams: ClickStreams, segment_bins: int | None = None,
               first_segment_index: int = 0) -> CoincidenceCounts:
    """Count singles and same-bin coincidences, partitioned into segments.

    Bins [i*segment_bins, (i+1)*segment_bins) form segment i; the final
    segment may be short.  ``segment_bins=None`` counts the whole stream as
    one segment.  Totals are exact sums of the segment rows.
    """
    if segment_bins is None:
        segment_bins = streams.n_bins
    if segment_bins < 1:
        raise ValueError(f"segment_bins must be >= 1, got {segment_bins}")

    segments: list[SegmentCounts] = []
    if segment_bins % 8 == 0:
        # Byte-aligned segments: slice the packed arrays directly.
        seg_bytes = segment_bins // 8
        n_segments = -(-streams.n_bins // segment_bins)
        for i in range(n_segments):
            lo = i * seg_bytes
            hi = min(lo + seg_bytes, streams.herald.size)
            bins = min(segment_bins, streams.n_bins - i * segment_bins)
            segments.append(_segment_counts_packed(
                streams.herald[lo:hi], streams.signal_1[lo:hi],
                streams.signal_2[lo:hi], first_segment_index + i, bins))
    else:
        h, s1, s2 = streams.bools()
        for i, lo in enumerate(range(0, streams.n_bins, segment_bins)):
            hi = min(lo + segment_bins, streams.n_bins)
            sub = ClickStreams.from_bools(h[lo:hi], s1[lo:hi], s2[lo:hi],
                                          bin_width=streams.bin_width)
            segments.append(_segment_counts_packed(
                sub.herald, sub.signal_1, sub.signal_2,
                first_segment_index + i, hi - lo))
    return CoincidenceCounts(bin_width=streams.bin_width, segments=tuple(segments))


def merge(a: CoincidenceCounts, b: CoincidenceCounts) -> CoincidenceCounts:
    """Concatenate segment lists; totals add.

    Segments are renumbered consecutively so merged results always carry
    unique, ordered indices; the per-segment count values are untouched.
    Associative and commutative on totals.
    """
    if a.bin_width != b.bin_width:
        raise ValueError("cannot merge counts with different bin widths")
    renumbered = []
    for i, seg in enumerate(a.segments + b.segments):
        if seg.segment_index != i:
            seg = SegmentCounts(segment_index=i, n_bins=seg.n_bins,
                                **{f: getattr(seg, f) for f in COUNT_FIELDS})
        renumbered.append(seg)
    return CoincidenceCounts(bin_width=a.bin_width, segments=tuple(renumbered))


def counts_from_cells(cells: np.ndarray, segment_index: int = 0) -> SegmentCounts:
    """Convert an 8-pattern bin census into counting results.

    ``cells[(h << 2) | (s1 << 1) | s2]`` is the number of bins with exactly
    that joint click pattern (see the segment_cells samplers).
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.shape != (8,):
        raise ValueError(f"expected 8 pattern cells, got shape {cells.shape}")
    c = [int(v) for v in cells]
    return SegmentCounts(
        segment_index=segment_index,
        n_bins=int(cells.sum()),
        N_H=c[4] + c[5] + c[6] + c[7],
        N_1=c[2] + c[3] + c[6] + c[7],
        N_2=c[1] + c[3] + c[5] + c[7],
        N_H1=c[6] + c[7],
        N_H2=c[5] + c[7],
        N_12=c[3] + c[7],
        N_H12=c[7],
    )


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

_SEGMENT_HEADER = ("segment_index", "bins") + COUNT_FIELDS


def write_segment_csv(counts: CoincidenceCounts, path: str | Path) -> None:
    """One CSV row per segment, in order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SEGMENT_HEADER)
        for seg in counts.segments:
            writer.writerow([seg.segment_index, seg.n_bins]
                            + [getattr(seg, f) for f in COUNT_FIELDS])


def read_segment_csv(path: str | Path, bin_width: float) -> CoincidenceCounts:
    """Read rows written by :func:`write_segment_csv`.

    The CSV carries no bin width, so it must be supplied (it lives in the
    JSON summary written alongside).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _SEGMENT_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        segments = []
        for row in reader:
            vals = [int(v) for v in row]
            segments.append(SegmentCounts(segment_index=vals[0], n_bins=vals[1],
                                          **dict(zip(COUNT_FIELDS, vals[2:]))))
    return CoincidenceCounts(bin_width=bin_width, segments=tuple(segments))


def write_counts_json(counts: CoincidenceCounts, path: str | Path,
                      config: dict | None = None) -> None:
    """Run totals as JSON, optionally echoing the generating configuration."""
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
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_counts_json(path: str | Path) -> tuple[CoincidenceCounts, dict | None]:
    """Read totals written by :func:`write_counts_json` (as one segment).

    Returns the counts and the configuration echo (None when the file was
    written without one).
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "coincidence-counts":
        raise ValueError(f"{path}: not a coincidence-counts file")
    seg = SegmentCounts(segment_index=0, n_bins=payload["n_bins"],
                        **{f: payload[f] for f in COUNT_FIELDS})
    counts = CoincidenceCounts(bin_width=payload["bin_width"],
                               segments=(seg,))
    return counts, payload.get("config")
