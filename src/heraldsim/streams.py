"""Per-bin click streams for the three detectors, bit-packed.

A run produces, for every time bin, a click/no-click outcome on each of the
herald (H), signal-1, and signal-2 detectors.  :class:`ClickStreams` stores
the three channels as packed little-endian bitmaps (one bit per bin), which
keeps 10^8-bin runs affordable (3 bits/bin) and makes coincidence counting a
matter of bytewise AND + popcount.

On disk the same bitmaps live in a small binary container (magic ``PSTM``,
version 1); see :func:`write_streams` for the exact layout.  A sparse CSV
export (one row per bin with at least one click) is provided for eyeballing
and for interoperability with spreadsheet tooling.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ClickStreams",
    "write_streams",
    "read_streams",
    "write_sparse_csv",
    "StreamFormatError",
]

MAGIC = b"PSTM"
FORMAT_VERSION = 1
_CHANNELS = 3  # herald, signal 1, signal 2

_HEADER = struct.Struct("<4sHQdB")  # magic, version, n_bins, bin_width, channels


class StreamFormatError(ValueError):
    """Raised when a stream file is malformed or has an unsupported version."""


def _pack(bits: np.ndarray, n_bins: int) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.shape != (n_bins,):
        raise ValueError(f"channel must have shape ({n_bins},), got {bits.shape}")
    return np.packbits(bits.astype(bool), bitorder="little")


@dataclass(frozen=True)
class ClickStreams:
    """Bit-packed click records for one contiguous stretch of bins.

    Bit i of each bitmap (little-endian bit order within each byte) is 1
    iff the corresponding detector clicked in bin i.  Trailing pad bits in
    the final byte are zero.
    """

    n_bins: int
    bin_width: float
    herald: np.ndarray    # uint8, ceil(n_bins / 8) bytes
    signal_1: np.ndarray
    signal_2: np.ndarray

    def __post_init__(self) -> None:
        nbytes = (self.n_bins + 7) // 8
        for name in ("herald", "signal_1", "signal_2"):
            arr = getattr(self, name)
            if arr.dtype != np.uint8 or arr.shape != (nbytes,):
                raise ValueError(
                    f"{name}: expected uint8 array of {nbytes} bytes for "
                    f"{self.n_bins} bins, got {arr.dtype} {arr.shape}"
                )

    @classmethod
    def from_bools(cls, herald, signal_1, signal_2,
                   bin_width: float) -> "ClickStreams":
        """Pack three boolean (or 0/1) arrays of equal length."""
        herald = np.asarray(herald)
        n_bins = herald.shape[0]
        return cls(
            n_bins=n_bins,
            bin_width=float(bin_width),
            herald=_pack(herald, n_bins),
            signal_1=_pack(signal_1, n_bins),
            signal_2=_pack(signal_2, n_bins),
        )

    def bools(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unpack back to three boolean arrays of length n_bins."""
        out = []
        for arr in (self.herald, self.signal_1, self.signal_2):
            bits = np.unpackbits(arr, bitorder="little")[: self.n_bins]
            out.append(bits.astype(bool))
        return tuple(out)

    @property
    def duration(self) -> float:
        """Total observation time covered, in seconds."""
        return self.n_bins * self.bin_width

    def concat(self, *others: "ClickStreams") -> "ClickStreams":
        """Append ``others`` after this stream, in order (equal bin widths)."""
        parts = (self,) + others
        if any(part.bin_width != self.bin_width for part in others):
            raise ValueError("cannot concatenate streams with different bin widths")
        if all(part.n_bins % 8 == 0 for part in parts[:-1]):
            # Byte-aligned: concatenation is a straight bytes append.
            return ClickStreams(
                n_bins=sum(part.n_bins for part in parts),
                bin_width=self.bin_width,
                herald=np.concatenate([p.herald for p in parts]),
                signal_1=np.concatenate([p.signal_1 for p in parts]),
                signal_2=np.concatenate([p.signal_2 for p in parts]),
            )
        channels = zip(*(part.bools() for part in parts))
        return ClickStreams.from_bools(*(np.concatenate(c) for c in channels),
                                       bin_width=self.bin_width)


def write_streams(streams: ClickStreams, path: str | Path) -> None:
    """Write the binary stream container.

    Layout (all little-endian):
      - 4 bytes  magic ``PSTM``
      - u16      format version (currently 1)
      - u64      n_bins
      - f64      bin_width in seconds
      - u8       channel count (always 3: herald, signal 1, signal 2)
      - 3 x ceil(n_bins/8) bytes: packed bitmaps in channel order,
        little-endian bit order (bit i of byte j is bin 8*j + i).
    """
    buf = io.BytesIO()
    buf.write(_HEADER.pack(MAGIC, FORMAT_VERSION, streams.n_bins,
                           streams.bin_width, _CHANNELS))
    buf.write(streams.herald.tobytes())
    buf.write(streams.signal_1.tobytes())
    buf.write(streams.signal_2.tobytes())
    Path(path).write_bytes(buf.getvalue())


def read_streams(path: str | Path) -> ClickStreams:
    """Read a binary stream container written by :func:`write_streams`."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise StreamFormatError(f"{path}: truncated header")
    magic, version, n_bins, bin_width, channels = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise StreamFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StreamFormatError(f"{path}: unsupported version {version}")
    if channels != _CHANNELS:
        raise StreamFormatError(f"{path}: expected {_CHANNELS} channels, got {channels}")
    nbytes = (n_bins + 7) // 8
    expected = _HEADER.size + _CHANNELS * nbytes
    if len(raw) != expected:
        raise StreamFormatError(
            f"{path}: size mismatch (expected {expected} bytes, got {len(raw)})"
        )
    body = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    if n_bins % 8 and np.any(body[nbytes - 1 :: nbytes] >> (n_bins % 8)):
        raise StreamFormatError(f"{path}: nonzero pad bits after bin {n_bins}")
    return ClickStreams(
        n_bins=n_bins,
        bin_width=bin_width,
        herald=body[:nbytes].copy(),
        signal_1=body[nbytes : 2 * nbytes].copy(),
        signal_2=body[2 * nbytes : 3 * nbytes].copy(),
    )


def write_sparse_csv(streams: ClickStreams, path: str | Path) -> int:
    """Write one ``channel,bin_index`` row per click, for eyeballing streams.

    Channels are named H, 1, 2; rows are grouped by channel and ordered by
    bin within each.  Returns the number of click rows written.
    """
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write("channel,bin_index\n")
        for name, bits in zip(("H", "1", "2"), streams.bools()):
            for idx in np.flatnonzero(bits):
                fh.write(f"{name},{idx}\n")
                rows += 1
    return rows
