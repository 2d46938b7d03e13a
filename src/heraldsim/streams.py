"""Per-bin click streams for the three detectors, bit-packed.

A run produces, for every time bin, a click/no-click outcome on each of the
herald (H), signal-1, and signal-2 detectors.  :class:`ClickStreams` stores
the three channels as packed little-endian bitmaps (one bit per bin), which
keeps 10^8-bin runs affordable (3 bits/bin) and makes coincidence counting a
matter of bytewise AND + popcount.

On disk the same bitmaps live in a small binary container (magic ``PSTM``,
version 1); see :func:`write_streams` for the exact layout.
:class:`StreamWriter` writes a container part by part, splicing parts
that end inside a byte onto the next one bitwise, so a run never needs
its whole record in memory; :func:`write_streams` and
:meth:`ClickStreams.concat` use the same splice.  ``simulate`` appends
one part per block of segments, so the writer needs no buffer of its own
to keep its seeks and writes few.  A sparse CSV export (one row per
click), for eyeballing and for interoperability with spreadsheet
tooling, is written by :class:`SparseCsvWriter`: ``simulate`` appends
each block's clicked bins as the blocks are placed, and the writer
formats them at once, so a block of clicks is the batch and none is
held between appends.  :func:`write_sparse_csv` writes the same file
from a container, unpacking and scanning each channel a fixed-size
chunk at a time; it shares only the header and the row formatter with
the writer, so comparing the two checks each.  Rows are formatted by :func:`_write_rows`, each
run of rows with equally many digits as one numpy byte array, four
digits per lookup in the table ``_WORDS`` of the words ``0000`` ...
``9999``, from which :mod:`heraldsim.coincidence` also formats its
segment tables.  Every file is written under a temporary name and
renamed into place when complete.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

__all__ = [
    "ClickStreams",
    "StreamWriter",
    "write_streams",
    "read_streams",
    "write_sparse_csv",
    "SparseCsvWriter",
    "StreamFormatError",
]

MAGIC = b"PSTM"
FORMAT_VERSION = 1
_CHANNELS = 3  # herald, signal 1, signal 2
_NAMES = ("herald", "signal_1", "signal_2")
# write_sparse_csv reads, unpacks, scans and formats each channel
# _CHUNK_BYTES packed bytes at a time: a bool per bin and an int64 and a
# row per click of one chunk, however densely the detectors click.  The
# simulate-qm container's 159 896 rows took a median of 21 ms at 2**14
# against 106 at 2**10, 39 at 2**12, 17.5 at 2**15 and 16.4 at 2**17, at
# tracemalloc peaks of 301, 34, 87, 586 and 2 297 KiB (21 runs each, one
# Xeon core, numpy 2.4).
_CHUNK_BYTES = 1 << 14
_CLICKS_HEADER = b"channel,bin_index\n"
_PREFIXES = (b"H,", b"1,", b"2,")
# 10**1 ... 10**18: a bin index below 10**d has at most d digits; int64
# indices have at most 19.
_DECADES = [10**digits for digits in range(1, 19)]


def _ascii_words() -> np.ndarray:
    """The ASCII words ``b"0000"`` ... ``b"9999"`` as native uint32, by value."""
    words = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):  # digit k of every word varies along axis k
        words[..., k] = np.arange(48, 58, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - k))
    return words.view(np.uint32).ravel()


_WORDS = _ascii_words()


_HEADER = struct.Struct("<4sHQdB")  # magic, version, n_bins, bin_width, channels


class StreamFormatError(ValueError):
    """Raised when a stream file is malformed or has an unsupported version."""


@contextmanager
def _replacing(path: str | Path) -> Iterator[IO[bytes]]:
    """A new binary file that becomes ``path`` when the block completes.

    It is written under a fresh temporary name in the directory of
    ``path`` and renamed over ``path`` at the end of the block; an
    exception deletes it instead, so ``path`` never holds a partial file.
    An error opening it (a missing directory, say) names ``path``, not the
    temporary name.  Every output file of the package is written here.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _pack(bits: np.ndarray, n_bins: int) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.shape != (n_bins,):
        raise ValueError(f"channel must have shape ({n_bins},), got {bits.shape}")
    return np.packbits(bits.astype(bool, copy=False), bitorder="little")


def _splice(tail, tail_bits: int, packed: np.ndarray, n_bins: int) -> np.ndarray:
    """The bytes of ``tail_bits`` low bits of ``tail``, then ``n_bins`` bits.

    ``packed`` holds the ``n_bins`` bits; the result starts with the byte
    that holds the tail.  Its pad bits are zero when those of ``tail`` and
    ``packed`` are.
    """
    if not tail_bits:
        return packed
    out = np.zeros(packed.size + 1, dtype=np.uint8)
    out[:-1] = packed << tail_bits
    out[1:] |= packed >> (8 - tail_bits)
    out[0] |= tail
    return out[:(tail_bits + n_bins + 7) // 8]


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
        for name in _NAMES:
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

    def concat(self, *others: "ClickStreams") -> "ClickStreams":
        """Append ``others`` after this stream, in order (equal bin widths).

        Each part is spliced in bitwise at its byte offset, as
        :class:`StreamWriter` does on disk.
        """
        parts = (self,) + others
        if any(part.bin_width != self.bin_width for part in others):
            raise ValueError("cannot concatenate streams with different bin widths")
        n_bins = sum(part.n_bins for part in parts)
        channels = {name: np.zeros((n_bins + 7) // 8, dtype=np.uint8)
                    for name in _NAMES}
        lo = 0
        for part in parts:
            for name, out in channels.items():
                data = _splice(out[lo // 8] if lo % 8 else 0, lo % 8,
                               getattr(part, name), part.n_bins)
                out[lo // 8:lo // 8 + data.size] = data
            lo += part.n_bins
        return ClickStreams(n_bins=n_bins, bin_width=self.bin_width, **channels)


def write_streams(streams: ClickStreams, path: str | Path) -> None:
    """Write the binary stream container: a :class:`StreamWriter` fed one part.

    Layout (all little-endian):
      - 4 bytes  magic ``PSTM``
      - u16      format version (currently 1)
      - u64      n_bins
      - f64      bin_width in seconds
      - u8       channel count (always 3: herald, signal 1, signal 2)
      - 3 x ceil(n_bins/8) bytes: packed bitmaps in channel order,
        little-endian bit order (bit i of byte j is bin 8*j + i).
    """
    with StreamWriter(path, streams.n_bins, streams.bin_width) as writer:
        writer.append(streams)


class StreamWriter:
    """Write a stream container part by part, in bin order.

    The container is written under a temporary name in the directory of
    ``path`` and sized to its final length up front.  Each appended part's
    bytes go straight to their offsets in the three channel bitmaps; a part
    that ends inside a byte leaves that byte as the tail the next part is
    spliced onto, so parts of any length append without unpacking.  Leaving
    the ``with`` block after all ``n_bins`` bins renames the file to
    ``path``; an exception, or a missing bin, deletes it instead, so an
    interrupted run never leaves a well-formed container behind.
    """

    def __init__(self, path: str | Path, n_bins: int, bin_width: float) -> None:
        self.path = Path(path)
        self.n_bins = n_bins
        self.bin_width = float(bin_width)
        self._written = 0
        self._nbytes = (n_bins + 7) // 8
        self._tails = [0] * _CHANNELS
        with ExitStack() as stack:
            self._fh = stack.enter_context(_replacing(self.path))
            self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n_bins,
                                        self.bin_width, _CHANNELS))
            self._fh.truncate(_HEADER.size + _CHANNELS * self._nbytes)
            self._file = stack.pop_all()

    def append(self, part: ClickStreams) -> None:
        """Write the next ``part.n_bins`` bins."""
        if part.bin_width != self.bin_width:
            raise ValueError("cannot append streams with a different bin width")
        lo, n_bins = self._written, part.n_bins
        end = lo + n_bins
        if end > self.n_bins:
            raise ValueError(f"{self.path}: {end} bins exceed "
                             f"the declared {self.n_bins}")
        at, shift, tails = _HEADER.size + lo // 8, lo % 8, self._tails
        for k, bitmap in enumerate((part.herald, part.signal_1, part.signal_2)):
            data = _splice(tails[k], shift, bitmap, n_bins)
            self._fh.seek(at + k * self._nbytes)
            self._fh.write(np.ascontiguousarray(data))
            tails[k] = int(data[-1]) if end % 8 else 0
        self._written = end

    def close(self) -> None:
        """Put the finished container at ``path`` (all bins must be written)."""
        with self._file:
            if self._written != self.n_bins:
                raise ValueError(f"{self.path}: {self._written} of {self.n_bins} "
                                 "bins written")

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._file.__exit__(exc_type, exc, tb)


def _read_header(fh, path) -> tuple[int, float, int]:
    """Check a container's header, size and pad bits.

    Returns (n_bins, bin_width, bytes per channel) with ``fh`` positioned
    at the first channel.
    """
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise StreamFormatError(f"{path}: truncated header")
    magic, version, n_bins, bin_width, channels = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StreamFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StreamFormatError(f"{path}: unsupported version {version}")
    if channels != _CHANNELS:
        raise StreamFormatError(f"{path}: expected {_CHANNELS} channels, got {channels}")
    nbytes = (n_bins + 7) // 8
    expected = _HEADER.size + _CHANNELS * nbytes
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise StreamFormatError(
            f"{path}: size mismatch (expected {expected} bytes, got {size})"
        )
    if n_bins % 8:
        for k in range(1, _CHANNELS + 1):
            fh.seek(_HEADER.size + k * nbytes - 1)
            if fh.read(1)[0] >> (n_bins % 8):
                raise StreamFormatError(
                    f"{path}: nonzero pad bits after bin {n_bins}")
        fh.seek(_HEADER.size)
    return n_bins, bin_width, nbytes


def read_streams(path: str | Path) -> ClickStreams:
    """Read a binary stream container written by :func:`write_streams`."""
    with open(path, "rb") as fh:
        n_bins, bin_width, nbytes = _read_header(fh, path)
        channels = [np.fromfile(fh, dtype=np.uint8, count=nbytes)
                    for _ in range(_CHANNELS)]
    return ClickStreams(n_bins, bin_width, *channels)


def write_sparse_csv(source: str | Path, path: str | Path) -> int:
    """Write one ``channel,bin_index`` row per click of the container ``source``.

    The rows are those :class:`SparseCsvWriter` writes, but no writer is
    involved: each channel, in order, is read, unpacked and scanned for
    its clicks ``_CHUNK_BYTES`` at a time, and each chunk's clicks are
    formatted straight into the file, so memory stays fixed whatever the
    run length and click rate.  The file is written under a temporary
    name and renamed to ``path`` when complete.  Returns the number of
    click rows written.
    """
    rows = 0
    with open(source, "rb") as fh, _replacing(path) as out:
        _, _, nbytes = _read_header(fh, source)
        out.write(_CLICKS_HEADER)
        for prefix in _PREFIXES:
            for start in range(0, nbytes, _CHUNK_BYTES):
                chunk = np.fromfile(fh, dtype=np.uint8,
                                    count=min(_CHUNK_BYTES, nbytes - start))
                bits = np.unpackbits(chunk, bitorder="little").view(bool)
                bins = np.flatnonzero(bits) + 8 * start
                _write_rows(out, prefix, bins)
                rows += bins.size
    return rows


class SparseCsvWriter:
    """Write ``clicks.csv``: one ``channel,bin_index`` row per click.

    Channels are named H, 1, 2; rows are grouped by channel and ordered by
    bin within each.  Each appended part's clicks are formatted at once,
    one call per channel that clicked, so the writer holds no click and
    no reference to the part between appends.  Herald rows go straight
    to the file, which is written under a temporary name; the rows of
    channels 1 and 2 go to unnamed spill files in the same directory,
    copied in after the herald rows when the ``with`` block ends.  An
    exception deletes the temporary file and the spill files instead.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.rows = 0
        with ExitStack() as stack:
            out = stack.enter_context(_replacing(self.path))
            out.write(_CLICKS_HEADER)
            self._files = [out] + [
                stack.enter_context(tempfile.TemporaryFile(dir=self.path.parent))
                for _ in range(_CHANNELS - 1)]
            self._stack = stack.pop_all()

    def append(self, offset: int, channels) -> None:
        """Write the clicks of one part that starts at bin ``offset``.

        ``channels`` holds each channel's clicked bins of the part,
        ascending int64 from the part's first bin, all past the clicks
        appended before.
        """
        for out, prefix, bins in zip(self._files, _PREFIXES, channels):
            if bins.size:
                _write_rows(out, prefix, bins + offset)
                self.rows += bins.size

    def close(self) -> int:
        """Put the finished file at ``path``; returns the rows written."""
        with self._stack:
            out = self._files[0]
            for spill in self._files[1:]:
                spill.seek(0)
                shutil.copyfileobj(spill, out)
        return self.rows

    def __enter__(self) -> "SparseCsvWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._stack.__exit__(exc_type, exc, tb)


def _write_rows(out, prefix: bytes, bins: np.ndarray) -> None:
    """Write ``prefix``, the decimal index and a newline for each of ``bins``.

    ``bins`` is ascending int64, so rows with the same number of digits are
    contiguous, and ``prefix`` has at least two bytes.  Each such run is
    one ``(rows, len(prefix) + digits + 1)`` uint8 block after one spare
    byte.  Its digits are filled four at a time, lowest first: one
    ``np.take`` of ``_WORDS`` into a strided uint32 view of the block per
    four digits, in uint32 arithmetic while the indices have at most 9
    digits.  A top word of fewer than four digits starts up to three bytes
    early: in the prefix, and at most one byte before the row, on the
    newline of the row before or on the spare byte.  The prefix and
    newline columns are written after the digits.
    """
    lo = 0
    for digits, hi in enumerate(np.searchsorted(bins, _DECADES).tolist()
                                + [bins.size], start=1):
        if hi == lo:
            continue
        width = len(prefix) + digits + 1
        buf = np.empty(1 + (hi - lo) * width, dtype=np.uint8)
        x = bins[lo:hi]
        if digits <= 9:
            x = x.astype(np.uint32)
        first = 1 + len(prefix)  # offset in buf of the first row's digits
        offset = first + digits
        while True:
            offset -= 4
            word = np.ndarray(hi - lo, dtype=np.uint32, buffer=buf,
                              offset=offset, strides=(width,))
            if offset <= first:
                np.take(_WORDS, x, out=word)
                break
            q = x // 10000
            np.take(_WORDS, x - 10000 * q, out=word)
            x = q
        block = buf[1:].reshape(hi - lo, width)
        for col, char in enumerate(prefix):  # faster than a broadcast row
            block[:, col] = char
        block[:, -1] = ord("\n")
        out.write(block)
        lo = hi
