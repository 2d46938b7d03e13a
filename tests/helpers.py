"""Independent oracles used across the test suite.

Everything here deliberately avoids the package's own closed forms:
pair-number probabilities come from scipy, click probabilities from
explicit series summation, first-passage laws from a literal per-step
Euler walk, and coincidence counts from a per-bin loop.  Agreement between
these and the production code is then a genuine cross-check, not a
tautology.  ``first_passage_times`` turns the package's exit-step kernel
into exit times, for the first-passage checks.  ``merge`` joins two
segment tables, for the split-and-rejoin checks of counting, and
``pattern_counts`` takes the pattern census of click arrays.
``segment_csv_bytes`` writes a segment table through ``csv.writer``, the
oracle of ``write_segment_csv``'s word-table formatter.
``fail_after_first_write`` makes the package's file writes fail part way,
as a full disk does.
``placed_clicks`` places a census through a per-bin pattern array, the
oracle of the packed placement, and ``placed_segment`` packs it one
segment at a time, channel by channel, the oracle of the block placement.
``mechanistic_qm_clicks`` walks the photon model's physical
chain bin by bin (pair numbers from ``sample_pair_counts``, binomial
thinning, per-bin noise), the oracle of the law both qm samplers draw from;
it draws the ``OracleRole`` streams, which the package never keys.
``per_bin_envelope_clicks`` is the pcsft envelope's chain (a gain per bin,
each channel clicking at that bin's power, per-bin noise), the oracle of
the mixture law the pcsft samplers draw from.
``bools`` unpacks a ``ClickStreams`` container to boolean arrays, and
``with_law`` hands a sampler its model's law, as the runner does.
``g_factor`` (the source's bunching factor 1 + 1/M), the leading-order
heralded-g2 prediction ``predicted_heralded_g2`` and its mode-structure
band ``predicted_g2_band``, and the correlated-photon efficiency
estimators ``klyshko_efficiency`` and ``herald_efficiency`` are checked
against the simulators here; the package itself calls none of them.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import stats

from heraldsim.analysis import InsufficientStatistics
from heraldsim.coincidence import (CHANNEL_BITS, COUNT_FIELDS,
                                   CoincidenceCounts, segment_table)
from heraldsim import pcsft, streams
from heraldsim.core import (ExperimentConfig, Role, arm_efficiencies,
                            noise_probabilities, rng_stream, stream_id)
from heraldsim.streams import ClickStreams

_TAIL = 1e-16
BIN = 20.83e-9


class OracleRole(Role):
    """The package's stream roles plus those the per-bin oracles draw.

    The ids are the ones these roles had in the package, so no stream
    moves; HERALD shares id 1 with PLACEMENT, which no census keys.
    """

    HERALD = 1
    SIGNAL_1 = 2
    SIGNAL_2 = 3
    NOISE_H = 4      # herald dark + background draws
    NOISE_1 = 5
    NOISE_2 = 6
    COUPLING = 7     # drawn by no oracle; the id is kept so none moves


def nb_pmf(n, mu: float, modes: int):
    """Pair-number pmf via scipy's negative binomial (scalar or array n)."""
    if mu == 0.0:
        return np.where(np.asarray(n) == 0, 1.0, 0.0)[()]
    m = mu / modes
    return stats.nbinom.pmf(n, modes, 1.0 / (1.0 + m))


def g_factor(mode_count: int) -> float:
    """Zero-delay autocorrelation 1 + 1/M of the unheralded source.

    Single-mode thermal light gives 2; the many-mode limit is Poissonian
    (1).  This is the pair-bunching factor entering the heralded-g2
    prediction.
    """
    if mode_count < 1:
        raise ValueError(f"mode_count must be >= 1, got {mode_count}")
    return 1.0 + 1.0 / mode_count


def predicted_heralded_g2(pair_prob_1: float, eta_h: float,
                          bunching: float = 1.0) -> float:
    """Leading-order heralded-g2 prediction G * P1 * (2 - eta_h).

    ``pair_prob_1`` is the single-pair probability per bin and ``bunching``
    the source factor G, 1 + 1/M for M modes (1 = Poissonian, 2 =
    single-mode thermal).  Double pairs dominate the heralded g2 at
    P1 << 1: their probability is (G/2) P1^2 and a fraction
    1 - (1 - eta_h)^2 of them raises the herald, giving
    2 (G/2 P1^2 / P1) (1-(1-eta_h)^2)/eta_h = G P1 (2 - eta_h).
    """
    if eta_h <= 0.0:
        raise ValueError("eta_h must be > 0 (heralding on a dead detector)")
    if pair_prob_1 < 0.0:
        raise ValueError("pair_prob_1 must be >= 0")
    return bunching * pair_prob_1 * (2.0 - eta_h)


def predicted_g2_band(pair_prob_1: float, eta_h: float) -> tuple[float, float]:
    """Mode-structure band: heralded-g2 predictions at G = 1 and G = 2.

    Any thermal mode count lands between the Poissonian (many-mode) floor
    and the single-mode ceiling; the band collapses to (0, 0) at P1 = 0.
    """
    return (predicted_heralded_g2(pair_prob_1, eta_h, 1.0),
            predicted_heralded_g2(pair_prob_1, eta_h, 2.0))


def series_no_click(cfg: ExperimentConfig, channels: tuple[int, ...]) -> float:
    """P(no clicks on a channel subset) by direct series summation.

    Channels are indexed 0=herald, 1=detector 1, 2=detector 2.  Sums
    pmf(n) * P(one pair misses every requested channel) ** n over every n
    up to the point whose upper pmf tail is below ``_TAIL`` (scipy's
    ``isf``; a stop on the running pmf sum never fires, since the rounded
    sum stays short of 1 - 1e-16), then applies the independent noise
    factors.  Independent of the production generating-function form.
    """
    mu = cfg.source.pair_mean_per_bin
    modes = cfg.source.mode_count
    eff = arm_efficiencies(cfg)
    miss = 1.0
    if 0 in channels:
        miss *= 1.0 - eff[0]
    signal_detect = sum(eff[c] for c in channels if c in (1, 2))
    miss *= 1.0 - signal_detect

    last = stats.nbinom.isf(_TAIL, modes, 1.0 / (1.0 + mu / modes))
    n = np.arange(int(last) + 2)
    total = float(np.sum(nb_pmf(n, mu, modes) * miss**n))
    noise = noise_probabilities(cfg)
    for c in channels:
        total *= 1.0 - noise[c]
    return total


def series_pattern_probs(cfg: ExperimentConfig) -> np.ndarray:
    """All eight joint click-pattern probabilities via inclusion-exclusion.

    P(exactly the pattern T clicks) = sum over W ⊆ T of (−1)^|W| * P(no
    clicks on (complement of T) ∪ W), with the no-click terms from
    series_no_click.
    """
    quiet = {}
    for mask in range(8):
        channels = tuple(c for c in range(3) if mask & (1 << (2 - c)))
        quiet[mask] = series_no_click(cfg, channels)

    probs = np.zeros(8)
    for pattern in range(8):
        comp = (~pattern) & 0b111
        total = 0.0
        sub = pattern
        while True:
            sign = -1.0 if bin(sub).count("1") % 2 else 1.0
            total += sign * quiet[comp | sub]
            if sub == 0:
                break
            sub = (sub - 1) & pattern
        probs[pattern] = total
    return probs


def euler_exit_steps(rng: np.random.Generator, barrier: float, step_std,
                     n_steps: int, n_paths: int) -> np.ndarray:
    """Literal per-step random walk, first step index with |W| >= barrier.

    ``step_std`` may be a scalar or a per-path array.  Returns int64 step
    numbers (1-based), 0 where no exit happened.  The reference
    implementation for the accelerated kernel's law.
    """
    step_std = np.broadcast_to(np.asarray(step_std, dtype=float), (n_paths,))
    out = np.zeros(n_paths, dtype=np.int64)
    pos = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    for step in range(1, n_steps + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        pos[idx] += rng.normal(0.0, step_std[idx], size=idx.size)
        crossed = idx[np.abs(pos[idx]) >= barrier]
        out[crossed] = step
        alive[crossed] = False
    return out


def first_passage_times(rng: np.random.Generator, threshold_energy: float,
                        power: float, dt: float, n_paths: int,
                        horizon: float) -> np.ndarray:
    """Exit times of ``n_paths`` walks; ``inf`` where no exit by ``horizon``.

    Walks of variance rate ``power`` on a grid of step ``dt``, drawn with
    the package's accelerated kernel ``pcsft.discrete_exit_steps``.
    """
    if power == 0.0:
        return np.full(n_paths, np.inf)
    n_steps = int(round(horizon / dt))
    steps = pcsft.discrete_exit_steps(rng, math.sqrt(threshold_energy),
                                      math.sqrt(power * dt), n_steps,
                                      n_paths=n_paths)
    times = steps * dt
    times[steps == 0] = np.inf
    return times


def bin_patterns(herald, sig1, sig2) -> np.ndarray:
    """Each bin's joint click pattern, (h << 2) | (s1 << 1) | s2."""
    return ((herald.astype(np.int64) << 2) | (sig1.astype(np.int64) << 1)
            | sig2.astype(np.int64))


def pattern_counts(herald, sig1, sig2) -> np.ndarray:
    """Bins per joint click pattern, indexed as :func:`bin_patterns`."""
    return np.bincount(bin_patterns(herald, sig1, sig2), minlength=8)


def bools(part: ClickStreams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack a container back to three boolean arrays of length n_bins."""
    return tuple(
        np.unpackbits(arr, bitorder="little")[:part.n_bins].astype(bool)
        for arr in (part.herald, part.signal_1, part.signal_2))


def with_law(sampler, law_of):
    """``sampler`` drawing on ``law_of(cfg)``, the law the runner hands it."""
    return lambda cfg, *args, **kwargs: sampler(cfg, *args, law=law_of(cfg),
                                                **kwargs)


def brute_force_counts(streams: ClickStreams) -> CoincidenceCounts:
    """Naive per-bin loop over the three channels; the counting oracle.

    One segment covering the whole stream.  Intended for small inputs.
    """
    h, s1, s2 = (bits.tolist() for bits in bools(streams))
    n_h = n_1 = n_2 = n_h1 = n_h2 = n_12 = n_h12 = 0
    for a, b, c in zip(h, s1, s2):
        if a:
            n_h += 1
        if b:
            n_1 += 1
        if c:
            n_2 += 1
        if a and b:
            n_h1 += 1
        if a and c:
            n_h2 += 1
        if b and c:
            n_12 += 1
        if a and b and c:
            n_h12 += 1
    return make_counts(streams.n_bins, n_h, n_1, n_2, n_h1, n_h2, n_12, n_h12,
                       bin_width=streams.bin_width)


def make_counts(n_bins=1_000_000, N_H=0, N_1=0, N_2=0, N_H1=0, N_H2=0,
                N_12=0, N_H12=0, bin_width=BIN) -> CoincidenceCounts:
    """One-segment counts holding the given totals."""
    row = (0, n_bins, N_H, N_1, N_2, N_H1, N_H2, N_12, N_H12)
    return CoincidenceCounts(bin_width=bin_width, segments=segment_table([row]))


def klyshko_efficiency(counts: CoincidenceCounts,
                       ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Correlated-photon detector efficiency estimates for the signal arms.

    Returns ((eta_1, sigma_1), (eta_2, sigma_2)) with eta_i = N_Hi / N_H
    and binomial uncertainty sqrt(eta (1 - eta) / N_H).  The estimate is
    the whole path efficiency seen from the source: detector efficiency
    times attenuator and splitter shares.  Background-corrected inputs are
    expected; raw noise inflates N_H and biases the ratios down.
    """
    n_h = counts.N_H
    if n_h <= 0:
        raise InsufficientStatistics("klyshko efficiency needs N_H > 0")
    out = []
    for n_hi in (counts.N_H1, counts.N_H2):
        eta = n_hi / n_h
        out.append((eta, math.sqrt(eta * (1.0 - eta) / n_h)))
    return tuple(out)


def herald_efficiency(counts: CoincidenceCounts) -> tuple[float, float]:
    """Herald-arm efficiency estimate (N_H1 + N_H2) / (N_1 + N_2).

    The correlated-photon method looking the other way: of all signal
    detections, the fraction accompanied by a herald click estimates the
    herald path efficiency.  Binomial uncertainty on the signal-singles
    denominator.
    """
    denom = counts.N_1 + counts.N_2
    if denom <= 0:
        raise InsufficientStatistics("herald efficiency needs N_1 + N_2 > 0")
    eta = (counts.N_H1 + counts.N_H2) / denom
    return eta, math.sqrt(max(eta * (1.0 - eta), 0.0) / denom)


def merge(a: CoincidenceCounts, b: CoincidenceCounts) -> CoincidenceCounts:
    """Concatenate segment tables; totals add.

    Segments are renumbered consecutively so merged results always carry
    unique, ordered indices; the per-segment count values are untouched.
    Associative and commutative on totals.
    """
    if a.bin_width != b.bin_width:
        raise ValueError("cannot merge counts with different bin widths")
    table = np.concatenate([a.segments, b.segments]).view(np.recarray)
    table.segment_index = np.arange(len(table))
    table.flags.writeable = False
    return CoincidenceCounts(bin_width=a.bin_width, segments=table)


def segment_csv_bytes(counts: CoincidenceCounts) -> bytes:
    """The segment table's CSV as ``csv.writer`` writes it, CRLF included."""
    text = io.StringIO()
    csv.writer(text).writerows([("segment_index", "bins") + COUNT_FIELDS]
                               + counts.segments.tolist())
    return text.getvalue().encode()


def sample_pair_counts(rng: np.random.Generator, size: int,
                       pair_mean: float, mode_count: int = 1) -> np.ndarray:
    """Draw per-bin pair numbers for ``size`` bins (negative binomial)."""
    if pair_mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    m = pair_mean / mode_count
    return rng.negative_binomial(mode_count, 1.0 / (1.0 + m), size=size)


def mechanistic_qm_clicks(cfg: ExperimentConfig, segment_index: int,
                          n_bins: int | None = None, point_index: int = 0,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The photon model's chain, bin by bin: the oracle of its click law.

    Per bin: a pair number, each idler photon reaching the herald with
    eta_h, each signal photon surviving the attenuator, picking a splitter
    output and being detected, then independent noise OR-ed into each
    channel from its own stream.  Returns boolean (herald, signal_1,
    signal_2) arrays; a fresh generator per (point, segment, role).
    """
    if n_bins is None:
        n_bins = cfg.segment_bins
    src, opt = cfg.source, cfg.optics

    def rng(role):
        return rng_stream(cfg.seed, stream_id(segment_index, role, point_index))

    pairs = sample_pair_counts(rng(OracleRole.SOURCE), n_bins,
                               src.pair_mean_per_bin, src.mode_count)
    occupied = np.flatnonzero(pairs)
    n_occ = pairs[occupied]
    clicks = [np.zeros(n_bins, dtype=bool) for _ in range(3)]
    if occupied.size:
        clicks[0][occupied] = rng(OracleRole.HERALD).binomial(n_occ, opt.eta_h) > 0
        rng_s = rng(OracleRole.SIGNAL_1)
        passed = rng_s.binomial(n_occ, opt.attenuation)
        to_1 = rng_s.binomial(passed, opt.splitter_ratio)
        clicks[1][occupied] = rng_s.binomial(to_1, opt.eta_1) > 0
        clicks[2][occupied] = rng_s.binomial(passed - to_1, opt.eta_2) > 0
    roles = (OracleRole.NOISE_H, OracleRole.NOISE_1, OracleRole.NOISE_2)
    for arr, p, role in zip(clicks, noise_probabilities(cfg), roles):
        if p:
            arr |= rng(role).random(n_bins) < p
    return tuple(clicks)


def per_bin_envelope_clicks(cfg: ExperimentConfig, segment_index: int,
                            n_bins: int | None = None, point_index: int = 0,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field model's envelope chain, bin by bin: the oracle of its law.

    Each bin draws a Gamma(k, 1/k) gain, each channel clicks with the
    ``crossing_probability`` of that bin's power, and noise is OR-ed in
    last from each channel's own stream.  Returns boolean (herald,
    signal_1, signal_2) arrays; a fresh generator per (point, segment,
    role).
    """
    if n_bins is None:
        n_bins = cfg.segment_bins
    pc = cfg.pcsft

    def rng(role):
        return rng_stream(cfg.seed, stream_id(segment_index, role, point_index))

    envelope = rng(OracleRole.SOURCE).gamma(shape=pc.envelope_modes,
                                      scale=1.0 / pc.envelope_modes,
                                      size=n_bins)
    clicks = [rng(role).random(n_bins) < pcsft.crossing_probability(
                  pc.threshold_energy, pc.incident_power * share * envelope,
                  pc.pulse_duration)
              for share, role in zip(arm_efficiencies(cfg),
                                     (OracleRole.HERALD, OracleRole.SIGNAL_1,
                                      OracleRole.SIGNAL_2))]
    roles = (OracleRole.NOISE_H, OracleRole.NOISE_1, OracleRole.NOISE_2)
    for arr, p, role in zip(clicks, noise_probabilities(cfg), roles):
        if p:
            arr |= rng(role).random(n_bins) < p
    return tuple(clicks)


class _WriteThenFail:
    """A file whose first write lands and then raises, as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data)
        self.fh.flush()
        raise OSError("device full after the first write")


def fail_after_first_write(monkeypatch) -> None:
    """Make every file the package opens for writing fail its first write."""
    monkeypatch.setattr(streams, "open", lambda *args, **kwargs:
                        _WriteThenFail(open(*args, **kwargs)), raising=False)


def placed_clicks(cells, n_bins: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clicks (herald, signal_1, signal_2) of a census, placed bin by bin.

    Fills a per-bin pattern array with the most frequent pattern, writes
    the other patterns, in index order, over consecutive blocks of
    ``rng.choice(n_bins, placed, replace=False)``, and reads each channel
    bit off the patterns: the placement the package packs channel by
    channel.
    """
    cells = np.asarray(cells)
    fill = int(cells.argmax())
    patterns = np.full(n_bins, fill, dtype=np.uint8)
    others = np.flatnonzero(np.arange(8) != fill).astype(np.uint8)
    placed = n_bins - int(cells[fill])
    if placed:
        patterns[rng.choice(n_bins, placed, replace=False)] = np.repeat(
            others, cells[others])
    return tuple((patterns & bit).astype(bool) for bit in (4, 2, 1))


def placed_segment(cells, n_bins: int, rng: np.random.Generator,
                   ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """One segment's census placed, packed and as bin lists.

    Returns one bitmap per channel (herald, signal_1, signal_2), packed as
    ClickStreams holds them (little-endian bit order, zero pad bits), and
    each channel's clicked bins, ascending int64.  Each channel starts as
    the fill pattern's bit everywhere; the blocks of positions whose
    pattern has the other bit are then flipped to it.  The flips of a
    channel the fill leaves silent are its clicks, and few of them are
    sorted; a channel the fill clicks, or one of many flips, has its
    clicks found by a scan of its bits.  The placement the package made
    segment by segment before it placed blocks of segments at once.
    """
    cells = np.asarray(cells)
    counts = cells.tolist()
    if cells.shape != (8,) or sum(counts) != n_bins or min(counts) < 0:
        raise ValueError(f"expected 8 pattern cells summing to {n_bins}, "
                         f"got {counts}")
    fill = counts.index(max(counts))
    placed = n_bins - counts[fill]
    positions = rng.choice(n_bins, placed, replace=False) if placed else None
    # The block of positions each other pattern takes, in index order.
    blocks, lo = [], 0
    for pattern, count in enumerate(counts):
        if pattern != fill and count:
            blocks.append((pattern, positions[lo:lo + count]))
            lo += count
    packed, clicked = [], []
    for bit in CHANNEL_BITS:
        background = bool(fill & bit)
        flips = [block for pattern, block in blocks
                 if bool(pattern & bit) != background]
        if background or 6 * sum(map(len, flips)) >= n_bins:
            bits = np.full(n_bins, background)
            for block in flips:
                bits[block] = not background
            clicked.append(np.flatnonzero(bits))
        else:
            flips = np.concatenate(flips or [np.empty(0, dtype=np.int64)])
            flips.sort()
            bits = np.zeros(n_bins, dtype=bool)
            bits[flips] = True
            clicked.append(flips)
        packed.append(np.packbits(bits, bitorder="little"))
    return tuple(packed), tuple(clicked)
