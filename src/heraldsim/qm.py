"""Quantum detection model: thermal pair statistics, loss, threshold clicks.

Per time bin the source emits ``n`` photon pairs, with ``n`` the sum of
``mode_count`` independent Bose-Einstein variates of mean
``pair_mean_per_bin / mode_count`` (a negative-binomial law).  Idler photons
reach the herald detector with probability ``eta_h``.  Each signal photon
independently survives the attenuator (probability ``attenuation``), picks a
splitter output (probability ``splitter_ratio`` toward detector 1), and is
then detected with that detector's efficiency.  Detectors are threshold
devices: a bin clicks when at least one photon is detected or a noise count
fires (probability ``rate * bin_width`` per bin, dark and background
independently).

Both samplers draw from the exact per-bin law of
:func:`joint_pattern_probabilities`, not from the chain above:

- :func:`segment_cells` draws, per segment, one multinomial over the eight
  joint click patterns, which makes 10^9-bin count-level runs practical
  on one core;
- :func:`segment_clicks` places that census in a uniformly random order
  (:func:`heraldsim.coincidence.clicks_from_cells`).  The chain's bins are
  independent, so its sequence is exchangeable and has exactly this law.

Counting a segment's clicks therefore gives its census, draw for draw.
The chain itself lives in the test suite as an oracle; the tests check
both samplers against it and against the law.  The law's heralded g2
(:func:`heralded_g2_exact`) is each report point's ``g2_law`` under this
model; the leading-order G·P(1)·(2 - eta_h) approximation to it is a test
oracle too.

All closed forms below follow from the probability generating function of
the pair number, E[z^n] = (1 + m(1-z))^(-M) with m = mu/M: a detector set S
misses a given pair with probability q_S, so P(no clicks in S) =
E[q_S^n] = (1 + m(1-q_S))^(-M), times the per-channel no-noise factors.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .analysis import law_g2
from .coincidence import CHANNEL_BITS, alternating_sum, clicks_from_cells, law_counts
from .core import (
    ExperimentConfig,
    Role,
    _segment_rng,
    arm_efficiencies,
    noise_probabilities,
)

__all__ = [
    "no_click_prob",
    "joint_pattern_probabilities",
    "expected_counts",
    "heralded_g2_exact",
    "segment_clicks",
    "segment_cells",
]


# ---------------------------------------------------------------------------
# Exact joint click law
# ---------------------------------------------------------------------------

def no_click_prob(cfg: ExperimentConfig, channels: Iterable[int]) -> float:
    """Exact probability that none of the given channels clicks in a bin.

    ``channels`` is a subset of {0: herald, 1: signal detector 1,
    2: signal detector 2}.  A pair misses the whole set with probability
    q = (1 - eta_h if herald in set) * (1 - a1 - a2 restricted to the set),
    the two photons being independent and the splitter outputs exclusive;
    averaging q^n over the pair number gives (1 + m(1-q))^(-M).
    """
    chans = frozenset(channels)
    if not chans <= {0, 1, 2}:
        raise ValueError(f"channels must be a subset of {{0, 1, 2}}, got {chans}")
    eta_h, a1, a2 = arm_efficiencies(cfg)
    miss = 1.0
    if 0 in chans:
        miss *= 1.0 - eta_h
    signal_hit = (a1 if 1 in chans else 0.0) + (a2 if 2 in chans else 0.0)
    miss *= 1.0 - signal_hit

    M = cfg.source.mode_count
    m = cfg.source.pair_mean_per_bin / M
    quiet = (1.0 + m * (1.0 - miss)) ** (-M)

    noise = noise_probabilities(cfg)
    for c in chans:
        quiet *= 1.0 - noise[c]
    return quiet


def joint_pattern_probabilities(cfg: ExperimentConfig) -> np.ndarray:
    """Exact per-bin law over the 8 joint click patterns.

    Element p is the probability that exactly click pattern p (indexed as
    in :mod:`heraldsim.coincidence`) occurs in one bin.  Obtained from the
    no-click subset probabilities by inclusion-exclusion; sums to 1.
    """
    # quiet[mask] = P(no clicks on the channels in mask).
    quiet = [no_click_prob(cfg, [c for c, bit in enumerate(CHANNEL_BITS) if mask & bit])
             for mask in range(8)]
    probs = np.array([alternating_sum(p, lambda t, p=p: quiet[(7 ^ p) | t])
                      for p in range(8)])
    # A channel that never clicks leaves its patterns at exactly 0, where
    # the cancellation can leave a residue of about 1e-16.
    dead = sum(bit for bit in CHANNEL_BITS if quiet[bit] == 1.0)
    probs[[p for p in range(8) if p & dead]] = 0.0
    # Tiny negatives from float cancellation are clipped, then renormalised.
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return probs


def expected_counts(cfg: ExperimentConfig, n_bins: int) -> dict[str, float]:
    """Expected marginal and coincidence counts over ``n_bins`` bins."""
    return law_counts(joint_pattern_probabilities(cfg), n_bins)


def heralded_g2_exact(cfg: ExperimentConfig) -> float:
    """Population value of the heralded autocorrelation: the joint law's g2."""
    return law_g2(joint_pattern_probabilities(cfg))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def segment_cells(cfg: ExperimentConfig, segment_index: int,
                  n_bins: int, point_index: int = 0, *, law) -> np.ndarray:
    """Count-level sampler: bins per joint click pattern for one segment.

    Returns an int64 array of length 8, element p being the number of
    bins showing exactly click pattern p: one multinomial
    over the exact per-bin law, drawn from the segment's (pooled) source
    stream, at a cost independent of the pair rate.  ``law`` is
    :func:`joint_pattern_probabilities` of ``cfg``, which the runner
    computes once per run.
    """
    rng = _segment_rng(cfg, segment_index, Role.SOURCE, point_index)
    return rng.multinomial(n_bins, law)


def segment_clicks(cfg: ExperimentConfig, segment_index: int,
                   n_bins: int, point_index: int = 0, *, law,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-bin sampler for one segment: its census in a random order.

    Returns boolean click arrays (herald, signal_1, signal_2) of length
    ``n_bins`` whose pattern counts are :func:`segment_cells` of the same
    arguments; the placement draws from the segment's placement stream,
    which the census never keys.
    Each (point, segment, role) triple has its own counter-based stream, so
    segments reproduce independently of evaluation order.
    """
    cells = segment_cells(cfg, segment_index, n_bins, point_index, law=law)
    rng = _segment_rng(cfg, segment_index, Role.PLACEMENT, point_index)
    return clicks_from_cells(cells, n_bins, rng)
