"""Estimation pipeline: heralded g2, background subtraction, fitting.

Counts in, numbers out.  Everything here is a pure function of
:class:`~heraldsim.coincidence.CoincidenceCounts` (plus configuration where
physics constants are needed), so the same pipeline serves both simulators
and any stored counts files.

Error model: all counts are treated as independent Poisson variates and
propagated to first order.  Covariance between numerator and denominator
counts of the autocorrelation estimator is neglected — standard practice
in the g2 << 1 regime — and all quoted uncertainties are 1 standard
deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coincidence import (CHANNEL_BITS, COUNT_FIELDS, FIELD_MASKS,
                          CoincidenceCounts, alternating_sum, law_counts,
                          segment_table)
from .core import OpticsConfig

__all__ = [
    "InsufficientStatistics",
    "G2Estimate",
    "FitResult",
    "heralded_g2",
    "law_g2",
    "background_subtract",
    "weighted_linear_fit",
    "corrected_rate",
]


class InsufficientStatistics(ValueError):
    """An estimator's denominator counts are zero (or too few points)."""


@dataclass(frozen=True)
class G2Estimate:
    """Heralded zero-delay autocorrelation with its statistical error.

    ``upper_limit`` marks zero-triple results: the value is 0 and ``sigma``
    is computed with a single substituted triple, so value + sigma reads as
    a one-count upper limit.
    """

    value: float
    sigma: float
    upper_limit: bool = False


@dataclass(frozen=True)
class FitResult:
    """Weighted straight-line fit y = slope * x + intercept.

    ``covariance`` is the 2x2 parameter covariance in (slope, intercept)
    order — symmetric positive semidefinite by construction.
    """

    slope: float
    intercept: float
    covariance: np.ndarray
    reduced_chi2: float
    dof: int

    @property
    def slope_sigma(self) -> float:
        return math.sqrt(self.covariance[0, 0])

    @property
    def intercept_sigma(self) -> float:
        return math.sqrt(self.covariance[1, 1])


def _g2_from_totals(n_h: float, n_h1: float, n_h2: float,
                    n_h12: float) -> G2Estimate:
    if n_h1 <= 0 or n_h2 <= 0 or n_h <= 0:
        raise InsufficientStatistics(
            f"heralded g2 needs N_H, N_H1, N_H2 > 0 "
            f"(got N_H={n_h}, N_H1={n_h1}, N_H2={n_h2})")
    if n_h12 > 0:
        value = n_h * n_h12 / (n_h1 * n_h2)
        rel_var = 1.0 / n_h12 + 1.0 / n_h1 + 1.0 / n_h2 + 1.0 / n_h
        return G2Estimate(value=value, sigma=value * math.sqrt(rel_var))
    # No triples: value 0 with a one-count upper limit.
    limit = n_h * 1.0 / (n_h1 * n_h2)
    rel_var = 1.0 + 1.0 / n_h1 + 1.0 / n_h2 + 1.0 / n_h
    return G2Estimate(value=0.0, sigma=limit * math.sqrt(rel_var),
                      upper_limit=True)


def heralded_g2(counts: CoincidenceCounts) -> G2Estimate:
    """Heralded autocorrelation N_H * N_H12 / (N_H1 * N_H2) from run totals.

    Equals 1 for uncorrelated channels, 2 for single-mode thermal light,
    and (ideally) 0 for a single-photon source.  Raises
    InsufficientStatistics when a denominator count is zero.
    """
    return _g2_from_totals(counts.N_H, counts.N_H1, counts.N_H2, counts.N_H12)


def law_g2(law) -> float:
    """The value :func:`heralded_g2` converges to under a per-bin pattern law.

    The same ratio, of the law's pattern probabilities; NaN when P(H,1) or
    P(H,2) is 0.
    """
    p = law_counts(law, 1)
    if p["N_H1"] == 0.0 or p["N_H2"] == 0.0:
        return math.nan
    return p["N_H"] * p["N_H12"] / (p["N_H1"] * p["N_H2"])


# ---------------------------------------------------------------------------
# Background subtraction
# ---------------------------------------------------------------------------

def _quiet_counts(c: CoincidenceCounts) -> dict[int, float]:
    """Bins with no clicks on each channel set, by inclusion-exclusion.

    Keyed by the set's mask of ``CHANNEL_BITS``, 0 (all bins) first.
    """
    totals = c.totals()
    clicked = {0: totals["n_bins"]} | {mask: totals[f] for f, mask
                                       in zip(COUNT_FIELDS, FIELD_MASKS)}
    return {mask: alternating_sum(mask, clicked.__getitem__) for mask in clicked}


def background_subtract(signal: CoincidenceCounts, background: CoincidenceCounts,
                        ) -> tuple[CoincidenceCounts, tuple[str, ...]]:
    """Remove noise singles and their accidental coincidences from a run.

    ``background`` is a source-off run characterising the per-bin noise
    click probability of each channel.  Because noise is independent of
    the light and OR-ed into each channel, the probability that a channel
    subset S shows *no* clicks factorises:

        P_observed(quiet on S) = P_light(quiet on S) * prod_{c in S} (1 - p_c)

    so dividing the observed quiet fractions by the background quiet
    factors recovers the light-only joint law exactly, and
    inclusion-exclusion converts back to counts.  Returned counts are
    real-valued expectations (not integer observations) in a one-row
    float table whose ``n_bins`` stays an integer; any negative result is
    clamped to 0 and reported in the returned flag tuple.  Uncertainties
    should still be taken from the raw counts downstream (quadrature
    combination).
    """
    if signal.bin_width != background.bin_width:
        raise ValueError("signal and background runs have different bin widths")
    n_bg = background.n_bins
    if n_bg <= 0:
        raise ValueError("background run is empty")

    # Per-channel noise click probabilities from the background run.
    p_noise = [background.N_H / n_bg, background.N_1 / n_bg, background.N_2 / n_bg]
    for name, p in zip(("H", "1", "2"), p_noise):
        if p >= 1.0:
            raise ValueError(f"background channel {name} clicks in every bin")

    # The factors multiply herald first, so the result does not depend on
    # the order of a set's channels.
    light_quiet = {
        mask: q / math.prod(1.0 - p for p, bit in zip(p_noise, CHANNEL_BITS)
                            if mask & bit)
        for mask, q in _quiet_counts(signal).items()
    }
    corrected = {f: alternating_sum(mask, light_quiet.__getitem__)
                 for f, mask in zip(COUNT_FIELDS, FIELD_MASKS)}

    clamped = tuple(sorted(k for k, v in corrected.items() if v < 0.0))
    row = (0, signal.n_bins) + tuple(max(corrected[f], 0.0) for f in COUNT_FIELDS)
    table = segment_table([row], count_type=float)
    return CoincidenceCounts(bin_width=signal.bin_width, segments=table), clamped


# ---------------------------------------------------------------------------
# Fitting and the power axis
# ---------------------------------------------------------------------------

def weighted_linear_fit(points: Sequence[tuple[float, float, float]]) -> FitResult:
    """Weighted least squares for y = slope * x + intercept.

    ``points`` is a sequence of (x, y, sigma) with all sigma > 0.  Closed
    normal-equation solution; exact on noiseless collinear input.  Raises
    InsufficientStatistics below 3 points and ValueError on a degenerate
    abscissa (all x effectively equal).
    """
    if len(points) < 3:
        raise InsufficientStatistics(
            f"need at least 3 points to fit a line with error estimates, "
            f"got {len(points)}")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    sigma = np.array([p[2] for p in points], dtype=float)
    if np.any(sigma <= 0.0):
        raise ValueError("all sigma must be > 0")

    w = 1.0 / sigma**2
    s = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    delta = s * sxx - sx * sx
    if delta <= 1e-12 * s * sxx:
        raise ValueError("degenerate fit: abscissa values are all equal")

    slope = (s * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    covariance = np.array([[s / delta, -sx / delta],
                           [-sx / delta, sxx / delta]])
    residual = y - slope * x - intercept
    chi2 = float((w * residual**2).sum())
    dof = len(points) - 2
    return FitResult(slope=float(slope), intercept=float(intercept),
                     covariance=covariance, reduced_chi2=chi2 / dof, dof=dof)


def corrected_rate(counts: CoincidenceCounts, optics: OpticsConfig) -> float:
    """Efficiency-corrected heralded signal rate (events/s), the power axis.

    Back-propagates the heralded detections through the detector
    efficiencies: x = (N_H1 / eta_1 + N_H2 / eta_2) / T, T being the
    duration of ``counts``.  Equivalently the photons-per-herald estimate
    times the herald rate.  This is the rate of heralded signal photons
    entering the splitter, so it scales with the attenuator setting being
    swept.
    """
    if optics.eta_1 <= 0.0 or optics.eta_2 <= 0.0:
        raise ValueError("corrected_rate needs eta_1 > 0 and eta_2 > 0")
    duration = counts.duration
    if duration <= 0.0:
        raise ValueError("corrected_rate needs a duration > 0")
    return (counts.N_H1 / optics.eta_1 + counts.N_H2 / optics.eta_2) / duration
