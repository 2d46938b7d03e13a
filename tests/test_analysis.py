"""Estimators: heralded autocorrelation, subtraction, fitting, and the
efficiency estimators the tests keep in ``helpers``."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heraldsim
from heraldsim.analysis import (FitResult, G2Estimate, InsufficientStatistics,
                                background_subtract, corrected_rate,
                                heralded_g2, weighted_linear_fit)
from heraldsim.coincidence import (CoincidenceCounts, counts_from_cells,
                                   segment_table)
from heraldsim.core import OpticsConfig

from helpers import (BIN, herald_efficiency, klyshko_efficiency,
                     make_counts)


def independent_law(p_h: float, p_1: float, p_2: float) -> np.ndarray:
    """Joint pattern law for three independent channels."""
    out = np.zeros(8)
    for pattern in range(8):
        bits = ((pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1)
        out[pattern] = math.prod(p if b else 1.0 - p
                                 for p, b in zip((p_h, p_1, p_2), bits))
    return out


class TestHeraldedG2:
    def test_thermal_like_example(self):
        est = heralded_g2(make_counts(N_H=10**6, N_H1=1000, N_H2=1000,
                                      N_H12=2))
        assert est.value == 2.0
        assert est.sigma == pytest.approx(
            2.0 * math.sqrt(1 / 2 + 1 / 1000 + 1 / 1000 + 1 / 10**6),
            rel=1e-12)
        assert est.sigma == pytest.approx(1.4170406, abs=2e-6)
        assert not est.upper_limit

    def test_uncorrelated_example(self):
        est = heralded_g2(make_counts(N_H=100, N_H1=10, N_H2=10, N_H12=1))
        assert est.value == 1.0

    def test_error_shrinks_with_triples(self):
        loose = heralded_g2(make_counts(N_H=10**6, N_H1=1000, N_H2=1000,
                                        N_H12=4))
        tight = heralded_g2(make_counts(N_H=4 * 10**6, N_H1=4000, N_H2=4000,
                                        N_H12=16))
        assert loose.value == tight.value
        assert tight.sigma < loose.sigma

    def test_zero_triples_is_upper_limit(self):
        est = heralded_g2(make_counts(N_H=10**6, N_H1=1000, N_H2=1000))
        assert est.value == 0.0
        assert est.upper_limit
        assert est.sigma == pytest.approx(
            math.sqrt(1.0 + 1 / 1000 + 1 / 1000 + 1 / 10**6), rel=1e-12)

    def test_zero_denominator_raises(self):
        with pytest.raises(InsufficientStatistics, match="N_H"):
            heralded_g2(make_counts(N_H=10**6, N_H1=0, N_H2=1000, N_H12=1))
        with pytest.raises(InsufficientStatistics):
            heralded_g2(make_counts())


class TestEfficiencyEstimators:
    def test_klyshko_arithmetic(self):
        counts = make_counts(N_H=10**6, N_H1=75_000, N_H2=55_000)
        (eta_1, sig_1), (eta_2, sig_2) = klyshko_efficiency(counts)
        assert eta_1 == 0.075
        assert eta_2 == 0.055
        assert sig_1 == pytest.approx(math.sqrt(0.075 * 0.925 / 10**6),
                                      rel=1e-12)
        assert sig_2 == pytest.approx(math.sqrt(0.055 * 0.945 / 10**6),
                                      rel=1e-12)

    def test_klyshko_needs_heralds(self):
        with pytest.raises(InsufficientStatistics):
            klyshko_efficiency(make_counts())

    def test_herald_efficiency_arithmetic(self):
        counts = make_counts(N_1=100_000, N_2=100_000, N_H1=13_000,
                             N_H2=13_000)
        eta, sigma = herald_efficiency(counts)
        assert eta == 0.13
        assert sigma == pytest.approx(math.sqrt(0.13 * 0.87 / 200_000),
                                      rel=1e-12)

    def test_herald_efficiency_needs_signals(self):
        with pytest.raises(InsufficientStatistics):
            herald_efficiency(make_counts(N_H=100))


class TestBackgroundSubtract:
    def test_zero_background_is_identity(self):
        signal = make_counts(n_bins=10**6, N_H=50_000, N_1=20_000, N_2=30_000,
                             N_H1=1500, N_H2=2500, N_12=600, N_H12=40)
        background = make_counts(n_bins=10**6)
        corrected, flags = background_subtract(signal, background)
        assert flags == ()
        for field in ("N_H", "N_1", "N_2", "N_H1", "N_H2", "N_12", "N_H12"):
            assert getattr(corrected, field) == getattr(signal, field)

    def test_noise_only_run_subtracts_to_zero(self):
        # Dyadic click fractions make every division exact, so a run that
        # equals its own background corrects to exactly zero everywhere.
        noise = make_counts(n_bins=4096, N_H=1024, N_1=2048, N_2=1024,
                            N_H1=512, N_H2=256, N_12=512, N_H12=128)
        corrected, flags = background_subtract(noise, noise)
        assert flags == ()
        for field in ("N_H", "N_1", "N_2", "N_H1", "N_H2", "N_12", "N_H12"):
            assert getattr(corrected, field) == 0.0

    def test_sampled_run_recovers_light_law(self):
        p_light = (0.3, 0.2, 0.25)
        p_noise = (0.05, 0.04, 0.06)
        p_seen = tuple(1.0 - (1.0 - a) * (1.0 - b)
                       for a, b in zip(p_light, p_noise))
        n = 500_000
        rng = np.random.default_rng(7301)
        signal = CoincidenceCounts(BIN, segment_table([counts_from_cells(
            rng.multinomial(n, independent_law(*p_seen)))]))
        background = CoincidenceCounts(BIN, segment_table([counts_from_cells(
            rng.multinomial(n, independent_law(*p_noise)))]))
        corrected, flags = background_subtract(signal, background)
        assert flags == ()
        p_h, p_1, p_2 = p_light
        assert corrected.N_H == pytest.approx(n * p_h, rel=0.01)
        assert corrected.N_1 == pytest.approx(n * p_1, rel=0.01)
        assert corrected.N_2 == pytest.approx(n * p_2, rel=0.01)
        assert corrected.N_H1 == pytest.approx(n * p_h * p_1, rel=0.03)
        assert corrected.N_H2 == pytest.approx(n * p_h * p_2, rel=0.03)
        assert corrected.N_12 == pytest.approx(n * p_1 * p_2, rel=0.03)
        assert corrected.N_H12 == pytest.approx(n * p_h * p_1 * p_2, rel=0.05)

    def test_negative_results_are_clamped_and_flagged(self):
        # Perfectly anti-correlated herald/signal clicks cannot come from
        # light OR noise; the pair count goes negative and is clamped.
        signal = make_counts(n_bins=1000, N_H=500, N_1=500, N_H1=0)
        background = make_counts(n_bins=1000, N_H=500, N_1=500)
        corrected, flags = background_subtract(signal, background)
        assert flags == ("N_H1",)
        assert corrected.N_H1 == 0.0
        assert corrected.N_H == 0.0

    def test_result_independent_of_string_hashing(self):
        # PYTHONHASHSEED reorders iteration over sets of strings; the three
        # noise factors of the triple term must multiply in a fixed order.
        code = ("from helpers import make_counts\n"
                "from heraldsim.analysis import background_subtract\n"
                "signal = make_counts(4_800_000, 61530, 9093, 6548, 2536, 1757,"
                " 22, 13)\n"
                "background = make_counts(2_000_000, 4, 7, 8)\n"
                "print(repr(background_subtract(signal, background)[0].N_H12))")
        path = os.pathsep.join([str(Path(heraldsim.__file__).parents[1]),
                                str(Path(__file__).parent)])
        outputs = {subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        ).stdout for seed in range(6)}
        assert len(outputs) == 1, outputs

    def test_bin_width_mismatch(self):
        signal = make_counts(N_H=10)
        background = make_counts(N_H=0, bin_width=10e-9)
        with pytest.raises(ValueError, match="bin width"):
            background_subtract(signal, background)

    def test_saturated_background_channel(self):
        signal = make_counts(n_bins=1000, N_H=500)
        background = make_counts(n_bins=1000, N_H=1000)
        with pytest.raises(ValueError, match="every bin"):
            background_subtract(signal, background)


class TestWeightedLinearFit:
    def test_exact_on_collinear_points(self):
        points = [(x, 2.0 * x + 0.001, 0.1) for x in (1.0, 2.0, 3.0, 4.0)]
        fit = weighted_linear_fit(points)
        assert fit.slope == pytest.approx(2.0, rel=1e-9)
        assert fit.intercept == pytest.approx(0.001, rel=1e-6)
        assert fit.reduced_chi2 < 1e-15
        assert fit.dof == 2

    def test_too_few_points(self):
        with pytest.raises(InsufficientStatistics, match="3 points"):
            weighted_linear_fit([(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            weighted_linear_fit([(0.0, 0.0, 1.0), (1.0, 1.0, 0.0),
                                 (2.0, 2.0, 1.0)])

    def test_degenerate_abscissa(self):
        with pytest.raises(ValueError, match="degenerate"):
            weighted_linear_fit([(2.0, 0.0, 1.0), (2.0, 1.0, 1.0),
                                 (2.0, 2.0, 1.0)])

    def test_covariance_shape_and_symmetry(self):
        fit = weighted_linear_fit([(0.0, 0.1, 0.2), (1.0, 1.3, 0.1),
                                   (2.0, 1.9, 0.3), (3.0, 3.2, 0.2)])
        assert fit.covariance.shape == (2, 2)
        assert fit.covariance[0, 1] == fit.covariance[1, 0]
        assert fit.slope_sigma == math.sqrt(fit.covariance[0, 0])
        assert fit.intercept_sigma == math.sqrt(fit.covariance[1, 1])

    def test_affine_equivariance(self):
        points = [(1.0, 1.2, 0.1), (2.0, 2.1, 0.2), (4.0, 3.9, 0.1),
                  (8.0, 8.3, 0.3), (9.0, 9.4, 0.2)]
        a, b = 2.5, -3.0
        moved = [(a * x + b, y, s) for x, y, s in points]
        base = weighted_linear_fit(points)
        shifted = weighted_linear_fit(moved)
        assert shifted.slope == pytest.approx(base.slope / a, rel=1e-9)
        assert shifted.intercept == pytest.approx(
            base.intercept - base.slope * b / a, rel=1e-9)
        assert shifted.reduced_chi2 == pytest.approx(base.reduced_chi2,
                                                     rel=1e-9)

    def test_recovers_known_line(self):
        slope_true, intercept_true, noise = 2.4e-9, 0.00376, 2e-4
        x = np.linspace(1e5, 1e6, 10)
        rng = np.random.default_rng(7201)
        y = slope_true * x + intercept_true + rng.normal(0.0, noise, x.size)
        fit = weighted_linear_fit(list(zip(x, y, [noise] * 10)))
        assert abs(fit.slope - slope_true) < 2.0 * fit.slope_sigma
        assert abs(fit.intercept - intercept_true) < 2.0 * fit.intercept_sigma
        assert 0.3 < fit.reduced_chi2 < 2.5
        assert fit.dof == 8

    def test_interval_coverage(self):
        slope_true, intercept_true, noise = 2.4e-9, 0.00376, 2e-4
        x = np.linspace(1e5, 1e6, 10)
        rng = np.random.default_rng(7101)
        slope_hits = intercept_hits = 0
        for _ in range(100):
            y = slope_true * x + intercept_true + rng.normal(0.0, noise,
                                                             x.size)
            fit = weighted_linear_fit(list(zip(x, y, [noise] * 10)))
            slope_hits += abs(fit.slope - slope_true) <= 1.96 * fit.slope_sigma
            intercept_hits += (abs(fit.intercept - intercept_true)
                               <= 1.96 * fit.intercept_sigma)
        assert slope_hits >= 90
        assert intercept_hits >= 90


class TestCorrectedRate:
    def test_lossless_detectors_give_raw_rate(self):
        counts = make_counts(n_bins=10**6, N_H1=300, N_H2=200)
        optics = OpticsConfig(0.5, 1.0, 1.0)
        assert corrected_rate(counts, optics) == 500.0 / counts.duration

    def test_unfolds_detector_efficiencies(self):
        # Two seconds of 2 us bins.
        counts = make_counts(n_bins=10**6, N_H1=300, N_H2=200, bin_width=2e-6)
        optics = OpticsConfig(0.5, 0.3, 0.4)
        assert counts.duration == pytest.approx(2.0, rel=1e-15)
        assert corrected_rate(counts, optics) == \
            pytest.approx((300 / 0.3 + 200 / 0.4) / 2.0, rel=1e-12)

    def test_linear_in_counts(self):
        optics = OpticsConfig(0.5, 0.3, 0.4)
        full = corrected_rate(make_counts(n_bins=10**6, N_H1=300, N_H2=200),
                              optics)
        half = corrected_rate(make_counts(n_bins=10**6, N_H1=150, N_H2=100),
                              optics)
        assert half == 0.5 * full

    def test_dead_detector_rejected(self):
        counts = make_counts(n_bins=10**6, N_H1=300, N_H2=200)
        with pytest.raises(ValueError, match="eta"):
            corrected_rate(counts, OpticsConfig(0.5, 0.0, 0.4))

    def test_zero_time_rejected(self):
        counts = make_counts(n_bins=10**6, N_H1=300, N_H2=200, bin_width=0.0)
        assert counts.duration == 0.0
        with pytest.raises(ValueError, match="duration"):
            corrected_rate(counts, OpticsConfig(0.5, 1.0, 1.0))
