"""Quantum detection model: pair statistics, exact click law, and the
leading-order predictions of ``helpers`` against that law."""

import math

import numpy as np
import pytest
from scipy import stats

from heraldsim import qm
from heraldsim.analysis import law_g2
from heraldsim.core import (DetectorConfig, ExperimentConfig, OpticsConfig,
                            SourceConfig, rng_stream)

from helpers import (g_factor, mechanistic_qm_clicks, nb_pmf, pattern_counts,
                     predicted_g2_band, predicted_heralded_g2,
                     sample_pair_counts, series_no_click, series_pattern_probs,
                     with_law)

# The samplers on the config's joint law, as the runner calls them.
segment_cells = with_law(qm.segment_cells, qm.joint_pattern_probabilities)
segment_clicks = with_law(qm.segment_clicks, qm.joint_pattern_probabilities)


def make_config(mu, mode_count=1, eta_h=0.26, eta_1=0.075, eta_2=0.055,
                attenuation=1.0, splitter_ratio=0.5, dark=(0.0, 0.0, 0.0),
                n_bins=10**6, seed=42) -> ExperimentConfig:
    return ExperimentConfig(
        source=SourceConfig(mu, mode_count),
        optics=OpticsConfig(eta_h, eta_1, eta_2, attenuation, splitter_ratio),
        detectors=DetectorConfig(dark_rate_h=dark[0], dark_rate_1=dark[1],
                                 dark_rate_2=dark[2]),
        n_bins=n_bins, seed=seed)


class TestPairProb:
    """The pair-number pmf the tests score the samplers against
    (``nb_pmf``), checked against its closed form and known values."""

    def test_vacuum_certainty(self):
        assert nb_pmf(0, 0.0, 1) == 1.0
        assert nb_pmf(0, 0.0, 5) == 1.0
        assert nb_pmf(3, 0.0, 5) == 0.0

    def test_normalisation(self):
        total = nb_pmf(np.arange(51), 0.1, 3).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_double_pair_ratio(self):
        # Geometric law: P(2)/P(1)^2 = 1 + mu exactly.
        ratio = nb_pmf(2, 0.01, 1) / nb_pmf(1, 0.01, 1) ** 2
        assert ratio == pytest.approx(1.01, rel=1e-9)
        assert abs(ratio - 1.0) <= 0.0101

    @pytest.mark.parametrize("mu", [0.01, 0.1, 1.5])
    @pytest.mark.parametrize("mode_count", [1, 2, 10, 100])
    def test_matches_negative_binomial_pmf(self, mu, mode_count):
        # C(n+M-1, n) (m/(1+m))^n (1+m)^(-M), m = mu / M, in log space.
        m = mu / mode_count
        expected = [math.exp(math.lgamma(n + mode_count) - math.lgamma(n + 1)
                             - math.lgamma(mode_count)
                             + n * (math.log(m) - math.log1p(m))
                             - mode_count * math.log1p(m))
                    for n in range(21)]
        np.testing.assert_allclose(nb_pmf(np.arange(21), mu, mode_count),
                                   expected, rtol=1e-10)

    def test_array_and_scalar_agree(self):
        arr = nb_pmf(np.arange(5), 0.3, 4)
        for n in range(5):
            assert nb_pmf(n, 0.3, 4) == arr[n]


def _empirical_ratio(seed: int, mu: float, mode_count: int,
                     total: int = 10**8, chunk: int = 10**7) -> float:
    """Empirical P(2)/P(1)^2 over ``total`` pair-number draws."""
    m = mu / mode_count
    rng = rng_stream(seed, 0)
    counts = np.zeros(64, dtype=np.int64)
    remaining = total
    while remaining:
        n = min(chunk, remaining)
        draws = rng.negative_binomial(mode_count, 1.0 / (1.0 + m), size=n)
        counts += np.bincount(draws, minlength=64)[:64]
        remaining -= n
    p1, p2 = counts[1] / total, counts[2] / total
    return p2 / p1**2


def _pair_sampler_gof_p(seed: int, mu: float, mode_count: int,
                        total: int = 10**7) -> float:
    """Chi-square goodness-of-fit p-value of the sampler vs the exact pmf."""
    rng = rng_stream(seed, 0)
    m = mu / mode_count
    draws = rng.negative_binomial(mode_count, 1.0 / (1.0 + m), size=total)
    observed = np.bincount(draws, minlength=32)
    expected = nb_pmf(np.arange(len(observed)), mu, mode_count) * total
    tail = total - expected.sum()  # mass beyond the largest observed value
    cut = len(expected)
    while cut > 1 and tail + expected[cut - 1:].sum() < 5.0:
        cut -= 1
    observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
    expected = np.concatenate([expected[:cut],
                               [expected[cut:].sum() + tail]])
    return stats.chisquare(observed, expected).pvalue


class TestSamplePairCounts:
    def test_zero_mean_always_zero(self):
        draws = sample_pair_counts(rng_stream(0, 0), 1000, 0.0, 3)
        assert not draws.any()

    def test_empirical_mean(self):
        draws = sample_pair_counts(rng_stream(7, 0), 10**6, 0.1, 3)
        # sigma of the mean is 3.2e-4; allow 5 sigma.
        assert draws.mean() == pytest.approx(0.1, abs=1.6e-3)

    def test_goodness_of_fit_single_mode(self):
        assert _pair_sampler_gof_p(2005, 0.01, 1) > 0.001

    def test_goodness_of_fit_multimode(self):
        assert _pair_sampler_gof_p(2105, 0.1, 3) > 0.001

    def test_double_pair_ratio_single_mode(self):
        assert abs(_empirical_ratio(1001, 0.01, 1) - 1.0) <= 0.05

    def test_double_pair_ratio_hundred_modes(self):
        assert abs(_empirical_ratio(1002, 0.01, 100) - 0.505) <= 0.03


LAW_CONFIGS = [
    make_config(0.05),
    make_config(0.01, mode_count=3, attenuation=0.8, splitter_ratio=0.6),
    make_config(0.1, mode_count=2, eta_h=0.9, eta_1=0.6, eta_2=0.5,
                dark=(150.0, 150.0, 183.0)),
    make_config(0.0, dark=(150.0, 0.0, 114.0)),
]


class TestClickLaw:
    @pytest.mark.parametrize("cfg", LAW_CONFIGS)
    def test_no_click_prob_matches_series(self, cfg):
        for channels in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2],
                         [0, 1, 2]):
            expected = series_no_click(cfg, channels)
            assert qm.no_click_prob(cfg, channels) == pytest.approx(
                expected, rel=1e-9), channels

    def test_no_click_prob_empty_set_is_one(self):
        assert qm.no_click_prob(make_config(0.05), []) == 1.0

    def test_no_click_prob_rejects_bad_channel(self):
        with pytest.raises(ValueError):
            qm.no_click_prob(make_config(0.05), [3])

    @pytest.mark.parametrize("cfg", LAW_CONFIGS)
    def test_joint_pattern_probabilities_match_series(self, cfg):
        law = qm.joint_pattern_probabilities(cfg)
        expected = series_pattern_probs(cfg)
        np.testing.assert_allclose(law, expected, rtol=1e-9, atol=1e-15)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert (law >= 0.0).all()

    def test_herald_click_monotone_in_mu(self):
        probs = [1.0 - qm.no_click_prob(make_config(mu), [0])
                 for mu in np.linspace(0.0, 0.2, 21)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_herald_click_monotone_in_eta(self):
        probs = [1.0 - qm.no_click_prob(make_config(0.05, eta_h=eta), [0])
                 for eta in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_expected_counts_consistent_with_law(self):
        cfg = LAW_CONFIGS[2]
        expected = qm.expected_counts(cfg, 10**6)
        quiet = lambda chans: qm.no_click_prob(cfg, chans)  # noqa: E731
        assert expected["N_H"] == pytest.approx(
            10**6 * (1.0 - quiet([0])), rel=1e-9)
        # Joint H&1 by inclusion-exclusion over the no-click probabilities.
        p_h1 = 1.0 - quiet([0]) - quiet([1]) + quiet([0, 1])
        assert expected["N_H1"] == pytest.approx(10**6 * p_h1, rel=1e-9)


    # Configs whose inclusion-exclusion, left alone, puts about 1e-16 on a
    # pattern of the dead channel.
    @pytest.mark.parametrize("cfg,dead", [
        (make_config(0.02, eta_h=0.0, dark=(0.0, 150.0, 150.0)), 4),
        (make_config(0.1, eta_h=0.0, attenuation=0.6), 4),
        (make_config(0.2, eta_h=0.0, eta_1=0.7, attenuation=0.3), 4),
        (make_config(0.05, eta_1=0.0, eta_2=0.6, attenuation=0.6), 2),
    ], ids=["herald-1", "herald-2", "herald-3", "signal-1"])
    def test_dead_channel_never_clicks(self, cfg, dead):
        law = qm.joint_pattern_probabilities(cfg)
        assert [law[p] for p in range(8) if p & dead] == [0.0] * 4
        assert law.sum() == pytest.approx(1.0, abs=1e-15)
        if dead == 4:
            assert math.isnan(law_g2(law))

    @pytest.mark.parametrize("cfg", LAW_CONFIGS)
    def test_law_g2_is_the_masked_pattern_ratio(self, cfg):
        # P(H) P(H,1,2) / (P(H,1) P(H,2)) from boolean masks of the patterns.
        law = qm.joint_pattern_probabilities(cfg)
        h, s1, s2 = ((np.arange(8) & bit) > 0 for bit in (4, 2, 1))
        p_h1, p_h2 = law[h & s1].sum(), law[h & s2].sum()
        expected = (math.nan if p_h1 == 0.0 or p_h2 == 0.0
                    else law[h].sum() * law[h & s1 & s2].sum() / (p_h1 * p_h2))
        np.testing.assert_allclose(law_g2(law), expected, rtol=1e-14)
        np.testing.assert_equal(qm.heralded_g2_exact(cfg), law_g2(law))


class TestPredictions:
    def test_predicted_zero_at_zero_pairs(self):
        assert predicted_heralded_g2(0.0, 0.26) == 0.0

    def test_predicted_round_trip(self):
        # Solve G * P1 * (2 - eta_h) = 0.00376 for P1 at G=1, eta_h=0.26,
        # then plug back.
        p1 = 0.00376 / (1.0 * (2.0 - 0.26))
        assert p1 == pytest.approx(0.00216, abs=5e-5)
        assert predicted_heralded_g2(p1, 0.26, 1.0) == pytest.approx(
            0.00376, rel=1e-12)

    def test_predicted_direct_arithmetic(self):
        assert predicted_heralded_g2(0.01, 0.5, 2.0) == pytest.approx(
            0.03, rel=1e-12)

    def test_predicted_rejects_dead_herald(self):
        with pytest.raises(ValueError):
            predicted_heralded_g2(0.01, 0.0)

    def test_band_collapses_at_zero(self):
        assert predicted_g2_band(0.0, 0.26) == (0.0, 0.0)

    def test_band_ratio_is_exactly_two(self):
        lower, upper = predicted_g2_band(0.0123, 0.7)
        assert upper / lower == 2.0

    def test_band_frozen_values(self):
        lower, upper = predicted_g2_band(0.00216, 0.26)
        assert lower == pytest.approx(0.0037584, rel=1e-12)
        assert upper == pytest.approx(0.0075168, rel=1e-12)
        # Rounded presentation values.
        assert lower == pytest.approx(0.00376, abs=5e-6)
        assert upper == pytest.approx(0.00752, abs=5e-6)

    @pytest.mark.parametrize("mu,tol", [(1e-3, 5e-3), (1e-2, 5e-3),
                                        (0.05, 2e-2)])
    def test_exact_g2_approaches_leading_order(self, mu, tol):
        cfg = make_config(mu)
        predicted = predicted_heralded_g2(nb_pmf(1, mu, 1), 0.26,
                                          g_factor(1))
        assert qm.heralded_g2_exact(cfg) == pytest.approx(predicted, rel=tol)


class TestSamplers:
    def test_no_light_no_noise_is_silent(self):
        cfg = make_config(0.0)
        for arr in segment_clicks(cfg, 0, 10_000):
            assert not arr.any()
        cells = segment_cells(cfg, 0, 10_000)
        assert cells[0] == 10_000 and cells[1:].sum() == 0

    def test_clicks_deterministic_per_stream(self):
        cfg = make_config(0.05, dark=(150.0, 150.0, 150.0))
        first = segment_clicks(cfg, 3, 20_000, point_index=2)
        second = segment_clicks(cfg, 3, 20_000, point_index=2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_segments_are_distinct(self):
        cfg = make_config(0.05)
        a = segment_clicks(cfg, 0, 20_000)[0]
        b = segment_clicks(cfg, 1, 20_000)[0]
        assert not np.array_equal(a, b)

    def test_noise_streams_do_not_disturb_other_channels(self):
        # The mechanistic chain draws each channel's noise from its own
        # stream, so noise on detector 2 leaves the other channels' bins
        # as they were.  The samplers draw one census from the joint law,
        # so for them the statement is one of law: the (herald, signal 1)
        # census of the noisy config follows the quiet config's marginal.
        quiet = make_config(0.05, seed=9)
        noisy = make_config(0.05, dark=(0.0, 0.0, 1e5), seed=9)
        h_a, s1_a, _ = mechanistic_qm_clicks(quiet, 0, 20_000)
        h_b, s1_b, s2_b = mechanistic_qm_clicks(noisy, 0, 20_000)
        np.testing.assert_array_equal(h_a, h_b)
        np.testing.assert_array_equal(s1_a, s1_b)
        assert s2_b.sum() > 0

        n_bins = 10**6
        h, s1, s2 = segment_clicks(noisy, 0, n_bins)
        pairs = np.bincount((h.astype(np.int64) << 1) | s1, minlength=4)
        marginal = qm.joint_pattern_probabilities(quiet).reshape(4, 2).sum(axis=1)
        assert stats.chisquare(pairs, marginal * n_bins).pvalue > 0.001
        assert s2.sum() > n_bins * qm.joint_pattern_probabilities(quiet)[1::2].sum()

    def test_cells_sum_to_bin_count(self):
        cells = segment_cells(make_config(0.05), 5, 33_333)
        assert cells.sum() == 33_333
        assert (cells >= 0).all()

    def test_cells_deterministic(self):
        cfg = make_config(0.05, mode_count=2)
        np.testing.assert_array_equal(segment_cells(cfg, 1, 10_000),
                                      segment_cells(cfg, 1, 10_000))


class TestDualRouteEquivalence:
    """Both samplers and the mechanistic chain realise one per-bin law."""

    CONFIG = make_config(0.05, mode_count=2, eta_h=0.4, eta_1=0.5, eta_2=0.45,
                         attenuation=0.8, splitter_ratio=0.6,
                         dark=(150.0, 150.0, 150.0), seed=3101)

    def test_pattern_frequencies_match_law(self):
        # One chi-square test per route at 200 000 bins: the chain (the
        # oracle), the click route and the census, each against the law.
        cfg = self.CONFIG
        n_bins = 200_000
        expected = qm.joint_pattern_probabilities(cfg) * n_bins
        assert expected.min() > 5.0

        from_chain = pattern_counts(*mechanistic_qm_clicks(cfg, 0, n_bins))
        from_clicks = pattern_counts(*segment_clicks(cfg, 1, n_bins))
        from_cells = segment_cells(cfg, 2, n_bins)

        for census in (from_chain, from_clicks, from_cells):
            assert census.sum() == n_bins
            assert stats.chisquare(census, expected).pvalue > 0.001

    def test_clicks_recount_to_their_census(self):
        # The click route is its census placed: the same draw, not just
        # the same law, for every segment and point.
        law = qm.joint_pattern_probabilities(self.CONFIG)
        for segment, point, n_bins in ((0, 0, 48_000), (7, 3, 12_345), (2, 1, 1)):
            clicks = qm.segment_clicks(self.CONFIG, segment, n_bins,
                                       point_index=point, law=law)
            np.testing.assert_array_equal(
                pattern_counts(*clicks),
                qm.segment_cells(self.CONFIG, segment, n_bins,
                                 point_index=point, law=law))
