"""Threshold-field model: first-passage laws, click sampling, bounds."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from heraldsim import core, pcsft
from heraldsim.analysis import law_g2
from heraldsim.core import (DetectorConfig, ExperimentConfig, OpticsConfig,
                            PCSFTConfig, Role, SourceConfig, Theory,
                            noise_probabilities, parse_config, rng_stream,
                            stream_id, validate_config)
from heraldsim.runner import simulate_run

from helpers import (bools, euler_exit_steps, first_passage_times,
                     pattern_counts, per_bin_envelope_clicks, with_law)

BIN = 20.83e-9

# The samplers on the config's pattern law, as the runner calls them.
segment_cells = with_law(pcsft.segment_cells, pcsft.pattern_probabilities)
segment_clicks = with_law(pcsft.segment_clicks, pcsft.pattern_probabilities)

# -zeta(1/2) / sqrt(2 pi): checking a Wiener walk only at grid points with
# step deviation s misses crossings as if the barrier sat beta * s further
# out, so a literal walk with the band narrowed by beta * s follows the
# continuum law up to o(s).
CONTINUITY_BETA = 0.5825971579390106


def field_config(theta=0.5, coupling=0.5, envelope_modes=None, seed=5001,
                 dark=(0.0, 0.0, 0.0), eta_h=0.5, eta_1=1.0, eta_2=1.0,
                 splitter_ratio=0.5, n_bins=10**5) -> ExperimentConfig:
    """Operating point where a share-0.5 channel sees theta = power*delta/E_d."""
    block = PCSFTConfig(threshold_energy=1.0, pulse_duration=BIN,
                        incident_power=2.0 * theta / BIN, coupling=coupling,
                        envelope_modes=envelope_modes)
    cfg = ExperimentConfig(
        source=SourceConfig(0.0),
        optics=OpticsConfig(eta_h, eta_1, eta_2, 1.0, splitter_ratio),
        detectors=DetectorConfig(dark_rate_h=dark[0], dark_rate_1=dark[1],
                                 dark_rate_2=dark[2]),
        pcsft=block, theory=Theory.PCSFT,
        n_bins=n_bins, segment_bins=n_bins, seed=seed)
    return validate_config(cfg)


# The README's example experiment file on the field model, with a shorter run.
README_INI = """
[source]
pair_mean_per_bin = 0.05
mode_count = 1

[optics]
eta_h = 0.26
eta_1 = 0.075
eta_2 = 0.055
attenuation = 1.0
splitter_ratio = 0.5

[detectors]
dark_rate_h = 150
dark_rate_1 = 150
dark_rate_2 = 150
bin_width = 20.83e-9

[run]
theory = pcsft
n_bins = 480000
segment_bins = 48000
seed = 1

[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = 7.3e7
diffusion_step = 2.08e-11
coupling = 0.5
"""


class TestMeanFirstPassage:
    def test_empirical_mean(self):
        # The band's mean exit time is threshold_energy / power.  1e5 paths
        # at dt = 1e-5 * tau; the Euler grid's O(sqrt(dt)) bias is well
        # inside the 2% window.
        threshold_energy, power = 1.0, 1.0
        times = first_passage_times(rng_stream(4007, 0), threshold_energy,
                                    power, 1e-5, 10**5, 30.0)
        finite = times[np.isfinite(times)]
        assert finite.size >= 10**5 - 5
        assert finite.mean() == pytest.approx(threshold_energy / power,
                                              abs=0.02)


class TestCrossingProbability:
    def test_zero_power_never_clicks(self):
        assert pcsft.crossing_probability(1.0, 0.0, 1.0) == 0.0

    def test_zero_horizon(self):
        assert pcsft.crossing_probability(1.0, 1.0, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pcsft.crossing_probability(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            pcsft.crossing_probability(1.0, 1.0, -1.0)

    def test_strictly_increasing_in_power(self):
        values = [pcsft.crossing_probability(1.0, p, 1.0)
                  for p in np.linspace(0.05, 4.0, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_series_switch_is_continuous(self):
        # The survival series changes expansion at power*horizon/E_d = 0.25;
        # the two branches agree to ~1e-15 there, so the click probability
        # moves smoothly through the switch.
        grid = [0.24, 0.2499, 0.25, 0.2501, 0.26]
        values = [pcsft.crossing_probability(1.0, theta, 1.0) for theta in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[2] - values[1] < 2e-4
        assert values[3] - values[2] < 2e-4

    def test_scale_invariance(self):
        base = pcsft.crossing_probability(1.0, 0.7, 1.0)
        for c in (0.25, 3.0, 1e6):
            assert pcsft.crossing_probability(c * 1.0, c * 0.7, 1.0) == \
                pytest.approx(base, rel=1e-12)

    def test_array_matches_scalar_calls(self):
        # Each element of a power array (the envelope's gain nodes) is the
        # scalar call for its power, bit for bit, including either side of
        # the series switch, power <= 0 (never clicks) and infinite power.
        theta = np.concatenate([np.geomspace(1e-4, 50.0, 2000),
                                [0.2499, 0.24999999, 0.25, 0.25000001, 0.2501,
                                 0.0, -1.0, np.inf]])
        array = pcsft.crossing_probability(1.0, theta, 1.0)
        assert array.shape == theta.shape
        scalar = [pcsft.crossing_probability(1.0, t, 1.0) for t in theta.tolist()]
        assert [x.hex() for x in array.tolist()] == [x.hex() for x in scalar]
        assert scalar[-3:] == [0.0, 0.0, 1.0]

        zero_d = pcsft.crossing_probability(1.0, np.array(0.3), 1.0)
        assert type(zero_d) is float
        assert zero_d == pcsft.crossing_probability(1.0, 0.3, 1.0)
        grid = pcsft.crossing_probability(1.0, theta[-6:].reshape(2, 3), 1.0)
        assert (grid == array[-6:].reshape(2, 3)).all()
        empty = pcsft.crossing_probability(1.0, np.array([]), 1.0)
        assert empty.shape == (0,) and empty.dtype == float


class TestFirstPassageSampling:
    def test_zero_power_never_hits(self):
        assert not np.isfinite(first_passage_times(
            rng_stream(1, 0), 1.0, 0.0, 0.1, 100, 10.0)).any()

    def test_threshold_scaling_law(self):
        # Mean exit time at E_d = 4 is 4x the E_d = 1 mean (dt scaled with
        # tau so both grids resolve their own time scale equally).
        t_1 = first_passage_times(rng_stream(4008, 0), 1.0, 1.0, 1e-4,
                                  10**5, 30.0)
        t_4 = first_passage_times(rng_stream(4009, 0), 4.0, 1.0, 4e-4,
                                  10**5, 120.0)
        ratio = t_4[np.isfinite(t_4)].mean() / t_1[np.isfinite(t_1)].mean()
        assert ratio == pytest.approx(4.0, rel=0.05)


class TestKernelLawEquivalence:
    """The strided kernel must match the literal per-step walk in law."""

    def test_exit_steps_match_literal_walk(self):
        kernel = pcsft.discrete_exit_steps(rng_stream(4001, 0), 1.0, 0.025,
                                           4000, 4000)
        literal = euler_exit_steps(rng_stream(4002, 0), 1.0, 0.025, 4000, 4000)
        assert stats.ks_2samp(kernel[kernel > 0],
                              literal[literal > 0]).pvalue > 0.001
        table = [[int((kernel == 0).sum()), int((kernel > 0).sum())],
                 [int((literal == 0).sum()), int((literal > 0).sum())]]
        assert stats.fisher_exact(table).pvalue > 0.001

    def test_scale_invariance_in_law(self):
        a = first_passage_times(rng_stream(4005, 0), 1.0, 1.0, 1e-3,
                                10**4, 20.0)
        b = first_passage_times(rng_stream(4006, 0), 3.7, 3.7, 1e-3,
                                10**4, 20.0)
        assert stats.ks_2samp(a[np.isfinite(a)],
                              b[np.isfinite(b)]).pvalue > 0.001

    def test_grid_refinement_approaches_continuum(self):
        # Discrete monitoring can only miss crossings, and the deficit
        # shrinks as the grid refines.
        continuum = pcsft.crossing_probability(1.0, 0.5, 1.0)
        gaps = []
        for n_steps, seed in ((250, 6201), (1000, 6202), (16000, 6203)):
            exits = pcsft.discrete_exit_steps(
                rng_stream(seed, 0), 1.0, math.sqrt(0.5 / n_steps), n_steps,
                60_000)
            gaps.append(continuum - np.mean(exits > 0))
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestClickLaw:
    def test_click_probabilities_follow_arm_shares(self):
        cfg = field_config(eta_h=0.5, eta_1=0.8, eta_2=0.4, splitter_ratio=0.6)
        pc = cfg.pcsft
        f_h, f_1, f_2 = pcsft.field_click_probabilities(cfg)
        assert f_h == pcsft.crossing_probability(1.0, pc.incident_power * 0.5,
                                                 pc.pulse_duration)
        assert f_1 == pytest.approx(pcsft.crossing_probability(
            1.0, pc.incident_power * 0.6 * 0.8, pc.pulse_duration), rel=1e-12)
        assert f_2 == pytest.approx(pcsft.crossing_probability(
            1.0, pc.incident_power * 0.4 * 0.4, pc.pulse_duration), rel=1e-12)

    def test_requires_field_block(self):
        # The pattern law the samplers are handed needs the field block.
        cfg = dataclasses.replace(field_config(), pcsft=None, theory=Theory.QM)
        with pytest.raises(ValueError, match="pcsft"):
            pcsft.field_click_probabilities(cfg)

    def test_coupled_target_arithmetic(self):
        cfg = field_config(coupling=0.25)
        _, f1, f2 = pcsft.field_click_probabilities(cfg)
        assert pcsft.coupled_g2_target(cfg) == pytest.approx(
            0.25 * 2.0 * (f1 + f2), rel=1e-12)  # delta == bin width here

    def test_uncoupled_coincidence_is_independent_product(self):
        cfg = field_config(coupling=0.0)
        _, f1, f2 = pcsft.field_click_probabilities(cfg)
        assert pcsft.coincidence_probability(cfg) == f1 * f2

    def test_coincidence_clipped_to_upper_frechet_bound(self):
        cfg = field_config(theta=5.0, coupling=1.0)  # f1 = f2 ~ 0.998
        _, f1, f2 = pcsft.field_click_probabilities(cfg)
        assert pcsft.coupled_g2_target(cfg) * f1 * f2 > min(f1, f2)
        assert pcsft.coincidence_probability(cfg) == min(f1, f2)

    def test_coincidence_clipped_to_lower_frechet_bound(self):
        cfg = field_config(theta=5.0, coupling=1e-4)
        _, f1, f2 = pcsft.field_click_probabilities(cfg)
        assert pcsft.coupled_g2_target(cfg) * f1 * f2 < f1 + f2 - 1.0
        assert pcsft.coincidence_probability(cfg) == f1 + f2 - 1.0

    # Configs whose coupled target lies beyond a Frechet bound, so that
    # coincidence_probability clips q to it: equal and unequal signal
    # arms, with and without noise.
    FRECHET_CLIPPED = {
        "upper": dict(theta=5.0, coupling=1.0),
        "upper-unequal": dict(theta=5.0, coupling=1.0, eta_2=0.5,
                              dark=(1e5, 2e5, 3e5)),
        "lower": dict(theta=5.0, coupling=1e-4),
        "lower-unequal": dict(theta=5.0, coupling=1e-4, eta_2=0.7,
                              dark=(0.0, 4e6, 0.0)),
    }

    @pytest.mark.parametrize("case", sorted(FRECHET_CLIPPED))
    def test_law_and_census_valid_at_frechet_bounds(self, case):
        cfg = field_config(**self.FRECHET_CLIPPED[case])
        _, f1, f2 = pcsft.field_click_probabilities(cfg)
        target = pcsft.coupled_g2_target(cfg) * f1 * f2
        bound = (min(f1, f2) if case.startswith("upper")
                 else f1 + f2 - 1.0)
        assert (target > bound) is case.startswith("upper")
        assert pcsft.coincidence_probability(cfg) == bound
        law = pcsft.pattern_probabilities(cfg)
        assert (law >= 0.0).all()
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        for index in range(20):
            cells = segment_cells(cfg, index, 10_000)
            assert (cells >= 0).all()
            assert cells.sum() == 10_000

    def test_pattern_probabilities_normalised(self):
        for cfg in (field_config(), field_config(dark=(2e5, 1e5, 3e5)),
                    field_config(coupling=0.0)):
            law = pcsft.pattern_probabilities(cfg)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            assert (law >= 0.0).all()

    def test_pattern_probabilities_factorise_when_uncoupled(self):
        cfg = field_config(coupling=0.0)
        f_h, f1, f2 = pcsft.field_click_probabilities(cfg)
        law = pcsft.pattern_probabilities(cfg)
        assert law[0b111] == pytest.approx(f_h * f1 * f2, rel=1e-12)
        assert law[0b100] == pytest.approx(f_h * (1 - f1) * (1 - f2), rel=1e-12)


    def test_pattern_probabilities_match_literal_enumeration(self):
        # Sum over every field click pattern of the chance that the noise
        # ORs turn it into the target pattern.
        for cfg in (field_config(dark=(2e5, 1e5, 3e5)),
                    field_config(theta=5.0, coupling=1e-4, dark=(0.0, 4e6, 0.0)),
                    field_config(theta=0.05, coupling=1.0, dark=(150.0,) * 3)):
            f_h, f1, f2 = pcsft.field_click_probabilities(cfg)
            q = pcsft.coincidence_probability(cfg)
            joint = {(1, 1): q, (1, 0): f1 - q, (0, 1): f2 - q,
                     (0, 0): 1.0 - f1 - f2 + q}
            noise = noise_probabilities(cfg)
            expected = np.zeros(8)
            for pattern in range(8):
                bits = ((pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1)
                for h in (0, 1):
                    for (c1, c2), p12 in joint.items():
                        pr = (f_h if h else 1.0 - f_h) * p12
                        for click, bit, pn in zip((h, c1, c2), bits, noise):
                            pr *= (0.0 if click > bit else 1.0 if click
                                   else pn if bit else 1.0 - pn)
                        expected[pattern] += pr
            np.testing.assert_allclose(pcsft.pattern_probabilities(cfg), expected,
                                       rtol=8 * np.finfo(float).eps, atol=0.0)


class TestSegmentSamplers:
    def test_zero_power_is_silent(self):
        cfg = field_config(theta=0.0)
        assert not any(arr.any() for arr in segment_clicks(cfg, 0, 5000))
        cells = segment_cells(cfg, 0, 5000)
        assert cells[0] == 5000

    def test_dead_arm_is_silent(self):
        cfg = field_config(eta_1=0.0)
        _, s1, s2 = segment_clicks(cfg, 0, 5000)
        assert not s1.any()
        assert s2.any()

    def test_deterministic(self):
        cfg = field_config(seed=17)
        first = segment_clicks(cfg, 2, 5000, point_index=1)
        second = segment_clicks(cfg, 2, 5000, point_index=1)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(segment_cells(cfg, 2, 5000),
                                      segment_cells(cfg, 2, 5000))

    def test_requires_field_block(self):
        # The pattern law the samplers are handed needs the field block.
        cfg = dataclasses.replace(field_config(), pcsft=None, theory=Theory.QM)
        with pytest.raises(ValueError, match="pcsft"):
            segment_clicks(cfg, 0, 100)
        with pytest.raises(ValueError, match="pcsft"):
            segment_cells(cfg, 0, 100)

    def test_out_of_range_indices_rejected(self):
        cfg = parse_config(README_INI)
        for segment_index, point_index in ((0, 1 << 24), (-1, 0), (1 << 37, 0)):
            for sample in (segment_cells, segment_clicks):
                with pytest.raises(ValueError, match="out of range"):
                    sample(cfg, segment_index, 100, point_index=point_index)

    def test_clicks_match_literal_grid_oracle(self):
        # Production per-bin route vs the literal per-step walk on a
        # 1000-point grid with the continuity-corrected band.
        cfg = field_config(n_bins=40_000)
        herald, _, _ = segment_clicks(cfg, 0, 40_000)
        std = math.sqrt(cfg.pcsft.incident_power * 0.5
                        * cfg.pcsft.pulse_duration / 1000)
        literal = euler_exit_steps(rng_stream(6101, 0),
                                   1.0 - CONTINUITY_BETA * std, std, 1000,
                                   40_000)
        f_a, f_b = herald.mean(), np.mean(literal > 0)
        sigma = math.sqrt(f_a * (1 - f_a) / 40_000 + f_b * (1 - f_b) / 40_000)
        assert abs(f_a - f_b) < 3.0 * sigma

    def test_grid_rate_sits_below_continuum(self):
        # Euler monitoring only misses crossings: the grid kernel at 1000
        # points per bin clicks measurably less than the continuum value,
        # while the click route samples the continuum value itself.
        cfg = field_config(n_bins=150_000)
        f_cont = pcsft.field_click_probabilities(cfg)[0]
        sigma = math.sqrt(f_cont * (1 - f_cont) / 150_000)
        std = math.sqrt(cfg.pcsft.incident_power * 0.5
                        * cfg.pcsft.pulse_duration / 1000)
        grid = pcsft.discrete_exit_steps(rng_stream(6102, 0), 1.0, std, 1000,
                                         150_000)
        assert np.mean(grid > 0) < f_cont - 3.0 * sigma
        herald, _, _ = segment_clicks(cfg, 0, 150_000)
        assert abs(herald.mean() - f_cont) < 3.0 * sigma

    def test_cells_census_matches_pattern_law(self):
        # Both routes: the census, and the per-bin clicks counted by pattern.
        routes = (segment_cells,
                  lambda *args: pattern_counts(*segment_clicks(*args)))
        for cfg in (field_config(n_bins=150_000, seed=5001),
                    field_config(n_bins=150_000, seed=5003,
                                 dark=(2e5, 1e5, 3e5))):
            expected = pcsft.pattern_probabilities(cfg) * 150_000
            assert expected.min() > 5.0
            for sample in routes:
                cells = sample(cfg, 0, 150_000)
                assert cells.sum() == 150_000
                assert stats.chisquare(cells, expected).pvalue > 0.001

    def test_cells_accept_envelope(self):
        # An envelope config takes the census too: both routes draw the
        # gain-mixture law, noise on every channel.
        cfg = field_config(n_bins=150_000, seed=5006, coupling=0.0,
                           envelope_modes=4, dark=(2e5, 1e5, 3e5))
        expected = pcsft.pattern_probabilities(cfg) * 150_000
        assert expected.min() > 5.0
        for sample in (segment_cells,
                       lambda *args: pattern_counts(*segment_clicks(*args))):
            cells = sample(cfg, 0, 150_000)
            assert cells.sum() == 150_000
            assert stats.chisquare(cells, expected).pvalue > 0.001

    def test_click_route_singles_match_law_at_readme_defaults(self):
        # The click route draws the continuum law the census and the
        # closed forms use; an Euler-grid route clicks measurably less.
        cfg = parse_config(README_INI)
        herald, sig1, sig2 = bools(simulate_run(cfg))
        law = pcsft.pattern_probabilities(cfg)
        n = cfg.n_bins
        for clicks, bit in ((herald, 4), (sig1, 2), (sig2, 1)):
            p = sum(law[i] for i in range(8) if i & bit)
            z = (int(clicks.sum()) - n * p) / math.sqrt(n * p * (1 - p))
            assert abs(z) < 4.0, (bit, z)

    def test_herald_independent_of_signals(self):
        cfg = field_config(seed=5004, n_bins=100_000)
        herald, sig1, sig2 = segment_clicks(cfg, 0, 100_000)
        for sig in (sig1, sig2):
            table = np.array([[np.sum(herald & sig), np.sum(herald & ~sig)],
                              [np.sum(~herald & sig), np.sum(~herald & ~sig)]])
            assert stats.chi2_contingency(table).pvalue > 0.001

    def test_power_monotonicity_in_samples(self):
        lo = field_config(theta=0.5, seed=21, n_bins=10**5)
        hi = field_config(theta=1.0, seed=22, n_bins=10**5)
        f_lo = segment_clicks(lo, 0, 10**5)[0].mean()
        f_hi = segment_clicks(hi, 0, 10**5)[0].mean()
        sigma = math.sqrt(f_lo * (1 - f_lo) / 10**5 + f_hi * (1 - f_hi) / 10**5)
        assert (f_hi - f_lo) / sigma > 5.0


class TestSplitterCoupling:
    def test_channel_totals_keep_the_uncoupled_marginals(self):
        # Coupling moves only the coincidences: over many segments, each
        # channel's total per segment spreads as the same binomial with or
        # without it, noise included.  Per coupling and channel, the sum
        # of squared standard scores of 400 segments is chi2(400).
        n_bins, n_segments = 20_000, 400
        coupled = field_config(coupling=0.7, seed=31, dark=(2e5, 1e5, 3e5))
        free = dataclasses.replace(
            coupled, pcsft=dataclasses.replace(coupled.pcsft, coupling=0.0))
        law = pcsft.pattern_probabilities(free)
        for cfg in (coupled, free):
            cells = np.array([segment_cells(cfg, index, n_bins)
                              for index in range(n_segments)])
            for bit in (4, 2, 1):
                clicks = [i for i in range(8) if i & bit]
                p = law[clicks].sum()
                assert pcsft.pattern_probabilities(cfg)[clicks].sum() == \
                    pytest.approx(p, rel=1e-12)
                totals = cells[:, clicks].sum(axis=1)
                chi2 = np.sum((totals - n_bins * p) ** 2
                              / (n_bins * p * (1.0 - p)))
                tail = stats.chi2.sf(chi2, n_segments)
                assert 0.0005 < tail < 0.9995, (cfg.pcsft.coupling, bit, chi2)

    @pytest.mark.parametrize("route,seed,n_bins", [("clicks", 5001, 150_000),
                                                   ("cells", 5005, 400_000)])
    def test_measured_g2_hits_coupled_target(self, route, seed, n_bins):
        cfg = field_config(seed=seed, n_bins=n_bins)
        if route == "clicks":
            _, s1, s2 = segment_clicks(cfg, 0, cfg.n_bins)
            n_12 = int(np.sum(s1 & s2))
            n_1, n_2 = int(s1.sum()), int(s2.sum())
        else:
            cells = segment_cells(cfg, 0, cfg.n_bins)
            n_12 = int(cells[3] + cells[7])
            n_1 = int(cells[2] + cells[3] + cells[6] + cells[7])
            n_2 = int(cells[1] + cells[3] + cells[5] + cells[7])
        g2 = cfg.n_bins * n_12 / (n_1 * n_2)
        sigma = g2 * math.sqrt(1.0 / n_12 + 1.0 / n_1 + 1.0 / n_2)
        assert g2 == pytest.approx(pcsft.coupled_g2_target(cfg),
                                   abs=3.0 * sigma)


    def test_law_g2_is_one_without_coupling_noise_or_envelope(self):
        law = pcsft.pattern_probabilities(field_config(coupling=0.0))
        assert law_g2(law) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("coupling", [0.5, 1.0])
    def test_law_g2_is_the_unclipped_coupled_target(self, coupling):
        # Without noise the herald is independent of the signals, so the
        # law's g2 is q / (f1 f2): the target, where no Frechet bound clips q.
        cfg = field_config(coupling=coupling)
        _, f1, f2 = pcsft.field_click_probabilities(cfg)
        target = pcsft.coupled_g2_target(cfg)
        assert f1 + f2 - 1.0 < target * f1 * f2 < min(f1, f2)
        assert law_g2(pcsft.pattern_probabilities(cfg)) == pytest.approx(
            target, rel=1e-12)


class TestEnvelope:
    """The envelope's mixture law, its per-bin oracle and the census."""

    @staticmethod
    def quadrature_law(cfg, scale):
        """pattern_probabilities by adaptive quadrature over the gain.

        Each field pattern with a click integrates the gain's Gamma density
        times the channels' independent click probabilities at that gain,
        between quantiles of the gain, divided by the integral of the
        density alone; ``scale`` (roughly the cells) makes the error
        criterion relative per cell.  The noise ORs then move the field
        law to the observed patterns, enumerated literally.
        """
        pc = cfg.pcsft
        gain = stats.gamma(pc.envelope_modes, scale=1.0 / pc.envelope_modes)
        powers = pc.incident_power * np.array(core.arm_efficiencies(cfg))
        clicked = np.array([[pattern & bit for bit in (4, 2, 1)]
                            for pattern in range(1, 8)], dtype=bool)

        def field(theta):
            f = pcsft.crossing_probability(pc.threshold_energy, powers * theta,
                                           pc.pulse_duration)
            cells = np.where(clicked, f, 1.0 - f).prod(axis=1)
            return gain.pdf(theta) * np.append(cells / scale, 1.0)

        cuts = gain.ppf([1e-30, 1e-20, 1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5,
                         0.7, 0.95]).tolist() + gain.isf(
                             [1e-3, 1e-6, 1e-12, 1e-20, 1e-30]).tolist()
        total = integrate.quad_vec(field, cuts[0], cuts[-1], points=cuts[1:-1],
                                   epsabs=0.0, epsrel=1e-11, norm="max")[0]
        field_law = np.empty(8)
        field_law[1:] = total[:-1] / total[-1] * scale
        field_law[0] = 1.0 - field_law[1:].sum()
        law = np.zeros(8)
        noise = noise_probabilities(cfg)
        for source in range(8):
            for target in range(8):
                if source & ~target:
                    continue  # noise only adds clicks
                p = field_law[source]
                for bit, pn in zip((4, 2, 1), noise):
                    if not source & bit:
                        p *= pn if target & bit else 1.0 - pn
                law[target] += p
        return law

    @pytest.mark.parametrize("modes", [1, 4, 64, 1000])
    def test_law_matches_quadrature(self, modes):
        # The sweep workload's shares, at its full-power point.
        cfg = parse_config(README_INI.replace(
            "coupling = 0.5", f"coupling = 0.0\nenvelope_modes = {modes}"))
        law = pcsft.pattern_probabilities(cfg)
        assert law.sum() == pytest.approx(1.0, abs=1e-15)
        assert (law >= 0.0).all()
        np.testing.assert_allclose(law[1:], self.quadrature_law(cfg, law[1:])[1:],
                                   rtol=1e-10, atol=0.0)

    def test_one_node_without_an_envelope(self):
        cfg = field_config(coupling=0.0, dark=(2e5, 1e5, 3e5))
        f = pcsft.field_click_probabilities(cfg)
        assert f[0] == pcsft.crossing_probability(
            1.0, cfg.pcsft.incident_power * 0.5, cfg.pcsft.pulse_duration)
        field_law = pcsft._or_channels((1.0,) + (0.0,) * 7, f)
        np.testing.assert_array_equal(
            pcsft.pattern_probabilities(cfg),
            pcsft._or_channels(field_law, noise_probabilities(cfg)))

    def test_envelope_route_matches_literal_oracle(self):
        cfg = field_config(coupling=0.0, envelope_modes=4, seed=5002,
                           n_bins=30_000)
        herald, _, _ = per_bin_envelope_clicks(cfg, 0, 30_000)
        # Reconstruct the oracle's envelope draw, then walk the same
        # per-bin rates literally with the continuity-corrected band,
        # rescaled to a unit barrier.
        rng_env = rng_stream(5002, stream_id(0, Role.SOURCE, 0))
        gain = rng_env.gamma(shape=4, scale=0.25, size=30_000)
        stds = np.sqrt(cfg.pcsft.incident_power * 0.5 * gain
                       * cfg.pcsft.pulse_duration / 1000)
        literal = euler_exit_steps(rng_stream(6301, 0), 1.0,
                                   stds / (1.0 - CONTINUITY_BETA * stds),
                                   1000, 30_000)
        f_a, f_b = herald.mean(), np.mean(literal > 0)
        sigma = math.sqrt(f_a * (1 - f_a) / 30_000 + f_b * (1 - f_b) / 30_000)
        assert abs(f_a - f_b) < 3.0 * sigma

    def test_envelope_preserves_mean_rate_to_first_order(self):
        # Gamma gain has mean 1; the click rate is the continuum mixture
        # rate, estimated here from an independent gain draw.
        cfg = field_config(coupling=0.0, envelope_modes=4, seed=5002,
                           n_bins=30_000)
        herald, _, _ = segment_clicks(cfg, 0, 30_000)
        rng = np.random.default_rng(99)
        gain = rng.gamma(4.0, 0.25, size=20_000)
        f = pcsft.crossing_probability(
            1.0, cfg.pcsft.incident_power * 0.5 * gain,
            cfg.pcsft.pulse_duration)
        mixture = f.mean()
        assert herald.mean() == pytest.approx(mixture, rel=0.06)
        sigma = math.sqrt(mixture * (1 - mixture) / 30_000
                          + f.var() / 20_000)
        assert abs(herald.mean() - mixture) < 3.0 * sigma

    def test_envelope_route_matches_per_bin_law(self):
        # The per-bin oracle, the census and the census placed all draw
        # the mixture law, on all eight patterns; none of them draws the
        # law of the same powers without the envelope.
        n = 60_000
        for modes in (1, 4):
            cfg = field_config(coupling=0.0, envelope_modes=modes, seed=5007,
                               dark=(2e5, 1e5, 3e5), n_bins=n)
            law = pcsft.pattern_probabilities(cfg) * n
            flat = pcsft.pattern_probabilities(dataclasses.replace(
                cfg, pcsft=dataclasses.replace(cfg.pcsft, envelope_modes=None))) * n
            assert min(law.min(), flat.min()) > 5.0
            for cells in (pattern_counts(*per_bin_envelope_clicks(cfg, 0)),
                          segment_cells(cfg, 0, cfg.segment_bins),
                          pattern_counts(*segment_clicks(
                              cfg, 0, cfg.segment_bins))):
                assert cells.sum() == n
                assert stats.chisquare(cells, law).pvalue > 0.001
                assert stats.chisquare(cells, flat).pvalue < 1e-9


class TestBounds:
    def test_energy_bound_unit_cancellation(self):
        assert pcsft.bound_energy(BIN, BIN, 1.0, 1.0) == 2.0

    def test_energy_bound_inverse_in_threshold(self):
        full = pcsft.bound_energy(10e-9, BIN, 0.3, 1.0)
        assert pcsft.bound_energy(10e-9, BIN, 0.3, 0.5) == 2.0 * full

    def test_energy_bound_arithmetic(self):
        value = pcsft.bound_energy(10e-9, BIN, 0.01, 1.0)
        assert value == pytest.approx(2.0 * (10e-9 / BIN) * 0.01, rel=1e-15)
        assert value == pytest.approx(0.0096, rel=2e-4)

    def test_energy_bound_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pcsft.bound_energy(0.0, BIN, 1.0, 1.0)
        with pytest.raises(ValueError):
            pcsft.bound_energy(BIN, BIN, 1.0, 0.0)

    def test_counts_bound_zero_counts(self):
        assert pcsft.bound_counts(BIN, BIN, 0, 0, 1.0) == 0.0

    def test_counts_bound_linear_in_counts(self):
        one = pcsft.bound_counts(BIN, BIN, 3e5, 2e5, 1.0)
        assert pcsft.bound_counts(BIN, BIN, 6e5, 4e5, 1.0) == 2.0 * one

    def test_counts_bound_arithmetic(self):
        value = pcsft.bound_counts(BIN, BIN, 5e5, 5e5, 1.0)
        assert value == pytest.approx(2.0 * BIN * 1e6, rel=1e-15)
        assert value == pytest.approx(0.0417, rel=2e-3)

    def test_counts_bound_rejects_zero_time(self):
        with pytest.raises(ValueError):
            pcsft.bound_counts(BIN, BIN, 1, 1, 0.0)
