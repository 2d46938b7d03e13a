"""Run drivers: segmentation, early stop, sweeps."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from heraldsim import pcsft, qm, runner
from heraldsim.analysis import heralded_g2, law_g2
from heraldsim.coincidence import (_placement_bytes, accumulate,
                                   counts_from_cells, segment_table)
from heraldsim.core import (ConfigError, DetectorConfig, ExperimentConfig,
                            OpticsConfig, PCSFTConfig, SourceConfig, Theory,
                            parse_config, validate_config, with_attenuation)
from heraldsim.runner import (SweepPlan, load_sweep_plan, parse_sweep_plan,
                              run_counts, run_sweep, simulate_run)

from helpers import bools

BIN = 20.83e-9
# Each model's law function, the law the runner hands its samplers.
LAW_NAMES = {qm: "joint_pattern_probabilities", pcsft: "pattern_probabilities"}


def photon_config(mu=0.05, mode_count=1, eta_h=0.5, eta_1=0.5, eta_2=0.5,
                  attenuation=1.0, n_bins=10**7, segment_bins=10**6,
                  seed=8001) -> ExperimentConfig:
    return validate_config(ExperimentConfig(
        source=SourceConfig(mu, mode_count),
        optics=OpticsConfig(eta_h, eta_1, eta_2, attenuation, 0.5),
        detectors=DetectorConfig(dark_rate_h=0.0, dark_rate_1=0.0,
                                 dark_rate_2=0.0),
        theory=Theory.QM, n_bins=n_bins, segment_bins=segment_bins,
        seed=seed))


ENVELOPE_BLOCK = PCSFTConfig(threshold_energy=1.0, pulse_duration=BIN,
                             incident_power=1.0 / BIN, coupling=0.0,
                             envelope_modes=4)


def envelope_config(n_bins=20_000, segment_bins=10_000,
                    seed=8101) -> ExperimentConfig:
    return validate_config(ExperimentConfig(
        source=SourceConfig(0.0),
        optics=OpticsConfig(0.5, 1.0, 1.0, 1.0, 0.5),
        detectors=DetectorConfig(dark_rate_h=0.0, dark_rate_1=0.0,
                                 dark_rate_2=0.0),
        pcsft=ENVELOPE_BLOCK, theory=Theory.PCSFT,
        n_bins=n_bins, segment_bins=segment_bins, seed=seed))


def coupled_noisy_config(n_bins=200_000, segment_bins=9_973,
                         seed=8012) -> ExperimentConfig:
    """A coupled pcsft config with noise on all three channels."""
    return validate_config(ExperimentConfig(
        source=SourceConfig(0.0),
        optics=OpticsConfig(0.5, 1.0, 1.0, 1.0, 0.5),
        detectors=DetectorConfig(dark_rate_h=2e4, dark_rate_1=1e4,
                                 dark_rate_2=3e4),
        pcsft=replace(ENVELOPE_BLOCK, coupling=0.5, envelope_modes=None),
        theory=Theory.PCSFT, n_bins=n_bins, segment_bins=segment_bins,
        seed=seed))


# The README's field-model example at 1e9 incident power, coupling 1 and
# equal signal arms: f1 = f2 = 0.448 and a coupled coincidence target of
# 0.359 per bin, above f1 * f2.
COUPLED_INI = """
[source]
pair_mean_per_bin = 0.05

[optics]
eta_h = 0.26
eta_1 = 0.065
eta_2 = 0.065

[run]
theory = pcsft
n_bins = 960000
seed = 8023

[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = 1e9
coupling = 1.0
"""


def divmod_sizes(n_bins: int, segment_bins: int) -> list[int]:
    """Bins per segment by ``divmod``: the oracle of the runner's cut."""
    full, rest = divmod(n_bins, segment_bins)
    return [segment_bins] * full + ([rest] if rest else [])


def census_from_totals(counts) -> np.ndarray:
    """A run's bins per joint click pattern, from its totals.

    By inclusion-exclusion over the channels that click together:
    ``clicked[mask]`` bins click on every channel of ``mask`` at least.
    """
    clicked = {0: counts.n_bins, 4: counts.N_H, 2: counts.N_1, 1: counts.N_2,
               6: counts.N_H1, 5: counts.N_H2, 3: counts.N_12, 7: counts.N_H12}
    return np.array([sum((-1) ** bin(mask & ~pattern).count("1") * clicked[mask]
                         for mask in range(8) if mask & pattern == pattern)
                     for pattern in range(8)])


def assert_takes_the_census(model, cfg: ExperimentConfig) -> None:
    """Each segment of run_counts is the ``model`` census of that segment."""
    counts = run_counts(cfg)
    sizes = divmod_sizes(cfg.n_bins, cfg.segment_bins)
    assert len(counts.segments) == len(sizes)
    law = getattr(model, LAW_NAMES[model])(cfg)
    for index, (seg, n_bins) in enumerate(zip(counts.segments, sizes)):
        cells = model.segment_cells(cfg, index, n_bins=n_bins, law=law)
        assert seg.item() == counts_from_cells(cells, segment_index=index)


def assert_same_streams(a, b) -> None:
    assert a.bin_width == b.bin_width
    np.testing.assert_array_equal(a.herald, b.herald)
    np.testing.assert_array_equal(a.signal_1, b.signal_1)
    np.testing.assert_array_equal(a.signal_2, b.signal_2)


def census_rows(model, cfg: ExperimentConfig,
                target_triples=None) -> np.recarray:
    """The segment table of ``model.segment_cells`` drawn segment by segment.

    Rows are ``counts_from_cells`` of each census, cut after the first
    segment at which the cumulative N_H12 reaches ``target_triples``.
    """
    rows, triples = [], 0
    law = getattr(model, LAW_NAMES[model])(cfg)
    for index, n_bins in enumerate(divmod_sizes(cfg.n_bins, cfg.segment_bins)):
        rows.append(counts_from_cells(
            model.segment_cells(cfg, index, n_bins, law=law),
            segment_index=index))
        triples += rows[-1][-1]
        if target_triples is not None and triples >= target_triples:
            break
    return segment_table(rows)


class TestSegmentSizes:
    # The runner's own cut: the bins of each segment that run_counts keeps.
    @staticmethod
    def sizes(n_bins: int, segment_bins: int) -> list[int]:
        cfg = photon_config(mu=0.0, n_bins=n_bins, segment_bins=segment_bins)
        return run_counts(cfg).segments.n_bins.tolist()

    def test_remainder_kept(self):
        assert self.sizes(10, 4) == [4, 4, 2]

    def test_exact_fit(self):
        assert self.sizes(8, 4) == [4, 4]

    def test_single_short_run(self):
        assert self.sizes(3, 10) == [3]

    @pytest.mark.parametrize("n_bins,segment_bins",
                             [(1, 1), (100_003, 977), (48_000, 48_000)])
    def test_sizes_partition_the_run(self, n_bins, segment_bins):
        sizes = self.sizes(n_bins, segment_bins)
        assert sum(sizes) == n_bins
        assert all(s == segment_bins for s in sizes[:-1])
        assert 0 < sizes[-1] <= segment_bins


class TestSimulateRun:
    def test_silent_source(self):
        cfg = photon_config(mu=0.0, n_bins=10_000, segment_bins=4_000)
        streams = simulate_run(cfg)
        assert streams.n_bins == 10_000
        assert not streams.herald.any()
        assert not streams.signal_1.any()
        assert not streams.signal_2.any()

    def test_repeatable(self):
        cfg = photon_config(n_bins=30_000, segment_bins=7_000, seed=8005)
        assert_same_streams(simulate_run(cfg), simulate_run(cfg))

    def test_points_have_independent_randomness(self):
        cfg = photon_config(n_bins=30_000, segment_bins=30_000, seed=8005)
        a = simulate_run(cfg, point_index=0)
        b = simulate_run(cfg, point_index=1)
        assert (a.herald != b.herald).any()


class TestPlacedBlocks:
    """simulate's blocks are its segments, placed one by one and joined."""

    CONFIGS = {
        # At two pairs per bin the pattern that fills a 97-bin segment is
        # the silent one in most segments and a clicking one in the rest,
        # so blocks mix channels their segments fill and leave silent.
        "qm-mixed-fill": lambda: photon_config(
            mu=2.0, eta_h=0.9, eta_1=0.7, eta_2=0.6, n_bins=20_003,
            segment_bins=97, seed=1),
        # Unaligned segments, a short last one, every channel silent-filled.
        "qm-sparse": lambda: photon_config(
            mu=0.05, eta_h=0.26, eta_1=0.075, eta_2=0.055, n_bins=300_007,
            segment_bins=4_801, seed=8031),
        "pcsft": coupled_noisy_config,
    }

    @pytest.mark.filterwarnings("ignore:source.pair_mean_per_bin")
    @pytest.mark.parametrize("block_bytes", [0, 1 << 11, 1 << 14,
                                             runner._BLOCK_BYTES, 1 << 40])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_blocks_are_the_segments_joined(self, config, block_bytes,
                                            monkeypatch):
        # At a budget of 0 bytes every block is one segment.
        cfg = self.CONFIGS[config]()
        monkeypatch.setattr(runner, "_BLOCK_BYTES", 0)
        segments = list(runner._placed_segments(cfg))
        monkeypatch.setattr(runner, "_BLOCK_BYTES", block_bytes)
        blocks = list(runner._placed_segments(cfg))
        assert all(len(rows) == 1 for rows, _, _ in segments)
        assert ([row for rows, _, _ in blocks for row in rows]
                == [rows[0] for rows, _, _ in segments])
        assert_same_streams(
            blocks[0][1].concat(*[part for _, part, _ in blocks[1:]]),
            segments[0][1].concat(*[part for _, part, _ in segments[1:]]))
        if block_bytes == 1 << 40:
            assert len(blocks) == 1
        censuses = iter(runner._census_rows(cfg, 0))
        for rows, part, clicked in blocks:
            for bits, bins in zip(bools(part), clicked):
                assert bins.dtype == np.int64
                np.testing.assert_array_equal(bins, np.flatnonzero(bits))
            costs = [_placement_bytes(*next(censuses)) for _ in rows]
            if len(rows) == 1:
                continue
            # A block of several segments holds what it counted, and
            # counts no more than its budget.
            scans = any(scan for _, scan in costs)
            counted = sum(size for size, _ in costs) + scans * part.n_bins
            held = sum(array.nbytes for array in
                       (part.herald, part.signal_1, part.signal_2, *clicked))
            assert held <= counted <= block_bytes


class TestRunCounts:
    def test_click_route_equals_counting_the_streams(self):
        # Uneven segments: the remainder keeps its own index on this route.
        cfg = envelope_config(n_bins=30_000, segment_bins=7_000, seed=8005)
        direct = run_counts(cfg)
        assert len(direct.segments) == len(divmod_sizes(30_000, 7_000))
        assert direct == accumulate(simulate_run(cfg),
                                    segment_bins=cfg.segment_bins)

    def test_placed_segment_rows_are_run_counts(self):
        # The rows simulate writes come with their streams; run_counts
        # draws the same census without placing it.
        for cfg in (photon_config(n_bins=300_000, segment_bins=70_000,
                                  seed=8006),
                    coupled_noisy_config(), envelope_config()):
            rows = [row for rows, _, _ in runner._placed_segments(cfg)
                    for row in rows]
            assert np.array_equal(segment_table(rows), run_counts(cfg).segments)

    def test_census_table_memory_per_segment(self):
        cfg = photon_config(n_bins=2_000_000, segment_bins=100, seed=8007)
        run_counts(replace(cfg, n_bins=20_000))  # warm-up
        tracemalloc.start()
        try:
            counts = run_counts(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts.segments) == 20_000
        # The table itself takes 72 bytes per row.
        assert peak / len(counts.segments) < 120, peak

    def test_photon_runs_take_the_census(self):
        assert_takes_the_census(qm, photon_config(n_bins=2 * 10**6,
                                                  segment_bins=10**6, seed=8007))

    def test_envelope_runs_take_the_census(self):
        # An intensity envelope has a census too: the mixture law's.
        cfg = envelope_config(n_bins=30_000, segment_bins=7_000)
        assert_takes_the_census(pcsft, cfg)
        assert run_counts(cfg).N_H > 0

    def test_envelope_block_on_photon_config_keeps_the_census(self):
        cfg = replace(photon_config(n_bins=30_000, segment_bins=7_000,
                                    seed=8007), pcsft=ENVELOPE_BLOCK)
        assert_takes_the_census(qm, validate_config(cfg))

    def test_joint_law_computed_once_per_config(self, monkeypatch):
        # One call of the model's law function per run, its law handed to
        # every segment.
        for model, cfg in (
                (qm, photon_config(n_bins=50_000, segment_bins=7_000,
                                   seed=8011)),
                (pcsft, coupled_noisy_config(n_bins=50_000,
                                             segment_bins=7_000))):
            builds = []
            build = getattr(model, LAW_NAMES[model])
            monkeypatch.setattr(model, LAW_NAMES[model],
                                lambda c, build=build: builds.append(c) or build(c))
            counts = run_counts(cfg)
            assert len(counts.segments) > 1
            assert builds == [cfg]
            simulate_run(cfg)
            assert builds == [cfg, cfg]

    LAWS = {
        "qm": (qm.joint_pattern_probabilities,
               lambda: photon_config(n_bins=960_000, seed=8021)),
        "pcsft-coupled": (pcsft.pattern_probabilities,
                          lambda: parse_config(COUPLED_INI)),
        "pcsft-envelope": (pcsft.pattern_probabilities,
                           lambda: envelope_config(n_bins=960_000, seed=8022)),
    }

    @pytest.mark.parametrize("segment_bins", [48_000, 480])
    @pytest.mark.parametrize("case", sorted(LAWS))
    def test_totals_follow_the_law_at_any_segment_size(self, case,
                                                       segment_bins):
        law, make = self.LAWS[case]
        cfg = replace(make(), segment_bins=segment_bins)
        expected = law(cfg) * cfg.n_bins
        assert expected.min() > 5.0
        cells = census_from_totals(run_counts(cfg))
        assert cells.sum() == cfg.n_bins
        assert stats.chisquare(cells, expected).pvalue > 0.001

    def test_herald_rate_matches_exact_law(self):
        cfg = photon_config(eta_h=0.26, seed=8001)
        counts = run_counts(cfg)
        p_click = 1.0 - qm.no_click_prob(cfg, (0,))
        sigma = math.sqrt(p_click * (1.0 - p_click) / counts.n_bins)
        assert counts.N_H / counts.n_bins == pytest.approx(p_click,
                                                           abs=3.0 * sigma)

    def test_pipeline_g2_matches_population_value(self):
        cfg = photon_config(mode_count=100, seed=8002)
        est = heralded_g2(run_counts(cfg))
        assert est.value == pytest.approx(qm.heralded_g2_exact(cfg),
                                          abs=3.0 * est.sigma)

    def test_coupled_pcsft_g2_matches_population_value(self):
        cfg = coupled_noisy_config(n_bins=400_000, segment_bins=48_000)
        est = heralded_g2(run_counts(cfg))
        assert est.value == pytest.approx(
            law_g2(pcsft.pattern_probabilities(cfg)), abs=3.0 * est.sigma)

    @pytest.mark.parametrize("attenuation,point_index", [(1.0, 1), (0.1, 2)])
    def test_attenuation_leaves_g2_at_its_population_value(self, attenuation,
                                                           point_index):
        cfg = photon_config(attenuation=attenuation, n_bins=3 * 10**7,
                            segment_bins=10**6, seed=8003)
        counts = run_counts(cfg, point_index=point_index)
        est = heralded_g2(counts)
        assert est.value == pytest.approx(qm.heralded_g2_exact(cfg),
                                          abs=3.0 * est.sigma)
        expected_heralds = qm.expected_counts(cfg, counts.n_bins)["N_H"]
        assert counts.N_H == pytest.approx(expected_heralds, rel=0.02)

    def test_early_stop_keeps_exact_segment_prefix(self):
        cfg = photon_config(n_bins=200_000, segment_bins=9_973, seed=8004)
        full = run_counts(cfg)
        stopped = run_counts(cfg, target_triples=20)
        k = len(stopped.segments)
        assert np.array_equal(stopped.segments, full.segments[:k])
        assert stopped.N_H12 >= 20
        assert stopped.segments.N_H12[:-1].sum() < 20

    def test_unreachable_target_uses_whole_budget(self):
        cfg = photon_config(n_bins=200_000, segment_bins=9_973, seed=8004)
        counts = run_counts(cfg, target_triples=10**9)
        assert counts.n_bins == 200_000
        assert len(counts.segments) == len(divmod_sizes(200_000, 9_973))



# Configs whose segments of a few hundred bins hold triples, per model.
CENSUS_CONFIGS = {
    "qm": (qm, lambda n_bins, segment_bins: photon_config(
        mu=0.2, eta_h=0.9, eta_1=0.9, eta_2=0.9, n_bins=n_bins,
        segment_bins=segment_bins, seed=8031)),
    "pcsft-coupled": (pcsft, lambda n_bins, segment_bins: coupled_noisy_config(
        n_bins=n_bins, segment_bins=segment_bins, seed=8032)),
    "pcsft-envelope": (pcsft, lambda n_bins, segment_bins: envelope_config(
        n_bins=n_bins, segment_bins=segment_bins, seed=8033)),
}


class TestCensusLoop:
    """run_counts keeps the per-segment census rows up to the stop."""

    # case -> (n_bins, segment_bins, target as a function of the running
    # N_H12 per segment, retained segments as a function of their count).
    CASES = {
        "met-in-segment-0": (12 * 400, 400, lambda t: t[0], lambda n: 1),
        "met-in-segment-4": (12 * 400, 400, lambda t: t[4], lambda n: 5),
        "met-just-past-segment-4": (12 * 400, 400, lambda t: t[4] + 1,
                                    lambda n: 6),
        "never-met": (12 * 400, 400, lambda t: t[-1] + 1, lambda n: n),
        "met-in-short-final-segment": (9 * 400 + 123, 400, lambda t: t[-1],
                                       lambda n: n),
        "one-bin-segments": (400, 1, lambda t: 2, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("model_name", sorted(CENSUS_CONFIGS))
    def test_rows_are_the_per_segment_census_up_to_the_stop(
            self, model_name, case):
        model, make = CENSUS_CONFIGS[model_name]
        n_bins, segment_bins, target_of, kept_of = self.CASES[case]
        cfg = make(n_bins, segment_bins)
        full = census_rows(model, cfg)
        target = int(target_of(np.cumsum(full.N_H12)))
        expected = census_rows(model, cfg, target)
        if kept_of is None:
            assert 1 < len(expected) < len(full)
        else:
            assert len(expected) == kept_of(len(full))
        assert target > 0
        assert np.array_equal(run_counts(cfg, target_triples=target).segments,
                              expected)
        assert np.array_equal(run_counts(cfg).segments, full)
        assert full.n_bins[-1] == n_bins - segment_bins * (len(full) - 1)

    @pytest.mark.parametrize("model_name", sorted(CENSUS_CONFIGS))
    def test_memory_follows_the_segments_kept_not_the_budget(self, model_name):
        # A sweep's budget may stand for "until the target": 10**15 bins is
        # 2e10 segments of 48 000, which no table of the budget would fit.
        model, make = CENSUS_CONFIGS[model_name]
        short = make(3 * 48_000, 48_000)
        target = int(np.cumsum(census_rows(model, short).N_H12)[1])
        cfg = replace(short, n_bins=10**15)
        run_counts(short, target_triples=target)  # warm-up
        tracemalloc.start()
        try:
            counts = run_counts(cfg, target_triples=target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.segments.tolist() == census_rows(model, short, target).tolist()
        assert len(counts.segments) == 2
        assert peak < 2 * 10**6, peak


SWEEP_INI = """\
[sweep]
attenuations = 1.0, 0.5, 0.25
target_triples = 50
max_bins = 400000
"""


class TestSweepPlan:
    def test_parse_full_section(self):
        plan = parse_sweep_plan(SWEEP_INI)
        assert plan.attenuations == (1.0, 0.5, 0.25)
        assert plan.target_triples == 50
        assert plan.max_bins == 400_000

    def test_defaults(self):
        plan = parse_sweep_plan("[sweep]\nattenuations = 1.0, 0.5\n")
        assert plan.target_triples == 10_000
        assert plan.max_bins is None

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_sweep_plan("[optics]\neta_h = 0.5\n")

    def test_missing_section_uses_the_ini_wording(self):
        with pytest.raises(ConfigError) as info:
            parse_sweep_plan("", origin="plan.ini")
        assert str(info.value) == "plan.ini: missing required section [sweep]"

    def test_other_section_is_an_error(self):
        with pytest.raises(ConfigError) as info:
            parse_sweep_plan(SWEEP_INI + "[source]\npair_mean_per_bin = 0.1\n",
                             origin="plan.ini")
        assert str(info.value) == "plan.ini: unknown section [source]"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="powers"):
            parse_sweep_plan("[sweep]\nattenuations = 1.0\npowers = 3\n")

    def test_bad_attenuation_list(self):
        with pytest.raises(ConfigError, match="attenuations"):
            parse_sweep_plan("[sweep]\nattenuations = 1.0, high\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError,
                           match=r"\[sweep\] target_triples: not an integer"):
            parse_sweep_plan(
                "[sweep]\nattenuations = 1.0\ntarget_triples = many\n")

    def test_two_malformed_keys_reported_together(self):
        with pytest.raises(ConfigError) as info:
            parse_sweep_plan("[sweep]\nattenuations = 1.0\n"
                             "target_triples = abc\nmax_bins = y\n",
                             origin="plan.ini")
        lines = str(info.value).splitlines()
        assert lines == ["plan.ini: [sweep] target_triples: not an integer: 'abc'",
                         "plan.ini: [sweep] max_bins: not an integer: 'y'"]

    def test_missing_attenuations_names_origin(self):
        with pytest.raises(ConfigError) as info:
            parse_sweep_plan("[sweep]\ntarget_triples = 5\n", origin="plan.ini")
        assert str(info.value) == (
            "plan.ini: missing required key 'attenuations' in section [sweep]")

    def test_plan_check_names_origin(self):
        with pytest.raises(ConfigError, match=r"^plan\.ini: .*target_triples"):
            parse_sweep_plan("[sweep]\nattenuations = 1.0\ntarget_triples = 0\n",
                             origin="plan.ini")

    def test_every_plan_check_reported_together(self):
        with pytest.raises(ConfigError) as info:
            parse_sweep_plan("[sweep]\nattenuations = 1.5, 0.5\n"
                             "target_triples = 0\nmax_bins = -3\n",
                             origin="plan.ini")
        assert str(info.value).splitlines() == [
            "plan.ini: sweep attenuation 1.5 outside (0, 1]",
            "plan.ini: sweep target_triples must be >= 1, got 0",
            "plan.ini: sweep max_bins must be >= 1, got -3"]

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            SweepPlan(attenuations=())

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_out_of_range_attenuation(self, bad):
        with pytest.raises(ConfigError, match="attenuation"):
            SweepPlan(attenuations=(1.0, bad))

    def test_bad_target(self):
        with pytest.raises(ConfigError, match="target_triples"):
            SweepPlan(attenuations=(1.0,), target_triples=0)

    def test_bad_max_bins(self):
        with pytest.raises(ConfigError, match="max_bins"):
            SweepPlan(attenuations=(1.0,), max_bins=0)

    def test_max_bins_bounded_by_int64(self):
        assert SweepPlan(attenuations=(1.0,), max_bins=2**63 - 1).max_bins == 2**63 - 1
        with pytest.raises(ConfigError) as info:
            SweepPlan(attenuations=(1.0,), max_bins=2**63)
        assert str(info.value) == (
            f"sweep max_bins must be at most 2**63 - 1, got {2**63}")

    def test_unsorted_attenuations_warn(self):
        with pytest.warns(UserWarning, match="decreasing"):
            SweepPlan(attenuations=(0.5, 1.0))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text(SWEEP_INI, encoding="utf-8")
        assert load_sweep_plan(path) == parse_sweep_plan(SWEEP_INI)


class TestRunSweep:
    def test_points_reproduce_standalone_runs(self):
        cfg = photon_config(n_bins=10**6, segment_bins=250_000, seed=8008)
        plan = SweepPlan(attenuations=(1.0, 0.5), target_triples=10**9)
        points = run_sweep(cfg, plan)
        assert [p.point_index for p in points] == [1, 2]
        assert [p.attenuation for p in points] == [1.0, 0.5]
        for point in points:
            expected = run_counts(with_attenuation(cfg, point.attenuation),
                                  point_index=point.point_index,
                                  target_triples=10**9)
            assert point.counts == expected

    def test_attenuation_reduces_signal_singles(self):
        cfg = photon_config(n_bins=10**6, segment_bins=250_000, seed=8008)
        plan = SweepPlan(attenuations=(1.0, 0.25), target_triples=10**9)
        full, quarter = run_sweep(cfg, plan)
        assert quarter.counts.N_1 < 0.35 * full.counts.N_1
        assert quarter.counts.N_H == pytest.approx(full.counts.N_H, rel=0.02)

    def test_sweep_points_avoid_plain_run_randomness(self):
        cfg = photon_config(n_bins=10**6, segment_bins=10**6, seed=8008)
        plan = SweepPlan(attenuations=(1.0,), target_triples=10**9)
        (point,) = run_sweep(cfg, plan)
        assert point.counts != run_counts(cfg, point_index=0,
                                          target_triples=10**9)

    def test_max_bins_caps_each_point(self):
        cfg = photon_config(n_bins=10**7, segment_bins=10**6, seed=8009)
        plan = SweepPlan(attenuations=(1.0,), target_triples=10**9,
                         max_bins=400_000)
        (point,) = run_sweep(cfg, plan)
        assert point.counts.n_bins == 400_000

    def test_target_triples_stops_points_early(self):
        cfg = photon_config(n_bins=10**7, segment_bins=10**5, seed=8010)
        plan = SweepPlan(attenuations=(1.0,), target_triples=5)
        (point,) = run_sweep(cfg, plan)
        assert point.counts.n_bins < 10**7
        assert point.counts.N_H12 >= 5
