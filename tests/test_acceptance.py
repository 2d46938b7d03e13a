"""Release acceptance gate: ten end-to-end criteria, one line each.

Each test prints a single ``criterion NN: PASS/FAIL`` line straight to the
terminal (bypassing capture), so a full run ends with a ten-line scorecard.
Every statistical check runs on a pinned stream that was measured to sit
well inside its gate before the seed was frozen; nothing here should flake.
"""

import time

import numpy as np
from scipy import stats

from heraldsim import pcsft, report
from heraldsim.analysis import heralded_g2, weighted_linear_fit
from heraldsim.cli import main
from heraldsim.coincidence import COUNT_FIELDS, ClickStreams, accumulate
from heraldsim.core import (DetectorConfig, ExperimentConfig, OpticsConfig,
                            PCSFTConfig, SourceConfig, Theory, rng_stream,
                            validate_config, with_attenuation)
from heraldsim.runner import SweepPlan, run_counts, run_sweep

from helpers import (brute_force_counts, first_passage_times, g_factor,
                     herald_efficiency, klyshko_efficiency, merge, nb_pmf,
                     predicted_heralded_g2, sample_pair_counts)

BIN = 20.83e-9

# Incident power per bin for which each 50%-share arm clicks with
# probability one half (crossing_probability == 0.5 at this theta).
THETA_HALF = 0.7574956765428495

# Shared 8-point attenuation grid, 1.0 down to 0.1.
ATTENUATIONS = tuple(round(1.0 - 0.9 * i / 7.0, 10) for i in range(8))


def _line(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def _photon_cfg(mu, mode_count, eta_h, eta_1, eta_2, n_bins, segment_bins,
                seed) -> ExperimentConfig:
    return validate_config(ExperimentConfig(
        source=SourceConfig(mu, mode_count),
        optics=OpticsConfig(eta_h, eta_1, eta_2, 1.0, 0.5),
        detectors=DetectorConfig(dark_rate_h=0.0, dark_rate_1=0.0,
                                 dark_rate_2=0.0),
        theory=Theory.QM, n_bins=n_bins, segment_bins=segment_bins,
        seed=seed))


# ---------------------------------------------------------------------------
# 1. First-passage law
# ---------------------------------------------------------------------------

def _mean_passage(stream: int, threshold: float, power: float,
                  n_paths: int) -> float:
    tau = threshold / power
    times = first_passage_times(rng_stream(9101, stream), threshold,
                                power, 1e-4 * tau, n_paths,
                                horizon=30.0 * tau)
    finite = times[np.isfinite(times)]
    assert finite.size == n_paths
    return float(finite.mean())


def test_c01_first_passage_law(capsys):
    """Mean hit time = threshold / power, to 2% at the reference point and
    to 5% across a decade in either parameter."""
    started = time.monotonic()
    times = first_passage_times(rng_stream(9101, 0xA101), 1.0, 1.0,
                                1e-5, 100_000, horizon=30.0)
    finite = times[np.isfinite(times)]
    mean_dev = abs(float(finite.mean()) - 1.0)

    base = _mean_passage(0xA102, 1.0, 1.0, 20_000)
    ratio_devs = []
    for stream, threshold in ((0xA103, 3.0), (0xA104, 10.0)):
        mean = _mean_passage(stream, threshold, 1.0, 20_000)
        ratio_devs.append(abs(mean / (threshold * base) - 1.0))
    for stream, power in ((0xA105, 3.0), (0xA106, 10.0)):
        mean = _mean_passage(stream, 1.0, power, 20_000)
        ratio_devs.append(abs(mean * power / base - 1.0))
    elapsed = time.monotonic() - started

    ok = (finite.size == 100_000 and mean_dev <= 0.02
          and max(ratio_devs) <= 0.05 and elapsed < 60.0)
    detail = (f"mean dev {mean_dev:.4f} (gate 0.02), decade dev "
              f"{max(ratio_devs):.4f} (gate 0.05), {elapsed:.1f}s")
    _line(capsys, 1, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 2. Pair statistics
# ---------------------------------------------------------------------------

def _pair_gof_p(stream: int, mode_count: int) -> float:
    draws = sample_pair_counts(rng_stream(9102, stream), 10_000_000, 0.5,
                               mode_count)
    observed = np.bincount(draws)
    expected = nb_pmf(np.arange(observed.size + 40), 0.5,
                      mode_count) * draws.size
    # Pool the tail so every expected cell holds at least 10 counts.
    cut = int(np.searchsorted(np.cumsum(expected[::-1]), 10.0))
    head = min(expected.size - cut, observed.size)
    obs = np.concatenate([observed[:head], [draws.size - observed[:head].sum()]])
    exp = np.concatenate([expected[:head], [draws.size - expected[:head].sum()]])
    return float(stats.chisquare(obs, exp).pvalue)


def _doubles_ratio(stream: int, mode_count: int) -> float:
    """Empirical P(2) / P(1)^2 at pair_mean 0.02 over 5e7 draws."""
    cells = np.zeros(4, dtype=np.int64)
    for chunk in range(5):
        draws = sample_pair_counts(rng_stream(9103, (stream << 8) | chunk),
                                   10_000_000, 0.02, mode_count)
        cells += np.bincount(np.minimum(draws, 3), minlength=4)
    total = 5e7
    return (cells[2] / total) / (cells[1] / total) ** 2


def test_c02_pair_statistics(capsys):
    """Sampled pair numbers match the closed-form pmf, and the doubles
    ratio P(2)/P(1)^2 lands on G/2 = (1 + 1/M)/2 within 5%."""
    worst_p = 1.0
    worst_dev = 0.0
    for mode_count, stream in ((1, 0xB201), (2, 0xB202), (10, 0xB203),
                               (100, 0xB204)):
        worst_p = min(worst_p, _pair_gof_p(stream, mode_count))
        g_half = (1.0 + 1.0 / mode_count) / 2.0
        ratio = _doubles_ratio(stream, mode_count)
        worst_dev = max(worst_dev, abs(ratio / g_half - 1.0))
    ok = worst_p > 0.001 and worst_dev <= 0.05
    detail = (f"worst gof p {worst_p:.3f} (gate 0.001), worst ratio dev "
              f"{worst_dev:.4f} (gate 0.05), M in {{1,2,10,100}}")
    _line(capsys, 2, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 3. Heralded-g2 closure of the photon model
# ---------------------------------------------------------------------------

def test_c03_heralded_g2_closure(capsys):
    """Full pipeline g2 agrees with the leading-order prediction
    G * P(1) * (2 - eta_H) within 3 sigma, for one and many modes."""
    started = time.monotonic()
    zs = []
    for mode_count, seed in ((1, 9301), (100, 9302)):
        cfg = _photon_cfg(0.05, mode_count, 0.5, 0.5, 0.5, 10**8, 10**6, seed)
        estimate = heralded_g2(run_counts(cfg))
        predicted = predicted_heralded_g2(
            nb_pmf(1, 0.05, mode_count), 0.5, g_factor(mode_count))
        zs.append((estimate.value - predicted) / estimate.sigma)
    elapsed = time.monotonic() - started
    ok = max(abs(z) for z in zs) <= 3.0 and elapsed < 300.0
    detail = (f"z(M=1) {zs[0]:+.2f}, z(M=100) {zs[1]:+.2f} (gate 3.0), "
              f"1e8 bins, {elapsed:.1f}s")
    _line(capsys, 3, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 4. No power dependence in the photon model
# ---------------------------------------------------------------------------

def _sweep_fit(cfg: ExperimentConfig, target_triples: int) -> tuple[dict, int]:
    points = run_sweep(cfg, SweepPlan(attenuations=ATTENUATIONS,
                                      target_triples=target_triples))
    records = [report.point_record(with_attenuation(cfg, p.attenuation),
                                   p.counts) for p in points]
    rep = report.build_report(cfg, records)
    min_triples = min(r["counts"]["N_H12"] for r in records)
    return rep, min_triples


def test_c04_null_power_dependence(capsys):
    """Twenty seeded attenuation sweeps: the fitted slope of g2 against
    the corrected signal rate is consistent with zero.

    The slope window (|slope| <= 2 sigma) applies per repetition, in at
    least 18 of 20.  Reduced chi2 with 6 degrees of freedom falls inside
    [0.5, 1.5] only ~64% of the time even for a perfectly calibrated
    estimator, so that window cannot gate single repetitions; it is
    applied to the ensemble mean, where the pooled 120 degrees of freedom
    make [0.5, 1.5] a +-3.9 sigma window.
    """
    covered = 0
    chi2_reds = []
    fewest_triples = None
    for rep_index in range(20):
        cfg = _photon_cfg(0.05, 1, 0.5, 0.5, 0.5, 576 * 10**9, 24 * 10**6,
                          9400 + rep_index)
        rep, min_triples = _sweep_fit(cfg, 1000)
        fit = rep["fit"]
        covered += abs(fit["slope"]) <= 2.0 * fit["slope_sigma"]
        chi2_reds.append(fit["reduced_chi2"])
        fewest_triples = (min_triples if fewest_triples is None
                          else min(fewest_triples, min_triples))
    mean_chi2 = float(np.mean(chi2_reds))
    ok = covered >= 18 and 0.5 <= mean_chi2 <= 1.5 and fewest_triples >= 1000
    detail = (f"zero-slope cover {covered}/20 (gate 18), mean chi2_red "
              f"{mean_chi2:.3f} (gate [0.5, 1.5]), min triples/point "
              f"{fewest_triples}")
    _line(capsys, 4, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 5. Power dependence of the threshold-field model
# ---------------------------------------------------------------------------

def test_c05_threshold_model_contrast(capsys):
    """The same sweep under the threshold-crossing sampler at the
    half-click operating point: positive slope at >= 3 sigma, and every
    measured g2 stays below the singles-rate ceiling."""
    block = PCSFTConfig(threshold_energy=1.0, pulse_duration=BIN,
                        incident_power=2.0 * THETA_HALF / BIN, coupling=0.5,
                        envelope_modes=None)
    cfg = validate_config(ExperimentConfig(
        source=SourceConfig(0.0),
        optics=OpticsConfig(0.5, 1.0, 1.0, 1.0, 0.5),
        detectors=DetectorConfig(dark_rate_h=0.0, dark_rate_1=0.0,
                                 dark_rate_2=0.0),
        pcsft=block, theory=Theory.PCSFT,
        n_bins=10**11, segment_bins=10**6, seed=9501))
    points = run_sweep(cfg, SweepPlan(attenuations=ATTENUATIONS,
                                      target_triples=2000))
    records = [report.point_record(with_attenuation(cfg, p.attenuation),
                                   p.counts) for p in points]
    fit = report.build_report(cfg, records)["fit"]

    measured = all(not r["upper_limit"] and r["counts"]["N_H12"] >= 10
                   for r in records)
    bounded = all(r["g2"] <= r["pcsft_bound"] for r in records)
    slope_z = fit["slope"] / fit["slope_sigma"]
    ok = measured and bounded and slope_z >= 3.0
    detail = (f"slope {fit['slope']:.3e} s at {slope_z:.0f} sigma (gate 3), "
              f"ceiling respected at all 8 points: {bounded}")
    _line(capsys, 5, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 6. Counting oracle
# ---------------------------------------------------------------------------

def test_c06_counting_oracle(capsys):
    """accumulate() equals the naive per-bin oracle on a thousand
    randomized streams, and splitting then merging changes nothing."""
    mismatches = 0
    checked_bins = 0
    for case in range(1000):
        rng = rng_stream(9600, case)
        if case < 5:
            n_bins = (1, 7, 8, 9, 100_000)[case]
        else:
            n_bins = int(np.exp(rng.uniform(0.0, np.log(100_000.0))))
        checked_bins += n_bins
        rates = rng.choice([0.0, 0.003, 0.05, 0.3, 0.9, 1.0], size=3)
        h, s1, s2 = (rng.random(n_bins) < p for p in rates)
        streams = ClickStreams.from_bools(h, s1, s2, bin_width=BIN)

        counts = accumulate(streams,
                            segment_bins=int(rng.integers(1, n_bins + 14)))
        oracle = brute_force_counts(streams).totals()
        totals = counts.totals()
        mismatches += any(totals[f] != oracle[f] for f in COUNT_FIELDS)

        if n_bins <= 2000:
            # Per-segment rows against the oracle on each slice.
            offset = 0
            for row in counts.segments:
                piece = ClickStreams.from_bools(
                    h[offset:offset + row.n_bins],
                    s1[offset:offset + row.n_bins],
                    s2[offset:offset + row.n_bins], bin_width=BIN)
                sliced = brute_force_counts(piece).totals()
                mismatches += any(getattr(row, f) != sliced[f]
                                  for f in COUNT_FIELDS)
                offset += row.n_bins

        split = int(rng.integers(1, n_bins + 1)) if n_bins > 1 else 1
        left = ClickStreams.from_bools(h[:split], s1[:split], s2[:split],
                                       bin_width=BIN)
        rejoined = accumulate(left)
        if n_bins - split > 0:
            right = ClickStreams.from_bools(h[split:], s1[split:], s2[split:],
                                            bin_width=BIN)
            rejoined = merge(rejoined, accumulate(right))
        mismatches += any(rejoined.totals()[f] != totals[f]
                          for f in COUNT_FIELDS)
    ok = mismatches == 0
    detail = (f"{mismatches} mismatches over 1000 streams "
              f"({checked_bins} bins), split-merge exact")
    _line(capsys, 6, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 7. Efficiency recovery
# ---------------------------------------------------------------------------

def test_c07_efficiency_recovery(capsys):
    """Correlated-photon estimators recover the configured efficiencies
    (0.26 / 0.075 / 0.055) within 2 sigma at 1e7 bins."""
    cfg = _photon_cfg(0.005, 1, 0.26, 0.075, 0.055, 10**7, 10**6, 9701)
    counts = run_counts(cfg)
    (est_1, sig_1), (est_2, sig_2) = klyshko_efficiency(counts)
    est_h, sig_h = herald_efficiency(counts)
    share = cfg.optics.splitter_ratio  # klyshko sees detector x splitter
    zs = ((est_1 / share - 0.075) / (sig_1 / share),
          (est_2 / share - 0.055) / (sig_2 / share),
          (est_h - 0.26) / sig_h)
    ok = max(abs(z) for z in zs) <= 2.0
    detail = (f"z(eta_1) {zs[0]:+.2f}, z(eta_2) {zs[1]:+.2f}, "
              f"z(eta_H) {zs[2]:+.2f} (gate 2.0)")
    _line(capsys, 7, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 8. Fit recovery
# ---------------------------------------------------------------------------

def test_c08_fit_recovery(capsys):
    """Injected slope 2.4e-9 s and offset 0.00376 come back within
    2 sigma; zero-slope synthetic sweeps stay covered 18/20."""
    slope_true, intercept_true, sigma = 2.4e-9, 0.00376, 6e-4
    x = np.linspace(1.2e5, 1.15e6, 10)

    rng = rng_stream(9800, 2)
    y = slope_true * x + intercept_true + rng.normal(0.0, sigma, size=x.size)
    fit = weighted_linear_fit([(float(a), float(b), sigma)
                               for a, b in zip(x, y)])
    z_slope = (fit.slope - slope_true) / fit.slope_sigma
    z_intercept = (fit.intercept - intercept_true) / fit.intercept_sigma

    covered = 0
    for rep_index in range(20):
        rng = rng_stream(9800, 100 + rep_index)
        flat = intercept_true + rng.normal(0.0, sigma, size=x.size)
        null_fit = weighted_linear_fit([(float(a), float(b), sigma)
                                        for a, b in zip(x, flat)])
        covered += abs(null_fit.slope) <= 2.0 * null_fit.slope_sigma

    ok = abs(z_slope) <= 2.0 and abs(z_intercept) <= 2.0 and covered >= 18
    detail = (f"z(slope) {z_slope:+.2f}, z(offset) {z_intercept:+.2f} "
              f"(gate 2.0), zero-slope cover {covered}/20 (gate 18)")
    _line(capsys, 8, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 9. Bound arithmetic
# ---------------------------------------------------------------------------

def test_c09_bound_arithmetic(capsys):
    """Both ceiling calculators equal hand arithmetic bit-for-bit on ten
    parameter sets, including the documented cancellation cases."""
    energy_rows = (
        # (pulse, bin, pulse_energy, threshold) -> 2 (d/bin) (E/E_d)
        ((BIN, BIN, 1.0, 1.0), 2.0 * (BIN / BIN) * (1.0 / 1.0)),
        ((BIN, BIN, 0.5, 1.0), 2.0 * (BIN / BIN) * (0.5 / 1.0)),
        ((10e-9, 20e-9, 1.0, 1.0), 2.0 * (10e-9 / 20e-9) * (1.0 / 1.0)),
        ((10e-9, BIN, 0.01, 1.0), 2.0 * (10e-9 / BIN) * (0.01 / 1.0)),
        ((5e-9, BIN, 3.0, 2.0), 2.0 * (5e-9 / BIN) * (3.0 / 2.0)),
    )
    counts_rows = (
        # (pulse, bin, N_1, N_2, T) -> 2 d (d/bin) (N_1 + N_2) / T
        ((BIN, BIN, 0.0, 0.0, 1.0), 2.0 * BIN * (BIN / BIN) * (0.0 + 0.0) / 1.0),
        ((BIN, BIN, 5e5, 5e5, 1.0), 2.0 * BIN * (BIN / BIN) * (5e5 + 5e5) / 1.0),
        ((10e-9, BIN, 250e3, 150e3, 2.0),
         2.0 * 10e-9 * (10e-9 / BIN) * (250e3 + 150e3) / 2.0),
        ((BIN, BIN, 1e6, 1e6, 0.5), 2.0 * BIN * (BIN / BIN) * (1e6 + 1e6) / 0.5),
        ((1e-9, 2e-9, 3.0, 5.0, 4.0), 2.0 * 1e-9 * (1e-9 / 2e-9) * (3.0 + 5.0) / 4.0),
    )
    exact = sum(pcsft.bound_energy(*args) == hand for args, hand in energy_rows)
    exact += sum(pcsft.bound_counts(*args) == hand for args, hand in counts_rows)
    cancels = (pcsft.bound_energy(BIN, BIN, 1.0, 1.0) == 2.0
               and pcsft.bound_counts(BIN, BIN, 0.0, 0.0, 1.0) == 0.0)
    ok = exact == 10 and cancels
    detail = f"{exact}/10 rows bit-exact, cancellation cases exact: {cancels}"
    _line(capsys, 9, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

_RUN_INI = """\
[source]
pair_mean_per_bin = 0.2
mode_count = 1

[optics]
eta_h = 0.8
eta_1 = 0.7
eta_2 = 0.6
splitter_ratio = 0.5

[detectors]
dark_rate_h = 150
dark_rate_1 = 150
dark_rate_2 = 150
bin_width = 20.83e-9

[run]
theory = qm
n_bins = 20000
segment_bins = 5000
seed = 11
"""

_SWEEP_INI = """\
[sweep]
attenuations = 1.0, 0.6, 0.3
"""


def test_c10_determinism(capsys, tmp_path):
    """Repeating any command with the same seed reproduces every artifact
    byte for byte, whatever the worker count."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(_RUN_INI, encoding="utf-8")
    plan = tmp_path / "plan.ini"
    plan.write_text(_SWEEP_INI, encoding="utf-8")

    stable = True
    for args, out_dir in ((["simulate", "--config", str(cfg)], "sim"),
                          (["sweep", "--config", str(cfg), "--sweep",
                            str(plan)], "swp")):
        runs = []
        for suffix, extra in (("a", []), ("b", []), ("c", ["--threads", "3"])):
            out = tmp_path / f"{out_dir}_{suffix}"
            assert main(args + ["--out", str(out)] + extra) == 0
            runs.append(out)
        names = (("streams.pstm", "clicks.csv", "counts.csv", "counts.json")
                 if out_dir == "sim" else
                 ("report.json", "report.csv", "point_001.json",
                  "point_003.csv"))
        for name in names:
            blobs = {(run / name).read_bytes() for run in runs}
            stable = stable and len(blobs) == 1

    figure_a = tmp_path / "fig_a.svg"
    figure_b = tmp_path / "fig_b.svg"
    rep = tmp_path / "swp_a" / "report.json"
    assert main(["plot", "--report", str(rep), "--out", str(figure_a)]) == 0
    assert main(["plot", "--report", str(rep), "--out", str(figure_b)]) == 0
    stable = stable and figure_a.read_bytes() == figure_b.read_bytes()

    ok = stable
    detail = ("simulate, sweep (threads 1 and 3) and plot artifacts "
              "byte-identical on rerun")
    _line(capsys, 10, ok, detail)
    assert ok, detail
