"""Report assembly, serialisation, and SVG rendering."""

import json
import xml.etree.ElementTree as ET

import pytest

from heraldsim import pcsft, svgplot
from heraldsim.analysis import (InsufficientStatistics, background_subtract,
                                corrected_rate, heralded_g2)
from heraldsim.core import (DetectorConfig, ExperimentConfig, OpticsConfig,
                            PCSFTConfig, SourceConfig, Theory,
                            validate_config)
from heraldsim.report import (REPORT_FORMAT, REPORT_VERSION, build_report,
                              point_record, write_report_csv,
                              write_report_json)
from heraldsim.svgplot import render_report, write_report_svg

from helpers import BIN, fail_after_first_write, make_counts


def photon_config(eta_h=0.26, attenuation=1.0) -> ExperimentConfig:
    return validate_config(ExperimentConfig(
        source=SourceConfig(0.02, 1),
        optics=OpticsConfig(eta_h, 0.075, 0.055, attenuation, 0.5),
        detectors=DetectorConfig(),
        theory=Theory.QM, n_bins=10**6, segment_bins=10**6, seed=3))


def field_config() -> ExperimentConfig:
    block = PCSFTConfig(threshold_energy=1.0, pulse_duration=BIN,
                        incident_power=1.0 / BIN)
    return validate_config(ExperimentConfig(
        source=SourceConfig(0.0),
        optics=OpticsConfig(0.5, 1.0, 1.0, 1.0, 0.5),
        detectors=DetectorConfig(),
        pcsft=block, theory=Theory.PCSFT,
        n_bins=10**6, segment_bins=10**6, seed=3))


def sample_points(cfg) -> list[dict]:
    """Three synthetic sweep points with distinct rates and triples."""
    variants = [
        make_counts(N_H=10**5, N_1=4000, N_2=3600, N_H1=4000, N_H2=3600,
                    N_12=150, N_H12=20),
        make_counts(N_H=10**5, N_1=2400, N_2=2200, N_H1=2400, N_H2=2200,
                    N_12=60, N_H12=8),
        make_counts(N_H=10**5, N_1=1000, N_2=900, N_H1=1000, N_H2=900,
                    N_12=12, N_H12=2),
    ]
    return [point_record(cfg, counts) for counts in variants]


class TestPointRecord:
    def test_raw_only_record(self):
        cfg = photon_config(attenuation=0.8)
        counts = make_counts(N_H=10**5, N_1=4000, N_2=3600, N_H1=4000,
                             N_H2=3600, N_12=150, N_H12=20)
        record = point_record(cfg, counts)
        raw = heralded_g2(counts)
        assert record["attenuation"] == 0.8
        assert record["n_bins"] == counts.n_bins
        assert record["duration"] == counts.duration
        assert record["counts"] == counts.totals()
        assert record["g2"] == record["g2_raw"] == raw.value
        assert record["sigma"] == record["sigma_raw"] == raw.sigma
        assert not record["upper_limit"]
        assert not record["background_subtracted"]
        assert record["x_rate"] == corrected_rate(counts, cfg.optics)
        assert "pcsft_bound" not in record
        assert "counts_corrected" not in record

    def test_zero_triples_marks_upper_limit(self):
        record = point_record(photon_config(),
                              make_counts(N_H=10**5, N_H1=400, N_H2=300))
        assert record["g2"] == 0.0
        assert record["upper_limit"]
        assert record["sigma"] > 0.0

    def test_corrected_counts_are_floats_over_integer_bins(self):
        signal = make_counts(n_bins=1000, N_H=280, N_1=100, N_2=100,
                             N_H1=50, N_H2=50, N_12=20, N_H12=10)
        background = make_counts(n_bins=1000, N_H=250, N_1=30, N_2=20)
        record = point_record(photon_config(), signal, background=background)
        corrected = record["counts_corrected"]
        assert type(corrected.pop("n_bins")) is int
        assert set(corrected) == {"N_H", "N_1", "N_2", "N_H1", "N_H2",
                                  "N_12", "N_H12"}
        assert all(type(v) is float for v in corrected.values())
        assert all(type(v) is int for v in record["counts"].values())
        # The corrected herald count is n - (n - N_H) / (1 - p_noise).
        assert corrected["N_H"] == pytest.approx(1000 - 720 / 0.75, rel=1e-12)
        json.dumps(record)

    def test_background_changes_headline_not_sigma(self):
        cfg = photon_config()
        signal = make_counts(n_bins=1000, N_H=280, N_1=100, N_2=100,
                             N_H1=50, N_H2=50, N_12=20, N_H12=10)
        background = make_counts(n_bins=1000, N_H=250)
        record = point_record(cfg, signal, background=background)
        corrected, clamped = background_subtract(signal, background)
        expected = heralded_g2(corrected)
        assert record["background_subtracted"]
        assert record["g2"] == expected.value
        assert record["g2"] != record["g2_raw"]
        assert record["sigma"] == record["sigma_raw"]
        assert record["clamped_fields"] == list(clamped)
        assert record["counts_corrected"]["N_H"] == pytest.approx(40.0)
        assert corrected.duration == signal.duration
        assert record["x_rate"] == corrected_rate(corrected, cfg.optics)

    def test_emptied_denominator_falls_back_to_raw(self):
        cfg = photon_config()
        # A run identical to its own background corrects to zero counts.
        noise = make_counts(n_bins=4096, N_H=1024, N_1=2048, N_2=1024,
                            N_H1=512, N_H2=256, N_12=512, N_H12=128)
        record = point_record(cfg, noise, background=noise)
        assert "correction_note" in record
        assert record["g2"] == record["g2_raw"]
        assert record["x_rate"] == corrected_rate(noise, cfg.optics)

    def test_field_theory_attaches_counts_bound(self):
        cfg = field_config()
        counts = make_counts(N_H=10**5, N_1=4000, N_2=3600, N_H1=4000,
                             N_H2=3600, N_12=150, N_H12=20)
        record = point_record(cfg, counts)
        assert record["pcsft_bound"] == pcsft.bound_counts(
            BIN, BIN, counts.N_1, counts.N_2, counts.duration)

    def test_zero_denominator_propagates(self):
        with pytest.raises(InsufficientStatistics):
            point_record(photon_config(), make_counts(N_H=10**5))


class TestBuildReport:
    def test_structure_and_fit(self):
        cfg = photon_config()
        records = sample_points(cfg)
        report = build_report(cfg, records)
        assert report["format"] == REPORT_FORMAT == "g2-report"
        assert report["version"] == REPORT_VERSION == 1
        assert report["theory"] == "qm"
        assert report["points"] == records
        assert report["fit_note"] is None
        fit = report["fit"]
        assert set(fit) == {"slope", "intercept", "slope_sigma",
                            "intercept_sigma", "covariance", "reduced_chi2",
                            "dof"}
        assert fit["dof"] == 1

    def test_upper_limit_points_noted_in_fit(self):
        cfg = photon_config()
        records = [point_record(cfg, make_counts(N_H=10**5, N_1=1000 * k,
                                                 N_2=900 * k, N_H1=400 * k,
                                                 N_H2=300 * k))
                   for k in range(1, 5)]
        report = build_report(cfg, records)
        assert report["fit"] is not None
        assert report["fit_note"] == ("4 of 4 fitted points are one-count "
                                      "upper limits (no triples)")

    def test_band_is_flat_with_ratio_two(self):
        cfg = photon_config()
        report = build_report(cfg, sample_points(cfg))
        band = report["qm_band"]
        assert [b["x"] for b in band] == [r["x_rate"]
                                          for r in report["points"]]
        lowers = {b["lower"] for b in band}
        uppers = {b["upper"] for b in band}
        assert len(lowers) == len(uppers) == 1
        assert band[0]["upper"] == 2.0 * band[0]["lower"]

    def test_dead_herald_suppresses_band(self):
        cfg = photon_config(eta_h=0.0)
        records = [{"x_rate": float(i + 1), "g2": 0.1, "sigma": 0.01}
                   for i in range(3)]
        assert build_report(cfg, records)["qm_band"] == []

    def test_too_few_points_noted(self):
        cfg = photon_config()
        records = [{"x_rate": 1.0, "g2": 0.1, "sigma": 0.01}]
        report = build_report(cfg, records)
        assert report["fit"] is None
        assert "insufficient points" in report["fit_note"]

    def test_degenerate_abscissa_noted(self):
        cfg = photon_config()
        records = [{"x_rate": 2.0, "g2": 0.1 * i, "sigma": 0.01}
                   for i in range(4)]
        report = build_report(cfg, records)
        assert report["fit"] is None
        assert report["fit_note"].startswith("fit skipped:")

    def test_fit_recovers_synthetic_line(self):
        cfg = photon_config()
        records = [{"x_rate": x, "g2": 3e-9 * x + 0.02, "sigma": 0.005}
                   for x in (1e5, 3e5, 5e5, 7e5)]
        fit = build_report(cfg, records)["fit"]
        assert fit["slope"] == pytest.approx(3e-9, rel=1e-9)
        assert fit["intercept"] == pytest.approx(0.02, rel=1e-9)


class TestSerialisation:
    def test_json_round_trip(self, tmp_path):
        cfg = photon_config()
        report = build_report(cfg, sample_points(cfg))
        path = tmp_path / "report.json"
        write_report_json(report, path)
        assert json.loads(path.read_text(encoding="utf-8")) == report
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_json_bytes_deterministic(self, tmp_path):
        cfg = photon_config()
        report = build_report(cfg, sample_points(cfg))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(report, a)
        write_report_json(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        cfg = photon_config()
        report = build_report(cfg, sample_points(cfg))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("attenuation,x_rate,g2,sigma,upper_limit,"
                            "g2_raw,sigma_raw,band_lower,band_upper,"
                            "pcsft_bound")
        assert len(lines) == 1 + len(report["points"])
        first = lines[1].split(",")
        assert first[0] == repr(report["points"][0]["attenuation"])
        assert first[1] == repr(report["points"][0]["x_rate"])
        assert first[4] == "0"  # boolean rendered as 0/1
        assert first[7] == repr(report["qm_band"][0]["lower"])
        assert first[9] == ""  # photon run carries no field-model bound

    def test_csv_without_band_leaves_its_columns_blank(self, tmp_path):
        # A dead herald has no photon-model band, so qm_band is empty.
        cfg = photon_config(eta_h=0.0)
        report = build_report(cfg, sample_points(cfg))
        assert report["qm_band"] == []
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(report["points"])
        for line, record in zip(lines[1:], report["points"]):
            row = line.split(",")
            assert len(row) == 10
            assert row[7] == row[8] == ""
            assert row[2] == repr(record["g2"])

    def test_csv_carries_field_bound(self, tmp_path):
        cfg = field_config()
        report = build_report(cfg, sample_points(cfg))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        first = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert first[9] == repr(report["points"][0]["pcsft_bound"])


class TestAtomicWrites:
    """Each report file is renamed into place only once it is complete."""

    WRITERS = [write_report_json, write_report_csv, write_report_svg]

    @staticmethod
    def report() -> dict:
        cfg = photon_config()
        return build_report(cfg, sample_points(cfg))

    @pytest.mark.parametrize("write", WRITERS)
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, write):
        fail_after_first_write(monkeypatch)
        with pytest.raises(OSError, match="first write"):
            write(self.report(), tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", WRITERS)
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch,
                                                  write):
        path = tmp_path / "out"
        write(self.report(), path)
        before = path.read_bytes()
        fail_after_first_write(monkeypatch)
        with pytest.raises(OSError, match="first write"):
            write(self.report(), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_failing_json_dump_leaves_no_partial_report(self, tmp_path,
                                                        monkeypatch):
        def dumps_fails(obj, **kwargs):
            raise RuntimeError("dumps failed")

        monkeypatch.setattr(json, "dumps", dumps_fails)
        with pytest.raises(RuntimeError, match="dumps failed"):
            write_report_json(self.report(), tmp_path / "report.json")
        assert list(tmp_path.iterdir()) == []

    def test_failing_renderer_leaves_no_figure(self, tmp_path, monkeypatch):
        def render_fails(report):
            raise RuntimeError("render failed")

        monkeypatch.setattr(svgplot, "render_report", render_fails)
        with pytest.raises(RuntimeError, match="render failed"):
            write_report_svg(self.report(), tmp_path / "figure.svg")
        assert list(tmp_path.iterdir()) == []


def svg_ids(svg: str) -> set:
    root = ET.fromstring(svg)
    return {el.get("id") for el in root.iter() if el.get("id")}


class TestSvg:
    def test_photon_report_elements(self):
        cfg = photon_config()
        svg = render_report(build_report(cfg, sample_points(cfg)))
        ids = svg_ids(svg)
        assert {"axis-x", "axis-y", "qm-band", "fit-line",
                "points-raw"} <= ids
        assert "points-corrected" not in ids
        assert "bounds-pcsft" not in ids

    def test_field_report_shows_bound_ticks(self):
        cfg = field_config()
        svg = render_report(build_report(cfg, sample_points(cfg)))
        assert "bounds-pcsft" in svg_ids(svg)

    def test_corrected_markers_appear_with_background(self):
        cfg = photon_config()
        signal = make_counts(n_bins=100_000, N_H=28_000, N_1=10_000,
                             N_2=10_000, N_H1=5000, N_H2=5000, N_12=2000,
                             N_H12=1000)
        background = make_counts(n_bins=100_000, N_H=25_000)
        records = [point_record(cfg, signal, background=background)
                   for _ in range(3)]
        for i, record in enumerate(records):
            record["x_rate"] = record["x_rate"] * (1.0 + i)
        svg = render_report(build_report(cfg, records))
        assert "points-corrected" in svg_ids(svg)

    def test_deterministic_output(self):
        cfg = photon_config()
        report = build_report(cfg, sample_points(cfg))
        assert render_report(report) == render_report(report)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="points"):
            render_report({"points": [], "qm_band": [], "fit": None})

    def test_write_matches_render(self, tmp_path):
        cfg = photon_config()
        report = build_report(cfg, sample_points(cfg))
        path = tmp_path / "figure.svg"
        write_report_svg(report, path)
        assert path.read_text(encoding="utf-8") == render_report(report)
