"""Tests of the benchmark's own logic: calibration, spans and output checks.

Run with the package sources on the path, e.g.
``PYTHONPATH=src python -m pytest bench``.
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
from heraldsim import cli, coincidence, runner  # noqa: E402
from heraldsim.core import parse_config  # noqa: E402
from reference import R0_S, Timing, bracketed, quartiles  # noqa: E402
from spans import Span, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


# -- calibration -------------------------------------------------------------

def test_calibrated_time_scales_by_r0_over_mean_reference():
    timing = Timing(raw_s=2.0, ref_before_s=0.5 * R0_S, ref_after_s=1.5 * R0_S)
    assert timing.ref_s == pytest.approx(R0_S)
    assert timing.calibrated_s == pytest.approx(2.0)
    slow = Timing(raw_s=3.0, ref_before_s=2 * R0_S, ref_after_s=4 * R0_S)
    assert slow.scale == pytest.approx(1 / 3)
    assert slow.calibrated_s == pytest.approx(1.0)


def test_bracketed_runs_once_and_returns_result():
    calls = []
    timing, result = bracketed(lambda: calls.append(1) or "done")
    assert result == "done" and calls == [1]
    assert timing.raw_s >= 0.0 and timing.ref_before_s > 0.0
    assert timing.ref_after_s > 0.0


def test_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 5.0, 7.0, parent=0),
        Span("d", 5.5, 6.0, parent=2, counts={"rows": 3}),
        Span("d", 8.0, 9.0, parent=0, counts={"rows": 4}),
    ]
    totals = layer_totals(spans)
    assert totals["a"]["busy_s"] == pytest.approx(10.0)
    assert totals["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0)
    assert totals["c"]["self_s"] == pytest.approx(1.5)
    assert totals["d"]["calls"] == 2
    assert totals["d"]["busy_s"] == pytest.approx(1.5)
    assert totals["d"]["rows"] == 7


def test_layer_metrics_derive_rates_from_calibrated_busy_time():
    totals = {"qm.segment_clicks": {"calls": 4, "busy_s": 2.0, "self_s": 1.0,
                                    "bins": 1000},
              "qm.segment_cells": {"calls": 4, "busy_s": 2.0, "self_s": 2.0}}
    metrics = harness.layer_metrics(totals, scale=0.5)
    assert metrics["qm.segment_clicks.busy_s"] == pytest.approx(1.0)
    assert metrics["qm.segment_clicks.ns_per_bin"] == pytest.approx(1e6)
    assert metrics["qm.segment_cells.us_per_segment"] == pytest.approx(0.25e6)
    assert metrics["qm.segment_cells.calls"] == 4
    assert metrics["pcsft.segment_clicks.busy_s"] == 0.0


TINY_QM = """
[source]
pair_mean_per_bin = 0.05
[optics]
eta_h = 0.26
eta_1 = 0.075
eta_2 = 0.055
[run]
theory = qm
n_bins = 96000
segment_bins = 48000
seed = 3
"""


def test_tracer_patches_names_imported_by_name_and_restores_them():
    cfg = parse_config(TINY_QM)
    original = coincidence.counts_from_cells
    tracer = Tracer()
    with tracer.installed():
        assert runner.counts_from_cells is not original
        runner.run_counts(cfg)
    assert runner.counts_from_cells is original
    assert coincidence.counts_from_cells is original
    totals = layer_totals(tracer.spans)
    assert totals["runner.run_counts"]["calls"] == 1
    assert totals["qm.segment_cells"]["calls"] == 2
    assert totals["qm.segment_cells"]["bins"] == 96000
    assert totals["coincidence.counts_from_cells"]["calls"] == 2
    assert totals["core.rng_stream"]["calls"] == 2
    parents = {tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "qm.segment_cells"}
    assert parents == {"runner.run_counts"}


# -- output checks -----------------------------------------------------------

@pytest.fixture
def simulated(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(TINY_QM)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out, parse_config(TINY_QM)


def test_simulate_checks_pass_on_clean_output(simulated):
    out, cfg = simulated
    assert checks.check_simulate(out, cfg) == []


def test_flipped_stream_byte_fails_the_recount(simulated):
    out, cfg = simulated
    raw = bytearray((out / "streams.pstm").read_bytes())
    raw[-100] ^= 0x01
    (out / "streams.pstm").write_bytes(bytes(raw))
    failures = checks.check_simulate(out, cfg)
    assert failures and "recounts" in failures[0]


def test_edited_total_fails_the_recount(simulated):
    out, cfg = simulated
    payload = json.loads((out / "counts.json").read_text())
    payload["N_H"] += 1
    (out / "counts.json").write_text(json.dumps(payload))
    assert any("N_H" in f for f in checks.check_simulate(out, cfg))


def test_missing_click_row_fails(simulated):
    out, cfg = simulated
    lines = (out / "clicks.csv").read_text().splitlines(keepends=True)
    (out / "clicks.csv").write_text("".join(lines[:-1]))
    assert any("clicks.csv" in f for f in checks.check_simulate(out, cfg))


def test_changed_artifact_changes_digest(simulated):
    out, _ = simulated
    before = checks.digest(out)
    (out / "counts.csv").write_text("x")
    assert checks.digest(out) != before


def test_count_invariants():
    good = {"n_bins": 10, "N_H": 5, "N_1": 4, "N_2": 3, "N_H1": 2, "N_H2": 2,
            "N_12": 1, "N_H12": 1}
    assert checks.count_invariants(good, "x") == []
    assert checks.count_invariants({**good, "N_H12": 2}, "x")
    assert checks.count_invariants({**good, "N_H": 11}, "x")


SWEEP = Workload("tiny-sweep", "test", theory="qm", n_bins=480_000,
                 target_triples=5)


@pytest.fixture
def swept(tmp_path):
    inputs = SWEEP.write_inputs(4, tmp_path / "inputs")
    run_dir = tmp_path / "run"
    for argv in SWEEP.commands(inputs, run_dir):
        assert cli.main(argv) == 0
    return inputs, run_dir


def test_sweep_chain_checks_pass_on_clean_output(swept):
    inputs, run_dir = swept
    assert checks.check_sweep(run_dir / "sweep", inputs["plan"]) == []
    assert checks.check_report(run_dir / "analyze" / "report.json") == []
    assert checks.check_svg(run_dir / "figure.svg", "qm") == []
    assert SWEEP.bins_simulated(run_dir) == 4 * 480_000


def test_point_stopping_short_of_target_fails(swept):
    inputs, run_dir = swept
    path = run_dir / "sweep" / "point_002.json"
    payload = json.loads(path.read_text())
    payload["n_bins"] -= 48_000
    path.write_text(json.dumps(payload))
    failures = checks.check_sweep(run_dir / "sweep", inputs["plan"])
    assert any("point 2" in f and "target" in f for f in failures)


def test_point_total_disagreeing_with_its_rows_fails(swept):
    inputs, run_dir = swept
    path = run_dir / "sweep" / "point_003.json"
    payload = json.loads(path.read_text())
    payload["N_1"] += 1
    path.write_text(json.dumps(payload))
    failures = checks.check_sweep(run_dir / "sweep", inputs["plan"])
    assert any("point 3" in f and "N_1" in f for f in failures)


def test_report_without_fit_and_svg_without_ids_fail(swept):
    _, run_dir = swept
    report = run_dir / "analyze" / "report.json"
    payload = json.loads(report.read_text())
    payload["fit"] = None
    report.write_text(json.dumps(payload))
    assert checks.check_report(report)
    svg = run_dir / "figure.svg"
    svg.write_text(svg.read_text().replace('id="fit-line"', 'id="gone"'))
    assert any("fit-line" in f for f in checks.check_svg(svg, "qm"))


# -- declared metrics --------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (f"{layer}.{q}", harness.UNITS[q]) for layer, q in harness.PER_LAYER]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
