"""End-to-end command line flows and exit codes."""

import json
import math
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import pytest

from heraldsim import cli, coincidence, pcsft, qm, runner, streams
from heraldsim.cli import main
from heraldsim.coincidence import (accumulate, read_counts_json,
                                   read_segment_csv, write_counts_json,
                                   write_segment_csv)
from heraldsim.core import config_from_dict, config_to_dict, load_config
from heraldsim.runner import run_counts, simulate_run
from heraldsim.streams import write_sparse_csv, write_streams

from helpers import bools

RUN_INI = """\
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

BACKGROUND_INI = RUN_INI.replace("pair_mean_per_bin = 0.2",
                                 "pair_mean_per_bin = 0.0")

SWEEP_INI = """\
[sweep]
attenuations = 1.0, 0.6, 0.3
"""

# How a JSON file that starts with the bytes ff fe 00 fails to decode.
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
# A JSON string that the malformed counts files replace with a 5 001-digit
# integer literal, which json.dumps cannot write.
HUGE = "<5001 digits>"


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a sweep point ran")


def write_inputs(root, run_ini=RUN_INI):
    cfg = root / "run.ini"
    cfg.write_text(run_ini, encoding="utf-8")
    plan = root / "plan.ini"
    plan.write_text(SWEEP_INI, encoding="utf-8")
    return cfg, plan


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg, plan = write_inputs(root)
    out = root / "out"
    assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def background_json(tmp_path_factory):
    root = tmp_path_factory.mktemp("background")
    cfg = root / "off.ini"
    cfg.write_text(BACKGROUND_INI, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(root / "out")]) == 0
    return root / "out" / "counts.json"


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        cfg, _ = write_inputs(tmp_path)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        for name in ("streams.pstm", "clicks.csv", "counts.csv",
                     "counts.json"):
            assert (tmp_path / "out" / name).exists()
        out = capsys.readouterr().out
        assert "simulated 20000 bins" in out
        assert "N_H=" in out

    def test_counts_json_echoes_configuration(self, tmp_path):
        cfg_path, _ = write_inputs(tmp_path)
        main(["simulate", "--config", str(cfg_path),
              "--out", str(tmp_path / "out")])
        counts, cfg_dict = read_counts_json(tmp_path / "out" / "counts.json")
        assert counts.n_bins == 20_000
        assert config_from_dict(cfg_dict) == load_config(cfg_path)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg, _ = write_inputs(tmp_path)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "c"),
              "--threads", "3"])
        for name in ("streams.pstm", "clicks.csv", "counts.csv",
                     "counts.json"):
            reference = (tmp_path / "a" / name).read_bytes()
            assert (tmp_path / "b" / name).read_bytes() == reference
            assert (tmp_path / "c" / name).read_bytes() == reference

    def test_seed_override_changes_results(self, tmp_path):
        cfg, _ = write_inputs(tmp_path)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--seed", "12"])
        assert ((tmp_path / "a" / "streams.pstm").read_bytes()
                != (tmp_path / "b" / "streams.pstm").read_bytes())

    def test_bins_override(self, tmp_path):
        cfg, _ = write_inputs(tmp_path)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--bins", "7000"])
        counts, _ = read_counts_json(tmp_path / "out" / "counts.json")
        assert counts.n_bins == 7000
        per_segment = read_segment_csv(tmp_path / "out" / "counts.csv",
                                       bin_width=counts.bin_width)
        assert [s.n_bins for s in per_segment.segments] == [5000, 2000]

    def test_bad_bins_is_usage_error(self, tmp_path, capsys):
        cfg, _ = write_inputs(tmp_path)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--bins", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "missing file" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"\xff")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: not UTF-8: {NOT_UTF8}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    # Each INI edit, the extra arguments, and the line naming the field.
    REJECTED_RUNS = {
        "n-bins-beyond-int64": (
            ("n_bins = 20000", "n_bins = 100000000000000000000"), [],
            "run.n_bins must be at most 2**63 - 1, got 100000000000000000000"),
        "bins-beyond-int64": (
            ("", ""), ["--bins", "100000000000000000000"],
            "run.n_bins must be at most 2**63 - 1, got 100000000000000000000"),
        "infinite-pair-mean": (
            ("pair_mean_per_bin = 0.2", "pair_mean_per_bin = inf"), [],
            "source.pair_mean_per_bin must be finite and >= 0, got inf"),
        "infinite-bin-width": (
            ("bin_width = 20.83e-9", "bin_width = inf"), [],
            "detectors.bin_width must be finite and > 0, got inf"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED_RUNS))
    def test_rejected_run_names_the_field_and_writes_nothing(
            self, tmp_path, capsys, case):
        (old, new), extra, message = self.REJECTED_RUNS[case]
        cfg, _ = write_inputs(tmp_path, RUN_INI.replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.endswith(f"{message}\n")
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_config_names_the_field(self, tmp_path, capsys):
        cfg, _ = write_inputs(tmp_path, RUN_INI.replace(
            "splitter_ratio = 0.5", "splitter_ratio = 0.5\nattenuation = 1.5"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "attenuation" in err


PCSFT_BLOCK = """
[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = 7.3e7
"""

STREAMED_MODELS = {
    "qm": RUN_INI,
    "pcsft": RUN_INI.replace("theory = qm", "theory = pcsft") + PCSFT_BLOCK
    + "coupling = 0.5\n",
    "pcsft-envelope": RUN_INI.replace("theory = qm", "theory = pcsft")
    + PCSFT_BLOCK + "coupling = 0.0\nenvelope_modes = 4\n",
}


# The qm source at three pairs per bin: the herald clicks in most bins,
# and all three detectors at once in more bins than any other pattern.
DENSE_INI = RUN_INI.replace("pair_mean_per_bin = 0.2",
                            "pair_mean_per_bin = 3").replace(
    "eta_h = 0.8", "eta_h = 0.9")
# At twenty pairs per bin each detector is silent in fewer than one bin in
# six, so few of its bins are flipped from the all-click fill.
SATURATED_INI = DENSE_INI.replace("pair_mean_per_bin = 3",
                                  "pair_mean_per_bin = 20")


def in_memory_artifacts(cfg_path, out):
    """The four simulate artifacts from the whole run held in memory.

    clicks.csv comes from a per-bin scan of the unpacked streams.
    """
    cfg = load_config(cfg_path)
    streams = simulate_run(cfg)
    counts = accumulate(streams, segment_bins=cfg.segment_bins)
    out.mkdir()
    write_streams(streams, out / "streams.pstm")
    write_segment_csv(counts, out / "counts.csv")
    write_counts_json(counts, out / "counts.json", config=config_to_dict(cfg))
    rows = [f"{name},{i}" for name, bits in zip(("H", "1", "2"),
                                                  bools(streams))
            for i in range(cfg.n_bins) if bits[i]]
    (out / "clicks.csv").write_text("\n".join(["channel,bin_index"] + rows)
                                    + "\n")


class TestStreamedSimulate:
    """simulate writes and counts segment by segment."""

    @pytest.mark.parametrize("model", sorted(STREAMED_MODELS))
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n_bins, segment_bins",
                             [(1, 1), (7, 3), (1000, 8), (1001, 48),
                              (10_007, 999)])
    def test_artifacts_match_in_memory_run(self, tmp_path, model, threads,
                                           n_bins, segment_bins):
        ini = STREAMED_MODELS[model].replace(
            "n_bins = 20000", f"n_bins = {n_bins}").replace(
            "segment_bins = 5000", f"segment_bins = {segment_bins}")
        cfg, _ = write_inputs(tmp_path, ini)
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "streamed"), "--threads",
                     str(threads)]) == 0
        in_memory_artifacts(cfg, tmp_path / "memory")
        for name in ("streams.pstm", "clicks.csv", "counts.csv",
                     "counts.json"):
            assert ((tmp_path / "streamed" / name).read_bytes()
                    == (tmp_path / "memory" / name).read_bytes()), name

    @pytest.mark.parametrize("model,attenuation", [
        ("qm", 1.0), ("pcsft", 1.0), ("pcsft", 0.5), ("pcsft-envelope", 1.0)],
        ids=["qm", "pcsft-adds-coincidences", "pcsft-removes-coincidences",
             "pcsft-envelope"])
    def test_counts_are_the_census_table(self, tmp_path, model, attenuation):
        # Each segment's clicks are its census placed, so simulate's
        # counts.csv is the census route's table byte for byte: here with
        # noise on every channel, uneven segments, and a pcsft coupled
        # coincidence rate above and below f1 * f2.
        ini = STREAMED_MODELS[model].replace(
            "coupling = 0.5", "coupling = 1.0").replace(
            "splitter_ratio = 0.5", f"splitter_ratio = 0.5\nattenuation = {attenuation}")
        for channel, rate in (("h", "1e5"), ("1", "2e5"), ("2", "3e5")):
            ini = ini.replace(f"dark_rate_{channel} = 150", f"dark_rate_{channel} = {rate}")
        ini = ini.replace("segment_bins = 5000", "segment_bins = 4999")
        cfg, _ = write_inputs(tmp_path, ini)
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
        write_segment_csv(run_counts(load_config(cfg)), tmp_path / "census.csv")
        assert ((tmp_path / "out" / "counts.csv").read_bytes()
                == (tmp_path / "census.csv").read_bytes())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_segment_leaves_no_stream_file(self, tmp_path,
                                                  monkeypatch, threads):
        # A 16-click buffer has formatted rows of every channel into the
        # temporary clicks.csv and its spill files by segment 2.
        monkeypatch.setattr(streams, "_CLICK_BUFFER", 16)
        sample = qm.segment_cells

        def fail_on_segment_2(cfg, index, **kwargs):
            if index == 2:
                raise RuntimeError("sampler failed on segment 2")
            return sample(cfg, index, **kwargs)

        monkeypatch.setattr(qm, "segment_cells", fail_on_segment_2)
        cfg, _ = write_inputs(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="segment 2"):
            main(["simulate", "--config", str(cfg), "--out", str(out),
                  "--threads", str(threads)])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("model", sorted(STREAMED_MODELS))
    @pytest.mark.parametrize("segment_bins", [1001, 48_000])
    def test_segment_longer_than_run_is_one_segment(self, tmp_path, model,
                                                    segment_bins):
        # segment_bins is the most bins a segment holds, so a 1000-bin run
        # is one segment whatever larger value it names.
        def simulate(size):
            root = tmp_path / str(size)
            root.mkdir()
            cfg, _ = write_inputs(root, STREAMED_MODELS[model].replace(
                "n_bins = 20000", "n_bins = 1000").replace(
                "segment_bins = 5000", f"segment_bins = {size}"))
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(root / "out")]) == 0
            return root / "out"
        fitted, longer = simulate(1000), simulate(segment_bins)
        for name in ("streams.pstm", "clicks.csv", "counts.csv"):
            assert ((fitted / name).read_bytes()
                    == (longer / name).read_bytes()), name

    @pytest.mark.parametrize("model, n_bins, segment_bins", [
        ("qm", 20_000, 5000),
        ("qm", 100_003, 4801),
        ("pcsft", 100_003, 4801),
        ("pcsft-envelope", 20_000, 5000),
        ("dense", 1_000_003, 4801),
        ("saturated", 100_003, 4801),
    ], ids=["qm", "qm-unaligned-short-last", "pcsft-unaligned-short-last",
            "pcsft-envelope", "dense", "saturated"])
    def test_clicks_csv_is_the_rows_of_its_streams(self, tmp_path, model,
                                                   n_bins, segment_bins):
        # clicks.csv is written from the placed clicks, without reading
        # streams.pstm back; it must be write_sparse_csv of that container
        # byte for byte.  In the dense run the herald clicks in most bins,
        # and the pattern that fills each segment is all three clicking,
        # so every channel's rows are the complement of its placed flips.
        models = {**STREAMED_MODELS, "dense": DENSE_INI,
                  "saturated": SATURATED_INI}
        ini = models[model].replace(
            "n_bins = 20000", f"n_bins = {n_bins}").replace(
            "segment_bins = 5000", f"segment_bins = {segment_bins}")
        cfg, _ = write_inputs(tmp_path, ini)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # pair means > 0.2
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(out)]) == 0
        write_sparse_csv(out / "streams.pstm", tmp_path / "scanned.csv")
        assert ((out / "clicks.csv").read_bytes()
                == (tmp_path / "scanned.csv").read_bytes())
        totals = json.loads((out / "counts.json").read_text())
        if model == "dense":
            assert totals["N_H"] > n_bins // 2
        if model == "saturated":
            assert min(totals[k] for k in ("N_H", "N_1", "N_2")) > 5 * n_bins // 6

    def test_segments_are_written_in_blocks(self, tmp_path, monkeypatch):
        # 625 segments of 4 800 bins at the README's rates go to the
        # writers in blocks of the placement budget, not one by one.
        appended = []  # each block's bins and bytes of bitmaps and clicks
        append = streams.StreamWriter.append
        append_clicks = streams.SparseCsvWriter.append

        def logged(writer, part):
            appended.append([part.n_bins, 3 * part.herald.nbytes])
            append(writer, part)

        def logged_clicks(writer, offset, channels):
            appended[-1][1] += sum(bins.nbytes for bins in channels)
            append_clicks(writer, offset, channels)

        monkeypatch.setattr(streams.StreamWriter, "append", logged)
        monkeypatch.setattr(streams.SparseCsvWriter, "append", logged_clicks)
        ini = (RUN_INI.replace("pair_mean_per_bin = 0.2",
                               "pair_mean_per_bin = 0.05")
               .replace("eta_h = 0.8", "eta_h = 0.26")
               .replace("eta_1 = 0.7", "eta_1 = 0.075")
               .replace("eta_2 = 0.6", "eta_2 = 0.055")
               .replace("n_bins = 20000", "n_bins = 3000000")
               .replace("segment_bins = 5000", "segment_bins = 4800"))
        cfg, _ = write_inputs(tmp_path, ini)
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
        budget = coincidence._BLOCK_BYTES
        assert sum(n_bins for n_bins, _ in appended) == 3_000_000
        assert all(held <= budget for n_bins, held in appended
                   if n_bins > 4800)
        # Blocks are filled greedily, so two in a row always exceed the
        # budget: at most twice the bytes counted over the budget, plus
        # one.  No segment here places one bin in six, so none scans, and
        # each counts 11 bytes per placed bin, each of which clicks, 8 per
        # click and 3 per 8 bins.
        totals = json.loads((tmp_path / "out" / "counts.json").read_text())
        clicks = totals["N_H"] + totals["N_1"] + totals["N_2"]
        counted = 19 * clicks + 3 * 3_000_000 // 8
        assert 1 < len(appended) <= 2 * counted // budget + 1
        assert len(appended) < math.ceil(3_000_000 / 4800) / 10

    def test_memory_does_not_grow_past_the_click_buffer(self, tmp_path):
        # Every channel clicks more than the writer buffers in both runs.
        cfg, _ = write_inputs(tmp_path, RUN_INI.replace(
            "segment_bins = 5000", "segment_bins = 48000"))

        def peak_bytes(bins: int) -> int:
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", str(cfg), "--out",
                             str(tmp_path / "out"), "--bins", str(bins)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(400_000)  # warm-up: imports, caches, first allocations
        small = peak_bytes(400_000)
        totals = json.loads((tmp_path / "out" / "counts.json").read_text())
        assert min(totals[k] for k in ("N_H", "N_1", "N_2")) > streams._CLICK_BUFFER
        large = peak_bytes(3_200_000)
        assert large - small < 1 << 18, (small, large)

    def test_memory_does_not_grow_with_bins(self, tmp_path):
        cfg, _ = write_inputs(tmp_path, RUN_INI.replace(
            "pair_mean_per_bin = 0.2", "pair_mean_per_bin = 0.01").replace(
            "n_bins = 20000", "n_bins = 4000000").replace(
            "segment_bins = 5000", "segment_bins = 48000"))

        def peak_bytes(bins: int) -> int:
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", str(cfg), "--out",
                             str(tmp_path / "out"), "--bins", str(bins)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(400_000)  # warm-up: imports, caches, first allocations
        small = peak_bytes(400_000)
        large = peak_bytes(4_000_000)
        assert large - small < 1 << 20, (small, large)


class TestThreadsOption:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys,
                                              command, threads):
        cfg, plan = write_inputs(tmp_path)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--threads", threads]
        if command == "sweep":
            argv += ["--sweep", str(plan)]
        assert main(argv) == 2
        assert (f"error: --threads must be >= 1, got {threads}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_runs_start_no_thread_whatever_threads_says(self, tmp_path,
                                                        monkeypatch):
        # Every run makes its segments in order on the calling thread, so
        # --threads 3 starts no thread and writes the bytes of --threads 1.
        def no_thread(self):
            raise AssertionError(f"thread started: {self!r}")

        for model, ini in sorted(STREAMED_MODELS.items()):
            cfg, plan = write_inputs(tmp_path, ini)
            written = {}
            for threads in ("1", "3"):
                monkeypatch.setattr(threading.Thread, "start", no_thread)
                out = tmp_path / f"{model}-{threads}"
                assert main(["simulate", "--config", str(cfg), "--out",
                             str(out / "simulate"), "--threads", threads]) == 0
                assert main(["sweep", "--config", str(cfg), "--sweep",
                             str(plan), "--out", str(out / "sweep"),
                             "--threads", threads]) == 0
                monkeypatch.undo()
                written[threads] = {path.relative_to(out): path.read_bytes()
                                    for path in sorted(out.rglob("*"))
                                    if path.is_file()}
            assert len(written["1"]) == 4 + 2 * 3 + 2, model
            assert written["3"] == written["1"], model


class TestSweep:
    def test_writes_per_point_and_report_files(self, sweep_out):
        for index in (1, 2, 3):
            assert (sweep_out / f"point_{index:03d}.csv").exists()
            assert (sweep_out / f"point_{index:03d}.json").exists()
        report = json.loads((sweep_out / "report.json").read_text())
        assert len(report["points"]) == 3
        assert report["fit"] is not None
        assert (sweep_out / "report.csv").exists()

    def test_points_carry_their_attenuation(self, sweep_out):
        report = json.loads((sweep_out / "report.json").read_text())
        assert [p["attenuation"] for p in report["points"]] == [1.0, 0.6, 0.3]
        _, cfg_dict = read_counts_json(sweep_out / "point_002.json")
        assert config_from_dict(cfg_dict).optics.attenuation == 0.6

    def test_rerun_is_byte_identical(self, sweep_out, tmp_path):
        cfg, plan = write_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(out), "--threads", "2"]) == 0
        for name in ("report.json", "report.csv", "point_001.json",
                     "point_003.csv"):
            assert (out / name).read_bytes() == \
                (sweep_out / name).read_bytes()

    def test_plan_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg, plan = write_inputs(tmp_path)
        plan.write_bytes(b"\xff")
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {plan}: not UTF-8: {NOT_UTF8}\n")
        assert sorted(tmp_path.iterdir()) == [plan, cfg]

    def test_plan_with_another_section_is_named(self, tmp_path, capsys):
        cfg, plan = write_inputs(tmp_path)
        plan.write_text(SWEEP_INI + "[source]\npair_mean_per_bin = 0.2\n",
                        encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {plan}: unknown section [source]\n")
        assert sorted(tmp_path.iterdir()) == [plan, cfg]

    def test_bins_beyond_int64_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "run_counts", refuse_to_run)
        cfg, plan = write_inputs(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(tmp_path / "out"),
                     "--bins", str(10**20)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: sweep max_bins must be at most 2**63 - 1, "
            f"got {10**20}\n")
        assert sorted(tmp_path.iterdir()) == [plan, cfg]

    def test_background_subtraction_applies(self, tmp_path, background_json,
                                            capsys):
        cfg, plan = write_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(out), "--background",
                     str(background_json)]) == 0
        report = json.loads((out / "report.json").read_text())
        for point in report["points"]:
            assert point["background_subtracted"]
            assert "counts_corrected" in point

    def test_failed_points_are_named_and_the_report_still_written(
            self, tmp_path, capsys):
        quiet = BACKGROUND_INI
        for channel in ("h", "1", "2"):
            quiet = quiet.replace(f"dark_rate_{channel} = 150",
                                  f"dark_rate_{channel} = 0")
        cfg, plan = write_inputs(tmp_path, quiet)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            "point 1 (attenuation 1.0)", "point 2 (attenuation 0.6)",
            "point 3 (attenuation 0.3)"]
        report = json.loads((out / "report.json").read_text())
        assert report["points"] == []
        assert (out / "point_003.json").exists()

    @pytest.mark.parametrize("eta, value", [("eta_1", "0.7"), ("eta_2", "0.6")],
                             ids=["eta_1", "eta_2"])
    def test_dead_signal_arm_is_refused_before_any_point(
            self, tmp_path, capsys, monkeypatch, eta, value):
        # The report's corrected rate divides by both signal efficiencies.
        cfg, plan = write_inputs(tmp_path, RUN_INI.replace(
            f"{eta} = {value}", f"{eta} = 0.0"))
        monkeypatch.setattr(runner, "run_counts", refuse_to_run)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: the corrected rate needs "
            "eta_1 > 0 and eta_2 > 0\n")
        assert not out.exists()

    def test_background_of_another_bin_width_is_refused_before_any_point(
            self, tmp_path, capsys, monkeypatch):
        dark_ini = tmp_path / "dark.ini"
        dark_ini.write_text(BACKGROUND_INI.replace(
            "bin_width = 20.83e-9", "bin_width = 10e-9"), encoding="utf-8")
        assert main(["simulate", "--config", str(dark_ini),
                     "--out", str(tmp_path / "dark")]) == 0
        dark = tmp_path / "dark" / "counts.json"
        cfg, plan = write_inputs(tmp_path)
        monkeypatch.setattr(runner, "run_counts", refuse_to_run)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--background", str(dark), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg} and {dark} have different bin "
            "widths\n")
        assert not out.exists()

    def test_background_that_is_not_utf8_names_the_file(self, tmp_path,
                                                         capsys, monkeypatch):
        dark = tmp_path / "dark.json"
        dark.write_bytes(b"\xff\xfe\x00")
        cfg, plan = write_inputs(tmp_path)
        monkeypatch.setattr(runner, "run_counts", refuse_to_run)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--background", str(dark), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dark}: not JSON: {NOT_UTF8}\n")
        assert not out.exists()

    def test_bins_override_caps_points(self, tmp_path, capsys):
        cfg, plan = write_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(out), "--bins", "6000"]) == 0
        counts, _ = read_counts_json(out / "point_001.json")
        assert counts.n_bins == 6000


    @pytest.mark.parametrize("max_bins", [12_000, 3_000])
    def test_point_echo_is_the_config_it_ran(self, tmp_path, max_bins):
        cfg, plan = write_inputs(tmp_path)
        plan.write_text(SWEEP_INI + f"target_triples = 1000000\n"
                        f"max_bins = {max_bins}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(out)]) == 0
        for index in (1, 2, 3):
            counts, echo = read_counts_json(out / f"point_{index:03d}.json")
            assert echo["run"]["n_bins"] == counts.n_bins == max_bins
            assert echo["run"]["segment_bins"] == 5000
            rerun = run_counts(config_from_dict(echo), point_index=index,
                               target_triples=1_000_000)
            assert rerun.totals() == counts.totals()


def summary(captured: str) -> list[str]:
    """The printed summary lines, without the paths of the written files."""
    return [line for line in captured.splitlines()
            if not line.startswith("wrote ")]


class TestBinsOverride:
    """--bins and a plan's max_bins run what an INI with that n_bins runs."""

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_artifacts_do_not_depend_on_the_ini_n_bins(self, tmp_path,
                                                       command):
        outs = []
        for n_bins in (1000, 1_000_000):
            root = tmp_path / str(n_bins)
            root.mkdir()
            cfg, plan = write_inputs(root, RUN_INI.replace(
                "n_bins = 20000", f"n_bins = {n_bins}").replace(
                "segment_bins = 5000\n", ""))
            plan.write_text(SWEEP_INI + "target_triples = 1000000\n"
                            "max_bins = 200000\n", encoding="utf-8")
            argv = [command, "--config", str(cfg), "--out", str(root / "out")]
            argv += (["--bins", "200000"] if command == "simulate"
                     else ["--sweep", str(plan)])
            assert main(argv) == 0
            outs.append(root / "out")
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name


class TestAnalyze:
    @pytest.mark.parametrize("model", ["qm", "pcsft"])
    @pytest.mark.parametrize("with_background", [False, True])
    def test_report_is_byte_identical_to_the_sweep(self, tmp_path, capsys,
                                                   background_json, model,
                                                   with_background):
        cfg, plan = write_inputs(tmp_path, STREAMED_MODELS[model])
        extra = (["--background", str(background_json)] if with_background
                 else [])
        swept = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(plan),
                     "--out", str(swept), *extra]) == 0
        printed = capsys.readouterr().out
        points = [str(swept / f"point_{i:03d}.json") for i in (1, 2, 3)]
        again = tmp_path / "analyze"
        assert main(["analyze", "--counts", *points, "--out", str(again),
                     *extra]) == 0
        assert summary(capsys.readouterr().out) == summary(printed)
        for name in ("report.json", "report.csv"):
            assert (again / name).read_bytes() == (swept / name).read_bytes()
        report = json.loads((swept / "report.json").read_text())
        assert ("note" in report) is not with_background

    def test_reanalysis_reproduces_sweep_records(self, sweep_out, tmp_path,
                                                 capsys):
        point_files = [str(sweep_out / f"point_{i:03d}.json")
                       for i in (1, 2, 3)]
        out = tmp_path / "re"
        assert main(["analyze", "--counts", *point_files,
                     "--out", str(out)]) == 0
        fresh = json.loads((out / "report.json").read_text())
        original = json.loads((sweep_out / "report.json").read_text())
        assert fresh["points"] == original["points"]
        assert fresh["fit"] == original["fit"]
        assert fresh["note"] == "raw-only: no background run supplied"

    def test_counts_without_config_echo_rejected(self, sweep_out, tmp_path,
                                                 capsys):
        counts, _ = read_counts_json(sweep_out / "point_001.json")
        bare = tmp_path / "bare.json"
        write_counts_json(counts, bare)
        assert main(["analyze", "--counts", str(bare),
                     "--out", str(tmp_path / "out")]) == 2
        assert "configuration echo" in capsys.readouterr().err

    def test_empty_counts_fail_with_statistics_error(self, tmp_path, capsys):
        quiet_ini = BACKGROUND_INI.replace("dark_rate_h = 150",
                                           "dark_rate_h = 0") \
                                  .replace("dark_rate_1 = 150",
                                           "dark_rate_1 = 0") \
                                  .replace("dark_rate_2 = 150",
                                           "dark_rate_2 = 0")
        cfg = tmp_path / "quiet.ini"
        cfg.write_text(quiet_ini, encoding="utf-8")
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert main(["analyze", "--counts", str(tmp_path / "run" /
                                                "counts.json"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "heralded g2 needs" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["eta_1", "eta_2"])
    def test_dead_signal_arm_names_the_file(self, sweep_out, tmp_path, capsys,
                                            eta):
        payload = json.loads((sweep_out / "point_002.json").read_text())
        payload["config"]["optics"][eta] = 0.0
        dead = tmp_path / "dead.json"
        dead.write_text(json.dumps(payload), encoding="utf-8")
        points = [str(sweep_out / "point_001.json"), str(dead)]
        out = tmp_path / "out"
        assert main(["analyze", "--counts", *points, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {dead}: the corrected rate needs "
            "eta_1 > 0 and eta_2 > 0\n")
        assert not out.exists()

    def test_background_of_another_bin_width_names_both_files(
            self, sweep_out, background_json, tmp_path, capsys):
        payload = json.loads(background_json.read_text())
        payload["bin_width"] = 10e-9
        dark = tmp_path / "dark.json"
        dark.write_text(json.dumps(payload), encoding="utf-8")
        point = sweep_out / "point_001.json"
        out = tmp_path / "out"
        assert main(["analyze", "--counts", str(point), "--background",
                     str(dark), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {point} and {dark} have different bin "
            "widths\n")
        assert not out.exists()

    def test_missing_counts_file(self, tmp_path, capsys):
        assert main(["analyze", "--counts", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_counts_file_that_is_not_utf8_names_the_file(self, tmp_path,
                                                          capsys):
        counts = tmp_path / "counts.json"
        counts.write_bytes(b"\xff\xfe\x00")
        out = tmp_path / "out"
        assert main(["analyze", "--counts", str(counts),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {counts}: not JSON: {NOT_UTF8}\n")
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "{not json"],
                             ids=["missing", "malformed"])
    def test_unreadable_counts_leave_no_directory(self, tmp_path, capsys,
                                                  content):
        counts = tmp_path / "counts.json"
        if content is not None:
            counts.write_text(content, encoding="utf-8")
        out = tmp_path / "out" / "report"
        assert main(["analyze", "--counts", str(counts),
                     "--out", str(out)]) in (1, 2)
        assert not (tmp_path / "out").exists()

    def test_mistyped_config_echo_is_a_configuration_error(self, sweep_out,
                                                           tmp_path, capsys):
        payload = json.loads((sweep_out / "point_001.json").read_text())
        payload["config"]["optics"]["eta_h"] = "abc"
        payload["config"]["run"]["seed"] = 1.5
        broken = tmp_path / "mistyped.json"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["analyze", "--counts", str(broken),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "[optics] eta_h: not a number: 'abc'" in err
        assert "[run] seed: not an integer: 1.5" in err

    @pytest.mark.parametrize("role", ["counts", "background"])
    def test_counts_file_missing_a_total_is_an_error(self, sweep_out, tmp_path,
                                                     capsys, role):
        payload = json.loads((sweep_out / "point_001.json").read_text())
        del payload["N_H2"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        counts = broken if role == "counts" else sweep_out / "point_001.json"
        extra = ["--background", str(broken)] if role == "background" else []
        assert main(["analyze", "--counts", str(counts), *extra,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{broken}: missing key 'N_H2'" in err


    # Each case edits one field of a sweep point file: (edit, exit code,
    # what the error says after the file's path).
    MALFORMED_COUNTS = {
        "string-bin-width": (lambda p: p.update(bin_width="abc"), 1,
                             "'bin_width' is not a finite number > 0: 'abc'"),
        "bool-bin-width": (lambda p: p.update(bin_width=True), 1,
                           "'bin_width' is not a finite number > 0: True"),
        "zero-bin-width": (lambda p: p.update(bin_width=0), 1,
                           "'bin_width' is not a finite number > 0: 0"),
        "infinite-bin-width": (lambda p: p.update(bin_width=math.inf), 1,
                               "'bin_width' is not a finite number > 0: inf"),
        "negative-n-bins": (lambda p: p.update(n_bins=-5), 1,
                            "'n_bins' must be >= 1, got -5"),
        "triples-above-pairs": (lambda p: p.update(N_H12=10**9), 1,
                                "'N_H12' = 1000000000 exceeds 'N_H1' = "),
        "config-not-an-object": (lambda p: p.update(config=[1, 2]), 2,
                                 "bad configuration record: not an object: "
                                 "[1, 2]"),
        "config-without-run": (lambda p: p["config"].pop("run"), 2,
                               "bad configuration record:\n"
                               "missing required section [run]"),
        "config-without-seed": (lambda p: p["config"]["run"].pop("seed"), 2,
                                "bad configuration record:\n"
                                "missing required key 'seed' in section "
                                "[run]"),
        "config-negative-n-bins": (
            lambda p: p["config"]["run"].update(n_bins=-5), 2,
            "run.n_bins must be an integer >= 1, got -5"),
        "n-bins-beyond-int64": (lambda p: p.update(n_bins=10**20), 1,
                                "'n_bins' must be at most 2**63 - 1, got "
                                "100000000000000000000"),
        "config-n-bins-beyond-int64": (
            lambda p: p["config"]["run"].update(n_bins=10**20), 2,
            "run.n_bins must be at most 2**63 - 1, got 100000000000000000000"),
        "config-dark-rate-beyond-float": (
            lambda p: p["config"]["detectors"].update(dark_rate_h=10**400), 2,
            "bad configuration record:\n"
            f"[detectors] dark_rate_h: not a number: {10**400}"),
        # Beyond the digits Python converts from a string (4 300 by
        # default), so json.loads fails with a plain ValueError.
        "config-dark-rate-of-5001-digits": (
            lambda p: p["config"]["detectors"].update(dark_rate_h=HUGE), 1,
            "not JSON: Exceeds the limit"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_COUNTS))
    def test_malformed_counts_are_errors_naming_the_file(
            self, sweep_out, tmp_path, capsys, case):
        edit, code, message = self.MALFORMED_COUNTS[case]
        payload = json.loads((sweep_out / "point_001.json").read_text())
        edit(payload)
        bad = tmp_path / "point.json"
        bad.write_text(json.dumps(payload).replace(f'"{HUGE}"', "9" * 5001),
                       encoding="utf-8")
        assert main(["analyze", "--counts", str(bad),
                     "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        prefix = "error: " if code == 1 else "configuration error: "
        assert err.startswith(f"{prefix}{bad}: ")
        assert f"{bad}: {message}" in err or f"{bad}:\n{message}" in err
        assert "Traceback" not in err


class TestPlot:
    def test_renders_report_svg(self, sweep_out, tmp_path, capsys):
        fig = tmp_path / "figure.svg"
        assert main(["plot", "--report", str(sweep_out / "report.json"),
                     "--out", str(fig)]) == 0
        root = ET.fromstring(fig.read_text(encoding="utf-8"))
        ids = {el.get("id") for el in root.iter() if el.get("id")}
        assert {"axis-x", "axis-y", "qm-band", "fit-line", "points-raw"} <= ids

    def test_wrong_format_rejected(self, tmp_path, capsys):
        bogus = tmp_path / "report.json"
        bogus.write_text(json.dumps({"format": "something-else"}),
                         encoding="utf-8")
        assert main(["plot", "--report", str(bogus),
                     "--out", str(tmp_path / "fig.svg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_top_level_list_is_an_error(self, tmp_path, capsys):
        bogus = tmp_path / "report.json"
        bogus.write_text("[]", encoding="utf-8")
        assert main(["plot", "--report", str(bogus),
                     "--out", str(tmp_path / "fig.svg")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bogus}: ")

    def test_point_without_raw_g2_is_an_error(self, sweep_out, tmp_path,
                                              capsys):
        payload = json.loads((sweep_out / "report.json").read_text())
        del payload["points"][1]["g2_raw"]
        bogus = tmp_path / "report.json"
        bogus.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["plot", "--report", str(bogus),
                     "--out", str(tmp_path / "fig.svg")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bogus}: missing key 'g2_raw'\n")
        assert not (tmp_path / "fig.svg").exists()

    # Each case edits one field of a good report, then names the error.
    MALFORMED = {
        "point-not-an-object": (lambda r: r.update(points=[1]),
                                "point 1 is not an object: 1"),
        "string-sigma-raw": (lambda r: r["points"][2].update(sigma_raw="wide"),
                             "point 3: sigma_raw is not a number: 'wide'"),
        "no-points": (lambda r: r.update(points=[]),
                      "report has no points to plot"),
        "string-fit-slope": (lambda r: r["fit"].update(slope="steep"),
                             "fit: slope is not a number: 'steep'"),
        "string-fit-intercept": (lambda r: r["fit"].update(intercept="0.1"),
                                 "fit: intercept is not a number: '0.1'"),
        "null-band-x": (lambda r: r["qm_band"][0].update(x=None),
                        "qm_band entry 1: x is not a number: None"),
        "null-band-lower": (lambda r: r["qm_band"][1].update(lower=None),
                            "qm_band entry 2: lower is not a number: None"),
        "null-band-upper": (lambda r: r["qm_band"][2].update(upper=None),
                            "qm_band entry 3: upper is not a number: None"),
        "string-band-upper": (lambda r: r["qm_band"][0].update(upper="high"),
                              "qm_band entry 1: upper is not a number: 'high'"),
        "band-entry-not-an-object": (lambda r: r["qm_band"].append("wide"),
                                     "qm_band entry 4 is not an object: 'wide'"),
        "band-not-a-list": (lambda r: r.update(qm_band={"x": 1.0}),
                            "qm_band is not a list: {'x': 1.0}"),
        "infinite-x-rate": (lambda r: r["points"][1].update(x_rate=math.inf),
                            "point 2: x_rate is not a finite number: inf"),
        "nan-g2": (lambda r: r["points"][0].update(g2=math.nan),
                   "point 1: g2 is not a finite number: nan"),
        "nan-fit-slope": (lambda r: r["fit"].update(slope=math.nan),
                          "fit: slope is not a finite number: nan"),
        "negative-infinite-band-upper": (
            lambda r: r["qm_band"][2].update(upper=-math.inf),
            "qm_band entry 3: upper is not a finite number: -inf"),
        "string-pcsft-bound": (
            lambda r: r["points"][1].update(pcsft_bound="high"),
            "point 2: pcsft_bound is not a number: 'high'"),
        "null-pcsft-bound": (
            lambda r: r["points"][0].update(pcsft_bound=None),
            "point 1: pcsft_bound is not a number: None"),
        "infinite-pcsft-bound": (
            lambda r: r["points"][2].update(pcsft_bound=math.inf),
            "point 3: pcsft_bound is not a finite number: inf"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_points_are_errors_naming_the_file(
            self, sweep_out, tmp_path, capsys, case):
        edit, message = self.MALFORMED[case]
        payload = json.loads((sweep_out / "report.json").read_text())
        assert payload["fit"] is not None and len(payload["qm_band"]) == 3
        edit(payload)
        bogus = tmp_path / "report.json"
        bogus.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["plot", "--report", str(bogus),
                     "--out", str(tmp_path / "fig.svg")]) == 1
        assert capsys.readouterr().err == f"error: {bogus}: {message}\n"
        assert not (tmp_path / "fig.svg").exists()

    def test_integer_pcsft_bound_is_plotted(self, sweep_out, tmp_path,
                                            capsys):
        payload = json.loads((sweep_out / "report.json").read_text())
        for point in payload["points"]:
            point["pcsft_bound"] = 1
        bounded = tmp_path / "report.json"
        bounded.write_text(json.dumps(payload), encoding="utf-8")
        fig = tmp_path / "fig.svg"
        assert main(["plot", "--report", str(bounded), "--out", str(fig)]) == 0
        root = ET.fromstring(fig.read_text(encoding="utf-8"))
        ticks = [g for g in root.iter() if g.get("id") == "bounds-pcsft"]
        assert len(ticks) == 1 and len(ticks[0]) == 3

    @pytest.mark.parametrize("content,message", [
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe\x00", NOT_UTF8),
    ], ids=["not-json", "not-utf8"])
    def test_report_that_is_not_json_names_the_file(self, tmp_path, capsys,
                                                    content, message):
        bogus = tmp_path / "bad.json"
        bogus.write_bytes(content)
        assert main(["plot", "--report", str(bogus),
                     "--out", str(tmp_path / "fig.svg")]) == 1
        assert capsys.readouterr().err == f"error: {bogus}: {message}\n"
        assert not (tmp_path / "fig.svg").exists()

    def test_missing_report(self, tmp_path, capsys):
        assert main(["plot", "--report", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "fig.svg")]) == 2

    def test_missing_output_directory_names_the_figure(self, sweep_out,
                                                       tmp_path, capsys):
        fig = tmp_path / "nodir" / "fig.svg"
        assert main(["plot", "--report", str(sweep_out / "report.json"),
                     "--out", str(fig)]) == 2
        assert capsys.readouterr().err == (
            f"missing file: [Errno 2] No such file or directory: '{fig}'\n")
        assert list(tmp_path.iterdir()) == []


class TestBounds:
    def test_energy_bound_prints_full_precision(self, capsys):
        assert main(["bounds", "energy", "10e-9", "20.83e-9", "0.01",
                     "1.0"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == repr(pcsft.bound_energy(10e-9, 20.83e-9, 0.01, 1.0))

    def test_counts_bound_prints_full_precision(self, capsys):
        assert main(["bounds", "counts", "20.83e-9", "20.83e-9", "500000",
                     "500000", "1.0"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == repr(pcsft.bound_counts(20.83e-9, 20.83e-9, 500_000,
                                              500_000, 1.0))

    def test_invalid_bound_arguments(self, capsys):
        assert main(["bounds", "energy", "10e-9", "20.83e-9", "0.01",
                     "0.0"]) == 1
        assert "error" in capsys.readouterr().err


def parser_exit(parse, argv, capsys) -> tuple:
    """Exit code, standard output and standard error of a parse that exits."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestParser:
    """main builds only the named command's parser, with the full one's text."""

    COMMANDS = [["simulate"], ["sweep"], ["analyze"], ["plot"], ["bounds"],
                ["bounds", "energy"], ["bounds", "counts"]]

    @pytest.mark.parametrize("tail", [["--help"], []], ids=["help", "missing"])
    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_help_and_missing_arguments_match_the_full_parser(
            self, capsys, command, tail):
        argv = command + tail
        expected = parser_exit(cli._build_parser().parse_args, argv, capsys)
        assert expected[0] == (0 if tail else 2)
        assert parser_exit(main, argv, capsys) == expected

    def test_unrecognized_argument_shows_the_full_usage(self, capsys):
        argv = ["plot", "--report", "r.json", "--out", "f.svg", "extra"]
        expected = parser_exit(cli._build_parser().parse_args, argv, capsys)
        assert "{simulate,sweep,analyze,plot,bounds}" in expected[2]
        assert parser_exit(main, argv, capsys) == expected

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, _ = parser_exit(main, ["-h"], capsys)
        assert code == 0
        for name in ("simulate", "sweep", "analyze", "plot", "bounds"):
            assert f"\n    {name} " in out

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, err = parser_exit(main, ["simulat"], capsys)
        assert code == 2
        assert "invalid choice: 'simulat'" in err

    def test_only_the_named_command_is_built(self, monkeypatch, capsys):
        built = []
        build = cli._build_parser

        def recording(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "_build_parser", recording)
        assert main(["bounds", "energy", "1", "1", "1", "1"]) == 0
        parser_exit(main, ["--help"], capsys)
        parser_exit(main, [], capsys)
        assert built == ["bounds", None, None]
        code, _, err = parser_exit(build("plot").parse_args, ["bounds"], capsys)
        assert code == 2
        assert "invalid choice: 'bounds'" in err
