"""Measurement loop: repeats, calibration, child runs, checks, trace.

The end-to-end run (:meth:`Bench.measure`) times many in-process repeats of
the workload's command chain through ``heraldsim.cli.main``, one command at
a time with ``--threads 1``, each repeat bracketed by the reference kernel.
Set-up time comes from child runs of ``heraldsim bounds energy``
interleaved with the repeats; peak RSS from one child run of the chain's
heaviest command.  The traced run (:meth:`Bench.measure_traced`) alternates
untraced and traced repeats and reports per-layer metrics from the traced
ones.

Every command invocation is one operation.  It fails on a non-zero exit,
on artifacts whose sha256 differs from the run's first repeat, or on a
failed output check (see ``checks``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import checks
from heraldsim import cli
from heraldsim.core import load_config
from reference import Timing, bracketed, quartiles, time_reference, R0_S
from spans import Tracer, layer_totals, spans_to_json
from workloads import Workload

MIN_REPEATS = 5
SETUP_ARGV = ("bounds", "energy", "20.83e-9", "20.83e-9", "0.01", "1.0")
SETUP_EXPECTED = "0.02"

END_TO_END = (("wall_s", "s"), ("bins_per_s", "bins/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (layer, quantity) per metric "layer.quantity"; see layer_metrics().
PER_LAYER = (
    ("core.load_config", "busy_s"),
    ("core.rng_stream", "calls"), ("core.rng_stream", "busy_s"),
    ("qm.segment_clicks", "busy_s"), ("qm.segment_clicks", "ns_per_bin"),
    ("qm.segment_cells", "calls"), ("qm.segment_cells", "us_per_segment"),
    ("qm.joint_pattern_probabilities", "calls"),
    ("pcsft.segment_clicks", "busy_s"), ("pcsft.segment_clicks", "ns_per_bin"),
    ("pcsft.discrete_exit_steps", "calls"),
    ("pcsft.discrete_exit_steps", "busy_s"),
    ("pcsft.segment_cells", "calls"), ("pcsft.segment_cells", "us_per_segment"),
    ("pcsft.field_click_probabilities", "calls"),
    ("streams.ClickStreams.from_bools", "busy_s"),
    ("streams.ClickStreams.concat", "calls"),
    ("streams.ClickStreams.concat", "busy_s"),
    ("streams.ClickStreams.concat", "bytes"),
    ("streams.write_streams", "busy_s"), ("streams.write_streams", "bytes"),
    ("streams.write_sparse_csv", "busy_s"), ("streams.write_sparse_csv", "rows"),
    ("coincidence.accumulate", "busy_s"),
    ("coincidence.counts_from_cells", "calls"),
    ("coincidence.counts_from_cells", "busy_s"),
    ("coincidence.write_segment_csv", "busy_s"),
    ("coincidence.write_segment_csv", "rows"),
    ("coincidence.write_counts_json", "busy_s"),
    ("coincidence.read_counts_json", "busy_s"),
    ("runner.simulate_run", "busy_s"), ("runner.simulate_run", "self_s"),
    ("runner.run_counts", "calls"), ("runner.run_counts", "busy_s"),
    ("runner.run_counts", "self_s"),
    ("runner.run_sweep", "bins"),
    ("analysis.heralded_g2", "busy_s"),
    ("analysis.weighted_linear_fit", "busy_s"),
    ("report.point_record", "busy_s"), ("report.build_report", "busy_s"),
    ("report.write_report_json", "busy_s"),
    ("svgplot.write_report_svg", "busy_s"),
    ("cli.simulate", "busy_s"), ("cli.sweep", "busy_s"),
    ("cli.analyze", "busy_s"), ("cli.plot", "busy_s"),
    ("trace", "overhead_share"),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "ns_per_bin": "ns/bin",
         "us_per_segment": "us/segment", "bytes": "bytes", "rows": "count",
         "bins": "bins", "overhead_share": "share"}
TIMES = ("busy_s", "self_s", "ns_per_bin", "us_per_segment")


@dataclass
class Ledger:
    """Operations attempted and failed, and the failures of each check."""

    attempted: int = 0
    failed: int = 0
    verdicts: dict[str, list[str]] = field(default_factory=dict)

    def operation(self, results: dict[str, list[str]]) -> None:
        """Count one command invocation with its check results by name."""
        self.attempted += 1
        self.check(results)
        self.failed += any(results.values())

    def check(self, results: dict[str, list[str]]) -> None:
        for name, failures in results.items():
            self.verdicts.setdefault(name, []).extend(failures)

    @property
    def correct(self) -> bool:
        return not any(self.verdicts.values())


def layer_metrics(totals: dict[str, dict[str, float]],
                  scale: float) -> dict[str, float]:
    """Per-layer metric values of one traced repeat (times calibrated).

    Layers the workload never called read 0.
    """
    out = {}
    for layer, quantity in PER_LAYER:
        if layer == "trace":
            continue
        entry = totals.get(layer, {})
        calls = entry.get("calls", 0)
        busy = entry.get("busy_s", 0.0) * scale
        if quantity == "busy_s":
            value = busy
        elif quantity == "self_s":
            value = entry.get("self_s", 0.0) * scale
        elif quantity == "ns_per_bin":
            bins = entry.get("bins", 0)
            value = busy / bins * 1e9 if bins else 0.0
        elif quantity == "us_per_segment":
            value = busy / calls * 1e6 if calls else 0.0
        else:
            value = entry.get(quantity, 0)
        out[f"{layer}.{quantity}"] = value
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _child_env(src: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src))


def _out_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, root: Path,
                 src: Path) -> None:
        self.workload = workload
        self.src = src
        self.base = root / ".bench_out" / workload.name
        shutil.rmtree(self.base, ignore_errors=True)
        self.inputs = workload.write_inputs(seed, self.base / "inputs")
        self.run_dir = self.base / "run"
        self.commands = workload.commands(self.inputs, self.run_dir)
        self.ledger = Ledger()
        self.digests: list[str] = []
        self.bins = 0

    # -- one repeat ---------------------------------------------------------

    def _run_chain(self, tracer: Optional[Tracer] = None) -> list[tuple[int, str]]:
        results = []
        for argv in self.commands:
            region = (tracer.region(f"cli.{argv[0]}") if tracer
                      else contextlib.nullcontext())
            with region:
                results.append(_run_command(argv))
        return results

    def repeat(self, tracer: Optional[Tracer] = None) -> Timing:
        """Time one repeat of the chain and check its artifacts."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        gc.collect()
        timing, results = bracketed(lambda: self._run_chain(tracer))
        for argv, (code, err), expected in zip(self.commands, results,
                                                self.digests):
            self.ledger.operation({
                "exit codes": _exit_failures(argv, code, err),
                "artifacts identical across repeats":
                    [] if checks.digest(_out_path(argv)) == expected else
                    [f"{argv[0]}: artifacts differ from the first repeat"],
            })
        return timing

    def first_repeat(self) -> None:
        """Untimed warm-up repeat: full output checks, reference digests."""
        for _ in range(3):
            time_reference()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        results = self._run_chain()
        config = self.inputs["config"]
        cfg = load_config(config)
        for argv, (code, err) in zip(self.commands, results):
            out = _out_path(argv)
            self.digests.append(checks.digest(out) if out.exists() else "")
            found = {"exit codes": _exit_failures(argv, code, err)}
            if code == 0:
                found["output checks"] = _guarded(self._output_check, argv[0],
                                                  out, cfg)
            self.ledger.operation(found)
            if (argv[0] == "simulate" and cfg.theory.value == "pcsft"
                    and code == 0 and not found["output checks"]):
                z = checks.pcsft_herald_z(out, cfg)
                print(f"  diagnostic (not gated): herald singles z = {z:+.2f} "
                      "against the continuum law; the click route misses "
                      "crossings between Euler grid points (ROADMAP item 2)")
        self.bins = _guarded_value(self.workload.bins_simulated, self.run_dir)

    def _output_check(self, command: str, out: Path, cfg) -> list[str]:
        if command == "simulate":
            return checks.check_simulate(out, cfg)
        if command == "sweep":
            return checks.check_sweep(out, self.inputs["plan"])
        if command == "analyze":
            return checks.check_report(out / "report.json")
        return checks.check_svg(out, self.workload.theory)

    # -- child processes ----------------------------------------------------

    def setup_run(self) -> Timing:
        """One calibrated child run of ``heraldsim bounds energy``."""
        argv = [sys.executable, "-m", "heraldsim.cli", *SETUP_ARGV]
        timing, proc = bracketed(lambda: subprocess.run(
            argv, env=_child_env(self.src), capture_output=True, text=True,
            timeout=60))
        failures = _exit_failures(["bounds"], proc.returncode, proc.stderr)
        if not failures and proc.stdout.strip() != SETUP_EXPECTED:
            failures.append(f"bounds: printed {proc.stdout.strip()!r}, "
                            f"expected {SETUP_EXPECTED}")
        self.ledger.operation({"exit codes": failures})
        return timing

    def peak_rss_mb(self) -> float:
        """Peak RSS of one child run of the heaviest command, from wait4."""
        argv = list(self.commands[0])
        out = self.base / "rss" / _out_path(argv).name
        argv[argv.index("--out") + 1] = str(out)
        shutil.rmtree(out.parent, ignore_errors=True)
        with open(self.base / "rss.stderr", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "heraldsim.cli", *argv],
                env=_child_env(self.src), stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        failures = _exit_failures(argv, proc.returncode,
                                  (self.base / "rss.stderr").read_text())
        same = not failures and checks.digest(out) == self.digests[0]
        self.ledger.operation({
            "exit codes": failures,
            "child artifacts equal in-process artifacts":
                [] if same or failures else
                [f"{argv[0]}: child-process artifacts differ from in-process"],
        })
        return usage.ru_maxrss / 1024.0

    # -- whole runs ---------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics."""
        self.first_repeat()
        repeats: list[Timing] = []
        setups: list[Timing] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(repeats) < MIN_REPEATS:
            repeats.append(self.repeat())
            if 2 * len(setups) <= len(repeats):
                setups.append(self.setup_run())
        rss = self.peak_rss_mb()
        _write_json(self.base / "timings.json",
                    {"repeats": [vars(t) for t in repeats],
                     "setup_runs": [vars(t) for t in setups]})

        wall = quartiles([t.calibrated_s for t in repeats])
        setup = quartiles([t.calibrated_s for t in setups])
        raw = quartiles([t.raw_s for t in repeats])
        ref = quartiles([t.ref_s for t in repeats + setups])
        _print_timing("wall_s", wall, len(repeats))
        _print_timing("wall_s raw (not calibrated)", raw, len(repeats))
        _print_timing("setup_s", setup, len(setups))
        _print_timing("setup_s raw (not calibrated)",
                      quartiles([t.raw_s for t in setups]), len(setups))
        _print_timing(f"reference kernel (R0 = {R0_S} s)", ref,
                      len(repeats) + len(setups))
        print(f"  bins per repeat: {self.bins}")
        values = {"wall_s": wall[1], "bins_per_s": self.bins / wall[1],
                  "peak_rss_mb": rss, "setup_s": setup[1]}
        return {name: _metric(values[name], unit) for name, unit in END_TO_END}

    def measure_traced(self, seconds: float) -> dict:
        """Per-layer metrics from traced repeats, plus the tracing overhead."""
        self.first_repeat()
        untraced: list[Timing] = []
        traced: list[tuple[Timing, dict[str, float]]] = []
        first_spans = None
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline
               or len(traced) < MIN_REPEATS):
            untraced.append(self.repeat())
            tracer = Tracer()
            origin = time.perf_counter()
            with tracer.installed():
                timing = self.repeat(tracer)
            totals = layer_totals(tracer.spans)
            traced.append((timing, layer_metrics(totals, timing.scale)))
            if first_spans is None:
                first_spans = spans_to_json(tracer.spans, origin)
        _write_json(self.base / "spans.json", first_spans)
        _write_json(self.base / "timings.json",
                    {"untraced": [vars(t) for t in untraced],
                     "traced": [vars(t) for t, _ in traced]})

        metrics = {}
        counts_differ = []
        for name, value in traced[0][1].items():
            values = [m[name] for _, m in traced]
            quantity = name.rsplit(".", 1)[1]
            if quantity in TIMES:
                value = statistics.median(values)
            elif any(v != value for v in values):
                counts_differ.append(f"{name}: {sorted(set(values))}")
            metrics[name] = _metric(value, UNITS[quantity])
        self.ledger.check({"trace counts repeat exactly": counts_differ})

        plain = quartiles([t.calibrated_s for t in untraced])
        with_trace = quartiles([t.calibrated_s for t, _ in traced])
        _print_timing("wall_s untraced", plain, len(untraced))
        _print_timing("wall_s traced", with_trace, len(traced))
        metrics["trace.overhead_share"] = _metric(
            with_trace[1] / plain[1] - 1.0, UNITS["overhead_share"])
        return metrics


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _run_command(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead benchmark
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


def _exit_failures(argv: list[str], code: int, stderr: str) -> list[str]:
    if code == 0:
        return []
    tail = stderr.strip().splitlines()[-1:] or [""]
    return [f"{argv[0]}: exit code {code}: {tail[0]}"]


def _guarded(check, *args) -> list[str]:
    """Run a check; an exception inside it is a failure, not a crash."""
    try:
        return check(*args)
    except Exception as exc:  # a malformed artifact can break any parser
        return [f"{getattr(check, '__name__', 'check')} raised {exc!r}"]


def _guarded_value(fn, *args) -> int:
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError):
        return 0


def _print_timing(label: str, q: tuple[float, float, float], n: int) -> None:
    print(f"  {label}: median {q[1]:.6g} s  (q1 {q[0]:.6g}, q3 {q[2]:.6g}, "
          f"n={n})")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def environment_lines(out_dir: Path) -> list[str]:
    """Python, numpy, cores and caches; where the outputs are written."""
    lines = [f"python {sys.version.split()[0]}, numpy {np.__version__} "
             "(Philox streams are pinned per numpy version)",
             f"cpu_count {os.cpu_count()}"]
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    lines.append("caches: " + (", ".join(caches) or "unknown"))
    lines.append(f"outputs in {out_dir} on {_fs_type(out_dir)} "
                 "(kept inside the checkout; not RAM-backed unless that is "
                 "tmpfs); commands run one at a time, --threads 1")
    return lines


def _fs_type(path: Path) -> str:
    best, kind = "", "unknown filesystem"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) > 2 and str(path).startswith(parts[1]) \
                        and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind

