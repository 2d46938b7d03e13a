"""Benchmark workloads: generated inputs and the CLI command chain of each.

Every workload drives the public CLI a user runs.  Its inputs (the
experiment INI and, for sweeps, the plan INI) are generated from the
README defaults and the benchmark seed; heraldsim sees only those files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

_SOURCE_OPTICS_DETECTORS = """\
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
"""

_PCSFT_BLOCK = """
[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = 7.3e7
diffusion_step = 2.08e-11
coupling = 0.5
"""

SEGMENT_BINS = 48_000
ATTENUATIONS = (1.0, 0.5, 0.2, 0.1)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``n_bins`` is the run length for ``simulate`` and the per-point bin
    budget (``max_bins``) for ``sweep``; ``target_triples`` is set only for
    sweeps.
    """

    name: str
    why: str
    theory: str
    n_bins: int
    target_triples: Optional[int] = None

    @property
    def is_sweep(self) -> bool:
        return self.target_triples is not None

    def experiment_ini(self, seed: int) -> str:
        text = _SOURCE_OPTICS_DETECTORS + f"""
[run]
theory = {self.theory}
n_bins = {self.n_bins}
segment_bins = {SEGMENT_BINS}
seed = {seed}
"""
        return text + (_PCSFT_BLOCK if self.theory == "pcsft" else "")

    def plan_ini(self) -> str:
        return ("[sweep]\n"
                f"attenuations = {', '.join(map(str, ATTENUATIONS))}\n"
                f"target_triples = {self.target_triples}\n"
                f"max_bins = {self.n_bins}\n")

    def write_inputs(self, seed: int, directory: Path) -> dict[str, Path]:
        """Write the input files; returns their paths by role."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {"config": directory / "run.ini"}
        paths["config"].write_text(self.experiment_ini(seed))
        if self.is_sweep:
            paths["plan"] = directory / "plan.ini"
            paths["plan"].write_text(self.plan_ini())
        return paths

    def commands(self, inputs: dict[str, Path], out: Path) -> list[list[str]]:
        """The CLI argument lists of one repeat, in execution order.

        The first command is the heaviest one (``simulate`` or ``sweep``).
        """
        config = str(inputs["config"])
        if not self.is_sweep:
            return [["simulate", "--config", config, "--out", str(out / "sim"),
                     "--threads", "1"]]
        points = [str(out / "sweep" / f"point_{i:03d}.json")
                  for i in range(1, len(ATTENUATIONS) + 1)]
        return [
            ["sweep", "--config", config, "--sweep", str(inputs["plan"]),
             "--out", str(out / "sweep"), "--threads", "1"],
            ["analyze", "--counts", *points, "--out", str(out / "analyze")],
            ["plot", "--report", str(out / "analyze" / "report.json"),
             "--out", str(out / "figure.svg")],
        ]

    def bins_simulated(self, out: Path) -> int:
        """Bins the chain simulated, read back from its artifacts."""
        if not self.is_sweep:
            return json.loads((out / "sim" / "counts.json").read_text())["n_bins"]
        return sum(json.loads(p.read_text())["n_bins"]
                   for p in sorted((out / "sweep").glob("point_*.json")))


WORKLOADS = {w.name: w for w in (
    Workload("simulate-qm",
             "qm click route end to end: sampler, segment concat, .pstm and "
             "clicks.csv writing at 1e7 bins",
             theory="qm", n_bins=10_000_000),
    Workload("simulate-pcsft",
             "pcsft click route: the per-path Wiener bridge loop dominates; "
             "the only workload on that kernel",
             theory="pcsft", n_bins=144_000),
    Workload("sweep-qm",
             "qm attenuation sweep on the census route, then analyze and "
             "plot; top point stops on target, the rest on budget",
             theory="qm", n_bins=60_000_000, target_triples=75),
    Workload("sweep-pcsft",
             "pcsft census sweep (field_click_probabilities per segment), "
             "budget-limited at every point, then analyze and plot",
             theory="pcsft", n_bins=48_000_000, target_triples=10_000),
)}
