"""Golden artifacts: the bytes of every file the pipeline writes.

A fixed config and seed must give the same artifacts from release to
release (README, Determinism).  ``golden_artifacts.json`` holds the
sha256 of every file these chains write, at seeds 1 and 2:

- the benchmark's four workload chains (``simulate``, or ``sweep`` ->
  ``analyze`` -> ``plot``), at its INIs and sizes;
- the CI's dense and mixed-fill ``simulate`` runs;
- a pcsft ``simulate`` whose segments are unaligned, the last one short;
- a ``sweep --background`` and ``analyze --background`` chain per model;
- ``write_sparse_csv`` of the simulate-qm and dense containers.

The Philox streams and ``multinomial`` are pinned per numpy version, so
the manifest is keyed by it; a numpy without an entry skips the test
and names its version.  CI's numpy 1.24 leg is therefore unchecked until
someone records an entry there.  Each entry also names the Python and
libm it was recorded with (pcsft's law goes through ``math.erf`` and
``math.exp``), as ``test_golden_bits.py`` does.  A change that means to
move bytes reruns ``PYTHONPATH=src python tests/record_golden_artifacts.py``,
which rewrites this numpy version's entry and prints every file that moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from heraldsim.cli import main
from heraldsim.streams import write_sparse_csv

# The dense and mixed-fill configs are far outside the heralded regime.
pytestmark = pytest.mark.filterwarnings("ignore:source.pair_mean_per_bin")

MANIFEST = Path(__file__).with_name("golden_artifacts.json")
SEEDS = (1, 2)

# The benchmark's experiment INI: README defaults, 48 000-bin segments.
_BENCH = """\
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
theory = {theory}
n_bins = {n_bins}
segment_bins = 48000
seed = 1
"""
_BENCH_PCSFT = """\
[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = 7.3e7
diffusion_step = 2.08e-11
coupling = 0.5
"""
_BENCH_PLAN = """\
[sweep]
attenuations = 1.0, 0.5, 0.2, 0.1
target_triples = {target}
max_bins = {max_bins}
"""

# The CI's console-script configs.
_CI_QM = """\
[source]
pair_mean_per_bin = 0.1
[optics]
eta_h = 0.8
eta_1 = 0.7
eta_2 = 0.6
[run]
theory = qm
n_bins = 200000
seed = 1
"""
_CI_PCSFT = """\
[source]
pair_mean_per_bin = 0.05
[optics]
eta_h = 0.26
eta_1 = 0.065
eta_2 = 0.065
[run]
theory = pcsft
n_bins = {n_bins}
segment_bins = {segment_bins}
seed = 1
[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = {power}
coupling = 1.0
"""
_CI_DENSE = """\
[source]
pair_mean_per_bin = {pairs}
[optics]
eta_h = 0.9
eta_1 = 0.7
eta_2 = 0.6
[run]
theory = qm
n_bins = {n_bins}
segment_bins = {segment_bins}
seed = 1
"""
_CI_DARK = """\
[detectors]
dark_rate_h = 20000
dark_rate_1 = 30000
dark_rate_2 = 25000
"""
_CI_PLAN = """\
[sweep]
attenuations = 1.0, 0.5, 0.25
target_triples = 1000000
max_bins = 100000
"""

_INPUTS = {
    "simulate-qm.ini": _BENCH.format(theory="qm", n_bins=10_000_000),
    "simulate-pcsft.ini": (_BENCH.format(theory="pcsft", n_bins=144_000)
                           + _BENCH_PCSFT),
    "sweep-qm.ini": _BENCH.format(theory="qm", n_bins=60_000_000),
    "sweep-qm-plan.ini": _BENCH_PLAN.format(target=75, max_bins=60_000_000),
    "sweep-pcsft.ini": (_BENCH.format(theory="pcsft", n_bins=48_000_000)
                        + _BENCH_PCSFT),
    "sweep-pcsft-plan.ini": _BENCH_PLAN.format(target=10_000,
                                               max_bins=48_000_000),
    "dense.ini": _CI_DENSE.format(pairs=3, n_bins=1_000_003,
                                  segment_bins=4801),
    "mixed.ini": _CI_DENSE.format(pairs=2.0, n_bins=200_003, segment_bins=97),
    "unaligned.ini": _CI_PCSFT.format(n_bins=100_003, segment_bins=4801,
                                      power="1e9"),
    "qm-noisy.ini": _CI_QM + _CI_DARK,
    "qm-dark.ini": (_CI_QM + _CI_DARK).replace("pair_mean_per_bin = 0.1",
                                               "pair_mean_per_bin = 0.0"),
    "pcsft-noisy.ini": _CI_PCSFT.format(n_bins=200_000, segment_bins=48000,
                                        power="1e9") + _CI_DARK,
    "pcsft-dark.ini": (_CI_PCSFT.format(n_bins=200_000, segment_bins=48000,
                                        power="0.0")
                       .replace("pair_mean_per_bin = 0.05",
                                "pair_mean_per_bin = 0.0") + _CI_DARK),
    "plan.ini": _CI_PLAN,
}


def _simulate(ini: str, seed: int) -> list:
    return [["simulate", "--config", f"../{ini}", "--out", "sim",
             "--seed", str(seed)]]


def _sweep_chain(ini: str, plan: str, seed: int) -> list:
    points = [f"sweep/point_{i:03d}.json" for i in range(1, 5)]
    return [
        ["sweep", "--config", f"../{ini}", "--sweep", f"../{plan}",
         "--out", "sweep", "--seed", str(seed)],
        ["analyze", "--counts", *points, "--out", "analyze"],
        ["plot", "--report", "analyze/report.json", "--out", "figure.svg"],
    ]


def _background_chain(model: str, seed: int) -> list:
    points = [f"sweep/point_{i:03d}.json" for i in range(1, 4)]
    return [
        ["simulate", "--config", f"../{model}-dark.ini", "--out", "dark",
         "--seed", str(seed)],
        ["sweep", "--config", f"../{model}-noisy.ini", "--sweep", "../plan.ini",
         "--background", "dark/counts.json", "--out", "sweep",
         "--seed", str(seed)],
        ["analyze", "--counts", *points, "--background", "dark/counts.json",
         "--out", "analyze"],
    ]


# ``write_sparse_csv`` of a chain's own container.
_SPARSE = ["write_sparse_csv", "sim/streams.pstm", "sparse.csv"]


def _run(step: list) -> int:
    if step[0] == "write_sparse_csv":
        write_sparse_csv(*step[1:])
        return 0
    return main(step)


def chains(seed: int) -> dict[str, list]:
    """Each chain's steps at ``seed``: CLI argument lists, run in order."""
    return {
        "simulate-qm": _simulate("simulate-qm.ini", seed) + [_SPARSE],
        "simulate-pcsft": _simulate("simulate-pcsft.ini", seed),
        "sweep-qm": _sweep_chain("sweep-qm.ini", "sweep-qm-plan.ini", seed),
        "sweep-pcsft": _sweep_chain("sweep-pcsft.ini", "sweep-pcsft-plan.ini",
                                    seed),
        "dense": _simulate("dense.ini", seed) + [_SPARSE],
        "mixed": _simulate("mixed.ini", seed),
        "unaligned-pcsft": _simulate("unaligned.ini", seed),
        "background-qm": _background_chain("qm", seed),
        "background-pcsft": _background_chain("pcsft", seed),
    }


CHAIN_IDS = [f"{name} seed {seed}" for seed in SEEDS for name in chains(seed)]


def run_chain(chain_id: str, root: Path) -> dict:
    """Run one chain in a fresh directory under ``root``.

    Returns its exit codes and the sha256 of every file it wrote, by path
    relative to the chain's directory.  Paths given to the CLI are
    relative, so no artifact can depend on where ``root`` is.
    """
    name, seed = chain_id.rsplit(" seed ", 1)
    for file, text in _INPUTS.items():
        if not (root / file).exists():
            (root / file).write_text(text)
    work = root / chain_id.replace(" ", "-")
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        exits = [_run(step) for step in chains(int(seed))[name]]
    finally:
        os.chdir(cwd)
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return {"exit": exits,
            "sha256": {p.relative_to(work).as_posix():
                       hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files}}


def environment() -> dict:
    """What the recorded bytes may depend on besides the package."""
    libc, version = platform.libc_ver()
    return {"python": platform.python_version(),
            "libm": f"{libc} {version}".strip() or sys.platform}


def moved(expected: dict, got: dict) -> list[str]:
    """One line per exit code list or file of ``got`` that differs."""
    lines = []
    if got["exit"] != expected["exit"]:
        lines.append(f"exit codes {got['exit']}, recorded {expected['exit']}")
    old, new = expected["sha256"], got["sha256"]
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"{path}: not written")
        elif path not in old:
            lines.append(f"{path}: not in the manifest")
        elif old[path] != new[path]:
            lines.append(f"{path}: bytes moved")
    return lines


def _entry() -> dict:
    manifest = json.loads(MANIFEST.read_text())
    entry = manifest.get(np.__version__)
    if entry is None:
        pytest.skip(f"no golden artifacts recorded for numpy {np.__version__} "
                    f"(recorded: {', '.join(sorted(manifest))})")
    return entry


@pytest.mark.parametrize("chain_id", CHAIN_IDS)
def test_artifacts_match_the_manifest(chain_id, tmp_path_factory):
    entry = _entry()
    root = tmp_path_factory.getbasetemp() / "golden"
    root.mkdir(exist_ok=True)
    lines = moved(entry["chains"][chain_id], run_chain(chain_id, root))
    assert not lines, (
        f"chain {chain_id!r} (recorded under Python {entry['python']}, "
        f"{entry['libm']}):\n  " + "\n  ".join(lines))


def test_manifest_names_every_chain():
    assert sorted(_entry()["chains"]) == sorted(CHAIN_IDS)
