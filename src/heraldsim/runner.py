"""Run drivers: segment scheduling, early stop and sweeps.

A run is a sequence of independent segments, cut as ``ExperimentConfig``
states and produced one after another on the calling thread.  Each
segment's randomness comes from its own named Philox streams, so no
segment's draws depend on another's.

Every segment is one draw of its model's census (``segment_cells``, the
bins per joint click pattern) on the model's per-bin pattern law
(``qm.joint_pattern_probabilities`` or ``pcsft.pattern_probabilities``),
built once per run.  One loop draws the censuses and counts each into
its segment row (``counts_from_cells``), for both entry points.
:func:`run_counts` keeps only the rows.  ``_placed_segments``, for runs
whose stream files are part of the deliverable, also places each census
in a uniformly random order, straight into packed channel bitmaps, a
block of consecutive segments at a time (``coincidence._placed_blocks``,
the placement ``clicks_from_cells`` unpacks, which also sets the block
budget): 13 blocks of 16 segments per simulate-qm run of 10^7 bins.
Each segment keeps its own draw, so the bytes are those of placing the
segments one by one.  The placement also lists each channel's clicked
bins in ascending order, and the CLI writes ``clicks.csv`` from those
lists in the loop that writes ``streams.pstm``, without reading the
bitmaps back.

Early stop on a triple-count target is decided by scanning segments in
index order, so the set of retained segments is a pure function of the
configuration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from . import pcsft, qm
from .coincidence import (CoincidenceCounts, _placed_blocks, counts_from_cells,
                          segment_table)
from .core import (_MAX_BINS, ConfigError, ExperimentConfig, Role, Theory,
                   _check, _field_types, _parse_ini, _read_utf8,
                   _segment_rng, with_attenuation)
from .streams import ClickStreams

__all__ = [
    "SweepPlan",
    "SweepPoint",
    "simulate_run",
    "run_counts",
    "parse_sweep_plan",
    "load_sweep_plan",
    "run_sweep",
]

TARGET_TRIPLES_DEFAULT = 10_000

# Each theory's module and the name of its law function there, looked up
# on the module at each run, so a patched module attribute is the one called.
_MODELS = {Theory.QM: (qm, "joint_pattern_probabilities"),
           Theory.PCSFT: (pcsft, "pattern_probabilities")}


def _census_rows(cfg: ExperimentConfig, point_index: int,
                 target_triples: Optional[int] = None,
                 ) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
    """Yield each segment's census and row, in index order.

    The one place that cuts a run into segments.  Segment i's census is
    the model's ``segment_cells`` of its bins, with the law built once
    here; its row is ``counts_from_cells`` of that census.  With
    ``target_triples`` set, the loop ends with the first segment at which
    the cumulative N_H12 reaches it, and draws nothing past it.
    """
    model, law_name = _MODELS[cfg.theory]
    law = getattr(model, law_name)(cfg)
    segment_cells = model.segment_cells
    size = cfg.segment_bins
    full, rest = divmod(cfg.n_bins, size)
    target = float("inf") if target_triples is None else target_triples
    triples = 0
    for index in range(full + (rest > 0)):
        cells = segment_cells(cfg, index,
                              n_bins=size if index < full else rest,
                              point_index=point_index, law=law)
        row = counts_from_cells(cells, index)
        yield cells, row
        triples += row[-1]  # N_H12, the last column
        if triples >= target:
            return


def _placed_segments(cfg: ExperimentConfig, point_index: int = 0,
                     ) -> Iterator[tuple[tuple, ClickStreams, tuple]]:
    """The run's segments placed a block at a time, in index order.

    Yields each block's rows (those of :func:`run_counts`), its
    consecutive segments' streams as one part, and each channel's clicked
    bins, ascending int64 counted from the block's first bin
    (``coincidence._placed_blocks``).
    """
    bin_width = float(cfg.detectors.bin_width)
    for rows, n_bins, packed, clicked in _placed_blocks(
            _census_rows(cfg, point_index),
            lambda i: _segment_rng(cfg, i, Role.PLACEMENT, point_index)):
        yield rows, ClickStreams(n_bins, bin_width, *packed), clicked


def simulate_run(cfg: ExperimentConfig, point_index: int = 0) -> ClickStreams:
    """The full per-bin click record of a configured run, in memory.

    The blocks of ``_placed_segments``, joined; the CLI streams them to
    disk instead.
    """
    parts = [part for _, part, _ in _placed_segments(cfg, point_index)]
    return parts[0].concat(*parts[1:])


def run_counts(cfg: ExperimentConfig, point_index: int = 0,
               target_triples: Optional[int] = None) -> CoincidenceCounts:
    """Accumulate coincidence counts for a run, stopping early on a target.

    Each segment gives one row of the returned segment table
    (``counts.segments``): the counts of its census.  With
    ``target_triples`` set, segments are retained in index order until the
    cumulative N_H12 reaches the target (the full cfg.n_bins budget
    otherwise); the stop decision never splits a segment.
    """
    rows = (row for _, row in _census_rows(cfg, point_index, target_triples))
    return CoincidenceCounts(bin_width=cfg.detectors.bin_width,
                             segments=segment_table(rows))


# ---------------------------------------------------------------------------
# Attenuation sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    """Attenuator settings and per-point stopping rules for a power sweep."""

    attenuations: tuple[float, ...]
    target_triples: int = TARGET_TRIPLES_DEFAULT
    max_bins: Optional[int] = None

    def __post_init__(self) -> None:
        errors: list[str] = []
        _check(errors, bool(self.attenuations),
               "sweep needs at least one attenuation value")
        for a in self.attenuations:
            _check(errors, 0.0 < a <= 1.0, f"sweep attenuation {a} outside (0, 1]")
        _check(errors, self.target_triples >= 1,
               f"sweep target_triples must be >= 1, got {self.target_triples}")
        _check(errors, self.max_bins is None or self.max_bins >= 1,
               f"sweep max_bins must be >= 1, got {self.max_bins}")
        _check(errors, self.max_bins is None or self.max_bins <= _MAX_BINS,
               f"sweep max_bins must be at most 2**63 - 1, got {self.max_bins}")
        if errors:
            raise ConfigError("\n".join(errors))
        if any(later >= earlier for earlier, later
               in zip(self.attenuations, self.attenuations[1:])):
            warnings.warn("sweep attenuations are not strictly decreasing; "
                          "points will be plotted in the order given",
                          stacklevel=2)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: the config it ran with and the counts collected.

    ``config`` carries the point's attenuation and the plan's bin budget,
    so ``run_counts(config, point_index, plan.target_triples)`` reproduces
    ``counts``.
    """

    config: ExperimentConfig
    point_index: int
    counts: CoincidenceCounts

    @property
    def attenuation(self) -> float:
        return self.config.optics.attenuation


def parse_sweep_plan(text: str, origin: str = "<string>") -> SweepPlan:
    """Parse the [sweep] section of an INI text into a plan.

    Keys are the fields of :class:`SweepPlan`, ``attenuations`` a
    comma-separated list.  Read as :func:`core.parse_config` reads an
    experiment, so any other section is an error.
    """
    return _parse_ini(text, origin, {"sweep": _field_types(SweepPlan)},
                      {"sweep"}, lambda values: SweepPlan(**values["sweep"]))


def load_sweep_plan(path) -> SweepPlan:
    return parse_sweep_plan(_read_utf8(path), origin=str(path))


def run_sweep(cfg: ExperimentConfig, plan: SweepPlan) -> list[SweepPoint]:
    """Collect counts at every attenuation of the plan.

    Each point gets its own stream namespace (point_index = position + 1),
    so sweeping never replays the randomness of a plain run or of another
    point, whatever order the points execute in.
    """
    return list(_sweep_points(cfg, plan))


def _sweep_points(cfg: ExperimentConfig,
                  plan: SweepPlan) -> Iterator[SweepPoint]:
    """The points of :func:`run_sweep`, each yielded once it is counted."""
    for index, attenuation in enumerate(plan.attenuations, start=1):
        point_cfg = with_attenuation(cfg, attenuation)
        if plan.max_bins is not None:
            point_cfg = replace(point_cfg, n_bins=plan.max_bins)
        counts = run_counts(point_cfg, point_index=index,
                            target_triples=plan.target_triples)
        yield SweepPoint(config=point_cfg, point_index=index, counts=counts)
