"""Run drivers: segment scheduling, early stop and sweeps.

A run is a sequence of independent segments, cut as ``ExperimentConfig``
states and produced one after another on the calling thread.  Each
segment's randomness comes from its own named Philox streams, so no
segment's draws depend on another's.

Every segment is one draw of its model's census (``segment_cells``, the
bins per joint click pattern), with the model's sampling law built once
per run.  One loop draws the censuses and counts each into its segment
row (``counts_from_cells``), for both entry points.  :func:`run_counts`
keeps only the rows.  :func:`segment_streams` also places each census in
a uniformly random order, straight into packed channel bitmaps
(``coincidence._placed_channels``, the draw ``clicks_from_cells`` unpacks),
for runs whose stream files are part of the deliverable; the row it yields
with each segment is the census route's row for the same config and seed.
The placement also lists each channel's clicked bins in ascending order,
and the CLI writes ``clicks.csv`` from those lists (``_placed_segments``)
in the loop that writes ``streams.pstm``, without reading the bitmaps
back.

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
from .coincidence import (CoincidenceCounts, _placed_channels,
                          counts_from_cells, segment_table)
from .core import (ConfigError, ExperimentConfig, Role, Theory, _check,
                   _field_types, _read_ini, _read_section, _read_utf8,
                   _segment_rng, with_attenuation)
from .streams import ClickStreams

__all__ = [
    "SweepPlan",
    "SweepPoint",
    "segment_streams",
    "simulate_run",
    "run_counts",
    "parse_sweep_plan",
    "load_sweep_plan",
    "run_sweep",
]

TARGET_TRIPLES_DEFAULT = 10_000


# Each theory's module: its sampling_law and segment_cells.
_MODELS = {Theory.QM: qm, Theory.PCSFT: pcsft}


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
    model = _MODELS[cfg.theory]
    law = model.sampling_law(cfg)
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


def segment_streams(cfg: ExperimentConfig, point_index: int = 0,
                    ) -> Iterator[tuple[tuple[int, ...], ClickStreams]]:
    """Yield each segment's row and packed click streams, in index order.

    The streams are the segment's census placed from its placement
    stream, which the census never keys; the row counts that census, so
    it is what counting the streams gives, and the segment's row of
    :func:`run_counts`.  One segment is made at a time, so a consumer
    that writes each part as it arrives runs in memory that does not grow
    with ``cfg.n_bins``.
    """
    for row, part, _ in _placed_segments(cfg, point_index):
        yield row, part


def _placed_segments(cfg: ExperimentConfig, point_index: int = 0,
                     ) -> Iterator[tuple[tuple[int, ...], ClickStreams,
                                         tuple[np.ndarray, ...]]]:
    """:func:`segment_streams`, with each channel's clicked bins as well.

    The bins of a segment are ascending int64 counted from its first bin,
    as the placement drew them (``coincidence._placed_channels``).
    """
    bin_width = float(cfg.detectors.bin_width)
    for cells, row in _census_rows(cfg, point_index):
        index, n_bins = row[:2]
        rng = _segment_rng(cfg, index, Role.PLACEMENT, point_index)
        packed, clicked = _placed_channels(cells, n_bins, rng)
        yield row, ClickStreams(n_bins, bin_width, *packed), clicked


def simulate_run(cfg: ExperimentConfig, point_index: int = 0) -> ClickStreams:
    """The full per-bin click record of a configured run, in memory.

    The segments of :func:`segment_streams`, joined; the CLI streams them
    to disk instead.
    """
    parts = [part for _, part in segment_streams(cfg, point_index)]
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
        if errors:
            raise ConfigError("\n".join(errors))
        if list(self.attenuations) != sorted(self.attenuations, reverse=True):
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
    comma-separated list; other sections are ignored.  Every error is
    reported at once, each prefixed by ``origin``.
    """
    parser = _read_ini(text, origin)
    if not parser.has_section("sweep"):
        raise ConfigError(f"{origin}: missing [sweep] section")
    schema = _field_types(SweepPlan)
    names = {f.name for f, _ in schema}
    errors = [f"unknown key '{key}' in section [sweep]"
              for key in parser["sweep"] if key not in names]
    values = _read_section(parser["sweep"], schema, "sweep", errors)
    if errors:
        raise ConfigError("\n".join(f"{origin}: {e}" for e in errors))
    try:
        return SweepPlan(**values)
    except ConfigError as exc:
        raise ConfigError("\n".join(f"{origin}: {e}"
                                     for e in str(exc).splitlines())) from None


def load_sweep_plan(path) -> SweepPlan:
    return parse_sweep_plan(_read_utf8(path), origin=str(path))


def run_sweep(cfg: ExperimentConfig, plan: SweepPlan) -> list[SweepPoint]:
    """Collect counts at every attenuation of the plan.

    Each point gets its own stream namespace (point_index = position + 1),
    so sweeping never replays the randomness of a plain run or of another
    point, whatever order the points execute in.
    """
    points = []
    for i, attenuation in enumerate(plan.attenuations):
        point_cfg = with_attenuation(cfg, attenuation)
        if plan.max_bins is not None:
            point_cfg = replace(point_cfg, n_bins=plan.max_bins)
        counts = run_counts(point_cfg, point_index=i + 1,
                            target_triples=plan.target_triples)
        points.append(SweepPoint(config=point_cfg, point_index=i + 1,
                                 counts=counts))
    return points
