"""Report assembly: sweep points -> JSON / CSV analysis artifacts.

A report is a plain dict (JSON-serialisable, fully deterministic — no
timestamps, no environment echoes) with one entry per sweep point plus
the weighted line fit.  Each point carries its estimates, ``g2_law`` (the
g2 of the configured model's exact per-bin law at that point's config,
detector noise included) and, for the threshold-field model, its
ceiling.  The CSV mirror carries the same per-point table for
spreadsheet use.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

from . import pcsft, runner
from .analysis import (G2Estimate, InsufficientStatistics, background_subtract,
                       corrected_rate, heralded_g2, law_g2,
                       weighted_linear_fit)
from .coincidence import CoincidenceCounts
from .core import ExperimentConfig
from .streams import _replacing

__all__ = [
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "point_record",
    "build_report",
    "write_report_json",
    "write_report_csv",
]

REPORT_FORMAT = "g2-report"
REPORT_VERSION = 2

_CSV_COLUMNS = (
    "attenuation", "x_rate", "g2", "sigma", "upper_limit",
    "g2_raw", "sigma_raw", "g2_law", "pcsft_bound",
)


def point_record(cfg: ExperimentConfig, counts: CoincidenceCounts,
                 background: Optional[CoincidenceCounts] = None) -> dict:
    """Analyse one sweep point into a JSON-ready record.

    The raw estimate is always present.  With a background run the
    noise-subtracted estimate is added and becomes the headline ``g2``;
    uncertainties always come from the raw counts, which dominate the
    statistics.  ``x_rate`` is the efficiency-corrected signal rate.
    ``g2_law`` is what ``g2_raw`` converges to under ``cfg``'s model, and
    is left out where that law has no g2 (P(H,1) or P(H,2) is 0).
    """
    raw = heralded_g2(counts)
    record: dict = {
        "attenuation": cfg.optics.attenuation,
        "n_bins": counts.n_bins,
        "duration": counts.duration,
        "counts": counts.totals(),
        "g2_raw": raw.value,
        "sigma_raw": raw.sigma,
        "upper_limit_raw": raw.upper_limit,
    }

    headline = raw
    basis = counts
    if background is not None:
        corrected, clamped = background_subtract(counts, background)
        record["clamped_fields"] = list(clamped)
        record["counts_corrected"] = corrected.totals()
        try:
            estimate = heralded_g2(corrected)
        except InsufficientStatistics as exc:
            record["correction_note"] = (
                f"subtraction emptied a denominator, raw estimate kept: {exc}")
        else:
            # Statistical error belongs to the observed counts.
            headline = G2Estimate(value=estimate.value, sigma=raw.sigma,
                                  upper_limit=estimate.upper_limit)
            basis = corrected

    record["g2"] = headline.value
    record["sigma"] = headline.sigma
    record["upper_limit"] = headline.upper_limit
    record["background_subtracted"] = background is not None
    record["x_rate"] = corrected_rate(basis, cfg.optics)

    g2_law = law_g2(runner._law(cfg))
    if math.isfinite(g2_law):
        record["g2_law"] = g2_law
    if cfg.pcsft is not None:
        record["pcsft_bound"] = pcsft.bound_counts(
            cfg.pcsft.pulse_duration, cfg.detectors.bin_width,
            counts.N_1, counts.N_2, counts.duration)
    return record


def build_report(cfg: ExperimentConfig, records: Sequence[dict],
                 background: Optional[CoincidenceCounts] = None) -> dict:
    """Combine per-point records with the fit and notes (raw-only when no
    ``background`` was given to :func:`point_record`)."""
    records = list(records)
    report: dict = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "theory": cfg.theory.value,
        "points": records,
        "fit": None,
        "fit_note": None,
    }
    if background is None:
        report["note"] = "raw-only: no background run supplied"

    fit_points = [(r["x_rate"], r["g2"], r["sigma"]) for r in records]
    try:
        fit = weighted_linear_fit(fit_points)
        report["fit"] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "slope_sigma": fit.slope_sigma,
            "intercept_sigma": fit.intercept_sigma,
            "covariance": [list(row) for row in fit.covariance.tolist()],
            "reduced_chi2": fit.reduced_chi2,
            "dof": fit.dof,
        }
    except InsufficientStatistics:
        report["fit_note"] = (
            f"fit skipped: insufficient points ({len(fit_points)} < 3)")
    except ValueError as exc:
        report["fit_note"] = f"fit skipped: {exc}"
    limits = sum(1 for r in records if r.get("upper_limit"))
    if report["fit"] is not None and limits:
        report["fit_note"] = (f"{limits} of {len(records)} fitted points are "
                              "one-count upper limits (no triples)")
    return report


def write_report_json(report: dict, path) -> None:
    """The report as JSON, renamed to ``path`` only once complete."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with _replacing(path) as fh:
        fh.write((text + "\n").encode())


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(report: dict, path) -> None:
    """Per-point table mirroring the plotted quantities.

    The bytes are those of ``csv.writer`` (no field needs quoting).
    Renamed to ``path`` only once complete, as the JSON report is.
    """
    rows = [_CSV_COLUMNS]
    rows += [[_fmt(record.get(column)) for column in _CSV_COLUMNS]
             for record in report["points"]]
    with _replacing(path) as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in rows).encode())
