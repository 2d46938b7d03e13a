"""Output checks: every artifact a workload writes is verified, not trusted.

Each check returns a list of failure messages (empty when the output is
correct).  Model checks compare against the exact qm law at 5 sigma; the
pcsft route mismatch (ROADMAP item 2) is reported by
:func:`pcsft_herald_z` as a diagnostic and never gated.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from heraldsim import qm
from heraldsim.coincidence import COUNT_FIELDS, accumulate, read_segment_csv
from heraldsim.core import ExperimentConfig, config_from_dict
from heraldsim.pcsft import pattern_probabilities
from heraldsim.runner import load_sweep_plan
from heraldsim.streams import StreamFormatError, read_streams

Z_LIMIT = 5.0
SVG_IDS = ("points-raw", "qm-band", "fit-line", "axis-x", "axis-y")
SVG_IDS_PCSFT = SVG_IDS + ("bounds-pcsft",)


def digest(target: Path) -> str:
    """sha256 of a file, or of the relative names and bytes below a directory."""
    h = hashlib.sha256()
    if target.is_file():
        h.update(target.read_bytes())
        return h.hexdigest()
    for path in sorted(p for p in target.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(target)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def count_invariants(totals: dict, where: str) -> list[str]:
    """Pair and triple counts bounded by their parts, singles by bins."""
    n = totals["n_bins"]
    bounds = {
        "N_H12": min(totals["N_H1"], totals["N_H2"], totals["N_12"]),
        "N_H1": min(totals["N_H"], totals["N_1"]),
        "N_H2": min(totals["N_H"], totals["N_2"]),
        "N_12": min(totals["N_1"], totals["N_2"]),
        "N_H": n, "N_1": n, "N_2": n,
    }
    return [f"{where}: {key}={totals[key]} exceeds {bound}"
            for key, bound in bounds.items()
            if not 0 <= totals[key] <= bound]


def _z_failures(totals: dict, expected: dict, n_bins: int,
                where: str) -> list[str]:
    out = []
    for key in COUNT_FIELDS:
        mean = expected[key]
        sigma = math.sqrt(max(mean * (1.0 - mean / n_bins), 1.0))
        z = (totals[key] - mean) / sigma
        if abs(z) > Z_LIMIT:
            out.append(f"{where}: {key}={totals[key]} is {z:+.1f} sigma "
                       f"from the exact qm law ({mean:.1f})")
    return out


def check_simulate(out: Path, cfg: ExperimentConfig) -> list[str]:
    """counts.json against a recount of streams.pstm, clicks.csv rows,
    invariants and, for qm, the exact law."""
    try:
        payload = json.loads((out / "counts.json").read_text())
        streams = read_streams(out / "streams.pstm")
        with open(out / "clicks.csv", "rb") as fh:
            click_rows = sum(1 for _ in fh) - 1
    except (OSError, ValueError, StreamFormatError) as exc:
        return [f"simulate: unreadable artifact: {exc}"]
    totals = {k: payload.get(k) for k in ("n_bins",) + COUNT_FIELDS}
    recount = accumulate(streams, segment_bins=cfg.segment_bins).totals()
    failures = [f"simulate: counts.json {key}={totals[key]} but streams.pstm "
                f"recounts {recount[key]}"
                for key in recount if totals[key] != recount[key]]
    if failures:
        return failures
    singles = totals["N_H"] + totals["N_1"] + totals["N_2"]
    if click_rows != singles:
        failures.append(f"simulate: clicks.csv has {click_rows} rows, "
                        f"N_H + N_1 + N_2 = {singles}")
    failures += count_invariants(totals, "simulate")
    if cfg.theory.value == "qm":
        failures += _z_failures(totals, qm.expected_counts(cfg, totals["n_bins"]),
                                totals["n_bins"], "simulate")
    return failures


def check_sweep(out: Path, plan_path: Path) -> list[str]:
    """Per-point invariants, csv rows against json totals, stop rules, the
    report fit and, for qm, each point's totals and g2 against the exact
    law.  The plan must set max_bins."""
    plan = load_sweep_plan(plan_path)
    budget = plan.max_bins
    failures = check_report(out / "report.json")
    try:
        report = json.loads((out / "report.json").read_text())
        points = [json.loads((out / f"point_{i:03d}.json").read_text())
                  for i in range(1, len(plan.attenuations) + 1)]
    except (OSError, ValueError) as exc:
        return failures + [f"sweep: unreadable artifact: {exc}"]
    records = {r["attenuation"]: r for r in report.get("points", [])}
    for i, payload in enumerate(points, start=1):
        where = f"sweep point {i}"
        failures += count_invariants(payload, where)
        rows = read_segment_csv(out / f"point_{i:03d}.csv",
                                payload["bin_width"]).totals()
        failures += [f"{where}: json {key}={payload[key]} but its csv rows "
                     f"sum to {rows[key]}" for key in rows
                     if payload[key] != rows[key]]
        n = payload["n_bins"]
        if n > budget or (n < budget and payload["N_H12"] < plan.target_triples):
            failures.append(f"{where}: used {n} of {budget} bins with "
                            f"N_H12={payload['N_H12']} < target "
                            f"{plan.target_triples}")
        cfg = config_from_dict(payload["config"])
        record = records.get(cfg.optics.attenuation)
        if record is None:
            failures.append(f"{where}: missing from report.json")
        if cfg.theory.value != "qm":
            continue
        failures += _z_failures(payload, qm.expected_counts(cfg, n), n, where)
        if record is not None and not record["upper_limit_raw"]:
            exact = qm.heralded_g2_exact(cfg)
            z = (record["g2_raw"] - exact) / record["sigma_raw"]
            if abs(z) > Z_LIMIT:
                failures.append(f"{where}: g2 {record['g2_raw']:.4g} is "
                                f"{z:+.1f} sigma from exact {exact:.4g}")
    return failures


def check_report(path: Path) -> list[str]:
    """A report.json that carries a fit."""
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    return [] if report.get("fit") is not None else [f"{path.name}: no fit"]


def check_svg(path: Path, theory: str) -> list[str]:
    """An SVG with every documented element id of its theory."""
    try:
        svg = path.read_text()
    except OSError as exc:
        return [f"{path.name}: unreadable: {exc}"]
    ids = SVG_IDS_PCSFT if theory == "pcsft" else SVG_IDS
    return [f"{path.name}: lacks id={name!r}"
            for name in ids if f'id="{name}"' not in svg]


def pcsft_herald_z(out: Path, cfg: ExperimentConfig) -> float:
    """z-score of the click route's herald singles against the continuum law.

    Diagnostic only: the click route monitors the walk on the Euler grid
    and misses crossings (ROADMAP item 2), so this sits well below zero
    until that is fixed.
    """
    totals = json.loads((out / "counts.json").read_text())
    p_h = float(pattern_probabilities(cfg)[4:].sum())
    n = totals["n_bins"]
    return (totals["N_H"] - n * p_h) / math.sqrt(n * p_h * (1.0 - p_h))
