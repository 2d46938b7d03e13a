"""Command-line interface.

Subcommands::

    heraldsim simulate --config run.ini --out DIR [--seed N] [--bins N] [--threads N]
    heraldsim sweep    --config run.ini --sweep plan.ini --out DIR [...]
    heraldsim analyze  --counts a.json [b.json ...] [--background bg.json] --out DIR
    heraldsim plot     --report report.json --out figure.svg
    heraldsim bounds energy PULSE_DURATION BIN_WIDTH PULSE_ENERGY THRESHOLD_ENERGY
    heraldsim bounds counts PULSE_DURATION BIN_WIDTH N_1 N_2 DURATION

Exit codes: 0 success; 1 runtime or statistics failure (an estimator ran
out of counts, a file was malformed); 2 configuration error (bad INI,
invalid parameter, bad usage).  All artifacts are deterministic functions
of their inputs — rerunning a command overwrites files with identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import pcsft, report, runner, svgplot
from .analysis import InsufficientStatistics
from .coincidence import (CoincidenceCounts, read_counts_json, segment_table,
                          write_counts_json, write_segment_csv)
from .core import (ConfigError, ExperimentConfig, config_from_dict,
                   config_to_dict, load_config)
from .streams import SparseCsvWriter, StreamWriter

__all__ = ["main"]


def _run_parser(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand that runs the sampler, with the options both share."""
    run = sub.add_parser(name, help=help)
    run.add_argument("--config", required=True, help="experiment INI file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the configured seed")
    run.add_argument("--bins", type=int, default=None,
                     help="override the configured number of bins (sweep: "
                     "the per-point bin budget)")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect (every "
                     "run makes its segments in order on one thread)")
    return run


def _add_simulate(sub) -> None:
    _run_parser(sub, "simulate", "run one configuration, write click "
                "streams and coincidence counts")


def _add_sweep(sub) -> None:
    swp = _run_parser(sub, "sweep", "run an attenuation sweep and write "
                      "per-point counts plus the analysis report")
    swp.add_argument("--sweep", required=True, help="sweep plan INI file")
    swp.add_argument("--background", default=None,
                     help="counts JSON from a source-off run")


def _add_analyze(sub) -> None:
    ana = sub.add_parser("analyze", help="build a report from stored "
                         "counts files")
    ana.add_argument("--counts", required=True, nargs="+",
                     help="counts JSON files, one per sweep point")
    ana.add_argument("--background", default=None,
                     help="counts JSON from a source-off run")
    ana.add_argument("--out", required=True, help="output directory")


def _add_plot(sub) -> None:
    plo = sub.add_parser("plot", help="render a report to SVG")
    plo.add_argument("--report", required=True, help="report JSON file")
    plo.add_argument("--out", required=True, help="output SVG path")


def _add_bounds(sub) -> None:
    bnd = sub.add_parser("bounds", help="print a threshold-field ceiling")
    bnd_sub = bnd.add_subparsers(dest="bound_kind", required=True)
    be = bnd_sub.add_parser("energy", help="ceiling from pulse energy")
    for name in ("pulse_duration", "bin_width", "pulse_energy",
                 "threshold_energy"):
        be.add_argument(name, type=float)
    bc = bnd_sub.add_parser("counts", help="ceiling from observed singles")
    for name, kind in (("pulse_duration", float), ("bin_width", float),
                       ("counts_1", int), ("counts_2", int),
                       ("duration", float)):
        bc.add_argument(name, type=kind)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand or only ``command``.

    A parser built for one command parses that command's arguments, and
    prints its help and errors, exactly as the full parser does; it only
    skips building the subcommands that will not run.
    """
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Heralded single-photon source simulator and analyser.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (add, _) in _COMMANDS.items():
        if command in (None, name):
            add(sub)
    if command is not None:
        # The usage line names every command, as the full parser's does.
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    return parser


def _load_cfg(args) -> ExperimentConfig:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    if args.bins is not None and args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _read_background(path: Optional[str], points) -> Optional[CoincidenceCounts]:
    """The run at ``path`` (or None), once the report can analyse ``points``."""
    background = None if path is None else read_counts_json(path)[0]
    for label, cfg, bin_width in points:
        if min(cfg.optics.eta_1, cfg.optics.eta_2) <= 0.0:
            raise ConfigError(f"{label}: the corrected rate needs eta_1 > 0 "
                              "and eta_2 > 0")
        if background is not None and background.bin_width != bin_width:
            raise ConfigError(f"{label} and {path} have different bin widths")
    return background


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    if args.bins is not None:
        cfg = replace(cfg, n_bins=args.bins)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # Each block of segments' bitmaps and click rows is written as it
    # arrives, so memory does not grow with the run length; its rows are
    # the censuses the segments placed.
    bin_width = cfg.detectors.bin_width
    with StreamWriter(out / "streams.pstm", cfg.n_bins, bin_width) as writer, \
            SparseCsvWriter(out / "clicks.csv") as clicks:
        def rows():
            lo = 0
            for block, part, clicked in runner._placed_segments(cfg):
                writer.append(part)
                clicks.append(lo, clicked)
                lo += part.n_bins
                yield from block
        counts = CoincidenceCounts(bin_width, segment_table(rows()))

    write_segment_csv(counts, out / "counts.csv")
    write_counts_json(counts, out / "counts.json",
                      config=config_to_dict(cfg))

    totals = counts.totals()
    print(f"simulated {cfg.n_bins} bins ({counts.duration:.6g} s) "
          f"under {cfg.theory.value}")
    print("  " + "  ".join(f"{k}={totals[k]}" for k in
                           ("N_H", "N_1", "N_2", "N_H1", "N_H2", "N_12",
                            "N_H12")))
    print(f"wrote {out / 'streams.pstm'}, {out / 'clicks.csv'}, "
          f"{out / 'counts.csv'}, {out / 'counts.json'}")
    return 0


def _write_report(points: Iterable[tuple], background, out: Path) -> int:
    """Write and summarise the report of (label, config, counts) points.

    A point without a g2 estimate is named on stderr and left out (exit 1).
    ``out`` is created only once every point has been read.
    """
    records = []
    failures = 0
    first = None
    for label, cfg, counts in points:
        first = first or cfg
        try:
            records.append(report.point_record(cfg, counts,
                                               background=background))
        except InsufficientStatistics as exc:
            failures += 1
            print(f"{label}: {exc}", file=sys.stderr)

    rep = report.build_report(first, records, background=background)
    out.mkdir(parents=True, exist_ok=True)
    report.write_report_json(rep, out / "report.json")
    report.write_report_csv(rep, out / "report.csv")

    for record in records:
        limit = " (upper limit)" if record["upper_limit"] else ""
        print(f"attenuation {record['attenuation']:g}: "
              f"g2 = {record['g2']:.6g} +/- {record['sigma']:.6g}{limit}  "
              f"x = {record['x_rate']:.6g} /s")
    if rep["fit"] is not None:
        fit = rep["fit"]
        print(f"fit: slope = {fit['slope']:.6g} +/- {fit['slope_sigma']:.6g}, "
              f"intercept = {fit['intercept']:.6g} +/- "
              f"{fit['intercept_sigma']:.6g}, "
              f"reduced chi2 = {fit['reduced_chi2']:.4g} (dof {fit['dof']})")
    if rep["fit_note"]:
        print(rep["fit_note"])
    print(f"wrote {out / 'report.json'}, {out / 'report.csv'}")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    plan = runner.load_sweep_plan(args.sweep)
    if args.bins is not None:
        plan = replace(plan, max_bins=args.bins)
    background = _read_background(
        args.background, [(args.config, cfg, cfg.detectors.bin_width)])
    out = Path(args.out)

    def written():
        for point in runner.run_sweep(cfg, plan):
            out.mkdir(parents=True, exist_ok=True)
            stem = out / f"point_{point.point_index:03d}"
            write_segment_csv(point.counts, stem.with_suffix(".csv"))
            write_counts_json(point.counts, stem.with_suffix(".json"),
                              config=config_to_dict(point.config))
            yield (f"point {point.point_index} "
                   f"(attenuation {point.attenuation})",
                   point.config, point.counts)

    return _write_report(written(), background, out)


def cmd_analyze(args) -> int:
    stored = []
    for path in args.counts:
        counts, cfg_dict = read_counts_json(path)
        if cfg_dict is None:
            raise ConfigError(
                f"{path}: counts file carries no configuration echo; "
                "reanalysis needs the generating parameters")
        try:
            cfg = config_from_dict(cfg_dict)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        stored.append((path, cfg, counts))
    background = _read_background(args.background, [
        (path, cfg, counts.bin_width) for path, cfg, counts in stored])
    return _write_report(stored, background, Path(args.out))


def cmd_plot(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
        if not isinstance(rep, dict) or rep.get("format") != report.REPORT_FORMAT:
            raise ValueError(f"not a {report.REPORT_FORMAT} file")
        svgplot.write_report_svg(rep, args.out)
    except KeyError as exc:
        raise ValueError(f"{args.report}: missing key {exc}") from None
    except ValueError as exc:  # not UTF-8 JSON, or a malformed report
        raise ValueError(f"{args.report}: {exc}") from None
    print(f"wrote {args.out}")
    return 0


def cmd_bounds(args) -> int:
    if args.bound_kind == "energy":
        value = pcsft.bound_energy(args.pulse_duration, args.bin_width,
                                   args.pulse_energy, args.threshold_energy)
    else:
        value = pcsft.bound_counts(args.pulse_duration, args.bin_width,
                                   args.counts_1, args.counts_2,
                                   args.duration)
    print(repr(value))
    return 0


# Each subcommand: how to add its parser, and what runs it.
_COMMANDS = {
    "simulate": (_add_simulate, cmd_simulate),
    "sweep": (_add_sweep, cmd_sweep),
    "analyze": (_add_analyze, cmd_analyze),
    "plot": (_add_plot, cmd_plot),
    "bounds": (_add_bounds, cmd_bounds),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the named command's parser is built; anything else (help, no
    # command, an unknown one) goes to the full parser and its messages.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
