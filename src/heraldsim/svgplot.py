"""Minimal SVG rendering of an analysis report.

No plotting dependency: the figure is a few hundred SVG elements written
by hand.  Output is deterministic (fixed canvas, fixed decimal precision,
no timestamps) so repeated runs produce byte-identical files.

Structure consumed by tests and downstream tooling:

* ``<g id="points-raw">`` — raw estimates, circle markers + error bars;
* ``<g id="points-corrected">`` — background-subtracted estimates
  (squares), present only when the report carries corrected values;
* ``<polygon id="qm-band">`` — photon-model prediction band;
* ``<line id="fit-line">`` — weighted straight-line fit, when fitted;
* ``<g id="bounds-pcsft">`` — threshold-field ceiling ticks, when present.
"""

from __future__ import annotations

import math

from .streams import _replacing

__all__ = ["render_report", "write_report_svg"]

_WIDTH = 720.0
_HEIGHT = 540.0
_MARGIN_L = 80.0
_MARGIN_R = 30.0
_MARGIN_T = 30.0
_MARGIN_B = 60.0

_X_LABEL = "corrected signal rate (events/s)"
_Y_LABEL = "heralded g2(0)"


def _c(v: float) -> str:
    """Canvas coordinate with fixed precision (determinism)."""
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)

    def ticks(self, n: int = 5) -> list[float]:
        return [self.lo + (self.hi - self.lo) * i / (n - 1) for i in range(n)]


# The fields every point, band entry and fit must carry as numbers.
_POINT_NUMBERS = ("x_rate", "g2_raw", "sigma_raw", "g2", "sigma")
_BAND_NUMBERS = ("x", "lower", "upper")
_FIT_NUMBERS = ("slope", "intercept")


def _check_numbers(record, names: tuple[str, ...], where: str) -> None:
    """Raise ValueError unless ``record``'s ``names`` are finite numbers.

    ``record`` must be an object; a missing field raises KeyError; ``where``
    names the record in the message.  ``json.load`` reads NaN and
    ±Infinity, which no report holds.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{where} is not an object: {record!r}")
    for name in names:
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where}: {name} is not a number: {value!r}")
        if not math.isfinite(value):
            raise ValueError(
                f"{where}: {name} is not a finite number: {value!r}")


def _plotted_parts(report: dict) -> tuple[list[dict], list[dict], dict | None]:
    """The report's points, ``qm_band`` entries and ``fit``, checked.

    These are the fields the figure reads, with a point's ``pcsft_bound``
    when it has one.  A missing field raises KeyError; an empty or
    non-list ``points``, a non-list ``qm_band``, a point, band entry or fit
    that is not an object, and a field that is not a finite number raise
    ValueError, naming points and band entries by their 1-based position.
    """
    points = report.get("points", [])
    if not isinstance(points, list) or not points:
        raise ValueError("report has no points to plot")
    for number, point in enumerate(points, start=1):
        _check_numbers(point, _POINT_NUMBERS, f"point {number}")
        if "pcsft_bound" in point:
            _check_numbers(point, ("pcsft_bound",), f"point {number}")
    band = report.get("qm_band") or []
    if not isinstance(band, list):
        raise ValueError(f"qm_band is not a list: {band!r}")
    for number, entry in enumerate(band, start=1):
        _check_numbers(entry, _BAND_NUMBERS, f"qm_band entry {number}")
    fit = report.get("fit")
    if fit is not None:
        _check_numbers(fit, _FIT_NUMBERS, "fit")
    return points, band, fit


def render_report(report: dict) -> str:
    """Render a report dict (see heraldsim.report) to an SVG string."""
    points, band, fit = _plotted_parts(report)

    corrected = any(p.get("background_subtracted") for p in points)

    xs = [p["x_rate"] for p in points]
    bound_rows = [(p["x_rate"], p["pcsft_bound"]) for p in points
                  if "pcsft_bound" in p]
    y_candidates = [p["g2_raw"] + p["sigma_raw"] for p in points]
    y_candidates += [p["g2"] + p["sigma"] for p in points]
    y_candidates += [b["upper"] for b in band]
    y_candidates += [bound for _, bound in bound_rows]
    y_max = max(y_candidates)
    if y_max <= 0.0:
        y_max = 1.0

    sx = _Scale(0.0, 1.05 * max(xs), _MARGIN_L, _WIDTH - _MARGIN_R)
    sy = _Scale(0.0, 1.1 * y_max, _HEIGHT - _MARGIN_B, _MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_c(_WIDTH)}" '
        f'height="{_c(_HEIGHT)}" viewBox="0 0 {_c(_WIDTH)} {_c(_HEIGHT)}">',
        f'<rect x="0" y="0" width="{_c(_WIDTH)}" height="{_c(_HEIGHT)}" '
        'fill="white"/>',
    ]

    # Prediction band behind everything else.
    if band:
        samples = sorted(((b["x"], b["lower"], b["upper"]) for b in band))
        if len(samples) == 1:
            x0, lo, up = samples[0]
            samples = [(sx.lo, lo, up), (sx.hi, lo, up)]
        top = [f"{_c(sx(x))},{_c(sy(up))}" for x, _, up in samples]
        bottom = [f"{_c(sx(x))},{_c(sy(lo))}" for x, lo, _ in reversed(samples)]
        parts.append(f'<polygon id="qm-band" points="{" ".join(top + bottom)}" '
                     'fill="#9ecae1" fill-opacity="0.5" stroke="none"/>')

    # Axes.
    x_axis_y = sy(0.0)
    y_axis_x = sx(0.0)
    parts.append(f'<line id="axis-x" x1="{_c(y_axis_x)}" y1="{_c(x_axis_y)}" '
                 f'x2="{_c(_WIDTH - _MARGIN_R)}" y2="{_c(x_axis_y)}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line id="axis-y" x1="{_c(y_axis_x)}" y1="{_c(x_axis_y)}" '
                 f'x2="{_c(y_axis_x)}" y2="{_c(_MARGIN_T)}" '
                 'stroke="black" stroke-width="1"/>')
    for tick in sx.ticks():
        tx = sx(tick)
        parts.append(f'<line x1="{_c(tx)}" y1="{_c(x_axis_y)}" x2="{_c(tx)}" '
                     f'y2="{_c(x_axis_y + 5)}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_c(tx)}" y="{_c(x_axis_y + 18)}" '
                     'font-size="11" text-anchor="middle" '
                     f'font-family="sans-serif">{_tick_label(tick)}</text>')
    for tick in sy.ticks():
        ty = sy(tick)
        parts.append(f'<line x1="{_c(y_axis_x - 5)}" y1="{_c(ty)}" '
                     f'x2="{_c(y_axis_x)}" y2="{_c(ty)}" stroke="black" '
                     'stroke-width="1"/>')
        parts.append(f'<text x="{_c(y_axis_x - 8)}" y="{_c(ty + 4)}" '
                     'font-size="11" text-anchor="end" '
                     f'font-family="sans-serif">{_tick_label(tick)}</text>')
    parts.append(f'<text x="{_c((_MARGIN_L + _WIDTH - _MARGIN_R) / 2)}" '
                 f'y="{_c(_HEIGHT - 15)}" font-size="13" text-anchor="middle" '
                 f'font-family="sans-serif">{_X_LABEL}</text>')
    parts.append(f'<text x="20" y="{_c((_MARGIN_T + _HEIGHT - _MARGIN_B) / 2)}" '
                 'font-size="13" text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 20 '
                 f'{_c((_MARGIN_T + _HEIGHT - _MARGIN_B) / 2)})">{_Y_LABEL}</text>')

    # Fit line across the data range.
    if fit is not None:
        x0, x1 = min(xs), max(xs)
        y0 = fit["intercept"] + fit["slope"] * x0
        y1 = fit["intercept"] + fit["slope"] * x1
        parts.append(f'<line id="fit-line" x1="{_c(sx(x0))}" y1="{_c(sy(y0))}" '
                     f'x2="{_c(sx(x1))}" y2="{_c(sy(y1))}" stroke="#d62728" '
                     'stroke-width="1.5"/>')

    # Threshold-field ceiling ticks.
    if bound_rows:
        parts.append('<g id="bounds-pcsft" stroke="#7f7f7f" stroke-width="1.5">')
        for x, bound in bound_rows:
            bx, by = sx(x), sy(bound)
            parts.append(f'<line x1="{_c(bx - 6)}" y1="{_c(by)}" '
                         f'x2="{_c(bx + 6)}" y2="{_c(by)}"/>')
        parts.append("</g>")

    def error_bar(x: float, value: float, sigma: float, color: str) -> str:
        top = sy(min(value + sigma, sy.hi))
        bottom = sy(max(value - sigma, 0.0))
        return (f'<line x1="{_c(sx(x))}" y1="{_c(bottom)}" x2="{_c(sx(x))}" '
                f'y2="{_c(top)}" stroke="{color}" stroke-width="1"/>')

    # Raw estimates.
    parts.append('<g id="points-raw">')
    raw_color = "#7f7f7f" if corrected else "#1f77b4"
    for p in points:
        parts.append(error_bar(p["x_rate"], p["g2_raw"], p["sigma_raw"],
                               raw_color))
        parts.append(f'<circle cx="{_c(sx(p["x_rate"]))}" '
                     f'cy="{_c(sy(p["g2_raw"]))}" r="3.5" fill="{raw_color}"/>')
    parts.append("</g>")

    # Corrected estimates on top, when present.
    if corrected:
        parts.append('<g id="points-corrected">')
        for p in points:
            if not p.get("background_subtracted"):
                continue
            parts.append(error_bar(p["x_rate"], p["g2"], p["sigma"], "#1f77b4"))
            mx, my = sx(p["x_rate"]), sy(p["g2"])
            parts.append(f'<rect x="{_c(mx - 3)}" y="{_c(my - 3)}" width="6" '
                         'height="6" fill="#1f77b4"/>')
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report_svg(report: dict, path) -> None:
    """The report's figure as SVG, renamed to ``path`` only once complete."""
    svg = render_report(report).encode()  # first: a bad report leaves no file
    with _replacing(path) as fh:
        fh.write(svg)
