"""Joining index rows with indicator tables; correlations and plot emission.

Outputs are plain data: a scatter CSV with the fit in a comment header, or
a self-contained static SVG.  Both are byte-deterministic for fixed input,
so reruns can be diffed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, NamedTuple, Sequence

from . import _HOMES
from .errors import DomainError, SchemaError
from .formats import IndexRow, _csv_rows, _csv_text

__all__ = _HOMES["report"]


class IndicatorTable(NamedTuple):
    """(name, indicator) -> value records; the key pairs are unique."""

    values: dict[tuple[str, str], float]

    def get(self, name: str, indicator: str) -> float | None:
        return self.values.get((name, indicator))


class ScatterSeries(NamedTuple):
    """Labelled (x, y, name) points with an optional OLS fit attached."""

    label: str
    points: tuple[tuple[float, float, str], ...]
    fit: tuple[float, float, float] | None = None  # slope, intercept, pearson r
    x_label: str = ""
    y_label: str = ""


def read_indicators(source: str | Path | IO[str]) -> IndicatorTable:
    """Read an indicator CSV with header ``name,indicator,value``."""
    columns = ("name", "indicator", "value")
    values: dict[tuple[str, str], float] = {}
    for rownum, row in _csv_rows(source, columns, "bad header: expected name,indicator,value"):
        if len(row) != 3:
            raise SchemaError(f"row {rownum}: expected 3 fields, got {len(row)}")
        name, indicator, value_s = (c.strip() for c in row)
        key = (name, indicator)
        if key in values:
            raise SchemaError(f"row {rownum}: duplicate indicator row for ({name!r}, {indicator!r})")
        try:
            values[key] = float(value_s)
        except ValueError:
            raise SchemaError(f"row {rownum}: non-numeric value {value_s!r}") from None
    return IndicatorTable(values)


def ppb(birth_rate_per_1000: float) -> float:
    """Population per birth: inhabitants per newborn, 1000 / crude birth rate."""
    if not (math.isfinite(birth_rate_per_1000) and birth_rate_per_1000 > 0):
        raise DomainError(f"birth rate must be positive, got {birth_rate_per_1000!r}")
    return 1000.0 / birth_rate_per_1000


_TRANSFORMS = {
    None: lambda v: v,
    "log10": math.log10,
}


def _resolve(
    row: IndexRow, indicators: IndicatorTable | None, field_name: str
) -> float | None:
    """Value of an index column, an indicator, or the derived ppb field."""
    if field_name in IndexRow._fields and field_name != "name":
        return getattr(row, field_name)
    if indicators is None:
        return None
    if field_name == "ppb":
        rate = indicators.get(row.name, "birth_rate")
        if rate is None:
            return None
        return ppb(rate)
    return indicators.get(row.name, field_name)


def join(
    index_rows: Sequence[IndexRow],
    indicators: IndicatorTable | None,
    x_field: str,
    y_field: str,
    x_transform: str | None = None,
    y_transform: str | None = None,
) -> tuple[ScatterSeries, list[str]]:
    """Inner-join index rows with indicator values into a scatter series.

    Fields resolve against the index columns first, then the indicator
    names; ``ppb`` derives from the ``birth_rate`` indicator.  Names that
    cannot be resolved (or whose birth rate has no ppb, that hit a transform
    domain error, e.g. log10 of a non-positive value, or whose x or y is not
    finite) are reported back, never dropped silently.
    """
    if x_transform not in _TRANSFORMS or y_transform not in _TRANSFORMS:
        raise DomainError(f"unknown transform; supported: {sorted(k for k in _TRANSFORMS if k)}")
    fx = _TRANSFORMS[x_transform]
    fy = _TRANSFORMS[y_transform]
    points: list[tuple[float, float, str]] = []
    unmatched: list[str] = []
    for row in index_rows:
        try:
            x_raw = _resolve(row, indicators, x_field)
            y_raw = _resolve(row, indicators, y_field)
        except DomainError as exc:  # ppb of a birth rate that is not a finite number > 0
            unmatched.append(f"{row.name}: {exc}")
            continue
        if x_raw is None or y_raw is None:
            missing = x_field if x_raw is None else y_field
            unmatched.append(f"{row.name}: no value for {missing!r}")
            continue
        try:
            x = float(fx(x_raw))
            y = float(fy(y_raw))
        except (ValueError, DomainError):
            unmatched.append(f"{row.name}: transform domain error")
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            unmatched.append(f"{row.name}: undefined value")
            continue
        points.append((x, y, row.name))
    x_name = f"{x_transform}({x_field})" if x_transform else x_field
    y_name = f"{y_transform}({y_field})" if y_transform else y_field
    return ScatterSeries(f"{y_field} vs {x_field}", tuple(points), None, x_name, y_name), unmatched


def _centered(values: list[float]) -> tuple[list[float], float]:
    """values minus their mean, and the mean (fsum-based, so exactly rounded sums)."""
    mean = math.fsum(values) / len(values)
    return [v - mean for v in values], mean


def _dot(a: list[float], b: list[float]) -> float:
    return math.fsum(x * y for x, y in zip(a, b))


def pearson(points: Sequence[tuple]) -> float:
    """Pearson correlation of the first two coordinates of each point."""
    if len(points) < 3:
        raise DomainError("need at least three points")
    dx, _ = _centered([float(p[0]) for p in points])
    dy, _ = _centered([float(p[1]) for p in points])
    vx = _dot(dx, dx)
    vy = _dot(dy, dy)
    if vx == 0.0 or vy == 0.0:
        raise DomainError("zero variance in one coordinate")
    return _dot(dx, dy) / math.sqrt(vx * vy)


def linear_fit(points: Sequence[tuple]) -> tuple[float, float]:
    """Ordinary least squares (slope, intercept) of y on x."""
    if len(points) < 2:
        raise DomainError("need at least two points")
    dx, x_mean = _centered([float(p[0]) for p in points])
    dy, y_mean = _centered([float(p[1]) for p in points])
    vx = _dot(dx, dx)
    if vx == 0.0:
        raise DomainError("x takes a single value; slope is undefined")
    slope = _dot(dx, dy) / vx
    intercept = y_mean - slope * x_mean
    return slope, intercept


def fit_series(series: ScatterSeries) -> ScatterSeries:
    """Attach (slope, intercept, pearson r) computed from the series points."""
    slope, intercept = linear_fit(series.points)
    r = pearson(series.points)
    return ScatterSeries(series.label, series.points, (slope, intercept, r), series.x_label, series.y_label)


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def emit(series: ScatterSeries, format: str = "csv") -> bytes:
    """Render the series as ``csv`` or ``svg`` bytes; deterministic output."""
    if format == "csv":
        return _emit_csv(series)
    if format == "svg":
        return _emit_svg(series)
    raise DomainError(f"unknown format {format!r}")


def _emit_csv(series: ScatterSeries) -> bytes:
    head = f"# label={series.label}\n# n={len(series.points)}\n"
    if series.fit is not None:
        slope, intercept, r = series.fit
        head += f"# fit slope={_fmt(slope)} intercept={_fmt(intercept)} pearson_r={_fmt(r)}\n"
    rows = ((name, x, y) for x, y, name in series.points)
    return (head + _csv_text(["name", "x", "y"], rows, "%.10g,%.10g")).encode("utf-8")


_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _emit_svg(series: ScatterSeries) -> bytes:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(series.label)}</text>',
    ]
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    if series.points:
        xs = [p[0] for p in series.points]
        ys = [p[1] for p in series.points]
        x_lo, x_hi = _padded(min(xs), max(xs))
        y_lo, y_hi = _padded(min(ys), max(ys))

        def px(x: float) -> float:
            return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y: float) -> float:
            return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        parts.append(f'<clipPath id="plot"><rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}"/></clipPath>')
        if series.fit is not None:
            slope, intercept, _ = series.fit
            x1, x2 = x_lo, x_hi
            parts.append(
                f'<line clip-path="url(#plot)" x1="{px(x1):.2f}" y1="{py(slope * x1 + intercept):.2f}" '
                f'x2="{px(x2):.2f}" y2="{py(slope * x2 + intercept):.2f}" '
                f'stroke="crimson" stroke-width="1.5"/>'
            )
        for x, y, name in series.points:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="steelblue" '
                f'fill-opacity="0.8"><title>{_escape(name)}</title></circle>'
            )
        for value, anchor_x, anchor_y, align in (
            (x_lo, _ML, _SVG_H - _MB + 18, "middle"),
            (x_hi, _SVG_W - _MR, _SVG_H - _MB + 18, "middle"),
        ):
            parts.append(
                f'<text x="{anchor_x}" y="{anchor_y}" text-anchor="{align}" '
                f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
            )
        for value, ypos in ((y_lo, _MT + plot_h), (y_hi, _MT)):
            parts.append(
                f'<text x="{_ML - 6}" y="{ypos + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
            )
    else:
        parts.append(
            f'<text x="{_SVG_W / 2:.1f}" y="{_SVG_H / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">0 points</text>'
        )
    if series.x_label:
        parts.append(
            f'<text x="{_ML + plot_w / 2:.1f}" y="{_SVG_H - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(series.x_label)}</text>'
        )
    if series.y_label:
        cx, cy = 18, _MT + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 {cx} {cy:.1f})">{_escape(series.y_label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if lo == hi:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
