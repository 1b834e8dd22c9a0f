"""Deterministic report serialization: JSON, CSV, and standalone SVG.

Byte-identical output is a contract here: floats serialize via Python's
shortest round-trip repr, rationals as "num/den" strings, keys in fixed
insertion order, and the SVG renderer formats coordinates with a fixed
precision.  Nothing here depends on thread count, wall clock, or locale.

This is the one place a report value is written.  Records hold their
`Fraction`s as such and are handed over whole: `json_report` walks
dicts, lists and each record's `to_json_dict`, and it and `csv_report`
write every `Fraction` with `_rational`.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA_JSON = "shortmean-report/1"
SCHEMA_CSV = "shortmean-csv/1"


def _rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return _rational(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "to_json_dict"):
        return _jsonable(obj.to_json_dict())
    return obj


def json_report(payload: dict) -> bytes:
    """Schema-stamped JSON, one trailing newline, deterministic bytes."""
    doc = {"schema": SCHEMA_JSON}
    doc.update(_jsonable(payload))
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()


def _cell(v):
    if isinstance(v, Fraction):
        return _rational(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_report(header, rows) -> bytes:
    """CSV with a versioned schema comment line and a fixed header."""
    lines = [f"# schema: {SCHEMA_CSV}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# SVG line plots (standalone, no external assets)

_SVG_COLORS = ["#1f4e8c", "#b03a2e", "#1e8449", "#9a7d0a", "#6c3483"]
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo, hi):
    """Decade tick positions between lo and hi (both log10 values)."""
    import math

    first = math.ceil(lo - 1e-9)
    return [d for d in range(first, math.floor(hi + 1e-9) + 1)]


def svg_plot(series, title, xlabel, ylabel) -> bytes:
    """Log-log polyline plot.

    `series` is a list of (label, [(x, y), ...]) with positive coordinates;
    raises ValueError on empty input rather than writing a useless file.
    """
    import math

    series = [(label, [(x, y) for x, y in pts if x > 0 and y > 0])
              for label, pts in series]
    series = [(label, pts) for label, pts in series if pts]
    if not series:
        raise ValueError("nothing to plot")
    xs = [math.log10(x) for _, pts in series for x, _ in pts]
    ys = [math.log10(y) for _, pts in series for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(lx):
        return _ML + (lx - x0) / (x1 - x0) * pw

    def py(ly):
        return _MT + (y1 - ly) / (y1 - y0) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>'
    )
    # frame
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="black"/>'
    )
    for d in _ticks(x0, x1):
        x = px(d)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" '
            f'y2="{_MT + ph + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MT + ph + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">1e{d}</text>'
        )
    for d in _ticks(y0, y1):
        y = py(d)
        out.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">1e{d}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, pts) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join(
            f"{px(math.log10(x)):.2f},{py(math.log10(y)):.2f}" for x, y in pts
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_ML + pw - 6}" y="{_MT + 16 + 14 * i}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()
