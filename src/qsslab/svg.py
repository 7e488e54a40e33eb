"""Dependency-free SVG line charts for trajectory families.

Deterministic output: identical input produces byte-identical SVG text.
"""
from __future__ import annotations

from .errors import UsageError

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)
_WIDTH, _HEIGHT = 640, 420  # pixels
_TICKS = 5  # per axis, ends included


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _nice_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def render_plot(series, title: str = "", xlabel: str = "t", ylabel: str = "value",
                shade: tuple[float, float] | None = None) -> str:
    """Render labelled (label, times, values) series as a standalone SVG.

    Axes are linear with a 5% data margin; one polyline per series; a legend
    in the top-right corner; ``shade`` optionally highlights an x-interval
    (used for collapse windows).
    """
    if not series:
        raise UsageError("render_plot needs at least one series")
    for label, times, values in series:
        if len(times) == 0 or len(values) == 0:
            raise UsageError(f"series {label!r} is empty")
        if len(times) != len(values):
            raise UsageError(f"series {label!r} has mismatched lengths")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise UsageError(f"series {label!r} times must be strictly increasing")

    x_lo = min(min(t for t in times) for _, times, _ in series)
    x_hi = max(max(t for t in times) for _, times, _ in series)
    y_lo = min(min(v for v in values) for _, _, values in series)
    y_hi = max(max(v for v in values) for _, _, values in series)
    x_pad = 0.05 * (x_hi - x_lo) or max(abs(x_lo), 1.0) * 0.05
    y_pad = 0.05 * (y_hi - y_lo) or max(abs(y_lo), 1.0) * 0.05
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    margin_l, margin_r, margin_t, margin_b = 60, 20, 34, 46
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if shade is not None:
        s0, s1 = max(shade[0], x_lo), min(shade[1], x_hi)
        if s1 > s0:
            parts.append(
                f'<rect x="{_fmt(sx(s0))}" y="{margin_t}" '
                f'width="{_fmt(sx(s1) - sx(s0))}" height="{plot_h}" '
                f'fill="#fde2c0" opacity="0.7"/>'
            )
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for x in _nice_ticks(x_lo + x_pad, x_hi - x_pad):
        px = _fmt(sx(x))
        parts.append(
            f'<line x1="{px}" y1="{margin_t + plot_h}" x2="{px}" '
            f'y2="{margin_t + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px}" y="{margin_t + plot_h + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(x)}</text>'
        )
    for y in _nice_ticks(y_lo + y_pad, y_hi - y_pad):
        py = _fmt(sy(y))
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{py}" x2="{margin_l}" y2="{py}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{py}" font-size="11" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif">{_fmt(y)}</text>'
        )
    for index, (label, times, values) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in zip(times, values))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
    # legend, top-right inside the plot box
    for index, (label, _, _) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        ly = margin_t + 14 + 16 * index
        lx = margin_l + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">{_escape(str(label))}</text>'
        )
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.6g}" y="20" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif">{_escape(title)}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.6g}" y="{_HEIGHT - 10}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.6g}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.6g})">{_escape(ylabel)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
