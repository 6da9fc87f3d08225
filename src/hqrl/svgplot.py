"""Minimal SVG emitters for route maps and training curves."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .env import VrpInstance, write_atomic

COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH, HEIGHT, PAD = 480, 480, 40


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _document(body: list[str], width: int = WIDTH, height: int = HEIGHT) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head, f'<rect width="{width}" height="{height}" fill="white"/>',
                      *body, "</svg>"]) + "\n"


def emit_route_svg(instance: VrpInstance, routes: dict[int, list[int]],
                   path: str | Path | None = None) -> str:
    """Depot, labelled customers and one closed colored tour per vehicle."""
    def px(p: np.ndarray) -> tuple[float, float]:
        # unit square to pixels, y flipped so north is up
        return (PAD + p[0] * (WIDTH - 2 * PAD), HEIGHT - PAD - p[1] * (HEIGHT - 2 * PAD))

    body: list[str] = []
    for v in sorted(routes):
        cities = routes[v]
        if not cities:
            continue
        color = COLORS[v % len(COLORS)]
        points = [instance.depot] + [instance.customers[c] for c in cities] + [instance.depot]
        coords = [px(p) for p in points]
        joined = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        body.append(f'<polyline points="{joined}" fill="none" stroke="{color}" '
                    f'stroke-width="2" opacity="0.85"/>')
        for (x0, y0), (x1, y1) in zip(coords, coords[1:]):
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            ang = np.degrees(np.arctan2(y1 - y0, x1 - x0))
            body.append(f'<path d="M {mx:.1f} {my:.1f} l -8 -3 l 0 6 z" fill="{color}" '
                        f'transform="rotate({ang:.1f} {mx:.1f} {my:.1f})"/>')

    for c, p in enumerate(instance.customers):
        x, y = px(p)
        body.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="#333"/>')
        body.append(f'<text x="{x + 7:.1f}" y="{y - 7:.1f}" font-size="11" '
                    f'font-family="sans-serif">{c}</text>')

    dx, dy = px(instance.depot)
    star = " ".join(
        f"{dx + r * np.cos(a):.1f},{dy + r * np.sin(a):.1f}"
        for k in range(10)
        for r, a in [((9 if k % 2 == 0 else 4), -np.pi / 2 + k * np.pi / 5)]
    )
    body.append(f'<polygon points="{star}" fill="#e6b800" stroke="#806600"/>')

    doc = _document(body)
    if path is not None:
        write_atomic(path, doc)
    return doc


def moving_average(values: np.ndarray, window: int = 10) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.array([values[max(0, i - window + 1):i + 1].mean() for i in range(values.size)])


def emit_curve_svg(series: list[tuple[str, np.ndarray]], path: str | Path | None = None,
                   title: str = "reward (10-episode moving average)",
                   window: int = 10) -> str:
    """Smoothed reward curves with axes and a legend; one line per series."""
    if not series or any(len(vals) == 0 for _, vals in series):
        raise ValueError("every series needs at least one value")
    smoothed = [(label, moving_average(np.asarray(vals, dtype=float), window))
                for label, vals in series]
    ymin = min(s.min() for _, s in smoothed)
    ymax = max(s.max() for _, s in smoothed)
    if ymax - ymin < 1e-12:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    xmax = max(len(s) for _, s in smoothed) - 1

    def x_px(i: float) -> float:
        return PAD + (i / max(xmax, 1)) * (WIDTH - 2 * PAD)

    def y_px(v: float) -> float:
        return HEIGHT - PAD - (v - ymin) / (ymax - ymin) * (HEIGHT - 2 * PAD)

    body = [
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{_xml_escape(title)}</text>',
        f'<line x1="{PAD}" y1="{HEIGHT - PAD}" x2="{WIDTH - PAD}" y2="{HEIGHT - PAD}" '
        f'stroke="#444"/>',
        f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{HEIGHT - PAD}" stroke="#444"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = frac * xmax
        yv = ymin + frac * (ymax - ymin)
        body.append(f'<text x="{x_px(xv):.1f}" y="{HEIGHT - PAD + 16}" text-anchor="middle" '
                    f'font-size="10" font-family="sans-serif">{xv:.0f}</text>')
        body.append(f'<text x="{PAD - 6}" y="{y_px(yv) + 3:.1f}" text-anchor="end" '
                    f'font-size="10" font-family="sans-serif">{yv:.1f}</text>')

    for idx, (label, s) in enumerate(smoothed):
        color = COLORS[idx % len(COLORS)]
        pts = " ".join(f"{x_px(i):.1f},{y_px(v):.1f}" for i, v in enumerate(s))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = PAD + 14 * idx
        body.append(f'<line x1="{WIDTH - PAD - 110}" y1="{ly}" x2="{WIDTH - PAD - 90}" '
                    f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{WIDTH - PAD - 84}" y="{ly + 4}" font-size="11" '
                    f'font-family="sans-serif">{_xml_escape(label)}</text>')

    doc = _document(body)
    if path is not None:
        write_atomic(path, doc)
    return doc
