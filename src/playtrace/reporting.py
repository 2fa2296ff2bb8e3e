"""Report output: opportunity JSON and a Gantt-style SVG timeline.

Both writers are deterministic: the same inputs produce byte-identical
files, which makes reports diffable and cacheable.
"""

from __future__ import annotations

import re
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping, Sequence

from .geometry import MAX_SCREEN_COORD_PX, Rect
from .jsonin import dump_json, integer, load_json, non_empty_string, numbers
from .lifespan import TestOpportunity, opportunity_sort_key
from .metrics import VideoMetrics

# lane colors, cycled by lane index
PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#9c755f",
)

CHART_WIDTH_PX = 1000
_MARGIN_LEFT = 150
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 45
_LANE_HEIGHT = 30
_LANE_GAP = 10


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _lane_order(opportunities: Sequence[TestOpportunity]) -> list[str]:
    first_seen: dict[str, int] = {}
    for o in opportunities:
        cur = first_seen.get(o.trackable_id)
        if cur is None or o.start_ms < cur:
            first_seen[o.trackable_id] = o.start_ms
    return sorted(first_seen, key=lambda tid: (first_seen[tid], tid))


def _tick_step_ms(duration_ms: int) -> int:
    # aim for 5 to 12 labeled ticks with a round second step
    for step_s in (1, 2, 5, 10, 15, 30, 60, 120, 300):
        if duration_ms / (step_s * 1000.0) <= 12:
            return step_s * 1000
    return 600_000


def render_gantt(opportunities: Sequence[TestOpportunity], end_ms: int, start_ms: int = 0) -> str:
    """Timeline SVG over [start_ms, end_ms]: one lane per trackable, one block per opportunity.

    Block x extents are linear in time over the chart width, so block
    widths are proportional to opportunity durations.  Blocks carry
    class="block" plus data attributes with their raw timing, which keeps
    the output machine-checkable.
    """
    if end_ms <= start_ms:
        raise ValueError(f"the chart must end after it starts, got [{start_ms}, {end_ms}] ms")
    lanes = _lane_order(opportunities)
    lane_index = {tid: i for i, tid in enumerate(lanes)}
    height = _MARGIN_TOP + max(1, len(lanes)) * (_LANE_HEIGHT + _LANE_GAP) + _MARGIN_BOTTOM
    width = _MARGIN_LEFT + CHART_WIDTH_PX + _MARGIN_RIGHT
    scale = CHART_WIDTH_PX / (end_ms - start_ms)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT}" y="20" font-size="14">Test opportunities over time</text>'
    )
    axis_y = height - _MARGIN_BOTTOM + 10
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + CHART_WIDTH_PX}" '
        f'y2="{axis_y}" stroke="#333" stroke-width="1"/>'
    )
    step = _tick_step_ms(end_ms - start_ms)
    t = -(-start_ms // step) * step  # the first whole step at or after the start
    while t <= end_ms:
        x = _MARGIN_LEFT + (t - start_ms) * scale
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{axis_y}" x2="{_fmt(x)}" y2="{axis_y + 5}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{axis_y + 18}" text-anchor="middle">{t // 1000}s</text>'
        )
        t += step
    for tid in lanes:
        y = _MARGIN_TOP + lane_index[tid] * (_LANE_HEIGHT + _LANE_GAP)
        parts.append(
            f'<text x="{_MARGIN_LEFT - 10}" y="{y + _LANE_HEIGHT / 2 + 4:.0f}" '
            f'text-anchor="end">{_escape(tid)}</text>'
        )
    ordered = sorted(opportunities, key=opportunity_sort_key)
    for o in ordered:
        idx = lane_index[o.trackable_id]
        y = _MARGIN_TOP + idx * (_LANE_HEIGHT + _LANE_GAP)
        x = _MARGIN_LEFT + (o.start_ms - start_ms) * scale
        w = (o.end_ms - o.start_ms) * scale
        color = PALETTE[idx % len(PALETTE)]
        box = o.stable_box
        label = f"{box.width:.0f}x{box.height:.0f} px"
        parts.append(
            f'<rect class="block" data-id="{_escape(o.trackable_id)}" '
            f'data-start-ms="{o.start_ms}" data-end-ms="{o.end_ms}" '
            f'x="{_fmt(x)}" y="{y}" width="{_fmt(w)}" height="{_LANE_HEIGHT}" '
            f'fill="{color}" fill-opacity="0.85" stroke="#222" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 4)}" y="{y + _LANE_HEIGHT / 2 + 4:.0f}" '
            f'font-size="10" fill="#111">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# the characters XML 1.0 forbids: controls other than tab and line ends, surrogates, U+FFFE, U+FFFF
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# markup characters, and the tab and line ends a parser would turn into spaces or line feeds,
# as references; a backslash doubled, so that no id reads as another's Python escape
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                           "\t": "&#9;", "\n": "&#10;", "\r": "&#13;", "\\": "\\\\"})


def _escape(s: str) -> str:
    """s as XML text or attribute value, one per s: a parser reads s back, forbidden
    characters as their Python escapes and each backslash doubled."""
    return _XML_FORBIDDEN.sub(lambda m: repr(m[0])[1:-1], s.translate(_XML_TEXT))


def opportunities_to_dict(
    opportunities: Sequence[TestOpportunity],
    params: Mapping[str, Any],
    metrics: VideoMetrics | None = None,
) -> dict:
    ordered = sorted(opportunities, key=opportunity_sort_key)
    out: dict[str, Any] = {
        "opportunities": [
            {
                "id": o.trackable_id,
                "box": o.stable_box.as_list(),
                "start_ms": o.start_ms,
                "end_ms": o.end_ms,
            }
            for o in ordered
        ],
        "params": dict(params),
    }
    if metrics is not None:
        out["metrics"] = asdict(metrics)
    return out


def write_report(
    opportunities: Sequence[TestOpportunity],
    params: Mapping[str, Any],
    path: str | Path,
    metrics: VideoMetrics | None = None,
) -> None:
    dump_json(opportunities_to_dict(opportunities, params, metrics), path)


def load_report(path: str | Path) -> tuple[list[TestOpportunity], dict]:
    """Read back the opportunities and params of a report written by write_report.

    The opportunities are a list; each has a non-empty string id and a box
    whose corners lie within MAX_SCREEN_COORD_PX, the box stage's bound.
    """
    d = load_json(path)
    opps = []
    try:
        if not isinstance(d["opportunities"], list):
            raise ValueError(f"opportunities must be a list, got {d['opportunities']!r}")
        for i, od in enumerate(d["opportunities"]):
            box = numbers(od["box"], 4, f"opportunity {i}: box").tolist()
            if not max(map(abs, box)) <= MAX_SCREEN_COORD_PX:
                raise ValueError(f"opportunity {i}: box corners must lie within "
                                 f"±{MAX_SCREEN_COORD_PX:g} px, got {box}")
            start_ms = integer(od["start_ms"], f"opportunity {i}: start_ms")
            end_ms = integer(od["end_ms"], f"opportunity {i}: end_ms")
            if start_ms > end_ms:
                raise ValueError(f"opportunity {i}: start_ms {start_ms} is after end_ms {end_ms}")
            tid = non_empty_string(od["id"], f"opportunity {i}: id")
            opps.append(TestOpportunity(tid, Rect(*box), start_ms, end_ms))
        params = d["params"]
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, got {params!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed report: {exc}") from None
    return opps, params
