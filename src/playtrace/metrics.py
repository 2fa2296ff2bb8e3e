"""Stability metrics over test opportunities.

Quantifies how repeatable an analysis is across several runs of the same
recording: how long opportunities live, how well runs agree on them, and how
much screen area the agreed-on regions share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import Rect, rect_area, rect_intersect
from .lifespan import TestOpportunity, common_box, cross_run_matches


@dataclass(frozen=True)
class VideoMetrics:
    avg_plane_duration_s: float
    opportunity_count: int
    mutual_stability: float | None        # None with fewer than two runs
    mean_overlap_area_ratio: float | None


def interval_iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    """Temporal intersection-over-union of two [start, end] windows in ms."""
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union if union > 0 else 0.0


def box_iou(a: Rect, b: Rect) -> float:
    inter = rect_area(rect_intersect(a, b))
    union = rect_area(a) + rect_area(b) - inter
    return inter / union if union > 0 else 0.0


def _similarity(a: TestOpportunity, b: TestOpportunity) -> float:
    t = interval_iou((a.start_ms, a.end_ms), (b.start_ms, b.end_ms))
    return t * box_iou(a.stable_box, b.stable_box)


def _match_pairs(
    run_a: Sequence[TestOpportunity], run_b: Sequence[TestOpportunity]
) -> list[tuple[TestOpportunity, TestOpportunity]]:
    """One-to-one matching within each trackable, best temporal overlap first."""
    scored = []
    for i, a in enumerate(run_a):
        for j, b in enumerate(run_b):
            if a.trackable_id != b.trackable_id:
                continue
            t = interval_iou((a.start_ms, a.end_ms), (b.start_ms, b.end_ms))
            if t > 0.0:
                scored.append((-t, i, j))
    scored.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs = []
    for _, i, j in scored:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((run_a[i], run_b[j]))
    return pairs


def pairwise_stability(
    run_a: Sequence[TestOpportunity], run_b: Sequence[TestOpportunity]
) -> float:
    """Generalized Jaccard agreement between two runs' opportunity sets.

    Matched pairs contribute their similarity (temporal IoU times box IoU);
    unmatched opportunities dilute the score.  Two empty runs agree
    perfectly.
    """
    if not run_a and not run_b:
        return 1.0
    pairs = _match_pairs(run_a, run_b)
    total = sum(_similarity(a, b) for a, b in pairs)
    denom = len(run_a) + len(run_b) - len(pairs)
    return total / denom if denom > 0 else 1.0


def compute_metrics(
    runs: Sequence[Sequence[TestOpportunity]], screen: tuple[int, int]
) -> VideoMetrics:
    """Stability metrics for one recording analyzed over one or more runs.

    avg_plane_duration_s pools every run's opportunities.  The overlap ratio
    and the count look only at groups matched across all runs (one
    opportunity per run, same trackable, overlapping windows); the overlap
    ratio normalizes each group's common box area by the screen area and
    divides the total by the largest per-run opportunity count.
    """
    if not runs:
        raise ValueError("need at least one run")
    pooled = [o for run in runs for o in run]
    avg_s = (
        sum(o.duration_ms for o in pooled) / len(pooled) / 1000.0 if pooled else 0.0
    )
    if len(runs) == 1:
        return VideoMetrics(
            avg_plane_duration_s=avg_s,
            opportunity_count=len(runs[0]),
            mutual_stability=None,
            mean_overlap_area_ratio=None,
        )
    stab_vals = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            stab_vals.append(pairwise_stability(runs[i], runs[j]))
    matches = cross_run_matches(runs)
    screen_px = float(screen[0]) * float(screen[1])
    overlap_total = 0.0
    for combo in matches:
        overlap_total += rect_area(common_box(combo)) / screen_px
    biggest_run = max(len(run) for run in runs)
    return VideoMetrics(
        avg_plane_duration_s=avg_s,
        opportunity_count=len(matches),
        mutual_stability=sum(stab_vals) / len(stab_vals),
        mean_overlap_area_ratio=overlap_total / biggest_run if biggest_run else 0.0,
    )

