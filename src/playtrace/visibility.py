"""Per-frame visibility analysis.

Turns the trackables of one frame into screen-space candidate boxes: project
the surface polygon, clip it to the screen, carve out anything hidden behind
nearer surfaces, then fit a conservative axis-aligned box into what is left.
A box survives only when it covers at least ``min_visibility`` of the screen.
The box fitting is split off (frame_pieces, then fit_boxes) so that one
inscribed_rects call can serve the pieces of many frames.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    ClipLoop,
    Point,
    Rect,
    clip_by_loop,
    clip_to_screen,
    inscribed_rects,
    rect_area,
    subtract_occluders,
)
from .trace import FrameRecord, TrackableSnapshot, TrackingState

# (trackable id, camera distance, visible convex pieces) of one surface in one frame
SurfacePieces = tuple[str, float, list[list[Point]]]


@dataclass(frozen=True)
class VisibleBox:
    """A usable screen region of one trackable in one frame."""

    trackable_id: str
    box: Rect
    visibility_ratio: float
    camera_distance: float


def facing_camera(trackable: TrackableSnapshot, camera_position: np.ndarray) -> bool:
    """True when the surface normal points toward the camera.

    The test is the sign of dot(normal, camera - center); an edge-on surface
    (dot exactly zero) does not count as facing.
    """
    to_camera = np.asarray(camera_position, dtype=float) - trackable.center_world
    return float(np.dot(trackable.normal_world, to_camera)) > 0.0


def screen_clip_polygon(screen_w: float, screen_h: float) -> list[Point]:
    """The screen rectangle as a clip polygon (clockwise in screen coords)."""
    w = float(screen_w)
    h = float(screen_h)
    return [(0.0, h), (w, h), (w, 0.0), (0.0, 0.0)]


def project_trackable(t: TrackableSnapshot, frame: FrameRecord) -> list[Point] | None:
    """Screen-space polygon of a trackable, or None if any vertex is behind the camera.

    All vertices go through one stacked matmul per matrix: numpy multiplies
    each (4, 1) item with the same BLAS gemv as a 1-D vertex, so every pixel
    is bit-equal to the per-vertex reference ``oracles.project_per_vertex``
    in the tests.  A (4, n) matmul or einsum is not: it sums the products in
    another order.  The first vertex that is behind the camera (None) or
    lands on non-finite pixels (ArithmeticError) decides.
    """
    v = np.array([(x, 0.0, z, 1.0) for x, z in t.local_vertices]).reshape(-1, 4, 1)
    clip = (frame.projection @ (frame.view @ (t.pose @ v)))[:, :, 0].tolist()
    pts: list[Point] = []
    for c, (x, z) in zip(clip, t.local_vertices):
        p = clip_to_screen(c, frame.screen_w, frame.screen_h, (x, 0.0, z, 1.0))
        if p is None:
            return None
        pts.append(p)
    return pts


def frame_pieces(frame: FrameRecord, screen: ClipLoop) -> list[SurfacePieces]:
    """The visible pieces of each candidate surface in a frame, near to far.

    Surfaces that are PAUSED or STOPPED are ignored entirely.  Surfaces that
    face away from the camera get no entry but still occlude: any TRACKING
    projection nearer to the camera (by distance to the surface center) is
    subtracted from the on-screen polygon.  Ties in distance keep the
    frame's trackable order.  An entry with no pieces is fully occluded.
    screen is the clip_loop of the frame's screen_clip_polygon, built once per run.
    """
    cam = frame.camera_position

    candidates: list[tuple[float, TrackableSnapshot, list[Point]]] = []
    for t in frame.trackables:
        if t.tracking_state != TrackingState.TRACKING:
            continue
        poly = project_trackable(t, frame)
        if poly is None:
            continue
        dist = float(np.linalg.norm(np.asarray(cam, dtype=float) - t.center_world))
        candidates.append((dist, t, poly))
    candidates.sort(key=lambda c: c[0])

    found: list[SurfacePieces] = []
    for i, (dist, t, poly) in enumerate(candidates):
        if not facing_camera(t, cam):
            continue
        on_screen = clip_by_loop(poly, *screen)
        if len(on_screen) < 3:
            continue
        occluders = [p for d, _, p in candidates[:i] if d < dist]
        found.append((t.trackable_id, dist, subtract_occluders(on_screen, occluders)))
    return found


def fit_boxes(
    frames: Sequence[list[SurfacePieces]], screen_w: int, screen_h: int, min_visibility: float
) -> list[list[VisibleBox]]:
    """Each frame's boxes from its frame_pieces, with one inscribed_rects over all their pieces.

    A surface keeps the largest rect of its pieces (the first of equal
    ones), and only when it covers at least min_visibility of the screen.
    """
    rects, _ = inscribed_rects([p for found in frames for _, _, ps in found for p in ps],
                               screen_w, screen_h)
    it = iter(rects)
    screen_px = float(screen_w) * float(screen_h)
    out: list[list[VisibleBox]] = []
    for found in frames:
        boxes: list[VisibleBox] = []
        for tid, dist, pieces in found:
            best: Rect | None = None
            for r in itertools.islice(it, len(pieces)):
                if r is not None and (best is None or rect_area(r) > rect_area(best)):
                    best = r
            if best is None:
                continue
            ratio = rect_area(best) / screen_px
            if ratio >= min_visibility:
                boxes.append(VisibleBox(tid, best, ratio, dist))
        out.append(boxes)
    return out
