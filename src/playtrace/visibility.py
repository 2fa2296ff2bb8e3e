"""Visibility analysis, a block of frames at a time.

Turns the trackables of each frame into screen-space candidate boxes:
project the surface polygon, clip it to the screen, carve out anything
hidden behind nearer surfaces, then fit a conservative axis-aligned box into
what is left.  A box survives only when it covers at least
``min_visibility`` of the screen.  Both steps take a block of frames
(block_pieces, then fit_boxes), so that numpy passes and one inscribed_rects
call serve many frames.  Boxes stay float64 rows of (x_min, y_min, x_max,
y_max): inscribed_rects leaves a NaN row where a piece holds no box, and
fit_boxes returns the kept surfaces' rows as one array, with no object per
box.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import (
    BEHIND_W_EPS,
    MAX_SCREEN_COORD_PX,
    OCCLUDER_MARGIN_PX,
    ClipLoop,
    Point,
    clip_by_loop,
    convex_pieces,
    convex_unchanged,
    dot_rows,
    inscribed_rects,
    subtract_occluders,
)
from .trace import FrameRecord, TrackableSnapshot, TrackingState, TraceValidationError

# (trackable id, visible convex pieces) of one surface in one frame
SurfacePieces = tuple[str, list[list[Point]]]


def screen_clip_polygon(screen_w: float, screen_h: float) -> list[Point]:
    """The screen rectangle as a clip polygon (clockwise in screen coords)."""
    w = float(screen_w)
    h = float(screen_h)
    return [(0.0, h), (w, h), (w, 0.0), (0.0, 0.0)]


def _stacked_matmul(mats: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """mats[k] @ x[k, j] for every k and j, in one stacked matmul per memory order.

    numpy hands BLAS a C-ordered matrix transposed and a column-major one
    as it is, and the two kernels round differently.  So each matrix keeps
    its own order, and every product is bit-equal to that matrix's own
    matmul.  A matrix in neither order is taken in C order.
    """
    col_major = np.array([m.flags.f_contiguous and not m.flags.c_contiguous for m in mats])
    rows = np.array([m.T if f else m for m, f in zip(mats, col_major.tolist())], dtype=float)
    rows = rows[:, None]
    if not col_major.any():
        return rows @ x
    if col_major.all():
        return rows.transpose(0, 1, 3, 2) @ x
    out = np.empty(x.shape)
    out[~col_major] = rows[~col_major] @ x[~col_major]
    out[col_major] = rows[col_major].transpose(0, 1, 3, 2) @ x[col_major]
    return out


def _project(
    frames: Sequence[FrameRecord], tracks: Sequence[TrackableSnapshot], owner: Sequence[int],
    track_of: np.ndarray, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Screen x and y of every vertex, and whether it is behind the camera (w <= BEHIND_W_EPS).

    tracks[k] is a trackable of frames[owner[k]].  The vertices are those
    of every track in turn: vertex i is vertex column[i] of track
    track_of[i].  Each vertex (x, 0, z, 1) goes through its pose, view and
    projection in stacked matmuls, then through the perspective divide and
    the viewport.  The pixels of a vertex behind the camera mean nothing.
    """
    v = np.zeros((len(tracks), int(column.max(initial=0)) + 1, 4, 1))
    v[track_of, column, 0, 0], v[track_of, column, 2, 0] = np.array(
        [xz for t in tracks for xz in t.local_vertices], dtype=float).reshape(-1, 2).T
    v[:, :, 3, 0] = 1.0
    frame_of = np.array(owner)[track_of]
    screen_w = np.array([f.screen_w for f in frames], dtype=float)[frame_of]
    screen_h = np.array([f.screen_h for f in frames], dtype=float)[frame_of]
    # finite numbers can overflow to pixels that are inf or NaN, which block_pieces rejects
    with np.errstate(all="ignore"):
        clip = _stacked_matmul([t.pose for t in tracks], v)
        clip = _stacked_matmul([frames[i].view for i in owner], clip)
        clip = _stacked_matmul([frames[i].projection for i in owner], clip)[track_of, column, :, 0]
        w = clip[:, 3]
        x = (clip[:, 0] / w + 1.0) / 2.0 * screen_w
        y = (1.0 - (clip[:, 1] / w + 1.0) / 2.0) * screen_h
    return x, y, w <= BEHIND_W_EPS


def block_pieces(frames: Sequence[FrameRecord], screen: ClipLoop) -> list[list[SurfacePieces]]:
    """The visible pieces of each candidate surface in each frame of a block, near to far.

    Surfaces that are PAUSED or STOPPED are ignored entirely, and so is a
    surface with a vertex behind the camera.  Surfaces that face away from
    the camera (normal . (camera - center) <= 0) get no entry but still
    occlude: any TRACKING projection nearer to the camera (by distance to
    the surface center) is subtracted from the on-screen polygon.  Ties in
    distance keep the frame's trackable order.  An entry with no pieces is
    fully occluded.  screen is the clip_loop of the frames'
    screen_clip_polygon.

    The projection, distances, facing signs, and the tests that let a
    polygon skip the screen clip (every vertex on screen) and convex_pieces
    (convex_unchanged) are numpy passes over the whole block, each
    bit-equal to the scalar computation for one trackable.  Of a polygon's
    vertices, the first that is behind the camera or lands on pixels that
    are not finite numbers within MAX_SCREEN_COORD_PX decides: behind drops
    the surface, the other is a TraceValidationError, raised after the
    frames before its own, as a pass over one frame at a time would raise
    it.
    """
    tracks: list[TrackableSnapshot] = []
    owner: list[int] = []   # frame index of each track
    for i, f in enumerate(frames):
        for t in f.trackables:
            if t.tracking_state == TrackingState.TRACKING:
                tracks.append(t)
                owner.append(i)
    found: list[list[SurfacePieces]] = [[] for _ in frames]
    if not tracks:
        return found

    counts = np.array([len(t.local_vertices) for t in tracks])
    ends = np.cumsum(counts)
    starts = ends - counts
    track_of = np.repeat(np.arange(len(tracks)), counts)
    column = np.arange(len(track_of)) - starts[track_of]
    x, y, behind = _project(frames, tracks, owner, track_of, column)
    bad = behind | ~((np.abs(x) <= MAX_SCREEN_COORD_PX) & (np.abs(y) <= MAX_SCREEN_COORD_PX))
    first_bad = np.full(len(tracks), len(track_of))
    np.minimum.at(first_bad, track_of[bad], np.flatnonzero(bad))
    visible = first_bad == len(track_of)
    fault = np.flatnonzero(~np.append(behind, True)[first_bad])
    fault_frame = owner[fault[0]] if fault.size else len(frames)

    # distance to the camera and the facing sign, with the dot products of np.linalg.norm and
    # np.dot; a center too far from the camera for a float is at distance inf, the farthest
    with np.errstate(over="ignore", invalid="ignore"):
        to_cam = (np.array([frames[i].camera_position for i in owner], dtype=float)
                  - np.array([t.center_world for t in tracks], dtype=float))
        dist = np.sqrt(dot_rows(to_cam, to_cam))
        facing = dot_rows(np.array([t.normal_world for t in tracks], dtype=float), to_cam) > 0.0

    # on screen: sign * _cross(a, b, p) >= 0 for every screen edge a -> b, as in _clip_one_edge
    sign, edges = screen
    off = np.full(len(x), not sign)
    with np.errstate(invalid="ignore"):
        for (ax, ay), (bx, by) in edges:
            off |= ~(sign * ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) >= 0.0)
    on_screen = np.bincount(track_of, weights=off, minlength=len(tracks)) == 0
    unchanged = on_screen & convex_unchanged(x, y, counts)

    # Bounding boxes.  An occluder whose box is more than OCCLUDER_MARGIN_PX from the box of
    # the subject's polygon is apart from the box of each of its pieces too, so
    # subtract_occluders would skip it or, past its own box test, return every piece
    # unchanged (_boxes_apart).
    some = starts[counts > 0]
    box = np.full((len(tracks), 4), np.nan)
    if some.size:
        box[counts > 0] = np.stack([np.minimum.reduceat(x, some), np.maximum.reduceat(x, some),
                                    np.minimum.reduceat(y, some), np.maximum.reduceat(y, some)], 1)

    xy = list(zip(x.tolist(), y.tolist()))
    polys = [xy[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    dists, boxes = dist.tolist(), box.tolist()
    facing_l, on_screen_l, unchanged_l = facing.tolist(), on_screen.tolist(), unchanged.tolist()
    m = OCCLUDER_MARGIN_PX
    order = np.lexsort((dist, owner))  # a stable sort: ties keep the frame's trackable order
    order = order[visible[order]]
    frame_ends = np.searchsorted(np.array(owner)[order], np.arange(len(frames)), side="right")
    begin = 0
    for i, end in enumerate(frame_ends.tolist()):
        if i == fault_frame:
            k = int(fault[0])
            j = int(first_bad[k] - starts[k])
            raise TraceValidationError(
                f"frame at {frames[i].timestamp_ms} ms: trackable '{tracks[k].trackable_id}' "
                f"vertex {j} {tracks[k].local_vertices[j]!r} projects to screen coordinates "
                f"that are not finite numbers within ±{MAX_SCREEN_COORD_PX:g} px"
            )
        nearer: list[int] = []
        for k in order[begin:end].tolist():
            if facing_l[k]:
                if unchanged_l[k]:
                    pieces = [polys[k]]   # what convex_pieces would return
                else:
                    part = polys[k] if on_screen_l[k] else clip_by_loop(polys[k], *screen)
                    pieces = convex_pieces(part) if len(part) >= 3 else None
                if pieces is not None:
                    d = dists[k]
                    sx0, sx1, sy0, sy1 = boxes[k]
                    occluders = [
                        polys[j] for j in nearer
                        if dists[j] < d and not (
                            sx1 < boxes[j][0] - m or boxes[j][1] + m < sx0
                            or sy1 < boxes[j][2] - m or boxes[j][3] + m < sy0
                        )
                    ]
                    pieces = subtract_occluders(pieces, occluders)
                    found[i].append((tracks[k].trackable_id, pieces))
            nearer.append(k)
        begin = end
    return found


def fit_boxes(
    frames: Sequence[list[SurfacePieces]], screen_w: int, screen_h: int, min_visibility: float
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The boxes of a block's surfaces from its block_pieces, with one inscribed_rects call.

    A surface keeps the largest rect of its pieces (the first of equal
    ones), and only when it covers at least min_visibility of the screen.
    Returns the trackable ids, frame indices and (k, 4) box rows of the
    surfaces that keep one, in frame order and near to far within a frame.
    """
    tids = [tid for found in frames for tid, _ in found]
    frame_of = np.repeat(np.arange(len(frames)), [len(found) for found in frames])
    surface = np.repeat(np.arange(len(tids)), [len(ps) for found in frames for _, ps in found])
    rects, _ = inscribed_rects([p for found in frames for _, ps in found for p in ps],
                               screen_w, screen_h)
    area = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])   # NaN for no rect
    # largest first within each surface, NaN last; a stable sort keeps equal ones in order
    order = np.lexsort((-area, surface))
    best = order[np.diff(surface[order], prepend=-1) != 0]
    kept = best[area[best] / (float(screen_w) * float(screen_h)) >= min_visibility]
    return [tids[k] for k in surface[kept].tolist()], frame_of[surface[kept]], rects[kept]
