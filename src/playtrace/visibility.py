"""Visibility analysis, a block of frames at a time.

Turns the trackables of each frame into screen-space candidate boxes:
project the surface polygon, clip it to the screen, carve out anything
hidden behind nearer surfaces, then fit a conservative axis-aligned box into
what is left.  No threshold applies here: every surface keeps its best box,
and the life spans alone judge whether it is large enough.  Both steps take
a block of frames (block_pieces, then fit_boxes), so that numpy passes and
one inscribed_rects call serve many frames.  Boxes stay float64 rows of
(x_min, y_min, x_max, y_max): inscribed_rects leaves a NaN row where a piece
holds no box, and fit_boxes returns one row per surface as one array, with
no object per box.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import (
    BEHIND_W_EPS,
    MAX_SCREEN_COORD_PX,
    OCCLUDER_MARGIN_PX,
    Point,
    clip_by_loop,
    clip_loop,
    convex_pieces,
    convex_unchanged,
    dot_rows,
    inscribed_rects,
    subtract_occluders,
)
from .trace import FrameBlock, TrackingState, TraceValidationError

# (trackable id, visible convex pieces) of one surface in one frame
SurfacePieces = tuple[str, list[list[Point]]]


def screen_clip_polygon(screen_w: float, screen_h: float) -> list[Point]:
    """The screen rectangle as a clip polygon (clockwise in screen coords)."""
    w = float(screen_w)
    h = float(screen_h)
    return [(0.0, h), (w, h), (w, 0.0), (0.0, 0.0)]


def _project(
    block: FrameBlock, rows: np.ndarray, owner: np.ndarray, verts: np.ndarray,
    track_of: np.ndarray, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Screen x and y of every vertex, and whether it is behind the camera (w <= BEHIND_W_EPS).

    rows are trackable rows of block, and owner the frame of each.  verts
    are the vertices of every row in turn: verts[i] is vertex column[i] of
    row track_of[i].  Each vertex (x, 0, z, 1) goes through its pose, view
    and projection in stacked matmuls, then through the perspective divide
    and the viewport of the block's screen.  Fancy indexing keeps the
    matrices' layout (FrameBlock), so every product is bit-equal to that
    matrix's own matmul.  The pixels of a vertex behind the camera mean
    nothing.
    """
    v = np.zeros((len(rows), int(column.max(initial=0)) + 1, 4, 1))
    v[track_of, column, 0, 0], v[track_of, column, 2, 0] = verts.T
    v[:, :, 3, 0] = 1.0
    # finite numbers can overflow to pixels that are inf or NaN, which block_pieces rejects
    with np.errstate(all="ignore"):
        clip = block.pose[rows][:, None] @ v
        clip = block.view[owner][:, None] @ clip
        clip = (block.proj[owner][:, None] @ clip)[track_of, column, :, 0]
        screen_w, screen_h = block.screen
        w = clip[:, 3]
        x = (clip[:, 0] / w + 1.0) / 2.0 * screen_w
        y = (1.0 - (clip[:, 1] / w + 1.0) / 2.0) * screen_h
    return x, y, w <= BEHIND_W_EPS


def block_pieces(block: FrameBlock) -> list[list[SurfacePieces]]:
    """The visible pieces of each candidate surface in each frame of a block, near to far.

    Surfaces that are PAUSED or STOPPED are ignored entirely, and so is a
    surface with a vertex behind the camera.  Surfaces that face away from
    the camera (normal . (camera - center) <= 0) get no entry but still
    occlude: any TRACKING projection nearer to the camera (by distance to
    the surface center) is subtracted from the on-screen polygon.  Ties in
    distance keep the frame's trackable order.  An entry with no pieces is
    fully occluded.  Every polygon is clipped to the block's screen.

    The projection, distances, facing signs, and the tests that let a
    polygon skip the screen clip (every vertex on screen) and convex_pieces
    (convex_unchanged) are numpy passes over the block's columns, each
    bit-equal to the scalar computation for one trackable.  Of a polygon's
    vertices, the first that is behind the camera or lands on pixels that
    are not finite numbers within MAX_SCREEN_COORD_PX decides: behind drops
    the surface, the other is a TraceValidationError.  The block's first
    such fault is raised before any frame is carved: nothing after it can
    raise on the finite, bounded pixels left, so it is the fault a pass
    over one frame at a time would raise.
    """
    n_frames = len(block.t_ms)
    found: list[list[SurfacePieces]] = [[] for _ in range(n_frames)]
    rows = np.flatnonzero([s == TrackingState.TRACKING for s in block.states])
    if not rows.size:
        return found
    owner = np.repeat(np.arange(n_frames), block.n_trackables)[rows]   # frame of each row
    tids = [block.ids[k] for k in rows.tolist()]

    counts = block.n_verts[rows]
    ends = np.cumsum(counts)
    starts = ends - counts
    track_of = np.repeat(np.arange(len(rows)), counts)
    column = np.arange(len(track_of)) - starts[track_of]
    first_vertex = np.cumsum(block.n_verts) - block.n_verts
    verts = block.verts[first_vertex[rows][track_of] + column]
    x, y, behind = _project(block, rows, owner, verts, track_of, column)
    bad = behind | ~((np.abs(x) <= MAX_SCREEN_COORD_PX) & (np.abs(y) <= MAX_SCREEN_COORD_PX))
    first_bad = np.full(len(rows), len(track_of))
    np.minimum.at(first_bad, track_of[bad], np.flatnonzero(bad))
    visible = first_bad == len(track_of)
    fault = np.flatnonzero(~np.append(behind, True)[first_bad])
    if fault.size:
        k = int(fault[0])
        j = int(first_bad[k] - starts[k])
        raise TraceValidationError(
            f"frame at {block.t_ms[owner[k]]} ms: trackable '{tids[k]}' "
            f"vertex {j} {tuple(verts[starts[k] + j].tolist())!r} projects to screen "
            f"coordinates that are not finite numbers within ±{MAX_SCREEN_COORD_PX:g} px"
        )

    # distance to the camera and the facing sign, with the dot products of np.linalg.norm and
    # np.dot; a center too far from the camera for a float is at distance inf, the farthest
    with np.errstate(over="ignore", invalid="ignore"):
        to_cam = block.cam_pos[owner] - block.center[rows]
        dist = np.sqrt(dot_rows(to_cam, to_cam))
        facing = dot_rows(block.normal[rows], to_cam) > 0.0

    # on screen: sign * _cross(a, b, p) >= 0 for every screen edge a -> b, as in _clip_one_edge;
    # a product overflows only at a vertex past MAX_SCREEN_COORD_PX, which is bad above
    sign, edges = clip_loop(screen_clip_polygon(*block.screen))
    off = np.full(len(x), not sign)
    with np.errstate(over="ignore", invalid="ignore"):
        for (ax, ay), (bx, by) in edges:
            off |= ~(sign * ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) >= 0.0)
    on_screen = np.bincount(track_of, weights=off, minlength=len(rows)) == 0
    unchanged = on_screen & convex_unchanged(x, y, counts)

    # Bounding boxes.  An occluder whose box is more than OCCLUDER_MARGIN_PX from the box of
    # the subject's polygon is apart from the box of each of its pieces too, so
    # subtract_occluders would skip it or, past its own box test, return every piece
    # unchanged (_boxes_apart).
    some = starts[counts > 0]
    box = np.full((len(rows), 4), np.nan)
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
    frame_ends = np.searchsorted(owner[order], np.arange(n_frames), side="right")
    begin = 0
    for i, end in enumerate(frame_ends.tolist()):
        nearer: list[int] = []
        for k in order[begin:end].tolist():
            if facing_l[k]:
                if unchanged_l[k]:
                    pieces = [polys[k]]   # what convex_pieces would return
                else:
                    part = polys[k] if on_screen_l[k] else clip_by_loop(polys[k], sign, edges)
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
                    found[i].append((tids[k], pieces))
            nearer.append(k)
        begin = end
    return found


def fit_boxes(
    frames: Sequence[list[SurfacePieces]], screen_w: int, screen_h: int
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The boxes of a block's surfaces from its block_pieces, with one inscribed_rects call.

    A surface keeps the largest rect of its pieces (the first of equal
    ones), or a NaN row when none of its pieces holds one.  Returns the
    trackable ids, frame indices and (k, 4) box rows of every surface, in
    frame order and near to far within a frame.
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
    boxes = np.full((len(tids), 4), np.nan)   # a fully occluded surface has no pieces
    boxes[surface[best]] = rects[best]
    return tids, frame_of, boxes
