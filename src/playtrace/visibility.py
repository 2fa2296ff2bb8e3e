"""Visibility analysis, a block of frames at a time.

Turns the trackables of each frame into screen-space candidate boxes:
project the surface polygon, clip it to the screen, carve out anything
hidden behind nearer surfaces, then fit a conservative axis-aligned box into
what is left.  No threshold applies here: every surface keeps its best box,
and the life spans alone judge whether it is large enough.  Both steps take
a block of frames (block_pieces, then fit_boxes), so that numpy passes and
one inscribed_rects call serve many frames, and both answer in the block's
own layout: one entry per trackable row (FrameBlock.ids).  Boxes stay
float64 rows of (x_min, y_min, x_max, y_max), one array with a NaN row
where a trackable has no box, and no object per box.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import (
    BEHIND_W_EPS,
    MAX_SCREEN_COORD_PX,
    OCCLUDER_MARGIN_PX,
    Point,
    clip_loop,
    clip_rows,
    convex_pieces,
    convex_unchanged,
    dot_rows,
    inscribed_rects,
    subtract_occluders,
)
from .trace import FrameBlock, TrackingState, TraceValidationError

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


def block_pieces(block: FrameBlock) -> list[list[list[Point]] | None]:
    """The visible convex pieces of each trackable row of a block (block.ids), in row order.

    A row's entry is None when it gives no surface: not TRACKING, a vertex
    behind the camera, facing away (normal . (camera - center) <= 0), or
    fewer than 3 vertices left after the clip to the block's screen.  Else
    it is the pieces left once every nearer TRACKING projection of its
    frame (by distance to the surface center; ties keep the frame's
    trackable order), back-facing ones too, is subtracted: [] if covered.

    The projection, distances, facing signs, the screen clip of the
    polygons with a vertex off screen (clip_rows) and the test that lets a
    part skip convex_pieces (convex_unchanged) are numpy passes over the
    block's columns, each bit-equal to the scalar computation for one
    trackable.  Of a polygon's vertices, the first that is behind the
    camera or lands on pixels that are not finite numbers within
    MAX_SCREEN_COORD_PX decides: behind drops the surface, the other is a
    TraceValidationError.  The block's first such fault is raised before
    any frame is carved: nothing after it can raise on the finite, bounded
    pixels left, so it is the fault a pass over one frame at a time would
    raise.
    """
    found: list[list[list[Point]] | None] = [None] * len(block.ids)
    rows = np.flatnonzero([s == TrackingState.TRACKING for s in block.states])
    if not rows.size:
        return found
    owner = np.repeat(np.arange(len(block.t_ms)), block.n_trackables)[rows]   # frame of each row

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
            f"frame at {block.t_ms[owner[k]]} ms: trackable '{block.ids[rows[k]]}' "
            f"vertex {j} {tuple(verts[starts[k] + j].tolist())!r} projects to screen "
            f"coordinates that are not finite numbers within ±{MAX_SCREEN_COORD_PX:g} px"
        )

    # distance to the camera and the facing sign, with the dot products of np.linalg.norm and
    # np.dot; a center too far from the camera for a float is at distance inf, the farthest
    with np.errstate(over="ignore", invalid="ignore"):
        to_cam = block.cam_pos[owner] - block.center[rows]
        dist = np.sqrt(dot_rows(to_cam, to_cam))
        facing = dot_rows(block.normal[rows], to_cam) > 0.0

    # on screen: sign * _cross(a, b, p) >= 0 for every screen edge a -> b, the test by which
    # clip_rows keeps a vertex; a product overflows only at a vertex past MAX_SCREEN_COORD_PX,
    # which is bad above
    sign, edges = clip_loop(screen_clip_polygon(*block.screen))
    off = np.full(len(x), not sign)
    with np.errstate(over="ignore", invalid="ignore"):
        for (ax, ay), (bx, by) in edges:
            off |= ~(sign * ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) >= 0.0)
    on_screen = np.bincount(track_of, weights=off, minlength=len(rows)) == 0
    # the screen clip of every visible, facing row with a vertex off screen, in one pass
    cut = visible & facing & ~on_screen
    cut_x, cut_y, cut_counts = clip_rows(x[cut[track_of]], y[cut[track_of]], counts[cut],
                                         (sign, edges))
    # convex_unchanged of every row and of every clipped part, in one pass
    both = convex_unchanged(np.concatenate([x, cut_x]), np.concatenate([y, cut_y]),
                            np.concatenate([counts, cut_counts]))
    unchanged = on_screen & both[:len(rows)]
    unchanged[cut] = both[len(rows):]

    # Bounding boxes.  An occluder whose box is more than OCCLUDER_MARGIN_PX from the box of
    # the subject's polygon misses each of its pieces, so subtract_occluders would return
    # every piece unchanged; this is the one box test of an occluder.
    some = starts[counts > 0]
    box = np.full((len(rows), 4), np.nan)
    if some.size:
        box[counts > 0] = np.stack([np.minimum.reduceat(x, some), np.maximum.reduceat(x, some),
                                    np.minimum.reduceat(y, some), np.maximum.reduceat(y, some)], 1)

    xy = list(zip(x.tolist(), y.tolist()))
    polys = [xy[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    parts = polys[:]   # the part of each row on screen
    cut_xy = list(zip(cut_x.tolist(), cut_y.tolist()))
    cut_ends = np.cumsum(cut_counts).tolist()
    for k, a, b in zip(np.flatnonzero(cut).tolist(), [0, *cut_ends], cut_ends):
        parts[k] = cut_xy[a:b]
    dists, boxes = dist.tolist(), box.tolist()
    facing_l, unchanged_l = facing.tolist(), unchanged.tolist()
    m = OCCLUDER_MARGIN_PX
    order = np.lexsort((dist, owner))  # a stable sort: ties keep the frame's trackable order
    frame_l, row_l = owner.tolist(), rows.tolist()
    frame, nearer = -1, []   # the frame of k, and its rows before k (nearer or level)
    for k in order[visible[order]].tolist():
        if frame_l[k] != frame:
            frame, nearer = frame_l[k], []
        if facing_l[k] and len(parts[k]) >= 3:
            # [parts[k]] is what convex_pieces would return when unchanged
            pieces = [parts[k]] if unchanged_l[k] else convex_pieces(parts[k])
            d = dists[k]
            sx0, sx1, sy0, sy1 = boxes[k]
            occluders = [
                polys[j] for j in nearer
                if dists[j] < d and not (
                    sx1 < boxes[j][0] - m or boxes[j][1] + m < sx0
                    or sy1 < boxes[j][2] - m or boxes[j][3] + m < sy0
                )
            ]
            found[row_l[k]] = subtract_occluders(pieces, occluders)
        nearer.append(k)
    return found


def fit_boxes(
    pieces: Sequence[list[list[Point]] | None], screen_w: int, screen_h: int
) -> np.ndarray:
    """The box of each row of block_pieces' answer, with one inscribed_rects call.

    A row keeps the largest rect of its pieces (the first of equal ones),
    as one (len(pieces), 4) float64 array; its row is NaN when its entry is
    None or [] or none of its pieces holds a rect.
    """
    row_of = np.repeat(np.arange(len(pieces)), [len(ps or ()) for ps in pieces])   # of each piece
    rects, _ = inscribed_rects([p for ps in pieces if ps for p in ps], screen_w, screen_h)
    area = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])   # NaN for no rect
    # largest first within each row, NaN last; a stable sort keeps equal ones in order
    order = np.lexsort((-area, row_of))
    best = order[np.diff(row_of[order], prepend=-1) != 0]
    boxes = np.full((len(pieces), 4), np.nan)
    boxes[row_of[best]] = rects[best]
    return boxes
