"""Visibility analysis, a block of frames at a time.

Turns the trackables of each frame into screen-space candidate boxes:
project the surface polygon, clip it to the screen, carve out anything
hidden behind nearer surfaces, then fit a conservative axis-aligned box into
what is left.  No threshold applies here: every surface keeps its best box,
and the life spans alone judge whether it is large enough.  Both steps take
a block of frames (block_pieces, then fit_boxes), so that numpy passes and
one inscribed_rects call serve many frames.  Pieces are rows (x, y, counts,
row), each tagged with its trackable row (FrameBlock.ids); only a part that
convex_pieces would change, or that an occluder meets, is carved as a vertex
list.  Boxes are float64 rows of (x_min, y_min, x_max, y_max), one per
trackable row, NaN where a trackable has no box, and no object per box.
"""

from __future__ import annotations

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

Pieces = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]   # (x, y, counts, row): block_pieces


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


def _vertex_list(x: np.ndarray, y: np.ndarray, start: int, count: int) -> list[Point]:
    """The count vertices of rows (x, y) from start, as a vertex list."""
    return list(zip(x[start:start + count].tolist(), y[start:start + count].tolist()))


def block_pieces(block: FrameBlock) -> Pieces:
    """The visible convex pieces of a block's trackable rows, as rows (x, y, counts, row).

    Piece i has the next counts[i] vertices of (x, y) and belongs to the
    trackable row row[i] (block.ids), a row's pieces in order.  A row has
    none when it gives no surface (not TRACKING, a vertex behind the camera,
    facing away: normal . (camera - center) <= 0, or fewer than 3 vertices
    left after the clip to the block's screen) or when the nearer TRACKING
    projections of its frame (by distance to the surface center; ties keep
    the frame's trackable order), back-facing ones too, cover it.

    Every step is a numpy pass over the block's columns, bit-equal to the
    scalar computation for one trackable, but the carving of a part that
    convex_pieces would change or that has an occluder: only such a part
    goes through convex_pieces and subtract_occluders as a vertex list,
    with its occluders nearest first.  Of a polygon's vertices, the first
    that is behind the camera or lands on pixels that are not finite numbers
    within MAX_SCREEN_COORD_PX decides: behind drops the surface, the other
    is a TraceValidationError.  The block's first such fault is raised
    before any frame is carved: nothing after it can raise on the finite,
    bounded pixels left, so it is the fault a pass over one frame at a time
    would raise.
    """
    rows = np.flatnonzero([s == TrackingState.TRACKING for s in block.states])
    owner = np.repeat(np.arange(len(block.t_ms)), block.n_trackables)[rows]   # frame of each row

    counts = block.n_verts[rows]
    starts = np.cumsum(counts) - counts
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

    # the part on screen of each visible, facing row (a polygon on screen keeps its vertices;
    # another row has none), and whether convex_pieces would return it as it is
    shown = visible & facing
    px, py, part_counts = clip_rows(x[shown[track_of]], y[shown[track_of]],
                                    np.where(shown, counts, 0),
                                    clip_loop(screen_clip_polygon(*block.screen)))
    unchanged = convex_unchanged(px, py, part_counts)
    subject = part_counts >= 3

    # bounding boxes of the projected polygons, NaN for one with no vertex
    some = starts[counts > 0]
    box = np.full((len(rows), 4), np.nan)
    if some.size:
        box[counts > 0] = np.stack([np.minimum.reduceat(x, some), np.maximum.reduceat(x, some),
                                    np.minimum.reduceat(y, some), np.maximum.reduceat(y, some)], 1)

    # The occluders of each subject k, in a pass over the visible rows j before it in its
    # frame's near-to-far order (a stable sort: ties keep the frame's trackable order): j is
    # nearer and its box within OCCLUDER_MARGIN_PX of k's.  An occluder farther away misses
    # every piece of k, which subtract_occluders would return unchanged.  The pairs grow with
    # the square of a frame's rows, so the pass runs over runs of subjects whose pairs add up
    # to about the block's row count.
    seq = np.lexsort((dist, owner))
    seq = seq[visible[seq]]
    first = np.searchsorted(owner[seq], owner[seq])   # where in seq each one's frame starts
    at = np.flatnonzero(subject[seq])
    before = at - first[at]
    group = (np.cumsum(before) - before) // max(len(rows), 1)
    hits = [(np.empty(0, dtype=int),) * 2]   # (k, j) of each pair that hit, in order
    m = OCCLUDER_MARGIN_PX
    for run in np.split(np.arange(len(at)), np.flatnonzero(np.diff(group)) + 1):
        n = before[run]
        k = np.repeat(seq[at[run]], n)
        j = seq[np.arange(len(k)) + np.repeat(first[at[run]] - (np.cumsum(n) - n), n)]
        hit = (dist[j] < dist[k]) & ~((box[k, 1] < box[j, 0] - m) | (box[j, 1] + m < box[k, 0])
                                      | (box[k, 3] < box[j, 2] - m) | (box[j, 3] + m < box[k, 2]))
        hits.append((k[hit], j[hit]))
    k, j = map(np.concatenate, zip(*hits))

    # the list path for a part that convex_pieces changes or an occluder meets; any other
    # part is its one piece, as convex_pieces returns it
    listed = subject & ~unchanged
    listed[k] = True
    whole = subject & ~listed
    kept = np.repeat(whole, part_counts)
    pieces = [(px[kept], py[kept], part_counts[whole], rows[whole])]
    occluders: dict[int, list[list[Point]]] = {a: [] for a in np.flatnonzero(listed).tolist()}
    for a, b in zip(k.tolist(), j.tolist()):   # the nearest first
        occluders[a].append(_vertex_list(x, y, starts[b], counts[b]))
    part_at = np.cumsum(part_counts) - part_counts
    for a, occ in occluders.items():
        part = _vertex_list(px, py, part_at[a], part_counts[a])
        carved = subtract_occluders([part] if unchanged[a] else convex_pieces(part), occ)
        xy = np.array([v for p in carved for v in p], dtype=float).reshape(-1, 2)
        pieces.append((xy[:, 0], xy[:, 1], np.array([len(p) for p in carved], dtype=int),
                       np.full(len(carved), rows[a])))
    return tuple(np.concatenate(c) for c in zip(*pieces))


def fit_boxes(pieces: Pieces, n_rows: int, screen_w: int, screen_h: int) -> np.ndarray:
    """The box of each of n_rows trackable rows, with one inscribed_rects call on their pieces.

    A row keeps the largest rect of its pieces (the first of equal ones),
    as one (n_rows, 4) float64 array; its row is NaN when it has no piece
    or none of its pieces holds a rect.
    """
    x, y, counts, row_of = pieces
    rects, _ = inscribed_rects(x, y, counts, screen_w, screen_h)
    area = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])   # NaN for no rect
    # largest first within each row, NaN last; a stable sort keeps equal ones in order
    order = np.lexsort((-area, row_of))
    best = order[np.diff(row_of[order], prepend=-1) != 0]
    boxes = np.full((n_rows, 4), np.nan)
    boxes[row_of[best]] = rects[best]
    return boxes
