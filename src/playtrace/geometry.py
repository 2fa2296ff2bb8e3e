"""Pure 2D screen-space geometry kernel.

Pixels use the screen convention: origin at the top-left corner, y growing
downward.  The scalar kernels (convex_pieces, subtract_occluders...) take
polygons as vertex lists of ``(x, y)`` tuples, and simple_polygons a list of
them; the numpy passes take many polygons stored one after another as rows:
``(x, y, counts)`` for clip_rows, convex_unchanged, inscribed_rects and
EdgeLoops.of, ``(xy, counts)`` for simple_polygon_rows.
Rectangles are axis-aligned, and the empty rectangle is represented as
``None`` rather than a degenerate object.  All functions are stateless.  Two
helpers serve other spaces too: dot_rows takes rows of 3D vectors, and replay
runs odd_crossings in a plane's local coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Point = tuple[float, float]
Polygon = Sequence[Point]
ClipLoop = tuple[float, list[tuple[Point, Point]]]  # (interior sign, edges): see clip_loop

# Shared tolerances.
CONTAINMENT_EPS_PX = 1e-6   # points within this distance of a boundary count as inside
PARALLEL_EPS = 1e-12        # |denominator| below this means parallel lines
BEHIND_W_EPS = 1e-9         # clip-space w at or below this means behind the camera
AREA_EPS_PX2 = 1e-9         # pieces smaller than this are discarded as slivers
COLLINEAR_EPS = 1e-9        # |cross product| below this means collinear
OCCLUDER_MARGIN_PX = 1.0    # an occluder farther than this from the subject's box misses it
# Screen coordinates must lie within this bound: differences, squares and cross
# products of such coordinates stay finite, so no scalar kernel here overflows
# (Python's ** 2 raises OverflowError past the float range).
MAX_SCREEN_COORD_PX = 1e150

# Inscribed-rectangle search.
SHRINK_STEP = 0.025         # per-pass inward step, as a fraction of the current extent
MAX_SHRINK_PASSES = 200
MIN_RECT_EXTENT_PX = 1.0    # the search gives up once either extent falls to this


@dataclass(frozen=True)
class Rect:
    """Axis-aligned screen rectangle.  y_min is the top edge on screen."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        # comparisons with NaN are false, so NaN fails this check
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):
            raise ValueError(f"inverted rect: {self!r}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def rect_area(rect: Rect | None) -> float:
    """Area in px^2; the empty rectangle has area 0."""
    if rect is None:
        return 0.0
    return rect.width * rect.height


def rect_intersect(a: Rect | None, b: Rect | None) -> Rect | None:
    """Intersection of two rects, or None when they do not meet.

    Touching rects produce a zero-extent rect rather than None so that a run
    of intersections only collapses when the boxes truly separate.
    """
    if a is None or b is None:
        return None
    x_min = max(a.x_min, b.x_min)
    y_min = max(a.y_min, b.y_min)
    x_max = min(a.x_max, b.x_max)
    y_max = min(a.y_max, b.y_max)
    if x_min > x_max or y_min > y_max:
        return None
    return Rect(x_min, y_min, x_max, y_max)


def signed_area(poly: Polygon) -> float:
    """Shoelace signed area; the sign encodes winding."""
    total = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def polygon_area(poly: Polygon) -> float:
    return abs(signed_area(poly))


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dist_sq(a: Point, b: Point) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _point_segment_dist_sq(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    dx = b[0] - ax
    dy = b[1] - ay
    len_sq = dx * dx + dy * dy
    if len_sq <= PARALLEL_EPS:
        return _dist_sq(p, a)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / len_sq
    t = min(1.0, max(0.0, t))
    return _dist_sq(p, (ax + t * dx, ay + t * dy))


def _edges(poly: Polygon) -> Iterator[tuple[Point, Point]]:
    n = len(poly)
    for i in range(n):
        yield poly[i], poly[(i + 1) % n]


def is_convex(poly: Polygon) -> bool:
    """True when all turns share one sign (collinear runs are tolerated)."""
    n = len(poly)
    if n < 3:
        return False
    pos = neg = False
    for i in range(n):
        c = _cross(poly[i], poly[(i + 1) % n], poly[(i + 2) % n])
        if c > COLLINEAR_EPS:
            pos = True
        elif c < -COLLINEAR_EPS:
            neg = True
        if pos and neg:
            return False
    return True


def _segments_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool:
    d1 = _cross(b1, b2, a1)
    d2 = _cross(b1, b2, a2)
    d3 = _cross(a1, a2, b1)
    d4 = _cross(a1, a2, b2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    # collinear overlap also breaks simplicity
    for p, s1, s2, d in ((a1, b1, b2, d1), (a2, b1, b2, d2), (b1, a1, a2, d3), (b2, a1, a2, d4)):
        if abs(d) <= COLLINEAR_EPS and _point_segment_dist_sq(p, s1, s2) <= PARALLEL_EPS:
            return True
    return False


def _winding_loop(poly: Polygon) -> ClipLoop:
    """Sign of poly's signed area (0.0 below AREA_EPS_PX2) and its edges."""
    orient = signed_area(poly)
    return 0.0 if abs(orient) <= AREA_EPS_PX2 else math.copysign(1.0, orient), list(_edges(poly))


def clip_loop(clip: Polygon) -> ClipLoop:
    """A convex clip polygon wound either way, checked once, as (interior sign, edges)."""
    if len(clip) < 3:
        raise ValueError("clip polygon needs at least 3 vertices")
    if not is_convex(clip):
        raise ValueError("clip polygon must be convex")
    return _winding_loop(clip)


def _clean_polygon(poly: Polygon) -> list[Point]:
    """Drop repeated points and collinear middle vertices."""
    pts = [(float(x), float(y)) for x, y in poly]
    out: list[Point] = []
    for p in pts:
        if not out or _dist_sq(p, out[-1]) > PARALLEL_EPS:
            out.append(p)
    if len(out) > 1 and _dist_sq(out[0], out[-1]) <= PARALLEL_EPS:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            a = out[i - 1]
            b = out[i]
            c = out[(i + 1) % len(out)]
            if abs(_cross(a, b, c)) <= COLLINEAR_EPS:
                out.pop(i)
                changed = True
                break
    return out


def _strictly_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    return (
        _cross(a, b, p) > PARALLEL_EPS
        and _cross(b, c, p) > PARALLEL_EPS
        and _cross(c, a, p) > PARALLEL_EPS
    )


def _fan(poly: list[Point]) -> list[list[Point]]:
    return [[poly[0], poly[i], poly[i + 1]] for i in range(1, len(poly) - 1)]


def _diagonal_crossed(pts: list[Point], idx: list[int], i0: int, i2: int) -> bool:
    """Does the candidate ear diagonal cross any non-adjacent remaining edge?

    A vertex sitting strictly inside the ear triangle is caught separately;
    this guards the other failure mode, where a spike of the polygon passes
    through the ear without leaving a vertex in it.
    """
    a, c = pts[i0], pts[i2]
    n = len(idx)
    for e in range(n):
        j1, j2 = idx[e], idx[(e + 1) % n]
        if i0 in (j1, j2) or i2 in (j1, j2):
            continue
        if _segments_cross(a, c, pts[j1], pts[j2]):
            return True
    return False


def triangulate_simple(poly: Polygon) -> list[list[Point]]:
    """Ear-clipping triangulation of a simple polygon, any winding.

    Returns counter-clockwise triangles whose union is the input (slivers
    below the area epsilon are dropped).
    """
    pts = _clean_polygon(poly)
    if len(pts) < 3:
        return []
    if signed_area(pts) < 0:
        pts.reverse()
    idx = list(range(len(pts)))
    tris: list[list[Point]] = []
    while len(idx) > 3:
        n = len(idx)
        found = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if _cross(a, b, c) <= COLLINEAR_EPS:
                continue  # reflex or flat corner, not an ear
            blocked = any(
                _strictly_in_triangle(pts[m], a, b, c)
                for m in idx
                if m not in (i0, i1, i2)
            )
            if blocked or _diagonal_crossed(pts, idx, i0, i2):
                continue
            tris.append([a, b, c])
            idx.pop(k)
            found = True
            break
        if not found:
            # numerically stuck; the remainder is near-degenerate, fan it
            break
    remainder = [pts[i] for i in idx]
    if len(remainder) >= 3:
        tris.extend(_fan(remainder))
    return [t for t in tris if polygon_area(t) > AREA_EPS_PX2]


def convex_pieces(poly: Polygon) -> list[list[Point]]:
    """The polygon as a list of convex parts (itself when already convex)."""
    pts = _clean_polygon(poly)
    if len(pts) < 3 or polygon_area(pts) <= AREA_EPS_PX2:
        return []
    if is_convex(pts):
        return [pts]
    return triangulate_simple(pts)


def convex_subtract(piece: Polygon, occluder: Polygon) -> list[list[Point]]:
    """Convex piece minus convex occluder, as interior-disjoint convex parts.

    Part i is the portion of the piece outside occluder edge i but inside
    edges 0..i-1, which tiles the complement of the occluder without overlap.
    Every clip is a clip_rows of the piece, so the parts hold floats.  A
    piece that does not actually meet the occluder is returned whole, as
    given, so disjoint occluders never fragment it.
    """
    sign, occ_edges = _winding_loop(occluder)
    x, y = np.array(piece, dtype=float).reshape(-1, 2).T
    one = np.array([len(piece)])

    def clipped(*loops: ClipLoop) -> list[Point]:
        """The piece clipped by each loop in turn, as a vertex list."""
        rows = x, y, one
        for loop in loops:
            rows = clip_rows(*rows, loop)
        return list(zip(rows[0].tolist(), rows[1].tolist()))

    if polygon_area(clipped((sign, occ_edges))) <= AREA_EPS_PX2:
        return [list(piece)]
    parts = (clipped((-sign, occ_edges[i:i + 1]), (sign, occ_edges[:i]))
             for i in range(len(occ_edges)))
    return [part for part in parts if polygon_area(part) > AREA_EPS_PX2]


def subtract_occluders(
    pieces: list[list[Point]], occluders: Sequence[Polygon]
) -> list[list[Point]]:
    """A subject, given as its convex_pieces, minus the union of occluders.

    The result is interior-disjoint convex pieces: concave occluders are
    split into convex parts first.  An empty result means the subject is
    fully covered.  A piece that an occluder misses stays whole (convex_subtract).
    """
    for occ in occluders:
        for occ_part in convex_pieces(occ):
            nxt: list[list[Point]] = []
            for piece in pieces:
                nxt.extend(convex_subtract(piece, occ_part))
            pieces = nxt
            if not pieces:
                return []
    return pieces


class EdgeLoops:
    """Edge a->b of each of many polygons, packed in one (6, E, polygons) float64 array.

    Its rows are ax, ay, by, dx = bx - ax, dy = by - ay and len_sq =
    |ab|^2, inf where that is <= PARALLEL_EPS, so t = 0 and the distance is
    to a; edge j of polygon i is at [j, i].  The polygon axis is last, so a
    numpy pass over the edges runs along the polygons.  Shorter polygons are
    padded with zero-length edges at their first vertex: they straddle no
    point, and their NaN len_sq keeps them out of the distance test.
    Indexing picks polygons, on every row at once.
    """

    __slots__ = ("packed",)

    def __init__(self, packed: np.ndarray) -> None:
        self.packed = packed

    def __getitem__(self, polygons: np.ndarray) -> EdgeLoops:
        return EdgeLoops(self.packed.take(polygons, axis=-1))   # C order, unlike [..., polygons]

    def against(self, *points: np.ndarray) -> np.ndarray:
        """The six rows, each (E, 1, ..., polygons) to broadcast edges first against points
        whose last axis is the polygons."""
        ndim = max(map(np.ndim, points))
        return self.packed.reshape(6, self.packed.shape[1], *(1,) * (ndim - 1), -1)

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> EdgeLoops:
        """Edges of polygons as rows: polygon i has the next counts[i] > 0 vertices of (x, y)."""
        col = np.arange(counts.max())[:, None]
        real = col < counts
        first = np.cumsum(counts) - counts
        a = first + np.where(real, col, 0)
        b = first + np.where(col + 1 < counts, col + 1, 0)   # next, else the first
        ax, ay, by = x[a], y[a], y[b]
        dx, dy = x[b] - ax, by - ay
        len_sq = dx * dx + dy * dy
        len_sq = np.where(len_sq <= PARALLEL_EPS, np.inf, len_sq)
        return cls(np.stack([ax, ay, by, dx, dy, np.where(real, len_sq, np.nan)]))


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (n, 3) arrays, summed as np.dot sums."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _squared(v: np.ndarray) -> np.ndarray:
    """v ** 2 as Python computes it (libm pow), which can differ from v * v in the last bit."""
    return np.float_power(v, 2.0)


def odd_crossings(e: EdgeLoops, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The even-odd rule: whether an odd number of edges cross the ray from (px, py) to +x.

    px and py broadcast together, their last axis against e's polygons.
    An edge counts when its ends straddle the point's y and it crosses that
    y to the right of the point.  A point at an infinite or NaN coordinate
    straddles no edge.
    """
    ax, ay, by, dx, dy, _ = e.against(px, py)
    straddle = (ay > py) != (by > py)
    # dy is nonzero wherever an edge straddles; elsewhere any divisor will do
    x_cross = ax + (py - ay) / np.where(straddle, dy, 1.0) * dx
    return np.logical_xor.reduce(straddle & (x_cross > px), axis=0)


def _points_inside(e: EdgeLoops, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Even-odd containment of each point of (px, py)[..., i] in polygon i of e.

    px and py broadcast together, their last axis against e's polygons, so
    each numpy pass runs along the polygons.  A point is inside when the
    parity of the edge crossings to its right is odd (odd_crossings, whose
    crossings depend only on the point's y and are counted once per value
    of py), or when it is within CONTAINMENT_EPS_PX of an edge
    (_point_segment_dist_sq).  Every point is measured against every edge
    in the same pass, inside or not, so a pass makes no compaction.  The
    tests compare every answer with the scalar oracles.point_in_polygon,
    whose expressions these copy in their order.
    """
    ax, ay, _, dx, dy, len_sq = e.against(px, py)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / len_sq, 0.0, 1.0)
    vx = px - (ax + t * dx)
    vy = py - (ay + t * dy)
    eps_sq = CONTAINMENT_EPS_PX * CONTAINMENT_EPS_PX
    # v * v is within an ulp of Python's v ** 2 (_squared), so only a distance this passes
    # can pass the exact test; NaN, on a padding edge, passes neither
    near = vx * vx + vy * vy <= eps_sq * (1.0 + 1e-6)
    near[near] = _squared(vx[near]) + _squared(vy[near]) <= eps_sq
    return odd_crossings(e, px, py) | near.any(axis=0)


# Python's max(lo, v) and min(hi, v) elementwise, down to the sign of a zero
def _at_least(lo: float, v: np.ndarray) -> np.ndarray:
    return np.where(v > lo, v, lo)


def _at_most(hi: float, v: np.ndarray) -> np.ndarray:
    return np.where(v < hi, v, hi)


def simple_polygons(polys: Sequence[Polygon]) -> np.ndarray:
    """Whether each polygon is simple, as a bool array (simple_polygon_rows)."""
    xy = np.array([v for p in polys for v in p], dtype=float).reshape(-1, 2)
    return simple_polygon_rows(xy, np.array([len(p) for p in polys], dtype=int))


def simple_polygon_rows(xy: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Whether each polygon is simple, as a bool array, in one numpy pass per vertex count.

    The polygons are stored one after another: polygon i has the next
    counts[i] rows of xy.  A polygon is simple when no vertex repeats
    (_dist_sq within PARALLEL_EPS) and no two non-adjacent edges cross or
    overlap (_segments_cross).  The tests compare every verdict with a
    scalar loop over those two helpers, and the expressions here are
    elementwise copies of theirs in their order.  A polygon on which the
    scalar loop raises OverflowError (Python's ** 2 of a finite value past
    the float range) is not simple here, nor is one of fewer than 3 vertices.
    """
    simple = np.zeros(len(counts), dtype=bool)
    first = np.cumsum(counts) - counts
    with np.errstate(all="ignore"):
        for n in set(counts[counts >= 3].tolist()):   # np.unique would import numpy.ma
            idx = np.flatnonzero(counts == n)
            poly = (xy[:len(idx) * n].reshape(-1, n, 2) if len(idx) == len(counts)
                    else xy[first[idx, None] + np.arange(n)])
            simple[idx] = _simple_of_size(poly[:, :, 0], poly[:, :, 1])
    return simple


@functools.lru_cache(maxsize=64)   # bounded: a trace may hold polygons of any size
def _pair_indices(n: int) -> tuple[np.ndarray, ...]:
    """The read-only index arrays of _simple_of_size for polygons of n vertices.

    (i, j) of every vertex pair i < j, then (p, s1, s2) of every test of a
    point p against a segment s1 -> s2 that _simple_of_size makes.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 2, n) if (b + 1) % n != a]
    e, f = np.array(pairs, dtype=int).reshape(-1, 2).T
    e1, f1 = (e + 1) % n, (f + 1) % n
    out = (*np.triu_indices(n, 1), np.concatenate([e, e1, f, f1]),
           np.concatenate([f, f, e, e]), np.concatenate([f1, f1, e1, e1]))
    for arr in out:
        arr.flags.writeable = False
    return out


def _simple_of_size(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """simple_polygons of polygons of one size n >= 3, given as (polygons, n) coordinates."""
    i, j, p, s1, s2 = _pair_indices(x.shape[1])
    overflow = np.zeros(len(x), dtype=bool)

    def squared(v: np.ndarray, evaluated: np.ndarray | bool = True) -> np.ndarray:
        """_squared(v), noting polygons where Python's v ** 2 would raise OverflowError."""
        nonlocal overflow
        sq = _squared(v)
        overflow |= (np.isinf(sq) & np.isfinite(v) & evaluated).any(axis=1)
        return sq

    # a repeated vertex: _dist_sq of every pair
    repeated = squared(x[:, i] - x[:, j]) + squared(y[:, i] - y[:, j]) <= PARALLEL_EPS

    # _segments_cross of every pair of non-adjacent edges (e, e + 1) and (f, f + 1), as its
    # four tests of a point p against a segment s1 -> s2: p = e, e + 1, f, f + 1 in turn
    px, py, ax, ay = x[:, p], y[:, p], x[:, s1], y[:, s1]
    dx = x[:, s2] - ax
    dy = y[:, s2] - ay
    d = dx * (py - ay) - dy * (px - ax)  # _cross(s1, s2, p)
    d1, d2, d3, d4 = np.split(d > 0, 4, axis=1)
    crossed = (d1 != d2) & (d3 != d4)
    # collinear overlap: _point_segment_dist_sq(p, s1, s2), which runs where abs(d) <= COLLINEAR_EPS
    collinear = np.abs(d) <= COLLINEAR_EPS
    if not collinear.any():   # as usual: no test runs, so none overflows or finds an overlap
        return ~(repeated.any(axis=1) | crossed.any(axis=1) | overflow)
    len_sq = dx * dx + dy * dy
    short = len_sq <= PARALLEL_EPS
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(short, 1.0, len_sq)
    t = _at_most(1.0, _at_least(0.0, t))
    qx = np.where(short, ax, ax + t * dx)
    qy = np.where(short, ay, ay + t * dy)
    near = squared(px - qx, collinear) + squared(py - qy, collinear) <= PARALLEL_EPS
    return ~(repeated.any(axis=1) | crossed.any(axis=1) | (collinear & near).any(axis=1) | overflow)


def _rings(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Polygons stored one after another, polygon i the next counts[i] vertices, as indices:
    the first vertex of each polygon, then the polygon, the vertex before and the vertex
    after of each vertex."""
    ends = np.cumsum(counts)
    starts = ends - counts
    size = int(ends[-1]) if len(ends) else 0
    some = counts > 0
    prev = np.arange(-1, size - 1)
    prev[starts[some]] = ends[some] - 1
    nxt = np.arange(1, size + 1)
    nxt[ends[some] - 1] = starts[some]
    return starts, np.repeat(np.arange(len(counts)), counts), prev, nxt


def clip_rows(
    x: np.ndarray, y: np.ndarray, counts: np.ndarray, loop: ClipLoop
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of many polygons by one clip_loop, one numpy pass per clip edge.

    The polygons are stored one after another: polygon i has the next
    counts[i] vertices of (x, y), and so has the clipped polygon i of the
    answer (x, y, counts), 0 where nothing is left.  An edge a -> b keeps
    each vertex p with sign * cross(a->b, p) >= 0 and adds the crossing of
    each polygon edge that changes sides, at t = 0.5 where |den| < PARALLEL_EPS.
    The tests compare every vertex, to the bit, with the scalar oracles.clip_by_loop.
    """
    sign, edges = loop
    if not sign:
        return x[:0], y[:0], np.zeros_like(counts)
    for (ax, ay), (bx, by) in edges:
        kept = sign * ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) >= 0.0
        if kept.all():
            continue   # each vertex gives itself
        _, poly_of, prev, _ = _rings(counts)
        # the crossing of the edge s -> e of each vertex e and the vertex s before it
        x1, y1 = x[prev], y[prev]
        den = (x1 - x) * (ay - by) - (y1 - y) * (ax - bx)
        parallel = np.abs(den) < PARALLEL_EPS
        num = (x1 - ax) * (ay - by) - (y1 - ay) * (ax - bx)
        t = np.where(parallel, 0.5, num / np.where(parallel, 1.0, den))
        # each vertex gives the crossing of its edge from s if s is on the other side,
        # then itself if kept
        take = np.empty((len(x), 2), dtype=bool)
        take[:, 0] = kept != kept[prev]
        take[:, 1] = kept
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = x1 + t * (x - x1)
        out[:, 0, 1] = y1 + t * (y - y1)
        out[:, 1, 0] = x
        out[:, 1, 1] = y
        x, y = out[take].T
        counts = np.bincount(poly_of, weights=take.sum(axis=1), minlength=len(counts)).astype(int)
    return x, y, counts


def convex_unchanged(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Whether convex_pieces would return each polygon as it is, as a bool array.

    The polygons are stored one after another: polygon i has the next
    counts[i] vertices of (x, y).  convex_pieces returns a polygon as it is
    when _clean_polygon drops nothing (every vertex is more than
    PARALLEL_EPS by _dist_sq from the one before it, and every turn has
    |_cross| above COLLINEAR_EPS), every turn has one sign (is_convex) and
    the area is above AREA_EPS_PX2.  The expressions are elementwise copies
    of the scalar ones in their order, and the area is summed vertex by
    vertex, so every verdict is the scalar code's wherever no square
    overflows.
    """
    starts, poly_of, prev, nxt = _rings(counts)
    with np.errstate(all="ignore"):
        dx = x - x[prev]
        dy = y - y[prev]
        turn = dx * (y[nxt] - y[prev]) - dy * (x[nxt] - x[prev])  # _cross(prev, vertex, next)
        kept = (_squared(dx) + _squared(dy) > PARALLEL_EPS) & (np.abs(turn) > COLLINEAR_EPS)
        left = np.bincount(poly_of, weights=turn > 0.0, minlength=len(counts))
        # signed_area: x_i * y_(i+1) - x_(i+1) * y_i summed in vertex order from 0.0
        column = np.arange(len(x)) - starts[poly_of]
        terms = np.zeros((len(counts), int(column.max(initial=0)) + 1))
        terms[poly_of, column] = x * y[nxt] - x[nxt] * y
        area = np.zeros(len(counts))
        for term in terms.T:
            area = area + term
        return (
            (counts >= 3)
            & (np.bincount(poly_of, weights=~kept, minlength=len(counts)) == 0)
            & ((left == 0) | (left == counts))
            & (np.abs(area / 2.0) > AREA_EPS_PX2)
        )


def inscribed_rects(
    x: np.ndarray, y: np.ndarray, counts: np.ndarray, screen_w: float, screen_h: float
) -> tuple[np.ndarray, list[int]]:
    """Largest-effort axis-aligned rectangles inside many polygons, searched in lockstep.

    Polygon i has the next counts[i] vertices of (x, y).  Each rect starts
    as its polygon's bounding box clamped to the screen.  One numpy pass
    tests the corners of every rect still shrinking (_points_inside, which
    counts the crossings of its top and its bottom row once each) and moves
    the sides whose corner pair is not fully inside by SHRINK_STEP of the
    rect's extent on that axis.  A search ends with its rect when all four
    corners are inside, or with none once an extent is MIN_RECT_EXTENT_PX or
    less or after MAX_SHRINK_PASSES.  Not the maximal inscribed rectangle,
    but a cheap and stable one.  The rects of all searches are one (4, n)
    array and their edges one EdgeLoops, and each pass takes the searches
    still shrinking by index, so a pass costs the same few numpy calls
    however many searches it holds.  A search's rect and passes depend on
    its polygon alone, not on the others searched with it.  Returns the
    rects as an (n, 4) float64 array of (x_min, y_min, x_max, y_max) rows,
    NaN where a search found none, and each search's passes; raises
    ValueError for fewer than 3 vertices.
    """
    if (counts < 3).any():
        raise ValueError("polygon needs at least 3 vertices")
    rects = np.full((len(counts), 4), np.nan)
    if not len(counts):
        return rects, []
    passes = np.zeros(len(counts), dtype=int)
    wh = np.array([[screen_w], [screen_h]], dtype=float)
    loops = EdgeLoops.of(x, y, counts)
    corner = loops.packed[:2]   # ax, ay: every vertex, and the first again for padding
    # the rects as rows x_min, y_min, x_max, y_max, a column per search
    box = np.concatenate([_at_least(0.0, corner.min(axis=1)), _at_most(wh, corner.max(axis=1))])
    idx = np.flatnonzero((box[:2] < box[2:]).all(axis=0))
    n = 0
    while idx.size:
        rect = box[:, idx]
        # inside[i, j, k]: corner (x_min, x_max)[j], (y_min, y_max)[i] of search idx[k]
        inside = _points_inside(loops[idx], rect[None, 0::2], rect[1::2, None])
        found = inside.all(axis=(0, 1))
        rects[idx[found]] = rect[:, found].T
        passes[idx] = n
        extent = rect[2:] - rect[:2]
        if n >= MAX_SHRINK_PASSES:
            break
        # x_min and x_max stay where both their corners are inside, y_min and y_max likewise;
        # any other side moves in by SHRINK_STEP of the extent (x_max - s is x_max + -s)
        stay = np.stack([inside.all(axis=0), inside.all(axis=1)], axis=1).reshape(4, -1)
        step = SHRINK_STEP * extent
        moved = rect + np.concatenate([step, -step])
        moved[:2] = _at_least(0.0, moved[:2])
        moved[2:] = _at_most(wh, moved[2:])
        box[:, idx] = np.where(stay, rect, moved)
        idx = idx[~found & (extent > MIN_RECT_EXTENT_PX).all(axis=0)]
        n += 1
    return rects, passes.tolist()
