"""Pure 2D screen-space geometry kernel.

Everything here works on plain ``(x, y)`` pixel tuples using the screen
convention: origin at the top-left corner, y growing downward.  Polygons are
vertex lists, rectangles are axis-aligned, and the empty rectangle is
represented as ``None`` rather than a degenerate object.  All functions are
stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

Point = tuple[float, float]
Polygon = Sequence[Point]

# Shared tolerances.
CONTAINMENT_EPS_PX = 1e-6   # points within this distance of a boundary count as inside
PARALLEL_EPS = 1e-12        # |denominator| below this means parallel lines
BEHIND_W_EPS = 1e-9         # clip-space w at or below this means behind the camera
AREA_EPS_PX2 = 1e-9         # pieces smaller than this are discarded as slivers
COLLINEAR_EPS = 1e-9        # |cross product| below this means collinear

# Inscribed-rectangle search.
SHRINK_STEP = 0.025         # per-pass inward step, as a fraction of the current extent
MAX_SHRINK_PASSES = 200
MIN_RECT_EXTENT_PX = 1.0    # the search gives up once either extent falls to this
_QUICK_TEST_LIMIT_PX = 2.0**20  # coordinates the quick containment test decides within


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

    def corners(self) -> list[Point]:
        return [
            (self.x_min, self.y_min),
            (self.x_max, self.y_min),
            (self.x_max, self.y_max),
            (self.x_min, self.y_max),
        ]

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


def clip_to_screen(
    clip: Sequence[float], screen_w: float, screen_h: float, v_local: Sequence[float]
) -> Point | None:
    """Perspective division and viewport transform of one clip-space vertex.

    Returns None when clip-space w <= BEHIND_W_EPS (behind the camera) and
    raises ArithmeticError, naming v_local, for non-finite pixels.
    """
    x_clip, y_clip, _, w = clip
    if w <= BEHIND_W_EPS:
        return None
    x = (x_clip / w + 1.0) / 2.0 * screen_w
    y = (1.0 - (y_clip / w + 1.0) / 2.0) * screen_h
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ArithmeticError(f"non-finite screen coordinates from vertex {v_local!r}")
    return (x, y)


def line_param_t(p1: Point, p2: Point, p3: Point, p4: Point) -> float | None:
    """Parameter t of the intersection of line p1->p2 with line p3->p4.

    t is measured along p1->p2 (t=0 at p1, t=1 at p2).  Returns None when
    the lines are parallel or nearly so.
    """
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    x4, y4 = p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < PARALLEL_EPS:
        return None
    return ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den


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


def is_simple_polygon(poly: Polygon) -> bool:
    """True when no two non-adjacent edges intersect and no vertex repeats."""
    n = len(poly)
    if n < 3:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if _dist_sq(poly[i], poly[j]) <= PARALLEL_EPS:
                return False
    for i in range(n):
        a1, a2 = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex by construction
            b1, b2 = poly[j], poly[(j + 1) % n]
            if _segments_cross(a1, a2, b1, b2):
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


def point_in_polygon(point: Point, poly: Polygon) -> bool:
    """Even-odd containment test; boundary points within CONTAINMENT_EPS_PX count as inside."""
    px, py = point
    if len(poly) == 0:
        return False
    eps_sq = CONTAINMENT_EPS_PX * CONTAINMENT_EPS_PX
    for a, b in _edges(poly):
        if _point_segment_dist_sq(point, a, b) <= eps_sq:
            return True
    inside = False
    for (ax, ay), (bx, by) in _edges(poly):
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) / (by - ay) * (bx - ax)
            if x_cross > px:
                inside = not inside
    return inside


def _edge_intersection(p1: Point, p2: Point, p3: Point, p4: Point) -> Point:
    t = line_param_t(p1, p2, p3, p4)
    if t is None:
        # endpoints straddle a parallel edge only through float noise; split the difference
        t = 0.5
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def _clip_one_edge(poly: list[Point], a: Point, b: Point, sign: float) -> list[Point]:
    """Keep the part of poly where sign * cross(a->b, p) >= 0 (boundary kept)."""
    if not poly:
        return []
    out: list[Point] = []
    s = poly[-1]
    s_in = sign * _cross(a, b, s) >= 0.0
    for e in poly:
        e_in = sign * _cross(a, b, e) >= 0.0
        if e_in:
            if not s_in:
                out.append(_edge_intersection(s, e, a, b))
            out.append(e)
        elif s_in:
            out.append(_edge_intersection(s, e, a, b))
        s = e
        s_in = e_in
    return out


def clip_polygon(subject: Polygon, clip: Polygon) -> list[Point]:
    """Sutherland-Hodgman intersection of a polygon with a convex clip.

    The clip polygon may be wound either way; its interior side is derived
    from its signed area.  Vertices exactly on a clip edge are kept.  Raises
    ValueError when the clip polygon is not convex.
    """
    if len(clip) < 3:
        raise ValueError("clip polygon needs at least 3 vertices")
    if not is_convex(clip):
        raise ValueError("clip polygon must be convex")
    orient = signed_area(clip)
    if abs(orient) <= AREA_EPS_PX2:
        return []
    sign = 1.0 if orient > 0 else -1.0
    out = [(float(x), float(y)) for x, y in subject]
    for a, b in _edges(clip):
        out = _clip_one_edge(out, a, b, sign)
        if not out:
            return []
    return out


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
    A piece that does not actually meet the occluder is returned whole, so
    disjoint occluders never fragment it.
    """
    orient = signed_area(occluder)
    if abs(orient) <= AREA_EPS_PX2:
        return [list(piece)]
    sign = 1.0 if orient > 0 else -1.0
    occ_edges = list(_edges(occluder))
    overlap = list(piece)
    for a, b in occ_edges:
        overlap = _clip_one_edge(overlap, a, b, sign)
        if not overlap:
            break
    if not overlap or polygon_area(overlap) <= AREA_EPS_PX2:
        return [list(piece)]
    parts: list[list[Point]] = []
    for i, (a, b) in enumerate(occ_edges):
        region = list(piece)
        region = _clip_one_edge(region, a, b, -sign)
        for j in range(i):
            if not region:
                break
            aj, bj = occ_edges[j]
            region = _clip_one_edge(region, aj, bj, sign)
        if region and polygon_area(region) > AREA_EPS_PX2:
            parts.append(region)
    return parts


def _boxes_apart(a: Polygon, b: Polygon) -> bool:
    """True when the bounding boxes of a and b, a's grown by 1 px, do not meet."""
    ax = [p[0] for p in a]
    ay = [p[1] for p in a]
    bx = [p[0] for p in b]
    by = [p[1] for p in b]
    return (
        max(bx) < min(ax) - 1.0 or max(ax) + 1.0 < min(bx)
        or max(by) < min(ay) - 1.0 or max(ay) + 1.0 < min(by)
    )


def subtract_occluders(subject: Polygon, occluders: Sequence[Polygon]) -> list[list[Point]]:
    """Subject minus the union of occluders, as interior-disjoint convex pieces.

    Concave inputs are split into convex parts first, so every returned
    piece is convex.  An empty result means the subject is fully covered.
    """
    pieces = convex_pieces(subject)
    for occ in occluders:
        if len(occ) < 3 or all(_boxes_apart(occ, piece) for piece in pieces):
            continue  # convex_subtract would return every piece unchanged
        for occ_part in convex_pieces(occ):
            nxt: list[list[Point]] = []
            for piece in pieces:
                nxt.extend(convex_subtract(piece, occ_part))
            pieces = nxt
            if not pieces:
                return []
    return pieces


def _containment_test(poly: Polygon) -> Callable[[Point], bool]:
    """``point_in_polygon(p, poly)`` for many p, deciding clear cases from edge-line signs.

    For edge a->b let c(p) = cross(a, b, p), which is affine in p.  The
    polygon, region and boundary, lies in the convex hull of its vertices,
    so between the least and the greatest c of any vertex.  Let the margin
    be 2 * CONTAINMENT_EPS_PX * |ab|.  A point whose c is more than the
    margin beyond that range, for some edge, is more than 2 eps from every
    edge and outside: point_in_polygon says False.  A point whose c exceeds
    the margin on the same side of every edge line sees the boundary turn
    one way around it all along, so its winding number is the polygon's
    turning number k; it is more than eps from every edge, and
    point_in_polygon says inside exactly when k is odd.  A point equal to a
    vertex is on the boundary, so inside.  Any other point, and every point
    of a polygon with a zero-length edge, goes to point_in_polygon.
    Rounding in c stays below 1e-8 px while points and vertices lie within
    2**20 px of the origin; beyond that, or for non-finite coordinates,
    every point goes to point_in_polygon.
    """
    n = len(poly)
    lim = _QUICK_TEST_LIMIT_PX
    if n < 3 or not all(-lim <= v <= lim for p in poly for v in p):
        return lambda p: point_in_polygon(p, poly)
    edges = []
    units = []
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        cs = [dx * (y - ay) - dy * (x - ax) for x, y in poly]
        margin = 2.0 * CONTAINMENT_EPS_PX * length
        edges.append((ax, ay, dx, dy, margin, min(cs) - margin, max(cs) + margin))
        units.append((dx / length, dy / length) if length else (0.0, 0.0))
    turning = sum(
        math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
        for (ux, uy), (vx, vy) in zip(units, units[1:] + units[:1])
    )
    odd = round(turning / (2.0 * math.pi)) % 2 == 1
    vertices = {(x, y) for x, y in poly}

    def inside(p: Point) -> bool:
        px, py = p
        if not (-lim <= px <= lim and -lim <= py <= lim):
            return point_in_polygon(p, poly)
        left = right = True
        for ax, ay, dx, dy, margin, lo, hi in edges:
            c = dx * (py - ay) - dy * (px - ax)
            if c < lo or c > hi:
                return False
            left = left and c > margin
            right = right and c < -margin
        if left or right:
            return odd
        return (px, py) in vertices or point_in_polygon(p, poly)

    return inside


def _conservative_shrink(
    x_min: float,
    y_min: float,
    x_max: float,
    y_max: float,
    poly: Polygon,
    screen_w: float,
    screen_h: float,
) -> tuple[Rect | None, int]:
    """Shrink the rect until all four corners sit inside poly.

    Each pass moves only the sides whose corner pair is not fully inside,
    by 2.5% of the rect's current extent on that axis.  Returns the rect and
    the number of passes used, or (None, passes) when the rect degenerates
    or the pass budget runs out.
    """
    inside = _containment_test(poly)
    passes = 0
    while True:
        in_tl = inside((x_min, y_min))
        in_tr = inside((x_max, y_min))
        in_bl = inside((x_min, y_max))
        in_br = inside((x_max, y_max))
        if in_tl and in_tr and in_bl and in_br:
            return Rect(x_min, y_min, x_max, y_max), passes
        dx = x_max - x_min
        dy = y_max - y_min
        if dx <= MIN_RECT_EXTENT_PX or dy <= MIN_RECT_EXTENT_PX:
            return None, passes
        if passes >= MAX_SHRINK_PASSES:
            return None, passes
        if not (in_tl and in_bl):
            x_min = max(0.0, x_min + SHRINK_STEP * dx)
        if not (in_tr and in_br):
            x_max = min(screen_w, x_max - SHRINK_STEP * dx)
        if not (in_tl and in_tr):
            y_min = max(0.0, y_min + SHRINK_STEP * dy)
        if not (in_bl and in_br):
            y_max = min(screen_h, y_max - SHRINK_STEP * dy)
        passes += 1


def inscribed_rect(poly: Polygon, screen_w: float, screen_h: float) -> Rect | None:
    """Largest-effort axis-aligned rectangle inside a polygon.

    Starts from the polygon's bounding box clamped to the screen and shrinks
    it conservatively until every corner lies inside the polygon.  Not the
    maximal inscribed rectangle, but a cheap and stable approximation.
    Returns None when the search degenerates below 1 px on either axis or
    does not converge within the pass budget.
    """
    if len(poly) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    x_min = max(0.0, min(xs))
    x_max = min(float(screen_w), max(xs))
    y_min = max(0.0, min(ys))
    y_max = min(float(screen_h), max(ys))
    if x_min >= x_max or y_min >= y_max:
        return None
    rect, _ = _conservative_shrink(x_min, y_min, x_max, y_max, poly, float(screen_w), float(screen_h))
    return rect
