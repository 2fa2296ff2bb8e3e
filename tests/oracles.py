"""Independent reference implementations used to cross-check the package.

Most references here are written from scratch against the documented
behavior, not by calling into playtrace, so a bug in the package cannot
hide in its own test oracle.  The scalar simplicity, containment, clipping
and per-frame visibility references, the scalar life_spans and the
eager-analysis and per-line ingest references reuse the package's kernels
and differ only in the order of the work.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import numpy as np

Point = tuple[float, float]


# ---------------------------------------------------------------- generators

def convex_hull(points: list[Point]) -> list[Point]:
    """Monotone chain hull, CCW in math orientation, no duplicate endpoint."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(iterable):
        out: list[Point] = []
        for p in iterable:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_convex(rng: random.Random, center: Point, radius: float,
                  n_points: int = 12) -> list[Point]:
    cx, cy = center
    pts = []
    for _ in range(n_points):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        r = radius * math.sqrt(rng.random())
        pts.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    hull = convex_hull(pts)
    while len(hull) < 3:
        pts.append((cx + rng.uniform(-radius, radius), cy + rng.uniform(-radius, radius)))
        hull = convex_hull(pts)
    return hull


def random_star(rng: random.Random, center: Point, r_lo: float, r_hi: float,
                n_vertices: int = 12) -> list[Point]:
    """A star-shaped polygon around center.

    Angular gaps between consecutive vertices are kept below pi, which makes
    every edge stay inside its own angular wedge, so the polygon is always
    simple.
    """
    cx, cy = center
    gaps = [rng.uniform(0.5, 1.0) for _ in range(n_vertices)]
    total = sum(gaps)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    poly = []
    for gap in gaps:
        ang += gap * 2.0 * math.pi / total
        r = rng.uniform(r_lo, r_hi)
        poly.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    return poly


def band_beside(poly, side, gap, depth):
    """A rectangle beside poly's bounding box, gap px from it, across its whole span."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    x0, x1, y0, y1 = min(xs) - 5.0, max(xs) + 5.0, min(ys) - 5.0, max(ys) + 5.0
    if side == "right":
        x0, x1 = max(xs) + gap, max(xs) + gap + depth
    elif side == "left":
        x0, x1 = min(xs) - gap - depth, min(xs) - gap
    elif side == "below":
        y0, y1 = max(ys) + gap, max(ys) + gap + depth
    else:
        y0, y1 = min(ys) - gap - depth, min(ys) - gap
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


# ------------------------------------------------------------- containment

def _point_segment_dist(p: Point, a: Point, b: Point) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def contains(poly: list[Point], p: Point, eps: float = 1e-6) -> bool:
    """Boundary-tolerant even-odd ray casting."""
    n = len(poly)
    for i in range(n):
        if _point_segment_dist(p, poly[i], poly[(i + 1) % n]) <= eps:
            return True
    inside = False
    x, y = p
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def shoelace(poly: list[Point]) -> float:
    s = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def convex_masks(poly: list[Point], xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized inside test for a convex polygon (boundary counts inside)."""
    orient = 1.0 if shoelace(poly) >= 0 else -1.0
    mask = np.ones(xs.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)
        mask &= orient * cross >= 0.0
    return mask


def mc_intersection_area(subject: list[Point], clip: list[Point],
                         rng: np.random.Generator, n_samples: int) -> float:
    """Monte Carlo area of subject AND clip, sampled over their joint bbox."""
    x_lo = max(min(p[0] for p in subject), min(p[0] for p in clip))
    x_hi = min(max(p[0] for p in subject), max(p[0] for p in clip))
    y_lo = max(min(p[1] for p in subject), min(p[1] for p in clip))
    y_hi = min(max(p[1] for p in subject), max(p[1] for p in clip))
    if x_lo >= x_hi or y_lo >= y_hi:
        return 0.0
    box_area = (x_hi - x_lo) * (y_hi - y_lo)
    hits = 0
    chunk = 125_000
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        xs = rng.uniform(x_lo, x_hi, m)
        ys = rng.uniform(y_lo, y_hi, m)
        hits += int(np.count_nonzero(convex_masks(subject, xs, ys)
                                     & convex_masks(clip, xs, ys)))
        remaining -= m
    return box_area * hits / n_samples


# ------------------------------------------------------------ simplicity
# The scalar simplicity test that geometry.simple_polygons copies
# elementwise.  It calls the package's own _dist_sq and _segments_cross, so
# the property tests pin the batched kernel to these helpers' verdicts.

def is_simple_polygon(poly: list[Point]) -> bool:
    """True when no two non-adjacent edges intersect and no vertex repeats."""
    from playtrace.geometry import PARALLEL_EPS, _dist_sq, _segments_cross

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


# ------------------------------------- scalar containment, clip, subtraction
# The one-at-a-time forms of what the package does in numpy passes:
# geometry._points_inside copies point_in_polygon elementwise,
# geometry.odd_crossings is points_in_polygon_mask with every edge at once,
# geometry.clip_rows is clip_by_loop for many polygons at once, to the bit,
# and geometry.convex_subtract is convex_subtract with its clips made by
# clip_rows.  clip_polygon is the package's own clip, clip_rows, of one polygon.

def points_in_polygon_mask(xs, ys, poly):
    """The even-odd rule for arrays of points in one polygon, one edge at a time.

    Replay's hit test ran this before it shared geometry.odd_crossings with
    the inscribed-box search: each edge that straddles a point's y to the
    right of the point flips it.
    """
    inside = np.zeros(xs.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        crossing = (np.asarray(ay > ys)) != (np.asarray(by > ys))
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = ax + (ys - ay) / (by - ay) * (bx - ax)
        inside ^= crossing & (x_cross > xs)
    return inside


def point_in_polygon(point: Point, poly: list[Point]) -> bool:
    """Even-odd containment test; boundary points within CONTAINMENT_EPS_PX count as inside."""
    from playtrace.geometry import CONTAINMENT_EPS_PX, _edges, _point_segment_dist_sq

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
    """Where line p1->p2 meets line p3->p4, at t = 0.5 along p1->p2 when they are parallel."""
    from playtrace.geometry import PARALLEL_EPS

    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    x4, y4 = p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < PARALLEL_EPS:
        # endpoints straddle a parallel edge only through float noise; split the difference
        t = 0.5
    else:
        t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _clip_one_edge(poly: list[Point], a: Point, b: Point, sign: float) -> list[Point]:
    """Keep the part of poly where sign * cross(a->b, p) >= 0 (boundary kept)."""
    from playtrace.geometry import _cross

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


def clip_by_loop(subject, sign, edges) -> list[Point]:
    """Sutherland-Hodgman clip of subject by a clip_loop, one vertex at a time."""
    if not sign:
        return []
    out = [(float(x), float(y)) for x, y in subject]
    for a, b in edges:
        out = _clip_one_edge(out, a, b, sign)
        if not out:
            return []
    return out


def convex_subtract(piece, occluder) -> list[list[Point]]:
    """geometry.convex_subtract with every clip made by _clip_one_edge, one vertex at a time."""
    from playtrace.geometry import AREA_EPS_PX2, _winding_loop, polygon_area

    sign, occ_edges = _winding_loop(occluder)
    overlap = clip_by_loop(piece, sign, occ_edges)
    if not overlap or polygon_area(overlap) <= AREA_EPS_PX2:
        return [list(piece)]
    parts: list[list[Point]] = []
    for i, (a, b) in enumerate(occ_edges):
        region = _clip_one_edge(list(piece), a, b, -sign)
        for j in range(i):
            if not region:
                break
            aj, bj = occ_edges[j]
            region = _clip_one_edge(region, aj, bj, sign)
        if region and polygon_area(region) > AREA_EPS_PX2:
            parts.append(region)
    return parts


def clip_polygon(subject: list[Point], clip: list[Point]) -> list[Point]:
    """geometry.clip_rows of subject by clip_loop(clip): raises ValueError when clip is not convex."""
    from playtrace.geometry import clip_loop

    return clip_rows_split([subject], clip_loop(clip))[0]


def clip_rows_split(polys, loop):
    """geometry.clip_rows of polygons given as vertex lists, split back into one list each."""
    from playtrace.geometry import clip_rows

    xy = np.array([p for poly in polys for p in poly], dtype=float).reshape(-1, 2)
    x, y, counts = clip_rows(xy[:, 0], xy[:, 1], np.array([len(p) for p in polys], dtype=int),
                             loop)
    assert len(x) == len(y) == counts.sum() and len(counts) == len(polys)
    xy = list(zip(x.tolist(), y.tolist()))
    ends = np.cumsum(counts).tolist()
    return [xy[a:b] for a, b in zip([0, *ends], ends)]


# -------------------------------------------------------------- life spans

def life_spans_reference(boxes, screen, min_visibility):
    """Straightforward scan with the documented open/close rules.

    Works on playtrace Rect objects but never calls playtrace code; returns
    [(x_min, y_min, x_max, y_max), member_indices] pairs.
    """
    w, h = screen
    total = float(w) * float(h)

    def clamp(b):
        if b is None:
            return None
        x0, y0 = max(b.x_min, 0.0), max(b.y_min, 0.0)
        x1, y1 = min(b.x_max, float(w)), min(b.y_max, float(h))
        if x0 > x1 or y0 > y1:
            return None
        return (x0, y0, x1, y1)

    def usable(c):
        return c is not None and (c[2] - c[0]) * (c[3] - c[1]) / total >= min_visibility

    spans = []
    i, n = 0, len(boxes)
    while i < n:
        c = clamp(boxes[i])
        if not usable(c):
            i += 1
            continue
        cur, members = c, [i]
        j = i + 1
        while j < n:
            cj = clamp(boxes[j])
            if not usable(cj):
                j += 1      # a frame with no usable box of its own is consumed
                break
            inter = (max(cur[0], cj[0]), max(cur[1], cj[1]),
                     min(cur[2], cj[2]), min(cur[3], cj[3]))
            if inter[0] > inter[2] or inter[1] > inter[3] or not usable(inter):
                break       # this frame retries as the next opener
            cur = inter
            members.append(j)
            j += 1
        spans.append((cur, members))
        i = j
    return spans


def life_spans(boxes, screen, min_visibility):
    """life_spans as a scalar scan over Rect | None slots, one frame at a time.

    The package's life_spans before boxes became arrays, with its own Rect
    kernels; returns (Rect, member index list) pairs.
    """
    from playtrace.geometry import Rect, rect_area, rect_intersect

    w, h = screen
    screen_px = float(w) * float(h)
    full = Rect(0.0, 0.0, float(w), float(h))

    def clamped(b):
        return rect_intersect(full, b) if b is not None else None

    def usable(r):
        return r is not None and rect_area(r) / screen_px >= min_visibility

    spans = []
    stable = None
    members = []
    i = 0
    n = len(boxes)
    while i < n:
        b = clamped(boxes[i])
        if stable is None:
            if usable(b):
                stable = b
                members = [i]
            i += 1
            continue
        if not usable(b):
            spans.append((stable, members))
            stable = None
            members = []
            i += 1
            continue
        cand = rect_intersect(stable, b)
        if not usable(cand):
            # close at the previous frame; frame i retries as a span opener
            spans.append((stable, members))
            stable = None
            members = []
            continue
        stable = cand
        members.append(i)
        i += 1
    if stable is not None:
        spans.append((stable, members))
    return spans


def box_rows(boxes):
    """Rect | None slots as the package's (n, 4) float64 box array, NaN rows for None."""
    rows = np.full((len(boxes), 4), np.nan)
    for i, b in enumerate(boxes):
        if b is not None:
            rows[i] = b.as_list()
    return rows


def rects_of(rows):
    """An (n, 4) box array as Rect | None slots, None for NaN rows."""
    from playtrace.geometry import Rect

    return [None if np.isnan(r).any() else Rect(*r) for r in np.asarray(rows).tolist()]


def same_bits(a, b):
    """Floats equal bit for bit: -0.0 differs from 0.0, and NaN equals NaN."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def assert_same_run(got, want):
    """Two RunBoxes equal, their box arrays bit for bit and in the same key order."""
    assert list(got.boxes) == list(want.boxes)
    for tid, rows in got.boxes.items():
        assert rows.dtype == np.float64 and rows.shape == want.boxes[tid].shape, tid
        assert same_bits(rows, want.boxes[tid]), tid
    assert got.timestamps_ms == want.timestamps_ms
    assert got.screen == want.screen


# --------------------------------------------------------------- cross-run

def cross_run_matches_bruteforce(runs):
    """Every group of one opportunity per run that shares a trackable and a time.

    Tries the full product of each run's opportunities (sorted by start,
    then end) per common trackable, trackables in sorted order, and keeps
    the groups whose windows have a common instant.
    """
    if not runs:
        return []
    common = set.intersection(*({o.trackable_id for o in run} for run in runs))
    matches = []
    for tid in sorted(common):
        per_run = [
            sorted((o for o in run if o.trackable_id == tid),
                   key=lambda o: (o.start_ms, o.end_ms))
            for run in runs
        ]
        for combo in itertools.product(*per_run):
            if max(o.start_ms for o in combo) <= min(o.end_ms for o in combo):
                matches.append(combo)
    return matches


# ------------------------------------------------------------------ replay

def _camera_at(scene, t):
    """Eye and unit right/up/forward axes, keyframes interpolated linearly."""
    keys = scene.camera_path
    k0 = k1 = min(keys, key=lambda k: abs(k.t_ms - t))  # clamped, or on a keyframe
    f = 0.0
    for a, b in zip(keys, keys[1:]):
        if a.t_ms < t < b.t_ms:
            k0, k1, f = a, b, (t - a.t_ms) / (b.t_ms - a.t_ms)

    def lerp(p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        return p + (q - p) * f

    eye = lerp(k0.position, k1.position)
    fwd = lerp(k0.look_at, k1.look_at) - eye
    fwd /= np.linalg.norm(fwd)
    right = np.cross(fwd, lerp(k0.up, k1.up))
    right /= np.linalg.norm(right)
    return eye, right, np.cross(right, fwd), fwd


def _tracked(plane, t):
    return t >= plane.detect_delay_ms and not any(s <= t < e for s, e in plane.lost_intervals)


def nearest_plane(scene, t, point, tracked_only):
    """Id of the nearest surface under a screen point through a pinhole camera."""
    eye, right, up, fwd = _camera_at(scene, t)
    tan_half = math.tan(math.radians(scene.fov_y_deg) / 2.0)
    x_ndc = 2.0 * point[0] / scene.screen_w - 1.0
    y_ndc = 1.0 - 2.0 * point[1] / scene.screen_h
    d = fwd + right * (x_ndc * tan_half * scene.screen_w / scene.screen_h) + up * (y_ndc * tan_half)
    d /= np.linalg.norm(d)
    best, best_s = None, math.inf
    for p in scene.planes:
        if tracked_only and not _tracked(p, t):
            continue
        denom = float(np.dot(d, p.normal))
        if abs(denom) <= 1e-12:
            continue
        s = float(np.dot(p.normal, p.center - eye)) / denom
        if s <= 1e-12 or s >= best_s:
            continue
        rel = eye + d * s - p.center
        a, b = float(np.dot(rel, p.axis_u)), float(np.dot(rel, p.axis_v))
        if p.local_vertices is None:
            inside = abs(a) <= p.extent_u + 1e-9 and abs(b) <= p.extent_v + 1e-9
        else:
            inside = contains(p.local_vertices.tolist(), (a, b), eps=0.0)
        if inside:
            best, best_s = p.plane_id, s
    return best


def hit_ids(scene, t_ms, points):
    """The id of the nearest tracked surface under each screen point at t_ms, None for sky,
    from one simulator._cast of all the points."""
    from playtrace.simulator import _cast

    points = np.asarray(points, dtype=float).reshape(1, -1, 2)
    best, _ = _cast(scene, np.array([float(t_ms)]), points)
    return [scene.planes[k].plane_id if k >= 0 else None for k in best[0].tolist()]


def replay_reason_two_pass(scene, event):
    """Outcome reason of one gesture, found with two casts.

    Taps are checked at their start, other gestures at max(10, track length)
    evenly spaced times.  The first pass casts against tracked surfaces only;
    when it found none at any sample, a second pass ignores tracking to tell
    PLANE_NOT_TRACKED from MISS_NO_PLANE.
    """
    t0, t1 = float(event.t_start_ms), float(event.t_end_ms)
    if event.kind.value == "TAP":
        times = [t0]
    else:
        times = np.linspace(t0, t1, max(10, max(len(tr) for tr in event.tracks)))
    samples = []
    for t in times:
        for track in event.tracks:
            ts, xs, ys = zip(*track)
            samples.append((float(t), (np.interp(t, ts, xs), np.interp(t, ts, ys))))
    seen = {nearest_plane(scene, t, pt, tracked_only=True) for t, pt in samples}
    ids = seen - {None}
    if None not in seen and len(ids) == 1:
        return "HIT"
    if len(ids) >= 2:
        return "SPLIT_TARGETS"
    if ids:
        return "LEFT_PLANE_MID_GESTURE"
    if any(nearest_plane(scene, t, pt, tracked_only=False) for t, pt in samples):
        return "PLANE_NOT_TRACKED"
    return "MISS_NO_PLANE"


# ------------------------------------------------- per-time camera and replay
#
# The simulator's camera and replay as they were before they were batched:
# one camera pose, one 4x4 inverse and one small ray cast per timestamp.
# The batched code must give the same bits (camera) and the same outcomes.

def look_at_per_time(eye, target, up):
    """World -> camera matrix for one eye, with np.cross and np.dot."""
    eye = np.asarray(eye, dtype=float)
    f = np.asarray(target, dtype=float) - eye
    fn = float(np.linalg.norm(f))
    if fn < 1e-12:
        raise ValueError("camera position and look-at target coincide")
    f = f / fn
    s = np.cross(f, np.asarray(up, dtype=float))
    sn = float(np.linalg.norm(s))
    if sn < 1e-12:
        raise ValueError("camera up vector is parallel to the view direction")
    s = s / sn
    u = np.cross(s, f)
    m = np.eye(4)
    m[0, :3] = s
    m[1, :3] = u
    m[2, :3] = -f
    m[0, 3] = -float(np.dot(s, eye))
    m[1, 3] = -float(np.dot(u, eye))
    m[2, 3] = float(np.dot(f, eye))
    return m


def camera_pose_per_time(scene, t_ms):
    """Camera position and view matrix at one time, clamped to the keyframes."""
    path = scene.camera_path
    if t_ms <= path[0].t_ms or t_ms >= path[-1].t_ms:
        k = path[0] if t_ms <= path[0].t_ms else path[-1]
        return k.position.copy(), look_at_per_time(k.position, k.look_at, k.up)
    hi = 1
    while path[hi].t_ms < t_ms:
        hi += 1
    a, b = path[hi - 1], path[hi]
    f = (t_ms - a.t_ms) / (b.t_ms - a.t_ms)
    pos = a.position + (b.position - a.position) * f
    look = a.look_at + (b.look_at - a.look_at) * f
    up = a.up + (b.up - a.up) * f
    return pos, look_at_per_time(pos, look, up)


def _cast_per_time(scene, t_ms, points):
    """Nearest tracked plane id per screen point at one time, and an any-plane mask."""
    eye, view = camera_pose_per_time(scene, t_ms)
    g = 1.0 / math.tan(math.radians(scene.fov_y_deg) / 2.0)
    near, far = scene.near_m, scene.far_m
    proj = np.zeros((4, 4))
    proj[0, 0] = g / (scene.screen_w / scene.screen_h)
    proj[1, 1] = g
    proj[2, 2] = (far + near) / (near - far)
    proj[2, 3] = 2.0 * far * near / (near - far)
    proj[3, 2] = -1.0
    inv = np.linalg.inv(proj @ view)
    x_ndc = 2.0 * points[:, 0] / scene.screen_w - 1.0
    y_ndc = 1.0 - 2.0 * points[:, 1] / scene.screen_h
    clip = np.stack([x_ndc, y_ndc, np.ones_like(x_ndc), np.ones_like(x_ndc)], axis=1)
    world = clip @ inv.T
    world = world[:, :3] / world[:, 3:4]
    dirs = world - eye
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    n_pts = len(points)
    best_t = np.full(n_pts, np.inf)
    best_id = [None] * n_pts
    over_any = np.zeros(n_pts, dtype=bool)
    for plane in scene.planes:
        denom = dirs @ plane.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ray = float(np.dot(plane.normal, plane.center - eye)) / denom
        valid = (np.abs(denom) > 1e-12) & (t_ray > 1e-12)
        if not np.any(valid):
            continue
        rel = eye + dirs * t_ray[:, None] - plane.center
        a = rel @ plane.axis_u
        b = rel @ plane.axis_v
        if plane.local_vertices is None:
            inside = (np.abs(a) <= plane.extent_u + 1e-9) & (np.abs(b) <= plane.extent_v + 1e-9)
        else:
            inside = np.zeros(n_pts, dtype=bool)
            poly = plane.local_vertices
            for i in range(len(poly)):
                (ax, ay), (bx, by) = poly[i], poly[(i + 1) % len(poly)]
                with np.errstate(divide="ignore", invalid="ignore"):
                    x_cross = ax + (b - ay) / (by - ay) * (bx - ax)
                inside ^= ((ay > b) != (by > b)) & (x_cross > a)
        over_any |= valid & inside
        if not _tracked(plane, t_ms):
            continue
        for i in np.nonzero(valid & inside & (t_ray < best_t))[0]:
            best_t[i] = t_ray[i]
            best_id[i] = plane.plane_id
    return best_id, over_any


def replay_per_sample(scene, schedule):
    """(success, reason) of every gesture, casting one timestamp at a time.

    Taps are checked at their start, other gestures at max(10, track length)
    evenly spaced times, every finger at every time.
    """
    results = []
    for ev in schedule.events:
        if ev.kind.value == "TAP":
            times = np.array([float(ev.t_start_ms)])
        else:
            n = max(10, max(len(tr) for tr in ev.tracks))
            times = np.linspace(float(ev.t_start_ms), float(ev.t_end_ms), n)
        tracks = []
        for tr in ev.tracks:
            ts, xs, ys = np.array(tr, dtype=float).T
            tracks.append(np.stack([np.interp(times, ts, xs), np.interp(times, ts, ys)], axis=1))
        track_pts = np.stack(tracks, axis=1)
        seen = set()
        over_any = False
        for t, pts in zip(times, track_pts):
            ids, over = _cast_per_time(scene, float(t), pts)
            seen.update(ids)
            over_any = over_any or bool(over.any())
        ids = seen - {None}
        if None not in seen and len(ids) == 1:
            results.append((True, "HIT"))
        elif len(ids) >= 2:
            results.append((False, "SPLIT_TARGETS"))
        elif ids:
            results.append((False, "LEFT_PLANE_MID_GESTURE"))
        else:
            results.append((False, "PLANE_NOT_TRACKED" if over_any else "MISS_NO_PLANE"))
    return results


# --------------------------------------------------- per-frame visibility
# visibility.block_pieces one trackable of one frame at a time, as it was
# before the block's numpy passes: a stacked matmul per trackable, the divide
# and viewport per vertex, the distance and the facing sign per trackable,
# and the screen clip and convex_pieces for every polygon.

def clip_to_screen(clip, screen_w, screen_h, v_local):
    """Perspective division and viewport transform of one clip-space vertex.

    Returns None when clip-space w <= BEHIND_W_EPS (behind the camera) and
    raises ArithmeticError, naming v_local, for pixels that are not finite
    numbers within MAX_SCREEN_COORD_PX.
    """
    from playtrace.geometry import BEHIND_W_EPS, MAX_SCREEN_COORD_PX

    x_clip, y_clip, _, w = clip
    if w <= BEHIND_W_EPS:
        return None
    x = (x_clip / w + 1.0) / 2.0 * screen_w
    y = (1.0 - (y_clip / w + 1.0) / 2.0) * screen_h
    if not (abs(x) <= MAX_SCREEN_COORD_PX and abs(y) <= MAX_SCREEN_COORD_PX):
        raise ArithmeticError(f"screen coordinates out of range from vertex {v_local!r}")
    return (x, y)


def facing_camera(trackable, camera_position) -> bool:
    """True when the surface normal points toward the camera.

    The test is the sign of dot(normal, camera - center); an edge-on surface
    (dot exactly zero) does not count as facing.
    """
    to_camera = np.asarray(camera_position, dtype=float) - trackable.center_world
    return float(np.dot(trackable.normal_world, to_camera)) > 0.0


def project_trackable(t, frame):
    """Screen-space polygon of a trackable, or None if any vertex is behind the camera.

    All vertices go through one stacked matmul per matrix: numpy multiplies
    each (4, 1) item with the same BLAS gemv as a 1-D vertex, so every pixel
    is bit-equal to project_per_vertex.  The first vertex that is behind the
    camera (None) or lands on pixels out of range (ArithmeticError) decides.
    """
    xz = t.local_vertices.tolist()
    v = np.array([(x, 0.0, z, 1.0) for x, z in xz]).reshape(-1, 4, 1)
    clip = (frame.projection @ (frame.view @ (t.pose @ v)))[:, :, 0].tolist()
    pts = []
    for c, (x, z) in zip(clip, xz):
        p = clip_to_screen(c, frame.screen_w, frame.screen_h, (x, 0.0, z, 1.0))
        if p is None:
            return None
        pts.append(p)
    return pts


def frame_pieces(frame, screen):
    """block_pieces of one frame, one trackable at a time (ArithmeticError for pixels out of range)."""
    from playtrace.geometry import convex_pieces, subtract_occluders
    from playtrace.trace import TrackingState

    cam = frame.camera_position
    candidates = []
    for t in frame.trackables:
        if t.tracking_state != TrackingState.TRACKING:
            continue
        poly = project_trackable(t, frame)
        if poly is None:
            continue
        dist = float(np.linalg.norm(np.asarray(cam, dtype=float) - t.center_world))
        candidates.append((dist, t, poly))
    candidates.sort(key=lambda c: c[0])
    found = []
    for i, (dist, t, poly) in enumerate(candidates):
        if not facing_camera(t, cam):
            continue
        on_screen = clip_by_loop(poly, *screen)
        if len(on_screen) < 3:
            continue
        occluders = [p for d, _, p in candidates[:i] if d < dist]
        found.append((t.trackable_id, subtract_occluders(convex_pieces(on_screen), occluders)))
    return found


# ------------------------------------------------------- per-vertex visibility
#
# Per-frame visibility as it was before its fast paths: each vertex projected
# with its own three matmuls, every inscribed-box corner tested with
# point_in_polygon, and every occluder subtracted from every piece however
# far apart they are.  Only those three loops are spelled out; the clipping
# and subtraction kernels they call are the package's own, which the fast
# paths left unchanged.

def project_per_vertex(t, frame):
    """Screen polygon of a trackable, one vertex at a time; None if one is behind."""
    pts = []
    for x, z in t.local_vertices.tolist():
        clip = frame.projection @ (frame.view @ (t.pose @ np.array([x, 0.0, z, 1.0])))
        w = float(clip[3])
        if w <= 1e-9:
            return None
        pts.append((
            (float(clip[0]) / w + 1.0) / 2.0 * frame.screen_w,
            (1.0 - (float(clip[1]) / w + 1.0) / 2.0) * frame.screen_h,
        ))
    return pts


def inscribed_rect_pip(poly, screen_w, screen_h):
    """The inscribed-box search with every corner tested by point_in_polygon."""
    from playtrace import geometry as g

    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    x_min, x_max = max(0.0, min(xs)), min(float(screen_w), max(xs))
    y_min, y_max = max(0.0, min(ys)), min(float(screen_h), max(ys))
    if x_min >= x_max or y_min >= y_max:
        return None
    for passes in itertools.count():
        in_tl = point_in_polygon((x_min, y_min), poly)
        in_tr = point_in_polygon((x_max, y_min), poly)
        in_bl = point_in_polygon((x_min, y_max), poly)
        in_br = point_in_polygon((x_max, y_max), poly)
        if in_tl and in_tr and in_bl and in_br:
            return g.Rect(x_min, y_min, x_max, y_max)
        dx, dy = x_max - x_min, y_max - y_min
        if dx <= g.MIN_RECT_EXTENT_PX or dy <= g.MIN_RECT_EXTENT_PX or passes >= g.MAX_SHRINK_PASSES:
            return None
        if not (in_tl and in_bl):
            x_min = max(0.0, x_min + g.SHRINK_STEP * dx)
        if not (in_tr and in_br):
            x_max = min(float(screen_w), x_max - g.SHRINK_STEP * dx)
        if not (in_tl and in_tr):
            y_min = max(0.0, y_min + g.SHRINK_STEP * dy)
        if not (in_bl and in_br):
            y_max = min(float(screen_h), y_max - g.SHRINK_STEP * dy)


def subtract_occluders_unskipped(subject, occluders):
    """Subject minus every convex part of every occluder, none skipped."""
    from playtrace import geometry as g

    pieces = g.convex_pieces(subject)
    for occ in occluders:
        for occ_part in g.convex_pieces(occ):
            pieces = [part for piece in pieces for part in g.convex_subtract(piece, occ_part)]
            if not pieces:
                return []
    return pieces


def analyze_frame_per_vertex(frame):
    """frame_boxes over the three loops above, in the same near-to-far order."""
    from playtrace import geometry as g
    from playtrace.trace import TrackingState
    from playtrace.visibility import screen_clip_polygon

    w, h = frame.screen_w, frame.screen_h
    candidates = []
    for t in frame.trackables:
        if t.tracking_state != TrackingState.TRACKING:
            continue
        poly = project_per_vertex(t, frame)
        if poly is not None:
            dist = float(np.linalg.norm(np.asarray(frame.camera_position, dtype=float) - t.center_world))
            candidates.append((dist, t, poly))
    candidates.sort(key=lambda c: c[0])
    boxes = []
    for i, (dist, t, poly) in enumerate(candidates):
        if not facing_camera(t, frame.camera_position):
            continue
        on_screen = clip_polygon(poly, screen_clip_polygon(w, h))
        if len(on_screen) < 3:
            continue
        pieces = subtract_occluders_unskipped(on_screen, [p for d, _, p in candidates[:i] if d < dist])
        best = None
        for piece in pieces:
            r = inscribed_rect_pip(piece, w, h)
            if r is not None and (best is None or g.rect_area(r) > g.rect_area(best)):
                best = r
        boxes.append((t.trackable_id, best))
    return boxes


# ------------------------------------------------------ in-memory blocks
# FrameRecords gathered into column blocks, as the renderer yielded them
# before it built its blocks directly: the reference for its blocks, and
# the way frames built by hand reach the box pass.

def _block_key(frame):
    """(screen, the set of its matrices' orders, True for column-major) of a frame.

    A matrix in neither order is taken in C order.
    """
    mats = [frame.view, frame.projection, *(t.pose for t in frame.trackables)]
    return (frame.screen_w, frame.screen_h), frozenset(
        m.flags.f_contiguous and not m.flags.c_contiguous for m in mats)


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def column_major(block):
    """Whether the matrices of block are stored column-major, each the transposed view of a
    row of its 16 numbers as the reader holds them, rather than in C order as the renderer's
    are.  The strides of view, proj and pose say it, and must agree; those of an empty
    array mean nothing."""
    (order,) = {mats.strides[1] < mats.strides[2]
                for mats in (block.view, block.proj, block.pose) if mats.size}
    return order


def frames_block(frames, col_major=None):
    """FrameRecords made in memory, all of one screen and one matrix order, as one FrameBlock.

    Given col_major, the (n, 4, 4) matrices are stored in that order (as
    column_major reads it) whatever their own, and the block has the first
    frame's screen.
    """
    from playtrace.trace import FrameBlock

    if col_major is None:
        (screen, (col_major,)), = set(map(_block_key, frames))   # else a ValueError
    else:
        screen = (frames[0].screen_w, frames[0].screen_h)
    tracks = [t for f in frames for t in f.trackables]

    def matrices(mats):
        stored = _frozen(np.array([m.T if col_major else m for m in mats],
                                  dtype=float).reshape(-1, 4, 4))
        return stored.transpose(0, 2, 1) if col_major else stored

    def rows(vectors, n):
        return _frozen(np.array(vectors, dtype=float).reshape(-1, n))

    return FrameBlock(
        screen=screen, t_ms=[f.timestamp_ms for f in frames],
        view=matrices([f.view for f in frames]), proj=matrices([f.projection for f in frames]),
        cam_pos=rows([f.camera_position for f in frames], 3),
        n_trackables=_frozen(np.array([len(f.trackables) for f in frames], dtype=int)),
        ids=[t.trackable_id for t in tracks],
        states=[t.tracking_state for t in tracks],
        pose=matrices([t.pose for t in tracks]),
        center=rows([t.center_world for t in tracks], 3),
        normal=rows([t.normal_world for t in tracks], 3),
        n_verts=_frozen(np.array([len(t.local_vertices) for t in tracks], dtype=int)),
        verts=_frozen(np.concatenate([np.zeros((0, 2)), *(t.local_vertices for t in tracks)])),
    )


def render_per_polygon(scene, jitter_seed, jitter=None, keep=None):
    """The FrameRecords render_frames builds, with one noise draw per polygon.

    The draw loop render_frames ran before it drew a run of polygons'
    vertex noise at once: every frame of frame_times draws, plane by plane,
    its dropout (rng.random) and then its noise (rng.normal, one per
    polygon), and only the frames keep accepts are built.
    """
    from playtrace.simulator import camera_poses, frame_times, perspective_matrix, plane_detected
    from playtrace.trace import FrameRecord, TrackableSnapshot, TrackingState

    jitter = scene.default_jitter if jitter is None else jitter
    rng = np.random.default_rng(jitter_seed)
    proj = perspective_matrix(scene.fov_y_deg, scene.screen_w / scene.screen_h,
                              scene.near_m, scene.far_m)
    times = frame_times(scene)
    kept = [keep is None or keep(t) for t in times]
    eyes, views = camera_poses(scene, [t for t, k in zip(times, kept) if k])
    built = 0
    for t, k in zip(times, kept):
        tracks = []
        for plane in scene.planes:
            if not plane_detected(plane, t) or (
                    jitter.dropout_prob > 0.0 and rng.random() < jitter.dropout_prob):
                continue
            verts = plane.vertices()
            if jitter.vertex_noise_m > 0.0:
                verts = verts + rng.normal(0.0, jitter.vertex_noise_m, size=(len(verts), 2))
            tracks.append(TrackableSnapshot(plane.plane_id, plane.pose(), _frozen(verts),
                                            plane.center, plane.normal, TrackingState.TRACKING))
        if k:
            yield FrameRecord(t, views[built], proj, eyes[built], scene.screen_w,
                              scene.screen_h, tuple(tracks))
            built += 1


def frame_blocks(frames):
    """FrameRecords (a tuple or a stream) as a stream of frames_block, cut every
    BOX_BLOCK_FRAMES frames and wherever the screen or the matrix order changes."""
    from playtrace.pipeline import BOX_BLOCK_FRAMES
    from playtrace.trace import blocks

    for _, run in itertools.groupby(frames, _block_key):
        yield from map(frames_block, blocks(run, BOX_BLOCK_FRAMES))


# ------------------------------------------------------------ eager analysis
# `analyze` as it was before frames were streamed: every trace loaded whole,
# then decimated into a second list, then every kept frame analysed alone
# into Rect | None slots, one per frame, split by the scalar life_spans above.
# The per-frame kernels are the package's own; the boxes stay Rects.

def decimate_reference(timestamps, source_fps, target_fps):
    """The timestamps decimate keeps, by its documented deadline walk."""
    if target_fps >= source_fps or 1000.0 / target_fps <= 1.0:
        return list(timestamps)
    period = 1000.0 / target_fps
    kept = []
    deadline = -math.inf
    for t in timestamps:
        if t >= deadline:
            kept.append(t)
            deadline = (math.floor(t / period) + 1.0) * period
    return kept


def decimate(frames, source_fps, target_fps):
    """The frames deadline_walk keeps, as they arrive: what a producer given the walk yields."""
    from playtrace.trace import deadline_walk

    keep = deadline_walk(source_fps, target_fps)
    return (f for f in frames if keep(f.timestamp_ms))


def generated_runs_reference(scene, jitter, seed_base, runs, fps):
    """The RunBoxes of runs rendered with jitter seeds seed_base, seed_base + 1, ...: one
    render and one run_boxes per run, whether or not the jitter draws."""
    from playtrace.pipeline import run_boxes
    from playtrace.simulator import render_frames
    from playtrace.trace import deadline_walk

    return [
        run_boxes(render_frames(scene, seed_base + r, jitter, deadline_walk(scene.fps, fps)))
        for r in range(runs)
    ]


def frame_boxes(frame):
    """(trackable id, Rect | None) of each trackable of one frame on its own, in the frame's
    order: a one-frame block_pieces and fit_boxes, None where the trackable has no box."""
    from playtrace.visibility import block_pieces, fit_boxes

    rows = fit_boxes(block_pieces(frames_block([frame])), frame.screen_w, frame.screen_h)
    return [(t.trackable_id, box) for t, box in zip(frame.trackables, rects_of(rows))]


def eager_boxes(trace, fps):
    """(Rect | None slots per trackable, timestamps) of a whole trace, a kept frame at a time.

    A trackable gets its slots at the first frame that lists it, with or without a box.
    """
    sampled = list(decimate(trace.frames, trace.source_fps, fps))
    sequences = {}
    for idx, frame in enumerate(sampled):
        for tid, box in frame_boxes(frame):
            sequences.setdefault(tid, [None] * len(sampled))[idx] = box
    return sequences, [f.timestamp_ms for f in sampled]


def analyze_eager(traces, params):
    """(surviving opportunities, metrics, Gantt duration) of whole in-memory traces."""
    from playtrace.lifespan import filter_by_duration, intersect_runs, opportunity_sort_key
    from playtrace.metrics import compute_metrics

    screens = sorted({(f.screen_w, f.screen_h) for t in traces for f in t.frames})
    assert len(screens) == 1, screens
    per_run = []
    for trace in traces:
        sequences, timestamps = eager_boxes(trace, params.fps)
        opps = []
        for tid, boxes in sequences.items():
            spans = life_spans(boxes, screens[0], params.min_visibility)
            opps.extend(filter_by_duration(tid, spans, timestamps, params.min_lifespan_s))
        opps.sort(key=opportunity_sort_key)
        per_run.append(opps)
    final = intersect_runs(per_run, screens[0], params.min_visibility, params.min_lifespan_s)
    duration = max(max(t.duration_ms for t in traces), 1)
    return final, compute_metrics(per_run, screens[0]), duration


def eager_outputs(traces, out, params=None):
    """Write report.json and gantt.svg to the new directory out as analyze would from
    whole in-memory traces."""
    import dataclasses

    from playtrace.pipeline import AnalysisParams
    from playtrace.reporting import render_gantt, write_report

    params = params or AnalysisParams()
    final, metrics, duration = analyze_eager(traces, params)
    out.mkdir()
    params_dict = {**dataclasses.asdict(params), "runs": len(traces)}
    write_report(final, params_dict, out / "report.json", metrics=metrics)
    (out / "gantt.svg").write_text(render_gantt(final, duration), encoding="utf-8")


def assert_same_outputs(a, b):
    """The report.json and gantt.svg in directories a and b are the same bytes."""
    for name in ("report.json", "gantt.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ------------------------------------------------------------- trace ingest

def iter_frames(path, keep=None):
    """The frames of iter_blocks(path, keep), one FrameRecord at a time: the records view
    of the block reader."""
    from playtrace.trace import block_records, iter_blocks

    for block in iter_blocks(path, keep):
        yield from block_records(block)


# iter_frames as it was before frames were validated in blocks: each line is
# decoded and checked before the next line is read, as a one-line block of
# the package's block parser (_block_frames), and a line that fails goes to
# _frame_fault, which holds the one definition of each error message.  The
# block reader re-reads a failing block the same way; only the order of the
# work differs.  Every line's frame is built (block_records).

def iter_frames_per_line(path):
    """Yield the frames of a trace file, validating one line at a time."""
    from pathlib import Path

    from playtrace.trace import (
        TraceValidationError,
        _block_frames,
        _frame_fault,
        _header,
        block_records,
        _open_trace,
        _trace_objects,
    )

    path = Path(path)
    with _open_trace(path) as fh:
        objects = _trace_objects(fh, path.name)
        _header(objects, path.name)
        first = prev = None
        for lineno, obj in objects:
            where = f"{path.name}:{lineno}"
            frame, = block_records(_block_frames([(where, obj)]) or _frame_fault(where, obj))
            if first is None:
                first = frame
            elif (frame.screen_w, frame.screen_h) != (first.screen_w, first.screen_h):
                raise TraceValidationError(
                    f"{where}: screen {frame.screen_w}x{frame.screen_h} differs from "
                    f"the first frame's {first.screen_w}x{first.screen_h}"
                )
            elif frame.timestamp_ms <= prev.timestamp_ms:
                raise TraceValidationError(
                    f"{path.name}: timestamps must be strictly increasing "
                    f"({prev.timestamp_ms} then {frame.timestamp_ms})"
                )
            yield frame
            prev = frame
    if first is None:
        raise TraceValidationError(f"{path.name}: trace has no frames")


# ------------------------------------------------------------- trace writing
# save_trace as it was before traces were written a block at a time: one
# json.dumps per frame object, each number converted on its own.

def mat4_to_list(m):
    """The 16 numbers of a 4x4 matrix in column-major order, as Python floats."""
    return [float(v) for v in np.asarray(m, dtype=float).flatten(order="F")]


def _snapshot_to_dict(t):
    return {
        "id": t.trackable_id,
        "pose": mat4_to_list(t.pose),
        "verts": t.local_vertices.tolist(),
        "center": [float(v) for v in t.center_world],
        "normal": [float(v) for v in t.normal_world],
        "state": t.tracking_state.value,
    }


def frame_to_dict(f):
    """The JSON object of one frame line."""
    return {
        "t_ms": f.timestamp_ms,
        "view": mat4_to_list(f.view),
        "proj": mat4_to_list(f.projection),
        "cam_pos": [float(v) for v in f.camera_position],
        "screen": [f.screen_w, f.screen_h],
        "trackables": [_snapshot_to_dict(t) for t in f.trackables],
    }


def trace_text_per_frame(trace):
    """The text of a trace file: its header line, then one json.dumps line per frame."""
    from playtrace.trace import TRACE_FORMAT, TRACE_VERSION

    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION,
              "fps": trace.source_fps, "meta": trace.metadata}
    return "".join(json.dumps(x) + "\n"
                   for x in [header, *map(frame_to_dict, trace.frames)])



def frames_as_blocks(frames, size, col_major):
    """frames as FrameBlocks of size frames each in one matrix order, as a producer makes them.

    A projection the same in bits in every frame of a block is one
    broadcast row, as the renderer's is.  Each block has its first
    frame's screen.
    """
    out = []
    for start in range(0, len(frames), size):
        block = frames_block(frames[start:start + size], col_major)
        if len({row.tobytes() for row in block.proj}) == 1:
            block = block._replace(proj=np.broadcast_to(block.proj[:1], block.proj.shape))
        out.append(block)
    return out
