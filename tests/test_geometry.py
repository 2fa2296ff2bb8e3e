from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from playtrace import geometry as g
from playtrace.geometry import (
    Rect,
    convex_pieces,
    convex_subtract,
    inscribed_rects,
    is_convex,
    polygon_area,
    rect_area,
    rect_intersect,
    signed_area,
    simple_polygons,
    subtract_occluders,
    triangulate_simple,
)

import oracles
from oracles import clip_polygon, clip_to_screen, point_in_polygon

SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
SQUARE_CW = list(reversed(SQUARE))
L_SHAPE = [(0.0, 0.0), (10.0, 0.0), (10.0, 4.0), (4.0, 4.0), (4.0, 10.0), (0.0, 10.0)]
STAR = [(0.0, -5.0), (1.0, -1.0), (5.0, 0.0), (1.0, 1.0), (0.0, 5.0), (-1.0, 1.0),
        (-5.0, 0.0), (-1.0, -1.0)]


# -------------------------------------------------------------------- rects

def test_rect_basics():
    r = Rect(1.0, 2.0, 4.0, 6.0)
    assert r.width == 3.0
    assert r.height == 4.0
    assert r.as_list() == [1.0, 2.0, 4.0, 6.0]


def test_rect_rejects_inverted():
    with pytest.raises(ValueError):
        Rect(5.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 5.0, 1.0, 1.0)
    # comparisons with NaN are false, so a NaN coordinate is never in order
    for i in range(4):
        coords = [0.0, 0.0, 1.0, 1.0]
        coords[i] = math.nan
        with pytest.raises(ValueError):
            Rect(*coords)


def test_rect_area_none_is_zero():
    assert rect_area(None) == 0.0
    assert rect_area(Rect(0, 0, 3, 2)) == 6.0


def test_rect_intersect():
    a = Rect(0, 0, 10, 10)
    assert rect_intersect(a, Rect(5, 5, 20, 20)) == Rect(5, 5, 10, 10)
    assert rect_intersect(a, Rect(20, 20, 30, 30)) is None
    assert rect_intersect(a, None) is None
    # touching edges give a degenerate, zero-area rect, not None
    touching = rect_intersect(a, Rect(10, 0, 20, 10))
    assert touching == Rect(10, 0, 10, 10)
    assert rect_area(touching) == 0.0


# ----------------------------------------------------------- polygon checks

def test_signed_area_orientation():
    assert signed_area(SQUARE) == pytest.approx(100.0)
    assert signed_area(SQUARE_CW) == pytest.approx(-100.0)
    assert polygon_area(SQUARE_CW) == pytest.approx(100.0)


def test_is_convex():
    assert is_convex(SQUARE)
    assert is_convex(SQUARE_CW)
    assert not is_convex(L_SHAPE)
    # collinear mid-edge vertex does not break convexity
    assert is_convex([(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)])


def test_is_simple_polygon():
    assert oracles.is_simple_polygon(SQUARE)
    assert oracles.is_simple_polygon(STAR)
    bowtie = [(0, 0), (10, 10), (10, 0), (0, 10)]
    assert not oracles.is_simple_polygon(bowtie)
    assert not oracles.is_simple_polygon([(0, 0), (5, 5), (0, 0), (5, 0)])


# ------------------------------------------------ batched simplicity test
#
# geometry.simple_polygons is oracles.is_simple_polygon for many polygons at once;
# these check that every verdict is the scalar one.

def _scalar_simple(poly):
    """is_simple_polygon, with the OverflowError of Python's ** 2 read as not simple."""
    try:
        return oracles.is_simple_polygon(poly)
    except OverflowError:
        return False


# dx ** 2 + dy ** 2 is just above PARALLEL_EPS here, but dx * dx + dy * dy is not
POW_EDGE = (8.657068469149748e-07, 5.005513512163686e-07)
BOWTIE = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]


@st.composite
def _polygons(draw):
    """Polygons of 3 to 8 vertices, near the edges of every test in is_simple_polygon."""
    n = draw(st.integers(3, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["star", "grid", "swapped", "repeated", "notch"]))
    if kind == "grid":
        # small integer coordinates: many repeats, collinear overlaps and crossings
        poly = [(float(rng.randint(-2, 2)), float(rng.randint(-2, 2))) for _ in range(n)]
    elif kind == "notch":
        # the notch vertex (2, gap) sits on or near edge 0, which is not next to its edges
        gap = draw(st.sampled_from([0.0, 1e-10, 2.5e-10, 3e-10, -1e-10, 1e-7, 1e-6, 0.5]))
        poly = ([(0.0, 0.0), (4.0, 0.0)] + [(4.0, 2.0 + 0.1 * k) for k in range(n - 4)]
                + [(2.0, gap), (0.0, 2.0)])[:n]
    else:
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
        poly = [(rng.uniform(0.2, 1.0) * math.cos(a), rng.uniform(0.2, 1.0) * math.sin(a))
                for a in angles]
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == "swapped":
            poly[i], poly[j] = poly[j], poly[i]
        elif kind == "repeated":
            # vertex j replaced by vertex i moved by less or more than PARALLEL_EPS allows
            dx, dy = draw(st.sampled_from([(0.0, 0.0), (0.9e-6, 0.0), (1.1e-6, 0.0),
                                           (0.0, -0.9e-6), POW_EDGE]))
            if i != j:
                poly[j] = (poly[i][0] + dx, poly[i][1] + dy)
    scale = draw(st.sampled_from([1.0, 1e-3, 1e154, 1e300]))
    shift = draw(st.sampled_from([0.0, 3.0, 1e300]))
    poly = [(x * scale + shift, y * scale - shift) for x, y in poly]
    if draw(st.booleans()):
        poly.reverse()
    return poly


@settings(max_examples=400, deadline=None)
@given(st.lists(_polygons(), min_size=1, max_size=6))
@example([[(0.0, 0.0), POW_EDGE, (0.0, 1.0)]])
@example([BOWTIE, BOWTIE[::-1], SQUARE, STAR])
@example([[(x * 1e300, y * 1e300) for x, y in SQUARE], [(x + 1e300, y) for x, y in SQUARE]])
def test_simple_polygons_match_the_scalar_test(polys):
    assert simple_polygons(polys).tolist() == [_scalar_simple(p) for p in polys]


def test_simple_polygons_fixed_shapes():
    polys = [SQUARE, BOWTIE, [(0.0, 0.0), (1.0, 1.0)], [], STAR, L_SHAPE[::-1],
             [(0.0, 0.0), POW_EDGE, (0.0, 1.0)]]
    assert simple_polygons(polys).tolist() == [True, False, False, False, True, True, True]
    assert simple_polygons([]).tolist() == []
    with pytest.raises(OverflowError):
        oracles.is_simple_polygon([(x * 1e300, y * 1e300) for x, y in SQUARE])
    assert not simple_polygons([[(x * 1e300, y * 1e300) for x, y in SQUARE]])[0]


def test_point_in_polygon_boundary_inclusive():
    assert point_in_polygon((5, 5), SQUARE)
    assert point_in_polygon((0, 0), SQUARE)       # vertex
    assert point_in_polygon((5, 0), SQUARE)       # edge
    assert not point_in_polygon((10.1, 5), SQUARE)
    assert point_in_polygon((10.0000005, 5), SQUARE)  # inside default eps
    assert not point_in_polygon((5, 5), L_SHAPE)  # notch corner is outside
    assert point_in_polygon((2, 2), L_SHAPE)


# ----------------------------------------------------------------- clipping

def test_clip_square_overlap():
    out = clip_polygon(SQUARE, [(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0)])
    assert polygon_area(out) == pytest.approx(25.0)


def test_clip_subject_inside():
    inner = [(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)]
    out = clip_polygon(inner, SQUARE)
    assert polygon_area(out) == pytest.approx(4.0)


def test_clip_disjoint_returns_empty():
    far = [(100.0, 100.0), (110.0, 100.0), (110.0, 110.0), (100.0, 110.0)]
    assert clip_polygon(far, SQUARE) == []


def test_clip_accepts_clockwise_clip():
    out = clip_polygon(SQUARE, list(reversed([(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0)])))
    assert polygon_area(out) == pytest.approx(25.0)


def test_clip_rejects_bad_clip():
    with pytest.raises(ValueError):
        clip_polygon(SQUARE, L_SHAPE)
    with pytest.raises(ValueError):
        clip_polygon(SQUARE, [(0.0, 0.0), (1.0, 1.0)])


def test_clip_concave_subject():
    # clip the L against its bounding square's right half
    half = [(4.0, 0.0), (10.0, 0.0), (10.0, 10.0), (4.0, 10.0)]
    out = clip_polygon(L_SHAPE, half)
    assert polygon_area(out) == pytest.approx(6.0 * 4.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 0.8))
def test_clip_random_convex_pairs(seed, offset):
    rng = random.Random(seed)
    subject = oracles.random_convex(rng, (0.0, 0.0), 1.0)
    clip = oracles.random_convex(rng, (offset, offset / 2.0), 1.0)
    out = clip_polygon(subject, clip)
    a_out = polygon_area(out) if len(out) >= 3 else 0.0
    assert a_out <= min(polygon_area(subject), polygon_area(clip)) + 1e-9
    for p in out:
        assert oracles.contains(clip, p, eps=1e-6)
        assert oracles.contains(subject, p, eps=1e-6)
    # clipping a second time with the same window changes nothing measurable
    if len(out) >= 3:
        again = clip_polygon(out, clip)
        assert polygon_area(again) == pytest.approx(a_out, rel=1e-9, abs=1e-9)


# clip_rows is the scalar oracles.clip_by_loop for many polygons at once, to the bit:
# hypothesis polygons that leave the screen, with a vertex exactly on a screen edge, a
# polygon that the first screen edge empties, and an edge along a screen edge, straddling
# it by less than PARALLEL_EPS of the crossing's denominator (t = 0.5)

SCREEN_LOOP = g.clip_loop([(0.0, 1080.0), (1920.0, 1080.0), (1920.0, 0.0), (0.0, 0.0)])


def _assert_clip_rows_is_clip_by_loop(polys, loop):
    want = [oracles.clip_by_loop(p, *loop) for p in polys]
    assert repr(oracles.clip_rows_split(polys, loop)) == repr(want)   # -0.0 and 0.0 differ
    return want


def test_clip_rows_special_cases():
    below = [(10.0, 1100.0), (50.0, 1100.0), (30.0, 1200.0)]   # the first edge empties it
    on_edges = [(0.0, 10.0), (1920.0, 10.0), (1920.0, 1080.0), (5.0, 1080.0)]
    along_top = [(100.0, 0.0), (300.0, -1e-17), (300.0, 200.0), (100.0, 200.0)]
    beyond = [(-50.0, -50.0), (2000.0, -50.0), (2000.0, 1200.0), (-50.0, 1200.0)]
    polys = [below, on_edges, along_top, [], [(5.0, 5.0)], beyond, SQUARE]
    out = _assert_clip_rows_is_clip_by_loop(polys, SCREEN_LOOP)
    assert out[0] == [] and out[1] == on_edges and out[4] == [(5.0, 5.0)]
    assert (200.0, -5e-18) in out[2]   # the midpoint of the edge along y = 0
    assert sorted(out[5]) == sorted(SCREEN_LOOP[1][k][0] for k in range(4))
    sign, edges = SCREEN_LOOP
    for loop in ((-sign, edges), (0.0, edges)):   # every vertex outside, or a degenerate loop
        assert _assert_clip_rows_is_clip_by_loop(polys, loop) == [[]] * len(polys)


def _screen_polygon(rng):
    """A polygon on or across the screen's edges, possibly with a vertex on one or an edge
    along one."""
    center = (rng.uniform(-300.0, 2220.0), rng.uniform(-300.0, 1380.0))
    radius = rng.choice([1e-3, 5.0, 200.0, 1500.0])
    if rng.random() < 0.5:
        poly = oracles.random_star(rng, center, 0.3 * radius, radius, rng.randrange(3, 10))
    else:
        poly = oracles.random_convex(rng, center, radius, rng.randrange(3, 10))
    k = rng.randrange(len(poly))
    x, y = poly[k]
    edge = rng.choice(["x", "y", "along", "none"])
    if edge == "x":
        poly[k] = (rng.choice([0.0, 1920.0]), y)
    elif edge == "y":
        poly[k] = (x, rng.choice([0.0, 1080.0]))
    elif edge == "along":
        at = rng.choice([0.0, 1080.0])
        poly[k] = (x, at)
        poly[k - 1] = (poly[k - 1][0], at + rng.choice([-1e-17, 0.0, 1e-17, 1e-13]))
    if rng.random() < 0.5:
        poly.reverse()
    return [(float(x), float(y)) for x, y in poly]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_clip_rows_is_clip_by_loop(seed):
    rng = random.Random(seed)
    polys = [_screen_polygon(rng) for _ in range(rng.randrange(1, 9))]
    _assert_clip_rows_is_clip_by_loop(polys, SCREEN_LOOP)
    # a clip polygon of its own, wound either way
    clip = oracles.random_convex(rng, (960.0, 540.0), rng.choice([1.0, 300.0, 2000.0]))
    if rng.random() < 0.5:
        clip.reverse()
    _assert_clip_rows_is_clip_by_loop(polys, g.clip_loop(clip))


# ----------------------------------------------- triangulation and booleans

def test_triangulate_simple_area_partition():
    rng = random.Random(7)
    for _ in range(40):
        poly = oracles.random_star(rng, (0.0, 0.0), 1.0, 3.0, rng.randrange(5, 14))
        tris = triangulate_simple(poly)
        assert sum(polygon_area(t) for t in tris) == pytest.approx(polygon_area(poly), rel=1e-7)
        for t in tris:
            cx = sum(p[0] for p in t) / 3.0
            cy = sum(p[1] for p in t) / 3.0
            assert oracles.contains(poly, (cx, cy), eps=1e-6)


def test_convex_pieces_cover_area():
    pieces = convex_pieces(L_SHAPE)
    assert sum(polygon_area(p) for p in pieces) == pytest.approx(polygon_area(L_SHAPE))
    for p in pieces:
        assert is_convex(p)


def test_convex_subtract_hole_area():
    inner = [(2.0, 2.0), (5.0, 2.0), (5.0, 5.0), (2.0, 5.0)]
    pieces = convex_subtract(SQUARE, inner)
    assert sum(polygon_area(p) for p in pieces) == pytest.approx(100.0 - 9.0)


def test_convex_subtract_disjoint_keeps_piece_whole():
    far = [(50.0, 50.0), (60.0, 50.0), (60.0, 60.0), (50.0, 60.0)]
    pieces = convex_subtract(SQUARE, far)
    assert len(pieces) == 1
    assert pieces[0] == SQUARE


def test_convex_subtract_covered_returns_nothing():
    big = [(-5.0, -5.0), (15.0, -5.0), (15.0, 15.0), (-5.0, 15.0)]
    assert convex_subtract(SQUARE, big) == []


def test_convex_subtract_parts_hold_floats():
    # an int piece comes back as given when the occluder misses it, and cut as floats
    square = [(0, 0), (10, 0), (10, 10), (0, 10)]
    far = [(50.0, 50.0), (60.0, 50.0), (60.0, 60.0)]
    assert repr(convex_subtract(square, far)) == repr([square])
    parts = convex_subtract(square, [(2.0, 2.0), (5.0, 2.0), (5.0, 5.0), (2.0, 5.0)])
    assert len(parts) == 4 and {type(v) for p in parts for q in p for v in q} == {float}


PAIR_KINDS = ["overlapping", "shared vertex", "collinear", "disjoint", "covering"]


def _convex_pair(seed, kind, flip_piece, flip_occluder):
    """A convex piece and a convex occluder of the given kind, each wound either way."""
    rng = random.Random(seed)
    piece = oracles.random_convex(rng, (0.0, 0.0), 1.0, rng.randrange(3, 10))
    if kind == "covering":   # a regular polygon whose inner radius, 3 cos(pi / n), exceeds 1
        n = rng.randrange(4, 9)
        occ = [(3.0 * math.cos(2.0 * math.pi * k / n), 3.0 * math.sin(2.0 * math.pi * k / n))
               for k in range(n)]
    elif kind == "collinear":   # zero area, so its winding sign is 0
        (x0, y0), (x1, y1) = rng.choice(piece), (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        occ = [(x0, y0), ((x0 + x1) / 2.0, (y0 + y1) / 2.0), (x1, y1)]
    else:
        far = kind == "disjoint"
        center = (5.0 if far else rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        occ = oracles.random_convex(rng, center, 1.0 if far else rng.uniform(0.2, 1.5),
                                    rng.randrange(3, 10))
        if kind == "shared vertex":   # moved so that one of its vertices is one of the piece's
            (ox, oy), (px, py) = rng.choice(occ), rng.choice(piece)
            occ = [(x - ox + px, y - oy + py) for x, y in occ]
    return piece[::-1] if flip_piece else piece, occ[::-1] if flip_occluder else occ


convex_pairs = st.builds(_convex_pair, st.integers(0, 10_000), st.sampled_from(PAIR_KINDS),
                         st.booleans(), st.booleans())


@settings(max_examples=200, deadline=None)
@given(convex_pairs)
def test_convex_subtract_is_the_scalar_subtraction(pair):
    # clip_rows makes convex_subtract's clips; the oracle makes them one vertex at a time
    assert repr(convex_subtract(*pair)) == repr(oracles.convex_subtract(*pair))


@settings(max_examples=150, deadline=None)
@given(convex_pairs)
def test_convex_subtract_partitions_the_piece(pair):
    piece, occ = pair
    parts = convex_subtract(piece, occ)
    overlap = polygon_area(clip_polygon(piece, occ))
    assert sum(polygon_area(p) for p in parts) + overlap == pytest.approx(polygon_area(piece),
                                                                          rel=1e-9)
    for p in parts:
        assert is_convex(p)
        for q in p:   # on the occluder's boundary at most, not strictly inside it
            assert not oracles.contains(occ, q, eps=-1.0) or min(
                oracles._point_segment_dist(q, a, b) for a, b in zip(occ, occ[1:] + occ[:1])
            ) <= 1e-9


def test_subtract_occluders_two_bites():
    occ1 = [(0.0, 0.0), (3.0, 0.0), (3.0, 10.0), (0.0, 10.0)]
    occ2 = [(7.0, 0.0), (10.0, 0.0), (10.0, 10.0), (7.0, 10.0)]
    pieces = subtract_occluders(convex_pieces(SQUARE), [occ1, occ2])
    assert sum(polygon_area(p) for p in pieces) == pytest.approx(40.0)
    for p in pieces:
        for q in p:
            assert 3.0 - 1e-9 <= q[0] <= 7.0 + 1e-9


# ------------------------------------------------------------ inscribed box

def _one_rect(poly, screen_w, screen_h):
    (rect,) = oracles.rects_of(inscribed_rects(*oracles.poly_rows([poly]), screen_w, screen_h)[0])
    return rect


def test_inscribed_rect_recovers_rectangle():
    poly = [(10.0, 20.0), (200.0, 20.0), (200.0, 90.0), (10.0, 90.0)]
    r = _one_rect(poly, 640, 480)
    assert r == Rect(10.0, 20.0, 200.0, 90.0)


def test_inscribed_rect_clamped_by_screen():
    poly = [(-50.0, -50.0), (100.0, -50.0), (100.0, 100.0), (-50.0, 100.0)]
    r = _one_rect(poly, 640, 480)
    assert r == Rect(0.0, 0.0, 100.0, 100.0)


def test_inscribed_rect_off_screen():
    poly = [(700.0, 10.0), (720.0, 10.0), (720.0, 30.0), (700.0, 30.0)]
    assert _one_rect(poly, 640, 480) is None


def test_inscribed_rect_requires_polygon():
    with pytest.raises(ValueError):
        _one_rect([(0.0, 0.0), (1.0, 1.0)], 640, 480)


def test_inscribed_rect_avoids_notch():
    big_l = [(0.0, 0.0), (400.0, 0.0), (400.0, 160.0), (160.0, 160.0),
             (160.0, 400.0), (0.0, 400.0)]
    r = _one_rect(big_l, 640, 480)
    assert r is not None
    for corner in itertools.product((r.x_min, r.x_max), (r.y_min, r.y_max)):
        assert oracles.contains(big_l, corner, eps=1e-6)


def test_inscribed_rect_random_stars():
    rng = random.Random(99)
    for _ in range(60):
        poly = oracles.random_star(rng, (rng.uniform(250, 400), rng.uniform(200, 300)),
                                   70.0, 180.0, rng.randrange(6, 16))
        r = _one_rect(poly, 640, 480)
        assert r is not None
        assert rect_area(r) > 0.0
        for corner in itertools.product((r.x_min, r.x_max), (r.y_min, r.y_max)):
            assert oracles.contains(poly, corner, eps=1e-6)


def test_shrink_pass_budget():
    poly = [(0.0, 0.0), (600.0, 0.0), (600.0, 400.0), (0.0, 400.0)]
    (rect,), (passes,) = inscribed_rects(*oracles.poly_rows([poly]), 640.0, 480.0)
    assert not np.isnan(rect).any()
    assert passes == 0
    star = oracles.random_star(random.Random(3), (300.0, 240.0), 70.0, 200.0)
    (rect,), (passes,) = inscribed_rects(*oracles.poly_rows([star]), 640.0, 480.0)
    assert passes <= g.MAX_SHRINK_PASSES
    # a sliver across a huge screen never fits and shrinks 5 % a pass: the budget ends it
    sliver = [(0.0, 0.0), (1e12, 1e12), (1e12, 1e12 - 1.0)]
    (rect,), (passes,) = inscribed_rects(*oracles.poly_rows([sliver]), 1e12, 1e12)
    assert np.isnan(rect).all() and passes == g.MAX_SHRINK_PASSES


def test_inscribed_rects_match_one_at_a_time():
    rng = random.Random(17)
    polys = [oracles.random_star(rng, (rng.uniform(0, 640), rng.uniform(0, 480)),
                                 rng.uniform(1, 60), rng.uniform(60, 300), rng.randrange(5, 14))
             for _ in range(40)]
    polys += [SQUARE, L_SHAPE, [(700.0, 10.0), (720.0, 10.0), (720.0, 30.0)]]
    rows, passes = inscribed_rects(*oracles.poly_rows(polys), 640, 480)
    assert rows.dtype == np.float64 and rows.shape == (len(polys), 4)
    rects = oracles.rects_of(rows)
    assert rects == [oracles.inscribed_rect_pip(p, 640, 480) for p in polys]
    assert rects == [_one_rect(p, 640, 480) for p in polys]
    assert all(0 <= n <= g.MAX_SHRINK_PASSES for n in passes)
    rows, passes = inscribed_rects(*oracles.poly_rows([]), 640, 480)
    assert rows.shape == (0, 4) and passes == []
    with pytest.raises(ValueError):
        inscribed_rects(*oracles.poly_rows([SQUARE, [(0.0, 0.0), (1.0, 1.0)]]), 640, 480)


def test_squared_is_python_pow():
    # libm pow rounds this square differently from x * x
    x = -917.4457982197728
    assert x ** 2 != x * x
    assert float(g._squared(np.array([x]))[0]) == x ** 2 == 841706.7926711161


# ------------------------------------------------ batched containment test
#
# geometry._points_inside is point_in_polygon for many polygons and points
# at once; these check it answers exactly as the scalar function, with
# polygons of different sizes in one batch so that padding is exercised.

PENTAGRAM = [(math.cos(a) * 100.0 + 300.0, math.sin(a) * 100.0 + 200.0)
             for a in (math.pi / 2 + k * 4.0 * math.pi / 5.0 for k in range(5))]
OFFSETS_PX = (0.0, 0.5e-6, -0.5e-6, 1e-6, -1e-6, 3e-6, -3e-6)
TRIANGLE = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]


def _assert_batch_matches_scalar(polys, rng):
    """_points_inside on every polygon's probe points at once equals point_in_polygon on each."""
    probes = [_probe_points(poly, rng) for poly in polys]
    k = max(len(p) for p in probes)
    pts = np.array([p + [p[0]] * (k - len(p)) for p in probes])
    inside = g._points_inside(g.EdgeLoops.of(*oracles.poly_rows(polys)), pts[:, :, 0].T,
                              pts[:, :, 1].T).T
    for i, (poly, ps) in enumerate(zip(polys, probes)):
        for j, p in enumerate(ps):
            assert inside[i, j] == point_in_polygon(p, poly), (poly, p)


def _probe_points(poly, rng):
    """Vertices, edge points and points just off both, plus a few random ones."""
    pts = []
    n = len(poly)
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        length = math.hypot(bx - ax, by - ay)
        nx, ny = ((ay - by) / length, (bx - ax) / length) if length > 0 else (0.0, 1.0)
        for t in (0.0, 0.5, rng.random()):
            x, y = ax + t * (bx - ax), ay + t * (by - ay)
            pts += [(x + d * nx, y + d * ny) for d in OFFSETS_PX]
        pts += [(ax + d, ay) for d in OFFSETS_PX] + [(ax, ay + d) for d in OFFSETS_PX]
        pts += [(ax + d, ay + d) for d in OFFSETS_PX]
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    pts += [(rng.uniform(min(xs) - 5, max(xs) + 5), rng.uniform(min(ys) - 5, max(ys) + 5))
            for _ in range(20)]
    return pts


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["convex", "star"]),
       st.sampled_from(["plain", "repeated", "collinear"]))
def test_quick_containment_agrees_with_point_in_polygon(seed, shape, extra):
    rng = random.Random(seed)
    center = (rng.uniform(0.0, 1920.0), rng.uniform(0.0, 1080.0))
    radius = rng.uniform(0.5, 600.0)
    if shape == "convex":
        poly = oracles.random_convex(rng, center, radius, rng.randrange(3, 12))
    else:
        poly = oracles.random_star(rng, center, 0.3 * radius, radius, rng.randrange(5, 12))
    k = rng.randrange(len(poly))
    if extra == "repeated":
        poly.insert(k, poly[k])
    elif extra == "collinear":
        (ax, ay), (bx, by) = poly[k - 1], poly[k]
        poly.insert(k, (ax + 0.5 * (bx - ax), ay + 0.5 * (by - ay)))
    if rng.random() < 0.5:
        poly.reverse()
    _assert_batch_matches_scalar([poly, PENTAGRAM, TRIANGLE], rng)


def test_padding_edges_stay_out_of_the_distance_test():
    # p is within 1e-6 px of the first vertex measured directly, but not as
    # point_in_polygon measures it, along either edge through that vertex
    tri = [(1150.3444973341238, 64.89852886639854), (779.2070117461626, 396.0442056789138),
           (1003.6822760555453, -410.38105761907883)]
    p = (1150.3444979997576, 64.89852961267714)
    assert not point_in_polygon(p, tri)
    # batched with a square, the triangle gets a zero-length edge at its first vertex
    inside = g._points_inside(g.EdgeLoops.of(*oracles.poly_rows([tri, SQUARE])),
                              np.array([p[0], 5.0]), np.array([p[1], 5.0]))
    assert inside.tolist() == [False, True]


def test_corners_a_few_ulps_from_the_containment_distance():
    # distances within a few ulps of CONTAINMENT_EPS_PX, and at ones whose square by
    # v * v differs from Python's v ** 2, which _points_inside rechecks with _squared
    eps, ulp = g.CONTAINMENT_EPS_PX, math.ulp(g.CONTAINMENT_EPS_PX)
    differ = [v for v in (eps + k * ulp for k in range(-4000, 4000)) if v ** 2 != v * v]
    assert len(differ) >= 2
    ds = [eps + k * ulp for k in range(-6, 7)] + differ
    tilted = [(0.0, 0.0), (100.0, 30.0), (70.0, 130.0), (-30.0, 100.0)]
    polys = [SQUARE, tilted]
    for d in ds:
        # outside: off the top edges, past a vertex, and off a tilted edge along its normal
        n = math.hypot(100.0, 30.0)
        probes = [[(5.0, -d), (-d, 0.0), (10.0 + d, 10.0 + d), (10.0, -d)],
                  [(50.0 + d * 30.0 / n, 15.0 - d * 100.0 / n), (-d, 0.0), (0.0, -d),
                   (100.0 + d, 30.0)]]
        xy = np.array(probes)
        loops = g.EdgeLoops.of(*oracles.poly_rows(polys))
        inside = g._points_inside(loops, xy[:, :, 0].T, xy[:, :, 1].T).T
        assert inside.tolist() == [[point_in_polygon(p, poly) for p in ps]
                                   for poly, ps in zip(polys, probes)], d
        # as inscribed_rects asks: the corners of (x_min, x_max) x (y_min, y_max)
        xs = np.array([[-d, 5.0], [-d, 100.0 + d]])
        ys = np.array([[-d, 5.0], [0.0, -d]])
        inside = g._points_inside(loops, xs.T[None], ys.T[:, None]).transpose(2, 0, 1)
        assert inside.tolist() == [[[point_in_polygon((x, y), poly) for x in xr] for y in yr]
                                   for poly, xr, yr in zip(polys, xs.tolist(), ys.tolist())], d


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["convex", "star"]))
def test_odd_crossings_is_the_edge_by_edge_even_odd_mask(seed, shape):
    # replay's hit test on a plane with a polygon: points on vertices, on edges and near
    # them, random ones, and the infinite and NaN coordinates of rays along the plane
    rng = random.Random(seed)
    center = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    radius = rng.choice([1e-3, 0.5, 3.0, 600.0])
    if shape == "convex":
        poly = oracles.random_convex(rng, center, radius, rng.randrange(3, 12))
    else:
        poly = oracles.random_star(rng, center, 0.3 * radius, radius, rng.randrange(5, 12))
    if rng.random() < 0.5:
        poly.reverse()
    pts = _probe_points(poly, rng) + [(math.inf, 0.0), (0.0, -math.inf), (math.nan, center[1])]
    rng.shuffle(pts)
    pts += pts[:-len(pts) % 3]
    xy = np.array(pts).reshape(3, -1, 2)
    xs, ys = xy[..., 0], xy[..., 1]
    with np.errstate(invalid="ignore"):
        got = g.odd_crossings(g.EdgeLoops.of(*oracles.poly_rows([poly])), xs, ys)
    assert got.tolist() == oracles.points_in_polygon_mask(xs, ys, poly).tolist()


@pytest.mark.parametrize("poly", [SQUARE, SQUARE_CW, L_SHAPE, STAR, PENTAGRAM],
                         ids=["square", "square-cw", "l-shape", "star", "pentagram"])
def test_quick_containment_fixed_shapes(poly):
    _assert_batch_matches_scalar([poly, TRIANGLE, STAR], random.Random(5))
    # the pentagram's centre is wound twice: outside under the even-odd rule
    assert not g._points_inside(g.EdgeLoops.of(*oracles.poly_rows([PENTAGRAM])),
                                np.array([[300.0]]), np.array([[200.0]]))[0, 0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_subtract_occluders_matches_unskipped(seed):
    rng = random.Random(seed)
    subject = oracles.random_star(rng, (500.0, 400.0), 80.0, 200.0, rng.randrange(5, 10))
    occluders = []
    for _ in range(rng.randrange(1, 5)):
        if rng.random() < 0.3:
            occluders.append(oracles.random_convex(rng, (rng.uniform(350, 650), rng.uniform(250, 550)), 60.0))
            continue
        # from overlapping the subject's box to just past the 1 px margin of block_pieces'
        # box test; subtract_occluders has no skip of its own, and this guards against one
        gap = rng.choice([-3.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 0.999, 1.0, 1.001, 3.0])
        side = rng.choice(["right", "left", "below", "above"])
        occluders.append(oracles.band_beside(subject, side, gap, rng.uniform(1.0, 40.0)))
    assert subtract_occluders(convex_pieces(subject), occluders) == (
        oracles.subtract_occluders_unskipped(subject, occluders)
    )


def test_dot_rows_of_a_row_with_itself_is_its_dot_to_the_bit():
    # trace.check_block tests a normal's length with dot_rows, jsonin.unit with v.dot(v);
    # the two must agree on every normal, or a rejected block could name no fault
    rng = np.random.default_rng(7)
    for scale in 10.0 ** np.arange(-200, 201, 25):
        v = rng.normal(size=(2_000, 3)) * scale
        with np.errstate(over="ignore"):
            want = np.array([row.dot(row) for row in v])
            for rows in (v, np.asfortranarray(v)):  # a block's column may be in either order
                assert g.dot_rows(rows, rows).tobytes() == want.tobytes()


def _polygon_near_the_thresholds(rng):
    """A polygon of 0 to 8 vertices, at any scale, that may repeat or nearly repeat a vertex,
    hold a nearly collinear one, or have an area near AREA_EPS_PX2."""
    kind = rng.choice(["convex", "star", "tiny", "repeated", "collinear", "short"])
    if kind == "short":
        return [(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(rng.randrange(3))]
    if kind == "tiny":
        # turn = s * s and area = s * s / 2 straddle COLLINEAR_EPS and AREA_EPS_PX2
        s = rng.uniform(3e-5, 6e-5)
        x0, y0 = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
        return [(x0, y0), (x0 + s, y0), (x0, y0 + s)]
    center = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
    radius = rng.choice([1e-4, 1e-3, 1.0, 500.0])
    if kind == "star":
        poly = oracles.random_star(rng, center, 0.4 * radius, radius, rng.randrange(3, 9))
    else:
        poly = oracles.random_convex(rng, center, radius, rng.randrange(3, 9))
    k = rng.randrange(len(poly))
    if kind == "repeated":
        d = rng.choice([0.0, 1e-7, 1e-6, 2e-6, 1e-3])
        poly.insert(k, (poly[k][0] + d, poly[k][1]))
    elif kind == "collinear":
        (ax, ay), (bx, by) = poly[k - 1], poly[k]
        poly.insert(k, (ax + 0.5 * (bx - ax), ay + 0.5 * (by - ay) + rng.choice([0.0, 1e-12, 1e-9, 1e-6])))
    if rng.random() < 0.5:
        poly.reverse()
    return [(float(x), float(y)) for x, y in poly]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_convex_unchanged_is_convex_pieces_returning_the_polygon(seed):
    rng = random.Random(seed)
    polys = [_polygon_near_the_thresholds(rng) for _ in range(6)]
    xy = np.array([p for poly in polys for p in poly], dtype=float).reshape(-1, 2)
    unchanged = g.convex_unchanged(xy[:, 0], xy[:, 1], np.array([len(p) for p in polys]))
    assert unchanged.tolist() == [convex_pieces(poly) == [poly] for poly in polys]


# --------------------------------------------------------------- projection

def _simple_camera():
    # camera at origin looking down -z, 90 degree fov, square aspect
    view = np.eye(4)
    f = 1.0
    proj = np.zeros((4, 4))
    proj[0, 0] = f
    proj[1, 1] = f
    proj[2, 2] = -1.0
    proj[2, 3] = -0.2
    proj[3, 2] = -1.0
    return view, proj


def _project(v, model, view, proj, w, h):
    """One vertex through model, view and projection, then clip_to_screen."""
    return clip_to_screen((proj @ (view @ (model @ np.asarray(v)))).tolist(), w, h, v)


def test_project_vertex_center_and_flip():
    view, proj = _simple_camera()
    model = np.eye(4)
    p = _project((0.0, 0.0, -2.0, 1.0), model, view, proj, 100, 100)
    assert p == pytest.approx((50.0, 50.0))
    # +y in world goes up, so it must land above center, i.e. smaller pixel y
    p_up = _project((0.0, 1.0, -2.0, 1.0), model, view, proj, 100, 100)
    assert p_up[1] < 50.0
    p_right = _project((1.0, 0.0, -2.0, 1.0), model, view, proj, 100, 100)
    assert p_right[0] > 50.0


def test_project_vertex_behind_camera():
    view, proj = _simple_camera()
    assert _project((0.0, 0.0, 2.0, 1.0), np.eye(4), view, proj, 100, 100) is None
    assert _project((0.0, 0.0, 0.0, 1.0), np.eye(4), view, proj, 100, 100) is None
