import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import segment_pixels
from wireframe import annotate, geometry

from wireframe.annotate import (
    AnnotatedScene,
    HeatMap,
    derive_junctions,
    digital_lines,
    rasterize_segments,
    render_target_heatmap,
)
from wireframe.geometry import (
    Branch,
    GeometryError,
    Junction,
    Point,
    Segment,
    angle_diff,
    direction_deg,
    point_segment_distance,
    segment_array,
    segment_intersection,
)


def seg(x1, y1, x2, y2):
    return Segment(Point(float(x1), float(y1)), Point(float(x2), float(y2)))


def nearest_pixel_walk(s, width, height, stride=0.1):
    """Brute-force oracle: sample the segment densely, round each sample."""
    n = max(2, int(math.ceil(s.length / stride)) + 1)
    out = set()
    for i in range(n):
        t = i / (n - 1)
        x = s.a.x + t * (s.b.x - s.a.x)
        y = s.a.y + t * (s.b.y - s.a.y)
        px, py = int(math.floor(x + 0.5)), int(math.floor(y + 0.5))
        if 0 <= px < width and 0 <= py < height:
            out.add((px, py))
    return out


def pixels(s, width, height):
    """The rasterized pixels as a list of (x, y) tuples, in walk order."""
    return list(map(tuple, segment_pixels(s, width, height).tolist()))


def test_rasterize_horizontal():
    assert set(pixels(seg(0, 0, 3, 0), 10, 10)) == {(0, 0), (1, 0), (2, 0), (3, 0)}


def test_rasterize_diagonal():
    assert set(pixels(seg(0, 0, 2, 2), 10, 10)) == {(0, 0), (1, 1), (2, 2)}


def test_rasterize_345_against_walk():
    s = seg(0, 0, 3, 4)
    px = pixels(s, 10, 10)
    assert len(px) == 5
    assert px[0] == (0, 0) and px[-1] == (3, 4)
    assert set(px) <= nearest_pixel_walk(s, 10, 10)


def test_rasterize_outside_empty():
    assert pixels(seg(20, 20, 30, 30), 10, 10) == []


def test_rasterize_clips_to_image():
    px = pixels(seg(-5, 3, 14, 3), 10, 10)
    assert set(px) == {(x, 3) for x in range(10)}


bounded = st.floats(min_value=0.0, max_value=63.0, allow_nan=False)
in_segments = st.tuples(bounded, bounded, bounded, bounded).filter(
    lambda q: (q[0], q[1]) != (q[2], q[3])).map(lambda q: seg(*q))


@given(in_segments)
@settings(max_examples=200)
def test_rasterize_properties(s):
    px = pixels(s, 64, 64)
    assert len(px) == len(set(px))
    for (x0, y0), (x1, y1) in zip(px, px[1:]):
        assert max(abs(x1 - x0), abs(y1 - y0)) == 1  # 8-connected, no repeats
    for x, y in px:
        assert point_segment_distance(Point(float(x), float(y)), s) <= 1.5


int_segments = st.tuples(st.integers(0, 63), st.integers(0, 63),
                         st.integers(0, 63), st.integers(0, 63)).filter(
    lambda q: (q[0], q[1]) != (q[2], q[3])).map(lambda q: seg(*q))


@given(int_segments)
@settings(max_examples=200)
def test_rasterize_matches_walk_on_grid(s):
    assert set(pixels(s, 64, 64)) <= nearest_pixel_walk(s, 64, 64, stride=0.05)


@given(in_segments)
def test_rasterize_direction_independent(s):
    fwd = pixels(s, 64, 64)
    rev = pixels(Segment(s.b, s.a), 64, 64)
    assert fwd[0] == rev[-1] and fwd[-1] == rev[0]


def reference_clip_segment(s, width, height):
    """Oracle: Liang-Barsky with an early exit at the first empty bound."""
    x1, y1 = s.a.x, s.a.y
    dx, dy = s.b.x - x1, s.b.y - y1
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x1 - 0.0), (dx, (width - 1.0) - x1),
                 (-dy, y1 - 0.0), (dy, (height - 1.0) - y1)):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    if t0 > t1:
        return None
    return (x1 + t0 * dx, y1 + t0 * dy), (x1 + t1 * dx, y1 + t1 * dy)


def round_px(v):
    return int(math.floor(v + 0.5))  # half up


def reference_rasterize_segment(s, width, height):
    """Oracle: Bresenham's error-accumulating walk, one pixel per step."""
    clipped = reference_clip_segment(s, width, height)
    if clipped is None:
        return []
    (cx1, cy1), (cx2, cy2) = clipped
    x0, y0 = round_px(cx1), round_px(cy1)
    x1, y1 = round_px(cx2), round_px(cy2)
    dx = abs(x1 - x0)
    sx = 1 if x0 < x1 else -1
    dy = -abs(y1 - y0)
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    out = []
    while True:
        out.append((x0, y0))
        if x0 == x1 and y0 == y1:
            return out
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def assert_matches_reference(s, width, height):
    got = segment_pixels(s, width, height)
    want = np.array(reference_rasterize_segment(s, width, height), dtype=np.intp)
    assert got.dtype == np.intp and got.shape == (len(want), 2)
    assert np.array_equal(got, want.reshape(-1, 2)), s


def test_rasterize_matches_reference_every_offset():
    # every rounded delta within +-40, all octants, diagonals and the single
    # pixel; the fractional offsets keep each segment non-degenerate
    for dx in range(-40, 41):
        for dy in range(-40, 41):
            s = seg(44.7, 45.2, 45 + dx + 0.4, 45 + dy - 0.1)
            assert_matches_reference(s, 91, 91)


# floats that often sit on half pixels, where rounding breaks ties upward
border_coords = st.one_of(st.floats(min_value=-30.0, max_value=94.0, allow_nan=False),
                          st.integers(-60, 188).map(lambda k: k / 2))
border_segments = st.tuples(border_coords, border_coords, border_coords,
                            border_coords).filter(
    lambda q: (q[0], q[1]) != (q[2], q[3])).map(lambda q: seg(*q))


@given(border_segments)
@settings(max_examples=400)
@example(seg(-5.5, 3.5, 70.5, 60.5))    # crosses two borders, half-pixel ends
@example(seg(70.0, -3.0, 90.0, 10.0))   # fully outside
@example(seg(0.5, 0.5, 1.5, 2.5))       # x.5 ties at both ends
def test_rasterize_matches_reference_across_border(s):
    assert_matches_reference(s, 64, 64)


thin_coords = st.one_of(st.floats(min_value=-6.0, max_value=26.0, allow_nan=False),
                        st.integers(-12, 52).map(lambda k: k / 2))
thin_segments = st.tuples(thin_coords, thin_coords, thin_coords, thin_coords).filter(
    lambda q: (q[0], q[1]) != (q[2], q[3])).map(lambda q: seg(*q))


@given(thin_segments)
@settings(max_examples=200)
@example(seg(-3.0, 0.0, 25.0, 0.0))
@example(seg(0.0, -3.0, 0.0, 25.0))
def test_rasterize_matches_reference_thin_images(s):
    assert_matches_reference(s, 1, 20)
    assert_matches_reference(s, 20, 1)


# a mix of segments inside, clipped and fully off a 64 x 40 image: ends on
# the last column and row, negative coordinates, and segments that round to
# a single pixel
set_coords = st.one_of(st.floats(min_value=-40.0, max_value=104.0, allow_nan=False),
                       st.integers(-80, 208).map(lambda k: k / 2),
                       st.sampled_from([0.0, 39.0, 63.0, -0.5, 39.49, 63.5, -12.0]))
tiny_segments = st.tuples(st.integers(0, 63), st.integers(0, 39),
                          st.floats(-0.49, 0.49), st.floats(-0.49, 0.49)).map(
    lambda q: (q[0], q[1], q[0] + q[2], q[1] + q[3])).filter(
    lambda q: (q[0], q[1]) != (q[2], q[3])).map(lambda q: seg(*q))
set_segments = st.tuples(set_coords, set_coords, set_coords, set_coords).filter(
    lambda q: (q[0], q[1]) != (q[2], q[3])).map(lambda q: seg(*q)) | tiny_segments


@given(st.lists(set_segments, max_size=12), st.sampled_from([1 << 15, 40, 7, 1]))
@settings(max_examples=300, deadline=None)
@example([], 1 << 15)
@example([seg(70.0, -3.0, 90.0, 10.0), seg(-5.0, -5.0, -1.0, -2.0)], 1 << 15)  # all off
@example([seg(63.0, 39.0, 0.0, 0.0), seg(63.0, 0.0, 63.0, 39.0), seg(5.2, 5.3, 5.4, 5.1)], 7)
@example([seg(-5.5, 3.5, 70.5, 60.5), seg(0.5, 0.5, 1.5, 2.5), seg(20.0, 20.0, 20.4, 20.4)], 1)
def test_rasterize_segments_matches_reference(segments, block):
    """The batched kernel gives every segment's pixels in order, as the
    per-segment Bresenham walk does, whatever the block size."""
    with mock.patch.object(annotate, "_BLOCK_PX", block):
        blocks = list(rasterize_segments(segment_array(segments), 64, 40))
    got = [(x, y, i) for xs, ys, ids in blocks
           for x, y, i in zip(xs.tolist(), ys.tolist(), ids.tolist())]
    want = [(x, y, i) for i, s in enumerate(segments)
            for x, y in reference_rasterize_segment(s, 64, 40)]
    assert got == want
    assert all(len(ids) for _, _, ids in blocks)  # no empty block
    assert all(xs.dtype == ys.dtype == ids.dtype == np.intp for xs, ys, ids in blocks)


def reference_digital_lines(segments, width, height):
    """Oracle: digital_lines' rows and table, one segment at a time, from
    reference_clip_segment and the formulas of its docstring."""
    rows, table, first = [], [], 0
    for i, s in enumerate(segments):
        clipped = reference_clip_segment(s, width, height)
        if clipped is not None:
            (x1, y1), (x2, y2) = clipped
            x0, y0 = round_px(x1), round_px(y1)
            dx, dy = round_px(x2) - x0, round_px(y2) - y0
            n = max(abs(dx), abs(dy))
            den = max(2 * n, 1)
            rows.append(i)
            table.append([2 * dx, 2 * dy, x0 * den + n - (dx < 0) - 2 * dx * first,
                          y0 * den + n - (dy < 0) - 2 * dy * first, den, n + 1])
            first += n + 1
    return rows, table


def assert_lines_match_reference(segments, width, height):
    rows, table = digital_lines(segment_array(segments), width, height)
    assert rows.dtype == table.dtype == np.intp and table.shape == (len(rows), 6)
    assert (rows.tolist(), table.tolist()) == reference_digital_lines(segments, width, height)


@given(st.lists(set_segments, min_size=1, max_size=4), st.sampled_from([(64, 40), (1, 20), (20, 1)]))
@settings(max_examples=300, deadline=None)
# on the border, axis-parallel (p == 0) inside and outside, and along the last row
@example([seg(0.0, 5.0, 0.0, 9.0), seg(-1.0, 5.0, -1.0, 9.0), seg(5.0, 39.0, 9.0, 39.0)], (64, 40))
@example([seg(-0.0, 3.0, 5.0, 3.0), seg(3.0, -1e-300, 8.0, 1e-300)], (64, 40))
@example([seg(70.0, -3.0, 90.0, 10.0), seg(-5.0, -5.0, -1.0, -2.0), seg(3.0, 3.0, 9.0, 7.0)], (64, 40))
@example([seg(-3.0, 0.0, 25.0, 0.0), seg(0.0, -3.0, 0.0, 25.0), seg(0.4, 2.0, -0.6, 9.5)], (1, 20))
@example([seg(-3.0, 0.0, 25.0, 0.0), seg(0.0, -3.0, 0.0, 25.0), seg(2.0, 0.4, 9.5, -0.6)], (20, 1))
def test_clip_matches_early_exit_reference(segments, shape):
    # the clip of every row at once gives the rows and the table that
    # clipping and rounding one segment at a time gives
    assert_lines_match_reference(segments, *shape)


def test_clip_inside_unchanged():
    rows, table = digital_lines(segment_array([seg(1, 1, 5, 5)]), 10, 10)
    assert rows.tolist() == [0] and table.tolist() == [[8, 8, 12, 12, 8, 5]]
    assert_lines_match_reference([seg(1, 1, 5, 5)], 10, 10)


def test_clip_crossing_boundary():
    # clipped to (0, 4)-(9, 4): ten pixels; the row that misses is left out
    segments = [seg(-3, 4, 20, 4), seg(-5, -5, -1, -1)]
    rows, table = digital_lines(segment_array(segments), 10, 10)
    assert rows.tolist() == [0] and table.tolist() == [[18, 0, 9, 81, 18, 10]]
    assert_lines_match_reference(segments, 10, 10)


def test_digital_lines_rejects_overflowing_segment():
    # the direction overflows to inf, so the clipped ends are not finite
    with pytest.raises(GeometryError):
        digital_lines(np.array([[-1e308, 3.0, 1e308, 3.0]]), 10, 10)


def test_scene_validation():
    with pytest.raises(GeometryError):
        AnnotatedScene(10, 10, (seg(0, 0, 11, 5),))
    with pytest.raises(GeometryError):
        AnnotatedScene(0, 10, ())
    AnnotatedScene(10, 10, (seg(0, 0, 10, 10),))  # inclusive far edge is fine


def test_heatmap_validation():
    for bad in (-1.0, -5e-324, np.nan, np.inf, -np.inf):
        for at in ((0, 0), (3, 3)):  # alone, and after good values
            values = np.full((4, 4), 0.5)
            values[at] = bad
            with pytest.raises(GeometryError, match="finite and >= 0"):
                HeatMap(4, 4, values)
    with pytest.raises(GeometryError):
        HeatMap(4, 4, np.zeros((3, 4)))
    assert np.signbit(HeatMap(2, 1, np.array([[-0.0, 1.0]])).values[0, 0])  # -0.0 is >= 0
    assert HeatMap(0, 0).values.shape == (0, 0)
    assert HeatMap(0, 3, np.zeros((3, 0))).values.shape == (3, 0)


def test_derive_x_crossing():
    scene = AnnotatedScene(20, 20, (seg(0, 0, 10, 10), seg(0, 10, 10, 0)))
    js = derive_junctions(scene)
    assert len(js) == 1
    j = js[0]
    assert j.center.x == pytest.approx(5.0) and j.center.y == pytest.approx(5.0)
    assert j.order == 4
    assert sorted(b.angle_deg for b in j.branches) == pytest.approx([45, 135, 225, 315])


def test_derive_t_junction():
    scene = AnnotatedScene(20, 20, (seg(0, 0, 10, 0), seg(5, 0, 5, 5)))
    js = derive_junctions(scene)
    assert len(js) == 1
    j = js[0]
    assert (j.center.x, j.center.y) == (5.0, 0.0)
    assert sorted(b.angle_deg for b in j.branches) == pytest.approx([0, 90, 180])


def test_derive_l_junction():
    scene = AnnotatedScene(20, 20, (seg(2, 2, 12, 2), seg(2, 2, 2, 12)))
    js = derive_junctions(scene)
    assert len(js) == 1
    assert sorted(b.angle_deg for b in js[0].branches) == pytest.approx([0, 90])


def test_derive_isolated_segment_none():
    assert derive_junctions(AnnotatedScene(20, 20, (seg(1, 1, 9, 9),))) == []


def test_derive_empty_scene():
    assert derive_junctions(AnnotatedScene(20, 20, ())) == []


def test_derive_short_stub_side_dropped():
    # vertical stub barely pokes past the crossing: that side has no branch
    scene = AnnotatedScene(30, 30, (seg(0, 10, 20, 10), seg(10, 0, 10, 11)))
    js = derive_junctions(scene)
    assert len(js) == 1
    assert sorted(b.angle_deg for b in js[0].branches) == pytest.approx([0, 180, 270])


grid_coords = st.integers(0, 29).map(float)
grid_segments = st.tuples(grid_coords, grid_coords, grid_coords, grid_coords).filter(
    lambda q: math.hypot(q[2] - q[0], q[3] - q[1]) >= 8.0).map(lambda q: seg(*q))


@given(st.lists(grid_segments, min_size=2, max_size=5))
@settings(max_examples=100, deadline=None)
def test_derive_junction_invariants(lines):
    scene = AnnotatedScene(30, 30, tuple(lines))
    for j in derive_junctions(scene):
        near = [s for s in lines if point_segment_distance(j.center, s) <= 2.0]
        assert len(near) >= 2
        assert j.order >= 2
        angs = sorted(b.angle_deg for b in j.branches)
        for a, b in zip(angs, angs[1:]):
            assert b - a > 1e-6
        assert 360.0 - (angs[-1] - angs[0]) > 1e-6 or len(angs) == 1


def test_heatmap_single_segment():
    scene = AnnotatedScene(10, 10, (seg(0, 0, 3, 4),))
    hm = render_target_heatmap(scene)
    on = segment_pixels(seg(0, 0, 3, 4), 10, 10)
    for x, y in on:
        assert hm.values[y, x] == 5.0
    assert hm.values.sum() == 5.0 * len(on)


def test_heatmap_empty_scene():
    hm = render_target_heatmap(AnnotatedScene(8, 6, ()))
    assert hm.values.shape == (6, 8) and not hm.values.any()


def test_heatmap_crossing_takes_max():
    long = seg(0, 5, 10, 5)   # length 10
    short = seg(5, 2, 5, 8)   # length 6
    hm = render_target_heatmap(AnnotatedScene(12, 12, (long, short)))
    assert hm.values[5, 5] == 10.0
    assert hm.values[3, 5] == 6.0
    # oracle: per-pixel max over both rasterizations
    oracle = np.zeros((12, 12))
    for s in (long, short):
        for x, y in segment_pixels(s, 12, 12):
            oracle[y, x] = max(oracle[y, x], s.length)
    assert (hm.values == oracle).all()


def reference_render_target_heatmap(scene):
    """Oracle: one gather and scatter per segment."""
    values = np.zeros((scene.height, scene.width), dtype=np.float64)
    for s in scene.lines:
        xs, ys = np.array(reference_rasterize_segment(s, scene.width, scene.height),
                          dtype=np.intp).reshape(-1, 2).T
        values[ys, xs] = np.maximum(values[ys, xs], s.length)
    return values


heat_coords = st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0))
heat_segments = st.tuples(heat_coords, heat_coords, heat_coords, heat_coords).filter(
    lambda q: (q[0], q[1]) != (q[2], q[3])).map(lambda q: seg(*q))


@given(st.lists(heat_segments, max_size=8))
@settings(max_examples=150, deadline=None)
# equal lengths crossing, overlapping along a line, and the same segment twice
@example([seg(0, 5, 10, 5), seg(5, 0, 5, 10), seg(2, 5, 12, 5), seg(12, 5, 2, 5)])
@example([seg(0, 0, 30, 30), seg(30, 0, 0, 30), seg(0, 0, 30, 30)])
def test_heatmap_matches_per_segment_loop(lines):
    scene = AnnotatedScene(30, 30, tuple(lines))
    assert np.array_equal(render_target_heatmap(scene).values,
                          reference_render_target_heatmap(scene))


@given(st.lists(grid_segments, min_size=0, max_size=5))
@settings(max_examples=100, deadline=None)
def test_heatmap_support_and_values(lines):
    scene = AnnotatedScene(30, 30, tuple(lines))
    hm = render_target_heatmap(scene)
    union = set()
    for s in lines:
        union |= set(pixels(s, 30, 30))
    assert {(x, y) for y, x in zip(*np.nonzero(hm.values))} == union
    allowed = {0.0} | {s.length for s in lines}
    assert set(np.unique(hm.values)) <= allowed


def test_derive_nonfinite_merge_radius_rejected():
    scene = AnnotatedScene(30, 30, (seg(0, 0, 10, 10), seg(0, 10, 10, 0)))
    for r in (float("nan"), float("inf"), -1.0):
        with pytest.raises(GeometryError):
            derive_junctions(scene, r)


def reference_derive_junctions(scene, merge_radius):
    """Oracle: derive_junctions as the scalar all-pairs loop, with no array
    prefilter: candidates from every pair, each tested against every
    cluster center, and branches from every segment."""
    lines, r = scene.lines, merge_radius
    cands = []
    for i, j in itertools.combinations(range(len(lines)), 2):
        hit = segment_intersection(lines[i], lines[j]).point
        if hit is not None:
            cands.append((hit, True))
        for a, b in ((lines[i], lines[j]), (lines[j], lines[i])):
            cands += [(e, False) for e in (a.a, a.b) if point_segment_distance(e, b) <= r]
    cands.sort(key=lambda pe: (not pe[1], pe[0].y, pe[0].x))
    clusters, centers = [], []
    for p, exact in cands:
        for k, (cx, cy) in enumerate(centers):
            if math.hypot(p.x - cx, p.y - cy) <= r:
                members = clusters[k]
                members.append((p, exact))
                centers[k] = (sum(m.x for m, _ in members) / len(members),
                              sum(m.y for m, _ in members) / len(members))
                break
        else:
            centers.append((p.x, p.y))
            clusters.append([(p, exact)])
    junctions = []
    for members in clusters:
        anchors = [m for m, exact in members if exact] or [m for m, _ in members]
        c = Point(sum(m.x for m in anchors) / len(anchors), sum(m.y for m in anchors) / len(anchors))
        angles = [direction_deg(c, e) for s in lines if point_segment_distance(c, s) <= r
                  for e in (s.a, s.b) if c.distance_to(e) > r]
        branches = []
        for a in sorted(angles):
            if not any(abs(angle_diff(a, b.angle_deg)) <= 1e-6 for b in branches):
                branches.append(Branch(a, 1.0))
        if len(branches) >= 2:
            junctions.append(Junction(c, tuple(branches), 1.0))
    junctions.sort(key=lambda j: (j.center.y, j.center.x))
    return junctions


def derive_all_pairs(scene, merge_radius):
    """derive_junctions with its prefilters proposing every pair and every
    candidate for the greedy loop."""
    def every_pair(a, b, *_):
        return tuple(np.indices((len(a), len(b))).reshape(2, -1))

    def every_value(values, *_):
        return np.ones(np.shape(values), dtype=bool)

    def near_or_every_pair(p, q, limit):  # the isolation test links every candidate
        return every_pair(p, q) if p is q else geometry.near_pairs(p, q, limit)

    with mock.patch.object(annotate, "within", every_value), \
            mock.patch.object(annotate, "may_cut", every_pair), \
            mock.patch.object(geometry, "box_pairs", every_pair), \
            mock.patch.object(annotate, "near_pairs", near_or_every_pair):
        return derive_junctions(scene, merge_radius)


def assert_derive_matches_reference(scene, merge_radius):
    # bit for bit and in order: repr tells -0.0 from 0.0
    want = repr(reference_derive_junctions(scene, merge_radius))
    assert repr(list(derive_junctions(scene, merge_radius))) == want
    assert repr(list(derive_all_pairs(scene, merge_radius))) == want


short_segments = st.tuples(grid_coords, grid_coords, grid_coords, grid_coords).filter(
    lambda q: q[:2] != q[2:]).map(lambda q: seg(*q))


@given(st.lists(short_segments, max_size=7),
       st.sampled_from([0.0, 1.0, 2.0, 5.0]) | st.floats(0.0, 6.0))
@settings(max_examples=200, deadline=None)
@example([seg(0, 0, 20, 0), seg(10, 2, 10, 20)], 2.0)  # T end exactly merge_radius away
@example([seg(0, 0, 20, 0), seg(20, 0, 20, 20)], 2.0)  # L on a shared endpoint
@example([seg(0, 0, 20, 0), seg(5, 0, 25, 0), seg(10, -5, 10, 5)], 2.0)  # collinear
@example([seg(0, 0, 20, 20), seg(20, 20, 0, 0), seg(0, 20, 20, 0)], 2.0)  # duplicate
@example([seg(2, 2, 20, 20), seg(2, 20, 20, 2), seg(11, 2, 11, 20)], 5.0)  # one cluster
@example([], 2.0)
def test_derive_matches_all_pairs_oracle(lines, merge_radius):
    lines = [s for s in lines
             if all(0 <= v <= 30 for v in (s.a.x, s.a.y, s.b.x, s.b.y))]
    assert_derive_matches_reference(AnnotatedScene(30, 30, tuple(lines)), merge_radius)


@st.composite
def clustered_scenes(draw):
    """An 80 x 80 scene built to cluster, and its merge radius r: 2-5 lines
    through points 0-3 r from (40, 40), so crossings fall 1-3 merge radii
    apart, and 0-3 T or L ends within about 1.5 r of a line or an end."""
    r = draw(st.sampled_from([1.0, 2.0, 2.5]) | st.floats(0.5, 3.0))
    step = st.integers(-6, 6).map(lambda k: k * r / 2) | st.floats(-3 * r, 3 * r)
    slop = st.integers(-3, 3).map(lambda k: k * r / 2) | st.floats(-1.5 * r, 1.5 * r)
    turn = st.sampled_from([0, 30, 45, 90, 135, 180]).map(math.radians) | st.floats(0, math.pi)
    lines = []
    for _ in range(draw(st.integers(2, 5))):
        x, y, t, u = 40 + draw(step), 40 + draw(step), draw(turn), draw(st.floats(4.0, 14.0))
        lines.append(seg(x - u * math.cos(t), y - u * math.sin(t),
                         x + u * math.cos(t), y + u * math.sin(t)))
    for _ in range(draw(st.integers(0, 3))):
        s, f = draw(st.sampled_from(lines)), draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
        x = s.a.x + f * (s.b.x - s.a.x) + draw(slop)
        y = s.a.y + f * (s.b.y - s.a.y) + draw(slop)
        t = 2 * draw(turn)
        lines.append(seg(x, y, x + 8 * math.cos(t), y + 8 * math.sin(t)))
    return AnnotatedScene(80, 80, tuple(lines)), r


@given(clustered_scenes())
@settings(max_examples=300, deadline=None)
# crossings at x = 10, 12, 13 merge through the moving center, and a T end
# 1.5 r off the first crossing
@example((AnnotatedScene(80, 80, (seg(0, 10, 30, 10), seg(10, 0, 10, 30), seg(12, 0, 12, 30),
                                  seg(13, 0, 13, 30), seg(10, 13, 25, 25))), 2.0))
# three lines through one point, an L on an end and a T end on a crossing
@example((AnnotatedScene(80, 80, (seg(30, 30, 50, 50), seg(30, 50, 50, 30), seg(40, 28, 40, 52),
                                  seg(50, 50, 60, 50), seg(41, 40, 50, 45))), 2.0))
def test_derive_matches_reference_on_clustered_scenes(scene_r):
    assert_derive_matches_reference(*scene_r)


def test_derive_cluster_center_follows_members():
    # crossings at x = 10, 12, 13 on y = 10: the third is 3 from the first
    # but within 2 of the running center (11, 10), so all three merge
    scene = AnnotatedScene(30, 30, (seg(0, 10, 30, 10), seg(10, 0, 10, 30),
                                    seg(12, 0, 12, 30), seg(13, 0, 13, 30)))
    centers = [j.center for j in derive_junctions(scene)]
    assert Point(35 / 3, 10.0) in centers
    assert not any(c.y == 10.0 and c != Point(35 / 3, 10.0) for c in centers)
