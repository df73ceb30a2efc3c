import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import segment_pixels
from wireframe import construct, geometry
from wireframe.synth import make_scene

from wireframe.annotate import (
    AnnotatedScene,
    HeatMap,
    derive_junctions,
    render_target_heatmap,
)
from wireframe.construct import (
    BOUNDARY_FRAC,
    KAPPA_MIN,
    MAX_WALK_GAP,
    MIN_PIECE_LEN,
    BinaryMask,
    ConstructionParams,
    _on_ray,
    binarize,
    construct_wireframe,
    dedup_junctions,
    farthest_mask_points,
    line_support_ratios,
    match_ray_pairs,
    recover_unmatched,
)
from wireframe.geometry import (
    Branch,
    GeometryError,
    Junction,
    Point,
    Segment,
    build_incidence,
    direction_deg,
    may_cut,
    normalize_angle,
    point_array,
    point_segment_distance,
    segment_array,
    segment_intersection,
)


def jn(x, y, angles, conf=1.0):
    return Junction(Point(float(x), float(y)),
                    tuple(Branch(float(a), 1.0) for a in angles), conf)


def test_params_validation():
    with pytest.raises(GeometryError):
        ConstructionParams(omega=-1.0)
    with pytest.raises(GeometryError):
        ConstructionParams(omega=float("nan"))
    with pytest.raises(GeometryError):
        ConstructionParams(tau_b=float("nan"))
    with pytest.raises(GeometryError):
        ConstructionParams(rho_nms=float("inf"))
    with pytest.raises(TypeError):  # the rescue pass's constants are not parameters
        ConstructionParams(kappa_min=0.6)


@pytest.mark.parametrize("width, height", [(-1, 2), (2, -1), (-1, -1)])
def test_mask_with_a_negative_side_is_rejected(width, height):
    # with the default bits as well as given ones, like HeatMap
    with pytest.raises(GeometryError, match="mask sides"):
        BinaryMask(width, height)
    with pytest.raises(GeometryError):
        HeatMap(width, height)
    assert BinaryMask(0, 0).bits.shape == (0, 0)


def test_dedup_keeps_strongest():
    a, b = jn(5, 5, [0], 0.9), jn(6, 5, [0], 0.8)
    assert dedup_junctions([b, a], 5.0) == [a]


def test_dedup_far_apart_unchanged():
    js = [jn(0, 0, [0], 0.9), jn(20, 0, [0], 0.8), jn(0, 20, [0], 0.7)]
    assert dedup_junctions(js, 5.0) == js


def test_dedup_chain():
    # greedy trace: 1st kept, 2nd within 4 <= 5 of 1st suppressed,
    # 3rd is 8 px from 1st so it survives
    a, b, c = jn(0, 0, [0], 0.9), jn(4, 0, [0], 0.8), jn(8, 0, [0], 0.7)
    assert dedup_junctions([a, b, c], 5.0) == [a, c]


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), -1.0])
def test_dedup_rejects_bad_radius(rho):
    # NaN would otherwise propose every pair and keep every junction
    js = [jn(0, 0, [0], 0.9), jn(50, 0, [0], 0.8), jn(100, 0, [0], 0.7)]
    with pytest.raises(GeometryError, match="NMS radius"):
        dedup_junctions(js, rho)


@pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2], [2, 1, 0]])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_dedup_rejects_a_nonfinite_confidence(order, bad):
    # a NaN sorted by -confidence kept x, y or z alone, by input order alone
    js = [jn(0, 0, [0], bad), jn(1, 0, [0], 0.8), jn(2, 0, [0], 0.9)]
    with pytest.raises(GeometryError, match="confidences must be finite"):
        dedup_junctions([js[k] for k in order], 2.0)


def test_binarize():
    hm = HeatMap(3, 1, np.array([[5.0, 10.0, 15.0]]))
    assert binarize(hm, 10.0).bits.tolist() == [[False, False, True]]
    assert not binarize(HeatMap(3, 1, np.zeros((1, 3))), 0.0).bits.any()
    assert binarize(hm, 0.0).bits.all()


def matched(junctions, **kw):
    """Segments joining the mutually matched ray pairs."""
    owner = [i for i, _ in ray_keys(junctions)]
    return [Segment(junctions[owner[a]].center, junctions[owner[b]].center)
            for a, b in match_ray_pairs(junctions, **kw).tolist()]


def test_match_two_facing():
    p1, p2 = jn(0, 0, [0]), jn(10, 0, [180])
    got = matched([p1, p2])
    assert got == [Segment(p1.center, p2.center)]


def test_match_prefers_nearest():
    # middle junction intercepts: p1-p3 and p3-p2, never the long p1-p2
    p1, p3, p2 = jn(0, 0, [0]), jn(5, 0, [0, 180]), jn(10, 0, [180])
    got = matched([p1, p3, p2])
    assert Segment(p1.center, p3.center) in got
    assert Segment(p3.center, p2.center) in got
    assert Segment(p1.center, p2.center) not in got
    assert len(got) == 2


def test_match_misaligned_rejected():
    # direction to the partner is atan(5/10) = 26.6 deg off the branch
    p1, p2 = jn(0, 0, [0]), jn(10, 5, [180])
    assert matched([p1, p2], delta_ray=12.0) == []
    assert math.degrees(math.atan2(5, 10)) > 12.0


def test_match_one_segment_per_branch():
    # three collinear: the middle 0-degree ray must pick only the nearer one
    p1, p2, p3 = jn(0, 0, [0]), jn(6, 0, [180, 0]), jn(14, 0, [180])
    segs = matched([p1, p2, p3])
    starts = {}
    for a, b in match_ray_pairs([p1, p2, p3]).tolist():
        for key in (a, b):
            assert key not in starts
            starts[key] = True
    assert len(segs) == 2


def reference_ray_boundary_point(origin, angle_deg, width, height):
    """Oracle: where one ray exits the pixel box [0, w-1] x [0, h-1], by the
    scalar formula; None when the origin is already outside."""
    if not (0.0 <= origin.x <= width - 1 and 0.0 <= origin.y <= height - 1):
        return None
    dx, dy = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    tx = (width - 1 - origin.x) / dx if dx > 0 else -origin.x / dx if dx < 0 else math.inf
    ty = (height - 1 - origin.y) / dy if dy > 0 else -origin.y / dy if dy < 0 else math.inf
    t_exit = min(tx, ty)
    if not math.isfinite(t_exit):
        return None
    return Point(origin.x + t_exit * dx, origin.y + t_exit * dy)


def segments_of(rows):
    """(K, 4) segment rows as Segments."""
    return [Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in rows.tolist()]


NO_SEGMENTS = np.zeros((0, 4))
FIRST_RAY = np.array([0])  # of a one-junction list: its first branch


def test_ray_boundary_point():
    # the rescue pass's exits: a short one is the boundary segment itself, a
    # long one ends the walk of a fully supported ray
    full = BinaryMask(100, 100, np.ones((100, 100), dtype=bool))
    assert segments_of(recover_unmatched([jn(2, 50, [180])], FIRST_RAY, full, NO_SEGMENTS)) == [
        Segment(Point(2.0, 50.0), Point(0.0, 50.0))]
    [s] = segments_of(recover_unmatched([jn(2, 50, [0])], FIRST_RAY, full, NO_SEGMENTS))
    assert (s.b.x, s.b.y) == pytest.approx((99.0, 50.0))
    [s] = segments_of(recover_unmatched([jn(2, 50, [90])], FIRST_RAY, full, NO_SEGMENTS))
    assert (s.b.x, s.b.y) == pytest.approx((2.0, 99.0))
    assert recover_unmatched([jn(-5, 50, [0])], FIRST_RAY, full, NO_SEGMENTS).shape == (0, 4)


@given(st.lists(st.tuples(st.floats(-1.0, 25.0) | st.sampled_from([0.0, 16.0, 23.0]),
                          st.floats(-1.0, 18.0) | st.sampled_from([0.0, 16.0, 23.0]),
                          st.sampled_from([0.0, 90.0, 180.0, 270.0, 45.0, 359.9999999])
                          | st.floats(0.0, 360.0, exclude_max=True)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_exits_are_the_scalar_exits(rays):
    # with a boundary limit past the diagonal every exit becomes a boundary
    # segment, so the batched exits show bit for bit
    js = [jn(x, y, [a]) for x, y, a in rays]
    with mock.patch.object(construct, "BOUNDARY_FRAC", 2.0):
        got = recover_unmatched(js, all_rays(js), BinaryMask(24, 17), NO_SEGMENTS)
    exits = [(j.center, reference_ray_boundary_point(j.center, j.branches[0].angle_deg, 24, 17))
             for j in js]
    assert repr(segments_of(got)) == repr([Segment(o, q) for o, q in exits
                                           if q is not None and q != o])


def with_exits(rays, mask):
    """(origin, angle) rays as farthest_mask_points takes them: origin rows,
    direction rows (cos, sin) and exit rows (NaN for none)."""
    exits = [reference_ray_boundary_point(o, a, mask.width, mask.height) for o, a in rays]
    d = [(math.cos(math.radians(a)), math.sin(math.radians(a))) for _, a in rays]
    return (point_array([o for o, _ in rays]), np.array(d, dtype=float).reshape(-1, 2),
            np.array([(math.nan, math.nan) if q is None else (q.x, q.y) for q in exits]
                     ).reshape(-1, 2))


def points_of(rows):
    """(K, 2) point rows as Points, None for a NaN row."""
    return [None if x != x else Point(x, y) for x, y in rows.tolist()]


def walk(rays, mask, max_gap=MAX_WALK_GAP):
    """The batched walk of (origin, angle) rays, its gap limit set to max_gap."""
    with mock.patch.object(construct, "MAX_WALK_GAP", max_gap):
        return points_of(farthest_mask_points(*with_exits(rays, mask), mask))


def test_farthest_mask_point():
    mask = BinaryMask(20, 10)
    assert walk([(Point(2, 5), 0.0)], mask) == [None]
    mask.bits[5, 4] = mask.bits[5, 9] = True
    # four misses (x=5..8) exceed the default gap of 3: the walk stops
    assert walk([(Point(2, 5), 0.0)], mask) == [Point(4.0, 5.0)]
    mask.bits[5, 7] = True
    assert walk([(Point(2, 5), 0.0), (Point(4, 5), 0.0)], mask) == [Point(9.0, 5.0)] * 2
    assert walk([(Point(4, 5), 0.0)], mask, max_gap=1.0) == [Point(4.0, 5.0)]
    assert walk([], mask) == []
    # the walk runs to the exit it is given
    origin, d = np.array([[2.0, 5.0]]), np.array([[1.0, 0.0]])
    assert points_of(farthest_mask_points(origin, d, np.array([[5.0, 5.0]]), mask)) == [
        Point(4.0, 5.0)]
    assert points_of(farthest_mask_points(origin, d, np.full((1, 2), np.nan), mask)) == [
        None]


# -- the batched walk and support ratios against the old per-ray code --

def reference_farthest_mask_point(origin, angle_deg, mask, max_gap=MAX_WALK_GAP):
    """Oracle: one ray, one pixel and one scalar probe at a time."""
    end = reference_ray_boundary_point(origin, angle_deg, mask.width, mask.height)
    if end is None or (abs(end.x - origin.x) < 0.5 and abs(end.y - origin.y) < 0.5):
        return None
    rad = math.radians(angle_deg)
    across_y = abs(math.cos(rad)) >= abs(math.sin(rad))
    last = None
    misses = 0
    for x, y in segment_pixels(Segment(origin, end), mask.width, mask.height).tolist():
        probes = ((x, y), (x, y - 1), (x, y + 1)) if across_y \
            else ((x, y), (x - 1, y), (x + 1, y))
        hit = None
        for px, py in probes:
            if 0 <= px < mask.width and 0 <= py < mask.height and mask.bits[py, px]:
                hit = (px, py)
                break
        if hit is not None:
            last = hit
            misses = 0
        else:
            misses += 1
            if misses > max_gap:
                break
    if last is None:
        return None
    return Point(float(last[0]), float(last[1]))


def reference_line_support_ratio(a, b, mask):
    if a.x == b.x and a.y == b.y:
        return 0.0
    px = segment_pixels(Segment(a, b), mask.width, mask.height)
    if not len(px):
        return 0.0
    return np.count_nonzero(mask.bits[px[:, 1], px[:, 0]]) / len(px)


def assert_walks_match(rays, mask, max_gap=MAX_WALK_GAP):
    want = [reference_farthest_mask_point(o, a, mask, max_gap) for o, a in rays]
    assert walk(rays, mask, max_gap) == want
    return want


@st.composite
def walk_cases(draw):
    w, h = draw(st.integers(1, 90)), draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.02, 0.2]))
    for _ in range(draw(st.integers(0, 4))):  # broken lines to walk along
        x1, x2 = rng.uniform(0, w - 1, 2)
        y1, y2 = rng.uniform(0, h - 1, 2)
        if (x1, y1) != (x2, y2):
            for x, y in segment_pixels(Segment(Point(x1, y1), Point(x2, y2)), w, h):
                bits[y, x] |= rng.random() < 0.8
    xs = st.one_of(st.floats(-1.0, float(w)), st.integers(0, w - 1).map(float),
                   st.integers(-1, 2 * w).map(lambda k: k / 2))
    ys = st.one_of(st.floats(-1.0, float(h)), st.integers(0, h - 1).map(float),
                   st.integers(-1, 2 * h).map(lambda k: k / 2))
    angles = st.sampled_from([0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0,
                              26.56505117707799]) | st.floats(0.0, 360.0, exclude_max=True)
    rays = draw(st.lists(st.tuples(st.builds(Point, xs, ys), angles), max_size=12))
    return rays, BinaryMask(w, h, bits), draw(st.sampled_from([0.0, 1.0, 2.5, 3.0, 6.0]))


@given(walk_cases())
@settings(max_examples=300, deadline=None)
def test_farthest_mask_points_match_scalar_walk(case):
    assert_walks_match(*case)


def test_walk_gap_of_max_gap_continues_and_one_more_stops():
    mask = BinaryMask(40, 9)
    mask.bits[4, [2, 3, 4, 8, 13]] = True  # gaps of 3 (x = 5..7) and 4 (x = 9..12)
    ray = [(Point(2.0, 4.0), 0.0)]
    assert assert_walks_match(ray, mask, 3.0) == [Point(8.0, 4.0)]
    assert assert_walks_match(ray, mask, 4.0) == [Point(13.0, 4.0)]
    assert assert_walks_match(ray, mask, 2.9) == [Point(4.0, 4.0)]


def test_walk_probes_centre_then_minus_then_plus():
    mask = BinaryMask(30, 30)
    mask.bits[9, 5] = mask.bits[11, 5] = True  # both lateral probes of a row walk
    mask.bits[9, 6] = mask.bits[10, 6] = True  # centre and the minus probe
    mask.bits[11, 7] = True  # only the plus probe
    assert assert_walks_match([(Point(5.0, 10.0), 0.0)], mask) == [Point(7.0, 11.0)]
    mask.bits[11, 7] = False
    assert assert_walks_match([(Point(5.0, 10.0), 0.0)], mask) == [Point(6.0, 10.0)]
    mask.bits[10, 6] = False
    assert assert_walks_match([(Point(5.0, 10.0), 0.0)], mask) == [Point(6.0, 9.0)]
    # a column walk probes x - 1 before x + 1
    mask = BinaryMask(30, 30)
    mask.bits[8, 9] = mask.bits[8, 11] = True
    assert assert_walks_match([(Point(10.0, 5.0), 90.0)], mask) == [Point(9.0, 8.0)]


@pytest.mark.parametrize("stop", [30, 31, 32, 33, 95, 96, 97, 223, 224])
def test_walk_ends_across_chunk_boundaries(stop):
    # supported up to step `stop`, then a gap of max_gap misses and one
    # more hit whose step may sit in the next chunk
    mask = BinaryMask(400, 5)
    mask.bits[2, :stop + 1] = True
    mask.bits[2, stop + 4] = True
    rays = [(Point(0.0, 2.0), 0.0), (Point(1.0, 2.0), 0.0), (Point(399.0, 2.0), 180.0)]
    got = assert_walks_match(rays, mask, 3.0)
    assert got[:2] == [Point(float(stop + 4), 2.0)] * 2
    mask.bits[2, stop + 4] = False
    assert assert_walks_match(rays, mask, 3.0)[:2] == [Point(float(stop), 2.0)] * 2


def test_walk_origins_on_the_border_and_ends_on_the_origin():
    mask = BinaryMask(20, 10, np.ones((10, 20), dtype=bool))
    rays = [(Point(0.0, 5.0), 180.0),   # on the border, pointing out: None
            (Point(19.0, 9.0), 0.0),    # on the far corner, pointing out: None
            (Point(0.0, 0.0), 45.0),    # on a corner, into the image
            (Point(18.5, 4.0), 0.0),    # end 0.5 away, both round to x = 19
            (Point(18.6, 4.0), 0.0),    # end 0.4 away: None
            (Point(19.5, 4.0), 0.0),    # origin outside the pixel box: None
            (Point(10.0, 0.0), 90.0)]   # on the top border, down
    got = assert_walks_match(rays, mask)
    assert got == [None, None, Point(9.0, 9.0), Point(19.0, 4.0), None, None,
                   Point(10.0, 9.0)]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_line_support_ratios_match_per_piece(data):
    bits = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=12, max_size=12),
                                       min_size=9, max_size=9)))
    mask = BinaryMask(12, 9, bits)
    coord = st.floats(-3.0, 14.0) | st.integers(-2, 28).map(lambda k: k / 2)
    # the rescue pass's pieces are MIN_PIECE_LEN or longer: a != b
    pieces = data.draw(st.lists(st.tuples(st.builds(Point, coord, coord),
                                          st.builds(Point, coord, coord)).filter(
        lambda ab: ab[0] != ab[1]), max_size=5))
    want = [reference_line_support_ratio(a, b, mask) for a, b in pieces]
    rows = [(a.x, a.y, b.x, b.y) for a, b in pieces]
    assert line_support_ratios(rows, mask).tolist() == want


def test_recover_boundary_case():
    mask = BinaryMask(100, 100)
    origin = jn(2, 50, [180])
    segs = segments_of(recover_unmatched([origin], FIRST_RAY, mask, NO_SEGMENTS))
    assert segs == [Segment(Point(2.0, 50.0), Point(0.0, 50.0))]
    # the wireframe gains the far end as a derived order-1 junction
    wf = construct_wireframe([origin], HeatMap(100, 100, np.zeros((100, 100))))
    assert [j for j in wf.junctions if j.derived] == [
        Junction(Point(0.0, 50.0), (Branch(0.0, 1.0),), 1.0, derived=True)]


def test_recover_nothing_on_empty_mask():
    mask = BinaryMask(100, 100)
    origin = jn(50, 50, [0])
    assert recover_unmatched([origin], FIRST_RAY, mask, NO_SEGMENTS).shape == (0, 4)


def test_recover_kappa_accepts_sparse_support():
    # 7 of the 11 rasterized pixels set: kappa = 7/11 > 0.6
    mask = BinaryMask(20, 10)
    for x in (2, 3, 4, 6, 7, 9, 12):
        mask.bits[5, x] = True
    origin = jn(2, 5, [0])
    segs = segments_of(recover_unmatched([origin], FIRST_RAY, mask, NO_SEGMENTS))
    assert segs == [Segment(Point(2.0, 5.0), Point(12.0, 5.0))]
    assert line_support_ratios([(2.0, 5.0, 12.0, 5.0)], mask).tolist() == [7 / 11]


def test_recover_kappa_rejects_weak_support():
    mask = BinaryMask(20, 10)
    for x in (2, 5, 9, 12):  # 4 of 11 pixels
        mask.bits[5, x] = True
    origin = jn(2, 5, [0])
    segs = segments_of(recover_unmatched([origin], FIRST_RAY, mask, NO_SEGMENTS))
    assert segs == []


def test_recover_splits_at_existing_segment():
    # ray crosses a vertical segment at x=8; left piece fully supported,
    # right piece unsupported
    mask = BinaryMask(30, 11)
    mask.bits[5, 2:9] = True
    mask.bits[5, 20] = True  # q_M far right, gap in between
    origin = jn(2, 5, [0])
    wall = Segment(Point(8.0, 0.0), Point(8.0, 10.0))
    segs = segments_of(recover_unmatched([origin], FIRST_RAY, mask, segment_array([wall])))
    assert len(segs) == 1
    (s,) = segs
    assert (s.a.x, s.a.y) == (2.0, 5.0)
    assert s.b.x == pytest.approx(8.0) and s.b.y == pytest.approx(5.0)


def test_construct_empty():
    wf = construct_wireframe([], HeatMap(10, 10, np.zeros((10, 10))))
    assert wf.junctions == [] and wf.segments == []
    assert wf.incidence.shape == (0, 2)


def test_construct_single_pair():
    p1, p2 = jn(0, 0, [0]), jn(10, 0, [180])
    wf = construct_wireframe([p1, p2], HeatMap(20, 20, np.zeros((20, 20))))
    assert len(wf.junctions) == 2 and len(wf.segments) == 1
    assert wf.incidence.tolist() == [[0, 0], [1, 0]]


def test_construct_thresholds_inputs():
    weak = jn(0, 0, [0], conf=0.3)
    strong = jn(10, 0, [180], conf=0.9)
    wf = construct_wireframe([weak, strong], HeatMap(20, 20, np.zeros((20, 20))))
    assert len(wf.junctions) == 1 and wf.segments == []


@pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2], [2, 1, 0]])
def test_construct_drops_a_nan_confidence_like_a_weak_one(order):
    # NaN fails tau_c as a NaN branch confidence fails tau_b; kept, it would
    # win or lose NMS by input order alone
    hm, params = HeatMap(20, 20, np.zeros((20, 20))), ConstructionParams(rho_nms=2.0)
    js = [jn(0, 0, [0], float("nan")), jn(1, 0, [0], 0.8), jn(2, 0, [0], 0.9)]
    weak = [jn(0, 0, [0], 0.3)] + js[1:]
    got = construct_wireframe([js[k] for k in order], hm, params)
    assert repr(got) == repr(construct_wireframe([weak[k] for k in order], hm, params))
    assert [j.center for j in got.junctions] == [Point(2.0, 0.0)]


def test_construct_keeps_the_twin_junction_of_roundtrip_pool_scene_22():
    # a rescue cut a few ulps off a detected centre becomes a derived twin of
    # it (ROADMAP item 3): pinned here until that item removes it on purpose
    scene = make_scene(np.random.default_rng([320, 22]), 320, 320)
    wf = construct_wireframe(derive_junctions(scene), render_target_heatmap(scene),
                             ConstructionParams(omega=0.5))
    assert (len(wf.junctions), len(wf.segments)) == (83, 96)
    at = {j.center: j for j in wf.junctions}
    detected = at[Point(245.33676092544985, 120.22622107969153)]
    twin = at[Point(245.33676092544982, 120.22622107969153)]
    assert not detected.derived and twin.derived
    assert twin.branches == (Branch(167.9885216136346, 1.0), Branch(347.98852161363453, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_construct_refuses_a_non_finite_branch_angle(bad):
    # in encode's words: inf once raised math's raw ValueError, and NaN
    # reached the returned wireframe, which the writer then refused
    hm = HeatMap(20, 20, np.zeros((20, 20)))
    js = [jn(0, 0, [0]), Junction(Point(10.0, 0.0), (Branch(180.0), Branch(bad)), 1.0)]
    with pytest.raises(GeometryError, match=r"junction at \(10.0, 0.0\): non-finite branch angle"):
        construct_wireframe(js, hm)
    # a branch that tau_b drops is never used, and so never checked
    weak = [js[0], Junction(Point(10.0, 0.0), (Branch(180.0), Branch(bad, 0.2)), 1.0)]
    assert len(construct_wireframe(weak, hm).segments) == 1


def old_construct_junctions(junctions, wf, params):
    """Oracle: construct's junctions as the object builder made them.  The
    junctions tau_c and tau_b keep, rebuilt with their strong branches and
    NMS by the greedy loop; then, in (y, x) order, a derived point at each
    segment end that is no kept centre, with a branch (confidence 1) per
    distinct direction to the other end of a segment there."""
    kept = [Junction(j.center, bs, j.confidence) for j in junctions if j.confidence > params.tau_c
            and (bs := tuple(b for b in j.branches if b.confidence > params.tau_b))]
    kept = dedup_oracle(kept, params.rho_nms)
    centres, angles = {j.center for j in kept}, {}
    for s in wf.segments:
        for p, q in ((s.a, s.b), (s.b, s.a)):
            if p not in centres:
                angles.setdefault(p, set()).add(direction_deg(p, q))
    return kept + [Junction(p, tuple(Branch(a, 1.0) for a in sorted(angles[p])), 1.0, derived=True)
                   for p in sorted(angles, key=lambda p: (p.y, p.x))]


@pytest.mark.parametrize("key", [0, 1, 2, 3, 22])
def test_construct_junction_table_is_the_object_builders(key):
    scene = make_scene(np.random.default_rng([320, key]), 320, 320)
    params, js = ConstructionParams(omega=0.5), derive_junctions(scene)
    wf = construct_wireframe(js, render_target_heatmap(scene), params)
    assert any(j.derived for j in wf.junctions)
    assert repr(list(wf.junctions)) == repr(old_construct_junctions(list(js), wf, params))


def hexagon_scene(cx=16.0, cy=16.0, r=12.0, size=32):
    pts = [Point(cx + r * math.cos(math.radians(60 * i - 90)),
                 cy + r * math.sin(math.radians(60 * i - 90))) for i in range(6)]
    lines = tuple(Segment(pts[i], pts[(i + 1) % 6]) for i in range(6))
    return AnnotatedScene(size, size, lines)


def test_construct_roundtrip_hexagon():
    scene = hexagon_scene()
    js = derive_junctions(scene)
    hm = render_target_heatmap(scene)
    wf = construct_wireframe(js, hm, ConstructionParams(omega=0.5))
    assert len(wf.segments) == 6
    for s in scene.lines:
        best = min(
            max(s.a.distance_to(o.a), s.b.distance_to(o.b))
            if s.a.distance_to(o.a) < s.a.distance_to(o.b)
            else max(s.a.distance_to(o.b), s.b.distance_to(o.a))
            for o in wf.segments)
        assert best <= 2.0
    assert not any(j.derived for j in wf.junctions)


def test_construct_endpoints_in_p_and_incidence():
    scene = hexagon_scene()
    # drop one hexagon side so two vertices fall to order 1 and disappear,
    # leaving unmatched rays that the recovery pass must close
    scene = AnnotatedScene(scene.width, scene.height, scene.lines[:-1])
    js = derive_junctions(scene)
    hm = render_target_heatmap(scene)
    wf = construct_wireframe(js, hm, ConstructionParams(omega=0.5))
    centers = [j.center for j in wf.junctions]
    for s in wf.segments:
        for e in (s.a, s.b):
            assert min(e.distance_to(c) for c in centers) <= 1e-9
    assert np.array_equal(wf.incidence, build_incidence(
        point_array([j.center for j in wf.junctions]), segment_array(wf.segments), 1.0))
    assert any(j.derived for j in wf.junctions)
    for j in wf.junctions:
        if j.derived:
            assert j.order >= 1


def test_construct_deterministic():
    scene = hexagon_scene()
    js = derive_junctions(scene)
    hm = render_target_heatmap(scene)
    a = construct_wireframe(js, hm, ConstructionParams(omega=0.5))
    b = construct_wireframe(js, hm, ConstructionParams(omega=0.5))
    assert a.junctions == b.junctions and a.segments == b.segments
    assert np.array_equal(a.incidence, b.incidence)


def test_omega_monotone_recovery():
    # single unmatched ray over a row whose heat decays with x: raising
    # omega never yields more recovered segments
    heat = np.zeros((10, 40))
    heat[5, :30] = np.linspace(30, 1, 30)
    origin = jn(0, 5, [0])
    counts = []
    for omega in (0.5, 5.0, 15.0, 29.0):
        mask = binarize(HeatMap(40, 10, heat), omega)
        segs = recover_unmatched([origin], FIRST_RAY, mask, NO_SEGMENTS)
        counts.append(len(segs))
    assert counts == sorted(counts, reverse=True)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_kappa_in_unit_interval(data):
    bits = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=8, max_size=8),
                                       min_size=8, max_size=8)))
    mask = BinaryMask(8, 8, bits)
    x1 = data.draw(st.integers(0, 7))
    y1 = data.draw(st.integers(0, 7))
    x2 = data.draw(st.integers(0, 7))
    y2 = data.draw(st.integers(0, 7))
    if (x1, y1) == (x2, y2):
        return
    [k] = line_support_ratios([(float(x1), float(y1), float(x2), float(y2))], mask).tolist()
    assert 0.0 <= k <= 1.0


# -- the array prefilters against scalar all-pairs oracles --

def ray_keys(junctions):
    """Every ray as (junction, branch), in ray index order."""
    return [(i, k) for i, j in enumerate(junctions) for k in range(j.order)]


def all_rays(junctions):
    """Every ray's index."""
    return np.arange(len(ray_keys(junctions)))


def ray_at(junctions, ray):
    """Origin and normalized angle of a (junction, branch) ray."""
    i, k = ray
    return junctions[i].center, normalize_angle(junctions[i].branches[k].angle_deg)


def match_oracle(junctions, delta_ray):
    """match_ray_pairs as a plain loop over every ray and junction, on
    (junction, branch) rays, as [lower, higher] ray index rows."""
    choice, keys = {}, ray_keys(junctions)
    for r in keys:
        origin, angle = ray_at(junctions, r)
        best = None
        for j, target in enumerate(junctions):
            if j == r[0] or not _on_ray(origin, angle, target.center, delta_ray):
                continue
            d = origin.distance_to(target.center)
            for back in keys:
                if back[0] == j and _on_ray(*ray_at(junctions, back), origin, delta_ray):
                    cand = (d, *back)
                    if best is None or cand < best:
                        best = cand
        if best is not None:
            choice[r] = best[1:]
    return [[keys.index(t1), keys.index(t2)] for t1, t2 in choice.items()
            if t1 < t2 and choice.get(t2) == t1]


def dedup_oracle(junctions, rho_nms):
    kept = []
    for j in sorted(junctions, key=lambda j: (-j.confidence, j.center.y, j.center.x)):
        if all(j.center.distance_to(k.center) > rho_nms for k in kept):
            kept.append(j)
    return kept


small = st.integers(0, 8).map(float)
angles = (st.sampled_from([0.0, 12.0, 45.0, 90.0, 135.0, 168.0, 180.0, 192.0, 225.0,
                           270.0, 315.0, 348.0, 359.9999999])
          | st.floats(0.0, 360.0, exclude_max=True))
junction_sets = st.lists(
    st.builds(lambda x, y, a, c: jn(x, y, a, c), small, small,
              st.lists(angles, max_size=4), st.sampled_from([0.6, 0.8, 1.0])),
    max_size=10)
deltas = st.sampled_from([0.0, 12.0, 45.0]) | st.floats(0.0, 30.0)


@given(junction_sets, deltas)
@settings(max_examples=300, deadline=None)
@example([jn(0, 0, [12]), jn(10, 0, [180])], 12.0)  # exactly +delta
@example([jn(0, 0, [348]), jn(10, 0, [192])], 12.0)  # -delta, wrapping at 0/360
@example([jn(0, 0, [359.9999999]), jn(10, 0, [180])], 0.0)
@example([jn(5, 5, [0]), jn(5, 5, [180]), jn(9, 5, [180])], 12.0)  # coincident centers
@example([jn(0, 0, [0]), jn(4, 0, [0, 180]), jn(8, 0, [180])], 12.0)  # nearest wins
@example([jn(0, 0, [0]), jn(4, 3, [180]), jn(4, -3, [180])], 45.0)  # distance tie
@example([jn(3, 3, [])], 12.0)
@example([], 12.0)
# one ulp either side of +delta and of -delta, on the ray and on the one aiming back
@example([jn(0, 0, [math.nextafter(12.0, 13.0)]), jn(10, 0, [180])], 12.0)
@example([jn(0, 0, [math.nextafter(12.0, 11.0)]), jn(10, 0, [180])], 12.0)
@example([jn(0, 0, [math.nextafter(348.0, 347.0)]), jn(10, 0, [180])], 12.0)
@example([jn(0, 0, [math.nextafter(348.0, 349.0)]), jn(10, 0, [180])], 12.0)
@example([jn(0, 0, [0]), jn(10, 0, [math.nextafter(192.0, 193.0)])], 12.0)
@example([jn(0, 0, [0]), jn(10, 0, [math.nextafter(168.0, 167.0)])], 12.0)
# np.hypot ties the two candidates, math.hypot puts the second nearer
@example([jn(0, 0, [9]), jn(26.625, 4.25, [189]),
          jn(26.624999999999996, 4.250000000000002, [189])], 12.0)
def test_match_ray_pairs_matches_all_pairs_oracle(junctions, delta):
    assert_pairs_match_oracle(junctions, delta)


def assert_pairs_match_oracle(junctions, delta):
    got, want = match_ray_pairs(junctions, delta), match_oracle(junctions, delta)
    assert got.dtype == np.intp and got.shape == (len(want), 2)
    assert got.tolist() == want


def test_equal_array_distances_are_ordered_by_the_scalar_distance():
    near, far = (26.624999999999996, 4.250000000000002), (26.625, 4.25)
    assert np.hypot(*near) == np.hypot(*far) and math.hypot(*near) < math.hypot(*far)
    pairs = match_ray_pairs([jn(0, 0, [9]), jn(*far, [189]), jn(*near, [189])], 12.0)
    assert pairs.tolist() == [[0, 2]]  # one branch each: ray k is junction k


@given(junction_sets, deltas)
@settings(max_examples=100, deadline=None)
@example([jn(0, 0, [0, 90]), jn(4, 0, [0, 180]), jn(8, 0, [180]), jn(4, 4, [270])], 12.0)
def test_match_ray_pairs_in_blocks_of_a_few_pairs(junctions, delta):
    # blocks of one, two and three rows of the junction direction matrix
    width = max(sum(j.order for j in junctions), len(junctions), 1)
    for rows in (1, 2, 3):
        with mock.patch.object(construct, "_BLOCK_PAIRS", rows * width):
            assert_pairs_match_oracle(junctions, delta)


@given(junction_sets, st.sampled_from([0.0, 1.0, 2.0, 5.0]) | st.floats(0.0, 6.0))
@settings(max_examples=200, deadline=None)
@example([jn(5, 5, [0], 0.9), jn(5, 5, [90], 0.9)], 0.0)  # coincident centers
@example([jn(0, 0, [0]), jn(3, 4, [0], 0.8)], 5.0)  # exactly rho_nms apart
# a duplicated centre, and a junction exactly rho_nms from both copies
@example([jn(0, 0, [0], 0.8), jn(3, 4, [0], 0.9), jn(3, 4, [90], 0.9)], 5.0)
@example([], 2.0)
def test_dedup_matches_greedy_oracle(junctions, rho):
    assert dedup_junctions(junctions, rho) == dedup_oracle(junctions, rho)


def mask_of(lines, width, height):
    mask = BinaryMask(width, height)
    for s in lines:
        for x, y in segment_pixels(s, width, height):
            mask.bits[y, x] = True
    return mask


def reference_recover_unmatched(junctions, unmatched, mask, segments):
    """Oracle: the rescue pass one ray at a time, each walked by the scalar
    walk and cut against every pool segment by ``segment_intersection``, the
    pool growing as rays add segments (the per-ray loop the batched pass
    replaced, with an all-pairs cut search)."""
    limit, keys = BOUNDARY_FRAC * max(mask.width, mask.height), ray_keys(junctions)
    new_segments = []
    for ray in sorted(keys[r] for r in unmatched.tolist()):
        origin, angle = ray_at(junctions, ray)
        q_b = reference_ray_boundary_point(origin, angle, mask.width, mask.height)
        if q_b is not None and 0.0 < origin.distance_to(q_b) <= limit:
            new_segments.append(Segment(origin, q_b))
            continue
        q_m = reference_farthest_mask_point(origin, angle, mask, MAX_WALK_GAP)
        if q_m is None or origin.distance_to(q_m) < MIN_PIECE_LEN:
            continue
        whole = Segment(origin, q_m)
        cuts = []
        for other in [*segments, *new_segments]:
            hit = segment_intersection(whole, other).point
            if hit is not None and all(hit.distance_to(c) > 1e-6 for c in cuts):
                cuts.append(hit)
        cuts = [c for c in cuts if c.distance_to(origin) > 1e-9 and c.distance_to(q_m) > 1e-9]
        cuts.sort(key=lambda c: c.distance_to(origin))
        stops = [origin] + cuts + [q_m]
        pieces = [(a, b) for a, b in zip(stops, stops[1:])
                  if a.distance_to(b) >= MIN_PIECE_LEN]
        for a, b in pieces:
            if reference_line_support_ratio(a, b, mask) > KAPPA_MIN:
                new_segments.append(Segment(a, b))
    return new_segments


def assert_recover_matches(junctions, lines, pool):
    """recover_unmatched equals its oracle on a 24 x 24 mask of the lines,
    given every ray in reverse order (it takes them in ray index order)."""
    mask, rays = mask_of(lines, 24, 24), all_rays(junctions)[::-1]
    got = segments_of(recover_unmatched(junctions, rays, mask, segment_array(pool)))
    want = reference_recover_unmatched(junctions, rays, mask, pool)
    assert repr(got) == repr(want)  # repr: the same floats, signed zeros too
    return got


grid24 = st.integers(2, 21).map(float)
lines24 = st.tuples(grid24, grid24, grid24, grid24).filter(
    lambda q: q[:2] != q[2:]).map(lambda q: Segment(Point(q[0], q[1]), Point(q[2], q[3])))
# tiny offsets across a line: the parallel and collinear margins of the cut tests
hairs = st.sampled_from([0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1.6e-11, 1e-9, 5e-7, 1e-6, 0.5])
hairs = st.tuples(hairs, st.booleans()).map(lambda h: -h[0] if h[1] else h[0])


@st.composite
def rescue_cases(draw):
    """Junctions, mask lines and a pool: random, plus rays that start on a
    line's end and walk along it, junctions next to the border (boundary
    segments), and pool segments on a line's own line or a hair off it,
    touching, overlapping or apart."""
    lines = draw(st.lists(lines24, max_size=5))
    coord = grid24 | st.integers(0, 23).map(float) | st.sampled_from([0.5, 1.0, 22.5])
    junctions = draw(st.lists(st.builds(jn, coord, coord, st.lists(angles, min_size=1,
                                                                   max_size=3)), max_size=4))
    pool = draw(st.lists(lines24, max_size=3))
    for s in (draw(st.lists(st.sampled_from(lines), max_size=3)) if lines else []):
        a, b = (s.a, s.b) if draw(st.booleans()) else (s.b, s.a)
        junctions.insert(draw(st.integers(0, len(junctions))),
                         jn(a.x, a.y, [direction_deg(a, b)] + draw(st.lists(angles, max_size=1))))
    ts = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(-0.5, 1.5)
    for s in (draw(st.lists(st.sampled_from(lines), max_size=4)) if lines else []):
        dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
        n = math.hypot(dx, dy)
        c, d = [Point(s.a.x + t * dx - h * dy / n, s.a.y + t * dy + h * dx / n)
                for t, h in ((draw(ts), draw(hairs)), (draw(ts), draw(hairs)))]
        if c != d:
            pool.insert(draw(st.integers(0, len(pool))), Segment(c, d))
    return junctions, lines, pool


def margin_pool(delta):
    """Whole segment (2, 0)-(10, 0), and pool segments one step from each
    margin: tilted by delta through (5, 0) (t/u point or parallel overlap),
    a hair delta above the line touching the origin, collinear delta past
    the far end, each followed by a crossing within 1e-6 of the touch."""
    return [Segment(Point(5.0, 0.0), Point(6.0, delta)),
            Segment(Point(1.0, delta), Point(2.0, delta)),
            Segment(Point(2.0 + 5e-7, -1.0), Point(2.0 + 5e-7, 1.0)),
            Segment(Point(10.0 + delta, 0.0), Point(12.0, 0.0)),
            Segment(Point(10.0 - 5e-7, -1.0), Point(10.0 - 5e-7, 1.0))]


# one ulp either side of the margins on this whole segment (|r| = 8): the
# sure-parallel and crossing limits 5e-13 and 2e-12 of the tilt, the
# scalar's 1e-12, and the sure-off limit 1.6e-11 of the hair
MARGIN_DELTAS = [f(v) for v in (5e-13, 1e-12, 2e-12, 1.6e-11)
                 for f in (lambda v: math.nextafter(v, 0.0), lambda v: v,
                           lambda v: math.nextafter(v, 1.0))] + [0.0, 1e-9]


@given(rescue_cases())
@settings(deadline=None)  # 100 examples, 1,000 under the ci profile
@example(([jn(2, 5, [0])], [Segment(Point(2, 5), Point(14, 5))],
          [Segment(Point(8, 5), Point(8, 10))]))  # a cut that only touches an endpoint
@example(([jn(2, 5, [0])], [Segment(Point(2, 5), Point(14, 5))],
          [Segment(Point(4, 5), Point(9, 5))]))  # collinear overlap: no cut
# collinear, touching the origin, touching the far end, overlapping past it
@example(([jn(2, 5, [0])], [Segment(Point(2, 5), Point(14, 5))],
          [Segment(Point(0, 5), Point(2, 5)), Segment(Point(14, 5), Point(18, 5)),
           Segment(Point(10, 5), Point(20, 5))]))
# cuts on the origin, the far end, and two 1e-6 apart (kept) or a hair nearer (merged)
@example(([jn(2, 5, [0])], [Segment(Point(2, 5), Point(14, 5))],
          [Segment(Point(x, 0), Point(x, 10)) for x in
           (2.0, 14.0, 8.0, 8.0 + 1e-6, 6.0, math.nextafter(6.0 + 1e-6, 0.0))]))
@example(([jn(2, 5, [0])], [Segment(Point(2, 5), Point(14, 5))], []))
@example(([], [Segment(Point(2, 5), Point(14, 5))], []))
# a later cut from a boundary segment, and one from an earlier walk's piece
@example(([jn(10, 1, [270]), jn(5, 0.5, [0])], [Segment(Point(5, 1), Point(15, 1))], []))
@example(([jn(2, 5, [0]), jn(8, 2, [90])],
          [Segment(Point(2, 5), Point(14, 5)), Segment(Point(8, 2), Point(8, 12))], []))
def test_recover_cut_search_matches_all_pairs(case):
    assert_recover_matches(*case)


@pytest.mark.parametrize("delta", MARGIN_DELTAS)
def test_recover_at_the_cut_margins(delta):
    assert_recover_matches([jn(2, 0, [0])], [Segment(Point(2, 0), Point(10, 0))],
                           margin_pool(delta))


@given(rescue_cases(), st.sampled_from([1, 3, 7]))
@settings(max_examples=50, deadline=None)
@example(([jn(2, 5, [0]), jn(8, 2, [90]), jn(10, 1, [270]), jn(5, 0.5, [0])],
          [Segment(Point(2, 5), Point(14, 5)), Segment(Point(8, 2), Point(8, 12)),
           Segment(Point(5, 1), Point(15, 1))], [Segment(Point(4, 0), Point(4, 10))]), 1)
def test_recover_in_blocks_of_a_few_pairs(case, block):
    with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
        assert_recover_matches(*case)


def test_recover_later_cuts_within_1e6_keep_pool_order():
    # two earlier walks cross the last one 3.5e-7 apart: the first one's cut
    # is kept and the second merges into it, as in pool order
    segs = assert_recover_matches(
        [jn(8, 2, [90]), jn(8 + 5e-7, 2, [90]), jn(2, 5, [0])],
        [Segment(Point(8, 2), Point(8, 12)), Segment(Point(2, 5), Point(14, 5))], [])
    assert Segment(Point(2, 5), Point(8, 5)) in segs
    # a given segment comes before every later one: its cut 5e-7 away wins
    segs = assert_recover_matches(
        [jn(8, 2, [90]), jn(2, 5, [0])],
        [Segment(Point(8, 2), Point(8, 12)), Segment(Point(2, 5), Point(14, 5))],
        [Segment(Point(8 + 5e-7, 0), Point(8 + 5e-7, 10))])
    assert Segment(Point(2, 5), Point(8 + 5e-7, 5)) in segs


@st.composite
def near_cut_pairs(draw):
    """A segment and one nearly on its line, turned by a hair just past the
    scalar's parallel limit and a short gap past its end: the scalar's t
    and u then carry errors of up to a few hundredths of a pixel."""
    ax, ay = draw(st.floats(0, 960)), draw(st.floats(0, 960))
    ang, length, other = draw(st.floats(0, 2 * math.pi)), draw(st.floats(3, 400)), draw(
        st.floats(3, 400))
    turn = draw(st.sampled_from([1.01e-12, 1.5e-12, 2e-12, 1e-11, 1e-9, 0.3]))
    gap = draw(st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]))
    b = Point(ax + length * math.cos(ang), ay + length * math.sin(ang))
    c = Point(b.x + gap * math.cos(ang), b.y + gap * math.sin(ang))
    d = Point(c.x + other * math.cos(ang + turn), c.y + other * math.sin(ang + turn))
    return Segment(Point(ax, ay), b), Segment(c, d)


def assert_may_cut_covers(pairs, ts=(0.0, 0.3, 0.7, 1.0)):
    """may_cut lists every pair where segment_intersection gives a point
    for the first segment and a piece of the second (cut as the rescue
    pass cuts), or for the pieces of the first and the second."""
    p, q = [a for a, _ in pairs], [b for _, b in pairs]
    i, j = may_cut(segment_array(p), segment_array(q))
    listed = set(zip(i.tolist(), j.tolist()))
    for n, a in enumerate(p):
        for m, b in enumerate(q):
            stops = [Point(b.a.x + t * (b.b.x - b.a.x), b.a.y + t * (b.b.y - b.a.y)) for t in ts]
            pieces = [b] + [Segment(u, v) for u, v in zip(stops, stops[1:]) if u != v]
            if any(segment_intersection(a, piece).point is not None for piece in pieces):
                assert (n, m) in listed, (a, b)


@given(st.lists(near_cut_pairs() | st.tuples(lines24, lines24), max_size=6))
@settings(deadline=None)
# the scalar puts this point 0.066 px from the second segment, which it misses by 5e-4
@example([(Segment(Point(114.30972045896155, 456.4912113649966),
                   Point(368.7540863237916, 763.9183687525028)),
           Segment(Point(368.75443626287085, 763.9187915591782),
                   Point(508.28226661073165, 932.5004149509275)))])
# and this one puts its point on the first one's end, 0.043 px (1.3e-4 of the
# two lengths) short of the second
@example([(Segment(Point(282.0248210438178, 923.9370665243202),
                   Point(30.997814972867644, 720.5543537271903)),
           Segment(Point(30.96423921297871, 720.5271505619321),
                   Point(19.309874631386226, 711.0847550140354)))])
def test_may_cut_lists_every_pair_the_scalar_cuts(pairs):
    assert_may_cut_covers(pairs)
    assert_may_cut_covers([(b, a) for a, b in pairs])


def test_recover_cut_touching_pool_endpoint_splits():
    got = assert_recover_matches([jn(2, 5, [0])], [Segment(Point(2, 5), Point(14, 5))],
                                 [Segment(Point(8, 5), Point(8, 10))])
    assert got == [Segment(Point(2, 5), Point(8, 5)), Segment(Point(8, 5), Point(14, 5))]


def test_recover_later_cuts_from_a_boundary_segment_and_a_walked_piece():
    # the first ray ends on the border: its short segment cuts the second walk
    segs = assert_recover_matches([jn(10, 1, [270]), jn(5, 0.5, [0])],
                                     [Segment(Point(5, 1), Point(15, 1))], [])
    assert segs[0] == Segment(Point(10, 1), Point(10, 0))
    assert segs[1].b == Point(10.0, 0.75)
    # the first walk's piece cuts the second walk where they cross
    segs = assert_recover_matches([jn(2, 5, [0]), jn(8, 2, [90])],
                                     [Segment(Point(2, 5), Point(14, 5)),
                                      Segment(Point(8, 2), Point(8, 12))], [])
    assert segs == [Segment(Point(2, 5), Point(14, 5)), Segment(Point(8, 2), Point(8, 5)),
                    Segment(Point(8, 5), Point(8, 12))]


def test_recover_margin_cases_take_each_path():
    # up to the scalar's 1e-12 the tilt is parallel (an overlap, no cut) and
    # the hair touches the origin, so the crossing 5e-7 past it merges into
    # that touch; past 1e-12 the tilt cuts at (5, 0), and the piece before
    # it is too short.  Only a collinear pool segment that touches the far
    # end merges the crossing 5e-7 before it.
    for delta, ends in ((0.0, [(2.0, 10.0)]), (1e-12, [(2.0, 9.9999995)]),
                        (math.nextafter(1e-12, 1.0), [(5.0, 9.9999995)])):
        segs = assert_recover_matches([jn(2, 0, [0])], [Segment(Point(2, 0), Point(10, 0))],
                                         margin_pool(delta))
        assert [(s.a.x, s.b.x) for s in segs] == ends
