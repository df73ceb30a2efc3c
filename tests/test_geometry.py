import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wireframe import geometry

from wireframe.geometry import (
    Branch,
    GeometryError,
    Junction,
    Point,
    Segment,
    angle_diff,
    angle_offsets,
    box_pairs,
    branch_table,
    build_incidence,
    direction_deg,
    directions,
    intersection_points,
    may_cut,
    near_lists,
    near_pairs,
    normalize_angle,
    normalize_angles,
    point_array,
    point_distances,
    point_segment_distance,
    point_segment_distances,
    segment_array,
    segment_intersection,
    surely_within,
    within,
)

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def pt(x, y):
    return Point(float(x), float(y))


def seg(x1, y1, x2, y2):
    return Segment(pt(x1, y1), pt(x2, y2))


def test_segment_length_345():
    assert seg(0, 0, 3, 4).length == 5.0


def test_segment_length_unit():
    assert seg(0, 0, 1, 0).length == 1.0


def test_degenerate_segment_rejected():
    with pytest.raises(GeometryError):
        seg(2, 2, 2, 2)


def test_nonfinite_point_rejected():
    with pytest.raises(GeometryError):
        Point(float("nan"), 0.0)
    with pytest.raises(GeometryError):
        Point(0.0, float("inf"))


def test_intersection_x_crossing():
    r = segment_intersection(seg(0, 0, 10, 10), seg(0, 10, 10, 0))
    assert r.point is not None and not r.collinear
    assert r.point.x == pytest.approx(5.0) and r.point.y == pytest.approx(5.0)


def test_intersection_parallel_absent():
    r = segment_intersection(seg(0, 0, 1, 0), seg(0, 1, 1, 1))
    assert r.point is None and not r.collinear


def test_intersection_t_shape():
    r = segment_intersection(seg(0, 0, 4, 0), seg(2, -2, 2, 2))
    assert r.point == pt(2, 0)


def test_intersection_disjoint():
    r = segment_intersection(seg(0, 0, 1, 1), seg(5, 5, 6, 5))
    assert r.point is None and not r.collinear


def test_intersection_collinear_overlap_flagged():
    r = segment_intersection(seg(0, 0, 4, 0), seg(2, 0, 6, 0))
    assert r.point is None and r.collinear


def test_intersection_collinear_endpoint_touch():
    # Positive-length overlap is what the flag means; a single shared point is
    # still a point intersection.
    r = segment_intersection(seg(0, 0, 2, 0), seg(2, 0, 4, 0))
    assert r.point == pt(2, 0) and not r.collinear


def test_intersection_far_scales():
    # in units of the longer side, nothing squares: an overlap stays collinear
    for s1, s2 in [(seg(0, 0, 1e155, 0), seg(1e147, 0, 2e147, 0)),
                   (seg(0, 0, 1e-155, 0), seg(1e-163, 0, 2e-163, 0))]:
        assert segment_intersection(s1, s2) == segment_intersection(s2, s1) == (None, True)
    r = segment_intersection(seg(0, 0, 1e160, 0), seg(1e160, 0, 2e160, 0))
    assert r.point == pt(1e160, 0) and not r.collinear
    # where |r| |s| overflows, the test runs in coordinates scaled by a power of two
    s1, s2 = seg(-1e308, 0, 1e308, 0), seg(0, -1, 0, 1)  # rx overflows too
    assert segment_intersection(s1, s2) == segment_intersection(s2, s1) == (pt(0, 0), False)
    s1 = seg(0, 0, 1.75e153, 1e155)  # and a parallel copy 1e152 off its line
    s2 = seg(1.85e153, 1e155 - 1.75e150, 3.6e153, 2e155 - 1.75e150)
    assert segment_intersection(s1, s2) == segment_intersection(s2, s1) == (None, False)
    s1, s2 = seg(-1.5e308, -1.5e308, 1.5e308, 1.5e308), seg(-1.5e308, 1.5e308, 1e308, -1e308)
    assert segment_intersection(s1, s2) == segment_intersection(s2, s1) == (pt(0, 0), False)


def test_intersection_shared_endpoint():
    r = segment_intersection(seg(0, 0, 2, 2), seg(2, 2, 4, 0))
    assert r.point == pt(2, 2)


segments = st.tuples(
    st.builds(Point, coords, coords),
    st.builds(Point, coords, coords),
).filter(lambda ab: ab[0] != ab[1]).map(lambda ab: Segment(*ab))


@given(segments, segments)
# a t or u inside the 1e-12 slack: the point along the other segment, not a + clip(t) r
@example(seg(0, 0, 0, -1364), Segment(pt(0, 1.363978983913057e-09), pt(1, 0)))
@example(seg(0, 0, 0, 1), Segment(pt(1e-9, 0), pt(1001, -1001)))
@example(seg(0, 0, 1119, -8763), Segment(pt(0, 1e-9), pt(-55, 376)))
# both t and u inside the slack: two ends 9e-9 apart, one canonical choice
@example(Segment(pt(0, -9e-9), pt(0, -1e4 - 9e-9)), Segment(pt(-1e4 - 9e-9, 0), pt(-9e-9, 0)))
# |r|^2 overflowed and reported this overlap as a point
@example(seg(0, 0, 1e155, 0), seg(1e147, 0, 2e147, 0))
# without the swap to the longer segment: collinear one way, a touch the other
@example(Segment(pt(0, 0), pt(3e-69, 3e-69)), seg(1, 1, 0, 0))
@example(seg(0, 0, 1e160, 0), seg(1e160, 0, 2e160, 0))  # touching, |r|^2 past the largest float
# |r| |s| overflowed and made every pair parallel: collinear, and a touch
@example(seg(-1e308, 0, 1e308, 0), seg(0, -1, 0, 1))
@example(seg(0, 0, 1.75e153, 1e155), seg(1.85e153, 1e155 - 1.75e150, 3.6e153, 2e155 - 1.75e150))
def test_intersection_symmetric(s1, s2):
    r12 = segment_intersection(s1, s2)
    r21 = segment_intersection(s2, s1)
    assert r12.collinear == r21.collinear
    assert (r12.point is None) == (r21.point is None)
    if r12.point is not None:
        assert abs(r12.point.x - r21.point.x) <= 1e-9 * max(1.0, abs(r12.point.x))
        assert abs(r12.point.y - r21.point.y) <= 1e-9 * max(1.0, abs(r12.point.y))


@given(segments, segments)
def test_intersection_point_on_both(s1, s2):
    r = segment_intersection(s1, s2)
    if r.point is None:
        return
    for s in (s1, s2):
        span = max(1.0, s.length)
        assert point_segment_distance(r.point, s) <= 1e-9 * span * 100


def test_point_segment_distance_basic():
    s = seg(0, 0, 10, 0)
    assert point_segment_distance(pt(5, 3), s) == 3.0
    assert point_segment_distance(pt(-4, 3), s) == 5.0
    assert point_segment_distance(pt(7, 0), s) == 0.0


def incidence(junctions, segments, tol):
    """build_incidence on the junctions' centre rows and the segment rows."""
    return build_incidence(point_array([j.center for j in junctions]), segment_array(segments),
                           tol)


def test_build_incidence_examples():
    diag = seg(0, 0, 10, 10)
    w = incidence([Junction(pt(0, 5)), Junction(pt(5, 5))], [diag, diag], tol=0.5)
    assert w.tolist() == [[1, 0], [1, 1]]
    w = incidence([Junction(pt(0, 5))], [diag], tol=0.5)
    assert w.tolist() == []
    w = incidence([], [], tol=0.5)
    assert w.shape == (0, 2) and w.dtype == np.int64


def test_build_incidence_negative_tol_rejected():
    with pytest.raises(GeometryError):
        incidence([], [], tol=-1.0)


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=5),
       st.floats(0, 10), st.floats(0, 10))
def test_incidence_monotone_in_tol(centers, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    junctions = [Junction(pt(x, y)) for x, y in centers]
    segs = [seg(0, 0, 100, 0), seg(0, 0, 0, 100)]
    rows = {tuple(r) for r in incidence(junctions, segs, hi).tolist()}
    assert {tuple(r) for r in incidence(junctions, segs, lo).tolist()} <= rows


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(360.0) == 0.0
    assert normalize_angle(-90.0) == 270.0
    assert normalize_angle(725.0) == pytest.approx(5.0)


@given(st.floats(-1e6, 1e6))
def test_normalize_angle_range(theta):
    a = normalize_angle(theta)
    assert 0.0 <= a < 360.0


def test_branch_table_width_zero_drops_exact_repeats_only():
    # centre 0: 90, 0, 0 again; centre 1: 0, and 1e-9 rad (5.7e-8 degrees) off it
    centers, owner = np.array([[0.0, 0.0], [10.0, 10.0]]), np.array([1, 0, 0, 0, 1])
    dxy = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1e-9]])
    t = branch_table(centers, owner, dxy, 0.0)
    assert t.offsets.tolist() == [0, 2, 4]
    assert t.angles.tolist() == [0.0, 90.0, 0.0, direction_deg(pt(0, 0), pt(1.0, 1e-9))]
    assert t.centers.tolist() == centers.tolist() and t.confidence.tolist() == [1.0, 1.0]
    assert not t.derived.any() and t.branch_conf.tolist() == [1.0] * 4
    wide = branch_table(centers, owner, dxy, 1e-6)  # the near-repeat goes too
    assert wide.offsets.tolist() == [0, 2, 3] and wide.angles.tolist() == [0.0, 90.0, 0.0]


def reference_normalize_angle(theta_deg):
    """normalize_angle before its lift became a %, kept verbatim."""
    a = math.fmod(theta_deg, 360.0)
    if a < 0.0:
        a += 360.0
    if a >= 360.0:  # fmod can land exactly on 360.0 after the correction
        a = 0.0
    return a


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
# signed zeros, the lift landing on 360 (tiny negatives), multiples of 360
# and far values
@example([0.0, -0.0, -1e-20, -5e-324, math.nextafter(-360.0, 0.0), -360.0, 360.0, 720.0,
          -719.9999999999999, 1e300, -1e300, 359.99999999999994])
def test_normalize_angles_match_the_scalar_bit_for_bit(thetas):
    want = [reference_normalize_angle(t) for t in thetas]
    got = normalize_angles(np.array(thetas, dtype=np.float64))
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    for t, w in zip(thetas, want):
        s = normalize_angle(t)
        assert s == w and math.copysign(1.0, s) == math.copysign(1.0, w)
        assert type(normalize_angles(t)) is np.float64 and normalize_angles(t) == w


@given(st.floats(-720, 720), st.floats(-720, 720))
def test_angle_diff_range(a, b):
    d = angle_diff(a, b)
    assert -180.0 <= d < 180.0
    # same angle mod 360 as the raw difference
    assert math.fmod(d - (a - b), 360.0) == pytest.approx(0.0, abs=1e-6) or \
        abs(abs(math.fmod(d - (a - b), 360.0)) - 360.0) <= 1e-6


def test_direction_deg_screen_clockwise():
    # y grows downward, so "down" is 90 degrees
    assert direction_deg(pt(0, 0), pt(1, 0)) == 0.0
    assert direction_deg(pt(0, 0), pt(0, 1)) == 90.0
    assert direction_deg(pt(0, 0), pt(-1, 0)) == 180.0
    assert direction_deg(pt(0, 0), pt(0, -1)) == 270.0
    assert direction_deg(pt(0, 0), pt(1, 1)) == 45.0


def test_junction_order():
    j = Junction(pt(1, 1), (Branch(0.0), Branch(90.0), Branch(180.0)))
    assert j.order == 3


def test_build_incidence_nonfinite_tol_rejected():
    for tol in (float("nan"), float("inf")):
        with pytest.raises(GeometryError):
            incidence([], [], tol=tol)


# -- array prefilters against the scalar functions --
# Small grid coordinates (with halves) make exact ties, shared endpoints and
# collinear overlaps common.

grid = st.integers(0, 12).map(float) | st.integers(0, 24).map(lambda v: v / 2)
grid_points = st.builds(pt, grid, grid)
grid_segments = st.tuples(grid, grid, grid, grid).filter(
    lambda q: q[:2] != q[2:]).map(lambda q: seg(*q))
tols = st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, math.sqrt(2.0)]) | st.floats(0.0, 8.0)


def incidence_oracle(junctions, segments, tol):
    """The all-pairs loop's (n, m) rows, row-major."""
    return [[n, m] for n, j in enumerate(junctions) for m, s in enumerate(segments)
            if point_segment_distance(j.center, s) <= tol]


@given(st.lists(grid_points, max_size=8), st.lists(grid_segments, max_size=8), tols)
@settings(max_examples=200, deadline=None)
@example([pt(3, 4)], [seg(0, 0, 0, 10)], 3.0)  # exactly tol from the interior
@example([pt(3, 4)], [seg(0, 0, -6, 0)], 5.0)  # exactly tol from an endpoint
@example([pt(6, 8)], [seg(0, 0, 6, 8)], 0.0)  # on an endpoint, zero tol
@example([pt(1, 1), pt(1, 1)], [seg(0, 0, 2, 2), seg(2, 2, 0, 0)], 0.0)
@example([pt(0, 0), pt(1e-170, 0), pt(1, 0)], [seg(0, 0, 1e-170, 0)], 0.0)  # length^2 underflows
@example([], [seg(0, 0, 1, 1)], 1.0)
@example([pt(1, 1)], [], 1.0)
@example([], [], 1.0)
# zero-width boxes: exactly tol, and one ulp beyond, off a vertical and a
# horizontal segment, beside the interior and beyond an end
@example([pt(2, 5), pt(math.nextafter(2.0, 3.0), 5), pt(0, 12),
          pt(0, math.nextafter(12.0, 13.0))], [seg(0, 0, 0, 10)], 2.0)
@example([pt(5, -1), pt(5, math.nextafter(-1.0, -2.0)), pt(-1, 0),
          pt(math.nextafter(-1.0, -2.0), 0)], [seg(0, 0, 10, 0)], 1.0)
@example([pt(0.5, 0.5), pt(3, 3), pt(-3, 4)], [seg(0, 0, 10, 0), seg(0, 0, 0, 10)], 0.0)
# a + (b - a) rounds past b by an ulp of a: the closest point leaves the box
@example([pt(9943.698715776205, 0)], [seg(230770222.9625077, 0, 9944.19871578422, 0)], 0.5)
def test_build_incidence_matches_all_pairs_oracle(points, segments, tol):
    assert_incidence_matches_oracle(points, segments, tol)


def assert_incidence_matches_oracle(points, segments, tol):
    junctions = [Junction(p) for p in points]
    w = incidence(junctions, segments, tol)
    assert w.dtype == np.int64 and w.ndim == 2 and w.shape[1] == 2
    assert w.tolist() == incidence_oracle(junctions, segments, tol)


@given(st.lists(grid_points, max_size=8), st.lists(grid_segments, max_size=8), tols)
@settings(max_examples=100, deadline=None)
@example([pt(3, 4), pt(1, 1), pt(9, 9)], [seg(0, 0, 0, 10), seg(0, 0, 10, 10)], 3.0)
def test_build_incidence_in_blocks_of_a_few_pairs(points, segments, tol):
    for block in (1, 3, 7):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            assert_incidence_matches_oracle(points, segments, tol)


far = st.sampled_from([1e6, 1e9, -3e11, 2.0 ** 40])


@given(far, st.lists(grid_points, max_size=6), st.lists(grid_segments, max_size=6), tols)
@settings(max_examples=150, deadline=None)
@example(1e9, [pt(3, 4)], [seg(0, 0, 0, 10)], 3.0)
@example(1e9, [pt(6.5, 4.5)], [seg(0, 0, 6, 8)], 0.5)
def test_build_incidence_far_from_the_origin(base, points, segments, tol):
    # coordinate ulps far above the absolute slack: the box pad scales with them
    moved = [pt(p.x + base, p.y - base) for p in points]
    assert_incidence_matches_oracle(moved, [seg(s.a.x + base, s.a.y - base, s.b.x + base,
                                                 s.b.y - base) for s in segments], tol)


@given(st.lists(grid_segments, max_size=6), st.lists(grid_segments, max_size=6))
@settings(max_examples=300, deadline=None)
@example([seg(0, 0, 2, 0)], [seg(2, 0, 4, 0)])  # collinear, touching at an endpoint
@example([seg(0, 0, 4, 0)], [seg(2, 0, 6, 0)])  # collinear overlap
@example([seg(0, 0, 4, 0)], [seg(4, 0, 4, 3)])  # a cut that only touches an end
@example([seg(0, 0, 4, 0)], [seg(2, -2, 2, 0)])  # T on the interior
@example([seg(0, 0, 4, 4)], [seg(4, 4, 0, 0)])  # the same segment reversed
@example([], [seg(0, 0, 1, 1)])
@example([seg(0, 0, 1, 1)], [])
def test_intersection_prefilter_covers_scalar(s1, s2):
    # may_cut lists every pair the scalar gives a point for, in row-major order
    i, j = may_cut(segment_array(s1), segment_array(s2))
    listed = list(zip(i.tolist(), j.tolist()))
    assert listed == sorted(set(listed))
    for i, a in enumerate(s1):
        for j, b in enumerate(s2):
            if segment_intersection(a, b).point is not None:
                assert (i, j) in listed, (a, b)


@given(segments, segments)
def test_intersection_prefilter_covers_scalar_wide(s1, s2):
    if segment_intersection(s1, s2).point is not None:
        assert len(may_cut(segment_array([s1]), segment_array([s2]))[0]) == 1


@pytest.mark.parametrize("s1, s2", [
    # every cross product overflows to inf, and inf - inf gives NaN
    (seg(0, 0, 1e160, 0), seg(1e160, -1e160, 1e160, 1e160)),
    # only q's start off p's line overflows (to inf, so inf - denom is inf);
    # parallel, 1e152 apart: the scalar gives no point
    (seg(0, 0, 1.75e153, 1e155), seg(1.85e153, 1e155 - 1.75e150, 3.6e153, 2e155 - 1.75e150)),
    # the length overflows, and so the share that pads the box
    (seg(-1e308, 0, 1e308, 0), seg(0, -1, 0, 1)),
])
def test_may_cut_overflow_keeps_the_pair_quietly(s1, s2):
    # an overflow in the cut test never puts a pair apart, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i, j = may_cut(segment_array([s1]), segment_array([s2]))
    assert (i.tolist(), j.tolist()) == ([0], [0])


def assert_points_match_scalar(pairs):
    """Where intersection_points settles a pair, it is the scalar's point
    (or None) to the bit; returns which pairs it settled."""
    sure, xy = intersection_points(segment_array([a for a, _ in pairs]),
                                   segment_array([b for _, b in pairs]))
    for (a, b), ok, (x, y) in zip(pairs, sure.tolist(), xy.tolist()):
        if ok:
            assert repr(None if x != x else Point(x, y)) == repr(segment_intersection(a, b).point)
    return sure.tolist()


hair = st.sampled_from([0.0, 1e-300, 1e-13, 5e-13, 1e-12, 2e-12, 1e-9, 4e-9, 1e-6, 0.5])


@st.composite
def near_line_pairs(draw):
    """A grid segment and one on its line, or a hair off or turned from it:
    collinear, touching, overlapping and apart pairs, both lengths longer."""
    a = draw(grid_segments)
    dx, dy = a.b.x - a.a.x, a.b.y - a.a.y
    n = math.hypot(dx, dy)
    ts = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]) | st.floats(-2.0, 3.0)
    ends = [(draw(ts), draw(hair) * draw(st.sampled_from([-1.0, 1.0]))) for _ in range(2)]
    c, d = [pt(a.a.x + t * dx - h * dy / n, a.a.y + t * dy + h * dx / n) for t, h in ends]
    return (a, Segment(c, d)) if c != d else (a, a)


def unit_margin_pairs():
    """(0, 0)-(1, 0) against segments one ulp either side of each margin of
    intersection_points: a turn through (0.25, 0) at the sure-parallel,
    scalar and crossing limits 5e-13, 1e-12 and 2e-12 of sin; a hair above
    the line touching its end at the scalar and sure-off limits 1e-12 and
    2e-12; collinear segments touching its end, or apart or overlapping it
    by 0 or about the 4e-9 margin."""
    unit = seg(0, 0, 1, 0)
    steps = [lambda v: math.nextafter(v, -1.0), lambda v: v, lambda v: math.nextafter(v, 2.0)]
    return ([(unit, seg(0.25, 0, 1.25, f(v))) for v in (5e-13, 1e-12, 2e-12) for f in steps]
            + [(unit, seg(1, f(v), 2, f(v))) for v in (1e-12, 2e-12) for f in steps]
            + [(unit, seg(f(v), 0, 2, 0)) for v in (1.0, 1.0 + 4e-9, 1.0 - 4e-9) for f in steps])


@given(st.lists(near_line_pairs() | st.tuples(grid_segments, grid_segments)
                | st.tuples(segments, segments), max_size=8))
@settings(max_examples=300, deadline=None)
@example(unit_margin_pairs())
@example([(seg(0, 0, 4, 0), seg(2, 0, 6, 0)), (seg(0, 0, 2, 0), seg(2, 0, 4, 0)),
          (seg(0, 0, 1, 0), seg(5, 0, 20, 0)), (seg(0, 0, 20, 0), seg(5, 0, 1, 0)),
          (seg(0, 0, 4, 4), seg(0, 4, 4, 0)), (seg(0, 0, 1, 1), seg(0, 1, 1, 2))])
# an overlap where |r|^2 overflows; and where |r| |s| does, the scalar's parallel test
# takes every pair: here, 0.06 degrees apart, it reports s2.a as a touch
@example([(seg(0, 0, 1e155, 0), seg(1e147, 0, 2e147, 0)),
          (seg(0, 0, 1e10, 1e7), seg(1e10, 1e300, 1e300, 1e300))])
# only t needs the clamp: the point is on s2; both need it: the end first by (y, x)
@example([(seg(0, 0, 0, -1364), Segment(pt(0, 1.363978983913057e-09), pt(1, 0))),
          (Segment(pt(0, -9e-9), pt(0, -1e4 - 9e-9)), Segment(pt(-1e4 - 9e-9, 0), pt(-9e-9, 0))),
          (Segment(pt(-1e4 - 9e-9, 0), pt(-9e-9, 0)), Segment(pt(0, -9e-9), pt(0, -1e4 - 9e-9)))])
def test_intersection_points_match_scalar(pairs):
    assert_points_match_scalar(pairs)


def test_intersection_points_settle_all_but_the_touching_pairs():
    pairs = [(seg(0, 0, 4, 4), seg(0, 4, 4, 0)),  # a crossing
             (seg(0, 0, 4, 0), seg(4, 0, 4, 3)),  # touching an end, not parallel
             (seg(0, 0, 4, 0), seg(2, 0, 6, 0)),  # collinear overlap
             (seg(0, 0, 4, 0), seg(5, 0, 9, 0)),  # collinear, apart
             (seg(0, 0, 4, 0), seg(9, 0, 5, 0)),  # the same, reversed
             (seg(0, 0, 4, 0), seg(0, 1, 4, 1)),  # parallel, off the line
             (seg(0, 0, 1, 0), seg(1, 0, 20, 0)),  # collinear, touching an end
             (seg(0, 0, 1, 0), seg(0.25, 0, 1.25, 1e-12))]  # at the scalar's parallel limit
    assert assert_points_match_scalar(pairs) == [True] * 6 + [False] * 2
    assert assert_points_match_scalar(unit_margin_pairs()) == (
        [True] + [False] * 7 + [True]  # the turn: sure parallel, or sure crossing
        + [False] * 5 + [True]  # the hair: sure off the line
        + [False] * 3 + [False, True, True] + [True, False, False])  # apart, overlapping


@given(grid_points, grid_points,
       st.sampled_from([0.0, 12.0, 45.0, 90.0, 168.0, 180.0, 192.0, 348.0, 359.0])
       | st.floats(0.0, 360.0, exclude_max=True),
       st.sampled_from([0.0, 12.0, 45.0]) | st.floats(0.0, 30.0))
@settings(max_examples=300)
@example(pt(0, 0), pt(10, 0), 12.0, 12.0)  # exactly +delta
@example(pt(0, 0), pt(10, 0), 348.0, 12.0)  # exactly -delta, across 0/360
@example(pt(0, 0), pt(10, 0), 359.9999999, 0.0)  # just below 360
@example(pt(10, 0), pt(0, 0), 192.0, 12.0)
@example(pt(0, 0), pt(0, -10), 270.0, 0.0)
def test_ray_prefilter_covers_scalar(origin, target, angle, delta):
    if origin == target:
        return
    # within: a superset of the scalar test; surely_within: a subset of it
    off = angle_offsets(directions(point_array([origin])[0], point_array([target])[0]), angle)
    on = abs(angle_diff(direction_deg(origin, target), angle)) <= delta
    assert within(off, delta, geometry._ANGLE_SLACK) or not on
    assert on or not surely_within(off, delta, geometry._ANGLE_SLACK)


def reference_pairs(test, rows, cols):
    """The all-pairs loop that box_pairs replaced: pairs (i, j) in row-major
    order where test(rows[i], cols[j]) holds, in blocks of whole rows."""
    out_i, out_j = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    if len(cols):
        step = max(1, geometry._BLOCK_PAIRS // len(cols))
        for lo in range(0, len(rows), step):
            i, j = np.nonzero(test(rows[lo:lo + step, None], cols[None]))
            out_i.append(i + lo)
            out_j.append(j)
    return np.concatenate(out_i), np.concatenate(out_j)


def overlap(a, b):
    return ((a[..., 0] <= b[..., 2]) & (b[..., 0] <= a[..., 2])
            & (a[..., 1] <= b[..., 3]) & (b[..., 1] <= a[..., 3]))


def assert_box_pairs_match_oracle(a, b):
    a, b = (np.array(side, dtype=np.float64).reshape(-1, 4) for side in (a, b))
    want = reference_pairs(overlap, a, b)
    for block in (1, 3, 7, geometry._BLOCK_PAIRS):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            got = box_pairs(a, b)
        assert [g.tolist() for g in got] == [w.tolist() for w in want], block


box_coords = (grid | st.sampled_from([-1e150, -3.0, -0.0, 1e150])
              | st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False))
boxes = (st.tuples(box_coords, box_coords, box_coords, box_coords).map(
    lambda q: (min(q[0], q[2]), min(q[1], q[3]), max(q[0], q[2]), max(q[1], q[3])))
    | st.tuples(box_coords, box_coords).map(lambda q: q + q))  # a point


@given(st.lists(boxes, max_size=10), st.lists(boxes, max_size=10))
@settings(max_examples=300, deadline=None)
@example([], [(0, 0, 1, 1)])  # an empty side
@example([(0, 0, 1, 1)], [])
@example([], [])
# equal x0: b starts inside a, and a does not start strictly after b
@example([(0, 0, 2, 2), (1, 0, 1, 3)], [(0, 1, 3, 3), (1, 2, 4, 4), (1, 5, 1, 6)])
# boxes touching at a closed edge or corner, and one an ulp apart
@example([(0, 0, 1, 1)], [(1, 1, 2, 2), (1, 0, 2, 1), (-1, 1, 0, 3), (0, -2, 1, 0),
                          (math.nextafter(1.0, 2.0), 0, 2, 1)])
# degenerate point boxes: on each other, on an edge and inside
@example([(1, 1, 1, 1), (2, 2, 2, 2)], [(1, 1, 1, 1), (0, 1, 2, 1), (0, 0, 3, 3)])
# duplicate coordinates on both sides
@example([(0, 0, 2, 2)] * 3 + [(2, 2, 2, 2)] * 2, [(2, 0, 4, 2)] * 3 + [(0, 0, 2, 2)] * 2)
# negative coordinates and +-1e150
@example([(-1e150, -1e150, 1e150, 1e150), (-5, -3, -1, -2), (1e150, 1e150, 1e150, 1e150)],
         [(-3, -2.5, -2, -2.5), (-1e150, 0, -1e150, 0), (1e150, -1, 1e150, 1e150),
          (-2e150, -1e150, -1e150, -1e150)])
def test_box_pairs_match_the_all_pairs_loop(a, b):
    assert_box_pairs_match_oracle(a, b)
    assert_box_pairs_match_oracle(b, a)


def test_box_pairs_memory_stays_bounded():
    # 2,000 points on one vertical line against 2,000 full-width boxes thin
    # in y: all 4M pairs overlap in x, so the candidates are expanded in blocks
    ys = np.arange(2000.0)
    points = np.column_stack([np.full(2000, 500.0), ys, np.full(2000, 500.0), ys])
    thin = np.column_stack([np.zeros(2000), ys + 0.5, np.full(2000, 1000.0), ys + 1.25])
    want = reference_pairs(overlap, points, thin)
    assert len(want[0]) == 1999
    tracemalloc.start()
    try:
        got = box_pairs(points, thin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    assert peak < 64 << 20, peak
    for block in (1, 3, 7):  # blocks of a few pairs give the same pairs
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            got = box_pairs(points[:60], thin[:60])
        assert [g.tolist() for g in got] == [w.tolist() for w in reference_pairs(
            overlap, points[:60], thin[:60])]


def assert_near_lists_match_oracle(points, others, limit):
    assert near_lists(point_array(points), point_array(others), limit) == [
        [j for j, q in enumerate(others) if p.distance_to(q) <= limit] for p in points]


@given(st.lists(grid_points, max_size=8), st.lists(grid_points, max_size=8), tols)
@settings(max_examples=200, deadline=None)
@example([pt(0, 0), pt(3, 4)], [pt(3, 4), pt(6, 8), pt(0, 0)], 5.0)
@example([pt(3, 4)], [pt(0, 0), pt(math.nextafter(3.0, 4.0), 4)], 3.0)
@example([pt(1, 1), pt(1, 1)], [pt(1, 1)], 0.0)
# one ulp under the distance: the prefilter proposes the pair, the scalar drops it
@example([pt(3, 4)], [pt(0, 0)], math.nextafter(5.0, 0.0))
@example([], [pt(1, 1)], 1.0)
@example([pt(1, 1)], [], 1.0)
# far from the origin: the box pad scales with the coordinates' ulps
@example([pt(1e150, -1e150), pt(-3, 4)],
         [pt(1e150 + 2e134, -1e150), pt(0, 0), pt(-1e150, 1e150)], 5.0)
def test_near_lists_matches_all_pairs_oracle(points, others, limit):
    # the lists of a[i]: every j whose scalar value is within limit, in order
    assert_near_lists_match_oracle(points, others, limit)


@given(st.lists(grid_points, max_size=8), st.lists(grid_points, max_size=8), tols)
@settings(max_examples=100, deadline=None)
@example([pt(0, 0), pt(1, 1), pt(2, 2)], [pt(0, 0), pt(1, 1)], 1.0)
def test_near_lists_in_blocks_of_a_few_pairs(points, others, limit):
    for block in (1, 3, 7):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            assert_near_lists_match_oracle(points, others, limit)


def assert_near_pairs_match_oracle(points, others, limit):
    """near_pairs of the points and the other points or segments (as (M, 2)
    and (M, 4) arrays; empty, both) is the all-pairs loop's, in blocks of a
    few pairs too."""
    for to_array, scalar in ((point_array, Point.distance_to),
                             (segment_array, point_segment_distance)):
        if others and isinstance(others[0], Segment) != (to_array is segment_array):
            continue
        want = [(i, j) for i, p in enumerate(points) for j, q in enumerate(others)
                if scalar(p, q) <= limit]
        for block in (1, 3, 7, geometry._BLOCK_PAIRS):
            with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
                i, j = near_pairs(point_array(points), to_array(others), limit)
            assert list(zip(i.tolist(), j.tolist())) == want


@given(st.lists(grid_points, max_size=8),
       st.lists(grid_points, max_size=8) | st.lists(grid_segments, max_size=8), tols)
@settings(max_examples=300, deadline=None)
@example([pt(0, 0), pt(3, 4)], [seg(0, 5, 10, 5)], 5.0)
@example([pt(0, 0), pt(3, 4)], [pt(3, 4), pt(6, 8), pt(0, 0)], 5.0)
@example([pt(3, 4)], [seg(0, 0, 0, 10)], 3.0)
@example([pt(1, 1), pt(1, 1)], [seg(1, 1, 2, 2)], 0.0)
@example([pt(1, 1), pt(1, 1)], [pt(1, 1)], 0.0)
# one ulp under the distance: the prefilter proposes the pair, the scalar drops it
@example([pt(3, 4)], [seg(0, 0, 0, 10)], math.nextafter(3.0, 0.0))
@example([pt(3, 4)], [pt(0, 0)], math.nextafter(5.0, 0.0))
@example([], [seg(0, 0, 1, 1)], 1.0)
@example([pt(1, 1)], [], 1.0)
# far from the origin: the box pad scales with the coordinates' ulps
@example([pt(1e150, -1e150), pt(-3, 4)],
         [pt(1e150 + 2e134, -1e150), pt(0, 0), pt(-1e150, 1e150)], 5.0)
@example([pt(1e150, -1e150), pt(-3, 4)],
         [seg(1e150 + 2e134, -1e150, 1e150 + 4e134, -1e150), seg(0, 0, 0, 10),
          seg(-1e150, 1e150, 1e150, -1e150)], 5.0)
# where squares under- or overflow: 1e-170 is not within 0, 1e155 is within
# 1e160, and the segment of +-1e155 is 1 from (0, 1)
@example([pt(0, 0)], [pt(1e-170, 0)], 0.0)
@example([pt(0, 0)], [pt(1e155, 0)], 1e160)
@example([pt(0, 1)], [seg(-1e155, 0, 1e155, 0)], 2.0)
def test_near_pairs_match_all_pairs_oracle(points, others, limit):
    assert_near_pairs_match_oracle(points, others, limit)


@given(st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6), st.integers(-170, 155))
@settings(max_examples=300, deadline=None)
# np.hypot gives 165.65726100898806 here, math.hypot 165.6572610089881
@example([112.875, -121.25, 0.0, 0.0, 1.0, 0.0], 0)
def test_array_distances_are_the_scalar_bit_for_bit(v, e):
    # differences scaled from 1e-170 to 1e155: their squares under- and overflow
    p, a, b = (pt(x * 10.0 ** e, y * 10.0 ** e) for x, y in zip(v[::2], v[1::2]))
    d = p.distance_to(a)
    assert repr(point_distances(point_array([p]), point_array([a])).tolist()) == repr([d])
    assert math.isclose(d, math.hypot(p.x - a.x, p.y - a.y), rel_tol=1e-15, abs_tol=1e-322)
    if a != b:
        s = Segment(a, b)
        want = repr([point_segment_distance(p, s)])
        assert repr(point_segment_distances(point_array([p]), segment_array([s])).tolist()) == want


def test_distances_where_squares_under_or_overflow():
    origin = point_array([pt(0, 0)])
    assert pt(0, 0).distance_to(pt(1e-170, 0)) == 1e-170
    assert near_pairs(origin, point_array([pt(1e-170, 0)]), 0.0)[0].tolist() == []
    assert pt(0, 0).distance_to(pt(1e155, 0)) == 1e155
    assert near_pairs(origin, point_array([pt(1e155, 0)]), 1e160)[0].tolist() == [0]
    line = seg(-1e155, 0, 1e155, 0)
    assert point_segment_distance(pt(0, 1), line) == 1.0  # not NaN from its squared length
    assert near_pairs(point_array([pt(0, 1)]), segment_array([line]), 2.0)[0].tolist() == [0]
