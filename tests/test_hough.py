import math

import numpy as np
import pytest

from wireframe.annotate import rasterize_segment
from wireframe.construct import BinaryMask
from wireframe.geometry import GeometryError, Point, Segment, point_segment_distance
from wireframe.hough import HoughParams, hough_segments


def draw(mask, seg):
    for x, y in rasterize_segment(seg, mask.width, mask.height):
        mask.bits[y, x] = True


def seg(x1, y1, x2, y2):
    return Segment(Point(float(x1), float(y1)), Point(float(x2), float(y2)))


def endpoint_error(got, want):
    d1 = max(got.a.distance_to(want.a), got.b.distance_to(want.b))
    d2 = max(got.a.distance_to(want.b), got.b.distance_to(want.a))
    return min(d1, d2)


def test_params_validation():
    with pytest.raises(GeometryError):
        HoughParams(rho_res=0.0)
    with pytest.raises(GeometryError):
        HoughParams(votes=0)
    for bad in ({"rho_res": float("nan")}, {"votes": float("nan")},
                {"theta_res": float("inf")}, {"max_gap": float("nan")}):
        with pytest.raises(GeometryError):
            HoughParams(**bad)


def test_empty_mask():
    assert hough_segments(BinaryMask(50, 50)) == []


def test_single_row():
    mask = BinaryMask(100, 100)
    mask.bits[10, :] = True
    got = hough_segments(mask)
    assert len(got) == 1
    assert endpoint_error(got[0], seg(0, 10, 99, 10)) <= 2.0


def test_three_separated_segments():
    mask = BinaryMask(200, 200)
    wanted = [seg(10, 20, 150, 20), seg(30, 60, 30, 190), seg(60, 80, 160, 180)]
    for s in wanted:
        draw(mask, s)
    got = hough_segments(mask)
    assert len(got) == 3
    for w in wanted:
        assert min(endpoint_error(g, w) for g in got) <= 3.0


def test_deterministic():
    mask = BinaryMask(120, 120)
    for s in (seg(5, 5, 110, 5), seg(50, 10, 50, 110), seg(10, 100, 100, 20)):
        draw(mask, s)
    a = hough_segments(mask, HoughParams(seed=7))
    b = hough_segments(mask, HoughParams(seed=7))
    assert a == b


def test_no_short_output():
    mask = BinaryMask(100, 100)
    draw(mask, seg(10, 10, 22, 10))  # 12 px < default min_length 20
    for s in hough_segments(mask):
        assert s.length >= 20.0
    assert hough_segments(mask) == []


def test_outputs_supported_by_mask():
    rng = np.random.default_rng(3)
    mask = BinaryMask(150, 150)
    wanted = [seg(10, 30, 140, 40), seg(100, 10, 110, 140)]
    for s in wanted:
        draw(mask, s)
    original = [seg(*map(float, (s.a.x, s.a.y, s.b.x, s.b.y))) for s in wanted]
    for g in hough_segments(mask):
        px = rasterize_segment(g, 150, 150)
        near = sum(
            1 for x, y in px
            if min(point_segment_distance(Point(float(x), float(y)), s)
                   for s in original) <= 2.0)
        assert near / len(px) >= 0.9


def test_gap_bridging():
    mask = BinaryMask(100, 100)
    draw(mask, seg(5, 50, 90, 50))
    mask.bits[50, 40:42] = False  # 2 px hole, max_gap 3 bridges it
    got = hough_segments(mask)
    assert len(got) == 1
    assert endpoint_error(got[0], seg(5, 50, 90, 50)) <= 2.0
