import math

import numpy as np
import pytest

from conftest import segment_pixels
from wireframe.annotate import render_target_heatmap
from wireframe.construct import BinaryMask, binarize
from wireframe.geometry import GeometryError, Point, Segment, point_segment_distance
from wireframe.hough import _BLOCK, HoughParams, _walk_dir, hough_segments
from wireframe.synth import make_scene


def draw(mask, seg):
    for x, y in segment_pixels(seg, mask.width, mask.height):
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
                {"theta_res": float("inf")}, {"max_gap": float("nan")},
                {"votes": True}, {"votes": 2.5}, {"votes": 30.0}, {"seed": -1},
                {"seed": 1.0}, {"seed": True}, {"seed": "0"}):
        with pytest.raises(GeometryError):
            HoughParams(**bad)
    assert HoughParams(seed=np.int64(3)).seed == 3
    assert HoughParams(votes=np.int64(3)).votes == 3


def reference_hough_segments(mask, params=HoughParams()):
    """The per-sample form: one scalar draw per visit, and each consumed
    pixel's accumulator bins recomputed and retracted one at a time."""
    ys, xs = np.nonzero(mask.bits)
    pool = list(zip(xs.tolist(), ys.tolist()))
    if not pool:
        return []
    alive = mask.bits.copy()
    voted = np.zeros_like(alive)
    n_theta = max(1, int(round(180.0 / params.theta_res)))
    thetas = np.arange(n_theta) * math.radians(params.theta_res)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    rho_off = int(math.ceil(math.hypot(mask.width, mask.height) / params.rho_res))
    acc = np.zeros((n_theta, 2 * rho_off + 1), dtype=np.int64)

    def rho_bins(x, y):
        return np.rint((x * cos_t + y * sin_t) / params.rho_res).astype(np.int64) + rho_off

    rng = np.random.default_rng(params.seed)
    segments = []
    theta_idx = np.arange(n_theta)
    while pool:
        j = int(rng.integers(len(pool)))
        x0, y0 = pool[j]
        pool[j] = pool[-1]
        pool.pop()
        if not alive[y0, x0]:
            continue
        bins = rho_bins(x0, y0)
        acc[theta_idx, bins] += 1
        voted[y0, x0] = True
        k = int(np.argmax(acc[theta_idx, bins]))
        if acc[k, bins[k]] < params.votes:
            continue
        dx, dy = -sin_t[k], cos_t[k]
        fwd = _walk_dir(alive, x0, y0, dx, dy, params.max_gap)
        bwd = _walk_dir(alive, x0, y0, -dx, -dy, params.max_gap)
        run = bwd[::-1] + [(x0, y0)] + fwd
        ex1, ex2 = run[0], run[-1]
        for x, y in run:
            alive[y, x] = False
            if voted[y, x]:
                acc[theta_idx, rho_bins(x, y)] -= 1
                voted[y, x] = False
        if math.hypot(ex2[0] - ex1[0], ex2[1] - ex1[1]) >= params.min_length:
            segments.append(seg(*ex1, *ex2))
    return segments


def random_mask(rng, width, height, n_lines, noise):
    mask = BinaryMask(width, height)
    for _ in range(n_lines):
        x1, x2 = rng.integers(0, width, size=2)
        y1, y2 = rng.integers(0, height, size=2)
        if (x1, y1) != (x2, y2):
            draw(mask, seg(x1, y1, x2, y2))
    mask.bits |= rng.random((height, width)) < noise
    return mask


@pytest.mark.parametrize("case", range(12))
def test_matches_per_sample_reference(case):
    rng = np.random.default_rng([11, case])
    width, height = (int(v) for v in rng.integers(20, 90, size=2))
    mask = random_mask(rng, width, height, int(rng.integers(0, 6)), [0.0, 0.01, 0.05][case % 3])
    for seed in (0, 1, 1000 + case):
        params = HoughParams(votes=int(rng.integers(3, 25)), min_length=8.0, seed=seed)
        assert hough_segments(mask, params) == reference_hough_segments(mask, params)


@pytest.mark.parametrize("params", [
    HoughParams(votes=1, min_length=1.0),
    HoughParams(votes=1, theta_res=7.0, min_length=5.0),  # 180/7: 26 bins
    HoughParams(votes=4, theta_res=0.7, min_length=5.0),
    HoughParams(votes=5, rho_res=0.5, min_length=5.0, seed=4),
    HoughParams(votes=5, rho_res=3.0, min_length=5.0, seed=9),
    HoughParams(votes=2, max_gap=0.0, min_length=3.0, seed=2),
])
def test_matches_reference_at_parameter_edges(params):
    rng = np.random.default_rng(21)
    for width, height, n_lines, noise in ((50, 40, 4, 0.02), (1, 30, 0, 0.5), (30, 1, 0, 0.5)):
        mask = random_mask(rng, width, height, n_lines, noise)
        assert hough_segments(mask, params) == reference_hough_segments(mask, params)


def visit_order(mask, seed):
    """The pixels in the order the per-sample reference visits them."""
    ys, xs = np.nonzero(mask.bits)
    pool = list(zip(xs.tolist(), ys.tolist()))
    rng = np.random.default_rng(seed)
    order = []
    while pool:
        j = int(rng.integers(len(pool)))
        order.append(pool[j])
        pool[j] = pool[-1]
        pool.pop()
    return order


def test_matches_reference_on_a_640_scene():
    # the first hough-640 benchmark pool scene, binarized as the benchmark does
    scene = make_scene(np.random.default_rng([640, 0]), 640, 640, 60)
    mask = binarize(render_target_heatmap(scene), 0.5)
    assert mask.bits.sum() > 100 * _BLOCK
    got = hough_segments(mask)
    assert got == reference_hough_segments(mask) and len(got) > 30


@pytest.mark.parametrize("votes", [1, 2, 30])
@pytest.mark.parametrize("case", range(2))
def test_matches_reference_over_many_blocks(votes, case):
    rng = np.random.default_rng([31, case])
    mask = random_mask(rng, 160, 120, 8, 0.03)
    assert mask.bits.sum() > 6 * _BLOCK
    for seed in (0, 5):
        params = HoughParams(votes=votes, min_length=6.0, seed=seed)
        assert hough_segments(mask, params) == reference_hough_segments(mask, params)


def test_tied_bins_on_the_trigger_pixel_take_the_first():
    # any two pixels of a short vertical line share theta bin 0 and bin 179,
    # so the second visit lifts both to votes=2 at once; bin 0 walks down the
    # line (a -> b by rising y), bin 179 would walk it up
    mask = BinaryMask(20, 20)
    mask.bits[5:10, 10] = True
    thetas = np.radians([0.0, 179.0])
    for y in range(5, 10):
        assert np.array_equal(np.rint(10 * np.cos(thetas) + y * np.sin(thetas)), [10, -10])
    for seed in range(4):
        params = HoughParams(votes=2, min_length=1.0, seed=seed)
        got = hough_segments(mask, params)
        assert got == reference_hough_segments(mask, params) == [seg(10, 5, 10, 9)]


def test_run_consumes_later_pixels_of_its_block():
    # votes=2: the first two visits trigger, and when both lie on the long
    # row their run eats the row's later visits in the same block, whose
    # votes must be taken back; the noise keeps voting afterwards
    rng = np.random.default_rng(41)
    mask = BinaryMask(300, 8)
    mask.bits[2, :200] = True
    mask.bits |= rng.random((8, 300)) < 0.05
    row = {(x, 2) for x in range(200)}
    checked = 0
    for seed in range(20):
        order = visit_order(mask, seed)
        if not (order[0] in row and order[1] in row
                and sum(p in row for p in order[2:_BLOCK]) > 10):
            continue
        params = HoughParams(votes=2, min_length=5.0, seed=seed)
        got = hough_segments(mask, params)
        assert got == reference_hough_segments(mask, params)
        assert got[0].length >= 199.0  # the row, maybe with noise past its end
        checked += 1
    assert checked >= 3


def test_blocks_of_dead_draws():
    # the first run eats a 3000 px row, so later stretches of two blocks'
    # worth of visits are all dead; the short row still has to be found
    mask = BinaryMask(3000, 30)
    mask.bits[5, :] = True
    mask.bits[25, 100:125] = True
    checked = 0
    for seed in range(6):
        order = visit_order(mask, seed)
        dead = np.array([y == 5 for _, y in order])
        window = np.convolve(dead[2:], np.ones(2 * _BLOCK, dtype=int), "valid")
        if not (dead[0] and dead[1] and window.max() == 2 * _BLOCK):
            continue
        params = HoughParams(votes=2, min_length=5.0, seed=seed)
        got = hough_segments(mask, params)
        assert got == reference_hough_segments(mask, params)
        assert endpoint_error(got[0], seg(0, 5, 2999, 5)) == 0.0
        assert min(endpoint_error(g, seg(100, 25, 124, 25)) for g in got[1:]) == 0.0
        checked += 1
    assert checked >= 3


def test_one_pixel_and_empty_match_reference():
    mask = BinaryMask(9, 7)
    assert hough_segments(mask) == reference_hough_segments(mask) == []
    mask.bits[3, 4] = True
    for params in (HoughParams(), HoughParams(votes=1), HoughParams(votes=1, min_length=1.0)):
        assert hough_segments(mask, params) == reference_hough_segments(mask, params)


def test_zero_min_length_skips_one_pixel_runs():
    # a run of one pixel has no direction: it is consumed but not emitted
    mask = BinaryMask(40, 40)
    mask.bits[3, 4] = True
    mask.bits[5:31, 10] = True  # theta bin 0 wins every tie: a vertical walk
    (got,) = hough_segments(mask, HoughParams(votes=1, min_length=0.0))
    assert endpoint_error(got, seg(10, 5, 10, 30)) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("n", [1, 2, 17, 1000, 40_000])
def test_batched_draws_match_scalar_draws(seed, n):
    # hough_segments draws its whole visiting order in one call; this pins
    # that stream to the one-draw-per-visit loop it replaces
    batched = np.random.default_rng(seed).integers(np.arange(n, 0, -1)).tolist()
    scalar_rng = np.random.default_rng(seed)
    assert batched == [int(scalar_rng.integers(k)) for k in range(n, 0, -1)]


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
        px = segment_pixels(g, 150, 150)
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
