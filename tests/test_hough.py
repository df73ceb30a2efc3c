import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import segment_pixels
from wireframe.annotate import render_target_heatmap
from wireframe.construct import BinaryMask, binarize
from wireframe.geometry import GeometryError, Point, Segment, point_segment_distance
from wireframe.hough import _BLOCK, MAX_CELLS, HoughParams, _walk_dir, hough_segments
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


@pytest.mark.parametrize("width, height, params", [
    (64, 64, HoughParams(rho_res=1e-7)), (64, 64, HoughParams(theta_res=1e-6)),
    (64, 64, HoughParams(rho_res=1e-300)), (64, 64, HoughParams(rho_res=5e-324)),
    (64, 64, HoughParams(theta_res=5e-324)),
    # the accumulator fits; the x cos / y sin tables or a block's cells do not
    (64, 64, HoughParams(theta_res=1e-4, rho_res=10.0)), (2, 2, HoughParams(theta_res=6e-5)),
])
def test_hough_arrays_past_the_cell_limit_are_rejected(width, height, params):
    # the first five once ended in a MemoryError (2.37 TiB) or a numpy
    # ValueError; the last two would ask for over 1 GB of tables or cells
    mask = BinaryMask(width, height)
    mask.bits[height // 2, : width // 2 + 1] = True
    with pytest.raises(GeometryError, match="MAX_CELLS"):
        hough_segments(mask, params)


@pytest.mark.parametrize("width, height, rho_res, rows", [
    (64, 64, 1.0, 183),  # diagonal 90.5: 183 rho bins
    (64, 64, 10.0, 128),  # 21 rho bins, but the tables take 64 + 64 rows
    (3, 4, 1.0, _BLOCK),  # diagonal 5: 11 rho bins, 7 table rows
    (0, 0, 1.0, _BLOCK),
])
def test_hough_arrays_at_the_cell_limit_are_allowed(width, height, rho_res, rows):
    # the widest array takes the limit exactly; an empty mask allocates nothing
    n_theta = MAX_CELLS // rows
    mask = BinaryMask(width, height)
    assert hough_segments(mask, HoughParams(rho_res=rho_res, theta_res=180 / n_theta)) == []
    with pytest.raises(GeometryError):
        hough_segments(mask, HoughParams(rho_res=rho_res, theta_res=180 / (n_theta + 1)))


def reference_walk_dir(alive, x0, y0, dx, dy, max_gap):
    """Follow one direction of the line from (x0, y0) over alive pixels.

    Steps along the dominant axis; at each step the expected pixel and its
    two lateral neighbors are probed, and a hit re-centers the walk, which
    tolerates the accumulator's angle quantization.  A y-major direction is
    the same walk over the transposed mask.
    """
    if abs(dx) < abs(dy):
        return [(x, y) for y, x in reference_walk_dir(alive.T, y0, x0, dy, dx, max_gap)]
    h, w = alive.shape
    hits = []
    sx = 1 if dx > 0 else -1
    slope = dy / dx * sx
    x, yf = x0, float(y0)
    gap = 0
    while True:
        x += sx
        yf += slope
        if not 0 <= x < w:
            break
        y = int(math.floor(yf + 0.5))
        found = None
        for yy in (y, y - 1, y + 1):
            if 0 <= yy < h and alive[yy, x]:
                found = yy
                break
        if found is None:
            gap += 1
            if gap > max_gap:
                break
            continue
        gap = 0
        yf = float(found)
        hits.append((x, found))
    return hits


def bin_direction(theta_res, k):
    """The walk direction of theta bin k (mod the bin count), as hough_segments forms it."""
    thetas = np.arange(max(1, int(round(180.0 / theta_res)))) * math.radians(theta_res)
    k %= len(thetas)
    return float(-np.sin(thetas)[k]), float(np.cos(thetas)[k])


# the walk slope of bin 1 is -0.5 - 1 ulp, -0.5, -0.5 + 1 ulp, 0.5 + 1 ulp and
# 0.5 - 2 ulps (dy / dx along the major axis)
HALF_SLOPE_THETA_RES = [26.565051177077986, 26.56505117707799, 26.565051177077994,
                        63.434948822922, 63.43494882292202]
EXACT_DIRECTIONS = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0), (0.6, -0.6),
                    (1.0, 0.0), (0.0, -1.0), (2.0, 1.0), (-1.0, 2.0),
                    (1.0, math.nextafter(0.5, 0.0)), (1.0, math.nextafter(0.5, 1.0)),
                    (1.0, 0.5 - 2.0 ** -53), (-1.0, math.nextafter(-0.5, 0.0)),
                    (math.nextafter(-0.5, -1.0), -1.0)]
unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))  # 0 and 1: the border


@st.composite
def walk_masks(draw):
    w, h = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return rng.random((h, w)) < draw(st.sampled_from([0.3, 0.7, 0.9, 1.0]))


@given(mask=walk_masks(), start=st.tuples(unit, unit),
       direction=st.one_of(
           st.sampled_from(EXACT_DIRECTIONS),
           st.builds(bin_direction, st.sampled_from(HALF_SLOPE_THETA_RES), st.integers(0, 8)),
           st.builds(bin_direction, st.floats(0.5, 45.0), st.integers(0, 400))),
       max_gap=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0]), st.floats(0.0, 6.0)))
@settings(max_examples=300, deadline=None)
@example(mask=np.ones((9, 9), bool), start=(0.0, 0.0), direction=(1.0, 1.0), max_gap=0.0)
@example(mask=np.ones((9, 9), bool), start=(1.0, 0.0), direction=(-1.0, 1.0), max_gap=0.0)
@example(mask=np.eye(12, dtype=bool)[::-1], start=(0.0, 1.0), direction=(1.0, -1.0), max_gap=0.0)
@example(mask=np.ones((7, 20), bool), start=(0.0, 0.5), direction=(1.0, 0.5 - 2.0 ** -53),
         max_gap=0.0)
@example(mask=np.ones((20, 7), bool), start=(0.5, 1.0),
         direction=bin_direction(HALF_SLOPE_THETA_RES[0], 1), max_gap=1.0)
@example(mask=np.ones((7, 20), bool), start=(1.0, 0.5),
         direction=bin_direction(HALF_SLOPE_THETA_RES[1], 1), max_gap=0.5)
@example(mask=np.tile([True, False, False, True], (5, 5)), start=(0.0, 0.0),
         direction=(1.0, 0.0), max_gap=1.5)  # gaps of two: bridged only from 2
@example(mask=np.tile([True, False, False, True], (5, 5)), start=(0.0, 0.0),
         direction=(1.0, 0.0), max_gap=2.0)
@example(mask=np.ones((1, 15), bool), start=(0.5, 0.0), direction=(1.0, 0.0), max_gap=0.0)
@example(mask=np.ones((15, 1), bool), start=(0.0, 1.0), direction=(0.0, -1.0), max_gap=0.0)
def test_walk_matches_reference_walk(mask, start, direction, max_gap):
    h, w = mask.shape
    x0, y0 = min(int(start[0] * w), w - 1), min(int(start[1] * h), h - 1)
    dx, dy = direction
    got = _walk_dir(memoryview(mask.ravel()), w, h, y0 * w + x0, dx, dy, max_gap)
    assert [divmod(p, w)[::-1] for p in got] == reference_walk_dir(mask, x0, y0, dx, dy, max_gap)


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
        fwd = reference_walk_dir(alive, x0, y0, dx, dy, params.max_gap)
        bwd = reference_walk_dir(alive, x0, y0, -dx, -dy, params.max_gap)
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
    HoughParams(votes=2, theta_res=HALF_SLOPE_THETA_RES[0], max_gap=0.5, min_length=3.0),
    HoughParams(votes=3, theta_res=HALF_SLOPE_THETA_RES[3], max_gap=1.5, min_length=3.0),
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


def first_block_counts(order, params):
    """Counts of each cell of the first _BLOCK visits, by theta bin: (at, end),
    at[i] just after visit i's own vote and end[i] with the whole block cast.
    No pixel dies before the first run, so these visits are the first block."""
    xy = np.array(order[:_BLOCK], dtype=float)
    n_theta = max(1, int(round(180.0 / params.theta_res)))
    thetas = np.arange(n_theta) * math.radians(params.theta_res)
    bins = np.rint((xy[:, :1] * np.cos(thetas) + xy[:, 1:] * np.sin(thetas)) / params.rho_res)
    same = bins[:, None] == bins[None]  # [i, j, t]: visits i and j share theta bin t's cell
    return np.cumsum(same, axis=1)[np.arange(len(xy)), np.arange(len(xy))], same.sum(axis=1)


def reference_runs(mask, params):
    """The per-sample reference's segments and, per trigger, its pixel and run."""
    walk, calls = reference_walk_dir, []

    def recording_walk(alive, x0, y0, dx, dy, max_gap):
        globals()["reference_walk_dir"] = walk  # the y-major walk calls it again
        try:
            calls.append(((x0, y0), walk(alive, x0, y0, dx, dy, max_gap)))
        finally:
            globals()["reference_walk_dir"] = recording_walk
        return calls[-1][1]
    globals()["reference_walk_dir"] = recording_walk
    try:
        segments = reference_hough_segments(mask, params)
    finally:
        globals()["reference_walk_dir"] = walk
    return segments, [(p, {p, *fwd, *bwd}) for (p, fwd), (_, bwd) in zip(calls[::2], calls[1::2])]


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
    # votes, cast with the block, must be retracted; the noise keeps voting
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


def test_dead_stretches_longer_than_many_scan_windows():
    # the first run eats a 4000 px row, and the 12 px left are far apart in
    # the visiting order: the scan for a block's live visits has to grow its
    # window several times over between them
    mask = BinaryMask(4000, 6)
    mask.bits[1, :] = True
    mask.bits[4, 100:112] = True
    checked = 0
    for seed in range(8):
        order = visit_order(mask, seed)
        live = np.flatnonzero([y == 4 for _, y in order])
        if not (order[0][1] == order[1][1] == 1 and np.diff(live).max() > 16 * _BLOCK):
            continue
        params = HoughParams(votes=2, min_length=5.0, seed=seed)
        got = hough_segments(mask, params)
        assert got == reference_hough_segments(mask, params)
        assert endpoint_error(got[0], seg(0, 1, 3999, 1)) == 0.0
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("noise, tail_on_row", [(4, "all"), (80, "some")])
def test_carried_tail_consumed_whole_or_in_part(noise, tail_on_row):
    # votes=2 and the first two visits on the row: the second one triggers,
    # and the rest of the first block is still to come; the run eats those
    # on the row, and the next trigger is searched among the others
    rng = np.random.default_rng(51)
    mask = BinaryMask(300, 9)
    mask.bits[4, :] = True
    ys, xs = rng.integers(0, 9, noise), rng.integers(0, 300, noise)
    mask.bits[ys[np.abs(ys - 4) > 1], xs[np.abs(ys - 4) > 1]] = True
    checked = 0
    for seed in range(40):
        order = visit_order(mask, seed)
        on_row = [y == 4 for _, y in order[:_BLOCK]]
        if not (on_row[0] and on_row[1]) or (all(on_row) != (tail_on_row == "all")) \
                or not any(on_row[2:]):
            continue
        params = HoughParams(votes=2, min_length=5.0, seed=seed)
        got = hough_segments(mask, params)
        assert got == reference_hough_segments(mask, params)
        assert endpoint_error(got[0], seg(0, 4, 299, 4)) == 0.0
        checked += 1
    assert checked >= 3


def test_direction_is_the_one_at_the_trigger_vote():
    # a later voter of the trigger's own block lifts another of the trigger
    # pixel's cells to the trigger cell's count at a lower theta bin ("to"),
    # or past it ("past"); the walk still takes the bin that won at the vote
    mask = random_mask(np.random.default_rng(73), 40, 30, 2, 0.1)
    kinds = []
    for seed in range(12):
        params = HoughParams(votes=4, min_length=3.0, seed=seed)
        at, end = first_block_counts(visit_order(mask, seed), params)
        r = np.flatnonzero(at.max(axis=1) >= params.votes)[0]  # the first trigger
        if at[r].argmax() != (k_end := end[r].argmax()):
            kinds.append("past" if end[r, k_end] > params.votes else "to")
            assert hough_segments(mask, params) == reference_hough_segments(mask, params)
    assert kinds.count("to") >= 2 and kinds.count("past") >= 3


def test_second_cell_at_votes_later_in_the_block():
    # votes=3: the row's cells reach 3 at its third visit, and the cells of
    # the column x = 8 (one row pixel and the two pixels below it) at the
    # last of its three.  When that comes after the first trigger, either the
    # first run eats the column's row pixel and its retraction drops the
    # column back below votes ("dropped"), or a second run starts in the same
    # block ("triggers"); the mask is smaller than a block, so it is cast once
    mask = BinaryMask(30, 30)
    mask.bits[5, 5:13] = True
    mask.bits[[20, 25], 8] = True
    kinds = []
    for seed in range(12):
        params = HoughParams(votes=3, min_length=3.0, seed=seed)
        order = visit_order(mask, seed)
        at, _ = first_block_counts(order, params)
        r = np.flatnonzero(at.max(axis=1) >= params.votes)[0]
        later = [order[i] for i in range(r + 1, len(order)) if (at[i] == params.votes).any()]
        segments, runs = reference_runs(mask, params)
        if len(runs) > 1 and later:
            kinds.append("triggers")
        elif any(p not in runs[0][1] for p in later):
            kinds.append("dropped")
        assert hough_segments(mask, params) == segments
    assert kinds.count("dropped") >= 3 and kinds.count("triggers") >= 3


@pytest.mark.parametrize("votes", [1, 2, 5])
@pytest.mark.parametrize("shape", [(1, 300), (300, 1), (1, 7), (7, 1)])
def test_one_pixel_wide_masks_match_reference(shape, votes):
    rng = np.random.default_rng([61, *shape])
    for density in (1.0, 0.6, 0.1):
        mask = BinaryMask(shape[1], shape[0], rng.random(shape) < density)
        for seed in (0, 3):
            params = HoughParams(votes=votes, min_length=2.0, seed=seed)
            assert hough_segments(mask, params) == reference_hough_segments(mask, params)


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
