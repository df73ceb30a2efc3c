import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

from conftest import segment_pixels
from wireframe.evaluate import (
    EvalConfig,
    PRCurve,
    PRPoint,
    _near_count,
    emit_pr_csv,
    emit_pr_svg,
    junction_pr,
    junction_sweep,
    line_pixel_pr,
    max_matching,
    pool_pr,
    read_pr_csv,
    sweep_pr,
)
from wireframe.geometry import (Branch, GeometryError, Junction, Point, Segment, near_lists,
                                point_array)

CFG = EvalConfig()


def match(gt, q, tol):
    """Maximum one-to-one matching within tol of two lists of Points, as
    junction_pr matches centres."""
    return max_matching(near_lists(point_array(gt), point_array(q), tol), len(q))


def pt(x, y):
    return Point(float(x), float(y))


def jn(x, y, conf=1.0):
    return Junction(pt(x, y), (Branch(0.0),), conf)


def seg(x1, y1, x2, y2):
    return Segment(pt(x1, y1), pt(x2, y2))


def optimum(gt, q, tol):
    """Oracle: a maximum-weight assignment on the 0/1 within-tol matrix."""
    w = np.array([[float(g.distance_to(p) <= tol) for p in q] for g in gt])
    w = w.reshape(len(gt), len(q))
    rows, cols = linear_sum_assignment(w, maximize=True)
    return int(w[rows, cols].sum())


def test_config_validation():
    with pytest.raises(GeometryError):
        EvalConfig(tolerance_frac=0.0)
    with pytest.raises(GeometryError):
        EvalConfig(sweep=(0.3, 0.2))
    assert CFG.tolerance(100, 100) == pytest.approx(math.hypot(100, 100) / 100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_sweep_value(bad):
    # NaN fails every >= of the increasing check; emit_pr_csv would write a
    # row that read_pr_csv refuses
    for sweep in ((0.9, bad, 0.1), (bad,), (0.1, 0.5, bad)):
        with pytest.raises(GeometryError, match="finite"):
            EvalConfig(sweep=sweep)


@pytest.mark.parametrize("width, height", [(math.inf, 100), (100, math.nan), (100.0, 100),
                                           (100, 99.5), (True, 100), (-1, 100)])
def test_pr_functions_refuse_a_side_that_is_no_integer(width, height):
    # an infinite side made the tolerance infinite (P = R = 1 for any
    # prediction), a NaN one matched nothing, a float one hit numpy's TypeError
    js, segments = [jn(5, 5)], [seg(10, 10, 90, 10)]
    for run in (lambda: junction_pr(js, js, CFG, width, height),
                lambda: junction_sweep(js, js, CFG, width, height),
                lambda: line_pixel_pr(segments, segments, CFG, width, height)):
        with pytest.raises(GeometryError, match=r"image sides .* must be integers >= 0"):
            run()


def test_match_identical():
    assert match([pt(3, 3)], [pt(3, 3)], 1.0) == 1


def test_match_too_far():
    tol = CFG.tolerance(100, 100)
    assert match([pt(0, 0)], [pt(100, 100)], tol) == 0


def test_match_one_to_one():
    gt = [pt(0, 0), pt(2, 0)]
    q = [pt(1, 0)]
    assert match(gt, q, 1.5) == 1


def test_max_matching_beats_bad_greedy_case():
    # greedy takes (0,0)-(0.5,0) first and strands the second gt point;
    # optimal pairing matches both
    gt = [pt(0, 0), pt(1, 0)]
    q = [pt(0.5, 0), pt(-0.4, 0)]
    assert match(gt, q, 0.6) == 2


def test_match_long_augmenting_chain():
    # gt k at x=k owns pred k-1 at x=k-0.5 until the last gt point, which
    # reaches only pred 0: its augmenting path runs through every gt point
    # (deeper than Python's default recursion limit)
    n = 1500
    gt = [pt(k, 0) for k in range(1, n + 1)] + [pt(0, 0)]
    q = [pt(k + 0.5, 0) for k in range(n + 1)]
    assert match(gt, q, 0.6) == n + 1


def test_junction_pr_identical():
    js = [jn(i * 10, i * 5) for i in range(5)]
    p = junction_pr(js, js, CFG, 100, 100)
    assert (p.precision, p.recall) == (1.0, 1.0)
    assert p.matched_gt == p.matched_pred == 5


def test_junction_pr_empty_pred():
    js = [jn(i * 10, 5) for i in range(5)]
    p = junction_pr(js, [], CFG, 100, 100)
    assert (p.precision, p.recall) == (1.0, 0.0)


def test_junction_pr_empty_gt():
    p = junction_pr([], [jn(5, 5)], CFG, 100, 100)
    assert (p.precision, p.recall) == (0.0, 1.0)


def test_junction_pr_hand_count():
    # 3 gt, 4 preds, exactly 2 close enough
    gt = [jn(10, 10), jn(50, 50), jn(90, 10)]
    pred = [jn(10.4, 10), jn(50, 50.4), jn(30, 90), jn(70, 90)]
    p = junction_pr(gt, pred, CFG, 100, 100)
    assert p.precision == pytest.approx(0.5)
    assert p.recall == pytest.approx(2 / 3)


def test_pr_count_identity():
    gt = [jn(10, 10), jn(50, 50), jn(90, 10)]
    pred = [jn(10.4, 10), jn(50, 50.4), jn(30, 90)]
    p = junction_pr(gt, pred, CFG, 100, 100)
    assert p.precision * p.n_pred == pytest.approx(p.matched_pred, abs=1e-9)
    assert p.recall * p.n_gt == pytest.approx(p.matched_gt, abs=1e-9)
    assert p.matched_gt == p.matched_pred <= min(p.n_gt, p.n_pred)


coords = st.floats(0, 100, allow_nan=False)
points = st.builds(pt, coords, coords)


@given(st.lists(points, max_size=8), st.lists(points, max_size=8),
       st.floats(0.1, 50))
@settings(max_examples=200)
# closest-first alone matches only the two (0,1) pairs here; the maximum is 4
@example(gt=[pt(0, 0), pt(0, 0), pt(0, 1), pt(0, 1)],
         q=[pt(0, 1), pt(0, 1), pt(0, 34), pt(0, 34)], tol=33.0)
def test_greedy_close_to_optimal(gt, q, tol):
    m = match(gt, q, tol)
    assert m == optimum(gt, q, tol)
    assert m <= min(len(gt), len(q))


@given(st.lists(points, max_size=6), st.lists(points, max_size=6),
       st.floats(0.1, 20), st.floats(0.1, 20))
@settings(max_examples=100)
def test_matches_monotone_in_tol(gt, q, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert match(gt, q, lo) <= match(gt, q, hi)


def test_line_pixel_pr_identical():
    s = [seg(10, 10, 80, 60)]
    p = line_pixel_pr(s, s, CFG, 100, 100)
    assert (p.precision, p.recall) == (1.0, 1.0)


def test_line_pixel_pr_offset_beyond_tol():
    tol = CFG.tolerance(100, 100)
    off = math.ceil(2 * tol) + 1
    p = line_pixel_pr([seg(10, 10, 90, 10)], [seg(10, 10 + off, 90, 10 + off)],
                      CFG, 100, 100)
    assert (p.precision, p.recall) == (0.0, 0.0)


def test_line_pixel_pr_half_coverage():
    gt = [seg(0, 50, 80, 50)]
    pred = [seg(0, 50, 40, 50)]
    p = line_pixel_pr(gt, pred, CFG, 100, 100)
    assert p.precision == 1.0
    assert p.recall == pytest.approx(0.5, abs=0.05)
    # brute-force oracle: pairwise pixel distances
    tol = CFG.tolerance(100, 100)
    gt_px = set(map(tuple, segment_pixels(gt[0], 100, 100).tolist()))
    pr_px = set(map(tuple, segment_pixels(pred[0], 100, 100).tolist()))
    covered = sum(1 for g in gt_px
                  if any(math.hypot(g[0] - q[0], g[1] - q[1]) <= tol for q in pr_px))
    assert p.matched_gt == covered
    assert p.recall == covered / len(gt_px)


def test_line_pixel_pr_order_and_split_invariance():
    a, b = seg(5, 5, 50, 5), seg(20, 80, 90, 30)
    p1 = line_pixel_pr([a, b], [a], CFG, 100, 100)
    p2 = line_pixel_pr([b, a], [a], CFG, 100, 100)
    assert p1 == p2
    halves = [seg(5, 5, 27, 5), seg(27, 5, 50, 5)]
    p3 = line_pixel_pr([a], halves, CFG, 100, 100)
    assert p3.precision == 1.0 and p3.recall == 1.0


@pytest.mark.parametrize("width, height", [(0, 0), (5, 0), (0, 5)])
def test_line_pixel_pr_on_an_image_with_a_zero_side(width, height):
    # no pixel exists, so nothing is counted and P = R = 1, with or without segments
    for segments in ([], [seg(0, 0, 3, 3)]):
        p = line_pixel_pr(segments, segments, CFG, width, height)
        assert (p.n_gt, p.n_pred, p.precision, p.recall) == (0, 0, 1.0, 1.0)


@pytest.mark.parametrize("width, height", [(-1, 5), (5, -1), (-1, -1)])
def test_line_pixel_pr_refuses_a_negative_side(width, height):
    # as BinaryMask does: a GeometryError, not numpy's raw ValueError
    for segments in ([], [seg(0, 0, 3, 3)]):
        with pytest.raises(GeometryError, match="image sides"):
            line_pixel_pr(segments, segments, CFG, width, height)


def near_count(mask, other, tol):
    """_near_count of two masks: the flat indices of `mask` within tol of `other`."""
    return _near_count(np.flatnonzero(mask), other, np.flatnonzero(other), tol)


def near_count_edt(mask, other, tol):
    """Oracle: a full-image Euclidean distance transform of `other`."""
    if not mask.any() or not other.any():
        return 0
    return int(np.count_nonzero(ndimage.distance_transform_edt(~other)[mask] <= tol))


def bool_grid(rows):
    return np.array(rows, dtype=bool).reshape(len(rows), -1)


@st.composite
def mask_pairs(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = st.lists(st.booleans(), min_size=h * w, max_size=h * w)
    return (np.array(draw(shape), dtype=bool).reshape(h, w),
            np.array(draw(shape), dtype=bool).reshape(h, w))


EDGE_TOLS = [0.01, 0.5, math.nextafter(1.0, 0.0), 1.0, math.sqrt(2.0),
             math.nextafter(math.sqrt(2.0), 0.0), 2.0, math.nextafter(5.0, 0.0),
             5.0, 1e6]


@settings(max_examples=300, deadline=None)
@given(mask_pairs(), st.one_of(st.sampled_from(EDGE_TOLS), st.floats(0.01, 20.0)))
def test_near_count_matches_distance_transform(pair, tol):
    mask, other = pair
    assert near_count(mask, other, tol) == near_count_edt(mask, other, tol)
    assert near_count(other, mask, tol) == near_count_edt(other, mask, tol)


@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (1, 1)])
@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_near_count_thin_images(shape, tol):
    rng = np.random.default_rng([shape[0], shape[1]])
    mask, other = rng.random(shape) < 0.2, rng.random(shape) < 0.1
    assert near_count(mask, other, tol) == near_count_edt(mask, other, tol)


def test_near_count_at_integer_and_root_two_distances():
    mask = bool_grid([[1, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0]])
    other = np.zeros_like(mask)
    other[3, 4] = True  # offset (4, 3): distance exactly 5
    assert near_count(mask, other, 5.0) == near_count_edt(mask, other, 5.0) == 1
    below = math.nextafter(5.0, 0.0)
    assert near_count(mask, other, below) == near_count_edt(mask, other, below) == 0
    other[3, 4], other[1, 1] = False, True  # diagonal neighbour: sqrt(2)
    root2 = math.sqrt(2.0)
    assert near_count(mask, other, root2) == near_count_edt(mask, other, root2) == 1
    assert near_count(mask, other, math.nextafter(root2, 0.0)) == 0


def test_near_count_tolerance_extremes():
    mask = bool_grid([[1, 1, 0], [0, 0, 0], [0, 0, 1]])
    other = bool_grid([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert near_count(mask, other, 0.5) == near_count_edt(mask, other, 0.5) == 1
    assert near_count(mask, other, 1e9) == near_count_edt(mask, other, 1e9) == 3
    empty = np.zeros_like(mask)
    assert near_count(empty, other, 2.0) == near_count(mask, empty, 2.0) == 0


def reference_near_count(mask, other, tol):
    """Oracle: the disk test of every set pixel on row prefix sums, with no
    settled tiers."""
    h, w = other.shape
    ys, xs = np.divmod(np.flatnonzero(mask), w)
    prefix = np.zeros(h * w + 1, dtype=np.int32)
    np.cumsum(other, dtype=np.int32, out=prefix[1:])
    reach = min(math.floor(tol), h - 1)
    dys = np.arange(-reach, reach + 1)
    cols = np.arange(min(math.floor(tol), w - 1) + 1)
    halves = np.count_nonzero(np.sqrt(cols ** 2 + dys[:, None] ** 2) <= tol, axis=1) - 1
    near = np.zeros(len(ys), dtype=bool)
    for dy, half in zip(dys.tolist(), halves.tolist()):
        lo, hi = np.searchsorted(ys, (-dy, h - dy))
        row, x = (ys[lo:hi] + dy) * w, xs[lo:hi]
        left = prefix[row + np.maximum(x - half, 0)]
        near[lo:hi] |= prefix[row + np.minimum(x + half + 1, w)] > left
    return int(np.count_nonzero(near))


@st.composite
def line_mask_pairs(draw):
    """Masks of up to 99 x 99 pixels: random lines, one slightly moved copy
    of them and scattered noise."""
    h, w = draw(st.integers(1, 99)), draw(st.integers(1, 99))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = [rng.random((h, w)) < draw(st.sampled_from([0.0, 0.005, 0.05]))
             for _ in range(2)]
    for _ in range(draw(st.integers(0, 6))):
        x1, x2 = rng.uniform(0, w - 1, 2)
        y1, y2 = rng.uniform(0, h - 1, 2)
        dx, dy = rng.integers(-3, 4, 2)
        for m, (ox, oy) in zip(masks, ((0, 0), (dx, dy))):
            if (x1, y1) != (x2, y2):
                for x, y in segment_pixels(seg(x1 + ox, y1 + oy, x2 + ox, y2 + oy), w, h):
                    m[y, x] = True
    return masks[0], masks[1]


# below sqrt(2) the 3x3 tier is off; on a disk radius the disk gains a ring
TIER_TOLS = [0.5, 1.0, math.nextafter(math.sqrt(2.0), 0.0), math.sqrt(2.0), 2.0,
             math.sqrt(5.0), math.nextafter(math.sqrt(5.0), 0.0), 5.0, 13.6]


@settings(max_examples=300, deadline=None)
@given(line_mask_pairs(), st.one_of(st.sampled_from(TIER_TOLS), st.floats(0.01, 30.0)))
@example((np.zeros((5, 7), dtype=bool), np.ones((5, 7), dtype=bool)), 2.0)
@example((np.ones((5, 7), dtype=bool), np.zeros((5, 7), dtype=bool)), 2.0)
@example((np.zeros((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)), 0.5)
def test_near_count_matches_untiered_disk_test(pair, tol):
    mask, other = pair
    assert near_count(mask, other, tol) == reference_near_count(mask, other, tol)
    assert near_count(other, mask, tol) == reference_near_count(other, mask, tol)


@pytest.mark.parametrize("tol", [2.0, math.nextafter(3.0, 0.0), 3.0, 3.5, 7.0])
@pytest.mark.parametrize("row", [0, 2, 30, 55, 59])
def test_near_count_prefix_rows_reach_the_band(tol, row):
    # (named for the row-band prefix sum this once tested) an `other` pixel
    # just inside or just outside the disk's reach above or below the query
    # rows, or at the image's top or bottom edge, counts as the distance
    # transform says: the keys of the rows y + dy at the reach's edge
    h, w = 60, 9
    mask = np.zeros((h, w), dtype=bool)
    mask[row, 4] = mask[min(row + 3, h - 1), 1] = True
    for dy in range(-9, 13):
        for dx in (-3, 0, 2):
            if 0 <= row + dy < h:
                other = np.zeros_like(mask)
                other[row + dy, 4 + dx] = True
                assert near_count(mask, other, tol) == near_count_edt(mask, other, tol)


@pytest.mark.parametrize("tol", [1.0, math.sqrt(2.0), 2.0, math.nextafter(math.sqrt(5.0), 0.0),
                                 math.sqrt(5.0), 3.0, 4.5, 9.0])
@pytest.mark.parametrize("w", [1, 2, 3, 4, 7, 12])
def test_near_count_keys_stay_in_their_row(w, tol):
    # a query pixel on the left (right) image edge and an `other` pixel at the
    # end of the row above (the start of the row below) are neighbours in
    # flat order; the disk's key range is clamped inside its row, so that
    # pixel counts only if it lies in the disk.  The rows two and three away
    # are tried too.
    h = 8
    for qx, ox, rows in ((0, w - 1, (-1, -2, -3)), (w - 1, 0, (1, 2, 3))):
        for dy in rows:
            mask, other = np.zeros((h, w), dtype=bool), np.zeros((h, w), dtype=bool)
            mask[4, qx] = other[4 + dy, ox] = True
            want = near_count_edt(mask, other, tol)
            assert want == (math.hypot(ox - qx, dy) <= tol)
            assert near_count(mask, other, tol) == reference_near_count(mask, other, tol) == want


def test_line_pixel_pr_counts_each_pixel_once():
    # n_gt and n_pred count pixels, not segment pixels: the two gt segments
    # share 41 pixels of row 50; the pred crosses the gt at (10, 50)
    gt, pred = [seg(0, 50, 80, 50), seg(40, 50, 90, 50)], [seg(10, 0, 10, 99)]
    p = line_pixel_pr(gt, pred, CFG, 100, 100)
    assert (p.n_gt, p.n_pred) == (91, 100)
    tol = CFG.tolerance(100, 100)  # about 1.41: the disk holds the 3 x 3 block
    assert (p.matched_gt, p.matched_pred) == (3, 3)
    assert tol >= math.sqrt(2.0)


def reference_match_points(gt, pred, tol):
    """Oracle: match with its adjacency from every scalar distance."""
    adj = [[j for j in range(len(pred)) if gt[i].distance_to(pred[j]) <= tol]
           for i in range(len(gt))]
    owner = [-1] * len(pred)

    def augment(i, seen):
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, [False] * len(pred)) for i in range(len(gt)))


grid_points = st.builds(pt, st.integers(0, 12), st.integers(0, 12))


@given(st.lists(grid_points | points, max_size=25), st.lists(grid_points | points, max_size=25),
       st.sampled_from([1.0, math.sqrt(2.0), 5.0, math.nextafter(5.0, 0.0)])
       | st.floats(0.1, 30))
@settings(max_examples=200, deadline=None)
def test_match_points_prefilter_matches_all_pairs(gt, q, tol):
    assert match(gt, q, tol) == reference_match_points(gt, q, tol)


confidences = st.sampled_from([0.1, 0.45, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)
scored = st.builds(jn, st.integers(0, 12), st.integers(0, 12), confidences)


@given(st.lists(scored, max_size=15), st.lists(scored, max_size=15),
       st.lists(st.sampled_from([0.0, 0.1, 0.45, 0.5, 0.9, 1.0]) | st.floats(-0.5, 1.5),
                min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_junction_sweep_matches_junction_pr_per_threshold(gt, pred, thresholds):
    # the pairs are found once for all preds; each threshold keeps its columns
    config = EvalConfig(tolerance_frac=0.2)  # about 3.4 px: matches compete
    at = junction_sweep(gt, pred, config, 12, 12)
    for t in thresholds:
        kept = [j for j in pred if j.confidence > t]
        assert at(t) == dataclasses.replace(junction_pr(gt, kept, config, 12, 12), threshold=t)


def test_sweep_constant_detector():
    point = junction_pr([jn(5, 5)], [jn(5, 5)], CFG, 50, 50)
    curve = sweep_pr(lambda t: point, CFG)
    assert len(curve.points) == 9
    assert [p.threshold for p in curve.points] == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert all(p.precision == 1.0 and p.recall == 1.0 for p in curve.points)


def test_sweep_thresholding_shrinks_q():
    js = [jn(10, 10, 0.95), jn(30, 30, 0.55), jn(60, 60, 0.15)]

    def eval_at(t):
        pred = [j for j in js if j.confidence > t]
        return junction_pr(js, pred, CFG, 100, 100)

    curve = sweep_pr(eval_at, CFG)
    sizes = [p.n_pred for p in curve.points]
    assert sizes == sorted(sizes, reverse=True)
    recalls = [p.recall for p in curve.points]
    assert recalls == sorted(recalls, reverse=True)


def test_pool_pr():
    a = PRPoint(0.5, 1.0, 0.5, n_gt=4, n_pred=2, matched_gt=2, matched_pred=2)
    b = PRPoint(0.5, 0.5, 1.0, n_gt=2, n_pred=4, matched_gt=2, matched_pred=2)
    pooled = pool_pr(0.5, [a, b])
    assert pooled.precision == pytest.approx(4 / 6)
    assert pooled.recall == pytest.approx(4 / 6)


def test_emit_and_read_csv(tmp_path):
    curve = PRCurve((PRPoint(0.1, 1 / 3, 2 / 3), PRPoint(0.2, 0.5, 0.25)))
    path = tmp_path / "pr.csv"
    emit_pr_csv(curve, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "threshold,precision,recall"
    assert text.splitlines()[1] == "0.1,0.333333,0.666667"
    back = read_pr_csv(str(path))
    assert [(p.threshold, p.precision, p.recall) for p in back.points] == [
        (0.1, 0.333333, 0.666667), (0.2, 0.5, 0.25)]
    # emit of the parsed curve is byte-identical: the format is a fixed point
    path2 = tmp_path / "pr2.csv"
    emit_pr_csv(back, str(path2))
    assert path2.read_bytes() == path.read_bytes()


def test_emit_single_point_csv(tmp_path):
    path = tmp_path / "one.csv"
    emit_pr_csv(PRCurve((PRPoint(0.5, 1.0, 1.0),)), str(path))
    assert len(path.read_text().splitlines()) == 2


def test_emit_empty_curve(tmp_path):
    csv_path, svg_path = tmp_path / "e.csv", tmp_path / "e.svg"
    emit_pr_csv(PRCurve(), str(csv_path))
    emit_pr_svg(PRCurve(), str(svg_path))
    assert csv_path.read_text() == "threshold,precision,recall\n"
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" not in svg and "</svg>" in svg


def test_emit_svg_deterministic(tmp_path):
    curve = PRCurve((PRPoint(0.1, 0.9, 0.8), PRPoint(0.5, 0.95, 0.6)))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_pr_svg(curve, str(p1))
    emit_pr_svg(curve, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert "polyline" in p1.read_text()


@pytest.mark.parametrize("emit", [emit_pr_csv, emit_pr_svg])
def test_emit_over_a_longer_file_through_a_symlink_and_to_devnull(tmp_path, emit):
    # written in place and cut to length: no old byte trails the new ones
    curve = PRCurve((PRPoint(0.1, 0.9, 0.8), PRPoint(0.5, 0.95, 0.6)))
    fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
    emit(curve, str(fresh))
    target.write_bytes(b"\xff" * (3 * fresh.stat().st_size + 7))
    link.symlink_to(target)
    emit(curve, str(link))
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
    emit(curve, str(target))  # over itself
    assert target.read_bytes() == fresh.read_bytes()
    emit(curve, os.devnull)


@pytest.mark.parametrize("header, row, named", [
    ("nope", "1,2,3", ""), ("threshold,precision,recall", "1,2", "1,2"),
    ("threshold,precision,recall", "a,b,c", "a,b,c"),
    ("threshold,precision,recall", "0.5,nan,inf", "0.5,nan,inf"),
    ("threshold,precision,recall", "0.5,0.5,0.5\xe9", "0xe9")],
    ids=["header", "two-fields", "not-numbers", "not-finite", "not-ascii"])
def test_read_csv_rejects_garbage(tmp_path, header, row, named):
    path = tmp_path / "bad.csv"
    path.write_bytes(f"{header}\n0.1,0.5,0.5\n{row}\n".encode("latin-1"))
    with pytest.raises(GeometryError) as err:
        read_pr_csv(str(path))
    assert str(path) in str(err.value) and "\n" not in str(err.value)
    assert named in str(err.value)
