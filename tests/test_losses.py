import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wireframe.geometry import Branch, GeometryError, Junction, Point
from wireframe.gridcodec import ARRAYS, GridConfig, GridEncoding, bin_to_angle, encode
from wireframe.losses import (
    CONF_EPS,
    LossReport,
    _ce_grad,
    LossWeights,
    _ce_terms,
    heatmap_l2_loss,
    junction_loss,
    junction_loss_grad,
    sample_cells,
)

SMALL = GridConfig(image_w=30, image_h=30, grid_w=3, grid_h=3, bins=5)


def make_junctions(cfg, cells_and_bins, rng):
    """Collision-free junctions at given cells with given occupied bins."""
    out = []
    for (row, col), bins_ in cells_and_bins:
        cx, cy = cfg.cell_center(row, col)
        dx, dy = rng.uniform(-0.4, 0.4, 2)
        branches = tuple(
            Branch(bin_to_angle(k, rng.uniform(-0.4, 0.4) * (360.0 / cfg.bins), cfg.bins))
            for k in sorted(bins_))
        out.append(Junction(Point(cx + dx * cfg.cell_w, cy + dy * cfg.cell_h),
                            branches))
    return out


def random_pred(cfg, rng):
    """A prediction with every value away from clamp and wrap boundaries."""
    h, w, k = cfg.grid_h, cfg.grid_w, cfg.bins
    return GridEncoding(
        cfg,
        center_conf=rng.uniform(0.05, 0.95, (h, w)),
        displacement=rng.uniform(-2.0, 2.0, (h, w, 2)),
        bin_conf=rng.uniform(0.05, 0.95, (h, w, k)),
        bin_residual=rng.uniform(-360.0 / cfg.bins / 2, 360.0 / cfg.bins / 2, (h, w, k)),
    )


def test_cross_entropy_examples():
    ce = _ce_terms(np.array([0.5, 1.0, 0.5, 0.0, 0.0]),
                   np.array([1.0, 1.0, 0.0, 0.0, 1.0]))
    assert ce[0] == pytest.approx(math.log(2))
    assert ce[1] <= 1e-6
    assert ce[2] == pytest.approx(math.log(2))
    assert ce[3] == 0.0
    assert math.isfinite(ce[4])


def test_ce_grad_matches_the_boolean_gather_form():
    # both clamp edges, each side of them, and targets 0, 1 and between
    pred = np.array([0.0, 1e-8, CONF_EPS, np.nextafter(CONF_EPS, 1.0), 0.5,
                     1.0 - CONF_EPS, np.nextafter(1.0 - CONF_EPS, 1.0), 1.0 - 1e-8, 1.0])
    for t in (0.0, 1.0, 0.3):
        target = np.full_like(pred, t)
        assert _ce_grad(pred, target).tobytes() == reference_ce_grad(pred, target).tobytes()


def test_weights_validation():
    with pytest.raises(GeometryError):
        LossWeights(conf_c=-1.0)
    with pytest.raises(GeometryError):
        LossWeights(loc_b=float("nan"))


def test_empty_gt_zero_pred_total_zero():
    pred = GridEncoding(SMALL)
    r = junction_loss(pred, [])
    assert r == LossReport(0.0, 0.0, 0.0, 0.0, 0.0)


def test_perfect_prediction():
    rng = np.random.default_rng(1)
    js = make_junctions(SMALL, [((0, 0), (1,)), ((2, 1), (0, 3))], rng)
    pred = encode(js, SMALL)
    r = junction_loss(pred, js)
    assert r.total <= 1e-5
    assert r.loc_c == 0.0 and r.loc_b == 0.0
    assert r.conf_c <= 1e-5 and r.conf_b <= 1e-5


def test_single_cell_hand_oracle():
    # independent scalar computation of every term, default weights
    cfg = GridConfig(image_w=16, image_h=16, grid_w=1, grid_h=1, bins=15)
    j = Junction(Point(8.0, 8.0), (Branch(12.0),))  # bin 0, residual 0
    pred = encode([j], cfg)
    pred.center_conf[0, 0] = 0.5
    pred.displacement[0, 0] += (1.0, 1.0)
    pred.bin_conf[0, 0, 0] = 0.5
    pred.bin_residual[0, 0, 0] += 2.0

    want_conf_c = -math.log(0.5)          # one cell, one junction
    want_loc_c = 1.0 ** 2 + 1.0 ** 2
    want_conf_b = -math.log(0.5) / 15     # 14 empty bins contribute 0
    want_loc_b = 2.0 ** 2

    r = junction_loss(pred, [j])
    assert r.conf_c == pytest.approx(want_conf_c, rel=1e-12)
    assert r.loc_c == pytest.approx(want_loc_c, rel=1e-12)
    assert r.conf_b == pytest.approx(want_conf_b, rel=1e-12)
    assert r.loc_b == pytest.approx(want_loc_b, rel=1e-12)
    want_total = (1.0 * want_conf_c + 0.1 * want_loc_c
                  + 1.0 * want_conf_b + 0.1 * want_loc_b)
    assert r.total == pytest.approx(want_total, abs=1e-12)


def test_total_is_weighted_sum():
    rng = np.random.default_rng(2)
    js = make_junctions(SMALL, [((1, 1), (0, 2)), ((0, 2), (4,))], rng)
    w = LossWeights(0.7, 0.3, 1.3, 0.05)
    r = junction_loss(random_pred(SMALL, rng), js, w)
    assert r.total == pytest.approx(
        w.conf_c * r.conf_c + w.loc_c * r.loc_c + w.conf_b * r.conf_b + w.loc_b * r.loc_b,
        abs=1e-12)
    assert min(r.conf_c, r.loc_c, r.conf_b, r.loc_b) >= 0.0


def test_order_invariance():
    rng = np.random.default_rng(3)
    js = make_junctions(SMALL, [((0, 0), (1,)), ((1, 2), (2, 3)), ((2, 2), (0,))], rng)
    pred = random_pred(SMALL, rng)
    assert junction_loss(pred, js) == junction_loss(pred, js[::-1])


def test_config_mismatch_rejected():
    other = GridConfig(image_w=30, image_h=30, grid_w=2, grid_h=2, bins=5)
    pred = GridEncoding(SMALL)
    with pytest.raises(GeometryError):
        junction_loss(pred, [], sample_mask=np.ones((2, 2), dtype=bool))
    with pytest.raises(GeometryError):
        GridEncoding(other, center_conf=np.zeros((3, 3)))


def total_of(pred, js, w, mask):
    return junction_loss(pred, js, w, mask).total


def fd_check(pred, js, w, mask, h=1e-5):
    """Central finite differences against the analytic gradient."""
    grad = junction_loss_grad(pred, js, w, mask)
    worst = 0.0
    for name in ("center_conf", "displacement", "bin_conf", "bin_residual"):
        arr = getattr(pred, name)
        ana = getattr(grad, name)
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = total_of(pred, js, w, mask)
            flat[i] = keep - h
            dn = total_of(pred, js, w, mask)
            flat[i] = keep
            fd = (up - dn) / (2 * h)
            a = ana.ravel()[i]
            scale = max(abs(fd), abs(a), 1e-8)
            worst = max(worst, abs(fd - a) / scale)
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed)
    cells = [((0, 0), (1,)), ((1, 2), (0, 3)), ((2, 1), (2,))][: 1 + seed % 3]
    js = make_junctions(SMALL, cells, rng)
    pred = random_pred(SMALL, rng)
    mask = None if seed % 2 else sample_cells(encode(js, SMALL), 2.0, seed)
    assert fd_check(pred, js, LossWeights(), mask) <= 1e-4


def test_gradient_zero_weights():
    rng = np.random.default_rng(4)
    js = make_junctions(SMALL, [((1, 1), (2,))], rng)
    g = junction_loss_grad(random_pred(SMALL, rng), js, LossWeights(0, 0, 0, 0))
    assert not g.center_conf.any() and not g.displacement.any()
    assert not g.bin_conf.any() and not g.bin_residual.any()


def test_gradient_zero_displacement_at_optimum():
    rng = np.random.default_rng(5)
    js = make_junctions(SMALL, [((0, 1), (1, 4))], rng)
    pred = encode(js, SMALL)
    pred.center_conf = np.where(pred.center_conf == 1.0, 0.999, 0.001)
    pred.bin_conf = np.where(pred.bin_conf == 1.0, 0.999, 0.001)
    g = junction_loss_grad(pred, js)
    assert not g.displacement.any() and not g.bin_residual.any()


@given(st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
def test_lambda_scaling_exact(s):
    rng = np.random.default_rng(6)
    js = make_junctions(SMALL, [((0, 0), (1,)), ((2, 2), (0, 2))], rng)
    pred = random_pred(SMALL, rng)
    w1 = LossWeights()
    w2 = LossWeights(s * w1.conf_c, s * w1.loc_c, s * w1.conf_b, s * w1.loc_b)
    r1, r2 = junction_loss(pred, js, w1), junction_loss(pred, js, w2)
    assert r2.total == s * r1.total
    g1, g2 = junction_loss_grad(pred, js, w1), junction_loss_grad(pred, js, w2)
    assert (g2.center_conf == s * g1.center_conf).all()
    assert (g2.displacement == s * g1.displacement).all()
    assert (g2.bin_conf == s * g1.bin_conf).all()
    assert (g2.bin_residual == s * g1.bin_residual).all()


def test_heatmap_loss_examples():
    a = np.zeros((4, 4))
    loss, grad = heatmap_l2_loss(a, a)
    assert loss == 0.0 and not grad.any()
    b = a.copy()
    b[1, 2] = 2.0
    loss, grad = heatmap_l2_loss(b, a)
    assert loss == 4.0
    assert grad[1, 2] == 4.0 and np.count_nonzero(grad) == 1


def test_heatmap_loss_symmetry_and_mismatch():
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0, 5, (6, 6)), rng.uniform(0, 5, (6, 6))
    assert heatmap_l2_loss(a, b)[0] == heatmap_l2_loss(b, a)[0]
    with pytest.raises(GeometryError):
        heatmap_l2_loss(np.zeros((2, 2)), np.zeros((3, 2)))


def test_heatmap_gradient_fd():
    rng = np.random.default_rng(8)
    p, t = rng.uniform(0, 5, (8, 8)), rng.uniform(0, 5, (8, 8))
    _, grad = heatmap_l2_loss(p, t)
    h = 1e-5
    for idx in [(0, 0), (3, 5), (7, 7), (2, 1)]:
        saved = p[idx]
        p[idx] = saved + h
        up = heatmap_l2_loss(p, t)[0]
        p[idx] = saved - h
        dn = heatmap_l2_loss(p, t)[0]
        p[idx] = saved
        fd = (up - dn) / (2 * h)
        assert abs(fd - grad[idx]) / max(abs(fd), 1e-8) <= 1e-6


def test_sample_cells_ratio():
    cfg = GridConfig(image_w=110, image_h=110, grid_w=11, grid_h=10, bins=5)
    rng = np.random.default_rng(9)
    cells = [((i, 2 * i % 11), (0,)) for i in range(10)]
    gt = encode(make_junctions(cfg, cells, rng), cfg)
    mask = sample_cells(gt, r_max=7.0, seed=0)
    assert mask.sum() == 10 + 70
    assert (mask & (gt.center_conf == 1.0)).sum() == 10  # all positives kept


def test_sample_cells_inf_and_empty():
    gt = GridEncoding(SMALL)
    assert sample_cells(gt, 7.0, 0).all()  # no positives: everything
    rng = np.random.default_rng(10)
    gt2 = encode(make_junctions(SMALL, [((0, 0), (1,))], rng), SMALL)
    assert sample_cells(gt2, float("inf"), 0).all()


def test_sample_cells_deterministic():
    cfg = GridConfig(image_w=110, image_h=110, grid_w=11, grid_h=10, bins=5)
    rng = np.random.default_rng(11)
    gt = encode(make_junctions(cfg, [((3, 4), (2,)), ((7, 1), (0,))], rng), cfg)
    m1 = sample_cells(gt, 5.0, seed=42)
    m2 = sample_cells(gt, 5.0, seed=42)
    m3 = sample_cells(gt, 5.0, seed=43)
    assert (m1 == m2).all()
    assert (m1 != m3).any()
    assert m1.sum() == 2 + 10


def test_sample_cells_validation():
    with pytest.raises(GeometryError):
        sample_cells(GridEncoding(SMALL), r_max=-1.0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_sample_cells_rejects_bad_seed(seed):
    with pytest.raises(GeometryError):
        sample_cells(GridEncoding(GridConfig(32, 32, 8, 8, 15)), seed=seed)


# -- the loss and its gradient before their set-up was shared and became
# flat-index passes, kept verbatim so both are checked bit for bit --

def reference_ce_grad(pred, target):
    g = np.zeros_like(pred)
    live = pred > CONF_EPS
    g[live] -= target[live] / pred[live]
    live = (1.0 - pred) > CONF_EPS
    g[live] += (1.0 - target[live]) / (1.0 - pred[live])
    return g


def reference_check_mask(pred, sample_mask):
    if sample_mask is None:
        return np.ones((pred.config.grid_h, pred.config.grid_w), dtype=bool)
    mask = np.asarray(sample_mask, dtype=bool)
    want = (pred.config.grid_h, pred.config.grid_w)
    if mask.shape != want:
        raise GeometryError(f"sample mask shape {mask.shape} != grid {want}")
    return mask


def reference_wrap_deg(d):
    return (d + 180.0) % 360.0 - 180.0


def reference_junction_loss(pred, gt_junctions, weights=LossWeights(), sample_mask=None):
    gt = encode(gt_junctions, pred.config)
    mask = reference_check_mask(pred, sample_mask)

    conf_c = float(_ce_terms(pred.center_conf, gt.center_conf)[mask].mean()) \
        if mask.any() else 0.0

    gt_cells = gt.center_conf == 1.0
    n = int(gt_cells.sum())
    loc_c = conf_b = loc_b = 0.0
    if n:
        derr = pred.displacement[gt_cells] - gt.displacement[gt_cells]
        loc_c = float((derr ** 2).sum() / n)
        conf_b = float(_ce_terms(pred.bin_conf[gt_cells], gt.bin_conf[gt_cells]).mean())
        per_junction = []
        for rows, cols in zip(*np.nonzero(gt_cells)):
            occupied = gt.bin_conf[rows, cols] == 1.0
            if not occupied.any():
                per_junction.append(0.0)
                continue
            d = reference_wrap_deg(pred.bin_residual[rows, cols, occupied]
                                   - gt.bin_residual[rows, cols, occupied])
            per_junction.append(float((d ** 2).mean()))
        loc_b = sum(per_junction) / n

    total = (weights.conf_c * conf_c + weights.loc_c * loc_c
             + weights.conf_b * conf_b + weights.loc_b * loc_b)
    return LossReport(total, conf_c, loc_c, conf_b, loc_b)


def reference_junction_loss_grad(pred, gt_junctions, weights=LossWeights(), sample_mask=None):
    gt = encode(gt_junctions, pred.config)
    mask = reference_check_mask(pred, sample_mask)
    grad = GridEncoding(pred.config)

    if mask.any():
        g = reference_ce_grad(pred.center_conf, gt.center_conf) * (weights.conf_c / mask.sum())
        grad.center_conf[mask] = g[mask]

    gt_cells = gt.center_conf == 1.0
    n = int(gt_cells.sum())
    if not n:
        return grad

    grad.displacement[gt_cells] = (
        2.0 * (pred.displacement[gt_cells] - gt.displacement[gt_cells])
        * (weights.loc_c / n))

    k = pred.config.bins
    gb = reference_ce_grad(pred.bin_conf[gt_cells], gt.bin_conf[gt_cells])
    grad.bin_conf[gt_cells] = gb * (weights.conf_b / (n * k))

    for rows, cols in zip(*np.nonzero(gt_cells)):
        occupied = gt.bin_conf[rows, cols] == 1.0
        r_n = int(occupied.sum())
        if not r_n:
            continue
        d = reference_wrap_deg(pred.bin_residual[rows, cols, occupied]
                               - gt.bin_residual[rows, cols, occupied])
        grad.bin_residual[rows, cols, occupied] = 2.0 * d * (weights.loc_b / (n * r_n))
    return grad


@st.composite
def loss_cases(draw):
    """A grid, ground truth on some cells (none, or cells whose junction has no
    branch, included), a prediction with values on and past the clamp and
    wrap edges, weights and a mask (None, empty or random).  Up to 10 branches
    a cell reach numpy's pairwise sums, which start at 8 terms."""
    cfg = GridConfig(draw(st.integers(4, 40)), draw(st.integers(4, 40)),
                     draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 12)))
    h, w, k = cfg.grid_h, cfg.grid_w, cfg.bins
    cells = draw(st.sets(st.integers(0, h * w - 1), max_size=h * w))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    gt = make_junctions(cfg, [(divmod(c, w), draw(st.sets(st.integers(0, k - 1), max_size=10)))
                              for c in sorted(cells)], rng)

    def field(shape, lo, hi, edges):
        return np.where(rng.random(shape) < 0.2, rng.choice(edges, shape),
                        rng.uniform(lo, hi, shape))

    pred = GridEncoding(cfg, field((h, w), 0.0, 1.0, [0.0, 1.0, 1e-8, 1 - 1e-8]),
                        field((h, w, 2), -3.0, 3.0, [0.0]),
                        field((h, w, k), 0.0, 1.0, [0.0, 1.0, 1e-8]),
                        field((h, w, k), -200.0, 200.0, [-180.0, 180.0, 0.0]))
    weights = LossWeights(*draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 2.5]),
                                         min_size=4, max_size=4)))
    mask = draw(st.sampled_from([None, "empty", "random"]))
    if mask == "empty":
        mask = np.zeros((h, w), dtype=bool)
    elif mask == "random":
        mask = rng.random((h, w)) < 0.5
    return pred, gt, weights, mask


@given(loss_cases())
@settings(max_examples=200, deadline=None)
@example((GridEncoding(SMALL), [], LossWeights(), None))  # an empty scene
@example((GridEncoding(SMALL), [Junction(Point(5.0, 5.0))], LossWeights(), None))  # no bins
def test_loss_and_gradient_equal_the_unshared_set_up(case):
    pred, gt, weights, mask = case
    assert junction_loss(pred, gt, weights, mask) == reference_junction_loss(
        pred, gt, weights, mask)
    got = junction_loss_grad(pred, gt, weights, mask)
    want = reference_junction_loss_grad(pred, gt, weights, mask)
    for name in ARRAYS:  # bytes: a zero's sign counts too
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
