"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with measured values.  Thresholds follow the package's documented
operating points; seeds are fixed so every run measures the same instances.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import segment_pixels
from wireframe.annotate import (
    AnnotatedScene,
    HeatMap,
    derive_junctions,
    render_target_heatmap,
)
from wireframe.cli import main
from wireframe.construct import (
    BOUNDARY_FRAC,
    KAPPA_MIN,
    BinaryMask,
    ConstructionParams,
    construct_wireframe,
)
from wireframe.evaluate import (
    EvalConfig,
    PRCurve,
    PRPoint,
    junction_pr,
    line_pixel_pr,
    max_matching,
    pool_pr,
    read_pr_csv,
    emit_pr_csv,
)
from wireframe.formats import (
    read_grid,
    read_heatmap,
    read_junctions,
    read_scene,
    read_wireframe,
    write_grid,
    write_heatmap,
    write_junctions,
    write_scene,
    write_wireframe,
)
from wireframe.geometry import (
    Branch,
    Junction,
    Point,
    Segment,
    angle_diff,
    near_lists,
    point_array,
    point_segment_distance,
    segment_intersection,
)
from wireframe.gridcodec import (
    DEFAULT_BINS,
    DEFAULT_GRID,
    DEFAULT_TAU_B,
    DEFAULT_TAU_C,
    GridConfig,
    GridEncoding,
    decode,
    encode,
)
from wireframe.hough import HoughParams, hough_segments
from wireframe.losses import (
    DEFAULT_NEG_POS_RATIO,
    LossWeights,
    heatmap_l2_loss,
    junction_loss,
    junction_loss_grad,
    sample_cells,
)
from wireframe.synth import make_scenes


def ok(num: int, detail: str) -> None:
    print(f"\n[PASS] criterion {num}: {detail}")


def fscore(p: PRPoint) -> float:
    if p.precision + p.recall == 0:
        return 0.0
    return 2 * p.precision * p.recall / (p.precision + p.recall)


# -- 1: ground-truth round trip through construction --

def test_criterion_01_gt_roundtrip():
    t0 = time.monotonic()
    scenes = make_scenes(seed=101, count=100)
    assert all(5 <= len(s.lines) <= 30 for s in scenes)
    assert all((s.width, s.height) == (320, 320) for s in scenes)

    cfg = EvalConfig()
    params = ConstructionParams(omega=0.5)
    junction_points, line_points = [], []
    for scene in scenes:
        gt = derive_junctions(scene)
        wf = construct_wireframe(gt, render_target_heatmap(scene), params)
        detected = [j for j in wf.junctions if not j.derived]
        junction_points.append(junction_pr(gt, detected, cfg, 320, 320))
        line_points.append(line_pixel_pr(list(scene.lines), wf.segments,
                                         cfg, 320, 320))
    elapsed = time.monotonic() - t0
    jf = fscore(pool_pr(0.0, junction_points))
    lf = fscore(pool_pr(0.0, line_points))
    assert lf >= 0.95, f"line-pixel F {lf:.4f} < 0.95"
    assert jf >= 0.95, f"junction F {jf:.4f} < 0.95"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"
    ok(1, f"100 scenes, line F {lf:.4f}, junction F {jf:.4f}, {elapsed:.1f}s")


# -- 2: grid codec exact round trip --

def random_junction_set(rng: np.random.Generator, config: GridConfig,
                        n: int) -> list[Junction]:
    """Collision-free draw: distinct cells, distinct angle bins per junction."""
    cells = rng.choice(config.grid_w * config.grid_h, size=n, replace=False)
    bw = 360.0 / config.bins
    out = []
    for c in cells:
        row, col = divmod(int(c), config.grid_w)
        x = (col + rng.uniform(0.05, 0.95)) * config.cell_w
        y = (row + rng.uniform(0.05, 0.95)) * config.cell_h
        bins = rng.choice(config.bins, size=int(rng.integers(1, 5)), replace=False)
        branches = tuple(Branch((k + 0.5) * bw + rng.uniform(-0.45, 0.45) * bw)
                         for k in sorted(bins))
        out.append(Junction(Point(x, y), branches))
    return out


def test_criterion_02_codec_roundtrip():
    rng = np.random.default_rng(202)
    config = GridConfig(320, 320)
    worst_pos = worst_ang = 0.0
    for _ in range(1000):
        junctions = random_junction_set(rng, config, int(rng.integers(1, 9)))
        back = decode(encode(junctions, config))
        assert len(back) == len(junctions)
        a = sorted(junctions, key=lambda j: (j.center.y, j.center.x))
        b = sorted(back, key=lambda j: (j.center.y, j.center.x))
        for x, y in zip(a, b):
            worst_pos = max(worst_pos, x.center.distance_to(y.center))
            assert len(x.branches) == len(y.branches)
            for bx, by in zip(x.branches, y.branches):
                worst_ang = max(worst_ang,
                                abs(angle_diff(bx.angle_deg, by.angle_deg)))
    assert worst_pos <= 1e-9, f"position error {worst_pos}"
    assert worst_ang <= 1e-9, f"angle error {worst_ang}"
    ok(2, f"1000 sets, max position err {worst_pos:.2e} px, "
          f"max angle err {worst_ang:.2e} deg")


# -- 3: gradients vs central finite differences --

FD_H = 1e-5


def _rel(a: float, f: float) -> float:
    return abs(a - f) / max(abs(a), abs(f), 1e-6)


def fd_worst(pred: GridEncoding, gt, weights, mask) -> dict[str, float]:
    grad = junction_loss_grad(pred, gt, weights, mask)
    worst = {}
    for field in ("center_conf", "displacement", "bin_conf", "bin_residual"):
        arr = getattr(pred, field)
        garr = getattr(grad, field)
        w = 0.0
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + FD_H
            hi = junction_loss(pred, gt, weights, mask).total
            arr[idx] = keep - FD_H
            lo = junction_loss(pred, gt, weights, mask).total
            arr[idx] = keep
            w = max(w, _rel(garr[idx], (hi - lo) / (2 * FD_H)))
        worst[field] = w
    return worst


def test_criterion_03_gradient_checks():
    rng = np.random.default_rng(303)
    config = GridConfig(24, 24, 3, 3, 5)
    worst = {f: 0.0 for f in ("center_conf", "displacement",
                              "bin_conf", "bin_residual", "heatmap")}
    for trial in range(20):
        gt = random_junction_set(rng, config, int(rng.integers(1, 5)))
        pred = GridEncoding(
            config,
            center_conf=rng.uniform(0.05, 0.95, (3, 3)),
            displacement=rng.uniform(-2, 2, (3, 3, 2)),
            bin_conf=rng.uniform(0.05, 0.95, (3, 3, 5)),
            bin_residual=rng.uniform(-10, 10, (3, 3, 5)))
        weights = LossWeights(1.0, 0.1, 1.0, 0.1)
        mask = sample_cells(encode(gt, config), seed=trial)
        for field, w in fd_worst(pred, gt, weights, mask).items():
            worst[field] = max(worst[field], w)

        hm_pred = rng.uniform(0, 5, (6, 6))
        hm_gt = rng.uniform(0, 5, (6, 6))
        _, hm_grad = heatmap_l2_loss(hm_pred, hm_gt)
        for idx in np.ndindex(hm_pred.shape):
            keep = hm_pred[idx]
            hm_pred[idx] = keep + FD_H
            hi = heatmap_l2_loss(hm_pred, hm_gt)[0]
            hm_pred[idx] = keep - FD_H
            lo = heatmap_l2_loss(hm_pred, hm_gt)[0]
            hm_pred[idx] = keep
            worst["heatmap"] = max(worst["heatmap"],
                                   _rel(hm_grad[idx], (hi - lo) / (2 * FD_H)))
    for field, w in worst.items():
        assert w <= 1e-4, f"{field}: relative error {w:.2e} > 1e-4"
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    ok(3, f"20 grids, worst relative errors: {summary}")


# -- 4: loss at the optimum --

def test_criterion_04_perfect_prediction():
    rng = np.random.default_rng(404)
    config = GridConfig(320, 320)
    worst_total = 0.0
    for _ in range(50):
        gt = random_junction_set(rng, config, int(rng.integers(1, 12)))
        report = junction_loss(encode(gt, config), gt)
        worst_total = max(worst_total, report.total)
        assert report.loc_c == 0.0 and report.loc_b == 0.0

        # weighted-sum identity on an arbitrary imperfect prediction
        pred = GridEncoding(
            config,
            center_conf=rng.uniform(0, 1, (config.grid_h, config.grid_w)),
            displacement=rng.uniform(-3, 3, (config.grid_h, config.grid_w, 2)),
            bin_conf=rng.uniform(0, 1, (config.grid_h, config.grid_w, config.bins)),
            bin_residual=rng.uniform(-12, 12,
                                     (config.grid_h, config.grid_w, config.bins)))
        w = LossWeights(*rng.uniform(0.1, 2.0, 4))
        r = junction_loss(pred, gt, w)
        recombined = (w.conf_c * r.conf_c + w.loc_c * r.loc_c
                      + w.conf_b * r.conf_b + w.loc_b * r.loc_b)
        assert abs(r.total - recombined) <= 1e-12
    assert worst_total <= 1e-5, f"perfect-prediction loss {worst_total}"
    ok(4, f"50 sets, worst perfect-prediction total {worst_total:.2e}, "
          f"location terms exactly 0, weighted sum to 1e-12")


# -- 5: matcher vs independent assignment oracle --

def test_criterion_05_matcher_oracle():
    rng = np.random.default_rng(505)
    for _ in range(500):
        n_g, n_q = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        gt = [Point(*rng.uniform(0, 100, 2)) for _ in range(n_g)]
        pred = [Point(*rng.uniform(0, 100, 2)) for _ in range(n_q)]
        tol = float(rng.choice([2.0, 5.0, 10.0, 25.0]))
        # a maximum-weight assignment on the 0/1 within-tol matrix
        w = np.array([[float(g.distance_to(q) <= tol) for q in pred] for g in gt])
        rows, cols = linear_sum_assignment(w.reshape(n_g, n_q), maximize=True)
        best = int(w.reshape(n_g, n_q)[rows, cols].sum())
        got = max_matching(near_lists(point_array(gt), point_array(pred), tol), len(pred))
        assert got == best, f"matcher {got} vs optimal {best}"

        gjs = [Junction(p, (Branch(0.0),)) for p in gt]
        qjs = [Junction(p, (Branch(0.0),)) for p in pred]
        pr = junction_pr(gjs, qjs, EvalConfig(tolerance_frac=tol / math.hypot(100, 100)),
                         100, 100)
        matches = pr.matched_gt
        assert pr.matched_pred == matches
        if n_q:
            assert abs(pr.precision * n_q - matches) <= 1e-9
        if n_g:
            assert abs(pr.recall * n_g - matches) <= 1e-9
    ok(5, "matcher = assignment optimum on 500/500 instances, "
          "PR count identity held")


# -- 6: threshold sweep monotonicity --

def test_criterion_06_sweep_monotonicity():
    rng = np.random.default_rng(606)
    config = GridConfig(320, 320)
    sweep = EvalConfig().sweep
    for _ in range(20):
        gt = random_junction_set(rng, config, int(rng.integers(4, 16)))
        enc = encode(gt, config)
        # simulate a detector: scatter the confidences over (0, 1]
        cells = enc.center_conf == 1.0
        enc.center_conf[cells] = rng.uniform(0.05, 1.0, int(cells.sum()))
        counts, recalls = [], []
        for t in sweep:
            decoded = decode(enc, tau_c=t, tau_b=0.5)
            counts.append(len(decoded))
            recalls.append(junction_pr(gt, decoded, EvalConfig(), 320, 320).recall)
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:])), recalls
    ok(6, "20 random detectors, decoded count and recall non-increasing "
          "over the 0.1..0.9 sweep")


# -- 7: Hough baseline recovery --

def separated_mask(rng: np.random.Generator) -> tuple[BinaryMask, list[Segment]]:
    segments: list[Segment] = []
    while len(segments) < int(rng.integers(1, 6)):
        x1, y1 = rng.uniform(15, 305, 2)
        theta = rng.uniform(0, math.pi)
        length = rng.uniform(60, 200)
        x2 = x1 + length * math.cos(theta)
        y2 = y1 + length * math.sin(theta)
        if not (15 <= x2 <= 305 and 15 <= y2 <= 305):
            continue
        cand = Segment(Point(round(x1), round(y1)), Point(round(x2), round(y2)))
        if cand.length < 60:
            continue

        def far(s: Segment) -> bool:
            hit = segment_intersection(cand, s)
            return hit.point is None and not hit.collinear and min(
                point_segment_distance(cand.a, s),
                point_segment_distance(cand.b, s),
                point_segment_distance(s.a, cand),
                point_segment_distance(s.b, cand)) >= 12

        if all(far(s) for s in segments):
            segments.append(cand)
    mask = BinaryMask(320, 320)
    for s in segments:
        for x, y in segment_pixels(s, 320, 320):
            mask.bits[y, x] = True
    return mask, segments


def test_criterion_07_hough_recovery():
    rng = np.random.default_rng(707)
    total = recovered = 0
    for _ in range(50):
        mask, truth = separated_mask(rng)
        found = hough_segments(mask, HoughParams(seed=0))
        for s in truth:
            total += 1
            for f in found:
                straight = max(s.a.distance_to(f.a), s.b.distance_to(f.b))
                flipped = max(s.a.distance_to(f.b), s.b.distance_to(f.a))
                if min(straight, flipped) <= 3.0:
                    recovered += 1
                    break
    rate = recovered / total
    assert rate >= 0.9, f"recovered {recovered}/{total} = {rate:.3f} < 0.9"
    ok(7, f"recovered {recovered}/{total} segments ({rate:.1%}) "
          f"with endpoint error <= 3 px")


# -- 8: format round trips --

def test_criterion_08_format_roundtrips(tmp_path):
    rng = np.random.default_rng(808)
    checks = 0
    for trial in range(10):
        w = int(rng.integers(16, 64))
        h = int(rng.integers(16, 64))
        lines = tuple(
            Segment(Point(float(rng.uniform(0, w)), float(rng.uniform(0, h))),
                    Point(float(rng.uniform(0, w)), float(rng.uniform(0, h))))
            for _ in range(int(rng.integers(1, 6))))
        scene = AnnotatedScene(w, h, lines)
        p1, p2 = str(tmp_path / f"s{trial}a.json"), str(tmp_path / f"s{trial}b.json")
        write_scene(scene, p1)
        write_scene(read_scene(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

        junctions = random_junction_set(rng, GridConfig(w, h, 4, 4, 15),
                                        int(rng.integers(1, 6)))
        p1, p2 = str(tmp_path / f"j{trial}a.json"), str(tmp_path / f"j{trial}b.json")
        write_junctions(w, h, junctions, p1)
        write_junctions(*read_junctions(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

        hm = HeatMap(w, h, rng.uniform(0, 50, (h, w)))
        p1, p2 = str(tmp_path / f"h{trial}a.wfhm"), str(tmp_path / f"h{trial}b.wfhm")
        write_heatmap(hm, p1)
        assert len(open(p1, "rb").read()) == 14 + 4 * w * h
        write_heatmap(read_heatmap(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

        enc = encode(junctions, GridConfig(w, h, 4, 4, 15))
        p1, p2 = str(tmp_path / f"g{trial}a.json"), str(tmp_path / f"g{trial}b.json")
        write_grid(enc, p1)
        write_grid(read_grid(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

        curve = PRCurve(tuple(
            PRPoint(t, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            for t in (0.1, 0.5, 0.9)))
        p1, p2 = str(tmp_path / f"c{trial}a.csv"), str(tmp_path / f"c{trial}b.csv")
        emit_pr_csv(curve, p1)
        emit_pr_csv(read_pr_csv(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        checks += 5

    scene = make_scenes(seed=88, count=1)[0]
    wf = construct_wireframe(derive_junctions(scene), render_target_heatmap(scene),
                             ConstructionParams(omega=0.5))
    p1, p2 = str(tmp_path / "wfa.json"), str(tmp_path / "wfb.json")
    write_wireframe(wf, 320, 320, p1)
    _, _, back = read_wireframe(p1)
    write_wireframe(back, 320, 320, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    checks += 1
    ok(8, f"{checks} emit/read/emit fixed points across scene, junction, "
          f"WFHM, grid, CSV, wireframe formats; WFHM length exact")


# -- 9: CLI determinism --

def test_criterion_09_cli_determinism(tmp_path, capsys):
    scene = make_scenes(seed=99, count=1)[0]
    scene_path = str(tmp_path / "scene.json")
    write_scene(scene, scene_path)
    jpath, hpath = str(tmp_path / "j.json"), str(tmp_path / "h.wfhm")
    assert main(["derive-gt", "--scene", scene_path,
                 "--out-junctions", jpath, "--out-heatmap", hpath]) == 0

    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"wf_{tag}.json")
        assert main(["construct", "--junctions", jpath, "--heatmap", hpath,
                     "--omega", "0.5", "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]

    evals = []
    for tag in ("a", "b"):
        csv = str(tmp_path / f"curve_{tag}.csv")
        svg = str(tmp_path / f"curve_{tag}.svg")
        assert main(["eval", "junctions", "--gt", jpath, "--pred", jpath,
                     "--csv", csv, "--svg", svg]) == 0
        evals.append((capsys.readouterr().out,
                      open(csv, "rb").read(), open(svg, "rb").read()))
    assert evals[0] == evals[1]
    ok(9, "construct and eval reruns byte-identical (file and stdout)")


# -- 10: operating-point constants --

def test_criterion_10_constants():
    config = GridConfig(320, 320)
    assert config.bins == DEFAULT_BINS == 15
    assert (config.grid_w, config.grid_h) == (DEFAULT_GRID, DEFAULT_GRID) == (60, 60)
    weights = LossWeights()
    assert (weights.conf_c, weights.loc_c, weights.conf_b, weights.loc_b) \
        == (1.0, 0.1, 1.0, 0.1)
    assert DEFAULT_TAU_C == DEFAULT_TAU_B == 0.5
    params = ConstructionParams()
    assert params.omega == 10.0
    assert KAPPA_MIN == 0.6
    assert BOUNDARY_FRAC == 0.05
    assert params.tau_c == params.tau_b == 0.5
    assert EvalConfig().tolerance_frac == 0.01
    assert EvalConfig().tolerance(320, 320) == pytest.approx(
        0.01 * math.hypot(320, 320))
    assert DEFAULT_NEG_POS_RATIO == 7.0
    ok(10, "K=15, grid 60x60, weights (1, 0.1, 1, 0.1), tau 0.5, omega 10, "
           "kappa 0.6, boundary 0.05, tol 0.01*diagonal, ratio 7")
