"""End-to-end command-line tests driven through main(argv)."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wireframe import cli, evaluate
from wireframe.annotate import AnnotatedScene
from wireframe.cli import _parse_sweep, main
from wireframe.evaluate import (DEFAULT_SWEEP, EvalConfig, PRCurve, emit_pr_csv, emit_pr_svg,
                                junction_pr, line_pixel_pr, pool_pr)
from wireframe.formats import (
    FormatError,
    read_heatmap,
    read_junctions,
    read_scene,
    read_wireframe,
    write_grid,
    write_junctions,
    write_scene,
)
from wireframe.geometry import Branch, Junction, Point, Segment, near_lists, normalize_angle
from wireframe.gridcodec import GridConfig, GridEncoding, encode
from wireframe.synth import make_scenes


def seg(x1, y1, x2, y2):
    return Segment(Point(x1, y1), Point(x2, y2))


def cross_scene(path):
    write_scene(AnnotatedScene(32, 32, (seg(4, 4, 28, 28), seg(4, 28, 28, 4))), path)


def test_derive_gt_cross(tmp_path, capsys):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    jpath, hpath = str(tmp_path / "j.json"), str(tmp_path / "h.wfhm")
    assert main(["derive-gt", "--scene", scene,
                 "--out-junctions", jpath, "--out-heatmap", hpath]) == 0
    _, _, junctions = read_junctions(jpath)
    assert len(junctions) == 1 and junctions[0].order == 4
    assert junctions[0].center == Point(16.0, 16.0)
    hm = read_heatmap(hpath)
    assert hm.values.max() > 0


def test_derive_gt_empty_scene(tmp_path):
    scene = str(tmp_path / "scene.json")
    write_scene(AnnotatedScene(16, 16, ()), scene)
    jpath, hpath = str(tmp_path / "j.json"), str(tmp_path / "h.wfhm")
    assert main(["derive-gt", "--scene", scene,
                 "--out-junctions", jpath, "--out-heatmap", hpath]) == 0
    assert read_junctions(jpath) == (16, 16, [])
    assert not read_heatmap(hpath).values.any()


def test_construct_pipeline_and_determinism(tmp_path):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    jpath, hpath = str(tmp_path / "j.json"), str(tmp_path / "h.wfhm")
    main(["derive-gt", "--scene", scene, "--out-junctions", jpath,
          "--out-heatmap", hpath])
    out1, out2 = str(tmp_path / "wf1.json"), str(tmp_path / "wf2.json")
    argv = ["construct", "--junctions", jpath, "--heatmap", hpath,
            "--omega", "0.5"]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    _, _, wf = read_wireframe(out1)
    # X crossing: the centre junction plus four derived stub ends
    assert sum(not j.derived for j in wf.junctions) == 1
    assert len(wf.segments) == 4


def test_construct_rejects_dimension_mismatch(tmp_path, capsys):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    jpath, hpath = str(tmp_path / "j.json"), str(tmp_path / "h.wfhm")
    main(["derive-gt", "--scene", scene, "--out-junctions", jpath,
          "--out-heatmap", hpath])
    other = str(tmp_path / "other.json")
    write_junctions(64, 64, [], other)
    rc = main(["construct", "--junctions", other, "--heatmap", hpath,
               "--out", str(tmp_path / "wf.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_construct_out_a_directory_exits_3(tmp_path, capsys):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    jpath, hpath = str(tmp_path / "j.json"), str(tmp_path / "h.wfhm")
    main(["derive-gt", "--scene", scene, "--out-junctions", jpath, "--out-heatmap", hpath])
    capsys.readouterr()
    rc = main(["construct", "--junctions", jpath, "--heatmap", hpath, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1 and str(tmp_path) in err


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--junctions", "x"])  # missing required flags
    assert exc.value.code == 2


def test_missing_file_exits_3(tmp_path, capsys):
    rc = main(["derive-gt", "--scene", str(tmp_path / "nope.json"),
               "--out-junctions", str(tmp_path / "j.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


JUNCTION_FILE = '{"width": 8, "height": 8, "junctions": [%s]}'
# a 1x1 grid with 2 bins; %s are the config's image_w, grid_w and bins
GRID_FILE = ('{"config": {"image_w": %s, "image_h": 8, "grid_w": %s, "grid_h": 1, '
             '"bins": %s}, "center_conf": [[0]], "displacement": [[[0, 0]]], '
             '"bin_conf": [[[0, 0]]], "bin_residual": [[[0, 0]]]}')
# the same grid with a valid config; %s is the center_conf leaf
GRID_LEAF_FILE = GRID_FILE.replace("[[0]]", "[[%s]]") % ("8", "1", "2", "%s")


@pytest.mark.parametrize("command, doc", [
    ("eval", JUNCTION_FILE % '{"x": 1, "y": 1, "branches": [{"score": 1}]}'),
    ("eval", JUNCTION_FILE % '{"x": "left", "y": 1, "branches": []}'),
    ("derive-gt", '{"width": 8, "height": 8, "lines": 5}'),
    ("derive-gt", '{"width": 8, "height": 8, "lines": [["a", 1, 2, 3]]}'),
    ("eval", JUNCTION_FILE % '{"x": true, "y": 1, "branches": []}'),
    ("derive-gt", '{"width": true, "height": 8, "lines": []}'),
    ("eval", JUNCTION_FILE % '{"x": 1, "y": 1, "derived": "no", "branches": []}'),
    ("loss", GRID_FILE % ("8", "1", "2.5")),
    ("loss", GRID_FILE % ("8", "true", "2")),
    ("loss", GRID_FILE % ("8.5", "1", "2")),
    ("loss", GRID_LEAF_FILE % '"0.5"'),
    ("loss", GRID_LEAF_FILE % "true"),
    ("loss", GRID_LEAF_FILE % "null"),
    ("loss", GRID_LEAF_FILE % "Infinity"),
    ("loss", GRID_LEAF_FILE % ("[" * 40 + "0" + "]" * 40)),
    ("derive-gt", '{"width": 8, "height": 8, "lines": [[%s, 0, 1, 1]]}' % ("9" * 5000)),
    ("derive-gt", "[" * 100000 + "]" * 100000),
], ids=["branch-without-theta", "non-numeric-x", "lines-not-a-list", "non-numeric-row",
        "boolean-x", "boolean-width", "string-derived", "float-bins", "boolean-grid-w",
        "float-image-w", "string-grid-leaf", "boolean-grid-leaf", "null-grid-leaf",
        "infinite-grid-leaf", "deeply-nested-grid-leaf", "5000-digit-int",
        "nested-past-recursion-limit"])
def test_malformed_file_exits_3(tmp_path, capsys, command, doc):
    path, scene = str(tmp_path / "bad.json"), str(tmp_path / "scene.json")
    open(path, "w").write(doc)
    write_scene(AnnotatedScene(8, 8, ()), scene)
    argv = {
        "eval": ["eval", "junctions", "--gt", path, "--pred", path],
        "derive-gt": ["derive-gt", "--scene", path, "--out-junctions",
                      str(tmp_path / "j.json")],
        "loss": ["loss", "--pred-grid", path, "--scene", scene],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ['"1"', '" 1e3 "', '"1_000"'])
def test_numeric_string_in_scene_line_exits_3(tmp_path, capsys, value):
    path = tmp_path / "scene.json"
    path.write_text('{"width": 8, "height": 8, "lines": [[%s, 0, 2.5, 1]]}' % value)
    assert main(["derive-gt", "--scene", str(path), "--out-junctions",
                 str(tmp_path / "j.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"lines[0]: {json.loads(value)!r} is not a finite number" in err


def old_parse_sweep(spec):
    """The values _parse_sweep gave before it had limits, for a spec it took."""
    start, stop, step = (float(v) for v in spec.split(":"))
    values = []
    t = start
    while t <= stop + 1e-9:
        values.append(round(t, 9))
        t += step
    return tuple(values)


BAD_SWEEPS = [
    "0.5:1:1e-17",  # t += step never moves t
    "0:inf:0.1", "nan:1:0.1", "0:1:nan", "0:1:inf", "-inf:0:1",  # non-finite parts
    "1:0:0.1",  # start > stop
    "0:1:0.0001", "0:10000:1",  # 10,001 thresholds
    "9007199254740991:9007199254740999:1",  # t sticks at 2**53 after one step
    "5e-324:1e-323:5e-324",  # stop + 1e-9 lies 2e14 steps away
]


def test_parse_sweep():
    assert _parse_sweep("0.1:0.9:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    assert _parse_sweep("0.5:0.5:1") == (0.5,)
    with pytest.raises(FormatError):
        _parse_sweep("0.1:0.9")
    with pytest.raises(FormatError):
        _parse_sweep("0.1:0.9:0")
    for spec in BAD_SWEEPS:
        with pytest.raises(FormatError):
            _parse_sweep(spec)
    # the most thresholds; a stop - start that overflows while the count does not
    assert _parse_sweep("0:9999:1") == tuple(float(v) for v in range(10_000))
    assert _parse_sweep("0:0.9999:0.0001") == old_parse_sweep("0:0.9999:0.0001")
    assert len(_parse_sweep("0:0.9999:0.0001")) == 10_000
    assert _parse_sweep("-1e308:1e308:1e308") == (-1e308, 0.0, 1e308)


@given(st.floats(-10, 10), st.floats(0, 12),
       st.sampled_from([1e-3, 0.01, 0.1, 1 / 3, 0.25, 1.0, 7.0]) | st.floats(1e-3, 10))
@settings(max_examples=200, deadline=None)
@example(0.0, 0.9999, 0.0001)
@example(0.0, 1.0, 0.0001)
@example(0.1, 0.8, 0.1)
def test_parse_sweep_keeps_every_sweep_of_at_most_the_limit(start, span, step):
    spec = f"{start!r}:{start + span!r}:{step!r}"
    want = old_parse_sweep(spec)
    if len(want) <= 10_000:
        assert _parse_sweep(spec) == want
    else:
        with pytest.raises(FormatError):
            _parse_sweep(spec)


@pytest.mark.parametrize("spec", BAD_SWEEPS)
def test_eval_bad_sweep_exits_3(tmp_path, capsys, spec):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    assert main(["eval", "lines", "--gt", scene, "--pred", scene, f"--sweep={spec}"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_eval_junctions_identical(tmp_path, capsys):
    jpath = str(tmp_path / "j.json")
    write_junctions(32, 32, [Junction(Point(10, 10), (Branch(0.0),), 1.0),
                             Junction(Point(20, 5), (Branch(90.0),), 1.0)], jpath)
    assert main(["eval", "junctions", "--gt", jpath, "--pred", jpath]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.endswith(",1,1") for line in lines)
    assert lines[0].startswith("0.1,")


def test_eval_junctions_threshold_filters(tmp_path, capsys):
    gt, pred = str(tmp_path / "gt.json"), str(tmp_path / "pred.json")
    write_junctions(32, 32, [Junction(Point(10, 10), (Branch(0.0),), 1.0)], gt)
    write_junctions(32, 32, [Junction(Point(10, 10), (Branch(0.0),), 0.45)], pred)
    main(["eval", "junctions", "--gt", gt, "--pred", pred])
    lines = capsys.readouterr().out.strip().splitlines()
    # confidence 0.45 survives t in {0.1..0.4} and is dropped after
    assert lines[3] == "0.4,1,1"
    assert lines[4] == "0.5,1,0"


def test_eval_directory_pairing(tmp_path, capsys):
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir(), pred_dir.mkdir()
    a = [Junction(Point(8, 8), (Branch(0.0),), 1.0)]
    write_junctions(32, 32, a, str(gt_dir / "a.json"))
    write_junctions(32, 32, a, str(gt_dir / "b.json"))
    write_junctions(32, 32, a, str(pred_dir / "a.json"))
    # GT "b.json" has no prediction: counts as an empty detection set
    assert main(["eval", "junctions", "--gt", str(gt_dir),
                 "--pred", str(pred_dir), "--sweep", "0.5:0.5:1"]) == 0
    assert capsys.readouterr().out.strip() == "0.5,1,0.5"

    write_junctions(32, 32, a, str(pred_dir / "stray.json"))
    rc = main(["eval", "junctions", "--gt", str(gt_dir), "--pred", str(pred_dir)])
    assert rc == 3
    assert "stray.json" in capsys.readouterr().err


def test_eval_lines_and_csv(tmp_path, capsys):
    gt, pred = str(tmp_path / "gt.json"), str(tmp_path / "pred.json")
    write_scene(AnnotatedScene(100, 100, (seg(10, 50, 90, 50),)), gt)
    write_scene(AnnotatedScene(100, 100, (seg(10, 50, 90, 50),)), pred)
    csv = str(tmp_path / "curve.csv")
    svg = str(tmp_path / "curve.svg")
    assert main(["eval", "lines", "--gt", gt, "--pred", pred,
                 "--sweep", "0.5:0.5:1", "--csv", csv, "--svg", svg]) == 0
    assert capsys.readouterr().out.strip() == "0.5,1,1"
    assert open(csv).read() == "threshold,precision,recall\n0.5,1,1\n"
    assert open(svg).read().startswith("<svg")


def test_eval_lines_counts_once_per_image(tmp_path, monkeypatch):
    # two images, the default sweep: one line PR count per image serves every
    # threshold, and the files equal those built from a count per threshold
    scenes = make_scenes(seed=3, count=2)
    preds = [AnnotatedScene(s.width, s.height, tuple(
        seg(l.a.x + 2, l.a.y + 1, l.b.x + 2, l.b.y + 1) for l in s.lines[1:])) for s in scenes]
    for side, items in (("gt", scenes), ("pred", preds)):
        (tmp_path / side).mkdir()
        for k, scene in enumerate(items):
            write_scene(scene, str(tmp_path / side / f"{k}.json"))
    config = EvalConfig()
    want = PRCurve(tuple(pool_pr(t, [
        line_pixel_pr(list(g.lines), list(p.lines), config, g.width, g.height)
        for g, p in zip(scenes, preds)]) for t in DEFAULT_SWEEP))
    emit_pr_csv(want, str(tmp_path / "want.csv"))
    emit_pr_svg(want, str(tmp_path / "want.svg"))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return line_pixel_pr(*args, **kwargs)

    monkeypatch.setattr(cli, "line_pixel_pr", counted)
    assert main(["eval", "lines", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                 "--csv", str(tmp_path / "got.csv"), "--svg", str(tmp_path / "got.svg")]) == 0
    assert len(calls) == 2
    for ext in ("csv", "svg"):
        assert (tmp_path / f"got.{ext}").read_bytes() == (tmp_path / f"want.{ext}").read_bytes()


def test_eval_junctions_counts_once_per_image(tmp_path, monkeypatch):
    # two images, the default sweep: the pairs within tolerance are found once
    # per image, and the files equal those built from a junction PR per threshold
    rng = np.random.default_rng(5)
    for side in ("gt", "pred"):
        (tmp_path / side).mkdir()
    for k in range(2):
        xy = rng.uniform(0, 64, (12, 2))
        gt = [Junction(Point(x, y), (Branch(0.0),), 1.0) for x, y in xy.tolist()]
        near = xy[:10] + rng.uniform(-1.5, 1.5, (10, 2))  # 10 near ones and 4 strays
        pred = [Junction(Point(x, y), (Branch(90.0),), c) for (x, y), c in zip(
            np.vstack([near, rng.uniform(0, 64, (4, 2))]).tolist(), rng.uniform(0, 1, 14).tolist())]
        write_junctions(64, 64, gt, str(tmp_path / "gt" / f"{k}.json"))
        write_junctions(64, 64, pred, str(tmp_path / "pred" / f"{k}.json"))
    images = [(read_junctions(str(tmp_path / "gt" / f"{k}.json")),
               read_junctions(str(tmp_path / "pred" / f"{k}.json"))[2]) for k in range(2)]
    config = EvalConfig()
    want = PRCurve(tuple(pool_pr(t, [
        junction_pr(g, [j for j in p if j.confidence > t], config, w, h)
        for (w, h, g), p in images]) for t in DEFAULT_SWEEP))
    assert len({(p.precision, p.recall) for p in want.points}) > 3  # the sweep moves
    emit_pr_csv(want, str(tmp_path / "want.csv"))
    emit_pr_svg(want, str(tmp_path / "want.svg"))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return near_lists(*args, **kwargs)

    monkeypatch.setattr(evaluate, "near_lists", counted)
    assert main(["eval", "junctions", "--gt", str(tmp_path / "gt"),
                 "--pred", str(tmp_path / "pred"),
                 "--csv", str(tmp_path / "got.csv"), "--svg", str(tmp_path / "got.svg")]) == 0
    assert len(calls) == 2
    for ext in ("csv", "svg"):
        assert (tmp_path / f"got.{ext}").read_bytes() == (tmp_path / f"want.{ext}").read_bytes()


def test_eval_lines_disjoint(tmp_path, capsys):
    gt, pred = str(tmp_path / "gt.json"), str(tmp_path / "pred.json")
    write_scene(AnnotatedScene(100, 100, (seg(10, 20, 90, 20),)), gt)
    write_scene(AnnotatedScene(100, 100, (seg(10, 80, 90, 80),)), pred)
    main(["eval", "lines", "--gt", gt, "--pred", pred, "--sweep", "0.5:0.5:1"])
    assert capsys.readouterr().out.strip() == "0.5,0,0"


def test_loss_perfect_and_zero(tmp_path, capsys):
    scene_path = str(tmp_path / "scene.json")
    cross_scene(scene_path)
    scene = read_scene(scene_path)
    from wireframe.annotate import derive_junctions
    cfg = GridConfig(32, 32, 8, 8, 15)
    perfect = str(tmp_path / "perfect.json")
    write_grid(encode(derive_junctions(scene), cfg), perfect)
    assert main(["loss", "--pred-grid", perfect, "--scene", scene_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"total", "conf_c", "loc_c", "conf_b", "loc_b"}
    assert report["total"] <= 1e-5
    assert report["loc_c"] == 0.0 and report["loc_b"] == 0.0

    zero = str(tmp_path / "zero.json")
    write_grid(GridEncoding(cfg), zero)
    main(["loss", "--pred-grid", zero, "--scene", scene_path])
    assert json.loads(capsys.readouterr().out)["total"] > 0


def test_loss_reruns_identical(tmp_path, capsys):
    scene_path = str(tmp_path / "scene.json")
    cross_scene(scene_path)
    zero = str(tmp_path / "zero.json")
    write_grid(GridEncoding(GridConfig(32, 32, 8, 8, 15)), zero)
    argv = ["loss", "--pred-grid", zero, "--scene", scene_path, "--seed", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_loss_rejects_dimension_mismatch(tmp_path, capsys):
    scene_path = str(tmp_path / "scene.json")
    cross_scene(scene_path)
    grid = str(tmp_path / "grid.json")
    write_grid(GridEncoding(GridConfig(64, 64, 8, 8, 15)), grid)
    assert main(["loss", "--pred-grid", grid, "--scene", scene_path]) == 3
    assert "error:" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    jpath, hpath = str(tmp_path / "j.json"), str(tmp_path / "h.wfhm")
    main(["derive-gt", "--scene", scene, "--out-junctions", jpath,
          "--out-heatmap", hpath])
    cfg = str(tmp_path / "opts.cfg")
    open(cfg, "w").write("# heat values are scene lengths, so threshold low\n"
                         "omega = 0.5\n")
    from_cfg = str(tmp_path / "wf_cfg.json")
    assert main(["construct", "--junctions", jpath, "--heatmap", hpath,
                 "--config", cfg, "--out", from_cfg]) == 0
    assert read_wireframe(from_cfg)[2].segments

    # a flag beats the config file: omega above every heat value kills the mask
    from_flag = str(tmp_path / "wf_flag.json")
    assert main(["construct", "--junctions", jpath, "--heatmap", hpath,
                 "--config", cfg, "--omega", "1000", "--out", from_flag]) == 0
    wf = read_wireframe(from_flag)[2]
    assert not wf.segments


def test_config_file_rejects_bad_lines(tmp_path, capsys):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    cfg = str(tmp_path / "opts.cfg")
    open(cfg, "w").write("omega 0.5\n")
    rc = main(["derive-gt", "--scene", scene, "--config", cfg,
               "--out-junctions", str(tmp_path / "j.json")])
    assert rc == 3
    assert "key = value" in capsys.readouterr().err


def test_hough_cli_and_determinism(tmp_path):
    import numpy as np
    from wireframe.annotate import HeatMap
    from wireframe.formats import write_heatmap
    values = np.zeros((64, 64))
    values[32, 4:60] = 56.0
    hpath = str(tmp_path / "h.wfhm")
    write_heatmap(HeatMap(64, 64, values), hpath)
    out1, out2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
    assert main(["hough", "--heatmap", hpath, "--omega", "0.5",
                 "--seed", "3", "--out", out1]) == 0
    assert main(["hough", "--heatmap", hpath, "--omega", "0.5",
                 "--seed", "3", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    lines = read_scene(out1).lines
    assert len(lines) == 1
    (s,) = lines
    assert abs(s.a.y - 32) <= 1 and abs(s.b.y - 32) <= 1
    assert abs(min(s.a.x, s.b.x) - 4) <= 2 and abs(max(s.a.x, s.b.x) - 59) <= 2


@pytest.mark.parametrize("flag, value", [
    ("--merge-radius", "nan"), ("--merge-radius", "inf"), ("--merge-radius", "-1"),
])
def test_derive_gt_bad_merge_radius_exits_3(tmp_path, capsys, flag, value):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    rc = main(["derive-gt", "--scene", scene, "--out-junctions", str(tmp_path / "j.json"),
               flag, value])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-0.5"])
def test_eval_bad_tol_frac_exits_3(tmp_path, capsys, value):
    jpath = str(tmp_path / "j.json")
    write_junctions(32, 32, [Junction(Point(10, 10), (Branch(0.0),), 1.0)], jpath)
    assert main(["eval", "junctions", "--gt", jpath, "--pred", jpath,
                 "--tol-frac", value]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_loss_accepts_integer_grid_config(tmp_path, capsys):
    grid, scene = str(tmp_path / "grid.json"), str(tmp_path / "scene.json")
    open(grid, "w").write(GRID_FILE % ("8", "1", "2"))
    write_scene(AnnotatedScene(8, 8, ()), scene)
    assert main(["loss", "--pred-grid", grid, "--scene", scene]) == 0


@pytest.mark.parametrize("command", ["hough", "loss"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_negative_seed_exits_3(tmp_path, capsys, command, how):
    scene = str(tmp_path / "scene.json")
    cross_scene(scene)
    if command == "hough":
        hpath = str(tmp_path / "h.wfhm")
        main(["derive-gt", "--scene", scene, "--out-heatmap", hpath])
        argv = ["hough", "--heatmap", hpath, "--out", str(tmp_path / "s.json")]
    else:
        grid = str(tmp_path / "grid.json")
        write_grid(GridEncoding(GridConfig(32, 32, 8, 8, 15)), grid)
        argv = ["loss", "--pred-grid", grid, "--scene", scene]
    if how == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = str(tmp_path / "opts.cfg")
        open(cfg, "w").write("seed = -3\n")
        argv += ["--config", cfg]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_hough_bad_omega_exits_3(tmp_path, capsys, value):
    # the construct rule: omega is finite and >= 0 (-1 would keep every pixel)
    scene, hpath = str(tmp_path / "scene.json"), str(tmp_path / "h.wfhm")
    cross_scene(scene)
    main(["derive-gt", "--scene", scene, "--out-heatmap", hpath])
    out = tmp_path / "s.json"
    assert main(["hough", "--heatmap", hpath, "--omega", value, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "omega" in err and err.count("\n") == 1
    assert not out.exists()


# -- the option table and the config-file contract --

# a valid value for every option of cli._OPTIONS that changes the output of
# command_argv's run
OPTION_VALUES = {"merge_radius": "8", "omega": "100", "tau_c": "0.3", "tau_b": "0.3",
                 "delta_ray": "5", "rho_nms": "3", "seed": "3", "tol_frac": "0.02",
                 "sweep": "0.2:0.8:0.3", "weights": "1,0.2,1,0.3", "rmax": "3"}


def command_argv(tmp_path, command):
    """argv for one run of a subcommand, all outputs under tmp_path/out.  The
    inputs, written once to tmp_path: a synthetic scene, its junctions and
    heat map, predicted junctions (moved, turned, with spread confidences and
    a weaker near-duplicate each) and a random grid prediction."""
    scene, gt, pred, hm, grid = (str(tmp_path / n) for n in (
        "scene.json", "gt.json", "pred.json", "h.wfhm", "grid.json"))
    if not os.path.exists(scene):
        write_scene(make_scenes(seed=3, count=1)[0], scene)
        assert main(["derive-gt", "--scene", scene, "--out-junctions", gt,
                     "--out-heatmap", hm]) == 0
        rng = np.random.default_rng(0)
        w, h, junctions = read_junctions(gt)
        moved = []
        for j in junctions:
            x, y = j.center.x + rng.uniform(-5, 5), j.center.y + rng.uniform(-5, 5)
            branches = tuple(Branch(normalize_angle(b.angle_deg + rng.uniform(-8, 8)),
                                    rng.uniform(0, 1)) for b in j.branches)
            score = rng.uniform(0, 1)
            moved += [Junction(Point(x, y), branches, score),
                      Junction(Point(x + 2.5, y), branches, 0.9 * score)]
        write_junctions(w, h, moved, pred)
        # cells of 5.3 px and bins of 24 degrees: no two junctions of a synth scene
        # (8 px apart, crossing at >= 25 degrees) share a cell or a bin
        n, k = 60, 15
        write_grid(GridEncoding(GridConfig(w, h, n, n, k), rng.uniform(0, 1, (n, n)),
                                rng.uniform(-2, 2, (n, n, 2)), rng.uniform(0, 1, (n, n, k)),
                                rng.uniform(-12, 12, (n, n, k))), grid)
    out = str(tmp_path / "out")
    return {
        "derive-gt": ["derive-gt", "--scene", scene, "--out-junctions", out + ".json",
                      "--out-heatmap", out + ".wfhm"],
        "construct": ["construct", "--junctions", pred, "--heatmap", hm, "--out", out + ".json"],
        "hough": ["hough", "--heatmap", hm, "--out", out + ".json"],
        "eval": ["eval", "junctions", "--gt", gt, "--pred", pred, "--csv", out + ".csv"],
        "loss": ["loss", "--pred-grid", grid, "--scene", scene],
    }[command]


def run_outputs(tmp_path, capsys, argv):
    """Exit code, stdout and the bytes of every output file of one run."""
    for old in tmp_path.glob("out.*"):
        old.unlink()
    rc = main(argv)
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("out.*"))}
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("command, name", [
    (command, name) for command, options in cli._OPTIONS.items() for name in options])
def test_option_by_flag_or_config_writes_the_same_bytes(tmp_path, capsys, command, name):
    argv = command_argv(tmp_path, command)
    value = OPTION_VALUES[name]
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"{name} = {value}\n")
    by_flag = run_outputs(tmp_path, capsys, argv + ["--" + name.replace("_", "-"), value])
    by_file = run_outputs(tmp_path, capsys, argv + ["--config", str(cfg)])
    assert by_flag[0] == 0 and (by_flag[1] or by_flag[2])
    assert by_file == by_flag
    assert run_outputs(tmp_path, capsys, argv) != by_flag  # the option reaches the library


def test_every_subcommand_keeps_its_options():
    assert {command: sorted(options) for command, options in cli._OPTIONS.items()} == {
        "derive-gt": ["merge_radius"],
        "construct": ["delta_ray", "omega", "rho_nms", "tau_b", "tau_c"],
        "hough": ["omega", "seed"],
        "eval": ["sweep", "tol_frac"],
        "loss": ["merge_radius", "rmax", "seed", "weights"],
    }


def assert_one_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(w in err for w in words)


def test_config_file_not_utf8_exits_3(tmp_path, capsys):
    argv = command_argv(tmp_path, "construct")
    cfg = tmp_path / "opts.cfg"
    cfg.write_bytes(b"omega = 0.5 \xff\xfe\n")
    assert main(argv + ["--config", str(cfg)]) == 3
    assert_one_error_line(capsys, "opts.cfg")


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("weights", ["a,b,c,d", "1,0.1,1", "1,0.1,1,nan", "1,,1,1"])
def test_loss_bad_weights_exit_3(tmp_path, capsys, how, weights):
    argv = command_argv(tmp_path, "loss")
    if how == "flag":
        argv += ["--weights", weights]
    else:
        (tmp_path / "opts.cfg").write_text(f"weights = {weights}\n")
        argv += ["--config", str(tmp_path / "opts.cfg")]
    assert main(argv) == 3
    assert_one_error_line(capsys, "weights")


@pytest.mark.parametrize("key", ["bogus", "omgea", "out"])
def test_config_key_no_subcommand_takes_exits_3(tmp_path, capsys, key):
    argv = command_argv(tmp_path, "construct")
    (tmp_path / "opts.cfg").write_text(f"omega = 0.5\n{key} = 3\n")
    assert main(argv + ["--config", str(tmp_path / "opts.cfg")]) == 3
    assert_one_error_line(capsys, repr(key))
    assert not (tmp_path / "out.json").exists()


def test_shared_config_file_serves_construct_and_hough(tmp_path, capsys):
    # tau_c is a construct option: hough ignores it, as construct ignores seed
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("omega = 0.5\ntau_c = 0.3\nseed = 3\n")
    for command in ("construct", "hough"):
        argv = command_argv(tmp_path, command)
        shared = run_outputs(tmp_path, capsys, argv + ["--config", str(cfg)])
        own = [f"--{k.replace('_', '-')}={v}" for k, v in
               (("omega", "0.5"), ("tau_c", "0.3"), ("seed", "3")) if k in cli._OPTIONS[command]]
        assert shared[0] == 0 and shared == run_outputs(tmp_path, capsys, argv + own)


def test_hough_config_with_tau_c_exits_0(tmp_path, capsys):
    argv = command_argv(tmp_path, "hough")
    (tmp_path / "opts.cfg").write_text("tau_c = 0.3\n")
    assert main(argv + ["--config", str(tmp_path / "opts.cfg")]) == 0
    assert (tmp_path / "out.json").exists()


def test_derive_gt_scene_past_max_pixels_exits_3(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text('{"width": 100000, "height": 100000, "lines": []}')
    assert main(["derive-gt", "--scene", str(scene), "--out-heatmap",
                 str(tmp_path / "h.wfhm")]) == 3
    assert_one_error_line(capsys, "MAX_PIXELS")
    assert not (tmp_path / "h.wfhm").exists()
