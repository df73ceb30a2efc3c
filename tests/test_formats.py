"""Round trips and validation for the on-disk formats.

Losslessness here means the writer is a fixed point of write -> read ->
write: a second emission is byte-identical to the first.  Values that fit
in 9 significant digits (and float32 for the heat map) also survive
structurally.
"""

import functools
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wireframe.annotate import AnnotatedScene, HeatMap, render_target_heatmap
from wireframe.construct import ConstructionParams, construct_wireframe
from wireframe.annotate import derive_junctions
from wireframe.formats import (
    MAX_PIXELS,
    FormatError,
    _load_sized,
    _round9,
    _spell,
    read_grid,
    read_heatmap,
    read_junctions,
    read_scene,
    read_wireframe,
    write_grid,
    write_heatmap,
    write_junctions,
    write_scene,
    write_in_place,
    write_wireframe,
)
from wireframe.geometry import (
    Branch,
    GeometryError,
    Junction,
    Point,
    Segment,
    Wireframe,
    build_incidence,
    normalize_angle,
    point_array,
    segment_array,
)
from wireframe.gridcodec import GridConfig, GridEncoding, decode, encode
from wireframe.synth import make_scene


def seg(x1, y1, x2, y2):
    return Segment(Point(x1, y1), Point(x2, y2))


def hexagon_scene():
    import math
    pts = [Point(50 + 40 * math.cos(math.radians(60 * k - 90)),
                 50 + 40 * math.sin(math.radians(60 * k - 90))) for k in range(6)]
    # join opposite corners so every segment crosses the two others
    lines = tuple(Segment(pts[k], pts[k + 3]) for k in range(3))
    return AnnotatedScene(100, 100, lines)


# -- scenes --

def test_scene_roundtrip(tmp_path):
    scene = AnnotatedScene(100, 80, (seg(0, 0, 10, 5), seg(2.5, 3.25, 40, 70)))
    p = str(tmp_path / "scene.json")
    write_scene(scene, p)
    back = read_scene(p)
    assert back == scene
    assert list(back.lines) == list(scene.lines)


def test_scene_write_is_fixed_point(tmp_path):
    scene = AnnotatedScene(64, 64, (seg(1 / 3, 0.1, 60.123456789, 63),))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_scene(scene, p1)
    write_scene(read_scene(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_scene_rejects_garbage(tmp_path):
    p = str(tmp_path / "bad.json")
    open(p, "w").write("not json")
    with pytest.raises(FormatError):
        read_scene(p)
    open(p, "w").write('{"width": 10, "height": 10}')
    with pytest.raises(FormatError, match="lines"):
        read_scene(p)
    open(p, "w").write('{"width": 10, "height": 10, "lines": [[0, 0, 1]]}')
    with pytest.raises(FormatError, match="lines\\[0\\]"):
        read_scene(p)
    # endpoint outside the image
    open(p, "w").write('{"width": 10, "height": 10, "lines": [[0, 0, 11, 0]]}')
    with pytest.raises(FormatError):
        read_scene(p)
    open(p, "w").write('{"width": 10.5, "height": 10, "lines": []}')
    with pytest.raises(FormatError, match="integers"):
        read_scene(p)


# -- junction files --

def test_junctions_roundtrip(tmp_path):
    junctions = [
        Junction(Point(3.25, 4.5), (Branch(0.0, 1.0), Branch(90.0, 0.75)), 0.875),
        Junction(Point(10, 20), (Branch(123.456, 0.5),), 1.0),
    ]
    p = str(tmp_path / "j.json")
    write_junctions(32, 32, junctions, p)
    w, h, back = read_junctions(p)
    assert (w, h) == (32, 32)
    assert back == junctions
    p2 = str(tmp_path / "j2.json")
    write_junctions(w, h, back, p2)
    assert open(p, "rb").read() == open(p2, "rb").read()


def test_junctions_validation(tmp_path):
    p = str(tmp_path / "j.json")
    open(p, "w").write('{"width": 8, "height": 8, "junctions": '
                       '[{"x": 1, "y": 1, "score": 1.5, "branches": []}]}')
    with pytest.raises(FormatError, match="score"):
        read_junctions(p)
    open(p, "w").write('{"width": 8, "height": 8, "junctions": '
                       '[{"x": 1, "y": 1, "score": 0.5, '
                       '"branches": [{"theta": 360.0, "score": 1}]}]}')
    with pytest.raises(FormatError, match="theta"):
        read_junctions(p)
    open(p, "w").write('{"width": 8, "height": 8}')
    with pytest.raises(FormatError):
        read_junctions(p)


def test_junctions_angle_rounding_to_360_wraps(tmp_path):
    # 9 significant digits round this angle up to 360.0, outside [0, 360)
    j = Junction(Point(1.0, 1.0), (Branch(359.9999999996),))
    p = str(tmp_path / "j.json")
    write_junctions(8, 8, [j], p)
    _, _, back = read_junctions(p)
    assert back[0].branches[0].angle_deg == 0.0
    wf = Wireframe([j])
    write_wireframe(wf, 8, 8, p)
    assert read_wireframe(p)[2].junctions[0].branches[0].angle_deg == 0.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
@settings(deadline=None)
@example([-1e-12])  # just below 0: 360 - 1e-12 has 15 digits, and rounds to 360
@example([-3e-10])
@example([-1e-300])
@example([359.99999999])
@example([359.9999999996])
@example([719.9999999999])
@example([-360.0])
@example([359.9999, 359.99989999, -0.0, 1e300])
def test_branch_angles_write_a_fixed_point(angles):
    # every angle is written as a 9-digit one in [0, 360) that reads back
    # and writes the same bytes again, in junction and wireframe files
    j = Junction(Point(1.0, 1.0), tuple(Branch(a) for a in angles))
    with tempfile.TemporaryDirectory() as d:
        p1, p2 = os.path.join(d, "a.json"), os.path.join(d, "b.json")
        write_junctions(8, 8, [j], p1)
        write_junctions(*read_junctions(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        for b in read_junctions(p1)[2][0].branches:
            assert 0.0 <= b.angle_deg < 360.0 and _round9(b.angle_deg) == b.angle_deg
        write_wireframe(Wireframe([j]), 8, 8, p1)
        w, h, wf = read_wireframe(p1)
        write_wireframe(wf, w, h, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_junctions_empty(tmp_path):
    p = str(tmp_path / "j.json")
    write_junctions(16, 16, [], p)
    assert read_junctions(p) == (16, 16, [])


# -- the image-size limit --

@pytest.mark.parametrize("kind", ["scene", "junctions", "wireframe"])
def test_json_readers_take_at_most_max_pixels(tmp_path, kind):
    # 8192^2 is the most; 8192 x 8193, or a product past 64 bits, is rejected
    read, rest = {"scene": (read_scene, '"lines": []'),
                  "junctions": (read_junctions, '"junctions": []'),
                  "wireframe": (read_wireframe, '"junctions": [], "segments": []')}[kind]
    p = tmp_path / "doc.json"
    assert MAX_PIXELS == 8192 * 8192
    p.write_text('{"width": 8192, "height": 8192, %s}' % rest)
    assert read(str(p))
    for w, h in ((8192, 8193), (100000, 100000), (2 ** 40, 2 ** 40)):
        p.write_text('{"width": %d, "height": %d, %s}' % (w, h, rest))
        with pytest.raises(FormatError, match=f"{w}x{h} has more than MAX_PIXELS"):
            read(str(p))


def test_heatmap_and_grid_take_at_most_max_pixels(tmp_path):
    p = tmp_path / "h.wfhm"
    # the header alone is checked: no 256 MB body is written or read
    p.write_bytes(struct.pack("<4sHII", b"WFHM", 1, 8193, 8192))
    with pytest.raises(FormatError, match="8193x8192 has more than MAX_PIXELS"):
        read_heatmap(str(p))
    p.write_bytes(struct.pack("<4sHII", b"WFHM", 1, 2 ** 32 - 1, 2 ** 32 - 1))
    with pytest.raises(FormatError, match="MAX_PIXELS"):
        read_heatmap(str(p))
    g = tmp_path / "grid.json"
    for w, ok in ((8192, True), (8193, False)):
        write_grid(GridEncoding(GridConfig(w, 8192, 1, 1, 2)), str(g))
        if ok:
            assert read_grid(str(g)).config.image_w == w
        else:
            with pytest.raises(FormatError, match="MAX_PIXELS"):
                read_grid(str(g))


# -- WFHM heat maps --

def test_heatmap_roundtrip_and_length(tmp_path):
    values = np.array([[0.0, 1.5], [2.25, 300.0]])
    hm = HeatMap(2, 2, values)
    p = str(tmp_path / "h.wfhm")
    write_heatmap(hm, p)
    blob = open(p, "rb").read()
    assert len(blob) == 14 + 4 * 2 * 2
    assert blob[:4] == b"WFHM"
    back = read_heatmap(p)
    assert back.width == 2 and back.height == 2
    # all sample values are exact in float32
    assert np.array_equal(back.values, values)


def test_heatmap_write_is_fixed_point(tmp_path):
    hm = render_target_heatmap(hexagon_scene())
    p1, p2 = str(tmp_path / "a.wfhm"), str(tmp_path / "b.wfhm")
    write_heatmap(hm, p1)
    write_heatmap(read_heatmap(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_heatmap_rejects_bad_container(tmp_path):
    p = str(tmp_path / "h.wfhm")
    open(p, "wb").write(b"JUNK")
    with pytest.raises(FormatError, match="truncated"):
        read_heatmap(p)
    open(p, "wb").write(struct.pack("<4sHII", b"XXXX", 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        read_heatmap(p)
    open(p, "wb").write(struct.pack("<4sHII", b"WFHM", 2, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        read_heatmap(p)
    open(p, "wb").write(struct.pack("<4sHII", b"WFHM", 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(FormatError, match="length"):
        read_heatmap(p)
    for bad in (-1.0, float("nan"), float("inf"), -float("inf")):
        open(p, "wb").write(struct.pack("<4sHII", b"WFHM", 1, 1, 1)
                            + struct.pack("<f", bad))
        with pytest.raises(FormatError, match=">= 0"):
            read_heatmap(p)


# -- wireframes --

def two_point_wireframe():
    a = Junction(Point(0.0, 0.0), (Branch(0.0),), 1.0)
    b = Junction(Point(10.0, 0.0), (Branch(180.0),), 1.0, derived=True)
    segments = [Segment(a.center, b.center)]
    return Wireframe([a, b], np.array([[0, 1]]), build_incidence(
        point_array([a.center, b.center]), segment_array(segments), tol=1.0))


def test_wireframe_roundtrip(tmp_path):
    wf = two_point_wireframe()
    p = str(tmp_path / "wf.json")
    write_wireframe(wf, 20, 20, p)
    w, h, back = read_wireframe(p)
    assert (w, h) == (20, 20)
    assert back.junctions == wf.junctions
    assert [j.derived for j in back.junctions] == [False, True]
    assert back.segments == wf.segments
    assert np.array_equal(back.incidence, wf.incidence)
    p2 = str(tmp_path / "wf2.json")
    write_wireframe(back, w, h, p2)
    assert open(p, "rb").read() == open(p2, "rb").read()


def test_wireframe_roundtrip_from_pipeline(tmp_path):
    scene = hexagon_scene()
    wf = construct_wireframe(derive_junctions(scene),
                             render_target_heatmap(scene),
                             ConstructionParams(omega=0.5))
    assert wf.segments  # meaningful instance
    p = str(tmp_path / "wf.json")
    write_wireframe(wf, scene.width, scene.height, p)
    _, _, back = read_wireframe(p)
    assert len(back.junctions) == len(wf.junctions)
    assert np.array_equal(back.incidence, wf.incidence)
    # endpoints survive up to 9 significant digits
    for s, t in zip(back.segments, wf.segments):
        assert abs(s.a.x - t.a.x) < 1e-6 and abs(s.b.y - t.b.y) < 1e-6


def test_wireframe_with_twin_centres_rewrites_the_same_bytes(tmp_path):
    # roundtrip-320 pool scene 22 has a detected junction and a derived twin
    # 3e-14 px from it, one 9-digit point in the file; the reader keeps the
    # file's segment rows, so a re-write gives the same bytes
    scene = make_scene(np.random.default_rng([320, 22]), 320, 320)
    wf = construct_wireframe(derive_junctions(scene), render_target_heatmap(scene),
                             ConstructionParams(omega=0.5))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_wireframe(wf, 320, 320, p1)
    w, h, back = read_wireframe(p1)
    assert len({(j.center.x, j.center.y) for j in back.junctions}) < len(back.junctions)
    write_wireframe(back, w, h, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_wireframe_write_requires_indexed_endpoints(tmp_path):
    # segments are rows of junction indices: in range, and two centres apart
    # (the reader's Segment check), or no file is opened
    wf, p = two_point_wireframe(), tmp_path / "x.json"
    for ends, why in (([[0, 2]], r"segments row 0 is out of range"),
                      ([[0, 1], [-1, 0]], r"segments row 1 is out of range"),
                      ([[0.0, 1.0]], r"segments must be a \(K, 2\) integer array"),
                      ([[0, 1], [1, 1]], r"segments\[1\]: degenerate segment at \(10.0, 0.0\)")):
        with pytest.raises(FormatError, match=why):
            write_wireframe(Wireframe(wf.junctions, np.array(ends), wf.incidence[:0]), 20, 20,
                            str(p))
        assert not p.exists()


@pytest.mark.parametrize("incidence, why", [
    ([[0, 0], [2, 0]], "incidence row 1 is out of range"),  # junction past the end
    ([[0, 0], [1, 1]], "incidence row 1 is out of range"),  # segment past the end
    ([[1, 0], [-1, 0]], "incidence row 1 is out of range"),
    (np.ones((3, 2)), "incidence must be a"),
    (np.ones((2, 1), dtype=np.int64), "incidence must be a"),  # the dense N x M W
    (np.zeros(2, dtype=np.int64), "incidence must be a"),
], ids=["junction", "segment", "negative", "floats", "dense", "flat"])
def test_wireframe_write_rejects_bad_incidence_rows(tmp_path, incidence, why):
    wf = two_point_wireframe()
    p = tmp_path / "x.json"
    with pytest.raises(FormatError, match=why):
        write_wireframe(Wireframe(wf.junctions, wf.ends, np.asarray(incidence)), 20, 20, str(p))
    assert not p.exists()


def reader_error(tmp_path, doc, read) -> str:
    """The reader's message for doc, with its path cut off."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))  # NaN and Infinity as json spells them
    with pytest.raises(FormatError) as e:
        read(str(p))
    p.unlink()
    return str(e.value).removeprefix(f"{p}: ")


@pytest.mark.parametrize("bad", [
    Junction(Point(1.0, 2.0), (Branch(90.0),), 1.3),
    Junction(Point(1.0, 2.0), (Branch(90.0),), float("nan")),
    Junction(Point(1.0, 2.0), (Branch(90.0), Branch(45.0, -0.5))),
    Junction(Point(1.0, 2.0), (Branch(90.0), Branch(float("inf"))), 0.5),
    Junction(Point(1.0, 2.0), (Branch(float("-inf"), 2.0),), 1.5),  # the score comes first
    Junction(Point(1.0, 2.0), (Branch(float("nan"), 2.0),)),  # theta before its score
], ids=["score", "nan-score", "branch-score", "inf-theta", "first-field", "nan-theta"])
@pytest.mark.parametrize("kind", ["junctions", "wireframe"])
def test_writers_refuse_what_the_reader_rejects(tmp_path, bad, kind):
    # what the reader rejects is not written: the writer raises the reader's
    # message for the first bad field, and opens no file
    good = Junction(Point(5.0, 5.0), (Branch(0.0, 0.5),), 1.0)
    records = [{"x": j.center.x, "y": j.center.y, "score": j.confidence,
                "branches": [{"theta": b.angle_deg, "score": b.confidence} for b in j.branches]}
               for j in (good, bad)]
    doc = {"width": 8, "height": 8, "junctions": records}
    if kind == "junctions":
        read, write = read_junctions, lambda p: write_junctions(8, 8, [good, bad], p)
    else:
        doc.update(segments=[], incidence=[])
        read, write = read_wireframe, lambda p: write_wireframe(Wireframe([good, bad]), 8, 8, p)
    want = reader_error(tmp_path, doc, read)
    assert want.startswith("junctions[1]")
    p = tmp_path / "out.json"
    with pytest.raises(FormatError) as e:
        write(str(p))
    assert str(e.value) == f"{p}: {want}"
    assert not p.exists()


def test_decoded_confidence_above_one_is_refused(tmp_path):
    # a network's grid is not clipped: a centre confidence of 1.3 decodes to
    # a junction whose file the reader would reject
    enc = encode([Junction(Point(10.0, 10.0), (Branch(0.0), Branch(90.0)))], GridConfig(64, 64))
    enc.center_conf[enc.center_conf > 0.0] = 1.3
    (j,) = decode(enc)
    p = tmp_path / "j.json"
    with pytest.raises(FormatError, match=r"junctions\[0\]: score 1.3 outside \[0,1\]$"):
        write_junctions(64, 64, [j], str(p))
    assert not p.exists()


def test_wireframe_read_gives_sorted_unique_incidence_rows(tmp_path):
    p = str(tmp_path / "wf.json")
    triplets = [[1, 1, 1], [0, 1, 1], [1, 1, 1], [0, 0, 1], [0, 1, 1]]
    with open(p, "w") as f:
        json.dump(_wireframe([[0, 1], [1, 0]], triplets), f)
    _, _, wf = read_wireframe(p)
    dense = np.zeros((2, 2), dtype=np.int64)  # the N x M W these triplets set
    dense[tuple(np.array(triplets)[:, :2].T)] = 1
    assert wf.incidence.dtype == np.int64
    assert wf.incidence.tolist() == [[0, 0], [0, 1], [1, 1]]
    assert np.array_equal(wf.incidence, np.column_stack(np.nonzero(dense)))


def test_wireframe_read_validation(tmp_path):
    p = str(tmp_path / "wf.json")
    open(p, "w").write('{"width": 9, "height": 9, "junctions": '
                       '[{"x": 0, "y": 0, "score": 1, "branches": []}], '
                       '"segments": [[0, 1]]}')
    with pytest.raises(FormatError, match="out of range"):
        read_wireframe(p)
    open(p, "w").write('{"width": 9, "height": 9, "junctions": [], '
                       '"segments": [], "incidence": [[0, 0, 1]]}')
    with pytest.raises(FormatError, match="incidence"):
        read_wireframe(p)
    # junction records get the same range checks as in junction files
    open(p, "w").write('{"width": 9, "height": 9, "junctions": '
                       '[{"x": 0, "y": 0, "score": 1.5, "branches": []}], '
                       '"segments": []}')
    with pytest.raises(FormatError, match="score"):
        read_wireframe(p)
    open(p, "w").write('{"width": 9, "height": 9, "junctions": '
                       '[{"x": 0, "y": 0, "branches": [{"theta": 400}]}], '
                       '"segments": []}')
    with pytest.raises(FormatError, match="theta"):
        read_wireframe(p)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["x", "y", "score", "theta", "branches",
                                       "derived", "width", "height"]), inner, max_size=4),
    max_leaves=12)


def _mutate(doc, draw):
    """Replace one node of a JSON tree (chosen by draw) with a random value."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
        key = draw(st.sampled_from(keys))
        doc[key] = _mutate(doc[key], draw)
        return doc
    return draw(json_values)


@functools.lru_cache(maxsize=None)
def _valid_doc(kind):
    scene = hexagon_scene()
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "doc.json")
        if kind == "scene":
            write_scene(scene, p)
        elif kind == "junctions":
            write_junctions(scene.width, scene.height, derive_junctions(scene), p)
        else:
            wf = construct_wireframe(derive_junctions(scene), render_target_heatmap(scene),
                                     ConstructionParams(omega=0.5))
            write_wireframe(wf, scene.width, scene.height, p)
        with open(p) as f:
            return f.read()


# -- reference readers: the field-by-field walks the readers must agree with --

def _reference_require(cond: bool, path: str, why: str) -> None:
    if not cond:
        raise FormatError(f"{path}: {why}")


def _reference_number(v, path: str, where: str) -> float:
    try:
        x = float(v) if type(v) in (int, float) else float("nan")
    except OverflowError:
        x = float("nan")
    _reference_require(bool(np.isfinite(x)), path, f"{where}: {v!r} is not a finite number")
    return x


def reference_read_scene(path: str) -> AnnotatedScene:
    doc = _load_sized(path, "scene", ("lines",))
    lines = []
    for i, row in enumerate(doc["lines"]):
        _reference_require(isinstance(row, list) and len(row) == 4,
                           path, f"lines[{i}] must be [x1, y1, x2, y2]")
        x1, y1, x2, y2 = (_reference_number(v, path, f"lines[{i}]") for v in row)
        try:
            lines.append(Segment(Point(x1, y1), Point(x2, y2)))
        except GeometryError as e:
            raise FormatError(f"{path}: lines[{i}]: {e}") from e
    try:
        return AnnotatedScene(doc["width"], doc["height"], tuple(lines))
    except GeometryError as e:
        raise FormatError(f"{path}: {e}") from e


def reference_parse_junctions(doc: dict, path: str) -> list[Junction]:
    out = []
    for i, rec in enumerate(doc["junctions"]):
        at = f"junctions[{i}]"
        _reference_require(isinstance(rec, dict) and "x" in rec and "y" in rec
                           and isinstance(rec.get("branches", []), list)
                           and isinstance(rec.get("derived", False), bool), path,
                           f"{at} must be an object with x, y, a branches list and a "
                           "boolean derived")
        score = _reference_number(rec.get("score", 1.0), path, f"{at}.score")
        _reference_require(0.0 <= score <= 1.0, path, f"{at}: score {score} outside [0,1]")
        branches = []
        for k, br in enumerate(rec.get("branches", [])):
            bat = f"{at}.branches[{k}]"
            _reference_require(isinstance(br, dict) and "theta" in br, path,
                               f"{bat} needs a theta")
            theta = _reference_number(br["theta"], path, f"{bat}.theta")
            bscore = _reference_number(br.get("score", 1.0), path, f"{bat}.score")
            _reference_require(0.0 <= theta < 360.0, path,
                               f"{bat}: theta {theta} outside [0,360)")
            _reference_require(0.0 <= bscore <= 1.0, path,
                               f"{bat}: score {bscore} outside [0,1]")
            branches.append(Branch(theta, bscore))
        out.append(Junction(Point(_reference_number(rec["x"], path, f"{at}.x"),
                                  _reference_number(rec["y"], path, f"{at}.y")),
                            tuple(branches), score, rec.get("derived", False)))
    return out


def reference_read_junctions(path: str):
    doc = _load_sized(path, "junction file", ("junctions",))
    return doc["width"], doc["height"], reference_parse_junctions(doc, path)


def reference_read_wireframe(path: str):
    doc = _load_sized(path, "wireframe file", ("junctions", "segments"))
    junctions = reference_parse_junctions(doc, path)
    n = len(junctions)
    segments, ends = [], []
    for m, pair in enumerate(doc["segments"]):
        _reference_require(isinstance(pair, list) and len(pair) == 2
                           and all(type(v) is int for v in pair), path,
                           f"segments[{m}] must be an index pair")
        a, b = pair
        _reference_require(0 <= a < n and 0 <= b < n, path,
                           f"segments[{m}] index out of range")
        try:
            segments.append(Segment(junctions[a].center, junctions[b].center))
        except GeometryError as e:
            raise FormatError(f"{path}: segments[{m}]: {e}") from e
        ends.append(pair)
    ones = set()
    triplets = doc.get("incidence", [])
    _reference_require(isinstance(triplets, list), path, "incidence must be a list")
    for t, triplet in enumerate(triplets):
        _reference_require(isinstance(triplet, list) and len(triplet) == 3
                           and all(type(v) is int for v in triplet), path,
                           f"incidence[{t}] must be [junction, segment, 1]")
        jn, m, bit = triplet
        _reference_require(0 <= jn < n and 0 <= m < len(segments) and bit == 1, path,
                           f"incidence[{t}] out of range")
        ones.add((jn, m))
    incidence = np.array(sorted(ones), dtype=np.int64).reshape(-1, 2)
    return doc["width"], doc["height"], Wireframe(
        junctions, np.array(ends, dtype=np.int64).reshape(-1, 2), incidence)


READERS = {"scene": (read_scene, reference_read_scene),
           "junctions": (read_junctions, reference_read_junctions),
           "wireframe": (read_wireframe, reference_read_wireframe)}


def _outcome(read, path):
    """What a reader did, comparable exactly: the repr of what it returned
    (so 1 and 1.0, or 0.0 and -0.0, differ) or its FormatError's message.
    Any other exception propagates and fails the test."""
    try:
        out = read(path)
    except FormatError as e:
        return "FormatError", str(e)
    if isinstance(out, tuple) and isinstance(out[2], Wireframe):
        wf = out[2]
        return repr((out[:2], list(wf.junctions), wf.segments)), [
            (a.dtype, a.shape, a.tolist()) for a in (wf.ends, wf.incidence)]
    return repr(out if not isinstance(out, tuple) else (*out[:2], list(out[2])))


@st.composite
def mutated_docs(draw):
    kind = draw(st.sampled_from(sorted(READERS)))
    return kind, _mutate(json.loads(_valid_doc(kind)), draw)


def _junction(x=1.0, y=1.0, **extra):
    return {"x": x, "y": y, "score": 1.0, "branches": [{"theta": 0.0, "score": 1.0}], **extra}


def _wireframe(segments, incidence=(), junctions=None):
    junctions = junctions or [_junction(1.0, 1.0, derived=False),
                              _junction(5.0, 1.0, derived=True)]
    return {"width": 9, "height": 9, "junctions": junctions,
            "segments": segments, "incidence": list(incidence)}


@settings(max_examples=300, deadline=None)
@given(mutated_docs())
# an int too big for float(), -0.0, 1e308 and int-valued floats
@example(("scene", {"width": 10, "height": 10, "lines": [[10 ** 400, 0, 1, 1]]}))
@example(("scene", {"width": 10, "height": 10, "lines": [[-0.0, 2, 3.0, 1e308]]}))
@example(("scene", {"width": 10, "height": 10, "lines": [[-0.0, 2, 3.0, 4.0]]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    _junction(-0.0, 1e308), {"x": 2, "y": 3.0, "score": 1, "branches": [{"theta": 90}]},
    _junction(10 ** 400)]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    {"x": "nan", "y": 1.0, "branches": [{"theta": 400.0}]}]}))
# range edges on exact floats
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    {"x": 1.0, "y": 1.0, "score": 1.0, "branches": [
        {"theta": -0.0, "score": 1.0}, {"theta": 359.99999999999994, "score": 0.0},
        {"theta": 360.0, "score": 1.0}]}]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    {"x": 1.0, "y": 1.0, "score": 1.0, "branches": [{"theta": -5e-324, "score": 1.0}]}]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    {"x": 1.0, "y": 1.0, "score": 1.0, "branches": [
        {"theta": 1.0, "score": 1.0000000000000002}]}]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    {"x": 1.0, "y": 1.0, "score": 1.0000000000000002, "branches": []}]}))
# boolean, float, huge and out-of-range indices; rows of the wrong shape
@example(("wireframe", _wireframe([[0, True]])))
@example(("wireframe", _wireframe([[0, 1]], [[0, 0, True]])))
@example(("wireframe", _wireframe([[0, 1.0]])))
@example(("wireframe", _wireframe([[0, 2 ** 70]])))
@example(("wireframe", _wireframe([[0, 1], [1, -1]])))
@example(("wireframe", _wireframe([[0, 1], [0, 1, 0]])))
@example(("wireframe", _wireframe([[0, 1], []])))
@example(("wireframe", _wireframe([[0, 1], 7])))
@example(("wireframe", _wireframe([[0, 1], {"0": 1}])))
@example(("wireframe", _wireframe([[0, 1]], [[0, 0, 1], [1, 0, 2]])))
@example(("wireframe", _wireframe([[0, 1]], [[0, 0, 1], [1, 1, 1]])))
@example(("wireframe", _wireframe([[0, 1]], [[0, 0, 1], [1, 0]])))
@example(("wireframe", _wireframe([[1, 0]], [[1, 0, 1], [0, 0, 1]])))
# the only fault in the last junction's last branch, past a valid file body
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    _junction(1.0, 1.0), _junction(2.0, 2.0, branches=[
        {"theta": 0.0, "score": 1.0}, {"theta": 90.0, "score": 1.5}])]}))
@example(("wireframe", _wireframe([[0, 1]], junctions=[
    _junction(1.0, 1.0, derived=False), _junction(5.0, 1.0, derived=True, branches=[
        {"theta": 0.0, "score": 1.0}, {"theta": 360.0, "score": 1.0}])])))
@example(("wireframe", _wireframe([[0, 1]], junctions=[
    _junction(1.0, 1.0), _junction(5.0, 1.0, branches=[{"theta": 0.0}, {"score": 1.0}])])))
@example(("wireframe", _wireframe([[0, 1]], junctions=[
    _junction(1.0, 1.0, derived=False), _junction(5.0, 1.0, derived=1)])))
@example(("wireframe", _wireframe([[0, 1]], junctions=[
    _junction(1.0, 1.0, derived=None), _junction(5.0, 1.0, derived=True)])))
# a non-finite float in a row of floats
@example(("scene", {"width": 10, "height": 10, "lines": [[0.5, 1.0, 2.0, float("inf")]]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [_junction(float("nan"), 1.0)]}))
# the only fault in the first junction's score
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    _junction(1.0, 1.0, score=-0.5), _junction(2.0, 2.0)]}))
# int-valued fields and an int too big for float() in each kind of field
@example(("scene", {"width": 10, "height": 10, "lines": [[1, 2, 3, 4], [0.5, 0, 1, 1]]}))
@example(("scene", {"width": 10, "height": 10, "lines": [[0.5, 1.0, 1.0, 2 ** 1100]]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    {"x": 2, "y": 3, "score": 1, "derived": False, "branches": [{"theta": 90, "score": 0}]}]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    _junction(1.0, 2.0), _junction(1.0, 2 ** 1100)]}))
@example(("junctions", {"width": 8, "height": 8, "junctions": [
    _junction(1.0, 2.0, score=2 ** 1100)]}))
@example(("wireframe", _wireframe([[0, 1]], junctions=[
    _junction(1.0, 1.0), _junction(5.0, 1.0, branches=[{"theta": 2 ** 1100, "score": 1.0}])])))
@example(("wireframe", _wireframe([[0, 1]], junctions=[
    _junction(1.0, 1.0), _junction(5, 1, branches=[{"theta": 0.0, "score": 1}])])))
# a degenerate segment before a bad index reports the degenerate segment
@example(("wireframe", _wireframe([[0, 1], [1, 1], [0, 5]])))
@example(("wireframe", _wireframe([[0, 1], [0, 2], [1, True]], junctions=[
    _junction(1.0, 1.0), _junction(5.0, 1.0), _junction(1.0, 1.0)])))
def test_json_readers_fuzz(tmp_path_factory, case):
    """Whatever one node of a valid document is replaced with, each JSON
    reader returns what the field-by-field reference walk returns, or raises
    the same error with the same message."""
    kind, doc = case
    p = str(tmp_path_factory.getbasetemp() / "fuzz.json")
    with open(p, "w") as f:
        json.dump(doc, f)
    read, reference = READERS[kind]
    assert _outcome(read, p) == _outcome(reference, p)


# -- the writers' JSON --

def test_writers_emit_json_dumps_indent_1(tmp_path):
    scene = hexagon_scene()
    enc = encode(derive_junctions(scene), GridConfig(100, 100, 8, 8, 12))
    wf = construct_wireframe(derive_junctions(scene), render_target_heatmap(scene),
                             ConstructionParams(omega=0.5))
    writers = [lambda p: write_scene(scene, p),
               lambda p: write_junctions(100, 100, derive_junctions(scene), p),
               lambda p: write_wireframe(wf, 100, 100, p),
               lambda p: write_grid(enc, p)]
    for n, write in enumerate(writers):
        p = str(tmp_path / f"{n}.json")
        write(p)
        text = open(p, "rb").read().decode("ascii")
        # json.loads gives back the exact numbers, so this is the writer's document
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        assert text.count("\n") > 10


# -- the record templates and their batched number spelling --

@given(st.lists(st.floats() | st.integers(-10 ** 20, 10 ** 20) | st.booleans(), max_size=12))
@settings(deadline=None)
@example([-0.0, 5e-324, 1e-4, 1e-5])
@example([123456789.0, 999999999.5, 1e9, 1234567890.0])
@example([1e16, float("nan"), float("inf"), -float("inf")])
@example([True, 7, np.float64(0.1)])
@example([359.9999999996, -1e-12, 360.0, 720.5, -5.0])
@example([])
def test_batched_spelling_is_the_scalar_spelling(vals):
    assert _spell(vals) == [json.dumps(_round9(v)) for v in vals]
    # the same values as branch angles, which are written in [0, 360)
    j = Junction(Point(1.0, 2.0), tuple(Branch(v) for v in vals))
    assert_writes(lambda p: write_junctions(8, 8, [j], p), lambda: {
        "width": 8, "height": 8, "junctions": [reference_junction_record(j)]})


def reference_junction_record(j: Junction, derived=None) -> dict:
    """One junction as the document the writers spell; wireframe files also
    record `derived`.  A score outside [0, 1] or a non-finite angle, which the
    reader rejects, is refused."""
    if not all(0.0 <= c <= 1.0 for c in (j.confidence, *(b.confidence for b in j.branches))):
        raise FormatError("score outside [0,1]")
    if not all(math.isfinite(b.angle_deg) for b in j.branches):
        raise FormatError("theta is not a finite number")
    rec = {"x": _round9(j.center.x), "y": _round9(j.center.y),
           "score": _round9(j.confidence)}
    if derived is not None:
        rec["derived"] = derived
    # rounding can carry an angle just below 360 up to 360.0, before the
    # wrap (a hair below 0) and after it, so it is rounded again
    rec["branches"] = [{"theta": math.fmod(_round9(normalize_angle(_round9(b.angle_deg))), 360.0),
                        "score": _round9(b.confidence)} for b in j.branches]
    return rec


def reference_text(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


def written(write) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "doc.json")
        write(p)
        with open(p, "rb") as f:
            return f.read().decode("ascii")


def assert_writes(write, reference_doc):
    """`write` writes the text of reference_doc(), or raises what building
    that document raises (an infinite angle has no value in [0, 360))."""
    try:
        want = reference_text(reference_doc())
    except (ValueError, TypeError) as e:
        with pytest.raises(type(e)):
            written(write)
    else:
        assert written(write) == want


edge_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 123456789.0, 999999999.5,
                               1234567890.0, 1e16, 359.9999999996, 1 / 3])
coords = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
anything = st.floats() | edge_floats | st.sampled_from([-1e-12, 360.0, 720.5, -5.0])
# scores the reader takes; others are refused (test_writers_refuse_what_the_reader_rejects)
scores = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1e-5, 1 / 3, 0.9999999996, 1.0])
junction_lists = st.lists(st.builds(
    lambda x, y, c, bs, d: Junction(Point(x, y), tuple(bs), c, d),
    coords, coords, scores, st.lists(st.builds(Branch, anything, scores), max_size=3),
    st.booleans()), max_size=6)


@given(junction_lists)
@settings(deadline=None)
@example([])
@example([Junction(Point(1.0, 2.0)), Junction(Point(3.0, 4.0), derived=True)])
def test_junction_writer_spells_the_record_documents(junctions):
    assert_writes(lambda p: write_junctions(96, 64, junctions, p), lambda: {
        "width": 96, "height": 64, "junctions": [reference_junction_record(j) for j in junctions]})


@st.composite
def wireframes(draw):
    junctions = draw(junction_lists)
    n = len(junctions)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=5)) if n else []
    # segments between two centres (Segment's check), as the rows of their ends
    ends = [(a, b) for a, b in pairs if junctions[a].center != junctions[b].center]
    # (n, m) rows in range, written as they are: unsorted and repeated alike
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, len(ends) - 1)),
                         max_size=8)) if ends else []
    return Wireframe(junctions, np.array(ends, dtype=np.int64).reshape(-1, 2),
                     np.array(rows, dtype=np.int64).reshape(-1, 2))


def reference_wireframe_doc(wf: Wireframe, width, height) -> dict:
    return {"width": width, "height": height,
            "junctions": [reference_junction_record(j, derived=bool(j.derived))
                          for j in wf.junctions],
            "segments": wf.ends.tolist(),
            "incidence": [[n, m, 1] for n, m in wf.incidence.tolist()]}


@given(wireframes())
@settings(deadline=None)
@example(Wireframe())
@example(two_point_wireframe())
def test_wireframe_writer_spells_the_record_documents(wf):
    assert_writes(lambda p: write_wireframe(wf, 32, 48, p),
                  lambda: reference_wireframe_doc(wf, 32, 48))


TWINS = Wireframe([Junction(Point(245.33676092544985, 120.22622107969153), (Branch(0.0),)),
                   Junction(Point(245.33676092544982, 120.22622107969153), (Branch(0.0),),
                            derived=True),
                   Junction(Point(200.0, 100.0), (Branch(40.0),))],
                  np.array([[2, 0], [2, 1]]), np.array([[0, 0], [1, 1], [2, 0], [2, 1]]))


@given(wireframes())
@settings(deadline=None)
@example(TWINS)  # two centres that round to one 9-digit point keep their rows
@example(two_point_wireframe())
def test_wireframe_write_read_write_is_a_fixed_point(wf):
    # with W's rows as the reader gives them (sorted, unique); files the
    # writer refuses, or the reader (two ends that round to one point), aside
    wf = Wireframe(wf.junctions, wf.ends, np.unique(wf.incidence, axis=0))
    with tempfile.TemporaryDirectory() as d:
        p1, p2 = os.path.join(d, "a.json"), os.path.join(d, "b.json")
        try:
            write_wireframe(wf, 32, 48, p1)
            w, h, back = read_wireframe(p1)
        except FormatError as e:
            assert "not a finite number" in str(e) or "degenerate segment" in str(e)
            return
        write_wireframe(back, w, h, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


@given(st.lists(st.tuples(*[st.floats(0.0, 50.0) | edge_floats.filter(lambda v: v <= 50)] * 4)
                .filter(lambda r: r[:2] != r[2:]), max_size=5))
@settings(deadline=None)
def test_scene_writer_spells_the_documents(rows):
    scene = AnnotatedScene(50, 50, tuple(seg(*r) for r in rows))
    assert written(lambda p: write_scene(scene, p)) == reference_text(
        {"width": 50, "height": 50, "lines": [[_round9(v) for v in r] for r in rows]})


@pytest.mark.parametrize("width, height", [(960.0, 960), (True, 8), (np.float64(64.0), 2.5)])
def test_float_and_bool_sizes_are_spelled_as_json_does(width, height):
    j = Junction(Point(1.0, 2.0), (Branch(90.0),))
    assert written(lambda p: write_junctions(width, height, [j], p)) == reference_text(
        {"width": width, "height": height, "junctions": [reference_junction_record(j)]})
    wf = two_point_wireframe()
    assert written(lambda p: write_wireframe(wf, width, height, p)) == reference_text(
        reference_wireframe_doc(wf, width, height))


def test_numpy_int_size_is_a_type_error(tmp_path):
    # json.dumps has no spelling for numpy integers, and neither have the writers
    p = str(tmp_path / "doc.json")
    with pytest.raises(TypeError):
        write_junctions(np.int64(8), 8, [], p)
    with pytest.raises(TypeError):
        write_wireframe(two_point_wireframe(), 20, np.int64(20), p)


def test_huge_integer_literal_is_a_format_error(tmp_path):
    # more digits than int() accepts is a ValueError inside json, not a crash
    p = str(tmp_path / "s.json")
    open(p, "w").write('{"width": 8, "height": 8, "lines": [[' + "9" * 5000 + ", 0, 1, 1]]}")
    with pytest.raises(FormatError, match="invalid JSON"):
        read_scene(p)


# -- grid encodings --

def test_grid_roundtrip(tmp_path):
    cfg = GridConfig(60, 60, 4, 4, 5)
    junctions = [
        Junction(Point(7.5, 7.5), (Branch(10.0), Branch(200.0)), 1.0),
        Junction(Point(40.0, 25.0), (Branch(100.0),), 1.0),
    ]
    enc = encode(junctions, cfg)
    p = str(tmp_path / "g.json")
    write_grid(enc, p)
    back = read_grid(p)
    assert back.config == cfg
    assert np.array_equal(back.center_conf, enc.center_conf)
    assert np.array_equal(back.displacement, enc.displacement)
    assert np.array_equal(back.bin_conf, enc.bin_conf)
    # residuals are derived from angles; exact for these sample values
    assert np.array_equal(back.bin_residual, enc.bin_residual)
    p2 = str(tmp_path / "g2.json")
    write_grid(back, p2)
    assert open(p, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("side", [10.5, math.nan, math.inf, True, 0, -3, "10"])
def test_scene_and_grid_writers_get_no_side_their_readers_refuse(tmp_path, side):
    # read_scene and read_grid take integer sides only; a float, NaN, bool or
    # string side is refused when the scene or config is built, before a
    # writer could open a file (encode met an infinite side as a cell collision)
    with pytest.raises(GeometryError, match="integers >= 1"):
        AnnotatedScene(side, 10)
    for sizes in ((side, 32, 8, 8, 15), (32, side, 8, 8, 15), (32, 32, side, 8, 15),
                  (32, 32, 8, side, 15), (32, 32, 8, 8, side)):
        with pytest.raises(GeometryError, match="integers|integer of at least 2"):
            GridConfig(*sizes)
    assert os.listdir(tmp_path) == []


def test_numpy_integer_sides_are_written_as_integers(tmp_path):
    # numpy integers are stored as ints, so the writers spell them and the
    # readers take them back
    scene = AnnotatedScene(np.int64(40), np.int32(30), (seg(1, 2, 30, 20),))
    write_scene(scene, str(tmp_path / "s.json"))
    assert read_scene(str(tmp_path / "s.json")) == AnnotatedScene(40, 30, scene.lines)
    cfg = GridConfig(np.int64(32), np.int16(32), np.int64(8), np.uint8(8), np.int64(15))
    write_grid(GridEncoding(cfg), str(tmp_path / "g.json"))
    assert read_grid(str(tmp_path / "g.json")).config == GridConfig(32, 32, 8, 8, 15)


GRID_DOC = ('{"config": {"image_w": 8, "image_h": 8, "grid_w": 1, "grid_h": 1, "bins": 2}, '
            '"center_conf": [[%s]], "displacement": [[[0, 0.5]]], '
            '"bin_conf": [[[0, 0]]], "bin_residual": [[[0, 0]]]}')


def test_grid_accepts_int_and_float_leaves(tmp_path):
    p = str(tmp_path / "g.json")
    open(p, "w").write(GRID_DOC % "1")
    enc = read_grid(p)
    assert enc.center_conf.tolist() == [[1.0]] and enc.center_conf.dtype == np.float64
    assert enc.displacement.tolist() == [[[0.0, 0.5]]]


@pytest.mark.parametrize("leaf", ['"0.5"', "true", "false", "null", "Infinity", "-Infinity",
                                  "NaN", "1e999", "1" + "0" * 400, "{}", "0, [1]"],
                         ids=["string", "true", "false", "null", "inf", "-inf", "nan",
                              "1e999", "int-10^400", "object", "list-leaf"])
def test_grid_rejects_bad_leaves(tmp_path, leaf):
    p = str(tmp_path / "g.json")
    open(p, "w").write(GRID_DOC % leaf)
    with pytest.raises(FormatError, match="center_conf: .* is not a finite number"):
        read_grid(p)


def test_grid_rejects_deep_nesting(tmp_path):
    # object arrays deeper than 32 dimensions cannot be iterated with .flat
    p = str(tmp_path / "g.json")
    for depth in (33, 40, 70):
        open(p, "w").write(GRID_DOC.replace("[[%s]]", "[" * depth + "0" + "]" * depth))
        with pytest.raises(FormatError):
            read_grid(p)


def test_grid_rejects_bad_config(tmp_path):
    p = str(tmp_path / "g.json")
    open(p, "w").write('{"config": {"image_w": 0, "image_h": 1, '
                       '"grid_w": 1, "grid_h": 1, "bins": 1}}')
    with pytest.raises(FormatError):
        read_grid(p)
    open(p, "w").write('{"no_config": true}')
    with pytest.raises(FormatError, match="config"):
        read_grid(p)


# -- the write path: a file is written over in place, then cut to length --

WRITERS = {
    "scene": lambda p: write_scene(hexagon_scene(), p),
    "junctions": lambda p: write_junctions(100, 100, derive_junctions(hexagon_scene()), p),
    "heatmap": lambda p: write_heatmap(render_target_heatmap(hexagon_scene()), p),
    "wireframe": lambda p: write_wireframe(two_point_wireframe(), 20, 20, p),
    "grid": lambda p: write_grid(encode([Junction(Point(7.5, 7.5), (Branch(10.0),), 1.0)],
                                        GridConfig(60, 60, 4, 4, 5)), p),
}


@pytest.mark.parametrize("kind", WRITERS)
def test_writing_over_a_longer_file_gives_the_bytes_of_a_fresh_write(tmp_path, kind):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    WRITERS[kind](str(fresh))
    old.write_bytes(b"\xff" * (3 * fresh.stat().st_size + 7))
    WRITERS[kind](old)  # a Path, as the benchmark passes
    assert old.read_bytes() == fresh.read_bytes()
    WRITERS[kind](str(old))  # and over itself
    assert old.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kind", WRITERS)
def test_writing_through_links_changes_the_shared_file(tmp_path, kind):
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    link, hard = tmp_path / "link", tmp_path / "hard"
    WRITERS[kind](str(fresh))
    target.write_bytes(b"old " * 50_000)
    link.symlink_to(target)
    os.link(target, hard)
    WRITERS[kind](str(link))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == hard.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kind", WRITERS)
def test_writing_to_devnull(kind):
    WRITERS[kind](os.devnull)  # seekable, but ftruncate on it fails with EINVAL


def test_a_write_that_fails_part_way_leaves_an_empty_file(tmp_path):
    p = tmp_path / "x.wfhm"
    p.write_bytes(b"old " * 50_000)
    with pytest.raises(TypeError, match="memoryview"):  # the original error, re-raised
        write_in_place(str(p), b"new bytes", object())  # the second chunk is not bytes-like
    assert p.read_bytes() == b""


def test_write_in_place_joins_its_chunks(tmp_path):
    p = tmp_path / "x"
    p.write_bytes(b"z" * 100)
    write_in_place(str(p), b"ab", np.zeros((0, 3), "<f4"), np.arange(2, dtype="<f4"), b"")
    assert p.read_bytes() == b"ab" + np.arange(2, dtype="<f4").tobytes()


@pytest.mark.parametrize("kind", ["junctions", "wireframe", "wireframe-ends"])
def test_a_refused_write_leaves_the_old_file_as_it_was(tmp_path, kind):
    p = tmp_path / "x.json"
    p.write_bytes(b"old " * 1000)
    bad = Junction(Point(1.0, 2.0), (Branch(90.0),), 1.3)
    with pytest.raises(FormatError):
        if kind == "junctions":
            write_junctions(8, 8, [bad], str(p))
        elif kind == "wireframe":
            write_wireframe(Wireframe([bad]), 8, 8, str(p))
        else:
            wf = two_point_wireframe()
            write_wireframe(Wireframe(wf.junctions, np.array([[0, 2]]), wf.incidence[:0]),
                            20, 20, str(p))
    assert p.read_bytes() == b"old " * 1000


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_writing_to_a_pipe_is_not_cut(tmp_path):
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    WRITERS["scene"](str(fresh))
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        WRITERS["scene"](str(fifo))
        assert os.read(reader, 1 << 16) == fresh.read_bytes()
    finally:
        os.close(reader)
