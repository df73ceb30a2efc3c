"""Round trips and validation for the on-disk formats.

Losslessness here means the writer is a fixed point of write -> read ->
write: a second emission is byte-identical to the first.  Values that fit
in 9 significant digits (and float32 for the heat map) also survive
structurally.
"""

import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wireframe.annotate import AnnotatedScene, HeatMap, render_target_heatmap
from wireframe.construct import ConstructionParams, construct_wireframe
from wireframe.annotate import derive_junctions
from wireframe.formats import (
    FormatError,
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
    Wireframe,
    build_incidence,
)
from wireframe.gridcodec import GridConfig, encode


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
    wf = Wireframe([j], [], np.zeros((1, 0), dtype=np.int64))
    write_wireframe(wf, 8, 8, p)
    assert read_wireframe(p)[2].junctions[0].branches[0].angle_deg == 0.0


def test_junctions_empty(tmp_path):
    p = str(tmp_path / "j.json")
    write_junctions(16, 16, [], p)
    assert read_junctions(p) == (16, 16, [])


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
    import struct
    open(p, "wb").write(struct.pack("<4sHII", b"XXXX", 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        read_heatmap(p)
    open(p, "wb").write(struct.pack("<4sHII", b"WFHM", 2, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        read_heatmap(p)
    open(p, "wb").write(struct.pack("<4sHII", b"WFHM", 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(FormatError, match="length"):
        read_heatmap(p)
    open(p, "wb").write(struct.pack("<4sHII", b"WFHM", 1, 1, 1)
                        + struct.pack("<f", -1.0))
    with pytest.raises(FormatError, match=">= 0"):
        read_heatmap(p)


# -- wireframes --

def two_point_wireframe():
    a = Junction(Point(0.0, 0.0), (Branch(0.0),), 1.0)
    b = Junction(Point(10.0, 0.0), (Branch(180.0),), 1.0, derived=True)
    segments = [Segment(a.center, b.center)]
    return Wireframe([a, b], segments, build_incidence([a, b], segments, tol=1.0))


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


def test_wireframe_write_requires_indexed_endpoints(tmp_path):
    wf = two_point_wireframe()
    loose = Wireframe(wf.junctions, [seg(0, 0, 5, 5)], wf.incidence)
    with pytest.raises(FormatError, match="not a junction"):
        write_wireframe(loose, 20, 20, str(tmp_path / "x.json"))


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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([("scene", read_scene), ("junctions", read_junctions),
                        ("wireframe", read_wireframe)]), st.data())
def test_json_readers_fuzz(tmp_path_factory, reader, data):
    """A JSON reader returns valid objects or raises FormatError, whatever
    one node of a valid document is replaced with."""
    kind, read = reader
    doc = _mutate(json.loads(_valid_doc(kind)), data.draw)
    p = str(tmp_path_factory.getbasetemp() / "fuzz.json")
    with open(p, "w") as f:
        json.dump(doc, f)
    try:
        read(p)
    except FormatError:
        pass


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


def test_grid_rejects_bad_config(tmp_path):
    p = str(tmp_path / "g.json")
    open(p, "w").write('{"config": {"image_w": 0, "image_h": 1, '
                       '"grid_w": 1, "grid_h": 1, "bins": 1}}')
    with pytest.raises(FormatError):
        read_grid(p)
    open(p, "w").write('{"no_config": true}')
    with pytest.raises(FormatError, match="config"):
        read_grid(p)
