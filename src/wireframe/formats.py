"""File formats: scene/junction/wireframe JSON, the WFHM heat-map binary,
and the grid-encoding JSON.

JSON numbers are serialized with up to 9 significant digits, so writers are
a fixed point of write -> read -> write.  The WFHM container is magic
"WFHM", version u16 = 1, width u32, height u32 (little-endian), then
width x height little-endian float32 values in row-major order; its total
length is exactly 14 + 4 * width * height bytes.
"""

from __future__ import annotations

import json
import struct
from typing import Sequence

import numpy as np

from .annotate import AnnotatedScene, HeatMap
from .geometry import (Branch, GeometryError, Junction, Point, Segment, Wireframe,
                       normalize_angle)
from .gridcodec import GridConfig, GridEncoding

WFHM_MAGIC = b"WFHM"
WFHM_VERSION = 1
WFHM_HEADER = struct.Struct("<4sHII")


class FormatError(ValueError):
    """Malformed or inconsistent file content."""


def _round9(v: float) -> float:
    return float(f"{float(v):.9g}")


def _dump(obj, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        json.dump(obj, f, indent=1, sort_keys=False)
        f.write("\n")


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: invalid JSON ({e})") from e


def _require(cond: bool, path: str, why: str) -> None:
    if not cond:
        raise FormatError(f"{path}: {why}")


def _number(v, path: str, where: str) -> float:
    try:
        x = float("nan") if isinstance(v, bool) else float(v)
    except (TypeError, ValueError, OverflowError):
        x = float("nan")
    _require(bool(np.isfinite(x)), path, f"{where}: {v!r} is not a finite number")
    return x


def _load_sized(path: str, what: str, keys: tuple[str, ...]) -> dict:
    """A JSON object with integer width and height and list-valued keys."""
    doc = _load(path)
    _require(isinstance(doc, dict) and {"width", "height", *keys} <= set(doc), path,
             f"{what} needs width, height, {', '.join(keys)}")
    _require(type(doc["width"]) is int and type(doc["height"]) is int,
             path, "width/height must be integers")
    _require(all(isinstance(doc[k], list) for k in keys), path,
             f"{', '.join(keys)} must be lists")
    return doc


# -- scenes (also the segment-list output of the Hough baseline) --

def write_scene(scene: AnnotatedScene, path: str) -> None:
    _dump({
        "width": scene.width,
        "height": scene.height,
        "lines": [[_round9(s.a.x), _round9(s.a.y), _round9(s.b.x), _round9(s.b.y)]
                  for s in scene.lines],
    }, path)


def read_scene(path: str) -> AnnotatedScene:
    doc = _load_sized(path, "scene", ("lines",))
    lines = []
    for i, row in enumerate(doc["lines"]):
        _require(isinstance(row, list) and len(row) == 4,
                 path, f"lines[{i}] must be [x1, y1, x2, y2]")
        x1, y1, x2, y2 = (_number(v, path, f"lines[{i}]") for v in row)
        try:
            lines.append(Segment(Point(x1, y1), Point(x2, y2)))
        except GeometryError as e:
            raise FormatError(f"{path}: lines[{i}]: {e}") from e
    try:
        return AnnotatedScene(doc["width"], doc["height"], tuple(lines))
    except GeometryError as e:
        raise FormatError(f"{path}: {e}") from e


# -- junction records, shared by junction and wireframe files --

def _junction_record(j: Junction, derived: bool | None = None) -> dict:
    """One junction as JSON; wireframe files also record `derived`."""
    rec = {"x": _round9(j.center.x), "y": _round9(j.center.y),
           "score": _round9(j.confidence)}
    if derived is not None:
        rec["derived"] = derived
    # rounding can carry an angle just below 360 up to 360.0
    rec["branches"] = [{"theta": normalize_angle(_round9(b.angle_deg)),
                        "score": _round9(b.confidence)} for b in j.branches]
    return rec


def _parse_junctions(doc: dict, path: str) -> list[Junction]:
    """Inverse of _junction_record over doc["junctions"]; every malformed
    field is a FormatError."""
    out = []
    for i, rec in enumerate(doc["junctions"]):
        at = f"junctions[{i}]"
        _require(isinstance(rec, dict) and "x" in rec and "y" in rec
                 and isinstance(rec.get("branches", []), list)
                 and isinstance(rec.get("derived", False), bool), path,
                 f"{at} must be an object with x, y, a branches list and a boolean derived")
        score = _number(rec.get("score", 1.0), path, f"{at}.score")
        _require(0.0 <= score <= 1.0, path, f"{at}: score {score} outside [0,1]")
        branches = []
        for k, br in enumerate(rec.get("branches", [])):
            bat = f"{at}.branches[{k}]"
            _require(isinstance(br, dict) and "theta" in br, path, f"{bat} needs a theta")
            theta = _number(br["theta"], path, f"{bat}.theta")
            bscore = _number(br.get("score", 1.0), path, f"{bat}.score")
            _require(0.0 <= theta < 360.0, path, f"{bat}: theta {theta} outside [0,360)")
            _require(0.0 <= bscore <= 1.0, path, f"{bat}: score {bscore} outside [0,1]")
            branches.append(Branch(theta, bscore))
        out.append(Junction(Point(_number(rec["x"], path, f"{at}.x"),
                                  _number(rec["y"], path, f"{at}.y")),
                            tuple(branches), score, rec.get("derived", False)))
    return out


# -- junction predictions / ground truth --

def write_junctions(width: int, height: int, junctions: Sequence[Junction],
                    path: str) -> None:
    _dump({
        "width": width,
        "height": height,
        "junctions": [_junction_record(j) for j in junctions],
    }, path)


def read_junctions(path: str) -> tuple[int, int, list[Junction]]:
    doc = _load_sized(path, "junction file", ("junctions",))
    return doc["width"], doc["height"], _parse_junctions(doc, path)


# -- heat maps (WFHM binary) --

def write_heatmap(hm: HeatMap, path: str) -> None:
    data = np.ascontiguousarray(hm.values, dtype="<f4")
    with open(path, "wb") as f:
        f.write(WFHM_HEADER.pack(WFHM_MAGIC, WFHM_VERSION, hm.width, hm.height))
        f.write(data.tobytes())


def read_heatmap(path: str) -> HeatMap:
    with open(path, "rb") as f:
        blob = f.read()
    _require(len(blob) >= WFHM_HEADER.size, path, "truncated WFHM header")
    magic, version, width, height = WFHM_HEADER.unpack_from(blob)
    _require(magic == WFHM_MAGIC, path, f"bad magic {magic!r}")
    _require(version == WFHM_VERSION, path, f"unsupported version {version}")
    want = WFHM_HEADER.size + 4 * width * height
    _require(len(blob) == want, path,
             f"length {len(blob)} != {want} (14 + 4*{width}*{height})")
    values = np.frombuffer(blob, dtype="<f4", offset=WFHM_HEADER.size)
    values = values.reshape(height, width).astype(np.float64)
    _require(bool(np.isfinite(values).all()) and bool((values >= 0).all()),
             path, "heat values must be finite and >= 0")
    return HeatMap(width, height, values)


# -- wireframes --

def write_wireframe(wf: Wireframe, width: int, height: int, path: str) -> None:
    index = {(j.center.x, j.center.y): n for n, j in enumerate(wf.junctions)}
    segments = []
    for m, s in enumerate(wf.segments):
        try:
            segments.append([index[(s.a.x, s.a.y)], index[(s.b.x, s.b.y)]])
        except KeyError:
            raise FormatError(
                f"{path}: segment {m} endpoint is not a junction center") from None
    incidence = [[int(n), int(m), 1] for n, m in zip(*np.nonzero(wf.incidence))]
    _dump({
        "width": width,
        "height": height,
        "junctions": [_junction_record(j, derived=bool(j.derived)) for j in wf.junctions],
        "segments": segments,
        "incidence": incidence,
    }, path)


def read_wireframe(path: str) -> tuple[int, int, Wireframe]:
    doc = _load_sized(path, "wireframe file", ("junctions", "segments"))
    junctions = _parse_junctions(doc, path)
    n = len(junctions)
    segments = []
    for m, pair in enumerate(doc["segments"]):
        _require(isinstance(pair, list) and len(pair) == 2
                 and all(type(v) is int for v in pair), path,
                 f"segments[{m}] must be an index pair")
        a, b = pair
        _require(0 <= a < n and 0 <= b < n, path, f"segments[{m}] index out of range")
        try:
            segments.append(Segment(junctions[a].center, junctions[b].center))
        except GeometryError as e:
            raise FormatError(f"{path}: segments[{m}]: {e}") from e
    incidence = np.zeros((n, len(segments)), dtype=np.int64)
    triplets = doc.get("incidence", [])
    _require(isinstance(triplets, list), path, "incidence must be a list")
    for t, triplet in enumerate(triplets):
        _require(isinstance(triplet, list) and len(triplet) == 3
                 and all(type(v) is int for v in triplet), path,
                 f"incidence[{t}] must be [junction, segment, 1]")
        jn, m, bit = triplet
        _require(0 <= jn < n and 0 <= m < len(segments) and bit == 1, path,
                 f"incidence[{t}] out of range")
        incidence[jn, m] = 1
    return doc["width"], doc["height"], Wireframe(junctions, segments, incidence)


# -- grid encodings --

def write_grid(enc: GridEncoding, path: str) -> None:
    cfg = enc.config
    _dump({
        "config": {"image_w": cfg.image_w, "image_h": cfg.image_h,
                   "grid_w": cfg.grid_w, "grid_h": cfg.grid_h, "bins": cfg.bins},
        "center_conf": _round_nested(enc.center_conf),
        "displacement": _round_nested(enc.displacement),
        "bin_conf": _round_nested(enc.bin_conf),
        "bin_residual": _round_nested(enc.bin_residual),
    }, path)


def _round_nested(arr: np.ndarray):
    if arr.ndim == 1:
        return [_round9(v) for v in arr]
    return [_round_nested(sub) for sub in arr]


def read_grid(path: str) -> GridEncoding:
    doc = _load(path)
    _require(isinstance(doc, dict) and "config" in doc, path, "grid file needs config")
    c = doc["config"]
    sizes = ("image_w", "image_h", "grid_w", "grid_h", "bins")
    _require(isinstance(c, dict) and all(type(c.get(k)) is int for k in sizes), path,
             f"grid config needs integer {', '.join(sizes)}")
    try:
        cfg = GridConfig(*(c[k] for k in sizes))
        return GridEncoding(cfg,
                            center_conf=np.array(doc["center_conf"], dtype=np.float64),
                            displacement=np.array(doc["displacement"], dtype=np.float64),
                            bin_conf=np.array(doc["bin_conf"], dtype=np.float64),
                            bin_residual=np.array(doc["bin_residual"], dtype=np.float64))
    except (KeyError, TypeError, ValueError, OverflowError, GeometryError) as e:
        raise FormatError(f"{path}: {e}") from e
