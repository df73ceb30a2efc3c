"""File formats: scene/junction/wireframe JSON, the WFHM heat-map binary,
and the grid-encoding JSON.

JSON numbers are serialized with up to 9 significant digits, so writers are
a fixed point of write -> read -> write.  A JSON file is exactly
json.dumps(doc, indent=1) plus a newline (scene, junction and wireframe
files from %-templates and ``_spell``, grid files from json.dumps), and
readers stop at the first bad field in file order with the message it has
always had.  The WFHM container is magic "WFHM", version u16 = 1, width u32,
height u32 (little-endian), then width x height little-endian float32 values
in row-major order; its total length is exactly 14 + 4 * width * height bytes.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import struct
from math import fmod, isfinite
from typing import Sequence

import numpy as np

from .annotate import AnnotatedScene, HeatMap
from .geometry import (GeometryError, Junction, JunctionTable, Point, Segment, Wireframe,
                       junction_table, normalize_angle)
from .gridcodec import ARRAYS, GridConfig, GridEncoding

WFHM_MAGIC = b"WFHM"
WFHM_VERSION = 1
WFHM_HEADER = struct.Struct("<4sHII")
# Most pixels (8192^2) an image read from a file may have: its float64 heat
# map takes 512 MB.
MAX_PIXELS = 1 << 26
_WIDEN = 1 << 16  # float32 values read_heatmap widens to float64 per step


class FormatError(ValueError):
    """Malformed or inconsistent file content."""


def _round9(v: float) -> float:
    return float(f"{float(v):.9g}")


def write_in_place(path: str, *chunks) -> None:
    """Write the bytes-like chunks over the file, then cut it to their length: a cut to 0
    first would make ext4 flush it on close.  No fsync; a failed write leaves it empty."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666),
              "wb", buffering=0) as f:
        regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)  # /dev/null or a pipe: no cut
        try:
            for view in map(memoryview, chunks):
                view = view.cast("B") if view.nbytes else b""  # 0-size arrays cannot cast
                while view:  # a write may take only part of a view
                    view = view[f.write(view):]
        except BaseException:
            if regular:
                f.truncate(0)  # old bytes never trail new ones
            raise
        if regular:
            f.truncate()  # at the end of what was written


def _dump(path: str, **fields: str) -> None:
    write_in_place(path, ("{\n " + ",\n ".join(f'"{k}": {v}' for k, v in fields.items())
                          + "\n}\n").encode("ascii"))


def _spell(vals: list) -> list[str]:
    """json.dumps(_round9(v)) for each v, from one batched %.9g pass: it has
    repr's digits, bar an integral ".0"; an exponent, nan or inf goes to json."""
    text = ("%.9g\0" * len(vals)) % tuple(vals)
    out = [s if "." in s else s + ".0" for s in text.split("\0")[:-1]]
    if "e" in text or "n" in text:
        out = [json.dumps(_round9(v)) if "e" in s or "n" in s else s for v, s in zip(vals, out)]
    return out


def _block(items: list[str]) -> str:
    """A list at indent level 1 of these items (templates), spelled at level 2."""
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (ValueError, RecursionError) as e:  # also too many digits or too deep
        raise FormatError(f"{path}: invalid JSON ({e})") from e


def _require(cond: bool, path: str, why: str, *args) -> None:
    if not cond:  # `why` is formatted with args only here
        raise FormatError(f"{path}: {why.format(*args) if args else why}")


def _number(v, path: str, where: str, *args) -> float:
    try:  # only a JSON number is a number: no bool, no numeric string
        x = float(v) if type(v) in (int, float) else float("nan")
    except OverflowError:
        x = float("nan")
    _require(isfinite(x), path, "{}: {!r} is not a finite number", where.format(*args), v)
    return x


def _check_pixels(width: int, height: int, path: str) -> None:
    _require(width * height <= MAX_PIXELS, path,
             "image {}x{} has more than MAX_PIXELS = {} pixels", width, height, MAX_PIXELS)


def _load_sized(path: str, what: str, keys: tuple[str, ...]) -> dict:
    """A JSON object with integer width and height and list-valued keys."""
    doc = _load(path)
    _require(isinstance(doc, dict) and {"width", "height", *keys} <= set(doc), path,
             f"{what} needs width, height, {', '.join(keys)}")
    _require(type(doc["width"]) is int and type(doc["height"]) is int,
             path, "width/height must be integers")
    _check_pixels(doc["width"], doc["height"], path)
    _require(all(isinstance(doc[k], list) for k in keys), path,
             f"{', '.join(keys)} must be lists")
    return doc


# -- scenes (also the segment-list output of the Hough baseline) --

def write_scene(scene: AnnotatedScene, path: str) -> None:
    vals = [v for s in scene.lines for v in (s.a.x, s.a.y, s.b.x, s.b.y)]
    _dump(path, width=json.dumps(scene.width), height=json.dumps(scene.height), lines=_block(
        ["  [\n   %s,\n   %s,\n   %s,\n   %s\n  ]"] * len(scene.lines)) % tuple(_spell(vals)))


def read_scene(path: str) -> AnnotatedScene:
    doc = _load_sized(path, "scene", ("lines",))
    rows = doc["lines"]  # rows of 4 finite exact floats are checked at once
    checked = ({*map(type, rows)} <= {list} and {*map(len, rows)} <= {4} and {type(v) for row
               in rows for v in row} <= {float} and np.isfinite(np.array(rows, float)).all())
    lines = []
    for i, row in enumerate(rows):
        if not checked:  # a flagged file: find and word its first bad row
            _require(isinstance(row, list) and len(row) == 4,
                     path, "lines[{}] must be [x1, y1, x2, y2]", i)
            row = [_number(v, path, "lines[{}]", i) for v in row]
        try:
            lines.append(Segment(Point(*row[:2]), Point(*row[2:])))
        except GeometryError as e:
            raise FormatError(f"{path}: lines[{i}]: {e}") from e
    try:
        return AnnotatedScene(doc["width"], doc["height"], tuple(lines))
    except GeometryError as e:
        raise FormatError(f"{path}: {e}") from e


# -- junction records, shared by junction and wireframe files --

@functools.lru_cache(maxsize=64)
def _record(order: int, flag: str) -> str:
    """The template of a junction record with `order` branches."""
    return ('  {\n   "x": %s,\n   "y": %s,\n   "score": %s,\n' + flag + '   "branches": ' + (
        "[\n" + ",\n".join(['    {\n     "theta": %s,\n     "score": %s\n    }'] * order)
        + "\n   ]" if order else "[]") + "\n  }")


def _junction_list(junctions: Sequence[Junction], derived: bool, path: str) -> str:
    """The junction records, their values laid out in file order from the
    table's arrays.  A score outside [0, 1] or a non-finite angle raises
    first, in the reader's words, so no file is opened."""
    t = junction_table(junctions)
    n, counts = len(t), np.diff(t.offsets)
    at = 3 * np.arange(n) + 2 * t.offsets[:-1]  # each record's x, y and score
    bat = 3 * t.owner + 3 + 2 * np.arange(len(t.angles))  # each branch's theta and score
    vals = np.empty(3 * n + 2 * len(t.angles))
    vals[at], vals[at + 1], vals[at + 2] = t.centers[:, 0], t.centers[:, 1], t.confidence
    vals[bat], vals[bat + 1] = t.angles, t.branch_conf
    wrap = bat[~((t.angles >= 0.0) & (t.angles < 359.9999))]  # may round to 360.0 or lie outside
    scores = np.concatenate([t.confidence, t.branch_conf])
    if not (((scores >= 0.0) & (scores <= 1.0)).all() and np.isfinite(vals[wrap]).all()):
        _parse_junctions({"junctions": [  # the reader's check, a finite angle read as 0.0
            {"x": 0.0, "y": 0.0, "score": j.confidence, "branches": [
                {"theta": 0.0 if isfinite(b.angle_deg) else b.angle_deg,
                 "score": b.confidence} for b in j.branches]} for j in t]}, path)
    vals = vals.tolist()
    spelled = _spell(vals)
    for k in wrap.tolist():  # rounded again, as a hair below 0 wraps to 360 - 1e-12, then to 0.0
        spelled[k] = json.dumps(fmod(_round9(normalize_angle(_round9(vals[k]))), 360.0))
    flags = ('   "derived": false,\n', '   "derived": true,\n') if derived else ("", "")
    return _block([_record(k, flags[d]) for k, d in zip(counts.tolist(), t.derived.tolist())]
                  ) % tuple(spelled)


def _parse_junctions(doc: dict, path: str) -> JunctionTable:
    """Inverse of _junction_list; every malformed field is a FormatError,
    found by a walk in file order when the array checks flag the file."""
    recs = doc["junctions"]
    try:  # each field's values in one run: x, y, score, theta, branch score
        lists = [r.get("branches", []) for r in recs]
        flags = [r.get("derived", False) for r in recs]
        n, m = len(recs), len(brs := [b for bs in lists for b in bs])
        nums = ([r["x"] for r in recs] + [r["y"] for r in recs] + [r.get("score", 1.0) for r
                in recs] + [b["theta"] for b in brs] + [b.get("score", 1.0) for b in brs])
        ok = ({*map(type, lists)} <= {list} and {*map(type, flags)} <= {bool}
              and {*map(type, nums)} <= {float} and np.isfinite(a := np.array(nums)).all()
              and (a[2 * n:] >= 0.0).all()  # and scores <= 1, theta < 360:
              and (a[2 * n:] <= np.repeat([1.0, np.nextafter(360.0, 0), 1.0], [n, m, m])).all())
    except (TypeError, KeyError, AttributeError):  # a record or branch is no object
        ok = False
    for i, rec in enumerate(recs if not ok else ()):  # flagged: find the first bad field
        branches = rec.get("branches", []) if isinstance(rec, dict) else None
        _require(isinstance(branches, list) and "x" in rec and "y" in rec
                 and isinstance(rec.get("derived", False), bool), path, "junctions[{}] must "
                 "be an object with x, y, a branches list and a boolean derived", i)
        score = _number(rec.get("score", 1.0), path, "junctions[{}].score", i)
        _require(0.0 <= score <= 1.0, path, "junctions[{}]: score {} outside [0,1]", i, score)
        for k, br in enumerate(branches):
            _require(type(br) is dict and "theta" in br, path,
                     "junctions[{}].branches[{}] needs a theta", i, k)
            theta = _number(br["theta"], path, "junctions[{}].branches[{}].theta", i, k)
            bscore = _number(br.get("score", 1.0), path, "junctions[{}].branches[{}].score", i, k)
            _require(0.0 <= theta < 360.0, path,
                     "junctions[{}].branches[{}]: theta {} outside [0,360)", i, k, theta)
            _require(0.0 <= bscore <= 1.0, path,
                     "junctions[{}].branches[{}]: score {} outside [0,1]", i, k, bscore)
        for c in "xy":
            _number(rec[c], path, "junctions[{}].{}", i, c)
    a = a if ok else np.array(nums, dtype=np.float64)  # the walk passed: some are ints
    return JunctionTable(np.column_stack([a[:n], a[n:2 * n]]), a[2 * n:3 * n], flags,
                         np.cumsum([0, *map(len, lists)]), a[3 * n:3 * n + m], a[3 * n + m:])


# -- junction predictions / ground truth --

def write_junctions(width: int, height: int, junctions: Sequence[Junction], path: str) -> None:
    _dump(path, width=json.dumps(width), height=json.dumps(height),
          junctions=_junction_list(junctions, False, path))


def read_junctions(path: str) -> tuple[int, int, JunctionTable]:
    doc = _load_sized(path, "junction file", ("junctions",))
    return doc["width"], doc["height"], _parse_junctions(doc, path)


# -- heat maps (WFHM binary) --

def write_heatmap(hm: HeatMap, path: str) -> None:
    write_in_place(path, WFHM_HEADER.pack(WFHM_MAGIC, WFHM_VERSION, hm.width, hm.height),
                   np.ascontiguousarray(hm.values, dtype="<f4"))


def read_heatmap(path: str) -> HeatMap:
    """The float32 payload is read into the upper half of the float64 result
    and widened in place, front to back, so the result is the only array the
    size of the image; a regular file's length is checked before it exists."""
    with open(path, "rb") as f:
        head = f.read(WFHM_HEADER.size)
        _require(len(head) == WFHM_HEADER.size, path, "truncated WFHM header")
        magic, version, width, height = WFHM_HEADER.unpack(head)
        _require(magic == WFHM_MAGIC, path, f"bad magic {magic!r}")
        _require(version == WFHM_VERSION, path, f"unsupported version {version}")
        _check_pixels(width, height, path)
        want = WFHM_HEADER.size + 4 * width * height
        why = f"length {{}} != {want} (14 + 4*{width}*{height})"
        st = os.fstat(f.fileno())  # a pipe has no size: its length is found by the read
        _require(st.st_size == want or not stat.S_ISREG(st.st_mode), path, why, st.st_size)
        values = np.empty((height, width))
        flat = values.reshape(-1)
        payload = flat.view("<f4")[flat.size:]
        length = WFHM_HEADER.size + f.readinto(payload)
        while rest := f.read(_WIDEN):  # what trails the payload is counted, not kept
            length += len(rest)
        _require(length == want, path, why, length)
    for i in range(0, flat.size, _WIDEN):  # a chunk's float64s end before the next's float32s
        flat[i:i + _WIDEN] = payload[i:i + _WIDEN]
    try:  # HeatMap checks the values; its shape matches by construction
        return HeatMap(width, height, values)
    except GeometryError as e:
        raise FormatError(f"{path}: heat values must be finite and >= 0") from e


# -- wireframes --

def _rows(rows, high: list, path: str, name: str, kind: str) -> np.ndarray:
    """(K, 2) integer rows with column c in [0, high[c]), or a FormatError."""
    rows = np.asarray(rows)
    _require(rows.ndim == 2 and rows.shape[1] == 2 and rows.dtype.kind in "iu", path,
             f"{name} must be a (K, 2) integer array of {kind} rows")
    bad = np.flatnonzero(((rows < 0) | (rows >= high)).any(1))
    _require(not bad.size, path, "{} row {} is out of range", name, *bad[:1].tolist())
    return rows


def _check_ends(centers: np.ndarray, ends: np.ndarray, path: str) -> None:
    """No segment joins two equal centres, in ``Segment``'s words."""
    same = np.flatnonzero((centers[ends[:, 0]] == centers[ends[:, 1]]).all(axis=1))[:1]
    _require(not same.size, path, "segments[{}]: degenerate segment at ({}, {})",
             *same.tolist(), *centers[ends[same, 0]].ravel().tolist())


def write_wireframe(wf: Wireframe, width: int, height: int, path: str) -> None:
    t = junction_table(wf.junctions)
    ends = _rows(wf.ends, [len(t), len(t)], path, "segments", "(junction, junction)")
    ones = _rows(wf.incidence, [len(t), len(ends)], path, "incidence", "(junction, segment)")
    _check_ends(t.centers, ends, path)
    _dump(path, width=json.dumps(width), height=json.dumps(height),
          junctions=_junction_list(t, True, path),
          segments=_block(["  [\n   %d,\n   %d\n  ]"] * len(ends)) % tuple(ends.ravel().tolist()),
          incidence=_block(["  [\n   %d,\n   %d,\n   1\n  ]"] * len(ones)) % tuple(
              ones.ravel().tolist()))


def _index_rows(rows: list, bounds: tuple, name: str, form: str, outside: str):
    """Rows of one exact int per (low, high) bound, low <= v < high, as int64,
    up to the first bad row; and what is wrong with that row, or None."""
    try:
        if {type(v) for row in rows for v in row} <= {int}:
            arr = np.array(rows, dtype=np.int64).reshape(len(rows), len(bounds))
            lo, hi = zip(*bounds)
            if ((arr >= lo) & (arr < hi)).all():
                return arr, None
    except (TypeError, ValueError, OverflowError):
        pass  # not all rows are int lists of one width
    for k, row in enumerate(rows):
        typed = type(row) is list and len(row) == len(bounds) and {*map(type, row)} <= {int}
        if not (typed and all(a <= v < b for v, (a, b) in zip(row, bounds))):
            return (np.array(rows[:k], dtype=np.int64).reshape(k, len(bounds)),
                    f"{name}[{k}] {outside if typed else form}")
    raise AssertionError("numpy rejected rows that each pass the per-row check")


def read_wireframe(path: str) -> tuple[int, int, Wireframe]:
    doc = _load_sized(path, "wireframe file", ("junctions", "segments"))
    junctions = _parse_junctions(doc, path)
    n = len(junctions)
    ends, bad = _index_rows(doc["segments"], ((0, n), (0, n)), "segments",
                            "must be an index pair", "index out of range")
    _check_ends(junctions.centers, ends, path)  # a degenerate one comes before the first bad row
    _require(bad is None, path, bad)
    triplets = doc.get("incidence", [])
    _require(isinstance(triplets, list), path, "incidence must be a list")
    rows, bad = _index_rows(triplets, ((0, n), (0, len(ends)), (1, 2)), "incidence",
                            "must be [junction, segment, 1]", "out of range")
    _require(bad is None, path, bad)
    m = max(len(ends), 1)  # sorted unique (n, m) rows, by their row-major flat index
    incidence = np.column_stack(np.divmod(np.unique(rows[:, 0] * m + rows[:, 1]), m))
    return doc["width"], doc["height"], Wireframe(junctions, ends, incidence)


# -- grid encodings --

def write_grid(enc: GridEncoding, path: str) -> None:
    cfg = enc.config
    doc = {"config": {"image_w": cfg.image_w, "image_h": cfg.image_h, "grid_w": cfg.grid_w,
                      "grid_h": cfg.grid_h, "bins": cfg.bins},
           **{k: np.frompyfunc(_round9, 1, 1)(getattr(enc, k)).tolist() for k in ARRAYS}}
    write_in_place(path, (json.dumps(doc, indent=1) + "\n").encode("ascii"))


def read_grid(path: str) -> GridEncoding:
    doc = _load(path)
    _require(isinstance(doc, dict) and "config" in doc, path, "grid file needs config")
    c = doc["config"]
    sizes = ("image_w", "image_h", "grid_w", "grid_h", "bins")
    _require(isinstance(c, dict) and all(type(c.get(k)) is int for k in sizes), path,
             f"grid config needs integer {', '.join(sizes)}")
    _check_pixels(c["image_w"], c["image_h"], path)
    try:
        cfg = GridConfig(*(c[k] for k in sizes))
        for k in ARRAYS:  # every leaf must be a finite JSON number
            for v in np.array(doc[k], dtype=object).reshape(-1):  # .flat stops at 32 dims
                _number(v, path, k)
        return GridEncoding(cfg, *(np.array(doc[k], dtype=np.float64) for k in ARRAYS))
    except (KeyError, GeometryError) as e:
        raise FormatError(f"{path}: {e}") from e
