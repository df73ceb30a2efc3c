"""Random synthetic scenes for round-trip experiments.

Scenes are built by rejection sampling so the resulting wireframe is
unambiguous: every segment crosses at least one other, crossings are wide
(>= 25 degrees) and well separated, stub ends keep enough length to carry a
branch, and nothing sits close enough to the image border to trigger the
boundary rule of the construction stage.  Near-parallel overlaps, which no
pixel-level method can tell apart, are rejected outright.

Endpoints are integer pixels.  Crossings of integer-endpoint segments lie
exactly on both carrier lines, so the digital line between a crossing and a
mask pixel tracks the mask rasterization instead of drifting half a pixel
off it the way rounded float endpoints do.

Draws are decoded from blocks of raw words, and ``make_scene`` leaves the
generator exactly where one-at-a-time draws would.  Each next segment gets
MAX_TRIES candidates, screened _QUEUE at a time in one array pass over the
layout, once per queue and layout.  One that a segment surely rejects stays
dropped, as layouts only grow; one needing a crossing while every segment
is surely apart is dropped until a segment is placed.  The rest meet the
rows the pass flags and every segment placed since: the pass settles sure
crossings at a sure angle and stub length, bit for bit; a box over
MIN_CLEARANCE away meets only the continuation rule; the scalar
``_row_check`` decides the rest.  Spacing uses an 8 px grid.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .annotate import AnnotatedScene
from .geometry import (GeometryError, Point, Segment, check_seed, intersection_params, is_whole,
                       point_segment_distance, segment_intersection, surely_within, within)

MIN_SEGMENTS = 5
MAX_SEGMENTS = 30
MIN_LENGTH = 40.0
MAX_LENGTH_FRAC = 0.8  # of the shorter image side
MIN_CROSS_ANGLE = 25.0
MIN_JUNCTION_SEP = 8.0
MIN_STUB = 10.0
MIN_CLEARANCE = 6.0
JUNCTION_MARGIN = 24.0
ENDPOINT_MARGIN = 8.0
# Whole-scene draws before giving up (benchmark pools and tests need <= 2):
# a small image, say 64x64 with a 16 px window for crossings, may never fit.
MAX_ATTEMPTS = 20
# Candidates drawn for the next segment before a layout settles for fewer.
MAX_TRIES = 400
# Candidates screened together, and draw passes decoded in a first block
# (each next one is twice as large, up to 16 times).
_QUEUE, _BLOCK = 32, 1024
# Distance (px) beyond which a sign is sure: far above the ulps of either
# form, below the least nonzero distance of integer endpoints (1 / length).
_SIDE = 1e-6
_SIN_CROSS = math.sin(math.radians(MIN_CROSS_ANGLE))
# A candidate's (13, 10) matrix as indices into its ``_lines`` row.  Times a
# segment's column it gives the signed distances of the segment's a and b
# from the candidate's line and of the candidate's a and b from the
# segment's, the sine of the angle between the lines, and for the same four
# ends the coordinate along the other line, from its a and from its b.
_PASS = np.array([[2, 3, 0, 0, 0, 0, 0, 4, 0, 0], [0, 0, 2, 3, 0, 0, 0, 4, 0, 0],
                  [0, 0, 0, 0, 5, 6, 1, 0, 0, 0], [0, 0, 0, 0, 7, 8, 1, 0, 0, 0],
                  [0, 0, 0, 0, 9, 2, 0, 0, 0, 0], [9, 2, 0, 0, 0, 0, 0, 10, 0, 0],
                  [0, 0, 9, 2, 0, 0, 0, 10, 0, 0], [0, 0, 0, 0, 6, 12, 0, 0, 1, 0],
                  [0, 0, 0, 0, 8, 13, 0, 0, 1, 0], [9, 2, 0, 0, 0, 0, 0, 11, 0, 0],
                  [0, 0, 9, 2, 0, 0, 0, 11, 0, 0], [0, 0, 0, 0, 6, 12, 0, 0, 0, 1],
                  [0, 0, 0, 0, 8, 13, 0, 0, 0, 1]])


def _crossing_angle(s: Segment, t: Segment) -> float:
    a1 = math.atan2(s.b.y - s.a.y, s.b.x - s.a.x)
    a2 = math.atan2(t.b.y - t.a.y, t.b.x - t.a.x)
    d = abs(math.degrees(a1 - a2)) % 180.0
    return min(d, 180.0 - d)


def _continues(s: Segment, t: Segment) -> bool:
    """The collinear-continuation rule, unresolvable in pixels: an end of t
    within 4 px of s's line, at under 15 degrees, even with the boxes far apart."""
    x, y, dx, dy = s.a.x, s.a.y, s.b.x - s.a.x, s.b.y - s.a.y
    off = min(abs((t.a.x - x) * dy - (t.a.y - y) * dx), abs((t.b.x - x) * dy - (t.b.y - y) * dx))
    return off / math.hypot(dx, dy) < 4.0 and _crossing_angle(s, t) < 15.0


def _lines(q: np.ndarray) -> np.ndarray:
    """Rows (0, 1, nx, ny, c, a.x, a.y, b.x, b.y, -ny, e, e - length, -a.x,
    -b.x) of (K, 4) segments: nx*x + ny*y + c is the distance from the line,
    -ny*x + nx*y + e the coordinate along it from a."""
    d = q[:, 2:] - q[:, :2]
    length = np.hypot(d[:, 0], d[:, 1])
    nx, ny = d[:, 1] / length, -d[:, 0] / length
    c, e = -(nx * q[:, 0] + ny * q[:, 1]), ny * q[:, 0] - nx * q[:, 1]
    return np.column_stack([0 * c, 0 * c + 1, nx, ny, c, q, -ny, e, e - length, -q[:, ::2]])


def _ends(x1: int, y1: int, theta: float, length: float, width: int,
          height: int) -> Optional[tuple[int, int, int, int]]:
    """A draw pass's candidate, or None if its far end misses the image."""
    x2, y2 = round(x1 + length * math.cos(theta)), round(y1 + length * math.sin(theta))
    if ENDPOINT_MARGIN <= x2 <= width - ENDPOINT_MARGIN and \
            ENDPOINT_MARGIN <= y2 <= height - ENDPOINT_MARGIN and \
            math.hypot(x2 - x1, y2 - y1) >= MIN_LENGTH:
        return x1, y1, x2, y2


def _candidate(rng: np.random.Generator, width: int, height: int) -> Segment:
    while True:
        ends = _ends(int(rng.integers(ENDPOINT_MARGIN, width - ENDPOINT_MARGIN + 1)),
                     int(rng.integers(ENDPOINT_MARGIN, height - ENDPOINT_MARGIN + 1)),
                     rng.uniform(0, 2 * math.pi),
                     rng.uniform(MIN_LENGTH, MAX_LENGTH_FRAC * min(width, height)),
                     width, height)
        if ends:
            return Segment(Point(*map(float, ends[:2])), Point(*map(float, ends[2:])))


def _seek(bg: np.random.BitGenerator, mark: tuple) -> None:
    """Put the generator at a mark: a state, the raw words drawn after it,
    and the 32-bit half then left over."""
    state, words, half = mark
    bg.state = state
    if words:
        bg.random_raw(words)
        bg.state = {**bg.state, "uinteger": half}


def _draws(rng: np.random.Generator, width: int, height: int) -> Iterator[tuple]:
    """``_candidate``'s candidates, each as its ends and the mark where it
    leaves the generator.  A pass (x1, y1, angle, length) takes three raw
    words: numpy's Lemire draw in [lo, lo + r) is ``(v * r) >> 32`` of a
    32-bit v (a word's low half, then its high one; a half left over comes
    first), redrawn while ``(v * r) mod 2^32 < (2^32 - r) mod r``, and a
    double is ``(w >> 11) * 2^-53``.  An array test proposes the passes
    whose far end may land in the image; ``_ends`` decides each.  A pass
    that would redraw, and a generator with no 32-bit buffer (MT19937), go
    through ``_candidate``."""
    bg, mid = rng.bit_generator, np.array([width, height]) / 2
    scale = (2 * math.pi, MAX_LENGTH_FRAC * min(width, height) - MIN_LENGTH)
    half, size = bg.state.get("uinteger"), _BLOCK
    while True:
        state = bg.state
        if "has_uint32" in state and max(width, height) < 1 << 31:
            state["uinteger"] = half  # random_raw leaves the 32-bit buffer alone
            span = np.array([width, height], dtype=np.uint64) - int(2 * ENDPOINT_MARGIN - 1)
            w = bg.random_raw(3 * size).reshape(-1, 3)
            lo, hi = w[:, 0] & 0xFFFFFFFF, w[:, 0] >> 32
            m = np.column_stack([np.append(np.uint64(half), hi[:-1]), lo] if state["has_uint32"]
                                else [lo, hi]) * span
            redraw = ((m & 0xFFFFFFFF) < (2 ** 32 - span) % span).any(axis=1)
            k = int(np.append(redraw, True).argmax())  # passes before the first redraw
            x1, y1 = ((m[:k] >> 32) + int(ENDPOINT_MARGIN)).T
            theta, length = ((w[:k, 1:] >> 11) * 2.0 ** -53 * scale + (0.0, MIN_LENGTH)).T
            far = np.column_stack([x1 + length * np.cos(theta), y1 + length * np.sin(theta)])
            j = np.flatnonzero((np.abs(far - mid) <= mid - ENDPOINT_MARGIN + 1).all(axis=1))
            for words, h, *draw in zip(*(a.tolist() for a in (3 * j + 3, hi[j], x1[j], y1[j],
                                                              theta[j], length[j]))):
                if ends := _ends(*draw, width, height):
                    yield ends, (state, words, h)
            half, size = int(hi[k - 1]) if k else half, min(2 * size, 16 * _BLOCK)
            if k == len(w):
                continue
            _seek(bg, (state, 3 * k, half))
        s = _candidate(rng, width, height)
        yield (s.a.x, s.a.y, s.b.x, s.b.y), (bg.state, 0, None)
        half = bg.state.get("uinteger")


def _row_check(cand: Segment, other: Segment, width: int, height: int) -> Point | bool | None:
    """False if ``other`` rules the candidate out, else their crossing or None."""
    hit, ends = segment_intersection(cand, other), (cand.a, cand.b, other.a, other.b)
    if hit.point is None:  # an overlap, an end within MIN_CLEARANCE or a continuation
        near = min(point_segment_distance(e, s) for e, s in zip(ends, (other, other, cand, cand)))
        return False if hit.collinear or near < MIN_CLEARANCE or _continues(cand, other) else None
    p = hit.point
    if not (JUNCTION_MARGIN <= p.x <= width - JUNCTION_MARGIN
            and JUNCTION_MARGIN <= p.y <= height - JUNCTION_MARGIN):
        return False
    # too narrow, or a stub shorter than MIN_STUB (at 0: keep pure crossings, no T or L)
    return False if _crossing_angle(cand, other) < MIN_CROSS_ANGLE or min(
        p.distance_to(e) for e in ends) < MIN_STUB else p


def _cell(p: Point) -> tuple[int, int]:
    """A crossing's MIN_JUNCTION_SEP (8 px) grid cell.  The grid is exact:
    x / 8 is exact in binary (crossings are far from underflow), and
    ``distance_to`` < 8 implies |dx| < 8 and |dy| < 8 (the distance is at
    least both, exactly), so every pair that can fail the spacing test lies
    in the 3x3 cells around either point."""
    return math.floor(p.x / MIN_JUNCTION_SEP), math.floor(p.y / MIN_JUNCTION_SEP)


class _Layout:
    """Accepted segments, their boxes (x0, x1, y0, y1), a column per segment (a.x, a.y,
    b.x, b.y, nx, ny, c, 1, e, e - length, from its ``_lines`` row), crossings by ``_cell``."""

    def __init__(self) -> None:
        self.segments, self.boxes, self.cols, self.grid = [], [], np.empty((10, 0)), {}

    def add(self, seg: Segment, crossings: list[Point], line: np.ndarray) -> None:
        self.cols = np.concatenate((self.cols, line[[5, 6, 7, 8, 2, 3, 4, 1, 10, 11], None]), 1)
        self.segments.append(seg)
        self.boxes.append((*sorted((seg.a.x, seg.b.x)), *sorted((seg.a.y, seg.b.y))))
        for p in crossings:
            self.grid.setdefault(_cell(p), []).append(p)

    def screen(self, lines: np.ndarray, width: int,
               height: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """For candidates given by their ``_lines`` rows: which a segment surely
        rejects (K,), per pair (K, segments) which are surely apart and which may
        fail ``_row_check`` (a near end or a crossing), and settled crossings by candidate, row."""
        if not self.segments:  # the first segment is taken as it comes
            return (z := np.zeros((len(lines), 0), dtype=bool)).any(axis=1), z, z, {}
        g = lines[:, _PASS].swapaxes(0, 1) @ self.cols  # (13, K, segments)
        lo, hi = np.minimum(g[0:4:2], g[1:4:2]), np.maximum(g[0:4:2], g[1:4:2])  # per line
        apart = ((lo > _SIDE) | (hi < -_SIDE)).any(axis=0)  # both ends surely on one side
        cross = ((lo < -_SIDE) & (hi > _SIDE)).all(axis=0)  # surely straddling both lines
        near = within(np.abs(g[:4]).min(axis=0), MIN_CLEARANCE)  # an end near a line
        rejected = np.zeros(len(lines), dtype=bool)
        k, i = np.nonzero(apart & near)  # an end surely near the other segment, facing it
        d = g[:, k, i]
        rejected[k[(surely_within(np.abs(d[:4]), MIN_CLEARANCE)
                    & (np.minimum(d[5:9], -d[9:]) > _SIDE)).any(axis=0)]] = True
        k, i = np.nonzero(cross)
        d = np.abs(g[:5, k, i])
        sin, stub = d[4], d[:4].min(axis=0) / d[4]  # the shortest stub
        rejected[k[surely_within(sin, _SIN_CROSS) | surely_within(stub, MIN_STUB)]] = True
        ok = ~within(sin, _SIN_CROSS) & ~within(stub, MIN_STUB) & ~rejected[k]
        # these pass the scalar's parallel test by far and have t and u inside
        # (0, 1) by over MIN_STUB: its point is a + t r, here bit for bit
        k, i, q, known = k[ok], i[ok], lines[k[ok], 5:9], {}  # by candidate, then row
        denom, tn = intersection_params(q, self.cols[:4, i].T)[:2]
        p = q[:, :2] + (tn / denom)[:, None] * (q[:, 2:] - q[:, :2])
        out = (p < JUNCTION_MARGIN) | (p > (width - JUNCTION_MARGIN, height - JUNCTION_MARGIN))
        rejected[k[out.any(axis=1)]] = True  # outside the junction window
        for a, b, xy in zip(k.tolist(), i.tolist(), p.tolist()):  # rejected ones go unread
            known.setdefault(a, {})[b] = Point(*xy)
        return rejected, apart, near | cross, known


class _Queue:
    """Candidates drawn ahead of ``make_scene``'s loop and screened together; ``mark`` is
    where the last one taken leaves the generator, ``known`` its settled crossings by row."""

    def __init__(self, rng: np.random.Generator, width: int, height: int) -> None:
        self.size, self.draws = (width, height), _draws(rng, width, height)
        self.mark, self.ends, self.i, self.known = (rng.bit_generator.state, 0, None), (), 0, {}

    def pop(self, layout: _Layout) -> tuple[tuple, np.ndarray, Optional[list[int]]]:
        """The next candidate's ends, its ``_lines`` row and the rows to check, None if dropped."""
        if self.i == len(self.ends):
            self.ends, self.marks = zip(*itertools.islice(self.draws, _QUEUE))
            self.lines, self.i, self.screened = _lines(np.array(self.ends, float)), 0, (None,)
        i, n = self.i, len(layout.segments)
        self.i, self.mark = i + 1, self.marks[i]
        if self.screened[0] is not layout:  # one screen per queue and layout
            rejected, apart, flagged, known = layout.screen(self.lines, *self.size)
            self.screened = layout, n, rejected.tolist(), apart.all(axis=1).tolist(), flagged, known
        _, since, rejected, apart, flagged, known = self.screened
        self.known = known.get(i, {})
        # a candidate needs a crossing once a segment is placed, maybe from one since
        rows = None if rejected[i] or apart[i] and n == since > 0 else \
            flagged[i].nonzero()[0].tolist() + [*range(since, n)]
        return self.ends[i], self.lines[i], rows


def _check(cand: Segment, layout: _Layout, width: int, height: int, need_crossing: bool,
           rows: Sequence[int], known: Optional[dict] = None) -> Optional[list[Point]]:
    """New crossings if the candidate is acceptable, else None.  Only ``rows`` are
    checked: those the queue's screen flags and every segment placed since.  A crossing
    in ``known`` is settled, a row whose box is over MIN_CLEARANCE away meets only
    ``_continues``, the rest ``_row_check``.  Each crossing meets the spacing test once
    found, against the earlier new ones and the 3x3 grid cells around it."""
    new, known = [], known or {}
    x0, x1, y0, y1 = *sorted((cand.a.x, cand.b.x)), *sorted((cand.a.y, cand.b.y))
    for i in rows:
        other, p = layout.segments[i], known.get(i)
        if p is None:
            u0, u1, v0, v1 = layout.boxes[i]
            p = (False if _continues(cand, other) else None) \
                if max(x0 - u1, u0 - x1, y0 - v1, v0 - y1) > MIN_CLEARANCE + _SIDE \
                else _row_check(cand, other, width, height)
        if p is False:
            return None
        if p is not None:
            x, y = _cell(p)
            near = [q for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                    for q in layout.grid.get((x + dx, y + dy), ())]
            if any(0.0 < p.distance_to(q) < MIN_JUNCTION_SEP for q in new + near):
                return None
            new.append(p)
    if need_crossing and not new:
        return None
    return new


def make_scene(rng: np.random.Generator, width: int = 320, height: int = 320,
               n_segments: Optional[int] = None) -> AnnotatedScene:
    """One random scene; n_segments defaults to a draw in [5, 30].  GeometryError
    before any draw if a side is not an integer >= 1, n_segments not None or an
    integer >= 0, or a segment cannot fit; and after MAX_ATTEMPTS."""
    if not (is_whole(width, 1) and is_whole(height, 1) and is_whole(
            0 if n_segments is None else n_segments)):
        raise GeometryError(f"a {width!r}x{height!r} scene of {n_segments!r} segments: "
                            "sides must be integers >= 1, n_segments None or >= 0")
    if MAX_LENGTH_FRAC * min(width, height) < MIN_LENGTH:
        raise GeometryError(f"a {width}x{height} image cannot hold a {MIN_LENGTH:g} px segment")
    if n_segments is None:
        n_segments = int(rng.integers(MIN_SEGMENTS, MAX_SEGMENTS + 1))
    floor = min(n_segments, MIN_SEGMENTS)
    queue = _Queue(rng, width, height)
    try:
        for _ in range(MAX_ATTEMPTS):
            layout = _Layout()
            # the second segment must cross the first, and every later one must
            # cross something already placed, so no segment ends up isolated
            while len(layout.segments) < n_segments:
                for _ in range(MAX_TRIES):
                    ends, line, rows = queue.pop(layout)
                    if rows is None:
                        continue
                    cand = Segment(Point(*map(float, ends[:2])), Point(*map(float, ends[2:])))
                    crossings = _check(cand, layout, width, height, bool(layout.segments), rows,
                                       queue.known)
                    if crossings is not None:
                        layout.add(cand, crossings, line)
                        break
                else:
                    break  # crowded: settle for fewer, or redraw below
            if len(layout.segments) >= floor:
                return AnnotatedScene(width, height, tuple(layout.segments))
            # an awkward early segment (say, hugging the border) can block all
            # crossings; scrap the attempt and redraw from scratch
        raise GeometryError(f"no {width}x{height} scene with {floor} crossing segments "
                            f"in {MAX_ATTEMPTS} attempts")
    finally:
        _seek(rng.bit_generator, queue.mark)


def make_scenes(seed: int, count: int, width: int = 320,
                height: int = 320) -> list[AnnotatedScene]:
    check_seed(seed)
    if not is_whole(count):
        raise GeometryError(f"scene count {count!r} must be an integer >= 0")
    rng = np.random.default_rng(seed)
    return [make_scene(rng, width, height) for _ in range(count)]
