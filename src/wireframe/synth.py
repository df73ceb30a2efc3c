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

A candidate meets the scalar ``_row_check`` only on the accepted segments an
array pass flags.  The rest surely pass: their four endpoint-to-line distances
exceed MIN_CLEARANCE (with the ``within`` margin), which rules out a near end
or a continuation, and their ends do not straddle each other's lines both
ways, which rules out a crossing.  A row's verdict depends on that row alone,
so likely failures are checked first; crossings keep the accepted order.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from .annotate import AnnotatedScene
from .geometry import (GeometryError, Point, Segment, check_seed, point_array, point_distances,
                       point_segment_distance, segment_intersection, within)

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
# Accepted segments below which the array pass costs more than the scalar
# checks it saves (timed per candidate on 320^2 scenes): all rows are flagged.
_ROW_CROSSOVER = 5
_SIN_CROSS = math.sin(math.radians(MIN_CROSS_ANGLE))
# A candidate's (5, 8) matrix as indices into (0, 1, nx, ny, c, a.x, a.y,
# b.x, b.y, -ny).  Times a segment's column it gives the signed distances of
# the segment's a and b from the candidate's line, of the candidate's a and b
# from the segment's line, and the sine of the angle between the two.
_PASS = np.array([[2, 3, 0, 0, 0, 0, 0, 4], [0, 0, 2, 3, 0, 0, 0, 4],
                  [0, 0, 0, 0, 5, 6, 1, 0], [0, 0, 0, 0, 7, 8, 1, 0],
                  [0, 0, 0, 0, 9, 2, 0, 0]])


def _crossing_angle(s: Segment, t: Segment) -> float:
    a1 = math.atan2(s.b.y - s.a.y, s.b.x - s.a.x)
    a2 = math.atan2(t.b.y - t.a.y, t.b.x - t.a.x)
    d = abs(math.degrees(a1 - a2)) % 180.0
    return min(d, 180.0 - d)


def _line_distance(p: Point, s: Segment) -> float:
    dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
    return abs((p.x - s.a.x) * dy - (p.y - s.a.y) * dx) / math.hypot(dx, dy)


def _min_separation(s: Segment, t: Segment) -> float:
    return min(point_segment_distance(s.a, t), point_segment_distance(s.b, t),
               point_segment_distance(t.a, s), point_segment_distance(t.b, s))


def _unit_line(s: Segment) -> tuple[float, float, float]:
    """Unit normal (nx, ny) and offset c of the line through s: nx*x + ny*y + c."""
    length = s.length
    nx, ny = (s.b.y - s.a.y) / length, (s.a.x - s.b.x) / length
    return nx, ny, -(nx * s.a.x + ny * s.a.y)


def _candidate(rng: np.random.Generator, width: int, height: int) -> Segment:
    while True:
        x1 = int(rng.integers(ENDPOINT_MARGIN, width - ENDPOINT_MARGIN + 1))
        y1 = int(rng.integers(ENDPOINT_MARGIN, height - ENDPOINT_MARGIN + 1))
        theta = rng.uniform(0, 2 * math.pi)
        length = rng.uniform(MIN_LENGTH, MAX_LENGTH_FRAC * min(width, height))
        x2 = round(x1 + length * math.cos(theta))
        y2 = round(y1 + length * math.sin(theta))
        if ENDPOINT_MARGIN <= x2 <= width - ENDPOINT_MARGIN and \
                ENDPOINT_MARGIN <= y2 <= height - ENDPOINT_MARGIN and \
                math.hypot(x2 - x1, y2 - y1) >= MIN_LENGTH:
            return Segment(Point(float(x1), float(y1)), Point(float(x2), float(y2)))


def _row_check(cand: Segment, other: Segment, width: int, height: int) -> Point | bool | None:
    """False if ``other`` rules the candidate out, else their crossing or None."""
    hit = segment_intersection(cand, other)
    if hit.collinear:
        return False
    if hit.point is None:
        if _min_separation(cand, other) < MIN_CLEARANCE:
            return False
        if _crossing_angle(cand, other) < 15.0 and (
                _line_distance(other.a, cand) < 4.0 or _line_distance(other.b, cand) < 4.0):
            return False  # collinear continuation, unresolvable in pixels
        return None
    p = hit.point
    if not (JUNCTION_MARGIN <= p.x <= width - JUNCTION_MARGIN
            and JUNCTION_MARGIN <= p.y <= height - JUNCTION_MARGIN):
        return False
    if _crossing_angle(cand, other) < MIN_CROSS_ANGLE:
        return False
    # a stub shorter than MIN_STUB, or distance 0: keep pure crossings, no T or L
    if min(p.distance_to(e) for e in (cand.a, cand.b, other.a, other.b)) < MIN_STUB:
        return False
    return p


class _Layout:
    """Accepted segments and crossings, with array copies: a column per segment
    (a.x, a.y, b.x, b.y, its unit line nx, ny, c, and 1), a row per crossing."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self.junctions: list[Point] = []
        self.cols, self.points = np.empty((8, 0)), np.empty((0, 2))

    def add(self, seg: Segment, crossings: list[Point]) -> None:
        col = (seg.a.x, seg.a.y, seg.b.x, seg.b.y, *_unit_line(seg), 1.0)
        self.cols = np.column_stack([self.cols, col])
        self.points = np.concatenate([self.points, point_array(crossings)])
        self.segments.append(seg)
        self.junctions.extend(crossings)

    def flagged(self, cand: Segment) -> Iterator[int]:
        """Rows that may fail ``_row_check`` for the candidate, likeliest
        failures first: shallow crossings, near rows, then other crossings.
        Every row below _ROW_CROSSOVER."""
        n = len(self.segments)
        if n < _ROW_CROSSOVER:
            yield from range(n)
            return
        nx, ny, c = _unit_line(cand)
        a, b = cand.a, cand.b
        g = np.array((0.0, 1.0, nx, ny, c, a.x, a.y, b.x, b.y, -ny))[_PASS] @ self.cols
        crossing = np.maximum(g[0] * g[1], g[2] * g[3]) < 0.0  # straddle both ways
        shallow = crossing & (np.abs(g[4]) < _SIN_CROSS)
        yield from shallow.nonzero()[0].tolist()
        near = within(np.abs(g[:4]).min(axis=0), MIN_CLEARANCE)
        yield from (near & ~shallow).nonzero()[0].tolist()
        yield from (crossing & ~(near | shallow)).nonzero()[0].tolist()


def _check(cand: Segment, layout: _Layout, width: int, height: int,
           need_crossing: bool) -> Optional[list[Point]]:
    """New crossings if the candidate is acceptable, else None."""
    found = {}
    for i in layout.flagged(cand):
        p = _row_check(cand, layout.segments[i], width, height)
        if p is False:
            return None
        if p is not None:
            found[i] = p
    new = [found[i] for i in sorted(found)]
    if need_crossing and not new:
        return None
    xy = point_array(new)
    every = layout.junctions + new
    near = within(point_distances(xy[:, None], np.concatenate([layout.points, xy])),
                  MIN_JUNCTION_SEP)
    for i, j in zip(*near.nonzero()):
        if 0.0 < new[i].distance_to(every[j]) < MIN_JUNCTION_SEP:
            return None
    return new


def make_scene(rng: np.random.Generator, width: int = 320, height: int = 320,
               n_segments: Optional[int] = None,
               max_tries: int = 400) -> AnnotatedScene:
    """One random scene; n_segments defaults to a draw in [5, 30].

    GeometryError if the image is too small for a segment or for MAX_ATTEMPTS.
    """
    if MAX_LENGTH_FRAC * min(width, height) < MIN_LENGTH:
        raise GeometryError(f"a {width}x{height} image cannot hold a {MIN_LENGTH:g} px segment")
    if n_segments is None:
        n_segments = int(rng.integers(MIN_SEGMENTS, MAX_SEGMENTS + 1))
    floor = min(n_segments, MIN_SEGMENTS)
    for _ in range(MAX_ATTEMPTS):
        layout = _Layout()
        # the second segment must cross the first, and every later one must
        # cross something already placed, so no segment ends up isolated
        while len(layout.segments) < n_segments:
            for _ in range(max_tries):
                cand = _candidate(rng, width, height)
                crossings = _check(cand, layout, width, height,
                                   need_crossing=bool(layout.segments))
                if crossings is not None:
                    layout.add(cand, crossings)
                    break
            else:
                break  # crowded: settle for fewer, or redraw below
        if len(layout.segments) >= floor:
            return AnnotatedScene(width, height, tuple(layout.segments))
        # an awkward early segment (say, hugging the border) can block all
        # crossings; scrap the attempt and redraw from scratch
    raise GeometryError(f"no {width}x{height} scene with {floor} crossing segments "
                        f"in {MAX_ATTEMPTS} attempts")


def make_scenes(seed: int, count: int, width: int = 320,
                height: int = 320) -> list[AnnotatedScene]:
    check_seed(seed)
    if count < 0:
        raise GeometryError(f"scene count {count} must be >= 0")
    rng = np.random.default_rng(seed)
    return [make_scene(rng, width, height) for _ in range(count)]
