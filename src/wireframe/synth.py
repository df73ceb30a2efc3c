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
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .annotate import AnnotatedScene
from .geometry import (GeometryError, Point, Segment, check_seed, point_segment_distance,
                       segment_intersection)

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


def _check(cand: Segment, existing: list[Segment], junctions: list[Point],
           width: int, height: int, need_crossing: bool) -> Optional[list[Point]]:
    """New crossings if the candidate is acceptable, else None."""
    new_junctions: list[Point] = []
    for other in existing:
        hit = segment_intersection(cand, other)
        if hit.collinear:
            return None
        if hit.point is None:
            if _min_separation(cand, other) < MIN_CLEARANCE:
                return None
            if _crossing_angle(cand, other) < 15.0 and (
                    _line_distance(other.a, cand) < 4.0
                    or _line_distance(other.b, cand) < 4.0):
                return None  # collinear continuation, unresolvable in pixels
            continue
        p = hit.point
        if not (JUNCTION_MARGIN <= p.x <= width - JUNCTION_MARGIN
                and JUNCTION_MARGIN <= p.y <= height - JUNCTION_MARGIN):
            return None
        if _crossing_angle(cand, other) < MIN_CROSS_ANGLE:
            return None
        for e in (cand.a, cand.b, other.a, other.b):
            if 0.0 < p.distance_to(e) < MIN_STUB:
                return None
            if p.distance_to(e) == 0.0:
                return None  # keep pure crossings; no T or L junctions
        new_junctions.append(p)
    if need_crossing and not new_junctions:
        return None
    for p in new_junctions:
        for q in junctions + new_junctions:
            if 0.0 < p.distance_to(q) < MIN_JUNCTION_SEP:
                return None
    return new_junctions


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
        segments: list[Segment] = []
        junctions: list[Point] = []
        # the second segment must cross the first, and every later one must
        # cross something already placed, so no segment ends up isolated
        while len(segments) < n_segments:
            for _ in range(max_tries):
                cand = _candidate(rng, width, height)
                crossings = _check(cand, segments, junctions, width, height,
                                   need_crossing=bool(segments))
                if crossings is not None:
                    segments.append(cand)
                    junctions.extend(crossings)
                    break
            else:
                break  # crowded: settle for fewer, or redraw below
        if len(segments) >= floor:
            return AnnotatedScene(width, height, tuple(segments))
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
