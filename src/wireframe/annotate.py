"""Ground truth from labeled line segments.

Turns an annotated scene (image size + line segments) into the two training
targets: junctions, found where two or more segments intersect or touch, and
a heat map whose value at every pixel covered by a line is that line's
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Branch,
    GeometryError,
    Junction,
    Point,
    Segment,
    angle_diff,
    candidate_pairs,
    direction_deg,
    intersection_flags,
    near_lists,
    point_array,
    point_distances,
    point_segment_distance,
    point_segment_distances,
    segment_array,
    segment_intersection,
    within,
)

DEFAULT_MERGE_RADIUS = 2.0

# Two branch directions closer than this (degrees) collapse into one.
_ANGLE_DEDUP_DEG = 1e-6


@dataclass(frozen=True)
class AnnotatedScene:
    width: int
    height: int
    lines: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise GeometryError(f"bad scene size {self.width}x{self.height}")
        for s in self.lines:
            for p in (s.a, s.b):
                if not (0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height):
                    raise GeometryError(f"endpoint ({p.x}, {p.y}) outside scene")


@dataclass
class HeatMap:
    width: int
    height: int
    values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.height, self.width):
            raise GeometryError(
                f"heat map shape {self.values.shape} != ({self.height}, {self.width})")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise GeometryError("heat map values must be finite and >= 0")


def clip_segment(row, width: int, height: int):
    """Liang-Barsky clip of a segment row (x1, y1, x2, y2) to the pixel box
    [0,w-1] x [0,h-1]: clipped float ends ((x1,y1), (x2,y2)), or None when
    the segment misses the box."""
    x1, y1, x2, y2 = row
    dx, dy = x2 - x1, y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x1 - 0.0), (dx, (width - 1.0) - x1),
                 (-dy, y1 - 0.0), (dy, (height - 1.0) - y1)):
        if p == 0.0 and q < 0.0:
            return None
        if p < 0.0:
            t0 = max(t0, q / p)
        elif p > 0.0:
            t1 = min(t1, q / p)
    if t0 > t1:
        return None
    return (x1 + t0 * dx, y1 + t0 * dy), (x1 + t1 * dx, y1 + t1 * dy)


_BLOCK_PX = 1 << 15  # pixels per block of rasterize_segments: temporaries of a few MB


def digital_lines(segs: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Clip each row of an (M, 4) segment array by ``clip_segment`` and round
    its ends half up to (x0, y0), (x0 + dx, y0 + dy): n + 1 pixels with
    n = max(|dx|, |dy|), numbered across the rows in order, so step i of a
    line whose first pixel is f is pixel p = f + i.  Returns the rows that
    meet the image and their (R, 6) intp table for ``line_pixels``: 2*dx,
    2*dy, bx, by, den = max(2*n, 1), n + 1; bx = x0*den + n - (dx < 0) - 2*dx*f.
    """
    rows, lines, first = [], [], 0
    for i, row in enumerate(segs.tolist()):
        clipped = clip_segment(row, width, height)
        if clipped is not None:
            (x1, y1), (x2, y2) = clipped
            x0, y0 = math.floor(x1 + 0.5), math.floor(y1 + 0.5)  # half up on every platform
            dx, dy = math.floor(x2 + 0.5) - x0, math.floor(y2 + 0.5) - y0
            n = max(abs(dx), abs(dy))
            den = max(2 * n, 1)
            rows.append(i)
            lines.append((2 * dx, 2 * dy, x0 * den + n - (dx < 0) - 2 * dx * first,
                          y0 * den + n - (dy < 0) - 2 * dy * first, den, n + 1))
            first += n + 1
    return np.array(rows, dtype=np.intp), np.array(lines, dtype=np.intp).reshape(-1, 6)


def line_pixels(lines: np.ndarray, reps, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (xs, ys) number ``p`` of ``lines``, line r for ``reps[r]`` numbers.

    Bresenham's line (IBM Systems Journal 4(1), 1965) in closed form: step i
    moves i*|dx|/n along x, rounded half up in magnitude, in the sign of dx:
    x = (2*dx*p + bx) // den in the terms of ``digital_lines``; y likewise.
    """
    t = np.repeat(lines.T[:5], reps, axis=1)
    xs, ys = (p * t[0:2] + t[2:4]) // t[4]
    return xs, ys


def rasterize_segments(segs: np.ndarray, width: int, height: int):
    """8-connected digital lines of an (M, 4) segment array in one pass:
    (xs, ys, ids) blocks of about _BLOCK_PX pixels, ids the row of each.
    Rows come in order, each from a to b, both ends included."""
    rows, lines = digital_lines(segs, width, height)
    counts = lines[:, 5]
    first = np.concatenate(([0], np.cumsum(counts)))  # number of each row's first pixel
    bounds = sorted({0, len(rows), *np.searchsorted(
        first, range(_BLOCK_PX, first[-1], _BLOCK_PX)).tolist()})
    for lo, hi in zip(bounds, bounds[1:]):
        yield (*line_pixels(lines[lo:hi], counts[lo:hi], np.arange(first[lo], first[hi])),
               np.repeat(rows[lo:hi], counts[lo:hi]))


def _candidate_points(lines: tuple[Segment, ...],
                      merge_radius: float) -> list[tuple[Point, bool]]:
    """All pairwise intersection / incidence points, duplicates included.

    The flag marks exact crossing points, which anchor cluster centers;
    endpoint-incidence candidates carry annotation slop.
    """
    n = len(lines)
    segs = segment_array(lines)
    # crossing[i, j]: lines i and j may intersect; near[2i + e, j]: endpoint
    # e (0 = a, 1 = b) of line i may lie within merge_radius of line j
    crossing = np.zeros((n, n), dtype=bool)
    crossing[candidate_pairs(intersection_flags, segs, segs)] = True
    near = np.zeros((2 * n, n), dtype=bool)
    near[candidate_pairs(lambda p, s: within(point_segment_distances(p, s), merge_radius),
                         segs.reshape(-1, 2), segs)] = True
    touch = near[0::2] | near[1::2]
    cands: list[tuple[Point, bool]] = []
    for i, j in zip(*(a.tolist() for a in np.nonzero(np.triu(crossing | touch | touch.T, 1)))):
        si, sj = lines[i], lines[j]
        if crossing[i, j]:
            hit = segment_intersection(si, sj)
            if hit.point is not None:
                cands.append((hit.point, True))
        # Endpoints resting on (or near) the other segment: T- and
        # L-junctions with annotation slop, and shared collinear ends.
        for a, b, ka, kb in ((si, sj, i, j), (sj, si, j, i)):
            for e, row in ((a.a, 2 * ka), (a.b, 2 * ka + 1)):
                if near[row, kb] and point_segment_distance(e, b) <= merge_radius:
                    cands.append((e, False))
    return cands


def derive_junctions(scene: AnnotatedScene,
                     merge_radius: float = DEFAULT_MERGE_RADIUS) -> list[Junction]:
    """Junctions of the scene: clustered meeting points with branch angles.

    Candidate points (pairwise segment intersections plus endpoints incident
    to another segment) are greedily clustered within merge_radius.  Each
    cluster center grows one branch per incident segment side whose remaining
    length exceeds merge_radius; clusters with fewer than two branches are
    dropped.  Output is sorted by (y, x).
    """
    if not 0 <= merge_radius < math.inf:  # NaN fails too
        raise GeometryError(f"merge radius {merge_radius} must be finite and >= 0")
    cands = _candidate_points(scene.lines, merge_radius)
    # exact crossings first so they seed the clusters
    cands.sort(key=lambda pe: (not pe[1], pe[0].y, pe[0].x))

    # Each candidate joins the first cluster whose center (the mean of its
    # members, recomputed only when the cluster grows) is within
    # merge_radius; the prefilter over all centers picks the clusters worth
    # the exact test.
    clusters: list[list[tuple[Point, bool]]] = []
    centers = np.empty((len(cands), 2), dtype=np.float64)
    for p, exact in cands:
        xy = np.array((p.x, p.y))
        for k in np.flatnonzero(within(point_distances(xy, centers[:len(clusters)]),
                                       merge_radius)).tolist():
            cx, cy = centers[k].tolist()
            if math.hypot(p.x - cx, p.y - cy) <= merge_radius:
                members = clusters[k]
                members.append((p, exact))
                centers[k] = (sum(m.x for m, _ in members) / len(members),
                              sum(m.y for m, _ in members) / len(members))
                break
        else:
            centers[len(clusters)] = (p.x, p.y)
            clusters.append([(p, exact)])

    # a cluster holding exact crossing points centers on those alone
    anchors = [[m for m, exact in members if exact] or [m for m, _ in members]
               for members in clusters]
    hubs = [Point(sum(m.x for m in a) / len(a), sum(m.y for m in a) / len(a))
            for a in anchors]
    near = near_lists(point_segment_distances, point_segment_distance, hubs, scene.lines,
                      point_array(hubs), segment_array(scene.lines), merge_radius)
    junctions = []
    for c, lines in zip(hubs, near):
        angles: list[float] = []
        for seg in (scene.lines[m] for m in lines):
            for e in (seg.a, seg.b):
                if c.distance_to(e) > merge_radius:
                    angles.append(direction_deg(c, e))
        branches: list[Branch] = []
        for a in sorted(angles):
            if not any(abs(angle_diff(a, b.angle_deg)) <= _ANGLE_DEDUP_DEG for b in branches):
                branches.append(Branch(a, 1.0))
        if len(branches) >= 2:
            junctions.append(Junction(c, tuple(branches), 1.0))
    junctions.sort(key=lambda j: (j.center.y, j.center.x))
    return junctions


def render_target_heatmap(scene: AnnotatedScene) -> HeatMap:
    """Heat map whose pixels hold the length of the longest covering line."""
    values = np.zeros((scene.height, scene.width), dtype=np.float64)
    lengths = np.array([s.length for s in scene.lines], dtype=np.float64)
    for xs, ys, ids in rasterize_segments(segment_array(scene.lines), scene.width, scene.height):
        np.maximum.at(values, (ys, xs), lengths[ids])
    return HeatMap(scene.width, scene.height, values)
