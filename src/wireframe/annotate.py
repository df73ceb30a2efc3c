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
    candidate_pairs,
    direction_deg,
    intersection_flags,
    pairs_by_row,
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


def clip_segment(s: Segment, width: int, height: int):
    """Liang-Barsky clip of a segment to the pixel box [0,w-1] x [0,h-1].

    Returns clipped float endpoints ((x1,y1), (x2,y2)) or None when the
    segment misses the box entirely.
    """
    x1, y1 = s.a.x, s.a.y
    dx, dy = s.b.x - x1, s.b.y - y1
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x1 - 0.0), (dx, (width - 1.0) - x1),
                 (-dy, y1 - 0.0), (dy, (height - 1.0) - y1)):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    if t0 > t1:
        return None
    return (x1 + t0 * dx, y1 + t0 * dy), (x1 + t1 * dx, y1 + t1 * dy)


def _round_px(v: float) -> int:
    # round-half-up keeps the walk deterministic across platforms
    return int(math.floor(v + 0.5))


def rasterize_segment(s: Segment, width: int, height: int) -> np.ndarray:
    """8-connected digital line between the rounded, clipped endpoints.

    Returns an (n, 2) intp array of (x, y) pixels in walk order from a to b,
    endpoints included, or shape (0, 2) for a segment that misses the image.
    The line is Bresenham's (IBM Systems Journal 4(1), 1965) in closed form:
    for rounded deltas dx, dy and n = max(|dx|, |dy|), step i = 0..n moves
    (2*i*|d| + n) // (2*n) along each axis with delta d, in the sign of d.
    That is i along the major axis and i*m/n rounded half up along the
    minor one, m = min(|dx|, |dy|).
    """
    clipped = clip_segment(s, width, height)
    if clipped is None:
        return np.empty((0, 2), dtype=np.intp)
    (cx1, cy1), (cx2, cy2) = clipped
    x0, y0 = _round_px(cx1), _round_px(cy1)
    dx, dy = _round_px(cx2) - x0, _round_px(cy2) - y0
    n = max(abs(dx), abs(dy))
    steps = np.arange(n + 1, dtype=np.intp)[:, None]
    moves = (steps * (2 * abs(dx), 2 * abs(dy)) + n) // max(2 * n, 1)
    return moves * (np.sign(dx), np.sign(dy)) + (x0, y0)


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
    rows, cols = candidate_pairs(
        lambda c, s: within(point_segment_distances(c, s), merge_radius),
        point_array(hubs), segment_array(scene.lines))
    junctions = []
    for c, near in zip(hubs, pairs_by_row(rows, cols, len(hubs))):
        angles: list[float] = []
        for seg in (scene.lines[m] for m in near):
            if point_segment_distance(c, seg) > merge_radius:
                continue
            for e in (seg.a, seg.b):
                if c.distance_to(e) > merge_radius:
                    angles.append(direction_deg(c, e))
        angles.sort()
        branches = []
        for a in angles:
            if any(_circ_close(a, b.angle_deg) for b in branches):
                continue
            branches.append(Branch(a, 1.0))
        if len(branches) >= 2:
            junctions.append(Junction(c, tuple(branches), 1.0))
    junctions.sort(key=lambda j: (j.center.y, j.center.x))
    return junctions


def _circ_close(a: float, b: float) -> bool:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d) <= _ANGLE_DEDUP_DEG


def render_target_heatmap(scene: AnnotatedScene) -> HeatMap:
    """Heat map whose pixels hold the length of the longest covering line."""
    values = np.zeros((scene.height, scene.width), dtype=np.float64)
    for seg in scene.lines:
        # a digital line never repeats a pixel, so one gather/scatter is exact
        xs, ys = rasterize_segment(seg, scene.width, scene.height).T
        values[ys, xs] = np.maximum(values[ys, xs], seg.length)
    return HeatMap(scene.width, scene.height, values)
