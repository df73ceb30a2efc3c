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
    _REL_SLACK,
    GeometryError,
    JunctionTable,
    Segment,
    branch_table,
    intersection_points,
    is_whole,
    may_cut,
    near_pairs,
    point_distances,
    segment_array,
    segment_intersection,
    settle,
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
        if not (is_whole(self.width, 1) and is_whole(self.height, 1)):
            raise GeometryError(f"bad scene size {self.width!r}x{self.height!r}, not integers >= 1")
        for k in ("width", "height"):  # numpy's integers are stored as ints, which JSON spells
            object.__setattr__(self, k, int(getattr(self, k)))
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
        v = self.values = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            raise GeometryError(f"heat map shape {v.shape} != ({self.height}, {self.width})")
        if not (v.min(initial=0.0) >= 0.0 and v.max(initial=0.0) < np.inf):  # NaN fails too
            raise GeometryError("heat map values must be finite and >= 0")


_BLOCK_PX = 1 << 15  # pixels per block of rasterize_segments: temporaries of a few MB


def digital_lines(segs: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Liang-Barsky clip of every row (x1, y1, x2, y2) of an (M, 4) segment
    array to the pixel box [0,w-1] x [0,h-1] at once (t0 the max of 0 and q/p
    over the sides with p < 0, t1 the min of 1 and those with p > 0), ends
    rounded half up to (x0, y0), (x0 + dx, y0 + dy): n + 1 pixels, n =
    max(|dx|, |dy|), numbered across the rows in order, so step i of a line
    whose first pixel is f is pixel p = f + i.  Returns the rows that meet
    the image and their (R, 6) intp table for ``line_pixels``: 2*dx, 2*dy,
    bx, by, den = max(2*n, 1), n + 1; bx = x0*den + n - (dx < 0) - 2*dx*f."""
    s = np.ascontiguousarray(segs.T)  # rows of coordinates: reductions run across segments
    with np.errstate(all="ignore"):  # q / 0 is masked out; overflow fails below
        a, d = s[:2], s[2:] - s[:2]
        p, q = np.concatenate([-d, d]), np.concatenate([a, [[width - 1.0], [height - 1.0]] - a])
        r = q / p
        t0, t1 = np.where(p < 0.0, r, 0.0).max(axis=0), np.where(p > 0.0, r, 1.0).min(axis=0)
        rows = np.flatnonzero(~((p == 0.0) & (q < 0.0)).any(axis=0) & ~(t0 > t1))
        ends = np.floor(np.concatenate([a + t0 * d, a + t1 * d])[:, rows] + 0.5)  # half up
    if not np.isfinite(ends).all():
        raise GeometryError("segment coordinates too large to clip")
    x0y0, dxy = ends[:2].astype(np.intp), (ends[2:] - ends[:2]).astype(np.intp)
    n = np.abs(dxy).max(axis=0)
    den, first = np.maximum(2 * n, 1), np.cumsum(n + 1) - (n + 1)
    b = x0y0 * den + n - (dxy < 0) - 2 * dxy * first
    return rows, np.vstack([2 * dxy, b, den, n + 1]).T.copy()


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


def derive_junctions(scene: AnnotatedScene,
                     merge_radius: float = DEFAULT_MERGE_RADIUS) -> JunctionTable:
    """Junctions of the scene: clustered meeting points with branch angles.

    Candidates: each pair's crossing point, which anchors cluster centers,
    and each segment end within merge_radius r of another segment.  Exact
    first, then by (y, x), each joins the first cluster whose center (the
    mean of its members) is within r, or starts one.  A center grows a branch
    per incident segment side longer than r; at least two make a junction.
    Output is sorted by (y, x).

    A center moves toward a new member by 1/k of their gap, so the latest
    member stays within r of it, and a candidate that joins or is joined lies
    within 2r of a member.  One with no other within 2r (plus _REL_SLACK of
    the largest coordinate, far above the rounding of a mean of under 10^6
    points) is a cluster of its own and skips the greedy loop.
    """
    if not 0 <= merge_radius < math.inf:  # NaN fails too
        raise GeometryError(f"merge radius {merge_radius} must be finite and >= 0")
    lines, segs, r = scene.lines, segment_array(scene.lines), merge_radius
    ends = segs.reshape(-1, 2)
    i, j = may_cut(segs, segs)
    i, j = i[i < j], j[i < j]
    sure, xy = intersection_points(segs.take(i, axis=0), segs.take(j, axis=0))
    for k in np.flatnonzero(~sure).tolist():  # near-parallel pairs: the scalar
        hit = segment_intersection(lines[i[k]], lines[j[k]]).point
        xy[k] = (hit.x, hit.y) if hit is not None else np.nan
    e, m = near_pairs(ends, segs, r)
    touch = ends[e[e // 2 != m]]  # ends near another segment
    xy = np.vstack([xy[~np.isnan(xy[:, 0])], touch])
    exact = np.arange(len(xy)) < len(xy) - len(touch)
    order = np.lexsort((xy[:, 0], xy[:, 1], ~exact))  # exact crossings seed the clusters
    xy, exact = xy[order], exact[order].tolist()
    a, b = near_pairs(xy, xy, 2 * r + _REL_SLACK * np.abs(xy).max(initial=0.0))
    starts = np.ones(len(xy), dtype=bool)  # of a cluster, in the end
    starts[a[a != b]] = False  # each pair comes both ways
    pts = {k: xy[k].tolist() for k in np.flatnonzero(~starts).tolist()}  # the linked ones
    clusters: list[list[int]] = []
    centers = np.empty((len(xy), 2), dtype=np.float64)
    for k in pts:
        for c in np.flatnonzero(within(point_distances(xy[k], centers[:len(clusters)]), r)):
            if math.hypot(pts[k][0] - centers[c, 0], pts[k][1] - centers[c, 1]) <= r:
                clusters[c].append(k)
                centers[c] = [sum(pts[m][d] for m in clusters[c]) / len(clusters[c])
                              for d in (0, 1)]
                break
        else:
            centers[len(clusters)] = pts[k]
            clusters.append([k])
    # a hub is the mean of the exact members if any, of all if not; x + 0.0 = sum([x]) / 1
    hubs = xy + 0.0
    for members in clusters:
        anchors = [m for m in members if exact[m]] or members
        hubs[members[0]] = [sum(pts[m][d] for m in anchors) / len(anchors) for d in (0, 1)]
        starts[members[0]] = True
    hubs = hubs[starts]  # in the order the clusters started
    h, m = near_pairs(hubs, segs, r)
    h, e = np.repeat(h, 2), (2 * m[:, None] + [0, 1]).ravel()  # ends a, b of near segments
    far = ~settle(hubs, ends, r, h, e)
    table = branch_table(hubs, h[far], ends[e[far]] - hubs[h[far]], _ANGLE_DEDUP_DEG)
    rows = np.flatnonzero(np.diff(table.offsets) >= 2)
    return table.take(rows[np.lexsort((hubs[rows, 0], hubs[rows, 1]))])  # by (y, x), stable


def render_target_heatmap(scene: AnnotatedScene) -> HeatMap:
    """Heat map whose pixels hold the length of the longest covering line."""
    values = np.zeros((scene.height, scene.width), dtype=np.float64)
    lengths = np.array([s.length for s in scene.lines], dtype=np.float64)
    for xs, ys, ids in rasterize_segments(segment_array(scene.lines), scene.width, scene.height):
        np.maximum.at(values, (ys, xs), lengths[ids])
    return HeatMap(scene.width, scene.height, values)
