"""Exact 2D primitives and the junction/segment incidence model.

Coordinate frame: image coordinates with the origin at the top-left corner,
x growing rightward and y growing downward.  Angles are measured in degrees
from +x toward +y (clockwise on screen) and normalized to [0, 360).
All coordinates are 64-bit floats.

Distances are exact: ``_norm``, the one norm of ``Point.distance_to`` and
``point_segment_distance``, takes only +, *, / and sqrt, which IEEE rounds
correctly in ``math`` and numpy alike, so their array forms give the same
float and meet the limit directly.  Angles and intersections use
``math.atan2``/``math.hypot``, from which numpy's may differ by an ulp: for
those the array kernel below proposes a superset of the pairs that can
pass, with a small margin for that ulp (NaN from an underflow or overflow
counts as a candidate).  A value inside the limit by more than the margin
(``surely_within``) passes the scalar test too, so the array accepts it at
once; the scalar function decides the rest in the original iteration
order, and the result is that of the all-pairs loop.

Only pairs whose boxes overlap reach a kernel; ``box_pairs`` finds them by
sort and sweep, not by testing every pair.  A box is a point or a segment
padded by the limit (|dx| <= distance) or by a cut's share (``may_cut``),
plus some ulps of its coordinates, so it keeps every pair that the
all-pairs test kept.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

# Default slack for "junction lies on segment" tests on real predictions.
DEFAULT_INCIDENCE_TOL = 1.0

_PARALLEL_EPS = 1e-12

# Prefilter slack: relative on the limit, plus an absolute floor (distance
# units or degrees).  Far wider than the few ulps the array forms can differ.
_REL_SLACK = 1e-9
_DIST_SLACK = 1e-9
_ANGLE_SLACK = 1e-6
# Pairs per block (candidates, or ray x junction entries), so temporaries
# stay a few MB.
_BLOCK_PAIRS = 1 << 16


class GeometryError(ValueError):
    """Invalid geometric input (degenerate segment, non-finite point, ...)."""


def is_whole(v, low: int = 0) -> bool:
    """v is an integer >= low, numpy's too; booleans, floats, NaN and inf are not."""
    return not isinstance(v, bool) and isinstance(v, (int, np.integer)) and v >= low


def check_seed(seed: int) -> None:
    """A generator seed is an integer >= 0; booleans are not seeds."""
    if not is_whole(seed):
        raise GeometryError(f"seed {seed!r} must be an integer >= 0")


def normalize_angle(theta_deg: float) -> float:
    """Map an angle in degrees onto [0, 360)."""
    a = math.fmod(theta_deg, 360.0)
    return (a + 360.0) % 360.0 if a < 0.0 else a  # a lift onto 360.0 wraps to 0.0


def normalize_angles(theta_deg) -> np.ndarray:
    """normalize_angle over an array of floats, bit for bit; scalars stay scalars."""
    a = np.fmod(theta_deg, 360.0, dtype=np.float64)
    return np.where(a < 0.0, (a + 360.0) % 360.0, a)[()]


def angle_diff(a_deg: float, b_deg: float) -> float:
    """Signed angular difference a - b wrapped onto [-180, 180)."""
    d = math.fmod(a_deg - b_deg, 360.0)
    if d < -180.0:
        d += 360.0
    elif d >= 180.0:
        d -= 360.0
    return d


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return _norm(self.x - other.x, self.y - other.y)


def _norm(x: float, y: float) -> float:
    """hypot(x, y) as m sqrt((x/m)^2 + (y/m)^2), m = max(|x|, |y|), or m where
    that is 0 or inf (overflowed): no square under- or overflows, and it is
    never below m."""
    x, y = abs(x), abs(y)
    m = x if x > y else y  # max(x, y) without the cost of a call
    if not 0.0 < m < math.inf:
        return m
    a, b = x / m, y / m
    return m * math.sqrt(a * a + b * b)


def direction_deg(origin: Point, target: Point) -> float:
    """Angle of the ray origin -> target, degrees in [0, 360)."""
    return normalize_angle(math.degrees(math.atan2(target.y - origin.y,
                                                   target.x - origin.x)))


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a.x == self.b.x and self.a.y == self.b.y:
            raise GeometryError(f"degenerate segment at ({self.a.x}, {self.a.y})")

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)


@dataclass(frozen=True)
class Branch:
    """One outgoing direction of a junction."""
    angle_deg: float
    confidence: float = 1.0


@dataclass(frozen=True)
class Junction:
    center: Point
    branches: tuple[Branch, ...] = ()
    confidence: float = 1.0
    # True for points materialized as segment endpoints during wireframe
    # construction rather than detected directly.
    derived: bool = False

    @property
    def order(self) -> int:
        return len(self.branches)


class JunctionTable(Sequence):
    """Junctions as arrays: centres (N, 2), confidence and derived (N,), and
    branch offsets (N + 1,) into the branch angles and confidences (B,), with
    each branch's junction (``owner``).  A read-only sequence that builds a
    ``Junction`` only when asked; a slice is a table.  Centres are finite, as
    ``Point``s are."""

    __slots__ = ("centers", "confidence", "derived", "offsets", "angles", "branch_conf", "owner")

    def __init__(self, centers, confidence, derived, offsets, angles, branch_conf) -> None:
        self.centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
        self.confidence, self.angles, self.branch_conf = (
            np.asarray(a, dtype=np.float64) for a in (confidence, angles, branch_conf))
        self.derived, self.offsets = np.asarray(derived, bool), np.asarray(offsets, np.intp)
        self.owner = np.repeat(np.arange(len(self.confidence)), np.diff(self.offsets))
        if not np.isfinite(self.centers).all():  # the first in Point's words
            x, y = self.centers[~np.isfinite(self.centers).all(axis=1)][0].tolist()
            raise GeometryError(f"non-finite point ({x}, {y})")

    def take(self, rows, branches: Optional[np.ndarray] = None) -> "JunctionTable":
        """The junctions at ``rows``, in that order, with the branches that the
        (B,) mask ``branches`` keeps (all by default)."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        which = np.arange(len(self.angles)) if branches is None else np.flatnonzero(branches)
        at = np.searchsorted(which, self.offsets)  # kept branches before each junction
        n = at[rows + 1] - at[rows]
        stop = np.cumsum(n)  # of each kept junction's branches in the new table
        b = which[np.repeat(at[rows] - stop + n, n) + np.arange(n.sum())]
        return JunctionTable(self.centers[rows], self.confidence[rows], self.derived[rows],
                             np.append(0, stop), self.angles[b], self.branch_conf[b])

    def __len__(self) -> int:
        return len(self.confidence)

    def __getitem__(self, i):
        rows = np.arange(len(self))[i]  # IndexError past either end
        return self.take(rows) if isinstance(i, slice) else next(iter(self.take(rows)))

    def __iter__(self):
        bs = list(map(Branch, self.angles.tolist(), self.branch_conf.tolist()))
        o = self.offsets.tolist()
        return (Junction(Point(x, y), tuple(bs[lo:hi]), c, d) for (x, y), c, d, lo, hi in zip(
            self.centers.tolist(), self.confidence.tolist(), self.derived.tolist(), o, o[1:]))

    def __eq__(self, other) -> bool:  # as the list of its Junctions
        if isinstance(other, (JunctionTable, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"JunctionTable({list(self)!r})"


def junction_table(junctions: Sequence[Junction]) -> JunctionTable:
    """A caller's junctions read into a table; a table is returned as it is."""
    if isinstance(junctions, JunctionTable):
        return junctions
    js = list(junctions)
    bs = [b for j in js for b in j.branches]
    return JunctionTable(point_array([j.center for j in js]), [j.confidence for j in js],
                         [bool(j.derived) for j in js], np.cumsum([0] + [j.order for j in js]),
                         [b.angle_deg for b in bs], [b.confidence for b in bs])


def branch_table(centers: np.ndarray, owner: np.ndarray, dxy: np.ndarray,
                 width: float) -> JunctionTable:
    """Junctions at the (N, 2) centres, with a branch toward each (B, 2) offset dxy[b]
    of centre owner[b] at ``direction_deg``'s angle, stably sorted by it, less any within
    width degrees of an earlier kept one (width 0: exact repeats).  Confidences are 1."""
    # direction_deg with math.atan2 (np.arctan2 differs); np.degrees is math.degrees bit for bit
    angles = normalize_angles(np.degrees([math.atan2(y, x) for x, y in zip(*dxy.T.tolist())]))
    order, n = np.lexsort((angles, owner)), len(centers)
    h, angles = owner[order], angles[order]
    bounds = np.searchsorted(h, np.arange(n + 1))
    # sorted angles more than twice the width from the next (the first + 360
    # after the last) are that far apart pairwise: all are branches
    after = np.where(np.append(h[1:] == h[:-1], False), np.append(angles[1:], 0.0),
                     angles[bounds[h]] + 360.0)
    tight = np.bincount(h[after - angles <= 2 * width], minlength=n) > 0
    keep, a = np.ones(len(angles), dtype=bool), angles.tolist()
    for lo, hi in zip(bounds[:-1][tight].tolist(), bounds[1:][tight].tolist()):
        kept = []  # the any-earlier test
        for k in range(lo, hi):
            keep[k] = not any(abs(angle_diff(a[k], a[m])) <= width for m in kept)
            if keep[k]:
                kept.append(k)
    return JunctionTable(centers, np.ones(n), np.zeros(n, dtype=bool), np.searchsorted(
        h[keep], np.arange(n + 1)), angles[keep], np.ones(np.count_nonzero(keep)))


class SegmentIntersection(NamedTuple):
    """Result of intersecting two closed segments.

    ``point`` is set when the segments meet in exactly one point.  When the
    segments are collinear and overlap along a positive-length stretch,
    ``point`` is None and ``collinear`` is True.
    """
    point: Optional[Point]
    collinear: bool = False


def _cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


def segment_intersection(s1: Segment, s2: Segment) -> SegmentIntersection:
    """Intersect two closed segments.

    Returns the unique intersection point when one exists (interior or
    endpoint), no point when the segments are disjoint, and the collinear
    flag when they overlap along a shared line.
    """
    ax, ay = s1.a.x, s1.a.y
    rx, ry = s1.b.x - ax, s1.b.y - ay
    cx, cy = s2.a.x, s2.a.y
    sx, sy = s2.b.x - cx, s2.b.y - cy
    qpx, qpy = cx - ax, cy - ay

    denom = _cross(rx, ry, sx, sy)
    scale = math.hypot(rx, ry) * math.hypot(sx, sy)
    if not scale < math.inf:  # rx, ry, sx, sy or denom overflowed, and so scale did
        # Redo it in coordinates scaled by 2^-k, under 2^510, so |r| |s| < 2^1023: exact
        # unless a coordinate goes subnormal, which may make a segment of one point.
        ends = (s1.a, s1.b, s2.a, s2.b)
        k = math.frexp(max(max(abs(p.x), abs(p.y)) for p in ends))[1] - 510
        a, b, c, d = (Point(math.ldexp(p.x, -k), math.ldexp(p.y, -k)) for p in ends)
        if a != b and c != d:
            hit = segment_intersection(Segment(a, b), Segment(c, d))
            p = hit.point
            return hit if p is None else SegmentIntersection(
                Point(math.ldexp(p.x, k), math.ldexp(p.y, k)))
    if abs(denom) <= _PARALLEL_EPS * scale:
        # Parallel.  Collinear iff s2.a sits on the line through s1.
        if abs(_cross(qpx, qpy, rx, ry)) > _PARALLEL_EPS * scale:
            return SegmentIntersection(None)
        # Parameterize along the longer segment, so that both orders agree,
        # in units of its longer side k, so that no square under- or overflows.
        if math.hypot(sx, sy) > math.hypot(rx, ry):
            return segment_intersection(s2, s1)
        k = max(abs(rx), abs(ry))
        ux, uy = rx / k, ry / k
        t0 = (qpx / k * ux + qpy / k * uy) / (ux * ux + uy * uy)
        t1 = ((s2.b.x - ax) / k * ux + (s2.b.y - ay) / k * uy) / (ux * ux + uy * uy)
        lo, hi = min(t0, t1), max(t0, t1)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if lo > hi:
            return SegmentIntersection(None)
        if lo == hi:  # touch at a single shared point
            return SegmentIntersection(Point(ax + lo * rx, ay + lo * ry))
        return SegmentIntersection(None, collinear=True)

    t = _cross(qpx, qpy, sx, sy) / denom
    u = _cross(qpx, qpy, rx, ry) / denom
    if -_PARALLEL_EPS <= t <= 1.0 + _PARALLEL_EPS and -_PARALLEL_EPS <= u <= 1.0 + _PARALLEL_EPS:
        tc = min(max(t, 0.0), 1.0)
        x, y = ax + tc * rx, ay + tc * ry
        if t != tc:  # on s2 unless u needs the clamp too and s1's end is first by (y, x)
            uc = min(max(u, 0.0), 1.0)
            qx, qy = cx + uc * sx, cy + uc * sy
            x, y = (qx, qy) if u == uc or (qy, qx) < (y, x) else (x, y)
        return SegmentIntersection(Point(x, y))
    return SegmentIntersection(None)


def point_segment_distance(p: Point, s: Segment) -> float:
    """Distance from a point to the closed segment; t in units of its longer
    side k, so no square under- or overflows."""
    ax, ay = s.a.x, s.a.y
    dx, dy = s.b.x - ax, s.b.y - ay
    k = max(abs(dx), abs(dy))
    ux, uy = dx / k, dy / k
    t = ((p.x - ax) * ux + (p.y - ay) * uy) / k / (ux * ux + uy * uy)
    t = min(max(t, 0.0), 1.0)
    return _norm(p.x - (ax + t * dx), p.y - (ay + t * dy))


def build_incidence(centers: np.ndarray, segments: np.ndarray,
                    tol: float = DEFAULT_INCIDENCE_TOL) -> np.ndarray:
    """W as the (K, 2) int64 rows (n, m), row-major, of its ones: (N, 2) centre
    row n lies within ``tol`` of (M, 4) segment row m by ``near_pairs``."""
    if not 0 <= tol < math.inf:  # NaN fails too
        raise GeometryError(f"incidence tolerance {tol} must be finite and >= 0")
    return np.column_stack(near_pairs(centers, segments, tol))


# -- array kernels: candidate prefilters for the scalar tests above --

def point_array(points: Sequence[Point]) -> np.ndarray:
    """(N, 2) array of x, y."""
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)


def segment_array(segments: Sequence[Segment]) -> np.ndarray:
    """(M, 4) array of a.x, a.y, b.x, b.y."""
    return np.array([(s.a.x, s.a.y, s.b.x, s.b.y) for s in segments],
                    dtype=np.float64).reshape(-1, 4)


def within(values: np.ndarray, limit: float, slack: float = _DIST_SLACK) -> np.ndarray:
    """Mask of values that may be <= limit once computed by the scalar
    function; NaN is kept."""
    return ~(values > limit * (1.0 + _REL_SLACK) + slack)


def surely_within(values: np.ndarray, limit: float, slack: float = _DIST_SLACK) -> np.ndarray:
    """Mask of values that are <= limit once computed by the scalar function
    too; NaN is not."""
    return values < limit * (1.0 - _REL_SLACK) - slack


def _norms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_norm`` over arrays, bit for bit: fmax takes m where 0 or inf made the
    norm NaN, and the norm, never below m, elsewhere."""
    m = np.maximum(np.abs(x), np.abs(y))
    with np.errstate(all="ignore"):
        a, b = x / m, y / m
        return np.fmax(m * np.sqrt(a * a + b * b), m)


def point_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Broadcast ``Point.distance_to`` over (..., 2) arrays, bit for bit."""
    return _norms(p[..., 0] - q[..., 0], p[..., 1] - q[..., 1])


def point_segment_distances(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Broadcast ``point_segment_distance`` over (..., 2) points and (..., 4)
    segments, bit for bit."""
    ax, ay = s[..., 0], s[..., 1]
    dx, dy = s[..., 2] - ax, s[..., 3] - ay
    px, py = p[..., 0], p[..., 1]
    with np.errstate(all="ignore"):
        k = np.maximum(np.abs(dx), np.abs(dy))
        ux, uy = dx / k, dy / k
        t = np.clip(((px - ax) * ux + (py - ay) * uy) / k / (ux * ux + uy * uy), 0.0, 1.0)
        return _norms(px - (ax + t * dx), py - (ay + t * dy))


def intersection_params(s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, ...]:
    """Broadcast over (..., 4) segments: ``segment_intersection``'s denom,
    t * denom and u * denom bit for bit, and |r| and |s| by ``np.hypot``."""
    ax, ay = s1[..., 0], s1[..., 1]
    rx, ry = s1[..., 2] - ax, s1[..., 3] - ay
    sx, sy = s2[..., 2] - s2[..., 0], s2[..., 3] - s2[..., 1]
    qpx, qpy = s2[..., 0] - ax, s2[..., 1] - ay
    return (rx * sy - ry * sx, qpx * sy - qpy * sx, qpx * ry - qpy * rx,
            np.hypot(rx, ry), np.hypot(sx, sy))


def intersection_points(s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast ``segment_intersection(s1, s2).point`` over (..., 4)
    segments where the arrays settle it: (sure, xy), xy NaN for no point.
    A pair surely not parallel has the scalar's t, u and point.  A surely
    parallel one has none if surely off the line by the cross product the
    scalar tests before it may swap, or, along r, apart or overlapping by
    more than a margin for rounding and the < 1e-12 turn.  Others are not
    sure."""
    a, r, c = s1[..., :2], s1[..., 2:] - s1[..., :2], s2[..., :2]
    with np.errstate(all="ignore"):
        denom, tn, un, lr, ls = intersection_params(s1, s2)
        eps, t, u = _PARALLEL_EPS * (lr * ls), tn / denom, un / denom
        crossing = np.abs(denom) > 2 * eps
        ends = ((s2.reshape(*s2.shape[:-1], 2, 2) - a[..., None, :])  # s2's ends along r / |r|
                * (r / lr[..., None])[..., None, :]).sum(-1)
        lo, hi = np.maximum(ends.min(-1), 0.0), np.minimum(ends.max(-1), lr)
        margin = _REL_SLACK * (lr + ls + np.abs(c - a).sum(-1)) + _DIST_SLACK
        none = (np.abs(denom) < eps / 2) & ((np.abs(un) > 2 * eps) | (np.abs(hi - lo) > margin)
                                            & (eps < np.inf))  # |r| |s| overflows: all parallel
        hit = crossing & (t >= -_PARALLEL_EPS) & (t <= 1.0 + _PARALLEL_EPS) & (
            u >= -_PARALLEL_EPS) & (u <= 1.0 + _PARALLEL_EPS)  # the scalar's slack
        tc, uc = np.clip(t, 0.0, 1.0), np.clip(u, 0.0, 1.0)
        p, q = a + tc[..., None] * r, c + uc[..., None] * (s2[..., 2:] - c)  # as the scalar's
        on_s2 = (t != tc) & ((u == uc) | (q[..., 1] < p[..., 1])
                             | (q[..., 1] == p[..., 1]) & (q[..., 0] < p[..., 0]))
        xy = np.where(hit[..., None], np.where(on_s2[..., None], q, p), np.nan)
    return crossing | none, xy


def may_cut(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), row-major, that no axis (x, y or a normal) puts more
    than 2e-3 (|r| + |s|) and some ulps apart: a superset of those where
    ``segment_intersection`` gives a point for pieces of p[i] and q[j].  Past
    its parallel test (sin > 1e-12) t and u err by under (5|r| + 4|q - p|)
    2^-53 / 1e-12 in length, so the point is within 1.5e-3 (|r| + |s|) of both."""
    s, n = np.concatenate([p, q]), len(p)
    with np.errstate(all="ignore"):  # an overflow leaves share, pad or d inf or NaN: not apart
        share = (2e-3 * np.hypot(s[:, 2] - s[:, 0], s[:, 3] - s[:, 1]) + _DIST_SLACK
                 + _REL_SLACK * np.abs(s).max(axis=1, initial=0.0))
        box = np.hstack([np.minimum(s[:, :2], s[:, 2:]) - share[:, None],  # padded by its share
                         np.maximum(s[:, :2], s[:, 2:]) + share[:, None]])
        i, j = box_pairs(box[:n], box[n:])
        denom, tn, un, lp, lq = intersection_params(p.take(i, axis=0), q.take(j, axis=0))
        c, pad = np.stack([un, tn]), (share[i] + share[n + j]) * np.stack([lp, lq])
        d = c - denom  # c, d: q's ends off p's line, then p's ends off q's line
        far = (np.minimum(c, d) > pad) | (np.maximum(c, d) < -pad)
        apart = (far & np.isfinite(d)).any(axis=0)
    return i[~apart], j[~apart]


def directions(origin: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Broadcast ``direction_deg`` over (..., 2) arrays, in [-180, 180]."""
    return np.degrees(np.arctan2(target[..., 1] - origin[..., 1],
                                 target[..., 0] - origin[..., 0]))


def angle_offsets(direction: np.ndarray, angle_deg: np.ndarray) -> np.ndarray:
    """Broadcast ``abs(angle_diff(d, a))`` for ``directions`` d and angles a
    in [0, 360); compare it with delta by ``within(..., _ANGLE_SLACK)``."""
    d = np.abs(direction - angle_deg)
    # d is in [0, 540]: the wrapped difference is d or |360 - d|
    return np.minimum(d, np.abs(360.0 - d))


def box_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), row-major, of the closed boxes (x0, y0, x1, y1),
    x0 <= x1 and y0 <= y1, a[i] and b[j] that overlap.  In x that is: b[j]
    starts inside a[i]'s x-range, or a[i] strictly after b[j] and inside
    its x-range.  Each box's partners of either kind are a slice of the
    other side sorted by x0, expanded _BLOCK_PAIRS at a time and tested in
    y; only the hits are sorted."""
    keys = [np.zeros(0, dtype=np.int64)]
    for p, q, side in ((a, b, "left"), (b, a, "right")):
        by = q[:, 0].argsort()
        q = q.take(by, axis=0)
        lo, hi = q[:, 0].searchsorted(p[:, 0], side), q[:, 0].searchsorted(p[:, 2], "right")
        count = hi - lo
        end = count.cumsum()
        total = int(end[-1]) if len(p) else 0
        for c in range(0, total, _BLOCK_PAIRS):
            d = min(c + _BLOCK_PAIRS, total)
            e0, e1 = int(end.searchsorted(c, "right")), int(end.searchsorted(d)) + 1
            part = count[e0:e1].copy()  # of each box e0..e1-1, the candidates c..d-1
            part[0] -= c - (end[e0] - count[e0])
            part[-1] -= end[e1 - 1] - d
            own = np.arange(e0, e1).repeat(part)
            at = np.arange(c, d) + (hi - end)[e0:e1].repeat(part)  # lo + k - start
            ok = (p[:, 1][own] <= q[:, 3][at]) & (q[:, 1][at] <= p[:, 3][own])
            own, at = own[ok], by[at[ok]]
            keys.append(own * len(b) + at if side == "left" else at * len(b) + own)
    return np.divmod(np.sort(np.concatenate(keys)), max(len(b), 1))


def near_pairs(p: np.ndarray, q: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), row-major, of the (N, 2) points p and the (M, 2)
    points or (M, 4) segments q with ``Point.distance_to`` or
    ``point_segment_distance`` <= limit: the all-pairs scalar loop's.  Only
    pairs in q[j]'s box, padded by the limit and ulps of the coordinates, are
    tested; no others pass: |dx| and |dy| are at most the distance exactly.
    q's rows come from ``Segment``s, so none is degenerate."""
    big = max(np.abs(p).max(initial=0.0), np.abs(q).max(initial=0.0))
    reach = limit + _REL_SLACK * big
    lo, hi = np.minimum(q[:, :2], q[:, -2:]), np.maximum(q[:, :2], q[:, -2:])
    rows, cols = box_pairs(p[:, [0, 1, 0, 1]], np.hstack([lo - reach, hi + reach]))
    a, b = p.take(rows, axis=0), q.take(cols, axis=0)
    d = point_distances(a, b) if q.shape[1] == 2 else point_segment_distances(a, b)
    ok = d <= limit
    return rows[ok], cols[ok]


def near_lists(a: np.ndarray, b: np.ndarray, limit: float) -> list[list[int]]:
    """Per (N, 2) point a[i], the j in order with ``Point.distance_to`` of the
    (M, 2) point b[j] <= limit."""
    rows, cols = near_pairs(a, b, limit)
    bounds, c = np.searchsorted(rows, np.arange(len(a) + 1)).tolist(), cols.tolist()
    return [c[bounds[i]:bounds[i + 1]] for i in range(len(a))]


@dataclass
class Wireframe:
    """Junction points P, as a table; segments L as the (M, 2) int64 rows of
    their end junctions; the N x M incidence W as the (K, 2) int64 rows (n, m)
    of its ones."""
    junctions: JunctionTable = field(default_factory=list)
    ends: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    incidence: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    def __post_init__(self) -> None:
        self.junctions = junction_table(self.junctions)

    @property
    def segments(self) -> list[Segment]:
        """The segments between their end junctions' centres, built when asked."""
        centres = [Point(x, y) for x, y in self.junctions.centers.tolist()]
        return [Segment(centres[a], centres[b]) for a, b in self.ends.tolist()]
