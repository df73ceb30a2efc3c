"""Wireframe construction: merge detected junctions with the line heat map.

Pipeline: threshold and deduplicate the junctions, binarize the heat map,
shoot a ray from every junction branch, connect mutually nearest aligned
ray pairs into segments, then try to rescue every unmatched ray, either as a
short segment to the image boundary or by walking the heat-map support and
keeping well-covered pieces.  Endpoints that are not detected junctions
enter the output as order-1 points flagged "derived".

Everything here is deterministic: identical inputs give identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .annotate import _BLOCK_PX, HeatMap, digital_lines, line_pixels
from .geometry import (
    _ANGLE_SLACK,
    _BLOCK_PAIRS,
    Branch,
    GeometryError,
    Junction,
    Point,
    Segment,
    Wireframe,
    angle_diff,
    angle_offsets,
    build_incidence,
    direction_deg,
    directions,
    intersection_points,
    may_cut,
    near_pairs,
    normalize_angle,
    point_array,
    point_distances,
    prefilter_bound,
    segment_array,
    segment_intersection,
    surely_within,
    within,
)

DEFAULT_OMEGA = 10.0
DEFAULT_DELTA_RAY = 12.0  # half a 24-degree angle bin
DEFAULT_RHO_NMS = 2.0
# The rescue pass: a boundary exit within BOUNDARY_FRAC * max(w, h) makes a
# segment; a walk stops past MAX_WALK_GAP unsupported pixels; a piece needs
# MIN_PIECE_LEN px and mask support above KAPPA_MIN.
BOUNDARY_FRAC = 0.05
KAPPA_MIN = 0.6
MIN_PIECE_LEN = 3.0
MAX_WALK_GAP = 3.0


@dataclass
class BinaryMask:
    width: int
    height: int
    bits: np.ndarray = None

    def __post_init__(self) -> None:
        if self.bits is None:
            self.bits = np.zeros((self.height, self.width), dtype=bool)
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (self.height, self.width):
            raise GeometryError(
                f"mask shape {self.bits.shape} != ({self.height}, {self.width})")


@dataclass(frozen=True)
class ConstructionParams:
    omega: float = DEFAULT_OMEGA
    tau_c: float = 0.5
    tau_b: float = 0.5
    delta_ray: float = DEFAULT_DELTA_RAY
    rho_nms: float = DEFAULT_RHO_NMS

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:  # NaN fails too
                raise GeometryError(f"{f.name} must be finite and >= 0")


def binarize(h: HeatMap, omega: float) -> BinaryMask:
    """Mask of pixels with heat strictly above omega."""
    return BinaryMask(h.width, h.height, h.values > omega)


def dedup_junctions(junctions: Sequence[Junction], rho_nms: float) -> list[Junction]:
    """Greedy duplicate suppression.

    Walk junctions in descending confidence (ties by (y, x)); drop any
    junction within rho_nms of one already kept.
    """
    if not 0 <= rho_nms < math.inf:  # NaN fails too
        raise GeometryError(f"NMS radius {rho_nms} must be finite and >= 0")
    order = sorted(junctions, key=lambda j: (-j.confidence, j.center.y, j.center.x))
    xy, is_kept = point_array([j.center for j in order]), [True] * len(order)
    for i, k in zip(*(a.tolist() for a in near_pairs(xy, xy, rho_nms))):
        if k < i and is_kept[k]:  # row-major: is_kept[k] is final; only earlier ones suppress
            is_kept[i] = False
    return [j for j, k in zip(order, is_kept) if k]


def _on_ray(origin: Point, angle_deg: float, q: Point, delta_ray: float) -> bool:
    if q.x == origin.x and q.y == origin.y:
        return False
    return abs(angle_diff(direction_deg(origin, q), angle_deg)) <= delta_ray


def match_ray_pairs(junctions: Sequence[Junction], delta_ray: float = DEFAULT_DELTA_RAY
                    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Mutually nearest aligned ray pairs, lower ray first, in its order.

    Ray (i, k) is branch k of junction i, from the junction's centre.  A ray
    points at the nearest junction that lies along it and that aims a branch
    back along the reverse direction; two rays pointing at each other form a
    pair.  Each ray lands in at most one pair.  The junction direction
    matrix gives every ray's aim at every junction at once.  No candidate
    farther than a ray's nearest one surely on both rays can win; a ray left
    with one such candidate takes it, the rest go nearest first to ``_on_ray``.
    """
    rays = [(i, k) for i, j in enumerate(junctions) for k in range(j.order)]
    angles = [normalize_angle(b.angle_deg) for j in junctions for b in j.branches]
    n, nr, xy = len(junctions), len(rays), point_array([j.center for j in junctions])
    ray_j = np.array([i for i, _ in rays], dtype=np.intp)
    ray_a = np.array(angles, dtype=np.float64)
    first = np.searchsorted(ray_j, np.arange(n + 1))
    # aims[r, j]: ray r may aim at junction j; sure_aims[r, j]: it surely does
    aims, sure_aims = np.zeros((nr, n), dtype=bool), np.zeros((nr, n), dtype=bool)
    step = max(1, _BLOCK_PAIRS // max(nr, n, 1))  # rays of a block x junctions
    for lo in range(0, n, step):
        at = slice(first[lo], first[min(lo + step, n)])
        off = angle_offsets(directions(xy[lo:lo + step, None], xy[None])[ray_j[at] - lo],
                            ray_a[at, None])
        aims[at] = within(off, delta_ray, _ANGLE_SLACK)
        sure_aims[at] = surely_within(off, delta_ray, _ANGLE_SLACK)
    # candidates (r, q) where aims[r, J(q)] & aims[q, J(r)], junction pairs first
    fr, fj = np.divmod(np.flatnonzero(aims), n)
    pair = np.zeros(n * n, dtype=bool)  # some ray of junction i aims at j
    pair[ray_j[fr] * n + fj] = True
    keep = pair[fj * n + ray_j[fr]] & (fj != ray_j[fr])  # not a ray's own junction
    fr, fj = fr[keep], fj[keep]
    m = first[fj + 1] - first[fj]  # q runs over the rays first[j], ..., first[j + 1] - 1
    r, q = np.repeat(fr, m), np.arange(m.sum()) + np.repeat(first[fj] - np.cumsum(m) + m, m)
    keep = aims.ravel()[q * n + ray_j[r]]
    r, q = r[keep], q[keep]
    dist = point_distances(xy[ray_j[r]], xy[ray_j[q]])
    # surely on both rays; a coincident centre is on no ray
    sure = (sure_aims.ravel()[r * n + ray_j[q]] & sure_aims.ravel()[q * n + ray_j[r]]
            & (dist > 0))
    nearest = np.full(nr, np.inf)
    np.minimum.at(nearest, r[sure], dist[sure])
    keep = ~(dist > prefilter_bound(prefilter_bound(nearest[r])))
    r, q, dist, sure = r[keep], q[keep], dist[keep], sure[keep]
    choice = np.full(nr, -1)
    alone = sure & (np.bincount(r, minlength=nr)[r] == 1)
    choice[r[alone]] = q[alone]
    order = np.lexsort((q, dist, r))  # nearest first per ray
    best: dict[int, tuple[float, int]] = {}  # b runs in (junction, branch) order
    for k, b, d, s in zip(*(a[order[~alone[order]]].tolist() for a in (r, q, dist, sure))):
        if k in best and d > prefilter_bound(best[k][0]):
            continue
        o, t = junctions[rays[k][0]].center, junctions[rays[b][0]].center
        if s or (_on_ray(o, angles[k], t, delta_ray) and _on_ray(t, angles[b], o, delta_ray)):
            cand = (o.distance_to(t), b)
            if k not in best or cand < best[k]:
                best[k] = cand
    choice[list(best)] = [c[1] for c in best.values()]
    mutual = np.flatnonzero((choice > np.arange(nr)) & (choice[choice] == np.arange(nr)))
    return [(rays[k], rays[b]) for k, b in zip(mutual.tolist(), choice[mutual].tolist())]


def ray_boundary_point(origin: Point, angle_deg: float,
                       width: int, height: int) -> Optional[Point]:
    """Where the ray exits the pixel box [0, w-1] x [0, h-1]; None when the
    origin is already outside."""
    if not (0.0 <= origin.x <= width - 1 and 0.0 <= origin.y <= height - 1):
        return None
    dx, dy = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    tx = (width - 1 - origin.x) / dx if dx > 0 else -origin.x / dx if dx < 0 else math.inf
    ty = (height - 1 - origin.y) / dy if dy > 0 else -origin.y / dy if dy < 0 else math.inf
    t_exit = min(tx, ty)
    if not math.isfinite(t_exit):
        return None
    return Point(origin.x + t_exit * dx, origin.y + t_exit * dy)


def farthest_mask_points(rays: Sequence[tuple[Point, float, Optional[Point]]], mask: BinaryMask,
                         max_gap: float = MAX_WALK_GAP) -> list[Optional[Point]]:
    """Farthest supporting mask pixel (not ray pixel) of each (origin, angle,
    exit) ray's walk along its rasterized pixels to its boundary exit, or None.

    Digital lines of the same geometric line drawn from different anchors
    disagree by one pixel across the dominant axis, so each ray pixel also
    probes its two lateral neighbours.  A walk stops once more than max_gap
    consecutive ray pixels find no support, which keeps an unrelated faraway
    line from dragging the endpoint past the real one.  All rays walk at
    once, in chunks of steps that grow until every walk has stopped.
    """
    w = mask.width + 2  # row length of the padded mask
    segs, lateral, which = [], [], []
    for i, (origin, angle_deg, end) in enumerate(rays):
        if end is None or (abs(end.x - origin.x) < 0.5 and abs(end.y - origin.y) < 0.5):
            continue
        rad = math.radians(angle_deg)  # lateral = across the dominant axis of travel
        lateral.append(w if abs(math.cos(rad)) >= abs(math.sin(rad)) else 1)
        segs.append((origin.x, origin.y, end.x, end.y))
        which.append(i)
    rows, lines = digital_lines(np.array(segs).reshape(-1, 4), mask.width, mask.height)
    which, lateral = np.array(which, dtype=np.intp)[rows], np.array(lateral, dtype=np.intp)[rows]
    n, first = lines[:, 5] - 1, np.cumsum(lines[:, 5]) - lines[:, 5]
    padded = np.pad(mask.bits, 1).ravel()
    last = np.full(len(rows), -1)  # step of each walk's last supported pixel
    found = np.zeros(len(rows), dtype=np.intp)  # that pixel's padded index
    active, lo, k = np.arange(len(rows)), 0, 32
    while len(active):
        steps, ends = lo + np.arange(k), n[active, None]
        xs, ys = line_pixels(lines[active], k,
                             (np.minimum(steps, ends) + first[active, None]).ravel())
        at, side = ys * w + xs + w + 1, np.repeat(lateral[active], k)
        probes = np.stack((at, at - side, at + side))
        bits = padded[probes]
        pixel = probes[bits.argmax(axis=0), np.arange(len(at))].reshape(-1, k)
        hit = bits.any(axis=0).reshape(-1, k) & (steps <= ends)
        seen = np.maximum(np.maximum.accumulate(np.where(hit, steps, -1), axis=1),
                          last[active, None])
        # a walk ends at its first step past max_gap misses, or past its last pixel
        over = (steps - seen > max_gap) | (steps > ends)
        done, r = over.any(axis=1), np.arange(len(active))
        step = seen[r, np.where(done, over.argmax(axis=1), k - 1)]
        here = step >= lo
        found[active[here]] = pixel[r[here], step[here] - lo]
        last[active], active, lo = step, active[~done], lo + k
        k = max(32, min(2 * k, _BLOCK_PX // max(len(active), 1)))
    out: list[Optional[Point]] = [None] * len(rays)
    for i, s, f in zip(which.tolist(), last.tolist(), found.tolist()):
        if s >= 0:
            out[i] = Point(float(f % w - 1), float(f // w - 1))
    return out


def line_support_ratios(pieces: Sequence[tuple[Point, Point]],
                        mask: BinaryMask) -> list[float]:
    """Fraction of each rasterized a-b piece's pixels set in the mask (0 if
    it has none or a == b), all pieces rasterized in one call."""
    segs = np.array([(a.x, a.y, b.x, b.y) for a, b in pieces]).reshape(-1, 4)
    rows, lines = digital_lines(segs, mask.width, mask.height)
    counts = lines[:, 5]
    xs, ys = line_pixels(lines, counts, np.arange(counts.sum()))
    ratio = np.zeros(len(pieces))
    ratio[rows] = np.add.reduceat(mask.bits[ys, xs].astype(np.intp),
                                  np.cumsum(counts) - counts) / counts
    return [r if (a.x, a.y) != (b.x, b.y) else 0.0 for r, (a, b) in zip(ratio.tolist(), pieces)]


def _pieces(whole: Segment, hits: list) -> list[tuple[Point, Point]]:
    """The stretches of whole, MIN_PIECE_LEN or longer, between its cuts: the hits
    (points or None) in pool order, less those within 1e-6 of an earlier cut."""
    o, q, cuts = whole.a, whole.b, []
    for hit in hits:
        if hit is not None and all(hit.distance_to(c) > 1e-6 for c in cuts):
            cuts.append(hit)
    stops = [o] + sorted((c for c in cuts if c.distance_to(o) > 1e-9 and c.distance_to(q) > 1e-9),
                         key=lambda c: c.distance_to(o)) + [q]
    return [(a, b) for a, b in zip(stops, stops[1:]) if a.distance_to(b) >= MIN_PIECE_LEN]


def recover_unmatched(junctions: Sequence[Junction], unmatched: Sequence[tuple[int, int]],
                      mask: BinaryMask, segments: Sequence[Segment]) -> list[Segment]:
    """New segments that rescue the (junction, branch) rays left unmatched.

    A ray whose boundary exit is within BOUNDARY_FRAC * max(w, h) of its
    origin becomes a segment to the boundary.  Otherwise the ray walks the
    mask to its farthest supported pixel; the stretch is split where it
    crosses known segments and every piece with support ratio above
    KAPPA_MIN survives.  Later rays split against the new segments too, in
    (junction, branch) order and pool order.

    Walks, cuts on the given segments and support ratios are batched: one
    ``may_cut`` pass over the given and then the whole segments lists what
    may cut each walked ray, and ``intersection_points`` settles all given
    ones but near-touching pairs.  A later segment is a boundary segment or
    a piece of an earlier ray's whole walk, so the same pass lists the
    earlier rays that may cut a ray; only theirs go to the scalar, and
    changed pieces are redone.
    """
    limit = BOUNDARY_FRAC * max(mask.width, mask.height)
    origins = [junctions[i].center for i, _ in sorted(unmatched)]
    angles = [normalize_angle(junctions[i].branches[k].angle_deg) for i, k in sorted(unmatched)]
    exits = [ray_boundary_point(o, a, mask.width, mask.height) for o, a in zip(origins, angles)]
    short = [q is not None and 0.0 < o.distance_to(q) <= limit for o, q in zip(origins, exits)]
    # a walk depends only on its ray and the mask, not on the pool: walk all at once
    walked = [k for k, s in enumerate(short) if not s]
    ends = farthest_mask_points([(origins[k], angles[k], exits[k]) for k in walked], mask)
    # each ray's whole segment: to its exit, or to its farthest support
    whole = {k: Segment(origins[k], exits[k]) for k, s in enumerate(short) if s}
    whole.update((k, Segment(origins[k], q)) for k, q in zip(walked, ends)
                 if q is not None and origins[k].distance_to(q) >= MIN_PIECE_LEN)
    src = np.array(sorted(whole), dtype=np.intp)
    walked_src = np.flatnonzero(~np.array(short, dtype=bool)[src])  # the rows of src walked
    rows, given = src[walked_src].tolist(), len(segments)
    # the walked rays' cut search: the given segments, then every whole one
    pool = segment_array(list(segments) + [whole[k] for k in src.tolist()])
    w_xy = pool.take(given + walked_src, axis=0)
    pi, pj = may_cut(w_xy, pool)
    i, m = pi[pj < given], pj[pj < given]
    sure, xy = intersection_points(w_xy.take(i, axis=0), pool.take(m, axis=0))
    keep, hits = ~sure | (xy[:, 0] == xy[:, 0]), [[] for _ in rows]  # unsettled, or a point
    for n, k, x, y in zip(i[keep].tolist(), m[keep].tolist(), *xy[keep].T.tolist()):
        hits[n].append(Point(x, y) if x == x else
                       segment_intersection(whole[rows[n]], segments[k]).point)
    pieces = [_pieces(whole[k], hs) for k, hs in zip(rows, hits)]
    ratios = iter(line_support_ratios([p for ps in pieces for p in ps], mask))
    kappas = [[next(ratios) for _ in ps] for ps in pieces]
    keep = (pj >= given) & (pj < given + walked_src[pi])  # segments of earlier rays
    first = np.searchsorted(pi[keep], np.arange(len(rows) + 1)).tolist()
    tail, row, added = src[pj[keep] - given].tolist(), {k: n for n, k in enumerate(rows)}, {}
    for k in src.tolist():  # each ray's segments join the pool before the next ray is cut
        n = row.get(k)
        new = [] if n is None else [segment_intersection(whole[k], s).point
                                    for t in tail[first[n]:first[n + 1]] for s in added[t]]
        if any(h is not None for h in new) and (  # a later segment cuts: new pieces?
                redone := _pieces(whole[k], hits[n] + new)) != pieces[n]:
            pieces[n], kappas[n] = redone, line_support_ratios(redone, mask)
        added[k] = [whole[k]] if n is None else [
            Segment(*ab) for ab, kappa in zip(pieces[n], kappas[n]) if kappa > KAPPA_MIN]
    return [s for k in src.tolist() for s in added[k]]


def construct_wireframe(junctions: Sequence[Junction], h: HeatMap,
                        params: ConstructionParams = ConstructionParams()) -> Wireframe:
    """Full pipeline from detected junctions and a line heat map."""
    confident = []
    for j in junctions:
        if not j.confidence > params.tau_c:  # NaN is dropped, as for branches
            continue
        branches = tuple(b for b in j.branches if b.confidence > params.tau_b)
        if branches:
            confident.append(Junction(j.center, branches, j.confidence))
    kept = dedup_junctions(confident, params.rho_nms)

    mask = binarize(h, params.omega)
    pairs = match_ray_pairs(kept, params.delta_ray)
    matched_segments = [Segment(kept[a].center, kept[b].center) for (a, _), (b, _) in pairs]
    taken = {ray for pair in pairs for ray in pair}
    unmatched = [(i, k) for i, j in enumerate(kept) for k in range(j.order)
                 if (i, k) not in taken]
    new_segments = recover_unmatched(kept, unmatched, mask, matched_segments)

    unique: dict[tuple, Segment] = {}  # the first segment per unordered endpoint pair
    for s in matched_segments + new_segments:
        unique.setdefault(tuple(sorted(((s.a.x, s.a.y), (s.b.x, s.b.y)))), s)
    segments = list(unique.values())

    centers = {(j.center.x, j.center.y) for j in kept}
    derived: dict[tuple[float, float], set[float]] = {}
    for s in new_segments:
        for p, other in ((s.a, s.b), (s.b, s.a)):
            if (p.x, p.y) in centers:
                continue
            derived.setdefault((p.x, p.y), set()).add(direction_deg(p, other))
    points = list(kept)
    for (x, y) in sorted(derived, key=lambda xy: (xy[1], xy[0])):
        branches = tuple(Branch(a, 1.0) for a in sorted(derived[(x, y)]))
        points.append(Junction(Point(x, y), branches, confidence=1.0, derived=True))

    return Wireframe(points, segments, build_incidence(points, segments, tol=1.0))
