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

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .annotate import _BLOCK_PX, HeatMap, digital_lines, line_pixels
from .geometry import (
    _ANGLE_SLACK,
    _BLOCK_PAIRS,
    GeometryError,
    Junction,
    JunctionTable,
    Point,
    Segment,
    Wireframe,
    angle_diff,
    angle_offsets,
    branch_table,
    build_incidence,
    direction_deg,
    directions,
    intersection_points,
    junction_table,
    may_cut,
    near_pairs,
    normalize_angles,
    point_distances,
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
        if self.width < 0 or self.height < 0:  # np.zeros would raise a raw ValueError
            raise GeometryError(f"mask sides {self.width} x {self.height} must be >= 0")
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


def dedup_junctions(junctions: Sequence[Junction], rho_nms: float) -> JunctionTable:
    """Greedy duplicate suppression.

    Walk junctions in descending confidence (ties by (y, x), then input
    order); drop any junction within rho_nms of one already kept.
    """
    if not 0 <= rho_nms < math.inf:  # NaN fails too
        raise GeometryError(f"NMS radius {rho_nms} must be finite and >= 0")
    t = junction_table(junctions)
    if not np.isfinite(t.confidence).all():  # sorted by it, a NaN has no place
        raise GeometryError("junction confidences must be finite")
    order = np.lexsort((t.centers[:, 0], t.centers[:, 1], -t.confidence))
    xy, is_kept = t.centers.take(order, axis=0), [True] * len(order)
    for i, k in zip(*(a.tolist() for a in near_pairs(xy, xy, rho_nms))):
        if k < i and is_kept[k]:  # row-major: is_kept[k] is final; only earlier ones suppress
            is_kept[i] = False
    return t.take(order[np.array(is_kept, dtype=bool)])


def _on_ray(origin: Point, angle_deg: float, q: Point, delta_ray: float) -> bool:
    if q.x == origin.x and q.y == origin.y:
        return False
    return abs(angle_diff(direction_deg(origin, q), angle_deg)) <= delta_ray


def match_ray_pairs(junctions: Sequence[Junction], delta_ray: float = DEFAULT_DELTA_RAY
                    ) -> np.ndarray:
    """Mutually nearest aligned ray pairs: (P, 2) ray indices, lower first and sorted by it.

    Ray r is branch r of the table, from the centre of junction owner[r].  A
    ray points at the nearest junction that lies along it and that aims a
    branch back along the reverse direction; two rays pointing at each other
    form a pair.  Each ray lands in at most one pair.  The junction direction
    matrix gives every ray's aim at every junction at once.  No candidate
    farther than a ray's nearest one surely on both rays can win; a ray left
    with one such candidate takes it, the rest go nearest first to ``_on_ray``.
    """
    table = junction_table(junctions)
    n, nr, xy, first = len(table), len(table.angles), table.centers, table.offsets
    ray_j, ray_a = table.owner, normalize_angles(table.angles)
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
    keep = dist <= nearest[r]
    r, q, dist, sure = r[keep], q[keep], dist[keep], sure[keep]
    choice = np.full(nr, -1, dtype=np.intp)
    alone = sure & (np.bincount(r, minlength=nr)[r] == 1)
    choice[r[alone]] = q[alone]
    order = np.lexsort((q, dist, r))  # nearest first per ray
    best: dict[int, tuple[float, int]] = {}  # b runs in ray order
    centres, angles = xy.tolist(), ray_a.tolist()
    for k, b, d, s in zip(*(a[order[~alone[order]]].tolist() for a in (r, q, dist, sure))):
        if k in best and d > best[k][0]:
            continue
        o, t = Point(*centres[ray_j[k]]), Point(*centres[ray_j[b]])
        if s or (_on_ray(o, angles[k], t, delta_ray) and _on_ray(t, angles[b], o, delta_ray)):
            cand = (d, b)
            if k not in best or cand < best[k]:
                best[k] = cand
    choice[list(best)] = [c[1] for c in best.values()]
    mutual = np.flatnonzero((choice > np.arange(nr)) & (choice[choice] == np.arange(nr)))
    return np.column_stack([mutual, choice[mutual]])


def farthest_mask_points(origins: np.ndarray, d: np.ndarray, exits: np.ndarray,
                         mask: BinaryMask) -> np.ndarray:
    """Farthest supporting mask pixel (not ray pixel) of each ray's walk along
    its rasterized pixels from its origin row, along its direction row d, to
    its exit row (NaN for none), as (K, 2) rows; NaN where no pixel supports it.

    Digital lines of the same geometric line drawn from different anchors
    disagree by one pixel across the dominant axis, so each ray pixel also
    probes its two lateral neighbours.  A walk stops past MAX_WALK_GAP
    consecutive ray pixels with no support, which keeps an unrelated faraway
    line from dragging the endpoint past the real one.  All rays walk at
    once, in chunks of steps that grow until every walk has stopped.
    """
    w = mask.width + 2  # row length of the padded mask
    go = np.flatnonzero((np.abs(exits - origins) >= 0.5).any(axis=1))  # NaN: no exit
    lateral = np.where(np.abs(d[go, 0]) >= np.abs(d[go, 1]), w, 1)  # across travel
    rows, lines = digital_lines(np.hstack([origins, exits]).take(go, axis=0),
                                mask.width, mask.height)
    which, lateral = go.take(rows), lateral.take(rows)
    n, first = lines[:, 5] - 1, np.cumsum(lines[:, 5]) - lines[:, 5]
    padded = np.pad(mask.bits, 1).ravel()
    last = np.full(len(rows), -1)  # step of each walk's last supported pixel
    found = np.zeros(len(rows), dtype=np.intp)  # that pixel's padded index
    active, lo, k = np.arange(len(rows)), 0, 32
    while len(active):
        steps, ends = lo + np.arange(k), n[active, None]
        xs, ys = line_pixels(lines.take(active, axis=0), k,
                             (np.minimum(steps, ends) + first[active, None]).ravel())
        at, side = ys * w + xs + w + 1, np.repeat(lateral[active], k)
        probes = np.stack((at, at - side, at + side))
        bits = padded.take(probes)
        pixel = probes.ravel().take(bits.argmax(axis=0) * len(at) + np.arange(len(at)))
        hit = bits.any(axis=0).reshape(-1, k) & (steps <= ends)
        seen = np.maximum(np.maximum.accumulate(np.where(hit, steps, -1), axis=1),
                          last[active, None])
        # a walk ends at its first step past MAX_WALK_GAP misses, or past its last pixel
        over = (steps - seen > MAX_WALK_GAP) | (steps > ends)
        done, r = over.any(axis=1), np.arange(len(active))
        step = seen[r, np.where(done, over.argmax(axis=1), k - 1)]
        here = step >= lo
        found[active[here]] = pixel.reshape(-1, k)[r[here], step[here] - lo]
        last[active], active, lo = step, active[~done], lo + k
        k = max(32, min(2 * k, _BLOCK_PX // max(len(active), 1)))
    out, hit = np.full((len(origins), 2), np.nan), last >= 0
    out[which[hit]] = np.column_stack([found[hit] % w - 1, found[hit] // w - 1])
    return out


def line_support_ratios(pieces: np.typing.ArrayLike, mask: BinaryMask) -> np.ndarray:
    """Fraction of each rasterized piece's pixels set in the mask (0 if it has
    none), the pieces (P, 4) rows (x1, y1, x2, y2) rasterized in one call."""
    pieces = np.reshape(pieces, (-1, 4))
    rows, lines = digital_lines(pieces, mask.width, mask.height)
    counts = lines[:, 5]
    xs, ys = line_pixels(lines, counts, np.arange(counts.sum()))
    ratio = np.zeros(len(pieces))
    ratio[rows] = np.add.reduceat(mask.bits.ravel().take(ys * mask.width + xs).astype(np.intp),
                                  np.cumsum(counts) - counts) / counts
    return ratio


def _cut(s1: Segment, s2: Segment) -> Optional[tuple[float, float]]:
    p = segment_intersection(s1, s2).point
    return None if p is None else (p.x, p.y)


def _pieces(whole: Sequence[float], hits: list) -> list[tuple[float, ...]]:
    """The stretches of the whole row, MIN_PIECE_LEN or longer, between its
    cuts, as rows: the hits ((x, y) or None) in pool order, less those within
    1e-6 of an earlier cut."""
    o, q, cuts = tuple(whole[:2]), tuple(whole[2:]), []
    for hit in hits:
        if hit is not None and all(math.dist(hit, c) > 1e-6 for c in cuts):
            cuts.append(hit)
    stops = [o] + sorted((c for c in cuts if math.dist(c, o) > 1e-9 and math.dist(c, q) > 1e-9),
                         key=lambda c: math.dist(c, o)) + [q]
    return [a + b for a, b in zip(stops, stops[1:]) if math.dist(a, b) >= MIN_PIECE_LEN]


def recover_unmatched(junctions: Sequence[Junction], unmatched: np.ndarray,
                      mask: BinaryMask, segments: np.ndarray) -> np.ndarray:
    """The (K, 4) rows of new segments that rescue the unmatched rays, a 1-D
    array of ray indices in any order, given the (M, 4) known segment rows.

    A ray whose boundary exit is within BOUNDARY_FRAC * max(w, h) of its
    origin becomes a segment to the boundary.  Otherwise the ray walks the
    mask to its farthest supported pixel; the stretch is split where it
    crosses known segments and every piece with support ratio above
    KAPPA_MIN survives.  Later rays split against the new segments too, in
    ray index order and pool order.

    Walks, cuts and support ratios are batched: one ``may_cut`` pass over
    the given and then the whole segments lists what may cut each walked
    ray, and ``intersection_points`` settles all given ones but near-touching
    pairs.  A later segment is a piece of an earlier ray's whole one: only the
    rays listed go to the scalar, on ``Segment``s, and changed pieces are redone.
    """
    t, rays = junction_table(junctions), np.sort(unmatched)
    origins = t.centers.take(t.owner.take(rays), axis=0)
    # each ray's direction row, and its exit from the box [0, w-1] x [0, h-1], NaN from outside it
    d = np.reshape([(math.cos(r), math.sin(r)) for r in map(
        math.radians, normalize_angles(t.angles.take(rays)).tolist())], (-1, 2))
    box = np.array([mask.width - 1.0, mask.height - 1.0])
    with np.errstate(all="ignore"):  # / 0 is masked out; a NaN angle has no exit
        t = np.where(d > 0, (box - origins) / d, np.where(d < 0, -origins / d, np.inf))
        t = np.where(t[:, 1] < t[:, 0], t[:, 1], t[:, 0])  # Python's min(tx, ty)
        inside = ((origins >= 0.0) & (origins <= box)).all(axis=1) & np.isfinite(t)
        ends = np.where(inside[:, None], origins + t[:, None] * d, np.nan)
    short = np.array([0.0 < math.dist(o, q) <= BOUNDARY_FRAC * max(mask.width, mask.height)
                      for o, q in zip(origins.tolist(), ends.tolist())], dtype=bool)
    # a walk depends only on its ray and the mask, not on the pool: walk all at once
    walked = np.flatnonzero(~short)
    ends[walked] = farthest_mask_points(origins[walked], d[walked], ends[walked], mask)
    # each ray's whole segment: to its exit, or to its farthest support
    src = np.flatnonzero(short | np.array([math.dist(o, q) >= MIN_PIECE_LEN for o, q in zip(
        origins.tolist(), ends.tolist())], dtype=bool))
    walked_src, given = np.flatnonzero(~short[src]), len(segments)  # the rows of src walked
    # the walked rays' cut search: the given segments, then every whole one
    pool = np.vstack([segments, np.hstack([origins, ends]).take(src, axis=0)])
    w_xy = pool.take(given + walked_src, axis=0)
    pi, pj = may_cut(w_xy, pool)
    i, m = pi[pj < given], pj[pj < given]
    sure, xy = intersection_points(w_xy.take(i, axis=0), pool.take(m, axis=0))
    keep, hits = ~sure | (xy[:, 0] == xy[:, 0]), [[] for _ in walked_src]  # unsettled, or a point
    rows, segment = pool.tolist(), lambda r: Segment(Point(*r[:2]), Point(*r[2:]))
    pooled = functools.cache(lambda k: segment(rows[k]))  # the scalar's, built once
    for n, k, x, y in zip(i[keep].tolist(), m[keep].tolist(), *xy[keep].T.tolist()):
        hits[n].append((x, y) if x == x else _cut(pooled(given + walked_src[n]), pooled(k)))
    pieces = [_pieces(r, hs) for r, hs in zip(w_xy.tolist(), hits)]
    ratios = iter(line_support_ratios([p for ps in pieces for p in ps], mask))
    kappas = [[next(ratios) for _ in ps] for ps in pieces]
    keep = (pj >= given) & (pj < given + walked_src[pi])  # segments of earlier rays
    first = np.searchsorted(pi[keep], np.arange(len(walked_src) + 1)).tolist()
    tail, row = (pj[keep] - given).tolist(), {k: n for n, k in enumerate(walked_src.tolist())}
    added: list[list] = []  # per row of src, in turn; its Segments once a later ray needs them
    made = functools.cache(lambda t: [segment(s) for s in added[t]])
    for k in range(len(src)):  # each ray's segments join the pool before the next ray is cut
        n = row.get(k)
        new = [] if n is None else [_cut(pooled(given + k), s)
                                    for t in tail[first[n]:first[n + 1]] for s in made(t)]
        if any(h is not None for h in new) and (  # a later segment cuts: new pieces?
                redone := _pieces(rows[given + k], hits[n] + new)) != pieces[n]:
            pieces[n], kappas[n] = redone, line_support_ratios(redone, mask)
        added.append([rows[given + k]] if n is None else
                     [p for p, kappa in zip(pieces[n], kappas[n]) if kappa > KAPPA_MIN])
    return np.reshape([s for ss in added for s in ss], (-1, 4))


def construct_wireframe(junctions: Sequence[Junction], h: HeatMap,
                        params: ConstructionParams = ConstructionParams()) -> Wireframe:
    """Full pipeline from detected junctions and a line heat map, on segment
    rows and junction tables.  The kept branches' angles must be finite."""
    t = junction_table(junctions)
    strong = t.branch_conf > params.tau_b  # a NaN confidence is dropped, as for branches
    live = (t.confidence > params.tau_c) & (np.bincount(t.owner[strong], minlength=len(t)) > 0)
    kept = dedup_junctions(t.take(np.flatnonzero(live), strong), params.rho_nms)
    bad = np.flatnonzero(~np.isfinite(kept.angles))[:1]
    if bad.size:  # encode's words
        raise GeometryError("junction at ({}, {}): non-finite branch angle {}".format(
            *kept.centers[kept.owner[bad[0]]].tolist(), kept.angles[bad[0]]))

    mask = binarize(h, params.omega)
    pairs, xy, n = match_ray_pairs(kept, params.delta_ray), kept.centers, len(kept)
    matched = xy.take(kept.owner.take(pairs), axis=0).reshape(-1, 4)
    unmatched = np.setdiff1d(np.arange(len(kept.angles)), pairs)
    rows = np.vstack([matched, recover_unmatched(kept, unmatched, mask, matched)])

    # each segment end is a kept centre or else a derived point: the centres
    # and ends as complex keys y + xi, == as Points are and sorted by (y, x)
    ends = rows.reshape(-1, 2)
    _, first, group = np.unique(np.ascontiguousarray(np.vstack([xy, ends])[:, ::-1]).view(
        np.complex128).ravel(), return_index=True, return_inverse=True)
    new = first >= n  # no centre in the group: a derived point
    at = np.where(new, n - 1 + np.cumsum(new), first).take(group[n:])
    fresh = np.flatnonzero(at >= n)  # a branch to each other end, an angle once per point
    d = branch_table(ends.take(first[new] - n, axis=0), at[fresh] - n,
                     ends.take(fresh ^ 1, axis=0) - ends.take(fresh, axis=0), 0.0)
    points = JunctionTable(  # the kept junctions, then the derived points
        np.vstack([xy, d.centers]), np.append(kept.confidence, d.confidence),
        np.arange(n + len(d)) >= n, np.append(kept.offsets, len(kept.angles) + d.offsets[1:]),
        np.append(kept.angles, d.angles), np.append(kept.branch_conf, d.branch_conf))

    ab = at.reshape(-1, 2)  # the first segment per unordered pair of end junctions
    unique = np.sort(np.unique(ab.min(axis=1) * len(points) + ab.max(axis=1),
                               return_index=True)[1])
    return Wireframe(points, ab[unique], build_incidence(
        points.centers, rows.take(unique, axis=0), tol=1.0))
