"""Probabilistic Hough baseline: segments straight from a binary mask.

Progressive probabilistic Hough (Matas, Galambos & Kittler, CVIU 2000): visit
the set pixels in a seeded random order (all draws made in one call); each
live pixel votes over all angle bins, and once a (rho, theta) bin reaches the
vote threshold, walk that line through the mask, bridging gaps up to max_gap,
to find the supporting run.  Runs of two or more pixels at least min_length
long are emitted; a run's pixels are always consumed and their stored votes
retracted in one update, so no line is found twice.

Each vote is cast once, a block of live visits at a time, with the segments
of a one-vote loop.  A cast keeps the block's hot entries, its votes in cells
then at or above the threshold, sorted by cell and, within one, by visit.  A
cell at acc >= votes reached votes at its entry with acc - votes of its
entries after it; the first visit with such an entry triggers.  After the
run's retraction the entries of dead pixels and of cells now below votes are
dropped; the next block is cast only when none is left.  This is exact: a
cast happens when no cell is at votes and acc only falls until the next, so
a cell at votes now was hot at the cast, and its live pending votes are its
entries past the last trigger.  What acc counts before those is below votes
(a trigger's own votes go with its run), so a passed entry, with all of its
cell's pending ones after it, never triggers.  The direction is the
trigger's cells at its vote, acc - later: most votes, then lowest theta bin
(its cells off the list are below votes).  A pixel of the block that a run
consumes before its visit has voted, and the run retracts it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .construct import BinaryMask
from .geometry import GeometryError, Point, Segment, check_seed, is_whole

DEFAULT_VOTES = 30
DEFAULT_MIN_LENGTH = 20.0
DEFAULT_MAX_GAP = 3.0
# Live visits per vote block (64 and 128 timed within 4% on 640^2 scenes): smaller
# blocks pay more per-call overhead, larger ones vote for more pixels a run eats first.
_BLOCK = 32
# Elements at most in the accumulator and in every array a call makes (the
# x cos / y sin tables, a block's or a run's cells), like formats.MAX_PIXELS
MAX_CELLS = 1 << 26


@dataclass(frozen=True)
class HoughParams:
    rho_res: float = 1.0
    theta_res: float = 1.0
    votes: int = DEFAULT_VOTES
    min_length: float = DEFAULT_MIN_LENGTH
    max_gap: float = DEFAULT_MAX_GAP
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each check also rejects it
        if not (0 < self.rho_res < math.inf and 0 < self.theta_res < math.inf):
            raise GeometryError("rho and theta resolutions must be finite and > 0")
        if not is_whole(self.votes, 1):
            raise GeometryError(f"vote threshold {self.votes!r} must be an integer >= 1")
        if not (0 <= self.min_length < math.inf and 0 <= self.max_gap < math.inf):
            raise GeometryError("min_length and max_gap must be finite and >= 0")
        check_seed(self.seed)


def _walk_dir(alive: memoryview, w: int, h: int, p0: int, dx: float, dy: float,
              max_gap: float) -> list[int]:
    """Follow one direction of the line from pixel p0 = y0 * w + x0 over
    `alive`, the mask as a flat row-major memoryview; the hits, flat.

    Steps along the dominant (major) axis; at each step the expected pixel
    and its two lateral neighbors are probed, and a hit re-centers the walk,
    which tolerates the accumulator's angle quantization.  A y-major
    direction is the same walk with the strides of the two axes swapped.
    """
    if abs(dx) < abs(dy):
        m, nf, dm, dn, m_end, n_end, ms, ns = p0 // w, p0 % w, dy, dx, h, w, w, 1
    else:
        m, nf, dm, dn, m_end, n_end, ms, ns = p0 % w, p0 // w, dx, dy, w, h, 1, w
    hits: list[int] = []
    s = 1 if dm > 0 else -1
    slope, nf, gap = dn / dm * s, float(nf), 0
    for m in range(m + s, m_end if s > 0 else -1, s):
        nf += slope
        n = math.floor(nf + 0.5)
        p = m * ms + n * ns
        if 0 <= n < n_end and alive[p]:
            pass
        elif 0 < n <= n_end and alive[p - ns]:
            n, p = n - 1, p - ns
        elif -1 <= n < n_end - 1 and alive[p + ns]:
            n, p = n + 1, p + ns
        else:
            gap += 1
            if gap > max_gap:
                break
            continue
        gap, nf = 0, float(n)
        hits.append(p)
    return hits


def hough_segments(mask: BinaryMask, params: HoughParams = HoughParams()) -> list[Segment]:
    """Extract line segments from a binary mask.  Raises GeometryError when
    an array would hold more than MAX_CELLS elements: n_theta angle bins by
    the rho bins, the width plus height, or the block rows."""
    w, h = mask.width, mask.height
    # clamped first, so that a resolution near 0 cannot overflow int()
    n_theta = max(1, int(round(min(180.0 / params.theta_res, MAX_CELLS + 1))))
    rho_off = int(math.ceil(min(math.hypot(w, h) / params.rho_res, MAX_CELLS)))
    n_rho = 2 * rho_off + 1
    if n_theta * (rows := max(n_rho, w + h, _BLOCK)) > MAX_CELLS:
        raise GeometryError(f"{n_theta} x {rows} Hough array elements pass MAX_CELLS = {MAX_CELLS}")
    alive = mask.bits.ravel().copy()
    px = np.flatnonzero(alive)  # pixel (x, y) is y * w + x
    if not px.size:
        return []
    voted = np.zeros_like(alive)

    thetas = np.arange(n_theta) * math.radians(params.theta_res)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    # tabled before acc is made: the other order read ~1 MB more hough-640 peak RSS
    x_cos, y_sin = np.arange(w)[:, None] * cos_t, np.arange(h)[:, None] * sin_t
    # flat accumulator: (theta bin t, rho bin r) is cell t * n_rho + r; int32
    # counts, and an int32 one, keep np.add.at on its fast path
    acc, one = np.zeros(n_theta * n_rho, dtype=np.int32), np.int32(1)
    cell_base = np.arange(n_theta) * n_rho + rho_off

    def cells_of(p: np.ndarray) -> np.ndarray:  # (len(p), n_theta) cells of pixels p
        y, x = np.divmod(p, w)
        rho = x_cos[x]
        rho += y_sin[y]
        rho /= params.rho_res
        cells = np.rint(rho, out=rho).astype(np.intp)
        cells += cell_base
        return cells

    # visit k takes pool index j, live pixel or not, moves the last index into
    # its place and parks j's in the freed slot, so the reversed pool is the
    # order; the n draws are the n scalar rng.integers(len(pool)) calls at once
    n = len(px)
    pool, draws = list(range(n)), np.random.default_rng(params.seed).integers(np.arange(n, 0, -1))
    for m, j in zip(range(n - 1, -1, -1), draws.tolist()):
        pool[j], pool[m] = pool[m], pool[j]
    visits = px[pool[::-1]]
    segments: list[Segment] = []

    i, votes, hot = 0, params.votes, px[:0]  # visits[i:] are not cast yet
    while True:
        if not hot.size:  # no cell is at votes: cast the next block of live visits
            span = _BLOCK
            while len(new := np.flatnonzero(alive[visits[i:i + span]])) < _BLOCK and i + span < n:
                span *= 4  # dead visits cast no votes, so they are skipped
            end = i + int(new[_BLOCK - 1]) + 1 if len(new) >= _BLOCK else n
            i, block = end, visits[i + new[:_BLOCK]]
            if not len(block):
                break
            flat = cells_of(block).ravel()  # entry q is the cell of block[q // n_theta]
            np.add.at(acc, flat, one)
            voted[block] = True
            hot = np.flatnonzero(acc.take(flat) >= votes)
            hot = hot[np.argsort(flat.take(hot), kind="stable")]
            continue
        # the first visit whose entry has acc - votes later entries of its cell
        c = flat.take(hot)
        q, at, c = hot.tolist(), acc.take(c).tolist(), c.tolist()  # a few entries: lists
        later = [bisect_right(c, cj) - 1 - j for j, cj in enumerate(c)]
        r = min(qj for qj, lj, aj in zip(q, later, at) if lj == aj - votes) // n_theta
        # the trigger's cells at its vote: the most votes, then the lowest theta bin
        k = min((lj - aj, qj % n_theta) for qj, lj, aj in zip(q, later, at)
                if qj // n_theta == r)[1]
        p0 = int(block[r])

        # follow the winning direction through the mask, both ways
        dx, dy = float(-sin_t[k]), float(cos_t[k])
        fwd = _walk_dir(memoryview(alive), w, h, p0, dx, dy, params.max_gap)
        bwd = _walk_dir(memoryview(alive), w, h, p0, -dx, -dy, params.max_gap)
        run = np.array(bwd[::-1] + [p0] + fwd)
        alive[run] = False
        was = run[voted.take(run)]  # a run's pixels die, so none is in two runs
        np.subtract.at(acc, cells_of(was).ravel(), one)
        # drop the entries of dead pixels and of cells the retraction took below votes
        hot = hot[alive.take(block.take(hot // n_theta)) & (acc.take(flat.take(hot)) >= votes)]

        (y1, x1), (y2, x2) = divmod(int(run[0]), w), divmod(int(run[-1]), w)
        if len(run) > 1 and math.hypot(x2 - x1, y2 - y1) >= params.min_length:
            segments.append(Segment(Point(float(x1), float(y1)), Point(float(x2), float(y2))))
    return segments
