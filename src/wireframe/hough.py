"""Probabilistic Hough baseline: segments straight from a binary mask.

Progressive probabilistic Hough (Matas, Galambos & Kittler, CVIU 2000): visit
the set pixels in a seeded random order (all draws made in one call); each
live pixel votes over all angle bins, and once a (rho, theta) bin reaches the
vote threshold, walk that line through the mask, bridging gaps up to max_gap,
to find the supporting run.  Runs of two or more pixels at least min_length
long are emitted; a run's pixels are always consumed and their stored votes
retracted in one update, so no line is found twice.  Votes are cast a block
of live visits at a time, with the segments of a one-vote loop: between runs
no pixel dies, and no cell is at the threshold when a block starts (the pixel
that lifted it there was retracted with its run).  If a block lifts a cell
there, the votes after the first pixel that did are taken back, and the
live ones among those pixels, with their cells, start the next block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import BinaryMask
from .geometry import GeometryError, Point, Segment, check_seed

DEFAULT_VOTES = 30
DEFAULT_MIN_LENGTH = 20.0
DEFAULT_MAX_GAP = 3.0
# Live visits per vote block (timed on 640^2 scenes, ~42 votes between runs):
# smaller blocks pay more per-call overhead, larger ones take back more votes.
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
        if isinstance(self.votes, bool) or not isinstance(self.votes, (int, np.integer)) \
                or self.votes < 1:
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

    i, block, cells = 0, px[:0], cells_of(px[:0])  # visits[i:] are not scanned yet
    while True:
        keep = alive[block]  # the pixels and cells carried from the last block
        block, cells = block[keep], cells[keep]
        need, span = _BLOCK - len(block), _BLOCK
        while len(new := np.flatnonzero(alive[visits[i:i + span]])) < need and i + span < n:
            span *= 4  # dead visits cast no votes, so they are skipped
        end = i + int(new[need - 1]) + 1 if len(new) >= need else n
        i, new = end, visits[i + new[:need]]
        if not len(new) and not len(block):
            break
        block, cells = np.concatenate((block, new)), np.concatenate((cells, cells_of(new)))
        flat = cells.ravel()
        np.add.at(acc, flat, one)
        hot = np.flatnonzero(acc[flat] >= params.votes)
        if not hot.size:
            voted[block] = True
            block, cells = block[:0], cells[:0]
            continue
        # a hot cell reached the threshold at its occurrence with acc - votes
        # more of it later in the block; the first such one is the trigger
        hot = hot[np.argsort(flat[hot], kind="stable")]
        c = flat[hot]
        later = np.searchsorted(c, c, side="right") - 1 - np.arange(len(c))
        r = int(hot[later == acc[c] - params.votes].min()) // n_theta
        np.subtract.at(acc, flat[(r + 1) * n_theta:], one)
        voted[block[:r + 1]] = True
        k, p0 = int(acc[cells[r]].argmax()), int(block[r])
        block, cells = block[r + 1:], cells[r + 1:]

        # follow the winning direction through the mask, both ways
        dx, dy = float(-sin_t[k]), float(cos_t[k])
        fwd = _walk_dir(memoryview(alive), w, h, p0, dx, dy, params.max_gap)
        bwd = _walk_dir(memoryview(alive), w, h, p0, -dx, -dy, params.max_gap)
        run = np.array(bwd[::-1] + [p0] + fwd)
        alive[run] = False
        was = run[voted[run]]  # a run's pixels die, so none is in two runs
        np.subtract.at(acc, cells_of(was).ravel(), one)

        (y1, x1), (y2, x2) = divmod(int(run[0]), w), divmod(int(run[-1]), w)
        if len(run) > 1 and math.hypot(x2 - x1, y2 - y1) >= params.min_length:
            segments.append(Segment(Point(float(x1), float(y1)), Point(float(x2), float(y2))))
    return segments
