"""Probabilistic Hough baseline: segments straight from a binary mask.

Progressive probabilistic Hough (Matas, Galambos & Kittler, CVIU 2000): visit
the set pixels in a seeded random order (all draws made in one call); each
live pixel votes over all angle bins, and once a (rho, theta) bin reaches the
vote threshold, walk that line through the mask, bridging gaps up to max_gap,
to find the supporting run.  Runs of two or more pixels at least min_length
long are emitted; a run's pixels are always consumed and their stored votes
retracted in one update, so no line is found twice.  Votes are cast a block
of visits at a time, with the segments of a one-vote loop: between runs no
pixel dies, and no cell is at the threshold when a block starts (the pixel
that lifted it there was retracted with its run).  If a block lifts a cell
there, the votes after the first pixel that did are taken back.
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
# Visits per vote block (timed on 640^2 scenes, ~42 votes between runs):
# smaller blocks pay more per-call overhead, larger ones take back more votes.
_BLOCK = 64


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


def _walk_dir(alive: np.ndarray, x0: int, y0: int, dx: float, dy: float,
              max_gap: float) -> list[tuple[int, int]]:
    """Follow one direction of the line from (x0, y0) over alive pixels.

    Steps along the dominant axis; at each step the expected pixel and its
    two lateral neighbors are probed, and a hit re-centers the walk, which
    tolerates the accumulator's angle quantization.  A y-major direction is
    the same walk over the transposed mask.
    """
    if abs(dx) < abs(dy):
        return [(x, y) for y, x in _walk_dir(alive.T, y0, x0, dy, dx, max_gap)]
    h, w = alive.shape
    hits: list[tuple[int, int]] = []
    sx = 1 if dx > 0 else -1
    slope = dy / dx * sx
    x, yf = x0, float(y0)
    gap = 0
    while True:
        x += sx
        yf += slope
        if not 0 <= x < w:
            break
        y = int(math.floor(yf + 0.5))
        found = None
        for yy in (y, y - 1, y + 1):
            if 0 <= yy < h and alive[yy, x]:
                found = yy
                break
        if found is None:
            gap += 1
            if gap > max_gap:
                break
            continue
        gap = 0
        yf = float(found)
        hits.append((x, found))
    return hits


def hough_segments(mask: BinaryMask, params: HoughParams = HoughParams()) -> list[Segment]:
    """Extract line segments from a binary mask."""
    ys, xs = np.nonzero(mask.bits)
    if not xs.size:
        return []
    alive = mask.bits.copy()
    voted = np.zeros_like(alive)

    n_theta = max(1, int(round(180.0 / params.theta_res)))
    thetas = np.arange(n_theta) * math.radians(params.theta_res)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    rho_off = int(math.ceil(math.hypot(mask.width, mask.height) / params.rho_res))
    # flat accumulator: (theta bin t, rho bin r) is cell t * (2 * rho_off + 1) + r
    acc = np.zeros(n_theta * (2 * rho_off + 1), dtype=np.int64)
    cell_base = np.arange(n_theta) * (2 * rho_off + 1) + rho_off

    def cells_of(px: np.ndarray, py: np.ndarray) -> np.ndarray:  # n_theta per pixel, flat
        return (np.rint((px[:, None] * cos_t + py[:, None] * sin_t)
                        / params.rho_res).astype(np.int64) + cell_base).ravel()

    # each visit pops one pool index, live pixel or not: the n draws are the
    # stream of n scalar rng.integers(len(pool)) calls, made in one call
    n = len(xs)
    pool, order = list(range(n)), []
    for j in np.random.default_rng(params.seed).integers(np.arange(n, 0, -1)).tolist():
        order.append(pool[j])
        pool[j] = pool[-1]
        pool.pop()
    vx, vy = xs[order], ys[order]
    segments: list[Segment] = []

    i = 0
    while i < n:
        live = i + np.flatnonzero(alive[vy[i:i + _BLOCK], vx[i:i + _BLOCK]])
        i += _BLOCK  # a block of dead pixels falls through with no votes
        bx, by = vx[live], vy[live]
        flat = cells_of(bx, by)
        np.add.at(acc, flat, 1)
        hot = np.flatnonzero(acc[flat] >= params.votes)
        if not hot.size:
            voted[by, bx] = True
            continue
        # a hot cell reached the threshold at its occurrence with acc - votes
        # more of it later in the block; the first such one is the trigger
        hot = hot[np.argsort(flat[hot], kind="stable")]
        c = flat[hot]
        later = np.searchsorted(c, c, side="right") - 1 - np.arange(len(c))
        r = int(hot[later == acc[c] - params.votes].min()) // n_theta
        np.subtract.at(acc, flat[(r + 1) * n_theta:], 1)
        voted[by[:r + 1], bx[:r + 1]] = True
        k = int(acc[flat[r * n_theta:(r + 1) * n_theta]].argmax())
        x0, y0 = int(bx[r]), int(by[r])
        i = int(live[r]) + 1

        # follow the winning direction through the mask, both ways
        dx, dy = -sin_t[k], cos_t[k]
        fwd = _walk_dir(alive, x0, y0, dx, dy, params.max_gap)
        bwd = _walk_dir(alive, x0, y0, -dx, -dy, params.max_gap)
        run = bwd[::-1] + [(x0, y0)] + fwd
        ex1, ex2 = run[0], run[-1]

        run_x, run_y = (np.array(v) for v in zip(*run))
        alive[run_y, run_x] = False
        was = voted[run_y, run_x]  # a run's pixels die, so none is in two runs
        np.subtract.at(acc, cells_of(run_x[was], run_y[was]), 1)

        if ex1 != ex2 and math.hypot(ex2[0] - ex1[0], ex2[1] - ex1[1]) >= params.min_length:
            segments.append(Segment(Point(float(ex1[0]), float(ex1[1])),
                                    Point(float(ex2[0]), float(ex2[1]))))
    return segments
