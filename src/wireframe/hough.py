"""Probabilistic Hough baseline: segments straight from a binary mask.

Progressive probabilistic Hough (Matas, Galambos & Kittler, CVIU 2000): visit
the set pixels in a seeded random order (all draws made in one call); each
live pixel votes over all angle bins, and once a (rho, theta) bin reaches the
vote threshold, walk that line through the mask, bridging gaps up to max_gap,
to find the supporting run.  Runs of two or more pixels at least min_length
long are emitted; a run's pixels are always consumed and their stored votes
retracted in one update, so no line is found twice.
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
        if isinstance(self.votes, bool) or not 1 <= self.votes < math.inf:
            raise GeometryError(f"vote threshold {self.votes} must be finite and >= 1")
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
    pool = list(zip(xs.tolist(), ys.tolist()))
    if not pool:
        return []
    alive = mask.bits.copy()

    n_theta = max(1, int(round(180.0 / params.theta_res)))
    thetas = np.arange(n_theta) * math.radians(params.theta_res)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    rho_off = int(math.ceil(math.hypot(mask.width, mask.height) / params.rho_res))
    # flat accumulator: (theta bin t, rho bin r) is cell t * (2 * rho_off + 1) + r
    acc = np.zeros(n_theta * (2 * rho_off + 1), dtype=np.int64)
    cell_base = np.arange(n_theta) * (2 * rho_off + 1) + rho_off
    # each pass pops one pool index, live pixel or not: the n draws are the
    # stream of n scalar rng.integers(len(pool)) calls, made in one call
    draws = np.random.default_rng(params.seed).integers(np.arange(len(pool), 0, -1))
    voted: dict[tuple[int, int], np.ndarray] = {}  # voted pixel -> its cells
    segments: list[Segment] = []

    for j in draws.tolist():
        x0, y0 = pool[j]
        pool[j] = pool[-1]
        pool.pop()
        if not alive[y0, x0]:
            continue
        cells = np.rint((x0 * cos_t + y0 * sin_t) / params.rho_res).astype(np.int64) + cell_base
        voted[x0, y0] = cells
        votes = acc[cells] + 1  # one cell per theta, so no cell repeats
        acc[cells] = votes
        k = int(votes.argmax())
        if votes[k] < params.votes:
            continue

        # follow the winning direction through the mask, both ways
        dx, dy = -sin_t[k], cos_t[k]
        fwd = _walk_dir(alive, x0, y0, dx, dy, params.max_gap)
        bwd = _walk_dir(alive, x0, y0, -dx, -dy, params.max_gap)
        run = bwd[::-1] + [(x0, y0)] + fwd
        ex1, ex2 = run[0], run[-1]

        run_x, run_y = zip(*run)
        alive[run_y, run_x] = False
        np.subtract.at(acc, np.concatenate([voted.pop(p) for p in run if p in voted]), 1)

        if ex1 != ex2 and math.hypot(ex2[0] - ex1[0], ex2[1] - ex1[1]) >= params.min_length:
            segments.append(Segment(Point(float(ex1[0]), float(ex1[1])),
                                    Point(float(ex2[0]), float(ex2[1]))))
    return segments
