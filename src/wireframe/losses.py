"""Training objectives: the four-term junction loss, the heat-map l2 loss,
their analytic gradients, and the positive/negative cell sampler.

The junction loss combines a center confidence term (mean cross-entropy over
a sampled cell mask), a center location term (mean squared displacement
error over ground-truth cells), a branch confidence term (mean cross-entropy
over ground-truth cells and all angle bins), and a branch location term
(squared residual error averaged per junction, then over junctions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import GeometryError, Junction, check_seed
from .gridcodec import GridEncoding, encode

# Logs are clamped at this floor; the clamp sits inside the log so that
# terms with a zero coefficient vanish exactly (an all-zero prediction of an
# empty scene scores exactly 0).
CONF_EPS = 1e-7

# Default cap on the negatives:positives ratio when sampling cells.
DEFAULT_NEG_POS_RATIO = 7.0


@dataclass(frozen=True)
class LossWeights:
    conf_c: float = 1.0
    loc_c: float = 0.1
    conf_b: float = 1.0
    loc_b: float = 0.1

    def __post_init__(self) -> None:
        for name in ("conf_c", "loc_c", "conf_b", "loc_b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise GeometryError(f"loss weight {name}={v} must be finite and >= 0")


@dataclass(frozen=True)
class LossReport:
    total: float
    conf_c: float
    loc_c: float
    conf_b: float
    loc_b: float


def _ce_terms(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise clamped cross-entropy."""
    return (-target * np.log(np.maximum(pred, CONF_EPS))
            - (1.0 - target) * np.log(np.maximum(1.0 - pred, CONF_EPS)))


def _ce_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d/dpred of _ce_terms; zero where the clamp flattens the log."""
    g = np.subtract(0.0, np.divide(target, pred, out=np.zeros_like(pred), where=pred > CONF_EPS))
    q = 1.0 - pred
    return g + np.divide(1.0 - target, q, out=np.zeros_like(pred), where=q > CONF_EPS)


def _targets(pred: GridEncoding, gt_junctions: Sequence[Junction],
             sample_mask: Optional[np.ndarray]):
    """What the loss and its gradient compare against: the sample mask (every
    cell when None) and the center confidences there, predicted and true; the
    ground-truth cells (flat indices), their bin confidences as (cell, bin) rows,
    predicted and true, and displacement errors; their occupied bins (flat,
    row-major), the wrapped residual errors there and the count per cell."""
    gt = encode(gt_junctions, pred.config)
    want, k = (pred.config.grid_h, pred.config.grid_w), pred.config.bins
    mask = np.ones(want, dtype=bool) if sample_mask is None else np.asarray(sample_mask, dtype=bool)
    if mask.shape != want:
        raise GeometryError(f"sample mask shape {mask.shape} != grid {want}")
    cells = np.flatnonzero(gt.center_conf == 1.0)
    pb, tb = pred.bin_conf.reshape(-1, k)[cells], gt.bin_conf.reshape(-1, k)[cells]
    at = (cells[:, None] * k + np.arange(k))[tb == 1.0]
    derr = pred.displacement.reshape(-1, 2)[cells] - gt.displacement.reshape(-1, 2)[cells]
    d = pred.bin_residual.take(at) - gt.bin_residual.take(at)
    return (mask, pred.center_conf[mask], gt.center_conf[mask], cells, pb, tb, derr, at,
            (d + 180.0) % 360.0 - 180.0, (tb == 1.0).sum(axis=1))


def junction_loss(pred: GridEncoding, gt_junctions: Sequence[Junction],
                  weights: LossWeights = LossWeights(),
                  sample_mask: Optional[np.ndarray] = None) -> LossReport:
    """Four-term loss of a predicted grid against ground-truth junctions.

    With no ground-truth junctions the location and branch terms are 0 and
    only the center confidence term (over the mask) remains.
    """
    mask, pc, tc, cells, pb, tb, derr, _, d, counts = _targets(pred, gt_junctions, sample_mask)

    conf_c = float(_ce_terms(pc, tc).mean()) if mask.any() else 0.0

    n = len(cells)
    loc_c = conf_b = loc_b = 0.0
    if n:
        loc_c = float((derr ** 2).sum() / n)
        conf_b = float(_ce_terms(pb, tb).mean())
        # cells of one branch count are the rows of one matrix, and each row
        # sums as its own 1-D mean would (np.add.reduceat sums in another order)
        means, ends = np.zeros(n), np.cumsum(counts)
        for c in set(counts.tolist()) - {0}:
            rows = counts == c
            means[rows] = (d[(ends[rows] - c)[:, None] + np.arange(c)] ** 2).mean(axis=1)
        loc_b = sum(means.tolist()) / n

    total = (weights.conf_c * conf_c + weights.loc_c * loc_c
             + weights.conf_b * conf_b + weights.loc_b * loc_b)
    return LossReport(total, conf_c, loc_c, conf_b, loc_b)


def junction_loss_grad(pred: GridEncoding, gt_junctions: Sequence[Junction],
                       weights: LossWeights = LossWeights(),
                       sample_mask: Optional[np.ndarray] = None) -> GridEncoding:
    """d(total)/d(every prediction field), packed in a GridEncoding."""
    mask, pc, tc, cells, pb, tb, derr, at, d, counts = _targets(pred, gt_junctions, sample_mask)
    grad = GridEncoding(pred.config)

    if mask.any():
        grad.center_conf[mask] = _ce_grad(pc, tc) * (weights.conf_c / mask.sum())

    n, k = len(cells), pred.config.bins
    if not n:
        return grad

    grad.displacement.reshape(-1, 2)[cells] = 2.0 * derr * (weights.loc_c / n)
    grad.bin_conf.reshape(-1, k)[cells] = _ce_grad(pb, tb) * (weights.conf_b / (n * k))
    grad.bin_residual.put(at, 2.0 * d * (weights.loc_b / (n * np.repeat(counts, counts))))
    return grad


def heatmap_l2_loss(pred, target) -> tuple[float, np.ndarray]:
    """Sum of squared per-pixel differences and its gradient 2(pred - target).

    Accepts HeatMap objects or bare value arrays of equal shape.
    """
    p = np.asarray(getattr(pred, "values", pred), dtype=np.float64)
    t = np.asarray(getattr(target, "values", target), dtype=np.float64)
    if p.shape != t.shape:
        raise GeometryError(f"heat map shapes differ: {p.shape} vs {t.shape}")
    diff = p - t
    return float((diff ** 2).sum()), 2.0 * diff


def sample_cells(gt: GridEncoding, r_max: float = DEFAULT_NEG_POS_RATIO,
                 seed: int = 0) -> np.ndarray:
    """Cell mask for the center confidence term.

    Keeps every positive cell and a seeded uniform sample of negatives of
    size min(#negatives, floor(r_max * #positives)).  An infinite r_max, or
    a grid with no positives, selects every cell.
    """
    if not r_max >= 0:
        raise GeometryError(f"r_max={r_max} must be >= 0 or infinite")
    check_seed(seed)
    pos = gt.center_conf == 1.0
    n_pos = int(pos.sum())
    if math.isinf(r_max) or n_pos == 0:
        return np.ones(pos.shape, dtype=bool)
    neg_flat = np.nonzero(~pos.ravel())[0]
    take = min(len(neg_flat), int(math.floor(r_max * n_pos)))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(neg_flat, size=take, replace=False)
    mask = pos.copy()
    mask.ravel()[chosen] = True
    return mask
