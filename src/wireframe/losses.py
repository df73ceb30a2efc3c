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
    g = np.zeros_like(pred)
    live = pred > CONF_EPS
    g[live] -= target[live] / pred[live]
    live = (1.0 - pred) > CONF_EPS
    g[live] += (1.0 - target[live]) / (1.0 - pred[live])
    return g


def _targets(pred: GridEncoding, gt_junctions: Sequence[Junction],
             sample_mask: Optional[np.ndarray]):
    """What the loss and its gradient compare against: the encoded ground
    truth, the sample mask (every cell when None), the ground-truth cells, and
    per such cell (row, col, its occupied bins, their wrapped residual errors)."""
    gt = encode(gt_junctions, pred.config)
    want = (pred.config.grid_h, pred.config.grid_w)
    mask = np.ones(want, dtype=bool) if sample_mask is None else np.asarray(sample_mask, dtype=bool)
    if mask.shape != want:
        raise GeometryError(f"sample mask shape {mask.shape} != grid {want}")
    gt_cells = gt.center_conf == 1.0
    cells = []
    for rows, cols in zip(*np.nonzero(gt_cells)):
        occupied = gt.bin_conf[rows, cols] == 1.0
        d = pred.bin_residual[rows, cols, occupied] - gt.bin_residual[rows, cols, occupied]
        cells.append((rows, cols, occupied, (d + 180.0) % 360.0 - 180.0))  # onto [-180, 180)
    return gt, mask, gt_cells, cells


def junction_loss(pred: GridEncoding, gt_junctions: Sequence[Junction],
                  weights: LossWeights = LossWeights(),
                  sample_mask: Optional[np.ndarray] = None) -> LossReport:
    """Four-term loss of a predicted grid against ground-truth junctions.

    With no ground-truth junctions the location and branch terms are 0 and
    only the center confidence term (over the mask) remains.
    """
    gt, mask, gt_cells, cells = _targets(pred, gt_junctions, sample_mask)

    conf_c = float(_ce_terms(pred.center_conf, gt.center_conf)[mask].mean()) \
        if mask.any() else 0.0

    n = len(cells)
    loc_c = conf_b = loc_b = 0.0
    if n:
        derr = pred.displacement[gt_cells] - gt.displacement[gt_cells]
        loc_c = float((derr ** 2).sum() / n)
        conf_b = float(_ce_terms(pred.bin_conf[gt_cells], gt.bin_conf[gt_cells]).mean())
        loc_b = sum(float((d ** 2).mean()) if len(d) else 0.0 for *_, d in cells) / n

    total = (weights.conf_c * conf_c + weights.loc_c * loc_c
             + weights.conf_b * conf_b + weights.loc_b * loc_b)
    return LossReport(total, conf_c, loc_c, conf_b, loc_b)


def junction_loss_grad(pred: GridEncoding, gt_junctions: Sequence[Junction],
                       weights: LossWeights = LossWeights(),
                       sample_mask: Optional[np.ndarray] = None) -> GridEncoding:
    """d(total)/d(every prediction field), packed in a GridEncoding."""
    gt, mask, gt_cells, cells = _targets(pred, gt_junctions, sample_mask)
    grad = GridEncoding(pred.config)

    if mask.any():
        g = _ce_grad(pred.center_conf, gt.center_conf) * (weights.conf_c / mask.sum())
        grad.center_conf[mask] = g[mask]

    n = len(cells)
    if not n:
        return grad

    grad.displacement[gt_cells] = (
        2.0 * (pred.displacement[gt_cells] - gt.displacement[gt_cells])
        * (weights.loc_c / n))

    k = pred.config.bins
    gb = _ce_grad(pred.bin_conf[gt_cells], gt.bin_conf[gt_cells])
    grad.bin_conf[gt_cells] = gb * (weights.conf_b / (n * k))

    for rows, cols, occupied, d in cells:
        if len(d):
            grad.bin_residual[rows, cols, occupied] = 2.0 * d * (weights.loc_b / (n * len(d)))
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
