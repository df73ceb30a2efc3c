"""Grid + angle-bin codec for junction sets.

An image is divided into a grid_h x grid_w mesh; the cell containing a
junction center is responsible for it and stores a confidence, a pixel
displacement from the cell center, and per-angle-bin branch confidences and
residuals.  The circle is split into K equal bins; an angle is carried as
(bin index k, signed residual from the bin center b_k = (k + 0.5) * 360/K).
Residuals are positive in the clockwise screen direction, matching the
y-down frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (GeometryError, Junction, JunctionTable, is_whole, junction_table,
                       normalize_angles)

DEFAULT_GRID = 60
DEFAULT_BINS = 15
DEFAULT_TAU_C = 0.5
DEFAULT_TAU_B = 0.5
# the fields of a GridEncoding, in order
ARRAYS = ("center_conf", "displacement", "bin_conf", "bin_residual")


class CellCollisionError(ValueError):
    """Two junctions claim one cell, or two branches claim one angle bin."""


@dataclass(frozen=True)
class GridConfig:
    image_w: int
    image_h: int
    grid_w: int = DEFAULT_GRID
    grid_h: int = DEFAULT_GRID
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        if not (is_whole(self.image_w, 1) and is_whole(self.image_h, 1)):
            raise GeometryError(f"bad image size {self.image_w!r}x{self.image_h!r}, "
                                "not integers >= 1")
        if not (is_whole(self.grid_w, 1) and is_whole(self.grid_h, 1)):
            raise GeometryError(f"bad grid size {self.grid_w!r}x{self.grid_h!r}, not integers >= 1")
        if not is_whole(self.bins, 2):
            raise GeometryError(f"need an integer of at least 2 angle bins, got {self.bins!r}")
        for k in ("image_w", "image_h", "grid_w", "grid_h", "bins"):  # numpy's as ints, for JSON
            object.__setattr__(self, k, int(getattr(self, k)))

    @property
    def cell_w(self) -> float:
        return self.image_w / self.grid_w

    @property
    def cell_h(self) -> float:
        return self.image_h / self.grid_h

    def cell_of(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the cells owning points (x, y), arrays; the right and
        bottom edges are inclusive, points outside clamp to the border."""
        return (np.minimum(np.maximum(y // self.cell_h, 0), self.grid_h - 1).astype(np.intp),
                np.minimum(np.maximum(x // self.cell_w, 0), self.grid_w - 1).astype(np.intp))

    def cell_center(self, row, col) -> np.ndarray:
        """(x, y) centers of cells (row, col): a pair for ints, (n, 2) for arrays."""
        return np.array([(col + 0.5) * self.cell_w, (row + 0.5) * self.cell_h]).T


def angle_to_bin(theta_deg, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite angles -> (bin indices, residuals from the bin centers),
    residuals in [-bw/2, bw/2) with bw = 360/bins."""
    bw = 360.0 / bins
    theta = normalize_angles(theta_deg)
    # An angle a rounding error below a lower bin edge, as bin_to_angle rebuilds
    # residual -bw/2, goes to the bin above; the clamp keeps residuals in range.
    k = np.minimum((theta + 1e-10) // bw, bins - 1).astype(np.intp)
    return k, np.minimum(np.maximum(theta - (k + 0.5) * bw, -bw / 2), math.nextafter(bw / 2, 0.0))


def bin_to_angle(k, residual_deg, bins: int) -> np.ndarray:
    """Inverse of angle_to_bin: bin center plus residual, in [0, 360)."""
    return normalize_angles((k + 0.5) * (360.0 / bins) + residual_deg)


@dataclass(eq=False)
class GridEncoding:
    """Struct-of-arrays encoding of the whole grid."""
    config: GridConfig
    center_conf: np.ndarray = None  # (H, W)
    displacement: np.ndarray = None  # (H, W, 2) as (dx, dy)
    bin_conf: np.ndarray = None  # (H, W, K)
    bin_residual: np.ndarray = None  # (H, W, K)

    def __post_init__(self) -> None:
        h, w, k = self.config.grid_h, self.config.grid_w, self.config.bins
        want = ((h, w), (h, w, 2), (h, w, k), (h, w, k))
        for name, shape in zip(ARRAYS, want):
            value = getattr(self, name)
            setattr(self, name, np.asarray(np.zeros(shape) if value is None else value,
                                           dtype=np.float64))
        shapes = tuple(getattr(self, name).shape for name in ARRAYS)
        if shapes != want:
            raise GeometryError(f"encoding arrays {shapes} do not match config {self.config}")


def encode(junctions: Sequence[Junction], config: GridConfig) -> GridEncoding:
    """Exact target encoding of a junction set.

    The owning cell gets confidence 1 and the displacement center -
    cell_center; each branch sets its angle bin's confidence to 1 and stores
    the residual.  Everything else stays 0.  Two junctions in one cell, or
    two branches of one junction in one bin, cannot be represented and raise
    CellCollisionError; a center outside the image or a non-finite branch
    angle raises GeometryError.  The first fault in input order is reported.
    """
    enc, t = GridEncoding(config), junction_table(junctions)
    n, xy, theta, owner = len(t), t.centers, t.angles, t.owner
    row, col = config.cell_of(*xy.T)
    finite = np.isfinite(theta)
    k, res = angle_to_bin(np.where(finite, theta, 0.0), config.bins)
    # cell keys, then negative (junction, bin) keys: a repeat is a collision
    keys = np.concatenate([row * config.grid_w + col, -1 - owner * config.bins - k])
    taken = np.ones(len(keys), dtype=bool)
    taken[np.unique(keys, return_index=True)[1]] = False
    outside = ~((0.0 <= xy) & (xy <= [config.image_w, config.image_h])).all(axis=1)
    bad_branch = taken[n:] | ~finite
    bad = outside | taken[:n] | (np.bincount(owner[bad_branch], minlength=n) > 0)
    if bad.any():  # within a junction: outside, its cell taken, then its first bad branch
        j = int(np.argmax(bad))
        at = "({}, {})".format(*xy[j].tolist())
        if outside[j]:
            raise GeometryError(f"junction center {at} outside image")
        if taken[j]:
            o = "({}, {})".format(*xy[np.argmax(keys == keys[j])].tolist())
            raise CellCollisionError(
                f"cell ({row[j]}, {col[j]}) claimed by junctions at {o} and {at}")
        b = int(np.argmax(bad_branch & (owner == j)))
        if not finite[b]:
            raise GeometryError(f"junction at {at}: non-finite branch angle {theta[b]}")
        raise CellCollisionError(f"junction at {at}: two branches fall in angle bin {k[b]}")
    enc.center_conf[row, col] = 1.0
    enc.displacement[row, col] = xy - config.cell_center(row, col)
    enc.bin_conf[row[owner], col[owner], k] = 1.0
    enc.bin_residual[row[owner], col[owner], k] = res
    return enc


def decode(enc: GridEncoding, tau_c: float = DEFAULT_TAU_C,
           tau_b: float = DEFAULT_TAU_B) -> JunctionTable:
    """Thresholded readout: cells with confidence > tau_c become junctions,
    bins with confidence > tau_b become branches.  Junctions left with no
    branch are dropped.  Output follows row-major cell order.  The
    thresholds are finite and >= 0, as in construction."""
    for name, tau in (("tau_c", tau_c), ("tau_b", tau_b)):
        if not 0 <= tau < math.inf:  # NaN fails too
            raise GeometryError(f"{name} must be finite and >= 0")
    cfg = enc.config
    live = np.flatnonzero((enc.center_conf > tau_c)[:, :, None] & (enc.bin_conf > tau_b))
    cell, k = np.divmod(live, cfg.bins)
    first = np.flatnonzero(np.diff(cell, prepend=-1))
    cell = cell[first]
    xy = cfg.cell_center(*np.divmod(cell, cfg.grid_w)) + enc.displacement.reshape(-1, 2)[cell]
    angles = bin_to_angle(k, enc.bin_residual.take(live), cfg.bins)
    return JunctionTable(xy, enc.center_conf.take(cell), np.zeros(len(cell), dtype=bool),
                         np.append(first, len(live)), angles, enc.bin_conf.take(live))
