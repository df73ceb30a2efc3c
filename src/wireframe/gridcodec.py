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

from .geometry import Branch, GeometryError, Junction, Point, normalize_angle

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
        if self.image_w < 1 or self.image_h < 1:
            raise GeometryError(f"bad image size {self.image_w}x{self.image_h}")
        if self.grid_w < 1 or self.grid_h < 1:
            raise GeometryError(f"bad grid size {self.grid_w}x{self.grid_h}")
        if self.bins < 2:
            raise GeometryError(f"need at least 2 angle bins, got {self.bins}")

    @property
    def cell_w(self) -> float:
        return self.image_w / self.grid_w

    @property
    def cell_h(self) -> float:
        return self.image_h / self.grid_h

    def cell_of(self, p: Point) -> tuple[int, int]:
        """(row, col) of the cell owning a point; right/bottom edges inclusive."""
        col = min(int(p.x // self.cell_w), self.grid_w - 1)
        row = min(int(p.y // self.cell_h), self.grid_h - 1)
        return row, col

    def cell_center(self, row: int, col: int) -> Point:
        return Point((col + 0.5) * self.cell_w, (row + 0.5) * self.cell_h)


def angle_to_bin(theta_deg: float, bins: int) -> tuple[int, float]:
    """Angle -> (bin index, residual from the bin center), residual in
    [-bw/2, bw/2) with bw = 360/bins."""
    bw = 360.0 / bins
    theta = normalize_angle(theta_deg)
    # An angle a rounding error below a lower bin edge, as bin_to_angle
    # rebuilds residual -bw/2, belongs to the bin above; the clamp keeps
    # every residual inside [-bw/2, bw/2).
    k = min(int((theta + 1e-10) // bw), bins - 1)
    return k, min(max(theta - (k + 0.5) * bw, -bw / 2), math.nextafter(bw / 2, 0.0))


def bin_to_angle(k: int, residual_deg: float, bins: int) -> float:
    """Inverse of angle_to_bin: bin center plus residual, in [0, 360)."""
    return normalize_angle((k + 0.5) * (360.0 / bins) + residual_deg)


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
    CellCollisionError.
    """
    enc = GridEncoding(config)
    owners: dict[tuple[int, int], Junction] = {}
    for jn in junctions:
        c = jn.center
        if not (0.0 <= c.x <= config.image_w and 0.0 <= c.y <= config.image_h):
            raise GeometryError(f"junction center ({c.x}, {c.y}) outside image")
        row, col = config.cell_of(c)
        if (row, col) in owners:
            other = owners[(row, col)]
            raise CellCollisionError(
                f"cell ({row}, {col}) claimed by junctions at "
                f"({other.center.x}, {other.center.y}) and ({c.x}, {c.y})")
        owners[(row, col)] = jn
        center = config.cell_center(row, col)
        enc.center_conf[row, col] = 1.0
        enc.displacement[row, col] = (c.x - center.x, c.y - center.y)
        for br in jn.branches:
            k, res = angle_to_bin(br.angle_deg, config.bins)
            if enc.bin_conf[row, col, k] != 0.0:
                raise CellCollisionError(
                    f"junction at ({c.x}, {c.y}): two branches fall in angle bin {k}")
            enc.bin_conf[row, col, k] = 1.0
            enc.bin_residual[row, col, k] = res
    return enc


def decode(enc: GridEncoding, tau_c: float = DEFAULT_TAU_C,
           tau_b: float = DEFAULT_TAU_B) -> list[Junction]:
    """Thresholded readout: cells with confidence > tau_c become junctions,
    bins with confidence > tau_b become branches.  Junctions left with no
    branch are dropped.  Output follows row-major cell order."""
    cfg = enc.config
    out = []
    for row, col in zip(*np.nonzero(enc.center_conf > tau_c)):
        center = cfg.cell_center(int(row), int(col))
        dx, dy = enc.displacement[row, col]
        branches = tuple(
            Branch(bin_to_angle(int(k), float(enc.bin_residual[row, col, k]), cfg.bins),
                   float(enc.bin_conf[row, col, k]))
            for k in np.nonzero(enc.bin_conf[row, col] > tau_b)[0])
        if not branches:
            continue
        out.append(Junction(Point(center.x + dx, center.y + dy), branches,
                            float(enc.center_conf[row, col])))
    return out
