"""Tolerance-based precision/recall for junctions and line-segment pixels.

Junction matching is a one-to-one maximum matching found by augmenting
paths.  Line matching is coverage-based at the pixel level, counting pixels
with a pixel of the other side within tolerance (a sorted search per row of
the Euclidean disk).  Tolerance defaults to 0.01 of the image diagonal.
Conventions: no predictions means precision 1, no ground truth means recall
1, which keeps threshold sweeps well-defined at the extremes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .annotate import _BLOCK_PX, rasterize_segments
from .formats import write_in_place
from .geometry import (GeometryError, Junction, Segment, is_whole, junction_table, near_lists,
                       segment_array)

DEFAULT_TOLERANCE_FRAC = 0.01
DEFAULT_SWEEP = tuple(i / 10 for i in range(1, 10))


@dataclass(frozen=True)
class EvalConfig:
    tolerance_frac: float = DEFAULT_TOLERANCE_FRAC
    sweep: tuple[float, ...] = DEFAULT_SWEEP

    def __post_init__(self) -> None:
        if not 0 < self.tolerance_frac < math.inf:  # NaN fails too
            raise GeometryError(f"tolerance_frac={self.tolerance_frac} must be finite and > 0")
        # NaN fails every >=, so finiteness is its own test
        if not all(map(math.isfinite, self.sweep)) or any(
                a >= b for a, b in zip(self.sweep, self.sweep[1:])):
            raise GeometryError("sweep thresholds must be finite and strictly increasing")

    def tolerance(self, width: int, height: int) -> float:
        return self.tolerance_frac * math.hypot(width, height)


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float
    n_gt: int = 0
    n_pred: int = 0
    matched_gt: int = 0
    matched_pred: int = 0


@dataclass(frozen=True)
class PRCurve:
    points: tuple[PRPoint, ...] = ()


def _pr_from_counts(threshold: float, n_gt: int, n_pred: int,
                    matched_gt: int, matched_pred: int) -> PRPoint:
    precision = matched_pred / n_pred if n_pred else 1.0
    recall = matched_gt / n_gt if n_gt else 1.0
    return PRPoint(threshold, precision, recall, n_gt, n_pred, matched_gt, matched_pred)


def max_matching(adj: Sequence[Sequence[int]], n_pred: int) -> int:
    """Size of a maximum matching of gt point i to a pred of ``adj[i]``: augmenting
    paths (Kuhn) from an empty matching, one search per gt point, with an
    explicit stack so long alternating chains need no recursion."""
    owner = [-1] * n_pred
    matches = 0
    for root in range(len(adj)):
        seen = [False] * n_pred
        # stack[k] is a gt point on the path; via[k] the pred leading on from it
        stack = [(root, iter(adj[root]))]
        via: list[int] = []
        while stack:
            j = next((j for j in stack[-1][1] if not seen[j]), -1)
            if j < 0:
                stack.pop()
                if via:  # the pred that led to the abandoned point
                    via.pop()
                continue
            seen[j] = True
            via.append(j)
            if owner[j] < 0:
                for (i, _), jj in zip(stack, via):
                    owner[jj] = i
                matches += 1
                break
            stack.append((owner[j], iter(adj[owner[j]])))
    return matches


def _check_sides(width: int, height: int) -> None:
    """Integer sides >= 0: an infinite tolerance would match all, a NaN one nothing."""
    if not (is_whole(width) and is_whole(height)):
        raise GeometryError(f"image sides {width} x {height} must be integers >= 0")


def junction_pr(gt: Sequence[Junction], pred: Sequence[Junction],
                config: EvalConfig, width: int, height: int) -> PRPoint:
    """One-to-one junction detection PR at the configured tolerance: the
    maximum matching of centres within it, each used once."""
    _check_sides(width, height)
    gt, pred = junction_table(gt), junction_table(pred)
    adj = near_lists(gt.centers, pred.centers, config.tolerance(width, height))
    m = max_matching(adj, len(pred))
    return _pr_from_counts(0.0, len(gt), len(pred), m, m)


def junction_sweep(gt: Sequence[Junction], pred: Sequence[Junction], config: EvalConfig,
                   width: int, height: int) -> Callable[[float], PRPoint]:
    """t -> junction_pr of the preds with confidence > t.  The pairs within
    tolerance are found once, for all preds; each t keeps its columns."""
    _check_sides(width, height)
    gt, pred = junction_table(gt), junction_table(pred)
    adj = near_lists(gt.centers, pred.centers, config.tolerance(width, height))
    conf = pred.confidence.tolist()

    def at(t: float) -> PRPoint:
        m = max_matching([[j for j in near if conf[j] > t] for near in adj], len(pred))
        return _pr_from_counts(t, len(gt), sum(c > t for c in conf), m, m)
    return at


def _pixels(segments: Sequence[Segment], width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """The line pixels as a mask and as its ascending flat indices."""
    mask = np.zeros((height, width), dtype=bool)
    for xs, ys, _ in rasterize_segments(segment_array(segments), width, height):
        mask[ys, xs] = True
    return mask, np.flatnonzero(mask)


def _near_count(idx: np.ndarray, other: np.ndarray, other_idx: np.ndarray, tol: float) -> int:
    """How many set pixels, at ascending flat indices `idx`, lie within tol of
    a set pixel of the mask `other` (ascending flat indices `other_idx`).

    Within tol is the disk sqrt(dx^2 + dy^2) <= tol: per row offset dy the
    columns x - half .. x + half.  Pixels that `other` sets too are settled
    first.  The rest make a key per dy, row * w + max(x - half, 0): near if
    the next set pixel (``searchsorted``) is at most row * w + min(x + half,
    w - 1), never in a row off the image.  The own row, the disk's widest
    chord, goes first: it settles most at one key each, not 2 reach + 1.
    """
    h, w = other.shape
    if not len(idx):  # no pixels, as on every image with a zero side (reach -1)
        return 0
    reach = min(math.floor(tol), h - 1)
    dys = np.arange(-reach, reach + 1)
    cols = np.arange(min(math.floor(tol), w - 1) + 1)
    halves = np.count_nonzero(np.sqrt(cols ** 2 + dys[:, None] ** 2) <= tol, axis=1) - 1
    total, idx = len(idx), idx[~other.ravel()[idx]]
    ys, xs = np.divmod(idx, w)
    after = np.append(other_idx, np.iinfo(np.intp).max)  # a sentinel past every key

    def hit(k, dy, half):  # pixels idx[k], rows y + dy
        row = (ys[k] + dy[:, None]) * w
        nxt = after[np.searchsorted(other_idx, row + np.maximum(xs[k] - half[:, None], 0))]
        return (nxt <= row + np.minimum(xs[k] + half[:, None], w - 1)).any(axis=0)
    near = hit(slice(None), dys[reach:reach + 1], halves[reach:reach + 1])  # own row first
    left = np.flatnonzero(~near)
    step = max(1, _BLOCK_PX // len(dys))  # about _BLOCK_PX keys per searchsorted
    for lo in range(0, len(left), step):
        near[left[lo:lo + step]] = hit(left[lo:lo + step], dys, halves)
    return total - len(idx) + int(np.count_nonzero(near))


def line_pixel_pr(gt: Sequence[Segment], pred: Sequence[Segment],
                  config: EvalConfig, width: int, height: int) -> PRPoint:
    """Coverage-based PR over rasterized line pixels."""
    _check_sides(width, height)
    tol = config.tolerance(width, height)
    (gt_px, gt_idx), (pred_px, pred_idx) = (_pixels(s, width, height) for s in (gt, pred))
    return _pr_from_counts(0.0, len(gt_idx), len(pred_idx), _near_count(
        gt_idx, pred_px, pred_idx, tol), _near_count(pred_idx, gt_px, gt_idx, tol))


def pool_pr(threshold: float, per_image: Sequence[PRPoint]) -> PRPoint:
    """Dataset-level PR: sum raw counts across images, then divide."""
    return _pr_from_counts(
        threshold,
        sum(p.n_gt for p in per_image),
        sum(p.n_pred for p in per_image),
        sum(p.matched_gt for p in per_image),
        sum(p.matched_pred for p in per_image),
    )


def sweep_pr(eval_at: Callable[[float], PRPoint], config: EvalConfig) -> PRCurve:
    """Evaluate a thresholded detector at every sweep value, in order."""
    return PRCurve(tuple(
        dataclasses.replace(eval_at(t), threshold=t) for t in config.sweep))


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_pr_csv(curve: PRCurve, path: str) -> None:
    lines = ["threshold,precision,recall"]
    lines += [f"{_fmt(p.threshold)},{_fmt(p.precision)},{_fmt(p.recall)}"
              for p in curve.points]
    write_in_place(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_pr_csv(path: str) -> PRCurve:
    try:
        with open(path, "r", encoding="ascii") as f:
            rows = [line.strip() for line in f if line.strip()]
    except UnicodeDecodeError as e:
        raise GeometryError(f"{path}: not ASCII text (byte {e.object[e.start]:#x})") from None
    if not rows or rows[0] != "threshold,precision,recall":
        raise GeometryError(f"{path}: not a PR curve CSV")
    points = []
    for row in rows[1:]:
        try:
            t, p, r = (float(v) for v in row.split(","))
        except ValueError:  # not three fields, or a field that is not a number
            t = p = r = math.nan
        if not all(math.isfinite(v) for v in (t, p, r)):
            raise GeometryError(f"{path}: row {row!r} is not three finite numbers")
        points.append(PRPoint(t, p, r))
    return PRCurve(tuple(points))


_SVG_SIZE = 480
_SVG_MARGIN = 50
_SVG_PLOT = _SVG_SIZE - 2 * _SVG_MARGIN


def _svg_x(recall: float) -> str:
    return _fmt(_SVG_MARGIN + recall * _SVG_PLOT)


def _svg_y(precision: float) -> str:
    return _fmt(_SVG_MARGIN + (1.0 - precision) * _SVG_PLOT)


def emit_pr_svg(curve: PRCurve, path: str) -> None:
    """Standalone PR plot: recall on x, precision on y, both [0, 1]."""
    s = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
         f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
         f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{_SVG_PLOT}" '
         f'height="{_SVG_PLOT}" fill="white" stroke="black"/>']
    for i in range(6):
        v = i / 5
        x, y = _svg_x(v), _svg_y(v)
        s.append(f'<text x="{x}" y="{_SVG_SIZE - _SVG_MARGIN + 20}" '
                 f'font-size="12" text-anchor="middle">{_fmt(v)}</text>')
        s.append(f'<text x="{_SVG_MARGIN - 8}" y="{y}" font-size="12" '
                 f'text-anchor="end">{_fmt(v)}</text>')
    s.append(f'<text x="{_SVG_SIZE // 2}" y="{_SVG_SIZE - 10}" font-size="14" '
             f'text-anchor="middle">recall</text>')
    s.append(f'<text x="14" y="{_SVG_SIZE // 2}" font-size="14" text-anchor="middle" '
             f'transform="rotate(-90 14 {_SVG_SIZE // 2})">precision</text>')
    if curve.points:
        pts = " ".join(f"{_svg_x(p.recall)},{_svg_y(p.precision)}" for p in curve.points)
        s.append(f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="2"/>')
        for p in curve.points:
            s.append(f'<circle cx="{_svg_x(p.recall)}" cy="{_svg_y(p.precision)}" '
                     f'r="3" fill="crimson"/>')
            s.append(f'<text x="{_svg_x(p.recall)}" y="{_fmt(float(_svg_y(p.precision)) - 8)}" '
                     f'font-size="10" text-anchor="middle">{_fmt(p.threshold)}</text>')
    s.append("</svg>")
    write_in_place(path, ("\n".join(s) + "\n").encode("ascii"))
