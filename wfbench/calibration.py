"""Machine-speed calibration.

The effective speed of a shared virtual machine drifts by tens of percent
over minutes, as its neighbours come and go, and that drift moves every
timing by about the same factor.  Fixed kernels timed between the scenes
of a run measure the factor.  They use numpy and scipy only, never the
library, so a change to the library cannot move them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# Each kernel's time at the reference speed, the scale that normalized
# timings are reported in: about its time on the 2-vCPU Intel Xeon virtual
# machine where the benchmark was built.
REFERENCE_S = (0.013, 0.006)


@dataclass(frozen=True)
class _Pt:
    x: float
    y: float


class Calibration:
    """Runs two kernels after each scene, for a share of the scene's time.

    One kernel is mostly compiled array code (a distance transform), the
    other interpreted object code (dataclasses, float math, dicts, a sort).
    Neither alone tracks every workload, but the geometric mean of their
    speeds tracked both round-trip workloads within a few percent.
    """

    def __init__(self) -> None:
        values = np.random.default_rng(0).random((320, 320))
        self._values = values
        self._mask = values > 0.9
        self._coords = [(float(v % 97), float(v % 89)) for v in range(1500)]
        self._kernels = (self._array_kernel, self._object_kernel)
        self.seconds = [0.0, 0.0]
        self.calls = [0, 0]
        for kernel in self._kernels:
            kernel()  # first-call costs stay out of the totals

    def _array_kernel(self) -> float:
        pts = [_Pt(x, y) for x, y in self._coords[:600]]
        acc = 0.0
        for i in range(1, len(pts)):
            a, b = pts[i - 1], pts[i]
            acc += math.hypot(b.x - a.x, b.y - a.y)
        index = {}
        for i, c in enumerate(self._coords[:600]):
            index[c] = i
        acc += len(set(index))
        acc += float(ndimage.distance_transform_edt(~self._mask)[::37, ::37].sum())
        return acc + float(np.sort(self._values, axis=1)[:, 3].sum())

    def _object_kernel(self) -> float:
        pts = [_Pt(x, y) for x, y in self._coords]
        acc = 0.0
        kept = []
        seen = {}
        for i in range(2, len(pts)):
            a, b, c = pts[i - 2], pts[i - 1], pts[i]
            cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
            d = math.hypot(c.x - a.x, c.y - a.y)
            if cross > 0 and d > 1.0:
                kept.append((a, c))
            seen[(round(c.x, 3), round(c.y, 3))] = d
            acc += d + abs(math.atan2(c.y - b.y, c.x - b.x))
        kept.sort(key=lambda p: (p[0].y, p[0].x))
        return acc + len(kept) + len(seen)

    def run(self, budget_s: float) -> None:
        """Run each kernel at least once and for about budget_s / 2 seconds."""
        for i, kernel in enumerate(self._kernels):
            t0 = time.perf_counter()
            n = 0
            while n == 0 or time.perf_counter() - t0 < budget_s / 2:
                kernel()
                n += 1
            self.seconds[i] += time.perf_counter() - t0
            self.calls[i] += n

    @property
    def speed(self) -> float:
        """Machine speed relative to the reference: above 1 is faster."""
        a, b = (ref * n / s for ref, s, n in zip(REFERENCE_S, self.seconds, self.calls))
        return math.sqrt(a * b)
