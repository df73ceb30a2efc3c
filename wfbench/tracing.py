"""Spans and counters around the library's public functions.

The tracer wraps functions at module boundaries from outside the library:
every module attribute that is the original function object is swapped for
a wrapper, so calls between modules (construct -> geometry, losses ->
gridcodec) are traced as well as the benchmark's own calls.  Nothing under
src/ is edited.  A span's self time is its duration minus the time covered
by the spans opened inside it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from wireframe.gridcodec import CellCollisionError


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``layer`` names the span (several functions may share one, as the
    format writers do).  With ``timed`` False only calls are counted, for
    two-argument functions too small and too frequent to time without
    swamping them.
    ``count`` receives the tracer, the call's arguments and its result;
    ``on_error`` receives the tracer and the exception a call raised.
    """
    module: str
    func: str
    layer: str
    timed: bool = True
    count: Optional[Callable] = None
    on_error: Optional[Callable] = None


def _count_collision(tr, exc):
    if isinstance(exc, CellCollisionError):
        tr.counters["gridcodec.collisions"] += 1


def _count_derive(tr, args, res):
    tr.counters["annotate.junctions"] += len(res)


def _count_construct(tr, args, res):
    tr.counters["construct.segments"] += len(res.segments)
    tr.counters["construct.derived_points"] += sum(1 for j in res.junctions if j.derived)


def _count_hough(tr, args, res):
    tr.counters["hough.mask_px"] += int(args[0].bits.sum())
    tr.counters["hough.segments"] += len(res)


def _count_line_pr(tr, args, res):
    tr.counters["evaluate.gt_px"] += res.n_gt
    tr.counters["evaluate.pred_px"] += res.n_pred


def _count_write(tr, args, res):
    tr.counters["formats.bytes_written"] += os.path.getsize(args[-1])


def _count_read(tr, args, res):
    tr.counters["formats.bytes_read"] += os.path.getsize(args[0])


TARGETS = (
    Target("synth", "make_scene", "synth.make_scene"),
    Target("annotate", "derive_junctions", "annotate.derive_junctions",
           count=_count_derive),
    Target("annotate", "render_target_heatmap", "annotate.render_target_heatmap"),
    Target("gridcodec", "encode", "gridcodec.encode", on_error=_count_collision),
    Target("gridcodec", "decode", "gridcodec.decode"),
    Target("losses", "junction_loss", "losses.junction_loss"),
    Target("losses", "junction_loss_grad", "losses.junction_loss_grad"),
    Target("losses", "sample_cells", "losses.sample_cells"),
    Target("construct", "construct_wireframe", "construct.construct_wireframe",
           count=_count_construct),
    Target("construct", "dedup_junctions", "construct.dedup_junctions"),
    Target("construct", "match_ray_pairs", "construct.match_ray_pairs"),
    Target("construct", "recover_unmatched", "construct.recover_unmatched"),
    Target("geometry", "build_incidence", "geometry.build_incidence"),
    Target("geometry", "segment_intersection", "geometry.segment_intersection",
           timed=False),
    Target("geometry", "point_segment_distance", "geometry.point_segment_distance",
           timed=False),
    Target("hough", "hough_segments", "hough.hough_segments", count=_count_hough),
    Target("evaluate", "line_pixel_pr", "evaluate.line_pixel_pr",
           count=_count_line_pr),
    Target("evaluate", "junction_pr", "evaluate.junction_pr"),
    *(Target("formats", f"write_{kind}", "formats.write", count=_count_write)
      for kind in ("junctions", "heatmap", "wireframe", "scene")),
    *(Target("formats", f"read_{kind}", "formats.read", count=_count_read)
      for kind in ("junctions", "heatmap", "wireframe", "scene")),
)


class Tracer:
    """Self time and calls per layer, plus named counters, kept in memory."""

    def __init__(self) -> None:
        self._stats: dict[str, list] = {}  # layer -> [self seconds, calls]
        self.counters: defaultdict[str, float] = defaultdict(float)
        # one slot per open span: time covered by its child spans so far
        self._open: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def self_s(self, layer: str) -> float:
        return self._stats.get(layer, (0.0, 0))[0]

    def calls(self, layer: str) -> int:
        return self._stats.get(layer, (0.0, 0))[1]

    def _timed(self, target: Target, fn):
        count, on_error, open_ = target.count, target.on_error, self._open
        stat, clock = self._stats.setdefault(target.layer, [0.0, 0]), time.perf_counter

        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                dt = clock() - t0
                stat[0] += dt - open_.pop()
                stat[1] += 1
                if open_:
                    open_[-1] += dt
            if count is not None:
                count(self, args, res)
            return res
        return wrapper

    def _counted(self, target: Target, fn):
        stat = self._stats.setdefault(target.layer, [0.0, 0])

        # a fixed two-argument signature keeps the wrapper's cost near a
        # bare call, for functions called hundreds of thousands of times
        def wrapper(a, b):
            stat[1] += 1
            return fn(a, b)
        return wrapper

    def install(self) -> None:
        """Swap every reference to a target function in the package."""
        modules = [m for name, m in sys.modules.items()
                   if name == "wireframe" or name.startswith("wireframe.")]
        for t in TARGETS:
            orig = getattr(sys.modules[f"wireframe.{t.module}"], t.func)
            wrapped = (self._timed if t.timed else self._counted)(t, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
