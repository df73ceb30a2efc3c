#!/usr/bin/env python3
"""Ground-truth round-trip experiment.

For each synthetic scene: derive the exact junctions and target heat map,
run wireframe construction on that perfect input, and score the result
against the scene's own line set.  An ideal pipeline reproduces the scene;
the pooled precision/recall quantify everything lost between the continuous
geometry and its rasterized, thresholded reconstruction.

    python3 scripts/roundtrip_experiment.py --count 100 --seed 7
"""

import argparse
import sys
import time

from wireframe.annotate import derive_junctions, render_target_heatmap
from wireframe.construct import ConstructionParams, construct_wireframe
from wireframe.evaluate import EvalConfig, junction_pr, line_pixel_pr, pool_pr
from wireframe.geometry import GeometryError
from wireframe.synth import make_scenes


def fscore(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--width", type=int, default=320)
    ap.add_argument("--height", type=int, default=320)
    ap.add_argument("--omega", type=float, default=0.5,
                    help="heat-map binarization threshold")
    ap.add_argument("--per-scene", action="store_true",
                    help="also print one line per scene")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    try:
        scenes = make_scenes(args.seed, args.count, args.width, args.height)
        params = ConstructionParams(omega=args.omega)
    except GeometryError as e:  # a bad seed, count or omega, or an image too small
        print(f"error: {e}", file=sys.stderr)
        return 3
    cfg = EvalConfig()
    junction_points, line_points = [], []
    for i, scene in enumerate(scenes):
        gt = derive_junctions(scene)
        wf = construct_wireframe(gt, render_target_heatmap(scene), params)
        detected = [j for j in wf.junctions if not j.derived]
        jp = junction_pr(gt, detected, cfg, scene.width, scene.height)
        lp = line_pixel_pr(list(scene.lines), wf.segments, cfg,
                           scene.width, scene.height)
        junction_points.append(jp)
        line_points.append(lp)
        if args.per_scene:
            print(f"scene {i:4d}: {len(scene.lines):3d} lines, "
                  f"junction F {fscore(jp.precision, jp.recall):.4f}, "
                  f"line F {fscore(lp.precision, lp.recall):.4f}")

    elapsed = time.monotonic() - t0
    jpool = pool_pr(0.0, junction_points)
    lpool = pool_pr(0.0, line_points)
    print(f"scenes:     {len(scenes)} at {args.width}x{args.height}, "
          f"omega {args.omega}, seed {args.seed}")
    print(f"junctions:  P {jpool.precision:.4f}  R {jpool.recall:.4f}  "
          f"F {fscore(jpool.precision, jpool.recall):.4f}")
    print(f"line px:    P {lpool.precision:.4f}  R {lpool.recall:.4f}  "
          f"F {fscore(lpool.precision, lpool.recall):.4f}")
    print(f"elapsed:    {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
