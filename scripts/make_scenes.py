#!/usr/bin/env python3
"""Generate a directory of synthetic line scenes with ground truth.

Writes scene_0000.json .. scene_NNNN.json plus, per scene, the derived
junction file and the rendered target heat map.  Everything is seeded, so
the same invocation always produces byte-identical files.

    python3 scripts/make_scenes.py --out data/scenes --count 100 --seed 7
"""

import argparse
import os
import sys

from wireframe.annotate import derive_junctions, render_target_heatmap
from wireframe.formats import write_heatmap, write_junctions, write_scene
from wireframe.geometry import GeometryError
from wireframe.synth import make_scenes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--width", type=int, default=320)
    ap.add_argument("--height", type=int, default=320)
    ap.add_argument("--skip-gt", action="store_true",
                    help="write only the scene files")
    args = ap.parse_args(argv)

    try:
        scenes = make_scenes(args.seed, args.count, args.width, args.height)
    except GeometryError as e:  # a bad seed or count, or an image too small
        print(f"error: {e}", file=sys.stderr)
        return 3
    os.makedirs(args.out, exist_ok=True)
    for i, scene in enumerate(scenes):
        stem = os.path.join(args.out, f"scene_{i:04d}")
        write_scene(scene, stem + ".json")
        if args.skip_gt:
            continue
        junctions = derive_junctions(scene)
        write_junctions(scene.width, scene.height, junctions,
                        stem + ".junctions.json")
        write_heatmap(render_target_heatmap(scene), stem + ".wfhm")
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
