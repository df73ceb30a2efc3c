"""Command-line interface.

Subcommands: derive-gt (scene -> junctions + heat map), construct
(junctions + heat map -> wireframe), hough (heat map -> segments), eval
(junctions|lines PR sweep over a file or directory pair), loss (grid
prediction vs scene).  Every option in _OPTIONS can also come from a
--config file of `key = value` lines; explicit flags beat the config file,
which beats the library's defaults.  A key that no subcommand takes is an
error; one that another subcommand takes is ignored, so one file can serve
several.  Exit codes: 0 success, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from .annotate import AnnotatedScene, derive_junctions, render_target_heatmap
from .construct import ConstructionParams, binarize, construct_wireframe
from .evaluate import (
    EvalConfig,
    emit_pr_csv,
    emit_pr_svg,
    junction_sweep,
    line_pixel_pr,
    pool_pr,
    sweep_pr,
)
from .formats import (
    FormatError,
    read_grid,
    read_heatmap,
    read_junctions,
    read_scene,
    write_heatmap,
    write_junctions,
    write_scene,
    write_wireframe,
)
from .geometry import GeometryError
from .gridcodec import CellCollisionError, encode
from .hough import HoughParams, hough_segments
from .losses import LossWeights, junction_loss, sample_cells

_MAX_SWEEP = 10_000


def _read_config_file(path: str) -> dict[str, str]:
    opts: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for ln, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}:{ln}: expected `key = value`")
                key, value = line.split("=", 1)
                opts[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read config {path}: {e}") from e
    return opts


def _parse_sweep(spec: str) -> tuple[float, ...]:
    """start:stop:step: start, start + step, ... while <= stop (+1e-9), to
    9 decimals.  The parts are finite, start <= stop, step > 0, there are at
    most _MAX_SWEEP thresholds and every step advances the threshold."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as e:
        raise FormatError(f"sweep {spec!r}: expected start:stop:step") from e
    if not (math.isfinite(start) and start <= stop < math.inf and 0 < step < math.inf):
        raise FormatError(f"sweep {spec!r}: need finite start <= stop and finite step > 0")
    # counted before the loop, and in it, as rounding may add one (the count is
    # NaN where both quotients overflow: then no step advances)
    if (stop + 1e-9) / step - start / step >= _MAX_SWEEP:
        raise FormatError(f"sweep {spec!r}: more than {_MAX_SWEEP} thresholds")
    values, t = [], start
    while t <= stop + 1e-9:
        if len(values) == _MAX_SWEEP:
            raise FormatError(f"sweep {spec!r}: more than {_MAX_SWEEP} thresholds")
        if t + step == t:
            raise FormatError(f"sweep {spec!r}: step does not advance {t!r}")
        values.append(round(t, 9))
        t += step
    return tuple(values)


def _parse_weights(spec: str) -> LossWeights:
    parts = spec.split(",")
    if len(parts) != 4:
        raise FormatError(f"weights {spec!r}: expected 4 comma-separated values")
    return LossWeights(*(float(v) for v in parts))


# subcommand -> {option: cast}.  Each option is a flag and a config key; a
# float or int flag is cast by argparse (a bad one is a usage error), the
# rest when the options are resolved.
_OPTIONS = {
    "derive-gt": {"merge_radius": float},
    "construct": {"omega": float, "tau_c": float, "tau_b": float, "delta_ray": float,
                  "rho_nms": float},
    "hough": {"omega": float, "seed": int},
    "eval": {"tol_frac": float, "sweep": _parse_sweep},
    "loss": {"weights": _parse_weights, "rmax": float, "seed": int, "merge_radius": float},
}


def _options(args: argparse.Namespace) -> dict:
    """The options of args.command set by a flag or else by the config file,
    cast.  Unset ones are left out, so the library's defaults apply."""
    file = _read_config_file(args.config) if args.config else {}
    known = {name for options in _OPTIONS.values() for name in options}
    unknown = [key for key in file if key not in known]  # in file order
    if unknown:
        raise FormatError(f"{args.config}: no subcommand takes config key {unknown[0]!r}")
    opts = {}
    for name, cast in _OPTIONS[args.command].items():
        value, where = getattr(args, name), "--" + name.replace("_", "-")
        if value is None and name in file:
            value, where = file[name], f"config key {name}"
        if isinstance(value, str):
            try:
                value = cast(value)
            except ValueError as e:  # FormatError and GeometryError too
                raise FormatError(f"{where}: {e}") from e
        if value is not None:
            opts[name] = value
    return opts


def _kw(opts: dict, **names: str) -> dict:
    """Keyword arguments keyword=opts[name] for each keyword=name set in opts."""
    return {kw: opts[name] for kw, name in names.items() if name in opts}


def cmd_derive_gt(args: argparse.Namespace, opts: dict) -> int:
    scene = read_scene(args.scene)
    if args.out_junctions:
        write_junctions(scene.width, scene.height,
                        derive_junctions(scene, **opts), args.out_junctions)
    if args.out_heatmap:
        write_heatmap(render_target_heatmap(scene), args.out_heatmap)
    return 0


def cmd_construct(args: argparse.Namespace, opts: dict) -> int:
    params = ConstructionParams(**opts)
    jw, jh, junctions = read_junctions(args.junctions)
    hm = read_heatmap(args.heatmap)
    if (jw, jh) != (hm.width, hm.height):
        raise FormatError(f"junction image {jw}x{jh} != heat map {hm.width}x{hm.height}")
    wf = construct_wireframe(junctions, hm, params)
    write_wireframe(wf, hm.width, hm.height, args.out)
    return 0


def cmd_hough(args: argparse.Namespace, opts: dict) -> int:
    # the construct rule for omega: finite and >= 0
    omega = ConstructionParams(**_kw(opts, omega="omega")).omega
    hm = read_heatmap(args.heatmap)
    segments = hough_segments(binarize(hm, omega), HoughParams(**_kw(opts, seed="seed")))
    write_scene(AnnotatedScene(hm.width, hm.height, tuple(segments)), args.out)
    return 0


def _pair_files(gt: str, pred: str) -> list[tuple[str, Optional[str]]]:
    """Pair GT and prediction paths.

    Directories pair by file name; a GT name with no prediction counts as an
    empty detection set, but predictions without ground truth are an error.
    """
    if os.path.isdir(gt) != os.path.isdir(pred):
        raise FormatError("--gt and --pred must both be files or both directories")
    if not os.path.isdir(gt):
        return [(gt, pred)]
    gt_names = sorted(n for n in os.listdir(gt) if not n.startswith("."))
    pred_names = {n for n in os.listdir(pred) if not n.startswith(".")}
    extra = sorted(pred_names - set(gt_names))
    if extra:
        raise FormatError("predictions with no ground truth: " + ", ".join(extra))
    if not gt_names:
        raise FormatError(f"no ground-truth files in {gt}")
    return [(os.path.join(gt, n),
             os.path.join(pred, n) if n in pred_names else None)
            for n in gt_names]


def cmd_eval(args: argparse.Namespace, opts: dict) -> int:
    config = EvalConfig(**_kw(opts, tolerance_frac="tol_frac", sweep="sweep"))
    sweeps = []  # per image: t -> its PR counts
    for gt_path, pred_path in _pair_files(args.gt, args.pred):
        if args.mode == "junctions":
            # the pairs within tolerance come once per image, the matching per t
            w, h, gt_js = read_junctions(gt_path)
            pred_js = read_junctions(pred_path)[2] if pred_path else []
            sweeps.append(junction_sweep(gt_js, pred_js, config, w, h))
        else:
            # segment lists carry no confidences: one count per image, a flat sweep
            scene = read_scene(gt_path)
            pred_lines = list(read_scene(pred_path).lines) if pred_path else []
            counts = line_pixel_pr(list(scene.lines), pred_lines, config,
                                   scene.width, scene.height)
            sweeps.append(lambda t, counts=counts: counts)
    curve = sweep_pr(lambda t: pool_pr(t, [at(t) for at in sweeps]), config)
    for p in curve.points:
        print(f"{p.threshold:.6g},{p.precision:.6g},{p.recall:.6g}")
    if args.csv:
        emit_pr_csv(curve, args.csv)
    if args.svg:
        emit_pr_svg(curve, args.svg)
    return 0


def cmd_loss(args: argparse.Namespace, opts: dict) -> int:
    pred = read_grid(args.pred_grid)
    scene = read_scene(args.scene)
    if (scene.width, scene.height) != (pred.config.image_w, pred.config.image_h):
        raise FormatError(
            f"scene {scene.width}x{scene.height} != grid image "
            f"{pred.config.image_w}x{pred.config.image_h}")
    gt = derive_junctions(scene, **_kw(opts, merge_radius="merge_radius"))
    mask = sample_cells(encode(gt, pred.config), **_kw(opts, r_max="rmax", seed="seed"))
    report = junction_loss(pred, gt, sample_mask=mask, **_kw(opts, weights="weights"))
    doc = {name: float(f"{getattr(report, name):.9g}")
           for name in ("total", "conf_c", "loc_c", "conf_b", "loc_b")}
    print(json.dumps(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wireframe",
        description="Wireframe geometry toolkit: ground truth, construction, "
                    "baselines, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-gt", help="derive junctions and heat map from a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out-junctions")
    p.add_argument("--out-heatmap")
    p.set_defaults(func=cmd_derive_gt)

    p = sub.add_parser("construct", help="build a wireframe from junctions + heat map")
    p.add_argument("--junctions", required=True)
    p.add_argument("--heatmap", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("hough", help="probabilistic Hough baseline on a heat map")
    p.add_argument("--heatmap", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hough)

    p = sub.add_parser("eval", help="precision/recall sweep")
    p.add_argument("mode", choices=("junctions", "lines"))
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loss", help="junction loss of a grid prediction vs a scene")
    p.add_argument("--pred-grid", required=True)
    p.add_argument("--scene", required=True)
    p.set_defaults(func=cmd_loss)

    for command, p in sub.choices.items():
        for name, cast in _OPTIONS[command].items():
            p.add_argument("--" + name.replace("_", "-"),
                           type=cast if cast in (float, int) else None)
        p.add_argument("--config", help="file of `key = value` option overrides")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _options(args))
    except (FormatError, GeometryError, CellCollisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
