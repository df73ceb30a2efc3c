"""Workloads, the closed loop and the correctness gate of the benchmark.

One caller drives the library from one thread: it runs one scene, checks
what the scene wrote against the stored reference, and only then starts the
next.  Every workload owns a fixed corpus of scenes ("pool"), each made by
``synth.make_scene`` from its own pool index, and ``reference.json`` holds
the SHA-256 of every file a pool scene writes plus its precision/recall
counts.  The run seed only orders the pool: a run walks seed-shuffled
passes over it until the time is up and every pool scene ran at least once.
Timings are scaled to a reference machine speed (see calibration.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import numpy as np
import scipy

from wireframe import annotate, construct, evaluate, formats, gridcodec, hough, losses, synth
from calibration import Calibration
from tracing import TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".wfbench-tmp"

OMEGA = 0.5  # the target heat maps are near-binary
CONSTRUCT = construct.ConstructionParams(omega=OMEGA)
HOUGH = hough.HoughParams(seed=0)
EVAL = evaluate.EvalConfig()
SETUP_REPEATS = 3
PERTURB_KEY = 7  # first word of the loss-perturbation generator seed
CALIBRATION_SHARE = 0.15  # kernel time after a scene, as a share of the scene's
P90_MIN_SAMPLES = 100  # ten samples must lie beyond the 90th percentile
MAX_REPORTED_FAILURES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # square scenes, size x size pixels
    n_segments: Optional[int]  # None: make_scene's own draw of 5-30 lines
    pool: int
    codec: bool = False  # also run the grid codec and the losses
    hough: bool = False  # Hough baseline on prepared heat maps

    def scene_key(self, k: int) -> list[int]:
        return [self.size, k]


WORKLOADS = {w.name: w for w in (
    # many small scenes: codec, losses and file formats, per-call overhead
    Workload("roundtrip-320", 320, None, pool=200, codec=True),
    # few dense scenes: construction and geometry, superlinear in junctions
    Workload("dense-960", 960, 120, pool=8),
    # the Hough baseline path: reads heat maps, never derives or constructs
    Workload("hough-640", 640, 60, pool=24, hough=True),
)}

# Warm-up scene, run once per set-up so lazy imports and first-call costs
# land in set-up rather than in the first timed scene.
WARMUP_SIZE, WARMUP_LINES = 320, 8
WARMUP_KEY = 1_000_000  # beyond every pool

END_TO_END_UNITS = {
    "scenes_per_s": "1/s",
    "scene_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "line_px_precision": "ratio",
    "line_px_recall": "ratio",
    "ok_frac": "ratio",
}

TIMED_LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS if t.timed))
COUNTED_CALLS = tuple(t.layer for t in TARGETS if not t.timed)
COUNTERS = {
    "annotate.junctions": "count", "gridcodec.collisions": "count",
    "construct.segments": "count", "construct.derived_points": "count",
    "hough.mask_px": "count", "hough.segments": "count",
    "evaluate.gt_px": "count", "evaluate.pred_px": "count",
    "formats.bytes_written": "bytes", "formats.bytes_read": "bytes",
}
PER_LAYER_UNITS = {
    **{f"{layer}.ms": "ms" for layer in TIMED_LAYERS},
    **{f"{layer}.calls": "count" for layer in COUNTED_CALLS},
    **COUNTERS,
    "trace.overhead_frac": "ratio",
    "src.lines": "lines",
}


class Outcome(NamedTuple):
    files: dict[str, Path]  # reference name -> file written by the scene
    pr: tuple[int, ...]  # junction then line-pixel (n_gt, n_pred, matched_gt, matched_pred)
    codec: Optional[tuple]  # (ground truth, decoded, loss report, gradient)


@dataclass
class Prepared:
    """What set-up leaves for the timed scenes of one workload."""
    workdir: Path
    scenes: dict  # hough: pool index -> (scene, heat-map path)


# -- per-scene pipelines --

def _pr_counts(p: evaluate.PRPoint) -> tuple[int, ...]:
    return p.n_gt, p.n_pred, p.matched_gt, p.matched_pred


def _perturbed(enc: gridcodec.GridEncoding, k: int) -> gridcodec.GridEncoding:
    """A seeded noisy copy of the exact encoding, standing in for a network."""
    rng = np.random.default_rng([PERTURB_KEY, k])
    return gridcodec.GridEncoding(
        enc.config,
        center_conf=np.clip(enc.center_conf + rng.normal(0.0, 0.2, enc.center_conf.shape),
                            0.0, 1.0),
        displacement=enc.displacement + rng.normal(0.0, 0.5, enc.displacement.shape),
        bin_conf=np.clip(enc.bin_conf + rng.normal(0.0, 0.2, enc.bin_conf.shape), 0.0, 1.0),
        bin_residual=enc.bin_residual + rng.normal(0.0, 2.0, enc.bin_residual.shape))


def round_trip(w: Workload, prep: Prepared, k: int) -> Outcome:
    """synth -> derive -> render [-> codec -> losses] -> construct -> PR ->
    write and read back junctions, heat map and wireframe."""
    size = w.size
    scene = synth.make_scene(np.random.default_rng(w.scene_key(k)), size, size,
                             w.n_segments)
    gt = annotate.derive_junctions(scene)
    hm = annotate.render_target_heatmap(scene)
    codec = None
    if w.codec:
        enc = gridcodec.encode(gt, gridcodec.GridConfig(size, size))
        decoded = gridcodec.decode(enc)
        pred = _perturbed(enc, k)
        mask = losses.sample_cells(enc, seed=k)
        report = losses.junction_loss(pred, gt, sample_mask=mask)
        grad = losses.junction_loss_grad(pred, gt, sample_mask=mask)
        codec = (gt, decoded, report, grad)
    wf = construct.construct_wireframe(gt, hm, CONSTRUCT)
    jp = evaluate.junction_pr(gt, [j for j in wf.junctions if not j.derived], EVAL,
                              size, size)
    lp = evaluate.line_pixel_pr(list(scene.lines), wf.segments, EVAL, size, size)
    files = {"junctions.json": prep.workdir / "junctions.json",
             "heatmap.wfhm": prep.workdir / "heatmap.wfhm",
             "wireframe.json": prep.workdir / "wireframe.json"}
    formats.write_junctions(size, size, gt, files["junctions.json"])
    formats.write_heatmap(hm, files["heatmap.wfhm"])
    formats.write_wireframe(wf, size, size, files["wireframe.json"])
    formats.read_junctions(files["junctions.json"])
    formats.read_heatmap(files["heatmap.wfhm"])
    formats.read_wireframe(files["wireframe.json"])
    return Outcome(files, _pr_counts(jp) + _pr_counts(lp), codec)


def hough_baseline(w: Workload, prep: Prepared, k: int) -> Outcome:
    """read heat map -> binarize -> Hough -> write and read back the
    segments -> line-pixel PR against the scene lines."""
    scene, hm_path = prep.scenes[k]
    size = w.size
    hm = formats.read_heatmap(hm_path)
    segments = hough.hough_segments(construct.binarize(hm, OMEGA), HOUGH)
    seg_path = prep.workdir / "segments.json"
    formats.write_scene(annotate.AnnotatedScene(size, size, tuple(segments)), seg_path)
    found = formats.read_scene(seg_path)
    lp = evaluate.line_pixel_pr(list(scene.lines), list(found.lines), EVAL, size, size)
    return Outcome({"heatmap.wfhm": hm_path, "segments.json": seg_path},
                   _pr_counts(lp), None)


def _prepare_heatmaps(w: Workload, ids: list[int], prep: Prepared) -> None:
    for k in ids:
        scene = synth.make_scene(np.random.default_rng(w.scene_key(k)), w.size, w.size,
                                 w.n_segments)
        path = prep.workdir / f"heatmap-{k}.wfhm"
        formats.write_heatmap(annotate.render_target_heatmap(scene), path)
        prep.scenes[k] = (scene, path)


def run_scene(w: Workload, prep: Prepared, k: int) -> Outcome:
    return (hough_baseline if w.hough else round_trip)(w, prep, k)


def set_up(w: Workload, ids: list[int], workdir: Path) -> Prepared:
    """Everything before the first timed scene: input files and a warm-up."""
    prep = Prepared(workdir, {})
    warm = dataclasses.replace(w, size=WARMUP_SIZE, n_segments=WARMUP_LINES, pool=1)
    if w.hough:
        _prepare_heatmaps(w, ids, prep)
        _prepare_heatmaps(warm, [WARMUP_KEY], prep)
    run_scene(warm, prep, WARMUP_KEY)
    return prep


# -- correctness --

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _same_junction(a, b) -> bool:
    if a.center.distance_to(b.center) > 1e-6 or len(a.branches) != len(b.branches):
        return False
    turns = ((x.angle_deg - y.angle_deg) % 360.0 for x, y in zip(a.branches, b.branches))
    return all(min(d, 360.0 - d) <= 1e-6 for d in turns)


def _codec_problems(codec) -> list[str]:
    """Decoding the exact encoding must give back the ground truth; the loss
    of the perturbed grid must be finite and positive."""
    gt, decoded, report, grad = codec
    problems = []
    by_yx = sorted(decoded, key=lambda j: (j.center.y, j.center.x))
    if len(decoded) != len(gt):  # gt comes sorted by (y, x)
        problems.append(f"decode gave {len(decoded)} junctions for {len(gt)}")
    elif not all(_same_junction(a, b) for a, b in zip(gt, by_yx)):
        problems.append("decode changed a junction")
    if not (np.isfinite(report.total) and report.total > 0.0):
        problems.append(f"junction loss {report.total}")
    if not all(np.isfinite(a).all() for a in (grad.center_conf, grad.displacement,
                                              grad.bin_conf, grad.bin_residual)):
        problems.append("non-finite loss gradient")
    return problems


def check(outcome: Outcome, expect: Optional[dict]) -> list[str]:
    """Reasons the scene's output differs from the reference; empty if none."""
    problems = _codec_problems(outcome.codec) if outcome.codec else []
    if expect is None:
        return problems + ["no reference for this scene"]
    for name, path in outcome.files.items():
        if sha256(path) != expect["sha256"][name]:
            problems.append(f"{name} differs from the reference")
    if list(outcome.pr) != expect["pr"]:
        problems.append(f"PR counts {list(outcome.pr)} != reference {expect['pr']}")
    return problems


def load_reference(name: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)[name]


# -- the closed loop --

@dataclass
class Sample:
    k: int
    seconds: float
    problems: list[str]
    pr: Optional[tuple[int, ...]]


class Runner:
    """Runs, times and checks single scenes of one workload, and calibrates
    the machine's speed between them."""

    def __init__(self, w: Workload, prep: Prepared, reference: dict) -> None:
        self.w, self.prep, self.reference = w, prep, reference
        self.failures = 0
        self.calibration = Calibration()

    def scene(self, k: int, tracer: Optional[Tracer] = None) -> Sample:
        """Run pool scene k, traced if a tracer is given (its wrappers go in
        and out outside the timed region)."""
        if tracer is None:
            sample = self._scene(k)
        else:
            with tracer:
                sample = self._scene(k)
        self.calibration.run(CALIBRATION_SHARE * sample.seconds)
        return sample

    def _scene(self, k: int) -> Sample:
        outcome = None
        t0 = time.perf_counter()
        try:
            outcome = run_scene(self.w, self.prep, k)
        except Exception as exc:  # a failing scene is counted, never skipped
            problems = [f"raised {type(exc).__name__}: {exc}"]
            if self.failures < MAX_REPORTED_FAILURES:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if outcome is not None:
            problems = check(outcome, self.reference.get(str(k)))
        if problems:
            if self.failures < MAX_REPORTED_FAILURES:
                print(f"{self.w.name} scene {k}: {'; '.join(problems)}", file=sys.stderr)
            self.failures += 1
        return Sample(k, dt, problems, outcome.pr if outcome is not None else None)


def _order(seed: int, ids: list[int]) -> Iterator[int]:
    """Seed-shuffled passes over the pool, forever."""
    rng = np.random.default_rng(seed)
    while True:
        yield from (ids[i] for i in rng.permutation(len(ids)))


def _pooled(samples: list[Sample], start: int) -> tuple[float, float]:
    """Precision and recall from the counts summed over scenes; no
    predictions reads as precision 1 and no ground truth as recall 1."""
    rows = [s.pr[start:start + 4] for s in samples if s.pr is not None]
    n_gt, n_pred, matched_gt, matched_pred = np.array(rows, dtype=np.int64).reshape(-1, 4).sum(0)
    return (int(matched_pred) / int(n_pred) if n_pred else 1.0,
            int(matched_gt) / int(n_gt) if n_gt else 1.0)


def _measure(runner: Runner, ids: list[int], seed: int, seconds: float) -> dict:
    """End-to-end metrics with tracing off."""
    order = _order(seed, ids)
    samples: list[Sample] = []
    t0 = time.perf_counter()
    while len(samples) < len(ids) or time.perf_counter() - t0 < seconds:
        samples.append(runner.scene(next(order)))
    # each pool scene weighs once, however often the seed's order ran it
    by_scene: dict[int, list[float]] = {}
    for s in samples:
        by_scene.setdefault(s.k, []).append(s.seconds)
    per_scene = [statistics.fmean(v) for v in by_scene.values()]
    first_pass = samples[:len(ids)]  # every pool scene once
    line_p, line_r = _pooled(first_pass, 0 if runner.w.hough else 4)
    failed = sum(1 for s in samples if s.problems)
    info = {"scenes": len(samples), "pool": len(ids),
            "elapsed_s": time.perf_counter() - t0,
            "fail_frac": failed / len(samples)}
    if len(samples) >= P90_MIN_SAMPLES:
        info["scene_ms_p90"] = 1e3 * statistics.quantiles(
            [s.seconds for s in samples], n=10)[-1]
    if not runner.w.hough:
        info["junction_precision"], info["junction_recall"] = _pooled(first_pass, 0)
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            "scenes_per_s": len(per_scene) / sum(per_scene),
            "scene_ms_p50": 1e3 * statistics.median(per_scene),
            "line_px_precision": line_p,
            "line_px_recall": line_r,
            "ok_frac": 1.0 - failed / len(samples),
        },
        "info": info,
    }


def _trace(runner: Runner, ids: list[int], seed: int, seconds: float) -> dict:
    """Per-layer metrics: every scene runs once untraced and once traced,
    alternating which goes first, so the overhead compares like with like."""
    order = _order(seed, ids)
    tracer = Tracer()
    plain = traced = 0.0
    samples: list[Sample] = []
    n = 0
    t0 = time.perf_counter()
    while n == 0 or time.perf_counter() - t0 < seconds:
        k = next(order)
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            s = runner.scene(k, tracer if with_trace else None)
            samples.append(s)
            if with_trace:
                traced += s.seconds
            else:
                plain += s.seconds
        n += 1
    metrics = {f"{layer}.ms": 1e3 * tracer.self_s(layer) / n for layer in TIMED_LAYERS}
    metrics.update({f"{layer}.calls": tracer.calls(layer) / n for layer in COUNTED_CALLS})
    metrics.update({name: tracer.counters[name] / n for name in COUNTERS})
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    return {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.problems),
        "metrics": metrics,
        "info": {"scenes_traced": n, "pool": len(ids)},
    }


# -- environment --

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines() -> dict[str, int]:
    """Line count of src/, per module and in total."""
    counts = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as f:
            counts[path.relative_to(ROOT / "src").as_posix()] = sum(1 for _ in f)
    counts["total"] = sum(counts.values())
    return counts


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "src.lines": src_lines(),
    }


# -- entry points --

TIME_UNITS = {"ms": 1, "s": 1, "1/s": -1}  # power of the time in the unit


def at_reference_speed(raw: dict, units: dict, speed: float) -> dict:
    """Timings scaled to what they would read at the calibration's
    reference speed: a machine running at ``speed`` times the reference
    takes ``speed`` times longer at the reference."""
    return {m: v * speed ** TIME_UNITS[units[m]] for m, v in raw.items()}


@contextlib.contextmanager
def _scratch_dir() -> Iterator[Path]:
    """A fresh directory under the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float,
        scenes: Optional[int] = None, reference: Optional[dict] = None) -> dict:
    """One benchmark run; ``t_start`` is when the process began its imports."""
    w = WORKLOADS[name]
    ids = list(range(w.pool if scenes is None else min(scenes, w.pool)))
    if reference is None:
        reference = load_reference(name)
    with _scratch_dir() as workdir:
        t_setup = time.perf_counter()
        # the machine's speed drifts between set-up and the timed scenes, so
        # set-up is calibrated on its own: a kernel slice after the imports
        # and after every repeat
        setup_speed = Calibration()
        setup_speed.run(CALIBRATION_SHARE * (t_setup - t_start))
        repeats = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prep = set_up(w, ids, workdir)
            repeats.append(time.perf_counter() - t0)
            setup_speed.run(CALIBRATION_SHARE * repeats[-1])
        setup_s = (t_setup - t_start) + statistics.median(repeats)
        runner = Runner(w, prep, reference)
        gc.collect()
        result = (_trace if trace else _measure)(runner, ids, seed, seconds)
    metrics = result["metrics"]
    if trace:
        metrics["src.lines"] = src_lines()["total"]
    else:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    speed = runner.calibration.speed
    raw = {m: metrics[m] for m, u in units.items() if u in TIME_UNITS}
    metrics.update(at_reference_speed(raw, units, speed))
    if not trace:
        metrics["setup_s"] = setup_s * setup_speed.speed
    if "scene_ms_p90" in result["info"]:
        result["info"]["scene_ms_p90"] *= speed
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "setup_repeats_s": repeats, **result["info"],
            "machine_speed": speed, "setup_machine_speed": setup_speed.speed,
            "raw": raw, "env": environment()}
    return {
        "info": info,
        "result": {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        },
    }


def make_reference() -> dict:
    """Digests and PR counts of every pool scene, from the code as it is."""
    out = {}
    for name, w in WORKLOADS.items():
        with _scratch_dir() as workdir:
            ids = list(range(w.pool))
            prep = set_up(w, ids, workdir)
            out[name] = {}
            for k in ids:
                outcome = run_scene(w, prep, k)
                problems = _codec_problems(outcome.codec) if outcome.codec else []
                if problems:
                    raise RuntimeError(f"{name} scene {k}: {'; '.join(problems)}")
                out[name][str(k)] = {
                    "sha256": {n: sha256(p) for n, p in sorted(outcome.files.items())},
                    "pr": list(outcome.pr)}
                print(f"{name} scene {k} done", file=sys.stderr, flush=True)
    return out
