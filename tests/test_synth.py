import math
import threading

import numpy as np
import pytest

from wireframe import synth
from wireframe.annotate import AnnotatedScene
from wireframe.geometry import GeometryError, Point, Segment, segment_intersection
from wireframe.synth import (JUNCTION_MARGIN, MAX_ATTEMPTS, MAX_SEGMENTS, MIN_CLEARANCE,
                             MIN_CROSS_ANGLE, MIN_JUNCTION_SEP, MIN_SEGMENTS, MIN_STUB,
                             _candidate, _check, _crossing_angle,
                             _Layout, _line_distance, _min_separation, make_scene, make_scenes)

# every row to the array pass, or none
CROSSOVERS = [0, 10 ** 9]


def seg(x1, y1, x2, y2):
    return Segment(Point(float(x1), float(y1)), Point(float(x2), float(y2)))


def reference_check(cand, existing, junctions, width, height, need_crossing):
    """The all-rows scalar loop that ``_check`` must agree with."""
    new_junctions = []
    for other in existing:
        hit = segment_intersection(cand, other)
        if hit.collinear:
            return None
        if hit.point is None:
            if _min_separation(cand, other) < MIN_CLEARANCE:
                return None
            if _crossing_angle(cand, other) < 15.0 and (
                    _line_distance(other.a, cand) < 4.0
                    or _line_distance(other.b, cand) < 4.0):
                return None
            continue
        p = hit.point
        if not (JUNCTION_MARGIN <= p.x <= width - JUNCTION_MARGIN
                and JUNCTION_MARGIN <= p.y <= height - JUNCTION_MARGIN):
            return None
        if _crossing_angle(cand, other) < MIN_CROSS_ANGLE:
            return None
        for e in (cand.a, cand.b, other.a, other.b):
            if 0.0 < p.distance_to(e) < MIN_STUB:
                return None
            if p.distance_to(e) == 0.0:
                return None
        new_junctions.append(p)
    if need_crossing and not new_junctions:
        return None
    for p in new_junctions:
        for q in junctions + new_junctions:
            if 0.0 < p.distance_to(q) < MIN_JUNCTION_SEP:
                return None
    return new_junctions


def reference_make_scene(rng, width=320, height=320, n_segments=None, max_tries=400):
    """``make_scene`` on ``reference_check``: the same draws, the same scene."""
    if n_segments is None:
        n_segments = int(rng.integers(MIN_SEGMENTS, MAX_SEGMENTS + 1))
    floor = min(n_segments, MIN_SEGMENTS)
    for _ in range(MAX_ATTEMPTS):
        segments, junctions = [], []
        while len(segments) < n_segments:
            for _ in range(max_tries):
                cand = _candidate(rng, width, height)
                crossings = reference_check(cand, segments, junctions, width, height,
                                            need_crossing=bool(segments))
                if crossings is not None:
                    segments.append(cand)
                    junctions.extend(crossings)
                    break
            else:
                break
        if len(segments) >= floor:
            return AnnotatedScene(width, height, tuple(segments))
    raise GeometryError("no scene")


def layout_of(segments, junctions=()):
    layout = _Layout()
    for k, s in enumerate(segments):
        layout.add(s, list(junctions) if k == len(segments) - 1 else [])
    return layout


def both_agree(monkeypatch, cand, segments, junctions, width, height, need_crossing):
    """``_check`` with and without the array pass equals the reference; returns it."""
    want = reference_check(cand, list(segments), list(junctions), width, height, need_crossing)
    layout = layout_of(segments, junctions)
    for crossover in CROSSOVERS:
        monkeypatch.setattr(synth, "_ROW_CROSSOVER", crossover)
        assert _check(cand, layout, width, height, need_crossing) == want, crossover
    return want


@pytest.mark.parametrize("size, n_segments, keys", [
    (320, None, range(6)), (640, 60, [0, 1]), (960, 120, [0])])
def test_make_scene_matches_reference(size, n_segments, keys):
    # the benchmark pool keys: same rng stream, byte-identical scenes
    for k in keys:
        got = make_scene(np.random.default_rng([size, k]), size, size, n_segments)
        want = reference_make_scene(np.random.default_rng([size, k]), size, size, n_segments)
        assert got == want


@pytest.mark.parametrize("size, n_segments, key", [(320, None, 7), (640, 60, 2), (960, 40, 3)])
def test_check_matches_reference_while_growing(monkeypatch, size, n_segments, key):
    # every state a scene passes through, on both sides of the crossover
    check = synth._check
    seen = []

    def checked(cand, layout, width, height, need_crossing):
        want = reference_check(cand, list(layout.segments), list(layout.junctions),
                               width, height, need_crossing)
        for crossover in CROSSOVERS:
            synth._ROW_CROSSOVER = crossover
            assert check(cand, layout, width, height, need_crossing) == want
        seen.append(want is not None)
        return want

    monkeypatch.setattr(synth, "_ROW_CROSSOVER", synth._ROW_CROSSOVER)
    monkeypatch.setattr(synth, "_check", checked)
    make_scene(np.random.default_rng([size, key]), size, size, n_segments)
    assert any(seen) and not all(seen)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 20, 60])
@pytest.mark.parametrize("integer", [True, False])
def test_check_matches_reference_on_random_states(monkeypatch, n, integer):
    # arbitrary (not necessarily valid) layouts; candidates drawn freely and
    # as near copies of a placed segment, to land on every distance limit
    rng = np.random.default_rng([n, integer])
    size = 480
    outcomes = set()
    for _ in range(25):
        def draw():
            s = _candidate(rng, size, size)
            if integer:
                return s
            return seg(*(v + rng.uniform(-0.5, 0.5) for v in (s.a.x, s.a.y, s.b.x, s.b.y)))
        segments = [draw() for _ in range(n)]
        junctions = [Point(*rng.uniform(0, size, 2)) for _ in range(rng.integers(0, 2 * n))]
        for _ in range(8):
            cand = draw()
            if rng.random() < 0.5:
                o = segments[rng.integers(n)]
                dx, dy = (rng.integers(-9, 10, 2) if integer else rng.uniform(-9, 9, 2))
                cand = seg(o.a.x + dx, o.a.y + dy, o.b.x + dx + rng.integers(-3, 4),
                           o.b.y + dy + rng.integers(-3, 4))
            for need in (True, False):
                got = both_agree(monkeypatch, cand, segments, junctions, size, size, need)
                outcomes.add(got is None)
    assert outcomes == {True, False}


H = seg(100, 100, 200, 100)  # a horizontal accepted segment


@pytest.mark.parametrize("cand, accepted", [
    (seg(100, 106, 200, 106), True),     # parallel, separation exactly 6
    (seg(100, 105, 200, 105), False),    # parallel, separation 5
    (seg(200, 106, 100, 106), True),     # the same, drawn backwards
    (seg(150, 100, 250, 100), False),    # collinear overlap
    (seg(200, 100, 300, 100), False),    # collinear, touching end to end
    (seg(210, 100, 300, 100), False),    # collinear continuation past the gap
    (seg(220, 104, 300, 104), True),     # continuation line distance exactly 4
    (seg(220, 103, 300, 103), False),    # continuation line distance 3
    (seg(150, 100, 150, 200), False),    # T junction: endpoint on the segment
    (seg(150, 94, 150, 200), False),     # crossing with a 6 px stub
    (seg(150, 90, 150, 200), True),      # crossing with a 10 px stub
    (seg(150, 50, 150, 150), True),      # plain crossing
])
@pytest.mark.parametrize("crossover", CROSSOVERS)
def test_check_edges(monkeypatch, cand, accepted, crossover):
    monkeypatch.setattr(synth, "_ROW_CROSSOVER", crossover)
    got = _check(cand, layout_of([H]), 320, 320, need_crossing=False)
    assert (got is not None) == accepted
    assert got == reference_check(cand, [H], [], 320, 320, need_crossing=False)


@pytest.mark.parametrize("x, accepted", [(JUNCTION_MARGIN, True), (JUNCTION_MARGIN - 1, False),
                                         (320 - JUNCTION_MARGIN, True),
                                         (320 - JUNCTION_MARGIN + 1, False)])
def test_check_crossing_on_junction_margin(monkeypatch, x, accepted):
    other = seg(x, 50, x, 150)
    for cand in (seg(x - 20, 100, x + 20, 100), seg(x - 30, 100, x + 30, 100)):
        got = both_agree(monkeypatch, cand, [other], [], 320, 320, True)
        assert (got == [Point(float(x), 100.0)]) == accepted


@pytest.mark.parametrize("degrees", [14.0, 15.0, 16.0, 24.0, 25.0, 26.0])
def test_check_angle_limits(monkeypatch, degrees):
    # crossing angles around MIN_CROSS_ANGLE, and continuations around 15
    # degrees; on float endpoints an angle on the limit may round either way,
    # so there only the reference decides
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    crossing = seg(200 - 80 * c, 200 - 80 * s, 200 + 80 * c, 200 + 80 * s)
    got = both_agree(monkeypatch, crossing, [seg(100, 200, 300, 200)], [], 400, 400, True)
    if degrees != MIN_CROSS_ANGLE:
        assert (got is None) == (degrees < MIN_CROSS_ANGLE)
    continuation = seg(210, 101, 210 + 100 * c, 101 + 100 * s)
    got = both_agree(monkeypatch, continuation, [H], [], 400, 400, False)
    if degrees != 15.0:
        assert (got is None) == (degrees < 15.0)


def test_check_clearance_margin(monkeypatch):
    # float endpoints where the scalar separation is just below 6 while the
    # array pass computes the line distance just above it: the `within`
    # margin must still flag the row
    other = seg(181.5, 122.64, 168.37837183718352, 84.5179853483759)
    cand = seg(176.08627330347713, 88.4762127033463, 162.80888059111328, 49.90165829321298)
    assert both_agree(monkeypatch, cand, [other], [], 320, 320, False) is None


def test_check_junction_separation(monkeypatch):
    # the new crossing (150, 100) against placed junctions at distance 8 and 7.9
    cross = seg(150, 50, 150, 150)
    for q, accepted in ((Point(158.0, 100.0), True), (Point(157.9, 100.0), False),
                        (Point(150.0, 100.0), True)):  # distance 0 is the same junction
        got = both_agree(monkeypatch, cross, [H], [q], 320, 320, True)
        assert (got is not None) == accepted


def test_crossings_in_accepted_order(monkeypatch):
    # row 3 ends 5.4 px past the candidate's line, so it is decided first,
    # but the crossings still come back in row order
    rows = [seg(40 + 30 * i, 40, 40 + 30 * i, 280) for i in range(8)]
    rows.insert(3, seg(65, 130, 124, 165.4))
    cand = seg(30, 160, 290, 160)
    monkeypatch.setattr(synth, "_ROW_CROSSOVER", 0)
    assert next(layout_of(rows).flagged(cand)) == 3
    got = both_agree(monkeypatch, cand, rows, [], 320, 320, True)
    assert [p.x for p in got] == pytest.approx([40, 70, 100, 115, 130, 160, 190, 220, 250])


def test_small_image_raises_in_bounded_time():

    # a 64x64 image leaves a 16 px window for crossings: the redraws give
    # up after a bounded number of attempts instead of looping forever
    outcome = []

    def attempt():
        try:
            make_scene(np.random.default_rng(0), 64, 64)
            outcome.append(None)
        except GeometryError as e:
            outcome.append(e)

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(timeout=30.0)
    assert outcome, "make_scene(64x64) did not return within 30 s"
    assert isinstance(outcome[0], GeometryError) and "64x64" in str(outcome[0])


@pytest.mark.parametrize("width, height", [(16, 16), (49, 320), (320, 1)])
def test_image_too_small_for_a_segment(width, height):
    with pytest.raises(GeometryError, match=f"{width}x{height}"):
        make_scene(np.random.default_rng(0), width, height)


@pytest.mark.parametrize("seed, count", [(-1, 1), (True, 1), (1.5, 1), (0, -1)])
def test_make_scenes_rejects_bad_seed_and_count(seed, count):
    with pytest.raises(GeometryError):
        make_scenes(seed, count)
