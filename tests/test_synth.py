import hashlib
import itertools
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wireframe import synth
from wireframe.annotate import AnnotatedScene
from wireframe.geometry import (GeometryError, Point, Segment, point_segment_distance,
                                segment_array, segment_intersection)
from wireframe.synth import (JUNCTION_MARGIN, MAX_ATTEMPTS, MAX_SEGMENTS, MAX_TRIES,
                             MIN_CLEARANCE, MIN_CROSS_ANGLE, MIN_JUNCTION_SEP, MIN_SEGMENTS,
                             MIN_STUB, _candidate, _check, _continues, _crossing_angle, _draws,
                             _Layout, _lines, _Queue, _row_check, _seek, make_scene, make_scenes)

# layouts from this many segments on give ``_check`` the rows the array pass
# leaves, smaller ones every row: each row set against the reference
SCREEN_FROM = [0, 10 ** 9]


def seg(x1, y1, x2, y2):
    return Segment(Point(float(x1), float(y1)), Point(float(x2), float(y2)))


def min_separation(s, t):
    """The least distance from an end of either segment to the other."""
    return min(point_segment_distance(s.a, t), point_segment_distance(s.b, t),
               point_segment_distance(t.a, s), point_segment_distance(t.b, s))


def line_distance(p, s):
    """Distance from p to the line through s."""
    dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
    return abs((p.x - s.a.x) * dy - (p.y - s.a.y) * dx) / math.hypot(dx, dy)


def reference_check(cand, existing, junctions, width, height, need_crossing):
    """The all-rows scalar loop that ``_check`` must agree with."""
    new_junctions = []
    for other in existing:
        hit = segment_intersection(cand, other)
        if hit.collinear:
            return None
        if hit.point is None:
            if min_separation(cand, other) < MIN_CLEARANCE:
                return None
            if _crossing_angle(cand, other) < 15.0 and (
                    line_distance(other.a, cand) < 4.0
                    or line_distance(other.b, cand) < 4.0):
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


def reference_make_scene(rng, width=320, height=320, n_segments=None):
    """``make_scene`` on ``reference_check``: the same draws, the same scene."""
    if n_segments is None:
        n_segments = int(rng.integers(MIN_SEGMENTS, MAX_SEGMENTS + 1))
    floor = min(n_segments, MIN_SEGMENTS)
    for _ in range(MAX_ATTEMPTS):
        segments, junctions = [], []
        while len(segments) < n_segments:
            for _ in range(MAX_TRIES):
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
    for k, (s, line) in enumerate(zip(segments, _lines(segment_array(segments)))):
        layout.add(s, list(junctions) if k == len(segments) - 1 else [], line)
    return layout


def junctions_of(layout):
    """A layout's crossings, from its spacing grid."""
    return [q for cell in layout.grid.values() for q in cell]


def screen_one(cand, segments, width=320, height=320):
    """The array pass on one candidate: (rejected, apart row mask, flagged row
    mask, the crossings it settles by row)."""
    rejected, apart, flagged, known = layout_of(segments).screen(
        _lines(segment_array([cand])), width, height)
    return rejected[0], apart[0], flagged[0], known.get(0, {})


def check(cand, layout, width, height, need_crossing, screen_from=0):
    """``_check`` on the rows the array pass leaves, with the crossings it
    settles, None where it drops the candidate, or on every row by hand for a
    layout below ``screen_from`` segments."""
    n = len(layout.segments)
    if n < screen_from:
        return _check(cand, layout, width, height, need_crossing, range(n))
    rejected, apart, flagged, known = screen_one(cand, layout.segments, width, height)
    if rejected or (need_crossing and apart.all()):
        return None
    return _check(cand, layout, width, height, need_crossing, np.flatnonzero(flagged).tolist(),
                  known)


def both_agree(cand, segments, junctions, width, height, need_crossing):
    """``_check`` on both row sets equals the reference; returns it."""
    want = reference_check(cand, list(segments), list(junctions), width, height, need_crossing)
    layout = layout_of(segments, junctions)
    for screen_from in SCREEN_FROM:
        assert check(cand, layout, width, height, need_crossing, screen_from) == want, screen_from
    return want


def queue_of(monkeypatch, cands, width=320, height=320):
    """A ``_Queue`` fed ``cands`` in place of ``_draws``'s candidates."""
    ends = [(c.a.x, c.a.y, c.b.x, c.b.y) for c in cands]
    monkeypatch.setattr(synth, "_draws", lambda *args: ((e, None) for e in ends))
    return _Queue(np.random.default_rng(0), width, height)


def popped(monkeypatch, cands, layout, width=320, height=320):
    """What ``_Queue.pop`` gives each candidate of a fixed layout."""
    queue = queue_of(monkeypatch, cands, width, height)
    return [queue.pop(layout) for _ in cands]


def same_state(a, b):
    """``bit_generator.state`` equality; Philox and SFC64 keep arrays in it."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("size, n_segments, keys", [
    (320, None, range(6)), (640, 60, [0, 1]), (960, 120, [0])])
def test_make_scene_matches_reference(size, n_segments, keys):
    # the benchmark pool keys: byte-identical scenes, and the generator left
    # where the one-at-a-time draws leave it
    for k in keys:
        rng, ref = np.random.default_rng([size, k]), np.random.default_rng([size, k])
        assert make_scene(rng, size, size, n_segments) == \
            reference_make_scene(ref, size, size, n_segments)
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)


# SHA-256 of the lines and of the generator state after each make_scene call,
# over the benchmark's pool keys (the first of roundtrip-320 and hough-640)
POOL_DIGESTS = [
    (320, None, range(20), "fe8d0cc3b22adc678ab5e02020225cffe6cbcb41c90de4e63735d84c024c0f4b",
     "32853f10e47d6dc08ba09eb989f308df0fc453454670dd05a10a6a67c5ff0345"),
    (960, 120, range(8), "59e7dfb67de24a8b0978f7ec97a1566f41d5549396b957a77b0e46e9b409dd45",
     "a06446bdd036891b5bbda4fd3566da0facb0ea10334320f5a264bebba9186b6c"),
    (640, 60, range(4), "732d1f5824d1c191ac564119319d7d11aa2e6a1e8bd140269a259cf55c23194d",
     "1a8d8a91eadc5af7d69fa2cdc2a66685ef4e9885b77175f1f33a340972d2fb22"),
]


@pytest.mark.parametrize("size, n_segments, keys, lines_digest, states_digest", POOL_DIGESTS,
                         ids=["roundtrip-320", "dense-960", "hough-640"])
def test_make_scene_pinned_on_the_pool_keys(size, n_segments, keys, lines_digest, states_digest):
    # the benchmark checks the files derived from these scenes, never the
    # generator state; both are pinned here
    lines, states = hashlib.sha256(), hashlib.sha256()
    for k in keys:
        rng = np.random.default_rng([size, k])
        scene = make_scene(rng, size, size, n_segments)
        lines.update(repr([(s.a.x, s.a.y, s.b.x, s.b.y) for s in scene.lines]).encode())
        states.update(repr(rng.bit_generator.state).encode())
    assert (lines.hexdigest(), states.hexdigest()) == (lines_digest, states_digest)


@pytest.mark.parametrize("size, n_segments, keys", [
    (320, None, range(10)), (960, 120, [0, 5]), (640, 60, [0])])
def test_rows_settled_without_row_check_match_it(monkeypatch, size, n_segments, keys):
    # every row that _check settles without _row_check, on the pool keys: a
    # crossing the screen settled is _row_check's point, and a row whose box is
    # more than MIN_CLEARANCE from the candidate's gets _row_check's verdict
    # from the continuation rule alone
    pop, settled = _Queue.pop, {"crossing": 0, "box": 0}

    def checked(queue, layout):
        ends, line, rows = pop(queue, layout)
        cand = seg(*ends)
        for i in rows or ():
            other = layout.segments[i]
            want = _row_check(cand, other, size, size)
            (x0, x1), (y0, y1) = sorted((cand.a.x, cand.b.x)), sorted((cand.a.y, cand.b.y))
            (u0, u1), (v0, v1) = sorted((other.a.x, other.b.x)), sorted((other.a.y, other.b.y))
            if i in queue.known:
                p = queue.known[i]
                assert isinstance(want, Point) and (p.x, p.y) == (want.x, want.y)
                settled["crossing"] += 1
            elif max(x0 - u1, u0 - x1, y0 - v1, v0 - y1) > MIN_CLEARANCE + synth._SIDE:
                continues = _crossing_angle(cand, other) < 15.0 and (
                    line_distance(other.a, cand) < 4.0 or line_distance(other.b, cand) < 4.0)
                assert want is (False if continues else None)
                assert _continues(cand, other) == continues
                settled["box"] += 1
        return ends, line, rows

    monkeypatch.setattr(_Queue, "pop", checked)
    for k in keys:
        make_scene(np.random.default_rng([size, k]), size, size, n_segments)
    assert settled["crossing"] > 0 and settled["box"] > 0


@pytest.mark.parametrize("seed", [0, 5])
def test_make_scene_state_after_error_and_between_scenes(seed):
    # at 64x64 every attempt is scrapped, its layouts screened from the first segment
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.raises(GeometryError):
        make_scene(rng, 64, 64)
    with pytest.raises(GeometryError):
        reference_make_scene(ref, 64, 64)
    assert same_state(rng.bit_generator.state, ref.bit_generator.state)
    ref = np.random.default_rng(7)
    assert make_scenes(7, 5) == [reference_make_scene(ref) for _ in range(5)]


def take(rng, width, height, n):
    """n candidates of ``_draws``, with the generator put after the last."""
    got = list(itertools.islice(_draws(rng, width, height), n))
    _seek(rng.bit_generator, got[-1][1])
    return [seg(*ends) for ends, _ in got]


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("width, height, n", [(50, 50, 12), (320, 200, 700), (961, 640, 300)])
def test_draws_match_candidate(bit_generator, buffered, width, height, n):
    # the block decoder gives _candidate's segments and leaves the same
    # state, with a 32-bit half left over on entry or not, across blocks
    for seed in range(3):
        rng, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if buffered:
            rng.integers(5, 31), ref.integers(5, 31)
        assert rng.bit_generator.state.get("has_uint32", int(buffered)) == int(buffered)
        assert take(rng, width, height, n) == [_candidate(ref, width, height) for _ in range(n)]
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)
        assert rng.random() == ref.random()


# default_rng(0)'s raw word 315592 has a low half that Lemire's method
# redraws for the 305 values of a 320 px side (found by scanning the stream)
REDRAW_SEED, REDRAW_WORD = 0, 315592


@pytest.mark.parametrize("passes_before", [0, 10])
@pytest.mark.parametrize("buffered", [False, True])
def test_draws_match_candidate_through_a_redraw(passes_before, buffered):
    word = np.random.default_rng(REDRAW_SEED).bit_generator.random_raw(REDRAW_WORD + 1)[-1]
    assert (int(word) & 0xFFFFFFFF) * 305 % 2 ** 32 < (2 ** 32 - 305) % 305
    rng, ref = (np.random.default_rng(REDRAW_SEED) for _ in range(2))
    for r in (rng, ref):
        # the redraw hits x1 of a pass, or y1 after a half left over
        r.bit_generator.random_raw(REDRAW_WORD - 3 * passes_before - buffered)
        if buffered:
            r.integers(5, 31)
    assert take(rng, 320, 320, 40) == [_candidate(ref, 320, 320) for _ in range(40)]
    assert same_state(rng.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("size, n_segments, key", [(320, None, 7), (640, 60, 2), (960, 40, 3)])
def test_check_matches_reference_while_growing(monkeypatch, size, n_segments, key):
    # every candidate a scene draws: the queue's verdict, and _check on both
    # row sets, against the reference
    pop = _Queue.pop
    seen = []

    def checked(queue, layout):
        ends, line, rows = pop(queue, layout)
        cand, need = seg(*ends), bool(layout.segments)
        want = reference_check(cand, list(layout.segments), junctions_of(layout),
                               size, size, need)
        if rows is None:
            assert want is None
        else:  # with the crossings the screen settled, and with every row by hand
            assert _check(cand, layout, size, size, need, rows, queue.known) == want
            assert _check(cand, layout, size, size, need, rows) == want
        for screen_from in SCREEN_FROM:
            assert check(cand, layout, size, size, need, screen_from) == want
        seen.append(want is not None)
        return ends, line, rows

    monkeypatch.setattr(_Queue, "pop", checked)
    make_scene(np.random.default_rng([size, key]), size, size, n_segments)
    assert any(seen) and not all(seen)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 20, 60])
@pytest.mark.parametrize("integer", [True, False])
def test_check_matches_reference_on_random_states(n, integer):
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
                got = both_agree(cand, segments, junctions, size, size, need)
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
@pytest.mark.parametrize("screen_from", SCREEN_FROM)
def test_check_edges(cand, accepted, screen_from):
    got = check(cand, layout_of([H]), 320, 320, False, screen_from)
    assert (got is not None) == accepted
    assert got == reference_check(cand, [H], [], 320, 320, need_crossing=False)


@pytest.mark.parametrize("x, accepted", [(JUNCTION_MARGIN, True), (JUNCTION_MARGIN - 1, False),
                                         (320 - JUNCTION_MARGIN, True),
                                         (320 - JUNCTION_MARGIN + 1, False)])
def test_check_crossing_on_junction_margin(x, accepted):
    other = seg(x, 50, x, 150)
    for cand in (seg(x - 20, 100, x + 20, 100), seg(x - 30, 100, x + 30, 100)):
        got = both_agree(cand, [other], [], 320, 320, True)
        assert (got == [Point(float(x), 100.0)]) == accepted


@pytest.mark.parametrize("degrees", [14.0, 15.0, 16.0, 24.0, 25.0, 26.0])
def test_check_angle_limits(degrees):
    # crossing angles around MIN_CROSS_ANGLE, and continuations around 15
    # degrees; on float endpoints an angle on the limit may round either way,
    # so there only the reference decides
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    crossing = seg(200 - 80 * c, 200 - 80 * s, 200 + 80 * c, 200 + 80 * s)
    got = both_agree(crossing, [seg(100, 200, 300, 200)], [], 400, 400, True)
    if degrees != MIN_CROSS_ANGLE:
        assert (got is None) == (degrees < MIN_CROSS_ANGLE)
    continuation = seg(210, 101, 210 + 100 * c, 101 + 100 * s)
    got = both_agree(continuation, [H], [], 400, 400, False)
    if degrees != 15.0:
        assert (got is None) == (degrees < 15.0)


def test_check_clearance_margin():
    # float endpoints where the scalar separation is just below 6 while the
    # array pass computes the line distance just above it: the `within`
    # margin must still flag the row
    other = seg(181.5, 122.64, 168.37837183718352, 84.5179853483759)
    cand = seg(176.08627330347713, 88.4762127033463, 162.80888059111328, 49.90165829321298)
    assert both_agree(cand, [other], [], 320, 320, False) is None


def test_check_junction_separation():
    # the new crossing (150, 100) against placed junctions at distance 8 and 7.9
    cross = seg(150, 50, 150, 150)
    for q, accepted in ((Point(158.0, 100.0), True), (Point(157.9, 100.0), False),
                        (Point(150.0, 100.0), True)):  # distance 0 is the same junction
        got = both_agree(cross, [H], [q], 320, 320, True)
        assert (got is not None) == accepted


def test_crossings_in_accepted_order():
    # row 3, inserted last, crosses between rows 2 and 4: the pass flags all
    # nine rows and the crossings come back in row order
    rows = [seg(40 + 30 * i, 40, 40 + 30 * i, 280) for i in range(8)]
    rows.insert(3, seg(65, 130, 124, 165.4))
    cand = seg(30, 160, 290, 160)
    rejected, apart, flagged, _ = screen_one(cand, rows)
    assert not rejected and not apart.any() and flagged.all()
    got = both_agree(cand, rows, [], 320, 320, True)
    assert [p.x for p in got] == pytest.approx([40, 70, 100, 115, 130, 160, 190, 220, 250])


def raises_within(size, seconds):
    outcome = []

    def attempt():
        try:
            make_scene(np.random.default_rng(0), size, size)
            outcome.append(None)
        except GeometryError as e:
            outcome.append(e)

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert outcome, f"make_scene({size}x{size}) did not return within {seconds} s"
    assert isinstance(outcome[0], GeometryError) and f"{size}x{size}" in str(outcome[0])


def test_small_image_raises_in_bounded_time():
    # a 64x64 image leaves a 16 px window for crossings: the redraws give
    # up after a bounded number of attempts instead of looping forever
    raises_within(64, 30.0)


def test_smallest_image_raises_in_bounded_time():
    # at 50x50 every segment is 40 px and about one draw pass in 250 lands
    # inside; the block decoder settles those passes in arrays (it took
    # about 25 s one pass at a time)
    raises_within(50, 10.0)


@pytest.mark.parametrize("width, height", [(16, 16), (49, 320), (320, 1)])
def test_image_too_small_for_a_segment(width, height):
    with pytest.raises(GeometryError, match=f"{width}x{height}"):
        make_scene(np.random.default_rng(0), width, height)


@pytest.mark.parametrize("seed, count", [(-1, 1), (True, 1), (1.5, 1), (0, -1), (0, 2.5),
                                         (0, math.nan), (0, True)])
def test_make_scenes_rejects_bad_seed_and_count(seed, count):
    with pytest.raises(GeometryError) as err:
        make_scenes(seed, count)
    assert "\n" not in str(err.value)


# -- the array pass's sure verdicts against the scalar row check --

def assert_screen_sound(cand, other, width=320, height=320):
    """A sure reject is a scalar reject, a sure apart row gives no crossing,
    a row left unflagged passes, and a crossing the screen settles is the
    scalar's point, bit for bit."""
    want = _row_check(cand, other, width, height)
    rejected, apart, flagged, known = screen_one(cand, [other], width, height)
    assert not rejected or want is False
    assert not apart[0] or not isinstance(want, Point)
    assert flagged[0] or want is None
    if 0 in known and not rejected:
        assert flagged[0] and (known[0].x, known[0].y) == (want.x, want.y)
    return rejected


coords = st.floats(0.0, 320.0)


@st.composite
def row_pairs(draw):
    """(candidate, accepted segment) endpoints, the candidate placed about a
    point near the other's line: crossings, T ends and near misses at any
    angle and stub length; integer endpoints half of the time."""
    ax, ay, bx, by = draw(st.tuples(coords, coords, coords, coords))
    length = math.hypot(bx - ax, by - ay)
    assume(length > 1.0)
    tx, ty = (bx - ax) / length, (by - ay) / length
    u, off = draw(st.floats(-0.3, 1.3)), draw(st.floats(-9.0, 9.0))
    px, py = ax + u * (bx - ax) - off * ty, ay + u * (by - ay) + off * tx
    phi = math.radians(draw(st.floats(0.0, 180.0)))
    cx, cy = tx * math.cos(phi) - ty * math.sin(phi), tx * math.sin(phi) + ty * math.cos(phi)
    s1, s2 = draw(st.floats(0.0, 40.0)), draw(st.floats(0.5, 200.0))
    cand = (px - s1 * cx, py - s1 * cy, px + s2 * cx, py + s2 * cy)
    if draw(st.booleans()):
        cand = tuple(float(round(v)) for v in cand)
    assume(cand[:2] != cand[2:])
    return cand, (ax, ay, bx, by)


def ulps(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def crossing_at(x):
    """A horizontal candidate crossing a vertical segment at (x, 100)."""
    return (x - 30, 100.0, x + 30, 100.0), (x, 50.0, x, 150.0)


C25, S25 = math.cos(math.radians(MIN_CROSS_ANGLE)), math.sin(math.radians(MIN_CROSS_ANGLE))
HT = (100.0, 100.0, 200.0, 100.0)  # H as a tuple


@given(row_pairs())
@settings(max_examples=600, deadline=None)
# stub exactly MIN_STUB, one ulp either side
@example(((150.0, ulps(90.0)[0], 150.0, 200.0), HT))
@example(((150.0, 90.0, 150.0, 200.0), HT))
@example(((150.0, ulps(90.0)[2], 150.0, 200.0), HT))
# crossing on the junction window's edges
@example(crossing_at(ulps(JUNCTION_MARGIN)[0]))
@example(crossing_at(JUNCTION_MARGIN))
@example(crossing_at(ulps(JUNCTION_MARGIN)[2]))
@example(crossing_at(ulps(320 - JUNCTION_MARGIN)[0]))
@example(crossing_at(320 - JUNCTION_MARGIN))
@example(crossing_at(ulps(320 - JUNCTION_MARGIN)[2]))
# crossing angle MIN_CROSS_ANGLE, one ulp either side
@example(((200 - 80 * C25, 200 - 80 * S25, 200 + 80 * C25, ulps(200 + 80 * S25)[0]),
          (100.0, 200.0, 300.0, 200.0)))
@example(((200 - 80 * C25, 200 - 80 * S25, 200 + 80 * C25, 200 + 80 * S25),
          (100.0, 200.0, 300.0, 200.0)))
@example(((200 - 80 * C25, 200 - 80 * S25, 200 + 80 * C25, ulps(200 + 80 * S25)[2]),
          (100.0, 200.0, 300.0, 200.0)))
# clearance MIN_CLEARANCE, one ulp either side: parallel, and an end facing the segment
@example(((100.0, ulps(106.0)[0], 200.0, ulps(106.0)[0]), HT))
@example(((100.0, 106.0, 200.0, 106.0), HT))
@example(((100.0, ulps(106.0)[2], 200.0, ulps(106.0)[2]), HT))
@example(((150.0, ulps(106.0)[0], 150.0, 200.0), HT))
@example(((150.0, 106.0, 150.0, 200.0), HT))
@example(((150.0, ulps(106.0)[2], 150.0, 200.0), HT))
# an end within 6 px of the other's line but just past its end, 6 px away
@example(((200.0005, 105.99999999, 200.0005, 200.0), HT))
# an end on the other's line, one ulp either side
@example(((150.0, ulps(100.0)[0], 150.0, 200.0), HT))
@example(((150.0, 100.0, 150.0, 200.0), HT))
@example(((150.0, ulps(100.0)[2], 150.0, 200.0), HT))
def test_screen_agrees_with_row_check(pair):
    assert_screen_sound(*(seg(*s) for s in pair))


@pytest.mark.parametrize("cand", [
    seg(150, 94, 150, 200),   # a 6 px stub
    seg(150, 108, 150, 40),   # an 8 px stub, at the candidate's a
    seg(16, 100, 60, 100),    # crossing a row at x = 20, outside the window
    seg(120, 105, 220, 105),  # parallel 5 px away, overlapping
    seg(150, 103, 150, 200),  # an end 3 px from the row's middle
])
def test_screen_settles_sure_rejects(monkeypatch, cand):
    # no scalar row check runs for them
    row = seg(20, 50, 20, 150) if cand.a.x == 16 else H
    assert assert_screen_sound(cand, row)
    assert _row_check(cand, row, 320, 320) is False
    monkeypatch.setattr(synth, "_row_check", None)
    assert check(cand, layout_of([row]), 320, 320, True) is None
    assert [r for _, _, r in popped(monkeypatch, [cand], layout_of([row]))] == [None]


def test_screen_drops_a_candidate_no_row_can_cross(monkeypatch):
    rows = [seg(40 + 30 * i, 40, 40 + 30 * i, 120) for i in range(6)]
    cand = seg(30, 200, 290, 200)
    rejected, apart, flagged, _ = screen_one(cand, rows)
    assert not rejected and apart.all() and not flagged.any()
    monkeypatch.setattr(synth, "_row_check", None)
    assert [r for _, _, r in popped(monkeypatch, [cand], layout_of(rows))] == [None]
    assert check(cand, layout_of(rows), 320, 320, False) == []


def test_queue_screens_a_one_segment_layout(monkeypatch):
    # a copy of the one placed segment 3 px away is dropped by the array pass
    # alone: every layout is screened from its first segment on
    monkeypatch.setattr(synth, "_row_check", None)
    cands = [seg(120, 103, 220, 103), seg(150, 50, 150, 150)]
    (ends, line, rows), crossing = popped(monkeypatch, cands, layout_of([H]))
    assert ends == (120.0, 103.0, 220.0, 103.0) and rows is None
    assert line.tolist() == _lines(segment_array(cands[:1]))[0].tolist()
    assert crossing[2] == [0]  # a crossing row is offered, its point settled by the screen


def test_queue_screens_once_per_layout(monkeypatch):
    # one queue, three accepts: a screen-rejected candidate stays dropped, one
    # dropped only as apart from every segment comes back once a segment
    # placed since may cross it, and the rest get the flagged rows plus every
    # segment placed since the screen
    apart = seg(110, 140, 190, 140)  # apart from H, crossed by the first accept
    cands = [apart,                   # dropped: nothing placed since the screen
             seg(130, 60, 130, 160),  # crosses H: accepted
             seg(120, 103, 220, 103),  # 3 px from H: rejected by the screen
             apart,                   # crosses the segment placed since: accepted
             seg(30, 250, 290, 250),  # apart from every segment: no crossing
             seg(170, 60, 170, 160)]  # crosses H and the apart one: accepted
    queue, layout, got = queue_of(monkeypatch, cands), layout_of([H]), []
    for cand in cands:
        want = reference_check(cand, list(layout.segments), junctions_of(layout), 320, 320, True)
        _, line, rows = queue.pop(layout)
        crossings = None if rows is None else _check(cand, layout, 320, 320, True, rows)
        assert crossings == want
        if crossings is not None:
            layout.add(cand, crossings, line)
        got.append(rows)
    assert got == [None, [0], None, [1], [1, 2], [0, 1, 2]]
    assert len(layout.segments) == 4 and sorted((p.x, p.y) for p in junctions_of(layout)) == \
        [(130.0, 100.0), (130.0, 140.0), (170.0, 100.0), (170.0, 140.0)]


# -- junction spacing on the 8 px grid against the all-pairs test --

def below(v):
    return math.nextafter(v, 0.0)


spots = st.builds(Point, *[st.one_of(st.floats(0.0, 40.0), st.integers(1, 5).map(lambda k: 8.0 * k),
                                     st.integers(1, 5).map(lambda k: below(8.0 * k)))] * 2)


@given(st.lists(spots, max_size=12), st.lists(spots, min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
# neighbours across a cell edge: at 8k and one ulp below
@example([Point(16.0, 20.0)], [Point(below(16.0), 20.0)])
@example([Point(below(8.0), 20.0)], [Point(below(16.0), 20.0)])
@example([Point(20.0, 16.0)], [Point(20.0, below(16.0))])
# distance 8 passes, one ulp below fails
@example([Point(0.0, 20.0)], [Point(8.0, 20.0)])
@example([Point(0.0, 20.0)], [Point(below(8.0), 20.0)])
# coincident points: distance 0 is the same junction
@example([Point(16.0, 16.0)], [Point(16.0, 16.0)])
# a close pair made only of two new crossings
@example([Point(40.0, 40.0)], [Point(20.0, 20.0), Point(25.0, 20.0)])
def test_spacing_grid_matches_all_pairs(placed, new):
    layout, rows = layout_of([H], placed), iter(new)
    with mock.patch.object(synth, "_row_check", lambda *args: next(rows)):
        got = _check(H, layout, 320, 320, True, [0] * len(new))
    close = any(0.0 < p.distance_to(q) < MIN_JUNCTION_SEP for p in new for q in placed + new)
    assert got == (None if close else new)


@pytest.mark.parametrize("width, height, n_segments", [
    (math.nan, 320, None), (math.inf, 320, None), (320.5, 320, None), (320, 0, None),
    (-320, 320, None), (True, 320, None), (320, "320", None), (320, None, None),
    (320, 320, -3), (320, 320, 2.5), (320, 320, True), (320, 320, math.nan)])
def test_make_scene_rejects_bad_sizes_before_any_draw(width, height, n_segments):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(GeometryError, match="sides must be integers") as err:
        make_scene(rng, width, height, n_segments)
    assert "\n" not in str(err.value)
    assert same_state(rng.bit_generator.state, state)


def test_make_scene_takes_numpy_integers_and_zero_segments():
    assert make_scene(np.random.default_rng(3), np.int64(320), 320, np.int32(12)) == \
        make_scene(np.random.default_rng(3), 320, 320, 12)
    assert make_scene(np.random.default_rng(3), 320, 320, 0).lines == ()
