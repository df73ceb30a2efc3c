import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wireframe.geometry import Branch, GeometryError, Junction, Point, normalize_angle
from wireframe.gridcodec import (
    ARRAYS,
    CellCollisionError,
    GridConfig,
    GridEncoding,
    angle_to_bin,
    bin_to_angle,
    decode,
    encode,
)

CFG = GridConfig(image_w=320, image_h=320)  # 60x60 cells of 16/3 px, K=15


def test_angle_to_bin_k15():
    assert angle_to_bin(12.0, 15) == (0, 0.0)
    assert angle_to_bin(0.0, 15) == (0, -12.0)
    k, r = angle_to_bin(100.0, 15)
    assert k == 4 and r == pytest.approx(-8.0)


def test_bin_to_angle_inverses():
    assert bin_to_angle(0, 0.0, 15) == 12.0
    assert bin_to_angle(0, -12.0, 15) == 0.0
    assert bin_to_angle(4, -8.0, 15) == pytest.approx(100.0)


@given(st.floats(0, 360, exclude_max=True, allow_nan=False), st.integers(2, 36))
def test_angle_roundtrip(theta, bins):
    k, r = angle_to_bin(theta, bins)
    bw = 360.0 / bins
    assert 0 <= k < bins
    assert abs(r) <= bw / 2 + 1e-9
    assert bin_to_angle(k, r, bins) == pytest.approx(theta, abs=1e-9)


@st.composite
def bin_draws(draw):
    bins = draw(st.integers(2, 36))
    k = draw(st.integers(0, bins - 1))
    bw = 360.0 / bins
    # stay a hair away from the open +bw/2 edge, where float rounding may
    # legitimately land the reconstructed angle in the next bin
    r = draw(st.floats(-bw / 2, bw / 2 - 1e-6, allow_nan=False))
    return bins, k, r


@given(bin_draws())
# lower bin edges that bin_to_angle rebuilds a rounding error low
@example((22, 5, -360.0 / 22 / 2))
@example((7, 3, -360.0 / 7 / 2))
@example((11, 9, -360.0 / 11 / 2))
def test_bin_roundtrip(draw):
    bins, k, r = draw
    k2, r2 = angle_to_bin(bin_to_angle(k, r, bins), bins)
    assert k2 == k
    assert r2 == pytest.approx(r, abs=1e-9)


def test_residual_stays_below_half_bin():
    # with 319 bins the last bin's residual of the largest angle below 360
    # rounds up to exactly bw/2 unless clamped
    bw = 360.0 / 319
    k, r = angle_to_bin(math.nextafter(360.0, 0.0), 319)
    assert k == 318 and -bw / 2 <= r < bw / 2


def test_bin_edge_keeps_angle():
    # at the very edge the bin index may flip, but the angle must survive
    theta = bin_to_angle(0, 8.999999999999998, 20)
    k, r = angle_to_bin(theta, 20)
    assert bin_to_angle(k, r, 20) == pytest.approx(theta, abs=1e-9)


def test_config_validation():
    with pytest.raises(GeometryError):
        GridConfig(0, 320)
    with pytest.raises(GeometryError):
        GridConfig(320, 320, grid_w=0)
    with pytest.raises(GeometryError):
        GridConfig(320, 320, bins=1)


def test_cell_geometry():
    assert CFG.cell_w == pytest.approx(16 / 3)
    assert CFG.cell_of(8.0, 2.0) == (0, 1)
    assert CFG.cell_of(320.0, 320.0) == (59, 59)  # far edge stays in grid
    rows, cols = CFG.cell_of(np.array([8.0, 320.0, -1.0]), np.array([2.0, 320.0, 400.0]))
    assert rows.tolist() == [0, 59, 59] and cols.tolist() == [1, 59, 0]  # outside clamps
    assert tuple(CFG.cell_center(0, 1)) == pytest.approx((8.0, 8 / 3))
    assert CFG.cell_center(np.array([0, 2]), np.array([1, 0])).tolist() == [
        list(CFG.cell_center(0, 1)), list(CFG.cell_center(2, 0))]


def test_encode_cell_zero_center():
    j = Junction(Point(*CFG.cell_center(0, 0)), (Branch(12.0),))
    enc = encode([j], CFG)
    assert enc.center_conf[0, 0] == 1.0
    assert tuple(enc.displacement[0, 0]) == (0.0, 0.0)
    assert enc.bin_conf[0, 0, 0] == 1.0 and enc.bin_residual[0, 0, 0] == 0.0
    assert enc.bin_conf[0, 0].sum() == 1.0
    assert enc.center_conf.sum() == 1.0


def test_encode_empty():
    enc = encode([], CFG)
    assert not enc.center_conf.any() and not enc.bin_conf.any()
    assert not enc.displacement.any() and not enc.bin_residual.any()


def test_encode_displacement_oracle():
    # oracle: exact rational arithmetic with cell size 320/60 = 16/3
    j = Junction(Point(8.0, 2.0), (Branch(45.0),))
    enc = encode([j], CFG)
    row, col = 0, 1
    exp_dx = 8.0 - (col + 0.5) * (320 / 60)
    exp_dy = 2.0 - (row + 0.5) * (320 / 60)
    assert exp_dx == pytest.approx(0.0, abs=1e-9)
    assert exp_dy == pytest.approx(-2.0 / 3.0, abs=1e-9)
    got = enc.displacement[row, col]
    assert got[0] == pytest.approx(exp_dx, abs=1e-9)
    assert got[1] == pytest.approx(exp_dy, abs=1e-9)


def test_encode_outside_image_rejected():
    with pytest.raises(GeometryError):
        encode([Junction(Point(-1.0, 5.0), (Branch(0.0),))], CFG)


def test_encode_cell_collision():
    j1 = Junction(Point(1.0, 1.0), (Branch(0.0),))
    j2 = Junction(Point(2.0, 2.0), (Branch(90.0),))  # same 16/3 px cell
    with pytest.raises(CellCollisionError) as err:
        encode([j1, j2], CFG)
    assert "(1.0, 1.0)" in str(err.value) and "(2.0, 2.0)" in str(err.value)


def test_encode_bin_collision():
    j = Junction(Point(10.0, 10.0), (Branch(13.0), Branch(14.0)))  # both bin 0
    with pytest.raises(CellCollisionError):
        encode([j], CFG)


def test_decode_tau_one_empty():
    j = Junction(Point(8.0, 2.0), (Branch(45.0),))
    assert decode(encode([j], CFG), tau_c=1.0) == []


def test_decode_mixed_confidences():
    cfg = GridConfig(image_w=20, image_h=20, grid_w=2, grid_h=2, bins=4)
    enc = GridEncoding(cfg)
    enc.center_conf[0, 0] = 0.9
    enc.bin_conf[0, 0, 2] = 0.8
    enc.center_conf[1, 1] = 0.3
    enc.bin_conf[1, 1, 0] = 0.8
    out = decode(enc, 0.5, 0.5)
    assert len(out) == 1
    assert (out[0].center.x, out[0].center.y) == (5.0, 5.0)
    assert out[0].confidence == 0.9
    assert out[0].branches == (Branch(225.0, 0.8),)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -0.5])
def test_decode_refuses_a_threshold_construction_refuses(tau):
    # finite and >= 0, as ConstructionParams has it; NaN once gave no junctions
    enc = encode([Junction(Point(8.0, 2.0), (Branch(45.0),))], CFG)
    with pytest.raises(GeometryError, match="tau_c must be finite and >= 0"):
        decode(enc, tau_c=tau)
    with pytest.raises(GeometryError, match="tau_b must be finite and >= 0"):
        decode(enc, 0.5, tau_b=tau)
    assert len(decode(enc, 0.0, 0.0)) == 1


def test_decode_drops_branchless():
    cfg = GridConfig(image_w=20, image_h=20, grid_w=2, grid_h=2, bins=4)
    enc = GridEncoding(cfg)
    enc.center_conf[0, 0] = 0.9  # no confident bin
    assert decode(enc, 0.5, 0.5) == []


def junction_sets(cfg, max_junctions=8):
    """Collision-free junction sets: distinct cells, distinct bins."""
    bw = 360.0 / cfg.bins

    def build(picks):
        out = []
        for (row, col), (offs, bins_) in picks.items():
            cx, cy = cfg.cell_center(row, col)
            x = min(max(cx + offs[0] * cfg.cell_w / 2, 0.0), float(cfg.image_w))
            y = min(max(cy + offs[1] * cfg.cell_h / 2, 0.0), float(cfg.image_h))
            branches = tuple(Branch(bin_to_angle(k, d * bw / 2, cfg.bins), 1.0)
                             for k, d in sorted(bins_.items()))
            out.append(Junction(Point(x, y), branches, 1.0))
        return out

    cellkeys = st.tuples(st.integers(0, cfg.grid_h - 1), st.integers(0, cfg.grid_w - 1))
    offsets = st.tuples(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999))
    bins_ = st.dictionaries(st.integers(0, cfg.bins - 1),
                            st.floats(-0.999, 0.999), min_size=1, max_size=4)
    return st.dictionaries(cellkeys, st.tuples(offsets, bins_),
                           min_size=0, max_size=max_junctions).map(
        lambda d: build({k: (v[0], v[1]) for k, v in d.items()}))


@given(junction_sets(CFG), st.floats(0.0, 0.99))
@settings(max_examples=150, deadline=None)
def test_roundtrip(junctions, tau):
    got = decode(encode(junctions, CFG), tau, tau)
    want = sorted(junctions, key=lambda j: CFG.cell_of(j.center.x, j.center.y))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.center.x == pytest.approx(w.center.x, abs=1e-9)
        assert g.center.y == pytest.approx(w.center.y, abs=1e-9)
        assert g.confidence == 1.0
        assert len(g.branches) == len(w.branches) <= cfg_bins(CFG)
        for gb, wb in zip(g.branches,
                          sorted(w.branches, key=lambda b: b.angle_deg)):
            assert gb.angle_deg == pytest.approx(wb.angle_deg, abs=1e-9)


def cfg_bins(cfg):
    return cfg.bins


def test_encoding_shape_validation():
    with pytest.raises(GeometryError):
        GridEncoding(CFG, center_conf=np.zeros((2, 2)))


def test_encode_rejects_non_finite_branch_angles():
    for bad in (math.nan, math.inf, -math.inf):
        j = Junction(Point(10.0, 10.0), (Branch(30.0), Branch(bad)))
        with pytest.raises(GeometryError) as err:
            encode([j], CFG)
        assert not isinstance(err.value, CellCollisionError)
        assert str(err.value) == f"junction at (10.0, 10.0): non-finite branch angle {bad}"


def test_decode_returns_plain_floats():
    js = [Junction(Point(8.0, 2.0), (Branch(45.0), Branch(300.0))),
          Junction(Point(100.5, 7.25), (Branch(0.0),))]
    got = decode(encode(js, CFG))
    values = [v for j in got for v in (j.center.x, j.center.y, j.confidence,
                                       *(a for b in j.branches for a in (b.angle_deg, b.confidence)))]
    assert len(values) == 12 and {type(v) for v in values} == {float}
    assert "np." not in repr(got)


# -- the scalar codec before encode and decode became array passes, kept
# verbatim so the array passes are checked bit for bit --

def reference_cell_of(cfg, p):
    col = min(int(p.x // cfg.cell_w), cfg.grid_w - 1)
    row = min(int(p.y // cfg.cell_h), cfg.grid_h - 1)
    return row, col


def reference_cell_center(cfg, row, col):
    return Point((col + 0.5) * cfg.cell_w, (row + 0.5) * cfg.cell_h)


def reference_angle_to_bin(theta_deg, bins):
    bw = 360.0 / bins
    theta = normalize_angle(theta_deg)
    k = min(int((theta + 1e-10) // bw), bins - 1)
    return k, min(max(theta - (k + 0.5) * bw, -bw / 2), math.nextafter(bw / 2, 0.0))


def reference_bin_to_angle(k, residual_deg, bins):
    return normalize_angle((k + 0.5) * (360.0 / bins) + residual_deg)


def reference_encode(junctions, config):
    enc = GridEncoding(config)
    owners = {}
    for jn in junctions:
        c = jn.center
        if not (0.0 <= c.x <= config.image_w and 0.0 <= c.y <= config.image_h):
            raise GeometryError(f"junction center ({c.x}, {c.y}) outside image")
        row, col = reference_cell_of(config, c)
        if (row, col) in owners:
            other = owners[(row, col)]
            raise CellCollisionError(
                f"cell ({row}, {col}) claimed by junctions at "
                f"({other.center.x}, {other.center.y}) and ({c.x}, {c.y})")
        owners[(row, col)] = jn
        center = reference_cell_center(config, row, col)
        enc.center_conf[row, col] = 1.0
        enc.displacement[row, col] = (c.x - center.x, c.y - center.y)
        for br in jn.branches:
            if not math.isfinite(br.angle_deg):  # new: raised a bare ValueError before
                raise GeometryError(
                    f"junction at ({c.x}, {c.y}): non-finite branch angle {br.angle_deg}")
            k, res = reference_angle_to_bin(br.angle_deg, config.bins)
            if enc.bin_conf[row, col, k] != 0.0:
                raise CellCollisionError(
                    f"junction at ({c.x}, {c.y}): two branches fall in angle bin {k}")
            enc.bin_conf[row, col, k] = 1.0
            enc.bin_residual[row, col, k] = res
    return enc


def reference_decode(enc, tau_c=0.5, tau_b=0.5):
    cfg = enc.config
    out = []
    for row, col in zip(*np.nonzero(enc.center_conf > tau_c)):
        center = reference_cell_center(cfg, int(row), int(col))
        dx, dy = enc.displacement[row, col]
        branches = tuple(
            Branch(reference_bin_to_angle(int(k), float(enc.bin_residual[row, col, k]), cfg.bins),
                   float(enc.bin_conf[row, col, k]))
            for k in np.nonzero(enc.bin_conf[row, col] > tau_b)[0])
        if not branches:
            continue
        out.append(Junction(Point(float(center.x + dx), float(center.y + dy)), branches,
                            float(enc.center_conf[row, col])))
    return out


def encode_outcome(encoder, junctions, cfg):
    """The four arrays' bytes, or the raised exception's type and message."""
    try:
        enc = encoder(junctions, cfg)
    except ValueError as e:
        return type(e), str(e)
    return tuple(getattr(enc, name).tobytes() for name in ARRAYS)


def bits(x):
    """A float's value and sign, so that 0.0 and -0.0 differ."""
    return float(x), math.copysign(1.0, x)


EDGE_ANGLES = [0.0, -0.0, 360.0, -360.0, 720.0, -1e-20, -5e-324, math.nextafter(360.0, 0.0),
               12.0, 24.0, -12.0, 1e300, -1e300] + [
    bin_to_angle(k, -360.0 / bins / 2, bins) for bins, k in ((22, 5), (7, 3), (11, 9))]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
       st.integers(2, 400))
@example([math.nextafter(360.0, 0.0)], 319)
@example(EDGE_ANGLES, 15)
@example(EDGE_ANGLES, 22)
@example(EDGE_ANGLES, 7)
@example(EDGE_ANGLES, 11)
@example(EDGE_ANGLES, 319)
def test_angle_kernels_match_the_scalar_loop(thetas, bins):
    ks, rs = angle_to_bin(np.array(thetas, dtype=np.float64), bins)
    want = [reference_angle_to_bin(t, bins) for t in thetas]
    assert ks.tolist() == [k for k, _ in want]
    assert [bits(r) for r in rs.tolist()] == [bits(r) for _, r in want]
    back = bin_to_angle(ks, rs, bins)
    assert [bits(a) for a in back.tolist()] == [
        bits(reference_bin_to_angle(k, r, bins)) for k, r in want]
    for t in thetas[:2]:  # a scalar in, scalars out
        k, r = angle_to_bin(t, bins)
        assert (int(k), bits(r)) == (want[thetas.index(t)][0], bits(want[thetas.index(t)][1]))


@st.composite
def colliding_sets(draw):
    """Junction sets built to collide: centers from a few cells, on the image
    border or just outside it; branches from a few bins, on bin edges, or not
    finite."""
    cfg = draw(st.sampled_from([CFG, GridConfig(20, 12, 3, 2, 4), GridConfig(7, 7, 7, 7, 2)]))

    def coord(size, cell):
        return st.one_of(st.floats(0.0, 2.5 * cell),
                         st.sampled_from([0.0, float(size), -1e-9, size + 1e-9, -1e300, 1e300]))

    edge = st.sampled_from(EDGE_ANGLES + [math.nan, math.inf, -math.inf])
    angles = st.one_of(st.floats(-720.0, 720.0), st.floats(-720.0, 720.0), edge)
    centers = st.builds(Point, coord(cfg.image_w, cfg.cell_w), coord(cfg.image_h, cfg.cell_h))
    junctions = st.builds(Junction, centers, st.lists(angles.map(Branch), max_size=4).map(tuple))
    return cfg, draw(st.lists(junctions, max_size=6))


@given(colliding_sets())
@settings(max_examples=300, deadline=None)
@example((CFG, [Junction(Point(1.0, 1.0), (Branch(0.0),)),
                Junction(Point(2.0, 2.0), (Branch(13.0), Branch(14.0)))]))  # cell, then bin
@example((CFG, [Junction(Point(1.0, 1.0), (Branch(13.0), Branch(14.0), Branch(math.nan)))]))
@example((CFG, [Junction(Point(1.0, 1.0), (Branch(math.inf), Branch(13.0), Branch(14.0)))]))
@example((CFG, [Junction(Point(1.0, 1.0), (Branch(0.0),)),
                Junction(Point(-1.0, 2.0), (Branch(0.0),))]))  # outside, in a clamped cell
@example((CFG, [Junction(Point(0.0, -1e-09), ())]))  # outside, with no branch
@example((CFG, [Junction(Point(320.0, 320.0), (Branch(0.0),)),
                Junction(Point(319.0, 319.0), (Branch(90.0),))]))  # the inclusive far edge
def test_encode_matches_the_scalar_loop(case):
    cfg, junctions = case
    flipped = [Junction(j.center, j.branches[::-1]) for j in reversed(junctions)]
    for js in (junctions, flipped):
        assert encode_outcome(encode, js, cfg) == encode_outcome(reference_encode, js, cfg)


DECODE_CFG = GridConfig(40, 30, 8, 6, 5)


@given(junction_sets(DECODE_CFG), st.integers(0, 2 ** 16), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_decode_matches_the_scalar_loop(junctions, seed, tau):
    # the noisy residuals reach past -180 and 540, so angles wrap both ways
    rng = np.random.default_rng(seed)
    exact = encode(junctions, DECODE_CFG)
    noise = {"center_conf": 0.3, "displacement": 3.0, "bin_conf": 0.3, "bin_residual": 300.0}
    noisy = GridEncoding(DECODE_CFG, *(getattr(exact, name) + rng.normal(
        0.0, noise[name], getattr(exact, name).shape) for name in ARRAYS))
    for enc in (exact, noisy):
        got, want = decode(enc, tau, tau), reference_decode(enc, tau, tau)
        flat = lambda js: [bits(v) for j in js for v in (
            j.center.x, j.center.y, j.confidence, *(a for b in j.branches for a in (b.angle_deg, b.confidence)))]
        assert [len(j.branches) for j in got] == [len(j.branches) for j in want]
        assert flat(got) == flat(want)
        assert repr(list(got)) == repr(want)  # the table's Junctions: Python floats, in order
