import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wireframe.geometry import Branch, GeometryError, Junction, Point
from wireframe.gridcodec import (
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
    assert CFG.cell_of(Point(8.0, 2.0)) == (0, 1)
    assert CFG.cell_of(Point(320.0, 320.0)) == (59, 59)  # far edge stays in grid
    c = CFG.cell_center(0, 1)
    assert (c.x, c.y) == pytest.approx((8.0, 8 / 3))


def test_encode_cell_zero_center():
    center = CFG.cell_center(0, 0)
    j = Junction(center, (Branch(12.0),))
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
            center = cfg.cell_center(row, col)
            x = min(max(center.x + offs[0] * cfg.cell_w / 2, 0.0), float(cfg.image_w))
            y = min(max(center.y + offs[1] * cfg.cell_h / 2, 0.0), float(cfg.image_h))
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
    want = sorted(junctions, key=lambda j: CFG.cell_of(j.center))
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
