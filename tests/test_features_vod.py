import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gray_frames
from ladderlab import features_live, features_vod, stats
from ladderlab.errors import ContractError
from ladderlab.features_live import extract_live
from ladderlab.features_vod import (
    TC_BLOCK,
    VOD_FEATURE_NAMES,
    colorfulness,
    extract_vod,
    glcm_descriptors,
    ncc,
    noise_estimate,
    spatial_information,
    temporal_coherence,
    temporal_information,
    yuv420_to_rgb,
)
from oracles import (
    FLOAT64_VOD,
    glcm_oracle,
    ncc_oracle,
    noise_oracle,
    numpy_block_rfft,
    sobel_si_oracle,
    tc_oracle,
    ti_oracle,
)


# ------------------------------------- bit-exact against float64 copies

@st.composite
def uint8_planes(draw, shape, count):
    """`count` uint8 planes: random, 0/255 noise, constant or a 0/255 checkerboard."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = []
    for _ in range(count):
        kind = draw(st.sampled_from(("random", "extremes", "constant", "checkerboard")))
        if kind == "random":
            plane = rng.integers(0, 256, shape, dtype=np.uint8)
        elif kind == "extremes":
            plane = rng.integers(0, 2, shape, dtype=np.uint8) * np.uint8(255)
        elif kind == "constant":
            plane = np.full(shape, draw(st.integers(0, 255)), dtype=np.uint8)
        else:
            phase = draw(st.integers(0, 1))
            plane = ((np.indices(shape).sum(axis=0) + phase) % 2 * 255).astype(np.uint8)
        planes.append(plane)
    return planes


def assert_equals_float64_reference(name, *args):
    assert getattr(features_vod, name)(*args) == FLOAT64_VOD[name](*args), name


def assert_descriptors_equal_float64_reference(data, h, w):
    prev, curr = data.draw(uint8_planes((h, w), 2))
    assert_equals_float64_reference("glcm_descriptors", curr)
    if h >= 3 and w >= 3:
        assert_equals_float64_reference("spatial_information", curr)
        assert_equals_float64_reference("noise_estimate", curr)
    assert_equals_float64_reference("temporal_information", prev, curr)
    assert_equals_float64_reference("ncc", prev, curr)
    cb, cr = data.draw(uint8_planes((h // 2, w // 2), 2))
    assert_equals_float64_reference("colorfulness", curr[: h // 2 * 2, : w // 2 * 2], cb, cr)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 70), st.integers(2, 70))
def test_descriptors_equal_float64_reference_bit_for_bit(data, h, w):
    assert_descriptors_equal_float64_reference(data, h, w)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(2, 70), st.integers(2, 70))
def test_descriptors_on_16_value_leaves_equal_float64_reference_bit_for_bit(data, h, w):
    # planes of more than 16 values (128 where numpy adds a run in one
    # loop) are summed in several leaves of `stats.tree_sums`
    with mock.patch.object(stats, "_LEAF", 16):
        assert_descriptors_equal_float64_reference(data, h, w)


@pytest.mark.parametrize("shape", [(777, 1001), (1080, 1920)])
def test_descriptors_on_large_planes_equal_float64_reference_bit_for_bit(shape):
    rng = np.random.default_rng(shape[1])
    prev, curr = rng.integers(0, 256, (2,) + shape, dtype=np.uint8)
    cb, cr = rng.integers(0, 256, (2, shape[0] // 2, shape[1] // 2), dtype=np.uint8)
    even = curr[: shape[0] // 2 * 2, : shape[1] // 2 * 2]
    for name in ("glcm_descriptors", "spatial_information", "noise_estimate"):
        assert_equals_float64_reference(name, curr)
    for name in ("temporal_coherence", "temporal_information", "ncc"):
        assert_equals_float64_reference(name, prev, curr)
    assert_equals_float64_reference("colorfulness", even, cb, cr)


@pytest.mark.parametrize("h", [16, 17, 18, 19, 33])
def test_banded_descriptors_on_wide_planes_equal_float64_reference_bit_for_bit(h):
    # a band of GLCM, SI and noise holds 16 rows of this width, so the last
    # band has from 1 to 3 rows; TI and NCC sum more than one leaf
    w = 4099
    assert features_vod._band_rows(w) == 16
    rng = np.random.default_rng(h)
    prev, curr = rng.integers(0, 256, (2, h, w), dtype=np.uint8)
    for name in ("glcm_descriptors", "spatial_information", "noise_estimate"):
        assert_equals_float64_reference(name, curr)
    for name in ("temporal_information", "ncc"):
        assert_equals_float64_reference(name, prev, curr)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(32, 70), st.integers(32, 70))
def test_tc_equals_float64_reference_bit_for_bit(data, h, w):
    # most sides are no multiple of the 32x32 block, so the crop is covered
    prev, curr = data.draw(uint8_planes((h, w), 2))
    assert_equals_float64_reference("temporal_coherence", prev, curr)


def assert_r2c_equals_numpy_rfftn(plane):
    nh, nw = plane.shape[0] // TC_BLOCK, plane.shape[1] // TC_BLOCK
    blocks = plane[: nh * TC_BLOCK, : nw * TC_BLOCK].reshape(nh, TC_BLOCK, nw, TC_BLOCK)
    got = features_vod._pocketfft().r2c(
        blocks.astype(np.float64, copy=False), (1, 3), True, 0, None, 1)
    assert got.tobytes() == numpy_block_rfft(blocks).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(32, 140), st.integers(32, 140), st.booleans())
def test_loaded_r2c_equals_numpy_rfftn_bit_for_bit(data, h, w, as_float):
    # on uint8 planes numpy converts to float64 itself; float planes are
    # cropped views the transform reads strided
    plane, = data.draw(uint8_planes((h, w), 1))
    if as_float:
        plane = plane + np.random.default_rng(h * w).uniform(-0.5, 0.5, plane.shape)
    assert_r2c_equals_numpy_rfftn(plane)


@pytest.mark.parametrize("shape", [(1080, 1920), (2160, 3840), (96, 128)])
def test_loaded_r2c_on_frame_sizes_equals_numpy_rfftn_bit_for_bit(shape):
    rng = np.random.default_rng(shape[1])
    assert_r2c_equals_numpy_rfftn(rng.integers(0, 256, shape, dtype=np.uint8))


@pytest.mark.parametrize("nh", [1, 2, 15, 16, 17, 33, 67])
def test_tc_on_tall_planes_equals_float64_reference_bit_for_bit(nh):
    # a band holds 9 block rows of this width, so from nh = 10 on the
    # spectra are taken in several bands; those of a plane of one block
    # row sum in another order than those of a taller plane
    rng = np.random.default_rng(nh)
    prev, curr = rng.integers(0, 256, (2, TC_BLOCK * nh + 13, 7 * TC_BLOCK + 19), dtype=np.uint8)
    assert_equals_float64_reference("temporal_coherence", prev, curr)


@pytest.mark.parametrize("chroma_rows", [15, 16, 17, 32, 33, 65, 128, 135])
def test_cf_on_tall_planes_equals_float64_reference_bit_for_bit(chroma_rows):
    # a band holds 16 chroma rows of this width; more rows are converted
    # a band at a time
    assert features_vod._band_rows(4 * 1029) == 16
    rng = np.random.default_rng(chroma_rows)
    luma = rng.integers(0, 256, (2 * chroma_rows, 2 * 1029), dtype=np.uint8)
    cb, cr = rng.integers(0, 256, (2, chroma_rows, 1029), dtype=np.uint8)
    assert_equals_float64_reference("colorfulness", luma, cb, cr)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 40), st.sampled_from([16, 48, 8192]))
def test_cf_in_small_bands_equals_float64_reference_bit_for_bit(data, ch, cw, bufsize):
    # bands of one or two chroma rows, leaves of 16 values and numpy
    # buffers of `bufsize` values, so a buffer and a leaf span many bands
    luma, = data.draw(uint8_planes((2 * ch, 2 * cw), 1))
    cb, cr = data.draw(uint8_planes((ch, cw), 2))
    old = np.setbufsize(bufsize)
    try:
        with mock.patch.object(features_vod, "_BAND_PIXELS", 8), \
                mock.patch.object(stats, "_LEAF", 16):
            assert_equals_float64_reference("colorfulness", luma, cb, cr)
    finally:
        np.setbufsize(old)


# ------------------------------------------------------- peak memory

def traced_peak_and_left(call):
    """(peak, left) traced bytes of `call()`, with the cycle collector off."""
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[::-1]
    finally:
        tracemalloc.stop()
        gc.enable()


# name: (module, arity, peak traced bytes per luma pixel of one call on
# the frames below, as measured; each bound allows 1 byte more)
_PEAK_PER_PIXEL = {
    "glcm_descriptors": (features_vod, 1, 0.47),
    "spatial_information": (features_vod, 1, 0.94),
    "colorfulness": (features_vod, 3, 1.81),
    "noise_estimate": (features_vod, 1, 0.22),
    "temporal_coherence": (features_vod, 2, 0.77),
    "temporal_information": (features_vod, 2, 0.32),
    "ncc": (features_vod, 2, 0.80),
    "block_energies": (features_live, 1, 0.49),
}


@pytest.fixture(scope="module")
def hd_frame_args():
    """{arity: the arguments of a descriptor on seeded random 1920x1080 frames}."""
    rng = np.random.default_rng(3)
    luma = rng.integers(0, 256, (2, 1080, 1920), dtype=np.uint8)
    chroma = rng.integers(0, 256, (2, 540, 960), dtype=np.uint8)
    # load what the kernels load on first use before any trace: the cached
    # pocketfft module
    features_vod._pocketfft()
    return {1: (luma[0],), 2: (luma[0], luma[1]), 3: (luma[0], chroma[0], chroma[1])}


@pytest.mark.parametrize("name", sorted(_PEAK_PER_PIXEL))
def test_descriptor_peak_memory_per_luma_pixel(hd_frame_args, name):
    # no kernel holds a whole plane of the frame's size: SI forms |g|^2
    # and CF its two float32 opponent planes in row bands, once for the
    # mean and once for the deviations, TC holds the spectra of one band
    # of block rows at a time, and the rest work in row bands, block-row
    # bands or summation leaves
    module, arity, measured = _PEAK_PER_PIXEL[name]
    args = hd_frame_args[arity]
    peak, left = traced_peak_and_left(lambda: getattr(module, name)(*args))
    assert peak / args[0].size <= measured + 1.0
    # all of it is freed without the cycle collector: a plane held by a
    # reference cycle would stay until the next collection and add up
    # over the frames of a clip
    assert left < 1 << 16


@pytest.mark.parametrize("extract, measured", [(extract_vod, 4.32), (extract_live, 2.76)],
                         ids=["extract_vod", "extract_live"])
def test_extractor_peak_memory_per_luma_pixel(make_clip, extract, measured):
    # peak traced bytes per luma pixel of a seeded 3-frame 1920x1080 clip,
    # as measured; the bound allows 1 byte more.  `read_frames` gives every
    # plane its own array, so a kept luma plane (TC, TI and NCC read the
    # previous one) holds no chroma, and the live DCT holds one block row
    # of float64 at a time
    rng = np.random.default_rng(17)
    clip = make_clip([(rng.integers(0, 256, (1080, 1920), dtype=np.uint8),
                       rng.integers(0, 256, (540, 960), dtype=np.uint8),
                       rng.integers(0, 256, (540, 960), dtype=np.uint8)) for _ in range(3)])
    extract(clip)  # imports what the statistics import on first use
    peak, left = traced_peak_and_left(lambda: extract(clip))
    assert peak / (clip.width * clip.height) <= measured + 1.0
    assert left < 1 << 16


# ---------------------------------------------------------------- GLCM

def test_glcm_constant_plane():
    plane = np.full((16, 16), 77, dtype=np.uint8)
    con, cor, enr, hom, ent = glcm_descriptors(plane)
    assert con == 0.0
    assert cor == 1.0
    assert enr == 1.0
    assert hom == 1.0
    assert ent == 0.0


def test_glcm_two_level_hand_enumeration():
    # quantized levels (0,0),(1,1): the (0,1) pairs are (0,0) and (1,1),
    # the (1,0) pairs (0,1) twice; made symmetric, each of the four level
    # pairs has p = 1/4, and the row marginal is (1/2, 1/2)
    plane = np.array([[0, 0], [8, 8]], dtype=np.uint8)
    con, cor, enr, hom, ent = glcm_descriptors(plane)
    assert con == pytest.approx(0.5, abs=1e-12)  # 2 * 1/4 * 1^2
    assert cor == pytest.approx(0.0, abs=1e-12)  # cov 1/4 - (1/2)^2 = 0
    assert enr == pytest.approx(0.25, abs=1e-12)  # 4 * (1/4)^2
    assert hom == pytest.approx(0.75, abs=1e-12)  # 2 * 1/4 + 2 * 1/4 / 2
    assert ent == pytest.approx(2.0, abs=1e-12)  # four equal cells


def test_glcm_matches_pair_counting_oracle():
    rng = np.random.default_rng(11)
    plane = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    got = glcm_descriptors(plane)
    want = glcm_oracle(plane)
    assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------- temporal coherence

def test_tc_identical_frames():
    rng = np.random.default_rng(2)
    plane = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    mean, std, skw, kur, entr = temporal_coherence(plane, plane)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)
    assert skw == 0.0  # zero-variance convention
    assert entr == 0.0  # all mass in the top histogram bin


def test_tc_cyclic_shift_invariance():
    rng = np.random.default_rng(3)
    plane = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    shifted = np.roll(plane, 1, axis=1)
    mean, std, *_ = temporal_coherence(plane, shifted)
    assert mean == pytest.approx(1.0, abs=1e-9)
    assert std == pytest.approx(0.0, abs=1e-9)


def test_tc_matches_dft_oracle():
    rng = np.random.default_rng(4)
    prev = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    curr = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    mean, *_ = temporal_coherence(prev, curr)
    want = tc_oracle(prev, curr)
    assert mean == pytest.approx(np.mean(want), abs=1e-9)
    assert abs(mean) < 0.5  # independent noise: near zero


# ------------------------------------------------------------ SI / TI

def test_si_constant_plane():
    assert spatial_information(np.full((8, 8), 50, dtype=np.uint8)) == 0.0


def test_si_step_edge_matches_sobel_oracle():
    plane = np.zeros((10, 10), dtype=np.uint8)
    plane[:, 5:] = 200
    assert spatial_information(plane) == pytest.approx(sobel_si_oracle(plane), abs=1e-9)


def test_si_random_matches_sobel_oracle():
    rng = np.random.default_rng(5)
    plane = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    assert spatial_information(plane) == pytest.approx(sobel_si_oracle(plane), rel=1e-12)


def test_ti_trivial_cases():
    a = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert temporal_information(a, a) == 0.0
    assert temporal_information(a, a + np.uint8(10)) == 0.0
    half = np.zeros((8, 8), dtype=np.uint8)
    half[:, 4:] = 10
    assert temporal_information(np.zeros((8, 8), dtype=np.uint8), half) == 5.0


def test_ti_matches_oracle():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    b = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    assert temporal_information(a, b) == pytest.approx(ti_oracle(a, b), rel=1e-12)


# ------------------------------------------------------------ CF

@pytest.mark.parametrize("yuv", [(81, 128, 128), (63, 102, 240), (235, 16, 240), (16, 240, 16)],
                         ids=["gray", "red", "clipped-magenta", "clipped-blue"])
def test_cf_of_constant_colour_frame_closed_form(yuv):
    # every pixel has one colour, so both stds are 0 and CF is 0.3 times
    # the hypot of that colour's opponent values rg and yb
    y, cb, cr = (np.full(shape, v, dtype=np.uint8) for shape, v in zip(((8, 12), (4, 6), (4, 6)), yuv))
    r, g, b = (float(p[0, 0]) for p in yuv420_to_rgb(y, cb, cr))
    want = 0.3 * np.hypot(r - g, 0.5 * (r + g) - b)
    assert colorfulness(y, cb, cr) == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_cf_on_gray_yuv_frame_zero():
    y = np.full((8, 8), 81, dtype=np.uint8)
    c = np.full((4, 4), 128, dtype=np.uint8)
    assert colorfulness(y, c, c) == pytest.approx(0.0, abs=1e-9)


# ------------------------------------------------------------ noise

def test_noise_constant_and_ramp_zero():
    assert noise_estimate(np.full((8, 8), 40, dtype=np.uint8)) == 0.0
    ramp = np.tile(np.arange(0, 240, 15, dtype=np.uint8), (8, 1))
    assert noise_estimate(ramp) == 0.0
    assert noise_estimate(ramp.T.copy()) == 0.0


def test_noise_recovers_gaussian_sigma():
    rng = np.random.default_rng(9)
    noisy = np.round(128.0 + rng.normal(0.0, 5.0, (256, 256)))
    plane = np.clip(noisy, 0, 255).astype(np.uint8)
    est = noise_estimate(plane)
    assert abs(est - 5.0) / 5.0 < 0.15


def test_noise_matches_convolution_oracle():
    rng = np.random.default_rng(10)
    plane = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    assert noise_estimate(plane) == pytest.approx(noise_oracle(plane), rel=1e-12)


# ------------------------------------------------------------ NCC

def test_ncc_trivial_cases():
    rng = np.random.default_rng(12)
    a = rng.integers(0, 126, (8, 8), dtype=np.uint8)
    assert ncc(a, a) == pytest.approx(1.0, abs=1e-12)
    assert ncc(a, 2 * a + 3) == pytest.approx(1.0, abs=1e-12)
    assert ncc(a, 255 - a) == pytest.approx(-1.0, abs=1e-12)
    const = np.full((8, 8), 9, dtype=np.uint8)
    assert ncc(const, const) == 1.0
    assert ncc(const, a) == 0.0


def test_ncc_matches_oracle():
    rng = np.random.default_rng(13)
    a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    b = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    assert ncc(a, b) == pytest.approx(ncc_oracle(a, b), abs=1e-12)


# ------------------------------------------------------------ contracts

@pytest.mark.parametrize("name, arity", [
    ("glcm_descriptors", 1), ("spatial_information", 1), ("noise_estimate", 1),
    ("temporal_coherence", 2), ("temporal_information", 2), ("ncc", 2), ("colorfulness", 3),
])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
def test_descriptors_refuse_planes_that_are_not_uint8(name, arity, dtype):
    # `read_frames` gives uint8 planes; TI's exact-integer mean, for one,
    # would truncate a float plane
    plane = np.full((64, 64), 100, dtype=np.uint8)
    for k in range(arity):
        args = [plane, plane, plane[::2, ::2]][:arity]
        args[k] = args[k].astype(dtype)
        with pytest.raises(ContractError, match=f"uint8 planes, got {np.dtype(dtype)}"):
            getattr(features_vod, name)(*args)


@pytest.mark.parametrize("cb_shape, cr_shape", [((32,), (32,)), ((16, 16), (16, 15)),
                                                 ((16, 16), (16, 16)), ((8, 8, 1), (8, 8, 1))])
def test_cf_refuses_chroma_not_half_size_of_luma(cb_shape, cr_shape):
    luma = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ContractError, match="chroma planes are not half-size of luma"):
        colorfulness(luma, np.zeros(cb_shape, dtype=np.uint8), np.zeros(cr_shape, dtype=np.uint8))


# ------------------------------------------------------- extract_vod

def test_extract_vod_constant_clip(make_clip):
    lumas = [np.full((64, 64), 100, dtype=np.uint8)] * 2
    clip = make_clip(gray_frames(lumas))
    vec = extract_vod(clip)
    f = dict(zip(VOD_FEATURE_NAMES, vec.values))
    assert f["mean_SI"] == 0.0 and f["std_SI"] == 0.0
    assert f["mean_TI"] == 0.0 and f["std_TI"] == 0.0
    assert f["mean_NCC"] == 1.0 and f["std_NCC"] == 0.0
    assert f["meanGLCM_enr"] == 1.0
    assert f["mean_CF"] == pytest.approx(0.0, abs=1e-9)
    assert f["mean_Noise"] == pytest.approx(0.0, abs=1e-9)


def test_extract_vod_shape_and_order(make_clip):
    rng = np.random.default_rng(14)
    lumas = [rng.integers(0, 256, (64, 64), dtype=np.uint8) for _ in range(3)]
    clip = make_clip(gray_frames(lumas))
    vec = extract_vod(clip)
    assert len(vec.values) == 30
    assert np.all(np.isfinite(vec.values))
    f = dict(zip(VOD_FEATURE_NAMES, vec.values))
    # spot-check named slots against direct recomputation
    si = [sobel_si_oracle(y) for y in lumas]
    assert f["mean_SI"] == pytest.approx(np.mean(si), rel=1e-9)
    assert f["std_SI"] == pytest.approx(np.std(si), rel=1e-9)
    ti = [ti_oracle(lumas[i], lumas[i + 1]) for i in range(2)]
    assert f["mean_TI"] == pytest.approx(np.mean(ti), rel=1e-9)
    tcs = [np.mean(tc_oracle(lumas[i], lumas[i + 1])) for i in range(2)]
    assert f["meanTC_mean"] == pytest.approx(np.mean(tcs), abs=1e-9)
    assert f["stdTC_mean"] == pytest.approx(np.std(tcs), abs=1e-9)


def test_extract_vod_golden_frozen(make_clip):
    # straight-line reference run once; guards against silent drift
    rng = np.random.default_rng(99)
    lumas = [rng.integers(0, 256, (32, 32), dtype=np.uint8) for _ in range(2)]
    clip = make_clip(gray_frames(lumas))
    vec = extract_vod(clip)
    f = dict(zip(VOD_FEATURE_NAMES, vec.values))
    assert f["meanGLCM_con"] == pytest.approx(np.mean(
        [glcm_oracle(y)[0] for y in lumas]), abs=1e-9)
    assert f["mean_Noise"] == pytest.approx(np.mean(
        [noise_oracle(y) for y in lumas]), rel=1e-9)
    assert f["mean_NCC"] == pytest.approx(ncc_oracle(lumas[0], lumas[1]), abs=1e-9)
