import importlib.metadata
from unittest import mock

import numpy as np
import pytest

from conftest import gray_frames
from ladderlab import features_vod, media_io
from ladderlab.cli import main
from ladderlab.errors import ContractError, ValidationError
from ladderlab.features_live import (
    LIVE_FEATURE_NAMES,
    block_energies,
    energy_gradient,
    extract_live,
    temporal_energy,
)
from oracles import (
    dct_energy_oracle,
    scipy_block_dct,
    temporal_energy_oracle,
    whole_plane_block_energies,
)


def test_constant_plane_energy_zero_brightness_value(make_clip):
    plane = np.full((32, 64), 200, dtype=np.uint8)
    assert block_energies(plane).mean() == 0.0
    # BR is the mean luma of the tiled area: the margin beyond the last
    # full 32x32 block is left out.
    framed = np.zeros((40, 72), dtype=np.uint8)
    framed[:32, :64] = plane
    f = dict(zip(LIVE_FEATURE_NAMES, extract_live(make_clip(gray_frames([framed] * 3))).values))
    assert f["mean_E"] == 0.0
    assert f["mean_BR"] == 200.0


def test_checkerboard_block_matches_dct_oracle():
    i, j = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    plane = (255 * ((i + j) % 2)).astype(np.uint8)
    e = block_energies(plane).mean()
    want = dct_energy_oracle(plane)[0]
    assert e == pytest.approx(want, rel=1e-9)


def test_random_plane_matches_dct_oracle():
    rng = np.random.default_rng(20)
    plane = rng.integers(0, 256, (64, 96), dtype=np.uint8)
    got = block_energies(plane)
    want = dct_energy_oracle(plane)
    assert got == pytest.approx(want, rel=1e-6)


def _tall_plane(nh):
    # neither side is a multiple of the 32x32 block, so the crop is covered
    rng = np.random.default_rng(nh)
    return rng.integers(0, 256, (32 * nh + 13, 32 * (nh % 5 + 1) + 19), dtype=np.uint8)


@pytest.mark.parametrize("nh", [1, 7, 8, 15, 16, 17, 67])
def test_block_energies_on_tall_planes_equal_whole_plane_reference_bit_for_bit(nh):
    # at these widths a band holds 16 or more whole block rows, so nh = 67
    # is split into bands
    plane = _tall_plane(nh)
    assert block_energies(plane).tobytes() == whole_plane_block_energies(plane).tobytes()


@pytest.mark.parametrize("nh", [1, 2, 17])
def test_block_energies_in_one_block_row_bands_equal_whole_plane_reference(nh):
    # every band is one block row, as at 1080p and 2160p
    plane = _tall_plane(nh)
    with mock.patch.object(features_vod, "_BAND_PIXELS", 1):
        got = block_energies(plane)
    assert got.tobytes() == whole_plane_block_energies(plane).tobytes()


@pytest.mark.parametrize("shape", [(1080, 1920), (2160, 3840), (96, 128), (64, 4099)])
def test_loaded_dct_equals_scipy_fft_dctn_bit_for_bit(shape):
    rng = np.random.default_rng(shape[1])
    nh, nw = shape[0] // 32, shape[1] // 32
    plane = rng.integers(0, 256, shape).astype(np.float64)[: nh * 32, : nw * 32]
    blocks = plane.reshape(nh, 32, nw, 32)
    got = features_vod.pocketfft().dct(blocks, 2, (1, 3), 1, None, 1, None)
    assert got.tobytes() == scipy_block_dct(blocks).tobytes()


def test_missing_pocketfft_module_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "m.jsonl"
    assert main(["synth", "clip", "--out", str(tmp_path / "c0.yuv"), "--clip-id", "c0",
                 "--width", "64", "--height", "64", "--frames", "3",
                 "--manifest", str(manifest)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setattr(features_vod, "_pocketfft_dir", lambda: str(empty))
    # both feature sets load the module: TC's spectra and the live DCT
    for kind in ("vod", "live"):
        features_vod.pocketfft.cache_clear()
        out = tmp_path / f"{kind}.csv"
        capsys.readouterr()
        try:
            assert main(["features", kind, "--manifest", str(manifest), "--out", str(out)]) == 1
        finally:
            features_vod.pocketfft.cache_clear()
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert err == (f"error: c0: scipy's compiled pocketfft module pypocketfft not found in "
                       f"{empty} (scipy {importlib.metadata.version('scipy')})\n")
        assert not out.exists()


def test_temporal_energy_trivial_and_oracle():
    rng = np.random.default_rng(21)
    a = rng.uniform(0, 10, 6)
    assert temporal_energy(a, a) == 0.0
    assert temporal_energy(a, a + 3.0) == pytest.approx(3.0, abs=1e-12)
    pa = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    pb = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    got = temporal_energy(block_energies(pa), block_energies(pb))
    assert got == pytest.approx(temporal_energy_oracle(pa, pb), rel=1e-9)


def test_temporal_energy_tiling_mismatch():
    with pytest.raises(ContractError):
        temporal_energy(np.zeros(4), np.zeros(6))


def test_energy_gradient():
    assert energy_gradient(2.0, 2.0) == 0.0
    assert energy_gradient(2.0, 3.0) == pytest.approx(0.5, abs=1e-12)
    assert energy_gradient(0.0, 5.0) == 0.0
    with pytest.raises(ContractError):
        energy_gradient(-1.0, 1.0)


def test_extract_live_constant_clip(make_clip):
    lumas = [np.full((64, 64), 90, dtype=np.uint8)] * 3
    clip = make_clip(gray_frames(lumas))
    vec = extract_live(clip)
    f = dict(zip(LIVE_FEATURE_NAMES, vec.values))
    for stat in ("mean", "std", "min", "max", "p50"):
        assert f[f"{stat}_E"] == 0.0
        assert f[f"{stat}_h"] == 0.0
        assert f[f"{stat}_eps"] == 0.0
    assert f["mean_BR"] == 90.0
    assert f["std_BR"] == 0.0


def test_extract_live_percentile_ordering(make_clip):
    rng = np.random.default_rng(22)
    lumas = [rng.integers(0, 256, (64, 64), dtype=np.uint8) for _ in range(6)]
    clip = make_clip(gray_frames(lumas))
    vec = extract_live(clip)
    f = dict(zip(LIVE_FEATURE_NAMES, vec.values))
    for series in ("E", "h", "eps", "BR"):
        assert (
            f[f"min_{series}"]
            <= f[f"p25_{series}"]
            <= f[f"p50_{series}"]
            <= f[f"p75_{series}"]
            <= f[f"max_{series}"]
        )
        assert f[f"iqr_{series}"] == pytest.approx(
            f[f"p75_{series}"] - f[f"p25_{series}"], abs=1e-12
        )


def test_extract_live_golden_series(make_clip):
    rng = np.random.default_rng(23)
    lumas = [rng.integers(0, 256, (32, 32), dtype=np.uint8) for _ in range(4)]
    clip = make_clip(gray_frames(lumas))
    vec = extract_live(clip)
    f = dict(zip(LIVE_FEATURE_NAMES, vec.values))
    e = [np.mean(dct_energy_oracle(y)) for y in lumas]
    h = [temporal_energy_oracle(lumas[i], lumas[i + 1]) for i in range(3)]
    eps = [abs(h[i + 1] - h[i]) / h[i] for i in range(2)]
    assert f["mean_E"] == pytest.approx(np.mean(e), rel=1e-9)
    assert f["mean_h"] == pytest.approx(np.mean(h), rel=1e-9)
    assert f["mean_eps"] == pytest.approx(np.mean(eps), rel=1e-9)
    assert f["mean_BR"] == pytest.approx(np.mean([y.mean() for y in lumas]), rel=1e-9)


def test_extract_live_reads_no_chroma_plane(make_clip, monkeypatch):
    rng = np.random.default_rng(24)
    clip = make_clip(gray_frames([rng.integers(0, 256, (64, 96), dtype=np.uint8)
                                  for _ in range(3)]))
    want = extract_live(clip)
    planes = []
    getitem = media_io.PlaneRows.__getitem__

    def recording(self, rows):
        planes.append((self._frame_index, self.shape))
        return getitem(self, rows)

    monkeypatch.setattr(media_io.PlaneRows, "__getitem__", recording)
    assert extract_live(clip) == want
    assert sorted(set(planes)) == [(i, (64, 96)) for i in range(3)]


def test_extract_live_needs_three_frames(make_clip):
    lumas = [np.full((64, 64), 10, dtype=np.uint8)] * 2
    clip = make_clip(gray_frames(lumas))
    with pytest.raises(ValidationError):
        extract_live(clip)
