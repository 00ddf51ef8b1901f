"""Golden feature vectors of a small multi-slice clip.

`tests/golden/features.json` holds the VoD and live vectors that the
feature extractors computed for the clip built by `golden_frames`, and
they still reproduce them bit for bit: a kernel that reorders a float
sum shows up here as surely as a changed feature definition.
"""

import json
from pathlib import Path

import numpy as np

from ladderlab import features_live, features_vod
from ladderlab.features_live import LIVE_FEATURE_NAMES, extract_live
from ladderlab.features_vod import VOD_FEATURE_NAMES, extract_vod
from oracles import FLOAT64_VOD, whole_plane_block_energies

GOLDEN = Path(__file__).parent / "golden" / "features.json"


def golden_frames(width=648, height=200, frames=4):
    """Seeded textured 4:2:0 frames that drift by 3 pixels per frame.

    Rows exceed one slice of the VoD kernels, and neither dimension is a
    multiple of the 32x32 block, so cropping and slice seams are covered.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xFE, 7]))
    pad = 3 * frames
    noise = rng.normal(0.0, 1.0, (height + pad, width + pad))
    # a 5x5 box blur gives the texture some spatial correlation
    blurred = sum(
        np.roll(np.roll(noise, i, 0), j, 1) for i in range(5) for j in range(5)
    ) / 5.0
    ramp = np.linspace(40.0, 200.0, width + pad)[None, :]
    luma = np.clip(ramp + 25.0 * blurred, 0, 255).astype(np.uint8)
    chroma = rng.integers(96, 160, (height // 2, width // 2, 2), dtype=np.uint8)
    return [
        (
            luma[3 * k : 3 * k + height, 3 * k : 3 * k + width],
            np.roll(chroma[..., 0], k, 1),
            np.roll(chroma[..., 1], k, 0),
        )
        for k in range(frames)
    ]


def test_features_match_golden_vectors(make_clip):
    clip = make_clip(golden_frames())
    golden = json.loads(GOLDEN.read_text())
    got = {
        "vod": dict(zip(VOD_FEATURE_NAMES, extract_vod(clip).values)),
        "live": dict(zip(LIVE_FEATURE_NAMES, extract_live(clip).values)),
    }
    for kind in ("vod", "live"):
        for name, want in golden[kind].items():
            assert got[kind][name] == want, (kind, name)


def test_vod_vector_equals_float64_reference(make_clip, monkeypatch):
    # the exact-integer kernels give the float64 reference's vector, bit
    # for bit; the references take whole planes, read from the row readers,
    # and take their own means, not the sums TI and NCC are handed
    clip = make_clip(golden_frames())
    got = extract_vod(clip).values
    for name, reference in FLOAT64_VOD.items():
        monkeypatch.setattr(features_vod, name, lambda *planes, ref=reference, sums=None:
                            ref(*(p[:] for p in planes)))
    assert got == extract_vod(clip).values


def test_live_vector_equals_whole_plane_reference(make_clip, monkeypatch):
    # the banded DCT and sum give the whole-plane energies' and tiled
    # sum's vector, bit for bit
    def whole_plane_values(luma):
        luma = luma[:]
        tiled = luma[: luma.shape[0] // 32 * 32, : luma.shape[1] // 32 * 32]
        return whole_plane_block_energies(luma), int(tiled.sum(dtype=np.int64))

    clip = make_clip(golden_frames())
    got = extract_live(clip).values
    monkeypatch.setattr(features_live, "_tiled_values", whole_plane_values)
    assert got == extract_live(clip).values
