import math

import numpy as np
import pytest

from ladderlab.features_live import block_energies
from ladderlab.features_vod import ncc, temporal_information
from ladderlab.media_io import read_frames
from ladderlab.rd_core import build_rd_curve, cross_over
from ladderlab.synth import (
    ResolutionLaw,
    SynthParams,
    corpus_specs,
    synth_clip,
    synth_rd,
)


def test_synth_rd_crossover_matches_closed_form():
    laws = {
        (720, 480): ResolutionLaw(q_cap=45.0, intercept=30.0, slope=2.0),
        (1280, 720): ResolutionLaw(q_cap=50.0, intercept=20.0, slope=4.0),
    }
    params = SynthParams(laws=laws, seed=0)
    qp_set = list(range(10, 52))
    samples = synth_rd(params, qp_set)
    lower = build_rd_curve(samples[(720, 480)], (720, 480), "ypsnr")
    higher = build_rd_curve(samples[(1280, 720)], (1280, 720), "ypsnr")
    got = cross_over(lower, higher, 40000)
    want = math.exp(5.0)
    assert abs(got - want) / want < 0.005


def test_synth_rd_qp_step_halves_rate():
    laws = {(720, 480): ResolutionLaw(q_cap=60.0, intercept=30.0, slope=2.0)}
    params = SynthParams(laws=laws, seed=1)
    samples = synth_rd(params, [26, 32, 38])[(720, 480)]
    assert samples[0].bitrate == pytest.approx(2.0 * samples[1].bitrate, rel=1e-12)
    assert samples[1].bitrate == pytest.approx(2.0 * samples[2].bitrate, rel=1e-12)


def test_synth_rd_deterministic():
    laws = {
        (720, 480): ResolutionLaw(q_cap=60.0, intercept=30.0, slope=2.0,
                                  noise_sigma=0.5)
    }
    a = synth_rd(SynthParams(laws=laws, seed=7), range(20, 40))
    b = synth_rd(SynthParams(laws=laws, seed=7), range(20, 40))
    assert a == b


def test_synth_clip_constant_when_flat(tmp_path):
    clip = synth_clip(tmp_path / "flat.yuv", "flat", 64, 64, 3,
                      texture_sigma=0.0, motion=0.0, seed=0)
    frames = list(read_frames(clip))
    for y, cb, cr in frames:
        assert np.all(y == 128)
        assert np.all(cb == 128) and np.all(cr == 128)


def test_synth_clip_static_content(tmp_path):
    clip = synth_clip(tmp_path / "static.yuv", "static", 64, 64, 4,
                      texture_sigma=10.0, motion=0.0, seed=3)
    lumas = [y for y, _, _ in read_frames(clip)]
    assert temporal_information(lumas[0], lumas[1]) == 0.0
    assert ncc(lumas[0], lumas[1]) == 1.0


def test_synth_clip_energy_monotone_in_texture(tmp_path):
    for seed in range(5):
        e_low = []
        e_high = []
        for sigma, bucket in ((4.0, e_low), (24.0, e_high)):
            clip = synth_clip(
                tmp_path / f"t{seed}_{sigma}.yuv", f"t{seed}_{sigma}",
                64, 64, 2, texture_sigma=sigma, motion=0.0, seed=seed,
            )
            y = next(iter(read_frames(clip)))[0]
            bucket.append(block_energies(y).mean())
        assert e_high[0] > e_low[0]


def test_synth_clip_deterministic(tmp_path):
    a = tmp_path / "a.yuv"
    b = tmp_path / "b.yuv"
    synth_clip(a, "a", 64, 64, 3, texture_sigma=8.0, motion=1.5, seed=5)
    synth_clip(b, "b", 64, 64, 3, texture_sigma=8.0, motion=1.5, seed=5)
    assert a.read_bytes() == b.read_bytes()


def test_corpus_specs_reproducible_and_coupled():
    a = corpus_specs(10, seed=0)
    b = corpus_specs(10, seed=0)
    assert [s.clip_id for s in a] == [f"synth{i:04d}" for i in range(10)]
    assert [(s.texture_sigma, s.motion, s.seed) for s in a] == [
        (s.texture_sigma, s.motion, s.seed) for s in b
    ]
    # designed cross-overs move with complexity
    for s in a:
        c = math.log1p(s.texture_sigma) + 0.35 * s.motion
        laws = s.params.laws
        res = sorted(laws, key=lambda t: t[0] * t[1])
        l0, l1 = laws[res[0]], laws[res[1]]
        # the first two laws intersect exactly at ln rate = 5 + complexity
        meet = (l1.intercept - l0.intercept) / (l0.slope - l1.slope)
        assert meet == pytest.approx(5.0 + c, abs=1e-9)
