"""Synthetic clips and RD samples for desk-scale testing.

The rate model r(qp) = r0 * 2^((qp0 - qp) / 6) encodes the usual
"+6 QP halves the rate" rule, so ladders built from synthetic samples
have analytically known cross-overs when the noise is zero.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .media_io import VideoClip, write_frames
from .pipeline import json_integer, json_number, json_object, read_input, write_output
from .rd_core import LADDER_RESOLUTIONS, RDPoint
from .stats import check_seed, seeded_rng

SYNTH_REF_QP = 32
_CORPUS_RD_NOISE = 0.15


@dataclass(frozen=True)
class ResolutionLaw:
    """q(r) = min(q_cap, a + b * ln r) + noise, rate anchored at QP 32."""

    q_cap: float
    intercept: float
    slope: float
    noise_sigma: float = 0.0
    rate_at_ref_qp: float = 1000.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise ValidationError(f"law parameters must be finite, got {self}")
        if self.slope <= 0:
            raise ValidationError("slope must be positive")
        if self.rate_at_ref_qp <= 0:
            raise ValidationError("rate_at_ref_qp must be positive")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")


@dataclass(frozen=True)
class SynthParams:
    laws: dict  # resolution tuple -> ResolutionLaw
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        caps = [self.laws[r].q_cap for r in sorted(self.laws, key=lambda t: t[0] * t[1])]
        if any(b < a for a, b in zip(caps, caps[1:])):
            raise ValidationError("quality caps must not decrease with resolution")


def load_params(path, seed=0):
    """SynthParams from a JSON params file; `seed` applies when the file has none."""
    with read_input(path, "params file") as source:
        doc = source.json()
        laws = {}
        for res_str, law in json_object(doc["resolutions"], "resolutions").items():
            w, h = (int(v) for v in res_str.split("x"))
            law = json_object(law, res_str)
            laws[(w, h)] = ResolutionLaw(**{k: json_number(law, k) for k in law})
        return SynthParams(laws=laws, seed=json_integer(doc, "seed") if "seed" in doc else seed)


def synth_rd(params, qp_set):
    """Deterministic RD samples per resolution from the synthetic laws."""
    out = {}
    for i, resolution in enumerate(sorted(params.laws, key=lambda t: t[0] * t[1])):
        law = params.laws[resolution]
        rng = seeded_rng(params.seed, i)
        points = []
        for qp in qp_set:
            rate = law.rate_at_ref_qp * 2.0 ** ((SYNTH_REF_QP - qp) / 6.0)
            quality = min(law.q_cap, law.intercept + law.slope * math.log(rate))
            if law.noise_sigma > 0:
                quality += float(rng.normal(0.0, law.noise_sigma))
            points.append(RDPoint(bitrate=rate, quality=quality, qp=qp))
        out[resolution] = points
    return out


def synth_clip(path, clip_id, width, height, frames, texture_sigma, motion,
               seed, fps=60.0):
    """Write a seeded filtered-noise clip translated toroidally per frame.

    Returns the VideoClip record describing the written file.  Chroma is
    flat 128 (achromatic), so colorfulness-driven cases stay trivial.
    """
    clip = VideoClip(
        clip_id=clip_id,
        path=str(path),
        width=width,
        height=height,
        fps=fps,
        frame_count=frames,
    )
    # Checked, like the clip record, before the file is written: a NaN
    # shift cannot be rounded to an int, and a NaN pixel has no uint8 value.
    if not (math.isfinite(texture_sigma) and texture_sigma >= 0):
        raise ValidationError(
            f"{clip_id}: texture sigma must be finite and non-negative, got {texture_sigma}")
    if not math.isfinite(motion):
        raise ValidationError(f"{clip_id}: motion must be finite, got {motion}")
    rng = seeded_rng(seed, 0xC11F)
    base = rng.normal(0.0, 1.0, size=(height, width))
    base = ndimage.gaussian_filter(base, sigma=1.5, mode="wrap")
    # Renormalize after smoothing so texture_sigma is the pixel std.
    base = base / max(base.std(), 1e-12) * texture_sigma + 128.0
    cb = np.full((height // 2, width // 2), 128, dtype=np.uint8)
    cr = cb

    def frame_iter():
        for t in range(frames):
            shift = int(round(motion * t))
            luma = np.roll(base, (shift, shift), axis=(0, 1))
            yield np.clip(np.rint(luma), 0, 255).astype(np.uint8), cb, cr

    with write_output(path, "wb") as f:
        write_frames(f, frame_iter())
    return clip


@dataclass(frozen=True)
class CorpusClipSpec:
    """One synthetic clip plus its feature-coupled RD laws."""

    clip_id: str
    texture_sigma: float
    motion: float
    seed: int
    params: SynthParams = field(repr=False)


def corpus_specs(n_clips, seed):
    """Design a corpus whose cross-overs are driven by clip complexity.

    Texture and motion strengths are drawn per clip; the RD laws are
    derived so every cross-over sits at ln P_k = base_k + complexity,
    which the extracted features can recover.  Each law adds Gaussian
    quality noise of standard deviation _CORPUS_RD_NOISE.
    """
    rng = seeded_rng(seed, 0xC0)
    slopes = (2.0, 3.2, 4.6, 6.4)
    caps = (200.0, 210.0, 220.0, 230.0)
    specs = []
    for i in range(n_clips):
        texture = float(rng.uniform(2.0, 28.0))
        motion = float(rng.uniform(0.0, 4.0))
        complexity = math.log1p(texture) + 0.35 * motion
        ln_p = [5.0 + complexity, 6.2 + complexity, 7.4 + complexity]
        # Anchor the SD curve at 35 quality units at P1, then chain the
        # other intercepts so consecutive curves meet exactly at ln_p.
        intercepts = [35.0 - slopes[0] * ln_p[0]]
        for k in range(3):
            intercepts.append(
                intercepts[k] + (slopes[k] - slopes[k + 1]) * ln_p[k]
            )
        anchors = [
            math.exp(ln_p[0]),
            math.exp(0.5 * (ln_p[0] + ln_p[1])),
            math.exp(0.5 * (ln_p[1] + ln_p[2])),
            math.exp(ln_p[2] + 0.5),
        ]
        laws = {
            res: ResolutionLaw(
                q_cap=caps[k],
                intercept=intercepts[k],
                slope=slopes[k],
                noise_sigma=_CORPUS_RD_NOISE,
                rate_at_ref_qp=anchors[k],
            )
            for k, res in enumerate(LADDER_RESOLUTIONS)
        }
        specs.append(
            CorpusClipSpec(
                clip_id=f"synth{i:04d}",
                texture_sigma=texture,
                motion=motion,
                seed=int(seed) * 100003 + i,
                params=SynthParams(laws=laws, seed=int(seed) * 7 + i),
            )
        )
    return specs
