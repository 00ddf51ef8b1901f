"""Golden artifacts of the RD path: hull ladders and the evaluate report.

`tests/golden/` holds the bytes that `rd build` -> `hull` -> `evaluate`
wrote for a small seeded `synth.corpus_specs` RD set when rd_core still
interpolated with `scipy.interpolate.PchipInterpolator`.  Any change to
the interpolant's arithmetic or to the cross-over search shows up here.
`tests/golden/curves.sha256` holds the digest of every curve file that
`rd build` wrote there with `json.dump(doc, sort_keys=True, indent=1)`.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

from ladderlab import pipeline, rd_core, synth
from ladderlab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def write_rd_inputs(out):
    """Write the seeded RD samples and a perturbed "predicted" ladder CSV."""
    specs = synth.corpus_specs(16, seed=5)
    rows = [
        (spec.clip_id, "avc", "software", res, point, "ypsnr")
        for spec in specs
        for res, points in synth.synth_rd(spec.params, range(0, 55, 2)).items()
        for point in points
    ]
    pipeline.write_rd_samples_csv(out / "rd.csv", rows)
    rng = np.random.default_rng(np.random.SeedSequence([5, 0x60]))
    pred = []
    for spec in specs:
        complexity = math.log1p(spec.texture_sigma) + 0.35 * spec.motion
        ln_p = np.sort(np.array([5.0, 6.2, 7.4]) + complexity + rng.normal(0.0, 0.2, 3))
        co = rd_core.CrossOverSet(*(float(v) for v in np.exp(ln_p)), "ypsnr")
        pred.append((spec.clip_id, "avc", "software", rd_core.BitrateLadder(co)))
    pipeline.write_ladders_csv(out / "pred.csv", pred)


def rd_stage_argvs(out):
    """CLI argument lists of `rd build` -> `hull` -> `evaluate` in `out`."""
    return [
        [str(a) for a in argv]
        for argv in (
            ["rd", "build", "--samples", out / "rd.csv", "--out", out / "curves"],
            ["hull", "--curves", out / "curves", "--metric", "ypsnr",
             "--out", out / "ladders.csv"],
            ["evaluate", "--pred", out / "pred.csv", "--eel", out / "ladders.csv",
             "--sl-from-train", out / "ladders.csv", "--curves", out / "curves",
             "--out", out / "report.json"],
        )
    ]


def test_rd_stages_match_golden_bytes(tmp_path):
    write_rd_inputs(tmp_path)
    for argv in rd_stage_argvs(tmp_path):
        assert main(argv) == 0
    for name in ("ladders.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "curves").iterdir())
    }
    golden = dict(
        line.split()[::-1] for line in (GOLDEN / "curves.sha256").read_text().splitlines()
    )
    assert digests == golden
