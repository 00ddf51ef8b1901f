"""The CLI's import and its RD, feature and learning stages load no scipy
module and no numpy.ma.

scipy is imported only by the `synth` commands.  The feature stages load
scipy's compiled pocketfft extension from its file, which imports no
scipy module.  numpy imports numpy.ma lazily, from np.unique of a plain
array and from np.percentile among others, at a few ms and a few hundred
kB each time.  The stages run in a fresh interpreter, since this test
process has both loaded already; their inputs are written here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ladderlab
from ladderlab.media_io import write_frames
from test_golden_rd import rd_stage_argvs, write_rd_inputs

CHILD = r"""
import json, sys


def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])


from ladderlab.cli import main

after_import = unwanted_modules()
for argv in json.loads(sys.stdin.read()):
    assert main(argv) == 0, argv
print(json.dumps({"import": after_import, "stages": unwanted_modules()}))
"""


def test_cli_stages_load_no_scipy(tmp_path):
    """Neither the import nor any stage loads scipy or numpy.ma."""
    write_rd_inputs(tmp_path)
    stages = rd_stage_argvs(tmp_path)
    frames = np.random.default_rng(1)
    with open(tmp_path / "clip.yuv", "wb") as f:
        write_frames(f, [
            (frames.integers(0, 256, (64, 96), dtype=np.uint8),
             frames.integers(0, 256, (32, 48), dtype=np.uint8),
             frames.integers(0, 256, (32, 48), dtype=np.uint8))
            for _ in range(3)
        ])
    (tmp_path / "manifest.jsonl").write_text(json.dumps({
        "clip_id": "clip", "path": str(tmp_path / "clip.yuv"),
        "width": 96, "height": 64, "frame_count": 3,
    }) + "\n")
    for kind in ("vod", "live"):
        stages.append(["features", kind, "--manifest", str(tmp_path / "manifest.jsonl"),
                       "--out", str(tmp_path / f"{kind}.csv")])
    rng = np.random.default_rng(0)
    with open(tmp_path / "features.csv", "w") as f:
        f.write("clip_id,F1,F2,F3\n")
        for i in range(16):
            f.write(f"synth{i:04d}," + ",".join(repr(float(v)) for v in rng.uniform(0, 1, 3)) + "\n")
    predict = ["predict", "--features", str(tmp_path / "features.csv"),
               "--out", str(tmp_path / "pred_learned.csv")]
    for target in ("p1", "p2", "p3"):
        model = str(tmp_path / f"model_{target}.json")
        stages.append(["train", "--features", str(tmp_path / "features.csv"),
                       "--ladders", str(tmp_path / "ladders.csv"), "--target", target,
                       "--n-trees", "3", "--out", model])
        predict += ["--model", model]
    stages.append(predict)

    src = str(Path(ladderlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(stages), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"import": [], "stages": []}
    assert (tmp_path / "pred_learned.csv").exists()
    for kind in ("vod", "live"):
        assert (tmp_path / f"{kind}.csv").read_text().splitlines()[1].startswith("clip,")
