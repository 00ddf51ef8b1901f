"""What a CLI stage loads: no scipy, no numpy.ma, no numpy.random, no
OpenSSL, and only its own ladderlab modules.

scipy and numpy.random are imported only by the `synth` commands.
numpy.random imports `secrets`, and through `hmac` OpenSSL's `_hashlib`;
`learning` draws from its own PCG64 stream instead.  The feature stages load
scipy's compiled pocketfft extension from its file, which imports no
scipy module.  numpy imports numpy.ma lazily, from np.unique of a plain
array and from np.percentile among others, at a few ms and a few hundred
kB each time.  `ladderlab.cli` imports only the modules every command
needs, and each command imports the ones it runs.  The stages run in a
fresh interpreter, since this test process has loaded all of these
already; their inputs are written here.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ladderlab
from ladderlab.cli import main
from ladderlab.media_io import write_frames
from test_golden_rd import rd_stage_argvs, write_rd_inputs

CHILD = r"""
import json, sys


def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "_hashlib")
                  or m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"]))


from ladderlab.cli import main

after_import = unwanted_modules()
for argv in json.loads(sys.stdin.read()):
    assert main(argv) == 0, argv
print(json.dumps({"import": after_import, "stages": unwanted_modules()}))
"""

# One stage in a fresh interpreter: which ladderlab and job-running modules it
# loaded, whether it loaded numpy.random or OpenSSL, and how many objects the
# import of ladderlab.cli left frozen.
CENSUS_CHILD = r"""
import gc, json, sys

from ladderlab.cli import main

frozen = gc.get_freeze_count()
assert main(json.loads(sys.stdin.read())) == 0
print(json.dumps({
    "ladderlab": sorted(m.split(".")[1] for m in sys.modules if m.startswith("ladderlab.")),
    "jobs": sorted(m for m in ("subprocess", "concurrent.futures") if m in sys.modules),
    "random": sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules),
    "frozen": frozen,
}))
"""

# The ladderlab modules every stage loads: those `ladderlab.cli` imports.
BASE = ["cli", "errors", "media_io", "pipeline", "rd_core"]
CENSUS = {  # stage -> (ladderlab modules beyond BASE, job-running modules)
    "rd build": ([], []),
    "hull": ([], []),
    "evaluate": (["evaluation", "stats"], []),
    "features vod": (["features_vod", "stats"], []),
    # the process pool's multiprocessing imports subprocess
    "features vod --jobs 2": (["features_vod", "stats"], ["concurrent.futures", "subprocess"]),
    "features live": (["features_live", "features_vod", "stats"], []),
    "train p1": (["learning", "stats"], []),
    "select": (["learning", "stats"], []),
    "predict": (["learning", "stats"], []),
}


def child_env():
    """os.environ with the ladderlab under test first on PYTHONPATH."""
    src = str(Path(ladderlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


def write_stage_inputs(tmp_path):
    """{stage name: argv} of every stage but `synth`, `encode` and `bdbr`, in
    an order that runs; the inputs no stage writes are written here."""
    write_rd_inputs(tmp_path)
    stages = dict(zip(("rd build", "hull", "evaluate"), rd_stage_argvs(tmp_path)))
    frames = np.random.default_rng(1)
    for name in ("clip", "clip2"):
        with open(tmp_path / f"{name}.yuv", "wb") as f:
            write_frames(f, [
                (frames.integers(0, 256, (64, 96), dtype=np.uint8),
                 frames.integers(0, 256, (32, 48), dtype=np.uint8),
                 frames.integers(0, 256, (32, 48), dtype=np.uint8))
                for _ in range(3)
            ])
    (tmp_path / "manifest.jsonl").write_text("".join(json.dumps({
        "clip_id": name, "path": str(tmp_path / f"{name}.yuv"),
        "width": 96, "height": 64, "frame_count": 3,
    }) + "\n" for name in ("clip", "clip2")))
    for kind, jobs in (("vod", "1"), ("live", "1"), ("vod", "2")):
        name = f"features {kind}" + (f" --jobs {jobs}" if jobs != "1" else "")
        stages[name] = ["features", kind, "--manifest", str(tmp_path / "manifest.jsonl"),
                        "--out", str(tmp_path / f"{kind}{jobs}.csv"), "--jobs", jobs]
    rng = np.random.default_rng(0)
    with open(tmp_path / "features.csv", "w") as f:
        f.write("clip_id,F1,F2,F3\n")
        for i in range(16):
            f.write(f"synth{i:04d}," + ",".join(repr(float(v)) for v in rng.uniform(0, 1, 3)) + "\n")
    predict = ["predict", "--features", str(tmp_path / "features.csv"),
               "--out", str(tmp_path / "pred_learned.csv")]
    for target in ("p1", "p2", "p3"):
        model = str(tmp_path / f"model_{target}.json")
        stages[f"train {target}"] = [
            "train", "--features", str(tmp_path / "features.csv"),
            "--ladders", str(tmp_path / "ladders.csv"), "--target", target,
            "--n-trees", "3", "--out", model]
        predict += ["--model", model]
    stages["predict"] = predict
    stages["select"] = ["select", "--features", str(tmp_path / "features.csv"),
                        "--ladders", str(tmp_path / "ladders.csv"),
                        "--out", str(tmp_path / "select.json")]
    return stages


def test_cli_stages_load_no_scipy(tmp_path):
    """Neither the import nor any stage loads scipy, numpy.ma, numpy.random
    or `_hashlib`."""
    stages = write_stage_inputs(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(list(stages.values())),
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"import": [], "stages": []}
    assert (tmp_path / "pred_learned.csv").exists()
    for kind in ("vod", "live"):
        assert (tmp_path / f"{kind}1.csv").read_text().splitlines()[1].startswith("clip,")


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """Every stage's argv, with the inputs of all of them written by running
    the chain here."""
    tmp_path = tmp_path_factory.mktemp("stages")
    stages = write_stage_inputs(tmp_path)
    for argv in stages.values():
        assert main(argv) == 0, argv
    return tmp_path, stages


@pytest.mark.parametrize("stage", sorted(CENSUS))
def test_each_stage_loads_only_the_modules_it_runs(stage_inputs, stage):
    """`rd build` and `hull` load no learning, evaluation or feature module;
    only a stage that starts worker processes loads `concurrent.futures`
    or `subprocess`; no stage loads numpy.random or `_hashlib`."""
    tmp_path, stages = stage_inputs
    argv = list(stages[stage])
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / f"census_{stage.replace(' ', '_')}_{os.path.basename(argv[out])}")
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS_CHILD], input=json.dumps(argv),
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    modules, jobs = CENSUS[stage]
    assert found["ladderlab"] == sorted(BASE + modules)
    assert found["jobs"] == jobs
    assert found["random"] == []
    assert found["frozen"] > 0


def test_main_freezes_no_objects(stage_inputs):
    """The import freezes its objects once; main() freezes none, so a
    process that calls it many times keeps collecting its garbage."""
    tmp_path, stages = stage_inputs
    frozen = gc.get_freeze_count()
    for i in range(2):
        assert main(["hull", "--curves", str(tmp_path / "curves"), "--metric", "ypsnr",
                     "--out", str(tmp_path / f"freeze{i}.csv")]) == 0
    assert gc.get_freeze_count() == frozen
