"""Every command writes its outputs through `pipeline.write_output`.

A write that fails (a file size limit, a FIFO, a missing directory) ends
the command with exit 1 and one `error:` line naming the output; an
earlier output stays byte-equal and no `.part` file is left behind.
`encode` exits 2 rather than write a row that `rd build` would reject.
"""

import json
import os
import resource
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import ladderlab
from ladderlab import pipeline
from ladderlab.errors import ValidationError
from test_input_errors import _run, inputs  # noqa: F401  (inputs is a fixture)
from test_pipeline import make_script

COMMANDS = ["features vod", "features live", "rd build", "hull", "train", "select", "predict",
            "evaluate", "encode", "synth rd", "synth clip"]

# Bytes a child process may write to one file: less than any output,
# more than the encode scripts write.
FILE_SIZE_LIMIT = 16

CHILD = "import sys\nfrom ladderlab.cli import main\nsys.exit(main(sys.argv[1:]))"


@pytest.fixture(scope="module")
def sources(inputs):  # noqa: F811
    """The valid inputs of every writing command, with an encoder profile
    whose encoder writes 8 bytes and whose metric prints 40.0."""
    d, models = inputs
    # `select` holds out 3 rows and trains on at least 10.
    ids = [f"s{i:02d}" for i in range(13)]
    (d / "select_features.csv").write_text("clip_id,F1,F2\n" + "".join(
        f"{c},{float(i)!r},{float(i % 4)!r}\n" for i, c in enumerate(ids)))
    (d / "select_ladders.csv").write_text(pipeline.LADDER_HEADER + "\n" + "".join(
        f"{c},avc,software,ypsnr,{100.0 + i!r},{200.0 + i!r},{400.0 + i!r}\n"
        for i, c in enumerate(ids)))
    (d / "profile.json").write_text(json.dumps({
        "codec": "avc", "platform": "software", "qp_set": [30],
        "encode_template": make_script(d, "enc.sh", 'printf 12345678 > "$1"\n') + " {output}",
        "metric_template": make_script(d, "met.sh", "echo 40.0\n"),
    }))
    return d, models


def _argv(command, d, models, out):
    """`command` reading the valid inputs in `d` and writing `out`."""
    features, ladders = str(d / "features.csv"), str(d / "ladders.csv")
    manifest = str(d / "manifest.jsonl")
    return {
        "features vod": ["features", "vod", "--manifest", manifest],
        "features live": ["features", "live", "--manifest", manifest],
        "rd build": ["rd", "build", "--samples", str(d / "rd.csv")],
        "hull": ["hull", "--curves", str(d / "curves"), "--metric", "ypsnr"],
        "train": ["train", "--features", features, "--ladders", ladders, "--target", "p1",
                  "--n-trees", "3"],
        "select": ["select", "--features", str(d / "select_features.csv"),
                   "--ladders", str(d / "select_ladders.csv")],
        "predict": ["predict", "--features", features, *models],
        "evaluate": ["evaluate", "--pred", str(d / "pred.csv"), "--eel", ladders,
                     "--sl-from-train", ladders, "--curves", str(d / "curves")],
        "encode": ["encode", "--profile", str(d / "profile.json"), "--manifest", manifest,
                   "--workdir", str(out.parent / "enc")],
        "synth rd": ["synth", "rd", "--params", str(d / "params.json")],
        "synth clip": ["synth", "clip", "--width", "64", "--height", "64", "--frames", "3"],
    }[command] + ["--out", str(out)]


def _main_in_child(argv, preexec_fn=None):
    """`ladderlab argv` in a fresh interpreter, which writes no bytecode."""
    src = str(Path(ladderlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    return subprocess.run([sys.executable, "-B", "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn)


def _limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))


def _part_files(directory):
    return [name for _, _, names in os.walk(directory) for name in names
            if name.endswith(".part")]


@pytest.mark.parametrize("command", COMMANDS)
def test_write_past_file_size_limit_keeps_old_output(sources, tmp_path, command):
    d, models = sources
    if command == "rd build":
        out = tmp_path / "curves"
        out.mkdir()
        old = out / sorted(os.listdir(d / "curves"))[0]  # the first file it writes
    else:
        out = old = tmp_path / "out.json"
    old.write_bytes(b"old\n")
    proc = _main_in_child(_argv(command, d, models, out), preexec_fn=_limit_file_size)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr
    assert f"error: cannot write {out}" in proc.stderr and "File too large" in proc.stderr
    assert old.read_bytes() == b"old\n"
    assert _part_files(tmp_path) == []


@pytest.mark.parametrize("command", ["synth rd", "rd build"])
def test_fifo_out_is_refused_and_stays_a_fifo(sources, tmp_path, command):
    """`synth rd` refuses the FIFO before it runs; `rd build` when it comes
    to write that curve file."""
    d, models = sources
    if command == "rd build":
        out = tmp_path / "curves"
        out.mkdir()
        fifo = out / sorted(os.listdir(d / "curves"))[0]
    else:
        out = fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    proc = _main_in_child(_argv(command, d, models, out))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr
    assert (f"synth rd writes a file, but {fifo} is a special file" in proc.stderr
            if command == "synth rd" else
            f"error: cannot write {fifo}: exists and is not a regular file" in proc.stderr)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert _part_files(tmp_path) == []


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "rd build"])
def test_out_in_missing_directory_exit_1_before_running(sources, tmp_path, command):
    """`rd build` is left out: it makes its own directory."""
    d, models = sources
    out = tmp_path / "missing" / "out.json"
    code, err = _run(_argv(command, d, models, out))
    assert code == 1 and err.count("error:") == 1
    assert f"error: --out {out}: the directory of {out} does not exist" in err
    assert not out.parent.exists()  # nor did `encode` make its --workdir there


@pytest.mark.parametrize("enc_body, met_body, want", [
    ('printf 12345678 > "$1"\n', "echo psnr inf\n", "no finite quality in metric output"),
    ('touch "$1"\n', "echo 40.0\n", "encoder wrote no bytes to"),
], ids=["quality-inf", "empty-output"])
def test_encode_exit_2_on_a_row_rd_build_would_reject(sources, tmp_path, enc_body, met_body,
                                                      want):
    d, _ = sources
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "codec": "avc", "platform": "software", "qp_set": [30],
        "encode_template": make_script(tmp_path, "enc.sh", enc_body) + " {output}",
        "metric_template": make_script(tmp_path, "met.sh", met_body),
    }))
    code, err = _run(["encode", "--profile", str(profile), "--manifest",
                      str(d / "manifest.jsonl"), "--workdir", str(tmp_path / "enc"),
                      "--out", str(tmp_path / "rd.csv")])
    assert code == 2 and err.count("error:") == 1 and want in err
    assert not (tmp_path / "rd.csv").exists()


def test_write_output_replaces_whole_or_not_at_all(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with pipeline.write_output(path) as f:
            f.write("new\n")
            raise RuntimeError("stop")
    assert path.read_text() == "old\n" and os.listdir(tmp_path) == ["out.csv"]
    with pipeline.write_output(path) as f:
        f.write("new\n")
    assert path.read_text() == "new\n" and os.listdir(tmp_path) == ["out.csv"]


def test_write_output_removes_no_part_after_a_replace(tmp_path, monkeypatch):
    # the replace moved the part onto the target, so a clean write asks
    # for no removal; a failed block still removes its part
    removed = []
    monkeypatch.setattr(pipeline.os, "remove", lambda p: removed.append(p) or os.unlink(p))
    path = tmp_path / "out.csv"
    with pipeline.write_output(path) as f:
        f.write("new\n")
    assert removed == [] and path.read_text() == "new\n"
    with pytest.raises(RuntimeError):
        with pipeline.write_output(path) as f:
            raise RuntimeError("stop")
    assert [os.path.basename(p) for p in removed] == [".out.csv.part"]
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_a_non_finite_number(tmp_path, value):
    # a NaN or Infinity token is not JSON: the old file keeps its bytes
    path = tmp_path / "model.json"
    path.write_text("old\n")
    with pytest.raises(ValidationError, match=f"^cannot write {path}: Out of range float"):
        pipeline.write_json(path, {"trees": [{"value": [1.0, value]}]})
    assert path.read_text() == "old\n" and os.listdir(tmp_path) == ["model.json"]
    pipeline.write_json(path, {"trees": [{"value": [1.0, 2.0]}]}, indent=None)
    assert path.read_text() == '{"trees":[{"value":[1.0,2.0]}]}\n'


def test_write_output_replaces_a_symlinks_target(tmp_path):
    target = tmp_path / "real" / "out.csv"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    with pipeline.write_output(link) as f:
        f.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    assert os.listdir(target.parent) == ["out.csv"]


def test_write_output_refuses_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(ValidationError,
                       match=f"cannot write {fifo}: exists and is not a regular file"):
        with pipeline.write_output(fifo, "wb"):
            pass
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]
