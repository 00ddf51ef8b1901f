import json
import math
import os
import warnings

import numpy as np
import pytest

from ladderlab.cli import main
from ladderlab.pipeline import read_feature_csv, read_ladders_csv


def write_params(tmp_path, targets=(100.0, 800.0, 4000.0)):
    """Four log-linear laws meeting consecutively at the target bitrates."""
    slopes = (2.0, 3.0, 4.0, 5.0)
    caps = (200.0, 210.0, 220.0, 230.0)
    intercepts = [30.0]
    for k in range(3):
        intercepts.append(intercepts[k] + (slopes[k] - slopes[k + 1]) * math.log(targets[k]))
    resolutions = ("720x480", "1280x720", "1920x1080", "3840x2160")
    anchors = (targets[0], targets[1], targets[2], targets[2] * 4)
    doc = {
        "seed": 0,
        "resolutions": {
            res: {
                "q_cap": caps[i],
                "intercept": intercepts[i],
                "slope": slopes[i],
                "noise_sigma": 0.0,
                "rate_at_ref_qp": anchors[i],
            }
            for i, res in enumerate(resolutions)
        },
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    return path


def test_bdbr_identical_prints_zero(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    csv.write_text(
        "bitrate_kbps,quality_value\n100,30\n300,33\n900,36\n2700,39\n"
    )
    code = main(["bdbr", "--ref", str(csv), "--test", str(csv)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_missing_manifest_exit_1_names_path(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(
        ["features", "vod", "--manifest", str(tmp_path / "nope.jsonl"), "--out", str(out)]
    )
    assert code == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_unknown_flag_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["bdbr", "--bogus", "x"])
    assert exc.value.code == 1


def test_synth_rd_hull_round_trip(tmp_path):
    params = write_params(tmp_path)
    samples = tmp_path / "rd.csv"
    assert main([
        "synth", "rd", "--params", str(params), "--clip-id", "c1",
        "--qp-set", "5:50", "--out", str(samples),
    ]) == 0
    curves = tmp_path / "curves"
    assert main(["rd", "build", "--samples", str(samples), "--out", str(curves)]) == 0
    ladders = tmp_path / "ladders.csv"
    assert main([
        "hull", "--curves", str(curves), "--metric", "ypsnr", "--out", str(ladders),
    ]) == 0
    got = read_ladders_csv(ladders)[("c1", "avc", "software", "ypsnr")]
    for v, want in zip(got.cross_overs.as_tuple(), (100.0, 800.0, 4000.0)):
        assert abs(v - want) / want < 0.005


def test_synth_clip_and_feature_extraction(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    for i in range(2):
        assert main([
            "synth", "clip", "--out", str(tmp_path / f"c{i}.yuv"),
            "--clip-id", f"c{i}", "--width", "64", "--height", "64",
            "--frames", "4", "--sigma", "10", "--motion", "1",
            "--seed", str(i), "--manifest", str(manifest),
        ]) == 0
    vod_csv = tmp_path / "vod.csv"
    live_csv = tmp_path / "live.csv"
    assert main(["features", "vod", "--manifest", str(manifest), "--out", str(vod_csv)]) == 0
    assert main(["features", "live", "--manifest", str(manifest), "--out", str(live_csv)]) == 0
    names, table = read_feature_csv(vod_csv)
    assert len(names) == 30 and set(table) == {"c0", "c1"}
    names, table = read_feature_csv(live_csv)
    assert len(names) == 40 and set(table) == {"c0", "c1"}


def test_cli_outputs_byte_identical_across_reruns_and_jobs(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    for i in range(3):
        main([
            "synth", "clip", "--out", str(tmp_path / f"c{i}.yuv"),
            "--clip-id", f"c{i}", "--width", "64", "--height", "64",
            "--frames", "3", "--sigma", "8", "--motion", "0.5",
            "--seed", str(i), "--manifest", str(manifest),
        ])
    outs = []
    for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / f"vod_{tag}.csv"
        assert main([
            "features", "vod", "--manifest", str(manifest), "--out", str(out),
            "--jobs", str(jobs),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_predict_evaluate_round_trip(tmp_path):
    # build a tiny corpus of designed ladders, train, predict, evaluate
    curves_dir = tmp_path / "curves"
    samples = tmp_path / "rd.csv"
    rows = []
    rng = np.random.default_rng(0)
    scales = {f"clip{i:02d}": float(rng.uniform(0.8, 3.0)) for i in range(14)}
    # concatenate per-clip synthetic RD samples into one CSV
    bodies = []
    header = None
    for cid, s in scales.items():
        params = write_params(tmp_path, targets=(100.0 * s, 800.0 * s, 4000.0 * s))
        part = tmp_path / f"{cid}.csv"
        assert main([
            "synth", "rd", "--params", str(params), "--clip-id", cid,
            "--qp-set", "0:55", "--out", str(part),
        ]) == 0
        lines = part.read_text().splitlines()
        header = lines[0]
        bodies.extend(lines[1:])
    samples.write_text("\n".join([header] + bodies) + "\n")
    assert main(["rd", "build", "--samples", str(samples), "--out", str(curves_dir)]) == 0
    ladders = tmp_path / "ladders.csv"
    assert main(["hull", "--curves", str(curves_dir), "--metric", "ypsnr",
                 "--out", str(ladders)]) == 0

    # features: one row per clip; use the known scale as a 1-feature proxy
    feats = tmp_path / "features.csv"
    with open(feats, "w") as f:
        f.write("clip_id," + ",".join(f"F{i+1}" for i in range(3)) + "\n")
        for cid, s in sorted(scales.items()):
            f.write(f"{cid},{repr(math.log(s))},{repr(s)},{repr(s * s)}\n")

    models = []
    for target in ("p1", "p2", "p3"):
        mp = tmp_path / f"model_{target}.json"
        assert main([
            "train", "--features", str(feats), "--ladders", str(ladders),
            "--target", target, "--n-trees", "30", "--out", str(mp),
        ]) == 0
        models.append(str(mp))
    pred = tmp_path / "pred.csv"
    cmd = ["predict", "--features", str(feats), "--out", str(pred)]
    for m in models:
        cmd += ["--model", m]
    assert main(cmd) == 0

    report = tmp_path / "report.json"
    assert main([
        "evaluate", "--pred", str(pred), "--eel", str(ladders),
        "--sl-from-train", str(ladders), "--curves", str(curves_dir),
        "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text())
    assert set(doc["per_target"]) == {"p1", "p2", "p3"}
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert (tmp_path / "report.csv").exists()


def _tiny_model(tmp_path, target, metric="ypsnr", names=("F1", "F2", "F3")):
    """Save a 3-tree model for one target and return its path."""
    from ladderlab import learning

    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (12, len(names)))
    y = 5.0 + 1.2 * int(target[1]) + X[:, 0]
    matrix = learning.TrainingMatrix([f"c{i}" for i in range(12)], list(names), X, y)
    model = learning.train(matrix, learning.Hyperparams(n_trees=3), "extratrees", target, metric)
    path = tmp_path / f"model_{target}_{metric}_{len(names)}.json"
    learning.save_model(model, path)
    return str(path)


def _write_tiny_features(tmp_path, n_rows=7):
    rng = np.random.default_rng(1)
    feats = tmp_path / "features.csv"
    with open(feats, "w") as f:
        f.write("clip_id,F1,F2,F3\n")
        for i in range(n_rows):
            f.write(f"v{i}," + ",".join(repr(float(v)) for v in rng.uniform(0, 1, 3)) + "\n")
    return feats


def _predict(tmp_path, models):
    cmd = ["predict", "--features", str(_write_tiny_features(tmp_path)),
           "--out", str(tmp_path / "pred.csv")]
    for m in models:
        cmd += ["--model", m]
    return main(cmd)


def test_predict_matches_row_by_row_reference(tmp_path):
    from ladderlab import learning, rd_core

    paths = [_tiny_model(tmp_path, t) for t in ("p1", "p2", "p3")]
    assert _predict(tmp_path, paths) == 0
    names, table = read_feature_csv(tmp_path / "features.csv")
    models = [learning.load_model(p) for p in paths]
    want = {}
    for clip_id, row in table.items():
        preds = [float(learning.predict(m, np.asarray(row)[None, :], names)[0]) for m in models]
        want[clip_id] = rd_core.monotone_clamp(*preds)
    got = read_ladders_csv(tmp_path / "pred.csv")
    assert {k[0]: v.cross_overs.as_tuple() for k, v in got.items()} == want


@pytest.mark.parametrize("variant", ["duplicate_target", "mixed_metric", "mixed_features"])
def test_predict_rejects_inconsistent_models(tmp_path, capsys, variant):
    p1, p2, p3 = (_tiny_model(tmp_path, t) for t in ("p1", "p2", "p3"))
    models = {
        "duplicate_target": [p1, p2, p2, p3],
        "mixed_metric": [p1, p2, _tiny_model(tmp_path, "p3", metric="vmaf")],
        "mixed_features": [p1, p2, _tiny_model(tmp_path, "p3", names=("F1", "F2", "F3", "F4"))],
    }[variant]
    assert _predict(tmp_path, models) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("fps", [0, -25, "NaN"])
def test_features_rejects_non_positive_fps(tmp_path, capsys, fps):
    clip = tmp_path / "c0.yuv"
    clip.write_bytes(bytes(64 * 64 * 3 // 2 * 2))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({
        "clip_id": "c0", "path": str(clip), "width": 64, "height": 64,
        "fps": fps, "frame_count": 2,
    }) + "\n")
    code = main(["features", "vod", "--manifest", str(manifest),
                 "--out", str(tmp_path / "vod.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{manifest}:1: c0: fps" in err


@pytest.mark.parametrize("argv", [
    ["hull", "--curves", "c", "--metric", "ypsnr", "--out", "l.csv", "--jobs", "2"],
    ["rd", "build", "--samples", "rd.csv", "--out", "c", "--seed", "1"],
    ["evaluate", "--pred", "p.csv", "--eel", "e.csv", "--sl-from-train", "t.csv",
     "--curves", "c", "--out", "r.json", "--jobs", "2"],
])
def test_commands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ladderlab")
    assert err.count("error:") == 1 and "unrecognized arguments: --" in err


@pytest.mark.parametrize("argv, flag", [
    (["synth", "rd", "--params", "p.json", "--codec", "x,y", "--out", "rd.csv"], "--codec"),
    (["synth", "rd", "--params", "p.json", "--platform", "gpu", "--out", "rd.csv"],
     "--platform"),
    (["predict", "--model", "m.json", "--features", "f.csv", "--codec", "av1",
      "--out", "l.csv"], "--codec"),
    (["predict", "--model", "m.json", "--features", "f.csv", "--platform", "a/b",
      "--out", "l.csv"], "--platform"),
], ids=["synth-rd-codec", "synth-rd-platform", "predict-codec", "predict-platform"])
def test_commands_take_only_known_codecs_and_platforms(argv, flag, capsys):
    """A codec or platform goes unquoted into CSV cells and curve file names."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"argument {flag}: invalid choice: " in err


def _codec_inputs(tmp_path, codec):
    """Samples, curves and EEL ladders for clips c1..c3 encoded with `codec`."""
    samples = tmp_path / f"rd_{codec}.csv"
    curves = tmp_path / f"curves_{codec}"
    ladders = tmp_path / f"ladders_{codec}.csv"
    lines = []
    for i in range(1, 4):
        scale = i * (1.0 if codec == "avc" else 0.8)
        params = write_params(tmp_path, targets=(100.0 * scale, 800.0 * scale, 4000.0 * scale))
        part = tmp_path / f"rd_{codec}_{i}.csv"
        assert main(["synth", "rd", "--params", str(params), "--clip-id", f"c{i}",
                     "--codec", codec, "--qp-set", "5:50", "--out", str(part)]) == 0
        lines += part.read_text().splitlines()[bool(lines):]
    samples.write_text("\n".join(lines) + "\n")
    assert main(["rd", "build", "--samples", str(samples), "--out", str(curves)]) == 0
    assert main(["hull", "--curves", str(curves), "--metric", "ypsnr",
                 "--out", str(ladders)]) == 0
    return samples, curves, ladders


@pytest.mark.parametrize("mixed", ["pred", "eel", "sl_from_train", "train", "across_files"])
def test_mixed_codec_inputs_rejected(tmp_path, capsys, mixed):
    _, curves, ladders = _codec_inputs(tmp_path, "avc")
    _, _, hevc_ladders = _codec_inputs(tmp_path, "hevc")
    mixed_ladders = tmp_path / "mixed.csv"
    mixed_ladders.write_text(ladders.read_text() + hevc_ladders.read_text().split("\n", 1)[1])
    inputs = {"pred": ladders, "eel": ladders, "sl_from_train": ladders, "curves": curves}
    if mixed == "train":
        feats = tmp_path / "features.csv"
        feats.write_text("clip_id,F1\nc1,1.0\n")
        argv = ["train", "--features", str(feats), "--ladders", str(mixed_ladders),
                "--target", "p1", "--out", str(tmp_path / "model.json")]
        want = f"error: {mixed_ladders}: expected one codec/platform/metric combination"
    else:
        if mixed == "across_files":
            inputs["pred"] = hevc_ladders
            want = f"error: {ladders}: holds ('avc', "
        else:
            inputs[mixed] = mixed_ladders
            want = f"error: {inputs[mixed]}: expected one codec/platform/metric combination"
        argv = ["evaluate", "--pred", str(inputs["pred"]), "--eel", str(inputs["eel"]),
                "--sl-from-train", str(inputs["sl_from_train"]),
                "--curves", str(inputs["curves"]), "--out", str(tmp_path / "report.json")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert want in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "model.json").exists()


def test_evaluate_takes_pred_combination_from_mixed_curves(tmp_path, capsys):
    _, curves, ladders = _codec_inputs(tmp_path, "avc")
    _, hevc_curves, hevc_ladders = _codec_inputs(tmp_path, "hevc")
    mixed_curves = tmp_path / "mixed_curves"
    mixed_curves.mkdir()
    for d in (curves, hevc_curves):
        for f in d.iterdir():
            (mixed_curves / f.name).write_bytes(f.read_bytes())

    def evaluate(lad, cur, out):
        return main(["evaluate", "--pred", str(lad), "--eel", str(lad),
                     "--sl-from-train", str(lad), "--curves", str(cur),
                     "--out", str(tmp_path / out)])

    assert evaluate(ladders, curves, "alone.json") == 0
    assert evaluate(ladders, mixed_curves, "mixed.json") == 0
    assert evaluate(hevc_ladders, mixed_curves, "hevc.json") == 0
    for stem in ("mixed", "hevc"):
        for ext in (".json", ".csv"):
            assert ((tmp_path / (stem + ext)).read_bytes()
                    == (tmp_path / ("alone" + ext)).read_bytes()) == (stem == "mixed")
    capsys.readouterr()
    assert evaluate(hevc_ladders, curves, "none.json") == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: {curves}: no curves for ('hevc', " in err
    assert not (tmp_path / "none.json").exists()


@pytest.mark.parametrize("column, value", [
    ("bitrate_kbps", "inf"), ("quality_value", "nan"), ("quality_value", "-inf"),
    ("quality_value", "abc"), ("width", "wide"), ("bitrate_kbps", "-3.0"),
    ("clip_id", "a/b"), ("clip_id", ""), ("codec", "a/b"), ("platform", "gpu"),
])
def test_rd_build_rejects_bad_sample_cells(tmp_path, capsys, column, value):
    samples, _, _ = _codec_inputs(tmp_path, "avc")
    lines = samples.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index(column)] = value
    lines[2] = ",".join(row)
    samples.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "bad_curves"
    assert main(["rd", "build", "--samples", str(samples), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: {samples}:3: " in err
    assert not out.exists()


def test_synth_clip_bad_fps_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "c0.yuv"
    code = main(["synth", "clip", "--out", str(out), "--clip-id", "c0", "--width", "64",
                 "--height", "64", "--frames", "3", "--fps", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "c0: fps must be positive" in err
    assert not out.exists()


def _set_cell(row, col, value):
    return lambda lines: lines[:row] + [
        ",".join(value if i == col else c for i, c in enumerate(lines[row].split(",")))
    ] + lines[row + 1:]


@pytest.mark.parametrize("command, table, edit, line", [
    ("evaluate", "ladders", _set_cell(1, 4, "abc"), 2),
    ("train", "ladders", _set_cell(1, 4, "0"), 2),
    ("train", "ladders", _set_cell(2, 6, "inf"), 3),
    ("train", "ladders", lambda lines: lines + lines[1:2], 5),
    ("train", "features", lambda lines: lines[:2] + [lines[2] + ",4.0"] + lines[3:], 3),
    ("train", "features", _set_cell(3, 2, "nan"), 4),
    ("predict", "features", lambda lines: lines + lines[2:3], 5),
    ("bdbr", "samples", lambda lines: lines[:2] + ["300"] + lines[3:], 3),
    ("bdbr", "samples", _set_cell(1, 1, "abc"), 2),
    ("bdbr", "samples", _set_cell(4, 0, "0"), 5),
    ("evaluate", "ladders", _set_cell(2, 1, "av1"), 3),
    ("train", "ladders", _set_cell(1, 2, "cloud"), 2),
    ("train", "ladders", _set_cell(3, 3, "psnr"), 4),
], ids=["pred-P1-abc", "ladder-P1-0", "ladder-P3-inf", "ladder-duplicate", "feature-ragged",
        "feature-nan", "feature-duplicate", "bdbr-short-row", "bdbr-quality-abc",
        "bdbr-rate-0", "pred-codec-av1", "ladder-platform-cloud", "ladder-metric-psnr"])
def test_bad_table_cells_exit_1_naming_line(tmp_path, capsys, command, table, edit, line):
    _, curves, ladders = _codec_inputs(tmp_path, "avc")
    paths = {"ladders": ladders, "features": tmp_path / "features.csv",
             "samples": tmp_path / "samples.csv"}
    paths["features"].write_text("clip_id,F1,F2\nc1,1.0,2.0\nc2,1.5,2.5\nc3,2.0,3.0\n")
    paths["samples"].write_text("bitrate_kbps,quality_value\n100,30\n300,33\n900,36\n2700,39\n")
    bad = paths[table]
    bad.write_text("\n".join(edit(bad.read_text().splitlines())) + "\n")
    out = tmp_path / "out.json"
    argv = {
        "evaluate": ["evaluate", "--pred", str(ladders), "--eel", str(ladders),
                     "--sl-from-train", str(ladders), "--curves", str(curves)],
        "train": ["train", "--features", str(paths["features"]), "--ladders", str(ladders),
                  "--target", "p1"],
        "predict": ["predict", "--features", str(paths["features"]),
                    "--model", _tiny_model(tmp_path, "p1", names=("F1", "F2"))],
        "bdbr": ["bdbr", "--ref", str(paths["samples"]), "--test", str(paths["samples"])],
    }[command] + (["--out", str(out)] if command != "bdbr" else [])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: {bad}:{line}: " in err
    assert not out.exists()


@pytest.mark.parametrize("edit, want", [
    (lambda rec: rec.pop("path"), "missing field 'path'"),
    (lambda rec: rec.update(width="wide"), "invalid literal for int()"),
    (lambda rec: rec.update(frame_count=None), "int() argument must be"),
    (lambda rec: rec.update(clip_id="a,b"), "clip_id 'a,b'"),
    (lambda rec: rec.update(clip_id=""), "clip_id ''"),
    (lambda rec: rec.update(pixel_format=None), "only yuv420p supported"),
    (lambda rec: rec.update(width=64.9), "width must be an integer, got 64.9"),
    (lambda rec: rec.update(height=True), "height must be an integer, got True"),
    (lambda rec: rec.update(frame_count=2.0), "frame_count must be an integer, got 2.0"),
], ids=["no-path", "width-wide", "frame_count-null", "clip_id-comma", "clip_id-empty",
        "pixel_format-null", "width-float", "height-bool", "frame_count-float"])
def test_features_rejects_bad_manifest_records(tmp_path, capsys, edit, want):
    clip = tmp_path / "c0.yuv"
    clip.write_bytes(bytes(64 * 64 * 3 // 2 * 2))
    rec = {"clip_id": "c0", "path": str(clip), "width": 64, "height": 64, "frame_count": 2}
    edit(rec)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n" + json.dumps(rec) + "\n")
    out = tmp_path / "vod.csv"
    assert main(["features", "vod", "--manifest", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: {manifest}:2: " in err and want in err
    assert not out.exists()


@pytest.mark.parametrize("clip_id", ["a,b", "a/b", "", "a\nb"])
def test_synth_rejects_unsafe_clip_ids(tmp_path, capsys, clip_id):
    out = tmp_path / "rd.csv"
    assert main(["synth", "rd", "--params", str(write_params(tmp_path)),
                 "--clip-id", clip_id, "--out", str(out)]) == 1
    assert main(["synth", "clip", "--out", str(tmp_path / "c.yuv"), "--clip-id", clip_id,
                 "--width", "64", "--height", "64", "--frames", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error: clip_id {clip_id!r}: ") == 2 and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "c.yuv").exists()


@pytest.mark.parametrize("spec, want", [
    ("a:b", "expected integers"), ("5", "expected integers"), ("1:2:3:4", "expected integers"),
    ("5:1:0", "step must be positive"), ("5:9:-1", "step must be positive"),
    ("5:1", "empty range"),
], ids=["non-integer", "one-part", "four-parts", "zero-step", "negative-step", "empty"])
def test_synth_rd_rejects_bad_qp_set(tmp_path, capsys, spec, want):
    out = tmp_path / "rd.csv"
    assert main(["synth", "rd", "--params", str(write_params(tmp_path)),
                 "--qp-set", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: bad --qp-set {spec!r}: {want}" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, want", [
    (["--n-trees", "0"], "n_trees must be at least 1, got 0"),
    (["--n-trees", "-3"], "n_trees must be at least 1, got -3"),
    (["--seed", "-1"], "seed must be non-negative, got -1"),
], ids=["n-trees-0", "n-trees-negative", "seed-negative"])
def test_train_rejects_bad_hyperparams(tmp_path, capsys, flags, want):
    _, _, ladders = _codec_inputs(tmp_path, "avc")
    features = tmp_path / "features.csv"
    features.write_text("clip_id,F1\nc1,1.0\nc2,1.5\nc3,2.0\n")
    out = tmp_path / "model.json"
    assert main(["train", "--features", str(features), "--ladders", str(ladders),
                 "--target", "p1", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: {want}" in err
    assert not out.exists()


def test_predict_rejects_model_without_trees(tmp_path, capsys):
    paths = [_tiny_model(tmp_path, t) for t in ("p1", "p2", "p3")]
    doc = json.loads(open(paths[1]).read())
    doc["tree_sizes"] = []
    with open(paths[1], "w") as f:
        json.dump(doc, f)
    assert _predict(tmp_path, paths) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: {paths[1]}: model has no trees" in err
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("value", [710.0, -709.0], ids=["exp-overflow", "exp-underflow"])
def test_predict_rejects_leaf_whose_exp_is_no_normal_float(tmp_path, capsys, value):
    # ln(float max) = 709.78 and ln(least normal float) = -708.40; a leaf
    # above the first once made `predict` write inf and exit 0
    paths = [_tiny_model(tmp_path, t) for t in ("p1", "p2", "p3")]
    doc = json.loads(open(paths[2]).read())
    doc["value"][-1] = value  # the last leaf of tree 2
    with open(paths[2], "w") as f:
        json.dump(doc, f)
    assert _predict(tmp_path, paths) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: p3 model, tree 2: leaf value {value!r} lies outside [-708.39" in err
    assert not (tmp_path / "pred.csv").exists()


def _json_input(tmp_path, source):
    """(a valid JSON document of `source`, the argv of a command that reads it)."""
    out = str(tmp_path / "out.csv")
    if source == "model":
        paths = [_tiny_model(tmp_path, t) for t in ("p1", "p2", "p3")]
        return paths[0], ["predict", "--features", str(_write_tiny_features(tmp_path)),
                          "--out", out] + [a for p in paths for a in ("--model", p)]
    if source == "curve":
        _, curves, _ = _codec_inputs(tmp_path, "avc")
        return (str(sorted(curves.iterdir())[0]),
                ["hull", "--curves", str(curves), "--metric", "ypsnr", "--out", out])
    if source == "params":
        path = str(write_params(tmp_path))
        return path, ["synth", "rd", "--params", path, "--out", out]
    path = str(tmp_path / "profile.json")
    with open(path, "w") as f:
        json.dump({"codec": "avc", "platform": "software", "encode_template": "enc",
                   "metric_template": "met"}, f)
    return path, ["encode", "--profile", path, "--manifest", str(tmp_path / "m.jsonl"),
                  "--out", out]


def _tree0(**arrays):
    """Set the first entry of each named node array: that of tree 0's root,
    an inner node."""
    def edit(doc):
        for name, value in arrays.items():
            doc[name][0] = value
        return doc
    return edit


def _inner_last_node(doc):
    """Tree 0 with its last node, a leaf, made an inner node whose children
    would be the next tree's root."""
    last = doc["tree_sizes"][0] - 1
    inner = sum(f >= 0 for f in doc["feature"][:last])
    doc["feature"][last] = 0
    doc["threshold"].insert(inner, 0.5)
    doc["right"].insert(inner, last + 1)
    del doc["value"][last - inner]
    return doc


def _first_tree_only(doc):
    size = doc["tree_sizes"][0]
    inner = sum(f >= 0 for f in doc["feature"][:size])
    return {**doc, "tree_sizes": [size], "feature": doc["feature"][:size],
            "threshold": doc["threshold"][:inner], "right": doc["right"][:inner],
            "value": doc["value"][:size - inner]}


def _first_point(field, value):
    def edit(doc):
        next(iter(doc["resolutions"].values()))[0][field] = value
        return doc
    return edit


def _log_equal_knots(doc):
    """The first resolution's curve cut to two points at 1e5 and the next
    double, whose natural logs are equal."""
    points = next(iter(doc["resolutions"].values()))
    points[:] = points[:2]
    points[0]["bitrate_kbps"], points[1]["bitrate_kbps"] = 100000.0, 100000.00000000001
    return doc


@pytest.mark.parametrize("source, edit, want", [
    ("model", lambda doc: None, "model file not found: "),
    ("model", lambda doc: "{", "Expecting property name"),
    ("model", lambda doc: [], "expected a JSON object, got list"),
    ("model", _tree0(right=0), "tree 0: a child index does not lie after its node"),
    ("model", _tree0(right=-5), "tree 0: a child index does not lie after its node"),
    ("model", _tree0(right=10**6), "tree 0: a child index does not lie after its node"),
    ("model", _tree0(feature=3), "tree 0: a feature index lies outside [-1, 3)"),
    ("model", _tree0(threshold=None), "tree 0: thresholds and values must be finite"),
    ("model", lambda doc: {**doc, "feature_gains": [1.0]}, "feature_gains must hold 3 values"),
    ("profile", lambda doc: {k: v for k, v in doc.items() if k != "codec"},
     "missing field 'codec'"),
    ("profile", lambda doc: {**doc, "codec": "av1"}, "unknown codec 'av1'"),
    ("params", lambda doc: (doc["resolutions"]["720x480"].update(typo=1), doc)[1],
     "unexpected keyword argument 'typo'"),
    ("params", lambda doc: {**doc, "seed": -1}, "seed must be non-negative, got -1"),
    ("curve", lambda doc: json.dumps(doc)[:-1], "Expecting ',' delimiter"),
    ("curve", _first_point("bitrate_kbps", -1), "expected a positive finite number, got -1"),
    ("curve", _first_point("quality", "abc"), "could not convert string to float: 'abc'"),
    ("curve", lambda doc: {**doc, "resolutions": []},
     "resolutions: expected a JSON object, got list"),
    ("curve", lambda doc: (next(iter(doc["resolutions"].values())).insert(0, None), doc)[1],
     "a point: expected a JSON object, got NoneType"),
    ("params", lambda doc: (doc["resolutions"].update({"720x480": [1.0]}), doc)[1],
     "720x480: expected a JSON object, got list"),
    ("model", lambda doc: {**doc, "hyperparams": 3}, "hyperparams: expected a JSON object, got int"),
    ("profile", lambda doc: {**doc, "encode_template": "enc {} {output}"},
     "encode_template: 'enc {} {output}' may use only the placeholders {input} {width}"),
    ("profile", lambda doc: {**doc, "metric_template": "met {input.x}"},
     "metric_template: 'met {input.x}' may use only the placeholders"),
    ("profile", lambda doc: {**doc, "encode_template": "enc {"},
     "encode_template: Single '{' encountered in format string"),
    ("profile", lambda doc: {**doc, "metric_template": "met {bitrate}"},
     "metric_template: 'met {bitrate}' may use only the placeholders"),
    ("params", lambda doc: {**doc, "seed": 2.7}, "seed must be an integer, got 2.7"),
    ("curve", _first_point("qp", "not a qp"), "qp: invalid literal for int()"),
    ("curve", _first_point("qp", [1, 2]), "qp: int() argument must be"),
    ("curve", _first_point("qp", True), "qp must be an integer, got True"),
    ("curve", _first_point("qp", 30.0), "qp must be an integer, got 30.0"),
    ("model", _inner_last_node, "tree 0: a child index does not lie after its node"),
    ("model", _first_tree_only, "hyperparams.n_trees is 3, but the model holds 1 tree(s)"),
    ("model", lambda doc: {**doc, "feature_names": "abc"},
     "feature_names must be a list of distinct strings"),
    ("model", lambda doc: {**doc, "format": "ladderlab-model-v1"},
     "unknown model format 'ladderlab-model-v1'"),
    ("model", _tree0(right=12.7), "right must hold integers, got 12.7"),
    ("model", _tree0(feature=True), "feature must hold integers, got True"),
    ("model", lambda doc: {**doc, "tree_sizes": [float(n) for n in doc["tree_sizes"]]},
     "tree_sizes must hold integers, got "),
    ("curve", lambda doc: {**doc, "codec": "a,b"}, "unknown codec 'a,b'"),
    ("curve", lambda doc: {**doc, "platform": "cloud"}, "unknown platform 'cloud'"),
    ("curve", _log_equal_knots, "fewer than 2 points survive Pareto cleaning"),
], ids=["model-missing", "model-truncated", "model-list", "model-self-loop",
        "model-negative-child", "model-child-out-of-range", "model-feature-out-of-range",
        "model-threshold-null", "model-gains-short", "profile-no-codec", "profile-av1",
        "params-unknown-key", "params-negative-seed", "curve-truncated", "curve-bitrate--1",
        "curve-quality-abc", "curve-resolutions-list", "curve-point-null", "params-law-list",
        "model-hyperparams-int", "profile-positional-field", "profile-attribute-field",
        "profile-lone-brace", "profile-unknown-field", "params-float-seed", "curve-qp-string",
        "curve-qp-list", "curve-qp-true", "curve-qp-float", "model-inner-last-node",
        "model-n-trees-mismatch", "model-feature-names-string", "model-format-v1",
        "model-child-float", "model-feature-bool", "model-tree-sizes-float", "curve-codec-comma",
        "curve-platform-cloud", "curve-log-equal-knots"])
def test_bad_json_documents_exit_1_naming_file(tmp_path, capsys, source, edit, want):
    path, argv = _json_input(tmp_path, source)
    with open(path) as f:
        doc = edit(json.load(f))
    if doc is None:
        os.remove(path)
    else:
        with open(path, "w") as f:
            f.write(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert want in err and (f"error: {path}: " in err or f"{want}{path}" in err)
    assert not (tmp_path / "out.csv").exists()


def test_hull_rejects_second_file_with_the_same_curves(tmp_path, capsys):
    path, argv = _json_input(tmp_path, "curve")
    with open(path) as f:
        doc = json.load(f)
    for points in doc["resolutions"].values():
        for p in points:
            p["bitrate_kbps"] *= 2
    copy = os.path.join(os.path.dirname(path), "zz.json")
    with open(copy, "w") as f:
        json.dump(doc, f)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: {copy}: {os.path.basename(path)} already holds the curves of ('c1', " in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind", ["vod", "live"])
def test_features_truncated_clip_names_clip_and_frame(tmp_path, capsys, kind, jobs):
    manifest = tmp_path / "manifest.jsonl"
    for i in range(2):
        assert main(["synth", "clip", "--out", str(tmp_path / f"c{i}.yuv"), "--clip-id", f"c{i}",
                     "--width", "64", "--height", "64", "--frames", "4",
                     "--manifest", str(manifest)]) == 0
    clip = tmp_path / "c1.yuv"
    clip.write_bytes(clip.read_bytes()[:-100])
    out = tmp_path / "features.csv"
    capsys.readouterr()
    assert main(["features", kind, "--manifest", str(manifest), "--out", str(out),
                 "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: c1: {clip}: truncated read at frame index 3" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_features_rejects_jobs_below_1(tmp_path, capsys, jobs):
    manifest = tmp_path / "manifest.jsonl"
    assert main(["synth", "clip", "--out", str(tmp_path / "c0.yuv"), "--clip-id", "c0",
                 "--width", "64", "--height", "64", "--frames", "3",
                 "--manifest", str(manifest)]) == 0
    out = tmp_path / "features.csv"
    capsys.readouterr()
    assert main(["features", "vod", "--manifest", str(manifest), "--out", str(out),
                 "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: jobs must be at least 1, got {jobs}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "synth rd", "synth clip"])
def test_negative_seed_exit_1(tmp_path, capsys, command):
    _, _, ladders = _codec_inputs(tmp_path, "avc")
    features = tmp_path / "features.csv"
    features.write_text("clip_id,F1,F2\nc1,1.0,2.0\nc2,1.5,2.5\nc3,2.0,3.0\n")
    params = write_params(tmp_path)
    doc = json.loads(params.read_text())
    del doc["seed"]  # --seed applies only to a params file without one
    params.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "select": ["select", "--features", str(features), "--ladders", str(ladders)],
        "synth rd": ["synth", "rd", "--params", str(params)],
        "synth clip": ["synth", "clip", "--width", "64", "--height", "64", "--frames", "2"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "seed must be non-negative, got -1" in err
    assert not out.exists()


def test_synth_rd_checks_seed_flag_when_file_has_seed(tmp_path, capsys):
    params = write_params(tmp_path)
    assert "seed" in json.loads(params.read_text())
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(["synth", "rd", "--params", str(params), "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "seed must be non-negative, got -1" in err
    assert not out.exists()


def test_evaluate_rejects_out_that_names_its_csv(tmp_path, capsys):
    _, curves, ladders = _codec_inputs(tmp_path, "avc")
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["evaluate", "--pred", str(ladders), "--eel", str(ladders),
                 "--sl-from-train", str(ladders), "--curves", str(curves),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: --out {out}: the per-clip table" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--pred", "--eel", "--sl-from-train"])
def test_evaluate_rejects_out_whose_csv_is_an_input(tmp_path, capsys, flag):
    _, curves, ladders = _codec_inputs(tmp_path, "avc")
    victim = tmp_path / "in.csv"
    victim.write_bytes(ladders.read_bytes())
    inputs = {"--pred": ladders, "--eel": ladders, "--sl-from-train": ladders, flag: victim}
    out = tmp_path / "sub" / ".." / "in.json"
    (tmp_path / "sub").mkdir()
    capsys.readouterr()
    assert main(["evaluate", *(str(a) for kv in inputs.items() for a in kv),
                 "--curves", str(curves), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: --out {out}: evaluate would write " in err and f"the {flag} input" in err
    assert victim.read_bytes() == ladders.read_bytes()
    assert not (tmp_path / "in.json").exists()


def test_synth_clip_rejects_clip_id_already_in_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"

    def synth_clip(name):
        return main(["synth", "clip", "--out", str(tmp_path / name), "--clip-id", "a",
                     "--width", "64", "--height", "64", "--frames", "3",
                     "--manifest", str(manifest)])

    assert synth_clip("a.yuv") == 0
    before = manifest.read_bytes()
    capsys.readouterr()
    assert synth_clip("a2.yuv") == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: {manifest}: already holds clip_id 'a'" in err
    assert not (tmp_path / "a2.yuv").exists()
    assert manifest.read_bytes() == before
    assert main(["features", "vod", "--manifest", str(manifest),
                 "--out", str(tmp_path / "f.csv")]) == 0


def test_synth_clip_rejects_out_of_another_listed_clip(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"

    def synth_clip(clip_id, width, out):
        return main(["synth", "clip", "--out", str(out), "--clip-id", clip_id,
                     "--width", width, "--height", "64", "--frames", "3",
                     "--manifest", str(manifest)])

    assert synth_clip("a", "64", tmp_path / "a.yuv") == 0
    before = manifest.read_bytes(), (tmp_path / "a.yuv").read_bytes()
    link = tmp_path / "link.yuv"
    link.symlink_to(tmp_path / "a.yuv")
    capsys.readouterr()
    assert synth_clip("b", "32", link) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: --out {link}: {manifest} lists it as the file of clip 'a'" in err
    assert (manifest.read_bytes(), (tmp_path / "a.yuv").read_bytes()) == before
    assert main(["features", "vod", "--manifest", str(manifest),
                 "--out", str(tmp_path / "f.csv")]) == 0


def _one_clip_manifest(tmp_path):
    manifest = tmp_path / "m.jsonl"
    assert main(["synth", "clip", "--out", str(tmp_path / "c0.yuv"), "--clip-id", "c0",
                 "--width", "32", "--height", "32", "--frames", "2",
                 "--manifest", str(manifest)]) == 0
    return manifest, tmp_path / "c0.yuv"


@pytest.mark.parametrize("command", ["features", "encode"])
def test_out_naming_a_listed_clip_file_exit_1(tmp_path, capsys, command):
    manifest, clip = _one_clip_manifest(tmp_path)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"codec": "avc", "platform": "software",
                                   "encode_template": "enc", "metric_template": "met"}))
    argv = {"features": ["features", "vod"], "encode": ["encode", "--profile", str(profile)]}
    before = clip.read_bytes()
    capsys.readouterr()
    assert main([*argv[command], "--manifest", str(manifest), "--out", str(clip)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: --out {clip}: {manifest} lists it as the file of clip 'c0'" in err
    assert clip.read_bytes() == before


@pytest.mark.parametrize("command", ["features", "rd build", "evaluate"])
def test_out_of_the_wrong_kind_exit_1(tmp_path, capsys, command):
    """Files go where a directory is, or a curves directory where a file is."""
    manifest, _ = _one_clip_manifest(tmp_path)
    samples = tmp_path / "rd.csv"
    assert main(["synth", "rd", "--params", str(write_params(tmp_path)), "--clip-id", "c1",
                 "--qp-set", "5:50", "--out", str(samples)]) == 0
    taken = tmp_path / "taken"
    taken.mkdir()
    (tmp_path / "report.csv").mkdir()
    ladders = str(tmp_path / "ladders.csv")
    argv, out, want = {
        "features": (["features", "vod", "--manifest", str(manifest)], taken,
                     f"features writes a file, but {taken} is a directory"),
        "rd build": (["rd", "build", "--samples", str(samples)], samples.with_suffix(".txt"),
                     f"rd build writes a directory, but {samples.with_suffix('.txt')} is a file"),
        "evaluate": (["evaluate", "--pred", ladders, "--eel", ladders, "--sl-from-train",
                      ladders, "--curves", str(taken)], tmp_path / "report.json",
                     f"evaluate writes a file, but {tmp_path / 'report.csv'} is a directory"),
    }[command]
    if command == "rd build":
        out.write_text("keep\n")
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: --out {out}: {want}" in err
    assert not list(taken.iterdir()) and not (tmp_path / "report.json").exists()
    assert command != "rd build" or out.read_text() == "keep\n"


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_hull_rejects_bad_max_bitrate(tmp_path, capsys, value):
    _, curves, _ = _codec_inputs(tmp_path, "avc")
    out = tmp_path / "ladders.csv"
    capsys.readouterr()
    assert main(["hull", "--curves", str(curves), "--metric", "ypsnr",
                 "--max-bitrate", value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "--max-bitrate must be a positive, finite bitrate" in err
    assert not out.exists()


_SAMPLE_ROW = "c1,avc,software,{w},{h},{qp},{bitrate},{metric},{quality}"


@pytest.mark.parametrize("rows, want", [
    ([(720, 480, 30, 100.0, "ypsnr", 30.0)],
     "{path}: ('c1', 'avc', 'software'): (720, 480)/ypsnr: need at least 2 samples, got 1"),
    ([(720, 480, 30, 100.0, "ypsnr", 30.0), (720, 480, 28, 200.0, "ypsnr", 30.0)],
     "{path}: ('c1', 'avc', 'software'): (720, 480)/ypsnr: fewer than 2 points survive"),
    ([(720, 480, 30, 100.0, "vmaf", 30.0), (720, 480, 28, 200.0, "vmaf", 100.5)],
     "{path}: ('c1', 'avc', 'software'): VMAF quality out of range: 100.5"),
    ([(720, 480, 30, 100.0, "ypsnr", 30.0), (720, 480, 28, 200.0, "psnr", 31.0)],
     "{path}:3: unknown metric 'psnr'"),
    # adjacent doubles whose logs are equal: one knot of the interpolant
    ([(720, 480, 30, 100000.0, "ypsnr", 30.0), (720, 480, 28, 100000.00000000001, "ypsnr", 31.0)],
     "{path}: ('c1', 'avc', 'software'): (720, 480)/ypsnr: fewer than 2 points survive"),
], ids=["one-sample", "all-dominated", "vmaf-range", "unknown-metric", "log-equal-bitrates"])
def test_rd_build_errors_name_file_and_clip(tmp_path, capsys, rows, want):
    samples = tmp_path / "rd.csv"
    samples.write_text("\n".join(
        ["clip_id,codec,platform,width,height,qp,bitrate_kbps,quality_metric,quality_value"]
        + [_SAMPLE_ROW.format(w=w, h=h, qp=qp, bitrate=b, metric=m, quality=q)
           for w, h, qp, b, m, q in rows]) + "\n")
    out = tmp_path / "curves"
    capsys.readouterr()
    assert main(["rd", "build", "--samples", str(samples), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: {want.format(path=samples)}" in err
    assert not out.exists()


def test_rd_build_keeps_one_of_log_equal_bitrates_for_hull(tmp_path):
    # 100000.0 and the next double have equal natural logs, so they are one
    # knot: the point of higher quality is kept and `hull` can interpolate
    rows = [(w, h, qp, (1.0 + i) * 1000.0 * w / 720, "ypsnr", 30.0 + i + w / 720)
            for w, h in ((720, 480), (1280, 720), (1920, 1080), (3840, 2160))
            for i, qp in enumerate((40, 30, 20))]
    rows += [(720, 480, 22, 100000.0, "ypsnr", 40.0),
             (720, 480, 21, 100000.00000000001, "ypsnr", 41.0)]
    samples = tmp_path / "rd.csv"
    samples.write_text("\n".join(
        ["clip_id,codec,platform,width,height,qp,bitrate_kbps,quality_metric,quality_value"]
        + [_SAMPLE_ROW.format(w=w, h=h, qp=qp, bitrate=b, metric=m, quality=q)
           for w, h, qp, b, m, q in rows]) + "\n")
    curves = tmp_path / "curves"
    assert main(["rd", "build", "--samples", str(samples), "--out", str(curves)]) == 0
    sd = json.loads(next(curves.iterdir()).read_text())["resolutions"]["720x480"]
    assert [(p["bitrate_kbps"], p["qp"]) for p in sd][-1:] == [(100000.00000000001, 21)]
    assert main(["hull", "--curves", str(curves), "--metric", "ypsnr",
                 "--out", str(tmp_path / "ladders.csv")]) == 0


def test_interpolant_that_overflows_ends_hull_and_evaluate_naming_clip(tmp_path, capsys):
    # c1's 720x480 knots lie 1e-11 apart in log bitrate under qualities
    # near -1e289: `rd build` keeps them (each point is finite and on the
    # Pareto front), but the cubic's coefficients overflow.  c0 and c2 are
    # well-formed, so `evaluate` reaches c1.
    c1_720 = [(3.5036320776565053, -7.055953725248043e+289),
              (3.503632077762421, -4.071279624910258e+191),
              (3.503674193212189, -8.381223881088424e+108),
              (3.503674193215635, -9.996307579519777e+27)]
    rows = [("c1", 720, 480, "", b, q) for b, q in c1_720]
    for k, (w, h) in enumerate(((1280, 720), (1920, 1080), (3840, 2160)), start=1):
        rows += [("c1", w, h, "", b, -1e29 * (3 - k) + 1e28 * i)
                 for i, b in enumerate((3.5036, 3.50365, 3.5037, 3.6))]
    rows += [(clip, w, h, qp, (1.0 + i) * 1000.0 * w / 720, 30.0 + i + w / 720)
             for clip in ("c0", "c2")
             for w, h in ((720, 480), (1280, 720), (1920, 1080), (3840, 2160))
             for i, qp in enumerate((40, 30, 20))]
    samples = tmp_path / "rd.csv"
    samples.write_text("\n".join(
        ["clip_id,codec,platform,width,height,qp,bitrate_kbps,quality_metric,quality_value"]
        + [f"{c},avc,software,{w},{h},{qp},{b!r},ypsnr,{q!r}" for c, w, h, qp, b, q in rows])
        + "\n")
    ladders = tmp_path / "ladders.csv"
    ladders.write_text("clip_id,codec,platform,metric,P1_kbps,P2_kbps,P3_kbps\n"
                       "c0,avc,software,ypsnr,1500.0,2500.0,3500.0\n"
                       "c1,avc,software,ypsnr,3.5037,3.55,3.59\n"
                       "c2,avc,software,ypsnr,1600.0,2600.0,3600.0\n")
    curves, out = tmp_path / "curves", tmp_path / "out"
    want = ("error: clip c1: interpolation knots too close for their qualities: "
            "the cubic's coefficients overflow\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main(["rd", "build", "--samples", str(samples), "--out", str(curves)]) == 0
        capsys.readouterr()
        assert main(["hull", "--curves", str(curves), "--metric", "ypsnr",
                     "--out", f"{out}.csv"]) == 1
        assert capsys.readouterr().err == want
        assert main(["evaluate", "--pred", str(ladders), "--eel", str(ladders),
                     "--sl-from-train", str(ladders), "--curves", str(curves),
                     "--out", f"{out}.json"]) == 1
        assert capsys.readouterr().err == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves", "ladders.csv", "rd.csv"]


# Each command with its --out naming one of its inputs, given as {input};
# the check runs before any input is read, so the inputs hold any bytes.
@pytest.mark.parametrize("argv, flag", [
    ("features vod --manifest {input} --out {input}", "--manifest"),
    ("rd build --samples {input} --out {input}", "--samples"),
    ("hull --curves {dir} --metric ypsnr --out {dir}", "--curves"),
    ("train --features {other} --ladders {input} --target p1 --out {input}", "--ladders"),
    ("select --features {input} --ladders {other} --out {input}", "--features"),
    ("predict --model {other} --model {input} --features {other} --out {input}", "--model"),
    ("evaluate --pred {other} --eel {input} --sl-from-train {other} --curves {dir} "
     "--out {input}", "--eel"),
    ("encode --profile {other} --manifest {input} --out {input}", "--manifest"),
    ("synth rd --params {input} --out {input}", "--params"),
    ("synth clip --out {input} --width 8 --height 8 --frames 1 --manifest {input}",
     "--manifest"),
], ids=["features", "rd-build", "hull", "train", "select", "predict", "evaluate", "encode",
        "synth-rd", "synth-clip"])
def test_out_naming_an_input_exit_1(tmp_path, capsys, argv, flag):
    victim, other, directory = tmp_path / "in.txt", tmp_path / "other.txt", tmp_path / "d"
    victim.write_text("keep\n")
    other.write_text("keep\n")
    directory.mkdir()
    (directory / "keep.json").write_text("{}\n")
    # A path spelled with "..", and the directory spelled with a trailing slash.
    args = argv.format(input=tmp_path / "d" / ".." / "in.txt", other=other, dir=f"{directory}/")
    capsys.readouterr()
    assert main(args.split()) == 1
    err = capsys.readouterr().err
    command = argv.split(" --")[0].removesuffix(" vod")
    assert err.count("error:") == 1
    assert f"{command} would write " in err and f"which is the {flag} input" in err
    assert victim.read_text() == other.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "in.txt", "other.txt"]
    assert [p.name for p in directory.iterdir()] == ["keep.json"]


def test_rd_build_refuses_curves_of_other_clips_in_out(tmp_path, capsys):
    params = write_params(tmp_path)
    curves = tmp_path / "curves"
    for clip_id in ("c1", "c2"):
        assert main(["synth", "rd", "--params", str(params), "--clip-id", clip_id,
                     "--qp-set", "5:50", "--out", str(tmp_path / f"{clip_id}.csv")]) == 0

    def rd_build(clip_id):
        return main(["rd", "build", "--samples", str(tmp_path / f"{clip_id}.csv"),
                     "--out", str(curves)])

    assert rd_build("c1") == 0
    before = {p.name: p.read_bytes() for p in curves.iterdir()}
    assert rd_build("c1") == 0  # rewriting the same keys is allowed
    assert {p.name: p.read_bytes() for p in curves.iterdir()} == before
    capsys.readouterr()
    assert rd_build("c2") == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert (f"error: {curves}: holds 1 curve file(s) this run does not write, "
            "first c1__avc__software__ypsnr.json") in err
    assert {p.name: p.read_bytes() for p in curves.iterdir()} == before
