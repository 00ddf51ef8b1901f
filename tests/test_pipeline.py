import concurrent.futures
import gc
import importlib.util
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ladderlab import pipeline
from ladderlab.errors import DriverError, ValidationError
from ladderlab.pipeline import (
    EncoderProfile,
    Manifest,
    build_curves,
    load_manifest,
    load_profile,
    parallel_map,
    read_curves_dir,
    read_feature_csv,
    read_ladders_csv,
    read_rd_samples_csv,
    run_encode,
    save_manifest,
    write_curves_dir,
    write_feature_csv,
    write_ladders_csv,
    write_rd_samples_csv,
)
from ladderlab.features_live import LiveFeatureVector
from ladderlab.features_vod import VodFeatureVector
from ladderlab.media_io import VideoClip
from ladderlab.rd_core import LADDER_RESOLUTIONS, BitrateLadder, CrossOverSet, RDPoint


# ------------------------------------------------------------- manifests

def write_clip_file(tmp_path, name, w=4, h=4, frames=2):
    path = tmp_path / name
    path.write_bytes(bytes(w * h * 3 // 2 * frames))
    return str(path)


def test_manifest_round_trip(tmp_path):
    p = write_clip_file(tmp_path, "a.yuv")
    manifest = Manifest(
        clips=[VideoClip("a", p, 4, 4, 60.0, 2)],
        strata={"a": "low"},
    )
    mpath = tmp_path / "manifest.jsonl"
    save_manifest(mpath, manifest)
    loaded = load_manifest(mpath)
    assert loaded.clips == manifest.clips
    assert loaded.strata == {"a": "low"}


def test_manifest_duplicate_id(tmp_path):
    p = write_clip_file(tmp_path, "a.yuv")
    rec = json.dumps(
        {"clip_id": "a", "path": p, "width": 4, "height": 4, "frame_count": 2}
    )
    mpath = tmp_path / "m.jsonl"
    mpath.write_text(rec + "\n" + rec + "\n")
    with pytest.raises(ValidationError):
        load_manifest(mpath)


def test_manifest_missing_file_named(tmp_path):
    rec = json.dumps(
        {"clip_id": "a", "path": str(tmp_path / "gone.yuv"), "width": 4, "height": 4,
         "frame_count": 2}
    )
    mpath = tmp_path / "m.jsonl"
    mpath.write_text(rec + "\n")
    with pytest.raises(ValidationError) as exc:
        load_manifest(mpath)
    assert "gone.yuv" in str(exc.value)


def test_manifest_not_found(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_manifest(tmp_path / "none.jsonl")
    assert "none.jsonl" in str(exc.value)


# --------------------------------------------------------------- profiles

def test_profile_defaults_and_validation(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "codec": "avc",
        "platform": "software",
        "encode_template": "enc {input} {output}",
        "metric_template": "met {input} {output}",
    }))
    prof = load_profile(path)
    assert prof.qp_set == tuple(range(15, 46))
    with pytest.raises(ValidationError):
        EncoderProfile("badcodec", "software", (1,), "medium", "a", "b")
    with pytest.raises(ValidationError):
        EncoderProfile("avc", "software", (3, 2), "medium", "a", "b")


# -------------------------------------------------------------- run_encode

def make_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def stub_profile(tmp_path, enc_body, met_body):
    enc = make_script(tmp_path, "enc.sh", enc_body)
    met = make_script(tmp_path, "met.sh", met_body)
    return EncoderProfile(
        codec="avc",
        platform="software",
        qp_set=(32,),
        preset="slow",
        encode_template=enc + " {qp} {width} {height} {input} {output} {preset} {codec}",
        metric_template=met + " {input} {output} {preset} {codec}",
    )


def test_run_encode_stub_round_trip(tmp_path):
    clip_path = write_clip_file(tmp_path, "c.yuv", frames=2)
    clip = VideoClip("c", clip_path, 4, 4, 2.0, 2)  # duration 1 s
    profile = stub_profile(
        tmp_path,
        # emit exactly 1000 bytes -> 8000 bits over 1 s = 8 kbps
        'head -c 1000 /dev/zero > "$5"\necho "$6 $7" > "$5.enc_args"\n',
        'echo "$3 $4" > "$2.met_args"\necho "log line"\necho "PSNR-Y: 38.5"\n',
    )
    point = run_encode(profile, clip, (1280, 720), 32, str(tmp_path))
    assert point.bitrate == pytest.approx(8.0, rel=1e-12)
    assert point.quality == 38.5
    assert point.qp == 32
    for suffix in (".enc_args", ".met_args"):
        assert (tmp_path / f"c_1280x720_qp32.bin{suffix}").read_text() == "slow avc\n"


def test_run_encode_encoder_failure_carries_command(tmp_path):
    clip_path = write_clip_file(tmp_path, "c.yuv")
    clip = VideoClip("c", clip_path, 4, 4, 2.0, 2)
    profile = stub_profile(tmp_path, "exit 1\n", "echo 1.0\n")
    with pytest.raises(DriverError) as exc:
        run_encode(profile, clip, (1280, 720), 32, str(tmp_path))
    assert "enc.sh" in exc.value.command


def test_run_encode_unparseable_metric(tmp_path):
    clip_path = write_clip_file(tmp_path, "c.yuv")
    clip = VideoClip("c", clip_path, 4, 4, 2.0, 2)
    profile = stub_profile(
        tmp_path, 'head -c 10 /dev/zero > "$5"\n', "echo not-a-number\n"
    )
    with pytest.raises(DriverError):
        run_encode(profile, clip, (1280, 720), 32, str(tmp_path))


@pytest.mark.parametrize("enc_body, met_body, want, script", [
    ('head -c 10 /dev/zero > "$5"\n', "echo psnr inf\n", "no finite quality", "met.sh"),
    ('head -c 10 /dev/zero > "$5"\n', "echo psnr nan\n", "no finite quality", "met.sh"),
    ('touch "$5"\n', "echo 38.5\n", "encoder wrote no bytes to", "enc.sh"),
], ids=["quality-inf", "quality-nan", "empty-output"])
def test_run_encode_rejects_rows_rd_build_would(tmp_path, enc_body, met_body, want, script):
    """A zero bitrate or a quality that is not finite stops the encode,
    naming its command, instead of going into the RD sample file."""
    clip = VideoClip("c", write_clip_file(tmp_path, "c.yuv"), 4, 4, 2.0, 2)
    profile = stub_profile(tmp_path, enc_body, met_body)
    with pytest.raises(DriverError, match=want) as exc:
        run_encode(profile, clip, (1280, 720), 32, str(tmp_path))
    assert script in exc.value.command


# ------------------------------------------------------------ parallel_map

def _square(x):
    return x * x


def test_parallel_map_order_independent_of_jobs():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


@pytest.mark.parametrize("jobs, n_items, workers", [
    (64, 3, 3), (2, 3, 2), (64, 1, None), (1, 3, None),
])
def test_parallel_map_starts_no_more_workers_than_items(monkeypatch, jobs, n_items, workers):
    """The pool is capped at the item count; one worker runs in this process."""
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # parallel_map imports concurrent.futures when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    assert parallel_map(_square, range(n_items), jobs) == [x * x for x in range(n_items)]
    assert started == ([] if workers is None else [workers])


# ------------------------------------------------------------ CSV formats

def test_feature_csv_round_trip(tmp_path):
    rng = np.random.default_rng(50)
    vec_a = VodFeatureVector(tuple(rng.normal(size=30)))
    vec_b = VodFeatureVector(tuple(rng.normal(size=30)))
    path = tmp_path / "features.csv"
    write_feature_csv(path, "vod", [("b", vec_b), ("a", vec_a)])
    names, table = read_feature_csv(path)
    assert names == [f"F{i + 1}" for i in range(30)]
    assert list(table) == ["a", "b"]  # sorted on write
    assert table["a"] == pytest.approx(vec_a.values, abs=0.0)  # repr round-trips


def test_live_feature_csv_width(tmp_path):
    vec = LiveFeatureVector(tuple(float(i) for i in range(40)))
    path = tmp_path / "live.csv"
    write_feature_csv(path, "live", [("x", vec)])
    names, table = read_feature_csv(path)
    assert len(names) == 40
    assert table["x"] == list(vec.values)


def test_rd_samples_round_trip_and_curves(tmp_path):
    rows = [
        ("c1", "avc", "software", (720, 480), RDPoint(100.0, 30.0, 40), "ypsnr"),
        ("c1", "avc", "software", (720, 480), RDPoint(200.0, 33.0, 34), "ypsnr"),
        ("c1", "avc", "software", (1280, 720), RDPoint(150.0, 29.0, 40), "ypsnr"),
        ("c1", "avc", "software", (1280, 720), RDPoint(300.0, 35.0, 34), "ypsnr"),
    ]
    path = tmp_path / "rd.csv"
    write_rd_samples_csv(path, rows)
    loaded = read_rd_samples_csv(path)
    key = ("c1", "avc", "software", "ypsnr")
    assert set(loaded) == {key}
    assert {r for r in loaded[key]} == {(720, 480), (1280, 720)}
    curves = build_curves(loaded, path)
    assert curves[key][(720, 480)].points.bitrate[0] == 100.0


def test_rd_samples_read_the_same_in_any_row_order(tmp_path):
    """The reader binds a curve's columns again whenever the curve changes
    from one row to the next; rows of curves that alternate land in the
    same columns as rows listed curve by curve."""
    rows = [(f"c{i}", "avc", "software", res, RDPoint(100.0 * (k + 1) * 2.0**j, 30.0 + j + k, 40 - j),
             "ypsnr")
            for i in range(2) for k, res in enumerate(LADDER_RESOLUTIONS[:2]) for j in range(3)]
    path = tmp_path / "rd.csv"
    write_rd_samples_csv(path, rows)
    header, *lines = path.read_text().splitlines()
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("\n".join([header, *lines[::2], *lines[1::2][::-1]]) + "\n")

    def columns(p):
        return {key: {res: sorted(zip(*samples)) for res, samples in by_res.items()}
                for key, by_res in read_rd_samples_csv(p).items()}

    assert columns(mixed) == columns(path)
    assert sum(len(c) for by_res in columns(mixed).values() for c in by_res.values()) == len(rows)


def test_rd_build_peak_memory_per_sample_row(tmp_path):
    """Reading an RD sample file and building its curves holds each curve's
    samples as columns, not a Python record per row, and holds the samples
    or the curves, not both: 43 traced bytes per row measured here, set by
    the read (164 when rows were tuples, 76 when the samples outlived the
    build, 54 with a table of every curve's append methods).  The bound
    only tightens."""
    rng = np.random.default_rng(5)
    rows = []
    for i in range(50):
        for k, res in enumerate(LADDER_RESOLUTIONS):
            bitrates = 100.0 * (1 + i / 10) * 2.0**k * np.exp(0.1 * np.arange(55))
            # noisy log-linear qualities, of which some break Pareto order
            qualities = 20.0 + 4.0 * np.log(bitrates) - 3.0 * k + rng.normal(0, 0.15, 55)
            rows += [(f"c{i:03d}", "avc", "software", res, RDPoint(b, q, 54 - qp), "ypsnr")
                     for qp, (b, q) in enumerate(zip(bitrates.tolist(), qualities.tolist()))]
    path = tmp_path / "rd.csv"
    write_rd_samples_csv(path, rows)
    gc.collect()
    tracemalloc.start()
    try:
        curves = build_curves(read_rd_samples_csv(path), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(c.points.qp) for by_res in curves.values() for c in by_res.values()) < len(rows)
    assert peak / len(rows) <= 43 + 5


def test_curves_dir_round_trip(tmp_path):
    rows = [
        ("c1", "avc", "software", (720, 480), RDPoint(100.0, 30.0, 40), "ypsnr"),
        ("c1", "avc", "software", (720, 480), RDPoint(200.0, 33.0, 34), "ypsnr"),
    ]
    path = tmp_path / "rd.csv"
    write_rd_samples_csv(path, rows)
    samples = read_rd_samples_csv(path)
    curves = build_curves(samples, path)
    assert samples == {}  # each key's samples go as its curves are built
    cdir = tmp_path / "curves"
    write_curves_dir(cdir, curves)
    loaded = read_curves_dir(cdir)
    key = ("c1", "avc", "software", "ypsnr")
    got = loaded[key][(720, 480)]
    want = curves[key][(720, 480)]
    assert list(zip(got.points.bitrate.tolist(), got.points.quality.tolist(), got.points.qp)) == (
        list(zip(want.points.bitrate.tolist(), want.points.quality.tolist(), want.points.qp)))


def test_ladders_csv_round_trip(tmp_path):
    ladder = BitrateLadder(CrossOverSet(100.5, 800.25, 4000.125, "ypsnr"))
    path = tmp_path / "ladders.csv"
    write_ladders_csv(path, [("c1", "avc", "software", ladder)])
    loaded = read_ladders_csv(path)
    got = loaded[("c1", "avc", "software", "ypsnr")]
    assert got.cross_overs.as_tuple() == (100.5, 800.25, 4000.125)


def test_csv_writes_are_byte_stable(tmp_path):
    rng = np.random.default_rng(51)
    vec = VodFeatureVector(tuple(rng.normal(size=30)))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_feature_csv(p1, "vod", [("x", vec)])
    write_feature_csv(p2, "vod", [("x", vec)])
    assert p1.read_bytes() == p2.read_bytes()


def load_trace_run():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", path)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    return trace_run


@pytest.mark.parametrize("probe, keys", [
    ("probe_rd_and_evaluation", {
        "rd_core.build_rd_curve_us", "rd_core.cross_over_us", "rd_core.eel_ladder_us",
        "evaluation.evaluate_ms_per_clip", "evaluation.ladder_accuracy_us",
        "evaluation.bd_rate_us", "pipeline.read_rd_samples_rows_per_s",
        "pipeline.write_curves_dir_ms_per_file", "pipeline.read_curves_dir_ms_per_file"}),
    ("probe_learning", {
        "learning.train_us_per_node", "learning.nodes_per_tree",
        "learning.predict_rows_per_s", "learning.predict_single_row_ms",
        "learning.save_model_ms", "learning.model_bytes", "learning.load_model_ms",
        "pipeline.read_feature_csv_ms", "pipeline.parallel_map_speedup_jobs2"}),
    ("probe_features", {"synth.synth_clip_mb_per_s", "media_io.read_frames_mb_per_s"} | {
        f"{layer}.{name}_ms_per_frame.{size}"
        for size in ("96p", "360p", "1080p", "2160p")
        for layer, name in [
            *(("features_vod", d) for d in ("glcm", "si", "cf", "noise", "tc", "ti", "ncc",
                                             "extract")),
            ("features_live", "block_energies"), ("features_live", "extract")]}),
], ids=["rd-evaluation", "learning", "features"])
def test_benchmark_probes_run(tmp_path, probe, keys):
    """The benchmark's traced probes drive the RD, evaluation and curve-file
    API (build_rd_curve on RDPoint lists, RDCurve from another curve's
    points, cross_over, the readers and writers), the learning API
    (`train`, `model.trees`, `predict`, the model file) and the feature
    extractors (each VoD descriptor by its arity, from 96p to 2160p); run
    them as they are."""
    trace_run = load_trace_run()
    metrics = getattr(trace_run, probe)(trace_run.Tracer("test"), str(tmp_path), 5)
    assert set(metrics) == keys
    assert all(np.isfinite(v) and v > 0 for v in metrics.values())


def test_benchmark_trace_wraps_names_that_exist_and_restores_them():
    """`--trace 1` wraps each of `_call_sites()` (the extractors'
    `read_frames` and the VoD kernels among them) while instrumented, and
    puts the original back on exit."""
    trace_run = load_trace_run()

    def current():
        return [owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
                for owner, attr, _, _ in trace_run._call_sites()]

    originals = current()
    with trace_run.instrumented(trace_run.Tracer("test")):
        for wrapped, original in zip(current(), originals):
            assert wrapped is not original and wrapped.__wrapped__ is original
    assert all(now is original for now, original in zip(current(), originals))
