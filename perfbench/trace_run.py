"""Traced, in-process run: per-layer numbers for one workload.

Spans are recorded by the benchmark around calls into ladderlab's modules;
nothing inside ``src/`` is changed.  A span is (name, start, end, parent);
the layer is the part of the name before the first dot.  Spans are kept in
memory and written out when the run ends.

The run has two parts:

1. Replay.  The workload's CLI stages run in-process through
   ``ladderlab.cli.main`` (with ``--jobs 1`` so that every call stays
   visible), three times: untraced, traced, untraced.  The traced replay
   gives each stage's time split into per-layer self time plus the part no
   layer span covers; the untraced replays give the tracing overhead.
2. Probes.  Each layer's public functions are timed on seeded inputs of
   fixed sizes.  The probes are the same for every workload, so every
   per-layer metric exists on every workload; README.md says which
   end-to-end metric each should move, and where.
"""

import contextlib
import functools
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from ladderlab import (
    cli, evaluation, features_live, features_vod, learning, media_io, pipeline, rd_core, synth,
)

FRAME_SIZES = {"96p": (128, 96), "360p": (640, 360), "1080p": (1920, 1080), "2160p": (3840, 2160)}
#: Repeats per frame size; the median is reported.
SIZE_REPEATS = {"96p": 15, "360p": 5, "1080p": 2, "2160p": 1}
VOD_DESCRIPTORS = {
    "glcm": ("glcm_descriptors", 1),
    "si": ("spatial_information", 1),
    "cf": ("colorfulness", 3),
    "noise": ("noise_estimate", 1),
    "tc": ("temporal_coherence", 2),
    "ti": ("temporal_information", 2),
    "ncc": ("ncc", 2),
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_iter(self, name, fn):
        """Wrap a generator function: one span per item produced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            finally:
                it.close()

        return traced

    def timed_call(self, name, fn, repeats):
        """(median seconds, last result) of `repeats` calls of fn(), each in a span."""
        times = []
        for _ in range(repeats):
            with self.span(name) as rec:
                result = fn()
            times.append(rec[2] - rec[1])
        return statistics.median(times), result

    def timed(self, name, fn, repeats):
        return self.timed_call(name, fn, repeats)[0]

    def records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "workload": self.workload}
            for n, s, e, p in self.spans
        ]


def _call_sites():
    """(owner, attribute, span name, is_generator) for every traced call."""
    sites = [
        (pipeline, name, f"pipeline.{name}", False)
        for name in ("load_manifest", "parallel_map", "read_rd_samples_csv", "build_curves",
                     "write_curves_dir", "read_curves_dir", "write_ladders_csv",
                     "read_ladders_csv", "read_feature_csv", "write_feature_csv")
    ]
    sites += [
        (pipeline, "build_rd_curve", "rd_core.build_rd_curve", False),
        (rd_core, "eel_ladder", "rd_core.eel_ladder", False),
        (rd_core, "cross_over", "rd_core.cross_over", False),
        (learning, "train", "learning.train", False),
        (learning, "save_model", "learning.save_model", False),
        (learning, "load_model", "learning.load_model", False),
        (learning, "predict", "learning.predict", False),
        (evaluation, "static_ladder", "evaluation.static_ladder", False),
        (evaluation, "evaluate_method", "evaluation.evaluate_method", False),
        (evaluation, "correlation_metrics", "evaluation.correlation_metrics", False),
        (evaluation, "ladder_accuracy", "evaluation.ladder_accuracy", False),
        (evaluation, "bd_rate", "evaluation.bd_rate", False),
        (features_vod, "read_frames", "media_io.read_frames", True),
        (features_live, "read_frames", "media_io.read_frames", True),
        (cli._FEATURE_EXTRACTORS, "vod", "features_vod.extract_vod", False),
        (cli._FEATURE_EXTRACTORS, "live", "features_live.extract_live", False),
    ]
    sites += [(features_vod, fn, f"features_vod.{fn}", False) for fn, _ in VOD_DESCRIPTORS.values()]
    return sites


@contextlib.contextmanager
def instrumented(tracer):
    """Route ladderlab's internal calls through tracer spans; restore on exit."""
    saved = []
    try:
        for owner, attr, name, is_gen in _call_sites():
            get = owner.__getitem__ if isinstance(owner, dict) else functools.partial(getattr, owner)
            put = owner.__setitem__ if isinstance(owner, dict) else functools.partial(setattr, owner)
            original = get(attr)
            saved.append((put, attr, original))
            put(attr, (tracer.wrap_iter if is_gen else tracer.wrap)(name, original))
        yield
    finally:
        for put, attr, original in reversed(saved):
            put(attr, original)


class InProcessStages:
    """Runs each stage through `ladderlab.cli.main`, timing it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {}

    def __call__(self, name, argv):
        argv = ["1" if prev == "--jobs" else a for prev, a in zip([None, *argv], argv)]
        ctx = self.tracer.span(f"stage:{name}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with ctx:
            rc = cli.main(argv)
        self.times[name] = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"in-process stage {name} exited {rc}")


def stage_accounting(tracer):
    """Per stage: in-process time, per-layer self time and uncovered time.

    Self time of a span is its duration minus its direct children's.  The
    stage span's own self time is the part no layer span covers, so the
    layer self times plus `uncovered` add up to the stage time.
    """
    spans = tracer.spans
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    def self_time(i):
        name, start, end, _ = spans[i]
        return (end - start) - sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))

    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        if not name.startswith("stage:"):
            continue
        layers = {}
        todo = list(children.get(i, ()))
        while todo:
            j = todo.pop()
            layer = spans[j][0].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_time(j)
            todo.extend(children.get(j, ()))
        out[name[len("stage:"):]] = {
            "in_process_s": end - start,
            "layer_self_s": dict(sorted(layers.items())),
            "uncovered_s": self_time(i),
        }
    return out


def replay(wl, ctx, work):
    """Untraced, traced, untraced replays; returns (tracer, stats, checks)."""
    from run import combined_digest, tree_digests

    totals, digests = {}, {}
    tracer = Tracer(wl.name)
    for tag in ("untraced1", "traced", "untraced2"):
        out = os.path.join(work, tag)
        os.makedirs(out)
        stages = InProcessStages(tracer if tag == "traced" else None)
        if tag == "traced":
            with instrumented(tracer), tracer.span("replay"):
                wl.pipeline(stages, ctx, out)
        else:
            wl.pipeline(stages, ctx, out)
        totals[tag] = sum(stages.times.values())
        digests[tag] = combined_digest(tree_digests(out))
        shutil.rmtree(out)
    accounting = stage_accounting(tracer)
    stage_total = sum(a["in_process_s"] for a in accounting.values())
    residual = max(
        abs(a["in_process_s"] - a["uncovered_s"] - sum(a["layer_self_s"].values()))
        for a in accounting.values()
    )
    untraced = 0.5 * (totals["untraced1"] + totals["untraced2"])
    stats = {
        "replay_s": totals,
        "stage_accounting": accounting,
        "overhead_ratio": totals["traced"] / untraced,
        "uncovered_share": sum(a["uncovered_s"] for a in accounting.values()) / stage_total,
    }
    checks = [
        ("trace_accounts_for_stage_time", residual < 1e-6,
         f"max |stage - layers - uncovered| {residual:.1e} s"),
        ("trace_artifacts_identical", len(set(digests.values())) == 1,
         "traced and untraced replays wrote the same bytes"),
    ]
    return tracer, stats, checks


def probe_features(tracer, work, seed):
    m = {}
    clips = {}
    t0 = time.perf_counter()
    for label, (w, h) in FRAME_SIZES.items():
        with tracer.span(f"synth.synth_clip[{label}]"):
            clips[label] = synth.synth_clip(os.path.join(work, f"probe_{label}.yuv"),
                                            f"probe_{label}", w, h, 3, 12.0, 1.0, seed)
    synth_s = time.perf_counter() - t0
    total_bytes = sum(c.frame_bytes * c.frame_count for c in clips.values())
    m["synth.synth_clip_mb_per_s"] = total_bytes / 1e6 / synth_s

    read_s = statistics.median(
        sum(_consume_timed(tracer, clip) for clip in clips.values()) for _ in range(3)
    )
    m["media_io.read_frames_mb_per_s"] = total_bytes / 1e6 / read_s

    for label, clip in clips.items():
        reps = SIZE_REPEATS[label]
        (y0, cb0, cr0), (y1, _, _) = list(media_io.read_frames(clip))[:2]
        for short, (fn_name, arity) in VOD_DESCRIPTORS.items():
            fn = getattr(features_vod, fn_name)
            args = {1: (y0,), 2: (y0, y1), 3: (y0, cb0, cr0)}[arity]
            m[f"features_vod.{short}_ms_per_frame.{label}"] = 1e3 * tracer.timed(
                f"features_vod.{fn_name}[{label}]", functools.partial(fn, *args), reps)
        m[f"features_vod.extract_ms_per_frame.{label}"] = 1e3 * tracer.timed(
            f"features_vod.extract_vod[{label}]", functools.partial(features_vod.extract_vod, clip),
            reps) / clip.frame_count
        m[f"features_live.block_energies_ms_per_frame.{label}"] = 1e3 * tracer.timed(
            f"features_live.block_energies[{label}]",
            functools.partial(features_live.block_energies, y0), reps)
        m[f"features_live.extract_ms_per_frame.{label}"] = 1e3 * tracer.timed(
            f"features_live.extract_live[{label}]",
            functools.partial(features_live.extract_live, clip), reps) / clip.frame_count
        os.remove(clip.path)
    return m


def _consume_timed(tracer, clip):
    with tracer.span(f"media_io.read_frames[{clip.clip_id}]") as rec:
        for _ in media_io.read_frames(clip):
            pass
    return rec[2] - rec[1]


def probe_rd_and_evaluation(tracer, work, seed):
    m = {}
    specs = synth.corpus_specs(20, seed)
    qp_set = list(range(55))
    samples = [synth.synth_rd(s.params, qp_set) for s in specs]
    build_s, curves = tracer.timed_call("rd_core.build_rd_curve[x80]", lambda: [
        {res: rd_core.build_rd_curve(pts, res, "ypsnr") for res, pts in by_res.items()}
        for by_res in samples
    ], 3)
    m["rd_core.build_rd_curve_us"] = 1e6 * build_s / sum(len(by_res) for by_res in samples)
    res = rd_core.LADDER_RESOLUTIONS

    def cross_all():
        for c in curves:
            for lo, hi in zip(res[:-1], res[1:]):
                # fresh interpolator state, as a newly read curve has
                rd_core.cross_over(rd_core.RDCurve(lo, "ypsnr", c[lo].points),
                                   rd_core.RDCurve(hi, "ypsnr", c[hi].points),
                                   c[res[-1]].max_bitrate)

    m["rd_core.cross_over_us"] = 1e6 * tracer.timed("rd_core.cross_over[x60]", cross_all, 3) / (3 * len(curves))

    def fresh(c):
        return {r: rd_core.RDCurve(r, "ypsnr", cv.points) for r, cv in c.items()}

    eel_s, ladders = tracer.timed_call(
        "rd_core.eel_ladder[x20]", lambda: [rd_core.eel_ladder(fresh(c)) for c in curves], 3)
    m["rd_core.eel_ladder_us"] = 1e6 * eel_s / len(curves)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7E]))
    ids = [s.clip_id for s in specs]
    eel = dict(zip(ids, ladders))
    pred = {
        c: rd_core.BitrateLadder(rd_core.CrossOverSet(
            *rd_core.monotone_clamp(*(p * float(np.exp(rng.normal(0, 0.2)))
                                      for p in l.cross_overs.as_tuple())), "ypsnr"))
        for c, l in eel.items()
    }
    sl = evaluation.static_ladder([l.cross_overs for l in eel.values()])
    curves_by_clip = dict(zip(ids, curves))
    m["evaluation.evaluate_ms_per_clip"] = 1e3 * tracer.timed(
        "evaluation.evaluate_method[x20]",
        lambda: evaluation.evaluate_method(pred, eel, sl, curves_by_clip), 3) / len(ids)

    grid = evaluation.default_accuracy_grid([pred[ids[0]], eel[ids[0]]])
    m["evaluation.ladder_accuracy_us"] = 1e6 * tracer.timed(
        "evaluation.ladder_accuracy[x50]",
        lambda: [evaluation.ladder_accuracy(pred[ids[0]], eel[ids[0]], grid) for _ in range(50)], 3) / 50
    hull_ref = rd_core.convex_hull(curves[0], eel[ids[0]])
    hull_tst = rd_core.convex_hull(curves[0], pred[ids[0]])
    ref_set = [(b, hull_ref(b)[1]) for b in grid]
    tst_set = [(b, hull_tst(b)[1]) for b in grid]
    m["evaluation.bd_rate_us"] = 1e6 * tracer.timed(
        "evaluation.bd_rate[x200]",
        lambda: [evaluation.bd_rate(ref_set, tst_set) for _ in range(200)], 3) / 200

    # pipeline CSV/JSON interchange on the same clips
    rows = [
        (s.clip_id, "avc", "software", r, p, "ypsnr")
        for s, by_res in zip(specs, samples) for r, pts in by_res.items() for p in pts
    ]
    rd_csv = os.path.join(work, "probe_rd.csv")
    pipeline.write_rd_samples_csv(rd_csv, rows)
    m["pipeline.read_rd_samples_rows_per_s"] = len(rows) / tracer.timed(
        "pipeline.read_rd_samples_csv[probe]", lambda: pipeline.read_rd_samples_csv(rd_csv), 3)
    curves_dir = os.path.join(work, "probe_curves")
    keyed = {(c, "avc", "software", "ypsnr"): cv for c, cv in curves_by_clip.items()}
    m["pipeline.write_curves_dir_ms_per_file"] = 1e3 * tracer.timed(
        "pipeline.write_curves_dir[probe]", lambda: pipeline.write_curves_dir(curves_dir, keyed),
        3) / len(keyed)
    m["pipeline.read_curves_dir_ms_per_file"] = 1e3 * tracer.timed(
        "pipeline.read_curves_dir[probe]", lambda: pipeline.read_curves_dir(curves_dir), 3) / len(keyed)
    return m


def probe_learning(tracer, work, seed):
    m = {}
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1E]))
    n, d = 100, 30
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = X[:, :5] @ np.array([2.0, -2.0, 2.0, -2.0, 2.0]) + rng.normal(0.0, 0.05, n)
    matrix = learning.TrainingMatrix([f"c{i}" for i in range(n)],
                                     [f"F{i + 1}" for i in range(d)], X, y)
    hp = learning.Hyperparams(n_trees=20, seed=seed)
    train_s, model = tracer.timed_call("learning.train[100x30,20 trees]",
                                       lambda: learning.train(matrix, hp), 1)
    nodes = sum(len(t.feature) for t in model.trees)
    m["learning.train_us_per_node"] = 1e6 * train_s / nodes
    m["learning.nodes_per_tree"] = nodes / len(model.trees)
    m["learning.predict_rows_per_s"] = n / tracer.timed(
        "learning.predict[batch]", lambda: learning.predict(model, X), 5)
    m["learning.predict_single_row_ms"] = 1e3 * tracer.timed(
        "learning.predict[row]", lambda: learning.predict(model, X[:1]), 20)
    path = os.path.join(work, "probe_model.json")
    m["learning.save_model_ms"] = 1e3 * tracer.timed(
        "learning.save_model[probe]", lambda: learning.save_model(model, path), 5)
    m["learning.model_bytes"] = float(os.path.getsize(path))
    m["learning.load_model_ms"] = 1e3 * tracer.timed(
        "learning.load_model[probe]", lambda: learning.load_model(path), 5)

    # feature CSV read, and parallel_map over small corpus clips
    specs = synth.corpus_specs(24, seed)
    clips = [synth.synth_clip(os.path.join(work, f"{s.clip_id}.yuv"), s.clip_id, 128, 96, 6,
                              s.texture_sigma, s.motion, s.seed) for s in specs]
    rows = [(f"clip{i:04d}", features_vod.VodFeatureVector(tuple(float(v) for v in r)))
            for i, r in enumerate(rng.normal(size=(200, 30)))]
    csv = os.path.join(work, "probe_vod.csv")
    pipeline.write_feature_csv(csv, "vod", rows)
    m["pipeline.read_feature_csv_ms"] = 1e3 * tracer.timed(
        "pipeline.read_feature_csv[200 rows]", lambda: pipeline.read_feature_csv(csv), 5)
    serial = tracer.timed("pipeline.parallel_map[jobs1]",
                          lambda: pipeline.parallel_map(features_vod.extract_vod, clips, 1), 3)
    parallel = tracer.timed("pipeline.parallel_map[jobs2]",
                            lambda: pipeline.parallel_map(features_vod.extract_vod, clips, 2), 3)
    m["pipeline.parallel_map_speedup_jobs2"] = serial / parallel
    return m


def probe_cli_import(tracer, src):
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", "import ladderlab.cli"]
    return {"cli.import_s": tracer.timed(
        "cli.import[fresh interpreter]",
        lambda: subprocess.run(cmd, env=env, check=True, capture_output=True), 3)}


def traced_run(wl, args, work):
    """-> (per-layer metrics, checks, extra record fields)."""
    from run import SRC

    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    ctx = wl.setup(inputs, args.seed)
    tracer, stats, checks = replay(wl, ctx, work)
    shutil.rmtree(inputs)
    probes = os.path.join(work, "probes")
    os.makedirs(probes)
    metrics = {}
    with tracer.span("probes"):
        metrics.update(probe_features(tracer, probes, args.seed))
        metrics.update(probe_rd_and_evaluation(tracer, probes, args.seed))
        metrics.update(probe_learning(tracer, probes, args.seed))
        metrics.update(probe_cli_import(tracer, SRC))
    metrics["trace.overhead_ratio"] = stats["overhead_ratio"]
    metrics["trace.uncovered_share"] = stats["uncovered_share"]
    _print_accounting(wl.name, stats)
    return dict(sorted(metrics.items())), checks, {"trace": stats, "spans": tracer.records()}


def _print_accounting(workload, stats):
    print(f"workload {workload}: traced in-process replay (--jobs 1)")
    for stage, a in stats["stage_accounting"].items():
        parts = ", ".join(f"{k} {v:.4f}" for k, v in a["layer_self_s"].items())
        print(f"  {stage:14s} {a['in_process_s']:8.4f} s = {parts}, uncovered {a['uncovered_s']:.4f}")
    r = stats["replay_s"]
    print(f"  replay untraced {r['untraced1']:.4f} / {r['untraced2']:.4f} s, traced {r['traced']:.4f} s, "
          f"overhead ratio {stats['overhead_ratio']:.4f}")
