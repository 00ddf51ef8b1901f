"""The benchmark's three workloads: inputs, CLI stage sequence and output checks.

Each workload is a module-level object with

* ``setup(inputs_dir, seed)`` -- writes the program's inputs (manifest, I420
  clips, RD sample CSV, ...) and returns a context dict;
* ``pipeline(run_stage, ctx, out_dir)`` -- runs the ladderlab CLI stages in
  order through ``run_stage(name, argv)``; the only work between stages is
  splitting CSV files by clip, which users of the CLI do as well;
* ``check(ctx, out_dir)`` -- checks the outputs of one pipeline run and
  returns (checks, counts, quality), where ``checks`` is a list of
  ``(name, ok, detail)``, ``counts`` are the silent-degradation counts and
  ``quality`` the prediction-quality figures.

Sizes are chosen so one pipeline run takes a few seconds on a 2-core box.
Why each workload exists is in README.md next to this file.
"""

import json
import math
import os

import numpy as np

from ladderlab import evaluation, pipeline, rd_core, synth
from ladderlab.rd_core import LADDER_RESOLUTIONS

CODEC, PLATFORM, METRIC = "avc", "software", "ypsnr"

#: |ln(hull cross-over) - designed ln P_k| allowed on rd-dense.  The RD noise
#: (sigma 0.15 quality units) against the 1.2..1.8 units-per-ln slope gaps
#: between adjacent resolutions moves a cross-over by well under this.
CROSS_OVER_LN_TOL = 0.6


def designed_ln_p(spec):
    """The cross-overs `synth.corpus_specs` designs: ln P_k = base_k + complexity."""
    complexity = math.log1p(spec.texture_sigma) + 0.35 * spec.motion
    return (5.0 + complexity, 6.2 + complexity, 7.4 + complexity)


def _write_rd_samples(path, specs, qp_set):
    rows = []
    for spec in specs:
        for res, points in synth.synth_rd(spec.params, qp_set).items():
            rows.extend((spec.clip_id, CODEC, PLATFORM, res, p, METRIC) for p in points)
    pipeline.write_rd_samples_csv(path, rows)
    return len(rows)


def _write_manifest(path, clips):
    pipeline.save_manifest(path, pipeline.Manifest(clips=list(clips), strata={}))


def _copy_rows(src, dst, keep):
    """Copy the header and the rows whose first cell is in `keep`."""
    with open(src) as f, open(dst, "w") as g:
        g.write(f.readline())
        for line in f:
            if line.split(",", 1)[0] in keep:
                g.write(line)


def _read_table(path):
    """(header cells, rows of cells) of a CSV artifact, read without ladderlab."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    return header, rows


def _ladder_rows(path):
    """clip_id -> (P1, P2, P3) kbps from a ladder CSV."""
    _, rows = _read_table(path)
    return {r[0]: tuple(float(v) for v in r[4:7]) for r in rows}


def check_feature_csv(path, n_columns, clip_ids):
    """(ok, detail): one row per clip, `n_columns` finite feature columns."""
    header, rows = _read_table(path)
    if header != ["clip_id"] + [f"F{i + 1}" for i in range(n_columns)]:
        return False, f"header has {len(header) - 1} feature columns, want {n_columns}"
    if sorted(r[0] for r in rows) != sorted(clip_ids):
        return False, f"{len(rows)} rows for {len(clip_ids)} clips"
    for r in rows:
        if len(r) != n_columns + 1:
            return False, f"ragged row for {r[0]}"
        values = [float(v) for v in r[1:]]
        if not all(math.isfinite(v) for v in values):
            return False, f"non-finite value for {r[0]}"
    return True, f"{len(rows)} rows x {n_columns} finite columns"


def rd_degradations(samples_in, curves_dir, ladders_csv):
    """Silent degradations of `rd build` + `hull`, counted from their outputs.

    Pareto-dropped points come from the curve files; dominance sentinels
    and `monotone_clamp` changes come from calling `rd_core.cross_over`
    on each adjacent pair and comparing with the written ladder.
    """
    kept = 0
    for name in os.listdir(curves_dir):
        with open(os.path.join(curves_dir, name)) as f:
            kept += sum(len(pts) for pts in json.load(f)["resolutions"].values())
    ladders = _ladder_rows(ladders_csv)
    sentinels = clamped = 0
    for (clip_id, *_), curves in pipeline.read_curves_dir(curves_dir).items():
        max_bitrate = max(c.max_bitrate for c in curves.values())
        raw = []
        for lo, hi in zip(LADDER_RESOLUTIONS[:-1], LADDER_RESOLUTIONS[1:]):
            p = rd_core.cross_over(curves[lo], curves[hi], max_bitrate)
            sentinels += p in (curves[hi].min_bitrate, max_bitrate)
            raw.append(p)
        clamped += tuple(raw) != ladders[clip_id]
    counts = {
        "rd_points_in": samples_in,
        "rd_points_kept": kept,
        "pareto_dropped": samples_in - kept,
        "sentinel_cross_overs": sentinels,
        "clamped_eel_ladders": clamped,
    }
    return counts


def clamped_rows(ladders_csv):
    """Ladder rows where forward clamping made two cross-overs equal."""
    return sum(p1 == p2 or p2 == p3 for p1, p2, p3 in _ladder_rows(ladders_csv).values())


def read_report(path):
    with open(path) as f:
        return json.load(f)


def report_quality(report):
    return {
        "heldout_r2": float(np.median([report["per_target"][t]["r2"] for t in ("p1", "p2", "p3")])),
        "bdbr_vs_eel_pct": report["bdbr_vs_eel"],
        "bdbr_vs_sl_pct": report["bdbr_vs_sl"],
        "ladder_accuracy": report["accuracy"],
    }


class Corpus:
    """Held-out per-title prediction on small synthetic clips (the paper's main use)."""

    name = "corpus"
    n_train, n_heldout = 100, 50
    width, height, frames = 128, 96, 6
    qp_set = list(range(0, 55, 3))
    n_trees = 30

    def setup(self, inputs, seed):
        specs = synth.corpus_specs(self.n_train + self.n_heldout, seed)
        clips = [
            synth.synth_clip(
                os.path.join(inputs, f"{s.clip_id}.yuv"), s.clip_id, self.width,
                self.height, self.frames, s.texture_sigma, s.motion, s.seed,
            )
            for s in specs
        ]
        _write_manifest(os.path.join(inputs, "manifest.jsonl"), clips)
        n_samples = _write_rd_samples(os.path.join(inputs, "rd.csv"), specs, self.qp_set)
        ids = [s.clip_id for s in specs]
        return {
            "inputs": inputs,
            "seed": seed,
            "samples": n_samples,
            "train": set(ids[: self.n_train]),
            "heldout": set(ids[self.n_train :]),
        }

    def pipeline(self, run_stage, ctx, out):
        inp = ctx["inputs"]
        run_stage("rd_build", ["rd", "build", "--samples", f"{inp}/rd.csv", "--out", f"{out}/curves"])
        run_stage("hull", ["hull", "--curves", f"{out}/curves", "--metric", METRIC,
                           "--out", f"{out}/ladders.csv"])
        run_stage("features_vod", ["features", "vod", "--manifest", f"{inp}/manifest.jsonl",
                                   "--out", f"{out}/vod.csv", "--jobs", "2"])
        _copy_rows(f"{out}/ladders.csv", f"{out}/ladders_train.csv", ctx["train"])
        _copy_rows(f"{out}/ladders.csv", f"{out}/ladders_heldout.csv", ctx["heldout"])
        _copy_rows(f"{out}/vod.csv", f"{out}/vod_heldout.csv", ctx["heldout"])
        models = []
        for target in ("p1", "p2", "p3"):
            models += ["--model", f"{out}/model_{target}.json"]
            run_stage(f"train_{target}", [
                "train", "--features", f"{out}/vod.csv", "--ladders", f"{out}/ladders_train.csv",
                "--target", target, "--n-trees", str(self.n_trees), "--seed", str(ctx["seed"]),
                "--out", f"{out}/model_{target}.json",
            ])
        run_stage("predict", ["predict", "--features", f"{out}/vod_heldout.csv",
                              "--out", f"{out}/pred.csv", *models])
        run_stage("evaluate", ["evaluate", "--pred", f"{out}/pred.csv",
                               "--eel", f"{out}/ladders_heldout.csv",
                               "--sl-from-train", f"{out}/ladders_train.csv",
                               "--curves", f"{out}/curves", "--out", f"{out}/report.json"])

    def check(self, ctx, out):
        checks = []
        ok, detail = check_feature_csv(f"{out}/vod.csv", 30, ctx["train"] | ctx["heldout"])
        checks.append(("vod_csv", ok, detail))
        counts = rd_degradations(ctx["samples"], f"{out}/curves", f"{out}/ladders.csv")
        counts["clamped_pred_ladders"] = clamped_rows(f"{out}/pred.csv")
        feature_ids = {r[0] for r in _read_table(f"{out}/vod.csv")[1]}
        pred_ids = set(_ladder_rows(f"{out}/pred.csv"))
        counts["join_lost_train"] = len(set(_ladder_rows(f"{out}/ladders_train.csv")) - feature_ids)
        counts["join_lost_eval"] = len(set(_ladder_rows(f"{out}/ladders_heldout.csv")) - pred_ids)

        quality = report_quality(read_report(f"{out}/report.json"))
        # A3's second gate compares against the static ladder used as the
        # prediction; evaluate does not report that, so score it here.
        eel = pipeline.read_ladders_csv(f"{out}/ladders_heldout.csv")
        train = pipeline.read_ladders_csv(f"{out}/ladders_train.csv")
        curves = pipeline.read_curves_dir(f"{out}/curves")
        sl = evaluation.static_ladder([l.cross_overs for l in train.values()])
        eel_by_clip = {k[0]: v for k, v in eel.items()}
        sl_report = evaluation.evaluate_method(
            {c: rd_core.BitrateLadder(sl) for c in eel_by_clip}, eel_by_clip, sl,
            {k[0]: v for k, v in curves.items() if k[0] in eel_by_clip},
        )
        quality["sl_bdbr_vs_eel_pct"] = sl_report.bdbr_vs_eel
        checks.append(("a3_median_r2", quality["heldout_r2"] >= 0.8,
                       f"median held-out R2 {quality['heldout_r2']:.4f} (gate >= 0.8)"))
        checks.append(("a3_beats_sl", quality["bdbr_vs_eel_pct"] < sl_report.bdbr_vs_eel,
                       f"BD-BR vs EEL {quality['bdbr_vs_eel_pct']:.4f}% "
                       f"(SL {sl_report.bdbr_vs_eel:.4f}%)"))
        return checks, counts, quality


class Extract:
    """Feature extraction on three frame sizes below and far above the caches."""

    name = "extract"
    sizes = ((640, 360), (1920, 1080), (3840, 2160))
    frames = 3  # the live set needs three frames

    def setup(self, inputs, seed):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xE7]))
        clips = []
        for w, h in self.sizes:
            clip_id = f"src{h}p"
            clips.append(synth.synth_clip(
                os.path.join(inputs, f"{clip_id}.yuv"), clip_id, w, h, self.frames,
                float(rng.uniform(2.0, 28.0)), float(rng.uniform(0.0, 4.0)),
                int(seed) * 100003 + h,
            ))
        _write_manifest(os.path.join(inputs, "manifest.jsonl"), clips)
        return {"inputs": inputs, "seed": seed, "clips": {c.clip_id for c in clips}}

    def pipeline(self, run_stage, ctx, out):
        manifest = f"{ctx['inputs']}/manifest.jsonl"
        run_stage("features_vod", ["features", "vod", "--manifest", manifest,
                                   "--out", f"{out}/vod.csv", "--jobs", "1"])
        run_stage("features_live", ["features", "live", "--manifest", manifest,
                                    "--out", f"{out}/live.csv", "--jobs", "1"])

    def check(self, ctx, out):
        checks = []
        for kind, n in (("vod", 30), ("live", 40)):
            ok, detail = check_feature_csv(f"{out}/{kind}.csv", n, ctx["clips"])
            checks.append((f"{kind}_csv", ok, detail))
        return checks, {}, {}


class RdDense:
    """Many clips of RD samples only: curves, cross-overs and per-clip PCHIP."""

    name = "rd-dense"
    n_clips = 400
    qp_set = list(range(0, 55))
    pred_ln_sigma = 0.2  # spread of the benchmark-made "predicted" ladder

    def setup(self, inputs, seed):
        specs = synth.corpus_specs(self.n_clips, seed)
        n_samples = _write_rd_samples(os.path.join(inputs, "rd.csv"), specs, self.qp_set)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xBD]))
        rows = []
        for spec in specs:
            ln_p = np.sort(np.asarray(designed_ln_p(spec)) + rng.normal(0.0, self.pred_ln_sigma, 3))
            co = rd_core.CrossOverSet(*(float(v) for v in np.exp(ln_p)), METRIC)
            rows.append((spec.clip_id, CODEC, PLATFORM, rd_core.BitrateLadder(co)))
        pipeline.write_ladders_csv(os.path.join(inputs, "pred.csv"), rows)
        return {
            "inputs": inputs,
            "seed": seed,
            "samples": n_samples,
            "designed": {s.clip_id: designed_ln_p(s) for s in specs},
        }

    def pipeline(self, run_stage, ctx, out):
        inp = ctx["inputs"]
        run_stage("rd_build", ["rd", "build", "--samples", f"{inp}/rd.csv", "--out", f"{out}/curves"])
        run_stage("hull", ["hull", "--curves", f"{out}/curves", "--metric", METRIC,
                           "--out", f"{out}/ladders.csv"])
        run_stage("evaluate", ["evaluate", "--pred", f"{inp}/pred.csv",
                               "--eel", f"{out}/ladders.csv",
                               "--sl-from-train", f"{out}/ladders.csv",
                               "--curves", f"{out}/curves", "--out", f"{out}/report.json"])

    def check(self, ctx, out):
        counts = rd_degradations(ctx["samples"], f"{out}/curves", f"{out}/ladders.csv")
        ladders = _ladder_rows(f"{out}/ladders.csv")
        pred = _ladder_rows(f"{ctx['inputs']}/pred.csv")
        counts["join_lost_eval"] = len(set(ladders) - set(pred))
        worst = max(
            abs(math.log(p) - d)
            for clip_id, designed in ctx["designed"].items()
            for p, d in zip(ladders[clip_id], designed)
        )
        checks = [("cross_over_tolerance", worst <= CROSS_OVER_LN_TOL,
                   f"max |ln P - designed| {worst:.4f} (tolerance {CROSS_OVER_LN_TOL})")]
        report = read_report(f"{out}/report.json")
        quality = report_quality(report)
        # Recompute evaluate's R2 from the two ladder files.
        ids = sorted(ladders)
        worst_r2 = 0.0
        for k, t in enumerate(("p1", "p2", "p3")):
            x = np.log([pred[c][k] for c in ids])
            y = np.log([ladders[c][k] for c in ids])
            r2 = 1.0 - np.sum((x - y) ** 2) / np.sum((y - y.mean()) ** 2)
            worst_r2 = max(worst_r2, abs(r2 - report["per_target"][t]["r2"]))
        checks.append(("report_r2", worst_r2 <= 1e-9, f"max |R2 - recomputed| {worst_r2:.2e}"))
        checks.append(("report_finite", all(math.isfinite(v) for v in quality.values())
                       and 0.0 <= quality["ladder_accuracy"] <= 1.0,
                       f"accuracy {quality['ladder_accuracy']:.4f}"))
        return checks, counts, quality


WORKLOADS = {w.name: w for w in (Corpus(), Extract(), RdDense())}
