"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the terminal (bypassing
capture) so a full run gives a one-line verdict per criterion.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats as sstats

from ladderlab import learning
from ladderlab.cli import main
from ladderlab.evaluation import (
    bd_rate,
    correlation_metrics,
    evaluate_method,
    static_ladder,
)
from ladderlab.features_live import (
    block_energies,
    extract_live,
    temporal_energy,
)
from ladderlab.features_vod import (
    VOD_FEATURE_NAMES,
    extract_vod,
    glcm_descriptors,
    ncc,
    noise_estimate,
    spatial_information,
    temporal_information,
)
from ladderlab.media_io import read_frames
from ladderlab.pipeline import (
    Manifest,
    read_feature_csv,
    read_ladders_csv,
    save_manifest,
    write_rd_samples_csv,
)
from ladderlab.rd_core import BitrateLadder, RDPoint, build_rd_curve, cross_over
from ladderlab.synth import corpus_specs, synth_clip, synth_rd
from oracles import (
    dct_energy_oracle,
    glcm_oracle,
    ncc_oracle,
    noise_oracle,
    sobel_si_oracle,
    stratified_split,
    temporal_energy_oracle,
    ti_oracle,
)


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# --------------------------------------------------------------------------
# A1: analytic cross-over

def test_a1_crossover_analytic(capsys):
    rates = np.geomspace(10, 5000, 120)
    lower = build_rd_curve(
        [RDPoint(r, 30 + 2 * math.log(r)) for r in rates], (720, 480), "ypsnr"
    )
    higher = build_rd_curve(
        [RDPoint(r, 20 + 4 * math.log(r)) for r in rates], (1280, 720), "ypsnr"
    )
    # warm the interpolators so only the search itself is timed
    cross_over(lower, higher, 40000)
    t0 = time.perf_counter()
    got = cross_over(lower, higher, 40000)
    elapsed = time.perf_counter() - t0
    want = math.exp(5.0)
    rel = abs(got - want) / want
    report(
        capsys, "A1", rel < 0.005 and elapsed < 0.010,
        f"cross-over {got:.3f} kbps (rel err {rel:.2e}), {elapsed * 1e3:.2f} ms",
    )


# --------------------------------------------------------------------------
# A2: BD-BR exactness

def test_a2_bdbr_exactness(capsys):
    base = np.array([(100.0, 32.0), (300.0, 35.0), (900.0, 38.0), (2700.0, 41.0)])
    t0 = time.perf_counter()
    ident = abs(bd_rate(base, base))
    scaled = base.copy()
    scaled[:, 0] *= 1.10
    ten = bd_rate(base, scaled)
    rng = np.random.default_rng(0)
    worst_anti = 0.0
    n_calls = 2
    for _ in range(100):
        # monotone 4-point sets with separated qualities, as produced by
        # Pareto-cleaned curves; near-duplicate qualities make the cubic
        # fit itself ill-conditioned and are rejected upstream
        q = 30.0 + np.cumsum(rng.uniform(1.0, 4.0, 4))
        a = np.column_stack([np.sort(np.exp(rng.uniform(4, 9, 4))), q])
        b = np.column_stack([a[:, 0] * rng.uniform(0.8, 1.3, 4), q])
        fwd = bd_rate(a, b)
        bwd = bd_rate(b, a)
        n_calls += 2
        worst_anti = max(worst_anti, abs((1 + fwd / 100) * (1 + bwd / 100) - 1))
    per_call = (time.perf_counter() - t0) / n_calls
    ok = (
        ident < 1e-9
        and abs(ten - 10.0) <= 1e-6
        and worst_anti <= 1e-6
        and per_call < 1e-3
    )
    report(
        capsys, "A2", ok,
        f"identity {ident:.1e}, scaling {ten:.7f}%, antisym {worst_anti:.1e}, "
        f"{per_call * 1e6:.0f} us/call",
    )


# --------------------------------------------------------------------------
# A3 + A9 shared synthetic corpus

N_CORPUS = 200
QP_SET = list(range(0, 55, 3))


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """200 synthetic clips with feature-coupled RD laws, staged via the CLI."""
    root = tmp_path_factory.mktemp("corpus")
    specs = corpus_specs(N_CORPUS, seed=0)
    manifest = Manifest(clips=[], strata={})
    rd_rows = []
    for spec in specs:
        clip = synth_clip(
            root / f"{spec.clip_id}.yuv", spec.clip_id, 128, 96, 6,
            spec.texture_sigma, spec.motion, spec.seed,
        )
        manifest.clips.append(clip)
        for res, points in synth_rd(spec.params, QP_SET).items():
            rd_rows.extend(
                (spec.clip_id, "avc", "software", res, p, "ypsnr") for p in points
            )
    manifest_path = root / "manifest.jsonl"
    save_manifest(manifest_path, manifest)
    samples_path = root / "rd_samples.csv"
    write_rd_samples_csv(samples_path, rd_rows)

    curves_dir = root / "curves"
    ladders_path = root / "ladders.csv"
    features_path = root / "features_vod.csv"
    live_path = root / "features_live.csv"
    assert main(["rd", "build", "--samples", str(samples_path),
                 "--out", str(curves_dir)]) == 0
    assert main(["hull", "--curves", str(curves_dir), "--metric", "ypsnr",
                 "--out", str(ladders_path)]) == 0
    assert main(["features", "vod", "--manifest", str(manifest_path),
                 "--out", str(features_path)]) == 0
    assert main(["features", "live", "--manifest", str(manifest_path),
                 "--out", str(live_path)]) == 0
    return {
        "root": root,
        "manifest": manifest_path,
        "samples": samples_path,
        "curves": curves_dir,
        "ladders": ladders_path,
        "features": features_path,
        "features_live": live_path,
    }


def report_a3(capsys, name, corpus, features, kind):
    """A3's gates on `kind` models trained on the corpus file `features`,
    over three stratified splits of the corpus."""
    t0 = time.perf_counter()
    _, vod = read_feature_csv(corpus["features"])
    names, table = read_feature_csv(corpus[features])
    ladders = read_ladders_csv(corpus["ladders"])
    from ladderlab.pipeline import read_curves_dir

    curves = {k[0]: v for k, v in read_curves_dir(corpus["curves"]).items()}
    clip_ids = sorted(table)
    X = np.array([table[c] for c in clip_ids])
    eel = {c: ladders[(c, "avc", "software", "ypsnr")] for c in clip_ids}

    # strata: quartiles of mean spatial information (VoD feature F21)
    si = np.array([vod[c][20] for c in clip_ids])
    edges = np.quantile(si, [0.25, 0.5, 0.75])
    strata = [int(np.searchsorted(edges, v)) for v in si]

    r2_values = []
    bdbr_method = []
    bdbr_sl = []
    for seed in (0, 1, 2):
        train_ids, test_ids = stratified_split(clip_ids, strata, 0.2, seed)
        idx = {c: i for i, c in enumerate(clip_ids)}
        preds = {}
        for target in ("p1", "p2", "p3"):
            y = np.array(
                [math.log(getattr(eel[c].cross_overs, target)) for c in clip_ids]
            )
            m_train = learning.TrainingMatrix(
                train_ids, names, X[[idx[c] for c in train_ids]],
                y[[idx[c] for c in train_ids]],
            )
            model = learning.train(
                m_train, learning.Hyperparams(n_trees=100, seed=seed), kind
            )
            pred_log = learning.predict_log(model, X[[idx[c] for c in test_ids]])
            ref_log = y[[idx[c] for c in test_ids]]
            r2, _, _ = correlation_metrics(pred_log, ref_log)
            r2_values.append(r2)
            preds[target] = np.exp(pred_log)
        pred_ladders = {}
        from ladderlab.rd_core import CrossOverSet, monotone_clamp

        for j, c in enumerate(test_ids):
            p1, p2, p3 = monotone_clamp(
                preds["p1"][j], preds["p2"][j], preds["p3"][j]
            )
            pred_ladders[c] = BitrateLadder(CrossOverSet(p1, p2, p3, "ypsnr"))
        sl = static_ladder([eel[c].cross_overs for c in train_ids])
        eel_test = {c: eel[c] for c in test_ids}
        curves_test = {c: curves[c] for c in test_ids}
        method = evaluate_method(pred_ladders, eel_test, sl, curves_test)
        sl_as_pred = {c: BitrateLadder(sl) for c in test_ids}
        baseline = evaluate_method(sl_as_pred, eel_test, sl, curves_test)
        bdbr_method.append(method.bdbr_vs_eel)
        bdbr_sl.append(baseline.bdbr_vs_eel)

    elapsed = time.perf_counter() - t0
    med_r2 = float(np.median(r2_values))
    med_method = float(np.median(bdbr_method))
    med_sl = float(np.median(bdbr_sl))
    ok = med_r2 >= 0.8 and med_method < med_sl and elapsed < 600
    report(
        capsys, name, ok,
        f"median held-out R2 {med_r2:.3f}, BD-BR vs EEL {med_method:.3f}% "
        f"(SL {med_sl:.3f}%), {elapsed:.1f} s",
    )


def test_a3_synthetic_end_to_end(capsys, corpus):
    report_a3(capsys, "A3", corpus, "features", "extratrees")


@pytest.mark.parametrize("features, kind", [
    ("features", "rf"), ("features_live", "extratrees"), ("features_live", "rf"),
], ids=["vod-rf", "live-extratrees", "live-rf"])
def test_a3_other_method_cells(capsys, corpus, features, kind):
    """A3's gates on the rest of the paper's method matrix: VoD or live
    features, ExtraTrees or random-forest models."""
    label = "VoD" if features == "features" else "live"
    report_a3(capsys, f"A3 {label}/{kind}", corpus, features, kind)


# --------------------------------------------------------------------------
# A4: RFE support recovery

def test_a4_rfe_support_recovery(capsys):
    t0 = time.perf_counter()
    hits = 0
    n_seeds = 20
    for seed in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA4]))
        n, d = 120, 30
        X = rng.uniform(-1, 1, size=(n, d))
        beta = np.zeros(d)
        beta[:5] = (2.0, -2.0, 2.0, -2.0, 2.0)
        y = X @ beta + rng.normal(0, 0.05, n)
        matrix = learning.TrainingMatrix(
            [f"c{i}" for i in range(n)], [f"F{i + 1}" for i in range(d)], X, y
        )
        report_sel = learning.rfe_select(
            matrix,
            hyperparams=learning.Hyperparams(
                n_trees=15, min_samples_split=4, seed=seed
            ),
            seed=seed,
        )
        if {"F1", "F2", "F3", "F4", "F5"} <= set(report_sel.kept):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 0.9 * n_seeds and elapsed < 120
    report(capsys, "A4", ok, f"support recovered {hits}/{n_seeds}, {elapsed:.1f} s")


# --------------------------------------------------------------------------
# A5: trivial feature suite on a constant clip

def test_a5_constant_clip_trivials(capsys, tmp_path):
    clip = synth_clip(tmp_path / "const.yuv", "const", 64, 64, 3,
                      texture_sigma=0.0, motion=0.0, seed=0)
    frames = list(read_frames(clip))
    y0, y1 = frames[0][0], frames[1][0]
    con, _, enr, _, ent = glcm_descriptors(y0)
    e_blocks = block_energies(y0)
    checks = {
        "SI": spatial_information(y0),
        "TI": temporal_information(y0, y1),
        "CF": 0.0,  # achromatic by construction; checked via extract_vod below
        "GLCM_con": con,
        "GLCM_ent": ent,
        "noise": noise_estimate(y0),
        "E": float(e_blocks.mean()),
        "h": temporal_energy(e_blocks, block_energies(y1)),
    }
    vod = dict(zip(VOD_FEATURE_NAMES, extract_vod(clip).values))
    live = extract_live(clip)
    worst = max(
        max(abs(v) for v in checks.values()),
        abs(vod["mean_CF"]),
        abs(vod["mean_NCC"] - 1.0),
        abs(enr - 1.0),
        max(abs(v) for v in live.values[:30]),  # E, h, eps groups all zero
    )
    report(capsys, "A5", worst < 1e-9, f"worst deviation {worst:.1e}")


# --------------------------------------------------------------------------
# A6: oracle equivalence on 20 random frames

def _rel_err(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    scale = np.maximum(np.abs(b), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def test_a6_oracle_equivalence(capsys):
    worst = 0.0
    prev = None
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA6]))
        frame = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        worst = max(worst, _rel_err(glcm_descriptors(frame), glcm_oracle(frame)))
        worst = max(worst, _rel_err(spatial_information(frame), sobel_si_oracle(frame)))
        worst = max(worst, _rel_err(noise_estimate(frame), noise_oracle(frame)))
        worst = max(worst, _rel_err(block_energies(frame), dct_energy_oracle(frame)))
        if prev is not None:
            worst = max(worst, _rel_err(
                temporal_information(prev, frame), ti_oracle(prev, frame)))
            worst = max(worst, _rel_err(ncc(prev, frame), ncc_oracle(prev, frame)))
            worst = max(worst, _rel_err(
                temporal_energy(block_energies(prev), block_energies(frame)),
                temporal_energy_oracle(prev, frame),
            ))
        prev = frame
    report(capsys, "A6", worst < 1e-6, f"worst relative error {worst:.1e}")


# --------------------------------------------------------------------------
# A7: correlation metric cross-check

def test_a7_metric_cross_check(capsys):
    rng = np.random.default_rng(0xA7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        ref = rng.normal(size=n)
        pred = 0.5 * ref + rng.normal(size=n)
        r2, srocc, plcc = correlation_metrics(pred, ref)
        want_plcc = sstats.pearsonr(pred, ref).statistic
        want_srocc = sstats.spearmanr(pred, ref).statistic
        want_r2 = 1.0 - np.sum((pred - ref) ** 2) / np.sum((ref - ref.mean()) ** 2)
        worst = max(worst, abs(plcc - want_plcc), abs(srocc - want_srocc),
                    abs(r2 - want_r2))
    # SROCC invariance under a strictly increasing transform
    ref = rng.normal(size=30)
    pred = rng.normal(size=30)
    _, s1, _ = correlation_metrics(pred, ref)
    _, s2, _ = correlation_metrics(np.exp(3.0 * pred) + pred, ref)
    invariant = s1 == s2
    report(
        capsys, "A7", worst < 1e-9 and invariant,
        f"worst deviation {worst:.1e}, SROCC invariance {'exact' if invariant else 'BROKEN'}",
    )


# --------------------------------------------------------------------------
# A8: live-feature runtime budget on a UHD clip

def test_a8_live_feature_budget(capsys, tmp_path):
    clip = synth_clip(tmp_path / "uhd.yuv", "uhd", 3840, 2160, 64,
                      texture_sigma=12.0, motion=1.0, seed=0xA8)
    # Write the 800 MB clip back to disk first, so the host's writeback of
    # it is not timed as feature extraction.
    with open(clip.path, "rb") as f:
        os.fsync(f.fileno())
    t0 = time.perf_counter()
    extract_live(clip)
    live_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    extract_vod(clip)
    vod_t = time.perf_counter() - t0
    os.unlink(clip.path)
    ok = live_t <= 10.0 and vod_t <= 20.0 * live_t
    report(capsys, "A8", ok, f"live {live_t:.2f} s, vod {vod_t:.2f} s "
           f"({vod_t / live_t:.1f}x)")


# --------------------------------------------------------------------------
# A9: CLI determinism across reruns and worker counts

def test_a9_cli_determinism(capsys, corpus, tmp_path):
    outputs = []
    for tag, jobs in (("r1", 1), ("r2", 1), ("r3", 2)):
        run = tmp_path / tag
        run.mkdir()
        curves = run / "curves"
        ladders = run / "ladders.csv"
        features = run / "features.csv"
        pred = run / "pred.csv"
        assert main(["rd", "build", "--samples", str(corpus["samples"]),
                     "--out", str(curves)]) == 0
        assert main(["hull", "--curves", str(curves), "--metric", "ypsnr",
                     "--out", str(ladders)]) == 0
        assert main(["features", "vod", "--manifest", str(corpus["manifest"]),
                     "--out", str(features), "--jobs", str(jobs)]) == 0
        models = []
        for target in ("p1", "p2", "p3"):
            model = run / f"model_{target}.json"
            assert main(["train", "--features", str(features),
                         "--ladders", str(ladders), "--target", target,
                         "--n-trees", "20", "--out", str(model)]) == 0
            models.append(model)
        cmd = ["predict", "--features", str(features), "--out", str(pred)]
        for m in models:
            cmd += ["--model", str(m)]
        assert main(cmd) == 0
        blob = b"".join(
            p.read_bytes() for p in (ladders, features, pred, *models)
        ) + b"".join(
            (curves / n).read_bytes() for n in sorted(os.listdir(curves))
        )
        outputs.append(blob)
    ok = outputs[0] == outputs[1] == outputs[2]
    report(capsys, "A9", ok, "byte-identical across reruns and --jobs 1/2")
