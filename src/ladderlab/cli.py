"""Command-line entry points for the ladder toolkit.

Exit codes: 0 success, 1 validation/usage error, 2 external tool failure.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import evaluation, learning, media_io, pipeline, rd_core, stats
from .errors import DriverError, LadderError, ValidationError
from .features_live import extract_live
from .features_vod import extract_vod


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="ladderlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract feature vectors from a manifest")
    p.add_argument("kind", choices=("vod", "live"))
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker count (never changes output)")
    p.set_defaults(func=_cmd_features, inputs=("manifest",))

    p = sub.add_parser("rd", help="rate-distortion curve tools")
    rd_sub = p.add_subparsers(dest="rd_command", required=True)
    pb = rd_sub.add_parser("build", help="build Pareto-cleaned curves from samples")
    pb.add_argument("--samples", required=True)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=_cmd_rd_build, inputs=("samples",))

    p = sub.add_parser("hull", help="compute exhaustive-encoding ladders")
    p.add_argument("--curves", required=True)
    p.add_argument("--metric", choices=rd_core.METRICS, required=True)
    p.add_argument("--max-bitrate", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hull, inputs=("curves",))

    p = sub.add_parser("train", help="train a cross-over regressor")
    p.add_argument("--features", required=True)
    p.add_argument("--ladders", required=True)
    p.add_argument("--target", choices=learning.TARGET_IDS, required=True)
    p.add_argument("--model-kind", choices=learning.MODEL_KINDS, default="extratrees")
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train, inputs=("features", "ladders"))

    p = sub.add_parser("select", help="recursive feature elimination report")
    p.add_argument("--features", required=True)
    p.add_argument("--ladders", required=True)
    p.add_argument("--target", choices=learning.TARGET_IDS, default="p3")
    p.add_argument("--model-kind", choices=learning.MODEL_KINDS, default="extratrees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select, inputs=("features", "ladders"))

    p = sub.add_parser("predict", help="predict ladders from feature vectors")
    p.add_argument("--model", action="append", required=True,
                   help="model file; repeat for p1/p2/p3")
    p.add_argument("--features", required=True)
    p.add_argument("--codec", choices=pipeline.CODECS, default="avc")
    p.add_argument("--platform", choices=pipeline.PLATFORMS, default="software")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict, inputs=("model", "features"))

    p = sub.add_parser("evaluate", help="score predicted ladders")
    p.add_argument("--pred", required=True)
    p.add_argument("--eel", required=True)
    p.add_argument("--sl-from-train", required=True,
                   help="training-set ladder CSV used to build the static ladder")
    p.add_argument("--curves", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate,
                   inputs=("pred", "eel", "sl_from_train", "curves"))

    p = sub.add_parser("bdbr", help="BD-BR between two (rate, quality) sample sets")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_bdbr)

    p = sub.add_parser("encode", help="run the external encoder sweep")
    p.add_argument("--profile", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--workdir", default=".")
    p.add_argument("--metric-name", choices=rd_core.METRICS, default="ypsnr")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker count (never changes output)")
    p.set_defaults(func=_cmd_encode, inputs=("profile", "manifest"))

    p = sub.add_parser("synth", help="synthetic oracles")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)
    pr = synth_sub.add_parser("rd", help="synthetic RD samples for one clip")
    pr.add_argument("--params", required=True)
    pr.add_argument("--clip-id", default="synth")
    pr.add_argument("--qp-set", default="15:45", help="lo:hi[:step], inclusive")
    pr.add_argument("--codec", choices=pipeline.CODECS, default="avc")
    pr.add_argument("--platform", choices=pipeline.PLATFORMS, default="software")
    pr.add_argument("--metric", choices=rd_core.METRICS, default="ypsnr")
    pr.add_argument("--seed", type=int, default=0, help="used when the params file has none")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_synth_rd, inputs=("params",))
    pc = synth_sub.add_parser("clip", help="synthetic raw clip")
    pc.add_argument("--out", required=True)
    pc.add_argument("--clip-id", default="synth")
    pc.add_argument("--width", type=int, required=True)
    pc.add_argument("--height", type=int, required=True)
    pc.add_argument("--frames", type=int, required=True)
    pc.add_argument("--sigma", type=float, default=10.0)
    pc.add_argument("--motion", type=float, default=0.0)
    pc.add_argument("--fps", type=float, default=60.0)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--manifest", default=None, help="manifest to append the clip to")
    pc.set_defaults(func=_cmd_synth_clip, inputs=("manifest",))

    return parser


_FEATURE_EXTRACTORS = {"vod": extract_vod, "live": extract_live}


def _extract_one(arg):
    kind, clip = arg
    try:
        return clip.clip_id, _FEATURE_EXTRACTORS[kind](clip)
    except LadderError as exc:
        # Runs in worker processes, whose errors are pickled; a
        # ValidationError pickles, a TruncatedFileError does not.
        raise ValidationError(f"{clip.clip_id}: {exc}") from exc


def _cmd_features(args):
    manifest = pipeline.load_manifest(args.manifest)
    rows = pipeline.parallel_map(
        _extract_one, [(args.kind, c) for c in manifest.clips], args.jobs
    )
    pipeline.write_feature_csv(args.out, args.kind, rows)


def _cmd_rd_build(args):
    samples = pipeline.read_rd_samples_csv(args.samples)
    curves = pipeline.build_curves(samples, args.samples)
    pipeline.write_curves_dir(args.out, curves)


def _cmd_hull(args):
    # A cross-over can take this value, and ladder readers reject it
    # when it is not a positive, finite bitrate.
    if args.max_bitrate is not None and not (
            math.isfinite(args.max_bitrate) and args.max_bitrate > 0):
        raise ValidationError(
            f"--max-bitrate must be a positive, finite bitrate, got {args.max_bitrate}")
    curves = pipeline.read_curves_dir(args.curves)
    rows = []
    for (clip_id, codec, platform, metric), by_res in sorted(curves.items()):
        if metric != args.metric:
            continue
        try:
            ladder = rd_core.eel_ladder(by_res, args.max_bitrate)
        except LadderError as exc:
            raise ValidationError(f"clip {clip_id}: {exc}") from exc
        rows.append((clip_id, codec, platform, ladder))
    if not rows:
        raise ValidationError(f"no curves found for metric {args.metric!r}")
    pipeline.write_ladders_csv(args.out, rows)


def _one_combination(path, keyed):
    """The single (codec, platform, metric) of a ladder file or curves directory.

    Commands key these rows by clip_id alone, so a mixed input would
    silently keep one row per clip.
    """
    combos = sorted({k[1:] for k in keyed})
    if len(combos) != 1:
        raise ValidationError(
            f"{path}: expected one codec/platform/metric combination, found {combos}"
        )
    return combos[0]


def _training_matrix(features_path, ladders_path, target):
    names, table = pipeline.read_feature_csv(features_path)
    ladders = pipeline.read_ladders_csv(ladders_path)
    codec, platform, metric = _one_combination(ladders_path, ladders)
    clip_ids = sorted(
        cid for (cid, *_rest) in ladders if cid in table
    )
    if not clip_ids:
        raise ValidationError("no clips shared between features and ladders")
    X = np.array([table[c] for c in clip_ids])
    y = np.array(
        [
            math.log(getattr(ladders[(c, codec, platform, metric)].cross_overs, target))
            for c in clip_ids
        ]
    )
    return learning.TrainingMatrix(clip_ids, names, X, y), metric


def _cmd_train(args):
    matrix, metric = _training_matrix(args.features, args.ladders, args.target)
    hp = learning.Hyperparams(n_trees=args.n_trees, seed=args.seed)
    model = learning.train(matrix, hp, args.model_kind, args.target, metric)
    learning.save_model(model, args.out)


def _cmd_select(args):
    matrix, _ = _training_matrix(args.features, args.ladders, args.target)
    report = learning.rfe_select(
        matrix, kind=args.model_kind, seed=args.seed
    )
    pipeline.write_json(args.out, {
        "kept": report.kept,
        "trace": [[n, plcc] for n, plcc in report.trace],
        "importances": report.importances,
    })


def _cmd_predict(args):
    names, table = pipeline.read_feature_csv(args.features)
    loaded = [learning.load_model(path) for path in args.model]
    targets = [m.target_id for m in loaded]
    repeated = sorted({t for t in targets if targets.count(t) > 1})
    if repeated:
        raise ValidationError(f"more than one model given for targets: {repeated}")
    missing = [t for t in learning.TARGET_IDS if t not in targets]
    if missing:
        raise ValidationError(f"no model provided for targets: {missing}")
    metrics = sorted({m.metric for m in loaded})
    if len(metrics) != 1:
        raise ValidationError(f"models were trained for different metrics: {metrics}")
    if any(m.feature_names != loaded[0].feature_names for m in loaded):
        raise ValidationError("models were trained on different feature columns")
    models = {m.target_id: m for m in loaded}
    clip_ids = sorted(table)
    X = np.array([table[c] for c in clip_ids]).reshape(len(clip_ids), len(names))
    preds = [
        learning.predict(models[t], X, feature_names=names).tolist()
        for t in learning.TARGET_IDS
    ]
    rows = []
    for clip_id, p in zip(clip_ids, zip(*preds)):
        co = rd_core.CrossOverSet(*rd_core.monotone_clamp(*p), metrics[0])
        rows.append((clip_id, args.codec, args.platform, rd_core.BitrateLadder(co)))
    pipeline.write_ladders_csv(args.out, rows)


def _table_path(out):
    """Where `evaluate --out out` writes its per-clip table."""
    return os.path.splitext(out)[0] + ".csv"


def _check_outputs(args):
    """Reject, before the command runs, an output it must not or cannot write.

    Every command but `bdbr` writes --out, and `evaluate` also writes its
    per-clip table, which may not be --out itself.  An output may not be
    one of the command's inputs (each subcommand lists its input options
    as `inputs`) or a clip file its --manifest lists; paths are compared
    after resolving symlinks and `..`.  `rd build` writes a directory and
    the others a file, and an existing output must be of that kind.
    """
    if not hasattr(args, "out"):
        return
    inputs = {}
    for dest in args.inputs:
        paths = getattr(args, dest)
        for path in paths if isinstance(paths, list) else [paths]:
            if path is not None:
                inputs[os.path.realpath(path)] = "--" + dest.replace("_", "-")
    outputs = [args.out]
    if args.func is _cmd_evaluate:
        table = _table_path(args.out)
        if table == args.out:
            raise ValidationError(
                f"--out {args.out}: the per-clip table goes to {table}, "
                "so the report needs another extension")
        outputs.append(table)
    command = " ".join(
        name for name in (args.command, getattr(args, "rd_command", None),
                          getattr(args, "synth_command", None)) if name)
    want = "directory" if args.func is _cmd_rd_build else "file"
    for out in outputs:
        flag = inputs.get(os.path.realpath(out))
        if flag:
            raise ValidationError(
                f"--out {args.out}: {command} would write {out}, which is the {flag} input")
        found = "directory" if os.path.isdir(out) else "file"
        if os.path.exists(out) and found != want:
            raise ValidationError(
                f"--out {args.out}: {command} writes a {want}, but {out} is a {found}")
    manifest = getattr(args, "manifest", None)
    if manifest and os.path.isfile(manifest):
        out = os.path.realpath(args.out)
        for c in pipeline.load_manifest(manifest).clips:
            if os.path.realpath(c.path) == out:
                raise ValidationError(
                    f"--out {args.out}: {manifest} lists it as the file of clip {c.clip_id!r}")


def _cmd_evaluate(args):
    pred = pipeline.read_ladders_csv(args.pred)
    combo = _one_combination(args.pred, pred)
    eel, train_l = (pipeline.read_ladders_csv(p) for p in (args.eel, args.sl_from_train))
    for path, keyed in ((args.eel, eel), (args.sl_from_train, train_l)):
        found = _one_combination(path, keyed)
        if found != combo:
            raise ValidationError(f"{path}: holds {found}, but {args.pred} holds {combo}")
    # Like `hull --metric`, take from a curves directory only the curves
    # of the combination the predictions were made for.
    curves = {k: v for k, v in pipeline.read_curves_dir(args.curves).items()
              if k[1:] == combo}
    if not curves:
        raise ValidationError(f"{args.curves}: no curves for {combo}")
    sl = evaluation.static_ladder([l.cross_overs for l in train_l.values()])
    pred_by_clip = {k[0]: v for k, v in pred.items()}
    eel_by_clip = {k[0]: v for k, v in eel.items() if k[0] in pred_by_clip}
    curves_by_clip = {k[0]: v for k, v in curves.items() if k[0] in pred_by_clip}
    report = evaluation.evaluate_method(pred_by_clip, eel_by_clip, sl, curves_by_clip)
    pipeline.write_json(args.out, dataclasses.asdict(report))
    with open(_table_path(args.out), "w") as f:
        f.write("clip_id,bdbr_vs_eel,bdbr_vs_sl\n")
        for clip_id, vs_eel, vs_sl in report.per_clip_bdbr:
            f.write(f"{clip_id},{repr(vs_eel)},{repr(vs_sl)}\n")


def _cmd_bdbr(args):
    ref = pipeline.read_rate_quality_csv(args.ref)
    test = pipeline.read_rate_quality_csv(args.test)
    print(f"{evaluation.bd_rate(ref, test):.6f}")


def _encode_one(arg):
    profile, clip, resolution, qp, workdir = arg
    return pipeline.run_encode(profile, clip, resolution, qp, workdir)


def _cmd_encode(args):
    profile = pipeline.load_profile(args.profile)
    manifest = pipeline.load_manifest(args.manifest)
    os.makedirs(args.workdir, exist_ok=True)
    jobs_spec = [
        (clip, res, qp)
        for clip in manifest.clips
        for res in rd_core.LADDER_RESOLUTIONS
        for qp in profile.qp_set
    ]
    points = pipeline.parallel_map(
        _encode_one,
        [(profile, clip, res, qp, args.workdir) for clip, res, qp in jobs_spec],
        args.jobs,
    )
    rows = [
        (clip.clip_id, profile.codec, profile.platform, res, point, args.metric_name)
        for (clip, res, qp), point in zip(jobs_spec, points)
    ]
    pipeline.write_rd_samples_csv(args.out, rows)


def _parse_qp_set(spec):
    try:
        parts = [int(v) for v in spec.split(":")]
    except ValueError:
        parts = []
    if len(parts) not in (2, 3):
        raise ValidationError(f"bad --qp-set {spec!r}: expected integers lo:hi[:step]")
    lo, hi, step = (parts + [1])[:3]
    if step <= 0:
        raise ValidationError(f"bad --qp-set {spec!r}: step must be positive")
    if hi < lo:
        raise ValidationError(f"bad --qp-set {spec!r}: empty range")
    return list(range(lo, hi + 1, step))


def _cmd_synth_rd(args):
    from . import synth  # imports scipy.ndimage, which no other command needs

    media_io.check_clip_id(args.clip_id)
    stats.check_seed(args.seed)  # checked even when the params file has its own seed
    params = synth.load_params(args.params, args.seed)
    samples = synth.synth_rd(params, _parse_qp_set(args.qp_set))
    rows = [
        (args.clip_id, args.codec, args.platform, res, point, args.metric)
        for res, points in samples.items()
        for point in points
    ]
    pipeline.write_rd_samples_csv(args.out, rows)


def _cmd_synth_clip(args):
    from . import synth

    manifest = pipeline.Manifest(clips=[], strata={})
    if args.manifest and os.path.isfile(args.manifest):
        manifest = pipeline.load_manifest(args.manifest)
    if any(c.clip_id == args.clip_id for c in manifest.clips):
        raise ValidationError(f"{args.manifest}: already holds clip_id {args.clip_id!r}")
    clip = synth.synth_clip(
        args.out, args.clip_id, args.width, args.height, args.frames,
        args.sigma, args.motion, args.seed, fps=args.fps,
    )
    if args.manifest:
        manifest.clips.append(clip)
        pipeline.save_manifest(args.manifest, manifest)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        args.func(args)
    except DriverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LadderError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
