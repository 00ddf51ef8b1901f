"""Command-line entry points for the ladder toolkit.

Exit codes: 0 success, 1 validation/usage error, 2 external tool failure.

Each CLI stage is a short process, so this module imports only what every
command needs (`pipeline`, `rd_core`, `media_io`, `errors`).  A command
handler imports the modules it runs itself: `learning` for train, select
and predict; `evaluation` for evaluate and bdbr; the extractor's
`features_*` module for features; `synth` (and scipy) for synth.
Handlers call through module attributes (`learning.train`), looked up at
call time.
"""

import argparse
import dataclasses
import gc
import importlib
import json
import math
import os
import sys

import numpy as np

from . import media_io, pipeline, rd_core
from .errors import DriverError, LadderError, ValidationError

# The objects made by the imports above live until the process exits.  Freezing
# them spares each later full collection, and the one at exit, from walking
# them.  It runs once per process, here and not in main(): a process that calls
# main() many times would otherwise pin each call's garbage for good.
gc.freeze()


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
    p.add_argument("--target", choices=pipeline.TARGET_IDS, required=True)
    p.add_argument("--model-kind", choices=pipeline.MODEL_KINDS, default="extratrees")
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train, inputs=("features", "ladders"))

    p = sub.add_parser("select", help="recursive feature elimination report")
    p.add_argument("--features", required=True)
    p.add_argument("--ladders", required=True)
    p.add_argument("--target", choices=pipeline.TARGET_IDS, default="p3")
    p.add_argument("--model-kind", choices=pipeline.MODEL_KINDS, default="extratrees")
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


def _extract_vod(clip):
    from .features_vod import extract_vod

    return extract_vod(clip)


def _extract_live(clip):
    from .features_live import extract_live

    return extract_live(clip)


_FEATURE_EXTRACTORS = {"vod": _extract_vod, "live": _extract_live}


def _extract_one(arg):
    kind, clip = arg
    try:
        return clip.clip_id, _FEATURE_EXTRACTORS[kind](clip)
    except LadderError as exc:
        # Runs in worker processes, whose errors are pickled; a
        # ValidationError pickles, a TruncatedFileError does not.
        raise ValidationError(f"{clip.clip_id}: {exc}") from exc


def _cmd_features(args):
    # Loaded here, before parallel_map forks, and not once in each worker.
    importlib.import_module(f".features_{args.kind}", __package__)
    clips = _manifest_clips(args)
    rows = pipeline.parallel_map(_extract_one, [(args.kind, c) for c in clips], args.jobs)
    pipeline.write_feature_csv(args.out, args.kind, rows)


def _cmd_rd_build(args):
    samples = pipeline.read_rd_samples_csv(args.samples)
    curves = pipeline.build_curves(samples, args.samples)
    pipeline.write_curves_dir(args.out, curves)


def _cmd_hull(args):
    """EEL ladders of the curves of --metric, read as `pipeline.iter_curves_dir`
    hands them out, so that a few clips' curves are held at a time.

    Faults come in this order: a bad --max-bitrate; a malformed curve
    file, when it is read; then the ladder error of the least (clip_id,
    codec, platform, metric), held until every file is read; then no
    curves of --metric.
    """
    # A cross-over can take this value, and ladder readers reject it
    # when it is not a positive, finite bitrate.
    if args.max_bitrate is not None and not (
            math.isfinite(args.max_bitrate) and args.max_bitrate > 0):
        raise ValidationError(
            f"--max-bitrate must be a positive, finite bitrate, got {args.max_bitrate}")
    rows = []
    failed = None  # (key, error) of the least key whose ladder fails
    for key, by_res in pipeline.iter_curves_dir(args.curves):
        if key[3] != args.metric:
            continue
        try:
            rows.append((*key[:3], rd_core.eel_ladder(by_res, args.max_bitrate)))
        except LadderError as exc:
            if failed is None or key < failed[0]:
                failed = key, exc
    if failed is not None:
        raise ValidationError(f"clip {failed[0][0]}: {failed[1]}") from failed[1]
    if not rows:
        raise ValidationError(f"no curves found for metric {args.metric!r}")
    pipeline.write_ladders_csv(args.out, rows)


def _clip_ladders(path):
    """(codec, platform, metric), {clip_id: BitrateLadder} of a ladder file.

    Commands key its rows by clip_id alone, so a file that mixes
    combinations, which would silently keep one row per clip, is refused.
    """
    ladders = pipeline.read_ladders_csv(path)
    combos = sorted({k[1:] for k in ladders})
    if len(combos) != 1:
        raise ValidationError(
            f"{path}: expected one codec/platform/metric combination, found {combos}"
        )
    return combos[0], {k[0]: v for k, v in ladders.items()}


def _training_matrix(features_path, ladders_path, target):
    from . import learning

    names, table = pipeline.read_feature_csv(features_path)
    (_, _, metric), ladders = _clip_ladders(ladders_path)
    clip_ids = sorted(c for c in ladders if c in table)
    if not clip_ids:
        raise ValidationError("no clips shared between features and ladders")
    X = np.array([table[c] for c in clip_ids])
    y = np.array([math.log(getattr(ladders[c].cross_overs, target)) for c in clip_ids])
    return learning.TrainingMatrix(clip_ids, names, X, y), metric


def _cmd_train(args):
    from . import learning

    matrix, metric = _training_matrix(args.features, args.ladders, args.target)
    hp = learning.Hyperparams(n_trees=args.n_trees, seed=args.seed)
    model = learning.train(matrix, hp, args.model_kind, args.target, metric)
    learning.save_model(model, args.out)


def _cmd_select(args):
    from . import learning

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
    from . import learning

    names, table = pipeline.read_feature_csv(args.features)
    loaded = [learning.load_model(path) for path in args.model]
    targets = [m.target_id for m in loaded]
    repeated = sorted({t for t in targets if targets.count(t) > 1})
    if repeated:
        raise ValidationError(f"more than one model given for targets: {repeated}")
    missing = [t for t in pipeline.TARGET_IDS if t not in targets]
    if missing:
        raise ValidationError(f"no model provided for targets: {missing}")
    metrics = sorted({m.metric for m in loaded})
    if len(metrics) != 1:
        raise ValidationError(f"models were trained for different metrics: {metrics}")
    models = {m.target_id: m for m in loaded}
    clip_ids = sorted(table)
    X = np.array([table[c] for c in clip_ids]).reshape(len(clip_ids), len(names))
    preds = [
        learning.predict(models[t], X, feature_names=names).tolist()
        for t in pipeline.TARGET_IDS
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
    as `inputs`); paths are compared after resolving symlinks and `..`.
    (`_manifest_clips` refuses a clip file the --manifest lists, before
    the command writes anything.)  `rd build` writes a directory (made if
    missing) and the others a file into an existing directory, and an
    existing output must be of that kind.  So must `synth clip`'s
    --manifest, which it also writes.
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
    written = [(f"--out {args.out}", out) for out in outputs]
    if args.func is _cmd_synth_clip and args.manifest:
        # rewritten after the clip: failing then would leave a clip no manifest lists
        written.append((f"--manifest {args.manifest}", args.manifest))
    for option, out in written:
        flag = inputs.get(os.path.realpath(out))
        if flag and not option.startswith(flag + " "):  # synth clip reads its --manifest
            raise ValidationError(
                f"{option}: {command} would write {out}, which is the {flag} input")
        found = ("directory" if os.path.isdir(out) else "file" if os.path.isfile(out)
                 else "special file")
        if os.path.exists(out) and found != want:
            raise ValidationError(
                f"{option}: {command} writes a {want}, but {out} is a {found}")
        if want == "file" and not os.path.isdir(os.path.dirname(os.path.realpath(out))):
            raise ValidationError(f"{option}: the directory of {out} does not exist")


def _manifest_clips(args):
    """The clips of the command's --manifest, which is parsed only here.

    None when `synth clip`'s --manifest is not given or does not exist
    yet.  An --out that the manifest lists as a clip's file is refused.
    """
    path = args.manifest
    if path is None or (args.func is _cmd_synth_clip and not os.path.isfile(path)):
        return None
    clips = pipeline.load_manifest(path).clips
    out = os.path.realpath(args.out)
    for c in clips:
        if os.path.realpath(c.path) == out:
            raise ValidationError(
                f"--out {args.out}: {path} lists it as the file of clip {c.clip_id!r}")
    return clips


def _cmd_evaluate(args):
    """Score --pred against --eel and the static ladder of --sl-from-train,
    with each clip's curves as `pipeline.iter_curves_dir` hands them out.

    Every check that needs no curves comes before the first curve file is
    read: the three files' combinations, then the clip sets and
    correlations (`evaluation.ClipScorer`).  Then come a malformed curve
    file, when it is read; no curves of the combination; and last the
    faults `ClipScorer.report` raises: clips without curves, then the
    scoring error of the least clip_id.
    """
    from . import evaluation

    combo, pred = _clip_ladders(args.pred)
    (eel_combo, eel), (sl_combo, train_l) = (
        _clip_ladders(p) for p in (args.eel, args.sl_from_train))
    for path, found in ((args.eel, eel_combo), (args.sl_from_train, sl_combo)):
        if found != combo:
            raise ValidationError(f"{path}: holds {found}, but {args.pred} holds {combo}")
    sl = evaluation.static_ladder([l.cross_overs for l in train_l.values()])
    scorer = evaluation.ClipScorer(pred, {c: l for c, l in eel.items() if c in pred}, sl)
    del pred, eel, train_l  # the scorer keeps the ladders it scores
    # Like `hull --metric`, take from a curves directory only the curves of
    # the combination the predictions were made for.
    matched = False
    for (clip_id, *clip_combo), curves in pipeline.iter_curves_dir(args.curves):
        if tuple(clip_combo) == combo:
            matched = True
            scorer.add(clip_id, curves)
    if not matched:
        raise ValidationError(f"{args.curves}: no curves for {combo}")
    report = scorer.report()
    pipeline.write_json(args.out, dataclasses.asdict(report))
    with pipeline.write_output(_table_path(args.out)) as f:
        f.write("clip_id,bdbr_vs_eel,bdbr_vs_sl\n")
        for clip_id, vs_eel, vs_sl in report.per_clip_bdbr:
            f.write(f"{clip_id},{repr(vs_eel)},{repr(vs_sl)}\n")


def _cmd_bdbr(args):
    from . import evaluation

    ref = pipeline.read_rate_quality_csv(args.ref)
    test = pipeline.read_rate_quality_csv(args.test)
    print(f"{evaluation.bd_rate(ref, test):.6f}")


def _encode_one(arg):
    profile, clip, resolution, qp, workdir = arg
    return pipeline.run_encode(profile, clip, resolution, qp, workdir)


def _cmd_encode(args):
    profile = pipeline.load_profile(args.profile)
    clips = _manifest_clips(args)
    os.makedirs(args.workdir, exist_ok=True)
    jobs_spec = [
        (clip, res, qp)
        for clip in clips
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
    from . import stats, synth  # synth imports scipy.ndimage, which no other command needs

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

    listed = b""
    clips = _manifest_clips(args)
    if clips is not None:
        if any(c.clip_id == args.clip_id for c in clips):
            raise ValidationError(f"{args.manifest}: already holds clip_id {args.clip_id!r}")
        with pipeline.read_input(args.manifest, "manifest") as source:
            listed = source.file.buffer.read()  # its bytes, line ends and all
    clip = synth.synth_clip(
        args.out, args.clip_id, args.width, args.height, args.frames,
        args.sigma, args.motion, args.seed, fps=args.fps,
    )
    if args.manifest:
        # Append one record line; the records already listed keep their bytes.
        if listed and not listed.endswith(b"\n"):
            listed += b"\n"
        record = json.dumps(dataclasses.asdict(clip), sort_keys=True) + "\n"
        with pipeline.write_output(args.manifest, "wb") as f:
            f.write(listed + record.encode())


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
