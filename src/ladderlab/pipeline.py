"""Manifests, tabular interchange files, external drivers, and job running.

All interchange is line-oriented text (JSON-lines manifest, CSV tables)
so outputs diff cleanly and golden tests stay byte-stable.  Floats are
written with repr, which round-trips exactly.
"""

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

from .errors import ContractError, DriverError, ValidationError
from .media_io import VideoClip, check_clip_id
from .rd_core import (
    BitrateLadder,
    CrossOverSet,
    RDPoint,
    RDSamples,
    build_rd_curve,
    check_metric,
)

RD_SAMPLE_HEADER = (
    "clip_id,codec,platform,width,height,qp,bitrate_kbps,quality_metric,quality_value"
)
LADDER_HEADER = "clip_id,codec,platform,metric,P1_kbps,P2_kbps,P3_kbps"

CODECS = ("avc", "hevc", "vvc")
PLATFORMS = ("software", "hardware")
# Cross-over targets and model kinds; here, so that the CLI's parser needs no `learning`.
TARGET_IDS = ("p1", "p2", "p3")
MODEL_KINDS = ("extratrees", "rf")

# The placeholders an encode or metric template may use; run_encode binds each.
TEMPLATE_FIELDS = ("input", "width", "height", "qp", "fps", "preset", "codec", "output")

DEFAULT_QP_SETS = {
    "avc": list(range(15, 46)),
    "hevc": list(range(15, 46)),
    "vvc": list(range(16, 49, 2)),
}


def _fmt(x):
    return repr(float(x))


def check_encoder(codec, platform):
    """Reject a codec or platform outside CODECS and PLATFORMS.

    Both go into CSV cells and curve file names unquoted.
    """
    if codec not in CODECS:
        raise ValidationError(f"unknown codec {codec!r}")
    if platform not in PLATFORMS:
        raise ValidationError(f"unknown platform {platform!r}")


@dataclass
class Manifest:
    clips: list  # VideoClip
    strata: dict  # clip_id -> stratum label (may be missing)


def json_integer(rec, key):
    """rec[key] if it is a JSON integer; int() would also take "64", 64.9 and true."""
    value = rec[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def json_string(rec, key):
    """rec[key] if it is a JSON string; str() would also take null, 64 and true."""
    value = rec[key]
    if type(value) is not str:
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _decode_error(path, encoding):
    """ValidationError naming the line of the first byte `encoding` rejects.

    Text files are decoded in 8 KB chunks, so the line being read when
    the decoder fails can lie well before the bad byte; the file is read
    again to find it.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode(encoding)
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        # Text mode ends lines at \n, \r\n and \r.
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ValidationError(
            f"{path}:{line}: cannot decode byte {data[exc.start]:#04x} as {encoding}: "
            f"{exc.reason}"
        )
    return ValidationError(f"{path}: changed while it was read")


def json_object(value, what=None):
    """`value` if it is a JSON object; a nested one read with .items() or .get() needs this."""
    if not isinstance(value, dict):
        where = f"{what}: " if what else ""
        raise ValidationError(f"{where}expected a JSON object, got {type(value).__name__}")
    return value


class _Input:
    """A text input file opened by `read_input`."""

    def __init__(self, f):
        self.file = f
        self.line = None  # number of the line last read, when read by lines
        self.holds_json = False

    def __iter__(self):
        """Its non-blank lines."""
        for self.line, text in enumerate(self.file, 1):
            if not text.isspace():
                yield text

    def json(self, text=None):
        """The whole file, or its line `text`, as one JSON object."""
        self.holds_json = True
        return json_object(json.load(self.file) if text is None else json.loads(text))


@contextlib.contextmanager
def read_input(path, what):
    """The `_Input` of an existing text file, whose errors name the file.

    A ValueError (JSON syntax too), OverflowError, undecodable byte or
    ValidationError in the `with` block leaves it as one ValidationError
    naming `path` and the line being read, if any; so does a KeyError
    (a missing field) or TypeError (a value of the wrong type) once the
    file was read as JSON.  Keep the block to reading and checking the
    file, so that these errors come from the file and not the program.
    """
    if not os.path.isfile(path):
        raise ValidationError(f"{what} not found: {path}")
    with open(path) as f:
        source = _Input(f)
        try:
            yield source
        except UnicodeDecodeError as exc:
            raise _decode_error(path, f.encoding) from exc
        except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
            if isinstance(exc, (KeyError, TypeError)) and not source.holds_json:
                raise  # CSV cells are strings: these come from the program
            where = path if source.line is None else f"{path}:{source.line}"
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValidationError(f"{where}: {reason}") from exc


@contextlib.contextmanager
def write_output(path, mode="w"):
    """The one file opened for writing, `read_input`'s twin: the block writes a hidden
    `.<name>.part` beside `path` (or its symlink's target), which replaces the target
    on a clean exit and is removed on any exception.  An OSError, or a target that
    exists but is no regular file (a replace would swap it), is one ValidationError.
    """
    target = os.path.realpath(path)
    if os.path.lexists(target) and not os.path.isfile(target):
        raise ValidationError(f"cannot write {path}: exists and is not a regular file")
    part = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.part")
    try:
        with open(part, mode) as f:
            yield f
        os.replace(part, target)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(part)


def write_json(path, doc, indent=1):
    """Write `doc` with sorted keys and a final newline; indent=None writes it compact.
    A non-finite number, which JSON cannot hold, is one ValidationError and no write."""
    with write_output(path) as f:
        try:
            json.dump(doc, f, sort_keys=True, indent=indent, allow_nan=False,
                      separators=(",", ":") if indent is None else None)
        except ValueError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc
        f.write("\n")


def load_manifest(path):
    """Read a JSON-lines manifest of clip records."""
    clips = {}
    strata = {}
    with read_input(path, "manifest") as source:
        for line in source:
            rec = source.json(line)
            clip = VideoClip(
                clip_id=rec["clip_id"],
                path=json_string(rec, "path"),
                width=json_integer(rec, "width"),
                height=json_integer(rec, "height"),
                fps=json_number(rec, "fps") if "fps" in rec else 60.0,
                frame_count=json_integer(rec, "frame_count"),
                pixel_format=(json_string(rec, "pixel_format") if "pixel_format" in rec
                              else "yuv420p"),
            )
            if clip.clip_id in clips:
                raise ValidationError(f"duplicate clip_id {clip.clip_id!r}")
            if not os.path.isfile(clip.path):
                raise ValidationError(f"missing file {clip.path}")
            clips[clip.clip_id] = clip
            if "stratum" in rec:
                strata[clip.clip_id] = str(rec["stratum"])
    return Manifest(clips=list(clips.values()), strata=strata)


def save_manifest(path, manifest):
    with write_output(path) as f:
        for c in manifest.clips:
            rec = asdict(c)
            if c.clip_id in manifest.strata:
                rec["stratum"] = manifest.strata[c.clip_id]
            f.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass(frozen=True)
class EncoderProfile:
    codec: str
    platform: str
    qp_set: tuple
    preset: str
    encode_template: str
    metric_template: str
    fps: float = 60.0

    def __post_init__(self):
        check_encoder(self.codec, self.platform)
        if not self.qp_set or list(self.qp_set) != sorted(set(self.qp_set)):
            raise ValidationError("qp_set must be non-empty and strictly increasing")
        for name in ("encode_template", "metric_template"):
            _check_template(name, getattr(self, name))


def _check_template(name, template):
    """Reject a template whose fields are not all bare TEMPLATE_FIELDS names."""
    import string  # loaded only by `encode`, as are `_run_command`'s modules

    try:
        fields = list(string.Formatter().parse(template))
    except ValueError as exc:  # a lone { or }
        raise ValidationError(f"{name}: {exc}") from exc
    for _, field, spec, conversion in fields:
        if field is not None and (field not in TEMPLATE_FIELDS or spec or conversion):
            raise ValidationError(
                f"{name}: {template!r} may use only the placeholders "
                + " ".join("{" + f + "}" for f in TEMPLATE_FIELDS)
            )


def load_profile(path):
    with read_input(path, "profile") as source:
        doc = source.json()
        known = {f.name for f in fields(EncoderProfile)}
        unknown = [key for key in doc if key not in known]
        if unknown:
            raise ValidationError(f"unknown field {unknown[0]!r}")
        # An unknown codec gets no default here, so EncoderProfile names it.
        qp_set = doc.get("qp_set", DEFAULT_QP_SETS.get(doc["codec"], []))
        if not isinstance(qp_set, list) or any(type(q) is not int for q in qp_set):
            raise ValidationError(f"qp_set must be a list of integers, got {qp_set!r}")
        return EncoderProfile(
            codec=doc["codec"],
            platform=doc["platform"],
            qp_set=tuple(qp_set),
            preset=json_string(doc, "preset") if "preset" in doc else "medium",
            encode_template=json_string(doc, "encode_template"),
            metric_template=json_string(doc, "metric_template"),
            fps=json_number(doc, "fps", 0.0) if "fps" in doc else 60.0,
        )


def _run_command(cmd):
    import shlex
    import subprocess

    try:
        proc = subprocess.run(
            shlex.split(cmd), capture_output=True, text=True, check=False
        )
    except OSError as exc:
        raise DriverError(f"failed to launch: {exc}", command=cmd) from exc
    if proc.returncode != 0:
        raise DriverError(
            f"exit status {proc.returncode}\n  stderr: {proc.stderr.strip()}",
            command=cmd,
        )
    return proc.stdout


def run_encode(profile, clip, resolution, qp, workdir):
    """Encode one (clip, resolution, qp) point and measure rate/quality.

    Bitrate is bitstream bits divided by clip duration.  The metric
    command must print the quality value as the last whitespace token of
    its final non-empty stdout line.
    """
    width, height = resolution
    output = os.path.join(
        workdir, f"{clip.clip_id}_{width}x{height}_qp{qp}.bin"
    )
    bindings = dict(
        input=clip.path,
        width=width,
        height=height,
        qp=qp,
        fps=profile.fps,
        preset=profile.preset,
        codec=profile.codec,
        output=output,
    )
    enc_cmd = profile.encode_template.format(**bindings)
    _run_command(enc_cmd)
    bits = os.path.getsize(output) * 8 if os.path.isfile(output) else 0
    if not bits:  # a zero bitrate, which `rd build` rejects
        raise DriverError(f"encoder wrote no bytes to {output}", command=enc_cmd)
    bitrate_kbps = bits / clip.duration_seconds / 1000.0

    met_cmd = profile.metric_template.format(**bindings)
    stdout = _run_command(met_cmd)
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        quality = _finite(lines[-1].split()[-1])
    except (IndexError, ValueError) as exc:
        raise DriverError(
            f"no finite quality in metric output: {stdout!r}", command=met_cmd
        ) from exc
    return RDPoint(bitrate=bitrate_kbps, quality=quality, qp=qp)


def parallel_map(fn, items, jobs):
    """Ordered map across at most `jobs` processes, and at most one per item.

    Results are collected in input order so the worker count never
    changes any output.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    import concurrent.futures  # and logging with it: loaded only by a stage that starts workers

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# CSV interchange


@contextlib.contextmanager
def _csv_rows(path, what):
    """(header cells, iterator of row cells) of a CSV input file.

    The file is read through `read_input`, and ragged rows are rejected.
    An error in the `with` block names the line being read; keep checks
    that follow the row loop outside the block.
    """
    with read_input(path, what) as source:
        lines = iter(source)
        header = next(lines, "").strip().split(",")
        width = len(header)

        def rows():
            for line in lines:
                cells = line.strip().split(",")
                if len(cells) != width:
                    raise ValidationError(f"ragged row: {len(cells)} cells, header has {width}")
                yield cells

        yield header, rows()


def _finite(cell):
    value = float(cell)
    if not -math.inf < value < math.inf:
        raise ValueError(f"expected a finite number, got {cell!r}")
    return value


def _positive(cell):
    value = float(cell)
    if not 0.0 < value < math.inf:
        raise ValueError(f"expected a positive finite number, got {cell!r}")
    return value


def json_number(rec, key, low=None):
    """rec[key] as a float, if it is a JSON number: one above `low` and
    finite where a `low` is given.

    float() alone would also take "1.5" and true.  Curve files hold two
    of these per point, so a valid value returns after the first test.
    """
    value = rec[key]
    if (type(value) is float or type(value) is int) and (low is None or low < value < math.inf):
        return float(value)
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    kind = "positive finite" if low == 0 else "finite"
    raise ValueError(f"expected a {kind} number, got {value!r}")


def write_feature_csv(path, kind, rows):
    """rows: iterable of (clip_id, vector); written sorted by clip_id."""
    if kind == "vod":
        from .features_vod import VOD_FEATURE_NAMES as names
    else:
        from .features_live import LIVE_FEATURE_NAMES as names
    with write_output(path) as f:
        f.write("clip_id," + ",".join(f"F{i + 1}" for i in range(len(names))) + "\n")
        for clip_id, vec in sorted(rows, key=lambda r: r[0]):
            f.write(clip_id + "," + ",".join(_fmt(v) for v in vec.values) + "\n")


def read_feature_csv(path):
    """-> (feature column names, {clip_id: value list})."""
    table = {}
    with _csv_rows(path, "feature file") as (header, rows):
        if header[0] != "clip_id":
            raise ValidationError("bad feature header")
        for clip_id, *values in rows:
            if clip_id in table:
                raise ValidationError(f"duplicate clip_id {clip_id!r}")
            table[clip_id] = [_finite(v) for v in values]
    return header[1:], table


def write_rd_samples_csv(path, rows):
    """rows: (clip_id, codec, platform, (w, h), RDPoint, metric)."""
    keyed = sorted(
        rows, key=lambda r: (r[0], r[1], r[2], r[3][0] * r[3][1], r[5], r[4].qp or 0)
    )
    with write_output(path) as f:
        f.write(RD_SAMPLE_HEADER + "\n")
        for clip_id, codec, platform, (w, h), point, metric in keyed:
            f.write(
                f"{clip_id},{codec},{platform},{w},{h},{point.qp if point.qp is not None else ''},"
                f"{_fmt(point.bitrate)},{metric},{_fmt(point.quality)}\n"
            )


def read_rd_samples_csv(path):
    """-> {(clip_id, codec, platform, metric): {resolution: RDSamples}}.

    Each resolution's cells are appended to its RDSamples columns as they
    are read, so the file's rows are never held as Python records.
    """
    from array import array  # an extension module (≈0.08 MB resident) only this reader needs

    out = {}
    last = None  # the cells (*key, width, height) of the row before
    with _csv_rows(path, "RD sample file") as (header, rows):
        if header != RD_SAMPLE_HEADER.split(","):
            raise ValidationError("bad RD sample header")
        for clip_id, codec, platform, w, h, qp, bitrate, metric, quality in rows:
            cells = (clip_id, codec, platform, metric, w, h)
            new_curve = cells != last
            if new_curve and cells[:4] not in out:
                check_clip_id(clip_id)
                check_encoder(codec, platform)
                check_metric(metric)
                out[cells[:4]] = {}
            point = (_positive(bitrate), _finite(quality), int(qp) if qp else None)
            if new_curve:
                # Sample files list each curve's rows together, so the append
                # methods are bound about once per curve; a table of every
                # curve's methods cost ≈12 B per row at the read's peak.
                samples = out[cells[:4]].setdefault(
                    (int(w), int(h)), RDSamples(array("d"), array("d"), []))
                add_bitrate, add_quality, add_qp = (column.append for column in samples)
                last = cells
            add_bitrate(point[0])
            add_quality(point[1])
            add_qp(point[2])
    return out


def build_curves(samples_by_key, path):
    """Group RD samples into Pareto-cleaned curves per key/resolution.

    Each key's samples are popped from `samples_by_key` as its curves are
    built, so the caller holds the samples or the curves, never both, and
    is left with an empty dict.  An error names `path`, the sample file,
    and the clip's (clip_id, codec, platform).
    """
    out = {}
    for key in list(samples_by_key):
        by_res = samples_by_key.pop(key)
        metric = key[3]
        try:
            out[key] = {
                res: build_rd_curve(samples, res, metric)
                for res, samples in by_res.items()
            }
        except ValidationError as exc:
            raise type(exc)(f"{path}: {key[:3]}: {exc}") from exc
    return out


# A curve file's document as json.dump(doc, sort_keys=True, indent=1) lays it out.
_CURVE_HEAD = (
    '{{\n "clip_id": {},\n "codec": {},\n "metric": {},\n "platform": {},\n "resolutions": {{'
)
# How json.dump writes a float and an int; repr() of an np.float64 is "np.float64(...)".
_float_json = float.__repr__
_int_json = int.__repr__


def _curve_points_json(points):
    """The JSON of a curve's point columns between their brackets, as in a curve file."""
    bitrates, qualities = points.bitrate.tolist(), points.quality.tolist()
    text = ",".join([
        f'\n   {{\n    "bitrate_kbps": {_float_json(bitrate)},'
        f'\n    "qp": {"null" if qp is None else _int_json(qp)},'
        f'\n    "quality": {_float_json(quality)}\n   }}'
        for bitrate, qp, quality in zip(bitrates, points.qp, qualities)
    ])
    # float.__repr__ writes inf and nan, which JSON lacks; no other text here holds them.
    if "inf" in text or "nan" in text:
        key, value = next((k, v) for b, q in zip(bitrates, qualities)
                          for k, v in (("bitrate_kbps", b), ("quality", q))
                          if not math.isfinite(v))
        raise ContractError(f"{key} must be finite to be written as JSON, got {value}")
    return f"[{text}\n  ]" if text else "[]"


def write_curves_dir(dirpath, curves_by_key):
    """One curve file per key, holding the bytes json.dump(doc, sort_keys=True,
    indent=1) would write for its document, plus a newline.

    The document is rendered from fixed templates: keys in sorted order,
    resolutions sorted as the strings "WxH", the header strings encoded
    by json.dumps, each float written by float.__repr__ and each qp as an
    integer or null.
    """
    names = {key: "__".join(key) + ".json" for key in curves_by_key}
    # Every *.json file in the directory is read back as a curve file.
    stale = sorted(name for name in os.listdir(dirpath) if name.endswith(".json")
                   and name not in names.values()) if os.path.isdir(dirpath) else []
    if stale:
        raise ValidationError(
            f"{dirpath}: holds {len(stale)} curve file(s) this run does not write, "
            f"first {stale[0]}; use an empty directory")
    os.makedirs(dirpath, exist_ok=True)
    for key, by_res in sorted(curves_by_key.items()):
        clip_id, codec, platform, metric = key
        named = sorted((f"{w}x{h}", curve) for (w, h), curve in by_res.items())
        text = _CURVE_HEAD.format(*map(json.dumps, (clip_id, codec, metric, platform)))
        text += ",".join(
            f'\n  "{res}": {_curve_points_json(curve.points)}' for res, curve in named
        )
        text += "\n }\n}\n" if named else "}\n}\n"
        with write_output(os.path.join(dirpath, names[key])) as f:
            f.write(text)


# Curve files parsed before their curves are handed out.  On 400 clips and
# a 2-core Xeon VM, parsing one file and then scoring its clip made both
# ≈10% slower than runs of 16 of each (`evaluate` 0.51 vs 0.47 s in
# process); 16 clips' curves take ≈0.15 MB.
_CURVE_FILES_READ_AHEAD = 16


def iter_curves_dir(dirpath):
    """(key, {resolution: RDCurve}) of each curve file in `dirpath`, in
    file-name order; key is (clip_id, codec, platform, metric).

    Files are parsed `_CURVE_FILES_READ_AHEAD` at a time, and only the
    keys already read are kept, to refuse a second file for one key; so a
    caller that drops each clip's curves holds a fixed number of clips'
    curves, whatever the number of files.
    """
    if not os.path.isdir(dirpath):
        raise ValidationError(f"curves directory not found: {dirpath}")
    names = {}  # key -> the file it was read from
    files = [name for name in sorted(os.listdir(dirpath)) if name.endswith(".json")]
    for start in range(0, len(files), _CURVE_FILES_READ_AHEAD):
        yield from [_read_curve_file(dirpath, name, names)
                    for name in files[start:start + _CURVE_FILES_READ_AHEAD]]


def _read_curve_file(dirpath, name, names):
    """(key, {resolution: RDCurve}) of one curve file; its parsed document
    goes when this returns."""
    with read_input(os.path.join(dirpath, name), "curve file") as source:
        doc = source.json()
        key = (doc["clip_id"], doc["codec"], doc["platform"], doc["metric"])
        check_clip_id(key[0])
        check_encoder(key[1], key[2])
        if key in names:
            raise ValidationError(f"{names[key]} already holds the curves of {key}")
        names[key] = name
        by_res = {}
        for res_str, pts in json_object(doc["resolutions"], "resolutions").items():
            w, h = (int(v) for v in res_str.split("x"))
            points = [
                (json_number(p, "bitrate_kbps", 0.0), json_number(p, "quality", -math.inf),
                 # Integers pass without a call; type(True) is bool, not int.
                 qp if (qp := p.get("qp")) is None or type(qp) is int
                 else json_integer(p, "qp"))
                for p in (json_object(q, "a point") for q in pts)
            ]
            by_res[(w, h)] = build_rd_curve(points, (w, h), doc["metric"])
    return key, by_res


def read_curves_dir(dirpath):
    """{key: {resolution: RDCurve}} of every curve file in `dirpath`."""
    return dict(iter_curves_dir(dirpath))


def write_ladders_csv(path, rows):
    """rows: (clip_id, codec, platform, BitrateLadder)."""
    with write_output(path) as f:
        f.write(LADDER_HEADER + "\n")
        for clip_id, codec, platform, ladder in sorted(rows, key=lambda r: r[:3]):
            co = ladder.cross_overs
            f.write(
                f"{clip_id},{codec},{platform},{co.metric},"
                f"{_fmt(co.p1)},{_fmt(co.p2)},{_fmt(co.p3)}\n"
            )


def read_ladders_csv(path):
    """-> {(clip_id, codec, platform, metric): BitrateLadder}."""
    out = {}
    with _csv_rows(path, "ladder file") as (header, rows):
        if header != LADDER_HEADER.split(","):
            raise ValidationError("bad ladder header")
        for clip_id, codec, platform, metric, p1, p2, p3 in rows:
            key = (clip_id, codec, platform, metric)
            if key in out:
                raise ValidationError(f"duplicate row for {key}")
            check_encoder(codec, platform)
            check_metric(metric)
            out[key] = BitrateLadder(CrossOverSet(*map(_positive, (p1, p2, p3)), metric))
    return out


def read_rate_quality_csv(path):
    """[(bitrate_kbps, quality_value)] from any CSV that has both columns."""
    with _csv_rows(path, "sample file") as (header, rows):
        ri, qi = header.index("bitrate_kbps"), header.index("quality_value")
        return [(_positive(r[ri]), _finite(r[qi])) for r in rows]
