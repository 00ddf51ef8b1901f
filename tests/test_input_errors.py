"""Malformed inputs, fed to every command that reads them.

The inputs are the CSV tables, the manifest and the JSON documents
(`synth rd` params, curve files, model files).  Each mutated input must
end the command with exit 0 or exit 1; exit 1 prints exactly one
`error:` line, and no exception escapes `main()`.
"""

import ast
import contextlib
import io
import json
import pathlib
import shutil

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ladderlab import pipeline, synth
from ladderlab.cli import main

N_CLIPS = 10  # train needs at least 10 rows
BAD_VALUES = ["abc", "inf", "-inf", "nan", "0", "-1", ""]


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs for every reading command; each one exits 0 on them."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "out").mkdir()
    specs = synth.corpus_specs(N_CLIPS, seed=3)
    rows = []
    for spec in specs:
        for res, points in synth.synth_rd(spec.params, range(0, 55, 6)).items():
            rows.extend((spec.clip_id, "avc", "software", res, p, "ypsnr") for p in points)
    pipeline.write_rd_samples_csv(d / "rd.csv", rows)
    with open(d / "features.csv", "w") as f:
        f.write("clip_id,F1,F2\n")
        for i, spec in enumerate(specs):
            f.write(f"{spec.clip_id},{spec.texture_sigma!r},{float(i)!r}\n")
    (d / "samples.csv").write_text(
        "bitrate_kbps,quality_value\n100,30\n300,33\n900,36\n2700,39\n8100,41\n")
    for i in range(2):
        assert main(["synth", "clip", "--out", str(d / f"c{i}.yuv"), "--clip-id", f"c{i}",
                     "--width", "64", "--height", "64", "--frames", "3", "--seed", str(i),
                     "--manifest", str(d / "manifest.jsonl")]) == 0
    assert main(["rd", "build", "--samples", str(d / "rd.csv"), "--out", str(d / "curves")]) == 0
    assert main(["hull", "--curves", str(d / "curves"), "--metric", "ypsnr",
                 "--out", str(d / "ladders.csv")]) == 0
    models = []
    for t in ("p1", "p2", "p3"):
        models += ["--model", str(d / f"model_{t}.json")]
        assert main(_train_argv(d, d / "features.csv", d / "ladders.csv", t)) == 0
    assert main(["predict", "--features", str(d / "features.csv"), *models,
                 "--out", str(d / "pred.csv")]) == 0
    laws = {f"{w}x{h}": vars(law) for (w, h), law in specs[0].params.laws.items()}
    (d / "params.json").write_text(json.dumps({"seed": 3, "resolutions": laws}))
    shutil.copytree(d / "curves", d / "bad_curves")
    return d, models


def _train_argv(d, features, ladders, target="p1"):
    return ["train", "--features", str(features), "--ladders", str(ladders), "--target",
            target, "--n-trees", "3", "--out", str(d / f"model_{target}.json")]


#: The input each command reads that the test mutates.
SOURCES = {
    "rd build": "rd.csv", "train features": "features.csv", "train ladders": "ladders.csv",
    "predict": "features.csv", "evaluate pred": "pred.csv", "evaluate eel": "ladders.csv",
    "evaluate sl": "ladders.csv", "bdbr": "samples.csv", "features": "manifest.jsonl",
}


def _argv(command, d, models, bad):
    """The command line of `command` that reads `bad` in place of its source."""
    out = d / "out"
    if command.startswith("evaluate"):
        paths = [str(d / "pred.csv"), str(d / "ladders.csv"), str(d / "ladders.csv")]
        paths[("evaluate pred", "evaluate eel", "evaluate sl").index(command)] = str(bad)
        return ["evaluate", "--pred", paths[0], "--eel", paths[1], "--sl-from-train", paths[2],
                "--curves", str(d / "curves"), "--out", str(out / "report.json")]
    return {
        "rd build": ["rd", "build", "--samples", str(bad), "--out", str(out)],
        "train features": _train_argv(out, bad, d / "ladders.csv"),
        "train ladders": _train_argv(out, d / "features.csv", bad),
        "predict": ["predict", "--features", str(bad), *models, "--out", str(out / "pred.csv")],
        "bdbr": ["bdbr", "--ref", str(d / "samples.csv"), "--test", str(bad)],
        "features": ["features", "vod", "--manifest", str(bad), "--out", str(out / "vod.csv")],
    }[command]


@st.composite
def _mutations(draw, text, is_manifest):
    """`text` with one line edited, duplicated or dropped, cut short, or
    holding a byte that is not UTF-8 (as "\\udcff", see `_write`)."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["edit", "duplicate", "drop line", "truncate", "bad byte"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "bad byte":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + "\udcff" + text[i:]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        return "\n".join(lines[:i + 1] + lines[i:]) + "\n"
    if kind == "drop line":
        return "\n".join(lines[:i] + lines[i + 1:]) + "\n"
    value = draw(st.sampled_from(BAD_VALUES + [None, 0, -1]) if is_manifest
                 else st.sampled_from(BAD_VALUES + ["1,2"]))
    if is_manifest:
        rec = json.loads(lines[i])
        key = draw(st.sampled_from(sorted(rec)))
        if draw(st.booleans()):
            del rec[key]
        else:
            rec[key] = value
        lines[i] = json.dumps(rec)
    else:
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        cells[j:j + 1] = [] if draw(st.booleans()) else [value]
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_inputs_end_in_one_error_line(inputs, data):
    d, models = inputs
    command = data.draw(st.sampled_from(sorted(SOURCES)))
    source = d / SOURCES[command]
    bad = d / ("bad" + source.suffix)
    _write(bad, data.draw(_mutations(source.read_text(), source.suffix == ".jsonl")))
    code, err = _run(_argv(command, d, models, bad))
    event(f"{command}: exit {code}")
    assert code in (0, 1)
    assert err.count("error:") == code and "Traceback" not in err


def _write(path, text):
    """Write `text` as UTF-8, with each "\\udcXX" as the raw byte 0xXX."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@pytest.mark.parametrize("command", ["predict", "features"])
def test_undecodable_byte_names_its_line(inputs, command):
    # Files are decoded in 8 KB chunks; the bad byte sits past the first
    # few chunks, so the line being read when decoding fails is an earlier one.
    d, models = inputs
    source = d / SOURCES[command]
    first, second = source.read_text().splitlines(keepends=True)[:2]
    # 2001 lines; the clip id on line j is xj.
    if command == "features":  # JSON lines, no header
        lines = [first.replace('"c0"', f'"x{j}"') for j in range(1, 2002)]
    else:
        lines = [first] + [f"x{j}," + second.split(",", 1)[1] for j in range(2, 2002)]
    lines[1501] = lines[1501].replace("x1502", "x\udcff1502")
    bad = d / ("bad" + source.suffix)
    _write(bad, "".join(lines))
    code, err = _run(_argv(command, d, models, bad))
    assert code == 1 and err.count("error:") == 1
    assert f"error: {bad}:1502: cannot decode byte 0xff" in err


#: The JSON document each command reads that the test mutates.
JSON_SOURCES = {"synth rd": "params.json", "hull": "curves", "evaluate curves": "curves",
                "predict model": "model_p1.json"}
JSON_BAD_VALUES = ["abc", "", None, 0, -1, 0.5, 1e300, float("inf"), float("nan"), True, [], {}]


def _json_argv(command, d, models, bad):
    out = d / "out"
    return {
        "synth rd": ["synth", "rd", "--params", str(bad), "--out", str(out / "rd.csv")],
        "hull": ["hull", "--curves", str(bad.parent), "--metric", "ypsnr",
                 "--out", str(out / "ladders.csv")],
        "evaluate curves": ["evaluate", "--pred", str(d / "pred.csv"), "--eel",
                            str(d / "ladders.csv"), "--sl-from-train", str(d / "ladders.csv"),
                            "--curves", str(bad.parent), "--out", str(out / "report.json")],
        "predict model": ["predict", "--features", str(d / "features.csv"), "--model", str(bad),
                          *models[2:], "--out", str(out / "pred.csv")],
    }[command]


def _fields(node):
    """(container, key) of every value inside a JSON document."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _fields(node[key])


@st.composite
def _json_mutations(draw, text):
    """`text` with one field set to a bad value or dropped, cut short, with
    a top level that is not an object, or holding a byte that is not UTF-8."""
    kind = draw(st.sampled_from(["edit", "drop field", "truncate", "not an object", "bad byte"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "bad byte":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + "\udcff" + text[i:]
    if kind == "not an object":
        return json.dumps(draw(st.sampled_from([[], [json.loads(text)], "abc", 1, None])))
    doc = json.loads(text)
    fields = list(_fields(doc))
    node, key = fields[draw(st.integers(0, len(fields) - 1))]
    if kind == "drop field":
        del node[key]
    else:
        node[key] = draw(st.sampled_from(JSON_BAD_VALUES))
    return json.dumps(doc)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_json_documents_end_in_one_error_line(inputs, data):
    d, models = inputs
    command = data.draw(st.sampled_from(sorted(JSON_SOURCES)))
    if JSON_SOURCES[command] == "curves":
        source = data.draw(st.sampled_from(sorted((d / "curves").iterdir())))
        bad = d / "bad_curves" / source.name
    else:
        source = d / JSON_SOURCES[command]
        bad = d / "bad.json"
    try:
        _write(bad, data.draw(_json_mutations(source.read_text())))
        code, err = _run(_json_argv(command, d, models, bad))
    finally:
        shutil.copyfile(source, bad)
    event(f"{command}: exit {code}")
    assert code in (0, 1)
    assert err.count("error:") == code and "Traceback" not in err


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ladderlab"
PERFBENCH = SRC.parents[1] / "perfbench"


def _enclosing_functions(tree):
    """{id(call node): name of the innermost function holding it}."""
    out = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else name
            if isinstance(child, ast.Call):
                out[id(child)] = name
            visit(child, inner)

    visit(tree, None)
    return out


def test_input_files_are_read_only_through_read_input():
    """`json.load` runs only on a `read_input` handle, only `read_input`,
    `_decode_error` and `read_frames` open a file for reading, and only
    `write_output` opens one in any other mode."""
    json_loads, read_opens, write_opens = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        where = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            site = (path.stem, where[id(node)])
            if func in ("json.load", "json.loads"):
                json_loads.append(site + (ast.unparse(node.args[0]),))
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if func == "open":
                reads = mode is None or (isinstance(mode, ast.Constant)
                                         and not set(mode.value) & set("wax+"))
                (read_opens if reads else write_opens).append(site)
    assert sorted(json_loads) == [("pipeline", "json", "self.file"), ("pipeline", "json", "text")]
    assert sorted(read_opens) == [("media_io", "read_frames"), ("pipeline", "_decode_error"),
                                  ("pipeline", "read_input")]
    assert write_opens == [("pipeline", "write_output")]


def test_every_public_name_has_a_caller():
    """Each top-level function and class of the package, public or
    `_private`, is named (as `name` or `.name`) outside its own
    definition, by the package or the benchmark; a name that only tests
    reach belongs in the tests."""
    defined, references = [], set()
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            if path.parent == SRC and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, owner))
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    references.add((name, path, owner))
    uncalled = [name for path, name in defined
                if not any(n == name and (p, o) != (path, name) for n, p, o in references)]
    assert uncalled == []


def test_no_module_imports_another_modules_private_name():
    """No module of the package takes a `_name` from another one, by
    `from .module import _name` or as `module._name`: what modules share
    has a public name."""
    private = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    private += [(path.stem, f"{node.module}.{a.name}") for a in node.names
                                if a.name.startswith("_")]
                else:  # from . import module
                    siblings |= {a.asname or a.name for a in node.names}
        private += [(path.stem, ast.unparse(node)) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in siblings]
    assert private == []


@pytest.mark.parametrize("text, read, error", [
    ("a,b\n1,2\n", lambda source: [len(line) + None for line in source], TypeError),
    ("a,b\n1,2\n", lambda source: [{}[line] for line in source], KeyError),
    ('{"a": 1}', lambda source: source.json().a, AttributeError),
], ids=["csv-type-error", "csv-key-error", "json-attribute-error"])
def test_read_input_lets_program_errors_raise(tmp_path, text, read, error):
    """Only what a file's content can cause becomes a ValidationError; a bug
    in the reading code keeps its own exception and traceback."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(error):
        with pipeline.read_input(str(path), "input") as source:
            read(source)
