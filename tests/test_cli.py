import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from linkscrub import features, forest
from linkscrub.cli import _join_matrix_labels, main, run
from linkscrub.trace import write_trace
from test_forest import levels
from test_trace import HEADER, MALFORMED


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    result = CliRunner().invoke(main, [
        "--seed", "1", "generate", "--out", str(root), "--sites", "8",
        "--encodings", "plain,base64"])
    assert result.exit_code == 0, result.output
    traces = sorted(str(p) for p in (root / "traces").iterdir())
    return root, traces


def test_parse_reports_counts(runner, corpus):
    _root, traces = corpus
    result = runner.invoke(main, ["parse", traces[0]])
    assert result.exit_code == 0, result.output
    with open(traces[0], encoding="utf-8") as fh:
        events = len(fh.readlines()) - 1  # the header is no event
    assert result.output == f"{traces[0]}: {events} events\n"


def test_graph_dumps_edges(runner, corpus):
    _root, traces = corpus
    result = runner.invoke(main, ["graph", traces[0]])
    assert result.exit_code == 0
    assert "exfiltration" in result.output
    assert "interaction:splits" in result.output


def test_label_matches_planted(runner, corpus):
    root, traces = corpus
    result = runner.invoke(main, [
        "label", *traces,
        "--request-rules", str(root / "request_rules.txt"),
        "--cookie-purposes", str(root / "cookie_purposes.csv"),
        "--curated", str(root / "curated_ats.txt"),
        "-o", str(root / "derived.csv")])
    assert result.exit_code == 0, result.output
    planted = (root / "labels.csv").read_text().splitlines()[1:]
    derived = (root / "derived.csv").read_text().splitlines()[1:]
    planted_map = {tuple(line.split(",")[:3]): line.split(",")[3]
                   for line in planted}
    derived_map = {tuple(line.split(",")[:3]): line.split(",")[3]
                   for line in derived if line.split(",")[3] != "Unknown"}
    assert derived_map == planted_map


def test_full_pipeline(runner, corpus, tmp_path):
    root, traces = corpus
    matrix = tmp_path / "matrix.csv"
    model = tmp_path / "model.json"
    flist = tmp_path / "list.txt"

    result = runner.invoke(main, ["features", *traces, "-o", str(matrix)])
    assert result.exit_code == 0, result.output
    assert matrix.read_text().startswith("trace_id,node_id,site,fqdn,key,kind")

    result = runner.invoke(main, [
        "train", "--matrix", str(matrix), "--labels", str(root / "labels.csv"),
        "--trees", "20", "-o", str(model)])
    assert result.exit_code == 0, result.output
    assert json.loads(model.read_text())["format"] == 2

    result = runner.invoke(main, [
        "predict", "--model", str(model), "--matrix", str(matrix),
        "--explain", "-o", str(tmp_path / "pred.csv")])
    assert result.exit_code == 0, result.output
    pred_lines = (tmp_path / "pred.csv").read_text().splitlines()
    assert pred_lines[0] == "site,fqdn,key,kind,score,label,top_feature"
    # each score is a plain float's repr, not a numpy scalar's
    assert all(0.0 <= float(line.split(",")[4]) <= 1.0
               for line in pred_lines[1:])
    assert any(",ATS," in line or line.endswith("ATS")
               for line in pred_lines[1:])

    result = runner.invoke(main, [
        "emit-list", "--model", str(model), "--matrix", str(matrix),
        "-o", str(flist)])
    assert result.exit_code == 0, result.output
    text = flist.read_text()
    assert text.startswith("# decoration-filter-list v1")
    assert "uid" in text

    result = runner.invoke(main, [
        "export-adblock", "--list", str(flist)])
    assert result.exit_code == 0, result.output
    assert "$removeparam=" in result.output

    result = runner.invoke(main, [
        "sanitize", "--list", str(flist), "--site", "site0000.example",
        "https://a.trk0.example/collect?uid=abcdefgh12345678"])
    assert result.exit_code == 0, result.output
    sanitized = result.output.strip()
    assert sanitized != "https://a.trk0.example/collect?uid=abcdefgh12345678"
    assert sanitized.startswith("https://a.trk0.example/collect?uid=")


@pytest.mark.parametrize("explain", [[], ["--explain"]],
                         ids=["plain", "explain"])
def test_predict_rows_have_the_header_field_count(explain, tb, tmp_path):
    """A key holding a comma, which the matrix quotes, stays one field."""
    t = (tb.script("s1").request("s1", "r1", "https://t.example/p"
                                 "?a,b=abcdefgh12345678&uid=zyxw9876vuts")
         .build())
    with open(tmp_path / "t.jsonl", "w", encoding="utf-8") as fh:
        write_trace(t, fh)
    (tmp_path / "model.json").write_text(_model([_split(0)]))
    runner = CliRunner()
    result = runner.invoke(main, ["features", str(tmp_path / "t.jsonl"),
                                  "-o", str(tmp_path / "m.csv")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "predict", "--model", str(tmp_path / "model.json"),
        "--matrix", str(tmp_path / "m.csv"), *explain])
    assert result.exit_code == 0, result.output
    header, *rows = csv.reader(io.StringIO(result.stdout))
    assert header[-1] == ("top_feature" if explain else "label")
    assert rows and all(len(row) == len(header) for row in rows), rows
    assert "a,b" in {row[2] for row in rows}


def test_cv_command(runner, corpus, tmp_path):
    root, traces = corpus
    matrix = tmp_path / "matrix.csv"
    assert runner.invoke(main, ["features", *traces, "-o",
                                str(matrix)]).exit_code == 0
    result = runner.invoke(main, [
        "cv", "--matrix", str(matrix), "--labels", str(root / "labels.csv"),
        "--folds", "4", "--trees", "15"])
    assert result.exit_code == 0, result.output
    assert "accuracy" in result.output
    assert "kind query" in result.output


def test_evade_subcommand(runner, corpus, tmp_path):
    _root, traces = corpus
    out = tmp_path / "renamed"
    result = runner.invoke(main, [
        "--seed", "4", "evade", "rename", traces[0], "--out", str(out)])
    assert result.exit_code == 0, result.output
    transformed = list(out.iterdir())
    assert len(transformed) == 1
    result = runner.invoke(main, ["parse", str(transformed[0])])
    assert result.exit_code == 0


def test_stats_subcommand(runner, corpus):
    root, traces = corpus
    result = runner.invoke(main, [
        "stats", *traces, "--labels", str(root / "labels.csv")])
    assert result.exit_code == 0, result.output
    assert "prevalence report" in result.output
    assert "sites: 8" in result.output


def test_exit_codes_for_input_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{\"format\": 99}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "linkscrub.cli", "parse", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()


def test_exit_code_zero_on_success(corpus):
    _root, traces = corpus
    proc = subprocess.run(
        [sys.executable, "-m", "linkscrub.cli", "parse", traces[0]],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_generate_rejects_unknown_encoding(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "linkscrub.cli", "generate",
         "--out", str(tmp_path / "x"), "--encodings", "plain,rot13"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: unknown encoding 'rot13'\n"


@pytest.mark.parametrize("command", ["predict", "emit-list"])
def test_model_commands_refuse_other_feature_version(corpus, tmp_path,
                                                     command):
    root, traces = corpus
    matrix = tmp_path / "matrix.csv"
    model = tmp_path / "model.json"
    runner = CliRunner()
    assert runner.invoke(main, ["features", *traces, "-o",
                                str(matrix)]).exit_code == 0
    result = runner.invoke(main, [
        "train", "--matrix", str(matrix),
        "--labels", str(root / "labels.csv"), "--trees", "5",
        "-o", str(model)])
    assert result.exit_code == 0, result.output
    saved = json.loads(model.read_text(encoding="utf-8"))
    saved["feature_version"] = "2"
    model.write_text(json.dumps(saved), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "linkscrub.cli", command,
         "--model", str(model), "--matrix", str(matrix)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "feature version" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["graph", "features", "label", "stats"])
def test_unparseable_request_url_is_reported(command, tb, tmp_path):
    trace = tmp_path / "t.jsonl"
    t = (tb.script("s1").request("s1", "r1", "notaurl")
         .request("s1", "r2", "https://t.example/?uid=abcdefgh12345678")
         .build())
    with open(trace, "w", encoding="utf-8") as fh:
        write_trace(t, fh)
    result = CliRunner().invoke(main, [command, str(trace)])
    assert result.exit_code == 0, result.output
    assert "warning: unparseable request URL 'notaurl'" in result.stderr


def _matrix(*rows):
    buf = io.StringIO()
    features.write_feature_matrix([], buf)
    return buf.getvalue() + "".join(row + "\n" for row in rows)


_ROW = "t,n,s.example,t.example,uid,query," + ",".join(
    ["0"] * len(features.FEATURE_NAMES))
_LABELS = "site,fqdn,key,label,provenance\n"
_LEAF = {"counts": [[1, 1]], "feature": [-1], "right": [-1],
         "threshold": [0.0]}


def _split(f, t=0.5):
    """A tree of one split on feature ``f`` at ``t`` and two leaves."""
    return {"counts": [[1, 1], [1, 0], [0, 1]], "feature": [f, -1, -1],
            "right": [2, -1, -1], "threshold": [t, 0.0, 0.0]}


def _model(trees, names=features.FEATURE_NAMES, config=None):
    return json.dumps({"format": 2, "trees": trees, "feature_names": names,
                       "feature_version": features.FEATURE_VERSION,
                       "config": config or {}})


_TRAIN = ["train", "--matrix", "m.csv", "--labels", "l.csv", "-o", "x.json"]
_PREDICT = ["predict", "--model", "model.json", "--matrix", "m.csv"]
_LABEL = ["label", "t.jsonl"]
# files to write, command line, and what the error line must contain
MALFORMED_INPUTS = {
    "matrix header": ({"m.csv": "a,b\n", "l.csv": _LABELS}, _TRAIN,
                      "line 1: feature matrix header"),
    "empty matrix": ({"m.csv": "", "l.csv": _LABELS}, _TRAIN, "line 1:"),
    "non-numeric cell": ({"m.csv": _matrix(_ROW[:-1] + "x"),
                          "l.csv": _LABELS}, _TRAIN, "line 2:"),
    "short matrix row": ({"m.csv": _matrix(_ROW, _ROW[:-2]),
                          "l.csv": _LABELS}, _TRAIN, "line 3: expected"),
    "label row of 4 fields": ({"m.csv": _matrix(),
                               "l.csv": _LABELS + "s,f,k,ATS\n"}, _TRAIN,
                              "line 2: expected 5 fields"),
    "label file header": ({"m.csv": _matrix(), "l.csv": "a,b\n"}, _TRAIN,
                          "line 1: bad label file header"),
    "label field over the csv limit": (
        {"m.csv": _matrix(),
         "l.csv": _LABELS + "s," + "x" * 200_000 + ",k,ATS,p\n"},
        _TRAIN, "line 2: field larger than field limit"),
    "matrix field over the csv limit": (
        {"m.csv": _matrix("x" * 200_000), "l.csv": _LABELS}, _TRAIN,
        "line 2: field larger than field limit"),
    "request rule with a bad host anchor": (
        {"t.jsonl": HEADER, "r.txt": "! rules\n\n||bad\n"},
        _LABEL + ["--request-rules", "r.txt"],
        "line 3: malformed host anchor: '||bad'"),
    "cookie purpose unknown": (
        {"t.jsonl": HEADER, "p.csv": "# purposes\n*,uid,other\n"},
        _LABEL + ["--cookie-purposes", "p.csv"],
        "line 2: unknown cookie purpose 'other'"),
    "curated entry without a bar": (
        {"t.jsonl": HEADER, "c.txt": "# curated\n\nuid\n"},
        _LABEL + ["--curated", "c.txt"],
        "line 3: curated entry must be fqdn|key"),
    "native list header": ({"l.txt": "# other list\n"},
                           ["export-adblock", "--list", "l.txt"],
                           "line 1: expected header"),
    "model not JSON": ({"model.json": "{nope", "m.csv": _matrix()}, _PREDICT,
                       "model is not JSON"),
    "model without trees": ({"model.json": '{"format": 2}',
                             "m.csv": _matrix()}, _PREDICT, "'trees'"),
    "model with no trees": ({"model.json": _model([]),
                             "m.csv": _matrix(_ROW)}, _PREDICT, "no trees"),
    "model config with unknown key": (
        {"model.json": _model([_LEAF], config={"depth": 3}),
         "m.csv": _matrix(_ROW)}, _PREDICT, "'config'"),
    "model node without counts": ({"model.json": _model(
                                       [{**_LEAF, "counts": [None]}]),
                                   "m.csv": _matrix(_ROW)}, _PREDICT,
                                  "model tree 0"),
    "model with a NaN threshold": (
        {"model.json": _model([_split(0, float("nan"))]),
         "m.csv": _matrix(_ROW)}, _PREDICT, "model tree 0: split needs"),
    "model of other features": (
        {"model.json": _model([_split(50)], ["f"] * 51),
         "m.csv": _matrix(_ROW)},
        _PREDICT, "feature names"),
}
for _name, (_events, _message) in MALFORMED.items():
    MALFORMED_INPUTS[f"trace with {_name}"] = (
        {"t.jsonl": "\n".join([HEADER] + [json.dumps(ev) for ev in _events])},
        ["features", "t.jsonl"], f"line {len(_events) + 1}: {_message}")
MALFORMED_INPUTS["trace with list header"] = (
    {"t.jsonl": "[1]\n"}, ["features", "t.jsonl"], "line 1:")
MALFORMED_INPUTS["trace not UTF-8"] = (
    {"t.jsonl": b'{"format": 1}\n\xff\n'}, ["features", "t.jsonl"],
    "can't decode byte 0xff")
MALFORMED_INPUTS["trace line nesting 100,000 deep"] = (
    {"t.jsonl": HEADER + "\n" + "[" * 100_000 + "\n"}, ["parse", "t.jsonl"],
    "line 2: JSON nests too deeply")
# a nested tree, as format 1 held it, written out as text: json.dumps would
# itself recurse too deeply
_DEEP_TREE = ('{"counts": [1, 1], "f": 0, "t": 0.5, "left": ' * 3000
              + '{"counts": [1, 0]}'
              + ', "right": {"counts": [0, 1]}}' * 3000)
MALFORMED_INPUTS["model tree nesting 3,000 deep"] = (
    {"model.json": _model([]).replace("[]", f"[{_DEEP_TREE}]", 1),
     "m.csv": _matrix(_ROW)}, _PREDICT, "model 'model.json' nests too deeply")

for _name, _config, _field in (
        ("threshold a string", {"threshold": "x"}, "'threshold'"),
        ("threshold null", {"threshold": None}, "'threshold'"),
        ("threshold above 1", {"threshold": 1.5}, "'threshold'"),
        ("tree_count a string", {"tree_count": "x"}, "'tree_count'"),
        ("max_depth a float", {"max_depth": 2.5}, "'max_depth'"),
        ("features_per_split other text", {"features_per_split": "log2"},
         "'features_per_split'"),
        ("bootstrap an integer", {"bootstrap": 1}, "'bootstrap'"),
        ("seed negative", {"seed": -1}, "'seed'")):
    MALFORMED_INPUTS[f"model config {_name}"] = (
        {"model.json": _model([_LEAF], config=_config),
         "m.csv": _matrix(_ROW)}, _PREDICT, f"'config': {_field} must be")


# each numeric option on a command that takes it (None holds the value),
# and the exit codes for the values nan, -1 and 0; an int option reads no nan
_NUMERIC_OPTIONS = {
    "--seed": (["--seed", None, "parse", "t.jsonl"], (1, 1, 0)),
    "--min-value-len": (["--min-value-len", None, "graph", "t.jsonl"],
                        (1, 1, 0)),
    "--threshold": (["--threshold", None, *_PREDICT], (1, 1, 0)),
    "--sites": (["generate", "--out", "g", "--sites", None], (1, 1, 1)),
    "--trackers-per-site": (["generate", "--out", "g",
                             "--trackers-per-site", None], (1, 1, 1)),
    "train --trees": ([*_TRAIN, "--trees", None], (1, 1, 1)),
    "cv --trees": (["cv", "--matrix", "m.csv", "--labels", "l.csv",
                    "--trees", None], (1, 1, 1)),
    "--folds": (["cv", "--matrix", "m.csv", "--labels", "l.csv",
                 "--folds", None], (1, 1, 1)),
    "--top": (["stats", "t.jsonl", "--top", None], (1, 1, 0)),
}


@pytest.mark.parametrize("name,value,code", [
    (name, value, code) for name, (_argv, codes) in _NUMERIC_OPTIONS.items()
    for value, code in zip(("nan", "-1", "0"), codes)])
def test_numeric_option_out_of_range_is_refused_naming_it(
        name, value, code, tmp_path, monkeypatch, capsys):
    files = {"t.jsonl": HEADER, "model.json": _model([_LEAF]),
             "m.csv": _matrix(_ROW), "l.csv": _LABELS}
    for file, content in files.items():
        (tmp_path / file).write_text(content)
    argv = [value if arg is None else arg
            for arg in _NUMERIC_OPTIONS[name][0]]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["linkscrub", *argv])
    try:
        run()
        got = 0
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    if code:
        option = name.split()[-1]
        assert f"Error: Invalid value for '{option}'" in err, err
        assert "Traceback" not in err
        # a refused command writes nothing
        assert not (tmp_path / "g").exists()
        assert not (tmp_path / "x.json").exists()


def _deep_tree_inputs(n=3000):
    """A matrix and labels on which ``train`` with seed 0 grows a first
    tree over 1,000 levels deep. The rows its bootstrap draws exactly once
    alternate in label along every column, and the best split peels one of
    them at a time; the rows drawn more often are one NonATS block at 0."""
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
    draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
    once = np.flatnonzero(draws == 1)
    x = np.zeros(n, dtype=int)
    x[once] = np.arange(1, len(once) + 1)
    ats = x % 2 == 0
    ats[draws != 1] = False
    # unsampled rows balance the classes, so balancing keeps every row
    unsampled = np.flatnonzero(draws == 0)
    ats[unsampled[:n // 2 - ats.sum()]] = True
    rows = [f"t,n,s.example,t.example,k{i},query," + ",".join(
        [str(x[i])] * len(features.FEATURE_NAMES)) for i in range(n)]
    labels = "".join(f"s.example,t.example,k{i},{'ATS' if a else 'NonATS'},p\n"
                     for i, a in enumerate(ats))
    return {"m.csv": _matrix(*rows), "l.csv": _LABELS + labels}


@pytest.mark.parametrize("files,argv,expected", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS)
def test_malformed_input_exits_1_without_traceback(
        files, argv, expected, tmp_path, monkeypatch, capsys):
    for name, content in files.items():
        (tmp_path / name).write_bytes(
            content if isinstance(content, bytes) else content.encode())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["linkscrub", *argv])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err, err
    assert "Traceback" not in err
    # a failed train leaves no partial model behind
    out = tmp_path / "x.json"
    assert not out.exists() or out.read_bytes() == b""


def test_a_tree_over_a_thousand_levels_deep_saves_and_predicts(
        tmp_path, monkeypatch):
    files = _deep_tree_inputs()
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, _TRAIN + ["--trees", "1"])
    assert result.exit_code == 0, result.output
    with open("x.json", encoding="utf-8") as fh:
        (tree,) = forest.load_forest(fh).trees
    assert levels(tree) > 1000
    result = runner.invoke(main, ["predict", "--model", "x.json",
                                  "--matrix", "m.csv"])
    assert result.exit_code == 0, result.output
    _header, *rows = csv.reader(io.StringIO(result.stdout))
    # the same model trained in this process, never saved
    _meta, X, y, _kinds = _join_matrix_labels(io.StringIO(files["m.csv"]),
                                              io.StringIO(files["l.csv"]))
    cfg = forest.ForestConfig(tree_count=1)
    keep = forest.balance(y, seed=cfg.seed)
    model = forest.train(X[keep], y[keep], cfg, features.FEATURE_NAMES)
    _meta, X = features.read_feature_matrix(io.StringIO(files["m.csv"]))
    assert model.trees == [tree]
    assert ([row[4] for row in rows]
            == [repr(s) for s in forest.predict_scores(model, X).tolist()])
