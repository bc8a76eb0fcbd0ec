import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from linkscrub.cli import main
from linkscrub.trace import write_trace


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
    assert "0 finding(s)" in result.output


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
    assert json.loads(model.read_text())["format"] == 1

    result = runner.invoke(main, [
        "predict", "--model", str(model), "--matrix", str(matrix),
        "--explain", "-o", str(tmp_path / "pred.csv")])
    assert result.exit_code == 0, result.output
    pred_lines = (tmp_path / "pred.csv").read_text().splitlines()
    assert pred_lines[0] == "site,fqdn,key,kind,score,label"
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


def test_generate_rejects_short_identifier(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "linkscrub.cli", "generate",
         "--out", str(tmp_path / "x"), "--identifier-length", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 1


def test_emit_list_refuses_other_feature_version(corpus, tmp_path):
    root, traces = corpus
    matrix = tmp_path / "matrix.csv"
    model = tmp_path / "model.json"
    runner = CliRunner()
    assert runner.invoke(main, ["features", *traces, "-o",
                                str(matrix)]).exit_code == 0
    result = runner.invoke(main, [
        "--format-version", "2", "train", "--matrix", str(matrix),
        "--labels", str(root / "labels.csv"), "--trees", "5",
        "-o", str(model)])
    assert result.exit_code == 0, result.output
    proc = subprocess.run(
        [sys.executable, "-m", "linkscrub.cli", "emit-list",
         "--model", str(model), "--matrix", str(matrix)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "feature version" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["features", "label", "stats"])
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
