"""Quick checks of the benchmark itself: the brute-force rule matcher and the
sanitizer check on hand-made cases, and a tiny run of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from oracles import (changed_decorations, check_sanitized, decorations,
                     matched_decorations, rule_matches, split_url)

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def rule(scope, fqdn, key):
    return SimpleNamespace(scope=scope, fqdn=fqdn, key=key)


@pytest.mark.parametrize("r, site, fqdn, key, expected", [
    (rule("*", "a.trk.example", "uid"), "s.example", "a.trk.example", "uid", True),
    (rule("*", "a.trk.example", "uid"), "s.example", "b.trk.example", "uid", False),
    (rule("*", "a.trk.example", "uid"), "s.example", "a.trk.example", "sid", False),
    (rule("*", "*.trk.example", "uid"), "s.example", "trk.example", "uid", True),
    (rule("*", "*.trk.example", "uid"), "s.example", "x.y.trk.example", "uid", True),
    (rule("*", "*.trk.example", "uid"), "s.example", "xtrk.example", "uid", False),
    (rule("*", "*", "path|1"), "s.example", "any.example", "path|1", True),
    (rule("s.example", "*", "uid"), "s.example", "a.example", "uid", True),
    (rule("s.example", "*", "uid"), "t.example", "a.example", "uid", False),
])
def test_rule_matches_hand_cases(r, site, fqdn, key, expected):
    assert rule_matches(r, site, fqdn, key) is expected


def test_split_names_every_decoration():
    s = split_url("https://u@Host.Example:8080/a/b%2Fc/x.gif?k%31=v&flag#p=1&q=2")
    assert s.fqdn == "host.example"
    assert [(d.key, d.raw) for d in decorations(s)] == [
        ("path|0", "a"), ("path|1", "b%2Fc"), ("k1", "v"), ("flag", ""),
        ("p", "1"), ("q", "2")]
    assert [d.key for d in decorations(split_url("https://h.example/#a=1&b"))] \
        == ["fragment"]
    assert decorations(split_url("https://h.example")) == []
    assert split_url("https://h.example/r?#").join() == "https://h.example/r?#"


def test_matched_decorations_scans_every_rule_of_the_key():
    by_key = {"uid": [rule("other.example", "*", "uid"),
                      rule("*", "*.trk.example", "uid")],
              "path|0": [rule("*", "a.trk.example", "path|0")]}
    url = "https://a.trk.example/id/p.gif?uid=abc&x=1#uid=z"
    assert matched_decorations(url, "s.example", by_key) == {0, 1, 3}
    assert matched_decorations(url, "s.example", {}) == set()


URL = "https://a.trk.example/abcd/p.gif?uid=a%2Bb&cb=12#sid=xyz"


@pytest.mark.parametrize("out, fault", [
    ("https://a.trk.example/Q9zk/p.gif?uid=k7P&cb=12#sid=xyz", None),
    ("https://a.trk.example/Q9zk/p.gif?uid=k7&cb=12#sid=xyz", "length"),
    ("https://a.trk.example/Q9zk/p.gif?uid=k7P&cb=13#sid=xyz", "unmatched"),
    ("https://a.trk.example/Q9zk/p.gif?uiD=k7P&cb=12#sid=xyz", "outside"),
    ("https://a.trk.example/Q9zk/q.gif?uid=k7P&cb=12#sid=xyz", "outside"),
    ("https://a.trk.example/Q9zk/p.gif?uid=k7P#sid=xyz", "decorations"),
    # a sanitizer that returns its input: "abcd" is long enough to need a change
    (URL, "kept its value"),
    # "a+b" is too short to require a change
    ("https://a.trk.example/Q9zk/p.gif?uid=a%2Bb&cb=12#sid=xyz", None),
])
def test_check_sanitized_hand_cases(out, fault):
    got = check_sanitized(URL, out, {0, 1})
    assert (got is None) if fault is None else (fault in got)


def test_check_sanitized_accepts_linkscrub_rewrites():
    from linkscrub.filters import FilterRule
    from linkscrub.urls import sanitize
    rules = [FilterRule("*", "*.trk.example", "uid"),
             FilterRule("s.example", "a.trk.example", "path|0"),
             FilterRule("*", "*", "sid")]
    by_key = {}
    for r in rules:
        by_key.setdefault(r.key, []).append(r)
    for site in ("s.example", "t.example"):
        matched = matched_decorations(URL, site, by_key)
        out = sanitize(URL, site, rules, mode="replace", seed=3)
        assert check_sanitized(URL, out, matched) is None
        assert changed_decorations(URL, out) == matched


TINY = [workloads.CrawlToList(small=6, dense=1, trees=10),
        workloads.NoisyForest(rows=600, trees=5, folds=3, explain=50),
        workloads.SanitizeStream(pages=10, made_rules=200)]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_run_is_correct_and_reports_every_metric(workload, tmp_path):
    res = run.run_workload(workload, seed=1, seconds=0, trace=False,
                           work_root=tmp_path, probes=1)
    assert (res["correct"], res["failed"]) == (True, 0)
    assert res["attempted"] == workload.ops_per_round
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert list(tmp_path.iterdir()) == []


def test_traced_run_reports_every_layer_metric(tmp_path):
    res = run.run_workload(TINY[0], seed=2, seconds=0, trace=True,
                           work_root=tmp_path, probes=1)
    assert (res["correct"], res["failed"]) == (True, 0)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == names
    for layer in ("trace.load_s", "graph.exfil_s", "features.extract_s",
                  "forest.predict_s", "graph.exfil_pairs", "filters.rules"):
        assert metrics[layer]["value"] > 0
    assert metrics["urls.urls"]["value"] == 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload",
         "crawl-to-list", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
