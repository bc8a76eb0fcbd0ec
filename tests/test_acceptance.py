"""Release acceptance suite. Each test checks one numbered criterion at its
stated tolerance and prints a single pass/fail line (visible in the pytest
log even without -s)."""

import math
import random
import re
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import conftest

from linkscrub import evasion, filters, forest, urls
from linkscrub.cli import main as cli_main
from linkscrub.features import (FEATURE_NAMES, REQUEST_LEVEL_FEATURES,
                                features_for_graph, shannon_entropy)
from linkscrub.graph import EXFILTRATION, build_full_graph
from linkscrub.synthetic import SyntheticConfig, generate_synthetic
from linkscrub.urls import DecorationId

from conftest import named
from oracle_exfil import oracle_exfil_pairs
from test_features import _oracle_metrics, hand_graph
from test_graph import random_trace


def _report(number, description, ok):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


# -- shared corpus -------------------------------------------------------------

CORPUS_CFG = SyntheticConfig(sites=220, seed=11,
                             encodings=("plain", "base64", "sha256"))


@pytest.fixture(scope="module")
def corpus():
    traces, planted = generate_synthetic(CORPUS_CFG)
    return traces, planted


def _labeled_matrix(traces, planted, min_len=8):
    X, y, meta = [], [], []
    for t in traces:
        g = build_full_graph(t, min_len=min_len)
        for node_id, fv in features_for_graph(g):
            node = g.nodes[node_id]
            dec_id = node.attrs["decoration"].id
            lab = planted.get(dec_id)
            if lab == "ATS":
                y.append(1)
            elif lab == "NonATS":
                y.append(0)
            else:
                continue
            X.append(list(fv))
            meta.append((dec_id, node.attrs["kind"]))
    return np.array(X), np.array(y, dtype=np.int64), meta


def _predict(model, x):
    """(label, score) of one feature vector: ATS iff its score reaches the
    model's threshold."""
    [score] = forest.predict_scores(model, np.asarray(x)[None, :]).tolist()
    return (forest.ATS_CLASS if score >= model.config.threshold
            else forest.NON_ATS_CLASS), score


@pytest.fixture(scope="module")
def dataset(corpus):
    traces, planted = corpus
    return _labeled_matrix(traces, planted)


@pytest.fixture(scope="module")
def trained(dataset):
    X, y, meta = dataset
    keep = forest.balance(y, seed=0)
    cfg = forest.ForestConfig(tree_count=60, seed=3)
    return forest.train(X[keep], y[keep], cfg, FEATURE_NAMES)


# -- criterion 1: URL round-trip ----------------------------------------------

EXAMPLE = "https://a.site.example/YYY/ZZZ/pixel.jpg?ISBN=ABC&UID=DEF123#xyz"


def _random_url(rng):
    alphabet = "abcXYZ019-._~%!$&'()*+,;=:@"
    piece = lambda k: "".join(rng.choice(alphabet) for _ in range(rng.randint(0, k)))
    host = "h" + "".join(rng.choice("abcz09-.") for _ in range(rng.randint(0, 10)))
    out = rng.choice(["http", "https"]) + "://" + host
    out += rng.choice(["", ":80", ":8443"])
    if rng.random() < 0.8:
        out += "/" + "/".join(piece(6) for _ in range(rng.randint(1, 4)))
    if rng.random() < 0.8:
        tokens = [piece(4) + rng.choice(["", "="]) + piece(6)
                  for _ in range(rng.randint(0, 4))]
        out += "?" + "&".join(tokens)
    if rng.random() < 0.5:
        out += "#" + piece(8)
    return out


def test_criterion_1_url_round_trip():
    start = time.perf_counter()
    rng = random.Random(1701)
    ok = True
    for i in range(1000):
        url = _random_url(rng)
        d1 = urls.decompose(url)
        again = urls.reassemble(d1)
        ok = ok and again == url and urls.decompose(again) == d1
    d = urls.decompose(EXAMPLE)
    ok = ok and urls.reassemble(d) == EXAMPLE
    named = [(x.id.key, x.value)
             for x, _ in urls.name_decorations(d, "site.example")]
    ok = ok and named == [("path|0", "YYY"), ("path|1", "ZZZ"),
                          ("ISBN", "ABC"), ("UID", "DEF123"),
                          ("fragment", "xyz")]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"URL round-trip, 1000 URLs + worked example "
               f"({elapsed:.2f}s)", ok)


# -- criterion 2: graph-oracle equivalence ------------------------------------

def test_criterion_2_exfiltration_oracle(corpus):
    start = time.perf_counter()
    traces, _ = corpus
    pool = list(traces[:60]) + [random_trace(seed, site_index=seed)
                                for seed in range(40)]
    assert len(pool) == 100
    ok = True
    for min_len in (8, 0):
        for t in pool:
            g = build_full_graph(t, min_len=min_len)
            got = {(e.src, e.dst) for e in g.edges if e.kind == EXFILTRATION}
            ok = ok and got == oracle_exfil_pairs(t, min_len=min_len)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(2, f"exfiltration edges equal brute-force oracle on 100 traces "
               f"({elapsed:.2f}s)", ok)


# -- criterion 3: feature correctness -----------------------------------------

def _metrics_from_dump(dump, target, flow=False):
    """Recount the structural metrics from the edge-list dump alone."""
    edges = []
    for line in dump.strip().splitlines():
        src, dst, label, _ev = line.split("\t")
        edges.append((src, dst, label))
    if flow:
        flow_edges = [e for e in edges
                      if e[2].split(":")[0] in ("exfiltration",
                                                "infiltration")]
        endpoints = {x for e in flow_edges for x in e[:2]}
        edges = flow_edges + [
            e for e in edges
            if e[2].startswith("interaction")
            and (e[0] in endpoints or e[1] in endpoints)]
    nodes = {x for e in edges for x in e[:2]}

    class E:
        def __init__(self, s, d):
            self.src, self.dst = s, d

    class N:
        def __init__(self, i):
            self.id = i

    if target not in nodes:
        return {k: 0.0 for k in (
            "node_count", "edge_count", "nodes_per_edge", "in_degree",
            "out_degree", "degree", "avg_degree_connectivity",
            "closeness_centrality", "eccentricity")}
    return _oracle_metrics([N(n) for n in nodes],
                           [E(s, d) for s, d, _l in edges], target)


def test_criterion_3_feature_recount():
    g = hand_graph()
    assert len(g.nodes) == 10
    dump = g.edge_list_dump()
    ok = True
    structural = ("node_count", "edge_count", "nodes_per_edge", "in_degree",
                  "out_degree", "degree", "avg_degree_connectivity",
                  "closeness_centrality", "eccentricity")
    vectors = {node_id: named(fv)
               for node_id, fv in features_for_graph(g)}
    for dec in g.decoration_nodes():
        fv = vectors[dec.id]
        plain = _metrics_from_dump(dump, dec.id)
        flow = _metrics_from_dump(dump, dec.id, flow=True)
        for name in structural:
            ok = ok and math.isclose(fv[name], plain[name], abs_tol=1e-9)
            ok = ok and math.isclose(fv["flow_" + name], flow[name],
                                     abs_tol=1e-9)
        # content features recounted directly from the node attributes
        ok = ok and math.isclose(
            fv["shannon_entropy"], shannon_entropy(dec.attrs["value"]),
            abs_tol=1e-9)
    ok = ok and abs(shannon_entropy("aaaa") - 0.0) < 1e-9
    ok = ok and abs(shannon_entropy("abab") - 1.0) < 1e-9
    ok = ok and abs(shannon_entropy("DEF123") - math.log2(6)) < 1e-9
    # the full 43-entry hand recount lives in test_features and must hold too
    from test_features import test_hand_graph_uid_feature_vector
    test_hand_graph_uid_feature_vector()
    _report(3, "feature vectors equal independent recount on 10-node graph",
            ok)


# -- criterion 4: classifier reproduction -------------------------------------

def test_criterion_4_cross_validation(dataset):
    start = time.perf_counter()
    X, y, meta = dataset
    ok = len(y) >= 10000
    cfg = forest.ForestConfig(tree_count=100, seed=5)
    kinds = [kind for _d, kind in meta]
    report = forest.cross_validate(X, y, cfg, FEATURE_NAMES, k=10, seed=5,
                                   kinds=kinds)
    ok = ok and report.accuracy >= 0.95
    ok = ok and report.precision >= 0.93
    ok = ok and report.recall >= 0.95
    rng = np.random.default_rng(17)
    shuffled = forest.cross_validate(
        X, rng.permutation(y), cfg, FEATURE_NAMES, k=10, seed=5)
    ok = ok and 0.45 <= shuffled.accuracy <= 0.55
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(4, f"10-fold CV on {len(y)} decorations: "
               f"acc {report.accuracy:.4f} prec {report.precision:.4f} "
               f"rec {report.recall:.4f}, shuffled {shuffled.accuracy:.4f} "
               f"({elapsed:.1f}s)", ok)


# -- criterion 5: path-contribution additivity --------------------------------

def test_criterion_5_importance_additivity(dataset, trained):
    X, y, _meta = dataset
    ok = True
    take = X[:1000]
    scores = forest.predict_scores(trained, take)
    for i in range(len(take)):
        prior, contrib, score = forest.decompose_prediction(trained, take[i])
        ok = ok and abs(prior + contrib.sum() - score) < 1e-9
        ok = ok and abs(score - scores[i]) < 1e-9
    stump_cfg = forest.ForestConfig(tree_count=1, max_depth=1,
                                    bootstrap=False,
                                    features_per_split="all", seed=0)
    keep = forest.balance(y, seed=1)
    stump = forest.train(X[keep], y[keep], stump_cfg, FEATURE_NAMES)
    split_feature = FEATURE_NAMES[stump.trees[0].feature[0]]
    ranked = forest.feature_importance(stump, take)
    ok = ok and ranked[0] == (split_feature, 100.0)
    _report(5, f"prior+contributions reproduce scores on 1000 instances; "
               f"stump top contributor {split_feature} at 100%", ok)


# -- criterion 6: rename invariance -------------------------------------------

def _vectors_by_request(trace, min_len=8):
    g = build_full_graph(trace, min_len=min_len)
    out = {}
    for node_id, fv in features_for_graph(g):
        node = g.nodes[node_id]
        out.setdefault(node.attrs["request"], []).append(
            (node.attrs["kind"], node.attrs["position"],
             node.attrs["value"], fv))
    return out


def test_criterion_6_rename_invariance(corpus, trained):
    traces, _ = corpus
    subset = traces[:25]
    renamed = evasion.evade_rename(subset, seed=23)
    ok = True
    for orig, ren in zip(subset, renamed):
        before = _vectors_by_request(orig)
        after = _vectors_by_request(ren)
        ok = ok and before.keys() == after.keys()
        for req in before:
            b_qf = [e for e in before[req] if e[0] in ("query", "fragment")]
            a_qf = [e for e in after[req] if e[0] in ("query", "fragment")]
            ok = ok and b_qf == a_qf  # exact, including every feature value
            for (entries_b, entries_a) in ((before[req], after[req]),):
                def path_rows(entries):
                    rows = []
                    for kind, _p, value, fv in entries:
                        if kind != "path":
                            continue
                        rows.append((value, tuple(
                            v for n, v in named(fv).items()
                            if n != "max_decoration_depth")))
                    return sorted(rows)
                ok = ok and path_rows(entries_b) == path_rows(entries_a)
            # predictions unchanged for the position-stable decorations
            for b, a in zip(b_qf, a_qf):
                xb = np.array(b[3])
                xa = np.array(a[3])
                ok = ok and _predict(trained, xb) == _predict(trained, xa)
    _report(6, "rename evasion: query/fragment vectors and predictions "
               "unchanged; path moves touch only the depth feature", ok)


# -- criterion 7: evasion degradation bounds ----------------------------------

def test_criterion_7_evasion_bounds(corpus):
    traces, planted = corpus
    subset = traces[:60]
    sub_planted = {k: v for k, v in planted.items()
                   if any(k.site == t.site for t in subset)}

    # split study: min-length pre-processing disabled end to end
    X, y, meta = _labeled_matrix(subset, sub_planted, min_len=0)
    keep = forest.balance(y, seed=2)
    model = forest.train(X[keep], y[keep],
                         forest.ForestConfig(tree_count=100, seed=2),
                         FEATURE_NAMES)
    qf = [i for i, (_d, kind) in enumerate(meta)
          if kind in ("query", "fragment")]
    base_acc = float(np.mean(
        (forest.predict_scores(model, X[qf]) >= 0.5).astype(int) == y[qf]))

    split_rows = []
    suffix = re.compile(r"^(.*)_(\d+)$")
    for t in evasion.evade_split(subset):
        g = build_full_graph(t, min_len=0)
        for node_id, fv in features_for_graph(g):
            node = g.nodes[node_id]
            if node.attrs["kind"] not in ("query", "fragment"):
                continue
            dec_id = node.attrs["decoration"].id
            lab = sub_planted.get(dec_id)
            if lab is None:
                m = suffix.match(dec_id.key)
                if m:
                    base = ("fragment" if m.group(1) == "fragment"
                            else m.group(1))
                    lab = sub_planted.get(
                        DecorationId(dec_id.site, dec_id.fqdn, base))
            if lab in ("ATS", "NonATS"):
                split_rows.append((list(fv), int(lab == "ATS")))
    Xs = np.array([r[0] for r in split_rows])
    ys = np.array([r[1] for r in split_rows])
    split_acc = float(np.mean(
        (forest.predict_scores(model, Xs) >= 0.5).astype(int) == ys))
    drop = base_acc - split_acc
    ok = drop <= 0.05

    # combine study: classification restricted to request-constant features
    ridx = [FEATURE_NAMES.index(n) for n in REQUEST_LEVEL_FEATURES]
    X8, y8, _meta8 = _labeled_matrix(subset, sub_planted, min_len=8)
    keep8 = forest.balance(y8, seed=2)
    rmodel = forest.train(X8[keep8][:, ridx], y8[keep8],
                          forest.ForestConfig(tree_count=100, seed=2),
                          REQUEST_LEVEL_FEATURES)
    detected = total = 0
    for t_orig, t_comb in zip(subset, evasion.evade_combine(subset)):
        g_o = build_full_graph(t_orig)
        ats_requests = {
            d.attrs["request"] for d in g_o.decoration_nodes()
            if sub_planted.get(d.attrs["decoration"].id) == "ATS"}
        g_c = build_full_graph(t_comb)
        for node_id, fv in features_for_graph(g_c):
            node = g_c.nodes[node_id]
            if node.attrs["request"] not in ats_requests:
                continue
            x = np.array([fv[i] for i in ridx])
            label, _score = _predict(rmodel, x)
            total += 1
            detected += int(label == forest.ATS_CLASS)
    detection = detected / total
    ok = ok and detection >= 0.70
    # combined values are 64 hex chars; their entropy sits above the 3-bit line
    sample = build_full_graph(evasion.evade_combine(subset[:3])[0])
    combined_entropies = [
        shannon_entropy(d.attrs["value"])
        for d in sample.decoration_nodes() if d.attrs["kind"] == "path"
        and len(d.attrs["value"]) == 64]
    ok = ok and combined_entropies and min(combined_entropies) > 3.0
    _report(7, f"split accuracy drop {drop * 100:.1f}pt (<=5), combine "
               f"detection {detection * 100:.1f}% (>=70)", ok)


# -- criterion 8: sanitizer soundness -----------------------------------------

def _rule_hits(rule, site, fqdn, key):
    return (rule.scope in ("*", site)
            and urls.fqdn_pattern_matches(rule.fqdn, fqdn)
            and rule.key == key)


def test_criterion_8_sanitizer_soundness(corpus, dataset, trained):
    start = time.perf_counter()
    traces, _planted = corpus
    X, _y, meta = dataset
    scores = forest.predict_scores(trained, X)
    preds = [filters.Prediction(dec_id, kind, float(s))
             for (dec_id, kind), s in zip(meta, scores)]
    rules = filters.emit_filter_list(preds, threshold=0.5)
    ok = len(rules) > 0
    checked = 0
    for t in traces[:80]:
        for ev in t.events:
            if ev.kind not in ("request", "element_request"):
                continue
            url = ev.payload["url"]
            out = urls.sanitize(url, t.site, rules, mode="replace", seed=9)
            d_in = urls.decompose(url)
            d_out = urls.decompose(out)
            named_in = urls.name_decorations(d_in, t.site)
            named_out = urls.name_decorations(d_out, t.site)
            ok = ok and len(named_in) == len(named_out)
            for (a, _), (b, _) in zip(named_in, named_out):
                checked += 1
                flagged = any(
                    _rule_hits(r, t.site, a.id.fqdn, a.id.key)
                    for r in rules)
                if flagged:
                    ok = ok and len(a.value) == len(b.value)
                else:
                    ok = ok and a == b
            # every byte outside rewritten decoration values is unchanged:
            # grafting the original raw components back must rebuild the input
            from dataclasses import replace
            restored = replace(
                d_out,
                raw_dir_segments=d_in.raw_dir_segments,
                raw_query_tokens=d_in.raw_query_tokens,
                raw_fragment=d_in.raw_fragment,
                had_query=d_in.had_query)
            ok = ok and urls.reassemble(restored) == url
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(8, f"sanitizer rewrites exactly the flagged decorations "
               f"({checked} decorations diffed, {elapsed:.2f}s)", ok)


# -- criterion 9: end-to-end determinism --------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    runner = CliRunner()
    artifacts = {}
    for run_name in ("one", "two"):
        root = tmp_path / run_name
        root.mkdir()
        res = runner.invoke(cli_main, [
            "--seed", "13", "generate", "--out", str(root), "--sites", "8",
            "--encodings", "plain,base64"])
        assert res.exit_code == 0, res.output
        traces = sorted(str(p) for p in (root / "traces").iterdir())
        steps = [
            (["features", *traces, "-o", str(root / "matrix.csv")], None),
            (["train", "--matrix", str(root / "matrix.csv"),
              "--labels", str(root / "labels.csv"), "--trees", "25",
              "-o", str(root / "model.json")], None),
            (["cv", "--matrix", str(root / "matrix.csv"),
              "--labels", str(root / "labels.csv"), "--folds", "4",
              "--trees", "10"], "cv.txt"),
            (["emit-list", "--model", str(root / "model.json"),
              "--matrix", str(root / "matrix.csv"),
              "-o", str(root / "list.txt")], None),
            (["export-adblock", "--list", str(root / "list.txt")],
             "adblock.txt"),
            (["stats", *traces, "--labels", str(root / "labels.csv")],
             "stats.txt"),
        ]
        for args, capture in steps:
            res = runner.invoke(cli_main, ["--seed", "13", *args])
            assert res.exit_code == 0, (args, res.output)
            if capture:
                (root / capture).write_text(res.output)
        names = (["traces/" + p.split("/")[-1] for p in traces]
                 + ["labels.csv", "matrix.csv", "model.json", "list.txt",
                    "cv.txt", "adblock.txt", "stats.txt"])
        artifacts[run_name] = {
            n: (root / n).read_bytes() for n in names}
    ok = artifacts["one"] == artifacts["two"]
    _report(9, "two seeded pipeline runs produce byte-identical artifacts",
            ok)
