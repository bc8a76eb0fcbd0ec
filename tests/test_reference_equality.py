"""The indexed exfiltration and infiltration searches, the batched BFS
metrics, the features
computed once per request, the labels matched once per request and
identity through the request-rule index, the array-backed and rank-coded
forest with its list-based explanations and the sanitizer's rule index give
exactly what the full scan, the per-node BFS, the per-decoration feature
and label code, the recursive tree code and the scan over every rule in
``reference_scan`` give: the same edges in the same order with the same
evidence, equal floats, equal labels, equal trees and model bytes, equal
scores and explanations, equal sanitized URLs and equal audits."""

import copy
import dataclasses
import json
import random
from unittest import mock
from urllib.parse import quote

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from linkscrub import forest, labels
from linkscrub.errors import InputError
from linkscrub.filters import FilterRule
from linkscrub.features import (_BFS_BLOCK, REQUEST_LEVEL_FEATURES,
                                ViewMetrics, _ancestors, _GraphIndex,
                                _request_block, features_for_graph)
from linkscrub.graph import (DECORATION, ENCODINGS, EXFILTRATION,
                             HEX_ENCODINGS, INFILTRATION, KGRAM, NETWORK,
                             Edge, Node, _storage_node_id,
                             attach_decoration_nodes, build_full_graph,
                             build_graph,
                             detect_exfiltration, detect_infiltration,
                             encode_candidates)
from linkscrub.urls import (RuleIndex, decompose, name_decorations,
                            raw_decorations, sanitize)

from conftest import TraceBuilder
from reference_scan import (ReferenceGraphIndex, ReferenceViewMetrics,
                            _match_encoding, nested,
                            reference_decompose_prediction,
                            reference_detect_exfiltration,
                            reference_detect_infiltration,
                            reference_extract_features,
                            reference_features_for_graph,
                            reference_label_decorations,
                            reference_match_request_filter,
                            reference_decorations, reference_predict_scores,
                            reference_sanitize, reference_trees)

# 'İ'.lower() is two characters long, so a lowered haystack holding it is
# longer than the haystack and its match spans shift
_ALPHABET = "abcXYZ0189-_.İé"
_values = st.text(alphabet=_ALPHABET, min_size=1, max_size=14)


@st.composite
def _piece(draw, stored):
    """A decoration value: an encoded form of a stored value, whole, cut to a
    chunk or wrapped, maybe uppercased, or unrelated text."""
    value = draw(st.sampled_from(stored))
    form = encode_candidates(value)[draw(st.sampled_from(ENCODINGS))]
    if draw(st.booleans()):
        form = form.upper()
    how = draw(st.sampled_from(["whole", "chunk", "wrap", "other"]))
    if how == "chunk":
        start = draw(st.integers(0, len(form) - 1))
        form = form[start:draw(st.integers(start + 1, len(form)))]
    elif how == "wrap":
        form = draw(_values) + form + draw(_values)
    elif how == "other":
        form = draw(_values)
    return form


@st.composite
def _traces(draw):
    """Storage writes and reads interleaved with requests whose path, query
    and fragment decorations carry stored values; the same value often sits
    in several storage nodes."""
    tb = TraceBuilder(site="site.example").script("s1")
    stored = []
    for i in range(draw(st.integers(1, 14))):
        if stored and draw(st.booleans()):
            pieces = draw(st.lists(_piece(stored), min_size=1, max_size=5))
            wire = [quote(p, safe="") if draw(st.booleans()) else p
                    for p in pieces]
            query = "&".join(f"q{j}={w}" for j, w in enumerate(wire[1:]))
            url = f"https://t.example/{wire[0]}/x.js?{query}"
            if draw(st.booleans()):
                url += "#" + wire[-1]
            tb.request("s1", f"r{i}", url)
            continue
        value = draw(_values | st.sampled_from(stored) if stored else _values)
        store = draw(st.sampled_from(["cookie", "localStorage"]))
        key = draw(st.sampled_from(["k1", "k2", "k3"]))
        if draw(st.booleans()):
            tb.set("s1", store, key, value)
        else:
            tb.get("s1", store, key, value)
        stored.append(value)
    return tb.build()


@settings(max_examples=400, deadline=None)
@given(_traces(), st.sampled_from([0, 8]))
def test_exfiltration_equals_reference_scan(t, min_len):
    g = build_graph(t)
    attach_decoration_nodes(g)
    want = reference_detect_exfiltration(copy.deepcopy(g), min_len).edges
    assert detect_exfiltration(g, min_len=min_len).edges == want


def test_exfiltration_reference_cases_find_edges_both_ways():
    """The strategy's kinds of match, by hand: forward hits in every
    encoding, an uppercase digest after a character that lowercases to two,
    a chunk caught in reverse, and a value held by two storage nodes."""
    value = "abcXYZ0189"
    forms = encode_candidates(value)
    t = (TraceBuilder(site="site.example").script("s1")
         .set("s1", "cookie", "k1", value)
         .get("s1", "localStorage", "k2", value)
         .request("s1", "r1", "https://t.example/" + quote(
             "İ" + forms["sha1"].upper(), safe="") + "/x.js?a="
             + forms["base64"] + "&b=" + forms["sha256"][10:30]
             + "&c=" + forms["md5"] + "#" + value)
         .build())
    for min_len in (0, 8):
        g = build_graph(t)
        attach_decoration_nodes(g)
        want = reference_detect_exfiltration(copy.deepcopy(g), min_len).edges
        got = detect_exfiltration(g, min_len=min_len).edges
        assert got == want
        evidence = {e.evidence for e in got if e.kind == EXFILTRATION}
        assert evidence == {("sha1", (2, 42)), ("base64", (0, 16)),
                            ("sha256", (10, 30)), ("md5", (0, 32)),
                            ("plain", (0, 10))}
        assert len([e for e in got if e.kind == EXFILTRATION]) == 10


_STORAGE = st.tuples(st.sampled_from(["cookie", "localStorage"]),
                     st.sampled_from(["k1", "k2", "k3"]))


@st.composite
def _flow_traces(draw):
    """Script writes of a few values, some of them empty, interleaved with
    responses whose payloads carry pieces of those values' forms and which
    may set storage by header; a request may be answered twice and a
    response may answer no request."""
    tb = TraceBuilder(site="site.example").script("s1")
    stored = draw(st.lists(_values, min_size=1, max_size=4))
    requests = []
    for i in range(draw(st.integers(1, 14))):
        if draw(st.booleans()):
            store, key = draw(_STORAGE)
            tb.set("s1", store, key,
                   draw(st.sampled_from(stored) | st.just("")))
            continue
        request_id = draw(st.sampled_from([f"r{i}", "orphan"] + requests))
        if request_id == f"r{i}":
            tb.request("s1", request_id, f"https://t.example/{i}")
            requests.append(request_id)
        pieces = draw(st.lists(_piece(stored), max_size=3))
        header = [{"store": store, "key": key, "value": draw(_values)}
                  for store, key in draw(st.lists(_STORAGE, max_size=2))]
        tb.response(request_id, payload_text="&".join(pieces),
                    set_storage=header)
    return tb.build()


@settings(max_examples=400, deadline=None)
@given(_flow_traces())
def test_infiltration_equals_reference_scan(t):
    g = build_graph(t)
    want = reference_detect_infiltration(copy.deepcopy(g))
    assert detect_infiltration(g).edges == want.edges
    assert ([n.attrs.get("infiltrations") for n in g.request_nodes()]
            == [n.attrs.get("infiltrations") for n in want.request_nodes()])


def _flow_cases(t):
    """Which of the cases the flow strategy must reach ``t`` holds."""
    g = build_graph(t)
    cases = set()
    for resp in g.nodes_of_kind(NETWORK):
        payload = resp.attrs.get("payload", "")
        if resp.attrs["direction"] != "response" or not payload:
            continue
        headers = {_storage_node_id(entry["store"], entry["key"])
                   for entry in resp.attrs["set_storage"]}
        held, before, after = {}, False, False
        for seq, storage_id, value in g.storage_writes:
            if not value:
                continue
            forms = encode_candidates(value)
            hit = _match_encoding(forms, [payload])
            if hit is None:
                continue
            if seq < resp.attrs["seq"]:
                before = True
                continue
            after = True
            held.setdefault(value, set()).add(storage_id)
            if len(value) < KGRAM:
                cases.add("value shorter than KGRAM")
            if hit[0] in HEX_ENCODINGS and forms[hit[0]] not in payload:
                cases.add("upper-case hex in a payload")
            if storage_id in headers:
                cases.add("header entry and script write on one pair")
        if before and after:
            cases.add("writes before and after the response")
        if any(len(nodes) > 1 for nodes in held.values()):
            cases.add("one value in two storage nodes")
    return cases


@pytest.mark.parametrize("case", [
    "value shorter than KGRAM", "upper-case hex in a payload",
    "writes before and after the response",
    "header entry and script write on one pair",
    "one value in two storage nodes"])
def test_flow_strategy_reaches(case):
    find(_flow_traces(), lambda t: case in _flow_cases(t),
         settings=settings(max_examples=2000, deadline=None, database=None,
                           phases=[Phase.generate]))


@st.composite
def _graphs(draw):
    """Nodes, some of them decorations, and edges with multi-edges,
    self-loops and several components."""
    n = draw(st.integers(1, 16))
    kinds = draw(st.lists(st.sampled_from([DECORATION, "script", "html"]),
                          min_size=n, max_size=n))
    nodes = [Node(f"n{i}", kind) for i, kind in enumerate(kinds)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=2 * n))
    edges = [Edge(f"n{a}", f"n{b}", "interaction", "creates")
             for a, b in pairs]
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges \
        else []
    order = draw(st.permutations([nd.id for nd in nodes]))
    return nodes, edges, order


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_view_metrics_equal_reference_bfs(graph):
    nodes, edges, order = graph
    vm, ref = ViewMetrics(nodes, edges), ReferenceViewMetrics(nodes, edges)
    for node_id in order + ["absent"]:
        assert vm.rows([node_id]) == [tuple(ref.metrics(node_id).values())]


@settings(max_examples=300, deadline=None)
@given(_graphs(), st.data())
def test_view_metrics_rows_equal_reference_bfs(graph, data):
    """Rows for ids in any order, with repeats and absent ids, asked for in
    two calls, each of which searches only the ids it is given."""
    nodes, edges, order = graph
    ids = data.draw(st.lists(st.sampled_from(order + ["absent"]),
                             max_size=24))
    cut = data.draw(st.integers(0, len(ids)))
    vm, ref = ViewMetrics(nodes, edges), ReferenceViewMetrics(nodes, edges)
    want = [tuple(ref.metrics(node_id).values()) for node_id in ids]
    assert vm.rows(ids[:cut]) + vm.rows(ids[cut:]) == want


def test_view_metrics_equal_reference_bfs_across_blocks():
    """More decorations than one BFS block holds, in a sparse random graph
    of several components."""
    rng = random.Random(5)
    n = 3 * _BFS_BLOCK + 90
    nodes = [Node(f"n{i}", DECORATION if i % 4 else "script")
             for i in range(n)]
    edges = [Edge(f"n{rng.randrange(n)}", f"n{rng.randrange(n)}",
                  "interaction", "splits") for _ in range(n)]
    vm, ref = ViewMetrics(nodes, edges), ReferenceViewMetrics(nodes, edges)
    assert sum(nd.kind == DECORATION for nd in nodes) > 2 * _BFS_BLOCK
    ids = [node.id for node in reversed(nodes)]
    assert vm.rows(ids) == [tuple(ref.metrics(i).values()) for i in ids]


def test_view_metrics_memoize_the_closeness_sum_before_dividing():
    """d1 and d2 share the level vector (2,) in two components of 3 nodes;
    d3's (2, 1) starts with it in a component of 4, and d4's (1, 1, 1)
    sits in another component of 4. The memo holds each vector's sum of
    1/d, and each node divides it by its own component's n - 1. Equal
    vectors always sit in components of equal size, since n - 1 is the
    vector's sum, so the memo's content is checked directly."""
    pairs = [("d1", "a1"), ("d1", "a2"), ("d2", "b1"), ("d2", "b2"),
             ("d3", "c1"), ("d3", "c2"), ("c1", "c3"),
             ("d4", "e1"), ("e1", "e2"), ("e2", "e3")]
    names = sorted({n for pair in pairs for n in pair})
    nodes = [Node(n, DECORATION if n[0] == "d" else "script") for n in names]
    edges = [Edge(a, b, "interaction", "creates") for a, b in pairs]
    vm, ref = ViewMetrics(nodes, edges), ReferenceViewMetrics(nodes, edges)
    rows = dict(zip(names, vm.rows(names)))
    for name in names:
        assert rows[name] == tuple(ref.metrics(name).values())
    closeness = {d: rows[d][7] for d in ("d1", "d2", "d3", "d4")}
    assert closeness == {"d1": 1.0, "d2": 1.0, "d3": 2.5 / 3,
                         "d4": (1 + 1 / 2 + 1 / 3) / 3}
    assert vm._closeness[(2,)] == 2.0
    assert vm._closeness[(2, 1)] == 2.5
    assert vm._closeness[(1, 1, 1)] == 1 + 1 / 2 + 1 / 3


_STORED = ["abcdefgh1234", "zyxw9876vuts", "k7"]
_SCRIPT_URLS = ["https://cdn.example/lib.js", "https://ads.example/pixel.js",
                "https://fp.example/canvas.js", ""]


@st.composite
def _page(draw):
    """A page whose requests come from scripts, eval'd scripts, elements
    that scripts, elements or themselves created, and the document; whose
    requests may be sent twice and whose redirects form chains and cycles;
    and whose URLs carry stored values in every section, or no decoration at
    all."""
    site = draw(st.sampled_from(["a.example", "b.example"]))
    tb = TraceBuilder(site=site)
    actors, requests = ["document"], []
    values = st.sampled_from(_STORED) | st.text("abc019", max_size=9)
    for i in range(draw(st.integers(1, 24))):
        actor = draw(st.sampled_from(actors))
        step = draw(st.sampled_from(
            ["script", "eval", "element", "set", "get", "request",
             "element_request", "response", "redirect"]))
        if step in ("script", "eval"):
            tb.add("script_load" if step == "script" else "eval_script",
                   actor=actor, script_id=f"s{i}",
                   url=draw(st.sampled_from(_SCRIPT_URLS)),
                   length=draw(st.integers(0, 500)))
            actors.append(f"s{i}")
        elif step == "element":
            element = draw(st.sampled_from([f"e{i}"] + actors[1:]))
            tb.add("element_create", actor=actor, element_id=element,
                   tag="img")
            actors.append(element)
        elif step in ("set", "get"):
            getattr(tb, step)(actor, draw(st.sampled_from(
                ["cookie", "localStorage"])), draw(st.sampled_from(
                    ["_uid", "sid", "pref"])), draw(values))
        elif step == "response" and requests:
            set_storage = draw(st.lists(st.fixed_dictionaries({
                "store": st.just("cookie"),
                "key": st.sampled_from(["_uid", "sid"]),
                "value": values}), max_size=1))
            tb.response(draw(st.sampled_from(requests)),
                        payload_text=draw(values),
                        set_storage=set_storage)
        elif step in ("request", "element_request", "redirect"):
            host = draw(st.sampled_from(
                ["t.example", "x.trk.example", "cdn.example"]))
            dirs = draw(st.lists(values.filter(bool), max_size=2))
            url = f"https://{host}/" + "".join(d + "/" for d in dirs) + "r"
            query = draw(st.lists(st.tuples(st.sampled_from(
                ["uid", "sid", "q"]), values), max_size=3))
            if query:
                url += "?" + "&".join(f"{k}={v}" for k, v in query)
            if draw(st.booleans()):
                url += "#" + draw(st.sampled_from(["sid=", ""])) + draw(values)
            # a known request id as often as not: requests sent twice, and
            # redirect chains and cycles
            target = draw(st.sampled_from([f"r{i}"] + requests))
            if step != "redirect":
                tb.add(step, actor=actor, request_id=target, url=url)
            elif requests:
                tb.add("redirect", from_request_id=draw(
                    st.sampled_from(requests)), request_id=target,
                    to_url=url)
            else:
                continue
            requests.append(target)
    return tb.build()


@settings(max_examples=200, deadline=None)
@given(_page(), st.sampled_from([0, 8]))
def test_features_equal_reference_per_decoration(t, min_len):
    g = build_full_graph(t, min_len=min_len)
    rows = features_for_graph(g)
    # the reference's dicts are in FEATURE_NAMES order
    assert rows == [(node_id, tuple(fv.values()))
                    for node_id, fv in reference_features_for_graph(g)]
    # a numpy scalar equals its float but prints differently in the matrix
    assert all(type(v) is float for _, fv in rows for v in fv)


@settings(max_examples=100, deadline=None)
@given(_page())
def test_decoration_ancestry_is_its_request_and_the_request_ancestry(t):
    """The request block rests on this: a decoration's only ancestry edge is
    the splits edge from its request."""
    g = build_full_graph(t, min_len=0)
    ref = ReferenceGraphIndex(g)
    index = _GraphIndex(g)
    for dec in g.decoration_nodes():
        request = dec.attrs["request"]
        assert (ref.ancestors(dec.id, ref.ancestry_rev)
                == {request} | ref.ancestors(request, ref.ancestry_rev)
                == {request} | _ancestors(request, index.ancestry_parents))
        want = reference_extract_features(g, dec.id, ref)
        assert (dict(zip(REQUEST_LEVEL_FEATURES, _request_block(index, request)))
                == {name: want[name] for name in REQUEST_LEVEL_FEATURES})


def _cases(t):
    """Which of the cases the page strategy must reach ``t`` holds."""
    g = build_full_graph(t, min_len=0)
    index = _GraphIndex(g)
    cases = {e.kind for e in g.edges} & {EXFILTRATION, INFILTRATION}
    for req in g.request_nodes():
        parent = index.parent_script(req.id)
        initiator = index.into["initiates"].get(req.id, [""])[-1]
        if req.id in _ancestors(req.id, index.ancestry_parents):
            cases.add("redirect cycle")
        if req.id not in index.out["splits"]:
            cases.add("request without decorations")
        if parent is not None and g.nodes[parent].attrs["is_eval"]:
            cases.add("eval parent")
        if parent is not None and initiator.startswith("html:"):
            cases.add("element-created initiator")
    return cases


@pytest.mark.parametrize("case", [
    EXFILTRATION, INFILTRATION, "redirect cycle",
    "request without decorations", "eval parent", "element-created initiator"])
def test_page_strategy_reaches(case):
    find(_page(), lambda t: case in _cases(t),
         settings=settings(max_examples=2000, deadline=None, database=None,
                           phases=[Phase.generate]))


_RULES = labels.parse_request_rules(["||trk.example^", "pixel"])
_PURPOSES = labels.parse_cookie_purpose_db(
    ["*,_uid,advertising", "a.example,sid,analytics", "*,sid,functional"])
_CURATED = labels.parse_curated_list(
    ["t.example|uid", "*.trk.example|uid", "*.example|q", "*|fragment",
     "cdn.example|path|0"])


@settings(max_examples=100, deadline=None)
@given(st.lists(_page(), min_size=2, max_size=3), st.booleans())
def test_labels_equal_reference_per_decoration(pages, with_sources):
    graphs = [build_full_graph(t, min_len=0) for t in pages]
    sources = (_RULES, _PURPOSES, _CURATED) if with_sources else ()
    got_conflicts, want_conflicts = [], []
    got = labels.label_decorations(graphs, *sources, conflicts=got_conflicts)
    want = reference_label_decorations(graphs, *sources,
                                       conflicts=want_conflicts)
    assert got == want
    assert got_conflicts == want_conflicts


# -- request-rule index -------------------------------------------------------

_REQUEST_LABELS = ["trk", "xtrk", "a", "example", ""]


@st.composite
def _request_hosts(draw):
    """A host of one to three labels; ``xtrk`` next to ``trk`` makes near
    misses at a label boundary, and an empty label makes ``a..b``."""
    return ".".join(draw(st.lists(st.sampled_from(_REQUEST_LABELS),
                                  min_size=1, max_size=3)))


@st.composite
def _request_urls(draw):
    """A URL on a generated host, or one with no host to parse."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["notaurl", "https:///pixel", ""]))
    path = draw(st.sampled_from(["", "x", "pixel/a.gif", "trk.example"]))
    return f"https://{draw(_request_hosts())}/{path}"


_request_rule_lists = st.lists(
    st.builds(labels.RequestRule,
              st.sampled_from(["pixel", "trk.", "/x", "a."]))
    | _request_hosts().filter(bool).map(
        lambda host: labels.RequestRule(f"||{host}^", host)),
    max_size=5)


@settings(max_examples=600, deadline=None)
@given(_request_urls(), _request_rule_lists)
def test_request_filter_equals_reference_scan(url, rules):
    try:
        fqdn = decompose(url).fqdn
    except InputError:
        fqdn = ""
    assert (labels.RequestRuleIndex(rules).matches(url, fqdn)
            == (reference_match_request_filter(url, rules) == labels.ATS))


def _request_filter_cases(url, rules):
    try:
        fqdn = decompose(url).fqdn
    except InputError:
        fqdn = ""
    cases = {"empty fqdn"} if not fqdn else set()
    if fqdn.count(".") >= 2:
        cases.add("multi-label host")
    for rule in rules:
        anchor = rule.host_anchor
        if anchor is None:
            if rule.pattern in url:
                cases.add("substring hit")
        elif fqdn == anchor:
            cases.add("the anchor host itself")
        elif fqdn.endswith("." + anchor):
            cases.add("subdomain hit")
        elif fqdn.endswith(anchor):
            cases.add("near miss at a label boundary")
    return cases


@pytest.mark.parametrize("case", [
    "empty fqdn", "multi-label host", "substring hit",
    "the anchor host itself", "subdomain hit",
    "near miss at a label boundary"])
def test_request_filter_strategy_reaches(case):
    find(st.tuples(_request_urls(), _request_rule_lists),
         lambda args: case in _request_filter_cases(*args),
         settings=settings(max_examples=5000, deadline=None, database=None,
                           phases=[Phase.generate]))


@st.composite
def _column(draw, n):
    """One feature column: constant, a few integers with many ties, signed
    zeros, two adjacent floats, or spread floats."""
    kind = draw(st.sampled_from(["constant", "integer", "zeros", "adjacent",
                                 "float"]))
    if kind == "constant":
        return [draw(st.integers(-2, 2))] * n
    if kind == "integer":
        return draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if kind == "zeros":
        # -0.0 == 0.0, so the two share a run of equal values
        return draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=n,
                             max_size=n))
    if kind == "adjacent":
        low = draw(st.floats(-1e6, 1e6))
        pair = [low, float(np.nextafter(low, np.inf))]
        return draw(st.lists(st.sampled_from(pair), min_size=n, max_size=n))
    return draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))


@st.composite
def _forests(draw):
    """A labeled matrix and a forest config over the options that shape a
    tree."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    X = np.array([draw(_column(n)) for _ in range(d)], dtype=np.float64).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    cfg = forest.ForestConfig(
        tree_count=draw(st.integers(1, 4)),
        max_depth=draw(st.none() | st.integers(0, 4)),
        min_split_size=draw(st.integers(0, 6)),
        features_per_split=draw(st.sampled_from(["sqrt", "all"])
                                | st.integers(1, d + 1)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 16)))
    return X, y, cfg


@settings(max_examples=300, deadline=None)
@given(_forests())
def test_forest_equals_reference_recursive_trees(case):
    X, y, cfg = case
    model = forest.train(X, y, cfg, [f"f{i}" for i in range(X.shape[1])])
    trees = [nested(tree) for tree in model.trees]
    expected = reference_trees(X, y, cfg)
    assert trees == expected
    # dict == holds for -0.0 == 0.0; the bytes of model.json would differ
    assert (json.dumps(trees, sort_keys=True)
            == json.dumps(expected, sort_keys=True))
    rows = _rows_around(X)
    assert (forest.predict_scores(model, rows)
            == reference_predict_scores(trees, rows)).all()


def _rows_around(X):
    """The training rows, and rows between and beyond them."""
    return np.vstack([X, (X + X[::-1]) / 2, X * 2 + 1])


@settings(max_examples=200, deadline=None)
@given(_forests())
def test_explanations_equal_reference_dict_walk(case):
    X, y, cfg = case
    model = forest.train(X, y, cfg, [f"f{i}" for i in range(X.shape[1])])
    ref_model = dataclasses.replace(
        model, trees=[nested(tree) for tree in model.trees])
    rows = _rows_around(X)
    for x in rows:
        prior, contrib, score = forest.decompose_prediction(model, x)
        ref_prior, ref_contrib, ref_score = reference_decompose_prediction(
            ref_model, x)
        assert prior == ref_prior and score == ref_score
        assert contrib.dtype == ref_contrib.dtype
        assert (contrib == ref_contrib).all()
    with mock.patch.object(
            forest, "decompose_prediction",
            lambda _model, x: reference_decompose_prediction(ref_model, x)):
        expected = forest.feature_importance(model, rows)
    assert forest.feature_importance(model, rows) == expected


def test_hundred_tree_scores_equal_reference():
    # over 100 trees np.mean sums a list pairwise, not left to right
    rng = np.random.default_rng(4)
    # repeated rows with both labels leave mixed leaves
    X = rng.integers(0, 3, size=(200, 6)).astype(np.float64)
    y = (X[:, 0] + rng.normal(size=200) > 1).astype(np.int64)
    cfg = forest.ForestConfig(tree_count=100, seed=7)
    model = forest.train(X, y, cfg, [f"f{i}" for i in range(6)])
    trees = [nested(tree) for tree in model.trees]
    assert trees == reference_trees(X, y, cfg)
    scores = forest.predict_scores(model, X)
    assert (scores == reference_predict_scores(trees, X)).all()
    # and here a sum from left to right would differ from it
    per_tree = [reference_predict_scores([tree], X) for tree in trees]
    assert (sum(per_tree) / 100 != scores).any()


# -- decorations decoded from their wire records -------------------------------

# pieces of keys and values: plain, percent-escaped (delimiters too),
# malformed escapes, and delimiters a rule key may hold
_ESCAPED = st.lists(st.sampled_from(
    ["a", "Z", "0", "é", "|", "=", "%20", "%41", "%3D", "%26", "%7C",
     "%e4%b8%ad", "%", "%zz"]), max_size=4).map("".join)


@st.composite
def _escaped_urls(draw):
    """A URL whose directory levels, query tokens and fragment are drawn
    from escaped pieces: tokens with and without ``=``, a ``?`` with no
    tokens, and a fragment that is absent, bare, pairs or singular."""
    dirs = draw(st.lists(_ESCAPED, max_size=3))
    url = "https://h.example/" + "".join(d + "/" for d in dirs) + "r"
    token = st.one_of(_ESCAPED, st.tuples(_ESCAPED, _ESCAPED).map("=".join))
    if draw(st.booleans()):
        url += "?" + "&".join(draw(st.lists(token, max_size=4)))
    fragment = draw(st.one_of(
        st.none(), st.sampled_from(["", "a=1&b", "frag", "u%69d=1&x="]),
        st.lists(token, min_size=1, max_size=3).map("&".join)))
    return url if fragment is None else url + "#" + fragment


@settings(max_examples=500, deadline=None)
@given(_escaped_urls())
def test_decorations_equal_reference_decoding(url):
    d = decompose(url)
    want = reference_decorations(url)
    named = name_decorations(d, "s.example")
    assert [(dec.kind, dec.id.key, dec.value) for dec, _ in named] == want
    assert [raw for _, raw in named] == raw_decorations(d)
    assert [(raw.kind, raw.decoded_key, raw.decoded_value)
            for raw in raw_decorations(d)] == want
    # positions count from 0 within each kind
    seen = {}
    for dec, _ in named:
        assert dec.position == seen.get(dec.kind, 0)
        seen[dec.kind] = dec.position + 1
        assert dec.id == ("s.example", "h.example", dec.id.key)


# -- sanitizer rule index -----------------------------------------------------

_LABELS = ["a", "b", "trk", "*"]
_SITES = ["s.example", "t.example"]
_KEYS = ["uid", "a", "path|0", "path|1", "path|3", "path|x", "path|01",
         "fragment"]


@st.composite
def _hosts(draw):
    """A host of one to three labels, maybe with a trailing dot; a label
    ``*`` makes hosts that read as patterns."""
    host = ".".join(draw(st.lists(st.sampled_from(_LABELS), min_size=1,
                                  max_size=3)))
    return host + "." if draw(st.booleans()) else host


@st.composite
def _rule_lists(draw):
    """Rules over few keys, hosts and scopes, so duplicates are common; the
    fqdn patterns are exact hosts, ``*.suffix``, ``*`` and ``*.``."""
    fqdns = st.one_of(_hosts(), _hosts().map("*.".__add__),
                      st.sampled_from(["*", "*."]))
    rules = st.builds(FilterRule, st.sampled_from(["*"] + _SITES), fqdns,
                      st.sampled_from(_KEYS))
    return draw(st.lists(rules, max_size=8))


@st.composite
def _sanitize_urls(draw):
    """A URL with up to three directory levels, query tokens, some of them
    bare or with an escaped key, and a singular, keyed or no fragment."""
    dirs = draw(st.lists(st.sampled_from(["d", "ab%20c", ""]), max_size=3))
    url = f"https://{draw(_hosts())}/" + "".join(d + "/" for d in dirs) + "r"
    tokens = draw(st.lists(st.sampled_from(
        ["uid=1234", "u%69d=xy", "uid", "a=", "a=5", "path|x=77",
         "path%7C1=8", "b=9"]), max_size=4))
    if tokens or draw(st.booleans()):
        url += "?" + "&".join(tokens)
    fragment = draw(st.sampled_from([None, "", "frag", "a=1&uid=22",
                                     "fragment=3"]))
    return url if fragment is None else url + "#" + fragment


@settings(max_examples=600, deadline=None)
@given(_sanitize_urls(), st.sampled_from(_SITES), _rule_lists(),
       st.sampled_from(["replace", "strip"]), st.integers(0, 3),
       st.booleans())
def test_sanitize_equals_reference_scan(url, site, rules, mode, seed,
                                        indexed):
    want_audit, got_audit = [], []
    want = reference_sanitize(url, site, rules, mode, seed, want_audit)
    passed = RuleIndex(rules) if indexed else rules
    assert sanitize(url, site, passed, mode, seed, got_audit) == want
    assert got_audit == want_audit


def _sanitize_cases(url, site, rules):
    d = decompose(url)
    keys = {key for _, key, _ in reference_decorations(url)}
    cases = set()
    for rule in rules:
        if rule.key not in keys or rule.scope not in ("*", site):
            continue
        if rule.fqdn == d.fqdn:
            cases.add("exact host hit")
        elif rule.fqdn == "*":
            cases.add("any host hit")
        elif rule.fqdn == "*." and d.fqdn.endswith("."):
            cases.add("'*.' hit on a trailing dot")
        elif rule.fqdn == "*." + d.fqdn:
            cases.add("'*.suffix' hit on the suffix itself")
        elif rule.fqdn.startswith("*.") and d.fqdn.endswith(rule.fqdn[1:]):
            cases.add("'*.suffix' hit on a subdomain")
    if len(set(rules)) < len(rules):
        cases.add("duplicate rules")
    if any(r.scope == site and r.key in keys for r in rules):
        cases.add("site-scoped hit")
    audit = []
    reference_sanitize(url, site, rules, audit=audit)
    if audit:
        cases.add("path rule past the depth")
    if len(audit) > len(set(audit)):
        cases.add("duplicate audit entries")
    return cases


@pytest.mark.parametrize("case", [
    "exact host hit", "any host hit", "'*.' hit on a trailing dot",
    "'*.suffix' hit on the suffix itself", "'*.suffix' hit on a subdomain",
    "duplicate rules", "site-scoped hit", "path rule past the depth",
    "duplicate audit entries"])
def test_sanitize_strategy_reaches(case):
    find(st.tuples(_sanitize_urls(), st.sampled_from(_SITES), _rule_lists()),
         lambda args: case in _sanitize_cases(*args),
         settings=settings(max_examples=5000, deadline=None, database=None,
                           phases=[Phase.generate]))
