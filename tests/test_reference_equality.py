"""The indexed exfiltration search and the batched BFS metrics give exactly
what the full scan and the per-node BFS in ``reference_scan`` give: the
same edges in the same order with the same evidence, and equal floats."""

import copy
import random
from urllib.parse import quote

from hypothesis import given, settings, strategies as st

from linkscrub.features import _BFS_BLOCK, ViewMetrics
from linkscrub.graph import (DECORATION, ENCODINGS, EXFILTRATION, Edge, Node,
                             attach_decoration_nodes, build_graph,
                             detect_exfiltration, encode_candidates)

from conftest import TraceBuilder
from reference_scan import ReferenceViewMetrics, reference_detect_exfiltration

# 'İ'.lower() is two characters long, so a lowered haystack holding it is
# longer than the haystack and its match spans shift
_ALPHABET = "abcXYZ0189-_.İé"
_values = st.text(alphabet=_ALPHABET, min_size=1, max_size=14)


@st.composite
def _piece(draw, stored):
    """A decoration value: an encoded form of a stored value, whole, cut to a
    chunk or wrapped, maybe uppercased, or unrelated text."""
    value = draw(st.sampled_from(stored))
    form = dict(encode_candidates(value))[draw(st.sampled_from(ENCODINGS))]
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
    forms = dict(encode_candidates(value))
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
        assert vm.metrics(node_id, "flow_") == ref.metrics(node_id, "flow_")


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
    for node in reversed(nodes):
        assert vm.metrics(node.id) == ref.metrics(node.id)
