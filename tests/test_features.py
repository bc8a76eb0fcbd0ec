import math
import random
from unittest import mock

import pytest

from linkscrub.features import (FEATURE_NAMES, REQUEST_LEVEL_FEATURES,
                                ViewMetrics, features_for_graph,
                                shannon_entropy)
from linkscrub.graph import DECORATION, Edge, Node, build_full_graph

from conftest import TraceBuilder, named


def vectors_by_id(g):
    return {node_id: named(fv) for node_id, fv in features_for_graph(g)}


@pytest.mark.parametrize("value,expected", [
    ("", 0.0),
    ("aaaa", 0.0),
    ("abab", 1.0),
    ("DEF123", math.log2(6)),
    ("aabb", 1.0),
    ("abcd", 2.0),
])
def test_shannon_entropy_closed_forms(value, expected):
    assert shannon_entropy(value) == pytest.approx(expected, abs=1e-9)


def hand_graph():
    """Ten-node graph: document, script, storage, request, response, and the
    five decorations of the worked example URL; one exfiltration edge."""
    t = (TraceBuilder(site="site.example")
         .script("s1", url="https://cdn.site.example/app.js", length=100)
         .set("s1", "cookie", "uid", "DEF123")
         .request("s1", "r1",
                  "https://a.site.example/YYY/ZZZ/pixel.jpg"
                  "?ISBN=ABC&UID=DEF123#xyz")
         .response("r1")
         .build())
    return build_full_graph(t, min_len=0)


def test_hand_graph_shape():
    g = hand_graph()
    assert len(g.nodes) == 10
    assert len(g.edges) == 10  # creates, set, initiates, responds, 5x splits, exfil


def test_hand_graph_uid_feature_vector():
    g = hand_graph()
    fv = dict(features_for_graph(g))["decoration:r1:query:1"]
    assert len(fv) == len(FEATURE_NAMES)
    fv = named(fv)
    expected = {
        "node_count": 10.0,
        "edge_count": 10.0,
        "nodes_per_edge": 1.0,
        "in_degree": 2.0,
        "out_degree": 0.0,
        "degree": 2.0,
        # neighbors: request (degree 7), storage (degree 2)
        "avg_degree_connectivity": 4.5,
        # distances: 1,1,2,2,2,2,2,2,3 -> (2 + 6/2 + 1/3) / 9
        "closeness_centrality": 16.0 / 27.0,
        "eccentricity": 3.0,
        "ancestor_count": 3.0,  # request, script, document
        "ancestor_ad_keyword": 0.0,
        "ancestor_fp_keyword": 0.0,
        "ancestor_script_length": 100.0,
        "descendant_of_script": 1.0,
        "parent_is_eval": 0.0,
        "script_predecessor_count": 1.0,
        "max_decoration_depth": 3.0,  # 2 path levels + query position 1
        "shannon_entropy": math.log2(6),
        "url_section": 1.0,
        "parent_ls_sets": 0.0,
        "parent_ls_gets": 0.0,
        "parent_cookie_sets": 1.0,
        "parent_cookie_gets": 0.0,
        "parent_requests_sent": 1.0,
        "parent_requests_received": 1.0,
        "parent_redirects_sent": 0.0,
        "parent_redirects_received": 0.0,
        "parent_redirect_depth": 0.0,
        "shared_storage_access": 0.0,
        "cookie_exfiltration_count": 1.0,
        "parent_infiltrations": 0.0,
        "cookie_setter_exfiltrations": 1.0,
        "cookie_setter_redirects": 0.0,
        "flow_node_count": 4.0,
        "flow_edge_count": 3.0,
        "flow_nodes_per_edge": 4.0 / 3.0,
        "flow_in_degree": 2.0,
        "flow_out_degree": 0.0,
        "flow_degree": 2.0,
        "flow_avg_degree_connectivity": 1.5,
        "flow_closeness_centrality": 2.5 / 3.0,
        "flow_eccentricity": 2.0,
        "indirect_ancestor_count": 3.0,
    }
    for name in FEATURE_NAMES:
        assert fv[name] == pytest.approx(expected[name], abs=1e-9), name


def test_hand_graph_clean_decoration_has_no_flow_metrics():
    g = hand_graph()
    fv = vectors_by_id(g)["decoration:r1:query:0"]  # ISBN=ABC
    assert fv["cookie_exfiltration_count"] == 0.0
    assert fv["flow_node_count"] == 0.0
    assert fv["shannon_entropy"] == pytest.approx(math.log2(3))
    assert fv["max_decoration_depth"] == 2.0
    assert fv["in_degree"] == 1.0


def test_path_and_fragment_depth_and_section():
    g = hand_graph()
    vectors = vectors_by_id(g)
    path0 = vectors["decoration:r1:path:0"]
    frag = vectors["decoration:r1:fragment:0"]
    assert path0["max_decoration_depth"] == 0.0
    assert path0["url_section"] == 0.0
    assert frag["max_decoration_depth"] == 4.0  # 2 path + 2 query + 0
    assert frag["url_section"] == 2.0


def test_only_depth_feature_depends_on_position():
    """Feature design invariant behind the rename-evasion guarantee: apart
    from the depth feature, vectors ignore where a decoration sits."""
    t1 = (TraceBuilder()
          .request("document", "r1", "https://t.example/?a=vvv&b=www")
          .build())
    t2 = (TraceBuilder()
          .request("document", "r1", "https://t.example/?b=www&a=vvv")
          .build())
    g1, g2 = build_full_graph(t1), build_full_graph(t2)
    fv1 = vectors_by_id(g1)["decoration:r1:query:0"]  # a=vvv
    fv2 = vectors_by_id(g2)["decoration:r1:query:1"]  # moved
    diff = {n for n in FEATURE_NAMES if fv1[n] != fv2[n]}
    assert diff == {"max_decoration_depth"}


def test_ad_and_fp_keyword_features(tb):
    t = (tb.script("s1", url="https://cdn.x.example/fingerprint/ads.js")
         .request("s1", "r1", "https://t.example/?a=1")
         .build())
    g = build_full_graph(t)
    fv = vectors_by_id(g)["decoration:r1:query:0"]
    assert fv["ancestor_ad_keyword"] == 1.0
    assert fv["ancestor_fp_keyword"] == 1.0


def test_eval_parent_flag(tb):
    t = (tb.add("eval_script", actor="document", script_id="e1", length=10)
         .request("e1", "r1", "https://t.example/?a=1")
         .build())
    g = build_full_graph(t)
    fv = vectors_by_id(g)["decoration:r1:query:0"]
    assert fv["parent_is_eval"] == 1.0


def test_redirect_depth_feature(tb):
    t = (tb.request("s1", "r1", "https://a.example/x")
         .add("redirect", from_request_id="r1", request_id="r2",
              to_url="https://b.example/?u=1")
         .add("redirect", from_request_id="r2", request_id="r3",
              to_url="https://c.example/?u=1")
         .build())
    g = build_full_graph(t)
    fv = vectors_by_id(g)["decoration:r3:query:0"]
    assert fv["parent_redirect_depth"] == 2.0


def test_request_level_features_are_request_constant():
    g = hand_graph()
    vectors = list(vectors_by_id(g).values())
    for name in REQUEST_LEVEL_FEATURES:
        assert len({fv[name] for fv in vectors}) == 1, name


def test_feature_order_fixed():
    """Every row is one tuple of Python floats in ``FEATURE_NAMES`` order,
    the order the matrix writer puts them in."""
    rows = features_for_graph(hand_graph())
    assert len(rows) == 5
    for _node_id, fv in rows:
        assert type(fv) is tuple and len(fv) == len(FEATURE_NAMES)
        assert all(type(v) is float for v in fv)
    fv = dict(rows)["decoration:r1:query:1"]
    assert fv[FEATURE_NAMES.index("shannon_entropy")] == pytest.approx(
        math.log2(6))


def test_element_that_creates_itself_ends_the_parent_script_walk(tb):
    t = (tb.add("element_create", actor="img1", element_id="img1")
         .add("element_request", actor="img1", request_id="r1",
              url="https://t.example/p?uid=abcdefgh12345678")
         .build())
    [fv] = vectors_by_id(build_full_graph(t)).values()
    assert fv["descendant_of_script"] == 0.0


# -- structural metrics vs. an independent shortest-path oracle ---------------

def _oracle_metrics(nodes, edges, target):
    ids = [n.id for n in nodes]
    adj = {i: set() for i in ids}
    deg = {i: 0 for i in ids}
    indeg = {i: 0 for i in ids}
    outdeg = {i: 0 for i in ids}
    for e in edges:
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
        deg[e.src] += 1
        deg[e.dst] += 1
        outdeg[e.src] += 1
        indeg[e.dst] += 1
    # Dijkstra-free shortest paths by repeated relaxation
    dist = {target: 0}
    changed = True
    while changed:
        changed = False
        for i in ids:
            if i not in dist:
                continue
            for j in adj[i]:
                if j not in dist or dist[j] > dist[i] + 1:
                    dist[j] = dist[i] + 1
                    changed = True
    comp = set(dist)
    n_edges = sum(1 for e in edges if e.src in comp)
    n = len(comp)
    closeness = (sum(1.0 / d for d in dist.values() if d) / (n - 1)
                 if n > 1 else 0.0)
    return {
        "node_count": float(n),
        "edge_count": float(n_edges),
        "nodes_per_edge": n / n_edges if n_edges else 0.0,
        "in_degree": float(indeg[target]),
        "out_degree": float(outdeg[target]),
        "degree": float(deg[target]),
        "avg_degree_connectivity": (
            sum(deg[v] for v in adj[target]) / len(adj[target])
            if adj[target] else 0.0),
        "closeness_centrality": closeness,
        "eccentricity": float(max(dist.values())) if n > 1 else 0.0,
    }


def test_view_metrics_match_oracle_on_random_graphs():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        nodes = [Node(f"n{i}", "script") for i in range(n)]
        edges = [Edge(f"n{rng.randrange(n)}", f"n{rng.randrange(n)}",
                      "interaction", "creates")
                 for _ in range(rng.randint(0, 2 * n))]
        # drop self loops; the builder never creates them
        edges = [e for e in edges if e.src != e.dst]
        ids = [nd.id for nd in nodes]
        for target, got in zip(ids, ViewMetrics(nodes, edges).rows(ids)):
            want = _oracle_metrics(nodes, edges, target)
            for (key, val), value in zip(want.items(), got):
                assert value == pytest.approx(val, abs=1e-12), \
                    (seed, target, key)


def test_twin_decorations_share_one_bfs_source(tb):
    """a and b hang only off their request, so they are twins; uid also
    hangs off the storage it exfiltrates. A call searches only the classes
    of the nodes it is asked for."""
    t = (tb.script("s1").set("s1", "cookie", "uid", "abcdefgh1234")
         .request("s1", "r1", "https://t.example/?a=1&b=2&uid=abcdefgh1234")
         .build())
    g = build_full_graph(t)
    nodes, edges = list(g.nodes.values()), g.edges
    names = [f"decoration:r1:query:{i}" for i in range(3)]
    vm = ViewMetrics(nodes, edges)
    original, sources = ViewMetrics._level_counts, []

    def spy(self, batch):
        sources.extend(batch)
        return original(self, batch)

    with mock.patch.object(ViewMetrics, "_level_counts", spy):
        first = vm.rows(names[2:])
        assert sources == [list(vm._position).index(names[2])]
        sources.clear()
        rows = vm.rows(names)
    searched = {list(vm._position)[i] for i in sources}
    assert len(sources) == len(searched)
    assert len(searched & set(names[:2])) == 1 and names[2] in searched
    assert rows[0] == rows[1] != rows[2] == first[0]
    for name, row in zip(names, rows):
        want = _oracle_metrics(nodes, edges, name)
        assert row == pytest.approx(tuple(want.values()), abs=1e-12), name


@pytest.mark.parametrize("nodes,node_count", [
    ([], 0.0), ([Node("x", DECORATION)], 1.0)],
    ids=["empty view", "isolated node"])
def test_view_metrics_without_edges(nodes, node_count):
    assert ViewMetrics(nodes, []).rows(["x"]) == [(node_count,) + (0.0,) * 8]
