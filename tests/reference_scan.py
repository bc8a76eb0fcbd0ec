"""Test-only references: the quadratic exfiltration and infiltration scans,
the per-node BFS structural metrics, the per-decoration feature extraction,
the per-decoration labeling with its scan of every request rule, the
recursive tree grower with its per-feature float split search, row-by-row
scoring and the explanation that adds into a numpy array, the
sanitizer's scan of every rule for every decoration, and the decoding of a
URL's components into decorations that
``graph.detect_exfiltration``, ``graph.detect_infiltration``,
``features.ViewMetrics``, ``features.features_for_graph``,
``labels.label_decorations`` with its ``RequestRuleIndex``, the array-backed
and rank-coded ``forest``, ``urls.RuleIndex`` and ``urls``' per-record
decoding replaced. The replacements must give equal edges, evidence,
floats, labels, trees, scores, explanations, URLs, audits and decorations,
so these keep the replaced arithmetic and order."""

import math
import random
from collections import deque
from dataclasses import replace
from urllib.parse import unquote

import numpy as np

from linkscrub.errors import InputError
from linkscrub.features import (AD_KEYWORDS, FEATURE_NAMES, FP_KEYWORDS,
                                shannon_entropy)
from linkscrub.forest import ForestConfig
from linkscrub.graph import (DECORATION, ENCODINGS, EXFILTRATION,
                             HEX_ENCODINGS, HTML, INFILTRATION, INTERACTION,
                             NETWORK, SCRIPT, STORAGE, _request_node_id,
                             _storage_node_id, encode_candidates)
from linkscrub.labels import (ATS, ATS_PURPOSES, NON_ATS, UNKNOWN,
                              LabeledDecoration, cookie_purpose)
from linkscrub.urls import (FRAGMENT_KIND, PATH_KIND, QUERY_KIND,
                            _encode_token, decompose, fqdn_pattern_matches,
                            name_decorations, random_token, with_decorations)


def _match_encoding(candidates, haystacks):
    by_encoding = dict(candidates)
    for encoding in ENCODINGS:
        needle = by_encoding[encoding]
        for hay in haystacks:
            if encoding in HEX_ENCODINGS:
                pos = hay.lower().find(needle)
            else:
                pos = hay.find(needle)
            if pos != -1:
                return encoding, (pos, pos + len(needle))
    return None


def _match_containment(candidates, fragments):
    by_encoding = dict(candidates)
    for encoding in ENCODINGS:
        form = by_encoding[encoding]
        lowered = form.lower() if encoding in HEX_ENCODINGS else form
        for frag in fragments:
            if not frag:
                continue
            needle = frag.lower() if encoding in HEX_ENCODINGS else frag
            pos = lowered.find(needle)
            if pos != -1:
                return encoding, (pos, pos + len(needle))
    return None


def _storage_values_before(node, seq):
    values = []
    for attr in ("writes", "reads"):
        for ev_seq, value in node.attrs.get(attr, []):
            if ev_seq < seq and value:
                values.append(value)
    return sorted(set(values))


def reference_detect_exfiltration(g, min_len):
    """Every request x storage value x decoration pair, tested in turn."""
    storage_nodes = g.nodes_of_kind(STORAGE)
    children_by_request = {}
    for dec in g.decoration_nodes():
        children_by_request.setdefault(dec.attrs["request"], []).append(dec)
    for req in g.request_nodes():
        seq = req.attrs.get("seq", 0)
        children = children_by_request.get(req.id, [])
        if not children:
            continue
        for snode in storage_nodes:
            for value in _storage_values_before(snode, seq):
                if len(value) < min_len:
                    continue
                candidates = encode_candidates(value)
                for dec in children:
                    haystacks = [dec.attrs["value"]]
                    if dec.attrs.get("raw_value") != dec.attrs["value"]:
                        haystacks.append(dec.attrs["raw_value"])
                    hit = _match_encoding(candidates, haystacks)
                    if hit is None and len(dec.attrs["value"]) >= min_len:
                        hit = _match_containment(candidates, haystacks)
                    if hit is not None:
                        g.add_edge(snode.id, dec.id, EXFILTRATION,
                                   evidence=hit)
    seen = set()
    deduped = []
    for e in g.edges:
        if e.kind == EXFILTRATION:
            pair = (e.src, e.dst)
            if pair in seen:
                continue
            seen.add(pair)
        deduped.append(e)
    g.edges = deduped
    return g


def reference_detect_infiltration(g):
    """Every response payload tested against every later script write."""
    responses = [n for n in g.nodes_of_kind(NETWORK)
                 if n.attrs.get("direction") == "response"]
    added = set()

    def add(resp_id, storage_id, evidence):
        if (resp_id, storage_id) in added:
            return
        added.add((resp_id, storage_id))
        g.add_edge(resp_id, storage_id, INFILTRATION, evidence=evidence)

    for resp in responses:
        for entry in resp.attrs.get("set_storage", []):
            add(resp.id, _storage_node_id(entry["store"], entry["key"]),
                ("header", None))
        payload = resp.attrs.get("payload", "")
        if not payload:
            continue
        resp_seq = resp.attrs.get("seq", 0)
        for seq, storage_id, value in g.storage_writes:
            if seq <= resp_seq or not value:
                continue
            hit = _match_encoding(encode_candidates(value), [payload])
            if hit is not None:
                add(resp.id, storage_id, hit)

    infiltrating = {}
    for resp_id, _storage in added:
        infiltrating[resp_id] = infiltrating.get(resp_id, 0) + 1
    for resp in responses:
        count = infiltrating.get(resp.id, 0)
        if count:
            req_id = _request_node_id(resp.attrs["request_id"])
            if req_id in g.nodes:
                g.nodes[req_id].attrs["infiltrations"] = \
                    g.nodes[req_id].attrs.get("infiltrations", 0) + count
    return g


class ReferenceViewMetrics:
    """One Python BFS per node asked for."""

    def __init__(self, nodes, edges):
        self.node_ids = {n.id for n in nodes}
        self.edges = list(edges)
        self.adj = {nid: set() for nid in self.node_ids}
        self.multi_degree = {nid: 0 for nid in self.node_ids}
        self.in_degree = {nid: 0 for nid in self.node_ids}
        self.out_degree = {nid: 0 for nid in self.node_ids}
        for e in self.edges:
            self.adj[e.src].add(e.dst)
            self.adj[e.dst].add(e.src)
            self.out_degree[e.src] += 1
            self.in_degree[e.dst] += 1
            self.multi_degree[e.src] += 1
            self.multi_degree[e.dst] += 1

    def distances(self, node_id):
        dist = {node_id: 0}
        queue = deque([node_id])
        while queue:
            cur = queue.popleft()
            for nxt in self.adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        return dist

    def metrics(self, node_id, prefix=""):
        names = ("node_count", "edge_count", "nodes_per_edge", "in_degree",
                 "out_degree", "degree", "avg_degree_connectivity",
                 "closeness_centrality", "eccentricity")
        if node_id not in self.node_ids:
            return {prefix + name: 0.0 for name in names}
        dist = self.distances(node_id)
        comp = frozenset(dist)
        n_nodes = len(comp)
        n_edges = sum(1 for e in self.edges if e.src in comp)
        if n_nodes > 1:
            closeness = sum(1.0 / d for d in dist.values() if d > 0)
            closeness /= (n_nodes - 1)
            eccentricity = float(max(dist.values()))
        else:
            closeness = 0.0
            eccentricity = 0.0
        neighbors = self.adj[node_id]
        if neighbors:
            adc = sum(self.multi_degree[v] for v in neighbors) / len(neighbors)
        else:
            adc = 0.0
        values = (float(n_nodes), float(n_edges),
                  n_nodes / n_edges if n_edges else 0.0,
                  float(self.in_degree[node_id]),
                  float(self.out_degree[node_id]),
                  float(self.multi_degree[node_id]), adc, closeness,
                  eccentricity)
        return {prefix + name: v for name, v in zip(names, values)}


_ANCESTRY_SUBKINDS = frozenset({"splits", "initiates", "creates", "redirects"})


class ReferenceGraphIndex:
    """One hand-built dict per relation."""

    def __init__(self, g):
        self.g = g
        self.interaction = ReferenceViewMetrics(g.nodes.values(), g.edges)
        flow_nodes, flow_edges = g.flow_view()
        self.flow = ReferenceViewMetrics(flow_nodes, flow_edges)
        self.ancestry_rev = {}
        self.initiates_out = {}
        self.initiates_in = {}
        self.responds_out = {}
        self.redirect_out = {}
        self.redirect_in = {}
        self.creates_in = {}
        self.storage_by_script = {}
        self.scripts_by_storage = {}
        self.setters_by_storage = {}
        self.exfil_in = {}
        self.exfil_out_count = {}
        self.access_counts = {}
        self.children_by_request = {}
        for e in g.edges:
            if e.kind == INTERACTION and e.sub in _ANCESTRY_SUBKINDS:
                self.ancestry_rev.setdefault(e.dst, []).append(e.src)
            if e.kind == INTERACTION:
                if e.sub == "initiates":
                    self.initiates_out.setdefault(e.src, []).append(e.dst)
                    self.initiates_in[e.dst] = e.src
                elif e.sub == "responds":
                    self.responds_out.setdefault(e.src, []).append(e.dst)
                elif e.sub == "redirects":
                    self.redirect_out.setdefault(e.src, []).append(e.dst)
                    self.redirect_in.setdefault(e.dst, []).append(e.src)
                elif e.sub == "creates":
                    self.creates_in.setdefault(e.dst, []).append(e.src)
                elif e.sub in ("set", "get"):
                    self.storage_by_script.setdefault(e.src, set()).add(e.dst)
                    self.scripts_by_storage.setdefault(e.dst, set()).add(e.src)
                    if e.sub == "set":
                        self.setters_by_storage.setdefault(
                            e.dst, set()).add(e.src)
                    store = g.nodes[e.dst].attrs.get("store")
                    key = (e.src, store, e.sub)
                    self.access_counts[key] = \
                        self.access_counts.get(key, 0) + 1
            elif e.kind == EXFILTRATION:
                self.exfil_in.setdefault(e.dst, []).append(e)
                self.exfil_out_count[e.src] = \
                    self.exfil_out_count.get(e.src, 0) + 1
        for dec in g.decoration_nodes():
            self.children_by_request.setdefault(
                dec.attrs["request"], []).append(dec)
        self.flow_view_rev = {}
        for e in flow_edges:
            self.flow_view_rev.setdefault(e.dst, []).append(e.src)

    def ancestors(self, node_id, rev):
        seen = set()
        stack = list(rev.get(node_id, []))
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(rev.get(cur, []))
        return seen

    def parent_script(self, request_id):
        initiator = self.initiates_in.get(request_id)
        seen = set()
        while initiator is not None and initiator not in seen:
            seen.add(initiator)
            node = self.g.nodes[initiator]
            if node.kind == SCRIPT:
                return initiator
            if node.kind == HTML:
                creators = self.creates_in.get(initiator, [])
                initiator = creators[0] if creators else None
                continue
            return None
        return None

    def redirect_chain_depth(self, request_id):
        depth = 0
        cur = request_id
        seen = set()
        while cur in self.redirect_in and cur not in seen:
            seen.add(cur)
            depth += 1
            cur = self.redirect_in[cur][0]
        cur = request_id
        seen = set()
        while cur in self.redirect_out and cur not in seen:
            seen.add(cur)
            depth += 1
            cur = self.redirect_out[cur][0]
        return depth


def reference_extract_features(g, node_id, index):
    """Every feature worked out again for each decoration."""
    node = g.nodes[node_id]
    assert node.kind == DECORATION
    fv = {}
    fv.update(index.interaction.metrics(node_id))

    request_id = node.attrs["request"]
    ancestors = index.ancestors(node_id, index.ancestry_rev)
    ancestor_scripts = [a for a in ancestors if g.nodes[a].kind == SCRIPT]
    script_urls = " ".join(
        str(g.nodes[a].attrs.get("url", "")).lower() for a in ancestor_scripts)
    fv["ancestor_count"] = float(len(ancestors))
    fv["ancestor_ad_keyword"] = float(
        any(k in script_urls for k in AD_KEYWORDS))
    fv["ancestor_fp_keyword"] = float(
        any(k in script_urls for k in FP_KEYWORDS))
    fv["ancestor_script_length"] = float(max(
        (g.nodes[a].attrs.get("length", 0) for a in ancestor_scripts),
        default=0))
    fv["descendant_of_script"] = float(bool(ancestor_scripts))
    parent = index.parent_script(request_id)
    fv["parent_is_eval"] = float(
        parent is not None and g.nodes[parent].attrs.get("is_eval", False))
    fv["script_predecessor_count"] = float(len(ancestor_scripts))

    kind = node.attrs["kind"]
    position = node.attrs["position"]
    siblings = index.children_by_request.get(request_id, [])
    n_path = sum(1 for s in siblings if s.attrs["kind"] == "path")
    n_query = sum(1 for s in siblings if s.attrs["kind"] == "query")
    if kind == "path":
        depth = position
    elif kind == "query":
        depth = n_path + position
    else:
        depth = n_path + n_query + position
    fv["max_decoration_depth"] = float(depth)

    fv["shannon_entropy"] = shannon_entropy(node.attrs["value"])
    fv["url_section"] = {"path": 0.0, "query": 1.0, "fragment": 2.0}[kind]

    def storage_access_counts(script_id, store, sub):
        if script_id is None:
            return 0
        return index.access_counts.get((script_id, store, sub), 0)

    fv["parent_ls_sets"] = float(
        storage_access_counts(parent, "localStorage", "set"))
    fv["parent_ls_gets"] = float(
        storage_access_counts(parent, "localStorage", "get"))
    fv["parent_cookie_sets"] = float(
        storage_access_counts(parent, "cookie", "set"))
    fv["parent_cookie_gets"] = float(
        storage_access_counts(parent, "cookie", "get"))

    parent_requests = index.initiates_out.get(parent, []) if parent else []
    fv["parent_requests_sent"] = float(len(parent_requests))
    fv["parent_requests_received"] = float(sum(
        len(index.responds_out.get(r, [])) for r in parent_requests))
    fv["parent_redirects_sent"] = float(sum(
        len(index.redirect_out.get(r, [])) for r in parent_requests))
    fv["parent_redirects_received"] = float(sum(
        len(index.redirect_in.get(r, [])) for r in parent_requests))
    fv["parent_redirect_depth"] = float(
        index.redirect_chain_depth(request_id))

    shared = 0
    if parent is not None:
        own_storage = index.storage_by_script.get(parent, set())
        other_scripts = set()
        for snode in own_storage:
            other_scripts |= index.scripts_by_storage.get(snode, set())
        other_scripts.discard(parent)
        for script in other_scripts:
            shared += len(index.initiates_out.get(script, []))
    fv["shared_storage_access"] = float(shared)

    exfil_edges = index.exfil_in.get(node_id, [])
    fv["cookie_exfiltration_count"] = float(sum(
        1 for e in exfil_edges
        if g.nodes[e.src].attrs.get("store") == "cookie"))

    req_node = g.nodes[request_id]
    fv["parent_infiltrations"] = float(req_node.attrs.get("infiltrations", 0))

    setter_exfils = 0
    setter_redirects = 0
    setters = set()
    for e in exfil_edges:
        setters |= index.setters_by_storage.get(e.src, set())
    set_storage = set()
    for script in setters:
        for snode in index.storage_by_script.get(script, set()):
            if script in index.setters_by_storage.get(snode, set()):
                set_storage.add(snode)
    for snode in set_storage:
        setter_exfils += index.exfil_out_count.get(snode, 0)
    for script in setters:
        for r in index.initiates_out.get(script, []):
            setter_redirects += len(index.redirect_out.get(r, []))
            setter_redirects += len(index.redirect_in.get(r, []))
    fv["cookie_setter_exfiltrations"] = float(setter_exfils)
    fv["cookie_setter_redirects"] = float(setter_redirects)

    fv.update(index.flow.metrics(node_id, prefix="flow_"))
    fv["indirect_ancestor_count"] = float(
        len(index.ancestors(node_id, index.flow_view_rev)))

    ordered = {name: fv[name] for name in FEATURE_NAMES}
    for name, value in ordered.items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite feature {name}={value}")
    return ordered


def reference_features_for_graph(g):
    index = ReferenceGraphIndex(g)
    return [(dec.id, reference_extract_features(g, dec.id, index))
            for dec in sorted(g.decoration_nodes(), key=lambda n: n.id)]


def reference_match_request_filter(url, rules):
    """A request URL's label from a test of every request rule in turn,
    where ``labels.RequestRuleIndex.matches`` looks the rules up."""
    try:
        fqdn = decompose(url).fqdn
    except InputError:
        fqdn = ""
    for rule in rules:
        if rule.host_anchor is not None:
            if fqdn_pattern_matches("*." + rule.host_anchor, fqdn):
                return ATS
        elif rule.pattern in url:
            return ATS
    return NON_ATS


def reference_label_decorations(graphs, request_rules=(),
                                cookie_purpose_db=(), curated_ats=(),
                                conflicts=None):
    """The request filter and the curated list matched per decoration."""
    request_rules = list(request_rules)
    cookie_purpose_db = list(cookie_purpose_db)
    curated_ats = list(curated_ats)
    provenance = {}
    exfil_sources = {}
    for g in graphs:
        exfil_sources.clear()
        for e in g.edges:
            if e.kind == EXFILTRATION:
                exfil_sources.setdefault(e.dst, []).append(e.src)
        for dec in g.decoration_nodes():
            req = g.nodes[dec.attrs["request"]]
            dec_id = dec.attrs["decoration"].id
            prov = provenance.setdefault(dec_id, set())
            if (request_rules
                    and reference_match_request_filter(
                        req.attrs.get("url", ""), request_rules) == NON_ATS):
                prov.add("request-filter-clean")
            for src in exfil_sources.get(dec.id, ()):
                snode = g.nodes[src]
                if snode.attrs.get("store") != "cookie":
                    continue
                purpose = cookie_purpose(
                    cookie_purpose_db, g.site, snode.attrs.get("key", ""))
                if purpose in ATS_PURPOSES:
                    prov.add("cookie-purpose")
            for entry in curated_ats:
                if (entry.key == dec_id.key
                        and fqdn_pattern_matches(entry.fqdn, dec_id.fqdn)):
                    prov.add("curated")
    out = []
    for dec_id in sorted(provenance, key=lambda d: (d.site, d.fqdn, d.key)):
        prov = provenance[dec_id]
        ats = prov & {"cookie-purpose", "curated"}
        non_ats = "request-filter-clean" in prov
        if ats:
            label = ATS
            if non_ats and conflicts is not None:
                conflicts.append(
                    f"{dec_id}: ATS ({', '.join(sorted(ats))}) overrides "
                    "clean-request NonATS")
        elif non_ats:
            label = NON_ATS
        else:
            label = UNKNOWN
        out.append(LabeledDecoration(dec_id, label, tuple(sorted(prov))))
    return out


def _reference_best_split(X, y, idx, feats):
    n = len(idx)
    best = (np.inf, -1, 0.0)
    ysub = y[idx]
    for f in feats:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = ysub[order]
        splittable = xs[:-1] < xs[1:]
        if not splittable.any():
            continue
        pos = np.cumsum(ys)
        total_pos = pos[-1]
        left_n = np.arange(1, n, dtype=np.float64)
        left_pos = pos[:-1].astype(np.float64)
        right_n = n - left_n
        right_pos = total_pos - left_pos
        p_l = left_pos / left_n
        p_r = right_pos / right_n
        gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
        score = (left_n * gini_l + right_n * gini_r) / n
        score[~splittable] = np.inf
        j = int(np.argmin(score))
        if score[j] < best[0]:
            t = float((xs[j] + xs[j + 1]) / 2.0)
            if not xs[j] <= t < xs[j + 1]:
                t = float(xs[j])
            best = (float(score[j]), int(f), t)
    return best


def _reference_grow_tree(X, y, idx, rng, cfg, k, depth=0):
    counts = [int(np.sum(y[idx] == 0)), int(np.sum(y[idx] == 1))]
    node = {"counts": counts}
    if (len(idx) < cfg.min_split_size
            or counts[0] == 0 or counts[1] == 0
            or (cfg.max_depth is not None and depth >= cfg.max_depth)):
        return node
    feats = rng.choice(X.shape[1], size=k, replace=False)
    score, f, t = _reference_best_split(X, y, idx, feats)
    if not np.isfinite(score):
        return node
    go_left = X[idx, f] <= t
    node["f"] = f
    node["t"] = t
    node["left"] = _reference_grow_tree(X, y, idx[go_left], rng, cfg, k,
                                        depth + 1)
    node["right"] = _reference_grow_tree(X, y, idx[~go_left], rng, cfg, k,
                                         depth + 1)
    return node


def reference_trees(X, y, cfg: ForestConfig) -> list:
    """The trees ``forest.train`` grows, one recursive call per node."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    k = cfg.resolve_features_per_split(X.shape[1])
    trees = []
    n = X.shape[0]
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.tree_count):
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        trees.append(_reference_grow_tree(X, y, idx, rng, cfg, k))
    return trees


def nested(tree):
    """A flat pre-order ``forest.Tree`` as the nested dicts the references
    walk: a leaf is ``{"counts"}``, a split also has ``f``, ``t``, ``left``
    and ``right``."""
    def node(i):
        out = {"counts": tree.counts[i]}
        if tree.feature[i] >= 0:
            out.update(f=tree.feature[i], t=tree.threshold[i],
                       left=node(i + 1), right=node(tree.right[i]))
        return out
    return node(0)


def _reference_leaf_p1(node, x):
    while "f" in node:
        node = node["left"] if x[node["f"]] <= node["t"] else node["right"]
    c0, c1 = node["counts"]
    return c1 / (c0 + c1)


def reference_predict_scores(trees, X):
    """Each row walked down each tree, the leaf values averaged by
    ``np.mean`` over a list."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        out[i] = float(np.mean([_reference_leaf_p1(t, X[i]) for t in trees]))
    return out


def _reference_node_p1(node):
    c0, c1 = node["counts"]
    return c1 / (c0 + c1)


def reference_decompose_prediction(forest, x):
    """Path-contribution decomposition of one prediction.

    Returns (prior, contributions, score) where ``prior`` is the mean
    root-leaf-proportion across trees, ``contributions`` is a per-feature
    array, and prior + contributions.sum() equals the score exactly up to
    float summation order.
    """
    x = np.asarray(x, dtype=np.float64)
    d = len(forest.feature_names)
    contrib = np.zeros(d)
    prior = 0.0
    score = 0.0
    n_trees = len(forest.trees)
    for tree in forest.trees:
        node = tree
        p = _reference_node_p1(node)
        prior += p
        while "f" in node:
            child = node["left"] if x[node["f"]] <= node["t"] else node["right"]
            p_child = _reference_node_p1(child)
            contrib[node["f"]] += (p_child - p) / n_trees
            p = p_child
            node = child
        score += p
    return prior / n_trees, contrib, score / n_trees


def _rule_matches(rule, site, fqdn, key):
    if rule.scope not in ("*", site):
        return False
    if not fqdn_pattern_matches(rule.fqdn, fqdn):
        return False
    return rule.key == key


def reference_sanitize(url, site, rules, mode="replace", seed=0, audit=None):
    """``urls.sanitize`` testing every rule against every decoration. A
    ``path|`` key whose level is not written as decorations are named, in
    ASCII digits without a leading zero, names no level, so the audit skips
    it."""
    d = decompose(url)
    rules = list(rules)
    rng = random.Random(seed)

    if audit is not None:
        depth = len(d.raw_dir_segments)
        for rule in rules:
            if (rule.key.startswith("path|")
                    and rule.scope in ("*", site)
                    and fqdn_pattern_matches(rule.fqdn, d.fqdn)):
                level = rule.key.split("|", 1)[1]
                if (level.isascii() and level.isdigit()
                        and str(int(level)) == level and int(level) >= depth):
                    audit.append(
                        f"inapplicable rule {rule.key} (URL depth {depth}): {url}")

    out = []
    for dec, raw in name_decorations(d, site):
        if not any(_rule_matches(r, site, d.fqdn, dec.id.key) for r in rules):
            out.append(raw)
        elif mode == "replace" or dec.kind == PATH_KIND:
            token = _encode_token(random_token(rng, len(dec.value)))
            out.append(replace(raw, value=token,
                               bare=raw.bare and dec.kind != QUERY_KIND))
    return with_decorations(d, out)


def _decode(text):
    return unquote(text, errors="replace")


def _split_query_token(token):
    if "=" in token:
        k, v = token.split("=", 1)
        return _decode(k), _decode(v)
    return _decode(token), ""


def reference_decorations(url):
    """``(kind, key, value)`` of each decoration of ``url`` in URL order,
    decoded once from the whole components: a directory level is decoded
    as a segment, a query token splits at its first ``=`` (a token without
    one is a key with an empty value), and a fragment is pairs when every
    ``&`` token holds ``=``, else one singular value named ``fragment``."""
    d = decompose(url)
    out = [(PATH_KIND, f"path|{i}", _decode(seg))
           for i, seg in enumerate(d.raw_dir_segments)]
    out += [(QUERY_KIND, *_split_query_token(t)) for t in d.raw_query_tokens]
    fragment = d.raw_fragment
    if fragment is not None:
        tokens = fragment.split("&")
        if all("=" in t for t in tokens):
            out += [(FRAGMENT_KIND, *_split_query_token(t)) for t in tokens]
        else:
            out.append((FRAGMENT_KIND, "fragment", _decode(fragment)))
    return out
