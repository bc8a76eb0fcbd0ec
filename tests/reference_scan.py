"""Test-only references: the quadratic exfiltration scan and the per-node
BFS structural metrics that ``graph.detect_exfiltration`` and
``features.ViewMetrics`` replaced. The replacements must give equal edges,
evidence and floats, so these keep the replaced arithmetic and order."""

from collections import deque

from linkscrub.graph import (ENCODINGS, EXFILTRATION, HEX_ENCODINGS, STORAGE,
                             encode_candidates)


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
