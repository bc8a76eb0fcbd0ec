"""Per-decoration feature vectors: structural metrics over the interaction
view, content features, and flow features including a second copy of the
structural metrics over the shared-information (flow) view.

The feature name list is fixed and versioned; the matrix file writer embeds
the version in every feature column header.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, deque
from itertools import chain, repeat
from typing import IO, Iterable, Optional

import numpy as np

from .errors import InputError
from .graph import (DECORATION, EXFILTRATION, HTML, INTERACTION, SCRIPT,
                    PageGraph)

FEATURE_VERSION = "1"

AD_KEYWORDS = ("ad", "ads", "advert", "track", "pixel", "banner", "sync")
FP_KEYWORDS = ("fingerprint", "canvas", "webgl", "audiocontext", "font")

FEATURE_NAMES = (
    # structure (interaction view)
    "node_count",
    "edge_count",
    "nodes_per_edge",
    "in_degree",
    "out_degree",
    "degree",
    "avg_degree_connectivity",
    "closeness_centrality",
    "eccentricity",
    "ancestor_count",
    "ancestor_ad_keyword",
    "ancestor_fp_keyword",
    "ancestor_script_length",
    "descendant_of_script",
    "parent_is_eval",
    "script_predecessor_count",
    "max_decoration_depth",
    # content
    "shannon_entropy",
    "url_section",
    # flow
    "parent_ls_sets",
    "parent_ls_gets",
    "parent_cookie_sets",
    "parent_cookie_gets",
    "parent_requests_sent",
    "parent_requests_received",
    "parent_redirects_sent",
    "parent_redirects_received",
    "parent_redirect_depth",
    "shared_storage_access",
    "cookie_exfiltration_count",
    "parent_infiltrations",
    "cookie_setter_exfiltrations",
    "cookie_setter_redirects",
    # flow-view structure
    "flow_node_count",
    "flow_edge_count",
    "flow_nodes_per_edge",
    "flow_in_degree",
    "flow_out_degree",
    "flow_degree",
    "flow_avg_degree_connectivity",
    "flow_closeness_centrality",
    "flow_eccentricity",
    "indirect_ancestor_count",
)

# features whose value is shared by every decoration of the same request;
# the evade-combine study restricts classification to this subset
REQUEST_LEVEL_FEATURES = (
    "ancestor_count",
    "ancestor_ad_keyword",
    "ancestor_fp_keyword",
    "ancestor_script_length",
    "descendant_of_script",
    "parent_is_eval",
    "script_predecessor_count",
    "parent_ls_sets",
    "parent_ls_gets",
    "parent_cookie_sets",
    "parent_cookie_gets",
    "parent_requests_sent",
    "parent_requests_received",
    "parent_redirects_sent",
    "parent_redirects_received",
    "parent_redirect_depth",
    "shared_storage_access",
    "parent_infiltrations",
)


def shannon_entropy(s: str) -> float:
    """Character-level Shannon entropy in bits per character; 0 for ''."""
    if not s:
        return 0.0
    counts = Counter(s)
    n = len(s)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


# sources per batch of the multi-source BFS, a multiple of 64; bounds its
# buffers to nodes x block bits whatever the number of decorations
_BFS_BLOCK = 256


def _level_counts(indptr: np.ndarray, indices: np.ndarray,
                  sources: list[int]) -> list[list[int]]:
    """For each source, how many nodes lie at distance 1, 2, ... up to its
    eccentricity, in the undirected graph with CSR adjacency (indptr,
    indices).

    Level-synchronous BFS from a block of sources at once: bit j of a node's
    row says whether source j has reached it, and one level ORs the rows of
    each node's neighbours. Bitwise operations on the uint64 view act on
    the packed bytes alike, whatever the byte order.
    """
    n = len(indptr) - 1
    linked = np.flatnonzero(np.diff(indptr))
    starts = indptr[linked]
    out = []
    for lo in range(0, len(sources), _BFS_BLOCK):
        block = sources[lo:lo + _BFS_BLOCK]
        width = -(-len(block) // 64) * 64
        start = np.zeros((n, width), dtype=bool)
        start[block, np.arange(len(block))] = True
        seen = np.packbits(start, axis=1, bitorder="little").view(np.uint64)
        frontier = seen
        levels = []
        while True:
            reached = np.zeros_like(seen)
            reached[linked] = np.bitwise_or.reduceat(
                frontier[indices], starts, axis=0)
            reached &= ~seen
            if not reached.any():
                break
            levels.append(np.unpackbits(
                reached.view(np.uint8), axis=1,
                bitorder="little").sum(axis=0)[:len(block)])
            seen = seen | reached
            frontier = reached
        per_source = np.array(levels, dtype=np.int64).reshape(
            len(levels), len(block)).T.tolist()
        # a source's levels are non-empty up to its eccentricity, then empty
        out.extend(c[:len(c) - c.count(0)] for c in per_source)
    return out


class ViewMetrics:
    """Structural metrics over one view (node list + edge list) of a graph.

    Multi-edges count toward degrees and edge counts; shortest paths use the
    simple undirected projection. Components are discovered lazily.

    Closeness and eccentricity need, per node, how many nodes lie at each
    distance. The first ``metrics`` call gets them for every decoration of
    the view from one multi-source BFS (``_level_counts``) over CSR
    adjacency: O(eccentricity x (edges + nodes) x decorations / block)
    vectorised steps, instead of one Python BFS per decoration. Any other
    node gets a BFS of its own when asked. Closeness adds 1/d once per node
    at distance d, in ascending d: the terms, and their order, of a sum over
    a per-node BFS, so Python's ``sum`` gives the same float.
    """

    def __init__(self, nodes, edges):
        nodes = list(nodes)
        self.node_ids = {n.id for n in nodes}
        self.edges = list(edges)
        self.adj: dict[str, set] = {nid: set() for nid in self.node_ids}
        self.multi_degree: dict[str, int] = {nid: 0 for nid in self.node_ids}
        self.in_degree: dict[str, int] = {nid: 0 for nid in self.node_ids}
        self.out_degree: dict[str, int] = {nid: 0 for nid in self.node_ids}
        for e in self.edges:
            self.adj[e.src].add(e.dst)
            self.adj[e.dst].add(e.src)
            self.out_degree[e.src] += 1
            self.in_degree[e.dst] += 1
            self.multi_degree[e.src] += 1
            self.multi_degree[e.dst] += 1
        self._component_of: dict[str, frozenset] = {}
        self._component_edges: dict[frozenset, int] = {}
        self._decorations = [n.id for n in nodes if n.kind == DECORATION]
        self._levels: dict[str, list[int]] = {}

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.node_ids

    def component(self, node_id: str) -> frozenset:
        cached = self._component_of.get(node_id)
        if cached is not None:
            return cached
        seen = {node_id}
        queue = deque([node_id])
        while queue:
            cur = queue.popleft()
            for nxt in self.adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        comp = frozenset(seen)
        for nid in comp:
            self._component_of[nid] = comp
        return comp

    def component_edge_count(self, comp: frozenset) -> int:
        cached = self._component_edges.get(comp)
        if cached is None:
            cached = sum(1 for e in self.edges if e.src in comp)
            self._component_edges[comp] = cached
        return cached

    def level_counts(self, node_id: str) -> list[int]:
        """How many nodes lie at distance 1, 2, ... from ``node_id``."""
        if node_id not in self._levels:
            sources = [node_id]
            if not self._levels:
                sources += [d for d in self._decorations if d != node_id]
            order = list(self.adj)
            position = {nid: i for i, nid in enumerate(order)}
            indptr = np.zeros(len(order) + 1, dtype=np.intp)
            np.cumsum([len(self.adj[nid]) for nid in order], out=indptr[1:])
            indices = np.fromiter(
                (position[m] for nid in order for m in self.adj[nid]),
                dtype=np.intp, count=int(indptr[-1]))
            self._levels.update(zip(sources, _level_counts(
                indptr, indices, [position[s] for s in sources])))
        return self._levels[node_id]

    def metrics(self, node_id: str, prefix: str = "") -> dict[str, float]:
        if node_id not in self.node_ids:
            return {
                prefix + "node_count": 0.0,
                prefix + "edge_count": 0.0,
                prefix + "nodes_per_edge": 0.0,
                prefix + "in_degree": 0.0,
                prefix + "out_degree": 0.0,
                prefix + "degree": 0.0,
                prefix + "avg_degree_connectivity": 0.0,
                prefix + "closeness_centrality": 0.0,
                prefix + "eccentricity": 0.0,
            }
        comp = self.component(node_id)
        n_nodes = len(comp)
        n_edges = self.component_edge_count(comp)
        levels = self.level_counts(node_id)
        if n_nodes > 1:
            closeness = sum(chain.from_iterable(
                repeat(1.0 / d, count) for d, count in enumerate(levels, 1)))
            closeness /= (n_nodes - 1)
            eccentricity = float(len(levels))
        else:
            closeness = 0.0
            eccentricity = 0.0
        neighbors = self.adj[node_id]
        if neighbors:
            adc = sum(self.multi_degree[v] for v in neighbors) / len(neighbors)
        else:
            adc = 0.0
        return {
            prefix + "node_count": float(n_nodes),
            prefix + "edge_count": float(n_edges),
            prefix + "nodes_per_edge": n_nodes / n_edges if n_edges else 0.0,
            prefix + "in_degree": float(self.in_degree[node_id]),
            prefix + "out_degree": float(self.out_degree[node_id]),
            prefix + "degree": float(self.multi_degree[node_id]),
            prefix + "avg_degree_connectivity": adc,
            prefix + "closeness_centrality": closeness,
            prefix + "eccentricity": eccentricity,
        }


_ANCESTRY_SUBKINDS = frozenset({"splits", "initiates", "creates", "redirects"})


class _GraphIndex:
    """Shared lookups used when extracting features for many decorations."""

    def __init__(self, g: PageGraph):
        self.g = g
        self.interaction = ViewMetrics(g.nodes.values(), g.edges)
        flow_nodes, flow_edges = g.flow_view()
        self.flow = ViewMetrics(flow_nodes, flow_edges)
        self.ancestry_rev: dict[str, list[str]] = {}
        self.flow_rev: dict[str, list[str]] = {}
        self.initiates_out: dict[str, list[str]] = {}
        self.initiates_in: dict[str, str] = {}
        self.responds_out: dict[str, list[str]] = {}
        self.redirect_out: dict[str, list[str]] = {}
        self.redirect_in: dict[str, list[str]] = {}
        self.creates_in: dict[str, list[str]] = {}
        self.storage_by_script: dict[str, set] = {}
        self.scripts_by_storage: dict[str, set] = {}
        self.setters_by_storage: dict[str, set] = {}
        self.exfil_in: dict[str, list] = {}
        self.exfil_out_count: dict[str, int] = {}
        self.access_counts: dict[tuple, int] = {}
        self.children_by_request: dict[str, list] = {}
        for e in g.edges:
            if e.kind == INTERACTION and e.sub in _ANCESTRY_SUBKINDS:
                self.ancestry_rev.setdefault(e.dst, []).append(e.src)
            if e.kind != INTERACTION:
                self.flow_rev.setdefault(e.dst, []).append(e.src)
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
                        self.setters_by_storage.setdefault(e.dst, set()).add(e.src)
                    store = g.nodes[e.dst].attrs.get("store")
                    key = (e.src, store, e.sub)
                    self.access_counts[key] = self.access_counts.get(key, 0) + 1
            elif e.kind == EXFILTRATION:
                self.exfil_in.setdefault(e.dst, []).append(e)
                self.exfil_out_count[e.src] = self.exfil_out_count.get(e.src, 0) + 1
        for dec in g.decoration_nodes():
            self.children_by_request.setdefault(
                dec.attrs["request"], []).append(dec)
        # flow-view reverse adjacency includes the view's interaction edges
        self.flow_view_rev: dict[str, list[str]] = {}
        for e in flow_edges:
            self.flow_view_rev.setdefault(e.dst, []).append(e.src)

    def ancestors(self, node_id: str, rev: dict) -> set:
        seen: set = set()
        stack = list(rev.get(node_id, []))
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(rev.get(cur, []))
        return seen

    def parent_script(self, request_id: str) -> Optional[str]:
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

    def redirect_chain_depth(self, request_id: str) -> int:
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


def extract_features(g: PageGraph, node_id: str,
                     index: Optional[_GraphIndex] = None,
                     ad_keywords=AD_KEYWORDS,
                     fp_keywords=FP_KEYWORDS) -> dict[str, float]:
    """Full feature vector for one decoration node. Raises KeyError if the
    node is absent and ValueError if it is not a decoration node."""
    node = g.nodes[node_id]
    if node.kind != DECORATION:
        raise ValueError(f"{node_id} is not a decoration node")
    if index is None:
        index = _GraphIndex(g)

    fv: dict[str, float] = {}
    fv.update(index.interaction.metrics(node_id))

    request_id = node.attrs["request"]
    ancestors = index.ancestors(node_id, index.ancestry_rev)
    ancestor_scripts = [a for a in ancestors if g.nodes[a].kind == SCRIPT]
    script_urls = " ".join(
        str(g.nodes[a].attrs.get("url", "")).lower() for a in ancestor_scripts)
    fv["ancestor_count"] = float(len(ancestors))
    fv["ancestor_ad_keyword"] = float(
        any(k in script_urls for k in ad_keywords))
    fv["ancestor_fp_keyword"] = float(
        any(k in script_urls for k in fp_keywords))
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

    # flow features relative to the parent script and request
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
    setters: set = set()
    for e in exfil_edges:
        setters |= index.setters_by_storage.get(e.src, set())
    set_storage: set = set()
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


def features_for_graph(g: PageGraph) -> list[tuple[str, dict[str, float]]]:
    """(node_id, feature vector) for every decoration node, in node-id order."""
    index = _GraphIndex(g)
    out = []
    for dec in sorted(g.decoration_nodes(), key=lambda n: n.id):
        out.append((dec.id, extract_features(g, dec.id, index=index)))
    return out


def vector_to_array(fv: dict[str, float]) -> np.ndarray:
    return np.array([fv[name] for name in FEATURE_NAMES], dtype=np.float64)


# -- feature matrix file ------------------------------------------------------

_META_COLUMNS = ("trace_id", "node_id", "site", "fqdn", "key", "kind")


def _versioned(name: str) -> str:
    return f"fv{FEATURE_VERSION}:{name}"


def write_feature_matrix(rows: Iterable[dict], fh: IO[str]) -> None:
    """Rows carry the meta columns plus a ``features`` dict."""
    writer = csv.writer(fh)
    writer.writerow(list(_META_COLUMNS) + [_versioned(n) for n in FEATURE_NAMES])
    for row in rows:
        writer.writerow(
            [row[c] for c in _META_COLUMNS]
            + [repr(row["features"][n]) for n in FEATURE_NAMES])


def read_feature_matrix(fh: IO[str]):
    """Returns (meta_rows, X) and validates the feature-name version."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        expected = list(_META_COLUMNS) + [_versioned(n)
                                          for n in FEATURE_NAMES]
        if header != expected:
            raise InputError(
                "line 1: feature matrix header does not match feature "
                f"version {FEATURE_VERSION}")
        meta = []
        data = []
        for row in reader:
            if len(row) != len(expected):
                raise InputError(f"line {reader.line_num}: expected "
                                 f"{len(expected)} fields, got {len(row)}")
            try:
                data.append([float(v) for v in row[len(_META_COLUMNS):]])
            except ValueError as exc:
                raise InputError(f"line {reader.line_num}: {exc}") from exc
            meta.append(dict(zip(_META_COLUMNS, row[:len(_META_COLUMNS)])))
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from exc
    X = np.array(data, dtype=np.float64) if data else \
        np.empty((0, len(FEATURE_NAMES)))
    return meta, X
