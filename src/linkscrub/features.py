"""Per-decoration feature vectors: structural metrics over the interaction
view, content features, and flow features including a second copy of the
structural metrics over the shared-information (flow) view.

The 18 ``REQUEST_LEVEL_FEATURES`` (the decoration's ancestry, its request's
parent script and that script's storage and requests, the redirect chain
and the request's infiltrations) depend only on the decoration's request.
They are computed once per request and shared by its decorations; the other
25 (both views' metrics, depth, entropy, URL section, and the exfiltrated
storage and its setters) once per decoration. Each view is held as one
CSR adjacency and its degree arrays, built once from the view's edges; one
batched BFS over that CSR gives every decoration's view metrics.

The feature name list is fixed and versioned; the matrix file writer embeds
the version in every feature column header.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from itertools import chain, repeat
from typing import IO, Callable, Iterable, Optional

import numpy as np

from .errors import InputError
from .graph import DECORATION, HTML, INTERACTION, SCRIPT, PageGraph

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


class ViewMetrics:
    """Structural metrics over one view (node list + edge list) of a graph.

    The view is held once, as arrays built from its edge list: degrees, where
    multi-edges count and a self-loop adds 2, and the CSR adjacency of the
    simple undirected projection, where paths run. The first ``metrics`` call
    runs one BFS from every decoration at once; any other node gets its own.
    A component has 1 + sum(levels) nodes and half its degree sum in edges.
    Closeness adds 1/d per node at distance d, in ascending d, as a per-node
    BFS would, so ``sum`` gives the same float; it is kept per level vector.
    """

    def __init__(self, nodes, edges):
        kinds = {nd.id: nd.kind for nd in nodes}
        pos = self._position = {nid: i for i, nid in enumerate(kinds)}
        n = len(pos)
        src, dst = np.array([(pos[e.src], pos[e.dst]) for e in edges],
                            dtype=np.int64).reshape(-1, 2).T
        degree = self._degree = np.bincount(
            np.concatenate((src, dst)), minlength=n).astype(np.float64)
        # each pair once, sorted, so a node's neighbours are one run; not
        # np.unique, which imports numpy.ma and its 1.5 MB of peak RSS
        pairs = np.sort(np.concatenate((src * n + dst, dst * n + src)))
        rows, self._indices = np.divmod(
            pairs[np.diff(pairs, prepend=-1) != 0], max(n, 1))
        neighbors = np.bincount(rows, minlength=n)
        # the CSR rows with neighbours and their starts, for the BFS's reduceat
        self._linked = np.flatnonzero(neighbors)
        self._starts = np.searchsorted(rows, self._linked)
        # sums below 2**53 are exact in float64, so each mean is int / int
        adc = np.divide(
            np.bincount(rows, weights=degree[self._indices], minlength=n),
            neighbors, out=np.zeros(n), where=neighbors > 0)
        # per node, as Python floats: in-, out- and multi-degree, and the
        # average multi-degree of its neighbours
        self._local = np.column_stack((
            np.bincount(dst, minlength=n), np.bincount(src, minlength=n),
            degree, adc)).tolist()
        # decorations the first search takes in one batch
        self._unsearched = [i for i, kind in enumerate(kinds.values())
                            if kind == DECORATION]
        # per node: (level counts, multi-degree sum of its component)
        self._searched: list = [None] * n
        # level vector -> closeness sum before dividing by n - 1
        self._closeness: dict[tuple, float] = {}

    def _level_counts(self, sources: list[int]) -> list[tuple[list[int], int]]:
        """Each source position's level counts (nodes at distance 1, 2, ...
        up to its eccentricity) and its component's degree sum, by a
        level-synchronous BFS from a block of sources at once: bit j of a
        node's row says whether source j has reached it, and a level ORs its
        neighbours' rows, alike in any byte order. The final ``seen`` bits
        are each source's component, whose degrees a float64 product sums.
        """
        out = []
        for lo in range(0, len(sources), _BFS_BLOCK):
            block = sources[lo:lo + _BFS_BLOCK]
            width = -(-len(block) // 64) * 64
            start = np.zeros((len(self._degree), width), dtype=bool)
            start[block, np.arange(len(block))] = True
            seen = np.packbits(start, 1, bitorder="little").view(np.uint64)
            frontier = seen
            levels = []
            while True:
                reached = np.zeros_like(seen)
                reached[self._linked] = np.bitwise_or.reduceat(
                    frontier[self._indices], self._starts, axis=0)
                reached &= ~seen
                if not reached.any():
                    break
                levels.append(np.unpackbits(
                    reached.view(np.uint8), axis=1,
                    bitorder="little").sum(axis=0)[:len(block)])
                seen = seen | reached
                frontier = reached
            per_source = np.array(levels, dtype=np.int64).reshape(
                -1, len(block)).T.tolist()
            degree_sums = self._degree @ np.unpackbits(
                seen.view(np.uint8), axis=1, bitorder="little")[:, :len(block)]
            # levels are non-empty up to the source's eccentricity, then empty
            out.extend((c[:len(c) - c.count(0)], d) for c, d in zip(
                per_source, degree_sums.astype(np.int64).tolist()))
        return out

    def metrics(self, node_id: str, prefix: str = "") -> dict[str, float]:
        i = self._position.get(node_id)
        if i is None:
            # the nine view metrics lead FEATURE_NAMES, in this order
            return dict.fromkeys([prefix + n for n in FEATURE_NAMES[:9]], 0.0)
        if self._searched[i] is None:
            sources = [i] + [d for d in self._unsearched if d != i]
            self._unsearched = []
            for s, found in zip(sources, self._level_counts(sources)):
                self._searched[s] = found
        levels, degree_sum = self._searched[i]
        n_nodes = 1 + sum(levels)
        n_edges = degree_sum // 2
        closeness = 0.0
        if levels:
            key = tuple(levels)
            closeness = self._closeness.get(key)
            if closeness is None:
                closeness = self._closeness[key] = sum(chain.from_iterable(
                    repeat(1.0 / d, count)
                    for d, count in enumerate(levels, 1)))
            closeness /= (n_nodes - 1)
        in_degree, out_degree, degree, adc = self._local[i]
        return {
            prefix + "node_count": float(n_nodes),
            prefix + "edge_count": float(n_edges),
            prefix + "nodes_per_edge": n_nodes / n_edges if n_edges else 0.0,
            prefix + "in_degree": in_degree,
            prefix + "out_degree": out_degree,
            prefix + "degree": degree,
            prefix + "avg_degree_connectivity": adc,
            prefix + "closeness_centrality": closeness,
            prefix + "eccentricity": float(len(levels)),
        }


_ANCESTRY_LABELS = ("splits", "initiates", "creates", "redirects")
_SECTIONS = ("path", "query", "fragment")


def _ancestors(node_id: str, parents: Callable[[str], Iterable[str]]) -> set:
    """Every node with a path to ``node_id``; ``parents`` lists a node's
    direct predecessors."""
    seen: set = set()
    stack = [node_id]
    while stack:
        for parent in parents(stack.pop()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


class _GraphIndex:
    """Lookups shared by the feature vectors of one graph.

    ``out[label][node]`` lists the far ends of the node's outgoing edges
    with that label, in edge order, and ``into[label][node]`` those of its
    incoming edges. The label is an interaction edge's sub-kind or a flow
    edge's kind. ``requests`` holds each request's block of
    ``REQUEST_LEVEL_FEATURES`` once it has been computed, and ``scripts``
    the part of it that each parent script decides.
    """

    def __init__(self, g: PageGraph):
        self.g = g
        self.interaction = ViewMetrics(g.nodes.values(), g.edges)
        flow_nodes, flow_edges = g.flow_view()
        self.flow = ViewMetrics(flow_nodes, flow_edges)
        self.out: defaultdict[str, dict[str, list[str]]] = defaultdict(dict)
        self.into: defaultdict[str, dict[str, list[str]]] = defaultdict(dict)
        for e in g.edges:
            label = e.sub if e.kind == INTERACTION else e.kind
            self.out[label].setdefault(e.src, []).append(e.dst)
            self.into[label].setdefault(e.dst, []).append(e.src)
        # predecessors in the flow view, which has edges of every label
        self.flow_parents: dict[str, list[str]] = {}
        for e in flow_edges:
            self.flow_parents.setdefault(e.dst, []).append(e.src)
        self.requests: dict[str, dict[str, float]] = {}
        self.scripts: dict[Optional[str], dict[str, float]] = {}

    def ancestry_parents(self, node_id: str) -> list[str]:
        into = self.into
        return [src for label in _ANCESTRY_LABELS
                for src in into[label].get(node_id, ())]

    def parent_script(self, request_id: str) -> Optional[str]:
        """The script behind a request: its initiator, or the script that
        created the element initiating it."""
        initiators = self.into["initiates"].get(request_id)
        initiator = initiators[-1] if initiators else None
        seen = set()
        while initiator is not None and initiator not in seen:
            seen.add(initiator)
            kind = self.g.nodes[initiator].kind
            if kind == SCRIPT:
                return initiator
            if kind != HTML:
                return None
            creators = self.into["creates"].get(initiator)
            initiator = creators[0] if creators else None
        return None

    def redirect_chain_depth(self, request_id: str) -> int:
        depth = 0
        for step in (self.into, self.out):
            cur = request_id
            seen = set()
            while cur in step["redirects"] and cur not in seen:
                seen.add(cur)
                depth += 1
                cur = step["redirects"][cur][0]
        return depth


def _script_block(index: _GraphIndex,
                  parent: Optional[str]) -> dict[str, float]:
    """The request-level features that depend only on the request's parent
    script (``None`` when it has none)."""
    nodes, out, into = index.g.nodes, index.out, index.into

    def accesses(store: str, sub: str) -> float:
        return float(sum(nodes[s].attrs.get("store") == store
                         for s in out[sub].get(parent, ())))

    sent = out["initiates"].get(parent, [])
    storage = {s for sub in ("set", "get") for s in out[sub].get(parent, ())}
    sharers = {script for s in storage for sub in ("set", "get")
               for script in into[sub].get(s, ())}
    sharers.discard(parent)
    return {
        "parent_is_eval": float(
            parent is not None and nodes[parent].attrs.get("is_eval", False)),
        "parent_ls_sets": accesses("localStorage", "set"),
        "parent_ls_gets": accesses("localStorage", "get"),
        "parent_cookie_sets": accesses("cookie", "set"),
        "parent_cookie_gets": accesses("cookie", "get"),
        "parent_requests_sent": float(len(sent)),
        "parent_requests_received": float(sum(
            len(out["responds"].get(r, ())) for r in sent)),
        "parent_redirects_sent": float(sum(
            len(out["redirects"].get(r, ())) for r in sent)),
        "parent_redirects_received": float(sum(
            len(into["redirects"].get(r, ())) for r in sent)),
        "shared_storage_access": float(sum(
            len(out["initiates"].get(script, ())) for script in sharers)),
    }


def _request_block(index: _GraphIndex, request_id: str) -> dict[str, float]:
    """The ``REQUEST_LEVEL_FEATURES`` shared by a request's decorations, in
    that order."""
    nodes = index.g.nodes
    # a decoration's one ancestry edge is the splits edge from its request
    ancestors = {request_id} | _ancestors(request_id, index.ancestry_parents)
    scripts = [nodes[a] for a in ancestors if nodes[a].kind == SCRIPT]
    script_urls = " ".join(
        str(s.attrs.get("url", "")).lower() for s in scripts)
    parent = index.parent_script(request_id)
    script_block = index.scripts.get(parent)
    if script_block is None:
        script_block = index.scripts[parent] = _script_block(index, parent)
    block = {
        "ancestor_count": float(len(ancestors)),
        "ancestor_ad_keyword": float(
            any(k in script_urls for k in AD_KEYWORDS)),
        "ancestor_fp_keyword": float(
            any(k in script_urls for k in FP_KEYWORDS)),
        "ancestor_script_length": float(max(
            (s.attrs.get("length", 0) for s in scripts), default=0)),
        "descendant_of_script": float(bool(scripts)),
        "script_predecessor_count": float(len(scripts)),
        "parent_redirect_depth": float(index.redirect_chain_depth(request_id)),
        "parent_infiltrations": float(
            nodes[request_id].attrs.get("infiltrations", 0)),
        **script_block,
    }
    return {name: block[name] for name in REQUEST_LEVEL_FEATURES}


def extract_features(g: PageGraph, node_id: str,
                     index: Optional[_GraphIndex] = None) -> dict[str, float]:
    """Full feature vector for one decoration node. Raises KeyError if the
    node is absent and ValueError if it is not a decoration node."""
    node = g.nodes[node_id]
    if node.kind != DECORATION:
        raise ValueError(f"{node_id} is not a decoration node")
    if index is None:
        index = _GraphIndex(g)
    nodes, out, into = g.nodes, index.out, index.into

    fv = index.interaction.metrics(node_id)
    request_id = node.attrs["request"]
    block = index.requests.get(request_id)
    if block is None:
        block = index.requests[request_id] = _request_block(index, request_id)
    fv.update(block)

    # depth counts the decorations of earlier URL sections before this one
    section = _SECTIONS.index(node.attrs["kind"])
    fv["max_decoration_depth"] = float(node.attrs["position"] + sum(
        _SECTIONS.index(nodes[d].attrs["kind"]) < section
        for d in out["splits"].get(request_id, ())))
    fv["shannon_entropy"] = shannon_entropy(node.attrs["value"])
    fv["url_section"] = float(section)

    # flow features of the storage this decoration exfiltrates and of the
    # scripts that set it
    exfiltrated = into["exfiltration"].get(node_id, [])
    fv["cookie_exfiltration_count"] = float(sum(
        nodes[s].attrs.get("store") == "cookie" for s in exfiltrated))
    setters = {script for s in exfiltrated
               for script in into["set"].get(s, ())}
    set_storage = {s for script in setters for s in out["set"].get(script, ())}
    fv["cookie_setter_exfiltrations"] = float(sum(
        len(out["exfiltration"].get(s, ())) for s in set_storage))
    fv["cookie_setter_redirects"] = float(sum(
        len(out["redirects"].get(r, ())) + len(into["redirects"].get(r, ()))
        for script in setters for r in out["initiates"].get(script, ())))

    fv.update(index.flow.metrics(node_id, prefix="flow_"))
    flow_parents = index.flow_parents
    fv["indirect_ancestor_count"] = float(len(_ancestors(
        node_id, lambda n: flow_parents.get(n, ()))))

    ordered = {name: fv[name] for name in FEATURE_NAMES}
    if not all(map(math.isfinite, ordered.values())):
        name, value = next((n, v) for n, v in ordered.items()
                           if not math.isfinite(v))
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
