"""Per-decoration feature vectors: structural metrics over the interaction
view, content features, and flow features including a second copy of the
structural metrics over the shared-information (flow) view.

A graph's vectors come from one pass over its decorations
(``features_for_graph``). Each view is one CSR adjacency and its degree
arrays, built from the view's edges; one batched BFS per view, from one
source per twin class, gives all decorations' nine view metrics as tuples.
The 18 ``REQUEST_LEVEL_FEATURES`` (ancestry, parent script, its storage and
requests, redirects, and infiltrations) depend only on the request and are
computed once per request, entropy once per value string, and the rest once
per decoration.

The feature name list is fixed and versioned; the matrix file writer embeds
the version in every feature column header.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from itertools import accumulate, chain, repeat
from typing import IO, Callable, Iterable, Optional

import numpy as np

from .errors import InputError
from .graph import HTML, INTERACTION, SCRIPT, PageGraph

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
    simple undirected projection, where paths run. ``rows`` gives each
    asked node's nine metrics as one tuple, from one batched search of the
    asked nodes alone. Twins, nodes with equal CSR index rows (as bytes),
    have equal level vectors and one component, so a class takes one BFS
    source; an isolated node is a class of its own. A component has
    1 + sum(levels) nodes and half its degree sum in edges. Closeness adds
    1/d per node at distance d, in ascending d, as a per-node BFS would, so
    ``sum`` gives the same float; it is kept per level vector.
    """

    def __init__(self, nodes, edges):
        pos = self._position = {nd.id: i for i, nd in enumerate(nodes)}
        n = len(pos)
        src = np.array([pos[e.src] for e in edges], dtype=np.int64)
        dst = np.array([pos[e.dst] for e in edges], dtype=np.int64)
        degree = self._degree = np.bincount(
            np.concatenate((src, dst)), minlength=n).astype(np.float64)
        # each pair once, sorted, so a node's neighbours are one run; not
        # np.unique, which imports numpy.ma and its 1.5 MB of peak RSS
        pairs = np.sort(np.concatenate((src * n + dst, dst * n + src)))
        rows, self._indices = np.divmod(
            pairs[np.diff(pairs, prepend=-1) != 0], max(n, 1))
        neighbors = np.bincount(rows, minlength=n)
        self._indptr = np.concatenate(([0], np.cumsum(neighbors)))
        # the CSR rows with neighbours and their starts, for the BFS's reduceat
        self._linked = np.flatnonzero(neighbors)
        self._starts = self._indptr[self._linked]
        # sums below 2**53 are exact in float64, so each mean is int / int
        adc = np.divide(
            np.bincount(rows, weights=degree[self._indices], minlength=n),
            neighbors, out=np.zeros(n), where=neighbors > 0)
        # one list per column, of Python floats: in-, out- and multi-degree,
        # and the average multi-degree of each node's neighbours
        self._local = np.vstack((
            np.bincount(dst, minlength=n), np.bincount(src, minlength=n),
            degree, adc)).tolist()
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

    def rows(self, node_ids: Iterable[str]) -> list[tuple[float, ...]]:
        """Each node's metrics in ``FEATURE_NAMES[:9]`` order; all zeros for
        a node outside the view."""
        positions = [self._position.get(nid) for nid in node_ids]
        ends = (self._indptr * self._indices.itemsize).tolist()
        raw = self._indices.tobytes()
        classes: dict = {}
        for s in dict.fromkeys(i for i in positions if i is not None):
            row = raw[ends[s]:ends[s + 1]]
            classes.setdefault(row or s, []).append(s)
        found = self._level_counts([c[0] for c in classes.values()])
        in_degree, out_degree, degree, adc = self._local
        done = {}
        for twins, (levels, degree_sum) in zip(classes.values(), found):
            n_nodes, n_edges = 1 + sum(levels), degree_sum // 2
            closeness = 0.0
            if levels:
                key = tuple(levels)
                closeness = self._closeness.get(key)
                if closeness is None:
                    closeness = self._closeness[key] = sum(
                        chain.from_iterable(repeat(1.0 / d, count) for d,
                                            count in enumerate(levels, 1)))
                closeness /= (n_nodes - 1)
            size = (float(n_nodes), float(n_edges),
                    n_nodes / n_edges if n_edges else 0.0)
            for s in twins:
                done[s] = (*size, in_degree[s], out_degree[s], degree[s],
                           adc[s], closeness, float(len(levels)))
        return [(0.0,) * 9 if i is None else done[i] for i in positions]


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
    edge's kind. ``scripts`` keeps the part of a request's
    ``REQUEST_LEVEL_FEATURES`` that each parent script decides.
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
        self.scripts: dict[Optional[str], tuple] = {}

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


def _script_block(index: _GraphIndex, parent: Optional[str]) -> tuple:
    """The request-level features that depend only on the request's parent
    script (``None`` when it has none), in ``REQUEST_LEVEL_FEATURES`` order:
    ``parent_is_eval``, the four storage counts, the four request and
    redirect counts, and ``shared_storage_access``."""
    nodes, out, into = index.g.nodes, index.out, index.into

    def accesses(store: str, sub: str) -> float:
        return float(sum(nodes[s].attrs.get("store") == store
                         for s in out[sub].get(parent, ())))

    sent = out["initiates"].get(parent, [])
    storage = {s for sub in ("set", "get") for s in out[sub].get(parent, ())}
    sharers = {script for s in storage for sub in ("set", "get")
               for script in into[sub].get(s, ())}
    sharers.discard(parent)
    return (
        float(parent is not None and nodes[parent].attrs.get("is_eval", False)),
        accesses("localStorage", "set"),
        accesses("localStorage", "get"),
        accesses("cookie", "set"),
        accesses("cookie", "get"),
        float(len(sent)),
        float(sum(len(out["responds"].get(r, ())) for r in sent)),
        float(sum(len(out["redirects"].get(r, ())) for r in sent)),
        float(sum(len(into["redirects"].get(r, ())) for r in sent)),
        float(sum(len(out["initiates"].get(script, ()))
                  for script in sharers)),
    )


def _request_block(index: _GraphIndex, request_id: str) -> tuple:
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
    return (
        float(len(ancestors)),
        float(any(k in script_urls for k in AD_KEYWORDS)),
        float(any(k in script_urls for k in FP_KEYWORDS)),
        float(max((s.attrs.get("length", 0) for s in scripts), default=0)),
        float(bool(scripts)),
        script_block[0],
        float(len(scripts)),
        *script_block[1:9],
        float(index.redirect_chain_depth(request_id)),
        script_block[9],
        float(nodes[request_id].attrs.get("infiltrations", 0)),
    )


def features_for_graph(g: PageGraph) -> list[tuple[str, tuple[float, ...]]]:
    """(node_id, feature vector) for every decoration node, in node-id order:
    both views' rows for all of them at once, then per decoration one tuple
    of floats in ``FEATURE_NAMES`` order. Each request's block and section
    counts are worked out once, and entropy once per value string."""
    decorations = sorted(g.decoration_nodes(), key=lambda n: n.id)
    index = _GraphIndex(g)
    nodes, out, into = g.nodes, index.out, index.into
    flow_parents = index.flow_parents
    ids = [dec.id for dec in decorations]
    requests: dict[str, tuple[tuple, tuple]] = {}
    entropy: dict[str, float] = {}
    vectors = []
    for dec, view, flow in zip(decorations, index.interaction.rows(ids),
                               index.flow.rows(ids)):
        node_id, attrs = dec.id, dec.attrs
        request_id = attrs["request"]
        known = requests.get(request_id)
        if known is None:
            # a depth counts the decorations of the earlier URL sections
            kinds = [nodes[d].attrs["kind"]
                     for d in out["splits"].get(request_id, ())]
            known = requests[request_id] = (
                _request_block(index, request_id),
                (0, *accumulate(kinds.count(k) for k in _SECTIONS[:2])))
        block, before = known
        section = _SECTIONS.index(attrs["kind"])
        value = attrs["value"]
        if value not in entropy:
            entropy[value] = shannon_entropy(value)

        # flow features of the storage this decoration exfiltrates and of
        # the scripts that set it
        exfiltrated = into["exfiltration"].get(node_id)
        if exfiltrated:
            cookies = float(sum(nodes[s].attrs.get("store") == "cookie"
                                for s in exfiltrated))
            setters = {script for s in exfiltrated
                       for script in into["set"].get(s, ())}
            set_storage = {s for script in setters
                           for s in out["set"].get(script, ())}
            setter_exfiltrations = float(sum(
                len(out["exfiltration"].get(s, ())) for s in set_storage))
            setter_redirects = float(sum(
                len(out["redirects"].get(r, ()))
                + len(into["redirects"].get(r, ()))
                for script in setters
                for r in out["initiates"].get(script, ())))
        else:
            cookies = setter_exfiltrations = setter_redirects = 0.0
        indirect = (float(len(_ancestors(
            node_id, lambda n: flow_parents.get(n, ()))))
            if node_id in flow_parents else 0.0)

        # the request block's three runs sit apart in FEATURE_NAMES
        row = (*view, *block[:7],
               float(attrs["position"] + before[section]), entropy[value],
               float(section),
               *block[7:17], cookies, block[17], setter_exfiltrations,
               setter_redirects, *flow, indirect)
        if not all(map(math.isfinite, row)):
            name, bad = next((n, v) for n, v in zip(FEATURE_NAMES, row)
                             if not math.isfinite(v))
            raise ValueError(f"non-finite feature {name}={bad}")
        vectors.append((node_id, row))
    return vectors


# -- feature matrix file ------------------------------------------------------

_META_COLUMNS = ("trace_id", "node_id", "site", "fqdn", "key", "kind")


def _versioned(name: str) -> str:
    return f"fv{FEATURE_VERSION}:{name}"


def write_feature_matrix(rows: Iterable[dict], fh: IO[str]) -> None:
    """Rows carry the meta columns plus a ``features`` tuple in
    ``FEATURE_NAMES`` order; ``csv`` writes each float as its ``repr``."""
    writer = csv.writer(fh)
    writer.writerow(list(_META_COLUMNS) + [_versioned(n) for n in FEATURE_NAMES])
    for row in rows:
        writer.writerow((*[row[c] for c in _META_COLUMNS], *row["features"]))


def read_feature_matrix(fh: IO[str]):
    """Returns (meta_rows, X) and validates the feature-name version. The
    cells go straight into ``X``, one row's floats alive at a time."""
    reader = csv.reader(fh)
    n_meta = len(_META_COLUMNS)
    width = n_meta + len(FEATURE_NAMES)
    meta = []

    def vectors():
        for row in reader:
            if len(row) != width:
                raise InputError(f"line {reader.line_num}: expected "
                                 f"{width} fields, got {len(row)}")
            try:
                values = [float(v) for v in row[n_meta:]]
            except ValueError as exc:
                raise InputError(f"line {reader.line_num}: {exc}") from exc
            meta.append(dict(zip(_META_COLUMNS, row)))
            yield values

    try:
        header = next(reader, None)
        if header != list(_META_COLUMNS) + [_versioned(n)
                                            for n in FEATURE_NAMES]:
            raise InputError(
                "line 1: feature matrix header does not match feature "
                f"version {FEATURE_VERSION}")
        X = np.fromiter(chain.from_iterable(vectors()), np.float64).reshape(
            -1, len(FEATURE_NAMES))
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from exc
    return meta, X
