"""Cross-layer page graph: typed nodes and edges built from a trace,
decoration splitting, and flow-edge (exfiltration/infiltration) detection.

Node ids are derived from content, so identical traces always produce
identical graphs. Finished graphs are treated as immutable.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import urls
from .errors import InputError
from .trace import Trace

STORAGE = "storage"
HTML = "html"
SCRIPT = "script"
NETWORK = "network"
DECORATION = "decoration"

INTERACTION = "interaction"
EXFILTRATION = "exfiltration"
INFILTRATION = "infiltration"

ENCODINGS = ("plain", "base64", "md5", "sha1", "sha256")
HEX_ENCODINGS = frozenset({"md5", "sha1", "sha256"})

DEFAULT_MIN_VALUE_LEN = 8

DOCUMENT_NODE = "html:document"


@dataclass(slots=True)
class Node:
    id: str
    kind: str
    attrs: dict = field(default_factory=dict)


class Edge(NamedTuple):
    src: str
    dst: str
    kind: str  # interaction | exfiltration | infiltration
    sub: str = ""  # interaction sub-kind
    evidence: Optional[tuple] = None  # (encoding, matched_span) for flow edges

    def dump_line(self) -> str:
        ev = ""
        if self.evidence is not None:
            ev = f"{self.evidence[0]}@{self.evidence[1]}"
        label = self.kind if not self.sub else f"{self.kind}:{self.sub}"
        return f"{self.src}\t{self.dst}\t{label}\t{ev}"


class PageGraph:
    """Mutable during construction, then used read-only."""

    def __init__(self, site: str, page_url: str):
        self.site = site
        self.page_url = page_url
        self.nodes: dict[str, Node] = {}
        self.edges: list[Edge] = []
        self.warnings: list[str] = []
        # script storage writes in event order: (seq, node_id, value)
        self.storage_writes: list[tuple] = []

    # -- construction helpers -------------------------------------------------

    def ensure_node(self, node_id: str, node_kind: str, **attrs) -> Node:
        node = self.nodes.get(node_id)
        if node is None:
            node = Node(node_id, node_kind, attrs)
            self.nodes[node_id] = node
        else:
            for k, v in attrs.items():
                node.attrs.setdefault(k, v)
        return node

    def add_edge(self, src: str, dst: str, kind: str, sub: str = "",
                 evidence=None) -> None:
        self.edges.append(Edge(src, dst, kind, sub, evidence))

    # -- queries --------------------------------------------------------------

    def nodes_of_kind(self, kind: str) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind == kind]

    def decoration_nodes(self) -> list[Node]:
        return self.nodes_of_kind(DECORATION)

    def request_nodes(self) -> list[Node]:
        return [n for n in self.nodes_of_kind(NETWORK)
                if n.attrs.get("direction") == "request"]

    def flow_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind in (EXFILTRATION, INFILTRATION)]

    def flow_view(self) -> tuple[list[Node], list[Edge]]:
        """Flow edges plus the interaction edges incident to their endpoints."""
        flow = self.flow_edges()
        endpoints = {e.src for e in flow} | {e.dst for e in flow}
        edges = list(flow)
        for e in self.edges:
            if e.kind == INTERACTION and (e.src in endpoints or e.dst in endpoints):
                edges.append(e)
        node_ids = {e.src for e in edges} | {e.dst for e in edges}
        return [self.nodes[n] for n in node_ids], edges

    def edge_list_dump(self) -> str:
        """Deterministic one-edge-per-line dump for debugging and oracles."""
        return "\n".join(sorted(e.dump_line() for e in self.edges)) + "\n"


def _storage_node_id(store: str, key: str) -> str:
    return f"storage:{store}:{key}"


def _script_node_id(script_id: str) -> str:
    return f"script:{script_id}"


def _request_node_id(request_id) -> str:
    return f"network:req:{request_id}"


def _response_node_id(request_id) -> str:
    return f"network:resp:{request_id}"


def _element_node_id(element_id: str) -> str:
    return f"html:{element_id}"


def _actor_node(g: PageGraph, actor: str) -> str:
    """Resolve an event actor to a node id, creating the node if needed."""
    if actor == "document":
        g.ensure_node(DOCUMENT_NODE, HTML)
        return DOCUMENT_NODE
    element = _element_node_id(actor)
    if element in g.nodes:
        return element
    script = _script_node_id(actor)
    # scripts not announced via script_load get an implicit node
    g.ensure_node(script, SCRIPT, url="", length=0, is_eval=False)
    return script


def build_graph(t: Trace) -> PageGraph:
    """Build the interaction graph of a validated trace.

    One storage node per (store, key), one script node per script, one network
    node per request and per response, interaction edges per event. A
    response's header-set entries (``set_storage``) are writes of their
    storage nodes at the response's seq, so exfiltration sees them. A
    request's later responses merge into the first one's node.
    """
    g = PageGraph(t.site, t.page_url)
    for ev in t.events:
        p = ev.payload
        if ev.kind in ("script_load", "eval_script"):
            sid = _script_node_id(p.get("script_id", ev.actor))
            g.ensure_node(
                sid, SCRIPT,
                url=p.get("url", ""),
                length=p.get("length", 0),
                is_eval=(ev.kind == "eval_script"),
            )
            g.add_edge(_actor_node(g, ev.actor), sid, INTERACTION, "creates")
        elif ev.kind == "storage_set":
            node = g.ensure_node(
                _storage_node_id(p["store"], p["key"]), STORAGE,
                store=p["store"], key=p["key"])
            value = p.get("value", "")
            node.attrs.setdefault("writes", []).append((ev.seq, value))
            g.add_edge(_actor_node(g, ev.actor), node.id, INTERACTION, "set")
            g.storage_writes.append((ev.seq, node.id, value))
        elif ev.kind == "storage_get":
            node = g.ensure_node(
                _storage_node_id(p["store"], p["key"]), STORAGE,
                store=p["store"], key=p["key"])
            if "value" in p:
                node.attrs.setdefault("reads", []).append((ev.seq, p["value"]))
            g.add_edge(_actor_node(g, ev.actor), node.id, INTERACTION, "get")
        elif ev.kind in ("request", "element_request"):
            rid = _request_node_id(p["request_id"])
            g.ensure_node(
                rid, NETWORK, direction="request", url=p["url"],
                request_id=p["request_id"], seq=ev.seq)
            g.add_edge(_actor_node(g, ev.actor), rid, INTERACTION, "initiates")
        elif ev.kind == "response":
            rid = _request_node_id(p["request_id"])
            nid = _response_node_id(p["request_id"])
            if nid not in g.nodes:
                # the header-set entries the node keeps are storage writes
                # at its seq; detect_infiltration adds their header edges
                for entry in p.get("set_storage", []):
                    node = g.ensure_node(
                        _storage_node_id(entry["store"], entry["key"]),
                        STORAGE, store=entry["store"], key=entry["key"])
                    node.attrs.setdefault("writes", []).append(
                        (ev.seq, entry.get("value", "")))
            g.ensure_node(
                nid, NETWORK, direction="response",
                request_id=p["request_id"],
                set_storage=p.get("set_storage", []),
                payload=p.get("payload", ""), seq=ev.seq)
            g.add_edge(rid, nid, INTERACTION, "responds")
        elif ev.kind == "redirect":
            old = _request_node_id(p["from_request_id"])
            new = _request_node_id(p["request_id"])
            g.ensure_node(
                new, NETWORK, direction="request", url=p["to_url"],
                request_id=p["request_id"], seq=ev.seq)
            g.add_edge(old, new, INTERACTION, "redirects")
        elif ev.kind == "element_create":
            eid = _element_node_id(p["element_id"])
            g.ensure_node(eid, HTML)
            g.add_edge(_actor_node(g, ev.actor), eid, INTERACTION, "creates")
    return g


def attach_decoration_nodes(g: PageGraph) -> PageGraph:
    """Split each request node into one decoration child per link decoration."""
    for req in g.request_nodes():
        url = req.attrs.get("url", "")
        try:
            d = urls.decompose(url)
        except InputError as exc:
            g.warnings.append(f"unparseable request URL {url!r}: {exc}")
            continue
        for dec, raw in urls.name_decorations(d, g.site):
            dec_id = f"decoration:{req.attrs['request_id']}:{dec.kind}:{dec.position}"
            g.ensure_node(
                dec_id, DECORATION,
                decoration=dec, value=dec.value, raw_value=raw.value,
                kind=dec.kind, key=dec.id.key, fqdn=dec.id.fqdn,
                position=dec.position, request=req.id)
            g.add_edge(req.id, dec_id, INTERACTION, "splits")
    return g


def encode_candidates(value: str) -> dict[str, str]:
    """The five monitored forms of ``value``, by encoding in ``ENCODINGS``
    order: identity, padded Base64, and lowercase hex MD5 / SHA-1 / SHA-256
    digests."""
    if not value:
        raise ValueError("encode_candidates requires a non-empty value")
    data = value.encode("utf-8")
    return {
        "plain": value,
        "base64": base64.b64encode(data).decode("ascii"),
        "md5": hashlib.md5(data).hexdigest(),
        "sha1": hashlib.sha1(data).hexdigest(),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _match(forms: dict[str, str], strings: list[str], inside: bool = False):
    """First (encoding, span) in ``ENCODINGS`` priority order, else None:
    a form found in one of ``strings`` or, with ``inside``, a non-empty
    string found in a form (the reverse direction). Hex digests match
    case-insensitively; plain and base64 are case-sensitive."""
    lowered = None
    for encoding in ENCODINGS:
        form, hays = forms[encoding], strings
        if encoding in HEX_ENCODINGS:
            if lowered is None:
                lowered = [s.lower() for s in strings]
            hays = lowered
        for s in hays:
            if inside:
                pos = form.find(s) if s else -1
            else:
                pos = s.find(form)
            if pos != -1:
                return encoding, (pos, pos + len(s if inside else form))
    return None


# k of the k-grams that find flow candidates
KGRAM = DEFAULT_MIN_VALUE_LEN


def _prefix_pairs(needles, haystacks) -> set[tuple[int, int]]:
    """``(i, j)`` for each ``needles[i]`` holding a string whose first
    ``KGRAM`` characters occur in one of the strings of ``haystacks[j]``.
    The needles' prefixes are indexed, and the k-grams of each distinct
    haystack string looked up once, however many items hold it. A needle
    shorter than a k-gram cannot be looked up, so its item pairs with every
    haystack item."""
    index: dict[str, list[int]] = {}
    short = []
    for i, strings in enumerate(needles):
        if any(len(s) < KGRAM for s in strings):
            short.append(i)
            continue
        for s in strings:
            index.setdefault(s[:KGRAM], []).append(i)
    pairs = {(i, j) for i in short for j in range(len(haystacks))}
    holders: dict[str, list[int]] = {}  # haystack string -> items
    for j, strings in enumerate(haystacks):
        for s in strings:
            holders.setdefault(s, []).append(j)
    if index:
        for s, items in holders.items():
            for k in range(len(s) - KGRAM + 1):
                for i in index.get(s[k:k + KGRAM], ()):
                    pairs.update((i, j) for j in items)
    return pairs


def detect_exfiltration(g: PageGraph,
                        min_len: int = DEFAULT_MIN_VALUE_LEN) -> PageGraph:
    """Add storage -> decoration exfiltration edges.

    A storage value set or read before a request's seq is considered
    exfiltrated through a decoration of that request when any of its five
    encoded forms occurs as a substring of the decoration value (decoded or
    wire form), or, conversely, when the decoration value is itself a
    substring of one of those forms; the reverse direction is what keeps
    identifiers split into chunks detectable. ``min_len`` drops short storage
    values and, in the reverse direction, short decoration values (default 8;
    pass 0 to disable the pre-processing for evasion studies).

    Candidate (value, decoration) pairs come from two needle indexes
    (k = ``KGRAM``) instead of a test of every pair. Forward: each encoded
    form's first k characters are indexed, and every k-gram of the
    decorations' haystacks, decoded, raw and lowercased, is looked up in
    that index, once per distinct string on the page. Reverse: each
    decoration value's first k characters, as is and lowercased, are
    indexed, and every k-gram of the encoded forms is looked up. A needle
    shorter than k cannot be indexed, so a value or decoration with one
    (possible only when ``min_len`` < k) is paired with every decoration or
    value, as a scan would. Each distinct value is encoded once, and
    ``_match`` confirms each candidate in both directions, so the encoding
    priority and the evidence span are those of a full scan; edges are
    added in the scan's order (request, storage node, value, decoration).
    The cost grows with the haystacks' and forms' lengths and the
    candidates, not with stored values x decorations.
    """
    requests = {req.id: (i, req.attrs.get("seq", 0))
                for i, req in enumerate(g.request_nodes())}
    decorations = [dec for dec in g.decoration_nodes()
                   if dec.attrs["request"] in requests]
    # value -> {storage node index: seq of its first write or read}; a value
    # precedes a request's seq at a node iff its first seq there does
    first_seq: dict[str, dict[int, int]] = {}
    storage_nodes = g.nodes_of_kind(STORAGE)
    for si, snode in enumerate(storage_nodes):
        for attr in ("writes", "reads"):
            for ev_seq, value in snode.attrs.get(attr, []):
                if value and len(value) >= min_len:
                    held = first_seq.setdefault(value, {})
                    held[si] = min(ev_seq, held.get(si, ev_seq))
    values = sorted(first_seq) if decorations else []
    forms = [encode_candidates(v) for v in values]
    haystacks = []
    for dec in decorations:
        hays = [dec.attrs["value"]]
        if dec.attrs.get("raw_value") != dec.attrs["value"]:
            hays.append(dec.attrs["raw_value"])
        haystacks.append(hays)

    all_forms = [list(f.values()) for f in forms]
    candidates = _prefix_pairs(
        all_forms, [[s for h in hays for s in (h, h.lower())]
                    for hays in haystacks])
    needles = [[s for h in hays if h for s in (h, h.lower())]
               if len(dec.attrs["value"]) >= min_len else []
               for dec, hays in zip(decorations, haystacks)]
    candidates.update(
        (vi, di) for di, vi in _prefix_pairs(needles, all_forms))

    hits = []
    for vi, di in candidates:
        dec = decorations[di]
        hit = _match(forms[vi], haystacks[di])
        if hit is None and len(dec.attrs["value"]) >= min_len:
            hit = _match(forms[vi], haystacks[di], inside=True)
        if hit is None:
            continue
        ri, req_seq = requests[dec.attrs["request"]]
        for si, seq in first_seq[values[vi]].items():
            if seq < req_seq:
                hits.append(((ri, si, vi, di), storage_nodes[si].id, hit))
    hits.sort(key=lambda h: h[0])
    # keep the first hit per (storage, decoration) pair
    seen = set()
    for (_ri, si, _vi, di), storage_id, hit in hits:
        if (si, di) not in seen:
            seen.add((si, di))
            g.add_edge(storage_id, decorations[di].id, EXFILTRATION,
                       evidence=hit)
    return g


def detect_infiltration(g: PageGraph) -> PageGraph:
    """Add response -> storage infiltration edges.

    Header-set storage entries always infiltrate. A script write is attributed
    to a response iff the stored value (or an encoded form) appears in that
    response's payload and the write happens after the response in seq order.

    Candidates come from ``_prefix_pairs`` over the written values' forms
    and the payloads, as is and lowercased, and ``_match`` confirms each, so
    the cost grows with payload length and candidates, not with responses x
    writes. Edges follow the response order, header entries first, then
    writes in event order; the first per (response, storage node) is kept.
    """
    responses = [n for n in g.nodes_of_kind(NETWORK)
                 if n.attrs.get("direction") == "response"]
    carriers = [resp for resp in responses if resp.attrs.get("payload")]
    payloads = [resp.attrs["payload"] for resp in carriers]
    # a write at or before the first payload's seq can pair with no response,
    # and with no payload none can
    first = min((resp.attrs.get("seq", 0) for resp in carriers),
                default=float("inf"))
    writes: dict[str, list[int]] = {}  # value -> its storage_writes indexes
    for wi, (seq, _storage_id, value) in enumerate(g.storage_writes):
        if value and seq > first:
            writes.setdefault(value, []).append(wi)
    values = list(writes)
    forms = [encode_candidates(v) for v in values]
    candidates = _prefix_pairs([list(f.values()) for f in forms],
                               [[p, p.lower()] for p in payloads])
    hits: dict[str, list] = {}  # response id -> [(write index, evidence)]
    for vi, ci in candidates:
        hit = _match(forms[vi], [payloads[ci]])
        if hit is not None:
            resp_seq = carriers[ci].attrs.get("seq", 0)
            hits.setdefault(carriers[ci].id, []).extend(
                (wi, hit) for wi in writes[values[vi]]
                if g.storage_writes[wi][0] > resp_seq)

    for resp in responses:
        flows = [(_storage_node_id(entry["store"], entry["key"]),
                  ("header", None))
                 for entry in resp.attrs.get("set_storage", [])]
        flows += [(g.storage_writes[wi][1], hit)
                  for wi, hit in sorted(hits.get(resp.id, ()))]
        added = set()
        for storage_id, evidence in flows:
            if storage_id not in added:
                added.add(storage_id)
                g.add_edge(resp.id, storage_id, INFILTRATION,
                           evidence=evidence)
        # mark the request whose response infiltrates storage
        req = g.nodes.get(_request_node_id(resp.attrs["request_id"]))
        if added and req is not None:
            req.attrs["infiltrations"] = \
                req.attrs.get("infiltrations", 0) + len(added)
    return g


def build_full_graph(t: Trace,
                     min_len: int = DEFAULT_MIN_VALUE_LEN) -> PageGraph:
    """Convenience pipeline: build, split decorations, detect both flows."""
    g = build_graph(t)
    attach_decoration_nodes(g)
    detect_exfiltration(g, min_len=min_len)
    detect_infiltration(g)
    return g
