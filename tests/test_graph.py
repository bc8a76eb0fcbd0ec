import base64
import hashlib
import random

import pytest

from linkscrub import graph
from linkscrub.graph import (ENCODINGS, EXFILTRATION, INFILTRATION,
                             INTERACTION, build_full_graph, build_graph,
                             attach_decoration_nodes, detect_exfiltration,
                             detect_infiltration, encode_candidates)
from linkscrub.synthetic import SyntheticConfig, generate_synthetic

from conftest import TraceBuilder
from oracle_exfil import oracle_exfil_pairs


def _edges(g, kind=None, sub=None):
    out = []
    for e in g.edges:
        if kind is not None and e.kind != kind:
            continue
        if sub is not None and e.sub != sub:
            continue
        out.append((e.src, e.dst))
    return out


def test_build_graph_node_and_edge_kinds(tb):
    t = (tb.script("s1", url="https://cdn.t.example/a.js")
         .set("s1", "cookie", "uid", "abcdefgh")
         .get("s1", "cookie", "uid", "abcdefgh")
         .request("s1", "r1", "https://t.example/p?uid=abcdefgh")
         .response("r1")
         .build())
    g = build_graph(t)
    assert ("html:document", "script:s1") in _edges(g, sub="creates")
    assert ("script:s1", "storage:cookie:uid") in _edges(g, sub="set")
    assert ("script:s1", "storage:cookie:uid") in _edges(g, sub="get")
    assert ("script:s1", "network:req:r1") in _edges(g, sub="initiates")
    assert ("network:req:r1", "network:resp:r1") in _edges(g, sub="responds")
    # one storage node per (store, key)
    assert len([n for n in g.nodes.values() if n.kind == "storage"]) == 1


def test_redirect_creates_new_request_node(tb):
    t = (tb.request("document", "r1", "https://a.example/x")
         .add("redirect", from_request_id="r1", request_id="r2",
              to_url="https://b.example/y?uid=1")
         .build())
    g = attach_decoration_nodes(build_graph(t))
    assert ("network:req:r1", "network:req:r2") in _edges(g, sub="redirects")
    assert "decoration:r2:query:0" in g.nodes


def test_decoration_split_counts(tb):
    t = tb.request("document", "r1",
                   "https://a.site.example/YYY/ZZZ/pixel.jpg"
                   "?ISBN=ABC&UID=DEF123#xyz").build()
    g = attach_decoration_nodes(build_graph(t))
    decs = g.decoration_nodes()
    assert len(decs) == 5
    assert all(("network:req:r1", d.id) in _edges(g, sub="splits")
               for d in decs)
    by_id = {d.id: d for d in decs}
    assert by_id["decoration:r1:path:0"].attrs["value"] == "YYY"
    assert by_id["decoration:r1:query:1"].attrs["key"] == "UID"
    assert by_id["decoration:r1:fragment:0"].attrs["value"] == "xyz"


def test_unparseable_url_warns_and_yields_no_decorations(tb):
    t = tb.request("document", "r1", "not-a-url").build()
    g = attach_decoration_nodes(build_graph(t))
    assert g.decoration_nodes() == []
    assert len(g.warnings) == 1


def test_encode_candidates_forms():
    forms = encode_candidates("abcdefgh")
    assert list(forms) == list(ENCODINGS)
    assert forms["plain"] == "abcdefgh"
    assert forms["base64"] == base64.b64encode(b"abcdefgh").decode()
    assert forms["sha256"] == hashlib.sha256(b"abcdefgh").hexdigest()
    assert len(forms) == 5
    with pytest.raises(ValueError):
        encode_candidates("")


@pytest.mark.parametrize("encode", [
    lambda v: v,
    lambda v: base64.b64encode(v.encode()).decode(),
    lambda v: hashlib.md5(v.encode()).hexdigest(),
    lambda v: hashlib.sha1(v.encode()).hexdigest(),
    lambda v: hashlib.sha256(v.encode()).hexdigest().upper(),
])
def test_exfiltration_each_encoding(tb, encode):
    value = "secretvalue1"
    t = (tb.set("s1", "cookie", "uid", value)
         .request("s1", "r1", f"https://t.example/p?x={encode(value)}")
         .build())
    g = build_full_graph(t)
    assert ("storage:cookie:uid", "decoration:r1:query:0") in \
        _edges(g, kind=EXFILTRATION)


def test_exfiltration_respects_event_order(tb):
    t = (tb.request("s1", "r1", "https://t.example/p?x=secretvalue1")
         .set("s1", "cookie", "uid", "secretvalue1")
         .request("s1", "r2", "https://t.example/p?x=secretvalue1")
         .build())
    g = build_full_graph(t)
    pairs = _edges(g, kind=EXFILTRATION)
    assert ("storage:cookie:uid", "decoration:r1:query:0") not in pairs
    assert ("storage:cookie:uid", "decoration:r2:query:0") in pairs


def test_exfiltration_min_len_cutoff(tb):
    t = (tb.set("s1", "cookie", "uid", "short")
         .request("s1", "r1", "https://t.example/p?x=short")
         .build())
    assert _edges(build_full_graph(t), kind=EXFILTRATION) == []
    assert _edges(build_full_graph(t, min_len=0), kind=EXFILTRATION) == [
        ("storage:cookie:uid", "decoration:r1:query:0")]


def test_exfiltration_substring_match(tb):
    t = (tb.set("s1", "localStorage", "id", "abcdefgh")
         .request("s1", "r1", "https://t.example/p?x=pre-abcdefgh-post")
         .build())
    assert len(_edges(build_full_graph(t), kind=EXFILTRATION)) == 1


def test_exfiltration_deduplicated_per_pair(tb):
    # value appears both plain and as substring twice in one decoration
    t = (tb.set("s1", "cookie", "uid", "abcdefgh")
         .request("s1", "r1", "https://t.example/p?x=abcdefghabcdefgh")
         .build())
    g = build_full_graph(t)
    assert len(_edges(g, kind=EXFILTRATION)) == 1


def test_storage_get_value_counts_as_known(tb):
    t = (tb.get("s1", "cookie", "uid", "abcdefgh")
         .request("s1", "r1", "https://t.example/p?x=abcdefgh")
         .build())
    assert len(_edges(build_full_graph(t), kind=EXFILTRATION)) == 1


def test_infiltration_header_set(tb):
    t = (tb.request("s1", "r1", "https://t.example/p")
         .response("r1", set_storage=[
             {"store": "cookie", "key": "sid", "value": "xyz"}])
         .build())
    g = detect_infiltration(build_graph(t))
    assert ("network:resp:r1", "storage:cookie:sid") in \
        _edges(g, kind=INFILTRATION)
    assert g.nodes["network:req:r1"].attrs["infiltrations"] == 1


def test_header_set_cookie_is_exfiltrated_by_a_later_request(tb):
    t = (tb.request("s1", "r1", "https://t.example/p")
         .response("r1", set_storage=[
             {"store": "cookie", "key": "uid", "value": "hdr12345678"}])
         .request("s1", "r2", "https://t.example/c?uid=hdr12345678")
         .build())
    g = build_full_graph(t)
    pair = ("storage:cookie:uid", "decoration:r2:query:0")
    assert ("network:resp:r1", pair[0]) in _edges(g, kind=INFILTRATION)
    assert _edges(g, kind=EXFILTRATION) == [pair]
    assert oracle_exfil_pairs(t) == {pair}


def test_infiltration_script_write_needs_payload_and_order(tb):
    t = (tb.request("s1", "r1", "https://t.example/p")
         .response("r1", payload_text="token=serverid1")
         .set("s1", "cookie", "sid", "serverid1")
         .set("s1", "cookie", "other", "unrelated9")
         .build())
    g = detect_infiltration(build_graph(t))
    pairs = _edges(g, kind=INFILTRATION)
    assert ("network:resp:r1", "storage:cookie:sid") in pairs
    assert ("network:resp:r1", "storage:cookie:other") not in pairs


def test_infiltration_ignores_writes_before_response(tb, monkeypatch):
    t = (tb.set("s1", "cookie", "sid", "serverid1")
         .request("s1", "r1", "https://t.example/p")
         .response("r1", payload_text="token=serverid1")
         .build())
    encoded = []
    encode = graph.encode_candidates
    monkeypatch.setattr(graph, "encode_candidates",
                        lambda value: encoded.append(value) or encode(value))
    g = detect_infiltration(build_graph(t))
    assert _edges(g, kind=INFILTRATION) == []
    # no write follows the payload, so none is encoded
    assert encoded == []


def test_flow_view_restricts_to_flow_neighborhood(tb):
    t = (tb.script("s1")
         .script("s2")
         .set("s1", "cookie", "uid", "abcdefgh")
         .request("s1", "r1", "https://t.example/p?x=abcdefgh")
         .request("s2", "r2", "https://other.example/q")
         .build())
    g = build_full_graph(t)
    nodes, edges = g.flow_view()
    ids = {n.id for n in nodes}
    assert "storage:cookie:uid" in ids
    assert "decoration:r1:query:0" in ids
    assert "network:req:r2" not in ids
    assert any(e.kind == EXFILTRATION for e in edges)
    assert any(e.kind == INTERACTION for e in edges)


def test_edge_list_dump_deterministic(tb):
    t = (tb.set("s1", "cookie", "uid", "abcdefgh")
         .request("s1", "r1", "https://t.example/p?x=abcdefgh")
         .build())
    a = build_full_graph(t).edge_list_dump()
    b = build_full_graph(t).edge_list_dump()
    assert a == b
    assert "exfiltration" in a


def test_flow_matcher_calls_per_decoration_grow_less_than_twice(
        monkeypatch):
    """Both flow directions confirm candidates from one k-gram index, so
    from a 32- to a 128-tracker page the matcher calls per decoration stay
    about flat; a test of every pair grows them with the page."""
    calls = []
    match = graph._match

    def spy(*args, **kw):
        calls.append(args)
        return match(*args, **kw)

    monkeypatch.setattr(graph, "_match", spy)
    per_decoration = {}
    for n in (32, 128):
        (t,), _labels = generate_synthetic(
            SyntheticConfig(sites=1, trackers_per_site=n, seed=3))
        g = attach_decoration_nodes(build_graph(t))
        decorations = len(g.decoration_nodes())
        for detect in (detect_exfiltration, detect_infiltration):
            calls.clear()
            detect(g)
            per_decoration[detect.__name__, n] = len(calls) / decorations
    for name in ("detect_exfiltration", "detect_infiltration"):
        assert (per_decoration[name, 128] < 2 * per_decoration[name, 32]
                ), per_decoration


# -- randomized comparison against the brute-force oracle ---------------------

def random_trace(seed, site_index=0):
    rng = random.Random(seed)
    b = TraceBuilder(site=f"rnd{site_index}.example")
    values = []
    for i in range(rng.randint(1, 4)):
        length = rng.randint(3, 14)
        value = "".join(rng.choice("abcdefgh0123456789") for _ in range(length))
        values.append(value)
        store = rng.choice(["cookie", "localStorage"])
        b.set(f"s{i % 2}", store, f"k{i}", value)
    for r in range(rng.randint(1, 5)):
        parts = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            value = rng.choice(values)
            if roll < 0.3:
                tok = value
            elif roll < 0.4:
                tok = base64.b64encode(value.encode()).decode()
            elif roll < 0.5:
                tok = hashlib.sha256(value.encode()).hexdigest()
            elif roll < 0.6:
                tok = "x" + value + "y"
            else:
                tok = "".join(rng.choice("qrstuv") for _ in range(6))
            parts.append(f"p{len(parts)}={tok}")
        path = "/".join(rng.choice(values + ["static"])
                        for _ in range(rng.randint(0, 2)))
        url = f"https://t{r}.example/{path}"
        if parts:
            url += "?" + "&".join(parts)
        if rng.random() < 0.3:
            url += "#" + rng.choice(values)
        b.request("s0", f"r{r}", url)
        if rng.random() < 0.5:
            # a late write that must not create edges for this request
            b.set("s1", "cookie", f"late{r}", rng.choice(values))
    return b.build()


@pytest.mark.parametrize("min_len", [0, 8])
def test_exfiltration_matches_oracle(min_len):
    for seed in range(40):
        t = random_trace(seed)
        g = build_full_graph(t, min_len=min_len)
        got = {(e.src, e.dst) for e in g.edges if e.kind == EXFILTRATION}
        assert got == oracle_exfil_pairs(t, min_len=min_len), f"seed {seed}"
