import collections

import pytest

from linkscrub.evasion import (combine_decorations, evade_combine,
                               evade_rename, evade_split)
from linkscrub.features import features_for_graph
from linkscrub.graph import build_full_graph
from linkscrub.synthetic import SyntheticConfig, generate_synthetic
from linkscrub.trace import Trace
from linkscrub.urls import decompose

from conftest import TraceBuilder, decoded, named

CFG = SyntheticConfig(sites=4, seed=2, encodings=("plain", "base64"))


def _vectors_by_request(trace, min_len=8):
    g = build_full_graph(trace, min_len=min_len)
    out = collections.defaultdict(list)
    for node_id, fv in features_for_graph(g):
        node = g.nodes[node_id]
        out[node.attrs["request"]].append(
            (node.attrs["kind"], node.attrs["position"],
             node.attrs["value"], fv))
    return out


def test_empty_trace_passes_through():
    t = Trace(site="s.example", page_url="https://s.example/")
    for fn in (lambda x: evade_rename(x, seed=0), evade_split, evade_combine):
        out = fn([t])
        assert out == [t]


def test_rename_keeps_values_and_counts():
    traces, _ = generate_synthetic(CFG)
    renamed = evade_rename(traces, seed=1)
    for orig, ren in zip(traces, renamed):
        for a, b in zip(orig.events, ren.events):
            assert a.kind == b.kind and a.seq == b.seq
            if a.kind in ("request", "element_request"):
                da = decompose(a.payload["url"])
                db = decompose(b.payload["url"])
                qa, qb = decoded(da, "query"), decoded(db, "query")
                assert sorted(v for _k, v in decoded(da, "path")) == \
                    sorted(v for _k, v in decoded(db, "path"))
                assert [v for _k, v in qa] == [v for _k, v in qb]
                assert [k for k, _v in qa] != [k for k, _v in qb] or not qa


def test_rename_is_deterministic_per_seed():
    traces, _ = generate_synthetic(CFG)
    assert evade_rename(traces, seed=5) == evade_rename(traces, seed=5)
    assert evade_rename(traces, seed=5) != evade_rename(traces, seed=6)


def test_rename_query_fragment_vectors_identical():
    traces, _ = generate_synthetic(CFG)
    renamed = evade_rename(traces, seed=3)
    for orig, ren in zip(traces, renamed):
        before = _vectors_by_request(orig)
        after = _vectors_by_request(ren)
        assert before.keys() == after.keys()
        for req in before:
            b_qf = [(k, p, v, fv) for k, p, v, fv in before[req]
                    if k in ("query", "fragment")]
            a_qf = [(k, p, v, fv) for k, p, v, fv in after[req]
                    if k in ("query", "fragment")]
            assert b_qf == a_qf  # exact equality, including the vectors


def test_rename_path_vectors_differ_only_in_depth():
    traces, _ = generate_synthetic(CFG)
    renamed = evade_rename(traces, seed=3)
    for orig, ren in zip(traces, renamed):
        before = _vectors_by_request(orig)
        after = _vectors_by_request(ren)
        for req in before:
            def path_part(entries):
                rows = []
                for kind, _pos, value, fv in entries:
                    if kind != "path":
                        continue
                    stripped = tuple(v for n, v in named(fv).items()
                                     if n != "max_decoration_depth")
                    rows.append((value, stripped))
                return sorted(rows)
            assert path_part(before[req]) == path_part(after[req])


def test_split_chunk_arithmetic(tb):
    value = "ABCDEFGH12345678"  # 16 chars -> two chunks of 8
    t = tb.request("s1", "r1", f"https://t.example/?uid={value}").build()
    out = evade_split([t])[0]
    d = decompose(out.events[0].payload["url"])
    assert decoded(d, "query") == [("uid_0", "ABCDEFGH"),
                                   ("uid_1", "12345678")]
    assert "".join(v for _k, v in decoded(d, "query")) == value


def test_split_covers_path_query_fragment(tb):
    t = tb.request(
        "s1", "r1",
        "https://t.example/abcdefghij/r?q=0123456789AB#fragmentvalue"
    ).build()
    d = decompose(evade_split([t])[0].events[0].payload["url"])
    assert decoded(d, "path") == [("path|0", "abcdefgh"), ("path|1", "ij")]
    assert decoded(d, "query") == [("q_0", "01234567"), ("q_1", "89AB")]
    assert d.fragment_is_kv
    assert decoded(d, "fragment") == [("fragment_0", "fragment"),
                                      ("fragment_1", "value")]


def test_split_leaves_short_values_alone(tb):
    url = "https://t.example/ab/r?q=12345678#xy"
    t = tb.request("s1", "r1", url).build()
    assert evade_split([t])[0].events[0].payload["url"] == url


def test_combine_single_64_hex_path_decoration(tb):
    t = tb.request(
        "s1", "r1",
        "https://t.example/a/b/r?x=1&y=2#z").build()  # 5 decorations
    out = evade_combine([t])[0]
    d = decompose(out.events[0].payload["url"])
    dirs = decoded(d, "path")
    assert len(dirs) == 1
    assert decoded(d, "query") == []
    assert d.raw_fragment is None
    digest = dirs[0][1]
    assert len(digest) == 64
    assert all(c in "0123456789abcdef" for c in digest)


def test_combine_is_value_sensitive(tb):
    t1 = tb.request("s1", "r1", "https://t.example/?x=1").build()
    t2 = (TraceBuilder()
          .request("s1", "r1", "https://t.example/?x=2").build())
    u1 = evade_combine([t1])[0].events[0].payload["url"]
    u2 = evade_combine([t2])[0].events[0].payload["url"]
    assert u1 != u2


def test_combine_skips_urls_without_decorations(tb):
    url = "https://t.example/r"
    t = tb.request("s1", "r1", url).build()
    assert evade_combine([t])[0].events[0].payload["url"] == url


def test_combine_decorations_helper():
    assert combine_decorations(decompose("https://t.example/r")) is None
    digest = combine_decorations(decompose("https://t.example/?a=1"))
    assert len(digest) == 64
    # an empty singular fragment adds nothing
    assert combine_decorations(decompose("https://t.example/r#")) is None
    assert combine_decorations(decompose("https://t.example/?a=1#")) == digest


_TRANSFORMS = {"rename": lambda traces: evade_rename(traces, seed=0),
               "split": evade_split, "combine": evade_combine}


@pytest.mark.parametrize("technique,url,expected", [
    # key-only query tokens and singular fragments keep their names
    ("rename", "https://t.example/a/b/r?x&k=v#frag",
     "https://t.example/a/b/r?x&q=v#frag"),
    ("rename", "https://t.example/r?k=v#s=1&t=2",
     "https://t.example/r?r=v#i=1&6=2"),
    ("rename", "https://t.example/?u%69d=0123456789",
     "https://t.example/?ETC9z=0123456789"),
    ("rename", "https://t.example/r?", "https://t.example/r?"),
    ("split", "https://t.example/r#abcdefghijk",
     "https://t.example/r#fragment_0=abcdefgh&fragment_1=ijk"),
    ("split", "https://t.example/?u%69d=0123456789",
     "https://t.example/?u%69d_0=01234567&u%69d_1=89"),
    ("split", "https://t.example/a/r?", "https://t.example/a/r?"),
    ("split", "https://t.example/r#", "https://t.example/r#"),
    # combine drops a "?" without tokens, which sanitize keeps
    ("combine", "https://t.example/a/r?",
     "https://t.example/"
     "1cd7eb74d457bffa3b05429f3ba756d2e2d7a87e32f61b7aab4907edfdefcfbc/r"),
    ("combine", "https://t.example/r?", "https://t.example/r?"),
    ("combine", "https://t.example/r#", "https://t.example/r#"),
    ("combine", "https://t.example?x=1",
     "https://t.example/"
     "1f206b11c23e28cc250ded7fc0098d3823a8467a54340f1ac4e535cb8544493f/"),
])
def test_transform_decoration_edge_cases(technique, url, expected, tb):
    t = tb.request("s1", "r1", url).build()
    out = _TRANSFORMS[technique]([t])[0]
    assert out.events[0].payload["url"] == expected
