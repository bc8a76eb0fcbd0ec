import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linkscrub import filters, urls
from linkscrub.errors import InputError
from linkscrub.filters import FilterRule

from conftest import decoded

EXAMPLE = "https://a.site.example/YYY/ZZZ/pixel.jpg?ISBN=ABC&UID=DEF123#xyz"


def test_example_url_decomposition():
    d = urls.decompose(EXAMPLE)
    assert d.scheme == "https"
    assert d.fqdn == "a.site.example"
    assert decoded(d, "path") == [("path|0", "YYY"), ("path|1", "ZZZ")]
    assert d.raw_resource == "pixel.jpg"
    assert decoded(d, "query") == [("ISBN", "ABC"), ("UID", "DEF123")]
    assert decoded(d, "fragment") == [("fragment", "xyz")]


def test_example_url_naming():
    d = urls.decompose(EXAMPLE)
    decs = [dec for dec, _ in urls.name_decorations(d, "site.example")]
    assert len(decs) == 5
    assert [(x.id.key, x.value) for x in decs] == [
        ("path|0", "YYY"),
        ("path|1", "ZZZ"),
        ("ISBN", "ABC"),
        ("UID", "DEF123"),
        ("fragment", "xyz"),
    ]
    assert all(x.id.fqdn == "a.site.example" for x in decs)
    assert str(decs[3].id) == "a.site.example|UID"


def test_resource_name_is_not_a_decoration():
    d = urls.decompose("https://h.example/a/b/c.gif")
    keys = [x.id.key for x, _ in urls.name_decorations(d, "h.example")]
    assert keys == ["path|0", "path|1"]


def test_fragment_key_value_form():
    d = urls.decompose("https://h.example/#a=1&b=2")
    assert d.fragment_is_kv
    assert decoded(d, "fragment") == [("a", "1"), ("b", "2")]
    keys = [x.id.key for x, _ in urls.name_decorations(d, "h.example")]
    assert keys == ["a", "b"]


def test_fragment_singular_when_any_token_lacks_equals():
    d = urls.decompose("https://h.example/#a=1&b")
    assert not d.fragment_is_kv
    assert decoded(d, "fragment") == [("fragment", "a=1&b")]


@pytest.mark.parametrize("url", [
    "https://h.example",
    "https://h.example/",
    "https://h.example/?",
    "https://h.example/#",
    "https://h.example/p?#f",
    "http://user:pw@h.example:8080/a%20b/c?x=%2F&y#z",
    "https://H.EXAMPLE/A?b=c&b=d&e",
    "https://h.example/a//b/?=&==",
    "https://h.example/?a",
])
def test_round_trip_samples(url):
    assert urls.reassemble(urls.decompose(url)) == url


@pytest.mark.parametrize("bad", ["", "not a url", "//h.example/x",
                                 "https://", "https:///p"])
def test_parse_errors(bad):
    with pytest.raises(InputError):
        urls.decompose(bad)


_pchar = st.text(
    alphabet=st.sampled_from(
        list("abcXYZ019-._~%!$&'()*+,;=:@é中")), max_size=8)
_hostchar = st.text(alphabet=st.sampled_from(list("abcz09-.")), min_size=1,
                    max_size=12).filter(lambda s: not s.startswith("."))


@st.composite
def url_strategy(draw):
    scheme = draw(st.sampled_from(["http", "https", "ws"]))
    host = draw(_hostchar)
    port = draw(st.sampled_from(["", ":80", ":8443"]))
    out = f"{scheme}://{host}{port}"
    if draw(st.booleans()):
        segs = draw(st.lists(_pchar, max_size=4))
        out += "/" + "/".join(segs + [draw(_pchar)])
    if draw(st.booleans()):
        n = draw(st.integers(0, 4))
        tokens = [draw(_pchar) + draw(st.sampled_from(["", "="])) + draw(_pchar)
                  for _ in range(n)]
        out += "?" + "&".join(tokens)
    if draw(st.booleans()):
        out += "#" + draw(_pchar)
    return out


@settings(max_examples=300, deadline=None)
@given(url_strategy())
def test_round_trip_property(url):
    d = urls.decompose(url)
    assert urls.reassemble(d) == url
    assert urls.with_decorations(d, urls.raw_decorations(d)) == url


@pytest.mark.parametrize("url,values", [
    ("https://h.example/a%2Fb//r?u%69d=1&k&=&x=a=b#f%41",
     ["a%2Fb", "", "1", "", "", "a=b", "f%41"]),
    ("https://h.example/?a#x=1&y=", ["", "1", ""]),
    ("https://h.example/p#", [""]),
    ("https://h.example?#a=1&b", ["a=1&b"]),
])
def test_raw_decorations_follow_name_order(url, values):
    d = urls.decompose(url)
    raws = urls.raw_decorations(d)
    assert [r.value for r in raws] == values
    assert [(r.kind, r) for r in raws] == \
        [(x.kind, raw) for x, raw in urls.name_decorations(d, "s.example")]
    assert urls.with_decorations(d, raws) == url


@settings(max_examples=150, deadline=None)
@given(url_strategy())
def test_decoration_count_matches_components(url):
    d = urls.decompose(url)
    decs = urls.name_decorations(d, "s.example")
    expect = len(d.raw_dir_segments) + len(d.raw_query_tokens)
    if d.raw_fragment is not None:
        expect += len(d.raw_fragment.split("&")) if d.fragment_is_kv else 1
    assert len(decs) == expect


# -- sanitization -------------------------------------------------------------

def _rule(key, scope="*", fqdn="*"):
    return FilterRule(scope, fqdn, key)


def test_sanitize_empty_rules_is_identity():
    for url in [EXAMPLE, "https://h.example/?a", "https://h.example/#x=1"]:
        assert urls.sanitize(url, "s.example", []) == url


def test_sanitize_strip_query_example():
    out = urls.sanitize("https://h.example/?a=1&gclid=X&b=2", "s.example",
                        [_rule("gclid")], mode="strip")
    assert out == "https://h.example/?a=1&b=2"


def test_sanitize_replace_preserves_lengths_and_structure():
    url = "https://h.example/seg/page?uid=abcdef12#frag"
    out = urls.sanitize(url, "s.example",
                        [_rule("uid"), _rule("path|0"), _rule("fragment")],
                        seed=7)
    d_in, d_out = urls.decompose(url), urls.decompose(out)
    dir_in, dir_out = decoded(d_in, "path")[0][1], decoded(d_out, "path")[0][1]
    assert len(dir_out) == len(dir_in)
    assert dir_out != dir_in
    query = decoded(d_out, "query")
    assert query[0][0] == "uid"
    assert len(query[0][1]) == 8
    assert query[0][1] != "abcdef12"
    fragment = decoded(d_out, "fragment")
    assert fragment[0][0] == "fragment"
    assert len(fragment[0][1]) == 4 and fragment[0][1] != "frag"
    assert d_out.raw_resource == "page"


def test_sanitize_deterministic_per_seed():
    url = "https://h.example/?uid=abcdef12"
    a = urls.sanitize(url, "s", [_rule("uid")], seed=3)
    b = urls.sanitize(url, "s", [_rule("uid")], seed=3)
    c = urls.sanitize(url, "s", [_rule("uid")], seed=4)
    assert a == b
    assert a != c


def test_sanitize_path_rule_never_strips():
    url = "https://h.example/abcd/x"
    out = urls.sanitize(url, "s", [_rule("path|0")], mode="strip")
    dirs = decoded(urls.decompose(out), "path")
    assert len(dirs) == 1
    assert len(dirs[0][1]) == 4
    assert dirs[0][1] != "abcd"


@pytest.mark.parametrize("url,keys,mode,expected", [
    # a matched key-only query token gains its "=", or goes
    ("https://h.example/?uid", ["uid"], "replace", "https://h.example/?uid="),
    ("https://h.example/?uid", ["uid"], "strip", "https://h.example/"),
    # a "?" that carries no tokens stays
    ("https://h.example/p?", ["uid"], "replace", "https://h.example/p?"),
    ("https://h.example/p?", ["uid"], "strip", "https://h.example/p?"),
    # an empty singular fragment
    ("https://h.example/p#", ["fragment"], "replace", "https://h.example/p#"),
    ("https://h.example/p#", ["fragment"], "strip", "https://h.example/p"),
    ("https://h.example/p#", [], "strip", "https://h.example/p#"),
    # a fragment or query stripped of every token loses its delimiter
    ("https://h.example/p#a=1&b=2", ["a", "b"], "strip",
     "https://h.example/p"),
    ("https://h.example/p#a=1&b=2", ["a"], "strip", "https://h.example/p#b=2"),
    ("https://h.example/p?a=1&b=2#f", ["a", "b"], "strip",
     "https://h.example/p#f"),
    # keys match decoded; a rewritten token keeps its raw key octets
    ("https://h.example/?u%69d=abcd&x=1", ["uid"], "replace",
     "https://h.example/?u%69d=2yW4&x=1"),
    ("https://h.example/?u%69d=abcd&x=1", ["uid"], "strip",
     "https://h.example/?x=1"),
    ("https://h.example/#u%69d=abcd&x=1", ["uid"], "replace",
     "https://h.example/#u%69d=2yW4&x=1"),
    # a path level under strip is replaced, not removed
    ("https://h.example/abcd/x?a=1", ["path|0", "a"], "strip",
     "https://h.example/2yW4/x"),
])
def test_sanitize_decoration_edge_cases(url, keys, mode, expected):
    out = urls.sanitize(url, "s", [_rule(k) for k in keys], mode=mode)
    assert out == expected


def test_sanitize_untouched_bytes_survive():
    url = "http://u@h.example:80/a%2Fb/c?keep=%20x&uid=1234#f%41"
    out = urls.sanitize(url, "s", [_rule("uid")], seed=0)
    assert out.startswith("http://u@h.example:80/a%2Fb/c?keep=%20x&uid=")
    assert out.endswith("#f%41")


def test_sanitize_scope_and_fqdn_matching():
    url = "https://t.h.example/?uid=12345678"
    hit = urls.sanitize(url, "site.a", [_rule("uid", fqdn="*.h.example")],
                        mode="strip")
    assert hit == "https://t.h.example/"
    miss = urls.sanitize(url, "site.a", [_rule("uid", fqdn="other.example")],
                         mode="strip")
    assert miss == url
    scoped = urls.sanitize(url, "site.a", [_rule("uid", scope="site.b")],
                           mode="strip")
    assert scoped == url


def test_sanitize_inapplicable_path_rule_audited():
    audit = []
    url = "https://h.example/a/x"
    out = urls.sanitize(url, "s", [_rule("path|5")], audit=audit)
    assert out == url
    assert len(audit) == 1


def test_sanitize_path_key_naming_no_level_is_not_audited():
    # parse_native accepts the key; it names no directory level, so the
    # audit skips it, and it still matches a query key spelled the same
    rules = filters.parse_native(io.StringIO(
        "# decoration-filter-list v1\n*\t*\tpath|x\treplace\t1.0\t\n"))
    audit = []
    url = "https://h.example/a/x?path|x=1234&b=1"
    out = urls.sanitize(url, "s", rules, mode="strip", audit=audit)
    assert out == "https://h.example/a/x?b=1"
    assert audit == []


@pytest.mark.parametrize("key", ["path|01", "path|+1", "path|\u0661",
                                 "path| 1", "path|"])
def test_sanitize_path_key_not_spelled_as_a_level_names_none(key):
    # decorations are named path|<i> with i in ASCII digits and no leading
    # zero; any other spelling rewrites no directory level and is never
    # reported as one, however shallow the URL
    rule = FilterRule("*", "*", key)
    for url in ("https://h.example/a/b/c/x", "https://h.example/x"):
        audit = []
        assert urls.sanitize(url, "s", [rule], audit=audit) == url
        assert audit == []
    audit = []
    out = urls.sanitize("https://h.example/x?b=1&" + key + "=1234", "s",
                        [rule], mode="strip", audit=audit)
    assert out == "https://h.example/x?b=1"
    assert audit == []


def test_sanitize_path_level_zero_and_ten_are_levels():
    audit = []
    url = "https://h.example/a/b/c/x"
    assert urls.sanitize(url, "s", [_rule("path|0")], seed=1) != url
    assert urls.sanitize(url, "s", [_rule("path|10")], audit=audit) == url
    assert audit == [f"inapplicable rule path|10 (URL depth 3): {url}"]


def test_sanitize_path_imports_no_numpy():
    src = Path(urls.__file__).resolve().parents[1]
    code = ("import sys, linkscrub.urls, linkscrub.filters; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_random_token_alphanumeric():
    rng = random.Random(0)
    tok = urls.random_token(rng, 64)
    assert len(tok) == 64
    assert tok.isalnum()


def test_build_url_escapes_delimiters():
    url = urls.build_url("https", "h.example", ["a b"], "r",
                         [("k&", "v=1")], "f#g")
    d = urls.decompose(url)
    assert decoded(d, "path") == [("path|0", "a b")]
    assert decoded(d, "query") == [("k&", "v=1")]
    assert decoded(d, "fragment") == [("fragment", "f#g")]
