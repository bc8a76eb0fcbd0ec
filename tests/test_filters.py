import io

import pytest

from linkscrub import filters
from linkscrub.errors import InputError
from linkscrub.urls import DecorationId


def _pred(site, fqdn, key, score, kind="query"):
    return filters.Prediction(DecorationId(site, fqdn, key), kind, score)


def test_emit_list_shared_identity_collapses_to_star_scope():
    preds = [
        _pred("a.example", "tracker.example", "uid", 0.9),
        _pred("b.example", "tracker.example", "uid", 0.8),
    ]
    rules = filters.emit_filter_list(preds, threshold=0.5)
    assert len(rules) == 1
    assert rules[0].scope == "*"
    assert rules[0].score == 0.9


def test_emit_list_partial_identity_stays_site_scoped():
    preds = [
        _pred("a.example", "tracker.example", "uid", 0.9),
        _pred("b.example", "tracker.example", "uid", 0.2),
    ]
    rules = filters.emit_filter_list(preds, threshold=0.5)
    assert [(r.scope, r.key) for r in rules] == [("a.example", "uid")]


def test_emit_list_empty_when_nothing_over_threshold():
    preds = [_pred("a.example", "t.example", "uid", 0.4)]
    assert filters.emit_filter_list(preds, threshold=0.5) == ()


def test_emit_list_threshold_zero_counts_identities():
    preds = [
        _pred("a.example", "t.example", "uid", 0.1),
        _pred("a.example", "t.example", "uid", 0.2),  # duplicate identity
        _pred("a.example", "t.example", "other", 0.0),
        _pred("a.example", "u.example", "uid", 0.3),
    ]
    rules = filters.emit_filter_list(preds, threshold=0.0)
    assert len(rules) == 3


def test_emit_list_ordering_deterministic():
    preds = [
        _pred("b.example", "z.example", "k", 0.9),
        _pred("b.example", "a.example", "k", 0.9),
        _pred("a.example", "z.example", "b", 0.9),
        _pred("a.example", "z.example", "b", 0.2),  # same id, keeps max only
    ]
    rules = filters.emit_filter_list(preds, threshold=0.5)
    assert [(r.scope, r.fqdn, r.key) for r in rules] == [
        ("*", "a.example", "k"), ("*", "z.example", "b"),
        ("*", "z.example", "k")]


def test_native_format_round_trip():
    rules = filters.emit_filter_list(
        [_pred("a.example", "t.example", "uid", 0.75),
         _pred("a.example", "t.example", "path|1", 1.0, kind="path")],
        threshold=0.5, model_version="1")
    buf = io.StringIO()
    filters.write_native(rules, buf)
    buf.seek(0)
    assert filters.parse_native(buf) == rules


def test_parse_native_rejects_bad_header_fields_action_score():
    with pytest.raises(InputError):
        filters.parse_native(io.StringIO("no header\n"))
    head = "# decoration-filter-list v1\n"
    with pytest.raises(InputError):
        filters.parse_native(io.StringIO(head + "a\tb\tc\n"))
    with pytest.raises(InputError):
        filters.parse_native(io.StringIO(
            head + "*\tf\tk\tdelete\t0.5\tm\n"))
    with pytest.raises(InputError):
        filters.parse_native(io.StringIO(
            head + "*\tf\tk\treplace\t1.5\tm\n"))


def test_parse_native_reads_strip_as_replace():
    # the fourth column is checked, not kept: sanitize's mode decides
    rules = filters.parse_native(io.StringIO(
        "# decoration-filter-list v1\n*\tf\tk\tstrip\t0.5\tm\n"))
    assert list(rules) == [filters.FilterRule("*", "f", "k", 0.5, "m")]
    buf = io.StringIO()
    filters.write_native(rules, buf)
    assert buf.getvalue().splitlines()[-1] == "*\tf\tk\treplace\t0.5\tm"


def test_export_adblock_query_rules():
    rules = [
        filters.FilterRule("*", "tracker.example", "gclid"),
        filters.FilterRule("*", "*", "fbclid"),
    ]
    out = filters.export_adblock(rules)
    assert "||tracker.example^$removeparam=gclid\n" in out
    assert "$removeparam=fbclid\n" in out


def test_export_adblock_sidecar_for_path_and_fragment():
    rules = [
        filters.FilterRule("*", "t.example", "path|2"),
        filters.FilterRule("*", "t.example", "fragment"),
        filters.FilterRule("*", "t.example", "uid"),
    ]
    warnings = []
    out = filters.export_adblock(rules, warnings)
    assert len(warnings) == 2
    sidecar = [line for line in out.splitlines()
               if line.startswith("! unsupported:")]
    assert len(sidecar) == 2
    assert "||t.example^$removeparam=uid\n" in out


@pytest.mark.parametrize("key", ["a,b$x", "a,b", "x$y"])
def test_export_adblock_sidecar_for_keys_with_option_separators(key):
    warnings = []
    out = filters.export_adblock(
        [filters.FilterRule("*", "t.example", key)], warnings)
    assert out == ("! --- rules outside the removeparam dialect ---\n"
                   f"! unsupported: *\tt.example\t{key}\n")
    assert warnings == [f"rule t.example|{key} not expressible as removeparam"]


@pytest.mark.parametrize("scope,fqdn,line", [
    ("site0001.example", "a.trk0.example",
     "||a.trk0.example^$removeparam=uid,domain=site0001.example"),
    ("*", "*.trk0.example", "||trk0.example^$removeparam=uid"),
    ("site0001.example", "*", "$removeparam=uid,domain=site0001.example"),
])
def test_export_adblock_anchors_host_and_scopes_site(scope, fqdn, line):
    out = filters.export_adblock([filters.FilterRule(scope, fqdn, "uid")])
    assert out == line + "\n"


def test_export_adblock_empty():
    assert filters.export_adblock([]) == ""
