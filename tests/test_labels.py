import io

import pytest

from linkscrub import labels as L
from linkscrub.errors import InputError
from linkscrub.graph import build_full_graph
from linkscrub.urls import DecorationId

from conftest import TraceBuilder


def test_parse_request_rules_host_anchor_and_substring():
    rules = L.parse_request_rules([
        "! comment", "", "||tracker.example^", "/pixel/"])
    assert len(rules) == 2
    assert rules[0].host_anchor == "tracker.example"
    assert rules[1].host_anchor is None


@pytest.mark.parametrize("line", [
    "example.com##.ad", "#@#foo", "@@||good.example^", "||x.example^$script",
    "||^", "||noanchor"])
def test_parse_request_rules_rejects_unsupported(line):
    with pytest.raises(InputError):
        L.parse_request_rules([line])


def test_match_request_filter():
    index = L.RequestRuleIndex(
        L.parse_request_rules(["||tracker.example^", "/adimg/"]))
    assert index.matches("https://a.tracker.example/x", "a.tracker.example")
    assert index.matches("https://tracker.example/x", "tracker.example")
    assert index.matches("https://nottracker.example.org/adimg/b.gif",
                         "nottracker.example.org")
    assert not index.matches("https://clean.example/x", "clean.example")


def test_cookie_purpose_specific_beats_global():
    db = L.parse_cookie_purpose_db([
        "*,uid,advertising",
        "shop.example,uid,functional",
        "# comment",
    ])
    assert L.cookie_purpose(db, "shop.example", "uid") == "functional"
    assert L.cookie_purpose(db, "other.example", "uid") == "advertising"
    assert L.cookie_purpose(db, "shop.example", "nope") is None


def test_cookie_purpose_db_rejects_unknown_purpose():
    with pytest.raises(InputError):
        L.parse_cookie_purpose_db(["*,uid,surveillance"])


def test_curated_list_parse():
    entries = L.parse_curated_list(["a.example|uid", "*|gclid", "# c"])
    assert entries[0].fqdn == "a.example"
    assert entries[1].fqdn == "*"
    with pytest.raises(InputError):
        L.parse_curated_list(["no-separator"])


def _graphs():
    # one flagged tracker exfiltrating an advertising cookie, one clean request
    t = (TraceBuilder(site="s.example")
         .set("s1", "cookie", "_uid", "abcdefgh")
         .request("s1", "r1", "https://trk.example/p?uid=abcdefgh")
         .request("s1", "r2", "https://cdn.s.example/img?w=300")
         .build())
    return [build_full_graph(t)]


def test_label_precedence_and_unknown():
    rules = L.parse_request_rules(["||trk.example^"])
    purposes = L.parse_cookie_purpose_db(["*,_uid,advertising"])
    labeled = {str(x.id): x for x in L.label_decorations(
        _graphs(), rules, purposes)}
    assert labeled["trk.example|uid"].label == L.ATS
    assert labeled["cdn.s.example|w"].label == L.NON_ATS
    # functional cookie -> no ATS source, tracker request -> not NonATS
    neutral = L.label_decorations(
        _graphs(), rules, L.parse_cookie_purpose_db(["*,_uid,functional"]))
    by_id = {str(x.id): x for x in neutral}
    assert by_id["trk.example|uid"].label == L.UNKNOWN


def test_curated_hit_wins_over_clean_request_with_conflict():
    purposes = ()
    curated = L.parse_curated_list(["cdn.s.example|w"])
    rules = L.parse_request_rules(["||trk.example^"])
    conflicts = []
    labeled = {str(x.id): x for x in L.label_decorations(
        _graphs(), rules, purposes, curated, conflicts)}
    assert labeled["cdn.s.example|w"].label == L.ATS
    assert "request-filter-clean" in labeled["cdn.s.example|w"].provenance
    assert len(conflicts) == 1


def test_provenance_merges_across_graphs():
    rules = L.parse_request_rules(["||trk.example^"])
    purposes = L.parse_cookie_purpose_db(["*,_uid,analytics"])
    curated = L.parse_curated_list(["trk.example|uid"])
    labeled = {str(x.id): x for x in L.label_decorations(
        _graphs() + _graphs(), rules, purposes, curated)}
    assert labeled["trk.example|uid"].provenance == (
        "cookie-purpose", "curated")


def test_labels_csv_round_trip_with_comma_key():
    items = [
        L.LabeledDecoration(
            DecorationId("s.example", "t.example", "a,b"), L.ATS,
            ("curated",)),
        L.LabeledDecoration(
            DecorationId("s.example", "t.example", "plain"), L.NON_ATS, ()),
    ]
    buf = io.StringIO()
    L.write_labels(items, buf)
    buf.seek(0)
    assert L.read_labels(buf) == items


def test_read_labels_rejects_bad_header():
    with pytest.raises(InputError):
        L.read_labels(io.StringIO("wrong,header\n"))
