import io
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from linkscrub.errors import InputError
from linkscrub.features import features_for_graph
from linkscrub.graph import build_full_graph
from linkscrub.trace import FORMAT_VERSION, dump_trace, parse_trace

HEADER = json.dumps({"format": FORMAT_VERSION})


def _lines(*events):
    out = [HEADER]
    for ev in events:
        out.append(json.dumps(ev))
    return out


def _event(seq, kind, **payload):
    return {"seq": seq, "kind": kind, "page_url": "https://w.s.example/",
            "site": "s.example", "actor": "document", "payload": payload}


def test_empty_stream_yields_empty_trace():
    t = parse_trace([])
    assert t.events == ()


def test_header_required():
    with pytest.raises(InputError) as exc:
        parse_trace([json.dumps(_event(1, "script_load", script_id="a"))])
    assert str(exc.value).startswith("line 1: ")


def test_parse_minimal_trace():
    t = parse_trace(_lines(
        _event(1, "script_load", script_id="a", url="https://c.example/x.js"),
        _event(2, "request", request_id="r1", url="https://t.example/p"),
        _event(3, "response", request_id="r1", status=200),
    ))
    assert len(t.events) == 3
    assert t.site == "s.example"
    assert t.trace_id == "s.example::https://w.s.example/"


def test_non_monotone_seq_rejected():
    with pytest.raises(InputError) as exc:
        parse_trace(_lines(
            _event(2, "script_load", script_id="a"),
            _event(2, "script_load", script_id="b"),
        ))
    assert str(exc.value).startswith("line 3: ")


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        parse_trace(_lines(_event(1, "teleport")))


def test_dangling_response_rejected():
    with pytest.raises(InputError) as exc:
        parse_trace(_lines(_event(1, "response", request_id="nope")))
    assert str(exc.value).startswith("line 2: ")


def test_dangling_redirect_rejected():
    with pytest.raises(InputError):
        parse_trace(_lines(
            _event(1, "redirect", from_request_id="nope",
                   request_id="r2", to_url="https://t.example/")))


def test_bad_store_rejected():
    with pytest.raises(InputError):
        parse_trace(_lines(
            _event(1, "storage_set", store="sessionStorage", key="k",
                   value="v")))


def test_invalid_json_names_line():
    with pytest.raises(InputError) as exc:
        parse_trace([HEADER, "{nope"])
    assert str(exc.value).startswith("line 2: ")


def test_site_mismatch_rejected():
    bad = _event(2, "script_load", script_id="b")
    bad["site"] = "other.example"
    with pytest.raises(InputError):
        parse_trace(_lines(_event(1, "script_load", script_id="a"), bad))


def test_dump_parse_round_trip(tb):
    t = (tb.script("s1")
         .set("s1", "cookie", "uid", "abc")
         .request("s1", "r1", "https://t.example/?uid=abc")
         .response("r1")
         .build())
    text = dump_trace(t)
    again = parse_trace(io.StringIO(text))
    assert again == t
    assert dump_trace(again) == text


def _reparse(t):
    """``t`` written out as a trace file and read back."""
    return parse_trace(dump_trace(t).splitlines())


def test_validate_reports_duplicate_seq():
    t = parse_trace(_lines(_event(1, "script_load", script_id="a")))
    twin = t.events[0]
    t = replace(t, events=(twin, twin._replace(kind="eval_script")))
    with pytest.raises(InputError, match=r"^line 3: seq 1 after 1$"):
        _reparse(t)


def test_validate_reports_empty_storage_key(tb):
    t = tb.set("s1", "cookie", "", "v").build()
    with pytest.raises(InputError, match=r": payload\.key is empty$"):
        _reparse(t)


def test_validate_reports_missing_required_field(tb):
    t = tb.add("request", url="https://t.example/").build()
    with pytest.raises(InputError,
                       match=r": payload\.request_id is missing$"):
        _reparse(t)


def test_validate_clean_trace(tb):
    t = (tb.script("s1")
         .request("s1", "r1", "https://t.example/x")
         .response("r1")
         .build())
    assert _reparse(t) == t


# one bad event last in each trace, and the message it must produce
MALFORMED = {
    "integer url": (
        [_event(1, "request", request_id="r1", url=42)],
        "payload.url must be a JSON string, got 42"),
    "seq true": (
        [{**_event(1, "script_load", script_id="a"), "seq": True}],
        "seq must be a JSON integer, got True"),
    "integer site": (
        [{**_event(1, "script_load", script_id="a"), "site": 7}],
        "site must be a JSON string, got 7"),
    "non-string storage value": (
        [_event(1, "storage_set", store="cookie", key="k", value=5)],
        "payload.value must be a JSON string, got 5"),
    "list payload": (
        [{**_event(1, "script_load"), "payload": ["a"]}],
        "payload must be a JSON object, got ['a']"),
    "dict request_id": (
        [_event(1, "request", request_id={"a": 1}, url="https://t.example/")],
        "payload.request_id must be a JSON string, got {'a': 1}"),
    "empty storage key": (
        [_event(1, "storage_set", store="cookie", key="", value="v")],
        "payload.key is empty"),
    "non-object set_storage entry": (
        [_event(1, "request", request_id="r1", url="https://t.example/"),
         _event(2, "response", request_id="r1", set_storage=["uid=1"])],
        "payload.set_storage[0] must be a JSON object, got 'uid=1'"),
    "lone surrogate in url": (
        [_event(1, "request", request_id="r1",
                url="https://t.example/?\udc80=1")],
        "payload.url must be a JSON string, "
        "got 'https://t.example/?\\udc80=1'"),
}


@pytest.mark.parametrize("events,message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_event_refused_by_parse_and_validate(events, message):
    with pytest.raises(InputError) as exc:
        parse_trace(_lines(*events))
    assert str(exc.value) == f"line {len(events) + 1}: {message}"


@pytest.mark.parametrize("lines,line_no", [
    (["[1]"], 1),
    ([HEADER, "7"], 2),
], ids=["list header", "number event"])
def test_line_that_is_not_an_object_rejected(lines, line_no):
    with pytest.raises(InputError) as exc:
        parse_trace(lines)
    assert str(exc.value).startswith(f"line {line_no}: ")


# -- properties: every JSON-lines input parses or is refused, and what parses
# writes back out as a trace that parses to the same text and is safe for the
# graph and feature stages

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_ID = "abcdefgh12345678"
_ids = st.sampled_from(["r1", "r2", "r3"])
_text = st.sampled_from(["", "short", _ID, f"uid={_ID}"]) | st.text(max_size=8)
_url = st.sampled_from([
    f"https://t.example/{_ID}/p?uid={_ID}&x#k={_ID}", "notaurl", "https://",
    "https://a.example:8/?", "https://a.example/%zz?&=#", f"https://t.example"
    f"/?{_ID}"]) | st.text(max_size=10).map(lambda s: "https://t.example/" + s)
_storage = st.fixed_dictionaries(
    {"store": st.sampled_from(["cookie", "localStorage"]),
     "key": st.sampled_from(["uid", "k"])},
    optional={"value": st.just(_ID) | _text})
_script = st.fixed_dictionaries({}, optional={
    "script_id": st.sampled_from(["s1", "s2"]), "url": _url,
    "length": st.integers(0, 2 ** 53 - 1)})
_request = st.fixed_dictionaries({"url": _url, "request_id": _ids})
_PAYLOADS = {
    "script_load": _script,
    "eval_script": _script,
    "storage_set": _storage,
    "storage_get": _storage,
    "request": _request,
    "element_request": _request,
    "response": st.fixed_dictionaries({"request_id": _ids}, optional={
        "status": st.integers(0, 599), "payload": _text,
        "set_storage": st.lists(_storage, max_size=2)}),
    "redirect": st.fixed_dictionaries(
        {"from_request_id": _ids, "request_id": _ids, "to_url": _url}),
    "element_create": st.fixed_dictionaries(
        {"element_id": st.just("img1")}, optional={"tag": st.just("img")}),
}
_KINDS = sorted(_PAYLOADS) + ["request", "storage_set"] * 2
_REFERENCE = {"response": "request_id", "redirect": "from_request_id"}


@st.composite
def _near_valid_lines(draw):
    """A header and well-formed events that reference only declared request
    ids; in half of the traces one field of one event is dropped or replaced
    by any JSON value."""
    n = draw(st.integers(0, 12))
    broken = draw(st.integers(1, max(n, 1)) | st.none())
    lines, declared = [HEADER], []
    for seq in range(1, n + 1):
        kind = draw(st.sampled_from(
            [k for k in _KINDS if declared or k not in _REFERENCE]))
        ev = _event(seq, kind, **draw(_PAYLOADS[kind]))
        p = ev["payload"]
        if kind in _REFERENCE:
            p[_REFERENCE[kind]] = draw(st.sampled_from(declared))
        if kind in ("request", "element_request", "redirect"):
            declared.append(p["request_id"])
        ev["actor"] = draw(st.sampled_from(["document", "s1", "img1"]))
        if seq == broken:
            target = draw(st.sampled_from([ev, p]))
            field = draw(st.sampled_from(sorted(target) + ["set_storage"]))
            if draw(st.booleans()):
                target.pop(field, None)
            else:
                target[field] = draw(_json)
        lines.append(json.dumps(ev))
    return lines


@settings(max_examples=300, deadline=None)
@given(_near_valid_lines() | st.lists(_json.map(json.dumps), max_size=4))
def test_any_json_lines_parse_or_raise_trace_parse_error(lines):
    try:
        parse_trace(lines)
    except InputError as exc:
        named = re.match(r"line (\d+): ", str(exc))
        assert named and 1 <= int(named.group(1)) <= len(lines), str(exc)


@settings(max_examples=300, deadline=None)
@given(_near_valid_lines())
def test_traces_that_parse_are_valid_and_safe_downstream(lines):
    try:
        t = parse_trace(lines)
    except InputError:
        return
    # text, not objects: a NaN drawn into an ignored field is not equal to
    # itself
    assert dump_trace(_reparse(t)) == dump_trace(t)
    features_for_graph(build_full_graph(t))
