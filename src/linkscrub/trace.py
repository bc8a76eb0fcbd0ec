"""Crawl-trace event format: parsing with validation, serialization.

The trace file is the public contract for adapters from real crawlers:
UTF-8, one JSON object per line, a ``{"format": 1}`` header line first, then
one event object per line. One trace covers one page load. ``ENVELOPE`` and
``PAYLOAD_FIELDS`` below are the one statement of every event's fields, their
JSON types and which are required; :func:`check_events` enforces them along
with the rules that span fields and events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (IO, Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Union)

from .errors import TraceParseError

FORMAT_VERSION = 1

STORES = frozenset({"cookie", "localStorage"})


# JSON type -> test of a decoded value. Exact type tests keep a JSON
# true/false, which Python reads as a bool, from counting as an integer.
# Integers beyond 2**53 are not exact in every JSON reader (RFC 7493) and
# overflow a float; a lone surrogate cannot be written back out as UTF-8.
JSON_TYPES: dict[str, Callable[[object], bool]] = {
    "string": lambda v: type(v) is str and (
        v.isascii() or not any("\ud800" <= c <= "\udfff" for c in v)),
    "integer": lambda v: type(v) is int and abs(v) < 2 ** 53,
    "object": lambda v: type(v) is dict or isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
}

# field -> (JSON type, required); fields not listed are allowed and ignored.
# A dict of fields is an object's type, [type] an array's.
ENVELOPE = {"seq": ("integer", True), "kind": ("string", True),
            "page_url": ("string", True), "site": ("string", True),
            "actor": ("string", True), "payload": ("object", True)}
_SCRIPT = {"script_id": ("string", False), "url": ("string", False),
           "length": ("integer", False)}
_STORAGE = {"store": ("string", True), "key": ("string", True),
            "value": ("string", False)}
_REQUEST = {"url": ("string", True), "request_id": ("string", True)}
PAYLOAD_FIELDS = {
    "script_load": _SCRIPT,
    "eval_script": _SCRIPT,
    "storage_set": _STORAGE,
    "storage_get": _STORAGE,
    "request": _REQUEST,
    "element_request": _REQUEST,
    "response": {"request_id": ("string", True), "status": ("integer", False),
                 "set_storage": ([_STORAGE], False),
                 "payload": ("string", False)},
    "redirect": {"from_request_id": ("string", True),
                 "request_id": ("string", True), "to_url": ("string", True)},
    "element_create": {"element_id": ("string", True),
                       "tag": ("string", False)},
}


class TraceEvent(NamedTuple):
    seq: int
    kind: str
    page_url: str
    site: str
    actor: str
    payload: Mapping

    def to_record(self) -> dict:
        return {**self._asdict(), "payload": dict(self.payload)}


@dataclass(frozen=True)
class Trace:
    site: str
    page_url: str
    events: tuple[TraceEvent, ...] = ()

    @property
    def trace_id(self) -> str:
        return f"{self.site}::{self.page_url}"


def _field(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _problems(value, jtype, path: str) -> list[str]:
    """A message for each way ``value``, found at ``path``, breaks
    ``jtype``: a JSON type name, a dict of an object's fields, or a
    one-element list for an array of such values."""
    if isinstance(jtype, str):
        if JSON_TYPES[jtype](value):
            return []
        return [f"{path} must be a JSON {jtype}, got {value!r:.40}"]
    if isinstance(jtype, list):
        if not JSON_TYPES["array"](value):
            return _problems(value, "array", path)
        return [problem for j, item in enumerate(value)
                for problem in _problems(item, jtype[0], f"{path}[{j}]")]
    if not JSON_TYPES["object"](value):
        return _problems(value, "object", path or "event")
    problems = []
    for name, (field_type, required) in jtype.items():
        if name not in value:
            if required:
                problems.append(f"{_field(path, name)} is missing")
        elif not (isinstance(field_type, str)  # the common case, made cheap
                  and JSON_TYPES[field_type](value[name])):
            problems += _problems(value[name], field_type, _field(path, name))
    if not problems and jtype is _STORAGE:  # storage events and entries
        if value["store"] not in STORES:
            problems.append(f"{path}.store {value['store']!r} "
                            f"is not one of {sorted(STORES)}")
        if not value["key"]:
            problems.append(f"{path}.key is empty")
    return problems


def check_events(events: Iterable[Mapping]) -> Iterator[tuple[int, str]]:
    """Yield ``(event index, message)`` for every broken invariant of
    ``events``, records as decoded from JSON, read one at a time. An event
    whose fields break the table gets no further checks. The trace's site is
    the first event's."""
    known_requests: set = set()
    last_seq = site = None
    for i, ev in enumerate(events):
        problems = _problems(ev, ENVELOPE, "")
        if not problems:
            kind = ev["kind"]
            if kind not in PAYLOAD_FIELDS:
                problems.append(f"unknown event kind {kind!r}")
            else:
                problems = _problems(ev["payload"], PAYLOAD_FIELDS[kind],
                                     "payload")
        if problems:
            yield from ((i, message) for message in problems)
            continue
        seq, p = ev["seq"], ev["payload"]
        if last_seq is not None and seq <= last_seq:
            yield i, f"seq {seq} after {last_seq}"
        last_seq = seq
        if site is None:
            site = ev["site"]
        elif ev["site"] != site:
            yield i, (f"event site {ev['site']!r} differs "
                      f"from trace site {site!r}")
        if kind in ("response", "redirect"):
            ref = p["request_id" if kind == "response" else "from_request_id"]
            if ref not in known_requests:
                yield i, f"{kind} references unknown request id {ref!r}"
        if kind in ("request", "element_request", "redirect"):
            known_requests.add(p["request_id"])


def parse_trace(stream: Union[IO[str], Iterable[str]]) -> Trace:
    """Parse one line-delimited trace.

    An empty stream yields an empty Trace. A line that is not JSON or nests
    deeper than the JSON reader can follow, a missing or wrong header, and
    the first event that breaks a rule of
    :func:`check_events` raise :class:`TraceParseError` with the offending
    line number.
    """
    records: list[dict] = []
    line_nos: list[int] = []

    def decoded() -> Iterator[dict]:
        header_seen = False
        for line_no, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(
                    f"invalid JSON ({exc.msg})", line_no) from exc
            except RecursionError as exc:
                raise TraceParseError(
                    "JSON nests too deeply", line_no) from exc
            if not header_seen:
                if not (isinstance(record, dict)
                        and type(record.get("format")) is int
                        and record["format"] == FORMAT_VERSION):
                    raise TraceParseError(
                        f"expected header {{\"format\": {FORMAT_VERSION}}}",
                        line_no)
                header_seen = True
                continue
            records.append(record)
            line_nos.append(line_no)
            yield record

    for index, message in check_events(decoded()):
        raise TraceParseError(message, line_nos[index])
    events = tuple(
        TraceEvent(r["seq"], r["kind"], r["page_url"], r["site"], r["actor"],
                   r["payload"]) for r in records)
    if not events:
        return Trace(site="", page_url="")
    return Trace(events[0].site, events[0].page_url, events)


def dump_trace(t: Trace) -> str:
    lines = [json.dumps({"format": FORMAT_VERSION})]
    for ev in t.events:
        lines.append(json.dumps(ev.to_record(), sort_keys=True))
    return "\n".join(lines) + "\n"


def write_trace(t: Trace, fh: IO[str]) -> None:
    fh.write(dump_trace(t))


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)
