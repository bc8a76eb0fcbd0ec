"""Crawl-trace event format: parsing with validation, serialization.

The trace file is the public contract for adapters from real crawlers:
UTF-8, one JSON object per line, a ``{"format": 1}`` header line first, then
one event object per line. One trace covers one page load. ``ENVELOPE`` and
``PAYLOAD_FIELDS`` below are the one statement of every event's fields, their
JSON types and which are required; :func:`parse_trace` enforces them along
with the rules that span fields and events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Mapping, NamedTuple, Union

from .errors import InputError

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
    "object": lambda v: type(v) is dict,
    "array": lambda v: type(v) is list,
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


def parse_trace(stream: Union[IO[str], Iterable[str]]) -> Trace:
    """Parse and check one line-delimited trace, one line at a time.

    An empty stream yields an empty Trace. The first line that is not JSON or
    nests deeper than the JSON reader can follow, is not the header, breaks
    ``ENVELOPE`` or ``PAYLOAD_FIELDS``, or breaks a rule across events (rising
    ``seq``, the first event's site, a response or redirect naming an earlier
    request) raises :class:`~linkscrub.errors.InputError` naming that line.
    """
    events: list[TraceEvent] = []
    known_requests: set = set()
    header_seen = False
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"line {line_no}: invalid JSON ({exc.msg})") from exc
        except RecursionError as exc:
            raise InputError(f"line {line_no}: JSON nests too deeply") from exc
        if not header_seen:
            if not (isinstance(ev, dict) and type(ev.get("format")) is int
                    and ev["format"] == FORMAT_VERSION):
                raise InputError(f"line {line_no}: expected header "
                                 f"{{\"format\": {FORMAT_VERSION}}}")
            header_seen = True
            continue
        problems = _problems(ev, ENVELOPE, "")
        if not problems:
            kind, p = ev["kind"], ev["payload"]
            if kind not in PAYLOAD_FIELDS:
                problems.append(f"unknown event kind {kind!r}")
            else:
                problems = _problems(p, PAYLOAD_FIELDS[kind], "payload")
        if not problems and events:
            if ev["seq"] <= events[-1].seq:
                problems.append(f"seq {ev['seq']} after {events[-1].seq}")
            elif ev["site"] != events[0].site:
                problems.append(f"event site {ev['site']!r} differs "
                                f"from trace site {events[0].site!r}")
        if not problems and kind in ("response", "redirect"):
            ref = p["request_id" if kind == "response" else "from_request_id"]
            if ref not in known_requests:
                problems.append(
                    f"{kind} references unknown request id {ref!r}")
        if problems:
            raise InputError(f"line {line_no}: {problems[0]}")
        if kind in ("request", "element_request", "redirect"):
            known_requests.add(p["request_id"])
        events.append(TraceEvent(ev["seq"], kind, ev["page_url"], ev["site"],
                                 ev["actor"], p))
    if not events:
        return Trace(site="", page_url="")
    return Trace(events[0].site, events[0].page_url, tuple(events))


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
