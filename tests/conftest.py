"""Shared trace-building and feature-vector helpers for the test suite."""

import pytest

from linkscrub.features import FEATURE_NAMES
from linkscrub.trace import Trace, TraceEvent
from linkscrub.urls import name_decorations


def named(fv):
    """A feature vector as a dict from feature name to value."""
    return dict(zip(FEATURE_NAMES, fv))


def decoded(d, kind):
    """``(key, value)`` of each ``kind`` decoration of the decomposed URL
    ``d``, in URL order, as ``name_decorations`` decodes them."""
    return [(dec.id.key, dec.value) for dec, _ in name_decorations(d, "s")
            if dec.kind == kind]


class TraceBuilder:
    """Incremental trace construction with automatic seq numbering."""

    def __init__(self, site="site.example", page_url=None):
        self.site = site
        self.page_url = page_url or f"https://www.{site}/"
        self.events = []
        self.seq = 0

    def add(self, kind, actor="document", **payload):
        self.seq += 1
        self.events.append(TraceEvent(
            seq=self.seq, kind=kind, page_url=self.page_url,
            site=self.site, actor=actor, payload=payload))
        return self

    def script(self, script_id, url="https://cdn.example/s.js", length=100,
               actor="document"):
        return self.add("script_load", actor=actor, script_id=script_id,
                        url=url, length=length)

    def set(self, actor, store, key, value):
        return self.add("storage_set", actor=actor, store=store, key=key,
                        value=value)

    def get(self, actor, store, key, value=None):
        payload = {"store": store, "key": key}
        if value is not None:
            payload["value"] = value
        return self.add("storage_get", actor=actor, **payload)

    def request(self, actor, request_id, url):
        return self.add("request", actor=actor, request_id=request_id,
                        url=url)

    def response(self, request_id, status=200, payload_text="",
                 set_storage=None):
        return self.add("response", request_id=request_id, status=status,
                        payload=payload_text, set_storage=set_storage or [])

    def build(self):
        return Trace(site=self.site, page_url=self.page_url,
                     events=tuple(self.events))


@pytest.fixture
def tb():
    return TraceBuilder()


# per-criterion pass/fail lines reported by the acceptance suite; printed in
# the terminal summary because fd-level capture hides in-test writes
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
