"""Adversarial trace transforms for the evasion study.

Three transforms over the URLs carried in traces: random renaming of
query/fragment keys plus path reordering, splitting long decoration values
into 8-character chunks under suffixed keys, and combining all decorations of
a request into a single SHA-256 path decoration.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Callable, Optional

from .errors import UrlParseError
from .trace import Trace, TraceEvent
from .urls import (FRAGMENT_KIND, PATH_KIND, DecoratedUrl, RawDecoration,
                   decompose, random_token, raw_decorations, with_decorations)

_URL_FIELDS = {"request": "url", "element_request": "url",
               "redirect": "to_url"}

SPLIT_CHUNK = 8


def _map_urls(trace: Trace,
              fn: Callable[[DecoratedUrl, str, TraceEvent], str]) -> Trace:
    """Rewrite each event URL ``url`` that decomposes into ``d`` to
    ``fn(d, url, ev)``; an unparseable URL stays as it is."""
    events = []
    for ev in trace.events:
        field = _URL_FIELDS.get(ev.kind)
        if field and field in ev.payload:
            url = ev.payload[field]
            try:
                d = decompose(url)
            except UrlParseError:
                pass
            else:
                ev = ev._replace(payload={**ev.payload, field: fn(d, url, ev)})
        events.append(ev)
    return replace(trace, events=tuple(events))


def evade_rename(traces, seed: int = 0) -> list[Trace]:
    """Replace query/fragment keys with random tokens and permute the order
    of path directory levels; decoration values are untouched."""

    def transform(d: DecoratedUrl, url: str, ev: TraceEvent) -> str:
        rng = random.Random(f"rename|{seed}|{ev.site}|{ev.seq}|{url}")
        decs = raw_decorations(d)
        depth = len(d.raw_dir_segments)
        dirs = decs[:depth]
        rng.shuffle(dirs)
        return with_decorations(d, dirs + [
            dec if dec.bare
            else replace(dec, key=random_token(rng, max(1, len(dec.key))))
            for dec in decs[depth:]])

    return [_map_urls(t, transform) for t in traces]


def _chunks(value: str, size: int = SPLIT_CHUNK) -> list[str]:
    return [value[i:i + size] for i in range(0, len(value), size)]


def evade_split(traces) -> list[Trace]:
    """Split every decoration value longer than 8 characters into consecutive
    8-character chunks carried by suffixed sibling decorations."""

    def transform(d: DecoratedUrl, url: str, ev: TraceEvent) -> str:
        out = []
        for dec in raw_decorations(d):
            if len(dec.value) <= SPLIT_CHUNK:
                out.append(dec)
            elif dec.kind == PATH_KIND:
                out.extend(replace(dec, value=chunk)
                           for chunk in _chunks(dec.value))
            else:
                out.extend(RawDecoration(dec.kind, f"{dec.key}_{i}", chunk,
                                         False)
                           for i, chunk in enumerate(_chunks(dec.value)))
        return with_decorations(d, out)

    return [_map_urls(t, transform) for t in traces]


def combine_decorations(d: DecoratedUrl) -> Optional[str]:
    """SHA-256 hex of the canonical concatenation of a URL's decorations,
    or None when the URL carries no decorations."""
    # an empty singular fragment ("#") carries nothing to combine
    pairs = [f"{dec.key}={dec.value}" for dec in raw_decorations(d)
             if dec.value or not (dec.bare and dec.kind == FRAGMENT_KIND)]
    if not pairs:
        return None
    return hashlib.sha256("&".join(pairs).encode("utf-8")).hexdigest()


def evade_combine(traces) -> list[Trace]:
    """Replace all decorations of each request by a single path decoration
    holding the SHA-256 of their canonical concatenation."""

    def transform(d: DecoratedUrl, url: str, ev: TraceEvent) -> str:
        digest = combine_decorations(d)
        if digest is None:
            return url
        # unlike sanitize, a "?" without tokens goes too
        return with_decorations(replace(d, had_query=False), [
            RawDecoration(PATH_KIND, "path|0", digest, True)])

    return [_map_urls(t, transform) for t in traces]
