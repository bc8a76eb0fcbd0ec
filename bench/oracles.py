"""Checks written apart from linkscrub: a URL splitter that names link
decorations, a brute-force filter-rule matcher, and the sanitizer check.

The splitter follows the decoration model of the README: one decoration per
directory level (the resource name excluded), per query pair and per
fragment entry, where a fragment counts as key/value pairs only when every
'&'-separated token has an '='. Keys are percent-decoded once; values are
kept in wire form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from urllib.parse import unquote

# A matched value this long must change: a random replacement of 4 or more
# characters equals the original with a chance below 1 in 10 million.
MUST_CHANGE = 4


@dataclass
class SplitUrl:
    head: str  # scheme://authority
    fqdn: str
    dirs: list[str]
    resource: str
    had_path: bool
    query: Optional[list[str]]  # raw tokens; None when the URL has no '?'
    fragment: Optional[str]

    def join(self) -> str:
        out = self.head
        if self.had_path:
            out += "/" + "/".join(self.dirs + [self.resource])
        if self.query is not None:
            out += "?" + "&".join(self.query)
        if self.fragment is not None:
            out += "#" + self.fragment
        return out


@dataclass(frozen=True)
class Decoration:
    key: str
    raw: str  # value as it appears on the wire
    slot: tuple  # ("dir", i) | ("query", i) | ("frag", i) | ("fragment", 0)


def split_url(url: str) -> SplitUrl:
    scheme_end = url.index("://") + 3
    cut = min([p for p in (url.find(c, scheme_end) for c in "/?#")
               if p != -1] or [len(url)])
    head, rest = url[:cut], url[cut:]
    host = head[scheme_end:].rsplit("@", 1)[-1]
    if host.count(":") == 1 and (host.split(":")[1].isdigit()
                                 or host.endswith(":")):
        host = host.split(":")[0]
    fragment = None
    if "#" in rest:
        rest, fragment = rest.split("#", 1)
    query = None
    if "?" in rest:
        rest, query_text = rest.split("?", 1)
        query = query_text.split("&") if query_text else []
    dirs, resource = [], ""
    if rest:
        *dirs, resource = rest[1:].split("/")
    return SplitUrl(head, host.lower(), dirs, resource, bool(rest), query,
                    fragment)


def _pair(token: str) -> tuple[str, str]:
    key, _, value = token.partition("=")
    return unquote(key), value


def decorations(s: SplitUrl) -> list[Decoration]:
    out = [Decoration(f"path|{i}", d, ("dir", i))
           for i, d in enumerate(s.dirs)]
    for i, token in enumerate(s.query or ()):
        key, value = _pair(token)
        out.append(Decoration(key, value, ("query", i)))
    if s.fragment is not None:
        tokens = s.fragment.split("&")
        if s.fragment and all("=" in t for t in tokens):
            for i, token in enumerate(tokens):
                key, value = _pair(token)
                out.append(Decoration(key, value, ("frag", i)))
        else:
            out.append(Decoration("fragment", s.fragment, ("fragment", 0)))
    return out


def _set_raw(s: SplitUrl, slot: tuple, raw: str) -> None:
    kind, i = slot
    if kind == "dir":
        s.dirs[i] = raw
    elif kind == "query":
        s.query[i] = s.query[i].split("=", 1)[0] + "=" + raw
    elif kind == "frag":
        tokens = s.fragment.split("&")
        tokens[i] = tokens[i].split("=", 1)[0] + "=" + raw
        s.fragment = "&".join(tokens)
    else:
        s.fragment = raw


def rule_matches(rule, site: str, fqdn: str, key: str) -> bool:
    """A rule (anything with ``scope``, ``fqdn`` and ``key``) applies to a
    decoration when the keys are equal, the scope is ``*`` or the page's
    site, and the host pattern is ``*``, the exact host, or ``*.suffix``
    covering the suffix itself and its subdomains."""
    if rule.key != key or rule.scope not in ("*", site):
        return False
    if rule.fqdn == "*":
        return True
    if rule.fqdn.startswith("*."):
        return fqdn == rule.fqdn[2:] or fqdn.endswith(rule.fqdn[1:])
    return fqdn == rule.fqdn


def matched_decorations(url: str, site: str, rules_by_key: dict) -> set[int]:
    """Indexes of the decorations of ``url`` that some rule applies to.
    ``rules_by_key`` maps a key to every rule naming it; rules of other keys
    can never match, so the scan over each bucket is exhaustive."""
    s = split_url(url)
    return {i for i, d in enumerate(decorations(s))
            if any(rule_matches(r, site, s.fqdn, d.key)
                   for r in rules_by_key.get(d.key, ()))}


def changed_decorations(url_in: str, url_out: str) -> set[int]:
    """Indexes of the decorations whose decoded value differs between two
    URLs with the same decorations."""
    return {i for i, (x, y) in enumerate(zip(decorations(split_url(url_in)),
                                             decorations(split_url(url_out))))
            if unquote(x.raw) != unquote(y.raw)}


def check_sanitized(url_in: str, url_out: str,
                    matched: set[int]) -> Optional[str]:
    """None when ``url_out`` is a sound replace-mode rewrite of ``url_in``:
    matched decorations keep their decoded length, and those of at least
    ``MUST_CHANGE`` decoded characters get another value; the others are
    byte-identical; and putting the input's raw values back into the output
    rebuilds the input exactly. Otherwise a description of the fault."""
    a, b = split_url(url_in), split_url(url_out)
    da, db = decorations(a), decorations(b)
    if len(da) != len(db):
        return f"{len(da)} decorations became {len(db)}"
    for i, (x, y) in enumerate(zip(da, db)):
        old, new = unquote(x.raw), unquote(y.raw)
        if i in matched:
            if len(new) != len(old):
                return f"decoration {x.key} changed length"
            if len(old) >= MUST_CHANGE and new == old:
                return f"matched decoration {x.key} kept its value"
        elif y.raw != x.raw:
            return f"unmatched decoration {x.key} changed"
    for x, y in zip(da, db):
        _set_raw(b, y.slot, x.raw)
    if b.join() != url_in:
        return "bytes outside the rewritten values changed"
    return None
