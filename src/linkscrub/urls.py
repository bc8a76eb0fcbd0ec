"""URL decomposition into named link decorations, byte-exact reassembly,
and rule-driven sanitization.

A decorated URL is held only in its wire form, the original octets of each
component, so that reassembly of an unmodified decomposition reproduces the
input byte for byte and sanitization touches only the bytes of the
decorations it rewrites. A decoration's key and value are decoded from its
wire record when they are read.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional
from urllib.parse import quote, unquote

from .errors import InputError

PATH_KIND = "path"
QUERY_KIND = "query"
FRAGMENT_KIND = "fragment"
KINDS = (PATH_KIND, QUERY_KIND, FRAGMENT_KIND)  # in URL order

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.\-]*)://")
_REPLACEMENT_ALPHABET = string.ascii_letters + string.digits

# characters that never need escaping when we synthesize a new token
_TOKEN_SAFE = "-._~!$'()*+,;:@"


class DecorationId(NamedTuple):
    """Identity of a link decoration: (site, fqdn, key).

    ``key`` is the query/fragment key, ``path|<i>`` for the i-th directory
    level counted from the root, or ``fragment`` for a singular fragment.
    Values never participate in identity.
    """

    site: str
    fqdn: str
    key: str

    def __str__(self) -> str:
        return f"{self.fqdn}|{self.key}"


class LinkDecoration(NamedTuple):
    id: DecorationId
    kind: str  # path | query | fragment
    value: str  # percent-decoded once
    position: int  # ordinal within its kind


@dataclass(frozen=True)
class DecoratedUrl:
    scheme: str
    fqdn: str  # lowercase hostname
    raw_authority: str
    raw_dir_segments: tuple[str, ...]  # directory levels, resource excluded
    raw_resource: str
    raw_query_tokens: tuple[str, ...]  # order & duplicates preserved
    raw_fragment: Optional[str]
    had_path: bool
    had_query: bool

    @property
    def fragment_is_kv(self) -> bool:
        """A fragment is ``key=value`` pairs when every ``&`` token holds
        ``=``; otherwise it is one singular value."""
        return self.raw_fragment is not None and all(
            "=" in t for t in self.raw_fragment.split("&"))


@dataclass(frozen=True)
class RawDecoration:
    """Original octets of one decoration, as listed by :func:`raw_decorations`.

    ``key`` is the raw query/fragment key, or ``path|<i>`` / ``fragment`` for
    a path level / singular fragment. ``bare`` marks a component written
    without ``=``: a path level or singular fragment (written as ``value``)
    and a key-only query token (written as ``key``, ``value`` empty).
    """

    kind: str
    key: str
    value: str
    bare: bool

    @property
    def decoded_key(self) -> str:
        """The key rules name: a path level or singular fragment keeps its
        name, and any other key is percent-decoded once."""
        if self.bare and self.kind != QUERY_KIND:
            return self.key
        return _decode(self.key)

    @property
    def decoded_value(self) -> str:
        """The value, percent-decoded once."""
        return _decode(self.value)


def _decode(text: str) -> str:
    """One round of percent-decoding; malformed escapes are left alone."""
    return unquote(text, errors="replace")


def _encode_token(value: str) -> str:
    """Percent-encode a synthesized component value (delimiters only)."""
    return quote(value, safe=_TOKEN_SAFE)


def decompose(url: str) -> DecoratedUrl:
    """Decompose ``url`` into a :class:`DecoratedUrl`.

    Raises :class:`~linkscrub.errors.InputError` for URLs without a scheme or
    host, quoting the URL's start.
    """
    m = _SCHEME_RE.match(url)
    if not m:
        raise InputError(f"no scheme://: {url[:40]!r}")
    scheme = m.group(1)
    rest = url[m.end():]

    cut = len(rest)
    for ch in "/?#":
        pos = rest.find(ch)
        if pos != -1:
            cut = min(cut, pos)
    raw_authority, rest = rest[:cut], rest[cut:]

    host = raw_authority
    if "@" in host:
        host = host.rsplit("@", 1)[1]
    if host.count(":") == 1:
        maybe_host, maybe_port = host.rsplit(":", 1)
        if maybe_port.isdigit() or maybe_port == "":
            host = maybe_host
    if not host:
        raise InputError(f"missing host in {url[:60]!r}")
    fqdn = host.lower()

    raw_fragment: Optional[str] = None
    if "#" in rest:
        rest, raw_fragment = rest.split("#", 1)

    had_query = "?" in rest
    raw_query_text = ""
    if had_query:
        rest, raw_query_text = rest.split("?", 1)

    had_path = rest != ""
    raw_dir_segments: tuple[str, ...] = ()
    raw_resource = ""
    if had_path:
        parts = rest[1:].split("/")  # rest always starts with "/"
        raw_dir_segments = tuple(parts[:-1])
        raw_resource = parts[-1]

    raw_query_tokens: tuple[str, ...] = ()
    if had_query and raw_query_text != "":
        raw_query_tokens = tuple(raw_query_text.split("&"))

    return DecoratedUrl(
        scheme=scheme,
        fqdn=fqdn,
        raw_authority=raw_authority,
        raw_dir_segments=raw_dir_segments,
        raw_resource=raw_resource,
        raw_query_tokens=raw_query_tokens,
        raw_fragment=raw_fragment,
        had_path=had_path,
        had_query=had_query,
    )


def reassemble(d: DecoratedUrl) -> str:
    out = [d.scheme, "://", d.raw_authority]
    if d.had_path:
        out.append("/")
        out.append("/".join(d.raw_dir_segments + (d.raw_resource,)))
    if d.had_query:
        out.append("?")
        out.append("&".join(d.raw_query_tokens))
    if d.raw_fragment is not None:
        out.append("#")
        out.append(d.raw_fragment)
    return "".join(out)


def raw_decorations(d: DecoratedUrl) -> list[RawDecoration]:
    """The decorations of ``d`` in URL order: one per directory level
    (resource name excluded), per query token, and per fragment pair or
    singular fragment."""
    decs = [RawDecoration(PATH_KIND, f"path|{i}", seg, True)
            for i, seg in enumerate(d.raw_dir_segments)]
    tokens = [(QUERY_KIND, t) for t in d.raw_query_tokens]
    if d.fragment_is_kv:
        tokens += [(FRAGMENT_KIND, t) for t in d.raw_fragment.split("&")]
    for kind, token in tokens:
        key, eq, value = token.partition("=")
        decs.append(RawDecoration(kind, key, value, not eq))
    if d.raw_fragment is not None and not d.fragment_is_kv:
        decs.append(RawDecoration(FRAGMENT_KIND, "fragment", d.raw_fragment,
                                  True))
    return decs


def name_decorations(d: DecoratedUrl,
                     site: str) -> list[tuple[LinkDecoration, RawDecoration]]:
    """``(LinkDecoration, RawDecoration)`` for each decoration of ``d`` in
    URL order: its id following the ``fqdn|key`` scheme with the originating
    site recorded, its decoded value and its position counted within its
    kind, paired with the wire record they were decoded from."""
    return [(LinkDecoration(DecorationId(site, d.fqdn, raw.decoded_key),
                            kind, raw.decoded_value, i), raw)
            for kind, group in groupby(raw_decorations(d),
                                       lambda raw: raw.kind)
            for i, raw in enumerate(group)]


def with_decorations(d: DecoratedUrl, decs) -> str:
    """Reassemble ``d`` with its decorations replaced by ``decs``.

    Everything outside the decorations keeps its original octets. A query or
    fragment left without decorations loses its ``?`` / ``#``; a ``?`` that
    carried no tokens to begin with stays.
    """
    dirs: list[str] = []
    query: list[str] = []
    fragment: list[str] = []
    wire = {PATH_KIND: dirs, QUERY_KIND: query, FRAGMENT_KIND: fragment}
    for dec in decs:
        if not dec.bare:
            text = f"{dec.key}={dec.value}"
        else:
            text = dec.key if dec.kind == QUERY_KIND else dec.value
        wire[dec.kind].append(text)
    return reassemble(replace(
        d,
        raw_dir_segments=tuple(dirs),
        raw_query_tokens=tuple(query),
        raw_fragment="&".join(fragment) if fragment else None,
        had_path=d.had_path or bool(dirs),
        had_query=d.had_query and (bool(query) or not d.raw_query_tokens),
    ))


def build_url(scheme: str, fqdn: str, dir_segments=(), resource_name: str = "",
              query_params=(), fragment=None) -> str:
    """Construct a URL from decoded components (used by generators)."""
    out = [scheme, "://", fqdn]
    dir_segments = tuple(dir_segments)
    if dir_segments or resource_name:
        out.append("/")
        out.append("/".join(
            [_encode_token(s) for s in dir_segments]
            + [_encode_token(resource_name)]))
    query_params = tuple(query_params)
    if query_params:
        out.append("?")
        out.append("&".join(
            f"{_encode_token(k)}={_encode_token(v)}" for k, v in query_params))
    if fragment is not None:
        out.append("#")
        if isinstance(fragment, str):
            out.append(_encode_token(fragment))
        else:
            out.append("&".join(
                f"{_encode_token(k)}={_encode_token(v)}" for k, v in fragment))
    return "".join(out)


def random_token(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_REPLACEMENT_ALPHABET) for _ in range(length))


def fqdn_pattern_matches(pattern: str, fqdn: str) -> bool:
    """Exact hostname, ``*`` (any), or ``*.suffix`` (subdomains and the suffix)."""
    if pattern == "*":
        return True
    if pattern.startswith("*."):
        suffix = pattern[2:]
        return fqdn == suffix or fqdn.endswith("." + suffix)
    return fqdn == pattern


class RuleIndex(tuple):
    """An immutable sequence of sanitization rules (anything with ``scope``,
    ``fqdn`` and ``key``), indexed once by key, then by fqdn pattern.

    A lookup tries the exact fqdn, then ``*.`` plus each of its label
    suffixes, then ``*``, and checks the scope last.
    """

    def __new__(cls, rules=()):
        self = super().__new__(cls, rules)
        self._by_key = {}
        for pos, rule in enumerate(self):
            self._by_key.setdefault(rule.key, {}).setdefault(
                rule.fqdn, []).append((pos, rule))
        self._path_levels = [(level, key) for key in self._by_key
                             if (level := _path_level(key)) is not None]
        return self

    def matching(self, site: str, fqdn: str, key: str):
        """``(position, rule)`` of each rule for ``key`` whose fqdn pattern
        covers ``fqdn`` and whose scope is ``*`` or ``site``."""
        by_fqdn = self._by_key.get(key)
        if by_fqdn is None:
            return
        for pattern in fqdn_patterns(fqdn):
            for pos, rule in by_fqdn.get(pattern, ()):
                if rule.scope == "*" or rule.scope == site:
                    yield pos, rule

    def inapplicable(self, site: str, fqdn: str, depth: int) -> list:
        """The ``path|<i>`` rules matching ``site`` and ``fqdn`` that name a
        level ``depth`` or deeper, in rule order."""
        hits = [hit for level, key in self._path_levels if level >= depth
                for hit in self.matching(site, fqdn, key)]
        return [rule for _, rule in sorted(hits, key=itemgetter(0))]


def _path_level(key: str) -> Optional[int]:
    """The directory level a ``path|<i>`` rule key names, or None.
    Decorations are named with ``i`` in ASCII digits and no leading zero, so
    only that spelling names a level: ``path|01`` or ``path|+1`` names none.
    """
    level = key[len("path|"):] if key.startswith("path|") else ""
    if level.isascii() and level.isdigit() and (
            level == "0" or not level.startswith("0")):
        return int(level)
    return None


def fqdn_patterns(fqdn: str):
    """Each fqdn pattern that :func:`fqdn_pattern_matches` ``fqdn``, once."""
    if fqdn != "*" and not fqdn.startswith("*."):
        # a host written as a pattern is reached as the pattern below
        yield fqdn
    yield "*." + fqdn
    dot = fqdn.find(".")
    while dot != -1:
        yield "*." + fqdn[dot + 1:]
        dot = fqdn.find(".", dot + 1)
    yield "*"


def sanitize(url: str, site: str, rules, mode: str = "replace",
             seed: int = 0, audit: Optional[list] = None) -> str:
    """Apply sanitization ``rules`` to ``url``.

    ``rules`` is a :class:`RuleIndex`, or any iterable of rules, indexed on
    each call. Every decoration matched by a rule has its value replaced by a
    seeded-random alphanumeric string of equal length (``replace`` mode) or is
    removed (``strip`` mode, query/fragment only; path levels are always
    replaced to preserve URL shape). Unmatched decorations stay byte-identical
    and the output is deterministic for a fixed seed.

    Rules naming ``path|i`` beyond the URL's depth are silently inapplicable;
    an entry is appended to ``audit`` when one is skipped.
    """
    if mode not in ("replace", "strip"):
        raise ValueError(f"unknown sanitize mode: {mode}")
    d = decompose(url)
    index = rules if isinstance(rules, RuleIndex) else RuleIndex(rules)
    rng = random.Random(seed)

    if audit is not None:
        depth = len(d.raw_dir_segments)
        audit.extend(
            f"inapplicable rule {rule.key} (URL depth {depth}): {url}"
            for rule in index.inapplicable(site, d.fqdn, depth))

    out: list[RawDecoration] = []
    for raw in raw_decorations(d):
        if not any(index.matching(site, d.fqdn, raw.decoded_key)):
            out.append(raw)
        elif mode == "replace" or raw.kind == PATH_KIND:
            token = _encode_token(random_token(rng, len(raw.decoded_value)))
            # a key-only query token gains its "="
            out.append(replace(raw, value=token,
                               bare=raw.bare and raw.kind != QUERY_KIND))
    return with_decorations(d, out)
