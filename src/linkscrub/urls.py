"""URL decomposition into named link decorations, byte-exact reassembly,
and rule-driven sanitization.

A decorated URL is modeled both at the value level (percent-decoded once) and
at the wire level (the original octets of each component), so that reassembly
of an unmodified decomposition reproduces the input byte for byte and
sanitization touches only the bytes of the decorations it rewrites.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, replace
from typing import Optional, Union
from urllib.parse import quote, unquote

from .errors import UrlParseError

PATH_KIND = "path"
QUERY_KIND = "query"
FRAGMENT_KIND = "fragment"

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.\-]*)://")
_REPLACEMENT_ALPHABET = string.ascii_letters + string.digits

# characters that never need escaping when we synthesize a new token
_TOKEN_SAFE = "-._~!$'()*+,;:@"


@dataclass(frozen=True)
class DecorationId:
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


@dataclass(frozen=True)
class LinkDecoration:
    id: DecorationId
    kind: str  # path | query | fragment
    value: str  # percent-decoded once
    position: int  # ordinal within its kind


@dataclass(frozen=True)
class DecoratedUrl:
    scheme: str
    fqdn: str  # lowercase hostname
    path_segments: tuple[str, ...]  # decoded directory levels, resource excluded
    resource_name: str
    query_params: tuple[tuple[str, str], ...]  # decoded, order & dups preserved
    fragment: Union[None, str, tuple[tuple[str, str], ...]]
    raw: str
    # wire-level carriers used for byte-exact reassembly
    raw_authority: str
    raw_dir_segments: tuple[str, ...]
    raw_resource: str
    raw_query_tokens: tuple[str, ...]
    raw_fragment: Optional[str]
    had_path: bool
    had_query: bool

    @property
    def fragment_is_kv(self) -> bool:
        return isinstance(self.fragment, tuple)


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


def _decode(text: str) -> str:
    """One round of percent-decoding; malformed escapes are left alone."""
    return unquote(text, errors="replace")


def _encode_token(value: str) -> str:
    """Percent-encode a synthesized component value (delimiters only)."""
    return quote(value, safe=_TOKEN_SAFE)


def _split_query_token(token: str) -> tuple[str, str]:
    if "=" in token:
        k, v = token.split("=", 1)
        return _decode(k), _decode(v)
    return _decode(token), ""


def _parse_fragment(raw_fragment: Optional[str]):
    if raw_fragment is None:
        return None
    if raw_fragment == "":
        return ""
    tokens = raw_fragment.split("&")
    if all("=" in t for t in tokens):
        return tuple(_split_query_token(t) for t in tokens)
    return _decode(raw_fragment)


def decompose(url: str) -> DecoratedUrl:
    """Decompose ``url`` into a :class:`DecoratedUrl`.

    Raises :class:`UrlParseError` for URLs without a scheme or host, naming
    the offending span.
    """
    m = _SCHEME_RE.match(url)
    if not m:
        raise UrlParseError(
            f"no scheme://: {url[:40]!r}", span=(0, min(len(url), 40)))
    scheme = m.group(1)
    rest = url[m.end():]

    cut = len(rest)
    for ch in "/?#":
        pos = rest.find(ch)
        if pos != -1:
            cut = min(cut, pos)
    raw_authority, rest = rest[:cut], rest[cut:]
    if not raw_authority:
        raise UrlParseError(
            f"missing host in {url[:60]!r}", span=(m.end(), m.end()))

    host = raw_authority
    if "@" in host:
        host = host.rsplit("@", 1)[1]
    if host.count(":") == 1:
        maybe_host, maybe_port = host.rsplit(":", 1)
        if maybe_port.isdigit() or maybe_port == "":
            host = maybe_host
    if not host:
        raise UrlParseError(
            f"missing host in {url[:60]!r}", span=(m.end(), m.end() + cut))
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
        path_segments=tuple(_decode(s) for s in raw_dir_segments),
        resource_name=_decode(raw_resource),
        query_params=tuple(_split_query_token(t) for t in raw_query_tokens),
        fragment=_parse_fragment(raw_fragment),
        raw=url,
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


def name_decorations(d: DecoratedUrl, site: str) -> list[LinkDecoration]:
    """Enumerate the link decorations of ``d`` in URL order.

    One decoration per directory level (resource name excluded), per query
    pair, and per fragment entry; ids follow the ``fqdn|key`` scheme with the
    originating site recorded.
    """
    decs: list[LinkDecoration] = []
    for i, seg in enumerate(d.path_segments):
        decs.append(LinkDecoration(
            DecorationId(site, d.fqdn, f"path|{i}"), PATH_KIND, seg, i))
    for i, (k, v) in enumerate(d.query_params):
        decs.append(LinkDecoration(
            DecorationId(site, d.fqdn, k), QUERY_KIND, v, i))
    if d.fragment is not None:
        if d.fragment_is_kv:
            for i, (k, v) in enumerate(d.fragment):
                decs.append(LinkDecoration(
                    DecorationId(site, d.fqdn, k), FRAGMENT_KIND, v, i))
        else:
            decs.append(LinkDecoration(
                DecorationId(site, d.fqdn, "fragment"), FRAGMENT_KIND,
                d.fragment, 0))
    return decs


def raw_decorations(d: DecoratedUrl) -> list[RawDecoration]:
    """Wire-level view of the decorations of ``d``, in ``name_decorations``
    order."""
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


def _rule_matches(rule, site: str, fqdn: str, key: str) -> bool:
    if rule.scope not in ("*", site):
        return False
    if not fqdn_pattern_matches(rule.fqdn, fqdn):
        return False
    return rule.key == key


def fqdn_pattern_matches(pattern: str, fqdn: str) -> bool:
    """Exact hostname, ``*`` (any), or ``*.suffix`` (subdomains and the suffix)."""
    if pattern == "*":
        return True
    if pattern.startswith("*."):
        suffix = pattern[2:]
        return fqdn == suffix or fqdn.endswith("." + suffix)
    return fqdn == pattern


def sanitize(url: str, site: str, rules, mode: str = "replace",
             seed: int = 0, audit: Optional[list] = None) -> str:
    """Apply sanitization ``rules`` to ``url``.

    Every decoration matched by a rule has its value replaced by a
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
    rules = list(rules)
    rng = random.Random(seed)

    if audit is not None:
        depth = len(d.path_segments)
        for rule in rules:
            if (rule.key.startswith("path|")
                    and rule.scope in ("*", site)
                    and fqdn_pattern_matches(rule.fqdn, d.fqdn)):
                level = int(rule.key.split("|", 1)[1])
                if level >= depth:
                    audit.append(
                        f"inapplicable rule {rule.key} (URL depth {depth}): {url}")

    out: list[RawDecoration] = []
    for dec, raw in zip(name_decorations(d, site), raw_decorations(d)):
        if not any(_rule_matches(r, site, d.fqdn, dec.id.key) for r in rules):
            out.append(raw)
        elif mode == "replace" or dec.kind == PATH_KIND:
            token = _encode_token(random_token(rng, len(dec.value)))
            # a key-only query token gains its "="
            out.append(replace(raw, value=token,
                               bare=raw.bare and dec.kind != QUERY_KIND))
    return with_decorations(d, out)
