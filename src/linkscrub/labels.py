"""Ground-truth labels (ATS / NonATS / Unknown) per decoration identity.

Three sources: a simplified request filter list (Non-ATS side), a cookie
purpose table (exfiltrated advertising/analytics cookies imply ATS), and a
curated list of known ATS decoration keys. ATS takes precedence on conflict;
conflicts are retained in the provenance for audit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, Optional

from .errors import InputError, RuleLoadError
from .graph import EXFILTRATION, PageGraph
from .urls import DecorationId, fqdn_pattern_matches, fqdn_patterns

ATS = "ATS"
NON_ATS = "NonATS"
UNKNOWN = "Unknown"

COOKIE_PURPOSES = ("strictly-necessary", "functional", "analytics",
                   "advertising")
ATS_PURPOSES = frozenset({"analytics", "advertising"})


@dataclass(frozen=True)
class RequestRule:
    """One rule of the simplified request-filter dialect.

    ``||host^`` anchors match the host and its subdomains; any other pattern
    is a plain substring match on the full URL.
    """

    pattern: str
    host_anchor: Optional[str] = None


class RequestRuleIndex(tuple):
    """An immutable sequence of request rules, indexed once: each ``||host^``
    anchor as the fqdn pattern ``*.host`` in a set, looked up with the
    patterns covering the request's fqdn, and the substring patterns in a
    list, scanned."""

    def __new__(cls, rules=()):
        self = super().__new__(cls, rules)
        self._hosts = {"*." + r.host_anchor for r in self
                       if r.host_anchor is not None}
        self._substrings = [r.pattern for r in self if r.host_anchor is None]
        return self

    def matches(self, url: str, fqdn: str) -> bool:
        """Whether any rule matches ``url``, whose host is ``fqdn``."""
        return (any(p in self._hosts for p in fqdn_patterns(fqdn))
                or any(pattern in url for pattern in self._substrings))


def parse_request_rules(lines: Iterable[str]) -> list[RequestRule]:
    rules = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        for unsupported in ("##", "#@#", "@@", "$"):
            if unsupported in line:
                raise RuleLoadError(f"line {line_no}: unsupported filter "
                                    f"syntax {unsupported!r}", line)
        if line.startswith("||"):
            body = line[2:]
            if not body.endswith("^") or not body[:-1]:
                raise RuleLoadError(
                    f"line {line_no}: malformed host anchor", line)
            rules.append(RequestRule(line, host_anchor=body[:-1].lower()))
        else:
            rules.append(RequestRule(line))
    return rules


@dataclass(frozen=True)
class CookiePurposeEntry:
    domain: str  # '' or '*' scopes to any domain
    key: str
    purpose: str


def parse_cookie_purpose_db(lines: Iterable[str]) -> list[CookiePurposeEntry]:
    entries = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise RuleLoadError(
                f"line {line_no}: cookie purpose needs domain,key,purpose",
                line)
        domain, key, purpose = (p.strip() for p in parts)
        if purpose not in COOKIE_PURPOSES:
            raise RuleLoadError(
                f"line {line_no}: unknown cookie purpose {purpose!r}", line)
        entries.append(CookiePurposeEntry(domain, key, purpose))
    return entries


def cookie_purpose(entries: Iterable[CookiePurposeEntry], site: str,
                   key: str) -> Optional[str]:
    """Most specific purpose for a cookie key: domain-scoped beats global."""
    fallback = None
    for e in entries:
        if e.key != key:
            continue
        if e.domain in ("", "*"):
            fallback = e.purpose
        elif e.domain == site:
            return e.purpose
    return fallback


@dataclass(frozen=True)
class CuratedEntry:
    fqdn: str  # pattern; '*' allowed
    key: str


def parse_curated_list(lines: Iterable[str]) -> list[CuratedEntry]:
    entries = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "|" not in line:
            raise RuleLoadError(
                f"line {line_no}: curated entry must be fqdn|key", line)
        fqdn, key = line.split("|", 1)
        entries.append(CuratedEntry(fqdn, key))
    return entries


@dataclass
class LabeledDecoration:
    id: DecorationId
    label: str
    provenance: tuple[str, ...] = ()


def label_decorations(graphs: Iterable[PageGraph],
                      request_rules: Iterable[RequestRule] = (),
                      cookie_purpose_db: Iterable[CookiePurposeEntry] = (),
                      curated_ats: Iterable[CuratedEntry] = (),
                      conflicts: Optional[list] = None
                      ) -> list[LabeledDecoration]:
    """Label every decoration identity observed in ``graphs``.

    Per identity (site, fqdn, key): decorations of requests no rule flags are
    NonATS candidates; exfiltration of an analytics/advertising cookie or a
    curated-list hit makes it ATS. ATS wins on conflict (conflict appended to
    ``conflicts`` when given); identities with no firing source are Unknown.
    Duplicate observations across graphs merge with provenance union.
    """
    request_rules = RequestRuleIndex(request_rules)
    purposes: dict[str, list[CookiePurposeEntry]] = {}  # key -> entries
    for entry in cookie_purpose_db:
        purposes.setdefault(entry.key, []).append(entry)
    curated: dict[str, list[str]] = {}  # key -> fqdn patterns
    for entry in curated_ats:
        curated.setdefault(entry.key, []).append(entry.fqdn)

    provenance: dict[DecorationId, set] = {}
    for g in graphs:
        exfil_sources: dict[str, list] = {}
        for e in g.edges:
            if e.kind == EXFILTRATION:
                exfil_sources.setdefault(e.dst, []).append(e.src)
        clean: dict[str, bool] = {}  # request node -> no rule matches it
        for dec in g.decoration_nodes():
            request_id = dec.attrs["request"]
            if request_id not in clean:
                # the request URL's fqdn, as the split decomposed it
                url = g.nodes[request_id].attrs.get("url", "")
                clean[request_id] = bool(request_rules) and not (
                    request_rules.matches(url, dec.attrs["fqdn"]))
            prov = provenance.setdefault(dec.attrs["decoration"].id, set())
            if clean[request_id]:
                prov.add("request-filter-clean")
            for src in exfil_sources.get(dec.id, ()):
                snode = g.nodes[src]
                if snode.attrs.get("store") != "cookie":
                    continue
                key = snode.attrs.get("key", "")
                purpose = cookie_purpose(purposes.get(key, ()), g.site, key)
                if purpose in ATS_PURPOSES:
                    prov.add("cookie-purpose")
    for dec_id, prov in provenance.items():
        if any(fqdn_pattern_matches(pattern, dec_id.fqdn)
               for pattern in curated.get(dec_id.key, ())):
            prov.add("curated")

    out = []
    for dec_id in sorted(provenance,
                         key=lambda d: (d.site, d.fqdn, d.key)):
        prov = provenance[dec_id]
        ats = prov & {"cookie-purpose", "curated"}
        non_ats = "request-filter-clean" in prov
        if ats:
            label = ATS
            if non_ats and conflicts is not None:
                conflicts.append(
                    f"{dec_id}: ATS ({', '.join(sorted(ats))}) overrides "
                    "clean-request NonATS")
        elif non_ats:
            label = NON_ATS
        else:
            label = UNKNOWN
        out.append(LabeledDecoration(dec_id, label, tuple(sorted(prov))))
    return out


_LABEL_COLUMNS = ["site", "fqdn", "key", "label", "provenance"]


def write_labels(labeled: Iterable[LabeledDecoration], fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(_LABEL_COLUMNS)
    for item in labeled:
        writer.writerow([item.id.site, item.id.fqdn, item.id.key,
                         item.label, ";".join(item.provenance)])


def read_labels(fh: IO[str]) -> list[LabeledDecoration]:
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header != _LABEL_COLUMNS:
            raise RuleLoadError("line 1: bad label file header", str(header))
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(_LABEL_COLUMNS):
                raise InputError(
                    f"line {reader.line_num}: expected "
                    f"{len(_LABEL_COLUMNS)} fields, got {len(row)}")
            site, fqdn, key, label, prov = row
            out.append(LabeledDecoration(
                DecorationId(site, fqdn, key), label,
                tuple(p for p in prov.split(";") if p)))
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from exc
    return out
