"""Sanitization filter lists: emission from classifier predictions, the
native portable text format, and export to the adblock ``removeparam``
dialect (query keys only; path/fragment rules go to a sidecar section).

Format 1 has a fourth column that must read ``replace`` or ``strip``; it
is not kept. ``sanitize``'s ``mode``, the CLI's ``sanitize --mode``, decides
how every flagged value is rewritten, and written lists say ``replace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Optional

from .errors import RuleLoadError
from .urls import DecorationId, RuleIndex

LIST_FORMAT_VERSION = 1
_HEADER = f"# decoration-filter-list v{LIST_FORMAT_VERSION}"


@dataclass(frozen=True)
class FilterRule:
    scope: str  # site pattern or '*'
    fqdn: str  # hostname pattern ('*' and '*.suffix' allowed)
    key: str  # query/fragment key or 'path|<i>'
    score: float = 1.0
    model_version: str = ""


@dataclass(frozen=True)
class Prediction:
    id: DecorationId
    kind: str
    score: float


def emit_filter_list(predictions: Iterable[Prediction], threshold: float,
                     model_version: str = "") -> RuleIndex:
    """One rule per distinct flagged identity, ordered by (site, fqdn, key),
    as a :class:`~linkscrub.urls.RuleIndex` ready for ``sanitize``.

    When an identity reaches the threshold on every site where it was
    observed, a single ``*``-scoped rule is emitted; otherwise one rule per
    qualifying site.
    """
    by_identity: dict[tuple[str, str], dict[str, float]] = {}
    for p in predictions:
        sites = by_identity.setdefault((p.id.fqdn, p.id.key), {})
        sites[p.id.site] = max(sites.get(p.id.site, 0.0), p.score)
    rules = []
    for (fqdn, key), sites in by_identity.items():
        qualifying = {s: v for s, v in sites.items() if v >= threshold}
        if not qualifying:
            continue
        if len(qualifying) == len(sites):
            rules.append(FilterRule("*", fqdn, key,
                                    score=max(qualifying.values()),
                                    model_version=model_version))
        else:
            for site, score in qualifying.items():
                rules.append(FilterRule(site, fqdn, key, score=score,
                                        model_version=model_version))
    rules.sort(key=lambda r: (r.scope, r.fqdn, r.key))
    return RuleIndex(rules)


def write_native(rules: Iterable[FilterRule], fh: IO[str]) -> None:
    fh.write(_HEADER + "\n")
    fh.write("# scope\tfqdn\tkey\taction\tscore\tmodel\n")
    for r in rules:
        fh.write(f"{r.scope}\t{r.fqdn}\t{r.key}\treplace\t"
                 f"{r.score!r}\t{r.model_version}\n")


def parse_native(fh: IO[str]) -> RuleIndex:
    """Read a native filter list into a :class:`~linkscrub.urls.RuleIndex`."""
    first = fh.readline().rstrip("\n")
    if first != _HEADER:
        raise RuleLoadError(f"line 1: expected header {_HEADER!r}", first)
    rules = []
    for line_no, raw in enumerate(fh, start=2):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise RuleLoadError(f"line {line_no}: expected 6 fields", line)
        scope, fqdn, key, action, score, model = parts
        if action not in ("replace", "strip"):
            raise RuleLoadError(f"line {line_no}: bad action {action!r}", line)
        try:
            score_f = float(score)
        except ValueError as exc:
            raise RuleLoadError(
                f"line {line_no}: bad score {score!r}", line) from exc
        if not 0.0 <= score_f <= 1.0:
            raise RuleLoadError(
                f"line {line_no}: score outside [0, 1]", line)
        rules.append(FilterRule(scope, fqdn, key, score_f, model))
    return RuleIndex(rules)


def export_adblock(rules: Iterable[FilterRule],
                   warnings: Optional[list] = None) -> str:
    """Render query-key rules as ``$removeparam`` lines.

    The request host becomes the ``||host^`` anchor, which also covers the
    host's subdomains, so ``*.suffix`` becomes ``||suffix^`` and ``*`` has no
    anchor. The site scope becomes ``domain=``, which restricts the page a
    request is sent from; scope ``*`` has none. Path and fragment rules, and
    keys holding ``,`` or ``$`` (which the dialect reads as option
    separators), cannot be expressed in the adblock dialect; they are
    emitted to a commented sidecar section (one warning per rule).
    """
    lines = []
    sidecar = []
    for r in rules:
        if (r.key.startswith("path|") or r.key == "fragment"
                or "," in r.key or "$" in r.key):
            sidecar.append(f"! unsupported: {r.scope}\t{r.fqdn}\t{r.key}")
            if warnings is not None:
                warnings.append(
                    f"rule {r.fqdn}|{r.key} not expressible as removeparam")
            continue
        anchor = "" if r.fqdn == "*" else f"||{r.fqdn.removeprefix('*.')}^"
        scope = "" if r.scope == "*" else f",domain={r.scope}"
        lines.append(f"{anchor}$removeparam={r.key}{scope}")
    out = list(lines)
    if sidecar:
        out.append("! --- rules outside the removeparam dialect ---")
        out.extend(sidecar)
    if not out:
        return ""
    return "\n".join(out) + "\n"
