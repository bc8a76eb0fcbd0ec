"""Prevalence report over a set of page graphs and decoration labels.

Counts and percentages by decoration kind and label, per-site and per-request
averages split by label, and the identities observed on the most sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .labels import ATS, NON_ATS, UNKNOWN
from .urls import KINDS, DecorationId

LABELS = (ATS, NON_ATS, UNKNOWN)


@dataclass
class PrevalenceReport:
    kind_label_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    site_count: int = 0
    decoration_count: int = 0
    request_count: int = 0
    decorations_per_site: float = 0.0
    ats_requests_avg_decorations: float = 0.0
    non_ats_requests_avg_decorations: float = 0.0
    top_identities: list[tuple[str, int]] = field(default_factory=list)

    def row_percentages(self) -> dict[str, dict[str, float]]:
        """Per kind, the label split in percent (rows sum to 100)."""
        out: dict[str, dict[str, float]] = {}
        for kind in KINDS:
            total = sum(self.kind_label_counts.get((kind, lab), 0)
                        for lab in LABELS)
            if total:
                out[kind] = {
                    lab: 100.0 * self.kind_label_counts.get((kind, lab), 0)
                    / total
                    for lab in LABELS}
            else:
                out[kind] = {lab: 0.0 for lab in LABELS}
        return out

    def to_text(self) -> str:
        lines = ["prevalence report",
                 f"  sites: {self.site_count}",
                 f"  requests: {self.request_count}",
                 f"  decorations: {self.decoration_count}",
                 f"  decorations per site: {self.decorations_per_site:.2f}",
                 ("  avg decorations, requests with ATS: "
                  f"{self.ats_requests_avg_decorations:.2f}"),
                 ("  avg decorations, requests without ATS: "
                  f"{self.non_ats_requests_avg_decorations:.2f}"),
                 "  counts by kind x label:"]
        pct = self.row_percentages()
        for kind in KINDS:
            parts = []
            for lab in LABELS:
                n = self.kind_label_counts.get((kind, lab), 0)
                parts.append(f"{lab}={n} ({pct[kind][lab]:.2f}%)")
            lines.append(f"    {kind}: " + " ".join(parts))
        lines.append("  top identities by site coverage:")
        for ident, n in self.top_identities:
            lines.append(f"    {ident}: {n} sites")
        return "\n".join(lines) + "\n"


def compute_stats(graphs: Iterable, labels: Mapping[DecorationId, str],
                  top_n: int = 10) -> PrevalenceReport:
    report = PrevalenceReport()
    sites = set()
    identity_sites: dict[str, set] = {}
    per_request: dict[tuple, list[str]] = {}

    for g in graphs:
        sites.add(g.site)
        for dec in g.decoration_nodes():
            dec_id = dec.attrs["decoration"].id
            label = labels.get(dec_id, UNKNOWN)
            kind = dec.attrs["kind"]
            key = (kind, label)
            report.kind_label_counts[key] = \
                report.kind_label_counts.get(key, 0) + 1
            report.decoration_count += 1
            identity_sites.setdefault(str(dec_id), set()).add(g.site)
            per_request.setdefault(
                (g.site, g.page_url, dec.attrs["request"]), []).append(label)

    report.site_count = len(sites)
    report.request_count = len(per_request)
    if sites:
        report.decorations_per_site = report.decoration_count / len(sites)

    ats_reqs = [len(v) for v in per_request.values() if ATS in v]
    other_reqs = [len(v) for v in per_request.values() if ATS not in v]
    if ats_reqs:
        report.ats_requests_avg_decorations = sum(ats_reqs) / len(ats_reqs)
    if other_reqs:
        report.non_ats_requests_avg_decorations = \
            sum(other_reqs) / len(other_reqs)

    ranked = sorted(identity_sites.items(),
                    key=lambda kv: (-len(kv[1]), kv[0]))
    report.top_identities = [(ident, len(s)) for ident, s in ranked[:top_n]]
    return report
