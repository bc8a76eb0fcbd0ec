"""In-memory spans and counts for the traced benchmark run.

The benchmark wraps each call into a public linkscrub function in a span
named after the layer metric it feeds ("graph.exfil" feeds
``graph.exfil_s``). Spans stay in memory until the run ends; only then are
they summed per round. With tracing off every hook is a plain call.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# per-layer metrics, in the order BENCHMARK.json lists them
LAYER_TIMES = (
    "trace.load", "graph.build", "graph.split", "graph.exfil", "graph.infil",
    "features.extract", "features.matrix_io", "labels.label",
    "forest.train", "forest.cv", "forest.predict", "forest.explain",
    "forest.model_io", "filters.emit", "filters.list_io", "filters.parse",
    "urls.sanitize",
)
LAYER_COUNTS = (
    "trace.events", "graph.nodes", "graph.edges", "graph.exfil_edges",
    "graph.infil_edges", "graph.exfil_pairs", "features.rows",
    "labels.identities", "forest.rows_scored", "filters.rules", "urls.urls",
    "urls.decorations_rewritten",
)
SETUP_ROUND = -1


class Tracer:
    """Span durations as (round, name, seconds); counts per round.

    Round ``SETUP_ROUND`` holds what happens before the first operation.
    Spans never nest: each wraps one call into linkscrub, so a span's
    duration is its self time.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.round = SETUP_ROUND
        self.spans: list[tuple[int, str, float]] = []
        self.counts: dict[int, dict[str, int]] = {}

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.round, name, perf_counter() - start))

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            per_round = self.counts.setdefault(self.round, {})
            per_round[name] = per_round.get(name, 0) + n

    def self_times(self) -> dict[tuple[int, str], float]:
        """Summed span time per (round, span name)."""
        out: dict[tuple[int, str], float] = {}
        for rnd, name, secs in self.spans:
            out[(rnd, name)] = out.get((rnd, name), 0.0) + secs
        return out

    def counts_repeat(self) -> bool:
        """True when every round made exactly the same counts."""
        rounds = [c for r, c in self.counts.items() if r != SETUP_ROUND]
        return all(c == rounds[0] for c in rounds)

    def layer_metrics(self) -> dict[str, dict]:
        """Every per-layer metric: the mean over rounds of a layer's self
        time (the set-up total for a layer that only runs in set-up), and a
        count as made in one round (or in set-up). A layer the workload does
        not exercise reads 0."""
        times = self.self_times()
        metrics = {}
        for name in LAYER_TIMES:
            per_round = [t for (r, n), t in times.items()
                         if n == name and r != SETUP_ROUND]
            value = (statistics.fmean(per_round) if per_round
                     else times.get((SETUP_ROUND, name), 0.0))
            metrics[f"{name}_s"] = {"value": value, "unit": "s"}
        first = self.counts.get(0, {})
        setup = self.counts.get(SETUP_ROUND, {})
        for name in LAYER_COUNTS:
            value = first.get(name, setup.get(name, 0))
            metrics[name] = {"value": value, "unit": "count"}
        return metrics
