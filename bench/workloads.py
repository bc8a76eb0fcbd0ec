"""The benchmark's workloads. Each one is a class with

* ``prepare(work, seed)``: makes the seeded inputs under ``work``; untimed;
* ``setup(work, tracer)``: imports linkscrub and loads what every round
  reuses; this is what ``setup_s`` times, in a fresh interpreter;
* ``run_round(inputs, ctx, tracer)``: one whole round of operations, timed
  from the first operation to the complete result, then checked untimed.

linkscrub is imported only inside these methods, so a set-up probe pays for
the import itself.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
from oracles import (changed_decorations, check_sanitized, decorations,
                     matched_decorations, rule_matches, split_url)

THRESHOLD = 0.5  # score at or above which a decoration is flagged
# criterion 4 of the acceptance suite: what a classifier must reach on the
# generated crawl
MIN_ACCURACY, MIN_PRECISION, MIN_RECALL = 0.95, 0.93, 0.95
# the 43-column model must beat always-the-majority-class by this much
CV_MARGIN = 0.10
# and may not beat the Bayes limit 1 - flip rate by more than sampling noise
CV_SLACK = 0.03
ADDITIVITY_TOL = 1e-9


class Laps:
    """Consecutive intervals: every ``lap()`` returns the seconds since the
    previous one, so the laps of a round add up to its whole wall time."""

    def __init__(self):
        self.last = perf_counter()

    def lap(self) -> float:
        now = perf_counter()
        elapsed, self.last = now - self.last, now
        return elapsed


@dataclass
class Round:
    """One round: a lap per operation, in input order, then a lap per step
    after the operations; the indexes of operations that raised; how many
    operations failed (raised or failed their check); whole-round faults."""

    op_times: list[float]
    step_times: list[float]
    raised: set[int] = field(default_factory=set)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def wall(self) -> float:
        """Seconds from the first operation to the complete result."""
        return sum(self.op_times) + sum(self.step_times)

    def op_percentile(self, beyond: int) -> float:
        """Latency of the operation with ``beyond`` slower ones in this
        round, or the median for 0; operations that raised are left out."""
        ok = sorted(t for i, t in enumerate(self.op_times)
                    if i not in self.raised)
        if beyond == 0:
            return statistics.median(ok)
        return ok[max(0, len(ok) - 1 - beyond)]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _request_urls(trace_path: Path) -> list[str]:
    """Request URLs of one trace file, read without linkscrub."""
    out = []
    with open(trace_path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            ev = json.loads(line)
            if ev["kind"] in ("request", "element_request"):
                out.append(ev["payload"]["url"])
            elif ev["kind"] == "redirect":
                out.append(ev["payload"]["to_url"])
    return out


def _stored_values(trace_path: Path) -> set[str]:
    out = set()
    with open(trace_path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            ev = json.loads(line)
            p = ev["payload"]
            if ev["kind"] in ("storage_set", "storage_get"):
                out.add(p.get("value", ""))
            elif ev["kind"] == "response":
                out.update(e.get("value", "") for e in p.get("set_storage", ()))
    return {v for v in out if len(v) >= corpus.MIN_VALUE_LEN}


def _rules_by_key(rules) -> dict:
    out: dict = {}
    for r in rules:
        out.setdefault(r.key, []).append(r)
    return out


def _model_roundtrip(model, path: Path):
    from linkscrub import forest
    with open(path, "w", encoding="utf-8") as fh:
        forest.save_forest(model, fh)
    with open(path, encoding="utf-8") as fh:
        return forest.load_forest(fh)


# -- crawl-to-list --------------------------------------------------------------

@dataclass
class CrawlInputs:
    seed: int
    work: Path
    crawl: corpus.Crawl
    decorations: list[int]  # per page, from the benchmark's own URL split
    exfil_pairs: int


def _matrix_roundtrip(pages, path: Path):
    from linkscrub import features
    with open(path, "w", encoding="utf-8", newline="") as fh:
        features.write_feature_matrix(
            ({"trace_id": t.trace_id, "node_id": node_id,
              "site": g.nodes[node_id].attrs["decoration"].id.site,
              "fqdn": g.nodes[node_id].attrs["fqdn"],
              "key": g.nodes[node_id].attrs["key"],
              "kind": g.nodes[node_id].attrs["kind"], "features": fv}
             for t, g, rows in pages for node_id, fv in rows), fh)
    with open(path, encoding="utf-8", newline="") as fh:
        return features.read_feature_matrix(fh)


def _write_list(rules, path: Path) -> None:
    from linkscrub import filters
    with open(path, "w", encoding="utf-8") as fh:
        filters.write_native(rules, fh)


class CrawlToList:
    """Trace files to a native filter list, one page per operation."""

    name = "crawl-to-list"

    def __init__(self, small: int = 45, dense: int = 15, trees: int = 20):
        self.small, self.dense, self.trees = small, dense, trees
        self.ops_per_round = small + dense

    def prepare(self, work: Path, seed: int) -> CrawlInputs:
        crawl = corpus.write_crawl(work, seed, self.small, self.dense)
        decs, pairs = [], 0
        for path in crawl.trace_paths:
            n = sum(len(decorations(split_url(u)))
                    for u in _request_urls(path))
            decs.append(n)
            pairs += n * len(_stored_values(path))
        _log(f"{self.name}: {len(crawl.trace_paths)} pages "
             f"({self.dense} dense), {sum(decs)} decorations, "
             f"{len(crawl.planted)} planted identities")
        return CrawlInputs(seed, work, crawl, decs, pairs)

    @staticmethod
    def setup(work: Path, tracer):
        from linkscrub import features, filters, forest, graph, trace  # noqa: F401
        from linkscrub import labels
        with open(work / "request_rules.txt", encoding="utf-8") as fh:
            rules = labels.parse_request_rules(fh)
        with open(work / "cookie_purposes.csv", encoding="utf-8") as fh:
            purposes = labels.parse_cookie_purpose_db(fh)
        with open(work / "curated_ats.txt", encoding="utf-8") as fh:
            curated = labels.parse_curated_list(fh)
        return rules, purposes, curated

    def run_round(self, inp: CrawlInputs, ctx, tr) -> Round:
        import numpy as np
        from linkscrub import features, filters, forest, graph, labels, trace
        from linkscrub.urls import DecorationId

        ops, steps, pages, raised = [], [], [], set()
        laps = Laps()
        for i, path in enumerate(inp.crawl.trace_paths):
            try:
                t = tr.call("trace.load", trace.load_trace, path)
                g = tr.call("graph.build", graph.build_graph, t)
                tr.call("graph.split", graph.attach_decoration_nodes, g)
                tr.call("graph.exfil", graph.detect_exfiltration, g)
                tr.call("graph.infil", graph.detect_infiltration, g)
                rows = tr.call("features.extract",
                               features.features_for_graph, g)
                pages.append((t, g, rows))
            except Exception as exc:  # a page that raises is a failed op
                _log(f"{path.name}: {type(exc).__name__}: {exc}")
                pages.append(None)
                raised.add(i)
            ops.append(laps.lap())
        done = [p for p in pages if p is not None]
        meta, X = tr.call("features.matrix_io", _matrix_roundtrip, done,
                          inp.work / "matrix.csv")
        steps.append(laps.lap())
        labeled = tr.call("labels.label", labels.label_decorations,
                          [g for _t, g, _r in done], *ctx)
        by_id = {item.id: item.label for item in labeled}
        train_rows, y = [], []
        for i, row in enumerate(meta):
            lab = by_id.get(DecorationId(row["site"], row["fqdn"], row["key"]))
            if lab in (labels.ATS, labels.NON_ATS):
                train_rows.append(i)
                y.append(int(lab == labels.ATS))
        Xl, y = X[train_rows], np.array(y, dtype=np.int64)
        steps.append(laps.lap())
        cfg = forest.ForestConfig(tree_count=self.trees, seed=inp.seed)
        keep = tr.call("forest.train", forest.balance, y, seed=inp.seed)
        model = tr.call("forest.train", forest.train, Xl[keep], y[keep],
                        cfg, features.FEATURE_NAMES,
                        feature_version=features.FEATURE_VERSION)
        steps.append(laps.lap())
        model = tr.call("forest.model_io", _model_roundtrip, model,
                        inp.work / "model.json")
        steps.append(laps.lap())
        scores = tr.call("forest.predict", forest.predict_scores, model, X)
        steps.append(laps.lap())
        preds = [filters.Prediction(
            DecorationId(row["site"], row["fqdn"], row["key"]), row["kind"],
            float(s)) for row, s in zip(meta, scores)]
        rules = tr.call("filters.emit", filters.emit_filter_list, preds,
                        THRESHOLD, model_version=model.feature_version)
        steps.append(laps.lap())
        tr.call("filters.list_io", _write_list, rules, inp.work / "list.txt")
        steps.append(laps.lap())

        errors, failed = [], len(raised)
        planted = inp.crawl.planted
        for i, page in enumerate(pages):
            if page is None:
                continue
            fault = self._page_fault(page, inp.decorations[i], planted)
            if fault:
                _log(f"{inp.crawl.sites[i]}: {fault}")
                failed += 1
        per_site = Counter(row["site"] for row in meta)
        if (X.shape != (sum(inp.decorations), len(features.FEATURE_NAMES))
                or not np.isfinite(X).all()
                or any(per_site[s] != n for s, n in
                       zip(inp.crawl.sites, inp.decorations))):
            errors.append(f"matrix {X.shape} is not one finite row per "
                          f"decoration ({sum(inp.decorations)})")
        got = {(d.site, d.fqdn, d.key): lab for d, lab in by_id.items()}
        wrong = sum(got.get(ident) != lab for ident, lab in planted.items())
        if wrong:
            errors.append(f"{wrong} planted identities labeled otherwise")
        errors += self._rule_agreement(rules, planted)

        if tr.enabled:
            for t, g, _r in done:
                kinds = Counter(e.kind for e in g.edges)
                tr.count("trace.events", len(t.events))
                tr.count("graph.nodes", len(g.nodes))
                tr.count("graph.edges", len(g.edges))
                tr.count("graph.exfil_edges", kinds["exfiltration"])
                tr.count("graph.infil_edges", kinds["infiltration"])
            tr.count("graph.exfil_pairs", inp.exfil_pairs)
            tr.count("features.rows", X.shape[0])
            tr.count("labels.identities", len(labeled))
            tr.count("forest.rows_scored", len(scores))
            tr.count("filters.rules", len(rules))
        return Round(ops, steps, raised, failed, errors)

    @staticmethod
    def _page_fault(page, expected_rows: int, planted) -> str:
        """Empty when the page has one feature row per decoration, every
        planted-ATS decoration has an incoming exfiltration edge and no
        planted-NonATS decoration has one."""
        _t, g, rows = page
        if len(rows) != expected_rows:
            return f"{len(rows)} feature rows for {expected_rows} decorations"
        exfil_dst = {e.dst for e in g.edges if e.kind == "exfiltration"}
        for node_id, _fv in rows:
            a = g.nodes[node_id].attrs
            lab = planted.get((g.site, a["fqdn"], a["key"]))
            if lab == corpus.ATS and node_id not in exfil_dst:
                return f"ATS decoration {a['fqdn']}|{a['key']} not exfiltrated"
            if lab == corpus.NON_ATS and node_id in exfil_dst:
                return f"NonATS decoration {a['fqdn']}|{a['key']} exfiltrated"
        return ""

    @staticmethod
    def _rule_agreement(rules, planted) -> list[str]:
        by_key = _rules_by_key(rules)
        tp = fp = tn = fn = 0
        for (site, fqdn, key), lab in planted.items():
            flagged = any(rule_matches(r, site, fqdn, key)
                          for r in by_key.get(key, ()))
            ats = lab == corpus.ATS
            tp += flagged and ats
            fp += flagged and not ats
            tn += not flagged and not ats
            fn += not flagged and ats
        acc = (tp + tn) / len(planted)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        if acc < MIN_ACCURACY or prec < MIN_PRECISION or rec < MIN_RECALL:
            return [f"emitted rules vs planted identities: accuracy {acc:.4f} "
                    f"precision {prec:.4f} recall {rec:.4f}"]
        return []


# -- noisy-forest ---------------------------------------------------------------

@dataclass
class NoisyInputs:
    seed: int
    work: Path
    matrix: corpus.NoisyMatrix


class NoisyForest:
    """Cross-validation, training, model round trip, batch scoring and one
    explained row per operation, on a matrix no stump separates."""

    name = "noisy-forest"

    def __init__(self, rows: int = 1000, trees: int = 10, folds: int = 5,
                 explain: int = 1000):
        self.rows, self.trees, self.folds = rows, trees, folds
        self.ops_per_round = explain

    def prepare(self, work: Path, seed: int) -> NoisyInputs:
        m = corpus.noisy_matrix(seed, self.rows)
        _log(f"{self.name}: {m.X.shape[0]}x{m.X.shape[1]} matrix, "
             f"flip rate {m.flip_rate}, chance {m.chance:.4f}")
        return NoisyInputs(seed, work, m)

    @staticmethod
    def setup(work: Path, tracer):
        from linkscrub import features, forest  # noqa: F401
        return None

    def run_round(self, inp: NoisyInputs, ctx, tr) -> Round:
        from linkscrub import features, forest

        X, y = inp.matrix.X, inp.matrix.y
        names = features.FEATURE_NAMES
        cfg = forest.ForestConfig(tree_count=self.trees, seed=inp.seed)
        ops, steps, explained, raised = [], [], [], set()
        laps = Laps()
        report = tr.call("forest.cv", forest.cross_validate, X, y, cfg,
                         names, k=self.folds, seed=inp.seed)
        steps.append(laps.lap())
        keep = tr.call("forest.train", forest.balance, y, seed=inp.seed)
        trained = tr.call("forest.train", forest.train, X[keep], y[keep],
                          cfg, names)
        steps.append(laps.lap())
        model = tr.call("forest.model_io", _model_roundtrip, trained,
                        inp.work / "model.json")
        steps.append(laps.lap())
        scores = tr.call("forest.predict", forest.predict_scores, model, X)
        steps.append(laps.lap())
        for i in range(self.ops_per_round):
            try:
                explained.append(tr.call(
                    "forest.explain", forest.decompose_prediction, model,
                    X[i]))
            except Exception as exc:  # a row that raises is a failed op
                _log(f"row {i}: {type(exc).__name__}: {exc}")
                explained.append(None)
                raised.add(i)
            ops.append(laps.lap())

        failed = len(raised)
        for i, res in enumerate(explained):
            if res is None:
                continue
            prior, contrib, score = res
            if (abs(prior + contrib.sum() - score) > ADDITIVITY_TOL
                    or abs(score - scores[i]) > ADDITIVITY_TOL):
                failed += 1
        errors = []
        m = inp.matrix
        _log(f"CV accuracy {report.accuracy:.4f}")
        low, high = m.chance + CV_MARGIN, 1.0 - m.flip_rate + CV_SLACK
        if not low < report.accuracy < high:
            errors.append(f"CV accuracy {report.accuracy:.4f} outside "
                          f"({low:.4f}, {high:.4f})")
        if not (forest.predict_scores(trained, X) == scores).all():
            errors.append("reloaded model scores differ")
        tr.count("forest.rows_scored", len(scores))
        return Round(ops, steps, raised, failed, errors)


# -- sanitize-stream --------------------------------------------------------------

@dataclass(frozen=True)
class _Rule:
    scope: str
    fqdn: str
    key: str


@dataclass
class SanitizeInputs:
    seed: int
    work: Path
    stream: list[tuple[str, str]]  # (url, site of the page that sent it)
    matched: list[set[int]]  # per URL, decorations a rule applies to


class SanitizeStream:
    """Request URLs of a crawl sanitized one by one under a list of
    thousands of rules; one URL per operation."""

    name = "sanitize-stream"
    LIST = "rules.txt"

    def __init__(self, pages: int = 24, made_rules: int = 2000):
        self.pages, self.made_rules = pages, made_rules
        # every request of the crawl; the count is the same for every seed
        self.ops_per_round = sum(map(corpus.request_count,
                                     corpus.page_sizes(pages, 0)))

    def prepare(self, work: Path, seed: int) -> SanitizeInputs:
        crawl = corpus.write_crawl(work, seed, self.pages, 0)
        stream = [(u, site) for path, site in zip(crawl.trace_paths,
                                                  crawl.sites)
                  for u in _request_urls(path)]
        if len(stream) != self.ops_per_round:
            raise ValueError(f"crawl has {len(stream)} request URLs, "
                             f"not {self.ops_per_round}")
        # the crawl's own rules: one site-scoped exact-host rule per planted
        # ATS identity, as a list maintainer's perfect classifier would flag
        own = sorted(ident for ident, lab in crawl.planted.items()
                     if lab == corpus.ATS)
        rules = [_Rule(*r) for r in own + corpus.made_rules(
            seed, self.made_rules, crawl.sites)]
        with open(work / self.LIST, "w", encoding="utf-8") as fh:
            fh.write(corpus.NATIVE_HEADER)
            for r in rules:
                fh.write(corpus.native_line(r.scope, r.fqdn, r.key))
        by_key = _rules_by_key(rules)
        matched = [matched_decorations(u, site, by_key) for u, site in stream]
        rewritten = sum(bool(m) for m in matched)
        _log(f"{self.name}: {len(stream)} URLs, {len(rules)} rules "
             f"({len(own)} for planted ATS identities), {rewritten} URLs "
             f"({rewritten / len(stream):.1%}) and "
             f"{sum(map(len, matched))} decorations rewritten")
        return SanitizeInputs(seed, work, stream, matched)

    @classmethod
    def setup(cls, work: Path, tracer):
        from linkscrub import filters, urls  # noqa: F401
        with open(work / cls.LIST, encoding="utf-8") as fh:
            rules = tracer.call("filters.parse", filters.parse_native, fh)
        tracer.count("filters.rules", len(rules))
        return rules

    def run_round(self, inp: SanitizeInputs, rules, tr) -> Round:
        from linkscrub import urls

        ops, outs, raised = [], [], set()
        laps = Laps()
        for i, (url, site) in enumerate(inp.stream):
            try:
                outs.append(tr.call("urls.sanitize", urls.sanitize, url,
                                    site, rules, mode="replace"))
            except Exception as exc:  # a URL that raises is a failed op
                _log(f"{url}: {type(exc).__name__}: {exc}")
                outs.append(None)
                raised.add(i)
            ops.append(laps.lap())

        failed = len(raised)
        for (url, _site), out, matched in zip(inp.stream, outs, inp.matched):
            fault = out is not None and check_sanitized(url, out, matched)
            if fault:
                _log(f"{url} -> {out}: {fault}")
                failed += 1
        if tr.enabled:
            tr.count("urls.urls", len(inp.stream))
            tr.count("urls.decorations_rewritten", sum(
                len(changed_decorations(url, out))
                for (url, _site), out in zip(inp.stream, outs)
                if out is not None))
        return Round(ops, [], raised, failed)


WORKLOADS = {w.name: w for w in (CrawlToList, NoisyForest, SanitizeStream)}
