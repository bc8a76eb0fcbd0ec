"""Command-line pipeline: trace parsing, graph construction, feature
extraction, labeling, training, prediction, filter-list emission/export,
sanitization, synthetic generation, the evasion harness, and prevalence stats.

Exit codes: 0 success, 1 input error, 2 invariant violation.
"""

from __future__ import annotations

import csv
import os
import sys

import click
import numpy as np

from . import evasion, features, filters, forest, labels, stats, synthetic
from .errors import InputError, InvariantError
from .graph import DEFAULT_MIN_VALUE_LEN, build_full_graph
from .trace import load_trace, write_trace
from .urls import DecorationId, sanitize as sanitize_url


def _probability(_ctx, _param, value):
    # click.FloatRange lets NaN through; it fails both comparisons here
    if not 0.0 <= value <= 1.0:
        raise click.BadParameter(f"{value} is not a finite number in [0, 1]")
    return value


@click.group()
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0))
@click.option("--min-value-len", default=DEFAULT_MIN_VALUE_LEN,
              show_default=True, type=click.IntRange(0),
              help="Storage values shorter than this never count as "
                   "exfiltrated.")
@click.option("--threshold", default=0.5, show_default=True, type=float,
              callback=_probability,
              help="Classifier score at or above which a decoration is "
                   "flagged.")
@click.pass_context
def main(ctx, seed, min_value_len, threshold):
    """Link-decoration analysis and sanitization toolkit."""
    ctx.obj = {"seed": seed, "min_value_len": min_value_len,
               "threshold": threshold}


# click 8.2 and later report a bare ``linkscrub`` as an error that shows
# the help; earlier versions show it and exit 0
_BARE_COMMAND = getattr(click.exceptions, "NoArgsIsHelpError", ())


def run() -> None:
    try:
        main.main(standalone_mode=False)
    except _BARE_COMMAND as exc:
        exc.show()
        sys.exit(1)
    except click.ClickException as exc:
        # one line, as for an InputError: no usage line, no --help hint
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except InvariantError as exc:
        click.echo(f"invariant violation: {exc}", err=True)
        sys.exit(2)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _graphs(traces, min_len):
    """Full page graph of each trace, reporting its warnings on stderr."""
    for t in traces:
        g = build_full_graph(t, min_len=min_len)
        for w in g.warnings:
            click.echo(f"warning: {w}", err=True)
        yield g


@main.command()
@click.argument("traces", nargs=-1, required=True,
                type=click.Path(exists=True))
def parse(traces):
    """Parse and validate trace files; report their event counts."""
    for path in traces:
        click.echo(f"{path}: {len(load_trace(path).events)} events")


@main.command()
@click.argument("trace", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.pass_obj
def graph(obj, trace, output):
    """Build the page graph of one trace and dump its edge list."""
    [g] = _graphs([load_trace(trace)], obj["min_value_len"])
    output.write(g.edge_list_dump())


def _matrix_rows(traces, min_len):
    for t, g in zip(traces, _graphs(traces, min_len)):
        for node_id, fv in features.features_for_graph(g):
            node = g.nodes[node_id]
            dec_id = node.attrs["decoration"].id
            yield {
                "trace_id": t.trace_id,
                "node_id": node_id,
                "site": dec_id.site,
                "fqdn": dec_id.fqdn,
                "key": dec_id.key,
                "kind": node.attrs["kind"],
                "features": fv,
            }


@main.command("features")
@click.argument("traces", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.pass_obj
def features_cmd(obj, traces, output):
    """Extract the per-decoration feature matrix from traces."""
    rows = _matrix_rows([load_trace(p) for p in traces], obj["min_value_len"])
    features.write_feature_matrix(rows, output)


@main.command()
@click.argument("traces", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--request-rules", type=click.File("r"), default=None)
@click.option("--cookie-purposes", type=click.File("r"), default=None)
@click.option("--curated", type=click.File("r"), default=None)
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.pass_obj
def label(obj, traces, request_rules, cookie_purposes, curated, output):
    """Derive ground-truth labels for every decoration identity."""
    graphs = _graphs([load_trace(p) for p in traces], obj["min_value_len"])
    rules = labels.parse_request_rules(request_rules) if request_rules else ()
    purposes = (labels.parse_cookie_purpose_db(cookie_purposes)
                if cookie_purposes else ())
    curated_entries = labels.parse_curated_list(curated) if curated else ()
    conflicts: list[str] = []
    labeled = labels.label_decorations(
        graphs, rules, purposes, curated_entries, conflicts)
    labels.write_labels(labeled, output)
    for c in conflicts:
        click.echo(f"conflict: {c}", err=True)


def _join_matrix_labels(matrix_fh, labels_fh):
    """(meta, X, y, kinds) for rows whose identity carries a known label."""
    meta, X = features.read_feature_matrix(matrix_fh)
    by_id = {item.id: item.label for item in labels.read_labels(labels_fh)}
    classes = {labels.ATS: forest.ATS_CLASS,
               labels.NON_ATS: forest.NON_ATS_CLASS}
    keep, y, kinds = [], [], []
    for i, row in enumerate(meta):
        cls = classes.get(
            by_id.get(DecorationId(row["site"], row["fqdn"], row["key"])))
        if cls is not None:
            keep.append(i)
            y.append(cls)
            kinds.append(row["kind"])
    if not keep:
        raise InputError("no labeled rows in the matrix")
    return ([meta[i] for i in keep], X[keep],
            np.array(y, dtype=np.int64), kinds)


def _forest_config(obj, trees):
    return forest.ForestConfig(tree_count=trees, seed=obj["seed"],
                               threshold=obj["threshold"])


@main.command()
@click.option("--matrix", type=click.File("r"), required=True)
@click.option("--labels", "labels_fh", type=click.File("r"), required=True)
@click.option("--trees", default=100, show_default=True,
              type=click.IntRange(1))
@click.option("-o", "--output", type=click.File("w"), required=True)
@click.pass_obj
def train(obj, matrix, labels_fh, trees, output):
    """Train a random forest on labeled feature rows (class-balanced)."""
    _meta, X, y, _kinds = _join_matrix_labels(matrix, labels_fh)
    cfg = _forest_config(obj, trees)
    keep = forest.balance(y, seed=cfg.seed)
    model = forest.train(X[keep], y[keep], cfg, features.FEATURE_NAMES,
                         feature_version=features.FEATURE_VERSION)
    forest.save_forest(model, output)
    click.echo(f"trained {trees} trees on {len(keep)} balanced rows",
               err=True)


@main.command()
@click.option("--matrix", type=click.File("r"), required=True)
@click.option("--labels", "labels_fh", type=click.File("r"), required=True)
@click.option("--folds", default=10, show_default=True,
              type=click.IntRange(2))
@click.option("--trees", default=100, show_default=True,
              type=click.IntRange(1))
@click.pass_obj
def cv(obj, matrix, labels_fh, folds, trees):
    """Stratified k-fold cross-validation with per-kind breakdown."""
    _meta, X, y, kinds = _join_matrix_labels(matrix, labels_fh)
    cfg = _forest_config(obj, trees)
    report = forest.cross_validate(X, y, cfg, features.FEATURE_NAMES,
                                   k=folds, seed=cfg.seed, kinds=kinds)
    click.echo(report.to_text(), nl=False)


def _load_model(fh):
    """Load a model, refusing one trained for another feature version or
    on other features than the matrix columns."""
    fmodel = forest.load_forest(fh)
    if fmodel.feature_version != features.FEATURE_VERSION:
        raise InputError(
            f"model feature version {fmodel.feature_version} does not match "
            f"expected {features.FEATURE_VERSION}")
    if fmodel.feature_names != features.FEATURE_NAMES:
        raise InputError("model feature names differ from the matrix columns")
    return fmodel


@main.command()
@click.option("--model", type=click.File("r"), required=True)
@click.option("--matrix", type=click.File("r"), required=True)
@click.option("--explain", is_flag=True,
              help="Also print the top path-contribution feature per row, "
                   "in a top_feature column.")
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.pass_obj
def predict(obj, model, matrix, explain, output):
    """Score every matrix row with a trained model."""
    fmodel = _load_model(model)
    meta, X = features.read_feature_matrix(matrix)
    # Python floats, so that each score prints as its repr under any numpy
    scores = forest.predict_scores(fmodel, X).tolist()
    writer = csv.writer(output, lineterminator="\n")
    writer.writerow(["site", "fqdn", "key", "kind", "score", "label"]
                    + (["top_feature"] if explain else []))
    for i, (row, score) in enumerate(zip(meta, scores)):
        line = [row["site"], row["fqdn"], row["key"], row["kind"], score,
                labels.ATS if score >= obj["threshold"] else labels.NON_ATS]
        if explain:
            _, contrib, _ = forest.decompose_prediction(fmodel, X[i])
            line.append(fmodel.feature_names[int(np.argmax(np.abs(contrib)))])
        writer.writerow(line)


def _predictions_from(meta, scores):
    return [filters.Prediction(
        DecorationId(row["site"], row["fqdn"], row["key"]),
        row["kind"], float(score))
        for row, score in zip(meta, scores)]


@main.command("emit-list")
@click.option("--model", type=click.File("r"), required=True)
@click.option("--matrix", type=click.File("r"), required=True)
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.pass_obj
def emit_list(obj, model, matrix, output):
    """Emit a native filter list from model predictions over a matrix."""
    fmodel = _load_model(model)
    meta, X = features.read_feature_matrix(matrix)
    scores = forest.predict_scores(fmodel, X)
    rules = filters.emit_filter_list(
        _predictions_from(meta, scores), obj["threshold"],
        model_version=fmodel.feature_version)
    filters.write_native(rules, output)


@main.command("export-adblock")
@click.option("--list", "list_fh", type=click.File("r"), required=True)
@click.option("-o", "--output", type=click.File("w"), default="-")
def export_adblock(list_fh, output):
    """Render a native filter list in the adblock removeparam dialect."""
    rules = filters.parse_native(list_fh)
    warnings: list[str] = []
    output.write(filters.export_adblock(rules, warnings))
    for w in warnings:
        click.echo(f"warning: {w}", err=True)


@main.command()
@click.argument("urls", nargs=-1)
@click.option("--list", "list_fh", type=click.File("r"), required=True)
@click.option("--site", required=True)
@click.option("--mode", default="replace", show_default=True,
              type=click.Choice(["replace", "strip"]))
@click.pass_obj
def sanitize(obj, urls, list_fh, site, mode):
    """Sanitize URLs (arguments, or stdin lines when none given)."""
    rules = filters.parse_native(list_fh)
    inputs = list(urls) if urls else \
        [line.rstrip("\n") for line in sys.stdin if line.strip()]
    for url in inputs:
        click.echo(sanitize_url(url, site, rules, mode=mode,
                                seed=obj["seed"]))


@main.command()
@click.option("--out", type=click.Path(), required=True)
@click.option("--sites", default=10, show_default=True, type=click.IntRange(1))
@click.option("--trackers-per-site", default=2, show_default=True,
              type=click.IntRange(1))
@click.option("--encodings", default="plain", show_default=True,
              help="Comma-separated: plain,base64,md5,sha1,sha256.")
@click.pass_obj
def generate(obj, out, sites, trackers_per_site, encodings):
    """Generate a synthetic trace corpus with planted labels."""
    try:
        cfg = synthetic.SyntheticConfig(
            sites=sites, trackers_per_site=trackers_per_site,
            encodings=tuple(e.strip() for e in encodings.split(",")),
            seed=obj["seed"])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    paths = synthetic.write_corpus(cfg, out)
    click.echo(f"wrote {len(paths)} traces to {out}", err=True)


@main.command()
@click.argument("technique",
                type=click.Choice(["rename", "split", "combine"]))
@click.argument("traces", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--out", type=click.Path(), required=True,
              help="Directory for the transformed traces.")
@click.pass_obj
def evade(obj, technique, traces, out):
    """Apply an evasion transform to trace files."""
    os.makedirs(out, exist_ok=True)
    loaded = [load_trace(p) for p in traces]
    if technique == "rename":
        transformed = evasion.evade_rename(loaded, seed=obj["seed"])
    elif technique == "split":
        transformed = evasion.evade_split(loaded)
    else:
        transformed = evasion.evade_combine(loaded)
    for path, t in zip(traces, transformed):
        dest = os.path.join(out, os.path.basename(path))
        with open(dest, "w", encoding="utf-8") as fh:
            write_trace(t, fh)
        click.echo(dest)


@main.command("stats")
@click.argument("traces", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--labels", "labels_fh", type=click.File("r"), default=None)
@click.option("--top", default=10, show_default=True, type=click.IntRange(0))
@click.pass_obj
def stats_cmd(obj, traces, labels_fh, top):
    """Prevalence report over traces, optionally joined with labels."""
    graphs = _graphs([load_trace(p) for p in traces], obj["min_value_len"])
    label_map = {}
    if labels_fh is not None:
        label_map = {item.id: item.label
                     for item in labels.read_labels(labels_fh)}
    report = stats.compute_stats(graphs, label_map, top_n=top)
    click.echo(report.to_text(), nl=False)


if __name__ == "__main__":
    run()
