"""Random forest classifier (Gini splits, bootstrap resampling) with
class balancing, stratified k-fold cross-validation, and path-contribution
feature importance.

Everything is deterministic for a fixed (data, config, seed): per-tree RNGs
are spawned from the master seed, so tree order never depends on scheduling.
The positive class (index 1) is ATS throughout.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import IO, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import InputError, InvariantError

MODEL_FORMAT_VERSION = 2

ATS_CLASS = 1
NON_ATS_CLASS = 0


@dataclass(frozen=True)
class ForestConfig:
    tree_count: int = 100
    max_depth: Optional[int] = None
    min_split_size: int = 2
    features_per_split: Union[str, int] = "sqrt"  # "sqrt", "all", or a count
    bootstrap: bool = True
    seed: int = 0
    threshold: float = 0.5  # score >= threshold -> ATS (ties resolve to ATS)

    def resolve_features_per_split(self, n_features: int) -> int:
        if self.features_per_split == "sqrt":
            return max(1, math.ceil(math.sqrt(n_features)))
        if self.features_per_split == "all":
            return n_features
        return max(1, min(n_features, int(self.features_per_split)))


class Tree(NamedTuple):
    """One tree as four lists of one length, its nodes in pre-order. Node
    ``i`` splits on feature ``feature[i]`` (-1 at a leaf): a row goes to the
    left child, node ``i + 1``, when that feature is at most
    ``threshold[i]``, else to node ``right[i]`` (-1 at a leaf). ``counts[i]``
    is ``[n0, n1]``, the training rows of each class at the node."""
    feature: list
    threshold: list
    right: list
    counts: list


class Walk(NamedTuple):
    """One tree as its readers walk it: the tree's ``feature``,
    ``threshold`` and ``right`` lists, each node's ATS proportion
    ``p[i] = n1 / (n0 + n1)``, and ``step[i]``, what the move from node
    ``i``'s parent to node ``i`` adds to the forest's mean score,
    ``(p[i] - p[parent]) / n_trees`` (0.0 at the root). ``arrays`` holds
    the feature, threshold, right and p columns as numpy arrays, for walks
    of many rows at once."""
    feature: list
    threshold: list
    right: list
    p: list
    step: list
    arrays: tuple


def _walk(tree: Tree, n_trees: int) -> Walk:
    feature = np.asarray(tree.feature)
    right = np.asarray(tree.right)
    # Python's int / int, not a float64 array: a loaded count may hold more
    # digits than a float, and int / int rounds its quotient exactly
    p = np.array([c1 / (c0 + c1) for c0, c1 in tree.counts])
    parent = np.zeros(len(p), dtype=np.intp)
    splits = np.flatnonzero(feature >= 0)
    parent[splits + 1] = parent[right[splits]] = splits
    step = (p - p[parent]) / n_trees
    threshold = np.asarray(tree.threshold, dtype=np.float64)
    return Walk(tree.feature, tree.threshold, tree.right, p.tolist(),
                step.tolist(), (feature, threshold, right, p))


@dataclass
class Forest:
    trees: list  # of Tree, as grown, scored, explained and saved
    feature_names: tuple[str, ...]
    feature_version: str
    config: ForestConfig

    @cached_property
    def walks(self) -> list[Walk]:
        """One ``Walk`` per tree, built on first use. It lives only in
        memory: ``save_forest`` writes ``trees``, and a forest made with
        ``dataclasses.replace`` builds its own."""
        return [_walk(tree, len(self.trees)) for tree in self.trees]


def _check_matrix(X: np.ndarray, n_features: int) -> None:
    if X.ndim != 2 or X.shape[1] != n_features:
        raise InputError(f"expected {n_features} feature columns, not a "
                         f"matrix of shape {X.shape}")
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, c = bad[0]
        raise InputError(f"non-finite feature at row {r}, column {c}")


def balance(y: np.ndarray, seed: int = 0) -> np.ndarray:
    """Indices of a class-balanced subset: the majority class is uniformly
    downsampled without replacement to the minority size. Sorted, so repeated
    runs with one seed return identical ids."""
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise InputError("balance requires both classes present")
    minority = counts.min()
    rng = np.random.default_rng(seed)
    keep = []
    for cls in classes:
        members = np.flatnonzero(y == cls)
        if len(members) > minority:
            members = rng.choice(members, size=minority, replace=False)
        keep.append(members)
    return np.sort(np.concatenate(keep))


def _best_split(codes, values, idx, feats, c1):
    """The split of least weighted Gini over candidate features, as
    (feature, threshold, ``[n0, n1]`` of the rows at or below the
    threshold), or None where no candidate feature takes two values at the
    node.

    ``codes[f, i]`` is ``rank * 2 + y[i]``, where ``rank`` is the place of
    ``X[i, f]`` among ``values[f]``, the sorted distinct values of column
    ``f``. One integer sort per node orders the rows of every candidate
    feature by value: the low bit of a sorted code is then the row's label,
    and the high bits mark the runs of equal values. Within such a run the
    rows come out ordered by label, not by row, and that cannot change a
    score: a split falls only between two runs, where the rows and the
    positives (``c1`` in all) to its left are the same whatever the order
    within a run. Only those places are scored. Ties go to the first minimal
    split position within a feature, then to the first minimal feature in
    ``feats`` order: the first minimum in row-major order."""
    n = len(idx)
    keys = codes.take(feats[:, None] * codes.shape[1] + idx)
    keys.sort(axis=1)
    rank = keys >> 1
    row, col = np.nonzero(rank[:, :-1] != rank[:, 1:])
    if not len(col):
        return None
    # row 0 holds the left side of each split, row 1 the right side
    size = np.empty((2, len(col)))
    size[0] = col + 1
    np.subtract(n, size[0], out=size[1])
    pos = np.empty((2, len(col)))
    pos[0] = (keys & 1).cumsum(axis=1)[row, col]
    np.subtract(c1, pos[0], out=pos[1])
    p = pos / size
    gini = size * (1.0 - p ** 2 - (1.0 - p) ** 2)
    b = int(((gini[0] + gini[1]) / n).argmin())
    c, j = int(row[b]), int(col[b])
    f = int(feats[c])
    lo, hi = values[f][rank[c, j:j + 2]].tolist()
    t = (lo + hi) / 2.0
    # between adjacent floats the midpoint rounds to one of them; a sum of
    # two huge values overflows
    if not lo <= t < hi:
        t = lo
    left_c1 = int(pos[0, b])
    return f, t, [j + 1 - left_c1, left_c1]


def _grow_tree(XT, codes, values, y, idx, rng, cfg: ForestConfig,
               k: int) -> Tree:
    """Grow one tree from an explicit stack, so depth is not limited by
    recursion. The left child is popped first: nodes are visited, and
    appended, in pre-order, the order in which their feature draws come from
    ``rng``. A right child fills in its parent's ``right`` when popped."""
    tree = Tree([], [], [], [])
    feature, threshold, right, counts = tree
    stack = [(-1, idx, 0, np.bincount(y[idx], minlength=2).tolist())]
    while stack:
        parent, idx, depth, (c0, c1) = stack.pop()
        if parent >= 0:
            right[parent] = len(counts)
        counts.append([c0, c1])
        split = None
        if not (len(idx) < cfg.min_split_size or c0 == 0 or c1 == 0
                or (cfg.max_depth is not None and depth >= cfg.max_depth)):
            feats = rng.choice(XT.shape[0], size=k, replace=False)
            split = _best_split(codes, values, idx, feats, c1)
        f, t, (l0, l1) = split or (-1, 0.0, (c0, c1))  # a leaf
        feature.append(f)
        threshold.append(t)
        right.append(-1)
        if f < 0:
            continue
        go_left = XT[f, idx] <= t
        stack.append((len(counts) - 1, idx[~go_left], depth + 1,
                      [c0 - l0, c1 - l1]))
        stack.append((-1, idx[go_left], depth + 1, [l0, l1]))
    return tree


def train(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
          feature_names: Sequence[str], feature_version: str = "1") -> Forest:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_matrix(X, len(feature_names))
    if ((y != NON_ATS_CLASS) & (y != ATS_CLASS)).any():
        raise InputError("labels must be 0 (NonATS) or 1 (ATS)")
    if cfg.tree_count < 1:
        raise InputError("tree_count must be >= 1")
    k = cfg.resolve_features_per_split(X.shape[1])
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    # one row of rank codes per feature; equal values, -0.0 and 0.0 too,
    # share a rank
    codes = np.empty(XT.shape, dtype=np.int32 if 2 * n < 2 ** 31
                     else np.int64)
    values = []
    for f, column in enumerate(XT):
        distinct, rank = np.unique(column, return_inverse=True)
        codes[f] = rank * 2 + y
        values.append(distinct)
    trees = []
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.tree_count):
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        trees.append(_grow_tree(XT, codes, values, y, idx, rng, cfg, k))
    return Forest(trees, tuple(feature_names), feature_version, cfg)


def _leaf_p1(walk: Walk, X: np.ndarray) -> np.ndarray:
    """ATS leaf proportion of ``walk``'s tree for every row of ``X``: all
    rows step down one level at a time, and a row leaves the walk at its
    leaf."""
    feature, threshold, right, p1 = walk.arrays
    leaf = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.flatnonzero(feature[leaf] >= 0)
    at = leaf[rows]
    while rows.size:
        go_left = X[rows, feature[at]] <= threshold[at]
        at = np.where(go_left, at + 1, right[at])
        leaf[rows] = at
        inner = feature[at] >= 0
        rows, at = rows[inner], at[inner]
    return p1[leaf]


def predict_scores(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean per-tree ATS leaf proportion for each row of ``X``."""
    X = np.asarray(X, dtype=np.float64)
    _check_matrix(X, len(forest.feature_names))
    P = np.empty((X.shape[0], len(forest.trees)))
    for j, walk in enumerate(forest.walks):
        P[:, j] = _leaf_p1(walk, X)
    # a row of C-contiguous P is summed pairwise, as np.mean sums a list
    return P.mean(axis=1)


def decompose_prediction(forest: Forest, x: np.ndarray):
    """Path-contribution decomposition of one prediction.

    Returns (prior, contributions, score) where ``prior`` is the mean
    root-leaf-proportion across trees, ``contributions`` is a per-feature
    array, and prior + contributions.sum() equals the score exactly up to
    float summation order.
    """
    x = np.asarray(x, dtype=np.float64)
    n_features = len(forest.feature_names)
    if x.shape != (n_features,):
        raise InputError(f"expected {n_features} feature values, not an "
                         f"array of shape {x.shape}")
    x = x.tolist()
    contrib = [0.0] * n_features
    prior = score = 0.0
    for feature, threshold, right, p, step, _ in forest.walks:
        prior += p[0]
        i, f = 0, feature[0]
        while f >= 0:
            i = i + 1 if x[f] <= threshold[i] else right[i]
            contrib[f] += step[i]
            f = feature[i]
        score += p[i]
    n_trees = len(forest.trees)
    return prior / n_trees, np.array(contrib), score / n_trees


def feature_importance(forest: Forest, X: np.ndarray
                       ) -> list[tuple[str, float]]:
    """Percentage of instances where each feature is the top contributor,
    mirroring the paper-style most-important-feature ranking."""
    X = np.asarray(X, dtype=np.float64)
    _check_matrix(X, len(forest.feature_names))
    counts = np.zeros(len(forest.feature_names), dtype=np.int64)
    for i in range(X.shape[0]):
        _, contrib, _ = decompose_prediction(forest, X[i])
        counts[int(np.argmax(np.abs(contrib)))] += 1
    total = max(1, X.shape[0])
    ranked = [(name, 100.0 * counts[j] / total)
              for j, name in enumerate(forest.feature_names)]
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


# -- evaluation ---------------------------------------------------------------

@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    confusion: dict  # tp, fp, tn, fn
    per_fold: list = field(default_factory=list)
    per_kind: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"accuracy  {self.accuracy:.4f}",
            f"precision {self.precision:.4f}",
            f"recall    {self.recall:.4f}",
            "confusion tp={tp} fp={fp} tn={tn} fn={fn}".format(**self.confusion),
        ]
        for kind in sorted(self.per_kind):
            m = self.per_kind[kind]
            lines.append(
                f"kind {kind:<8} accuracy {m['accuracy']:.4f} "
                f"precision {m['precision']:.4f} recall {m['recall']:.4f} "
                f"n {m['n']}")
        for i, m in enumerate(self.per_fold):
            lines.append(
                f"fold {i} accuracy {m['accuracy']:.4f} "
                f"precision {m['precision']:.4f} recall {m['recall']:.4f}")
        return "\n".join(lines) + "\n"


def _confusion(pred: np.ndarray, y: np.ndarray) -> dict:
    return {"tp": int(np.sum((pred == 1) & (y == 1))),
            "fp": int(np.sum((pred == 1) & (y == 0))),
            "tn": int(np.sum((pred == 0) & (y == 0))),
            "fn": int(np.sum((pred == 0) & (y == 1)))}


def _metrics(tp, fp, tn, fn) -> dict:
    total = tp + fp + tn + fn
    return {"accuracy": (tp + tn) / total if total else 0.0,
            "precision": tp / (tp + fp) if (tp + fp) else 0.0,
            "recall": tp / (tp + fn) if (tp + fn) else 0.0, "n": total}


def stratified_folds(y: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Partition indices into k folds preserving class proportions within one
    instance. Folds are disjoint and cover the dataset exactly."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        if len(members) < k:
            raise InputError(
                f"class {cls} has {len(members)} instances; need >= {k}")
        members = rng.permutation(members)
        for pos, idx in enumerate(members):
            folds[pos % k].append(int(idx))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def cross_validate(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
                   feature_names: Sequence[str], k: int = 10,
                   seed: int = 0, kinds: Optional[Sequence[str]] = None
                   ) -> EvalReport:
    """Stratified k-fold CV. Balancing and training happen on the train split
    only; metrics are micro-averaged over the pooled test predictions."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_matrix(X, len(feature_names))
    folds = stratified_folds(y, k, seed)
    all_pred = np.full(len(y), -1, dtype=np.int64)
    per_fold = []
    for i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(len(y)), test_idx)
        keep = balance(y[train_idx], seed=seed * 1009 + i)
        train_sel = train_idx[keep]
        fold_cfg = ForestConfig(**{**asdict(cfg), "seed": cfg.seed * 7919 + i})
        forest = train(X[train_sel], y[train_sel], fold_cfg, feature_names)
        scores = predict_scores(forest, X[test_idx])
        pred = (scores >= cfg.threshold).astype(np.int64)
        all_pred[test_idx] = pred
        per_fold.append(_metrics(**_confusion(pred, y[test_idx])))
    if np.any(all_pred < 0):
        raise InvariantError("folds did not cover the dataset")
    confusion = _confusion(all_pred, y)
    overall = _metrics(**confusion)
    per_kind = {}
    if kinds is not None:
        kinds = np.asarray(kinds)
        for kind in sorted(set(kinds.tolist())):
            m = kinds == kind
            per_kind[kind] = _metrics(**_confusion(all_pred[m], y[m]))
    return EvalReport(overall["accuracy"], overall["precision"],
                      overall["recall"], confusion, per_fold, per_kind)


# -- persistence --------------------------------------------------------------

def save_forest(forest: Forest, fh: IO[str]) -> None:
    payload = {
        "format": MODEL_FORMAT_VERSION,
        "feature_version": forest.feature_version,
        "feature_names": list(forest.feature_names),
        "config": asdict(forest.config),
        "trees": [tree._asdict() for tree in forest.trees],
    }
    # encoded whole before the first write, so a failure leaves no partial
    # model behind
    fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false load as bool


# what a model file may hold in each config field
_CONFIG_FIELDS = {
    "tree_count": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "max_depth": (lambda v: v is None or _is_int(v) and v >= 0,
                  "null or an integer >= 0"),
    "min_split_size": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "features_per_split": (
        lambda v: v in ("sqrt", "all") or _is_int(v) and v >= 1,
        '"sqrt", "all" or an integer >= 1'),
    "bootstrap": (lambda v: type(v) is bool, "true or false"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "threshold": (lambda v: type(v) in (int, float) and 0 <= v <= 1,
                  "a number in [0, 1]"),
}


def _is_threshold(t) -> bool:
    """A JSON number that a float64 holds exactly: not NaN, not an infinity
    and not an integer that rounds when ``predict_scores`` compares in
    floats."""
    return (type(t) in (int, float) and -sys.float_info.max <= t
            <= sys.float_info.max and float(t) == t)


def _check_tree(tree, n_features: int, where: str) -> Tree:
    """The Tree that ``tree``, as read from JSON, holds. Raise InputError
    unless its four lists have one length, every node has class counts with
    a positive sum, a feature index or -1 and a finite threshold, and every
    split's right child comes after its left child, ``i + 1``. So every walk
    down the tree moves to higher indices and ends."""
    if not (isinstance(tree, dict) and tree.keys() == set(Tree._fields)
            and all(type(v) is list for v in tree.values())
            and len({len(v) for v in tree.values()}) == 1
            and tree["counts"]):
        raise InputError(f"{where}: expected the arrays "
                         f"{', '.join(sorted(Tree._fields))} of one length, "
                         f"at least 1: {tree!r:.60}")
    tree = Tree(**tree)
    n = len(tree.counts)
    for i, (f, t, r, counts) in enumerate(zip(*tree)):
        if not (type(counts) is list and len(counts) == 2
                and all(type(c) is int and c >= 0 for c in counts)
                and sum(counts) > 0):
            raise InputError(f"{where}: node {i} without counts [n0, n1]: "
                             f"{counts!r:.60}")
        if not (type(f) is int and -1 <= f < n_features
                and _is_threshold(t)):
            raise InputError(f"{where}: split needs a feature index "
                             f"below {n_features} and a finite threshold, "
                             f"not {f!r:.20} and {t!r:.40} at node {i}")
        if not (type(r) is int and (i + 1 < r < n if f >= 0 else r == -1)):
            raise InputError(f"{where}: node {i} has right child {r!r:.20}; "
                             f"a split's lies in ({i + 1}, {n}), a leaf's "
                             "is -1")
    return tree


def load_forest(fh: IO[str]) -> Forest:
    try:
        payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"model is not JSON: line {exc.lineno}: "
                         f"{exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"model {getattr(fh, 'name', '')!r} nests too "
                         "deeply to read as JSON") from exc
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format {fmt!r}")
    for name, jtype, json_name in (
            ("trees", list, "array"), ("feature_names", list, "array"),
            ("feature_version", str, "string"), ("config", dict, "object")):
        if not isinstance(payload.get(name), jtype):
            raise InputError(f"model field {name!r} is missing or not a "
                             f"JSON {json_name}")
    if not payload["trees"]:
        raise InputError("model has no trees")
    names = payload["feature_names"]
    trees = [_check_tree(tree, len(names), f"model tree {i}")
             for i, tree in enumerate(payload["trees"])]
    for name, value in payload["config"].items():
        if name not in _CONFIG_FIELDS:
            raise InputError(f"model field 'config' has unknown key {name!r}")
        valid, what = _CONFIG_FIELDS[name]
        if not valid(value):
            raise InputError(f"model field 'config': {name!r} must be {what}, "
                             f"not {json.dumps(value):.40}")
    return Forest(trees=trees, feature_names=tuple(names),
                  feature_version=payload["feature_version"],
                  config=ForestConfig(**payload["config"]))
