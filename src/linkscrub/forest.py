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
from dataclasses import asdict, dataclass, field
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import InputError, InvariantError

MODEL_FORMAT_VERSION = 1

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


@dataclass
class Forest:
    trees: list  # nested dicts; internal: f, t, counts, left, right; leaf: counts
    feature_names: tuple[str, ...]
    feature_version: str
    config: ForestConfig


def _node_p1(node: dict) -> float:
    c0, c1 = node["counts"]
    return c1 / (c0 + c1)


def _check_matrix(X: np.ndarray) -> None:
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


def _best_split(X, y, idx, feats):
    """Best (weighted Gini, feature, threshold) over candidate features."""
    n = len(idx)
    best = (np.inf, -1, 0.0)
    ysub = y[idx]
    for f in feats:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = ysub[order]
        splittable = xs[:-1] < xs[1:]
        if not splittable.any():
            continue
        pos = np.cumsum(ys)
        total_pos = pos[-1]
        left_n = np.arange(1, n, dtype=np.float64)
        left_pos = pos[:-1].astype(np.float64)
        right_n = n - left_n
        right_pos = total_pos - left_pos
        p_l = left_pos / left_n
        p_r = right_pos / right_n
        gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
        score = (left_n * gini_l + right_n * gini_r) / n
        score[~splittable] = np.inf
        j = int(np.argmin(score))
        if score[j] < best[0]:
            best = (float(score[j]), int(f), float((xs[j] + xs[j + 1]) / 2.0))
    return best


def _grow_tree(X, y, idx, rng, cfg: ForestConfig, k: int, depth: int = 0) -> dict:
    counts = [int(np.sum(y[idx] == 0)), int(np.sum(y[idx] == 1))]
    node = {"counts": counts}
    if (len(idx) < cfg.min_split_size
            or counts[0] == 0 or counts[1] == 0
            or (cfg.max_depth is not None and depth >= cfg.max_depth)):
        return node
    feats = rng.choice(X.shape[1], size=k, replace=False)
    score, f, t = _best_split(X, y, idx, feats)
    if not np.isfinite(score):
        return node
    go_left = X[idx, f] <= t
    node["f"] = f
    node["t"] = t
    node["left"] = _grow_tree(X, y, idx[go_left], rng, cfg, k, depth + 1)
    node["right"] = _grow_tree(X, y, idx[~go_left], rng, cfg, k, depth + 1)
    return node


def train(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
          feature_names: Sequence[str], feature_version: str = "1") -> Forest:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_matrix(X)
    if cfg.tree_count < 1:
        raise InputError("tree_count must be >= 1")
    k = cfg.resolve_features_per_split(X.shape[1])
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.tree_count)
    trees = []
    n = X.shape[0]
    for seq in seeds:
        rng = np.random.default_rng(seq)
        if cfg.bootstrap:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        trees.append(_grow_tree(X, y, idx, rng, cfg, k))
    return Forest(trees, tuple(feature_names), feature_version, cfg)


def _tree_leaf_p1(node: dict, x: np.ndarray) -> float:
    while "f" in node:
        node = node["left"] if x[node["f"]] <= node["t"] else node["right"]
    return _node_p1(node)


def predict_scores(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean per-tree ATS leaf proportion for each row of ``X``."""
    X = np.asarray(X, dtype=np.float64)
    _check_matrix(X)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        out[i] = float(np.mean(
            [_tree_leaf_p1(t, X[i]) for t in forest.trees]))
    return out


def predict(forest: Forest, x, feature_version: Optional[str] = None
            ) -> tuple[int, float]:
    """(label, score) for a single feature vector; ATS iff score >= threshold."""
    if feature_version is not None and feature_version != forest.feature_version:
        raise InputError(
            f"feature version mismatch: model has {forest.feature_version}, "
            f"input has {feature_version}")
    score = float(predict_scores(forest, np.asarray(x)[None, :])[0])
    label = ATS_CLASS if score >= forest.config.threshold else NON_ATS_CLASS
    return label, score


def decompose_prediction(forest: Forest, x: np.ndarray):
    """Path-contribution decomposition of one prediction.

    Returns (prior, contributions, score) where ``prior`` is the mean
    root-leaf-proportion across trees, ``contributions`` is a per-feature
    array, and prior + contributions.sum() equals the score exactly up to
    float summation order.
    """
    x = np.asarray(x, dtype=np.float64)
    d = len(forest.feature_names)
    contrib = np.zeros(d)
    prior = 0.0
    score = 0.0
    n_trees = len(forest.trees)
    for tree in forest.trees:
        node = tree
        p = _node_p1(node)
        prior += p
        while "f" in node:
            child = node["left"] if x[node["f"]] <= node["t"] else node["right"]
            p_child = _node_p1(child)
            contrib[node["f"]] += (p_child - p) / n_trees
            p = p_child
            node = child
        score += p
    return prior / n_trees, contrib, score / n_trees


def feature_importance(forest: Forest, X: np.ndarray
                       ) -> list[tuple[str, float]]:
    """Percentage of instances where each feature is the top contributor,
    mirroring the paper-style most-important-feature ranking."""
    X = np.asarray(X, dtype=np.float64)
    _check_matrix(X)
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


def _metrics(tp, fp, tn, fn) -> dict:
    total = tp + fp + tn + fn
    return {
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": tp / (tp + fp) if (tp + fp) else 0.0,
        "recall": tp / (tp + fn) if (tp + fn) else 0.0,
        "n": total,
    }


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
    _check_matrix(X)
    folds = stratified_folds(y, k, seed)
    all_pred = np.full(len(y), -1, dtype=np.int64)
    per_fold = []
    for i, test_idx in enumerate(folds):
        mask = np.ones(len(y), dtype=bool)
        mask[test_idx] = False
        train_idx = np.flatnonzero(mask)
        keep = balance(y[train_idx], seed=seed * 1009 + i)
        train_sel = train_idx[keep]
        fold_cfg = ForestConfig(**{**asdict(cfg), "seed": cfg.seed * 7919 + i})
        forest = train(X[train_sel], y[train_sel], fold_cfg, feature_names)
        scores = predict_scores(forest, X[test_idx])
        pred = (scores >= cfg.threshold).astype(np.int64)
        all_pred[test_idx] = pred
        yt = y[test_idx]
        per_fold.append(_metrics(
            tp=int(np.sum((pred == 1) & (yt == 1))),
            fp=int(np.sum((pred == 1) & (yt == 0))),
            tn=int(np.sum((pred == 0) & (yt == 0))),
            fn=int(np.sum((pred == 0) & (yt == 1)))))
    if np.any(all_pred < 0):
        raise InvariantError("folds did not cover the dataset")
    tp = int(np.sum((all_pred == 1) & (y == 1)))
    fp = int(np.sum((all_pred == 1) & (y == 0)))
    tn = int(np.sum((all_pred == 0) & (y == 0)))
    fn = int(np.sum((all_pred == 0) & (y == 1)))
    overall = _metrics(tp, fp, tn, fn)
    per_kind = {}
    if kinds is not None:
        kinds = np.asarray(kinds)
        for kind in sorted(set(kinds.tolist())):
            m = kinds == kind
            per_kind[kind] = _metrics(
                tp=int(np.sum((all_pred == 1) & (y == 1) & m)),
                fp=int(np.sum((all_pred == 1) & (y == 0) & m)),
                tn=int(np.sum((all_pred == 0) & (y == 0) & m)),
                fn=int(np.sum((all_pred == 0) & (y == 1) & m)))
    return EvalReport(
        accuracy=overall["accuracy"],
        precision=overall["precision"],
        recall=overall["recall"],
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        per_fold=per_fold,
        per_kind=per_kind,
    )


# -- persistence --------------------------------------------------------------

def save_forest(forest: Forest, fh: IO[str]) -> None:
    payload = {
        "format": MODEL_FORMAT_VERSION,
        "feature_version": forest.feature_version,
        "feature_names": list(forest.feature_names),
        "config": asdict(forest.config),
        "trees": forest.trees,
    }
    json.dump(payload, fh, sort_keys=True)
    fh.write("\n")


def _check_tree(tree, n_features: int, where: str) -> None:
    """Raise InputError unless every node of ``tree`` has class counts with
    a positive sum and every split names a feature and a threshold."""
    stack = [tree]
    while stack:
        node = stack.pop()
        counts = node.get("counts") if isinstance(node, dict) else None
        if not (isinstance(counts, list) and len(counts) == 2
                and all(type(c) is int and c >= 0 for c in counts)
                and sum(counts) > 0):
            raise InputError(f"{where}: node without counts [n0, n1]: "
                             f"{node!r:.60}")
        if "f" in node:
            f, t = node["f"], node.get("t")
            if not (type(f) is int and 0 <= f < n_features
                    and type(t) in (int, float)):
                raise InputError(f"{where}: split needs a feature index "
                                 f"below {n_features} and a threshold")
            stack += [node.get("left"), node.get("right")]


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
    for i, tree in enumerate(payload["trees"]):
        _check_tree(tree, len(names), f"model tree {i}")
    try:
        config = ForestConfig(**payload["config"])
    except TypeError as exc:
        raise InputError(f"model field 'config': {exc}") from exc
    return Forest(trees=payload["trees"], feature_names=tuple(names),
                  feature_version=payload["feature_version"], config=config)
