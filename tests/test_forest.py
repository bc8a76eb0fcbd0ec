import io

import numpy as np
import pytest

from linkscrub import forest
from linkscrub.errors import InputError


def _toy_data(n=200, seed=0, gap=True):
    """Two clouds separable on feature 0 (with a margin when gap=True)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] > 0).astype(np.int64)
    if gap:
        X[:, 0] += np.where(y == 1, 1.0, -1.0)
    return X, y


def _oracle_best_stump(X, y):
    """Exhaustive weighted-Gini search over every feature and midpoint."""
    n = len(y)
    best = (np.inf, None, None)
    for f in range(X.shape[1]):
        xs = np.unique(X[:, f])
        for a, b in zip(xs[:-1], xs[1:]):
            t = (a + b) / 2
            left = y[X[:, f] <= t]
            right = y[X[:, f] > t]

            def gini(part):
                if len(part) == 0:
                    return 0.0
                p = np.mean(part)
                return 1.0 - p ** 2 - (1 - p) ** 2

            score = (len(left) * gini(left) + len(right) * gini(right)) / n
            if score < best[0] - 1e-12:
                best = (score, f, t)
    return best


def _stump_config(seed=0):
    return forest.ForestConfig(tree_count=1, max_depth=1, bootstrap=False,
                               features_per_split="all", seed=seed)


def test_stump_matches_exhaustive_split_oracle():
    for seed in range(8):
        X, y = _toy_data(n=60, seed=seed, gap=False)
        model = forest.train(X, y, _stump_config(), [f"f{i}" for i in range(5)])
        tree = model.trees[0]
        score, f, t = _oracle_best_stump(X, y)
        assert "f" in tree
        assert tree["f"] == f
        assert tree["t"] == pytest.approx(t, abs=1e-12)


def test_stump_perfect_on_separable_data():
    X, y = _toy_data(n=300, seed=1, gap=True)
    model = forest.train(X, y, _stump_config(), [f"f{i}" for i in range(5)])
    pred = (forest.predict_scores(model, X) >= 0.5).astype(int)
    assert np.array_equal(pred, y)


def test_forest_deterministic_per_seed():
    X, y = _toy_data(seed=2)
    cfg = forest.ForestConfig(tree_count=10, seed=5)
    a = forest.train(X, y, cfg, [f"f{i}" for i in range(5)])
    b = forest.train(X, y, cfg, [f"f{i}" for i in range(5)])
    c = forest.train(X, y, forest.ForestConfig(tree_count=10, seed=6),
                     [f"f{i}" for i in range(5)])
    assert a.trees == b.trees
    assert a.trees != c.trees


def test_prediction_ties_resolve_to_ats():
    # leaf proportions of exactly 0.5 must classify as ATS at threshold 0.5
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    cfg = forest.ForestConfig(tree_count=3, bootstrap=False, seed=0,
                              features_per_split="all")
    model = forest.train(X, y, cfg, ["f0"])
    label, score = forest.predict(model, np.array([0.0]))
    assert score == 0.5
    assert label == forest.ATS_CLASS


def test_path_contribution_additivity():
    X, y = _toy_data(n=400, seed=3, gap=False)
    cfg = forest.ForestConfig(tree_count=25, seed=9)
    model = forest.train(X, y, cfg, [f"f{i}" for i in range(5)])
    scores = forest.predict_scores(model, X)
    for i in range(len(X)):
        prior, contrib, score = forest.decompose_prediction(model, X[i])
        assert score == pytest.approx(scores[i], abs=1e-12)
        assert prior + contrib.sum() == pytest.approx(score, abs=1e-9)


def test_feature_importance_identifies_signal_feature():
    X, y = _toy_data(n=400, seed=4, gap=True)
    cfg = forest.ForestConfig(tree_count=20, seed=0)
    model = forest.train(X, y, cfg, [f"f{i}" for i in range(5)])
    ranked = forest.feature_importance(model, X)
    assert ranked[0][0] == "f0"
    assert ranked[0][1] > 50.0
    assert sum(pct for _n, pct in ranked) == pytest.approx(100.0)


def test_balance_downsamples_majority():
    y = np.array([0] * 30 + [1] * 10)
    keep = forest.balance(y, seed=0)
    assert len(keep) == 20
    assert np.sum(y[keep] == 0) == 10
    assert np.array_equal(keep, np.sort(keep))
    assert np.array_equal(keep, forest.balance(y, seed=0))
    with pytest.raises(InputError):
        forest.balance(np.zeros(5, dtype=int))


def test_stratified_folds_partition_and_proportions():
    y = np.array([0] * 70 + [1] * 30)
    folds = forest.stratified_folds(y, k=10, seed=1)
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(100))
    for fold in folds:
        assert np.sum(y[fold] == 1) == 3
    with pytest.raises(InputError):
        forest.stratified_folds(np.array([0] * 50 + [1] * 3), k=10, seed=0)


def test_cross_validate_separable_and_shuffled():
    X, y = _toy_data(n=400, seed=5, gap=True)
    cfg = forest.ForestConfig(tree_count=15, seed=2)
    report = forest.cross_validate(X, y, cfg, [f"f{i}" for i in range(5)],
                                   k=5, seed=2)
    assert report.accuracy > 0.97
    assert len(report.per_fold) == 5
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(y)
    chance = forest.cross_validate(X, shuffled, cfg,
                                   [f"f{i}" for i in range(5)], k=5, seed=2)
    assert 0.35 < chance.accuracy < 0.65


def test_cross_validate_per_kind_breakdown():
    X, y = _toy_data(n=200, seed=6, gap=True)
    kinds = ["query" if i % 2 else "path" for i in range(len(y))]
    cfg = forest.ForestConfig(tree_count=10, seed=0)
    report = forest.cross_validate(X, y, cfg, [f"f{i}" for i in range(5)],
                                   k=4, seed=0, kinds=kinds)
    assert set(report.per_kind) == {"path", "query"}
    assert sum(m["n"] for m in report.per_kind.values()) == len(y)


def test_save_load_round_trip():
    X, y = _toy_data(n=100, seed=7)
    cfg = forest.ForestConfig(tree_count=5, seed=1)
    model = forest.train(X, y, cfg, [f"f{i}" for i in range(5)])
    buf = io.StringIO()
    forest.save_forest(model, buf)
    buf.seek(0)
    again = forest.load_forest(buf)
    assert again.feature_names == model.feature_names
    assert again.config == model.config
    assert np.allclose(forest.predict_scores(again, X),
                       forest.predict_scores(model, X))


def test_load_rejects_unknown_format():
    with pytest.raises(InputError):
        forest.load_forest(io.StringIO('{"format": 99}'))


@pytest.mark.parametrize("threshold", [
    "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400,
    str(2 ** 53 + 3)])
def test_load_rejects_a_threshold_no_float_holds(threshold):
    # every row would go right of a NaN threshold; a huge integer does not
    # convert to a float, and 2**53 + 3 rounds to 2**53 + 4
    tree = ('{"counts": [1, 1], "f": 0, "t": %s, "left": {"counts": [1, 0]}, '
            '"right": {"counts": [0, 1]}}' % threshold)
    text = ('{"format": 1, "feature_names": ["a"], "feature_version": "1", '
            '"config": {}, "trees": [{"counts": [1, 0]}, %s]}' % tree)
    with pytest.raises(InputError, match="model tree 1: .*finite threshold"):
        forest.load_forest(io.StringIO(text))


def test_predict_rejects_feature_version_mismatch():
    X, y = _toy_data(n=50, seed=8)
    model = forest.train(X, y, forest.ForestConfig(tree_count=2), ["a"] * 5,
                         feature_version="1")
    with pytest.raises(InputError):
        forest.predict(model, X[0], feature_version="2")


def test_non_finite_input_rejected():
    X, y = _toy_data(n=50, seed=9)
    X[3, 2] = np.nan
    with pytest.raises(InputError):
        forest.train(X, y, forest.ForestConfig(tree_count=2), ["a"] * 5)


@pytest.mark.parametrize("low", [np.nextafter(1.0, 2.0), np.nextafter(
    np.finfo(float).max, 0.0), -np.finfo(float).max])
def test_split_between_adjacent_floats_leaves_no_empty_child(low):
    # the midpoint of two adjacent floats rounds to one of them, or
    # overflows, so the threshold falls back to the lower value
    high = np.nextafter(low, np.inf)
    X = np.array([[low], [low], [high], [high]])
    y = np.array([0, 0, 1, 1])
    cfg = forest.ForestConfig(tree_count=1, bootstrap=False,
                              features_per_split="all")
    model = forest.train(X, y, cfg, ["f0"])
    assert model.trees[0]["t"] == low
    buf = io.StringIO()
    forest.save_forest(model, buf)
    buf.seek(0)
    again = forest.load_forest(buf)
    assert forest.predict_scores(again, np.array([[high], [low]])).tolist() \
        == [1.0, 0.0]


def test_tree_deeper_than_the_recursion_limit():
    # the best split of alternating labels peels one row off an end
    X = np.arange(1500.0)[:, None]
    y = np.arange(1500) % 2
    cfg = forest.ForestConfig(tree_count=2, bootstrap=False)
    model = forest.train(X, y, cfg, ["f0"])
    assert forest.predict_scores(model, X).tolist() == y.tolist()
    assert forest._depth(model.trees[0]) == 1500
    report = forest.cross_validate(X, y, cfg, ["f0"], k=2, seed=0)
    assert sum(report.confusion.values()) == 1500
