import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

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
        assert tree.feature[0] == f
        assert tree.threshold[0] == pytest.approx(t, abs=1e-12)


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
    [score] = forest.predict_scores(model, np.array([[0.0]]))
    assert score == 0.5
    assert score >= model.config.threshold


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


def _saved(model):
    buf = io.StringIO()
    forest.save_forest(model, buf)
    return buf.getvalue()


def _explained(model, X):
    """Each row's prior, contributions and score, as bytes."""
    out = []
    for x in X:
        prior, contrib, score = forest.decompose_prediction(model, x)
        out.append(np.array([prior, *contrib, score]).tobytes())
    return out


def test_walk_table_is_neither_saved_nor_needed_to_explain():
    X, y = _toy_data(n=150, seed=13, gap=False)
    model = forest.train(X, y, forest.ForestConfig(tree_count=7, seed=4),
                         [f"f{i}" for i in range(5)])
    saved = _saved(model)
    scores = forest.predict_scores(model, X)
    explained = _explained(model, X)
    assert _saved(model) == saved
    again = forest.load_forest(io.StringIO(saved))
    assert _explained(again, X) == explained
    assert forest.predict_scores(again, X).tobytes() == scores.tobytes()


def test_replaced_trees_explain_from_their_own_walk_table():
    X, y = _toy_data(n=150, seed=14, gap=False)
    names = [f"f{i}" for i in range(5)]
    model = forest.train(X, y, forest.ForestConfig(tree_count=7, seed=4),
                         names)
    other = forest.train(X, y, forest.ForestConfig(tree_count=3, seed=5),
                         names)
    explained = _explained(model, X)  # model's table is built first
    swapped = dataclasses.replace(model, trees=other.trees)
    assert _explained(swapped, X) == _explained(other, X) != explained
    assert (forest.predict_scores(swapped, X)
            == forest.predict_scores(other, X)).all()


def test_load_rejects_unknown_format():
    with pytest.raises(InputError):
        forest.load_forest(io.StringIO('{"format": 99}'))


@pytest.mark.parametrize("threshold", [
    "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400,
    str(2 ** 53 + 3)])
def test_load_rejects_a_threshold_no_float_holds(threshold):
    # every row would go right of a NaN threshold; a huge integer does not
    # convert to a float, and 2**53 + 3 rounds to 2**53 + 4
    tree = ('{"counts": [[1, 1], [1, 0], [0, 1]], "feature": [0, -1, -1], '
            '"right": [2, -1, -1], "threshold": [%s, 0, 0]}' % threshold)
    text = ('{"format": 2, "feature_names": ["a"], "feature_version": "1", '
            '"config": {}, "trees": [{"counts": [[1, 0]], "feature": [-1], '
            '"right": [-1], "threshold": [0]}, %s]}' % tree)
    with pytest.raises(InputError, match="model tree 1: .*finite threshold"):
        forest.load_forest(io.StringIO(text))


def test_counts_no_float_holds_score_as_int_division():
    # 10**400 does not convert to a float, and 2**60 + 1 rounds to 2**60
    big, odd = 10 ** 400, 2 ** 60 + 1
    text = ('{"format": 2, "feature_names": ["a"], "feature_version": "1", '
            '"config": {}, "trees": [{"counts": [[%d, %d], [%d, 3], [1, %d]], '
            '"feature": [0, -1, -1], "right": [2, -1, -1], '
            '"threshold": [0.5, 0, 0]}]}' % (big, big, odd, big))
    model = forest.load_forest(io.StringIO(text))
    X = np.array([[0.0], [1.0]])
    expected = [3 / (odd + 3), big / (1 + big)]
    assert forest.predict_scores(model, X).tolist() == expected
    for x, score in zip(X, expected):
        prior, contrib, got = forest.decompose_prediction(model, x)
        assert (prior, contrib.tolist(), got) == (0.5, [score - 0.5], score)


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
    assert model.trees[0].threshold[0] == low
    buf = io.StringIO()
    forest.save_forest(model, buf)
    buf.seek(0)
    again = forest.load_forest(buf)
    assert forest.predict_scores(again, np.array([[high], [low]])).tolist() \
        == [1.0, 0.0]


def levels(tree):
    """Levels of a flat tree, its root and leaves included."""
    depth = [1] * len(tree.right)
    for i, r in enumerate(tree.right):  # a child comes after its parent
        if r >= 0:
            depth[i + 1] = depth[r] = depth[i] + 1
    return max(depth)


def test_tree_deeper_than_the_recursion_limit():
    # the best split of alternating labels peels one row off an end
    X = np.arange(1500.0)[:, None]
    y = np.arange(1500) % 2
    cfg = forest.ForestConfig(tree_count=2, bootstrap=False)
    model = forest.train(X, y, cfg, ["f0"])
    scores = forest.predict_scores(model, X)
    assert scores.tolist() == y.tolist()
    assert levels(model.trees[0]) == 1500
    buf = io.StringIO()
    forest.save_forest(model, buf)
    buf.seek(0)
    again = forest.load_forest(buf)
    assert again.trees == model.trees
    assert (forest.predict_scores(again, X) == scores).all()
    report = forest.cross_validate(X, y, cfg, ["f0"], k=2, seed=0)
    assert sum(report.confusion.values()) == 1500


@pytest.mark.parametrize("width", [2, 10])
def test_a_matrix_of_other_width_is_refused(width):
    X, y = _toy_data(n=60, seed=10)
    names = [f"f{i}" for i in range(5)]
    model = forest.train(X, y, forest.ForestConfig(tree_count=2), names)
    other = np.zeros((3, width))
    with pytest.raises(InputError, match=f"5 feature .*{width}"):
        forest.predict_scores(model, other)
    with pytest.raises(InputError, match=f"5 feature .*{width}"):
        forest.decompose_prediction(model, other[0])
    with pytest.raises(InputError, match=f"5 feature .*{width}"):
        forest.feature_importance(model, other)
    with pytest.raises(InputError, match=f"{width} feature .*5"):
        forest.train(X, y, forest.ForestConfig(tree_count=2),
                     [f"f{i}" for i in range(width)])


def _small_model_json():
    X, y = _toy_data(n=40, seed=11, gap=False)
    model = forest.train(X, y, forest.ForestConfig(tree_count=2, seed=3),
                         [f"f{i}" for i in range(5)])
    buf = io.StringIO()
    forest.save_forest(model, buf)
    return json.loads(buf.getvalue())


_MODEL = _small_model_json()
# what may replace a list entry: ints in and out of range, a bool, a float
# where an int belongs, a NaN threshold, a list, nothing
_ENTRIES = st.sampled_from([-2, -1, 0, 1, 2, 4, 5, 7, 1000, True, False, 1.0,
                            0.5, math.nan, [1, 0], [0, 0], [1], None, "0"])


@st.composite
def _mutated_models(draw):
    """A valid format 2 model with one or two of its trees' entries
    changed: a key dropped, a list cut or grown, an entry replaced."""
    payload = json.loads(json.dumps(_MODEL))
    for _ in range(draw(st.integers(1, 2))):
        tree = draw(st.sampled_from(payload["trees"]))
        name = draw(st.sampled_from(sorted(tree)))
        how = draw(st.sampled_from(["drop", "cut", "grow", "entry", "entry",
                                    "entry", "right"]))
        values = tree[name]
        if how == "drop":
            del tree[name]
        elif how == "grow":
            values.append(draw(_ENTRIES))
        elif how in ("cut", "entry") and values:
            i = draw(st.integers(0, len(values) - 1))
            if how == "cut":
                del values[i]
            else:
                values[i] = draw(_ENTRIES)
        elif how == "right" and tree.get("right"):
            # a right child at or before its node, or past the end
            n = len(tree["right"])
            i = draw(st.integers(0, n - 1))
            tree["right"][i] = draw(st.sampled_from([i, i - 1, i + 1, n]))
    return payload


def _load_outcome(payload):
    """The loaded forest, or the text of the InputError that refused it."""
    try:
        return forest.load_forest(io.StringIO(json.dumps(payload)))
    except InputError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_mutated_models())
def test_mutated_model_loads_and_scores_or_names_its_tree(payload):
    X, _y = _toy_data(n=20, seed=12)
    model = _load_outcome(payload)
    if isinstance(model, str):
        assert model.startswith("model tree "), model
        return
    scores = forest.predict_scores(model, X)
    assert ((0 <= scores) & (scores <= 1)).all()
    for x in X[:3]:
        forest.decompose_prediction(model, x)


@pytest.mark.parametrize("outcome", [
    "loads", "of one length", "without counts", "split needs",
    "right child"])
def test_mutated_model_strategy_reaches(outcome):
    def reached(payload):
        model = _load_outcome(payload)
        return (outcome in model if isinstance(model, str)
                else outcome == "loads")
    find(_mutated_models(), reached,
         settings=settings(max_examples=2000, deadline=None, database=None,
                           phases=[Phase.generate]))
