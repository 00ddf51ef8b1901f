import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderlab import learning
from ladderlab.errors import ContractError, ValidationError
from ladderlab.learning import (
    Hyperparams,
    TrainingMatrix,
    impurity_importance,
    load_model,
    predict,
    predict_log,
    rfe_select,
    save_model,
    train,
)
from ladderlab.stats import seeded_rng
from oracles import (
    ScalarTreeBuilder, save_model_v1, stratified_split, v1_model, v1_predict_log,
)


GOLDEN_MODELS = Path(__file__).parent / "golden" / "models.json"
GOLDEN_MODELS_V2 = Path(__file__).parent / "golden" / "models_v2.json"


def make_matrix(X, y, names=None):
    n, d = np.asarray(X).shape
    names = names or [f"F{i + 1}" for i in range(d)]
    return TrainingMatrix([f"c{i}" for i in range(n)], names, X, y)


def model_bytes(model, tmp_path, name="model.json", save=save_model):
    path = tmp_path / name
    save(model, path)
    return path.read_bytes()


def reference_train(matrix, hp, kind):
    """`train` with the scalar per-column split search of tests/oracles.py,
    drawing from numpy's Generator in place of learning's own stream."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "_TreeBuilder", ScalarTreeBuilder)
        mp.setattr(learning, "_Pcg64Stream", seeded_rng)
        return train(matrix, hp, kind)


def golden_model_cases():
    """(case id, matrix, hyperparams, kind) of the golden model digests.

    tests/golden/models.json holds the sha256 of each case's
    ladderlab-model-v1 bytes (`save_model_v1` in tests/oracles.py) as
    written by the one-column-at-a-time builder, now `ScalarTreeBuilder`
    there; tests/golden/models_v2.json holds those of the same trees in
    today's `save_model` format.  `dense` is shaped like the corpus
    training matrix (100 clips x 30 features); `tied` has four integer
    levels per column, so many candidate thresholds tie, and a
    `min_samples_split` above 2.
    """
    rng = np.random.default_rng(np.random.SeedSequence([6, 0x90]))
    X = rng.normal(size=(100, 30))
    y = X[:, :4] @ np.array([1.0, -0.7, 0.4, 0.2]) + rng.normal(0.0, 0.3, 100)
    Xt = rng.integers(0, 4, size=(80, 6)).astype(np.float64)
    yt = Xt[:, 0] - 0.5 * Xt[:, 1] + rng.normal(0.0, 0.2, 80)
    matrices = {
        "dense": (make_matrix(X, y), {}),
        "tied": (make_matrix(Xt, yt), {"min_samples_split": 5, "max_features": 2}),
    }
    return [
        (f"{name}-{kind}-seed{seed}", matrix, Hyperparams(n_trees=10, seed=seed, **extra),
         kind)
        for name, (matrix, extra) in matrices.items()
        for kind in ("extratrees", "rf")
        for seed in (0, 1, 2)
    ]


# ------------------------------------------------------------- training

def test_constant_target_predicts_constant():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(20, 4))
    m = make_matrix(X, np.full(20, 7.0))
    model = train(m, Hyperparams(n_trees=10, seed=1))
    pred = predict_log(model, rng.normal(size=(5, 4)))
    assert pred == pytest.approx(np.full(5, 7.0), abs=1e-12)
    assert predict(model, X[:1])[0] == pytest.approx(np.exp(7.0), rel=1e-12)


@pytest.mark.parametrize("kind", ["extratrees", "rf"])
def test_identity_function_high_training_r2(kind):
    rng = np.random.default_rng(31)
    X = rng.uniform(-1, 1, size=(1000, 3))
    y = X[:, 0]
    m = make_matrix(X, y)
    model = train(m, Hyperparams(n_trees=100, seed=2), kind=kind)
    sse = float(np.sum((y - predict_log(model, X)) ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    assert 1.0 - sse / sst >= 0.99


@pytest.mark.parametrize("kind", ["extratrees", "rf"])
def test_determinism_bit_identical_serialization(kind, tmp_path):
    rng = np.random.default_rng(32)
    X = rng.normal(size=(40, 5))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0, 0.0]) + rng.normal(0, 0.1, 40)
    m = make_matrix(X, y)
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_model(train(m, Hyperparams(n_trees=8, seed=3), kind=kind), p1)
    save_model(train(m, Hyperparams(n_trees=8, seed=3), kind=kind), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_round_trip_predictions(tmp_path):
    rng = np.random.default_rng(33)
    X = rng.normal(size=(30, 4))
    y = X[:, 0] + 0.3 * X[:, 1]
    m = make_matrix(X, y)
    model = train(m, Hyperparams(n_trees=6, seed=4))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    Xq = rng.normal(size=(7, 4))
    assert predict_log(loaded, Xq) == pytest.approx(predict_log(model, Xq), abs=0.0)
    # re-saving the loaded model is byte-identical
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_single_tree_rf_without_split_memorizes():
    # a fully-grown unbootstrapped tree reproduces its training targets
    rng = np.random.default_rng(34)
    X = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    m = make_matrix(X, y)
    model = train(m, Hyperparams(n_trees=1, max_features=2, seed=5), kind="extratrees")
    assert predict_log(model, X) == pytest.approx(y, abs=1e-12)


def test_schema_mismatch_lists_names():
    rng = np.random.default_rng(35)
    X = rng.normal(size=(15, 3))
    m = make_matrix(X, X[:, 0], names=["a", "b", "c"])
    model = train(m, Hyperparams(n_trees=2, seed=6))
    with pytest.raises(ContractError) as exc:
        predict_log(model, X, feature_names=["a", "b", "zzz"])
    assert "zzz" in str(exc.value) and "c" in str(exc.value)


@pytest.mark.parametrize("field, value", [
    ("n_trees", 0), ("max_features", 0), ("min_samples_split", 1), ("seed", -1),
])
def test_hyperparams_reject_out_of_range(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be"):
        Hyperparams(**{field: value})


def test_too_few_rows_rejected():
    X = np.zeros((5, 2))
    with pytest.raises(ContractError):
        train(make_matrix(X, np.arange(5.0)))


def test_models_match_golden_bytes(tmp_path):
    """The trees are those of the v1 golden models, and their v2 bytes are pinned."""
    v1, v2 = {}, {}
    for case, matrix, hp, kind in golden_model_cases():
        model = train(matrix, hp, kind)
        v1[case] = hashlib.sha256(
            model_bytes(v1_model(model, matrix), tmp_path, save=save_model_v1)).hexdigest()
        v2[case] = hashlib.sha256(model_bytes(model, tmp_path)).hexdigest()
    assert v1 == json.loads(GOLDEN_MODELS.read_text())
    assert v2 == json.loads(GOLDEN_MODELS_V2.read_text())


@st.composite
def tree_problems(draw):
    """Small training sets with constant columns, duplicate rows and ties."""
    n = draw(st.integers(10, 60))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 2, 3, 5]))  # 0: continuous x
    if levels:
        X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    else:
        X = rng.normal(size=(n, d))
    X[:, rng.random(d) < draw(st.sampled_from([0.0, 0.3]))] = 1.5
    n_dup = draw(st.integers(0, n // 2))
    X[n - n_dup:] = X[rng.integers(0, n - n_dup, size=n_dup)]
    if draw(st.booleans()):
        y = rng.integers(0, 3, size=n).astype(np.float64)
    else:
        y = X[:, 0] + rng.normal(0.0, 0.5, n)
    # ln(kbps) targets sit far from 0 relative to their spread.
    y = draw(st.sampled_from([0.0, 8.0, 1e6])) + draw(st.sampled_from([1.0, 1e-4])) * y
    hp = Hyperparams(
        n_trees=3,
        max_features=draw(st.sampled_from([None, 1, 2, d])),
        min_samples_split=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 10)),
    )
    return make_matrix(X, y), hp


def far_from_zero_targets():
    """A mean 1e6 standard deviations from 0: the rounded mean then
    shifts every centred target, which the gain screen must cancel."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 4))
    y = 1e6 + X[:, 0] + rng.normal(0.0, 0.5, 20)
    return make_matrix(X, y), Hyperparams(n_trees=1, max_features=4)


@settings(max_examples=60, deadline=None)
@given(problem=tree_problems())
@example(problem=far_from_zero_targets())
def test_vectorized_split_search_matches_scalar_reference(problem, tmp_path_factory):
    matrix, hp = problem
    tmp = tmp_path_factory.mktemp("models")
    for kind in ("extratrees", "rf"):
        ours = model_bytes(train(matrix, hp, kind), tmp, "ours.json")
        ref = model_bytes(reference_train(matrix, hp, kind), tmp, "ref.json")
        assert ours == ref, kind


@settings(max_examples=60, deadline=None)
@given(problem=tree_problems())
def test_predict_matches_one_tree_at_a_time_reference(problem, tmp_path_factory):
    """predict_log, on the trained and on the saved and loaded model, equals
    the v1 per-tree walk summed tree by tree, bit for bit."""
    matrix, hp = problem
    path = tmp_path_factory.mktemp("models") / "model.json"
    rng = np.random.default_rng(hp.seed)
    X = np.vstack([matrix.X, rng.normal(size=(20, matrix.X.shape[1])), matrix.X[:5] + 0.25])
    for kind in ("extratrees", "rf"):
        model = train(matrix, hp, kind)
        save_model(model, path)
        want = v1_predict_log(v1_model(model, matrix), X)
        for ours in (model, load_model(path)):
            assert np.array_equal(predict_log(ours, X), want), kind


# ------------------------------------------------------ the random stream

def numpy_stream(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def stream_draws(rng, calls):
    """The arrays `calls` draw from `rng`, one per call, in order."""
    make = {"choice": lambda a, size: rng.choice(a, size=size, replace=False),
            "random": rng.random,
            "integers": lambda low, high, size: rng.integers(low, high, size=size),
            "permutation": rng.permutation}
    return [make[name](*args) for name, *args in calls]


@st.composite
def stream_call(draw):
    """One Generator call of the kinds training makes.  Large bounds make
    Lemire's method reject draws; sizes up to a few hundred cross the
    stream's chunks of 256 outputs."""
    kind = draw(st.sampled_from(["choice", "random", "integers", "permutation"]))
    if kind == "choice":
        a = draw(st.integers(1, 40) | st.integers(1, 2**32))
        return kind, a, draw(st.integers(0, min(a, 40)))
    if kind == "random":
        return kind, draw(st.integers(0, 12) | st.integers(0, 300))
    if kind == "integers":
        low = draw(st.integers(-5, 5))
        high = low + draw(st.integers(1, 200) | st.integers(1, 2**32))
        return kind, low, high, draw(st.integers(0, 12) | st.integers(0, 300))
    return kind, draw(st.integers(0, 50) | st.integers(0, 600))


EDGE_CALLS = [("choice", 7, 7), ("choice", 1, 1), ("choice", 1, 0), ("random", 0),
              ("integers", 0, 1, 3), ("permutation", 0), ("permutation", 1),
              ("choice", 30, 10), ("random", 1)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**128), stream=st.sampled_from([0, 1, 0xFE]) | st.integers(0, 2**70),
       calls=st.lists(stream_call(), max_size=12))
@example(seed=0, stream=0, calls=EDGE_CALLS)
@example(seed=2**128, stream=0xFE, calls=EDGE_CALLS[::-1])
@example(seed=2**32 - 1, stream=2**32, calls=[("integers", 0, 3 * 2**30, 40)])
def test_stream_matches_numpy_generator(seed, stream, calls):
    """learning's stream draws what numpy's Generator on
    SeedSequence([seed, stream]) draws, call for call, dtype included."""
    ours = stream_draws(learning._Pcg64Stream(seed, stream), calls)
    want = stream_draws(numpy_stream(seed, stream), calls)
    for call, got, ref in zip(calls, ours, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref), call


def test_stream_choice_shuffles_the_tail_of_a_large_population():
    """Above 10,000 items and a fiftieth of them, numpy's choice shuffles
    the tail of range(a) instead of running Floyd's algorithm."""
    calls = [("choice", 10_050, 300), ("random", 3), ("choice", 20_000, 401)]
    for got, ref in zip(stream_draws(learning._Pcg64Stream(5, 9), calls),
                        stream_draws(numpy_stream(5, 9), calls)):
        assert np.array_equal(got, ref)


# ------------------------------------- splits between neighbouring doubles

def built_tree(X, y, rows, extra):
    """The `_TreeBuilder` grown on `rows` of (X, y), every column a candidate."""
    builder = learning._TreeBuilder(X, y, X.shape[1], 2, np.random.default_rng(0), extra)
    builder.build(rows)
    return builder


def assert_applied_splits_are_the_scored_ones(builder, X, y, rows):
    """Sends `rows` down the tree as `build` did: every leaf gets a row, and
    the gains of the partitions applied add up to the recorded ones."""
    slot = np.cumsum(np.asarray(builder.feature) >= 0) - 1  # of an inner node's threshold
    leaves, applied = [], np.zeros(X.shape[1])

    def sse(r):
        return float(np.sum((y[r] - y[r].mean()) ** 2))

    def walk(node, r):
        f = builder.feature[node]
        if f < 0:
            leaves.append(len(r))
            return
        left = X[r, f] <= builder.threshold[slot[node]]
        applied[f] += sse(r) - sse(r[left]) - sse(r[~left])
        walk(node + 1, r[left])
        walk(builder.right[slot[node]], r[~left])

    walk(0, rows)
    assert min(leaves) >= 1
    assert applied == pytest.approx(builder.gains, rel=1e-9, abs=1e-9 * sse(rows))


def test_rf_split_between_neighbouring_doubles_applies_the_scored_partition():
    # 0.5 * (a + b) rounds onto b, the column's largest value: split there,
    # every row went left, and the same split was taken without end
    a = 0.2955312244511243
    b = np.nextafter(a, np.inf)
    assert 0.5 * (a + b) == b
    X = np.array([a] * 6 + [b] * 6 + [0.1] * 3)[:, None]
    y = np.log([100.0] * 6 + [200.0] * 6 + [400.0] * 3)
    rows = np.arange(15)
    builder = built_tree(X, y, rows, extra=False)
    assert a in builder.threshold
    assert_applied_splits_are_the_scored_ones(builder, X, y, rows)


@settings(max_examples=80, deadline=None)
@given(st.floats(-1e300, 1e300), st.integers(10, 40), st.integers(1, 3),
       st.sampled_from(["extratrees", "rf"]), st.integers(0, 2**32 - 1))
@example(0.2955312244511243, 15, 1, "rf", 0)
@example(-0.0, 12, 2, "rf", 1)
def test_splits_between_neighbouring_doubles_apply_the_scored_partition(a, n, d, kind, seed):
    rng = np.random.default_rng(seed)
    values = np.array([a, np.nextafter(a, np.inf), rng.uniform(-1e3, 1e3)])
    X = rng.choice(values, size=(n, d), p=[0.4, 0.4, 0.2])
    y = rng.integers(0, 3, n) + rng.normal(8.0, 0.1, n)
    rows = np.sort(rng.integers(0, n, n)) if kind == "rf" else np.arange(n)
    builder = built_tree(X, y, rows, extra=(kind == "extratrees"))
    assert_applied_splits_are_the_scored_ones(builder, X, y, rows)


# ---------------------------------------------------------- importances

def test_impurity_importance_identifies_signal():
    rng = np.random.default_rng(36)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = X[:, 0]
    m = make_matrix(X, y)
    model = train(m, Hyperparams(n_trees=50, max_features=2, seed=7))
    imp = impurity_importance(model)
    assert imp[0] > 0.8
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)


def test_unused_feature_importance_zero():
    rng = np.random.default_rng(37)
    X = np.column_stack([rng.uniform(-1, 1, 200), np.zeros(200)])
    m = make_matrix(X, X[:, 0])
    model = train(m, Hyperparams(n_trees=20, max_features=2, seed=8))
    assert impurity_importance(model)[1] == 0.0


# ------------------------------------------------------------------ RFE

def test_rfe_drops_constant_feature_first():
    rng = np.random.default_rng(39)
    X = np.column_stack([rng.uniform(-1, 1, 100), np.full(100, 3.0)])
    m = make_matrix(X, X[:, 0], names=["signal", "flat"])
    report = rfe_select(m, hyperparams=Hyperparams(n_trees=20, seed=10), seed=10)
    assert report.kept == ["signal"]
    assert report.trace[0][0] == 2 and report.trace[-1][0] == 1


def test_rfe_recovers_known_support():
    rng = np.random.default_rng(40)
    n, d = 200, 12
    X = rng.uniform(-1, 1, size=(n, d))
    beta = np.zeros(d)
    beta[:3] = (3.0, -2.0, 1.5)
    y = X @ beta + rng.normal(0, 0.05, n)
    m = make_matrix(X, y)
    report = rfe_select(m, hyperparams=Hyperparams(n_trees=40, seed=11), seed=11)
    assert {"F1", "F2", "F3"} <= set(report.kept)


# ------------------------------------------------------ stratified split

def test_stratified_split_exact_quota():
    ids = [f"c{i}" for i in range(100)]
    strata = [i % 4 for i in range(100)]
    train_ids, test_ids = stratified_split(ids, strata, 0.2, seed=0)
    assert len(test_ids) == 20
    assert sorted(train_ids + test_ids) == sorted(ids)
    by_stratum = {s: 0 for s in range(4)}
    lookup = dict(zip(ids, strata))
    for cid in test_ids:
        by_stratum[lookup[cid]] += 1
    assert all(v == 5 for v in by_stratum.values())


def test_stratified_split_deterministic_and_seed_sensitive():
    ids = [f"c{i}" for i in range(40)]
    strata = [i % 2 for i in range(40)]
    a = stratified_split(ids, strata, 0.25, seed=1)
    b = stratified_split(ids, strata, 0.25, seed=1)
    c = stratified_split(ids, strata, 0.25, seed=2)
    assert a == b
    assert a != c


def test_stratified_split_singleton_stratum_error():
    with pytest.raises(ValidationError) as exc:
        stratified_split(["a", "b", "c"], [0, 0, 1], 0.3, seed=0)
    assert "1" in str(exc.value)
