"""Seeded tree-ensemble regression for cross-over bitrate prediction.

ExtraTrees draws one uniform random threshold per candidate feature;
random forests bootstrap rows and search thresholds exhaustively.
Targets are regressed in ln(kbps): cross-overs span orders of magnitude
and squared error in the log domain matches the log-rate geometry of
the BD metrics.  Everything stochastic is a pure function of
(data, hyperparameters, seed); tree t uses an RNG keyed on (seed, t) so
results do not depend on scheduling.  The RNG is this module's own PCG64
stream, which draws what numpy's Generator on SeedSequence([seed, t])
draws; of the CLI commands, only `synth` imports numpy.random.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractError, ValidationError
from .pipeline import MODEL_KINDS, TARGET_IDS, json_object, read_input, write_json
from .rd_core import METRICS
from .stats import check_seed, pearson

MODEL_FORMAT_TAG = "ladderlab-model-v2"

_VAR_EPS = 1e-12
_VALIDATION_FRACTION = 0.2  # share of rows `rfe_select` holds out
# Leaf values `predict` accepts: exp() of a mean of them is a positive normal float.
_LEAF_RANGE = (math.log(np.finfo(np.float64).tiny), math.log(np.finfo(np.float64).max))
# Window, relative to the node's sum of squares, within which an
# ExtraTrees gain screen value is confirmed exactly.  The screen's
# rounding stayed below 1e-14 of that sum on nodes of up to 3000 rows,
# also for targets whose mean is 1e6 standard deviations from 0.
_SCREEN_RTOL = 1e-9


@dataclass(frozen=True)
class Hyperparams:
    n_trees: int = 100
    max_features: int | None = None  # None -> ceil(d / 3)
    min_samples_split: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError(f"n_trees must be at least 1, got {self.n_trees}")
        if self.max_features is not None and self.max_features < 1:
            raise ValidationError(f"max_features must be at least 1, got {self.max_features}")
        if self.min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be at least 2, got {self.min_samples_split}"
            )
        check_seed(self.seed)

    def resolved_max_features(self, n_features):
        if self.max_features is None:
            return max(1, math.ceil(n_features / 3))
        return min(self.max_features, n_features)


@dataclass
class TrainingMatrix:
    """Feature matrix plus ln(kbps) targets, one row per clip."""

    clip_ids: list
    feature_names: list
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] != len(self.clip_ids):
            raise ValidationError("X rows must match clip_ids")
        if self.X.shape[1] != len(self.feature_names):
            raise ValidationError("X columns must match feature_names")
        if len(self.y) != self.X.shape[0]:
            raise ValidationError("y length must match X rows")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError("duplicate feature names")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValidationError("non-finite entries in training data")

    def subset_features(self, names):
        idx = [self.feature_names.index(n) for n in names]
        return TrainingMatrix(self.clip_ids, list(names), self.X[:, idx], self.y)

    def subset_rows(self, row_idx):
        return TrainingMatrix(
            [self.clip_ids[i] for i in row_idx],
            self.feature_names,
            self.X[row_idx],
            self.y[row_idx],
        )


@dataclass
class Tree:
    """One decision tree, its nodes in pre-order: an inner node's left child
    is the node after it.  `feature` holds every node, -1 for a leaf;
    `threshold` and `right` (a node index within the tree) hold the inner
    nodes, and `value` the leaves, each in node order."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass
class TrainedModel:
    kind: str
    trees: list
    hyperparams: Hyperparams
    feature_names: list
    target_id: str
    metric: str
    feature_gains: np.ndarray = field(repr=False)  # summed impurity decrease


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_CHUNK = 256  # PCG64 states `_Pcg64Stream` computes at once
_LANE = 40  # bytes per state in the packed product: A*s + G*inc < 2**257


def _pcg64_seed(seed, stream):
    """(state, increment) of numpy's PCG64(SeedSequence([seed, stream]))."""
    entropy = [v >> s & _MASK32 for v in (seed, stream)
               for s in range(0, max(v.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight words, paired little-endian
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
    return ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128, inc


def _packed_steps():
    """A_j = MULT**j and G_j = 1 + MULT + ... + MULT**(j - 1) mod 2**128 for
    j = 1.._CHUNK, each packed into one int, _LANE bytes apart: j steps of
    the LCG take state s to A_j * s + G_j * inc."""
    a, g, lanes = 1, 0, ([], [])
    for _ in range(_CHUNK):
        a, g = a * _PCG_MULT & _MASK128, (g * _PCG_MULT + 1) & _MASK128
        lanes[0].append(a.to_bytes(_LANE, "little"))
        lanes[1].append(g.to_bytes(_LANE, "little"))
    return [int.from_bytes(b"".join(v), "little") for v in lanes]


_STEPS, _INC_STEPS = _packed_steps()


class _Pcg64Stream:
    """The draws of np.random.default_rng(np.random.SeedSequence([seed,
    stream])) that training makes, without numpy.random, so that model
    bytes rest on this code rather than on the algorithms of numpy's
    Generator methods, and `train` does not load numpy.random (and,
    through it, OpenSSL).

    The bit generator is PCG64 (XSL-RR 128/64), its outputs computed
    _CHUNK at a time.  A 32-bit draw is the low half of a 64-bit output,
    and the next 32-bit draw its high half, also after 64-bit draws in
    between.  The methods take numpy's arguments, so a Generator can
    stand in for this class.
    """

    def __init__(self, seed, stream):
        check_seed(seed)
        self._state, inc = _pcg64_seed(int(seed), stream)
        self._inc_steps = inc * _INC_STEPS
        # outputs computed so far, as their 32-bit halves (low first) and as
        # `random`'s doubles; those before output `_taken` are used
        self._words, self._doubles, self._taken = [], np.empty(0), 0
        self._half = None  # the high half of the last 64-bit output split for 32-bit draws

    def _chunk(self):
        """The outputs of the next _CHUNK states, all from one product."""
        packed = self._state * _STEPS + self._inc_steps
        lanes = np.frombuffer(packed.to_bytes(_LANE * _CHUNK, "little"), dtype="<u8")
        lo, hi = lanes[0::_LANE // 8], lanes[1::_LANE // 8]  # of each state mod 2**128
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        # XSL-RR: the high half xor the low half, rotated right by the top 6 bits
        x, rot = hi ^ lo, hi >> np.uint64(58)
        return x >> rot | x << (np.uint64(64) - rot & np.uint64(63))

    def _take(self, n):
        """Index of the first of the next n outputs, which it marks used."""
        i = self._taken
        while i + n > len(self._doubles):
            out = self._chunk()
            self._words = self._words[2 * i:] + out.astype("<u8", copy=False).view("<u4").tolist()
            self._doubles = np.concatenate([self._doubles[i:], (out >> np.uint64(11)) * 2.0**-53])
            i = 0
        self._taken = i + n
        return i

    def _next32(self, n):
        out = []
        if n and self._half is not None:
            out.append(self._half)
            self._half, n = None, n - 1
        i = 2 * self._take((n + 1) // 2)
        out += self._words[i:i + n]
        if n % 2:
            self._half = self._words[i + n]
        return out

    def _lemire(self, bounds):
        """A value in [0, b) per bound b <= 2**32 by Lemire's method on 32-bit
        draws; b == 1 takes no draw."""
        words = self._next32(len(bounds) - bounds.count(1))
        draws, out = iter(words), []  # a list iterator also yields what is appended later
        for b in bounds:
            m = next(draws) * b if b > 1 else 0
            if m & _MASK32 < b:
                floor = (1 << 32) % b
                while m & _MASK32 < floor:  # rejected: one more draw
                    words += self._next32(1)
                    m = next(draws) * b
            out.append(m >> 32)
        return out

    def _masked(self, highs):
        """A value in [0, h] per 1 <= h < 2**32 by masked rejection on 32-bit draws."""
        words = self._next32(len(highs))
        draws, out = iter(words), []
        for h in highs:
            mask = (1 << h.bit_length()) - 1
            v = next(draws) & mask
            while v > h:
                words += self._next32(1)
                v = next(draws) & mask
            out.append(v)
        return out

    def random(self, size):
        """`size` doubles in [0, 1): the top 53 bits of 64-bit draws."""
        i = self._take(size)
        return self._doubles[i:i + size].copy()

    def integers(self, low, high, size):
        return low + np.array(self._lemire([high - low] * size), dtype=np.int64)

    def choice(self, a, size, replace=True):
        """`size` of range(a) without replacement: Floyd's algorithm, or for
        a > 10000 and size > a // 50 a shuffle of the tail, then a shuffle."""
        if replace:
            raise ValueError("only draws without replacement are supported")
        if a > 10000 and size > a // 50:
            first = max(a - size, 1)
            items, picks = list(range(a)), self._lemire(range(a, first, -1))
        else:
            picks = self._lemire([*range(a - size + 1, a + 1), *range(size, 1, -1)])
            taken = {}  # Floyd's set, in the order of insertion
            for j, v in zip(range(a - size, a), picks):
                taken[j if v in taken else v] = None
            items, picks = list(taken), picks[size:]
        _swap_down(items, picks)
        return np.array(items[len(items) - size:], dtype=np.int64)

    def permutation(self, x):
        """range(x) shuffled."""
        return np.array(_swap_down(list(range(x)), self._masked(range(x - 1, 0, -1))),
                        dtype=np.int64)


def _swap_down(items, picks):
    """Fisher-Yates: swap the last item with item picks[0], the one before
    it with picks[1], and so on while picks last."""
    for i, j in zip(range(len(items) - 1, 0, -1), picks):
        items[i], items[j] = items[j], items[i]
    return items


class _TreeBuilder:
    def __init__(self, X, y, max_features, min_samples_split, rng, extra):
        self.X = X
        self.y = y
        self.d = X.shape[1]
        self.max_features = max_features
        self.min_split = min_samples_split
        self.rng = rng
        self.extra = extra
        self.feature = []
        self.threshold = []
        self.right = []
        self.value = []
        self.gains = np.zeros(self.d)

    def build(self, idx):
        """Grow the subtree of rows `idx`, appending its nodes in pre-order."""
        node = len(self.feature)
        self.feature.append(-1)
        y = self.y[idx]
        n = len(idx)
        split = None
        if n >= self.min_split and np.maximum.reduce(y) > np.minimum.reduce(y):
            split = self._best_split(idx, y)
        if split is None:
            # np.add.reduce(y) / n gives the bits of y.mean() without its wrapper.
            self.value.append(float(np.add.reduce(y) / n))
            return
        f, thr, gain = split
        self.feature[node] = f
        self.threshold.append(thr)
        slot = len(self.right)
        self.right.append(-1)
        self.gains[f] += gain
        mask = self.X[idx, f] <= thr
        self.build(idx[mask])
        self.right[slot] = len(self.feature)
        self.build(idx[~mask])

    def _candidates(self):
        cand = self.rng.choice(self.d, size=self.max_features, replace=False)
        # Ties between equally good splits break toward the lowest
        # column index, so candidates are evaluated in sorted order.
        return np.sort(cand)

    def _best_split(self, idx, y):
        """(feature, threshold, gain) of the best split of rows `idx`, or None.

        All candidate columns are searched at once on the (n, m) block of
        the node's rows.  Thresholds, gains and tie-breaks are bit for
        bit those of a search one column at a time, the reference in
        tests/oracles.py.
        """
        cand = self._candidates()
        block = self.X[idx[:, None], cand]
        yc = y - np.add.reduce(y) / len(y)
        sse_parent = float(np.add.reduce(yc * yc))
        if self.extra:
            best = _best_random(block, y, yc, sse_parent, self.rng)
        else:
            best = _best_exhaustive(block, y, sse_parent)
        if best is None or best[2] <= 0.0:
            return None
        j, thr, gain = best
        return int(cand[j]), thr, gain


def _best_random(block, y, yc, sse_parent, rng):
    """(column, threshold, gain) of the best random-threshold split, or None.

    Each non-constant column gets one uniform threshold; the first
    column with the largest exact gain wins.
    """
    n = len(y)
    lo = np.minimum.reduce(block)
    hi = np.maximum.reduce(block)
    live = (hi > lo).nonzero()[0]
    if len(live) == 0:
        return None
    # One draw per non-constant column, in column order, with
    # Generator.uniform's arithmetic low + (high - low) * u: the doubles
    # of one rng.uniform(lo, hi) call per column.  rng.uniform with array
    # bounds draws them too, but its argument checks cost more than the
    # rest of a small node's search.
    lo = lo[live]
    thr = lo + (hi[live] - lo) * rng.random(len(live))
    mask = block[:, live] <= thr
    nl = np.add.reduce(mask)
    keep = (nl < n).nonzero()[0]
    if len(keep) > 1:
        # Screen: the between-group sum of squares equals the gain up to
        # rounding.  Only the columns it cannot separate from the top get
        # the exact gain.  The rounded mean leaves sum(yc) != 0;
        # subtracting each side's share of it keeps a mean far from 0
        # from swamping the screen.
        nl = nl[keep]
        sl = yc @ mask[:, keep] - nl * (np.add.reduce(yc) / n)
        screen = sl * sl * n / (nl * (n - nl))
        keep = keep[screen >= screen.max() - _SCREEN_RTOL * sse_parent]
    best = None
    gains = {}  # identical partitions have identical gains
    for j in keep:
        col = mask[:, j]
        key = col.tobytes()
        if key not in gains:
            gains[key] = sse_parent - (_sse(y[col]) + _sse(y[~col]))
        if best is None or gains[key] > best[2]:
            best = (live[j], float(thr[j]), gains[key])
    return best


def _sse(v):
    """float(np.sum((v - v.mean()) ** 2)), bit for bit, without the wrappers."""
    d = v - np.add.reduce(v) / len(v)
    return float(np.add.reduce(d * d))


def _best_exhaustive(block, y, sse_parent):
    """(column, threshold, gain) of the best midpoint split over all columns.

    Row k of the scan is the split after the k+1 smallest values; only
    rows between distinct values are eligible, and the first minimum of
    each column and the first maximum across columns win.
    """
    n = len(y)
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    ys = y[order]
    c1 = np.cumsum(ys, axis=0)
    c2 = np.cumsum(ys * ys, axis=0)
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    sl = c1[:-1]
    sl2 = c2[:-1]
    sr = c1[-1] - sl
    sr2 = c2[-1] - sl2
    child = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
    child[xs[1:] <= xs[:-1]] = np.inf
    gains = sse_parent - np.minimum.reduce(child)
    j = int(np.argmax(gains))
    if gains[j] == -np.inf:
        return None
    k = int(np.argmin(child[:, j]))
    lo, hi = xs[k, j], xs[k + 1, j]
    thr = 0.5 * (lo + hi)  # rounded onto `hi`, it would send `hi` left
    return j, float(thr if thr < hi else lo), float(gains[j])


def train(matrix, hyperparams=Hyperparams(), kind="extratrees", target_id="p3",
          metric="ypsnr"):
    """Fit a seeded tree ensemble on a training matrix.

    A constant target yields a model that predicts the constant; that is
    not an error.
    """
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    n, d = matrix.X.shape
    if n < 10:
        raise ContractError(f"need at least 10 rows, got {n}")
    if d < 1:
        raise ContractError("need at least one feature")
    max_features = hyperparams.resolved_max_features(d)
    trees = []
    gains = np.zeros(d)
    for t in range(hyperparams.n_trees):
        rng = _Pcg64Stream(hyperparams.seed, t)
        if kind == "rf":
            idx = np.sort(rng.integers(0, n, size=n))
        else:
            idx = np.arange(n)
        builder = _TreeBuilder(
            matrix.X, matrix.y, max_features, hyperparams.min_samples_split,
            rng, extra=(kind == "extratrees"),
        )
        builder.build(idx)
        trees.append(Tree(np.asarray(builder.feature, dtype=np.int64),
                          np.asarray(builder.threshold, dtype=np.float64),
                          np.asarray(builder.right, dtype=np.int64),
                          np.asarray(builder.value, dtype=np.float64)))
        gains += builder.gains
    return TrainedModel(
        kind=kind,
        trees=trees,
        hyperparams=hyperparams,
        feature_names=list(matrix.feature_names),
        target_id=target_id,
        metric=metric,
        feature_gains=gains,
    )


def _check_schema(model, feature_names):
    if list(feature_names) != list(model.feature_names):
        missing = sorted(set(model.feature_names) - set(feature_names))
        extra = sorted(set(feature_names) - set(model.feature_names))
        raise ContractError(
            f"feature schema mismatch: missing={missing} extra={extra}"
        )


def predict_log(model, X, feature_names=None):
    """Ensemble mean in the ln(kbps) target domain."""
    if feature_names is not None:
        _check_schema(model, feature_names)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != len(model.feature_names):
        raise ContractError(
            f"expected {len(model.feature_names)} features, got {X.shape[1]}"
        )
    trees = model.trees
    first = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])  # each tree's root
    # The trees side by side, every array holding an entry per node.
    feature = np.concatenate([t.feature for t in trees])
    inner = feature >= 0
    threshold = np.zeros(feature.size)
    threshold[inner] = np.concatenate([t.threshold for t in trees])
    right = np.zeros(feature.size, dtype=np.int64)
    right[inner] = np.concatenate([t.right + s for t, s in zip(trees, first)])
    value = np.zeros(feature.size)
    value[~inner] = np.concatenate([t.value for t in trees])
    # node[t, i] is where row i stands in tree t; each step moves every walk.
    node = np.repeat(first, X.shape[0]).reshape(len(trees), X.shape[0])
    f = feature[node]
    while np.any(f >= 0):
        go_left = X[np.arange(X.shape[0]), f] <= threshold[node]
        node = np.where(f < 0, node, np.where(go_left, node + 1, right[node]))
        f = feature[node]
    acc = np.zeros(X.shape[0])
    for leaves in value[node]:  # tree by tree, in order
        acc += leaves
    return acc / len(trees)


def predict(model, X, feature_names=None):
    """Predicted cross-over bitrates in kbps.

    Any finite leaf serves `predict_log`, but exp() of a leaf outside
    `_LEAF_RANGE` is inf or below the least normal float, so such a model
    is rejected, naming its tree.
    """
    values = np.concatenate([t.value for t in model.trees])
    lo, hi = _LEAF_RANGE
    outside = (values < lo) | (values > hi)
    if outside.any():
        leaf = int(outside.argmax())
        tree = int(np.searchsorted(np.cumsum([t.value.size for t in model.trees]), leaf,
                                   side="right"))
        raise ValidationError(
            f"{model.target_id} model, tree {tree}: leaf value {float(values[leaf])!r} lies "
            f"outside [{lo!r}, {hi!r}], where exp() is a positive finite float")
    return np.exp(predict_log(model, X, feature_names))


def impurity_importance(model):
    """Per-feature total impurity decrease, normalized to sum to 1."""
    total = model.feature_gains.sum()
    if total <= 0:
        return np.zeros_like(model.feature_gains)
    return model.feature_gains / total


@dataclass
class SelectionReport:
    kept: list  # feature names of the best stage
    trace: list  # per-stage (n_features, validation PLCC)
    importances: list  # impurity importances aligned with `kept`


def rfe_select(matrix, kind="extratrees", hyperparams=Hyperparams(), seed=0):
    """Recursive feature elimination with a held-out PLCC stopping rule.

    Each stage fits on the current feature set, records PLCC on the
    _VALIDATION_FRACTION of rows held out, and drops the ceil(10%) lowest
    impurity-importance features.  The kept set is the stage with maximum
    PLCC; ties prefer fewer features.
    """
    n, d = matrix.X.shape
    if d < 2:
        raise ContractError("RFE needs at least 2 features")
    rng = _Pcg64Stream(seed, 0xFE)
    perm = rng.permutation(n)
    n_val = max(3, int(round(_VALIDATION_FRACTION * n)))
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    current = list(matrix.feature_names)
    stages = []
    while True:
        sub_train = matrix.subset_rows(train_idx).subset_features(current)
        sub_val = matrix.subset_rows(val_idx).subset_features(current)
        model = train(sub_train, hyperparams, kind)
        pred = predict_log(model, sub_val.X)
        if np.std(pred) <= _VAR_EPS or np.std(sub_val.y) <= _VAR_EPS:
            plcc = 0.0
        else:
            plcc = pearson(pred, sub_val.y)
        imp = impurity_importance(model)
        stages.append((list(current), plcc, list(imp)))
        if len(current) == 1:
            break
        k = math.ceil(0.1 * len(current))
        # Of columns with equal importance, the earlier one is dropped first.
        order = sorted(range(len(current)), key=lambda i: (imp[i], i))
        drop = {current[i] for i in order[:k]}
        current = [f for f in current if f not in drop]

    kept, _, imp = max(stages, key=lambda s: (s[1], -len(s[0])))
    trace = [(len(names), plcc) for names, plcc, _ in stages]
    return SelectionReport(kept=kept, trace=trace, importances=imp)


def save_model(model, path):
    """Serialize to versioned JSON; floats round-trip bit-exactly.  Each node
    array holds the trees' `Tree` arrays one after another."""
    trees = model.trees
    write_json(path, {
        "format": MODEL_FORMAT_TAG,
        "kind": model.kind,
        "target_id": model.target_id,
        "metric": model.metric,
        "hyperparams": asdict(model.hyperparams),
        "feature_names": list(model.feature_names),
        "feature_gains": model.feature_gains.tolist(),
        "tree_sizes": [len(t.feature) for t in trees],
        **{k: np.concatenate([getattr(t, k) for t in trees]).tolist()
           for k in ("feature", "threshold", "right", "value")},
    }, indent=None)


def load_model(path):
    with read_input(path, "model file") as source:
        doc = source.json()
        if doc.get("format") != MODEL_FORMAT_TAG:
            raise ValidationError(f"unknown model format {doc.get('format')!r}")
        kind, target_id, metric = doc["kind"], doc["target_id"], doc["metric"]
        if kind not in MODEL_KINDS or target_id not in TARGET_IDS or metric not in METRICS:
            raise ValidationError(
                f"unknown kind, target or metric: {kind!r}, {target_id!r}, {metric!r}")
        params = json_object(doc["hyperparams"], "hyperparams")
        for key, v in params.items():
            if type(v) is not int and not (key == "max_features" and v is None):
                raise ValidationError(f"hyperparams.{key} must be an integer, got {v!r}")
        hyperparams = Hyperparams(**params)
        names = doc["feature_names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names)):
            raise ValidationError("feature_names must be a list of distinct strings")
        gains = _numbers(doc, "feature_gains", np.float64)
        if gains.shape != (len(names),):
            raise ValidationError(f"feature_gains must hold {len(names)} values, one per feature")
        sizes, feature, right = (
            _numbers(doc, k, np.int64) for k in ("tree_sizes", "feature", "right"))
        threshold, value = (_numbers(doc, k, np.float64) for k in ("threshold", "value"))
        _check_trees(sizes, feature, threshold, right, value, len(names))
        if len(sizes) != hyperparams.n_trees:
            raise ValidationError(f"hyperparams.n_trees is {hyperparams.n_trees}, "
                                  f"but the model holds {len(sizes)} tree(s)")
    cuts = np.cumsum(sizes)[:-1]
    inner_before = np.cumsum(feature >= 0)[cuts - 1]  # inner nodes before each cut
    trees = [Tree(*parts) for parts in zip(
        np.split(feature, cuts), np.split(threshold, inner_before),
        np.split(right, inner_before), np.split(value, cuts - inner_before))]
    return TrainedModel(kind, trees, hyperparams, names, target_id, metric, gains)


def _numbers(doc, key, dtype):
    """doc[key] as a `dtype` array of JSON numbers, integers for int64;
    np.asarray alone would truncate 12.7, and take true as 1 and "0.5" as 0.5."""
    values = doc[key]
    types = {int} if dtype is np.int64 else {int, float}
    if isinstance(values, list) and not set(map(type, values)) <= types:
        bad = next(v for v in values if type(v) not in types)
        kind = "integers" if dtype is np.int64 else "numbers"
        raise ValidationError(f"{key} must hold {kind}, got {bad!r}")
    return np.asarray(values, dtype=dtype)


def _check_trees(sizes, feature, threshold, right, value, d):
    """Reject node arrays that `predict_log` could index outside or not walk to a leaf."""
    if any(a.ndim != 1 for a in (sizes, feature, threshold, right, value)):
        raise ValidationError("tree_sizes, feature, threshold, right and value must be lists")
    if sizes.size == 0:
        raise ValidationError("model has no trees")
    if np.any((sizes < 1) | (sizes > feature.size)) or sizes.sum() != feature.size:
        raise ValidationError(
            f"tree_sizes must be positive and add up to the {feature.size} nodes of feature")
    tree = np.repeat(np.arange(sizes.size), sizes)  # the tree of each node
    outside = (feature < -1) | (feature >= d)
    if outside.any():
        raise ValidationError(
            f"tree {tree[outside.argmax()]}: a feature index lies outside [-1, {d})")
    inner = feature >= 0
    if not (np.count_nonzero(inner) == threshold.size == right.size
            and np.count_nonzero(~inner) == value.size):
        raise ValidationError(
            "threshold and right need one entry per inner node, and value one per leaf")
    # With both children after their node (the left one is the next node),
    # every walk moves forward and so stops.
    node = np.flatnonzero(inner) - (np.cumsum(sizes) - sizes)[tree[inner]]
    misplaced = ~((node < right) & (right < sizes[tree[inner]]))
    if misplaced.any():
        raise ValidationError(f"tree {tree[inner][misplaced.argmax()]}: "
                              "a child index does not lie after its node within the tree")
    finite = np.empty(feature.size, dtype=bool)
    finite[inner] = np.isfinite(threshold)
    finite[~inner] = np.isfinite(value)
    if not finite.all():
        raise ValidationError(
            f"tree {tree[finite.argmin()]}: thresholds and values must be finite")
