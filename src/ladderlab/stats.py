"""Shared statistics conventions.

All moments are population (biased) moments, kurtosis is excess kurtosis
(normal -> 0), and percentiles use linear interpolation.  Zero-variance
series get skewness/kurtosis of 0 so constant inputs stay finite.
"""

import numpy as np

from .errors import ValidationError

_VAR_EPS = 1e-12
_LEAF = 1 << 16  # most values one np.add.reduce call of `tree_sums` adds
_PAIRWISE_BLOCK = 128  # numpy adds a run this short in one unrolled loop


def tree_sums(n, k, values):
    """np.add.reduce of k contiguous float64 arrays of n values, bit for bit,
    without holding them.

    numpy adds a contiguous float64 run pairwise: a run longer than 128
    values is split after n // 2 - (n // 2) % 8 of them, and the sums of
    the two parts are added.  This follows the same splits down to runs
    of at most `_LEAF` values, has `values(lo, hi, out)` write values
    lo..hi-1 of array i to row i of the (k, hi - lo) float64 array `out`,
    adds each row with np.add.reduce and the halves' sums in tree order.
    Returns the k sums as a float64 array.
    """
    return _walk(values, np.empty((k, min(n, max(_LEAF, _PAIRWISE_BLOCK)))), 0, n)


def _walk(values, buf, lo, n):
    # a module-level function, not a closure over itself, so that no
    # reference cycle keeps `values` and the planes it reads alive
    if n <= _LEAF or n <= _PAIRWISE_BLOCK:
        out = buf[:, :n]
        values(lo, lo + n, out)
        return np.array([np.add.reduce(row) for row in out])
    half = n // 2 - n // 2 % 8
    return _walk(values, buf, lo, half) + _walk(values, buf, lo + half, n - half)


def check_seed(seed):
    """Reject a negative seed, which np.random.SeedSequence refuses."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


def seeded_rng(seed, stream):
    """numpy's Generator of `stream` under a user's non-negative `seed`, which
    `synth` draws from; `learning` reproduces the draws it makes without
    numpy.random."""
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def pop_std(x):
    return float(np.std(np.asarray(x, dtype=np.float64)))


def skewness(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    if m2 <= _VAR_EPS:
        return 0.0
    m3 = np.mean((x - m) ** 3)
    return float(m3 / m2**1.5)


def excess_kurtosis(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    if m2 <= _VAR_EPS:
        return 0.0
    m4 = np.mean((x - m) ** 4)
    return float(m4 / m2**2 - 3.0)


def histogram_entropy(x, bins, value_range):
    """Shannon entropy (base 2) of a fixed-bin histogram of x."""
    counts, _ = np.histogram(np.asarray(x, dtype=np.float64), bins=bins, range=value_range)
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def quartiles(x):
    """np.percentile(x, [25, 50, 75]) of a float64 series.

    numpy's linear method, from a sort instead of its partition, which
    imports numpy.ma.  The bits are numpy's but for the sign of a zero,
    as the two may order 0.0 and -0.0 differently.  The fraction t of the
    virtual index (n - 1) * q weights the neighbouring order statistics a
    and b as a + (b - a) * t, or as b - (b - a) * (1 - t) where t >= 0.5.
    At or beyond the last index numpy takes the last value for both, with
    t counted from index -1.  A NaN makes every quartile NaN.
    """
    s = np.sort(x)
    n = len(s)
    virtual = (n - 1) * np.array([0.25, 0.5, 0.75])
    lo = np.floor(virtual)
    hi = lo + 1
    last = virtual >= n - 1
    lo[last] = hi[last] = -1
    t = virtual - lo
    a, b = s[lo.astype(np.intp)], s[hi.astype(np.intp)]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(s[-1]):
        out[:] = np.nan
    return out


def ten_stats(x):
    """(mean, std, min, max, p25, p50, p75, iqr, skw, kur) of a series."""
    x = np.asarray(x, dtype=np.float64)
    p25, p50, p75 = quartiles(x)
    return (
        float(x.mean()),
        pop_std(x),
        float(x.min()),
        float(x.max()),
        float(p25),
        float(p50),
        float(p75),
        float(p75 - p25),
        skewness(x),
        excess_kurtosis(x),
    )


def pearson(a, b):
    """Pearson correlation; raises on zero variance (callers guard)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da * da) * np.sum(db * db))
    return float(np.sum(da * db) / denom)
