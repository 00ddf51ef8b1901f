"""Reference implementations the package is checked against.

The oracles are written as straight-line loops or explicit basis
matrices, deliberately avoiding the vectorized/library paths the
package uses.  Seven former implementations are kept as references for
rewrites that must keep their bits: the float64 VoD descriptors, the
whole-plane live block energies, the one-bitrate-at-a-time hull
queries, the one-column-at-a-time tree builder, the one-tree-at-a-time
predictor with its ladderlab-model-v1 writer, the json.dump curve-file
writer and the sort-and-loop Pareto filter.  `stratified_split` is the
held-out split the acceptance tests draw.
"""

import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ladderlab import stats
from ladderlab.errors import ContractError, DegenerateCurveError, ValidationError
from ladderlab.features_live import ENERGY_BLOCK
from ladderlab.features_vod import (
    _HALF_WEIGHTS,
    _SPECTRUM_COUNT,
    GLCM_LEVELS,
    TC_BLOCK,
)
from ladderlab.pipeline import write_json
from ladderlab.rd_core import LADDER_RESOLUTIONS, METRICS, RDCurve
from ladderlab.stats import seeded_rng


def glcm_oracle(plane, levels=32):
    """Pair-counting GLCM descriptors for offsets (0,1) and (1,0)."""
    h, w = plane.shape
    q = [[int(plane[i, j]) * levels // 256 for j in range(w)] for i in range(h)]
    counts = [[0.0] * levels for _ in range(levels)]
    for i in range(h):
        for j in range(w - 1):
            counts[q[i][j]][q[i][j + 1]] += 1
    for i in range(h - 1):
        for j in range(w):
            counts[q[i][j]][q[i + 1][j]] += 1
    sym = [[counts[a][b] + counts[b][a] for b in range(levels)] for a in range(levels)]
    total = sum(sum(row) for row in sym)
    p = [[v / total for v in row] for row in sym]

    contrast = sum(p[a][b] * (a - b) ** 2 for a in range(levels) for b in range(levels))
    energy = sum(p[a][b] ** 2 for a in range(levels) for b in range(levels))
    homogeneity = sum(
        p[a][b] / (1 + (a - b) ** 2) for a in range(levels) for b in range(levels)
    )
    entropy = -sum(
        p[a][b] * math.log2(p[a][b])
        for a in range(levels)
        for b in range(levels)
        if p[a][b] > 0
    )
    marg = [sum(p[a][b] for b in range(levels)) for a in range(levels)]
    mu = sum(a * marg[a] for a in range(levels))
    var = sum(a * a * marg[a] for a in range(levels)) - mu * mu
    if var <= 1e-12:
        correlation = 1.0
    else:
        cov = sum(
            p[a][b] * a * b for a in range(levels) for b in range(levels)
        ) - mu * mu
        correlation = cov / var
    return contrast, correlation, energy, homogeneity, entropy


def sobel_si_oracle(plane):
    """SI from an explicit 3x3 Sobel sweep over interior pixels."""
    p = plane.astype(np.float64)
    h, w = p.shape
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    mags = []
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            gx = gy = 0.0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    gx += kx[di + 1][dj + 1] * p[i + di, j + dj]
                    gy += kx[dj + 1][di + 1] * p[i + di, j + dj]
            mags.append(math.sqrt(gx * gx + gy * gy))
    mags = np.array(mags)
    return float(np.sqrt(np.mean((mags - mags.mean()) ** 2)))


def noise_oracle(plane):
    """Laplacian-difference noise sigma via explicit convolution sums."""
    p = plane.astype(np.float64)
    h, w = p.shape
    mask = [[1, -2, 1], [-2, 4, -2], [1, -2, 1]]
    acc = 0.0
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            v = 0.0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    v += mask[di + 1][dj + 1] * p[i + di, j + dj]
            acc += abs(v)
    return math.sqrt(math.pi / 2.0) * acc / (6.0 * (w - 2) * (h - 2))


def ti_oracle(prev, curr):
    d = curr.astype(np.float64) - prev.astype(np.float64)
    m = d.mean()
    return float(math.sqrt(np.mean((d - m) ** 2)))


def ncc_oracle(prev, curr):
    a = prev.astype(np.float64).ravel()
    b = curr.astype(np.float64).ravel()
    da = a - a.mean()
    db = b - b.mean()
    na = math.sqrt(float(np.sum(da * da)))
    nb = math.sqrt(float(np.sum(db * db)))
    if na <= 1e-12 and nb <= 1e-12:
        return 1.0
    if na <= 1e-12 or nb <= 1e-12:
        return 0.0
    return float(np.sum(da * db)) / (na * nb)


def _dft_matrix(n):
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n)


def tc_oracle(prev, curr, block=32):
    """Per-block spectral-magnitude correlations via an explicit DFT matrix."""
    e = _dft_matrix(block)
    h, w = prev.shape
    tcs = []
    for bi in range(h // block):
        for bj in range(w // block):
            sl = (
                slice(bi * block, (bi + 1) * block),
                slice(bj * block, (bj + 1) * block),
            )
            fa = np.abs(e @ prev[sl].astype(np.float64) @ e.T).ravel()[1:]
            fb = np.abs(e @ curr[sl].astype(np.float64) @ e.T).ravel()[1:]
            da = fa - fa.mean()
            db = fb - fb.mean()
            na = math.sqrt(float(np.sum(da * da)))
            nb = math.sqrt(float(np.sum(db * db)))
            if na <= 1e-12 or nb <= 1e-12:
                tcs.append(1.0)
            else:
                tcs.append(max(-1.0, min(1.0, float(np.sum(da * db)) / (na * nb))))
    return tcs


def _dct_matrix(n):
    c = np.zeros((n, n))
    for k in range(n):
        for m in range(n):
            c[k, m] = math.cos(math.pi * (2 * m + 1) * k / (2 * n))
        c[k] *= math.sqrt((1.0 if k == 0 else 2.0) / n)
    return c


def dct_energy_oracle(plane, block=32):
    """Mean per-block |AC| DCT energy via an explicit orthonormal basis."""
    c = _dct_matrix(block)
    h, w = plane.shape
    energies = []
    for bi in range(h // block):
        for bj in range(w // block):
            b = plane[
                bi * block : (bi + 1) * block, bj * block : (bj + 1) * block
            ].astype(np.float64)
            coef = c @ b @ c.T
            e = float(np.sum(np.abs(coef))) - abs(float(coef[0, 0]))
            energies.append(e / (block * block))
    return energies


def temporal_energy_oracle(prev, curr, block=32):
    ea = dct_energy_oracle(prev, block)
    eb = dct_energy_oracle(curr, block)
    return sum(abs(b - a) for a, b in zip(ea, eb)) / len(ea)


# ------------------------------------------- whole-plane live energies
#
# `block_energies` as the package computed it on a float64 copy of the
# whole plane, kept verbatim as the reference its banded DCT must
# reproduce bit for bit.


def _trimmed_plane(plane):
    """Float64 plane cropped to full 32x32 blocks, plus the tiling shape."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    nh, nw = h // ENERGY_BLOCK, w // ENERGY_BLOCK
    if nh == 0 or nw == 0:
        raise ContractError(
            f"plane {w}x{h} smaller than one {ENERGY_BLOCK}x{ENERGY_BLOCK} block"
        )
    return plane[: nh * ENERGY_BLOCK, : nw * ENERGY_BLOCK], nh, nw


def scipy_block_dct(blocks):
    """Orthonormal DCT-II of the (rows, 32, nw, 32) blocks over axes 1 and 3."""
    from scipy import fft as sfft

    return sfft.dctn(blocks, axes=(1, 3), norm="ortho")


def numpy_block_rfft(blocks):
    """Real-input FFT of the (rows, 32, nw, 32) blocks over axes 1 and 3,
    as `np.fft.rfftn` gives it (the former TC spectra)."""
    return np.fft.rfftn(blocks, axes=(1, 3))


def _energies_from_trimmed(trimmed, nh, nw):
    # DCT over a strided 4-D view avoids materializing per-block copies.
    coef = scipy_block_dct(trimmed.reshape(nh, ENERGY_BLOCK, nw, ENERGY_BLOCK))
    np.abs(coef, out=coef)
    coef[:, 0, :, 0] = 0.0
    return coef.sum(axis=(1, 3)).reshape(-1) / (ENERGY_BLOCK * ENERGY_BLOCK)


def whole_plane_block_energies(luma):
    return _energies_from_trimmed(*_trimmed_plane(luma))


# ------------------------------------------------ float64 VoD descriptors
#
# The VoD descriptors as the package computed them on float64 copies of
# the planes (scipy.fft for the TC spectra, scipy.ndimage for the noise
# mask), kept verbatim as the reference its exact-integer kernels must
# reproduce bit for bit.  FLOAT64_VOD maps each package name to its
# reference, so `extract_vod` can run on them in place of its own.


def float64_glcm_descriptors(luma, offsets=((0, 1), (1, 0))):
    luma = np.asarray(luma)
    if luma.shape[0] < 2 or luma.shape[1] < 2:
        raise ContractError("GLCM needs a plane of at least 2x2")
    q = (luma.astype(np.int64) >> 3) if luma.dtype == np.uint8 else (
        np.clip(luma, 0, 255).astype(np.int64) * GLCM_LEVELS // 256
    )
    h, w = q.shape
    counts = np.zeros(GLCM_LEVELS**2, dtype=np.int64)
    for di, dj in offsets:
        a = q[: h - di, : w - dj]
        b = q[di:, dj:]
        counts += np.bincount(
            (a * GLCM_LEVELS + b).ravel(), minlength=GLCM_LEVELS**2
        )
    m = counts.reshape(GLCM_LEVELS, GLCM_LEVELS).astype(np.float64)
    m = m + m.T
    p = m / m.sum()

    idx = np.arange(GLCM_LEVELS, dtype=np.float64)
    di = idx[:, None] - idx[None, :]
    contrast = float(np.sum(p * di**2))
    energy = float(np.sum(p**2))
    homogeneity = float(np.sum(p / (1.0 + di**2)))
    nz = p[p > 0]
    entropy = float(-np.sum(nz * np.log2(nz)))
    mu = float(np.sum(idx * p.sum(axis=1)))
    var = float(np.sum(idx**2 * p.sum(axis=1)) - mu**2)
    if var <= 1e-12:
        correlation = 1.0  # constant image: perfectly self-predictable
    else:
        cov = float(np.sum(p * idx[:, None] * idx[None, :]) - mu**2)
        correlation = cov / var
    return contrast, correlation, energy, homogeneity, entropy


def float64_block_half_spectra(plane):
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    nh, nw = h // TC_BLOCK, w // TC_BLOCK
    if nh == 0 or nw == 0:
        raise ContractError(
            f"plane {w}x{h} smaller than one {TC_BLOCK}x{TC_BLOCK} block"
        )
    from scipy import fft as sfft

    v = plane[: nh * TC_BLOCK, : nw * TC_BLOCK].reshape(nh, TC_BLOCK, nw, TC_BLOCK)
    spec = sfft.rfftn(v, axes=(1, 3))
    return (
        np.abs(spec)
        .transpose(0, 2, 1, 3)
        .reshape(nh * nw, TC_BLOCK, TC_BLOCK // 2 + 1)
    )


def float64_temporal_coherence(prev, curr):
    prev = np.asarray(prev)
    curr = np.asarray(curr)
    if prev.shape != curr.shape:
        raise ContractError("temporal coherence needs equal-size planes")
    sa = float64_block_half_spectra(prev)
    sb = float64_block_half_spectra(curr)
    w = _HALF_WEIGHTS
    mean_a = ((sa * w).sum(axis=(1, 2)) - sa[:, 0, 0]) / _SPECTRUM_COUNT
    mean_b = ((sb * w).sum(axis=(1, 2)) - sb[:, 0, 0]) / _SPECTRUM_COUNT
    da = sa - mean_a[:, None, None]
    db = sb - mean_b[:, None, None]
    # the DC term is subtracted out of every weighted sum
    var_a = (w * da * da).sum(axis=(1, 2)) - da[:, 0, 0] ** 2
    var_b = (w * db * db).sum(axis=(1, 2)) - db[:, 0, 0] ** 2
    cov = (w * da * db).sum(axis=(1, 2)) - da[:, 0, 0] * db[:, 0, 0]
    na = np.sqrt(np.maximum(var_a, 0.0))
    nb = np.sqrt(np.maximum(var_b, 0.0))
    tc = np.ones(sa.shape[0])
    ok = (na > 1e-12) & (nb > 1e-12)
    tc[ok] = cov[ok] / (na[ok] * nb[ok])
    tc = np.clip(tc, -1.0, 1.0)
    return (
        float(tc.mean()),
        stats.pop_std(tc),
        stats.skewness(tc),
        stats.excess_kurtosis(tc),
        stats.histogram_entropy(tc, 16, (-1.0, 1.0)),
    )


_LAPLACIAN_DIFF = np.array([[1, -2, 1], [-2, 4, -2], [1, -2, 1]], dtype=np.float64)


def float64_spatial_information(luma):
    luma = np.asarray(luma, dtype=np.float64)
    if luma.shape[0] < 3 or luma.shape[1] < 3:
        raise ContractError("SI needs a plane of at least 3x3")
    sx = luma[:-2] + 2.0 * luma[1:-1] + luma[2:]
    gx = sx[:, 2:] - sx[:, :-2]
    sy = luma[:, :-2] + 2.0 * luma[:, 1:-1] + luma[:, 2:]
    gy = sy[2:] - sy[:-2]
    return stats.pop_std(np.sqrt(gx * gx + gy * gy))


def float64_temporal_information(prev, curr):
    prev = np.asarray(prev, dtype=np.float64)
    curr = np.asarray(curr, dtype=np.float64)
    if prev.shape != curr.shape:
        raise ContractError("TI needs equal-size planes")
    return stats.pop_std(curr - prev)


def float64_colorfulness_rgb(r, g, b):
    r = np.asarray(r)
    g = np.asarray(g)
    b = np.asarray(b)
    # the moments of float64 copies, which numpy sums pairwise whatever
    # the input dtype was
    rg = np.asarray(r - g, dtype=np.float64)
    yb = np.asarray(0.5 * (r + g) - b, dtype=np.float64)
    sigma = np.hypot(np.std(rg), np.std(yb))
    mu = np.hypot(np.mean(rg), np.mean(yb))
    return float(sigma + 0.3 * mu)


def repeat_yuv420_to_rgb(luma, cb, cr):
    y = np.asarray(luma, dtype=np.float32)
    cbf = np.repeat(np.repeat(np.asarray(cb, dtype=np.float32), 2, 0), 2, 1)
    crf = np.repeat(np.repeat(np.asarray(cr, dtype=np.float32), 2, 0), 2, 1)
    if cbf.shape != y.shape or crf.shape != y.shape:
        raise ContractError("chroma planes are not half-size of luma")
    yp = (y - np.float32(16.0)) * np.float32(255.0 / 219.0)
    pb = (cbf - np.float32(128.0)) * np.float32(255.0 / 224.0)
    pr = (crf - np.float32(128.0)) * np.float32(255.0 / 224.0)
    r = yp + np.float32(1.5748) * pr
    g = yp - np.float32(0.18732427) * pb - np.float32(0.46812427) * pr
    b = yp + np.float32(1.8556) * pb
    return (
        np.clip(r, 0.0, 255.0),
        np.clip(g, 0.0, 255.0),
        np.clip(b, 0.0, 255.0),
    )


def float64_colorfulness(luma, cb, cr):
    return float64_colorfulness_rgb(*repeat_yuv420_to_rgb(luma, cb, cr))


def float64_noise_estimate(luma):
    luma = np.asarray(luma, dtype=np.float64)
    h, w = luma.shape
    if h < 3 or w < 3:
        raise ContractError("noise estimate needs a plane of at least 3x3")
    from scipy import ndimage

    conv = ndimage.correlate(luma, _LAPLACIAN_DIFF, mode="nearest")[1:-1, 1:-1]
    return float(np.sqrt(np.pi / 2.0) * np.sum(np.abs(conv)) / (6.0 * (w - 2) * (h - 2)))


def float64_ncc(prev, curr):
    prev = np.asarray(prev, dtype=np.float64).ravel()
    curr = np.asarray(curr, dtype=np.float64).ravel()
    if prev.shape != curr.shape:
        raise ContractError("NCC needs equal-size planes")
    da = prev - prev.mean()
    db = curr - curr.mean()
    na = np.sqrt(np.sum(da * da))
    nb = np.sqrt(np.sum(db * db))
    if na <= 1e-12 and nb <= 1e-12:
        return 1.0
    if na <= 1e-12 or nb <= 1e-12:
        return 0.0
    return float(np.clip(np.sum(da * db) / (na * nb), -1.0, 1.0))


def float64_mean_std(values):
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), stats.pop_std(v)


FLOAT64_VOD = {
    "glcm_descriptors": float64_glcm_descriptors,
    "spatial_information": float64_spatial_information,
    "colorfulness": float64_colorfulness,
    "noise_estimate": float64_noise_estimate,
    "temporal_coherence": float64_temporal_coherence,
    "temporal_information": float64_temporal_information,
    "ncc": float64_ncc,
    "_mean_std": float64_mean_std,
}


def bd_rate_trapezoid_oracle(ref, test, n=10_000):
    """BD-BR via fine trapezoid integration of the fitted cubics."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    pr = np.polyfit(ref[:, 1], np.log10(ref[:, 0]), 3)
    pt = np.polyfit(test[:, 1], np.log10(test[:, 0]), 3)
    lo = max(ref[:, 1].min(), test[:, 1].min())
    hi = min(ref[:, 1].max(), test[:, 1].max())
    q = np.linspace(lo, hi, n)
    avg = (np.trapezoid(np.polyval(pt, q), q) - np.trapezoid(np.polyval(pr, q), q)) / (
        hi - lo
    )
    return 100.0 * (10.0**avg - 1.0)


# ------------------------------------------------ scalar hull queries
#
# The hull rule, the clamped quality lookup, ladder accuracy and the
# average-tie ranks as the package computed them one bitrate (or one
# element) at a time, kept verbatim as the reference its array code must
# reproduce bit for bit.


def scalar_hull_resolution_index(ladder, bitrate):
    """0..3 index of the resolution the hull rule selects at a bitrate."""
    p1, p2, p3 = ladder.cross_overs.as_tuple()
    if bitrate < p1:
        return 0
    if bitrate < p2:
        return 1
    if bitrate < p3:
        return 2
    return 3


def scalar_hull_quality(curves, ladder, bitrate):
    """Quality of the selected curve, the query clamped to its range."""
    curve = curves[LADDER_RESOLUTIONS[scalar_hull_resolution_index(ladder, bitrate)]]
    lo, hi = curve.min_bitrate, curve.max_bitrate
    return float(curve._interpolator()(math.log(min(max(bitrate, lo), hi))))


def scalar_ladder_accuracy(predicted, reference, grid):
    hits = sum(
        scalar_hull_resolution_index(predicted, b) == scalar_hull_resolution_index(reference, b)
        for b in grid
    )
    return hits / len(grid)


def loop_average_ranks(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class ScalarTreeBuilder:
    """Reference tree builder: one numpy pass per candidate column.

    Same constructor and output attributes as `learning._TreeBuilder`,
    so `learning.train` can run with it in place of the package's
    builder and the two saved models compared byte for byte.  The split
    search is the former builder's; the node bookkeeping follows the
    package's pre-order arrays.
    """

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
        node = len(self.feature)
        self.feature.append(-1)
        y = self.y[idx]
        n = len(idx)
        split = None
        if n >= self.min_split and float(y.max() - y.min()) > 0.0:
            split = self._best_split(idx)
        if split is None:
            self.value.append(float(y.mean()))
            return
        f, thr, gain = split
        mask = self.X[idx, f] <= thr
        self.feature[node] = f
        self.threshold.append(thr)
        slot = len(self.right)
        self.right.append(-1)
        self.gains[f] += gain
        self.build(idx[mask])
        self.right[slot] = len(self.feature)
        self.build(idx[~mask])

    def _candidates(self):
        m = min(self.max_features, self.d)
        return np.sort(self.rng.choice(self.d, size=m, replace=False))

    def _best_split(self, idx):
        y = self.y[idx]
        n = len(idx)
        sse_parent = float(np.sum((y - y.mean()) ** 2))
        best = None
        for f in self._candidates():
            x = self.X[idx, f]
            lo = float(x.min())
            hi = float(x.max())
            if self.extra:
                if hi <= lo:
                    continue
                thr = float(self.rng.uniform(lo, hi))
                mask = x <= thr
                nl = int(mask.sum())
                if nl == 0 or nl == n:
                    continue
                yl = y[mask]
                yr = y[~mask]
                child = float(np.sum((yl - yl.mean()) ** 2)) + float(
                    np.sum((yr - yr.mean()) ** 2)
                )
                gain = sse_parent - child
                if best is None or gain > best[2]:
                    best = (int(f), thr, gain)
            else:
                cand = self._best_exhaustive(x, y, sse_parent)
                if cand is not None and (best is None or cand[1] > best[2]):
                    best = (int(f), cand[0], cand[1])
        if best is None or best[2] <= 0.0:
            return None
        return best

    @staticmethod
    def _best_exhaustive(x, y, sse_parent):
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        n = len(xs)
        boundaries = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        if len(boundaries) == 0:
            return None
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        k = boundaries
        nl = k.astype(np.float64)
        nr = n - nl
        sl = c1[k - 1]
        sl2 = c2[k - 1]
        sr = c1[-1] - sl
        sr2 = c2[-1] - sl2
        child = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
        best = int(np.argmin(child))
        gain = sse_parent - float(child[best])
        lo, hi = xs[k[best] - 1], xs[k[best]]
        thr = 0.5 * (lo + hi)
        return float(thr if thr < hi else lo), gain


# ------------------------------------------- ladderlab-model-v1 models
#
# The per-tree model layout, its `Tree.predict` and its `save_model`,
# kept verbatim as the reference for the one walk over all trees in
# `learning.predict_log` and for the trees behind tests/golden/models.json.
# v1 stored every node's threshold, left and right child (leaves: 0.0, -1,
# -1) and the mean target of the training rows reaching it; v2 keeps only
# what a walk reads, so `v1_model` rebuilds the rest from the training data.

V1_FORMAT_TAG = "ladderlab-model-v1"


@dataclass
class V1Tree:
    """Flattened decision tree: feature < 0 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X):
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return self.value[node]


def v1_predict_log(model, X):
    """The ensemble mean of `V1Tree.predict`, summed tree by tree."""
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += tree.predict(X)
    return acc / len(model.trees)


def v1_model(model, matrix):
    """A trained `learning.TrainedModel` in the v1 layout.

    `y_min` and `y_max` are the training targets' range.  An inner node's
    value is the mean of the training rows reaching it, in the order the
    builder held them: all rows for ExtraTrees, tree t's sorted bootstrap
    draw for RF.
    """
    n = len(matrix.y)
    trees = []
    for t, tree in enumerate(model.trees):
        size = len(tree.feature)
        inner = tree.feature >= 0
        threshold = np.zeros(size)
        threshold[inner] = tree.threshold
        left = np.where(inner, np.arange(1, size + 1), -1)
        right = np.full(size, -1, dtype=np.int64)
        right[inner] = tree.right
        value = np.zeros(size)
        value[~inner] = tree.value
        v1 = V1Tree(tree.feature, threshold, left, right, value)

        def fill(node, idx):
            if v1.feature[node] >= 0:
                y = matrix.y[idx]
                v1.value[node] = float(np.add.reduce(y) / len(idx))
                mask = matrix.X[idx, v1.feature[node]] <= v1.threshold[node]
                fill(v1.left[node], idx[mask])
                fill(v1.right[node], idx[~mask])

        rng = stats.seeded_rng(model.hyperparams.seed, t)
        fill(0, np.sort(rng.integers(0, n, size=n)) if model.kind == "rf" else np.arange(n))
        trees.append(v1)
    return SimpleNamespace(**{**vars(model), "trees": trees, "y_min": float(matrix.y.min()),
                              "y_max": float(matrix.y.max())})


#: The dtype of each Tree array, in field order; the keys of a tree in a model file.
_TREE_DTYPES = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
                "right": np.int64, "value": np.float64}


def save_model_v1(model, path):
    """Serialize to versioned JSON; floats round-trip bit-exactly."""
    doc = {
        "format": V1_FORMAT_TAG,
        "kind": model.kind,
        "target_id": model.target_id,
        "metric": model.metric,
        "hyperparams": {
            "n_trees": model.hyperparams.n_trees,
            "max_features": model.hyperparams.max_features,
            "min_samples_split": model.hyperparams.min_samples_split,
            "seed": model.hyperparams.seed,
        },
        "feature_names": list(model.feature_names),
        "y_min": model.y_min,
        "y_max": model.y_max,
        "feature_gains": model.feature_gains.tolist(),
        "trees": [{k: getattr(t, k).tolist() for k in _TREE_DTYPES} for t in model.trees],
    }
    write_json(path, doc, indent=None)


# ------------------------------------------------ json.dump curve files
#
# `pipeline.write_curves_dir` as it was when it built each document as a
# dict and wrote it with `pipeline.write_json` (inlined here), kept
# verbatim as the reference for the bytes of its template writer.


def json_dump_write_curves_dir(dirpath, curves_by_key):
    os.makedirs(dirpath, exist_ok=True)
    for (clip_id, codec, platform, metric), by_res in sorted(curves_by_key.items()):
        doc = {
            "clip_id": clip_id,
            "codec": codec,
            "platform": platform,
            "metric": metric,
            "resolutions": {
                f"{w}x{h}": [
                    {"bitrate_kbps": bitrate, "quality": quality, "qp": qp}
                    for bitrate, quality, qp in zip(
                        curve.points.bitrate, curve.points.quality, curve.points.qp)
                ]
                for (w, h), curve in sorted(by_res.items())
            },
        }
        path = os.path.join(dirpath, f"{clip_id}__{codec}__{platform}__{metric}.json")
        with open(path, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=1)
            f.write("\n")


# ------------------------------------------------- sort-and-loop Pareto filter
#
# `rd_core.build_rd_curve` as it was when curves held lists of RDPoint
# records, kept as the reference for the survivors, their order and
# their qp under the array filter; like the filter, it compares bitrates
# by their logs.  It reads `.bitrate`, `.quality` and `.qp`, so give it
# RDPoints; its curve holds their list.


def loop_build_rd_curve(samples, resolution, metric):
    """Sort samples by log bitrate and keep only the Pareto frontier.

    A point is dropped when some other point has no higher np.log
    bitrate and no lower quality.  The survivors are strictly increasing
    in both coordinates.
    """
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    if len(samples) < 2:
        raise DegenerateCurveError(
            f"{resolution}/{metric}: need at least 2 samples, got {len(samples)}"
        )
    if metric == "vmaf":
        for p in samples:
            if not 0.0 <= p.quality <= 100.0:
                raise ValidationError(f"VMAF quality out of range: {p.quality}")
    logs = np.log(np.array([p.bitrate for p in samples], dtype=np.float64)).tolist()
    ordered = [p for _, p in sorted(zip(logs, samples),
                                    key=lambda lp: (lp[0], -lp[1].quality, lp[1].bitrate))]
    kept = []
    best_quality = -math.inf
    for p in ordered:
        if p.quality > best_quality:
            kept.append(p)
            best_quality = p.quality
    if len(kept) < 2:
        raise DegenerateCurveError(
            f"{resolution}/{metric}: fewer than 2 points survive Pareto cleaning"
        )
    return RDCurve(resolution=tuple(resolution), metric=metric, points=kept)


# ------------------------------------------------------ stratified split
#
# The seeded held-out split of A3 (tests/test_acceptance.py).  No command
# splits a corpus, so the split lives with the tests that draw it.


def stratified_split(clip_ids, strata, test_fraction, seed):
    """Seeded per-stratum split with largest-remainder rounding.

    Returns (train_ids, test_ids); they are disjoint and cover all clip
    ids.  Any stratum with a single clip is an error.
    """
    if len(clip_ids) != len(strata):
        raise ContractError("clip_ids and strata must align")
    if not 0.0 < test_fraction < 1.0:
        raise ContractError("test_fraction must be in (0, 1)")
    groups = {}
    for cid, s in zip(clip_ids, strata):
        groups.setdefault(s, []).append(cid)
    singletons = sorted(str(s) for s, members in groups.items() if len(members) < 2)
    if singletons:
        raise ValidationError(f"strata with fewer than 2 clips: {singletons}")

    labels = sorted(groups, key=str)
    quotas = {s: test_fraction * len(groups[s]) for s in labels}
    base = {s: int(math.floor(quotas[s])) for s in labels}
    total_target = int(round(test_fraction * len(clip_ids)))
    leftover = total_target - sum(base.values())
    remainders = sorted(
        labels, key=lambda s: (-(quotas[s] - base[s]), str(s))
    )
    counts = dict(base)
    for s in remainders[: max(0, leftover)]:
        counts[s] += 1
    rng = seeded_rng(seed, 0x57)
    train_ids, test_ids = [], []
    for s in labels:
        members = list(groups[s])
        order = rng.permutation(len(members))
        k = min(counts[s], len(members) - 1)
        for j, oi in enumerate(order):
            (test_ids if j < k else train_ids).append(members[oi])
    return train_ids, test_ids
