"""VoD feature set: 30 spatio-temporal statistics per clip.

Per-frame descriptors: five GLCM texture descriptors, spatial
information (SI), colorfulness (CF), and a Laplacian noise estimate.
Per consecutive-pair descriptors: temporal coherence (TC) block
statistics, temporal information (TI), and normalized cross correlation
(NCC).  Sequence level mean/std (population) of each descriptor fill
slots F1..F30.
"""

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from . import stats
from .errors import ContractError, ValidationError
from .media_io import PlaneRows, read_frames

GLCM_LEVELS = 32
TC_BLOCK = 32
_BAND_PIXELS = 1 << 16  # most luma pixels in a band of whole block rows (GLCM and noise
# with 1-row blocks, TC, live DCT), unless one block row holds more

VOD_FEATURE_NAMES = (
    # GLCM: correlation, contrast, energy, homogeneity, entropy
    "meanGLCM_cor", "stdGLCM_cor",
    "meanGLCM_con", "stdGLCM_con",
    "meanGLCM_enr", "stdGLCM_enr",
    "meanGLCM_hom", "stdGLCM_hom",
    "meanGLCM_ent", "stdGLCM_ent",
    # TC block statistics
    "meanTC_mean", "meanTC_std",
    "stdTC_mean", "stdTC_std",
    "meanTC_skw", "stdTC_skw",
    "meanTC_kur", "stdTC_kur",
    "meanTC_entr", "stdTC_entr",
    "mean_SI", "std_SI",
    "mean_TI", "std_TI",
    "mean_CF", "std_CF",
    "mean_Noise", "std_Noise",
    "mean_NCC", "std_NCC",
)


@dataclass(frozen=True)
class VodFeatureVector:
    values: tuple

    def __post_init__(self):
        if len(self.values) != 30:
            raise ValidationError(f"expected 30 features, got {len(self.values)}")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite feature value")


def _uint8(plane):
    """`plane` as an array of 8-bit samples, as `read_frames` gives them,
    or a `PlaneRows` reader of one, whose rows the kernels read a range
    at a time.

    The kernels widen uint8 to int16, in which Sobel sums and the
    Laplacian are exact integers, or subtract uint8 planes straight into
    float64, also exactly; so their float64 results carry the same bits
    as a float64 computation would.  Any other dtype is refused: TI's
    exact-integer mean would truncate a float plane.
    """
    if not isinstance(plane, PlaneRows):
        plane = np.asarray(plane)
    if plane.dtype != np.uint8:
        raise ContractError(f"VoD descriptors need uint8 planes, got {plane.dtype}")
    return plane


def band_rows(width, block):
    """Rows of a `width`-pixel plane in one band of whole `block`-row
    strips: as many as fit in `_BAND_PIXELS`, and at least one."""
    return block * max(1, _BAND_PIXELS // (block * width))


def _flat(plane, lo, hi):
    """Values lo..hi-1 of a plane in row-major order, from the rows they
    cover."""
    w = plane.shape[1]
    top = lo // w
    return plane[top : (hi - 1) // w + 1].reshape(-1)[lo - top * w : hi - top * w]


def _sum(plane):
    """The exact integer sum of a uint8 plane, one band of rows at a time."""
    rows = band_rows(plane.shape[1], 1)
    return sum(int(plane[top : top + rows].sum(dtype=np.int64))
               for top in range(0, plane.shape[0], rows))


def _pocketfft_dir():
    """The directory of scipy's compiled pocketfft module, found without
    importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ValidationError("features need scipy's compiled pocketfft module: "
                              "scipy is not installed")
    return os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft")


@functools.cache
def pocketfft():
    """scipy's compiled pocketfft module, loaded from its file.

    `scipy.fft` ends in this module's functions, so calling them gives
    the same coefficients without importing the `scipy.fft` package
    (about 100 ms and 28 MB per process).
    """
    directory = _pocketfft_dir()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "pypocketfft" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("pypocketfft", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from importlib.metadata import version  # on failure only: it takes 8 ms to import

    raise ValidationError(
        f"scipy's compiled pocketfft module pypocketfft not found in {directory} "
        f"(scipy {version('scipy')})"
    )


def glcm_descriptors(luma):
    """(contrast, correlation, energy, homogeneity, entropy) of the luma plane.

    32 gray levels; offsets (0,1) and (1,0) pooled into one symmetric
    co-occurrence distribution; entropy base 2 with 0*log0 := 0.  The
    pairs are counted in row bands, each with the next band's first row
    for its (1,0) pairs; integer counts add up the same in any order.
    """
    luma = _uint8(luma)
    if luma.shape[0] < 2 or luma.shape[1] < 2:
        raise ContractError("GLCM needs a plane of at least 2x2")
    h, w = luma.shape
    rows = band_rows(w, 1)
    counts = np.zeros(GLCM_LEVELS**2, dtype=np.int64)
    for top in range(0, h, rows):
        band = luma[top : top + rows + 1]
        q = (band >> 3).astype(np.uint16)  # holds every code a * GLCM_LEVELS + b below
        own = q[:rows]
        for codes in (own[:, :-1] * GLCM_LEVELS + own[:, 1:], q[:-1] * GLCM_LEVELS + q[1:]):
            counts += np.bincount(codes.ravel(), minlength=GLCM_LEVELS**2)
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


def _block_half_spectra(band, block_major):
    """Per-block magnitudes of the real-input FFT half spectrum of a band
    of whole block rows, as a (blocks, 32, 17) array.

    The full 32x32 magnitude spectrum is Hermitian-symmetric, so
    magnitudes are kept only for frequency columns 0..16; mirrored
    columns are accounted for by `_HALF_WEIGHTS` in the correlation.
    With `block_major` the magnitudes are laid out block after block;
    without, those of one block row are a strided view, whose per-block
    sums round differently.
    """
    band = np.asarray(band, dtype=np.float64)
    nh, nw = band.shape[0] // TC_BLOCK, band.shape[1] // TC_BLOCK
    # `np.fft.rfftn(band, axes=(1, 3))`, bit for bit
    spec = pocketfft().r2c(band.reshape(nh, TC_BLOCK, nw, TC_BLOCK), (1, 3), True, 0, None, 1)
    if block_major:
        out = np.empty((nh, nw, TC_BLOCK, TC_BLOCK // 2 + 1))
        np.abs(spec.transpose(0, 2, 1, 3), out=out)
    else:
        out = np.abs(spec).transpose(0, 2, 1, 3)
    return out.reshape(nh * nw, TC_BLOCK, TC_BLOCK // 2 + 1)


def _half_weights():
    w = np.full((TC_BLOCK, TC_BLOCK // 2 + 1), 2.0)
    w[:, 0] = 1.0  # self-conjugate columns appear once in the full spectrum
    w[:, -1] = 1.0
    return w


_HALF_WEIGHTS = _half_weights()
_SPECTRUM_COUNT = TC_BLOCK * TC_BLOCK - 1  # full spectrum minus DC


def _block_tc(prev, curr, block_major):
    """Per-block TC of two equal-size bands of whole block rows, blocks in
    row-major order."""
    sa = _block_half_spectra(prev, block_major)
    sb = _block_half_spectra(curr, block_major)
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
    return tc


def temporal_coherence(prev, curr):
    """(mean, std, skw, kur, entr) of per-block temporal coherence.

    TC of a block is the zero-mean normalized correlation between the
    DC-excluded FFT magnitude spectra of the co-located 32x32 blocks; a
    zero-variance spectrum makes that block's TC 1.  Entropy uses a
    16-bin histogram over [-1, 1].

    The spectra are taken in bands of `band_rows`, so only a band's
    spectra are held.  They are laid out block-major, but on a plane of
    one block row as a strided view: the features keep the bits of the
    whole-plane computation, whose spectra had that layout there.
    """
    prev = _uint8(prev)
    curr = _uint8(curr)
    if prev.shape != curr.shape:
        raise ContractError("temporal coherence needs equal-size planes")
    h, w = prev.shape
    nh, nw = h // TC_BLOCK, w // TC_BLOCK
    if nh == 0 or nw == 0:
        raise ContractError(
            f"plane {w}x{h} smaller than one {TC_BLOCK}x{TC_BLOCK} block"
        )
    cols = nw * TC_BLOCK
    rows = band_rows(cols, TC_BLOCK)
    bands = [(top, min(top + rows, nh * TC_BLOCK)) for top in range(0, nh * TC_BLOCK, rows)]
    tc = np.concatenate([
        _block_tc(prev[top:end][:, :cols], curr[top:end][:, :cols], nh > 1)
        for top, end in bands
    ])
    tc = np.clip(tc, -1.0, 1.0)
    return (
        float(tc.mean()),
        stats.pop_std(tc),
        stats.skewness(tc),
        stats.excess_kurtosis(tc),
        stats.histogram_entropy(tc, 16, (-1.0, 1.0)),
    )


def _gradient_squares(luma):
    """Sobel |g|^2 on the interior of a plane or of a band of its rows."""
    # separable Sobel ([1,2,1] smoothing, [-1,0,1] difference) evaluated
    # only on the interior, where the boundary mode is irrelevant; widened
    # once, so every sum is an int16 loop without casts
    luma = luma.astype(np.int16)
    sx = luma[:-2] + luma[2:]
    sx += luma[1:-1]
    sx += luma[1:-1]
    gx = (sx[:, 2:] - sx[:, :-2]).astype(np.int32)  # |g|^2 needs 21 bits
    sy = luma[:, :-2] + luma[:, 2:]
    sy += luma[:, 1:-1]
    sy += luma[:, 1:-1]
    gy = (sy[2:] - sy[:-2]).astype(np.int32)
    gx *= gx
    gy *= gy
    gx += gy
    return gx


def spatial_information(luma):
    """SI: population std of the Sobel gradient magnitude on interior pixels.

    Each leaf of `stats.tree_sums` computes |g|^2 of the interior rows it
    covers, from those rows and a one-row halo, once for the mean and
    once for the deviations.
    """
    luma = _uint8(luma)
    h, w = luma.shape
    if h < 3 or w < 3:
        raise ContractError("SI needs a plane of at least 3x3")
    row = w - 2  # the interior values of one row

    def magnitude(lo, hi, out):
        top, end = lo // row, (hi - 1) // row + 1
        squares = _gradient_squares(luma[top : end + 2]).reshape(-1)
        np.sqrt(squares[lo - top * row : hi - top * row], out=out[0])

    return _moments((h - 2) * row, 1, magnitude)[0][1]


def temporal_information(prev, curr, sums=None):
    """TI: population std of the frame difference.

    `sums` are the planes' exact integer sums, where the caller has them.
    """
    prev = _uint8(prev)
    curr = _uint8(curr)
    if prev.shape != curr.shape:
        raise ContractError("TI needs equal-size planes")

    def difference(lo, hi, out):
        # a difference of uint8 planes is exact in float64
        np.subtract(_flat(curr, lo, hi), _flat(prev, lo, hi), out=out[0], dtype=np.float64)

    # integer differences add up exactly in float64 in any order
    sum_a, sum_b = sums or (_sum(prev), _sum(curr))
    n = prev.shape[0] * prev.shape[1]
    return _moments(n, 1, difference, [(sum_b - sum_a) / n])[0][1]


def yuv420_to_rgb(luma, cb, cr):
    """BT.709 limited-range YUV420 -> float RGB in [0, 255].

    Chroma is upsampled 2x by nearest neighbor; the chroma planes must be
    half the luma plane's size in each direction (`colorfulness` checks).
    """
    # float32 is plenty for an 8-bit colorfulness statistic and halves
    # the memory traffic on large frames
    yp = np.subtract(luma, np.float32(16.0), dtype=np.float32)
    yp *= np.float32(255.0 / 219.0)
    # a chroma term is repeated along its row and broadcast over the two
    # luma rows it covers
    yp = yp.reshape(yp.shape[0] // 2, 2, yp.shape[1])
    pb, pr = (_repeat_columns(np.subtract(c, np.float32(128.0), dtype=np.float32)
                              * np.float32(255.0 / 224.0))[:, None] for c in (cb, cr))
    r = yp + np.float32(1.5748) * pr
    g = yp - np.float32(0.18732427) * pb
    g -= np.float32(0.46812427) * pr
    b = yp + np.float32(1.8556) * pb
    return tuple(np.clip(p, 0.0, 255.0, out=p).reshape(np.shape(luma)) for p in (r, g, b))


def _repeat_columns(plane):
    """np.repeat(plane, 2, 1) of a 2-D array, as two strided copies,
    which numpy makes in half the time."""
    out = np.empty(plane.shape + (2,), dtype=plane.dtype)
    out[..., 0] = plane
    out[..., 1] = plane
    return out.reshape(plane.shape[0], -1)


def _opponent(luma, cb, cr, start, out):
    """Write float32 opponent values rg = r - g and yb = (r + g) / 2 - b
    of a 4:2:0 frame or row band, from value `start` on in row-major
    order, to the two rows of `out`."""
    r, g, b = (p.reshape(-1)[start : start + out.shape[1]] for p in yuv420_to_rgb(luma, cb, cr))
    np.subtract(r, g, out=out[0], dtype=np.float32)
    yb = np.add(r, g)
    yb *= np.float32(0.5)
    np.subtract(yb, b, out=out[1], dtype=np.float32)


def colorfulness(luma, cb, cr):
    """Hasler-Suesstrunk CF of a 4:2:0 frame via nearest-neighbor chroma
    upsampling: float64 mean and population std of the float32 opponent
    planes rg and yb, summed pairwise as np.mean and np.std sum float64
    copies of them, combined as hypot(std_rg, std_yb) + 0.3
    hypot(mean_rg, mean_yb).

    No opponent plane is held whole: each read of their values forms
    them on the chroma rows it covers, once for their means and once for
    their deviations.
    """
    luma, cb, cr = (_uint8(p) for p in (luma, cb, cr))
    if (cb.ndim != 2 or cb.shape != cr.shape
            or luma.shape != (2 * cb.shape[0], 2 * cb.shape[1])):
        raise ContractError("chroma planes are not half-size of luma")
    row = 2 * luma.shape[1]  # the opponent values of one chroma row

    def opponent(lo, hi, out):
        top, end = lo // row, (hi - 1) // row + 1
        _opponent(luma[2 * top : 2 * end], cb[top:end], cr[top:end], lo - top * row, out)

    (mean_rg, std_rg), (mean_yb, std_yb) = _moments(luma.size, 2, opponent)
    return float(np.hypot(std_rg, std_yb) + 0.3 * np.hypot(mean_rg, mean_yb))


def noise_estimate(luma):
    """Fast Laplacian noise sigma estimate (Immerkaer, CVIU 1996).

    sigma = sqrt(pi/2) / (6 (W-2)(H-2)) * sum |L * I| over interior
    pixels, with L = [1,-2,1]^T [1,-2,1] the 3x3 Laplacian-difference
    mask; the mask annihilates constant and linear fields so flat content
    scores 0.  On uint8 planes the sum is an exact integer.
    """
    luma = _uint8(luma)
    h, w = luma.shape
    if h < 3 or w < 3:
        raise ContractError("noise estimate needs a plane of at least 3x3")
    total = 0
    rows = band_rows(w, 1)
    for top in range(0, h - 2, rows):
        band = luma[top : top + rows + 2]
        d = np.subtract(band[:-2], band[1:-1], dtype=np.int16)
        d -= band[1:-1]
        d += band[2:]
        conv = d[:, :-2] - d[:, 1:-1]
        conv -= d[:, 1:-1]
        conv += d[:, 2:]
        total += np.abs(conv, out=conv).sum(dtype=np.int64)
    return float(np.sqrt(np.pi / 2.0) * float(total) / (6.0 * (w - 2) * (h - 2)))


def ncc(prev, curr, sums=None):
    """Zero-mean normalized cross correlation at zero displacement.

    Both planes constant -> 1; exactly one constant -> 0.  `sums` are the
    planes' exact integer sums, where the caller has them.
    """
    prev = _uint8(prev)
    curr = _uint8(curr)
    if prev.shape != curr.shape:
        raise ContractError("NCC needs equal-size planes")
    # a uint8 plane's mean, as np.mean gives it, is an exact integer sum over n
    sum_a, sum_b = sums or (_sum(prev), _sum(curr))
    n = prev.shape[0] * prev.shape[1]
    mean_a = sum_a / n
    mean_b = sum_b / n

    def centred(lo, hi, out):
        da, db, cross = out
        np.subtract(_flat(prev, lo, hi), mean_a, out=da, dtype=np.float64)
        np.subtract(_flat(curr, lo, hi), mean_b, out=db, dtype=np.float64)
        np.multiply(da, db, out=cross)
        da *= da
        db *= db

    sa, sb, cross = stats.tree_sums(n, 3, centred)
    na = np.sqrt(sa)
    nb = np.sqrt(sb)
    if na <= 1e-12 and nb <= 1e-12:
        return 1.0
    if na <= 1e-12 or nb <= 1e-12:
        return 0.0
    return float(np.clip(cross / (na * nb), -1.0, 1.0))


def _moments(n, k, values, means=None):
    """float64 (mean, population std) of each of the k arrays of n values
    `values` gives.

    `values(lo, hi, out)` writes values lo..hi-1 of array i as float64 to
    row i of `out`.  Repeats np.mean's and np.std's own steps (float64
    pairwise sums, centring in float64, sum of squares over n) one leaf of
    `stats.tree_sums` at a time, so each carries the bits those calls give
    on the whole float64 array.  `means` of None are summed; any other are used.
    """
    if means is None:
        means = stats.tree_sums(n, k, values) / n
    means = np.asarray(means, dtype=np.float64)

    def squared_deviations(lo, hi, out):
        values(lo, hi, out)
        out -= means[:, None]
        out *= out

    stds = np.sqrt(stats.tree_sums(n, k, squared_deviations) / n)
    return [(float(m), float(s)) for m, s in zip(means, stds)]


def _mean_std(values):
    """float64 mean and population std of a sequence-level series."""
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), stats.pop_std(v)


def _frame_values(frame):
    """GLCM (con, cor, enr, hom, ent), SI, CF and noise of a (luma, cb, cr)
    frame."""
    luma, cb, cr = frame
    return (*glcm_descriptors(luma), spatial_information(luma),
            colorfulness(luma, cb, cr), noise_estimate(luma))


def extract_vod(clip):
    """Extract the 30-dimensional VoD feature vector of a clip.

    Every descriptor reads the rows it needs from the clip's file, so no
    plane is held: the previous frame's luma reader serves the pair
    descriptors.  Each luma plane is summed once, for both of its pairs'
    TI and NCC means.
    """
    frame_values, pair_values = [], []
    prev = prev_sum = None
    for frame in read_frames(clip, rows=True):
        frame_values.append(_frame_values(frame))
        curr, curr_sum = frame[0], _sum(frame[0])
        if prev is not None:
            sums = (prev_sum, curr_sum)
            pair_values.append((temporal_coherence(prev, curr),
                                temporal_information(prev, curr, sums=sums),
                                ncc(prev, curr, sums=sums)))
        prev, prev_sum = curr, curr_sum
    per_frame = dict(zip(("con", "cor", "enr", "hom", "ent", "si", "cf", "noise"),
                         zip(*frame_values)))
    tc_stats, ti_vals, ncc_vals = zip(*pair_values)
    tc = np.asarray(tc_stats, dtype=np.float64)  # columns: mean,std,skw,kur,entr
    values = []
    for key in ("cor", "con", "enr", "hom", "ent"):
        values.extend(_mean_std(per_frame[key]))
    for col in range(5):
        values.extend(_mean_std(tc[:, col]))
    # Table order is meanTC_mean, meanTC_std, stdTC_mean, stdTC_std: swap
    # the std of the block means and the mean of the block stds.
    values[11], values[12] = values[12], values[11]
    values.extend(_mean_std(per_frame["si"]))
    values.extend(_mean_std(ti_vals))
    values.extend(_mean_std(per_frame["cf"]))
    values.extend(_mean_std(per_frame["noise"]))
    values.extend(_mean_std(ncc_vals))
    return VodFeatureVector(tuple(values))
