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
from .media_io import read_frames

GLCM_LEVELS = 32
TC_BLOCK = 32
_BAND_PIXELS = 1 << 16  # least luma pixels in a row band of GLCM, SI, CF and noise;
# most in a band of whole block rows (TC, live DCT), unless one block row holds more

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
    """`plane` as an array of 8-bit samples, as `read_frames` gives them.

    The kernels widen uint8 to int16, in which Sobel sums and the
    Laplacian are exact integers, or subtract uint8 planes straight into
    float64, also exactly; so their float64 results carry the same bits
    as a float64 computation would.  Any other dtype is refused: TI's
    exact-integer mean would truncate a float plane.
    """
    plane = np.asarray(plane)
    if plane.dtype != np.uint8:
        raise ContractError(f"VoD descriptors need uint8 planes, got {plane.dtype}")
    return plane


def _band_rows(width):
    """Rows of a `width`-pixel plane in one band of at least `_BAND_PIXELS`."""
    return -(-_BAND_PIXELS // width)


def _block_band_rows(width, block):
    """Rows of a `width`-pixel plane in one band of whole `block`-row
    strips: as many as fit in `_BAND_PIXELS`, and at least one."""
    return block * max(1, _BAND_PIXELS // (block * width))


def _pocketfft_dir():
    """The directory of scipy's compiled pocketfft module, found without
    importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ValidationError("features need scipy's compiled pocketfft module: "
                              "scipy is not installed")
    return os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft")


@functools.cache
def _pocketfft():
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
    rows = _band_rows(w)
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
    spec = _pocketfft().r2c(band.reshape(nh, TC_BLOCK, nw, TC_BLOCK), (1, 3), True, 0, None, 1)
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

    The spectra are taken in bands of `_block_band_rows`, so only a
    band's spectra are held.  They are laid out block-major, but on a
    plane of one block row as a strided view: the features keep the bits
    of the whole-plane computation, whose spectra had that layout there.
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
    prev = prev[: nh * TC_BLOCK, : nw * TC_BLOCK]
    curr = curr[: nh * TC_BLOCK, : nw * TC_BLOCK]
    rows = _block_band_rows(prev.shape[1], TC_BLOCK)
    tc = np.concatenate([
        _block_tc(prev[top : top + rows], curr[top : top + rows], nh > 1)
        for top in range(0, prev.shape[0], rows)
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
    # only on the interior, where the boundary mode is irrelevant
    sx = np.add(luma[:-2], luma[2:], dtype=np.int16)
    sx += luma[1:-1]
    sx += luma[1:-1]
    gx = sx[:, 2:] - sx[:, :-2]
    sy = np.add(luma[:, :-2], luma[:, 2:], dtype=np.int16)
    sy += luma[:, 1:-1]
    sy += luma[:, 1:-1]
    gy = sy[2:] - sy[:-2]
    mag2 = np.multiply(gx, gx, dtype=np.int32)  # |g|^2 needs 21 bits
    mag2 += np.multiply(gy, gy, dtype=np.int32)
    return mag2


def spatial_information(luma):
    """SI: population std of the Sobel gradient magnitude on interior pixels.

    |g|^2 is computed in row bands, each with a one-row halo, once for
    the mean and once for the deviations.
    """
    luma = _uint8(luma)
    h, w = luma.shape
    if h < 3 or w < 3:
        raise ContractError("SI needs a plane of at least 3x3")
    rows = _band_rows(w)

    def bands():
        for top in range(0, h - 2, rows):
            yield _gradient_squares(luma[top : top + rows + 2]).reshape(1, -1)

    magnitude = _leaf_values(bands, lambda out, squares: np.sqrt(squares, out=out))
    return _moments((h - 2) * (w - 2), 1, magnitude)[0][1]


def temporal_information(prev, curr):
    """TI: population std of the frame difference."""
    prev = _uint8(prev)
    curr = _uint8(curr)
    if prev.shape != curr.shape:
        raise ContractError("TI needs equal-size planes")
    a = prev.reshape(-1)
    b = curr.reshape(-1)

    def difference(lo, hi, out):
        # a difference of uint8 planes is exact in float64
        np.subtract(b[lo:hi], a[lo:hi], out=out[0], dtype=np.float64)

    # integer differences add up exactly in float64 in any order
    mean = (int(b.sum(dtype=np.int64)) - int(a.sum(dtype=np.int64))) / a.size
    return _moments(a.size, 1, difference, [mean])[0][1]


def yuv420_to_rgb(luma, cb, cr):
    """BT.709 limited-range YUV420 -> float RGB in [0, 255].

    Chroma is upsampled 2x by nearest neighbor; the chroma planes must be
    half the luma plane's size in each direction (`colorfulness` checks).
    """
    # float32 is plenty for an 8-bit colorfulness statistic and halves
    # the memory traffic on large frames
    y = np.asarray(luma, dtype=np.float32)
    cbf = np.asarray(cb, dtype=np.float32)
    crf = np.asarray(cr, dtype=np.float32)
    # a chroma term is repeated along its row and broadcast over the two
    # luma rows it covers
    yp = ((y - np.float32(16.0)) * np.float32(255.0 / 219.0)).reshape(
        cbf.shape[0], 2, y.shape[1])
    pb = np.repeat((cbf - np.float32(128.0)) * np.float32(255.0 / 224.0), 2, 1)[:, None]
    pr = np.repeat((crf - np.float32(128.0)) * np.float32(255.0 / 224.0), 2, 1)[:, None]
    r = yp + np.float32(1.5748) * pr
    g = yp - np.float32(0.18732427) * pb - np.float32(0.46812427) * pr
    b = yp + np.float32(1.8556) * pb
    return tuple(np.clip(p, 0.0, 255.0, out=p).reshape(y.shape) for p in (r, g, b))


def _opponent(luma, cb, cr):
    """(2, pixels) float32 opponent values rg = r - g and
    yb = (r + g) / 2 - b of a 4:2:0 frame or row band."""
    r, g, b = yuv420_to_rgb(luma, cb, cr)
    out = np.empty((2,) + r.shape, dtype=np.float32)
    np.subtract(r, g, out=out[0])
    yb = out[1]
    np.add(r, g, out=yb)
    yb *= 0.5
    yb -= b
    return out.reshape(2, -1)


def colorfulness(luma, cb, cr):
    """Hasler-Suesstrunk CF of a 4:2:0 frame via nearest-neighbor chroma
    upsampling: std and mean of the float32 opponent planes rg and yb,
    as float64 np.std and np.mean give them, combined as
    hypot(std_rg, std_yb) + 0.3 hypot(mean_rg, mean_yb).

    No opponent plane is held whole: they are formed in row bands, once
    for their means, summed in the order np.mean takes on a float32 plane
    (`stats.buffered_sums`), and once for their deviations.
    """
    luma, cb, cr = (_uint8(p) for p in (luma, cb, cr))
    if (cb.ndim != 2 or cb.shape != cr.shape
            or luma.shape != (2 * cb.shape[0], 2 * cb.shape[1])):
        raise ContractError("chroma planes are not half-size of luma")
    rows = _band_rows(4 * cb.shape[1])  # each chroma pixel covers four luma pixels

    def bands():
        for top in range(0, cb.shape[0], rows):
            chroma = slice(top, top + rows)
            yield _opponent(luma[2 * top : 2 * (top + rows)], cb[chroma], cr[chroma])

    means = stats.buffered_sums(2, bands()) / luma.size
    (mean_rg, std_rg), (mean_yb, std_yb) = _moments(luma.size, 2, _leaf_values(bands), means)
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
    rows = _band_rows(w)
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


def ncc(prev, curr):
    """Zero-mean normalized cross correlation at zero displacement.

    Both planes constant -> 1; exactly one constant -> 0.
    """
    prev = _uint8(prev).ravel()
    curr = _uint8(curr).ravel()
    if prev.shape != curr.shape:
        raise ContractError("NCC needs equal-size planes")
    # a uint8 plane's mean is an exact integer sum over n
    mean_a = prev.mean()
    mean_b = curr.mean()

    def centred(lo, hi, out):
        da, db, cross = out
        np.subtract(prev[lo:hi], mean_a, out=da, dtype=np.float64)
        np.subtract(curr[lo:hi], mean_b, out=db, dtype=np.float64)
        np.multiply(da, db, out=cross)
        da *= da
        db *= db

    sa, sb, cross = stats.tree_sums(prev.size, 3, centred)
    na = np.sqrt(sa)
    nb = np.sqrt(sb)
    if na <= 1e-12 and nb <= 1e-12:
        return 1.0
    if na <= 1e-12 or nb <= 1e-12:
        return 0.0
    return float(np.clip(cross / (na * nb), -1.0, 1.0))


def _leaf_values(bands, fill=np.copyto):
    """`values(lo, hi, out)` of `stats.tree_sums` read from row bands.

    `bands()` yields (k, m) arrays, the next m values of each of the k
    arrays, and `fill(out, part)` writes part of a band as float64.
    `tree_sums` asks for its leaves in order, each where the last ended,
    so one walk reads the bands once; a walk starts them over at lo = 0.
    """
    walk = band = None

    def values(lo, hi, out):
        nonlocal walk, band
        if lo == 0:
            walk, band = bands(), out[:, :0]
        done = 0
        while done < hi - lo:
            if not band.shape[1]:
                band = next(walk)
            take = min(band.shape[1], hi - lo - done)
            fill(out[:, done : done + take], band[:, :take])
            band = band[:, take:]
            done += take

    return values


def _moments(n, k, values, means=None):
    """float64 (mean, population std) of each of the k arrays of n values
    `values` gives.

    `values(lo, hi, out)` writes values lo..hi-1 of array i as float64 to
    row i of `out`.  Repeats np.mean's and np.std's own steps (float64
    pairwise sums, centring in float64, sum of squares over n) one leaf of
    `stats.tree_sums` at a time, so each carries the bits those calls give
    on the whole array.  `means` of None are summed; any other are used.
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


def extract_vod(clip):
    """Extract the 30-dimensional VoD feature vector of a clip."""
    per_frame = {k: [] for k in ("cor", "con", "enr", "hom", "ent", "si", "cf", "noise")}
    tc_stats = []
    ti_vals = []
    ncc_vals = []
    prev_luma = None
    for y, cb, cr in read_frames(clip):
        for key, value in zip(("con", "cor", "enr", "hom", "ent"), glcm_descriptors(y)):
            per_frame[key].append(value)
        per_frame["si"].append(spatial_information(y))
        per_frame["cf"].append(colorfulness(y, cb, cr))
        per_frame["noise"].append(noise_estimate(y))
        if prev_luma is not None:
            tc_stats.append(temporal_coherence(prev_luma, y))
            ti_vals.append(temporal_information(prev_luma, y))
            ncc_vals.append(ncc(prev_luma, y))
        prev_luma = y

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
