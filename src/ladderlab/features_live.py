"""Live feature set: 40 low-complexity DCT-energy statistics per clip.

Four per-frame series are reduced with the same ten statistics each:
spatial energy E, temporal energy h, relative energy gradient eps, and
brightness BR.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .features_vod import band_rows, pocketfft
from .media_io import PlaneRows, read_frames
from .stats import ten_stats

ENERGY_BLOCK = 32

_STAT_SUFFIXES = ("mean", "std", "min", "max", "p25", "p50", "p75", "iqr", "skw", "kur")

LIVE_FEATURE_NAMES = tuple(
    f"{stat}_{series}" for series in ("E", "h", "eps", "BR") for stat in _STAT_SUFFIXES
)


@dataclass(frozen=True)
class LiveFeatureVector:
    values: tuple

    def __post_init__(self):
        if len(self.values) != 40:
            raise ValidationError(f"expected 40 features, got {len(self.values)}")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite feature value")


def _band_energies(band):
    """Block energies of a band of whole block rows."""
    nw = band.shape[1] // ENERGY_BLOCK
    # cropped to whole blocks after the conversion, as a view, the layout
    # the DCT saw when whole planes were converted
    plane = np.asarray(band, dtype=np.float64)[:, : nw * ENERGY_BLOCK]
    # orthonormal DCT-II over a strided 4-D view avoids per-block copies:
    # `scipy.fft.dctn(x, axes=(1, 3), norm="ortho")`, bit for bit
    coef = pocketfft().dct(
        plane.reshape(-1, ENERGY_BLOCK, nw, ENERGY_BLOCK), 2, (1, 3), 1, None, 1, None
    )
    np.abs(coef, out=coef)
    coef[:, 0, :, 0] = 0.0
    return coef.sum(axis=(1, 3)).reshape(-1) / (ENERGY_BLOCK * ENERGY_BLOCK)


def _tiled_values(luma):
    """(block energies, exact integer sum) of the tiled area of a luma
    plane or reader, one band of whole block rows at a time.

    The bands are full width, in rows as `band_rows` gives them, and each
    is read once, when the DCT asks for it.
    """
    if not isinstance(luma, PlaneRows):
        luma = np.asarray(luma)
    h, w = luma.shape
    nh, nw = h // ENERGY_BLOCK, w // ENERGY_BLOCK
    if nh == 0 or nw == 0:
        raise ContractError(
            f"plane {w}x{h} smaller than one {ENERGY_BLOCK}x{ENERGY_BLOCK} block"
        )
    cols = nw * ENERGY_BLOCK
    rows = band_rows(cols, ENERGY_BLOCK)
    energies, total = [], 0
    for top in range(0, nh * ENERGY_BLOCK, rows):
        band = luma[top : min(top + rows, nh * ENERGY_BLOCK)]
        energies.append(_band_energies(band))
        total += int(band[:, :cols].sum(dtype=np.int64))
    return np.concatenate(energies), total


def block_energies(luma):
    """Per-block texture energies: mean |AC coefficient| of the orthonormal DCT-II.

    Blocks are ordered row-major over the tiling.  The DCT is taken in
    bands of `band_rows`, so only one band is held as float64 at a time;
    each block's coefficients do not depend on the band.  `luma` is a
    uint8 plane or a `media_io.PlaneRows` reader of one.
    """
    return _tiled_values(luma)[0]


def temporal_energy(prev_blocks, curr_blocks):
    """h: mean absolute difference of co-located block energies."""
    prev_blocks = np.asarray(prev_blocks, dtype=np.float64)
    curr_blocks = np.asarray(curr_blocks, dtype=np.float64)
    if prev_blocks.shape != curr_blocks.shape:
        raise ContractError("block tilings differ between frames")
    return float(np.abs(curr_blocks - prev_blocks).mean())


def energy_gradient(h_prev, h_curr):
    """eps = |h_curr - h_prev| / h_prev, with eps := 0 when h_prev = 0."""
    if h_prev < 0 or h_curr < 0:
        raise ContractError("temporal energies must be non-negative")
    if h_prev == 0.0:
        return 0.0
    return abs(h_curr - h_prev) / h_prev


def _luma_values(luma):
    """(block energies, BR) of a luma plane or reader; BR is the mean luma
    of the tiled area, an exact integer sum over n."""
    energies, total = _tiled_values(luma)
    return energies, total / (energies.size * ENERGY_BLOCK * ENERGY_BLOCK)


def extract_live(clip):
    """Extract the 40-dimensional live feature vector of a clip.

    Frame 0 has no h value and the first two frames have no eps value;
    those series are statistics over the remaining frames only.
    """
    if clip.frame_count < 3:
        raise ValidationError("live features need >= 3 frames")
    e_series = []
    br_series = []
    h_series = []
    prev_blocks = None
    # reads each frame's luma rows as its bands need them, never a chroma row
    for energies, brightness in (_luma_values(y) for y, _, _ in read_frames(clip, rows=True)):
        e_series.append(float(energies.mean()))
        br_series.append(brightness)
        if prev_blocks is not None:
            h_series.append(temporal_energy(prev_blocks, energies))
        prev_blocks = energies
    eps_series = [
        energy_gradient(h_series[i - 1], h_series[i]) for i in range(1, len(h_series))
    ]
    values = []
    for series in (e_series, h_series, eps_series, br_series):
        values.extend(ten_stats(series))
    return LiveFeatureVector(tuple(values))
