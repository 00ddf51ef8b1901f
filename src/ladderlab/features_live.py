"""Live feature set: 40 low-complexity DCT-energy statistics per clip.

Four per-frame series are reduced with the same ten statistics each:
spatial energy E, temporal energy h, relative energy gradient eps, and
brightness BR.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .features_vod import band_rows, pocketfft
from .media_io import read_frames
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


def _band_energies(band, nw):
    """Block energies of a band of whole block rows, `nw` blocks wide."""
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


def block_energies(luma):
    """Per-block texture energies: mean |AC coefficient| of the orthonormal DCT-II.

    Blocks are ordered row-major over the tiling.  The DCT is taken in
    bands of `band_rows`, so only one band is held as float64 at a time;
    each block's coefficients do not depend on the band.
    """
    luma = np.asarray(luma)
    h, w = luma.shape
    nh, nw = h // ENERGY_BLOCK, w // ENERGY_BLOCK
    if nh == 0 or nw == 0:
        raise ContractError(
            f"plane {w}x{h} smaller than one {ENERGY_BLOCK}x{ENERGY_BLOCK} block"
        )
    luma = luma[: nh * ENERGY_BLOCK]
    rows = band_rows(nw * ENERGY_BLOCK, ENERGY_BLOCK)
    return np.concatenate([
        _band_energies(luma[top : top + rows], nw) for top in range(0, luma.shape[0], rows)
    ])


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
    """(block energies, BR) of a luma plane; BR is the mean luma of the
    tiled area, an exact integer sum over n."""
    energies = block_energies(luma)
    nh, nw = luma.shape[0] // ENERGY_BLOCK, luma.shape[1] // ENERGY_BLOCK
    tiled = luma[: nh * ENERGY_BLOCK, : nw * ENERGY_BLOCK]
    return energies, int(tiled.sum(dtype=np.int64)) / tiled.size


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
    # `map` holds no luma plane once its values are taken, so the next is read alone
    for energies, brightness in map(_luma_values, read_frames(clip, chroma=False)):
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
