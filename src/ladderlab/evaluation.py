"""Baselines, correlation metrics, ladder accuracy, and BD-BR reports."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, MetricUndefinedError, ValidationError
from .rd_core import (
    LADDER_RESOLUTIONS, BitrateLadder, CrossOverSet, convex_hull, curve_handles,
    hull_resolution_index, monotone_clamp,
)
from .stats import pearson

_GRID_POINTS = 100


def static_ladder(train_ladders):
    """SL baseline: per-point arithmetic mean of the training ladders."""
    if not train_ladders:
        raise ContractError("static ladder needs at least one training ladder")
    metrics = {l.metric for l in train_ladders}
    if len(metrics) != 1:
        raise ContractError(f"mixed metrics in training ladders: {sorted(metrics)}")
    p1 = float(np.mean([l.p1 for l in train_ladders]))
    p2 = float(np.mean([l.p2 for l in train_ladders]))
    p3 = float(np.mean([l.p3 for l in train_ladders]))
    return CrossOverSet(*monotone_clamp(p1, p2, p3), metric=metrics.pop())


def correlation_metrics(predicted, reference):
    """(R2, SROCC, PLCC) of predicted vs reference vectors.

    R2 = 1 - SSE/SST; SROCC is Pearson on average-tie ranks.  A
    constant reference makes SROCC/PLCC undefined and raises instead of
    returning NaN.
    """
    pred = np.asarray(predicted, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if pred.shape != ref.shape or pred.ndim != 1:
        raise ContractError("predicted and reference must be equal-length vectors")
    if len(pred) < 3:
        raise ContractError("correlation metrics need at least 3 samples")
    sst = float(np.sum((ref - ref.mean()) ** 2))
    if sst <= 1e-12:
        raise MetricUndefinedError("constant reference vector")
    if float(np.std(pred)) <= 1e-12:
        # Constant predictions: rank/linear correlation degenerate to 0.
        plcc, srocc = 0.0, 0.0
    else:
        plcc = pearson(pred, ref)
        srocc = pearson(_average_ranks(pred), _average_ranks(ref))
    r2 = 1.0 - float(np.sum((pred - ref) ** 2)) / sst
    return r2, srocc, plcc


def _average_ranks(x):
    """1-based ranks, each tie group sharing the mean of its positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def default_accuracy_grid(ladders):
    """_GRID_POINTS log-spaced bitrates spanning the ladders' cross-over range +/-10%."""
    values = [v for l in ladders for v in l.cross_overs.as_tuple()]
    lo = min(values) / 1.1
    hi = max(values) * 1.1
    return np.exp(np.linspace(math.log(lo), math.log(hi), _GRID_POINTS))


def ladder_accuracy(predicted, reference, grid=None):
    """Fraction of grid bitrates where both hull rules pick the same resolution."""
    if grid is None:
        grid = default_accuracy_grid([predicted, reference])
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ContractError("accuracy grid must be non-empty")
    hits = np.count_nonzero(
        hull_resolution_index(predicted, grid) == hull_resolution_index(reference, grid)
    )
    return hits / len(grid)


def bd_rate(reference, test):
    """Bjontegaard delta rate of `test` vs `reference`, in percent.

    Classic variant: cubic polynomial fit of log10(rate) against
    quality per set, integrated over the common quality interval.
    Positive means the test set costs more rate at equal quality.
    """
    ref = np.asarray(reference, dtype=np.float64)
    tst = np.asarray(test, dtype=np.float64)
    for name, arr in (("reference", ref), ("test", tst)):
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
            raise ContractError(f"{name}: need >= 4 (rate, quality) samples")
    lo = max(ref[:, 1].min(), tst[:, 1].min())
    hi = min(ref[:, 1].max(), tst[:, 1].max())
    if hi <= lo:
        raise ContractError(
            f"non-overlapping quality ranges: [{ref[:, 1].min()}, {ref[:, 1].max()}] "
            f"vs [{tst[:, 1].min()}, {tst[:, 1].max()}]"
        )
    # Qualities so large that their cubes overflow raise here, before LAPACK
    # would print its own complaint and fail to converge.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            poly_ref = np.polyfit(ref[:, 1], np.log10(ref[:, 0]), 3)
            poly_tst = np.polyfit(tst[:, 1], np.log10(tst[:, 0]), 3)
            int_ref = np.polyint(poly_ref)
            int_tst = np.polyint(poly_tst)
            avg_diff = (
                (np.polyval(int_tst, hi) - np.polyval(int_tst, lo))
                - (np.polyval(int_ref, hi) - np.polyval(int_ref, lo))
            ) / (hi - lo)
            return float(100.0 * (10.0**avg_diff - 1.0))
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise ContractError(f"cannot fit the rate-quality polynomials: {exc}") from exc


@dataclass
class EvalReport:
    """One evaluation against the EEL ground truth and SL baseline."""

    per_target: dict  # "p1"/"p2"/"p3" -> {"r2", "srocc", "plcc"}
    accuracy: float
    bdbr_vs_eel: float
    bdbr_vs_sl: float
    per_clip_bdbr: list  # (clip_id, vs_eel, vs_sl)


def _ladder_rd_set(curves, ladder, grid):
    return np.column_stack((grid, convex_hull(curves, ladder)(grid)[1]))


def evaluate_method(predicted_ladders, eel_ladders, sl_cross_overs, rd_curves):
    """Score predicted ladders against EEL ground truth and the SL baseline.

    All three ladder inputs are keyed by clip_id; `rd_curves` maps
    clip_id -> {resolution: RDCurve}, and each clip's curves are
    interpolated through `curve_handles`.  Correlations are computed on
    ln(kbps) cross-overs; accuracy and BD-BR use each clip's default grid.
    """
    clips = sorted(predicted_ladders)
    if sorted(eel_ladders) != clips:
        raise ContractError("predicted and EEL ladders cover different clips")
    # Every ladder resolution, as the hull rule may select any of them.
    missing = [c for c in clips
               if not all(r in rd_curves.get(c, {}) for r in LADDER_RESOLUTIONS)]
    if missing:
        raise ContractError(f"missing RD curves for clips: {missing}")

    per_target = {}
    for k in ("p1", "p2", "p3"):
        pred = [math.log(getattr(predicted_ladders[c].cross_overs, k)) for c in clips]
        ref = [math.log(getattr(eel_ladders[c].cross_overs, k)) for c in clips]
        r2, srocc, plcc = correlation_metrics(pred, ref)
        per_target[k] = {"r2": r2, "srocc": srocc, "plcc": plcc}

    sl_ladder = BitrateLadder(sl_cross_overs)
    accuracies = []
    per_clip = []
    for c in clips:
        try:
            pred_l = predicted_ladders[c]
            eel_l = eel_ladders[c]
            accuracies.append(ladder_accuracy(pred_l, eel_l))
            bd_grid = default_accuracy_grid([pred_l, eel_l, sl_ladder])
            # the three hull sets share this clip's interpolants, which go with it
            curves = curve_handles(rd_curves[c])
            eel_set, pred_set, sl_set = (
                _ladder_rd_set(curves, l, bd_grid) for l in (eel_l, pred_l, sl_ladder)
            )
            per_clip.append((c, bd_rate(eel_set, pred_set), bd_rate(sl_set, pred_set)))
        except (ContractError, ValidationError) as exc:  # e.g. an interpolant that overflows
            raise type(exc)(f"clip {c}: {exc}") from exc

    return EvalReport(
        per_target=per_target,
        accuracy=float(np.mean(accuracies)),
        bdbr_vs_eel=float(np.mean([row[1] for row in per_clip])),
        bdbr_vs_sl=float(np.mean([row[2] for row in per_clip])),
        per_clip_bdbr=per_clip,
    )
