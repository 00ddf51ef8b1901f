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


class ClipScorer:
    """Scores predicted ladders against EEL ground truth and the SL baseline,
    one clip's RD curves at a time, in any order.

    The predicted and EEL ladders are keyed by clip_id and must cover the
    same clips.  `add` scores one clip; `report`
    summarises the clips in clip_id order, so the figures do not depend
    on the order they were added in.  Faults come in this order:
    1. different clip sets, then an undefined correlation: both need no
       curves and are raised on construction, before any curves are read;
    2. clips with no curves, or none for some ladder resolution;
    3. the scoring error of the least clip_id, held until `report`.
    """

    def __init__(self, predicted_ladders, eel_ladders, sl_cross_overs):
        clips = sorted(predicted_ladders)
        if sorted(eel_ladders) != clips:
            raise ContractError("predicted and EEL ladders cover different clips")
        # Correlations are computed on ln(kbps) cross-overs.
        self._per_target = {}
        for k in ("p1", "p2", "p3"):
            pred = [math.log(getattr(predicted_ladders[c].cross_overs, k)) for c in clips]
            ref = [math.log(getattr(eel_ladders[c].cross_overs, k)) for c in clips]
            r2, srocc, plcc = correlation_metrics(pred, ref)
            self._per_target[k] = {"r2": r2, "srocc": srocc, "plcc": plcc}
        self._clips = clips
        self._ladders = {c: (predicted_ladders[c], eel_ladders[c]) for c in clips}
        self._sl = BitrateLadder(sl_cross_overs)
        self._scores = {}  # clip_id -> (accuracy, BD-BR vs EEL, BD-BR vs SL)
        self._failed = None  # (clip_id, the error of its scoring)

    def add(self, clip_id, curves):
        """Score one clip from its {resolution: RDCurve}, which are interpolated
        through `curve_handles`; accuracy and BD-BR use the clip's default
        grid.  A clip with no ladders here is ignored, and one whose
        curves lack a ladder resolution is left missing."""
        if clip_id not in self._ladders or not all(r in curves for r in LADDER_RESOLUTIONS):
            return
        pred_l, eel_l = self._ladders[clip_id]
        try:
            accuracy = ladder_accuracy(pred_l, eel_l)
            bd_grid = default_accuracy_grid([pred_l, eel_l, self._sl])
            # the three hull sets share this clip's interpolants, which go with it
            handles = curve_handles(curves)
            eel_set, pred_set, sl_set = (
                _ladder_rd_set(handles, l, bd_grid) for l in (eel_l, pred_l, self._sl)
            )
            self._scores[clip_id] = (
                accuracy, bd_rate(eel_set, pred_set), bd_rate(sl_set, pred_set))
        except (ContractError, ValidationError) as exc:  # e.g. an interpolant that overflows
            if self._failed is None or clip_id < self._failed[0]:
                self._failed = clip_id, exc

    def report(self):
        """The EvalReport of every clip, or the first fault (see the class)."""
        failed, exc = self._failed or (None, None)
        # Every ladder resolution, as the hull rule may select any of them.
        missing = [c for c in self._clips if c not in self._scores and c != failed]
        if missing:
            raise ContractError(f"missing RD curves for clips: {missing}")
        if exc is not None:
            raise type(exc)(f"clip {failed}: {exc}") from exc
        scores = [self._scores[c] for c in self._clips]
        return EvalReport(
            per_target=self._per_target,
            accuracy=float(np.mean([row[0] for row in scores])),
            bdbr_vs_eel=float(np.mean([row[1] for row in scores])),
            bdbr_vs_sl=float(np.mean([row[2] for row in scores])),
            per_clip_bdbr=[(c, *row[1:]) for c, row in zip(self._clips, scores)],
        )


def evaluate_method(predicted_ladders, eel_ladders, sl_cross_overs, rd_curves):
    """The `ClipScorer` report of every clip, whose curves `rd_curves` maps
    clip_id -> {resolution: RDCurve}."""
    scorer = ClipScorer(predicted_ladders, eel_ladders, sl_cross_overs)
    for c in sorted(predicted_ladders):
        scorer.add(c, rd_curves.get(c, {}))
    return scorer.report()
