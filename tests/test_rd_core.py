import math

import numpy as np
import pytest

from ladderlab.errors import ContractError, DegenerateCurveError, ValidationError
from ladderlab.rd_core import (
    LADDER_RESOLUTIONS,
    BitrateLadder,
    CrossOverSet,
    RDColumns,
    RDCurve,
    RDPoint,
    build_rd_curve,
    convex_hull,
    cross_over,
    eel_ladder,
    hull_resolution_index,
    interpolate_quality,
    monotone_clamp,
)

SD, HD, FHD, UHD = LADDER_RESOLUTIONS


def log_curve(intercept, slope, rates, resolution=SD, metric="ypsnr"):
    pts = [RDPoint(r, intercept + slope * math.log(r)) for r in rates]
    return build_rd_curve(pts, resolution, metric)


# ------------------------------------------------------- build_rd_curve

def test_monotone_points_kept():
    pts = [RDPoint(100, 30), RDPoint(200, 33), RDPoint(400, 36)]
    curve = build_rd_curve(pts, SD, "ypsnr")
    assert curve.points.bitrate.tolist() == [100, 200, 400]


def test_quality_inversion_removed():
    pts = [RDPoint(100, 30), RDPoint(200, 29), RDPoint(400, 36)]
    curve = build_rd_curve(pts, SD, "ypsnr")
    assert curve.points.bitrate.tolist() == [100, 400]
    # oracle: brute-force dominance enumeration
    surviving = [
        p for p in pts
        if not any(
            q is not p and q.bitrate <= p.bitrate and q.quality >= p.quality
            for q in pts
        )
    ]
    assert curve.points.bitrate.tolist() == [p.bitrate for p in surviving]


def test_single_sample_degenerate():
    with pytest.raises(DegenerateCurveError):
        build_rd_curve([RDPoint(100, 30)], SD, "ypsnr")


def test_all_dominated_degenerate():
    pts = [RDPoint(100, 30), RDPoint(200, 30), RDPoint(400, 30)]
    with pytest.raises(DegenerateCurveError):
        build_rd_curve(pts, SD, "ypsnr")


def test_vmaf_range_checked():
    with pytest.raises(ValidationError):
        build_rd_curve([RDPoint(100, 30), RDPoint(200, 120)], SD, "vmaf")


# ------------------------------------------------- interpolate_quality

def test_interpolation_identity_at_knots():
    curve = log_curve(30, 2, [100, 200, 400, 800])
    for bitrate, quality in zip(curve.points.bitrate, curve.points.quality):
        assert interpolate_quality(curve, bitrate) == pytest.approx(quality, abs=1e-12)


def test_interpolation_tracks_log_formula():
    rates = np.geomspace(50, 5000, 12)
    curve = log_curve(30, 2, rates)
    for b in (75, 130, 900, 3300):
        assert interpolate_quality(curve, b) == pytest.approx(
            30 + 2 * math.log(b), abs=1e-3
        )


def test_interpolation_rejects_non_finite_quality():
    curve = RDCurve(SD, "ypsnr", RDColumns([100, 200], [30.0, math.inf], [None, None]))
    with pytest.raises(ValidationError):
        interpolate_quality(curve, 150)


# ------------------------------------------------------------ cross_over

def test_cross_over_closed_form():
    rates = np.geomspace(20, 2000, 40)
    lower = log_curve(30, 2, rates, SD)
    higher = log_curve(20, 4, rates, HD)
    got = cross_over(lower, higher, 40000)
    want = math.exp(5.0)
    assert abs(got - want) / want < 0.005


def test_cross_over_higher_dominates():
    rates = np.geomspace(100, 1000, 8)
    lower = log_curve(30, 2, rates, SD)
    higher = log_curve(32, 2, rates, HD)  # uniformly +2 over full range
    assert cross_over(lower, higher, 40000) == higher.min_bitrate


def test_cross_over_lower_dominates():
    rates = np.geomspace(100, 1000, 8)
    lower = log_curve(32, 2, rates, SD)
    higher = log_curve(30, 2, rates, HD)
    assert cross_over(lower, higher, 40000) == 40000


def test_cross_over_disjoint_orderable():
    lower = log_curve(30, 2, [10, 20, 40], SD)
    higher = log_curve(20, 4, [100, 200, 400], HD)
    assert cross_over(lower, higher, 40000) == higher.min_bitrate


def test_cross_over_metric_mismatch():
    lower = log_curve(30, 2, [100, 200], SD, "ypsnr")
    higher = log_curve(20, 1, [100, 200], HD, "vmaf")
    with pytest.raises(ContractError):
        cross_over(lower, higher, 40000)


# ------------------------------------------------------------ eel_ladder

def make_designed_curves(targets=(100.0, 800.0, 4000.0), metric="ypsnr"):
    """Four log-linear curves whose consecutive cross-overs land on targets."""
    slopes = (2.0, 3.0, 4.0, 5.0)
    intercepts = [30.0]
    for k in range(3):
        # equal quality at the designed cross-over bitrate
        b = targets[k]
        intercepts.append(intercepts[k] + (slopes[k] - slopes[k + 1]) * math.log(b))
    rates = np.geomspace(10, 40000, 60)
    return {
        res: log_curve(intercepts[i], slopes[i], rates, res, metric)
        for i, res in enumerate(LADDER_RESOLUTIONS)
    }


def test_eel_ladder_designed_intersections():
    curves = make_designed_curves()
    ladder = eel_ladder(curves, max_bitrate=40000)
    for got, want in zip(ladder.cross_overs.as_tuple(), (100.0, 800.0, 4000.0)):
        assert abs(got - want) / want < 0.005


def test_monotone_clamp():
    assert monotone_clamp(500, 400, 4000) == (500, 500, 4000)
    assert monotone_clamp(600, 500, 550) == (600, 600, 600)
    assert monotone_clamp(1, 2, 3) == (1, 2, 3)


def test_eel_all_higher_dominate():
    rates = np.geomspace(100, 1000, 8)
    curves = {
        res: log_curve(30 + 2 * i, 2, rates, res)
        for i, res in enumerate(LADDER_RESOLUTIONS)
    }
    ladder = eel_ladder(curves, max_bitrate=40000)
    assert ladder.cross_overs.as_tuple() == (100.0, 100.0, 100.0)


def test_eel_missing_resolution():
    curves = make_designed_curves()
    del curves[UHD]
    with pytest.raises(ContractError):
        eel_ladder(curves, max_bitrate=40000)


# ----------------------------------------------------------- convex hull

def test_hull_boundaries_half_open():
    ladder = BitrateLadder(CrossOverSet(100.0, 800.0, 4000.0, "ypsnr"))
    assert hull_resolution_index(ladder, 799.999) == 1
    assert hull_resolution_index(ladder, 800.0) == 2
    assert hull_resolution_index(ladder, 50.0) == 0
    assert hull_resolution_index(ladder, 4000.0) == 3


def test_hull_collapsed_ladder():
    ladder = BitrateLadder(CrossOverSet(100.0, 100.0, 100.0, "ypsnr"))
    assert hull_resolution_index(ladder, 100.0) == 3
    assert hull_resolution_index(ladder, 99.9) == 0


def test_hull_lookup_reads_selected_curve():
    curves = make_designed_curves()
    ladder = eel_ladder(curves, max_bitrate=40000)
    lookup = convex_hull(curves, ladder)
    index, q = lookup(500.0)
    assert LADDER_RESOLUTIONS[index] == HD
    assert q == pytest.approx(interpolate_quality(curves[HD], 500.0), abs=1e-9)
    # below every curve minimum: clamps to the curve's lowest knot
    index_lo, q_lo = lookup(1.0)
    assert LADDER_RESOLUTIONS[index_lo] == SD
    assert q_lo == pytest.approx(curves[SD].points.quality[0], abs=1e-9)
