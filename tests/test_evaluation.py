import math
from unittest import mock

import numpy as np
import pytest

from ladderlab import rd_core
from ladderlab.errors import ContractError, MetricUndefinedError
from ladderlab.evaluation import (
    ClipScorer,
    bd_rate,
    correlation_metrics,
    default_accuracy_grid,
    evaluate_method,
    ladder_accuracy,
    static_ladder,
)
from ladderlab.rd_core import BitrateLadder, CrossOverSet
from oracles import bd_rate_trapezoid_oracle
from test_rd_core import make_designed_curves  # designed four-curve families
from ladderlab.rd_core import eel_ladder


def ladder(p1, p2, p3, metric="ypsnr"):
    return BitrateLadder(CrossOverSet(p1, p2, p3, metric))


# ---------------------------------------------------------- static ladder

def test_static_ladder_mean():
    sl = static_ladder(
        [CrossOverSet(100, 500, 2000, "ypsnr"), CrossOverSet(200, 700, 3000, "ypsnr")]
    )
    assert sl.as_tuple() == (150.0, 600.0, 2500.0)


def test_static_ladder_identity_and_clamp():
    single = CrossOverSet(100, 500, 2000, "ypsnr")
    assert static_ladder([single]).as_tuple() == (100.0, 500.0, 2000.0)
    clamped = static_ladder([CrossOverSet(600, 500, 2500, "ypsnr")])
    assert clamped.as_tuple() == (600.0, 600.0, 2500.0)


def test_static_ladder_empty_error():
    with pytest.raises(ContractError):
        static_ladder([])


# --------------------------------------------------- correlation metrics

def test_correlations_affine_case():
    ref = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    pred = 2.0 * ref + 1.0
    r2, srocc, plcc = correlation_metrics(pred, ref)
    assert plcc == pytest.approx(1.0, abs=1e-12)
    assert srocc == pytest.approx(1.0, abs=1e-12)
    assert r2 < 1.0


def test_correlations_formula_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([-1.0, -8.0, -27.0, -64.0])
    r2, srocc, plcc = correlation_metrics(x, y)
    assert srocc == pytest.approx(-1.0, abs=1e-12)
    # direct Pearson formula
    n = 4
    want = (n * np.sum(x * y) - x.sum() * y.sum()) / math.sqrt(
        (n * np.sum(x * x) - x.sum() ** 2) * (n * np.sum(y * y) - y.sum() ** 2)
    )
    assert plcc == pytest.approx(want, abs=1e-12)


def test_r2_zero_for_mean_prediction():
    ref = np.array([1.0, 2.0, 3.0, 4.0])
    pred = np.full(4, ref.mean())
    r2, srocc, plcc = correlation_metrics(pred, ref)
    assert r2 == pytest.approx(0.0, abs=1e-12)
    assert srocc == 0.0 and plcc == 0.0


def test_constant_reference_raises():
    with pytest.raises(MetricUndefinedError):
        correlation_metrics(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0]))


def test_srocc_monotone_transform_invariance():
    rng = np.random.default_rng(41)
    ref = rng.normal(size=20)
    pred = rng.normal(size=20)
    _, s1, _ = correlation_metrics(pred, ref)
    _, s2, _ = correlation_metrics(np.exp(pred), ref)
    assert s1 == pytest.approx(s2, abs=1e-12)


# -------------------------------------------------------- ladder accuracy

def test_accuracy_identical_ladders():
    l = ladder(100, 800, 4000)
    assert ladder_accuracy(l, l) == 1.0


def test_accuracy_half_grid_flips():
    ref = ladder(100, 800, 4000)
    pred = ladder(100, 1600, 4000)
    # four points between the two P2 values flip HD<->FHD, four agree
    grid = [900, 1000, 1200, 1500, 200, 500, 5000, 6000]
    assert ladder_accuracy(pred, ref, grid) == 0.5


def test_accuracy_grid_below_p1():
    ref = ladder(100, 800, 4000)
    pred = ladder(150, 900, 5000)
    grid = [10, 20, 50, 90]
    assert ladder_accuracy(pred, ref, grid) == 1.0


def test_default_grid_spans_cross_overs():
    grid = default_accuracy_grid([ladder(100, 800, 4000)])
    assert len(grid) == 100
    assert grid[0] == pytest.approx(100 / 1.1, rel=1e-12)
    assert grid[-1] == pytest.approx(4000 * 1.1, rel=1e-12)


# ----------------------------------------------------------------- BD-BR

def psnr_set(rates, intercept=30.0, slope=2.0):
    return np.array([(r, intercept + slope * math.log(r)) for r in rates])


def test_bd_rate_identical_sets_zero():
    s = psnr_set([100, 300, 900, 2700])
    assert abs(bd_rate(s, s)) < 1e-9


def test_bd_rate_uniform_scaling_exact():
    ref = psnr_set([100, 300, 900, 2700])
    test = ref.copy()
    test[:, 0] *= 1.10
    assert bd_rate(ref, test) == pytest.approx(10.0, abs=1e-6)
    assert bd_rate(test, ref) == pytest.approx(100.0 * (1 / 1.1 - 1), abs=1e-6)


def test_bd_rate_matches_integration_oracle():
    ref = np.array([(100.0, 32.0), (300.0, 35.5), (900.0, 38.5), (2700.0, 41.0)])
    test = np.array([(120.0, 32.5), (340.0, 35.8), (980.0, 38.4), (3000.0, 40.6)])
    assert bd_rate(ref, test) == pytest.approx(
        bd_rate_trapezoid_oracle(ref, test), abs=1e-6
    )


def test_bd_rate_matches_integration_oracle_random_sets():
    rng = np.random.default_rng(42)
    for _ in range(10):
        q = np.sort(rng.uniform(30, 45, 4))
        ref = np.column_stack([np.exp(rng.uniform(4, 9, 4)), q])
        test = np.column_stack([ref[:, 0] * rng.uniform(0.8, 1.3, 4), q])
        got = bd_rate(ref, test)
        # finer grid: the trapezoid rule itself limits agreement
        want = bd_rate_trapezoid_oracle(ref, test, n=200_001)
        assert got == pytest.approx(want, abs=1e-6)


def test_bd_rate_non_overlapping_ranges():
    a = psnr_set([100, 200, 400, 800])
    b = np.array([(r, 100 + 2 * math.log(r)) for r in (100, 200, 400, 800)])
    with pytest.raises(ContractError):
        bd_rate(a, b)


# -------------------------------------------------------- evaluate_method

def build_eval_inputs(n_clips=6):
    rd_curves = {}
    eel_ladders = {}
    for i in range(n_clips):
        scale = 1.0 + 0.2 * i
        curves = make_designed_curves(
            targets=(100.0 * scale, 800.0 * scale, 4000.0 * scale)
        )
        cid = f"clip{i}"
        rd_curves[cid] = curves
        eel_ladders[cid] = eel_ladder(curves, max_bitrate=40000)
    return rd_curves, eel_ladders


def test_evaluate_perfect_prediction():
    rd_curves, eel_ladders = build_eval_inputs()
    sl = static_ladder([l.cross_overs for l in eel_ladders.values()])
    report = evaluate_method(dict(eel_ladders), eel_ladders, sl, rd_curves)
    assert report.accuracy == 1.0
    assert abs(report.bdbr_vs_eel) < 1e-9
    for k in ("p1", "p2", "p3"):
        assert report.per_target[k]["plcc"] == pytest.approx(1.0, abs=1e-9)
        assert report.per_target[k]["srocc"] == pytest.approx(1.0, abs=1e-9)
        assert report.per_target[k]["r2"] == pytest.approx(1.0, abs=1e-9)


def test_evaluate_sl_worse_than_perfect():
    rd_curves, eel_ladders = build_eval_inputs()
    sl = static_ladder([l.cross_overs for l in eel_ladders.values()])
    report = evaluate_method(dict(eel_ladders), eel_ladders, sl, rd_curves)
    # perfect predictions cannot cost more rate than the static baseline
    assert report.bdbr_vs_sl <= report.bdbr_vs_eel + 1e-9


def test_no_interpolant_outlives_its_clip():
    """`eel_ladder` and each clip of `evaluate_method` interpolate on their
    own handles of the caller's curves: a command that holds every clip's
    curves holds one clip's interpolants at a time.  Within a call each
    curve's interpolant is built once and shared."""
    built = []

    class CountedPchip(rd_core._Pchip):
        def __init__(self, x, y):
            built.append(len(x))
            super().__init__(x, y)

    with mock.patch.object(rd_core, "_Pchip", CountedPchip):
        rd_curves, eel_ladders = build_eval_inputs()
        held = [c for curves in rd_curves.values() for c in curves.values()]
        assert len(built) == len(held)
        assert all(c._interp is None for c in held)
        built.clear()
        sl = static_ladder([l.cross_overs for l in eel_ladders.values()])
        evaluate_method(dict(eel_ladders), eel_ladders, sl, rd_curves)
        assert 0 < len(built) <= len(held)
        assert all(c._interp is None for c in held)


def test_clip_scorer_report_does_not_depend_on_add_order():
    """`evaluate` adds clips in curve-file order; the report sums them in
    clip order, so it equals `evaluate_method`'s to the bit.  A clip with
    no ladders is ignored."""
    rd_curves, eel_ladders = build_eval_inputs()
    pred = {c: BitrateLadder(CrossOverSet(*(v * (1.1 + 0.05 * i) for v in l.cross_overs.as_tuple()),
                                          "ypsnr"))
            for i, (c, l) in enumerate(sorted(eel_ladders.items()))}
    sl = static_ladder([l.cross_overs for l in eel_ladders.values()])
    scorer = ClipScorer(pred, eel_ladders, sl)
    for c in ["other", *sorted(rd_curves, reverse=True)]:
        scorer.add(c, rd_curves.get(c, rd_curves["clip0"]))
    assert scorer.report() == evaluate_method(pred, eel_ladders, sl, rd_curves)
