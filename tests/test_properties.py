import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from ladderlab.errors import ContractError, DegenerateCurveError, ValidationError
from ladderlab.evaluation import _average_ranks, ladder_accuracy
from ladderlab.pipeline import write_curves_dir
from ladderlab.rd_core import (
    LADDER_RESOLUTIONS, METRICS, BitrateLadder, CrossOverSet, RDColumns, RDCurve, RDPoint, _Pchip,
    build_rd_curve, convex_hull, hull_resolution_index, monotone_clamp,
)
from ladderlab import stats
from ladderlab.stats import ten_stats
from oracles import (
    json_dump_write_curves_dir, loop_average_ranks, loop_build_rd_curve, scalar_hull_quality,
    scalar_hull_resolution_index, scalar_ladder_accuracy,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200)
@given(st.lists(finite, min_size=1, max_size=50))
def test_ten_stats_order_invariants(xs):
    mean, std, mn, mx, p25, p50, p75, iqr, _, _ = ten_stats(xs)
    assert mn <= p25 <= p50 <= p75 <= mx
    slack = 4.0 * np.spacing(max(abs(mn), abs(mx)))  # mean rounding slop
    assert mn - slack <= mean <= mx + slack
    assert std >= 0.0
    assert abs(iqr - (p75 - p25)) <= 1e-9 * max(1.0, abs(iqr))


# ties, both zeros and the extremes drawn often
tie_prone = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 5e-324]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)


@settings(max_examples=500)
@given(st.one_of(st.lists(tie_prone, min_size=1, max_size=3),
                 st.lists(tie_prone, min_size=1, max_size=60)))
@example([-0.0])
@example([0.0, -0.0])
@example([-1e300, 1e300, 1e300])
def test_quartiles_equal_numpy_percentile(xs):
    got = stats.quartiles(np.array(xs))
    want = np.percentile(np.array(xs), [25, 50, 75])
    assert got.tolist() == want.tolist()
    # bit for bit but for the sign of a zero, where a sort and numpy's
    # partition may order 0.0 and -0.0 differently
    assert (got.view(np.int64) == want.view(np.int64))[got != 0].all()


@settings(max_examples=200)
@given(
    st.floats(min_value=1.0, max_value=1e5),
    st.floats(min_value=1.0, max_value=1e5),
    st.floats(min_value=1.0, max_value=1e5),
)
def test_monotone_clamp_sorted_and_idempotent(p1, p2, p3):
    out = monotone_clamp(p1, p2, p3)
    assert out[0] <= out[1] <= out[2]
    assert monotone_clamp(*out) == out
    assert out[0] == p1  # the lowest rung is never moved


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e5),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_pareto_cleaning_invariants(raw):
    points = [RDPoint(r, q) for r, q in raw]
    try:
        curve = build_rd_curve(points, (720, 480), "ypsnr")
    except DegenerateCurveError:
        # legal outcome: fewer than 2 non-dominated points
        survivors = {
            (p.bitrate, p.quality)
            for p in points
            if not any(
                q is not p and q.bitrate <= p.bitrate and q.quality >= p.quality
                for q in points
            )
        }
        assert len(survivors) < 2
        return
    rates = curve.points.bitrate.tolist()
    quals = curve.points.quality.tolist()
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(a < b for a, b in zip(quals, quals[1:]))
    # no survivor is dominated by any input point
    for p in map(RDPoint, rates, quals):
        assert not any(
            (q.bitrate, q.quality) != (p.bitrate, p.quality)
            and q.bitrate <= p.bitrate
            and q.quality >= p.quality
            for q in points
        )


# Bitrates and qualities come often from small pools, so that equal
# bitrates, equal qualities and ±0.0 qualities at one bitrate are common;
# the qualities include the VMAF range's ends and the floats just outside.
# 1e5 and the next double have equal natural logs.
sample_bitrates = st.one_of(
    st.sampled_from([0.5, 100.0, 250.0, 1e5, 100000.00000000001]), st.floats(1e-3, 1e6),
    st.floats(1e-3, 1e6).map(np.float64),
)
sample_qualities = st.one_of(
    st.sampled_from([0.0, -0.0, 30.0, 100.0, np.nextafter(0.0, -1.0), np.nextafter(100.0, 200.0),
                     np.float64(-0.0), np.float64(100.0)]),
    st.floats(-50.0, 150.0), st.floats(-50.0, 150.0).map(np.float64),
)
sample_qps = st.one_of(st.none(), st.integers(0, 2**70))


@st.composite
def rd_sample_lists(draw):
    """RDPoints, some of them repeated with another qp at a drawn place."""
    points = draw(st.lists(st.builds(RDPoint, sample_bitrates, sample_qualities, sample_qps),
                           max_size=24))
    for p in draw(st.lists(st.sampled_from(points), max_size=6)) if points else []:
        points.insert(draw(st.integers(0, len(points))), p._replace(qp=draw(sample_qps)))
    return points


@settings(max_examples=500)
@given(rd_sample_lists(), st.sampled_from(METRICS + ("psnr",)))
@example([RDPoint(100.0, 30.0, 1), RDPoint(100.0, 30.0, 2), RDPoint(200.0, 31.0, 3)], "ypsnr")
@example([RDPoint(100.0, 0.0, 1), RDPoint(100.0, -0.0, 2), RDPoint(200.0, 31.0, 3)], "vmaf")
@example([RDPoint(100.0, 30.0, 1), RDPoint(100.0, 31.0, 2), RDPoint(200.0, 32.0, 3)], "ypsnr")
@example([RDPoint(100.0, 30.0), RDPoint(200.0, 30.0), RDPoint(50.0, 31.0)], "ypsnr")
@example([RDPoint(100.0, 0.0), RDPoint(200.0, np.nextafter(100.0, 200.0))], "vmaf")
@example([RDPoint(100000.00000000001, 30.0, 1), RDPoint(1e5, 30.0, 2), RDPoint(1e5, 29.0, 3),
          RDPoint(2e5, 31.0, 4)], "ypsnr")
def test_pareto_filter_equals_sort_and_loop(samples, metric):
    try:
        want = loop_build_rd_curve(samples, (720, 480), metric)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as raised:
            build_rd_curve(samples, (720, 480), metric)
        assert type(raised.value) is type(exc)
        return
    got = build_rd_curve(samples, (720, 480), metric)
    assert _bits(got.points.bitrate) == _bits([p.bitrate for p in want.points])
    assert _bits(got.points.quality) == _bits([p.quality for p in want.points])
    assert got.points.qp == tuple(p.qp for p in want.points)


@settings(max_examples=300)
@given(rd_sample_lists(), st.sampled_from(METRICS))
@example([RDPoint(1e5, 30.0), RDPoint(100000.00000000001, 31.0), RDPoint(2e5, 32.0)], "ypsnr")
def test_every_built_curve_can_be_interpolated(samples, metric):
    try:
        curve = build_rd_curve(samples, (720, 480), metric)
    except ValidationError:
        return
    _Pchip(np.log(curve.points.bitrate), curve.points.quality)  # raises on knots it refuses


@st.composite
def pchip_cases(draw):
    """Knots (2 to 20), monotone or arbitrary values, and queries that
    include every knot plus points up to 1 beyond either end."""
    x = np.array(sorted(draw(st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=20,
                                      unique=True))))
    n = len(x)
    if draw(st.booleans()):
        y = np.cumsum(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    else:
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    q = draw(st.lists(st.floats(x[0] - 1.0, x[-1] + 1.0), max_size=30))
    return x, y, np.array(q + x.tolist())


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


@settings(max_examples=300)
@given(pchip_cases())
def test_pchip_bitwise_equals_scipy(case):
    x, y, q = case
    try:
        with np.errstate(all="ignore"):
            ref = PchipInterpolator(x, y)
    except ValueError:  # e.g. knots so close that a slope overflows
        ref = None
    if ref is None or not np.isfinite(ref.c).all():
        # knots so close that a coefficient overflows: refused, not evaluated
        with pytest.raises(ValidationError):
            _Pchip(x, y)
        return
    ours = _Pchip(x, y)
    assert _bits(ours(q)) == _bits(ref(q))
    for v in q.tolist():
        assert _bits(ours(v)) == _bits(ref(v))


# np.log and libm's log disagree in the last bit for about 5% of the
# arguments in 0.99..1.01 and fewer elsewhere below 10, so knots and
# queries are drawn there often.
low_rates = st.one_of(st.floats(0.99, 1.01), st.floats(0.5, 10.0))
rates = st.one_of(low_rates, st.floats(0.5, 1e5))


@st.composite
def ladders(draw):
    """Cross-overs as drawn (often unclamped), or collapsed to one value."""
    if draw(st.booleans()):
        p = (draw(rates),) * 3
    else:
        p = tuple(draw(rates) for _ in range(3))
    return BitrateLadder(CrossOverSet(*p, "ypsnr"))


@st.composite
def hull_cases(draw):
    """Four curves with knots in 0.5 kbps..100 Mbps, two ladders, and a
    grid holding every cross-over and curve end exactly, bitrates below
    and above every curve, and bitrates in 0.5..10 kbps."""
    curves = {}
    for res in LADDER_RESOLUTIONS:
        knots = sorted(draw(st.lists(rates, min_size=2, max_size=8, unique=True)))
        steps = draw(st.lists(st.floats(0.01, 10.0), min_size=len(knots), max_size=len(knots)))
        try:
            curves[res] = build_rd_curve(
                [RDPoint(b, q) for b, q in zip(knots, np.cumsum(steps).tolist())], res, "ypsnr")
        except DegenerateCurveError:  # knots whose logs are equal count as one
            reject()
    pred, ref = draw(ladders()), draw(ladders())
    grid = [v for l in (pred, ref) for v in l.cross_overs.as_tuple()]
    grid += [v for c in curves.values() for v in (c.min_bitrate, c.max_bitrate)]
    grid += [0.1, 2e5]
    grid += draw(st.lists(low_rates, max_size=20))
    grid += draw(st.lists(st.floats(0.1, 2e5), max_size=20))
    return curves, pred, ref, np.array(draw(st.permutations(grid)))


@settings(max_examples=200)
@given(hull_cases())
def test_hull_queries_bitwise_equal_scalar_reference(case):
    curves, pred, ref, grid = case
    want_index = [scalar_hull_resolution_index(pred, b) for b in grid]
    assert _bits(hull_resolution_index(pred, grid)) == _bits(want_index)
    want_quality = [scalar_hull_quality(curves, pred, b) for b in grid]
    hull = convex_hull(curves, pred)
    assert _bits(hull(grid)[1]) == _bits(want_quality)
    assert _bits([hull(b)[1] for b in grid]) == _bits(want_quality)
    assert ladder_accuracy(pred, ref, grid) == scalar_ladder_accuracy(pred, ref, grid)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), finite), max_size=40))
def test_average_ranks_bitwise_equal_loop(xs):
    x = np.array(xs, dtype=np.float64)
    assert _bits(_average_ranks(x)) == _bits(loop_average_ranks(x))


# Clip ids as check_clip_id allows them: JSON escapes ", \ and tabs, and
# writes non-ASCII characters as \u escapes.
clip_ids = st.text(
    st.one_of(st.sampled_from('"\\\t\u00e9\u5b57\U0001f600'),
              st.characters(codec="utf-8", exclude_characters=",/\r\n\x00")),
    min_size=1, max_size=10,
)
magnitudes = st.floats(min_value=1e-7, max_value=1e16)
bitrates = st.one_of(magnitudes, magnitudes.map(np.float64))
qualities = st.one_of(
    st.sampled_from([0.0, -0.0]), magnitudes, magnitudes.map(lambda v: -v),
    magnitudes.map(np.float64), magnitudes.map(lambda v: np.float64(-v)),
)
curve_points = st.builds(
    RDPoint, bitrates, qualities, st.one_of(st.none(), st.just(0), st.integers(0, 2**70)),
)
# The ladder's own resolutions sort differently as strings ("1280x720" <
# "720x480") than as tuples; others add more such pairs.
resolutions = st.one_of(
    st.sampled_from(LADDER_RESOLUTIONS), st.tuples(st.integers(1, 20000), st.integers(1, 20000))
)
curve_keys = st.tuples(
    clip_ids, st.sampled_from(["avc", "hevc", "vvc"]),
    st.sampled_from(["software", "hardware"]), st.sampled_from(["ypsnr", "vmaf"]),
)


def columns(points):
    """The column record of a list of RDPoints."""
    return RDColumns([p.bitrate for p in points], [p.quality for p in points],
                     [p.qp for p in points])


@st.composite
def curve_sets(draw):
    out = {}
    for key in draw(st.lists(curve_keys, min_size=1, max_size=3, unique=True)):
        out[key] = {
            res: RDCurve(res, key[3], columns(draw(st.lists(curve_points, max_size=6))))
            for res in draw(st.lists(resolutions, max_size=5, unique=True))
        }
    return out


def _written_files(write, curves):
    with tempfile.TemporaryDirectory() as d:
        write(d, curves)
        return {p.name: p.read_bytes() for p in Path(d).iterdir()}


@settings(max_examples=300)
@given(curve_sets())
@example({("a\t\"\\\u00e9", "avc", "software", "ypsnr"): {
    res: RDCurve(res, "ypsnr", columns([RDPoint(np.float64(1e-7), -0.0, None),
                                        RDPoint(1e16, 1.5, 2**64)]))
    for res in ((10, 1), (9, 10), (720, 480), (1280, 720))
}})
@example({("c1", "vvc", "hardware", "vmaf"): {
    (720, 480): RDCurve((720, 480), "vmaf",
                        columns([RDPoint(150.0, 40.0, 0), RDPoint(900.0, 80.0, 0)])),
}})
def test_curve_files_byte_equal_json_dump_writer(curves):
    assert _written_files(write_curves_dir, curves) == _written_files(
        json_dump_write_curves_dir, curves)


@pytest.mark.parametrize("field, value", [
    ("bitrate_kbps", math.inf), ("quality", math.nan), ("quality", -math.inf),
    ("quality", np.float64(math.inf)),
])
def test_curve_writer_rejects_non_finite_values(tmp_path, field, value):
    good = RDPoint(100.0, 30.0, 40)
    bad = RDPoint(value, 31.0, 30) if field == "bitrate_kbps" else RDPoint(200.0, value, 30)
    key = ("c1", "avc", "software", "ypsnr")
    curves = {key: {(720, 480): RDCurve((720, 480), "ypsnr", columns([good, bad]))}}
    with pytest.raises(ContractError, match=f"{field} must be finite"):
        write_curves_dir(tmp_path, curves)
    assert not list(tmp_path.iterdir())


_LEAF = stats._LEAF


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(1, 3 * _LEAF + 17),
        st.sampled_from([_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 8, 3 * _LEAF + 17]),
    ),
    st.integers(0, 2**32 - 1),
)
def test_tree_sums_equal_add_reduce_bit_for_bit(n, seed):
    # signed zeros and magnitudes from 1e-300 to 1e300, so every rounding
    # and the sign of a zero sum depend on the order of the additions
    rng = np.random.default_rng(seed)
    arrays = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-300, 300, (2, n))
    zeros = rng.random((2, n)) < 0.3
    arrays[zeros] = rng.choice([-0.0, 0.0], zeros.sum())
    arrays[1, : n // 2] = -0.0  # a run of negative zeros only

    def values(lo, hi, out):
        out[:] = arrays[:, lo:hi]

    got = stats.tree_sums(n, 2, values)
    want = np.array([np.add.reduce(a) for a in arrays])
    assert got.tobytes() == want.tobytes()
