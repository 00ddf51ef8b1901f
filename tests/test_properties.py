import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from ladderlab.errors import DegenerateCurveError, ValidationError
from ladderlab.rd_core import RDPoint, _Pchip, build_rd_curve, monotone_clamp
from ladderlab.stats import ten_stats

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
    rates = [p.bitrate for p in curve.points]
    quals = [p.quality for p in curve.points]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(a < b for a, b in zip(quals, quals[1:]))
    # no survivor is dominated by any input point
    for p in curve.points:
        assert not any(
            (q.bitrate, q.quality) != (p.bitrate, p.quality)
            and q.bitrate <= p.bitrate
            and q.quality >= p.quality
            for q in points
        )


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
        ref = PchipInterpolator(x, y)
    except ValueError:  # e.g. knots so close that a slope overflows
        with pytest.raises(ValidationError):
            _Pchip(x, y)
        return
    ours = _Pchip(x, y)
    assert _bits(ours(q)) == _bits(ref(q))
    for v in q.tolist():
        assert _bits(ours(v)) == _bits(ref(v))
