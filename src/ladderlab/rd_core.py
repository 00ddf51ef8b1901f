"""Rate-quality curves, cross-over bitrates, and bitrate ladders.

Quality is interpolated monotonically against ln(bitrate): RD behavior
is near-linear in log rate and log-domain bisection stays
well-conditioned across the kbps-to-Mbps range.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DegenerateCurveError, ValidationError

#: The four streaming resolutions, smallest first: SD, HD, FHD, UHD.
LADDER_RESOLUTIONS = ((720, 480), (1280, 720), (1920, 1080), (3840, 2160))

METRICS = ("ypsnr", "vmaf")

CROSS_OVER_REL_TOL = 1e-3


def check_metric(metric):
    """Reject a quality metric other than those in METRICS."""
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")


class RDPoint(NamedTuple):
    """One encoded sample, as encoders and synthetic laws report it."""

    bitrate: float  # kbps
    quality: float
    qp: int | None = None


class RDSamples(NamedTuple):
    """One resolution's encoded samples as columns, in the order given.

    The RD sample reader grows an array('d') of bitrates, one of
    qualities and a list of qp per curve; any sequences do.
    """

    bitrate: object  # kbps
    quality: object
    qp: object  # int or None per sample


def _read_only(values):
    column = np.array(values, dtype=np.float64)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class RDColumns:
    """A curve's points as columns, one entry per point.

    `bitrate` (kbps) and `quality` are read-only float64 arrays; `qp`
    holds a Python int or None per point, because curve files accept
    any JSON integer.  Records with equal values compare equal.
    """

    bitrate: np.ndarray
    quality: np.ndarray
    qp: tuple

    def __post_init__(self):
        object.__setattr__(self, "bitrate", _read_only(self.bitrate))
        object.__setattr__(self, "quality", _read_only(self.quality))
        object.__setattr__(self, "qp", tuple(self.qp))

    def __eq__(self, other):
        return (isinstance(other, RDColumns) and self.qp == other.qp
                and np.array_equal(self.bitrate, other.bitrate)
                and np.array_equal(self.quality, other.quality))


@dataclass
class RDCurve:
    resolution: tuple
    metric: str
    points: RDColumns  # strictly increasing in bitrate and quality
    _interp: object = field(default=None, repr=False, compare=False)

    @property
    def min_bitrate(self):
        return float(self.points.bitrate[0])

    @property
    def max_bitrate(self):
        return float(self.points.bitrate[-1])

    def _interpolator(self):
        if self._interp is None:
            self._interp = _Pchip(np.log(self.points.bitrate), self.points.quality)
        return self._interp


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant through (x, y).

    Interior slopes are the weighted harmonic means of Fritsch & Carlson
    (SIAM J. Numer. Anal. 17(2), 1980); end slopes use Moler's one-sided
    shape-preserving rule (Numerical Computing with MATLAB, sec. 3.6).
    The slopes, the Hermite coefficients, the interval search and the
    power-sum evaluation repeat scipy.interpolate.PchipInterpolator
    operation for operation, so results are bit-identical to it.
    Queries outside the knots extrapolate the end cubics.
    """

    # Knots close together under qualities far apart overflow the slopes
    # or the coefficients; any non-finite coefficient is refused below.
    @np.errstate(all="ignore")
    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        h = x[1:] - x[:-1]
        if len(x) < 2 or not (np.isfinite(x).all() and np.isfinite(y).all() and (h > 0).all()):
            raise ValidationError("interpolation needs 2+ finite, strictly increasing knots")
        m = (y[1:] - y[:-1]) / h
        d = np.empty_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            sm = np.sign(m)
            flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            hl, ml = h.tolist(), m.tolist()
            d[0] = _pchip_end_slope(hl[0], hl[1], ml[0], ml[1])
            d[-1] = _pchip_end_slope(hl[-1], hl[-2], ml[-1], ml[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        # scipy sums from 0.0 + y, which turns a -0.0 into 0.0.
        self._c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1] + 0.0)
        # d[-1] enters the two leading coefficients through t
        if not all(np.isfinite(c).all() for c in self._c):
            raise ValidationError("interpolation knots too close for their qualities: "
                                  "the cubic's coefficients overflow")
        self._x = x

    def __call__(self, q):
        # Interval i has x[i] <= q < x[i+1], clipped to the end intervals;
        # searching the inner knots alone gives that clipped index.
        x, (c0, c1, c2, c3) = self._x, self._c
        q = np.asarray(q, dtype=np.float64)
        i = np.searchsorted(x[1:-1], q, side="right")
        s = q - x[i]
        s2 = s * s
        return ((c3[i] + c2[i] * s) + c1[i] * s2) + c0[i] * (s2 * s)


def _sign(v):
    """np.sign for a float: -1, 0 or 1, and NaN for NaN."""
    return (v > 0) - (v < 0) if v == v else v


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def build_rd_curve(samples, resolution, metric):
    """Sort samples by bitrate and keep only the Pareto frontier.

    `samples` is an RDSamples, or rows of (bitrate, quality, qp) such as
    RDPoints, which are transposed into one first.  Bitrates are compared
    by np.log(bitrate), the knots the curve is interpolated on, so
    bitrates whose logs are equal count as one.  A point is dropped when
    some other point has no higher log bitrate and no lower quality; of
    such points with equal qualities the lowest bitrate, and of identical
    points the first given, is kept.  The survivors are strictly
    increasing in log bitrate and in quality.
    """
    check_metric(metric)
    if not isinstance(samples, RDSamples):
        samples = RDSamples(*zip(*samples)) if len(samples) else RDSamples((), (), ())
    if len(samples.bitrate) < 2:
        raise DegenerateCurveError(
            f"{resolution}/{metric}: need at least 2 samples, got {len(samples.bitrate)}"
        )
    bitrate = np.array(samples.bitrate, dtype=np.float64)
    quality = np.array(samples.quality, dtype=np.float64)
    if metric == "vmaf":
        outside = np.flatnonzero(~((quality >= 0.0) & (quality <= 100.0)))
        if outside.size:
            raise ValidationError(f"VMAF quality out of range: {samples.quality[outside[0]]}")
    # Log bitrate ascending, then quality descending, then bitrate
    # ascending; lexsort is stable, so equal points keep their given order.
    order = np.lexsort((bitrate, -quality, np.log(bitrate)))
    ordered = quality[order]
    earlier_best = np.maximum.accumulate(np.concatenate(([-np.inf], ordered[:-1])))
    kept = order[ordered > earlier_best]
    if len(kept) < 2:
        raise DegenerateCurveError(
            f"{resolution}/{metric}: fewer than 2 points survive Pareto cleaning"
        )
    points = RDColumns(bitrate[kept], quality[kept], [samples.qp[i] for i in kept.tolist()])
    return RDCurve(resolution=tuple(resolution), metric=metric, points=points)


def curve_handles(curves):
    """{resolution: a new RDCurve on the same read-only points} of `curves`.

    An interpolant is cached on the curve it was built for; one built
    through these handles goes when they do, not with the caller's
    curves, so a command that holds many clips holds one clip's.
    """
    return {res: RDCurve(c.resolution, c.metric, c.points) for res, c in curves.items()}


def interpolate_quality(curve, bitrates):
    """Monotone piecewise-cubic quality at each bitrate.

    Each query is clamped to the curve's bitrate range first.
    """
    b = np.clip(np.asarray(bitrates, dtype=np.float64), curve.min_bitrate, curve.max_bitrate)
    # libm's log, one value at a time: np.log differs from it in the last
    # bit for some arguments (most often near 1), and the hull qualities
    # and the reports built on them have always used libm's.
    lb = np.fromiter(map(math.log, b.ravel().tolist()), np.float64, b.size)
    return curve._interpolator()(lb.reshape(b.shape))


def cross_over(lower, higher, max_bitrate):
    """Bitrate where the higher-resolution curve overtakes the lower one.

    On the common bitrate range: the lowest-bitrate sign change of
    (higher - lower), bisected to 0.1% relative tolerance.  Higher
    dominating everywhere returns the higher curve's minimum bitrate;
    lower dominating everywhere returns max_bitrate.
    """
    if lower.metric != higher.metric:
        raise ContractError(
            f"metric mismatch: {lower.metric} vs {higher.metric}"
        )
    lo = max(lower.min_bitrate, higher.min_bitrate)
    hi = min(lower.max_bitrate, higher.max_bitrate)
    if lo > hi:
        # No overlap: ranges must at least be orderable.
        if higher.min_bitrate > lower.max_bitrate:
            return higher.min_bitrate
        raise ContractError(
            "curves have disjoint, non-orderable bitrate ranges"
        )
    llo, lhi = math.log(lo), math.log(hi)
    grid = np.linspace(llo, lhi, 513)
    diff = higher._interpolator()(grid) - lower._interpolator()(grid)
    if np.all(diff >= 0):
        return higher.min_bitrate
    if np.all(diff <= 0):
        return max_bitrate
    sign = np.sign(diff)
    # diff takes both signs, so some grid step touches zero or changes sign.
    i = int(np.flatnonzero((sign[:-1] == 0) | (sign[:-1] * sign[1:] < 0))[0])
    if sign[i] == 0:
        return float(math.exp(grid[i]))
    a, b = float(grid[i]), float(grid[i + 1])
    fa = float(diff[i])
    tol = math.log1p(CROSS_OVER_REL_TOL)
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = higher._interpolator()(m) - lower._interpolator()(m)
        if fm == 0:
            return float(math.exp(m))
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return float(math.exp(0.5 * (a + b)))


@dataclass(frozen=True)
class CrossOverSet:
    p1: float
    p2: float
    p3: float
    metric: str

    def as_tuple(self):
        return (self.p1, self.p2, self.p3)


@dataclass(frozen=True)
class BitrateLadder:
    cross_overs: CrossOverSet


def monotone_clamp(p1, p2, p3):
    """Forward clamping so P1 <= P2 <= P3."""
    p2 = max(p2, p1)
    p3 = max(p3, p2)
    return p1, p2, p3


def eel_ladder(curves, max_bitrate=None):
    """Exhaustive-encoding ladder from the four per-resolution curves.

    `curves` maps resolution tuples to RDCurve; it is interpolated
    through `curve_handles`, so its curves are left holding no
    interpolant.  The default max_bitrate is the highest bitrate
    observed across all curves.
    """
    missing = [r for r in LADDER_RESOLUTIONS if r not in curves]
    if missing:
        raise ContractError(f"missing resolutions: {missing}")
    metrics = {curves[r].metric for r in LADDER_RESOLUTIONS}
    if len(metrics) != 1:
        raise ContractError(f"mixed metrics in ladder curves: {sorted(metrics)}")
    if max_bitrate is None:
        max_bitrate = max(curves[r].max_bitrate for r in LADDER_RESOLUTIONS)
    curves = curve_handles(curves)
    raw = []
    for lo_res, hi_res in zip(LADDER_RESOLUTIONS[:-1], LADDER_RESOLUTIONS[1:]):
        try:
            raw.append(cross_over(curves[lo_res], curves[hi_res], max_bitrate))
        except ContractError as exc:
            raise ContractError(f"{lo_res}-{hi_res}: {exc}") from exc
    p1, p2, p3 = monotone_clamp(*raw)
    return BitrateLadder(CrossOverSet(p1, p2, p3, metrics.pop()))


def hull_resolution_index(ladder, bitrates):
    """0..3 index of the resolution the hull rule selects at each bitrate.

    The rule picks the first resolution whose upper cross-over lies above
    the bitrate.  That is the count of clamped cross-overs at or below it,
    also for a ladder that was never clamped.
    """
    return np.searchsorted(monotone_clamp(*ladder.cross_overs.as_tuple()), bitrates, side="right")


def convex_hull(curves, ladder):
    """bitrates -> (resolution indices, qualities) map induced by a ladder.

    Quality is read from the selected resolution's curve, with each
    query clamped to that curve's bitrate range.
    """

    def lookup(bitrates):
        b = np.asarray(bitrates, dtype=np.float64)
        index = hull_resolution_index(ladder, b)
        quality = np.empty(b.shape)
        # the resolutions selected, in order; np.unique would import numpy.ma
        counts = np.bincount(index.ravel(), minlength=len(LADDER_RESOLUTIONS))
        for k in np.flatnonzero(counts).tolist():
            chosen = index == k
            quality[chosen] = interpolate_quality(curves[LADDER_RESOLUTIONS[k]], b[chosen])
        return index, quality[()]

    return lookup
