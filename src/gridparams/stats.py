"""Descriptive statistics for per-class parameter samples.

Quantiles use linear interpolation at rank h = (n - 1) * p + 1 (numpy's
default, the common "type 7" convention). The 80% range of a sample is
reported as [q10, q90].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import _csv_text

__all__ = [
    "SummaryStats",
    "Histogram",
    "summarize",
    "band_fraction",
    "histogram",
    "histogram_csv",
    "pearson",
    "spearman",
]


@dataclass(frozen=True)
class SummaryStats:
    n: int
    median: float
    mean: float
    min: float
    max: float
    q10: float
    q90: float


_FD_MIN_BINS, _FD_MAX_BINS = 10, 200


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram over [min, max]; max falls in the last bin."""

    edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def as_sample(values) -> np.ndarray:
    """values as a flat float array; ValueError if it is empty or not all finite."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def _scale_free(f, *samples, degree: int = 1) -> float:
    """float(f(*samples)) for an f with f(s * 2**k, ...) == f(s, ...) * 2**(degree * k), unchanged by scaling
    its other samples (np.mean and np.std have degree 1, a correlation 0). Where numpy meets a floating-point
    error, f runs on samples scaled by powers of two to below 1, then is scaled back: exact for normal floats."""
    try:
        with np.errstate(all="raise"):
            return float(f(*samples))
    except FloatingPointError:
        exps = [int(np.frexp(np.max(np.abs(s)))[1]) for s in samples]
        value = f(*(np.ldexp(s, -e) for s, e in zip(samples, exps)))
        return math.ldexp(float(value), degree * exps[0])


def summarize(values) -> SummaryStats:
    arr = as_sample(values)
    lo, hi = float(arr.min()), float(arr.max())
    scale = 1.0 if math.isfinite(hi - lo) else 2.0  # past the float maximum: the halved sample's, doubled
    q10, med, q90 = (np.quantile(arr / scale, [0.10, 0.50, 0.90]) * scale).tolist()
    return SummaryStats(n=arr.size, median=med, mean=_scale_free(np.mean, arr), min=lo, max=hi, q10=q10, q90=q90)


def band_fraction(values, lo: float, hi: float) -> float:
    """Fraction of the sample inside the closed interval [lo, hi]."""
    if not lo < hi:
        raise ValueError(f"band requires lo < hi, got [{lo}, {hi}]")
    arr = as_sample(values)
    return float(np.count_nonzero((arr >= lo) & (arr <= hi)) / arr.size)


def _bins(bins):
    """bins as histogram takes it: "fd", or an int >= 2 (numpy integers too); ValueError otherwise."""
    if isinstance(bins, str) and bins == "fd":
        return bins
    if isinstance(bins, (int, np.integer)) and bins >= 2:
        return int(bins)
    raise ValueError(f"bins must be 'fd' or an integer >= 2, got {bins!r}")


def _bin_count(arr: np.ndarray, bins) -> int:
    if bins != "fd":
        return bins
    span = float(arr.max() - arr.min())
    q25, q75 = np.quantile(arr, [0.25, 0.75])
    iqr = float(q75 - q25)
    width = 2.0 * iqr / arr.size ** (1.0 / 3.0)
    if width <= 0 or span / width > _FD_MAX_BINS:
        return _FD_MAX_BINS
    return max(_FD_MIN_BINS, math.ceil(span / width))


def histogram(values, bins="fd") -> Histogram:
    """bins: "fd", the Freedman-Diaconis width 2*IQR/n^(1/3) with the count clamped to [10, 200]; or a count."""
    bins = _bins(bins)
    arr = as_sample(values)
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        raise ValueError("all values identical; a zero-width histogram is degenerate, "
                         "summarize the constant instead")
    if not math.isfinite(hi - lo):  # a range past the float maximum: the halved sample's, scaled back
        half = histogram(arr * 0.5, bins)
        return Histogram(edges=half.edges * 2.0, densities=half.densities * 0.5, counts=half.counts)
    k = _bin_count(arr, bins)
    # Bins narrower than the smallest normal float make count / (n * width)
    # overflow to inf; widen such a range so every density stays finite.
    hi = max(hi, lo + k * float(np.finfo(float).tiny))
    counts, edges = np.histogram(arr, bins=k, range=(lo, hi))
    widths = np.diff(edges)
    densities = counts / (arr.size * widths)
    return Histogram(edges=edges, densities=densities, counts=counts)


def histogram_csv(hist: Histogram) -> str:
    """CSV rows `bin_lo,bin_hi,count,density` for external plotting."""
    columns = (hist.edges[:-1], hist.edges[1:], hist.counts, hist.densities)
    return _csv_text(("bin_lo", "bin_hi", "count", "density"), columns)


def _corr(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    if not np.any(dx) or not np.any(dy):
        raise ValueError("correlation is undefined for a constant series")
    # numpy's own pairwise sums, not np.dot: BLAS splits a long dot product
    # across threads, and the last bits would follow the thread count.
    return float(np.sum(dx * dy) / math.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def pearson(xs, ys) -> float:
    """Product-moment correlation; errors on constant series."""
    x = as_sample(xs)
    y = as_sample(ys)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    return _scale_free(_corr, x, y, degree=0)


def spearman(xs, ys) -> float:
    """Rank correlation on average ranks (ties averaged); pearson() checks the ranks' lengths."""
    return pearson(_average_ranks(as_sample(xs)), _average_ranks(as_sample(ys)))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, ties given the mean of their ranks (scipy.stats.rankdata's
    "average" method): the order inside a tie cannot change a rank, so any argsort will do."""
    order = np.argsort(a)
    ordered = a[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks
