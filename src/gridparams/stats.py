"""Descriptive statistics for per-class parameter samples.

Quantiles use linear interpolation at rank h = (n - 1) * p + 1 (numpy's
default, the common "type 7" convention). The 80% range of a sample is
reported as [q10, q90].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SummaryStats",
    "Histogram",
    "FixedCount",
    "FreedmanDiaconis",
    "Binning",
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


@dataclass(frozen=True)
class FixedCount:
    """Exactly k equal-width bins."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"bin count must be >= 2, got {self.k}")


@dataclass(frozen=True)
class FreedmanDiaconis:
    """Freedman-Diaconis width 2*IQR/n^(1/3), bin count clamped to [10, 200]."""


_FD_MIN_BINS, _FD_MAX_BINS = 10, 200


Binning = FixedCount | FreedmanDiaconis


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


def summarize(values) -> SummaryStats:
    arr = as_sample(values)
    q10, med, q90 = np.quantile(arr, [0.10, 0.50, 0.90])
    return SummaryStats(
        n=arr.size,
        median=float(med),
        mean=float(arr.mean()),
        min=float(arr.min()),
        max=float(arr.max()),
        q10=float(q10),
        q90=float(q90),
    )


def band_fraction(values, lo: float, hi: float) -> float:
    """Fraction of the sample inside the closed interval [lo, hi]."""
    if not lo < hi:
        raise ValueError(f"band requires lo < hi, got [{lo}, {hi}]")
    arr = as_sample(values)
    return float(np.count_nonzero((arr >= lo) & (arr <= hi)) / arr.size)


def _bin_count(arr: np.ndarray, binning: Binning) -> int:
    if isinstance(binning, FixedCount):
        return binning.k
    span = float(arr.max() - arr.min())
    q25, q75 = np.quantile(arr, [0.25, 0.75])
    iqr = float(q75 - q25)
    width = 2.0 * iqr / arr.size ** (1.0 / 3.0)
    if width <= 0 or span / width > _FD_MAX_BINS:
        return _FD_MAX_BINS
    return max(_FD_MIN_BINS, math.ceil(span / width))


def histogram(values, binning: Binning = FreedmanDiaconis()) -> Histogram:
    arr = as_sample(values)
    if float(arr.min()) == float(arr.max()):
        raise ValueError(
            "all values identical; a zero-width histogram is degenerate, "
            "summarize the constant instead"
        )
    k = _bin_count(arr, binning)
    lo, hi = float(arr.min()), float(arr.max())
    # Bins narrower than the smallest normal float make count / (n * width)
    # overflow to inf; widen such a range so every density stays finite.
    hi = max(hi, lo + k * float(np.finfo(float).tiny))
    counts, edges = np.histogram(arr, bins=k, range=(lo, hi))
    widths = np.diff(edges)
    densities = counts / (arr.size * widths)
    return Histogram(edges=edges, densities=densities, counts=counts)


def histogram_csv(hist: Histogram) -> str:
    """CSV rows `bin_lo,bin_hi,count,density` for external plotting."""
    lines = ["bin_lo,bin_hi,count,density"]
    for lo, hi, c, d in zip(hist.edges[:-1], hist.edges[1:], hist.counts, hist.densities):
        lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)},{float(d)!r}")
    return "\n".join(lines) + "\n"


def _corr(dx: np.ndarray, dy: np.ndarray) -> float:
    return float(np.dot(dx, dy) / math.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))


def pearson(xs, ys) -> float:
    """Product-moment correlation; errors on constant series."""
    x = as_sample(xs)
    y = as_sample(ys)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    if not np.any(dx) or not np.any(dy):
        raise ValueError("correlation is undefined for a constant series")
    return _corr(dx, dy)


def spearman(xs, ys) -> float:
    """Rank correlation on average ranks (ties averaged); pearson() checks the ranks' lengths."""
    return pearson(_average_ranks(as_sample(xs)), _average_ranks(as_sample(ys)))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, ties given the mean of their ranks
    (scipy.stats.rankdata's "average" method)."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks
