import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import rankdata

from gridparams.stats import (
    _average_ranks,
    Histogram,
    band_fraction,
    histogram,
    histogram_csv,
    pearson,
    spearman,
    summarize,
)

samples = st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200)


def test_summarize_one_to_ten():
    s = summarize(list(range(1, 11)))
    assert s.n == 10
    assert s.median == pytest.approx(5.5)
    assert s.mean == pytest.approx(5.5)
    assert s.min == 1.0 and s.max == 10.0
    # linear interpolation at rank h = (n-1)p + 1
    assert s.q10 == pytest.approx(1.9, rel=1e-12)
    assert s.q90 == pytest.approx(9.1, rel=1e-12)


def test_summarize_constant_sample():
    s = summarize([3.25, 3.25, 3.25])
    assert (s.median, s.mean, s.min, s.max, s.q10, s.q90) == (3.25,) * 6


def test_summarize_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        summarize([1.0, float("nan")])


@given(samples)
def test_summarize_permutation_invariant(values):
    rng = np.random.default_rng(0)
    shuffled = list(values)
    rng.shuffle(shuffled)
    a, b = summarize(shuffled), summarize(values)
    # order-based fields are bit-exact; the mean only up to summation order
    assert (a.n, a.median, a.min, a.max, a.q10, a.q90) == (b.n, b.median, b.min, b.max, b.q10, b.q90)
    assert a.mean == pytest.approx(b.mean, rel=1e-9, abs=1e-9)


@given(samples)
def test_summary_ordering_invariant(values):
    s = summarize(values)
    assert s.min <= s.q10 <= s.median <= s.q90 <= s.max


def test_band_fraction_closed_interval():
    assert band_fraction([0.04, 0.05, 0.1, 0.2, 0.21], 0.05, 0.2) == pytest.approx(0.6)


def test_band_fraction_full_coverage():
    values = [1.0, 5.0, 2.5]
    assert band_fraction(values, min(values), max(values)) == 1.0


def test_band_fraction_requires_ordered_band():
    with pytest.raises(ValueError):
        band_fraction([1.0], 0.2, 0.05)


def test_histogram_fixed_count_example():
    h = histogram([0.0, 1.0, 2.0, 3.0], 2)
    assert_allclose(h.edges, [0.0, 1.5, 3.0])
    assert list(h.counts) == [2, 2]
    assert_allclose(h.densities, [1 / 3, 1 / 3])


def test_histogram_max_in_last_bin():
    h = histogram([0.0, 1.0, 2.0], 2)
    assert list(h.counts) == [1, 2]


def test_histogram_degenerate_sample_errors():
    with pytest.raises(ValueError):
        histogram([2.0, 2.0, 2.0], 4)


def test_histogram_takes_an_int_or_a_numpy_integer():
    values = np.random.default_rng(5).normal(size=50)
    a, b = histogram(values, 7), histogram(values, np.int64(7))
    assert len(a.counts) == 7
    assert [a.edges.tobytes(), a.counts.tobytes()] == [b.edges.tobytes(), b.counts.tobytes()]


@pytest.mark.parametrize("bins", [1, 0, True, 2.5, "auto", None])
def test_histogram_rejects_bins_other_than_fd_or_an_int_of_two_or_more(bins):
    with pytest.raises(ValueError, match="bins must be 'fd' or an integer >= 2"):
        histogram([0.0, 1.0, 2.0, 3.0], bins)


def test_fd_binning_clamps_to_min():
    # tiny sample: FD width is wide, so the floor of 10 bins applies
    h = histogram([0.0, 1.0, 2.0, 3.0], "fd")
    assert len(h.counts) == 10


def test_fd_binning_clamps_to_max_when_iqr_zero():
    values = [0.0] + [1.0] * 50 + [2.0]
    h = histogram(values, "fd")
    assert len(h.counts) == 200


def test_fd_binning_interior():
    rng = np.random.default_rng(3)
    values = rng.normal(size=4000)
    h = histogram(values, "fd")
    assert 10 < len(h.counts) < 200


@given(samples.filter(lambda v: len(set(v)) > 1))
def test_histogram_density_integrates_to_one(values):
    h = histogram(values, 7)
    widths = np.diff(h.edges)
    assert float(np.sum(h.densities * widths)) == pytest.approx(1.0, abs=1e-9)
    assert h.n == len(values)


def test_histogram_csv_format():
    text = histogram_csv(histogram([0.0, 1.0, 2.0, 3.0], 2))
    lines = text.splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,density"
    assert lines[1].split(",")[2] == "2"
    assert "np." not in text
    assert text.endswith("\n")


def _reference_histogram_csv(hist: Histogram) -> str:
    """histogram_csv written one bin at a time."""
    lines = ["bin_lo,bin_hi,count,density"]
    for lo, hi, c, d in zip(hist.edges[:-1], hist.edges[1:], hist.counts, hist.densities):
        lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)},{float(d)!r}")
    return "\n".join(lines) + "\n"


# Edges whose text is easy to get wrong: signed zero, subnormals, the
# smallest normal, 1e16 (where repr switches to exponent form), 0.1 + 0.2.
_edges = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16, 0.1 + 0.2]),
)


@given(st.lists(st.tuples(_edges, st.integers(0, 2**62), st.floats(min_value=0.0)), max_size=40), _edges)
def test_histogram_csv_matches_the_bin_loop(bins, first_edge):
    edges = np.array([first_edge, *(lo for lo, _, _ in bins)])
    counts = np.array([c for _, c, _ in bins], dtype=np.int64)
    densities = np.array([d for _, _, d in bins], dtype=float)
    hist = Histogram(edges=edges, densities=densities, counts=counts)
    assert histogram_csv(hist) == _reference_histogram_csv(hist)


@given(st.lists(st.sampled_from([0.0, 5e-324, 1e-310, 3e-308, 1.0, 1e16]), min_size=2, max_size=30), st.integers(2, 12))
def test_histogram_csv_of_subnormal_and_huge_samples_matches_the_bin_loop(values, k):
    assume(min(values) < max(values))
    hist = histogram(values, k)
    assert histogram_csv(hist) == _reference_histogram_csv(hist)


def test_pearson_perfect_linear():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, [2 * x + 3 for x in xs]) == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_hand_value():
    assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, rel=1e-12)


def test_pearson_rejects_constant_or_mismatched():
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])


def test_spearman_monotone_transform_is_one():
    xs = [0.1, 0.7, 2.0, 9.0]
    assert spearman(xs, [np.exp(x) for x in xs]) == pytest.approx(1.0)


def test_spearman_reversed_is_minus_one():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman(xs, xs[::-1]) == pytest.approx(-1.0)


def test_spearman_hand_value():
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0]) == pytest.approx(0.8, rel=1e-12)


def test_spearman_averages_ties():
    assert spearman([1.0, 1.0, 2.0], [3.0, 3.0, 5.0]) == pytest.approx(1.0)


@given(
    st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 2.5, 7.0]), st.floats(allow_nan=False)),
        max_size=60,
    )
)
def test_average_ranks_equal_scipy_rankdata(values):
    arr = np.asarray(values, dtype=float)
    assert _average_ranks(arr).tobytes() == rankdata(arr).astype(float).tobytes()


def _stable_average_ranks(a):
    """_average_ranks as written with a stable argsort: the order kept inside a tie."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


@given(
    st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -2.5, 7.0]), st.floats(allow_nan=False)),
             min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
    st.integers(0, 3000),
)
def test_average_ranks_equal_a_stable_sort(pool, seed, n):
    # Above 16 values numpy's default argsort is not stable, so long samples drawn
    # from a small pool put many ties, signed zeros among them, through it.
    arr = np.random.default_rng(seed).choice(np.array(pool), n)
    assert _average_ranks(arr).tobytes() == _stable_average_ranks(arr).tobytes()


# Bin counts at which n times the bin width stays below the float maximum.
@pytest.mark.parametrize("values, k", [([-1e308, 1e308], 4), ([-1.7e308, 0.0, 3.0, 1e300, 1.7e308], 16)])
def test_a_range_past_the_float_maximum_is_summarized_and_binned_on_the_halved_sample(values, k):
    # max - min overflows, and with it numpy's quantile interpolation and bin edges.
    x = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, half = summarize(x), summarize(x / 2)
        h, h_half = histogram(x, k), histogram(x / 2, k)
        fd = histogram(x)
    assert (s.q10, s.median, s.q90) == (2 * half.q10, 2 * half.median, 2 * half.q90)
    assert (s.min, s.max, s.n) == (x.min(), x.max(), x.size)
    assert np.array_equal(h.edges, 2 * h_half.edges) and np.array_equal(h.counts, h_half.counts)
    assert np.array_equal(h.densities, h_half.densities / 2)
    for hist in (h, fd):
        assert hist.edges[0] == x.min() and hist.edges[-1] == x.max() and hist.n == x.size
        assert np.all(np.isfinite(hist.densities)) and np.all(np.isfinite(np.diff(hist.edges)))


def test_summarize_and_histogram_of_plus_and_minus_1e308():
    s = summarize([-1e308, 1e308])
    assert s.median == 0.0 and s.q10 == -8e307 and s.q90 == pytest.approx(8e307, rel=1e-15)
    h = histogram([-1e308, 0.0, 1e308], 4)
    assert h.edges.tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308] and h.counts.tolist() == [1, 0, 1, 1]
