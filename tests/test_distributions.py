"""Closed-form identities, inverse consistency, and serialization of the
four distribution families."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridparams.distributions import (
    FAMILIES,
    Exponential,
    Gev,
    Normal,
    Tls,
    cdf,
    family_tag,
    from_json,
    log_pdf,
    n_params,
    pdf,
    quantile,
    sample,
    sample_stream,
    to_json,
)


# ---------------------------------------------------------------- parameters


def test_families_tuple():
    assert FAMILIES == ("tls", "gev", "exponential", "normal")


@pytest.mark.parametrize(
    "make",
    [
        lambda: Tls(mu=0.0, sigma=0.0, nu=3.0),
        lambda: Tls(mu=0.0, sigma=-1.0, nu=3.0),
        lambda: Tls(mu=0.0, sigma=1.0, nu=0.0),
        lambda: Tls(mu=math.nan, sigma=1.0, nu=3.0),
        lambda: Gev(mu=0.0, sigma=0.0, zeta=0.1),
        lambda: Gev(mu=0.0, sigma=1.0, zeta=0.0),
        lambda: Gev(mu=0.0, sigma=1.0, zeta=math.inf),
        lambda: Exponential(mu=0.0),
        lambda: Exponential(mu=-2.0),
        lambda: Normal(mu=0.0, sigma=0.0),
        lambda: Normal(mu=math.inf, sigma=1.0),
    ],
)
def test_invalid_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_family_tags_and_param_counts():
    assert family_tag(Tls(0.0, 1.0, 3.0)) == "tls"
    assert family_tag(Gev(0.0, 1.0, 0.1)) == "gev"
    assert family_tag(Exponential(1.0)) == "exponential"
    assert family_tag(Normal(0.0, 1.0)) == "normal"
    assert n_params("tls") == 3
    assert n_params("gev") == 3
    assert n_params("exponential") == 1
    assert n_params("normal") == 2
    with pytest.raises(ValueError):
        n_params("weibull")


# ------------------------------------------------------- closed-form checks


@pytest.mark.parametrize("zeta", [-0.5, 0.1, 0.3732])
def test_gev_cdf_at_location(zeta):
    d = Gev(mu=3.0, sigma=2.0, zeta=zeta)
    assert cdf(d, 3.0) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_gev_support_boundaries():
    # zeta > 0: support bounded below at mu - sigma/zeta
    d = Gev(mu=0.0, sigma=1.0, zeta=0.5)
    lo = d.mu - d.sigma / d.zeta
    assert cdf(d, lo - 1.0) == 0.0
    assert pdf(d, lo - 1.0) == 0.0
    assert log_pdf(d, lo - 1.0) == -math.inf
    # zeta < 0: support bounded above
    d = Gev(mu=0.0, sigma=1.0, zeta=-0.5)
    hi = d.mu - d.sigma / d.zeta
    assert cdf(d, hi + 1.0) == 1.0
    assert pdf(d, hi + 1.0) == 0.0


def test_exponential_closed_forms():
    d = Exponential(mu=4.0)
    assert pdf(d, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert cdf(d, 4.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert quantile(d, 0.5) == pytest.approx(4.0 * math.log(2.0), rel=1e-14)
    assert pdf(d, -1.0) == 0.0
    assert cdf(d, -1.0) == 0.0
    assert log_pdf(d, -1.0) == -math.inf


def test_tls_pdf_at_center():
    # nu=1 reduces to Cauchy: pdf(mu) = 1 / (pi * sigma)
    d = Tls(mu=2.0, sigma=0.5, nu=1.0)
    assert pdf(d, 2.0) == pytest.approx(1.0 / (math.pi * 0.5), abs=1e-12)


def test_tls_nu_one_is_cauchy():
    d = Tls(mu=1.0, sigma=2.0, nu=1.0)
    for x in (-5.0, 0.0, 1.0, 3.0, 40.0):
        z = (x - 1.0) / 2.0
        assert cdf(d, x) == pytest.approx(0.5 + math.atan(z) / math.pi, rel=1e-12)


def test_normal_cdf_spot_values():
    d = Normal(mu=1.0, sigma=2.0)
    assert cdf(d, 1.0) == pytest.approx(0.5, abs=1e-15)
    # one sigma above the mean
    assert cdf(d, 3.0) == pytest.approx(0.8413447460685429, rel=1e-12)


# -------------------------------------------------------- inverse consistency


dists = st.one_of(
    st.builds(
        Tls,
        mu=st.floats(-10, 10),
        sigma=st.floats(0.01, 10),
        nu=st.floats(1.0, 50.0),
    ),
    st.builds(
        Gev,
        mu=st.floats(-10, 10),
        sigma=st.floats(0.01, 10),
        zeta=st.floats(-0.9, 0.9).filter(lambda z: abs(z) > 1e-3),
    ),
    st.builds(Exponential, mu=st.floats(0.01, 100)),
    st.builds(Normal, mu=st.floats(-10, 10), sigma=st.floats(0.01, 10)),
)


@settings(max_examples=200, deadline=None)
@given(d=dists, p=st.floats(1e-9, 1.0 - 1e-9))
def test_quantile_inverts_cdf(d, p):
    assert cdf(d, quantile(d, p)) == pytest.approx(p, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(d=dists, x1=st.floats(-50, 50), x2=st.floats(-50, 50))
def test_cdf_monotone_pdf_nonnegative(d, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert cdf(d, lo) <= cdf(d, hi)
    assert pdf(d, x1) >= 0.0


def test_quantile_rejects_bad_p():
    d = Normal(0.0, 1.0)
    for p in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(ValueError):
            quantile(d, p)


def test_tls_quantile_extreme_tail():
    # heavy-tail inversion stays exact down to the smallest representable u
    d = Tls(mu=0.0, sigma=1.0, nu=1.0)
    p = 2.0**-53
    q = quantile(d, p)
    assert q < -1e14
    assert cdf(d, q) == pytest.approx(p, rel=1e-6)


# The smallest and largest uniforms the sampler feeds to a quantile.
_U_LO, _U_HI = 2.0**-53, 1.0 - 2.0**-53


@settings(max_examples=400, deadline=None)
@given(nu=st.floats(1.1, 200.0), p=st.floats(_U_LO, _U_HI))
@example(nu=2.972962306873196, p=0.19635247688854612)  # stdtrit alone misses by 5e-13
@example(nu=2.972962306873196, p=0.8036475231114539)
def test_tls_quantile_residual_in_the_smaller_tail(nu, p):
    d = Tls(mu=0.0, sigma=1.0, nu=nu)
    q = quantile(d, p)
    tail = min(p, 1.0 - p)  # 1 - p is exact for p >= 1/2
    mass = cdf(d, q) if p <= 0.5 else cdf(d, -q)  # the upper tail by symmetry
    assert abs(mass - tail) <= 1e-13 * tail


@settings(max_examples=100, deadline=None)
@given(nu=st.floats(1.1, 200.0))
def test_tls_quantile_is_symmetric_at_the_sampler_extremes(nu):
    d = Tls(mu=0.0, sigma=1.0, nu=nu)
    assert quantile(d, _U_HI) == pytest.approx(-quantile(d, _U_LO), rel=1e-12)


@pytest.mark.parametrize("nu", [3.0, 10.0, 50.0])
def test_tls_quantile_far_below_the_sampler_range(nu):
    # stdtrit alone returns inf here; the tail identity stays exact
    d = Tls(mu=0.0, sigma=1.0, nu=nu)
    q = quantile(d, 1e-300)
    assert math.isfinite(q)
    assert abs(cdf(d, q) - 1e-300) <= 2e-15 * 1e-300


_TINY = float(np.finfo(float).tiny)


def _log_tail_coefficient(nu):
    """log C of the t tail cdf(t) ~ C * |t|**-nu, written as the density's
    constant times nu**((nu - 1) / 2) (a form the library does not use)."""
    return (
        math.lgamma((nu + 1) / 2)
        - math.lgamma(nu / 2)
        - 0.5 * math.log(nu * math.pi)
        + (nu - 1) / 2 * math.log(nu)
    )


def test_tls_tail_matches_high_precision_values():
    # Reference values from the regularized incomplete beta at 60 digits.
    d = Tls(mu=0.0, sigma=1.0, nu=1.1)
    assert cdf(d, -1e160) == pytest.approx(3.255828063e-177, rel=1e-9)
    assert quantile(d, 1e-200) == pytest.approx(-2.372175323e181, rel=1e-9)


@pytest.mark.parametrize("nu", [0.01, 0.5, 1.1, 2.0, 3.0])
@pytest.mark.parametrize("t", [-1.4e154, -1e160, -1e200, -1e300, -1.7e308])
def test_tls_cdf_past_the_overflow_of_t_squared_is_the_power_law_tail(nu, t):
    d = Tls(mu=0.0, sigma=1.0, nu=nu)
    expected = math.exp(_log_tail_coefficient(nu) - nu * math.log(-t))
    assert cdf(d, t) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert cdf(d, -t) == pytest.approx(1.0 - expected, rel=1e-12)


@pytest.mark.parametrize("nu", [0.01, 1.1, 3.0, 50.0])
def test_tls_cdf_below_the_overflow_of_t_squared_is_stdtr(nu):
    from scipy.special import stdtr

    t = np.array([-1.3e154, -1e150, -1e10, -2.5, 0.0, 3.0, 1e150, 1.3e154])
    assert cdf(Tls(mu=0.0, sigma=1.0, nu=nu), t).tobytes() == stdtr(nu, t).tobytes()


@pytest.mark.parametrize("nu", [0.5, 1.1, 2.1, 3.0, 10.0])
@pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-310, 2e-308])
def test_tls_quantile_of_a_subnormal_tail_is_the_power_law_tail(nu, p):
    # betaincinv loses precision on a subnormal argument; there |t| is large
    # enough that the power law holds to double precision.
    log_t = (_log_tail_coefficient(nu) - math.log(p)) / nu
    q = quantile(Tls(mu=0.0, sigma=1.0, nu=nu), p)
    if log_t > math.log(np.finfo(float).max):
        assert q == -math.inf
    else:
        assert q == pytest.approx(-math.exp(log_t), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(0.05, 3.0), log_p=st.floats(math.log(_TINY), math.log(1e-100)))
@example(nu=1.1, log_p=math.log(1e-200))
@example(nu=2.0, log_p=math.log(_TINY))
def test_tls_quantile_round_trips_in_the_far_tail(nu, log_p):
    d = Tls(mu=0.0, sigma=1.0, nu=nu)
    p = math.exp(log_p)
    q = quantile(d, p)
    if (_log_tail_coefficient(nu) - log_p) / nu > math.log(np.finfo(float).max):
        assert q == -math.inf  # beyond the largest float
    else:
        assert abs(cdf(d, q) - p) <= 1e-12 * p


@pytest.mark.parametrize("nu", [0.5, 1.1, 2.0, 2.1, 3.0, 10.0])
def test_tls_quantile_is_monotone_across_the_tail_methods(nu):
    q = quantile(Tls(mu=0.0, sigma=1.0, nu=nu), np.logspace(-323.3, -99.0, 4000))
    finite = np.isfinite(q)
    assert np.all(q[~finite] == -math.inf)  # only below the largest float
    assert np.all(np.diff(finite.astype(int)) >= 0)
    assert np.all(np.diff(q[finite]) >= 0)


# ---------------------------------------------------------------- sampling


def test_sampling_deterministic():
    d = Gev(mu=41.08, sigma=27.38, zeta=0.3732)
    a = sample(d, seed=7, n=100)
    b = sample(d, seed=7, n=100)
    np.testing.assert_array_equal(a, b)
    c = sample(d, seed=8, n=100)
    assert not np.array_equal(a, c)


def test_sample_stream_advances_state():
    d = Exponential(mu=2.0)
    rng = np.random.default_rng(0)
    a = sample_stream(d, rng, 50)
    b = sample_stream(d, rng, 50)
    assert not np.array_equal(a, b)


def test_sample_matches_quantile_transform():
    # sampling is inverse-cdf on uniforms, so empirical quantiles track
    # the analytic ones
    d = Exponential(mu=3.0)
    xs = sample(d, seed=42, n=20000)
    assert np.all(xs > 0)
    assert np.median(xs) == pytest.approx(quantile(d, 0.5), rel=0.05)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_rejects_bad_n(n):
    with pytest.raises(ValueError):
        sample(Normal(0.0, 1.0), seed=0, n=n)


# ------------------------------------------------------------- serialization


@pytest.mark.parametrize(
    "d",
    [
        Tls(mu=0.12, sigma=0.043, nu=3.0),
        Gev(mu=41.08, sigma=27.38, zeta=0.3732),
        Exponential(mu=0.008686),
        Normal(mu=180.0, sigma=60.0),
    ],
)
def test_json_round_trip(d):
    blob = to_json(d)
    assert blob["family"] == family_tag(d)
    assert from_json(blob) == d


def test_from_json_rejects_unknown_family():
    with pytest.raises(ValueError):
        from_json({"family": "gamma", "params": {"mu": 1.0}})


def test_from_json_rejects_missing_param():
    with pytest.raises((ValueError, TypeError)):
        from_json({"family": "normal", "params": {"mu": 1.0}})
