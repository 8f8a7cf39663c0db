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
