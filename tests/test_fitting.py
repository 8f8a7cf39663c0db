"""MLE fits, KL-divergence scoring, and model selection."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridparams import fitting
from gridparams.distributions import Exponential, Gev, Normal, Tls, quantile, sample
from gridparams.fitting import (
    FitResult,
    KlScore,
    fit_and_score,
    fit_mle,
    kl_divergence,
    select_best,
)
from gridparams.stats import FixedCount, Histogram, histogram


# ------------------------------------------------------------- closed forms


def test_exponential_mle_is_mean():
    values = [1.0, 2.0, 3.0, 10.0]
    res = fit_mle("exponential", values)
    assert isinstance(res.dist, Exponential)
    assert res.dist.mu == pytest.approx(4.0, rel=1e-15)
    assert res.converged
    assert res.n == 4
    # closed-form log-likelihood: -n*(log(mu) + 1) at the optimum
    assert res.log_likelihood == pytest.approx(-4 * (math.log(4.0) + 1.0), rel=1e-12)


def test_exponential_mle_rejects_negative():
    with pytest.raises(ValueError):
        fit_mle("exponential", [1.0, -0.5, 2.0])


def test_normal_mle_closed_form():
    res = fit_mle("normal", [1.0, 2.0, 3.0, 4.0])
    assert isinstance(res.dist, Normal)
    assert res.dist.mu == pytest.approx(2.5, rel=1e-15)
    # population standard deviation, not the n-1 variant
    assert res.dist.sigma == pytest.approx(math.sqrt(1.25), rel=1e-15)
    assert res.converged


def test_normal_mle_rejects_constant():
    with pytest.raises(ValueError):
        fit_mle("normal", [2.0, 2.0, 2.0])


@pytest.mark.parametrize("family", ["tls", "gev", "exponential", "normal"])
def test_mle_rejects_empty_and_nonfinite(family):
    with pytest.raises(ValueError):
        fit_mle(family, [])
    with pytest.raises(ValueError):
        fit_mle(family, [1.0, math.nan, 2.0])


def test_mle_rejects_unknown_family():
    with pytest.raises(ValueError):
        fit_mle("weibull", [1.0, 2.0])


# ------------------------------------------------------- numerical recovery


def test_gev_recovery():
    truth = Gev(mu=41.08, sigma=27.38, zeta=0.3732)
    xs = sample(truth, seed=7, n=20000)
    res = fit_mle("gev", xs)
    assert res.converged
    fit = res.dist
    assert fit.mu == pytest.approx(truth.mu, rel=0.05)
    assert fit.sigma == pytest.approx(truth.sigma, rel=0.05)
    assert fit.zeta == pytest.approx(truth.zeta, rel=0.05)


def test_tls_recovery():
    truth = Tls(mu=0.12, sigma=0.043, nu=3.0)
    xs = sample(truth, seed=7, n=20000)
    res = fit_mle("tls", xs)
    assert res.converged
    fit = res.dist
    assert fit.mu == pytest.approx(truth.mu, rel=0.05)
    assert fit.sigma == pytest.approx(truth.sigma, rel=0.05)
    assert fit.nu == pytest.approx(truth.nu, rel=0.10)


def test_iteration_budget_flags_nonconvergence(monkeypatch):
    monkeypatch.setattr(fitting, "_MAXITER", 1)
    monkeypatch.setattr(fitting, "_NELDER_MEAD", {**fitting._NELDER_MEAD, "maxiter": 1, "maxfev": 8})
    xs = sample(Gev(mu=10.0, sigma=5.0, zeta=0.2), seed=3, n=500)
    res = fit_mle("gev", xs)
    assert isinstance(res, FitResult)
    assert not res.converged
    assert res.message != ""


# ------------------------------------------------------------------ scores


def _central_differences(loglik, theta, steps):
    grad = []
    for i, h in enumerate(steps):
        up, down = list(theta), list(theta)
        up[i] += h
        down[i] -= h
        grad.append((loglik(up) - loglik(down)) / (2 * h))
    return np.array(grad)


def _assert_score(score, numeric, n):
    # Rounding in the n-term log-likelihood and O(h**2) truncation both stay
    # far below 1e-6 per value; a cancelled digamma term at nu = 1e15 is off
    # by about 3 per value.
    assert np.all(np.abs(score - numeric) <= 1e-6 * (n + np.abs(numeric))), (score, numeric)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 300),
    log10_nu=st.floats(-0.5, 17.0),
    shift=st.floats(-2.0, 2.0),
    log_scale=st.floats(-1.0, 1.0),
)
@example(seed=1, n=50, log10_nu=15.0, shift=0.0, log_scale=0.0)
@example(seed=1, n=50, log10_nu=16.0, shift=0.0, log_scale=0.0)
def test_tls_score_matches_central_differences(seed, n, log10_nu, shift, log_scale):
    # The sample comes from one t, the score is taken at another: (mu, log sigma,
    # log nu), with mu measured in units of sigma as the fit measures it.
    x = sample(Tls(mu=1.0, sigma=0.2, nu=4.0), seed=seed, n=n)
    sigma = 0.2 * math.exp(log_scale)
    theta = [1.0 / sigma + shift, math.log(sigma), log10_nu * math.log(10.0)]

    def loglik(t):
        return fitting._loglik(Tls(sigma * t[0], math.exp(t[1]), math.exp(t[2])), x)

    d = Tls(sigma * theta[0], sigma, math.exp(theta[2]))
    score = fitting._tls_score(d, x) * [sigma, 1.0, 1.0]
    _assert_score(score, _central_differences(loglik, theta, [1e-5, 1e-5, 1e-4]), n)


_MIN_ZETA = fitting._MIN_ZETA


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 300),
    zeta=st.floats(-0.6, 0.6).filter(lambda z: abs(z) > 1.5 * _MIN_ZETA)
    | st.floats(1.5 * _MIN_ZETA, 1e-4).flatmap(lambda z: st.sampled_from([z, -z])),
    shift=st.floats(-0.01, 0.01),
    log_scale=st.floats(-0.01, 0.01),
)
@example(seed=1, n=50, zeta=1.5e-6, shift=0.003, log_scale=0.002)
@example(seed=1, n=50, zeta=-1.5e-6, shift=0.003, log_scale=0.002)
def test_gev_score_matches_central_differences(seed, n, zeta, shift, log_scale):
    # Values between the 1 % and 99 % quantiles of Gev(10, 2, zeta); the score
    # is taken close enough to it that every point the differences visit keeps
    # them in its support.
    x = quantile(Gev(10.0, 2.0, zeta), np.random.default_rng(seed).uniform(0.01, 0.99, n))
    sigma = 2.0 * math.exp(log_scale)
    theta = [10.0 / sigma + shift, math.log(sigma), zeta]
    steps = [1e-5, 1e-5, min(1e-5, (abs(zeta) - _MIN_ZETA) / 2)]

    def loglik(t):
        return fitting._loglik(Gev(sigma * t[0], math.exp(t[1]), t[2]), x)

    score = fitting._gev_score(Gev(sigma * theta[0], sigma, zeta), x) * [sigma, 1.0, 1.0]
    _assert_score(score, _central_differences(loglik, theta, steps), n)


# ------------------------------------------------------------------ solver

_A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
_B = np.array([1.0, -2.0, 0.5])


def _quadratic(theta):
    return 0.5 * theta @ _A @ theta - _B @ theta, _A @ theta - _B


def test_bfgs_minimizes_a_quadratic():
    theta, g, nit = fitting._bfgs(_quadratic, np.array([5.0, -3.0, 2.0]), 1e-9, 100)
    np.testing.assert_allclose(theta, np.linalg.solve(_A, _B), rtol=1e-8)
    assert np.max(np.abs(g)) <= 1e-9
    assert 0 < nit < 20


def test_bfgs_returns_at_maxiter():
    start = np.array([5.0, -3.0, 2.0])
    theta, g, nit = fitting._bfgs(_quadratic, start, 0.0, 2)
    assert nit == 2
    assert _quadratic(theta)[0] < _quadratic(start)[0]
    np.testing.assert_array_equal(g, _quadratic(theta)[1])
    theta, g, nit = fitting._bfgs(_quadratic, start, 0.0, 0)
    assert nit == 0 and np.array_equal(theta, start)


def test_bfgs_crosses_a_penalty_region():
    # A slab of penalty points, as a fit meets where the support excludes part
    # of the sample, lies between the start and the minimum at (-3, 0, 0). The
    # first step lands in it; the search backs off, then steps across.
    visited = []

    def f(theta):
        visited.append(theta.copy())
        if 1.5 < theta[0] < 2.5:
            return fitting._PENALTY, np.zeros(3)
        d = theta - [-3.0, 0.0, 0.0]
        return 0.5 * d @ d, d

    theta, g, nit = fitting._bfgs(f, np.array([3.0, 0.0, 0.0]), 1e-10, 100)
    np.testing.assert_allclose(theta, [-3.0, 0.0, 0.0], atol=1e-10)
    assert any(1.5 < t[0] < 2.5 for t in visited)
    assert np.all(np.isfinite(visited)) and np.all(np.isfinite(g))


def _no_fallback(*args, **kwargs):
    raise AssertionError("Nelder-Mead fallback ran")


@pytest.mark.parametrize(
    "family, truth",
    [("tls", Tls(mu=0.12, sigma=0.043, nu=3.0)), ("gev", Gev(mu=41.08, sigma=27.38, zeta=0.3732))],
)
def test_bfgs_finishes_the_likelihood_fits(monkeypatch, family, truth):
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "minimize", _no_fallback)
    x = sample(truth, seed=5, n=2000)
    res = fit_mle(family, x)
    assert res.converged and 0 < res.iterations < 50
    score = {"tls": fitting._tls_score, "gev": fitting._gev_score}[family]
    assert np.max(np.abs(score(res.dist, x) * [res.dist.sigma, 1.0, 1.0])) <= 1e-5 * x.size


def _scipy_bfgs(f, theta, gtol, maxiter):
    from scipy.optimize import minimize

    res = minimize(f, theta, jac=True, method="BFGS", options={"maxiter": maxiter, "gtol": gtol})
    return res.x, res.jac, res.nit


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 400),
    truth=st.sampled_from([Tls(1.0, 0.2, 2.5), Tls(1.0, 0.2, 8.0), Tls(-3.0, 5.0, 1.2),
                           Gev(10.0, 2.0, 0.3), Gev(10.0, 2.0, -0.2), Gev(0.0, 1.0, 0.02)]),
)
def test_bfgs_agrees_with_scipy_bfgs(seed, n, truth):
    # The same fit, objective and acceptance rule, once with scipy's BFGS in
    # place of the package's own.
    family = "tls" if isinstance(truth, Tls) else "gev"
    x = sample(truth, seed=seed, n=n)
    ours = fit_mle(family, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_bfgs", _scipy_bfgs)
        theirs = fit_mle(family, x)
    assert ours.converged == theirs.converged
    if max(getattr(ours.dist, "nu", 0.0), getattr(theirs.dist, "nu", 0.0)) > 1e6:
        # Near-normal samples: the t likelihood rises toward nu = inf, and both
        # searches stop at a score of 1e-8 per value, about the log-likelihood
        # still left to gain there.
        assert abs(ours.log_likelihood - theirs.log_likelihood) <= 1e-8 * n
    else:
        assert ours.log_likelihood == pytest.approx(theirs.log_likelihood, rel=1e-9)


@pytest.mark.parametrize(
    "family, truth, old",
    [
        # The fallback's fits of these samples before the package had its own BFGS.
        ("tls", Tls(0.12, 0.043, 3.0), (Tls(0.12204479505836482, 0.04278404030036283, 3.382190554411232),
                                        709.8732522245856, 103)),
        ("gev", Gev(41.08, 27.38, 0.3732),
         (Gev(42.285233081926975, 27.368791820348697, 0.35669411458973355), -2545.5248524943972, 141)),
    ],
)
def test_nelder_mead_fallback_gives_the_old_fit(monkeypatch, family, truth, old):
    # A BFGS run that ends short of a stationary point hands the fit to
    # Nelder-Mead from the old start, with the old options.
    monkeypatch.setattr(fitting, "_bfgs", lambda f, theta, gtol, maxiter: (theta, np.ones(3), 7))
    res = fit_mle(family, sample(truth, seed=7, n=500))
    dist, ll, iterations = old
    assert res.converged and res.iterations == iterations
    assert dataclasses.astuple(res.dist) == pytest.approx(dataclasses.astuple(dist), rel=1e-12)
    assert res.log_likelihood == pytest.approx(ll, rel=1e-12)


@pytest.mark.parametrize(
    "family, values, expected",
    [
        # A line-capacity sample that the accepted-profile property drew: a trial
        # point of the GEV search has a finite likelihood and a non-finite score.
        ("gev", [44564.424208420205, 817330.0, 24.0, 717028.017578125, 506783.072467144,
                 761173.4129972508, 167600.51948593222, 171273.75, 811601.046875, 915864.5768966724],
         FitResult(Gev(516503.9628697052, 432863.9202996606, -1.0838923646847936), -137.11740913744444,
                   10, False, 1734, "Maximum number of function evaluations has been exceeded.")),
        # The X/R values of three 115 kV transformers; the same happens to the GEV search.
        ("gev", [13.877815272949906, 13.931529322237637, 10.874929036291789],
         FitResult(Gev(12.105012610888744, 2.5607535459394613, -1.4019874715782537), 6.852678956750248,
                   3, True, 280)),
        # The t likelihood overflows inside the Nelder-Mead fallback.
        ("tls", [-11.073481946881198, -1680.8411828772546, -8.691169999249492, -5.11073897038953,
                 -355.8981771926956],
         FitResult(Tls(-8.691169999249492, 2.0933822578789162e-150, 0.0035492601666918338),
                   295.38330672556526, 5, True, 720)),
    ],
)
def test_fits_raise_no_floating_point_warnings(family, values, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_mle(family, values) == expected


# -------------------------------------------------------------- divergence


def test_kl_two_bin_hand_value():
    # observed mass split evenly across [0, ln 10) and [ln 10, 20)
    # against a unit-mean exponential
    h = Histogram(
        edges=(0.0, math.log(10.0), 20.0),
        densities=(0.5 / math.log(10.0), 0.5 / (20.0 - math.log(10.0))),
        counts=(1, 1),
    )
    score = kl_divergence(h, Exponential(mu=1.0))
    assert score.d_kl == pytest.approx(0.5108256237659907, abs=1e-6)
    assert score.bins_used == 2
    assert score.empty_bins_skipped == 0


def test_kl_self_is_zero():
    d = Exponential(mu=2.0)
    # decile edges of the model itself, closed off far in the tail
    from gridparams.distributions import quantile

    edges = [0.0] + [quantile(d, p / 10) for p in range(1, 10)] + [40 * d.mu]
    counts = [1000] * 10
    total = sum(counts)
    widths = np.diff(edges)
    h = Histogram(
        edges=tuple(edges),
        densities=tuple(c / total / w for c, w in zip(counts, widths)),
        counts=tuple(counts),
    )
    score = kl_divergence(h, d)
    assert 0.0 <= score.d_kl <= 1e-12


def test_kl_skips_empty_bins():
    h = Histogram(
        edges=(0.0, 1.0, 2.0, 3.0),
        densities=(0.5, 0.0, 0.5),
        counts=(5, 0, 5),
    )
    score = kl_divergence(h, Exponential(mu=1.0))
    assert score.bins_used == 2
    assert score.empty_bins_skipped == 1
    assert math.isfinite(score.d_kl) and score.d_kl >= 0.0


def test_kl_floors_vanishing_model_mass():
    # all observed mass far outside the model support: Q floors at 1e-12
    # instead of dividing by zero
    h = Histogram(edges=(-5.0, -4.0), densities=(1.0,), counts=(10,))
    score = kl_divergence(h, Exponential(mu=1.0))
    assert math.isfinite(score.d_kl)
    assert score.d_kl == pytest.approx(math.log(1.0 / 1e-12), rel=1e-9)


def test_kl_large_sample_close_to_zero():
    d = Exponential(mu=3.0)
    xs = sample(d, seed=7, n=50000)
    h = histogram(xs, FixedCount(40))
    score = kl_divergence(h, d)
    assert score.d_kl < 0.05


# ---------------------------------------------------------------- selection


def _fr(dist, converged=True, ll=-1.0):
    return FitResult(dist=dist, log_likelihood=ll, n=100, converged=converged, iterations=10)


def test_select_best_prefers_low_kl():
    pairs = [
        (_fr(Exponential(1.0)), KlScore(0.30, 10, 0)),
        (_fr(Normal(1.0, 1.0)), KlScore(0.10, 10, 0)),
    ]
    best = select_best(pairs)
    assert isinstance(best[0].dist, Normal)


def test_select_best_converged_first():
    pairs = [
        (_fr(Tls(0.0, 1.0, 3.0), converged=False), KlScore(0.01, 10, 0)),
        (_fr(Normal(0.0, 1.0)), KlScore(0.50, 10, 0)),
    ]
    best = select_best(pairs)
    assert isinstance(best[0].dist, Normal)


def test_select_best_ties_break_on_param_count():
    pairs = [
        (_fr(Gev(1.0, 1.0, 0.1)), KlScore(0.2, 10, 0)),  # 3 params
        (_fr(Exponential(1.0)), KlScore(0.2, 10, 0)),  # 1 param wins
    ]
    best = select_best(pairs)
    assert isinstance(best[0].dist, Exponential)


def test_select_best_rejects_empty():
    with pytest.raises(ValueError):
        select_best([])


# --------------------------------------------------------------- pipelines


def test_fit_and_score_orders_and_skips():
    # negative values make the exponential fit impossible; the other three
    # families still come back, in declaration order
    xs = sample(Normal(0.0, 2.0), seed=11, n=2000)
    scored = fit_and_score(xs)
    families = [type(res.dist).__name__.lower() for res, _ in scored]
    assert "exponential" not in families
    assert families == ["tls", "gev", "normal"]
    best = select_best(scored)
    assert isinstance(best[0].dist, (Tls, Normal))


def test_fit_and_score_positive_data_keeps_all():
    xs = sample(Exponential(2.0), seed=5, n=3000)
    scored = fit_and_score(xs)
    assert len(scored) == 4
    for _, score in scored:
        assert score.d_kl >= 0.0
