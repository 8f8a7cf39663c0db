"""Maximum-likelihood fitting of the four candidate families and
histogram-based KL divergence scoring for ranking them.

Exponential and normal fits are closed-form. The location-scale t and
GEV families are fit by a small BFGS of this module's own on the
closed-form score of the likelihood (Liu & Rubin 1995; Coles 2001,
section 3.3), on transformed parameters (log scale for sigma and nu) so
every search point is a valid distribution; points whose support
excludes part of the sample get a large finite penalty instead of an
infinite objective. Where BFGS ends short of a stationary point, scipy's
Nelder-Mead refits from the same start; only then is scipy.optimize
imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    FAMILIES,
    DistSpec,
    Exponential,
    Gev,
    Normal,
    Tls,
    cdf,
    family_tag,
    log_pdf,
    n_params,
    _NU_SERIES,
)
from .stats import Binning, FreedmanDiaconis, Histogram, as_sample, histogram

__all__ = [
    "FitResult",
    "KlScore",
    "fit_mle",
    "kl_divergence",
    "select_best",
    "fit_and_score",
]

_PENALTY = 1e300
_MIN_ZETA = 1e-6
_Q_FLOOR = 1e-12
#: Iteration budget of the BFGS search and of the Nelder-Mead fallback.
_MAXITER = 2000
_NELDER_MEAD = {"maxiter": _MAXITER, "maxfev": 8000, "fatol": 1e-9, "xatol": 1e-8}


@dataclass(frozen=True)
class FitResult:
    dist: DistSpec
    log_likelihood: float
    n: int
    converged: bool
    iterations: int
    message: str = ""


@dataclass(frozen=True)
class KlScore:
    """KL divergence (nats) of the empirical histogram from a model.

    bins_used counts occupied bins; empty bins contribute zero mass and
    are skipped rather than treated as evidence.
    """

    d_kl: float
    bins_used: int
    empty_bins_skipped: int


def _loglik(d: DistSpec, x: np.ndarray) -> float:
    return float(np.sum(log_pdf(d, x)))


def _nll(d: DistSpec, x: np.ndarray) -> float:
    ll = _loglik(d, x)
    if not math.isfinite(ll):
        return _PENALTY
    return -ll


def _clamp_zeta(zeta: float) -> float:
    # The zeta = 0 (Gumbel) boundary is excluded; pin near-zero shapes
    # just off it so the optimizer can cross sign without a pole.
    if abs(zeta) < _MIN_ZETA:
        return _MIN_ZETA if zeta >= 0 else -_MIN_ZETA
    return zeta


def _fit_exponential(x: np.ndarray) -> FitResult:
    if np.min(x) < 0:
        raise ValueError("exponential family requires non-negative values")
    mu = float(np.mean(x))
    if mu <= 0:
        raise ValueError("exponential fit needs a positive sample mean")
    d = Exponential(mu=mu)
    return FitResult(d, _loglik(d, x), x.size, converged=True, iterations=0)


def _fit_normal(x: np.ndarray) -> FitResult:
    if x.size < 2:
        raise ValueError("normal fit needs at least 2 values")
    sigma = float(np.std(x))
    if sigma <= 0:
        raise ValueError("normal fit is degenerate on a constant sample")
    d = Normal(mu=float(np.mean(x)), sigma=sigma)
    return FitResult(d, _loglik(d, x), x.size, converged=True, iterations=0)


def _scale_guess(x: np.ndarray) -> float:
    q25, q75 = np.quantile(x, [0.25, 0.75])
    iqr = float(q75 - q25)
    if iqr > 0:
        return iqr / 1.349
    sd = float(np.std(x))
    if sd > 0:
        return sd
    raise ValueError("cannot fit a scale family to a constant sample")


def _bfgs(f, theta, gtol: float, maxiter: int):
    """Minimize f, which returns (value, gradient), from theta by BFGS with an
    Armijo backtracking line search (Nocedal & Wright 2006, 6.1 and 3.1).

    Stops at max |gradient| <= gtol, at a gradient that is not finite, after
    maxiter iterations, or when the step underflows; returns (theta,
    gradient, iterations).
    """
    fx, g = f(theta)
    h = None  # inverse Hessian; None while the search runs steepest descent
    for k in range(maxiter):
        if not np.all(np.isfinite(g)) or np.max(np.abs(g)) <= gtol:
            return theta, g, k
        p = None if h is None else -h @ g
        if p is None or not g @ p < 0:  # no descent direction: restart from steepest descent
            h, p = None, -g / max(1.0, float(np.linalg.norm(g)))
        step = 1.0
        while not (trial := f(theta + step * p))[0] <= fx + 1e-4 * step * (g @ p):
            step *= 0.5
            if not np.any(np.abs(step * p) > np.spacing(np.abs(theta))):  # the step underflows
                return theta, g, k
        s, y = step * p, trial[1] - g
        # A non-finite trial gradient ends the search at the next iteration.
        if np.all(np.isfinite(y)) and (sy := s @ y) > 0:
            if h is None:
                h = np.eye(theta.size) * (sy / (y @ y))
            v = np.eye(theta.size) - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
        theta, (fx, g) = theta + s, trial
    return theta, g, maxiter


def _fit_scored(x, make, score, start, sigma0) -> FitResult:
    """Maximum likelihood of make(mu, log sigma, shape), from start.

    BFGS runs on theta = ((mu - start[0]) / sigma0, log sigma, shape) with
    the score as its gradient, and has converged when it ends at a score of
    at most 1e-6 per value with a finite log-likelihood. Otherwise
    Nelder-Mead runs from start on (mu, log sigma, shape).
    """

    def nll_and_gradient(theta):
        try:
            d = make(start[0] + sigma0 * theta[0], theta[1], theta[2])
        except (OverflowError, ValueError):  # sigma or nu beyond float range
            return _PENALTY, np.zeros(3)
        nll = _nll(d, x)
        return nll, np.zeros(3) if nll == _PENALTY else -score(d, x) * [sigma0, 1.0, 1.0]

    with np.errstate(all="ignore"):  # search points far from the optimum overflow
        # gtol scales with n: where the likelihood keeps rising toward nu = inf,
        # the log-likelihood left to gain is about the size of the score.
        theta, g, nit = _bfgs(nll_and_gradient, np.array([0.0, *start[1:]]), 1e-8 * x.size,
                              _MAXITER)
        if np.max(np.abs(g)) <= 1e-6 * x.size:
            d = make(start[0] + sigma0 * theta[0], theta[1], theta[2])
            ll = _loglik(d, x)
            if math.isfinite(ll):
                return FitResult(d, ll, x.size, converged=True, iterations=nit)

        # Imported here: scipy.optimize costs about a quarter second of import
        # time, and only a fit that BFGS could not finish uses it.
        from scipy.optimize import minimize

        res = minimize(lambda theta: _nll(make(*theta), x), np.asarray(start, dtype=float),
                       method="Nelder-Mead", options=_NELDER_MEAD)
        d = make(*res.x)
        ll = _loglik(d, x)
    converged = bool(res.success)
    message = "" if converged else str(res.message)
    if not math.isfinite(ll):
        converged = False
        message = "fitted parameters exclude part of the sample from the support"
    return FitResult(d, ll, x.size, converged=converged, iterations=int(res.nit), message=message)


def _tls_score(d: Tls, x: np.ndarray) -> np.ndarray:
    """Gradient of the t log-likelihood in (mu, log sigma, log nu); the constant's
    part, nu/2 * (digamma((nu+1)/2) - digamma(nu/2) - 1/nu), is a series above _NU_SERIES."""
    if d.nu > _NU_SERIES:
        r = 1.0 / (d.nu * d.nu)
        constant = (0.25 - r * (0.125 - r * (0.25 - r * 17.0 / 16.0))) / d.nu
    else:
        from scipy.special import digamma

        constant = 0.5 * d.nu * float(digamma((d.nu + 1.0) / 2.0) - digamma(d.nu / 2.0)) - 0.5
    z = (x - d.mu) / d.sigma
    wz = (d.nu + 1.0) * z / (d.nu + z * z)
    return np.array([
        np.sum(wz) / d.sigma,
        np.sum(wz * z) - x.size,
        x.size * constant + 0.5 * np.sum(wz * z - d.nu * np.log1p(z * z / d.nu)),
    ])


def _gev_score(d: Gev, x: np.ndarray) -> np.ndarray:
    """Gradient of the GEV log-likelihood in (mu, log sigma, zeta), for a
    sample inside the support."""
    z = (x - d.mu) / d.sigma
    s = 1.0 + d.zeta * z
    log_s = np.log1p(d.zeta * z)  # not log(s): zeta may be as small as _MIN_ZETA
    t = np.exp(-log_s / d.zeta)
    a = (1.0 + d.zeta - t) / s
    return np.array([
        np.sum(a) / d.sigma,
        np.sum(a * z) - x.size,
        np.sum((1.0 - t) * (log_s / d.zeta - z / s) / d.zeta - z / s),
    ])


def _fit_tls(x: np.ndarray) -> FitResult:
    if x.size < 3:
        raise ValueError("t fit needs at least 3 values")
    sigma0 = _scale_guess(x)

    def make(mu, s, t) -> Tls:
        return Tls(mu=float(mu), sigma=math.exp(s), nu=math.exp(t))

    start = [float(np.median(x)), math.log(sigma0), math.log(5.0)]
    return _fit_scored(x, make, _tls_score, start, sigma0)


def _fit_gev(x: np.ndarray) -> FitResult:
    if x.size < 3:
        raise ValueError("GEV fit needs at least 3 values")
    sigma0 = float(np.std(x)) * math.sqrt(6.0) / math.pi
    if sigma0 <= 0:
        raise ValueError("cannot fit a scale family to a constant sample")

    def make(mu, s, zeta) -> Gev:
        return Gev(mu=float(mu), sigma=math.exp(s), zeta=_clamp_zeta(float(zeta)))

    # Moment-style start at the Gumbel limit (Euler-Mascheroni shift).
    start = [float(np.mean(x)) - 0.5772 * sigma0, math.log(sigma0), 0.1]
    return _fit_scored(x, make, _gev_score, start, sigma0)


def fit_mle(family: str, values) -> FitResult:
    """Fit one family by maximum likelihood.

    Raises ValueError for samples the family cannot represent at all
    (negative values for exponential, constant samples for any scale
    family); mere optimizer failure returns converged=False instead.
    """
    x = as_sample(values)
    if family == "exponential":
        return _fit_exponential(x)
    if family == "normal":
        return _fit_normal(x)
    if family == "tls":
        return _fit_tls(x)
    if family == "gev":
        return _fit_gev(x)
    raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")


def kl_divergence(hist: Histogram, d: DistSpec) -> KlScore:
    """Discrete KL divergence D(P || Q) in nats between the histogram's
    bin masses and the model's mass in the same bins.

    Model bin masses are floored at 1e-12 so empirical mass in a region
    the model calls impossible yields a large finite score, not inf.
    """
    counts = np.asarray(hist.counts, dtype=float)
    p = counts / counts.sum()
    with np.errstate(over="ignore"):  # (edge - mu) / sigma may overflow; cdf takes its limit
        q = np.maximum(np.diff(cdf(d, np.asarray(hist.edges, dtype=float))), _Q_FLOOR)
    mask = p > 0
    d_kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    if d_kl < -1e-12:
        raise ArithmeticError(f"KL divergence evaluated to {d_kl}, below the rounding floor")
    return KlScore(
        d_kl=max(d_kl, 0.0),
        bins_used=int(np.count_nonzero(mask)),
        empty_bins_skipped=int(np.count_nonzero(~mask)),
    )


def select_best(scored) -> tuple[FitResult, KlScore]:
    """Pick the best (fit, score) pair: converged fits first, then lower
    KL, then fewer parameters, then family tag for a total order."""
    scored = list(scored)
    if not scored:
        raise ValueError("select_best needs at least one scored fit")
    return min(
        scored,
        key=lambda pair: (
            not pair[0].converged,
            pair[1].d_kl,
            n_params(family_tag(pair[0].dist)),
            family_tag(pair[0].dist),
        ),
    )


def fit_and_score(
    values, *, binning: Binning = FreedmanDiaconis()
) -> list[tuple[FitResult, KlScore]]:
    """Fit every family to the sample and score each against one shared
    histogram. Families whose support cannot hold the sample (ValueError
    from fit_mle) are skipped."""
    x = as_sample(values)
    hist = histogram(x, binning)
    out = []
    for family in FAMILIES:
        try:
            fit = fit_mle(family, x)
        except ValueError:
            continue
        out.append((fit, kl_divergence(hist, fit.dist)))
    return out
