"""Maximum-likelihood fitting of the four candidate families and
histogram-based KL divergence scoring for ranking them.

Exponential and normal fits are closed-form. The location-scale t and GEV
families are fit by a small BFGS of this module's own on one objective per
family, which returns the negative log-likelihood and its gradient (the
closed-form score of Liu & Rubin 1995 and Coles 2001, section 3.3) from one
set of arrays. Scale and nu are searched on a log scale so every point is a
valid distribution; points whose support excludes part of the sample get a
large finite penalty instead of an infinite objective. The digamma
difference in the t score and the cdfs that KL scoring integrates are the
package's own (``distributions``), so fitting and scoring need only numpy.
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
    _gev_support,
    _tls_constants,
)
from .stats import Histogram, _median, _quantiles, _scale_free, as_sample, histogram

__all__ = [
    "FitResult",
    "KlScore",
    "fit_mle",
    "kl_divergence",
    "select_best",
    "fit_and_score",
]

_PENALTY = 1e300
#: An objective's value and gradient function where the likelihood is not finite.
_PENALIZED = (_PENALTY, lambda: np.zeros(3))
_MIN_ZETA = 1e-6
_Q_FLOOR = 1e-12
#: A t fit past this nu has run off toward the normal limit.
_NORMAL_NU = 1e6
#: Iteration budget of the BFGS search. Converged fits take a few dozen
#: (scripts/fit_survey.py checks the margin); longer searches chase a likelihood without a maximum.
_MAXITER = 200


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


def _clamp_zeta(zeta: float) -> float:
    # The zeta = 0 (Gumbel) boundary is excluded; pin near-zero shapes
    # just off it so the optimizer can cross sign without a pole.
    if abs(zeta) < _MIN_ZETA:
        return _MIN_ZETA if zeta >= 0 else -_MIN_ZETA
    return zeta


def _fit_exponential(x: np.ndarray) -> FitResult:
    if np.min(x) < 0:
        raise ValueError("exponential family requires non-negative values")
    mu = _scale_free(np.mean, x)
    if mu <= 0:
        raise ValueError("exponential fit needs a positive sample mean")
    d = Exponential(mu=mu)
    return FitResult(d, _loglik(d, x), x.size, converged=True, iterations=0)


def _fit_normal(x: np.ndarray) -> FitResult:
    if x.size < 2:
        raise ValueError("normal fit needs at least 2 values")
    sigma = _scale_free(np.std, x)
    if sigma <= 0:
        raise ValueError("normal fit is degenerate on a constant sample")
    d = Normal(mu=_scale_free(np.mean, x), sigma=sigma)
    return FitResult(d, _loglik(d, x), x.size, converged=True, iterations=0)


def _scale_guess(x: np.ndarray) -> float:
    q25, q75 = _quantiles(x, [0.25, 0.75])
    iqr = float(q75 - q25)
    if iqr > 0:
        return iqr / 1.349
    sd = _scale_free(np.std, x)
    if sd > 0:
        return sd
    raise ValueError("cannot fit a scale family to a constant sample")


def _bfgs(f, theta, gtol: float, maxiter: int):
    """Minimize f, which returns (value, a function returning the gradient), from theta
    by BFGS with an Armijo backtracking line search (Nocedal & Wright 2006, 6.1 and 3.1),
    which needs only values: the gradient is taken once per accepted point.

    Stops at max |gradient| <= gtol, at a gradient that is not finite, after
    maxiter iterations, or when the step underflows; returns (theta, value,
    gradient, iterations).
    """
    trial, h = f(theta), None  # h: inverse Hessian; None while the search runs steepest descent
    # A trial is dropped before the next evaluation: its gradient function holds the objective's arrays.
    fx, g, trial = trial[0], trial[1](), None
    for k in range(maxiter):
        if not np.all(np.isfinite(g)) or np.max(np.abs(g)) <= gtol:
            return theta, fx, g, k
        p = None if h is None else -h @ g
        if p is None or not g @ p < 0:  # no descent direction: restart from steepest descent
            h, p = None, -g / max(1.0, float(np.linalg.norm(g)))
        step = 1.0
        while not (trial := f(theta + step * p))[0] <= fx + 1e-4 * step * (g @ p):
            step, trial = step * 0.5, None
            if not np.any(np.abs(step * p) > np.spacing(np.abs(theta))):  # the step underflows
                return theta, fx, g, k
        fx, g_next, trial = trial[0], trial[1](), None
        s, y = step * p, g_next - g
        # A non-finite trial gradient ends the search at the next iteration.
        if np.all(np.isfinite(y)) and (sy := s @ y) > 0:
            if h is None:
                h = np.eye(theta.size) * (sy / (y @ y))
            v = np.eye(theta.size) - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
        theta, g = theta + s, g_next
    return theta, fx, g, maxiter


def _fit_scored(x, make, objective, start, sigma0) -> FitResult:
    """Maximum likelihood of make(mu, log sigma, shape), from start.

    BFGS runs on theta = ((mu - start[0]) / sigma0, log sigma, shape) with
    objective(d, x), and has converged when it ends at a score of at most
    1e-6 per value with a finite log-likelihood. Otherwise the point where
    it ended is returned with converged=False and the reason.
    """

    def nll_and_gradient(theta):
        try:
            d = make(start[0] + sigma0 * theta[0], theta[1], theta[2])
        except (OverflowError, ValueError):  # sigma or nu beyond float range
            return _PENALIZED
        value, gradient = objective(d, x)
        return value, lambda: gradient() * [sigma0, 1.0, 1.0]

    with np.errstate(all="ignore"):  # search points far from the optimum overflow
        # gtol scales with n: where the likelihood keeps rising toward nu = inf,
        # the log-likelihood left to gain is about the size of the score.
        theta, value, g, nit = _bfgs(nll_and_gradient, np.array([0.0, *start[1:]]), 1e-8 * x.size,
                                     _MAXITER)
        # make does not raise here: the search ends at the start or at a point
        # whose objective is below the start's, so below _PENALTY. There the
        # objective is -log-likelihood as log_pdf sums it, bit for bit.
        d = make(start[0] + sigma0 * theta[0], theta[1], theta[2])
        ll = -value if value < _PENALTY else _loglik(d, x)
    if not math.isfinite(ll):
        message = "fitted parameters exclude part of the sample from the support"
    elif not np.all(np.isfinite(g)):
        message = "the score is not finite at the fitted parameters"
    elif np.max(np.abs(g)) > 1e-6 * x.size:
        message = f"search ended at max |score| {np.max(np.abs(g)) / x.size:.3g} per value, above 1e-6"
    else:
        return FitResult(d, ll, x.size, converged=True, iterations=nit)
    return FitResult(d, ll, x.size, converged=False, iterations=nit, message=message)


def _tls_objective(d: Tls, x: np.ndarray):
    """(-log-likelihood as log_pdf sums it, a function returning its gradient in (mu, log sigma,
    log nu)), or _PENALIZED where it is not finite. The score's constant part is
    nu/2 * (digamma((nu+1)/2) - digamma(nu/2) - 1/nu)."""
    log_f0, h = _tls_constants(d.nu)
    z = (x - d.mu) / d.sigma
    zz = z * z
    w = log_terms = np.log1p(zz / d.nu)
    if np.isinf(w).any():  # zz/nu overflowed; the log is finite unless z is
        log_terms = np.where(np.isinf(w), np.logaddexp(0.0, 2.0 * np.log(np.abs(z)) - math.log(d.nu)), w)
    ll = float(np.sum(log_f0 - math.log(d.sigma) - ((d.nu + 1.0) / 2.0) * log_terms))
    if not math.isfinite(ll):
        return _PENALIZED
    def gradient():  # of -ll, from the arrays above
        wz = (d.nu + 1.0) * z / (d.nu + zz)
        wzz = wz * z
        # The score takes the raw w, not log_terms: where zz/nu overflowed it is not finite, which ends
        # a search along an unbounded ridge; with log_terms that search would run to its iteration cap.
        return -np.array([np.sum(wz) / d.sigma, np.sum(wzz) - x.size,
                          x.size * (0.5 * h) + 0.5 * np.sum(wzz - d.nu * w)])
    return -ll, gradient


def _gev_objective(d: Gev, x: np.ndarray):
    """(-log-likelihood as log_pdf sums it, a function returning its gradient in (mu, log sigma,
    zeta)), or _PENALIZED where it is not finite. The gradient takes log(s) and s**(-1/zeta) from
    the value, at s = 1 + zeta*(x - mu)/sigma, and s itself as 1 + zeta*((x - mu)/sigma)."""
    log_s, inside = _gev_support(d, x)
    if not inside.all():
        return _PENALIZED
    t = np.exp(-log_s / d.zeta)
    ll = float(np.sum(-math.log(d.sigma) - (1.0 + 1.0 / d.zeta) * log_s - t))
    if not math.isfinite(ll):
        return _PENALIZED
    def gradient():  # of -ll, from the arrays above
        z = (x - d.mu) / d.sigma
        a = (1.0 + d.zeta - t) / (s := 1.0 + d.zeta * z)
        return -np.array([np.sum(a) / d.sigma, np.sum(a * z) - x.size,
                          np.sum((1.0 - t) * (log_s / d.zeta - (zs := z / s)) / d.zeta - zs)])
    return -ll, gradient


def _fit_tls(x: np.ndarray) -> FitResult:
    if x.size < 3:
        raise ValueError("t fit needs at least 3 values")
    sigma0 = _scale_guess(x)

    def make(mu, s, t) -> Tls:
        return Tls(mu=float(mu), sigma=math.exp(s), nu=math.exp(t))

    start = [_median(x), math.log(sigma0), math.log(5.0)]
    res = _fit_scored(x, make, _tls_objective, start, sigma0)
    # A small sample's likelihood can peak both at a heavy tail and toward the
    # normal limit nu = inf, with a saddle between that the search may cross
    # either way. Search the other side too when it may hold the higher peak.
    # Below nu = 1 two heavy-tail peaks can sit side by side: search from nu = 1.
    if not 1.0 <= res.dist.nu <= _NORMAL_NU:
        other = 1.0
    elif _fit_normal(x).log_likelihood > res.log_likelihood:
        other = _NORMAL_NU
    else:
        return res
    alt = _fit_scored(x, make, _tls_objective, [start[0], start[1], math.log(other)], sigma0)
    # As in _fit_gev, a converged search beats one that stopped short, even at 1 ulp lower.
    return alt if alt.converged and (not res.converged or alt.log_likelihood > res.log_likelihood) else res


def _fit_gev(x: np.ndarray) -> FitResult:
    if x.size < 3:
        raise ValueError("GEV fit needs at least 3 values")
    sigma0 = _scale_free(np.std, x) * math.sqrt(6.0) / math.pi
    if sigma0 <= 0:
        raise ValueError("cannot fit a scale family to a constant sample")

    def make(mu, s, zeta) -> Gev:
        return Gev(mu=float(mu), sigma=math.exp(s), zeta=_clamp_zeta(float(zeta)))

    # Moment-style start at the Gumbel limit (Euler-Mascheroni shift). The
    # support of zeta = 0.1 starts at mu0 - 10 sigma0; below a lower outlier
    # past that, zeta starts where the support holds twice the outlier's gap.
    mu0 = _scale_free(np.mean, x) - 0.5772 * sigma0
    gap = mu0 - float(np.min(x))
    start = [mu0, math.log(sigma0), 0.5 * sigma0 / gap if gap >= 10.0 * sigma0 else 0.1]
    res = _fit_scored(x, make, _gev_objective, start, sigma0)
    if res.converged:
        return res
    # A small sample's likelihood can peak at zeta > -1 beside the unbounded ridge
    # below zeta = -1, and the search may head for either. From where it stopped
    # short, search again with zeta set back to -0.5.
    alt = _fit_scored(x, make, _gev_objective, [res.dist.mu, math.log(res.dist.sigma), -0.5], sigma0)
    return alt if alt.converged else res


def fit_mle(family: str, values) -> FitResult:
    """Fit one family by maximum likelihood.

    Raises ValueError for samples the family cannot represent at all
    (negative values for exponential, constant samples for any scale
    family); mere optimizer failure returns converged=False instead.
    """
    x = as_sample(values)
    fit = {"exponential": _fit_exponential, "normal": _fit_normal, "tls": _fit_tls, "gev": _fit_gev}.get(family)
    if fit is None:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return fit(x)


def kl_divergence(hist: Histogram, d: DistSpec) -> KlScore:
    """Discrete KL divergence D(P || Q) in nats between the histogram's
    bin masses and the model's mass in the same bins.

    Model bin masses are floored at 1e-12 so empirical mass in a region
    the model calls impossible yields a large finite score, not inf.
    """
    counts = np.asarray(hist.counts, dtype=float)
    p = counts / counts.sum()
    q = np.maximum(np.diff(cdf(d, hist.edges)), _Q_FLOOR)
    mask = p > 0
    d_kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    if d_kl < -1e-12:
        raise ArithmeticError(f"KL divergence evaluated to {d_kl}, below the rounding floor")
    return KlScore(max(d_kl, 0.0), int(np.count_nonzero(mask)), int(np.count_nonzero(~mask)))


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


def fit_and_score(values, *, bins="fd", hist: Histogram | None = None) -> list[tuple[FitResult, KlScore]]:
    """Fit every family to the sample and score each against one shared
    histogram: hist if given, else the sample's histogram(x, bins). Families
    whose support cannot hold the sample (ValueError from fit_mle) are skipped."""
    x = as_sample(values)
    hist = histogram(x, bins) if hist is None else hist
    out = []
    for family in FAMILIES:
        try:
            fit = fit_mle(family, x)
        except ValueError:
            continue
        out.append((fit, kl_divergence(hist, fit.dist)))
    return out
