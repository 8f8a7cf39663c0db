"""Maximum-likelihood fitting of the four candidate families and
histogram-based KL divergence scoring for ranking them.

Exponential and normal fits are closed-form. The location-scale t and
GEV families are fit by Nelder-Mead on transformed parameters (log
scale for sigma and nu) so every search point is a valid distribution;
points whose support excludes part of the sample get a large finite
penalty instead of an infinite objective.
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
)
from .stats import Binning, FreedmanDiaconis, Histogram, as_sample, histogram

__all__ = [
    "FitOptions",
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


@dataclass(frozen=True)
class FitOptions:
    """Nelder-Mead budget; ignored by closed-form families."""

    maxiter: int = 2000
    maxfev: int = 8000
    fatol: float = 1e-9
    xatol: float = 1e-8


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


def _run_nelder_mead(objective, theta0, options: FitOptions):
    # Imported here: scipy.optimize costs about a quarter second of import
    # time, and only the t and GEV fits use it.
    from scipy.optimize import minimize

    return minimize(
        objective,
        np.asarray(theta0, dtype=float),
        method="Nelder-Mead",
        options={
            "maxiter": options.maxiter,
            "maxfev": options.maxfev,
            "fatol": options.fatol,
            "xatol": options.xatol,
        },
    )


def _fit_tls(x: np.ndarray, options: FitOptions) -> FitResult:
    if x.size < 3:
        raise ValueError("t fit needs at least 3 values")
    sigma0 = _scale_guess(x)

    def unpack(theta) -> Tls:
        mu, s, t = theta
        return Tls(mu=float(mu), sigma=math.exp(s), nu=math.exp(t))

    res = _run_nelder_mead(
        lambda theta: _nll(unpack(theta), x),
        [float(np.median(x)), math.log(sigma0), math.log(5.0)],
        options,
    )
    return _finish_nm(unpack(res.x), x, res)


def _fit_gev(x: np.ndarray, options: FitOptions) -> FitResult:
    if x.size < 3:
        raise ValueError("GEV fit needs at least 3 values")
    sigma0 = float(np.std(x)) * math.sqrt(6.0) / math.pi
    if sigma0 <= 0:
        raise ValueError("cannot fit a scale family to a constant sample")
    # Moment-style start at the Gumbel limit (Euler-Mascheroni shift).
    mu0 = float(np.mean(x)) - 0.5772 * sigma0

    def unpack(theta) -> Gev:
        mu, s, zeta = theta
        return Gev(mu=float(mu), sigma=math.exp(s), zeta=_clamp_zeta(float(zeta)))

    res = _run_nelder_mead(
        lambda theta: _nll(unpack(theta), x),
        [mu0, math.log(sigma0), 0.1],
        options,
    )
    return _finish_nm(unpack(res.x), x, res)


def _finish_nm(d: DistSpec, x: np.ndarray, res) -> FitResult:
    ll = _loglik(d, x)
    converged = bool(res.success)
    message = "" if converged else str(res.message)
    if not math.isfinite(ll):
        converged = False
        message = "fitted parameters exclude part of the sample from the support"
    return FitResult(d, ll, x.size, converged=converged, iterations=int(res.nit), message=message)


def fit_mle(family: str, values, options: FitOptions = FitOptions()) -> FitResult:
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
        return _fit_tls(x, options)
    if family == "gev":
        return _fit_gev(x, options)
    raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")


def kl_divergence(hist: Histogram, d: DistSpec) -> KlScore:
    """Discrete KL divergence D(P || Q) in nats between the histogram's
    bin masses and the model's mass in the same bins.

    Model bin masses are floored at 1e-12 so empirical mass in a region
    the model calls impossible yields a large finite score, not inf.
    """
    counts = np.asarray(hist.counts, dtype=float)
    p = counts / counts.sum()
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
