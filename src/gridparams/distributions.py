"""Parametric families used to model branch electrical parameters.

Four families cover the quantities of interest: t location-scale for
transformer own-base reactance, generalized extreme value for transformer
MVA rating and X/R ratio, exponential (mean parameterization) for line
reactance, and normal for line capacity and line X/R.

Every family supports ``pdf``, ``cdf``, ``quantile``, and seeded
inverse-transform ``sample``. Uniform variates come from numpy's PCG64 bit
generator seeded through ``SeedSequence(seed)``; callers that need several
independent streams must derive them with ``SeedSequence(seed).spawn(k)``
and consume the children in a fixed, documented order. With that rule,
identical (distribution, seed, n) inputs reproduce bit-identical draws
across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported where a family needs it, not here: it costs about
# a third of a second, and commands that evaluate no distribution never load it.

__all__ = [
    "Tls",
    "Gev",
    "Exponential",
    "Normal",
    "DistSpec",
    "FAMILIES",
    "family_tag",
    "n_params",
    "pdf",
    "log_pdf",
    "cdf",
    "quantile",
    "sample",
    "sample_stream",
    "to_json",
    "from_json",
]

#: Smallest uniform variate fed to the quantile transform. ``Generator.random``
#: can return exactly 0.0, which most quantile functions reject.
_U_MIN = 2.0 ** -53

#: Smallest normal float: betaincinv loses precision on subnormal numbers.
_TINY = float(np.finfo(float).tiny)


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Tls:
    """t location-scale: (x - mu)/sigma follows Student's t with nu dof.

    Mean equals mu for nu > 1; variance equals sigma**2 * nu / (nu - 2)
    for nu > 2.
    """

    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        _require_finite("mu", self.mu)
        _require_finite("sigma", self.sigma)
        _require_finite("nu", self.nu)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.nu <= 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class Gev:
    """Generalized extreme value with cdf exp(-(1 + zeta*(x-mu)/sigma)**(-1/zeta)).

    Support is {x : 1 + zeta*(x-mu)/sigma > 0}; zeta must be nonzero (the
    Gumbel limit is excluded). pdf is 0 outside the support and cdf clamps
    to 0 (zeta > 0, below support) or 1 (zeta < 0, above support).
    """

    mu: float
    sigma: float
    zeta: float

    def __post_init__(self):
        _require_finite("mu", self.mu)
        _require_finite("sigma", self.sigma)
        _require_finite("zeta", self.zeta)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.zeta == 0:
            raise ValueError("zeta must be nonzero")


@dataclass(frozen=True)
class Exponential:
    """Exponential with mean mu: pdf (1/mu) * exp(-x/mu) on x >= 0."""

    mu: float

    def __post_init__(self):
        _require_finite("mu", self.mu)
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        _require_finite("mu", self.mu)
        _require_finite("sigma", self.sigma)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


DistSpec = Tls | Gev | Exponential | Normal

FAMILIES = ("tls", "gev", "exponential", "normal")

_FAMILY_BY_TYPE = {Tls: "tls", Gev: "gev", Exponential: "exponential", Normal: "normal"}
_N_PARAMS = {"tls": 3, "gev": 3, "exponential": 1, "normal": 2}


def family_tag(d: DistSpec) -> str:
    return _FAMILY_BY_TYPE[type(d)]


def n_params(family: str) -> int:
    try:
        return _N_PARAMS[family]
    except KeyError:
        raise ValueError(f"unknown distribution family: {family!r}") from None


def _split(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _join(arr, scalar):
    return float(arr) if scalar else arr


def log_pdf(d: DistSpec, x):
    """Natural log of the density; -inf outside the support."""
    arr, scalar = _split(x)
    if isinstance(d, Tls):
        from scipy.special import gammaln

        z = (arr - d.mu) / d.sigma
        out = (
            gammaln((d.nu + 1.0) / 2.0)
            - gammaln(d.nu / 2.0)
            - 0.5 * math.log(d.nu * math.pi)
            - math.log(d.sigma)
            - ((d.nu + 1.0) / 2.0) * np.log1p(z * z / d.nu)
        )
    elif isinstance(d, Gev):
        s = 1.0 + d.zeta * (arr - d.mu) / d.sigma
        inside = s > 0
        s_safe = np.where(inside, s, 1.0)
        logs = np.log(s_safe)
        out = np.where(
            inside,
            -math.log(d.sigma) - (1.0 + 1.0 / d.zeta) * logs - np.exp(-logs / d.zeta),
            -np.inf,
        )
    elif isinstance(d, Exponential):
        out = np.where(arr >= 0, -math.log(d.mu) - arr / d.mu, -np.inf)
    elif isinstance(d, Normal):
        z = (arr - d.mu) / d.sigma
        out = -0.5 * z * z - math.log(d.sigma) - 0.5 * math.log(2.0 * math.pi)
    else:
        raise TypeError(f"not a distribution spec: {d!r}")
    return _join(out, scalar)


def pdf(d: DistSpec, x):
    """Density at x. Exactly 0 outside the support (never an error)."""
    arr, scalar = _split(x)
    if isinstance(d, Gev):
        # Computed directly rather than exp(log_pdf) so in-support underflow
        # and out-of-support zeros stay distinguishable and exact.
        s = 1.0 + d.zeta * (arr - d.mu) / d.sigma
        inside = s > 0
        s_safe = np.where(inside, s, 1.0)
        t = s_safe ** (-1.0 / d.zeta)
        out = np.where(inside, (t / s_safe) * np.exp(-t) / d.sigma, 0.0)
    elif isinstance(d, Exponential):
        z = np.where(arr >= 0, arr, 0.0)  # mask first: exp overflows on -x/mu
        out = np.where(arr >= 0, np.exp(-z / d.mu) / d.mu, 0.0)
    else:
        out = np.exp(log_pdf(d, arr))
    return _join(out, scalar)


def _tls_log_tail_coefficient(nu: float) -> float:
    """log C of the t cdf's power-law tail: cdf(t) = C * |t|**-nu * (1 + O(nu / t**2))
    as t -> -inf, with C = nu**(nu/2 - 1) / B(nu/2, 1/2)."""
    from scipy.special import betaln

    return (nu / 2.0 - 1.0) * math.log(nu) - float(betaln(nu / 2.0, 0.5))


def cdf(d: DistSpec, x):
    arr, scalar = _split(x)
    if isinstance(d, Tls):
        from scipy.special import stdtr

        z = (arr - d.mu) / d.sigma
        out = stdtr(d.nu, z)
        with np.errstate(over="ignore", divide="ignore"):
            # stdtr returns 0 (or 1) once t*t overflows; there the power-law
            # tail is exact to double precision.
            far = np.isinf(z * z) & np.isfinite(z)
            if np.any(far):
                tail = np.exp(_tls_log_tail_coefficient(d.nu) - d.nu * np.log(np.abs(z)))
                out = np.where(far, np.where(z < 0, tail, 1.0 - tail), out)
    elif isinstance(d, Gev):
        s = 1.0 + d.zeta * (arr - d.mu) / d.sigma
        inside = s > 0
        s_safe = np.where(inside, s, 1.0)
        out = np.where(
            inside,
            np.exp(-(s_safe ** (-1.0 / d.zeta))),
            0.0 if d.zeta > 0 else 1.0,
        )
    elif isinstance(d, Exponential):
        z = np.where(arr >= 0, arr, 0.0)
        out = np.where(arr >= 0, -np.expm1(-z / d.mu), 0.0)
    elif isinstance(d, Normal):
        from scipy.special import ndtr

        out = ndtr((arr - d.mu) / d.sigma)
    else:
        raise TypeError(f"not a distribution spec: {d!r}")
    return _join(out, scalar)


def quantile(d: DistSpec, p):
    """Inverse cdf. p must lie strictly inside (0, 1)."""
    arr, scalar = _split(p)
    if not np.all((arr > 0) & (arr < 1)):  # also rejects NaN
        raise ValueError("quantile requires 0 < p < 1")
    if isinstance(d, Tls):
        # Solved in the smaller tail s and mirrored, so q(1 - p) == -q(p). stdtrit's
        # cdf residual reaches 5e-13 relative near p = 0.2, nu = 3: one Newton step
        # follows. Below s = 1e-100 stdtrit fails (inf at 1e-300 for nu = 3); there the
        # t cdf, I_x(nu/2, 1/2) / 2 at x = nu / (nu + t**2), is inverted exactly where
        # betaincinv can: not where its argument 2s or its result x is subnormal.
        # There the power-law tail s = C * |t|**-nu is inverted in log space.
        from scipy.special import betaincinv, stdtr, stdtrit

        s = np.minimum(arr, 1.0 - arr)  # exact: 1 - p is representable for p >= 1/2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = stdtrit(d.nu, s)
            t = t - (stdtr(d.nu, t) - s) / pdf(Tls(0.0, 1.0, d.nu), t)
            if np.any(s < 1e-100):
                x = betaincinv(d.nu / 2.0, 0.5, 2.0 * s)
                beta_t = -np.sqrt(d.nu * (1.0 / x - 1.0))
                tail_t = -np.exp((_tls_log_tail_coefficient(d.nu) - np.log(s)) / d.nu)
                far = (2.0 * s < _TINY) | (d.nu / (tail_t * tail_t) < _TINY)
                t = np.where(s < 1e-100, np.where(far, tail_t, beta_t), t)
        out = d.mu + d.sigma * np.where(arr > 0.5, -t, t)
    elif isinstance(d, Gev):
        out = d.mu + d.sigma * ((-np.log(arr)) ** (-d.zeta) - 1.0) / d.zeta
    elif isinstance(d, Exponential):
        out = -d.mu * np.log1p(-arr)
    elif isinstance(d, Normal):
        from scipy.special import ndtri

        out = d.mu + d.sigma * ndtri(arr)
    else:
        raise TypeError(f"not a distribution spec: {d!r}")
    return _join(out, scalar)


def sample_stream(d: DistSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n values by inverse transform from an existing generator."""
    u = rng.random(n)
    np.maximum(u, _U_MIN, out=u)  # random() yields [0, 1); keep strictly inside
    return np.asarray(quantile(d, u), dtype=float)


def sample(d: DistSpec, seed: int, n: int) -> np.ndarray:
    """n reproducible draws: PCG64 seeded with SeedSequence(seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return sample_stream(d, rng, n)


def to_json(d: DistSpec) -> dict:
    """JSON-ready encoding: {"family": ..., "params": {...}}."""
    if isinstance(d, Tls):
        params = {"mu": d.mu, "sigma": d.sigma, "nu": d.nu}
    elif isinstance(d, Gev):
        params = {"mu": d.mu, "sigma": d.sigma, "zeta": d.zeta}
    elif isinstance(d, Exponential):
        params = {"mu": d.mu}
    elif isinstance(d, Normal):
        params = {"mu": d.mu, "sigma": d.sigma}
    else:
        raise TypeError(f"not a distribution spec: {d!r}")
    return {"family": family_tag(d), "params": params}


def from_json(obj: dict) -> DistSpec:
    family = obj.get("family")
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"distribution JSON needs a params object, got {obj!r}")
    try:
        if family == "tls":
            return Tls(float(params["mu"]), float(params["sigma"]), float(params["nu"]))
        if family == "gev":
            return Gev(float(params["mu"]), float(params["sigma"]), float(params["zeta"]))
        if family == "exponential":
            return Exponential(float(params["mu"]))
        if family == "normal":
            return Normal(float(params["mu"]), float(params["sigma"]))
    except KeyError as exc:
        raise ValueError(f"family {family!r} is missing parameter {exc}") from exc
    raise ValueError(f"unknown distribution family: {family!r}")
