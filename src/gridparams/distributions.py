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

import dataclasses
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
    "fields_from_json",
    "number_from_json",
]

#: Smallest uniform variate fed to the quantile transform. ``Generator.random``
#: can return exactly 0.0, which most quantile functions reject.
_U_MIN = 2.0 ** -53

#: t shape above which the log-density's constant and its derivative in nu
#: come from series in 1/nu, exact where gammaln and digamma terms cancel.
_NU_SERIES = 100.0

#: Smallest normal float: betaincinv loses precision on subnormal numbers.
_TINY = float(np.finfo(float).tiny)


def _require_finite(d) -> None:
    """ValueError naming the first of d's fields that is not finite."""
    for f in dataclasses.fields(d):
        value = getattr(d, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
        _require_finite(self)
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
        _require_finite(self)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.zeta == 0:
            raise ValueError("zeta must be nonzero")


@dataclass(frozen=True)
class Exponential:
    """Exponential with mean mu: pdf (1/mu) * exp(-x/mu) on x >= 0."""

    mu: float

    def __post_init__(self):
        _require_finite(self)
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        _require_finite(self)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


DistSpec = Tls | Gev | Exponential | Normal

_TYPE_BY_FAMILY = {"tls": Tls, "gev": Gev, "exponential": Exponential, "normal": Normal}
_FAMILY_BY_TYPE = {t: family for family, t in _TYPE_BY_FAMILY.items()}

FAMILIES = tuple(_TYPE_BY_FAMILY)


def family_tag(d: DistSpec) -> str:
    try:
        return _FAMILY_BY_TYPE[type(d)]
    except KeyError:
        raise TypeError(f"not a distribution spec: {d!r}") from None


def n_params(family: str) -> int:
    if family not in FAMILIES:
        raise ValueError(f"unknown distribution family: {family!r}")
    return len(dataclasses.fields(_TYPE_BY_FAMILY[family]))


def _split(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _join(arr, scalar):
    return float(arr) if scalar else arr


def _gev_support(d: Gev, arr):
    """(log_s, inside) for s = 1 + zeta*(x - mu)/sigma and inside = s > 0; log_s is
    log1p(zeta*(x - mu)/sigma), exact as zeta nears 0, and 0.0 outside."""
    zz = d.zeta * (arr - d.mu) / d.sigma
    inside = zz > -1.0
    return np.log1p(np.where(inside, zz, 0.0)), inside


def _tls_log_norm(nu: float) -> float:
    """log of the standard t density at 0, gammaln((nu+1)/2) - gammaln(nu/2) - log(nu*pi)/2:
    -betaln(nu/2, 1/2) - log(nu)/2 up to _NU_SERIES, and its series in 1/nu above."""
    if nu > _NU_SERIES:
        r = 1.0 / (nu * nu)
        series = 0.25 - r * (1.0 / 24.0 - r * (0.05 - r * 17.0 / 112.0))
        return -0.5 * math.log(2.0 * math.pi) - series / nu
    from scipy.special import betaln

    return -float(betaln(nu / 2.0, 0.5)) - 0.5 * math.log(nu)


def log_pdf(d: DistSpec, x):
    """Natural log of the density; -inf outside the support."""
    arr, scalar = _split(x)
    if isinstance(d, Tls):
        z = (arr - d.mu) / d.sigma
        out = (
            _tls_log_norm(d.nu)
            - math.log(d.sigma)
            - ((d.nu + 1.0) / 2.0) * np.log1p(z * z / d.nu)
        )
    elif isinstance(d, Gev):
        log_s, inside = _gev_support(d, arr)
        out = np.where(
            inside,
            -math.log(d.sigma) - (1.0 + 1.0 / d.zeta) * log_s - np.exp(-log_s / d.zeta),
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
    if isinstance(d, Exponential):
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
        log_s, inside = _gev_support(d, arr)
        out = np.where(inside, np.exp(-np.exp(-log_s / d.zeta)), 0.0 if d.zeta > 0 else 1.0)
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
        out = d.mu + d.sigma * np.expm1(-d.zeta * np.log(-np.log(arr))) / d.zeta
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
    """JSON-ready encoding: {"family": ..., "params": {field: value}}."""
    return {"family": family_tag(d), "params": dataclasses.asdict(d)}


def from_json(obj: dict) -> DistSpec:
    """Inverse of to_json."""
    family = obj.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown distribution family: {family!r}")
    return fields_from_json(_TYPE_BY_FAMILY[family], obj.get("params"), f"{family} params")


def fields_from_json(cls, obj, what: str):
    """An instance of the dataclass cls from a JSON object keyed by its field
    names, each value converted with float(). A value that is not such an
    object, an unknown or missing field, and a value float() cannot take
    raise ValueError naming what was being read."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    values = {name: number_from_json(value, f"{what} {name}") for name, value in obj.items()}
    try:
        return cls(**values)
    except TypeError as exc:  # a field without a default is missing
        raise ValueError(f"{what}: {exc}") from None


def number_from_json(value, what: str) -> float:
    """float(value); ValueError naming what was being read if float() cannot take it."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what}: expected a number, got {value!r}") from None
