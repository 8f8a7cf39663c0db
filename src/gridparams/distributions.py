"""Parametric families used to model branch electrical parameters.

Four families cover the quantities of interest: t location-scale for
transformer own-base reactance, generalized extreme value for transformer
MVA rating and X/R ratio, exponential (mean parameterization) for line
reactance, and normal for line capacity and line X/R.

Every family supports ``pdf``, ``cdf``, ``quantile``, and seeded
inverse-transform ``sample``. Densities and cdfs are the package's own
numerics, so fitting and scoring load no scipy; the t and normal quantiles
call ``scipy.special``. Uniform variates come from numpy's PCG64 bit
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

# scipy.special is imported by the quantiles, not here: it costs about a third
# of a second, and commands that draw no sample never load it.

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
_EPS = float(np.finfo(float).eps)
_erf, _erfc = np.vectorize(math.erf, otypes=[float]), np.vectorize(math.erfc, otypes=[float])

#: Cap on the terms of the t cdf's continued fractions; the slowest input found takes 134.
_CF_TERMS = 200


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


def _tls_constants(nu: float) -> tuple[float, float]:
    """(log f0, h) at x = nu/2: log f0 = log(gamma(x + 1/2)/gamma(x)) - log(2 pi x)/2, the
    standard t log-density at 0, and h = nu*(digamma(x + 1/2) - digamma(x)) - 1. Series in
    1/nu above _NU_SERIES; below, x is first shifted past it by gamma(x + 1) = x*gamma(x)."""
    k = 0 if nu > _NU_SERIES else math.floor((_NU_SERIES - nu) / 2.0) + 1
    n = nu + 2.0 * k
    r = 1.0 / (n * n)
    log_f0 = -0.5 * math.log(2.0 * math.pi) - (0.25 - r * (1.0 / 24.0 - r * (0.05 - r * 17.0 / 112.0))) / n
    h = (0.5 - r * (0.25 - r * (0.5 - r * 17.0 / 8.0))) / n
    if k:
        x = [nu / 2.0 + j for j in range(k)]
        log_f0 += 0.5 * math.log(n / nu) - math.fsum(math.log1p(0.5 / y) for y in x)
        h = (nu * h - 2.0 * k) / n + nu * math.fsum(0.5 / (y * (y + 0.5)) for y in x)
    return log_f0, h


def log_pdf(d: DistSpec, x):
    """Natural log of the density; -inf outside the support."""
    arr, scalar = _split(x)
    if isinstance(d, Tls):
        z = (arr - d.mu) / d.sigma
        out = (
            _tls_constants(d.nu)[0]
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


def _continued_fraction(coef, y: np.ndarray) -> np.ndarray:
    """1/(1 + e_1/(1 + e_2/(1 + ...))) with e_n = coef(n) * y, by the modified Lentz
    method (Press et al., Numerical Recipes, 3rd ed., 5.2). Each element stops at
    the first step within one ulp of 1; ArithmeticError past _CF_TERMS terms."""
    f, c, d, done = np.ones(y.shape), np.ones(y.shape), np.zeros(y.shape), np.zeros(y.shape, dtype=bool)
    for n in range(1, _CF_TERMS + 1):
        e = coef(n) * y
        d = 1.0 / (1.0 + e * d)
        c = 1.0 + e / c
        step = c * d
        f = np.where(done, f, f * step)
        done |= ~(np.abs(step - 1.0) > _EPS)  # a NaN stops at once
        if done.all():
            return 1.0 / f
    raise ArithmeticError(f"t cdf continued fraction took more than {_CF_TERMS} terms")


def _tls_tail(nu: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(cdf(-|t|), log cdf(-|t|)) of Student's t with nu dof, for an array t.

    cdf(-|t|) = I_x(a, 1/2)/2 at x = nu/(nu + t*t), a = nu/2; f0 is the density at 0.
    Past |t| = sqrt(3 nu/(nu + 2)) it is f0 x**a sqrt(1/t**2 + 1/nu) F, F = 2F1(1, 1/2;
    a + 1; -x/(1 - x)) by Pfaff's transformation, whose Gauss continued fraction has
    positive terms for any a; inside, 1/2 - f0 x**a |t| (1 + t*t/nu)**-0.5 G, G the
    continued fraction of I_{1-x}(1/2, a) (Press et al., 6.4). t*t/nu enters as
    r = min(t*t, nu)/max(t*t, nu), so an overflowing t*t gives x = 0: the power-law tail.
    """
    a = nu / 2.0
    log_f0 = _tls_constants(nu)[0]
    tail, log_tail = np.empty(t.shape), np.empty(t.shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore", under="ignore"):
        t2 = t * t
        small = t2 <= nu
        r = np.where(small, t2 / nu, nu / t2)
        log1p_r = np.log1p(r)
        log_x = -log1p_r - np.where(small, 0.0, 2.0 * np.log(np.abs(t)) - math.log(nu))
        log_min = np.where(small, np.log(np.abs(t)), 0.5 * math.log(nu))  # log min(|t|, sqrt(nu))
        swap = np.where(small, (a + 1.0) * r <= 1.5, 1.5 * r >= a + 1.0)
        i = ~swap
        y = np.where(small[i], 1.0 / r[i], r[i]) / a  # x/(1 - x)/a
        cf = _continued_fraction(
            lambda n: (n // 2) * ((a + (n // 2 - 0.5)) / (a + (n - 1))) * (a / (a + n)) if n % 2 == 0
            else ((a + n // 2) / (a + (n - 1))) * (n // 2 + 0.5) * (a / (a + n)), y)
        rest = np.log(cf) + log_f0 + 0.5 * log1p_r[i] - log_min[i]
        log_tail[i] = a * log_x[i] + rest
        # Where t*t > nu, x**a = |m|**-nu (nu/4**e)**a (1 + r)**-a for t = m 2**e: exact pow arguments.
        m, e = np.frexp(t[i])
        q = np.ldexp(nu, -2 * e)
        pow_m, pow_q = np.power(np.abs(m), -nu), np.power(q, a)
        exact = ~small[i] & (q >= _TINY) & (pow_q >= _TINY) & np.isfinite(pow_m)
        lead = np.where(exact, pow_m * pow_q * np.exp(-a * log1p_r[i]), np.exp(a * log_x[i]))
        tail[i] = np.where(lead >= _TINY, lead * np.exp(rest), np.exp(log_tail[i]))
        aw = a * np.where(small[swap], r[swap], 1.0) / (1.0 + r[swap])  # a*(1 - x)
        cf = _continued_fraction(
            lambda n: (n // 2) * ((a - n // 2) / a) / ((n - 0.5) * (n + 0.5)) if n % 2 == 0
            else -((n // 2 + 0.5) / (n - 0.5)) * ((a + (n // 2 + 0.5)) / a) / (n + 0.5), aw)
        tail[swap] = 0.5 - np.exp(a * log_x[swap] + log_f0 - 0.5 * log1p_r[swap] + log_min[swap]) * cf
        log_tail[swap] = np.log(tail[swap])
    return tail, log_tail


def cdf(d: DistSpec, x):
    arr, scalar = _split(x)
    if isinstance(d, Tls):
        z = (arr - d.mu) / d.sigma
        tail = _tls_tail(d.nu, z)[0]
        out = np.where(z < 0, tail, 1.0 - tail)
    elif isinstance(d, Gev):
        log_s, inside = _gev_support(d, arr)
        out = np.where(inside, np.exp(-np.exp(-log_s / d.zeta)), 0.0 if d.zeta > 0 else 1.0)
    elif isinstance(d, Exponential):
        z = np.where(arr >= 0, arr, 0.0)
        out = np.where(arr >= 0, -np.expm1(-z / d.mu), 0.0)
    elif isinstance(d, Normal):
        # As Cephes' ndtr: erf near the centre, erfc of |x| in the tails.
        x = (arr - d.mu) / d.sigma * math.sqrt(0.5)
        tail = 0.5 * _erfc(np.abs(x))
        out = np.where(np.abs(x) < math.sqrt(0.5), 0.5 + 0.5 * _erf(x), np.where(x > 0, 1.0 - tail, tail))
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
        # follows. Below s = 1e-100 stdtrit fails (inf at 1e-300 for nu = 3). There
        # betaincinv (or ndtri, where 1 - x rounds away at huge nu) inverts I_x(nu/2, 1/2)/2
        # = s0 = max(s, _TINY / 2), and four Newton steps on log s in log|t| cover the 36
        # nats to 5e-324; where nu/t**2 is subnormal, s = C |t|**-nu, C = f0 nu**((nu-1)/2).
        from scipy.special import betaincinv, ndtri, stdtr, stdtrit

        s = np.minimum(arr, 1.0 - arr)  # exact: 1 - p is representable for p >= 1/2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = stdtrit(d.nu, s)
            t = np.array(t - (stdtr(d.nu, t) - s) / pdf(Tls(0.0, 1.0, d.nu), t))
            deep = s < 1e-100
            if np.any(deep):
                s0 = np.maximum(s[deep], _TINY / 2.0)
                x = betaincinv(d.nu / 2.0, 0.5, 2.0 * s0)
                log_f0 = _tls_constants(d.nu)[0]  # log C overflows at huge nu: divide by nu first
                power_t = -np.exp((0.5 - 0.5 / d.nu) * math.log(d.nu) + (log_f0 - np.log(s[deep])) / d.nu)
                tail_t = np.minimum(-np.sqrt(d.nu * (1.0 / x - 1.0)), ndtri(s0))
                for _ in range(4):
                    tail, log_tail = _tls_tail(d.nu, tail_t)
                    # log(tail / s) keeps the digits of a normal s.
                    miss = np.where(s0 > s[deep], log_tail - np.log(s[deep]), np.log(tail / s0))
                    step = miss * np.exp(log_tail - log_pdf(Tls(0.0, 1.0, d.nu), tail_t))
                    tail_t = tail_t * np.exp(step / -tail_t)
                t[deep] = np.where(d.nu / (power_t * power_t) < _TINY, power_t, tail_t)
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
