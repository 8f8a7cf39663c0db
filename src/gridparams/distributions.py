"""Parametric families used to model branch electrical parameters.

Four families cover the quantities of interest: t location-scale for
transformer own-base reactance, generalized extreme value for transformer
MVA rating and X/R ratio, exponential (mean parameterization) for line
reactance, and normal for line capacity and line X/R.

Every family supports ``pdf``, ``cdf``, ``quantile``, and seeded
inverse-transform ``sample``; one inversion routine on an interval draws
``sample`` and every stream of the generators in ``sampler``. Densities,
cdfs and quantiles are the package's own numerics on numpy, so fitting,
scoring and sampling load no other numerical library. Uniform variates come
from numpy's PCG64 bit generator seeded through ``SeedSequence(seed)``;
callers that need several independent streams must derive them with
``SeedSequence(seed).spawn(k)`` and consume the children in a fixed,
documented order. With that rule, identical (distribution, seed, n) inputs
reproduce bit-identical draws across runs and platforms.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

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

#: Least mass of an interval to sample, in spacings of F(hi): on less, the draws would sit on a grid of p.
_MIN_MASS_SPACINGS = 2.0 ** 20

#: t shape above which the log-density's constant and its derivative in nu
#: come from series in 1/nu, exact where gammaln and digamma terms cancel.
_NU_SERIES = 100.0

_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(float(np.finfo(float).max))
_erf, _erfc = np.vectorize(math.erf, otypes=[float]), np.vectorize(math.erfc, otypes=[float])

#: Cap on the terms of the t cdf's continued fractions; the slowest input found takes 134.
_CF_TERMS = 200

#: Cap on the refinement steps of the t quantile; the slowest input found takes 4.
_QUANTILE_STEPS = 20

#: AS 241 (PPND16) numerators and denominators, ascending, for |p - 1/2| <= 0.425, r <= 5, r > 5.
_AS241 = (
    ((3.387132872796366608, 133.14166789178437745, 1971.5909503065514427, 13731.693765509461125,
      45921.953931549871457, 67265.770927008700853, 33430.575583588128105, 2509.0809287301226727),
     (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
      21213.794301586595867, 39307.89580009271061, 28729.085735721942674, 5226.495278852545925)),
    ((1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055, 3.64784832476320460504,
      1.27045825245236838258, 0.24178072517745061177, 0.0227238449892691845833, 7.7454501427834140764e-4),
     (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
      0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4, 1.05075007164441684324e-9)),
    ((6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358, 0.29656057182850489123,
      0.026532189526576123093, 0.0012426609473880784386, 2.71155556874348757815e-5, 2.01033439929228813265e-7),
     (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
      7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7, 2.04426310338993978564e-15)),
)


def _require_valid(d, *positive: str) -> None:
    """ValueError naming the first field of d, in field order, that is not finite or, if in positive, not > 0."""
    for f in dataclasses.fields(d):
        _require(f.name, getattr(d, f.name), "> 0" if f.name in positive else "")


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
        _require_valid(self, "sigma", "nu")


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
        _require_valid(self, "sigma")
        if self.zeta == 0:
            raise ValueError("zeta must be nonzero")


@dataclass(frozen=True)
class Exponential:
    """Exponential with mean mu: pdf (1/mu) * exp(-x/mu) on x >= 0."""

    mu: float

    def __post_init__(self):
        _require_valid(self, "mu")


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        _require_valid(self, "sigma")


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


def _elementwise(fn):
    """fn(d, x, /) for a spec d (else TypeError) and x as a float array, under one floating-point policy
    that fn's helpers rely on: past float range the result takes its limit, without a warning. 0-d x: a float."""
    @functools.wraps(fn)
    def wrapper(d: DistSpec, x, /):
        family_tag(d)
        arr = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(d, arr)
        return float(out) if arr.ndim == 0 else out
    return wrapper


def _gev_support(d: Gev, arr):
    """(log_s, inside) for s = 1 + zeta*(x - mu)/sigma and inside = s > 0; log_s is
    log1p(zeta*(x - mu)/sigma), exact as zeta nears 0, and 0.0 outside."""
    zz = d.zeta * (arr - d.mu) / d.sigma
    if np.isinf(zz).any():  # where zeta*(x - mu) overflowed, divide first
        zz = np.where(np.isinf(zz), d.zeta * ((arr - d.mu) / d.sigma), zz)
    inside = zz > -1.0
    return np.log1p(np.where(inside, zz, 0.0)), inside


def _tls_constants(nu: float) -> tuple[float, float]:
    """(log f0, h) at x = nu/2: log f0 = log(gamma(x + 1/2)/gamma(x)) - log(2 pi x)/2, the
    standard t log-density at 0, and h = nu*(digamma(x + 1/2) - digamma(x)) - 1. Series in
    1/nu above _NU_SERIES; below, x is first shifted past it by gamma(x + 1) = x*gamma(x).
    Below nu = 1e-20, where the shift's logs of 1/nu cancel (and past 1e-307 overflow), the
    nu -> 0 limit is exact to rounding: log f0 = log(nu)/2 - log 2 - nu log 2 + O(nu**2) and
    h = 1 - 1.39 nu + O(nu**2)."""
    if nu < 1e-20:
        return 0.5 * math.log(nu) - math.log(2.0), 1.0
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


@_elementwise
def log_pdf(d: DistSpec, x):
    """Natural log of the density; -inf outside the support."""
    if isinstance(d, Tls):
        z = (x - d.mu) / d.sigma
        w = np.log1p(z * z / d.nu)
        if np.isinf(w).any():  # z*z/nu overflowed; the log is finite unless z is
            w = np.where(np.isinf(w), np.logaddexp(0.0, 2.0 * np.log(np.abs(z)) - math.log(d.nu)), w)
        return _tls_constants(d.nu)[0] - math.log(d.sigma) - ((d.nu + 1.0) / 2.0) * w
    if isinstance(d, Gev):
        log_s, inside = _gev_support(d, x)
        return np.where(
            inside & (log_s < np.inf),  # an infinite log_s puts x past float range from mu: density 0
            -math.log(d.sigma) - (1.0 + 1.0 / d.zeta) * log_s - np.exp(-log_s / d.zeta),
            -np.inf,
        )
    if isinstance(d, Exponential):
        return np.where(x >= 0, -math.log(d.mu) - x / d.mu, -np.inf)
    z = (x - d.mu) / d.sigma
    return -0.5 * z * z - math.log(d.sigma) - 0.5 * math.log(2.0 * math.pi)


@_elementwise
def pdf(d: DistSpec, x):
    """Density at x. Exactly 0 outside the support (never an error)."""
    if isinstance(d, Exponential):
        return np.where(x >= 0, np.exp(-x / d.mu) / d.mu, 0.0)
    return np.exp(log_pdf(d, x))


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
    # The fractions divide by a; below nu = 1e-300 the tail is 1/2 to rounding either way.
    a = max(nu, 1e-300) / 2.0
    log_f0 = _tls_constants(nu)[0]
    tail, log_tail = np.empty(t.shape), np.empty(t.shape)
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
    q = np.ldexp(float(nu), -2 * e)  # an int nu would pick numpy's float16 loop
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


@_elementwise
def cdf(d: DistSpec, x):
    if isinstance(d, Tls):
        z = (x - d.mu) / d.sigma
        tail = _tls_tail(d.nu, z)[0]
        return np.where(z < 0, tail, 1.0 - tail)
    if isinstance(d, Gev):
        log_s, inside = _gev_support(d, x)
        return np.where(inside, np.exp(-np.exp(-log_s / d.zeta)), 0.0 if d.zeta > 0 else 1.0)
    if isinstance(d, Exponential):
        return np.where(x >= 0, -np.expm1(-x / d.mu), 0.0)
    # As Cephes' ndtr: erf near the centre, erfc of |x| in the tails.
    z = (x - d.mu) / d.sigma * math.sqrt(0.5)
    tail = 0.5 * _erfc(np.abs(z))
    return np.where(np.abs(z) < math.sqrt(0.5), 0.5 + 0.5 * _erf(z), np.where(z > 0, 1.0 - tail, tail))


def _ndtri(p):
    """Normal quantile by Wichura's AS 241, about 1e-16 relative; r = sqrt(-log(min(p, 1 - p)))."""
    q = p - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))  # exact: 1 - p is representable for p >= 1/2
        ratios = [np.polyval(a[::-1], x) / np.polyval(b[::-1], x)
                  for (a, b), x in zip(_AS241, (0.180625 - q * q, r - 1.6, r - 5.0))]
    return np.where(np.abs(q) <= 0.425, q * ratios[0], np.copysign(np.where(r <= 5.0, *ratios[1:]), q))


def _hill_start(nu: float, s):
    """Hill's approximation (CACM Algorithm 396, 1970, as in R's qt) to the t quantile at
    lower tails s, for 1 <= nu <= 1e20: about the normal, or in powers of (2 d s)**(2/nu)."""
    a = 1.0 / (nu - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * nu
    y = np.exp(2.0 * (math.log(d) + np.log(2.0 * s)) / nu)
    x = _ndtri(s)
    c = c + (0.3 * (nu - 4.5) * (x + 0.6) if nu < 5 else 0.0)
    c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
    x = (((((0.4 * x * x + 6.3) * x * x + 36.0) * x * x + 94.5) / c - x * x - 3.0) / b + 1.0) * x
    w = ((1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822) * (nu + 2.0) * 3.0) + 0.5 / (nu + 4.0)) * y
         - 1.0) * (nu + 1.0) / (nu + 2.0) + 1.0 / y
    return -np.sqrt(np.where((y > 0.05 + a) | ((nu < 2.1) & (s > 0.25)), nu * np.expm1(a * x * x), nu * w))


def _tls_lower_quantile(nu: float, s: np.ndarray) -> np.ndarray:
    """Student's t quantile (<= 0) at lower tails s in (0, 1/2], a 1-d array. With f0 the density
    at 0, 1/2 - f0 |t| <= s <= C |t|**-nu, C = f0 nu**((nu-1)/2). The start is the first bound for
    nu < 1, Hill's up to nu = 1e20 and the normal quantile above; the second bound is exact where
    nu/t**2 is subnormal. Second-order steps solve h = log(tail/s) = 0 in u = log|t| (h concave,
    h' = -r, r = f|t|/tail, h''/h' = 1 + r - (nu+1)/(1 + nu/t**2)) until a step of 1e-6 (whose error
    is near 1e-18: the steps converge cubically) or a miss within rounding; ArithmeticError past the cap, and
    for a NaN or 0 that rounding leaves. Below nu = 1e-12 the second bound is -inf where s < cdf(-DBL_MAX), as
    cdf(t) >= C |t|**-nu (1 + nu/t**2)**(-(nu+1)/2), log 2C = nu (log(nu)/2 - log 2) + O(nu**2) (margin 1e-9)."""
    log_s, log_f0 = np.log(s), _tls_constants(nu)[0]
    power = -np.exp((0.5 - 0.5 / nu) * math.log(nu) + (log_f0 - log_s) / nu)  # C overflows at huge nu
    if nu < 1e-12:
        power[-np.log(2.0 * s) > nu * (_LOG_MAX + math.log(2.0) - 0.5 * math.log(nu)) * (1.0 + 1e-9)] = -np.inf
    start = (s - 0.5) / math.exp(log_f0) if nu < 1 else _hill_start(nu, s) if nu <= 1e20 else _ndtri(s)
    exact = (nu / (power * power) < _TINY) & (s < 0.5)
    t = np.where(exact, power, np.fmax(start, power))
    todo = np.flatnonzero(~exact & (t != 0.0))
    for _ in range(_QUANTILE_STEPS):
        if todo.size == 0:
            if not np.all(t[s < 0.5] < 0.0):  # a NaN, or a 0 that rounding left
                raise ArithmeticError(f"t quantile at nu = {nu!r} is lost to rounding")
            return t
        tk, sk, log_sk = t[todo], s[todo], log_s[todo]
        tail, log_tail = _tls_tail(nu, tk)
        miss = np.where((tail >= _TINY) & (sk >= _TINY), np.log(tail / sk), log_tail - log_sk)
        r = -tk * np.exp(log_pdf(Tls(0.0, 1.0, nu), tk) - log_tail)
        x = miss / r
        step = x * np.clip(1.0 - 0.5 * x * (1.0 + r - (nu + 1.0) / (1.0 + nu / (tk * tk))), 0.5, 1.5)
        t[todo] = tk * np.exp(step)
        todo = todo[(np.abs(step) > 1e-6) & (np.abs(miss) > 8.0 * _EPS * (1.0 - log_sk))]
    raise ArithmeticError(f"t quantile took more than {_QUANTILE_STEPS} steps")


@_elementwise
def quantile(d: DistSpec, p):
    """Inverse cdf. p must lie strictly inside (0, 1)."""
    if not np.all((p > 0) & (p < 1)):  # also rejects NaN
        raise ValueError("quantile requires 0 < p < 1")
    if isinstance(d, Tls):
        # Solved in the smaller tail and mirrored, so q(1 - p) == -q(p).
        t = _tls_lower_quantile(d.nu, np.minimum(p, 1.0 - p).reshape(-1)).reshape(p.shape)
        return d.mu + d.sigma * np.where(p > 0.5, -t, t)
    if isinstance(d, Gev):
        return d.mu + d.sigma * np.expm1(-d.zeta * np.log(-np.log(p))) / d.zeta
    if isinstance(d, Exponential):
        return -d.mu * np.log1p(-p)
    return d.mu + d.sigma * _ndtri(p)


def _inverse_transform(d: DistSpec, rng, n: int, lo: float, hi: float, what: str) -> np.ndarray:
    """n draws of d from rng on (lo, hi] by inversion (Devroye 1986, II.2): quantile(F(lo) + u (F(hi) - F(lo)))
    for one uniform u >= 2**-53 per draw, clamped into (lo, hi], so draw i uses only uniform i. On the whole line
    a draw is quantile(u), an infinite one keeping its sign. ValueError naming what if the interval is too thin."""
    f_lo, f_hi = cdf(d, np.array([lo, hi], dtype=float)).tolist()
    if not f_hi - f_lo >= _MIN_MASS_SPACINGS * np.spacing(f_hi):
        raise ValueError(
            f"{what}: the interval ({lo!r}, {hi!r}] holds mass {f_hi - f_lo:.3g} under {d}, too little to sample"
        )
    u = rng.random(n)
    np.maximum(u, 2.0 ** -53, out=u)  # random() can yield 0.0, which the quantile rejects
    p = np.clip(f_lo + u * (f_hi - f_lo), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return np.clip(quantile(d, p), lo if lo == -math.inf else np.nextafter(lo, math.inf), hi)


def sample_stream(d: DistSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n values by inverse transform from an existing generator."""
    return _inverse_transform(d, rng, n, -math.inf, math.inf, "sample_stream")


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
    names, each value read by number_from_json. A value that is not such an
    object, an unknown or missing field, and a value that is not a JSON
    number raise ValueError naming what was being read."""
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


def _require(name: str, value, bound: str = "> 0") -> None:
    """ValueError naming name unless value is finite and meets bound: "> 0", ">= 0" or "" (none)."""
    if not math.isfinite(value) or (bound == "> 0" and value <= 0) or (bound == ">= 0" and value < 0):
        raise ValueError(f"{name} must be finite{' and ' + bound if bound else ''}, got {value!r}")


def number_from_json(value, what: str) -> float:
    """float(value) for a JSON number, an int or float that is not a bool;
    ValueError naming what was being read for any other value, or an int past float range."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{what}: expected a number, got {value!r}")
