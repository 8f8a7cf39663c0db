"""Closed-form identities, inverse consistency, and serialization of the
four distribution families."""

import dataclasses
import functools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridparams import distributions
from gridparams.analysis import collect_samples
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
from gridparams.distributions import _NU_SERIES, _ndtri, _tls_constants
from gridparams.fitting import _MIN_ZETA
from gridparams.ingest import BranchKind, BranchRecord, BranchTable, voltage_class_table
from gridparams.per_unit import BaseSpec, rebase_impedance, to_own_base, xr_ratio
from gridparams.profiles import ParameterKind, ReferenceEntry, SummaryRef, ValidationThresholds, builtin_profile
from gridparams.sampler import (
    CalibratedTls,
    SyntheticBranchParams,
    SyntheticTable,
    generate_transformers,
    params_to_branch_records,
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


# ------------------------------------------------- finite-and-positive inputs


@functools.cache
def _transformers():
    return generate_transformers(115.0, 3, seed=5, profile=builtin_profile(), system_mva_base=100.0)


def _table_with(name, v):
    """A two-row SyntheticTable whose second row carries v in column name."""
    good = dict(kind=BranchKind.TRANSFORMER, class_kv=115.0, mva_rating=60.0, x_pu_common=0.1,
                r_pu_common=0.004, xr=25.0, x_pu_own=0.06, r_pu_own=0.0024)
    return SyntheticTable.from_rows([SyntheticBranchParams(**good), SyntheticBranchParams(**{**good, name: v})])


#: Every input that must be finite: (name in the message, bound, a call passing the value in).
_RULES = [
    ("mu", "", lambda v: Tls(v, 1.0, 3.0)),
    ("sigma", "> 0", lambda v: Tls(0.0, v, 3.0)),
    ("nu", "> 0", lambda v: Tls(0.0, 1.0, v)),
    ("mu", "", lambda v: Gev(v, 1.0, 0.1)),
    ("sigma", "> 0", lambda v: Gev(0.0, v, 0.1)),
    ("zeta", "", lambda v: Gev(0.0, 1.0, v)),
    ("mu", "> 0", lambda v: Exponential(v)),
    ("mu", "", lambda v: Normal(v, 1.0)),
    ("sigma", "> 0", lambda v: Normal(0.0, v)),
    ("v_base", "> 0", lambda v: BaseSpec(v, 100.0)),
    ("s_base", "> 0", lambda v: BaseSpec(115.0, v)),
    ("z_pu_given", "", lambda v: rebase_impedance(v, BaseSpec(115.0, 100.0), BaseSpec(115.0, 50.0))),
    ("system_mva_base", "> 0", lambda v: to_own_base(0.1, v, 60.0)),
    ("mva_rating", "> 0", lambda v: to_own_base(0.1, 100.0, v)),
    ("r_pu", "> 0", lambda v: xr_ratio(v, 0.1)),
    ("nominal_kv", "> 0", lambda v: voltage_class_table([v])),
    *[(f"summary {f}", "", lambda v, f=f: SummaryRef(**{f: v})) for f in ("median", "mean", "min", "max", "q10", "q90")],
    ("class_kv", "> 0", lambda v: ReferenceEntry(ParameterKind.LINE_XR, v, family="normal")),
    ("reference_d_kl", ">= 0", lambda v: ReferenceEntry(
        ParameterKind.LINE_XR, 115.0, family="normal", fitted=Normal(8.0, 3.0), reference_d_kl=v)),
    *[(f"threshold {f.name}", ">= 0", lambda v, f=f: ValidationThresholds(**{f.name: v}))
      for f in dataclasses.fields(ValidationThresholds)],
    ("residual", ">= 0", lambda v: CalibratedTls(Tls(0.0, 1.0, 3.0), v)),
    ("system_mva_base", "> 0",
     lambda v: generate_transformers(115.0, 3, seed=5, profile=builtin_profile(), system_mva_base=v)),
    ("system_mva_base", "> 0", lambda v: params_to_branch_records(_transformers(), v)),
    ("lv_kv", "> 0", lambda v: params_to_branch_records(_transformers(), 100.0, lv_kv=v)),
    *[(name, "> 0", lambda v, name=name: _table_with(name, v))
      for name in ("class_kv", "mva_rating", "x_pu_common", "r_pu_common", "xr", "x_pu_own", "r_pu_own")],
]


@pytest.mark.parametrize("name, bound, call", _RULES, ids=[r[0] for r in _RULES])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_input_rule_rejects_non_finite_values(name, bound, call, value):
    message = f"{name} must be finite"
    if name.endswith("_own") and math.isnan(value):  # NaN marks an absent own-base value
        message = "own-base x and r are given for transformers"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call(value)


@pytest.mark.parametrize("name, bound, call", [r for r in _RULES if r[1]], ids=[r[0] for r in _RULES if r[1]])
def test_every_input_rule_applies_its_bound(name, bound, call):
    rejected = (0.0, -1.0) if bound == "> 0" else (-1.0,)
    for value in rejected:
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{name} must be finite and {bound}, got {value!r}"
    if bound == ">= 0" and name != "threshold range_factor":  # range_factor also has a floor of 1
        call(0.0)


def test_a_distribution_names_its_first_bad_field():
    with pytest.raises(ValueError, match="^sigma must be finite and > 0, got -1.0$"):
        Tls(0.0, -1.0, math.nan)


@pytest.mark.parametrize("base", [0.0, -100.0])
def test_collect_checks_a_transformer_base_as_to_own_base_does(base):
    record = BranchRecord("t1", 1, 2, 115.0, 13.8, 0.004, 0.1, 60.0, 1.0, base)
    with pytest.raises(ValueError) as expected:
        to_own_base(record.x_pu, base, record.mva_rating)
    with pytest.raises(ValueError) as got:
        collect_samples(BranchTable.from_records([record]))
    assert str(expected.value) == f"system_mva_base must be finite and > 0, got {base!r}"
    assert str(got.value) == f"branch 't1': {expected.value}"


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


# log_pdf(Tls(0, 1, nu), 0.5) to 20 digits, from 700-digit arithmetic.
_TLS_LOG_PDF_AT_HALF = {
    3.0: -1.1609742649705825621,
    100.0: -1.0475309415716581066,
    1e3: -1.0442978951442882866,
    1e5: -1.0439421269533706189,
    1e7: -1.0439385691421726116,
    1e15: -1.0439385332046731012,
    1e308: -1.0439385332046727418,
}


@pytest.mark.parametrize("nu", sorted(_TLS_LOG_PDF_AT_HALF))
def test_tls_log_pdf_is_exact_at_large_nu(nu):
    # gammaln((nu+1)/2) - gammaln(nu/2) cancels: 4e-11 off at nu = 1e5, NaN at 1e308.
    assert log_pdf(Tls(0.0, 1.0, nu), 0.5) == pytest.approx(_TLS_LOG_PDF_AT_HALF[nu], rel=1e-15)


# (log_pdf, cdf) of Gev(0, 1, zeta) at x, to 20 digits, from 60-digit arithmetic.
_GEV_NEAR_THE_ZETA_CLAMP = {
    (1.5e-6, -2.0): (-5.3890722661660323517, 0.0006179652905907192296),
    (1.5e-6, 0.5): (-1.1065313359368984193, 0.54523914988557772968),
    (1.5e-6, 3.0): (-3.0497851544408264108, 0.95143167315957190593),
    (-1.5e-6, -2.0): (-5.3890399318294382808, 0.00061799268827924044401),
    (-1.5e-6, 0.5): (-1.1065299834879010268, 0.54523927389968981362),
    (-1.5e-6, 3.0): (-3.0497889823154035222, 0.951432312641202556),
}


@pytest.mark.parametrize("zeta, x", sorted(_GEV_NEAR_THE_ZETA_CLAMP))
def test_gev_is_exact_near_the_zeta_clamp(zeta, x):
    # log(1 + zeta*x) of the rounded sum is 1e-16/|zeta| off: 1e-10 relative here.
    d = Gev(0.0, 1.0, zeta)
    expected_log_pdf, expected_cdf = _GEV_NEAR_THE_ZETA_CLAMP[(zeta, x)]
    assert log_pdf(d, x) == pytest.approx(expected_log_pdf, rel=1e-14)
    assert cdf(d, x) == pytest.approx(expected_cdf, rel=1e-14)
    assert pdf(d, x) == pytest.approx(math.exp(expected_log_pdf), rel=1e-14)


# quantile(Gev(0, 1, zeta), p) to 20 digits, from 50-digit arithmetic.
_GEV_QUANTILE_NEAR_THE_ZETA_CLAMP = {
    (1.5e-6, 1e-6): -2.6257867433954163012,
    (1.5e-6, 0.3): -0.18562673301939786878,
    (1.5e-6, 0.9): 2.2503711254315499774,
    (1.5e-6, 0.999999): 13.815653210162789587,
    (-1.5e-6, 1e-6): -2.625797085570183506,
    (-1.5e-6, 0.3): -0.1856267847053382774,
    (-1.5e-6, 0.9): 2.2503635292018882171,
    (-1.5e-6, 0.999999): 13.815366907685537973,
}


@pytest.mark.parametrize("zeta, p", sorted(_GEV_QUANTILE_NEAR_THE_ZETA_CLAMP))
def test_gev_quantile_is_exact_near_the_zeta_clamp(zeta, p):
    # ((-log p)**-zeta - 1)/zeta cancels: 2.8e-10 relative off at p = 0.3.
    expected = _GEV_QUANTILE_NEAR_THE_ZETA_CLAMP[(zeta, p)]
    assert quantile(Gev(0.0, 1.0, zeta), p) == pytest.approx(expected, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    zeta=st.floats(_MIN_ZETA, 10 * _MIN_ZETA).flatmap(lambda z: st.sampled_from([z, -z])),
    p=st.floats(_U_LO, _U_HI),
)
@example(zeta=-1.5e-6, p=0.3)
def test_gev_quantile_round_trips_near_the_zeta_clamp(zeta, p):
    d = Gev(0.0, 1.0, zeta)
    assert abs(cdf(d, quantile(d, p)) - p) <= 1e-13 * p


@pytest.mark.parametrize("nu", [1e15, 1e20, 1e100, 1e300, 1e308])
def test_tls_quantile_at_huge_nu_is_the_normal_quantile(nu):
    # Here the t and normal quantiles agree to double precision; the Newton
    # step after stdtrit divides by the pdf, so it needs the pdf right.
    assert quantile(Tls(0.1, 0.05, nu), 0.3) == pytest.approx(0.07377997436459796, rel=1e-15)


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


# cdf(Tls(0, 1, nu), t) to 20 digits, from the regularized incomplete beta at 60
# digits. Values below the float range are written as 0.0.
_TLS_CDF = {
    (0.01, -1.3e154): 1.3958475898054050863e-2,
    (0.01, -1e150): 1.5345372478456922393e-2,
    (0.01, -1e10): 3.8545832915096482367e-1,
    (0.01, -2.5): 4.8083524049271540899e-1,
    (0.01, 0.0): 0.5,
    (0.01, 3.0): 5.2004003817731322446e-1,
    (0.01, 1e150): 9.8465462752154307761e-1,
    (0.01, 1.3e154): 9.8604152410194594914e-1,
    (1.1, -1.3e154): 9.7123377028819841755e-171,
    (1.1, -1e150): 3.2558280630062401868e-166,
    (1.1, -1e10): 3.2558280630063333373e-12,
    (1.1, -2.5): 1.1179613025036933382e-1,
    (1.1, 0.0): 0.5,
    (1.1, 3.0): 9.068819588038172317e-1,
    (1.1, 1e150): 1.0,
    (1.1, 1.3e154): 1.0,
    (3.0, -1.3e154): 0.0,  # 5.0e-463
    (3.0, -1e150): 0.0,  # 1.1e-450
    (3.0, -1e10): 1.102657790843584099e-30,
    (3.0, -2.5): 4.3853323504032773625e-2,
    (3.0, 0.0): 0.5,
    (3.0, 3.0): 9.7116555718878134571e-1,
    (3.0, 1e150): 1.0,
    (3.0, 1.3e154): 1.0,
    (50.0, -1.3e154): 0.0,  # 3.4e-7665
    (50.0, -1e150): 0.0,  # 1.7e-7459
    (50.0, -1e10): 0.0,  # 1.7e-459
    (50.0, -2.5): 7.872479136560001623e-3,
    (50.0, 0.0): 0.5,
    (50.0, 3.0): 9.9789914840646587637e-1,
    (50.0, 1e150): 1.0,
    (50.0, 1.3e154): 1.0,
    # A subnormal tail, which scipy's stdtr flushes to 0.
    (3.0, -2.2257698238224064e103): 1.0000000000000480566e-310,
}


@pytest.mark.parametrize("nu, t", sorted(_TLS_CDF))
def test_tls_cdf_matches_high_precision_values(nu, t):
    expected = _TLS_CDF[(nu, t)]
    rel = 1e-14 if expected >= 1e-20 else 1e-12
    assert cdf(Tls(mu=0.0, sigma=1.0, nu=nu), t) == pytest.approx(expected, rel=rel, abs=0.0)


# quantile(Tls(0, 1, nu), p) to 20 digits, from 80-digit arithmetic.
_TLS_QUANTILE_FAR_TAIL = {
    (10.0, 1e-200): -2.5645257189481978326e20,
    (10.0, 1e-310): -2.5645257189481986115e31,
    (10.0, 5e-324): -5.4907110967913065254e32,
    (50.0, 1e-200): -66752.890262162702337,
    (50.0, 1e-310): -10579620.19357347486,
    (50.0, 5e-324): -19525150.214148508937,
    (200.0, 1e-200): -138.20172121794638066,
    (200.0, 1e-310): -492.70425994810907928,
    (200.0, 5e-324): -574.33378797852166122,
    (1e3, 1e-200): -38.617194453226750799,
    (1e3, 1e-310): -55.977986263897101721,
    (1e3, 5e-324): -58.263765237171187156,
}


@pytest.mark.parametrize("nu, p", sorted(_TLS_QUANTILE_FAR_TAIL))
def test_tls_quantile_matches_high_precision_values_in_the_far_tail(nu, p):
    # The power-law start alone is 4e-4 off at nu = 200 and 15 % at nu = 1e3.
    expected = _TLS_QUANTILE_FAR_TAIL[(nu, p)]
    assert quantile(Tls(mu=0.0, sigma=1.0, nu=nu), p) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("nu", [1e20, 1e100, 1e308])
@pytest.mark.parametrize("p", [1e-200, 1e-310, 5e-324])
def test_tls_quantile_in_the_far_tail_at_huge_nu_is_the_normal_quantile(nu, p):
    # betaincinv's x = nu / (nu + t**2) rounds to 1 here; the parent returned mu.
    from scipy.special import ndtri

    assert quantile(Tls(mu=0.0, sigma=1.0, nu=nu), p) == pytest.approx(float(ndtri(p)), rel=1e-13)


# Differential tests against scipy.special, which the package no longer calls to
# fit or score. Each tolerance is a few times the largest gap a survey of 10^4
# random inputs found (see CHANGES.md); the gaps grow with the condition number,
# so they are set per range.
_LOG_NU = st.floats(math.log(0.05), math.log(1e8)).map(math.exp)
_T_OVERFLOW = math.sqrt(np.finfo(float).max)  # 1.34e154: t*t overflows beyond it


@settings(max_examples=500, deadline=None)
@given(
    nu=_LOG_NU,
    t=st.one_of(
        st.floats(-40.0, 40.0),
        st.tuples(st.floats(math.log(1e-3), math.log(_T_OVERFLOW)), st.sampled_from([-1.0, 1.0]))
        .map(lambda pair: pair[1] * math.exp(pair[0])),
    ),
)
@example(nu=3.0, t=-2.5)
@example(nu=1e8, t=-37.5)
def test_tls_cdf_agrees_with_stdtr(nu, t):
    from scipy.special import stdtr

    assume(nu != 1.0)  # stdtr(1, t) is 0.5 for |t| <= 1e-9, 3e-10 off (scipy 1.17)
    got, ref = cdf(Tls(0.0, 1.0, nu), t), float(stdtr(nu, t))
    if ref >= 1e-20:
        assert got == pytest.approx(ref, rel=5e-14)
    elif ref >= 1e-300:
        assert got == pytest.approx(ref, rel=1e-12)
    else:  # stdtr flushes subnormal tails to 0
        assert got < 1e-299


@settings(max_examples=500, deadline=None)
@given(z=st.floats(-38.0, 38.0))
@example(z=-37.66812550298292)
def test_normal_cdf_agrees_with_ndtr(z):
    # Both round x = z/sqrt(2) first, and the tail's relative error is z*z times that.
    from scipy.special import ndtr

    # ndtr flushes subnormal tails to 0.
    assert cdf(Normal(0.0, 1.0), z) == pytest.approx(float(ndtr(z)), rel=1e-15 * (1.0 + z * z), abs=_TINY)


_AT_NU_SERIES = [np.nextafter(_NU_SERIES, 0.0), _NU_SERIES, np.nextafter(_NU_SERIES, math.inf)]


@settings(max_examples=300, deadline=None)
@given(nu=st.one_of(st.floats(math.log(0.05), math.log(_NU_SERIES)).map(math.exp),
                    st.sampled_from(_AT_NU_SERIES)))
def test_tls_constant_and_score_term_agree_with_betaln_and_digamma(nu):
    from scipy.special import betaln, digamma

    assert _tls_constants(nu)[0] == pytest.approx(-betaln(nu / 2.0, 0.5) - 0.5 * math.log(nu), rel=5e-14)
    # digamma((nu+1)/2) - digamma(nu/2) cancels, so the gap scales with the terms.
    psi = 0.5 * nu * digamma((nu + 1.0) / 2.0)
    score_term = psi - 0.5 * nu * digamma(nu / 2.0) - 0.5
    assert abs(0.5 * _tls_constants(nu)[1] - score_term) <= 5e-15 * max(1.0, abs(psi))


def test_tls_constant_and_score_term_are_continuous_at_the_series():
    below, at, above = (_tls_constants(float(nu)) for nu in _AT_NU_SERIES)
    for shifted in (below, at):
        assert shifted[0] == pytest.approx(above[0], rel=1e-15)
        assert shifted[1] == pytest.approx(above[1], rel=1e-13)


def test_tls_constants_are_continuous_at_the_small_nu_limit():
    shifted, limit = _tls_constants(1e-20), _tls_constants(float(np.nextafter(1e-20, 0.0)))
    assert shifted[0] == pytest.approx(limit[0], rel=1e-15)
    assert shifted[1] == pytest.approx(limit[1], rel=1e-15)


_TINY_NU = [5e-324, 1e-320, 1e-310, 1e-300]


@pytest.mark.parametrize("nu", _TINY_NU)
def test_tls_constants_at_tiny_nu_are_the_small_nu_limit(nu):
    # As nu -> 0 the standard t density at 0 tends to sqrt(nu)/2, and h to 1.
    log_f0, h = _tls_constants(nu)
    assert log_f0 == pytest.approx(0.5 * math.log(nu) - math.log(2.0), rel=1e-15)
    assert h == 1.0


@pytest.mark.parametrize("nu", _TINY_NU)
def test_tls_log_pdf_and_cdf_at_tiny_nu(nu):
    # As nu -> 0 the density tends to nu/(2|z|) where z*z >> nu, and the mass
    # escapes to both infinities: the cdf is 1/2 to rounding at every finite z.
    d = Tls(0.0, 1.0, nu)
    z = np.array([-1e300, -1.0, -1e-100, 1e-100, 1.0, 1e300, 0.0])  # z*z/nu overflows beside z = 0
    got = log_pdf(d, z)
    np.testing.assert_allclose(got[:-1], math.log(nu) - math.log(2.0) - np.log(np.abs(z[:-1])), rtol=1e-14)
    assert got[-1] == _tls_constants(nu)[0]
    np.testing.assert_allclose(cdf(d, np.array([-1e300, -1.0, -1e-300, 0.0, 1e-300, 1.0, 1e300])), 0.5,
                               rtol=0.0, atol=1e-14)
    assert cdf(d, -math.inf) == 0.0 and cdf(d, math.inf) == 1.0


@pytest.mark.parametrize("nu", [1e6, 1e15, 1e308])
def test_tls_cdf_at_huge_nu_is_the_normal_cdf(nu):
    # The gap to the normal cdf is phi(t) (t**3 + t) / (4 nu) + O(nu**-2).
    from scipy.special import ndtr

    t = np.linspace(-37.0, 8.0, 451)
    got, ref = cdf(Tls(0.0, 1.0, nu), t), ndtr(t)
    gap = np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi) * (np.abs(t) ** 3 + np.abs(t)) / (2.0 * nu)
    # Plus a few ulps of 1: above t = 0 both are 1 minus a tail.
    assert np.all(np.abs(got - ref) <= 1e-15 * (1.0 + t * t) * np.minimum(ref, 1.0 - ref) + gap + 1e-15)


@pytest.mark.parametrize("nu", [0.05, 0.5, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8, 1e300])
def test_tls_cdf_is_monotone_across_the_continued_fraction_switch(nu):
    switch = math.sqrt(3.0 * nu / (nu + 2.0))  # |t| where the two continued fractions meet
    t = np.sort(np.outer([-switch, switch], 1.0 + 1e-12 * np.arange(-1000, 1001)), axis=None)
    assert np.all(np.diff(cdf(Tls(0.0, 1.0, nu), t)) >= 0)


@pytest.mark.parametrize("nu", [0.01, 0.5, 1.1, 2.0])
def test_tls_cdf_is_monotone_across_the_overflow_of_t_squared(nu):
    t = -np.logspace(math.log10(1.3e154), math.log10(1.4e154), 2001)[::-1]
    c = cdf(Tls(0.0, 1.0, nu), t)
    assert np.all(c > 0) and np.all(np.diff(c) >= 0)


@settings(max_examples=500, deadline=None)
@given(nu=st.floats(math.log(1e-3), math.log(1e308)).map(math.exp),
       t=st.floats(allow_nan=False))
@example(nu=1e16, t=-1.7320508075688776)  # the slowest continued fraction: just past the switch
@example(nu=0.05, t=-0.27)
def test_tls_cdf_never_exceeds_the_iteration_cap(nu, t):
    # Past _CF_TERMS terms the continued fraction raises ArithmeticError.
    assert 0.0 <= cdf(Tls(0.0, 1.0, nu), t) <= 1.0


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


# quantile(Normal(0, 1), p) to 20 digits, from 60-digit arithmetic at the float p.
_NORMAL_QUANTILE = {
    5e-324: -38.467405617144346251,
    1e-310: -37.663060331949523732,
    1e-300: -37.047096299361199237,
    1e-100: -21.273453560965324294,
    1e-20: -9.2623400897984075796,
    2.0**-53: -8.2095361516013868556,
    1e-10: -6.3613409024040561991,
    0.01: -2.3263478740408410931,
    0.025: -1.9599639845400542118,
    0.075: -1.4395314709384559349,  # the edge of the central approximation
    0.3: -0.52440051270804081597,
    0.4999: -0.00025066283008800749239,
    0.5 - 2.0**-54: -1.3914582123358834611e-16,
    0.5: 0.0,
    0.6: 0.25334710313579974132,
    0.925: 1.4395314709384562291,
    0.975: 1.9599639845400538556,
    0.999: 3.0902323061678132778,
    1.0 - 2.0**-53: 8.2095361516013868556,
}


@pytest.mark.parametrize("p", sorted(_NORMAL_QUANTILE))
def test_normal_quantile_matches_high_precision_values(p):
    assert quantile(Normal(0.0, 1.0), p) == pytest.approx(_NORMAL_QUANTILE[p], rel=1e-15, abs=0.0)


@settings(max_examples=500, deadline=None)
@given(p=st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(math.log(5e-324), 0.0).map(math.exp),
    st.floats(math.log(_U_LO), math.log(0.5)).map(lambda x: 1.0 - math.exp(x)),
).filter(lambda p: 0.0 < p < 1.0))
@example(p=5e-324)
@example(p=0.075)
@example(p=_U_HI)
def test_normal_quantile_agrees_with_ndtri(p):
    # A survey of 10^4 random inputs found gaps up to 8.4e-16 relative (see CHANGES.md).
    from scipy.special import ndtri

    assert float(_ndtri(np.array(p))) == pytest.approx(float(ndtri(p)), rel=2.5e-15, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(nu=st.one_of(
    st.floats(0.0, math.log(1e308)).map(math.exp).filter(lambda nu: nu > 1.0),
    st.sampled_from([float(np.nextafter(1.0, 2.0)), 1e20, float(np.nextafter(1e20, math.inf)), 1e308]),
))
def test_tls_quantile_at_the_sampler_extremes_is_finite_and_mirrored(nu):
    # Any nu that generate --nu accepts; past its step cap the quantile raises ArithmeticError.
    lo, hi = quantile(Tls(0.0, 1.0, nu), np.array([_U_LO, _U_HI]))
    assert math.isfinite(lo) and hi == -lo


def test_tls_quantile_at_the_default_nu_mostly_takes_one_step(monkeypatch):
    # Hill's start is within 1e-6 of most quantiles at nu = 3, and one second-order
    # step from there is exact: the t tail is evaluated about once per draw.
    sizes = []
    tail = distributions._tls_tail
    monkeypatch.setattr(distributions, "_tls_tail", lambda nu, t: sizes.append(t.size) or tail(nu, t))
    u = np.random.default_rng(0).random(10**4)
    quantile(Tls(0.0, 1.0, 3.0), u)
    assert len(sizes) <= 2 and sum(sizes) <= 1.15 * u.size


def test_tls_quantile_below_nu_one_past_the_overflow_of_t_squared():
    # A 60-digit value. A solver that stops where t*t overflows ends near -1.7e154 here.
    assert quantile(Tls(0.0, 1.0, 0.25), 1e-45) == pytest.approx(-1.7046933308426472684e178, rel=1e-10)


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(0.05, 1.0),
       p=st.one_of(st.floats(1e-100, 0.5), st.floats(math.log(1e-100), math.log(0.5)).map(math.exp)))
@example(nu=0.25, p=1e-45)
@example(nu=0.05, p=0.5 - 2.0**-54)
def test_tls_quantile_below_nu_one_round_trips(nu, p):
    d = Tls(0.0, 1.0, nu)
    q = quantile(d, p)
    assert not math.isnan(q)
    if math.isfinite(q):
        assert abs(cdf(d, q) - p) <= 1e-12 * p


@pytest.mark.parametrize("nu", [1e-300, 1e-12, 3e-11, 1e-9])
def test_tls_quantile_at_tiny_nu_stops_within_rounding(nu):
    # The tail is so flat that its last-digit noise alone makes steps above 1e-6;
    # a miss within rounding ends them. At 1/2 the quantile is 0 for any nu.
    p = np.array([0.5, 0.4999999995, 0.49999999999, 0.5 - 2.0**-40, 0.3, 1e-300])
    q = quantile(Tls(0.0, 1.0, nu), p)
    finite = np.isfinite(q)
    assert q[0] == 0.0 and np.all(q[~finite] == -np.inf)  # beyond the largest float
    assert np.all(np.abs(cdf(Tls(0.0, 1.0, nu), q[finite]) - p[finite]) <= 1e-12 * p[finite])


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(math.log(5e-324), math.log(1e-10)).map(math.exp) | st.sampled_from([5e-324, 1e-311, 2e-19]),
       p=st.floats(0.25, 0.5) | st.integers(1, 2**20).map(lambda k: 0.5 - k * 2.0**-54) | st.floats(1e-300, 0.25))
@example(nu=4.33472636523914e-30, p=0.49999999999999756)
@example(nu=1e-311, p=0.25)
@example(nu=2e-19, p=0.5 - 2.0**-54)  # the quantile is finite, near -1e231, and lost to rounding
def test_tls_quantile_at_tiny_nu_is_never_nan(nu, p):
    d = Tls(0.0, 1.0, nu)
    try:
        q = quantile(d, p)
    except ArithmeticError:
        return
    assert not math.isnan(q) and (q == 0.0) == (p == 0.5)
    if 1.0 - (1.0 - p) == p:  # 1 - p is exact
        assert quantile(d, 1.0 - p) == -q
    if nu < 1e-19:  # every tail from 2**-54 below 1/2 lies past float range
        assert q == (0.0 if p == 0.5 else -math.inf)


def test_tls_quantile_past_float_range_at_tiny_nu_is_infinite():
    assert quantile(Tls(0.0, 1.0, 4.33472636523914e-30), 0.49999999999999756) == -math.inf
    assert quantile(Tls(0.0, 1.0, 1e-311), [0.25, 0.5, 0.75]).tolist() == [-math.inf, 0.0, math.inf]


_TLS_QUANTILE_GRID = Path(__file__).parent / "data" / "tls_quantile_grid.json"


def test_tls_quantiles_are_pinned():
    # Bit-for-bit, on a (nu, p) grid from nu = 0.05 to 1e25 that covers each
    # start and tail method; generate draws at nu = 3.
    grid = json.loads(_TLS_QUANTILE_GRID.read_text(encoding="utf-8"))
    p = np.array([float(v) for v in grid["p"]])
    for nu, expected in grid["quantiles"].items():
        assert [repr(float(q)) for q in quantile(Tls(0.0, 1.0, float(nu)), p)] == expected, nu


def test_tls_log_pdf_past_the_overflow_of_z_squared():
    # z*z/nu overflows here: formed as it is, it gave -inf and an overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_pdf(Tls(0.0, 1.0, 0.5), 1e160) == pytest.approx(-554.45081562990243266, rel=1e-14)


@pytest.mark.parametrize("nu", [0.05, 0.5, 3.0])
def test_tls_log_pdf_is_monotone_across_the_overflow_of_z_squared(nu):
    z = math.sqrt(np.finfo(float).max) * math.sqrt(nu) * (1.0 + 1e-12 * np.arange(-50, 51))
    lp = log_pdf(Tls(0.0, 1.0, nu), z)
    assert np.all(np.isfinite(lp)) and np.all(np.diff(lp) <= 0)


def test_tls_with_an_integer_nu_is_the_float_nu():
    # An int nu once sent np.ldexp to numpy's float16 loop: cdf at -63.6 was 14 % off.
    t = np.array([-63.60496914, -2.5, 0.3, 1e160])
    assert np.array_equal(cdf(Tls(0, 1, 5), t), cdf(Tls(0.0, 1.0, 5.0), t))
    assert np.array_equal(quantile(Tls(0, 1, 5), [1e-8, 0.3]), quantile(Tls(0.0, 1.0, 5.0), [1e-8, 0.3]))


# ------------------------------------------- the four functions' shared contract


_ONE_OF_EACH = [Tls(0.5, 2.0, 3.0), Gev(0.5, 2.0, 0.2), Exponential(2.0), Normal(0.5, 2.0)]
_FUNCTIONS = [log_pdf, pdf, cdf, quantile]
# x inside and outside each support, and p inside (0, 1) for quantile.
_POINTS = {"x": np.array([[-20.0, -1.0, 0.0], [0.75, 3.0, 50.0]]),
           "p": np.array([[1e-300, 0.01, 0.25], [0.5, 0.9, 1.0 - 2.0 ** -53]])}


@pytest.mark.parametrize("fn", _FUNCTIONS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("d", _ONE_OF_EACH, ids=family_tag)
def test_a_scalar_gives_a_float_and_an_array_keeps_its_shape_and_bits(fn, d):
    points = _POINTS["p" if fn is quantile else "x"]
    for x in (float(points[0, 2]), np.array(points[0, 2])):
        assert type(fn(d, x)) is float
    for arr in (points[1], points):
        out = fn(d, arr)
        assert isinstance(out, np.ndarray) and out.shape == arr.shape
        assert [float(v).hex() for v in out.flat] == [fn(d, float(v)).hex() for v in arr.flat]


@pytest.mark.parametrize("fn", _FUNCTIONS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("not_a_spec", [None, {"mu": 0.0, "sigma": 1.0}, (0.0, 1.0)], ids=["None", "dict", "tuple"])
def test_anything_but_a_spec_is_a_type_error(fn, not_a_spec):
    with pytest.raises(TypeError, match="not a distribution spec"):
        fn(not_a_spec, 0.5)


def test_a_subclass_of_a_family_is_not_a_spec():
    # As family_tag, and so to_json, already had it: a spec is an instance of one of the four types.
    class Shifted(Normal):
        pass

    for fn in _FUNCTIONS:
        with pytest.raises(TypeError, match="not a distribution spec"):
            fn(Shifted(0.0, 1.0), 0.5)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_SIGNED = st.sampled_from([-1.0, 1.0])
_MU, _SIGMA = st.floats(-1e300, 1e300), _log_uniform(1e-300, 1e300)
_SPECS_ACROSS_FLOAT_RANGE = st.one_of(
    st.builds(Tls, mu=_MU, sigma=_SIGMA, nu=_log_uniform(1e-5, 1e30)),
    st.builds(Gev, mu=_MU, sigma=_SIGMA, zeta=st.builds(lambda s, z: s * z, _SIGNED, _log_uniform(1e-6, 10.0))),
    st.builds(Exponential, mu=_SIGMA),
    st.builds(Normal, mu=_MU, sigma=_SIGMA),
)


@settings(max_examples=500, deadline=None)
@given(
    d=_SPECS_ACROSS_FLOAT_RANGE,
    x=st.one_of(st.floats(-1.7e308, 1.7e308), st.just(0.0), st.floats(-_TINY, _TINY)),
    p=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), _log_uniform(1e-320, 0.5)),
)
@example(d=Gev(0.0, 1e-300, -0.5), x=-1e300, p=0.5)  # log_pdf was NaN: the density there is 0
@example(d=Tls(0.0, 1e-300, 3.0), x=1e300, p=0.5)  # (x - mu)/sigma overflowed with a warning
@example(d=Gev(0.0, 1e300, 1.5), x=0.0, p=1.0 - 2.0 ** -53)  # quantiles past float range warned
@example(d=Tls(0.0, 1e300, 3.0), x=0.0, p=1e-300)
def test_the_four_functions_are_total_on_valid_specs(d, x, p):
    # The suite makes every warning an error, so this also asserts that none is raised.
    values = [log_pdf(d, x), pdf(d, x), cdf(d, x), quantile(d, p)]
    assert not any(math.isnan(v) for v in values), values
    assert 0.0 <= values[2] <= 1.0
    assert values[1] >= 0.0


@settings(max_examples=500, deadline=None)
@given(_SPECS_ACROSS_FLOAT_RANGE)
def test_cdf_is_exactly_0_and_1_at_the_infinities(d):
    # The reactance calibration divides by the mass of its default window (-inf, inf], which must be 1.0 exactly.
    assert cdf(d, np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]


def test_quantiles_past_float_range_are_infinite():
    assert quantile(Gev(0.0, 1e300, 1.5), 1.0 - 2.0 ** -53) == math.inf
    assert quantile(Tls(0.0, 1e300, 3.0), 1e-300) == -math.inf


def test_gev_divides_first_where_the_product_overflows():
    # zeta*(x - mu) = 1e309 is past float range, zeta*((x - mu)/sigma) = 1e9 is not:
    # the cdf read 1.0 and log_pdf -inf when the product was taken first.
    d, s = Gev(0.0, 1e300, 10.0), 1.0 + 1e9
    assert cdf(d, 1e308) == pytest.approx(math.exp(-s ** -0.1), rel=1e-15)  # 0.8817095891765213
    expected = -math.log(1e300) - 1.1 * math.log(s) - s ** -0.1  # -713.6970128611216
    assert log_pdf(d, 1e308) == pytest.approx(expected, rel=1e-15)


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


@pytest.mark.parametrize(
    "params", [None, [1.0], {"mu": 0.0}, {"mu": 0.0, "sigma": None}, {"mu": 0.0, "sigma": 1.0, "nu": 3.0}]
)
def test_from_json_names_malformed_params(params):
    with pytest.raises(ValueError, match="normal params"):
        from_json({"family": "normal", "params": params})


def test_number_from_json_takes_only_an_int_or_float_that_is_not_a_bool():
    for value in (3, 2.5, -0.0, math.inf):
        got = distributions.number_from_json(value, "x")
        assert type(got) is float and got == value
    for value in (True, False, "0.5", "115", None, [1.0], {"v": 1}, 10**400):
        with pytest.raises(ValueError, match=f"^x: expected a number, got {re.escape(repr(value))}$"):
            distributions.number_from_json(value, "x")
