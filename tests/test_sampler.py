"""Reactance calibration and synthetic parameter generation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridparams import sampler
from gridparams.distributions import Exponential, Gev, Normal, Tls, cdf, quantile, sample_stream
from gridparams.ingest import (
    BranchKind,
    BranchRecord,
    BranchTable,
    assign_voltage_class,
    classify_branch,
    serialize_branch_csv,
    voltage_class_table,
)
from gridparams.profiles import (
    BandRef,
    ParameterKind,
    ReferenceEntry,
    SummaryRef,
    builtin_profile,
    lookup,
)
from gridparams.sampler import (
    DEFAULT_LINE_REACTANCE_MEAN,
    PARAMS_CSV_HEADER,
    CalibratedTls,
    SyntheticBranchParams,
    SyntheticTable,
    calibrate_reactance_tls,
    generate_lines,
    generate_transformers,
    params_csv,
    params_to_branch_records,
)


def _band_target(kv=115.0):
    return lookup(
        builtin_profile(), ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, kv
    )


def _line_profile():
    """Builtin profile with fitted line parameters filled in."""
    profile = builtin_profile()
    out = []
    for e in profile:
        if e.kind is ParameterKind.LINE_CAPACITY:
            e = ReferenceEntry(
                kind=e.kind, class_kv=e.class_kv, summary=e.summary,
                band=e.band, family=e.family, fitted=Normal(180.0, 60.0),
            )
        elif e.kind is ParameterKind.LINE_XR:
            e = ReferenceEntry(
                kind=e.kind, class_kv=e.class_kv, summary=e.summary,
                band=e.band, family=e.family, fitted=Normal(8.0, 3.0),
            )
        out.append(e)
    return out


# -------------------------------------------------------------- calibration


def test_calibration_hits_median_and_band():
    entry = _band_target()
    band = entry.band
    cal = calibrate_reactance_tls(entry)
    d = cal.dist
    assert d.mu == entry.summary.median  # exact by construction
    mass = cdf(d, band.hi) - cdf(d, band.lo)
    assert mass == pytest.approx(band.fraction, abs=1e-6)
    assert cal.residual <= 1e-6


def test_calibration_truncated_mass():
    entry = _band_target()
    band = entry.band
    cal = calibrate_reactance_tls(entry, truncate_to=(0.0, entry.summary.max))
    d = cal.dist
    total = cdf(d, entry.summary.max) - cdf(d, 0.0)
    mass = (cdf(d, band.hi) - cdf(d, band.lo)) / total
    assert mass == pytest.approx(band.fraction, abs=1e-6)
    # conditioning shifts the raw sigma relative to the untruncated solve
    raw = calibrate_reactance_tls(entry)
    assert d.sigma != raw.dist.sigma


def test_calibration_rejects_bad_nu():
    entry = _band_target()
    with pytest.raises(ValueError):
        calibrate_reactance_tls(entry, nu=1.0)


def test_calibration_unachievable_fraction():
    # mass of 1.0 on a finite band is out of reach for any scale
    entry = _band_target()
    fake = ReferenceEntry(
        kind=entry.kind,
        class_kv=entry.class_kv,
        summary=entry.summary,
        band=BandRef(lo=entry.band.lo, hi=entry.band.hi, fraction=1.0),
        family=entry.family,
    )
    with pytest.raises(ValueError, match="supremum"):
        calibrate_reactance_tls(fake)


def _band_entry(median, lo, hi, fraction):
    entry = _band_target()
    return ReferenceEntry(kind=entry.kind, class_kv=entry.class_kv, summary=SummaryRef(median=median),
                          band=BandRef(lo=lo, hi=hi, fraction=fraction), family=entry.family)


def test_calibration_halves_the_scale_until_the_band_mass_is_reached():
    # The band is 1e50 times wider than the median's gap to its lower edge, so
    # the mass first reaches the fraction about 220 halvings down.
    lo = math.nextafter(1.0, 0.0)
    d = calibrate_reactance_tls(_band_entry(1.0, lo, 1e50, 0.9)).dist
    assert float(cdf(d, 1e50) - cdf(d, lo)) == pytest.approx(0.9, abs=1e-6)


def test_calibration_bisects_a_bracket_of_many_orders_of_magnitude():
    # The bracket runs from sigma = 6.8e-17 to 5e299: 500 halvings of it
    # stopped short with a residual of 0.4, and the bisection now ends only
    # when the bracket is two adjacent floats.
    lo = math.nextafter(1.0, 0.0)
    cal = calibrate_reactance_tls(_band_entry(1.0, lo, 1e300, 0.9))
    assert cal.residual <= 1e-6
    assert float(cdf(cal.dist, 1e300) - cdf(cal.dist, lo)) == pytest.approx(0.9, abs=1e-6)


def test_calibration_solves_at_a_one_point_bracket():
    # The first guess, half the band width, has the band fraction as its mass exactly.
    sigma = 0.5 * (0.2 - 0.05)
    edges = cdf(Tls(0.1291, sigma, 3.0), np.array([0.05, 0.2]))
    cal = calibrate_reactance_tls(_band_entry(0.1291, 0.05, 0.2, float(edges[1] - edges[0])))
    assert cal == CalibratedTls(Tls(0.1291, sigma, 3.0), 0.0)


def test_calibration_that_cannot_reach_the_tolerance_reports_the_last_residual():
    # sigma_lo = 5e-324 and sigma_hi = 1e-323 are adjacent from the start.
    with pytest.raises(ArithmeticError, match=r"tolerance 1e-06; last residual 0\.191002"):
        calibrate_reactance_tls(_band_entry(1e-323, 0.0, 2e-323, 0.8))


def test_calibration_unachievable_truncated_infimum():
    # truncating to a window barely wider than the band keeps nearly all
    # conditional mass inside it, so a small target is unreachable
    entry = _band_target()
    fake = ReferenceEntry(
        kind=entry.kind,
        class_kv=entry.class_kv,
        summary=entry.summary,
        band=BandRef(lo=0.05, hi=0.2, fraction=0.10),
        family=entry.family,
    )
    with pytest.raises(ValueError, match="infimum"):
        calibrate_reactance_tls(fake, truncate_to=(0.0, 0.25))


def test_calibration_requires_median_inside_truncation():
    with pytest.raises(ValueError, match=r"^truncation interval \(0\.0, 0\.001\] must contain the median 0\.1291$"):
        calibrate_reactance_tls(_band_target(), truncate_to=(0.0, 1e-3))


def test_calibration_requires_median_inside_band():
    entry = _band_target()
    fake = ReferenceEntry(
        kind=entry.kind,
        class_kv=entry.class_kv,
        summary=SummaryRef(median=0.5, min=0.0001, max=1.0),
        band=entry.band,
        family=entry.family,
    )
    with pytest.raises(ValueError):
        calibrate_reactance_tls(fake)


_LOG_UNIFORM = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(
    mu=_LOG_UNIFORM,
    band=st.tuples(_LOG_UNIFORM, _LOG_UNIFORM),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    window=st.tuples(*[st.one_of(st.just(math.inf), _LOG_UNIFORM)] * 2),
    nu=st.sampled_from([1.5, 3.0, 30.0]),
)
def test_calibration_solves_the_conditional_mass_of_the_band_inside_the_window(mu, band, fraction, window, nu):
    # Band and window reach mu times a factor below and above the median; each
    # side of the window may lie inside the band, outside it or at infinity.
    lo, hi = mu - mu * band[0], mu + mu * band[1]
    t_lo, t_hi = mu - mu * window[0], mu + mu * window[1]
    try:
        cal = calibrate_reactance_tls(_band_entry(mu, lo, hi, fraction), nu, truncate_to=(t_lo, t_hi))
    except (ValueError, ArithmeticError):
        return
    assert cal.dist.mu == mu and cal.dist.nu == nu
    f = [float(cdf(cal.dist, x)) for x in (max(lo, t_lo), min(hi, t_hi), t_lo, t_hi)]
    assert abs((f[1] - f[0]) / (f[3] - f[2]) - fraction) <= 1e-6


# ------------------------------------------------------------- transformers


def test_generate_transformers_invariants():
    items = generate_transformers(115.0, 200, seed=20260816, profile=builtin_profile(), system_mva_base=100.0)
    assert len(items) == 200
    entry_mva = lookup(builtin_profile(), ParameterKind.TRANSFORMER_MVA_RATING, 115.0)
    entry_x = _band_target()
    entry_xr = lookup(builtin_profile(), ParameterKind.TRANSFORMER_XR, 115.0)
    for it in items:
        assert it.kind is BranchKind.TRANSFORMER
        assert it.class_kv == 115.0
        assert entry_mva.summary.min <= it.mva_rating <= entry_mva.summary.max
        assert 0.0 < it.x_pu_own <= entry_x.summary.max
        assert 0.0 < it.xr <= entry_xr.summary.max
        # X/R consistency holds bit-exactly on both bases
        assert it.xr == it.x_pu_own / it.r_pu_own
        assert it.xr == pytest.approx(it.x_pu_common / it.r_pu_common, rel=1e-9)
        # base conversion: common-base X scales by S_sys / rating
        assert it.x_pu_common * it.mva_rating == pytest.approx(
            it.x_pu_own * 100.0, rel=1e-12
        )


def test_generate_transformers_deterministic():
    kw = dict(profile=builtin_profile(), system_mva_base=100.0)
    a = generate_transformers(138.0, 50, seed=99, **kw)
    b = generate_transformers(138.0, 50, seed=99, **kw)
    assert list(a) == list(b)
    c = generate_transformers(138.0, 50, seed=100, **kw)
    assert list(a) != list(c)


def test_generate_transformers_unknown_class():
    with pytest.raises(ValueError, match="345"):
        generate_transformers(345.0, 10, seed=0, profile=builtin_profile(), system_mva_base=100.0)


def test_generate_transformers_rejects_bad_n():
    with pytest.raises(ValueError):
        generate_transformers(115.0, 0, seed=0, profile=builtin_profile(), system_mva_base=100.0)


def _with_115kv_mva_range(lo, hi):
    """The builtin profile with the 115 kV MVA rating summary's range set to [lo, hi]."""
    return [
        dataclasses.replace(e, summary=SummaryRef(median=lo, min=lo, max=hi))
        if e.kind is ParameterKind.TRANSFORMER_MVA_RATING and e.class_kv == 115.0 else e
        for e in builtin_profile()
    ]


def test_rejection_cap_trips():
    # an MVA summary whose range is a hairline sliver holds about 38 representable p values
    profile = _with_115kv_mva_range(3000.0, 3000.0000001)
    with pytest.raises(ValueError, match="TransformerMvaRating"):
        generate_transformers(115.0, 100, seed=1, profile=profile, system_mva_base=100.0)


def test_a_far_tail_rating_range_is_sampled_in_one_pass():
    # (1e5, 2e5] holds mass 3.4e-9 under the 115 kV GEV, about 3e7 representable
    # p values: enough to draw 10,000 ratings inside it in one pass.
    table = generate_transformers(115.0, 10_000, seed=1, profile=_with_115kv_mva_range(1e5, 2e5),
                                  system_mva_base=100.0)
    assert len(table) == 10_000
    assert np.all((table.mva_rating > 1e5) & (table.mva_rating <= 2e5))
    assert np.unique(table.mva_rating).size > 9_900


def test_the_sampler_has_no_round_cap():
    assert not hasattr(sampler, "MAX_REJECTION_ROUNDS")
    assert "MAX_REJECTION_ROUNDS" not in sampler.__all__


def _ks_statistic(a, b):
    """The two-sample Kolmogorov-Smirnov distance between the empirical cdfs of a and b."""
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


@pytest.mark.parametrize("x_max", [0.19, 0.15])
def test_a_band_past_the_reactance_max_is_generated_on_target(x_max):
    # The window (0, x_max] cuts the band [0.05, 0.2]. Dividing the whole band's
    # mass by the window's gave a band fraction of 0.7687 at 0.19, and a mass
    # above 1 that failed the calibration at 0.15.
    band = _band_target().band
    profile = [
        dataclasses.replace(e, summary=dataclasses.replace(e.summary, max=x_max))
        if e.kind is ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE and e.class_kv == 115.0 else e
        for e in builtin_profile()
    ]
    x = generate_transformers(115.0, 200_000, seed=2, profile=profile, system_mva_base=100.0).x_pu_own
    assert np.mean((x >= band.lo) & (x <= band.hi)) == pytest.approx(band.fraction, abs=0.003)


def test_own_base_reactance_matches_rejection_sampling():
    # The reference redraws until each value lands in (0, max], from an independent
    # stream. Both samples follow the same truncated law, so sqrt(n/2) D follows the
    # Kolmogorov distribution, and P(D > bound) is about 2 exp(-n bound**2) = 1e-6.
    n = 100_000
    entry = _band_target()
    d = calibrate_reactance_tls(entry, truncate_to=(0.0, entry.summary.max)).dist
    rng = np.random.default_rng(20261020)
    reference = sample_stream(d, rng, n)
    while (bad := (reference <= 0.0) | (reference > entry.summary.max)).any():
        reference[bad] = sample_stream(d, rng, int(bad.sum()))
    drawn = generate_transformers(115.0, n, seed=7, profile=builtin_profile(), system_mva_base=100.0).x_pu_own
    bound = math.sqrt(math.log(2.0 / 1e-6) / n)
    assert _ks_statistic(drawn, reference) < bound


# Parameters keep every scale within a few orders of magnitude of 1.
_families = st.one_of(
    st.builds(Tls, st.floats(-10.0, 10.0), st.floats(0.1, 10.0), st.floats(1.0, 30.0)),
    st.builds(Gev, st.floats(-10.0, 10.0), st.floats(0.1, 10.0),
              st.floats(-0.5, 0.5).filter(lambda z: abs(z) > 1e-3)),
    st.builds(Exponential, st.floats(0.01, 100.0)),
    st.builds(Normal, st.floats(-10.0, 10.0), st.floats(0.1, 10.0)),
)


@st.composite
def _intervals(draw):
    """(d, lo, hi): a family and an interval with mass at least 1e-3 under it,
    each end infinite, at 0, or a quantile of d."""
    d = draw(_families)
    p_lo = draw(st.floats(0.0, 0.9))
    p_hi = draw(st.floats(p_lo + 0.01, 1.0))
    lo = draw(st.sampled_from([-math.inf, 0.0, float(quantile(d, p_lo)) if p_lo > 0 else -math.inf]))
    hi = draw(st.sampled_from([math.inf, float(quantile(d, p_hi)) if p_hi < 1 else math.inf]))
    assume(float(cdf(d, hi) - cdf(d, lo)) >= 1e-3)
    return d, lo, hi


_ENTRY = _band_target()


class _ExtremeUniforms:
    """A stand-in generator whose uniforms alternate between the least and the
    greatest that Generator.random yields: they map to the ends of the interval."""

    def random(self, n):
        return np.resize([0.0, 1.0 - 2.0 ** -53], n)


@settings(max_examples=150, deadline=None)
@given(_intervals(), st.integers(0, 2**63 - 1), st.integers(1, 300), st.data())
def test_truncated_draws_lie_inside_and_split_into_blocks(interval, seed, n, data):
    d, lo, hi = interval
    whole = sampler._sample_truncated(d, np.random.default_rng(seed), n, lo, hi, _ENTRY)
    assert whole.shape == (n,) and np.all((whole > lo) & (whole <= hi))
    ends = sampler._sample_truncated(d, _ExtremeUniforms(), 2, lo, hi, _ENTRY)
    assert np.all((ends > lo) & (ends <= hi))
    # Draw i uses only the i-th uniform, so drawing in two blocks changes no bit.
    k = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    parts = [sampler._sample_truncated(d, rng, m, lo, hi, _ENTRY) for m in (k, n - k)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@settings(max_examples=100, deadline=None)
@given(_families, st.floats(0.05, 0.95), st.integers(0, 16))
def test_a_thin_interval_names_its_entry(d, p, ulps):
    # lo and hi are at most 16 floats apart: far below the 2**20 spacings of F(hi) needed.
    lo = float(quantile(d, p))
    hi = lo
    for _ in range(ulps):
        hi = math.nextafter(hi, math.inf)
    with pytest.raises(ValueError, match=r"^TransformerReactanceOwnBase at 115 kV: the interval"):
        sampler._sample_truncated(d, np.random.default_rng(0), 10, lo, hi, _ENTRY)


# ------------------------------------------------------------------- lines


def test_generate_lines_needs_fitted_params():
    with pytest.raises(ValueError, match="LineCapacity"):
        generate_lines(115.0, 10, seed=0, profile=builtin_profile())


def test_generate_lines_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        generate_lines(115.0, 0, seed=0, profile=_line_profile())


def test_generate_lines_invariants():
    items = generate_lines(115.0, 300, seed=7, profile=_line_profile())
    assert len(items) == 300
    for it in items:
        assert it.kind is BranchKind.TRANSMISSION_LINE
        assert it.x_pu_own is None and it.r_pu_own is None
        assert it.x_pu_common > 0
        assert it.mva_rating > 0
        assert it.xr > 0
        assert it.xr == pytest.approx(it.x_pu_common / it.r_pu_common, rel=1e-9)


def test_generate_lines_deterministic():
    a = generate_lines(230.0, 40, seed=3, profile=_line_profile())
    b = generate_lines(230.0, 40, seed=3, profile=_line_profile())
    assert list(a) == list(b)


def test_default_line_reactance_mean():
    # chosen so that 90 percent of draws land at or below 0.02 per unit
    assert DEFAULT_LINE_REACTANCE_MEAN == pytest.approx(0.02 / math.log(10.0), rel=1e-15)
    items = generate_lines(115.0, 20000, seed=42, profile=_line_profile())
    xs = np.array([it.x_pu_common for it in items])
    assert np.mean(xs <= 0.02) == pytest.approx(0.90, abs=0.01)


# ------------------------------------------------------------ record types


def test_synthetic_params_validation():
    with pytest.raises(ValueError):
        SyntheticTable.from_rows([SyntheticBranchParams(
            kind=BranchKind.TRANSFORMER,
            class_kv=115.0,
            mva_rating=60.0,
            x_pu_common=0.1,
            r_pu_common=0.004,
            xr=25.0,
            x_pu_own=None,  # transformers must carry own-base values
            r_pu_own=None,
        )])
    with pytest.raises(ValueError):
        SyntheticTable.from_rows([SyntheticBranchParams(
            kind=BranchKind.TRANSMISSION_LINE,
            class_kv=115.0,
            mva_rating=60.0,
            x_pu_common=0.1,
            r_pu_common=0.004,
            xr=99.0,  # inconsistent with x/r
        )])


def test_params_csv_shape():
    items = generate_transformers(115.0, 5, seed=1, profile=builtin_profile(), system_mva_base=100.0)
    text = params_csv(items)
    lines = text.splitlines()
    assert lines[0] == PARAMS_CSV_HEADER
    assert len(lines) == 6
    assert "np." not in text
    line_items = generate_lines(115.0, 2, seed=1, profile=_line_profile())
    text = params_csv(line_items)
    row = text.splitlines()[1].split(",")
    header = PARAMS_CSV_HEADER.split(",")
    assert row[header.index("x_pu_own")] == ""
    assert row[header.index("r_pu_own")] == ""


def test_params_to_branch_records_round_trip():
    items = SyntheticTable.concat([
        generate_transformers(115.0, 30, seed=5, profile=builtin_profile(), system_mva_base=100.0),
        generate_lines(115.0, 30, seed=6, profile=_line_profile()),
    ])
    records = params_to_branch_records(items, system_mva_base=100.0)
    assert len(records) == 60
    table = voltage_class_table([115.0, 138.0, 230.0])
    for rec, item in zip(records, items):
        kind = classify_branch(rec)
        if item.kind is BranchKind.TRANSFORMER:
            assert kind is not BranchKind.TRANSMISSION_LINE
        else:
            assert kind is BranchKind.TRANSMISSION_LINE
        assert assign_voltage_class(rec, kind, table) == 115.0
        assert rec.system_mva_base == 100.0
    ids = [r.id for r in records]
    assert len(set(ids)) == len(ids)


def test_params_to_branch_records_lv_guard():
    items = generate_transformers(115.0, 3, seed=5, profile=builtin_profile(), system_mva_base=100.0)
    with pytest.raises(ValueError):
        params_to_branch_records(items, system_mva_base=100.0, lv_kv=115.0)


@pytest.mark.parametrize("lv_kv", [-math.inf, 0.0, -5.0, math.nan])
def test_params_to_branch_records_needs_a_positive_low_side(lv_kv):
    items = generate_transformers(115.0, 3, seed=5, profile=builtin_profile(), system_mva_base=100.0)
    with pytest.raises(ValueError, match="lv_kv must be finite and > 0"):
        params_to_branch_records(items, system_mva_base=100.0, lv_kv=lv_kv)
    # Line rows have no low side, so a line-only table ignores lv_kv.
    lines = generate_lines(115.0, 3, seed=5, profile=_line_profile())
    assert len(params_to_branch_records(lines, system_mva_base=100.0, lv_kv=lv_kv)) == 3


# ------------------------------------------------- writers, row by row


def _reference_params_csv(items) -> str:
    """params_csv written one row at a time."""

    def cell(v):
        return "" if v is None else repr(float(v))

    lines = [PARAMS_CSV_HEADER]
    for p in items:
        lines.append(
            f"{p.kind.value},{cell(p.class_kv)},{cell(p.mva_rating)},{cell(p.x_pu_own)},"
            f"{cell(p.r_pu_own)},{cell(p.x_pu_common)},{cell(p.r_pu_common)},{cell(p.xr)}"
        )
    return "\n".join(lines) + "\n"


def _reference_branch_records(items, system_mva_base, lv_kv=13.8):
    """params_to_branch_records built one record at a time."""
    out = []
    for i, p in enumerate(items):
        xfmr = p.kind is not BranchKind.TRANSMISSION_LINE
        out.append(
            BranchRecord(
                id=f"{'T' if xfmr else 'L'}{p.class_kv:g}-{i + 1}",
                from_bus=2 * i + 1,
                to_bus=2 * i + 2,
                from_kv=p.class_kv,
                to_kv=lv_kv if xfmr else p.class_kv,
                r_pu=p.r_pu_common,
                x_pu=p.x_pu_common,
                mva_rating=p.mva_rating,
                tap_ratio=1.0 if xfmr else 0.0,
                system_mva_base=system_mva_base,
            )
        )
    return out


# Positive values whose text is easy to get wrong: subnormals, 1e16 (where
# repr switches to exponent form) and a sum that is not 0.3.
_positive = st.one_of(
    st.floats(1e-300, 1e300),
    st.sampled_from([5e-324, 2.2e-308, 1e16, 0.1 + 0.2, 1e-5, 1.0]),
)


@st.composite
def _synthetic_tables(draw):
    """A table of transformer and line rows in random order; xr is x/r
    on the row's primary base."""
    kind = draw(st.lists(st.sampled_from([0, 1, 2]), max_size=12))  # indices into BranchKind
    n = len(kind)
    cols = {name: np.array(draw(st.lists(_positive, min_size=n, max_size=n)), dtype=float)
            for name in ("class_kv", "mva_rating", "x_pu_common", "r_pu_common", "x_pu_own", "r_pu_own")}
    line = np.array([tuple(BranchKind)[k] is BranchKind.TRANSMISSION_LINE for k in kind], dtype=bool)
    cols["x_pu_own"][line] = cols["r_pu_own"][line] = math.nan
    with np.errstate(over="ignore", under="ignore"):
        cols["xr"] = np.where(line, cols["x_pu_common"] / cols["r_pu_common"],
                              cols["x_pu_own"] / cols["r_pu_own"])
    ok = (cols["xr"] > 0) & (cols["xr"] < math.inf)
    return SyntheticTable(np.array(kind)[ok], **{name: c[ok] for name, c in cols.items()})


@settings(max_examples=200, deadline=None)
@given(tables=st.lists(_synthetic_tables(), min_size=1, max_size=3),
       base=_positive, lv_kv=st.sampled_from([1e-300, 0.4, 13.8]))
def test_writers_match_the_row_loops(tables, base, lv_kv):
    table = SyntheticTable.concat(tables)
    rows = list(table)
    assert len(table) == sum(map(len, tables))
    assert params_csv(table) == _reference_params_csv(rows)
    if any(r.kind is not BranchKind.TRANSMISSION_LINE and not lv_kv < r.class_kv for r in rows):
        with pytest.raises(ValueError, match="lv_kv"):
            params_to_branch_records(table, base, lv_kv=lv_kv)
        return
    records = params_to_branch_records(table, base, lv_kv=lv_kv)
    reference = _reference_branch_records(rows, base, lv_kv)
    assert list(records) == reference  # ids numbered across the concatenated tables
    assert serialize_branch_csv(records) == serialize_branch_csv(BranchTable.from_records(reference))


def test_synthetic_table_rows_round_trip():
    items = SyntheticTable.concat([
        generate_transformers(115.0, 4, seed=5, profile=builtin_profile(), system_mva_base=100.0),
        generate_lines(138.0, 3, seed=6, profile=_line_profile()),
    ])
    rows = list(items)
    assert [items[i] for i in range(len(items))] == rows
    assert rows[0].kind is BranchKind.TRANSFORMER and rows[0].x_pu_own is not None
    assert rows[-1].kind is BranchKind.TRANSMISSION_LINE and rows[-1].x_pu_own is None
    back = SyntheticTable.from_rows(rows)
    assert list(back) == rows
    assert len(SyntheticTable.concat([])) == 0
    assert params_csv(SyntheticTable.from_rows([])) == PARAMS_CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(mva_rating=math.inf), "mva_rating must be finite"),
        (dict(xr=-25.0), "xr must be finite"),
        (dict(x_pu_own=None), "own-base"),
        (dict(r_pu_own=0.0), "r_pu_own must be finite"),
        (dict(xr=24.0), "inconsistent"),
    ],
)
def test_synthetic_table_checks_every_row(change, message):
    good = dict(kind=BranchKind.TRANSFORMER, class_kv=115.0, mva_rating=60.0, x_pu_common=0.1,
                r_pu_common=0.004, xr=25.0, x_pu_own=0.06, r_pu_own=0.0024)
    SyntheticTable.from_rows([SyntheticBranchParams(**good)])
    bad = SyntheticBranchParams(**{**good, **change})
    with pytest.raises(ValueError, match=message):
        SyntheticTable.from_rows([SyntheticBranchParams(**good), bad])
    line = SyntheticBranchParams(**{**good, "kind": BranchKind.TRANSMISSION_LINE})
    with pytest.raises(ValueError, match="own-base"):
        SyntheticTable.from_rows([line])
