"""Reference profile schema, JSON round trips, and validation findings."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridparams.analysis import collect_samples, decorrelation_stats, observed_stats, spearman_own_by_class
from gridparams.distributions import Exponential, Gev, Normal, Tls, sample
from gridparams.profiles import (
    DEFAULT_THRESHOLDS,
    EXPECTED_FAMILY,
    BandRef,
    ObservedClassStats,
    ParameterKind,
    ReferenceEntry,
    SummaryRef,
    ValidationThresholds,
    builtin_profile,
    lookup,
    parse_profile_json,
    report_to_dict,
    serialize_profile_json,
    serialize_report,
    thresholds_from_dict,
    validate,
)
from gridparams.sampler import SyntheticTable, generate_lines, generate_transformers, params_to_branch_records
from gridparams.stats import SummaryStats, band_fraction, histogram, summarize


def _summary(**kw):
    base = dict(median=0.13, mean=0.14, min=0.001, max=1.0)
    base.update(kw)
    return SummaryRef(**base)


def _stats(values, band=None, with_hist=True):
    arr = np.asarray(values, dtype=float)
    hist = None
    if with_hist:
        try:
            hist = histogram(arr, "fd")
        except ValueError:
            hist = None
    return ObservedClassStats(
        summary=summarize(arr),
        hist=hist,
        band_fraction=band,
        values=arr,
    )


# ------------------------------------------------------------ entry schema


def test_entry_needs_some_content():
    with pytest.raises(ValueError):
        ReferenceEntry(kind=ParameterKind.TRANSFORMER_MVA_RATING, class_kv=115.0)


def test_entry_family_must_match_kind():
    with pytest.raises(ValueError):
        ReferenceEntry(
            kind=ParameterKind.TRANSFORMER_MVA_RATING,
            class_kv=115.0,
            family="normal",
        )
    e = ReferenceEntry(
        kind=ParameterKind.LINE_CAPACITY, class_kv=115.0, family="normal"
    )
    assert e.family == EXPECTED_FAMILY[ParameterKind.LINE_CAPACITY]


def test_entry_fitted_requires_consistent_family():
    with pytest.raises(ValueError):
        ReferenceEntry(
            kind=ParameterKind.TRANSFORMER_MVA_RATING,
            class_kv=115.0,
            family="gev",
            fitted=Normal(1.0, 1.0),
        )


def test_entry_reference_kl_requires_fitted():
    with pytest.raises(ValueError):
        ReferenceEntry(
            kind=ParameterKind.TRANSFORMER_MVA_RATING,
            class_kv=115.0,
            family="gev",
            reference_d_kl=0.1,
        )


def test_summary_ref_ordering():
    with pytest.raises(ValueError):
        SummaryRef(min=2.0, max=1.0)
    with pytest.raises(ValueError):
        SummaryRef(q10=5.0, q90=1.0)
    with pytest.raises(ValueError):
        SummaryRef()


def test_band_ref_bounds():
    with pytest.raises(ValueError):
        BandRef(lo=0.2, hi=0.1, fraction=0.5)
    with pytest.raises(ValueError):
        BandRef(lo=0.0, hi=1.0, fraction=1.5)
    b = BandRef(lo=0.05, hi=0.2, fraction=0.8188)
    assert b.fraction == 0.8188


def test_duplicate_entries_rejected():
    e = ReferenceEntry(
        kind=ParameterKind.LINE_CAPACITY, class_kv=115.0, family="normal"
    )
    with pytest.raises(ValueError, match="duplicate"):
        serialize_profile_json([e, e])
    one = json.loads(serialize_profile_json([e]))
    blob = json.dumps(one + one)
    with pytest.raises(ValueError, match="duplicate"):
        parse_profile_json(blob)


def test_classes_match_within_the_voltage_class_tolerance():
    a = ReferenceEntry(kind=ParameterKind.LINE_CAPACITY, class_kv=115.0, family="normal")
    b = ReferenceEntry(kind=ParameterKind.LINE_CAPACITY, class_kv=138.0, family="normal")
    assert lookup([a, b], ParameterKind.LINE_CAPACITY, 115.0000000001) is a
    assert lookup([a, b], ParameterKind.LINE_CAPACITY, 112.0) is None
    near = ReferenceEntry(kind=ParameterKind.LINE_CAPACITY, class_kv=116.0, family="normal")
    with pytest.raises(ValueError, match="duplicate profile entry for LineCapacity at 116 kV"):
        serialize_profile_json([a, near])


@pytest.mark.parametrize("median", [0.0, -0.13])
def test_non_positive_reference_median_rejected(median):
    entry = {"kind": "TransformerXr", "class_kv": 138.0, "summary": {"median": median}}
    with pytest.raises(ValueError, match="TransformerXr at 138 kV: reference median must be > 0"):
        parse_profile_json(json.dumps([entry]))


def test_lookup():
    profile = builtin_profile()
    e = lookup(profile, ParameterKind.TRANSFORMER_MVA_RATING, 230.0)
    assert e is not None and e.fitted is not None
    assert lookup(profile, ParameterKind.TRANSFORMER_MVA_RATING, 345.0) is None


# -------------------------------------------------------------- thresholds


def test_threshold_validation():
    with pytest.raises(ValueError):
        ValidationThresholds(median_rel=-0.1)
    with pytest.raises(ValueError):
        ValidationThresholds(range_factor=0.5)
    t = ValidationThresholds()
    assert t == DEFAULT_THRESHOLDS


def test_thresholds_from_dict():
    t = thresholds_from_dict({"median_rel": 0.5, "kl_max_nats": 1.0})
    assert t.median_rel == 0.5
    assert t.kl_max_nats == 1.0
    assert t.band_abs == DEFAULT_THRESHOLDS.band_abs
    with pytest.raises(ValueError, match="nope"):
        thresholds_from_dict({"nope": 1.0})


# ------------------------------------------------------ profile JSON I/O


def test_builtin_profile_round_trip():
    profile = builtin_profile()
    assert len(profile) == 18
    blob = serialize_profile_json(profile)
    assert parse_profile_json(blob) == profile


def test_builtin_profile_is_copy():
    a = builtin_profile()
    a.pop()
    assert len(builtin_profile()) == 18


def test_parse_profile_requires_array():
    with pytest.raises(ValueError):
        parse_profile_json(json.dumps({"kind": "LineCapacity"}))


def test_parse_profile_names_a_missing_class_kv_and_an_unknown_family():
    entry = {"kind": "TransformerXr", "family": "gev"}
    with pytest.raises(ValueError, match=r"^profile entry missing class_kv: \{'kind': 'TransformerXr', 'family': 'gev'\}$"):
        parse_profile_json(json.dumps([entry]))
    entry = {"kind": "TransformerXr", "class_kv": 115, "fitted": {"family": "weibull"}}
    with pytest.raises(ValueError, match=r"^unknown family 'weibull'$"):
        parse_profile_json(json.dumps([entry]))


def test_unknown_fitted_fields_rejected():
    # A misspelt "params" must not read as a family with no parameters.
    entry = {"kind": "TransformerMvaRating", "class_kv": 115.0,
             "fitted": {"family": "gev", "parms": {"mu": 100.0, "sigma": 40.0, "zeta": 0.1}}}
    with pytest.raises(ValueError, match=r"unknown fitted fields: \['parms'\]"):
        parse_profile_json(json.dumps([entry]))
    entry["fitted"] = {"family": "gev", "params": {"mu": 100.0, "sigma": 40.0, "zeta": 0.1}}
    entry["note"] = "unknown keys at the top level of an entry are ignored"
    assert parse_profile_json(json.dumps([entry]))[0].fitted == Gev(100.0, 40.0, 0.1)
    bench_profile = Path(__file__).resolve().parents[1] / "bench" / "reference_profile.json"
    assert parse_profile_json(bench_profile.read_text(encoding="utf-8"))


def test_builtin_expected_families():
    profile = builtin_profile()
    for e in profile:
        if e.family is not None:
            assert e.family == EXPECTED_FAMILY[e.kind]


# ------------------------------------------------------------- validation


def _xfmr_x_entry():
    return lookup(builtin_profile(), ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0)


def _finding(report, check, kind=None):
    found = [
        f
        for f in report.findings
        if f.check == check and (kind is None or f.kind == kind)
    ]
    assert found, f"no {check} finding in report"
    return found[0]


def test_median_check_passes_within_band():
    entry = _xfmr_x_entry()
    ref_median = entry.summary.median
    values = np.full(50, ref_median * 1.1)  # 10 percent off, limit is 25
    values[0] = ref_median * 0.5  # avoid a degenerate histogram
    observed = {
        (ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(values, with_hist=False)
    }
    report = validate(observed, [entry])
    f = _finding(report, "MedianCheck")
    assert f.status == "pass"
    assert f.kind == ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE


def test_median_check_fails_far_out():
    entry = _xfmr_x_entry()
    values = np.linspace(1.0, 2.0, 50)  # median ~1.5, reference is ~0.129
    observed = {(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(values)}
    report = validate(observed, [entry])
    f = _finding(report, "MedianCheck")
    assert f.status == "fail"
    assert not report.overall_pass


def test_band_check():
    entry = _xfmr_x_entry()
    rng = np.random.default_rng(0)
    inside = rng.uniform(0.06, 0.19, 818)
    outside = rng.uniform(0.3, 0.9, 182)
    values = np.concatenate([inside, outside])
    frac = float(np.mean((values >= entry.band.lo) & (values <= entry.band.hi)))
    observed = {
        (ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(values, band=frac)
    }
    report = validate(observed, [entry])
    f = _finding(report, "BandCheck")
    assert f.status == "pass"
    # and a clearly wrong mass fails
    observed = {
        (ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(values, band=0.60)
    }
    report = validate(observed, [entry])
    assert _finding(report, "BandCheck").status == "fail"


def test_missing_class_is_skipped_not_failed():
    entry = _xfmr_x_entry()
    report = validate({}, [entry])
    assert report.overall_pass
    assert {f.status for f in report.findings} == {"skipped"}
    f = _finding(report, "CoverageCheck")
    assert f.threshold == "none"


def test_kl_check_only_with_fitted_params():
    profile = builtin_profile()
    entry = lookup(profile, ParameterKind.TRANSFORMER_MVA_RATING, 115.0)
    xs = sample(entry.fitted, seed=13, n=4000)
    xs = xs[(xs >= 1.0) & (xs <= 3000.0)]
    observed = {(ParameterKind.TRANSFORMER_MVA_RATING, 115.0): _stats(xs)}
    report = validate(observed, [entry])
    f = _finding(report, "KlCheck")
    assert f.status == "pass"
    # family-only entries get no KlCheck
    cap = lookup(profile, ParameterKind.LINE_CAPACITY, 115.0)
    xs = sample(Normal(180.0, 60.0), seed=13, n=1000)
    observed = {(ParameterKind.LINE_CAPACITY, 115.0): _stats(xs)}
    report = validate(observed, [cap])
    assert not any(f.check == "KlCheck" for f in report.findings)


def test_range_check_center_scaling():
    entry = _xfmr_x_entry()
    lo, hi = entry.summary.min, entry.summary.max
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * DEFAULT_THRESHOLDS.range_factor
    ok = np.linspace(max(center - half, 1e-6) + 1e-9, center + half - 1e-9, 60)
    observed = {(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(ok)}
    report = validate(observed, [entry])
    assert _finding(report, "RangeCheck").status == "pass"
    bad = np.linspace(0.01, center + half + 5.0, 60)
    observed = {(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(bad)}
    report = validate(observed, [entry])
    f = _finding(report, "RangeCheck")
    assert f.status == "fail"
    assert isinstance(f.observed, tuple) and len(f.observed) == 2


def test_decorrelation_check():
    entry = _xfmr_x_entry()
    values = np.linspace(0.05, 0.3, 40)
    observed = {(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(values)}
    report = validate(
        observed, [entry], transformer_decorrelation={115.0: 0.05}
    )
    assert _finding(report, "DecorrelationCheck").status == "pass"
    report = validate(
        observed, [entry], transformer_decorrelation={115.0: -0.40}
    )
    assert _finding(report, "DecorrelationCheck").status == "fail"
    report = validate(observed, [entry])
    assert _finding(report, "DecorrelationCheck").status == "skipped"


def test_family_check_passes_for_exponential_line_data():
    profile = builtin_profile()
    entry = lookup(profile, ParameterKind.LINE_REACTANCE_COMMON_BASE, 115.0)
    xs = sample(Exponential(0.008686), seed=21, n=3000)
    observed = {(ParameterKind.LINE_REACTANCE_COMMON_BASE, 115.0): _stats(xs)}
    report = validate(observed, [entry])
    f = _finding(report, "FamilyCheck")
    assert f.status == "pass"


def test_family_check_needs_values():
    profile = builtin_profile()
    entry = lookup(profile, ParameterKind.LINE_REACTANCE_COMMON_BASE, 115.0)
    xs = sample(Exponential(0.008686), seed=21, n=3000)
    stats = _stats(xs)
    stats = ObservedClassStats(
        summary=stats.summary,
        hist=stats.hist,
        band_fraction=None,
        values=None,
    )
    observed = {(ParameterKind.LINE_REACTANCE_COMMON_BASE, 115.0): stats}
    report = validate(observed, [entry])
    assert _finding(report, "FamilyCheck").status == "skipped"


def test_overall_pass_semantics():
    entry = _xfmr_x_entry()
    values = np.linspace(1.0, 2.0, 50)
    observed = {(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(values)}
    report = validate(observed, [entry])
    assert not report.overall_pass
    assert any(f.status == "fail" for f in report.findings)


# ---------------------------------------------------------------- reports


def test_report_serialization_is_deterministic():
    entry = _xfmr_x_entry()
    values = np.linspace(0.05, 0.3, 40)
    observed = {(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0): _stats(values)}
    report = validate(observed, [entry])
    a = serialize_report(report)
    b = serialize_report(validate(observed, [entry]))
    assert a == b
    payload = json.loads(a)
    assert payload["overall_pass"] == report.overall_pass
    assert isinstance(payload["findings"], list)


def test_report_to_dict_shape():
    entry = _xfmr_x_entry()
    report = validate({}, [entry])
    d = report_to_dict(report)
    assert set(d) >= {"findings", "overall_pass", "thresholds"}
    for f in d["findings"]:
        assert f["status"] in {"pass", "fail", "skipped"}


_GOLDEN = Path(__file__).parent / "data" / "validate_golden.json"


def _golden_report():
    """One profile and observed set that reach every finding path: coverage;
    median, band, range, KL, family and decorrelation pass and fail; each
    skip note; and a family that cannot represent the sample."""
    own, mva, line_x, cap, xr = (
        ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, ParameterKind.TRANSFORMER_MVA_RATING,
        ParameterKind.LINE_REACTANCE_COMMON_BASE, ParameterKind.LINE_CAPACITY, ParameterKind.LINE_XR,
    )
    band = BandRef(lo=0.06, hi=0.19, fraction=0.85)
    own_fit = Tls(0.13, 0.03, 4.0)
    mva_fit = Gev(100.0, 40.0, 0.2)
    profile = [
        ReferenceEntry(own, 115.0, summary=_summary(), band=band, family="tls", fitted=own_fit),
        ReferenceEntry(own, 138.0, summary=_summary(), band=band, family="tls", fitted=Tls(0.6, 0.01, 4.0)),
        ReferenceEntry(own, 230.0, summary=_summary(), band=band, family="tls", fitted=own_fit),
        ReferenceEntry(own, 345.0, summary=_summary(), band=band),
        ReferenceEntry(mva, 115.0, summary=SummaryRef(median=110.0), family="gev", fitted=mva_fit),
        ReferenceEntry(line_x, 115.0, family="exponential"),
        ReferenceEntry(line_x, 138.0, summary=SummaryRef(median=0.01), family="exponential"),
        ReferenceEntry(cap, 115.0, family="normal"),
        ReferenceEntry(cap, 138.0, family="normal"),
        ReferenceEntry(xr, 115.0, family="normal"),
    ]
    own_values = sample(own_fit, seed=5, n=400)
    own_values = own_values[(own_values > 0.01) & (own_values < 0.9)]
    far = np.linspace(0.5, 2.5, 60)
    heavy = sample(Exponential(50.0), seed=8, n=500)
    observed = {
        (own, 115.0): _stats(own_values, band=band_fraction(own_values, band.lo, band.hi)),
        (own, 138.0): _stats(far, band=0.1),
        (own, 230.0): _stats(own_values, with_hist=False),
        (mva, 115.0): _stats(sample(mva_fit, seed=6, n=2000)),
        (line_x, 115.0): _stats(sample(Exponential(0.008686), seed=7, n=600)),
        (line_x, 138.0): _stats(np.linspace(-0.01, 0.03, 40)),
        (cap, 115.0): _stats(heavy),
        (cap, 138.0): _stats([150.0, 170.0, 190.0, 210.0, 230.0]),
        (xr, 115.0): _stats(np.linspace(4.0, 12.0, 30), with_hist=False),
    }
    return validate(observed, profile, transformer_decorrelation={115.0: 0.05, 138.0: -0.4})


def test_validate_report_bytes_are_pinned():
    report = _golden_report()
    paths = {(f.check, f.status, f.note) for f in report.findings}
    assert len(paths) == 20, sorted(paths)
    assert serialize_report(report) == _GOLDEN.read_text(encoding="utf-8")


# ------------------------------------------------------- profile property

_positive = st.floats(min_value=1e-300, max_value=1e300)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_PARAMS = {
    "tls": {"mu": _finite, "sigma": _positive, "nu": _positive},
    "gev": {"mu": _finite, "sigma": _positive, "zeta": _finite.filter(bool)},
    "exponential": {"mu": _positive},
    "normal": {"mu": _finite, "sigma": _positive},
}


@st.composite
def _profile_entries(draw):
    """Profile entries as JSON objects, one per (kind, class), with every
    optional part present or not and numbers anywhere in their valid range."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(list(ParameterKind)), st.sampled_from([69.0, 115.0, 138.0, 230.0])),
            min_size=1, max_size=6, unique=True,
        )
    )
    entries = []
    for kind, kv in keys:
        obj = {"kind": kind.value, "class_kv": kv}
        if draw(st.booleans()):
            lo, hi = sorted(draw(st.lists(_finite, min_size=2, max_size=2)))
            q10, q90 = sorted(draw(st.lists(_finite, min_size=2, max_size=2)))
            obj["summary"] = {"median": draw(_positive), "mean": draw(_finite), "min": lo, "max": hi,
                              "q10": q10, "q90": q90}
        if draw(st.booleans()):
            lo, hi = sorted(draw(st.lists(_finite, min_size=2, max_size=2, unique=True)))
            obj["band"] = {"lo": lo, "hi": hi, "fraction": draw(st.floats(0.0, 1.0))}
        family = EXPECTED_FAMILY[kind]
        if draw(st.booleans()) or len(obj) == 2:
            obj["fitted"] = {"family": family}
            if draw(st.booleans()):
                obj["fitted"]["params"] = {k: draw(v) for k, v in _PARAMS[family].items()}
                if draw(st.booleans()):
                    obj["reference_d_kl"] = draw(st.floats(0.0, 1e300))
        entries.append(obj)
    return entries


@settings(max_examples=150, deadline=None)
@given(
    entries=_profile_entries(),
    samples=st.lists(st.lists(st.floats(1e-6, 1e6), max_size=40), min_size=6, max_size=6),
    rho=st.floats(-1.0, 1.0),
)
def test_any_accepted_profile_validates_without_raising(entries, samples, rho):
    profile = parse_profile_json(json.dumps(entries))  # every drawn entry is well formed
    observed = {}
    for e, values in zip(profile, samples):
        if values:
            band = None if e.band is None else band_fraction(np.asarray(values), e.band.lo, e.band.hi)
            observed[(e.kind, e.class_kv)] = _stats(values, band=band)
    report = validate(observed, profile, transformer_decorrelation={e.class_kv: rho for e in profile})
    assert report.overall_pass == all(f.status != "fail" for f in report.findings)
    json.loads(serialize_report(report))


# The builtin profile leaves out line capacity and X/R parameters, which line
# generation needs; these round numbers stand in for them.
_LINE_FITS = {ParameterKind.LINE_CAPACITY: Normal(180.0, 60.0), ParameterKind.LINE_XR: Normal(8.0, 3.0)}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_fleets_generated_for_every_builtin_class_validate(seed):
    # 1,500 transformers and 400 lines per class keep every check well inside
    # its bound. Over 1,000 seeds, |spearman| reached at most 0.62 of
    # decorrelation_max and the FamilyCheck excess 0.46 of its margin. Of the
    # others, only RangeCheck came past half its bound: draws are truncated to
    # the reference range, two thirds of the widened one.
    profile = builtin_profile()
    with_lines = [dataclasses.replace(e, fitted=_LINE_FITS.get(e.kind, e.fitted)) for e in profile]
    class_kvs = sorted({e.class_kv for e in profile})
    tables = [generate_transformers(kv, 1500, seed=seed + i, profile=profile, system_mva_base=100.0)
              for i, kv in enumerate(class_kvs)]
    tables += [generate_lines(kv, 400, seed=seed + 10 + i, profile=with_lines) for i, kv in enumerate(class_kvs)]
    collected = collect_samples(params_to_branch_records(SyntheticTable.concat(tables), system_mva_base=100.0),
                                tuple(class_kvs))
    report = validate(observed_stats(collected, profile), profile,
                      transformer_decorrelation=spearman_own_by_class(decorrelation_stats(collected)))
    assert report.overall_pass, [f for f in report.findings if f.status == "fail"]
    ran = {f.check for f in report.findings if f.status == "pass"}
    assert {"MedianCheck", "BandCheck", "RangeCheck", "KlCheck", "FamilyCheck", "DecorrelationCheck"} <= ran
