"""Record-to-sample collection and per-class correlation bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridparams.analysis import (
    collect_samples,
    decorrelation_stats,
    observed_stats,
    spearman_own_by_class,
)
from gridparams.ingest import (
    BranchRecord,
    BranchTable,
    RejectReason,
    _reject_reason,
    assign_voltage_class,
    classify_branch,
    filter_valid,
    is_transformer,
    voltage_class_table,
)
from gridparams.per_unit import to_own_base, xr_ratio
from gridparams.profiles import ParameterKind, builtin_profile


def _xfmr(i, kv=115.0, x=0.05, r=0.002, rating=60.0):
    return BranchRecord(
        id=f"t{i}",
        from_bus=2 * i + 1,
        to_bus=2 * i + 2,
        from_kv=kv,
        to_kv=13.8,
        r_pu=r,
        x_pu=x,
        mva_rating=rating,
        tap_ratio=1.0,
        system_mva_base=100.0,
    )


def _line(i, kv=115.0, x=0.01, r=0.002, rating=120.0):
    return BranchRecord(
        id=f"l{i}",
        from_bus=100 + 2 * i,
        to_bus=101 + 2 * i,
        from_kv=kv,
        to_kv=kv,
        r_pu=r,
        x_pu=x,
        mva_rating=rating,
        tap_ratio=0.0,
        system_mva_base=100.0,
    )


def test_collect_buckets_by_kind_and_class():
    records = [
        _xfmr(0, rating=50.0, x=0.05),
        _xfmr(1, rating=200.0, x=0.08),
        _line(0, x=0.01),
        _line(1, kv=230.0, x=0.004),
        _line(2, kv=345.0),  # no matching class
        _line(3, x=-1.0),  # rejected: non-positive X
    ]
    out = collect_samples(BranchTable.from_records(records))
    assert out.kept == 5
    assert out.unclassified == 1
    assert [r.id for r in out.rejected] == ["l3"]
    assert [tuple(RejectReason)[code] for code in out.reasons] == [RejectReason.NON_POSITIVE_X]

    x_own = out.values[(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0)]
    # own-base rebase: x_common * rating / system base
    np.testing.assert_allclose(x_own, [0.05 * 0.5, 0.08 * 2.0])
    mva = out.values[(ParameterKind.TRANSFORMER_MVA_RATING, 115.0)]
    np.testing.assert_allclose(mva, [50.0, 200.0])
    assert (ParameterKind.LINE_REACTANCE_COMMON_BASE, 115.0) in out.values
    assert (ParameterKind.LINE_REACTANCE_COMMON_BASE, 230.0) in out.values
    assert (ParameterKind.LINE_REACTANCE_COMMON_BASE, 345.0) not in out.values


def test_collect_transformer_triples_and_suspects():
    records = [
        _xfmr(0, x=0.05, r=0.002),  # X/R = 25
        _xfmr(1, x=0.32, r=0.1),  # X/R = 3.2: autotransformer suspect
    ]
    out = collect_samples(BranchTable.from_records(records))
    assert out.suspect_counts == {115.0: 1}
    x_own, x_common, mva = out.transformer_triples[115.0]
    assert x_own.size == x_common.size == mva.size == 2
    # suspects stay in the statistics
    xr = out.values[(ParameterKind.TRANSFORMER_XR, 115.0)]
    assert xr.size == 2
    np.testing.assert_allclose(sorted(xr), [3.2, 25.0])


def test_collected_maps_run_in_class_table_order():
    records = [
        _line(0, kv=230.0),
        _xfmr(0, x=0.32, r=0.1, rating=70.0),  # X/R = 3.2: autotransformer suspect
        _xfmr(1, kv=230.0, x=0.32, r=0.1),
        _line(1),
        _xfmr(2, x=0.32, r=0.1, rating=50.0),
    ]
    out = collect_samples(BranchTable.from_records(records))
    assert list(out.values) == [(kind, kv) for kv in (115.0, 230.0) for kind in ParameterKind]
    assert list(out.transformer_triples) == [115.0, 230.0]
    assert list(out.suspect_counts.items()) == [(115.0, 2), (230.0, 1)]
    # each sample keeps record order
    assert list(out.values[(ParameterKind.TRANSFORMER_MVA_RATING, 115.0)]) == [70.0, 50.0]


@pytest.mark.parametrize("record, message", [
    (_line(0, x=1e10, r=1e-300), "branch 'l0': X/R is not finite (inf)"),
    (_xfmr(0, x=1e10, r=1e-300), "branch 't0': X/R is not finite (inf)"),
    (dataclasses.replace(_xfmr(0), system_mva_base=1e-307), "branch 't0': own-base reactance is not finite (inf)"),
])
def test_collect_names_the_first_row_past_float_range(record, message):
    # A line's own-base reactance is unused, so its overflow is no error.
    records = [_line(1, kv=345.0, x=1e10, r=1e-300), dataclasses.replace(_line(2), system_mva_base=1e-307),
               record, _line(3, x=1e10, r=1e-300)]
    with pytest.raises(ValueError) as got:
        collect_samples(BranchTable.from_records(records))
    assert str(got.value) == message


def test_observed_stats_band_needs_profile_entry():
    records = [_xfmr(i, x=0.02 + 0.01 * i) for i in range(20)]
    out = collect_samples(BranchTable.from_records(records))
    stats = observed_stats(out, profile=builtin_profile())
    key = (ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, 115.0)
    assert stats[key].band_fraction is not None
    # the rating entry declares no band
    key = (ParameterKind.TRANSFORMER_MVA_RATING, 115.0)
    assert stats[key].band_fraction is None
    # without a profile nothing gets a band fraction
    stats = observed_stats(out)
    for s in stats.values():
        assert s.band_fraction is None


def test_observed_stats_constant_sample_has_no_histogram():
    records = [_xfmr(i) for i in range(5)]
    out = collect_samples(BranchTable.from_records(records))
    stats = observed_stats(out)
    key = (ParameterKind.TRANSFORMER_MVA_RATING, 115.0)
    assert stats[key].hist is None
    assert stats[key].summary.median == 60.0


def test_decorrelation_stats_hand_check():
    # own-base X held constant in rank while rating rises: spearman 0 is
    # impossible with constant values, so vary them independently
    ratings = [50.0, 100.0, 150.0, 200.0, 250.0]
    xs = [0.06, 0.05, 0.07, 0.04, 0.055]
    records = [
        _xfmr(i, rating=m, x=x * 100.0 / m) for i, (m, x) in enumerate(zip(ratings, xs))
    ]
    out = collect_samples(BranchTable.from_records(records))
    stats = decorrelation_stats(out)
    d = stats[115.0]
    assert d.n == 5
    from gridparams.stats import spearman

    x_own, x_common, mva = out.transformer_triples[115.0]
    assert d.spearman_own == spearman(x_own, mva)
    assert d.spearman_common == spearman(x_common, mva)
    np.testing.assert_allclose(x_own, xs)
    assert spearman_own_by_class(stats) == {115.0: d.spearman_own}


def test_decorrelation_omits_degenerate_classes():
    # a single transformer cannot support a correlation
    out = collect_samples(BranchTable.from_records([_xfmr(0)]))
    assert decorrelation_stats(out) == {}
    # constant ratings: correlation undefined, class omitted
    out = collect_samples(BranchTable.from_records([_xfmr(0, x=0.05), _xfmr(1, x=0.08)]))
    assert decorrelation_stats(out) == {}


# ------------------------------------- columnar path against a record loop


def _reference_collect(records, class_kvs, rating_bounds, threshold):
    """The per-record loop that collect_samples replaces, built from the
    scalar rule functions: (reasons by id, values, triples, kept,
    unclassified, suspects), the three maps in class-table order."""
    classes = voltage_class_table(class_kvs)
    kept, reasons = [], {}
    for r in records:
        reason = _reject_reason(r, *rating_bounds)
        if reason is None:
            kept.append(r)
        else:
            reasons[r.id] = reason
    values, triples, suspects, unclassified = {}, {}, {}, 0
    for r in kept:
        kind = classify_branch(r, threshold)
        kv = assign_voltage_class(r, kind, classes)
        if kv is None:
            unclassified += 1
            continue
        xr = xr_ratio(r.r_pu, r.x_pu)
        try:
            x_own = to_own_base(r.x_pu, r.system_mva_base, r.mva_rating) if is_transformer(kind) else 0.0
        except ValueError as exc:
            raise ValueError(f"branch {r.id!r}: {exc}") from None
        for name, v in (("X/R", xr), ("own-base reactance", x_own)):
            if not math.isfinite(v):
                raise ValueError(f"branch {r.id!r}: {name} is not finite ({v})")
        if is_transformer(kind):
            pushes = [
                (ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, x_own),
                (ParameterKind.TRANSFORMER_MVA_RATING, r.mva_rating),
                (ParameterKind.TRANSFORMER_XR, xr),
            ]
            for col, v in zip(triples.setdefault(kv, ([], [], [])), (x_own, r.x_pu, r.mva_rating)):
                col.append(v)
            if kind.value == "AutotransformerSuspect":
                suspects[kv] = suspects.get(kv, 0) + 1
        else:
            pushes = [
                (ParameterKind.LINE_REACTANCE_COMMON_BASE, r.x_pu),
                (ParameterKind.LINE_CAPACITY, r.mva_rating),
                (ParameterKind.LINE_XR, xr),
            ]
        for param, v in pushes:
            values.setdefault((param, kv), []).append(v)
    values = {(p, kv): np.asarray(values[(p, kv)], dtype=float)
              for kv in classes for p in ParameterKind if (p, kv) in values}
    triples = {kv: tuple(np.asarray(c, dtype=float) for c in triples[kv]) for kv in classes if kv in triples}
    suspects = {kv: suspects[kv] for kv in classes if kv in suspects}
    return reasons, values, triples, len(kept), unclassified, suspects


def _edges(*values):
    """Each value and its two floating-point neighbours."""
    return [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


_KVS = [115.0, 138.0, 230.0, 100.0, 98.0, 102.0, 13.8, 345.0, *_edges(115 * 1.02, 115 * 0.98, 230 * 1.02)]
_ODD = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]), st.floats())


@st.composite
def _record(draw, i):
    """A plausible branch with values on the rule edges; in some records
    one field is replaced by a non-finite, non-positive or arbitrary float."""
    from_kv = draw(st.sampled_from(_KVS))
    r = draw(st.sampled_from([0.002, 0.01, 0.25, 1e-300]))
    fields = dict(
        from_kv=from_kv,
        # 100 kV against 98 kV differs by exactly the 2 percent tolerance.
        to_kv=draw(st.sampled_from([from_kv, 13.8, *_edges(from_kv - 0.02 * from_kv)])),
        r_pu=r,
        # x = 4 r makes X/R exactly the autotransformer threshold.
        x_pu=draw(st.sampled_from([0.05, 0.32, 0.1 * r, *_edges(4 * r)])),
        mva_rating=draw(st.sampled_from([60.0, 500.0, 1234.5, 0.0, *_edges(1.0, 3000.0)])),
        tap_ratio=draw(st.sampled_from([0.0, 1.0, 1.025])),
        system_mva_base=draw(st.sampled_from([100.0, 1.0, 30.0])),
    )
    if draw(st.booleans()):
        fields[draw(st.sampled_from(sorted(fields)))] = draw(_ODD)
    return BranchRecord(id=f"r{i}", from_bus=i, to_bus=i + 1, **fields)


@st.composite
def _fleets(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    return [draw(_record(i)) for i in range(n)]


@given(
    _fleets(),
    st.sampled_from([(115.0, 138.0, 230.0), (230.0, 100.0, 115.0), (13.8,)]),
    st.sampled_from([(1.0, 3000.0), (0.5, 1e300)]),
    st.sampled_from([4.0, 0.0, 10.0]),
)
def test_columnar_collect_equals_record_loop(records, class_kvs, rating_bounds, threshold):
    table = BranchTable.from_records(records)
    try:
        ref = _reference_collect(records, class_kvs, rating_bounds, threshold)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            collect_samples(table, class_kvs, rating_bounds=rating_bounds,
                            autotransformer_xr_threshold=threshold)
        assert str(got.value) == str(exc)
        return
    reasons, values, triples, kept, unclassified, suspects = ref
    out = collect_samples(table, class_kvs, rating_bounds=rating_bounds,
                          autotransformer_xr_threshold=threshold)
    codes = filter_valid(table, rating_bounds)

    assert out.reasons.dtype == np.int8
    rows = zip(out.rejected, out.reasons, strict=True)
    assert {r.id: tuple(RejectReason)[code] for r, code in rows} == reasons
    assert [repr(r) for r in out.rejected] == [repr(r) for r in records if r.id in reasons]
    assert len(out.rejected) + out.kept == len(records)
    assert [repr(r) for r in table.take(codes < 0)] == [repr(r) for r in records if r.id not in reasons]
    assert list(out.values) == list(values)
    for key, arr in values.items():
        assert out.values[key].tobytes() == arr.tobytes()
    assert list(out.transformer_triples) == list(triples)
    for kv, cols in triples.items():
        assert [c.tobytes() for c in out.transformer_triples[kv]] == [c.tobytes() for c in cols]
    assert (out.kept, out.unclassified) == (kept, unclassified)
    assert list(out.suspect_counts.items()) == list(suspects.items())
