"""Case analysis pipeline: filter and classify branch records, collect
per-(parameter, voltage class) samples, and package the statistics that
validation and reporting consume.

Autotransformer suspects are transformers for statistical purposes; the
tag exists so reports can show how many suspects a class contains, not
to exclude them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import _require
from .ingest import (
    DEFAULT_CLASS_KVS,
    DEFAULT_RATING_BOUNDS,
    BranchTable,
    _transformer_masks,
    _voltage_class_index,
    filter_valid,
    voltage_class_table,
)
from .profiles import ObservedClassStats, ParameterKind, lookup
from .stats import _average_ranks, band_fraction, histogram, pearson, summarize

__all__ = [
    "CollectedSamples",
    "DecorrelationStats",
    "collect_samples",
    "observed_stats",
    "decorrelation_stats",
    "spearman_own_by_class",
]


@dataclass(frozen=True)
class CollectedSamples:
    """Raw per-class value arrays plus bookkeeping counts.

    values maps (ParameterKind, class_kv) to a 1-D array in record order.
    transformer_triples maps class_kv to (x_own, x_common, mva) arrays for
    correlation analyses. rejected and reasons are filter_valid's rejected
    rows and reason codes. suspect_counts tallies autotransformer suspects
    in the transformer samples. All three maps are keyed in class-table
    order: ascending kV, then ParameterKind order (transformer kinds first).
    """

    values: dict[tuple[ParameterKind, float], np.ndarray]
    transformer_triples: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]]
    kept: int
    rejected: BranchTable
    reasons: np.ndarray
    unclassified: int
    suspect_counts: dict[float, int] = field(default_factory=dict)


def collect_samples(
    table: BranchTable,
    class_kvs=DEFAULT_CLASS_KVS,
    *,
    rating_bounds=DEFAULT_RATING_BOUNDS,
    autotransformer_xr_threshold: float = 4.0,
) -> CollectedSamples:
    """Filter, classify, and bucket branch records into parameter samples.

    Transformers contribute own-base reactance (rebased by their rating),
    rating, and X/R; lines contribute common-base reactance, capacity, and
    X/R. Records matching no voltage class are counted, not errors; a
    classified one whose X/R or own-base reactance overflows is a ValueError.

    Works on whole columns. Samples keep record order, keys class-table order.
    """
    classes = voltage_class_table(class_kvs)
    codes = filter_valid(table, rating_bounds)
    kept = codes < 0
    transformer, suspect = _transformer_masks(table, autotransformer_xr_threshold)
    cls = np.where(kept, _voltage_class_index(table, transformer, classes), -1)
    classified = cls >= 0

    # Lines may carry any finite base; their x_own is computed and unused, as are rejected rows'.
    with np.errstate(all="ignore"):
        xr = table.x_pu / table.r_pu
        x_own = table.x_pu * (table.mva_rating / table.system_mva_base)
    own_ok = (table.system_mva_base > 0) & np.isfinite(x_own)
    bad = np.flatnonzero(classified & ~(np.isfinite(xr) & (own_ok | ~transformer)))
    if bad.size:  # the first such row, as a loop over the records would meet it
        i = bad[0]
        try:
            if transformer[i]:
                _require("system_mva_base", table.system_mva_base[i].item())
        except ValueError as exc:
            raise ValueError(f"branch {table.ids[i]!r}: {exc}") from None
        name, v = ("X/R", xr[i]) if not np.isfinite(xr[i]) else ("own-base reactance", x_own[i])
        raise ValueError(f"branch {table.ids[i]!r}: {name} is not finite ({v})")

    values: dict[tuple[ParameterKind, float], np.ndarray] = {}
    triples: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for i, kv in enumerate(classes):
        rows = np.flatnonzero((cls == i) & transformer)
        if rows.size:
            own, x, mva = x_own[rows], table.x_pu[rows], table.mva_rating[rows]
            values[(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, kv)] = own
            values[(ParameterKind.TRANSFORMER_MVA_RATING, kv)] = mva
            values[(ParameterKind.TRANSFORMER_XR, kv)] = xr[rows]
            triples[kv] = (own, x, mva)
        rows = np.flatnonzero((cls == i) & ~transformer)
        if rows.size:
            values[(ParameterKind.LINE_REACTANCE_COMMON_BASE, kv)] = table.x_pu[rows]
            values[(ParameterKind.LINE_CAPACITY, kv)] = table.mva_rating[rows]
            values[(ParameterKind.LINE_XR, kv)] = xr[rows]

    flagged = np.bincount(cls[suspect & classified], minlength=len(classes))
    return CollectedSamples(
        values=values,
        transformer_triples=triples,
        kept=int(np.count_nonzero(kept)),
        rejected=table.take(~kept),
        reasons=codes[~kept],
        unclassified=int(np.count_nonzero(kept & ~classified)),
        suspect_counts={kv: int(n) for kv, n in zip(classes, flagged) if n},
    )


def observed_stats(
    collected: CollectedSamples,
    profile=None,
    *,
    bins="fd",
) -> dict[tuple[ParameterKind, float], ObservedClassStats]:
    """Summarize every collected sample. Band fractions are computed for
    entries whose profile declares a band; degenerate (constant) samples
    get summary statistics but no histogram."""
    out = {}
    for (kind, kv), arr in collected.values.items():
        try:
            hist = histogram(arr, bins)
        except ValueError:
            hist = None
        frac = None
        if profile is not None:
            entry = lookup(profile, kind, kv)
            if entry is not None and entry.band is not None:
                frac = band_fraction(arr, entry.band.lo, entry.band.hi)
        out[(kind, kv)] = ObservedClassStats(
            summary=summarize(arr), hist=hist, band_fraction=frac, values=arr
        )
    return out


@dataclass(frozen=True)
class DecorrelationStats:
    """Correlation of transformer reactance with rating, on both bases, in one voltage class.

    Own-base reactance should be nearly uncorrelated with rating; the
    common-base values anticorrelate because the base conversion divides
    by the rating.
    """

    n: int
    pearson_own: float
    spearman_own: float
    pearson_common: float
    spearman_common: float


def decorrelation_stats(collected: CollectedSamples) -> dict[float, DecorrelationStats]:
    """Per-class reactance-vs-rating correlations; classes whose samples
    are too small or constant (correlation undefined) are omitted."""
    out = {}
    for kv, (x_own, x_common, mva) in collected.transformer_triples.items():
        mva_ranks = _average_ranks(mva)  # shared by both Spearman values
        try:  # each pearson of values runs first and rejects samples too small or not finite
            out[kv] = DecorrelationStats(
                n=int(x_own.size),
                pearson_own=pearson(x_own, mva),
                spearman_own=pearson(_average_ranks(x_own), mva_ranks),
                pearson_common=pearson(x_common, mva),
                spearman_common=pearson(_average_ranks(x_common), mva_ranks),
            )
        except ValueError:
            continue
    return out


def spearman_own_by_class(decorr: dict[float, DecorrelationStats]) -> dict[float, float]:
    """The map validate() expects for its decorrelation check."""
    return {kv: d.spearman_own for kv, d in decorr.items()}
