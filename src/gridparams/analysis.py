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
from .stats import Binning, FreedmanDiaconis, _average_ranks, band_fraction, histogram, pearson, summarize

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
    in the transformer samples.
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
    X/R. Records matching no voltage class are counted, not errors.

    Works on whole columns. Each sample keeps record order, and dict keys
    appear in the order of the first record that fills them.
    """
    classes = voltage_class_table(class_kvs)
    outcome = filter_valid(table, rating_bounds)
    table = outcome.kept
    transformer, suspect = _transformer_masks(table, autotransformer_xr_threshold)
    cls = _voltage_class_index(table, transformer, classes)
    classified = cls >= 0

    bad_base = np.flatnonzero(transformer & classified & ~(table.system_mva_base > 0))
    if bad_base.size:
        _require("system_mva_base", table.system_mva_base[bad_base[0]].item())
    # Lines may carry any finite base; their x_own is computed and unused.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xr = table.x_pu / table.r_pu
        x_own = table.x_pu * (table.mva_rating / table.system_mva_base)

    # One group of rows per (class, transformer or line), filled in order
    # of the group's first row, as a loop over the records would fill them.
    groups = []
    for i in range(len(classes)):
        in_class = cls == i
        for is_transformer, mask in ((True, in_class & transformer), (False, in_class & ~transformer)):
            rows = np.flatnonzero(mask)
            if rows.size:
                groups.append((rows[0], classes[i], is_transformer, rows))
    values: dict[tuple[ParameterKind, float], np.ndarray] = {}
    triples: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for _, kv, is_transformer, rows in sorted(groups, key=lambda g: g[0]):
        x, mva = table.x_pu[rows], table.mva_rating[rows]
        if is_transformer:
            own = x_own[rows]
            values[(ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, kv)] = own
            values[(ParameterKind.TRANSFORMER_MVA_RATING, kv)] = mva
            values[(ParameterKind.TRANSFORMER_XR, kv)] = xr[rows]
            triples[kv] = (own, x, mva)
        else:
            values[(ParameterKind.LINE_REACTANCE_COMMON_BASE, kv)] = x
            values[(ParameterKind.LINE_CAPACITY, kv)] = mva
            values[(ParameterKind.LINE_XR, kv)] = xr[rows]

    flagged, first_flagged, n_flagged = np.unique(
        cls[suspect & classified], return_index=True, return_counts=True
    )
    return CollectedSamples(
        values=values,
        transformer_triples=triples,
        kept=len(table),
        rejected=outcome.rejected,
        reasons=outcome.reasons,
        unclassified=int(np.count_nonzero(~classified)),
        suspect_counts={classes[flagged[j]]: int(n_flagged[j]) for j in np.argsort(first_flagged)},
    )


def observed_stats(
    collected: CollectedSamples,
    profile=None,
    *,
    binning: Binning = FreedmanDiaconis(),
) -> dict[tuple[ParameterKind, float], ObservedClassStats]:
    """Summarize every collected sample. Band fractions are computed for
    entries whose profile declares a band; degenerate (constant) samples
    get summary statistics but no histogram."""
    out = {}
    for (kind, kv), arr in collected.values.items():
        try:
            hist = histogram(arr, binning)
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
