"""Synthetic branch parameter generation from reference profiles.

Transformers: MVA rating, own-base reactance, and X/R are drawn from
three mutually independent streams (SeedSequence(seed).spawn(3), in that
fixed order), each truncated to its profile range by the inversion that
draws distributions.sample. The independence of the own-base draws is the
modeling choice that makes common-base reactance anticorrelate with rating
after conversion, while own-base reactance stays uncorrelated.

Lines: common-base reactance (exponential), capacity and X/R (normal,
truncated positive) from spawn(3) streams in the order
[reactance, capacity, xr].

Reactance calibration: published tables give the reactance median and
the probability mass on a band, but no t location-scale parameters, so
the scale is solved numerically from those two targets at a chosen nu.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .distributions import Exponential, Tls, _inverse_transform, _require, cdf
from .ingest import BranchKind, BranchTable, _csv_text
from .profiles import ParameterKind, ReferenceEntry, lookup

__all__ = [
    "DEFAULT_LINE_REACTANCE_MEAN",
    "DEFAULT_TLS_NU",
    "SyntheticBranchParams",
    "SyntheticTable",
    "calibrate_reactance_tls",
    "generate_transformers",
    "generate_lines",
    "params_csv",
    "params_to_branch_records",
]

#: Exponential mean solving P(X <= 0.02 p.u.) = 0.9: reads "mostly below
#: 0.02 p.u." as a 90% quantile. An assumption; override with fitted
#: values when line data is available.
DEFAULT_LINE_REACTANCE_MEAN = 0.02 / math.log(10.0)

#: Shape for calibrated reactance distributions: moderately heavy tails.
DEFAULT_TLS_NU = 3.0

_CALIBRATION_TOL = 1e-6


@dataclass(frozen=True)
class SyntheticBranchParams:
    """One generated branch, a row of a SyntheticTable (which checks the invariants).
    Transformers carry both bases (own-base x/r plus the common-base conversion)."""

    kind: BranchKind
    class_kv: float
    mva_rating: float
    x_pu_common: float
    r_pu_common: float
    xr: float
    x_pu_own: float | None = None
    r_pu_own: float | None = None


#: Row kinds are stored as indices into this tuple.
_KINDS = tuple(BranchKind)
_LINE = _KINDS.index(BranchKind.TRANSMISSION_LINE)
#: The SyntheticBranchParams fields after kind, in order; the last two are own-base.
_COLUMNS = tuple(f.name for f in fields(SyntheticBranchParams))[1:]


class SyntheticTable(Sequence):
    """Generated branches stored column-wise: an int8 `kind` column of
    indices into tuple(BranchKind), and a float64 column per other field
    of SyntheticBranchParams, NaN in the own-base cells of line rows.
    Reads as a sequence of SyntheticBranchParams built on demand.

    Building a table checks each column once: every value finite and > 0,
    own-base values present exactly on transformer rows, and xr equal to
    x/r within 1e-9 relative on the primary base (own for transformers).
    """

    __slots__ = ("kind", *_COLUMNS)

    def __init__(self, kind, **columns):
        if set(columns) != set(_COLUMNS):
            raise TypeError(f"SyntheticTable needs exactly the columns {_COLUMNS}")
        self.kind = np.asarray(kind, dtype=np.int8)
        line = self.kind == _LINE
        for name in _COLUMNS:
            col = np.asarray(columns[name], dtype=np.float64)
            if col.shape != line.shape:
                raise ValueError(f"column {name!r} has shape {col.shape}, expected {line.shape}")
            setattr(self, name, col)
            if name in _COLUMNS[5:]:
                if (np.isnan(col) != line).any():
                    raise ValueError("own-base x and r are given for transformers, and only for them")
                col = col[~line]
            bad = ~((col > 0) & (col < math.inf))
            if bad.any():
                _require(name, col[bad][0].item())
        x = np.where(line, self.x_pu_common, self.x_pu_own)
        r = np.where(line, self.r_pu_common, self.r_pu_own)
        bad = np.abs(x / r - self.xr) > 1e-9 * self.xr
        if bad.any():
            raise ValueError(f"xr {self.xr[bad][0]} inconsistent with x/r = {(x / r)[bad][0]}")

    @classmethod
    def from_rows(cls, rows) -> SyntheticTable:
        """A table of SyntheticBranchParams rows; None own-base cells become NaN."""
        rows = list(rows)
        columns = {name: [getattr(p, name) for p in rows] for name in _COLUMNS}
        return cls([_KINDS.index(p.kind) for p in rows], **columns)

    @classmethod
    def concat(cls, tables) -> SyntheticTable:
        """One table holding the rows of tables, in order."""
        tables = list(tables)
        parts = {name: [getattr(t, name) for t in tables] or [[]] for name in ("kind", *_COLUMNS)}
        return cls(**{name: np.concatenate(p) for name, p in parts.items()})

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i: int) -> SyntheticBranchParams:
        return _row(*(getattr(self, name)[i].item() for name in ("kind", *_COLUMNS)))

    def __iter__(self):
        return map(_row, *(getattr(self, name).tolist() for name in ("kind", *_COLUMNS)))


def _row(kind: int, *values: float) -> SyntheticBranchParams:
    if kind == _LINE:
        values = (*values[:5], None, None)
    return SyntheticBranchParams(_KINDS[kind], *values)


def calibrate_reactance_tls(
    target: ReferenceEntry,
    nu: float = DEFAULT_TLS_NU,
    *,
    truncate_to: tuple[float, float] = (-math.inf, math.inf),
) -> tuple[Tls, float]:
    """(dist, residual): the t location-scale distribution with location at the
    target's median whose band mass equals the band fraction within
    _CALIBRATION_TOL, and the absolute gap between the two. The band mass is the
    mass of the band's part inside the truncation window truncate_to=(lo, hi],
    conditional on the window, which is what a sampler truncated to it draws.
    The default window is the whole line, where this is the plain mass on the band.
    """
    if not nu > 1:
        raise ValueError(f"nu must be > 1, got {nu}")
    mu, band = _field(target, "median"), _field(target, "band")
    if not band.lo < mu < band.hi:
        raise ValueError(
            f"band [{band.lo}, {band.hi}] must contain the median {mu} "
            "for the band mass to be solvable in the scale"
        )
    t_lo, t_hi = truncate_to
    if not t_lo < mu < t_hi:
        raise ValueError(f"truncation interval ({t_lo}, {t_hi}] must contain the median {mu}")
    if not 0.0 < band.fraction < 1.0:
        raise ValueError(
            f"band fraction {band.fraction} is unachievable: the achievable "
            "supremum is 1 (open) and the infimum is above 0"
        )
    # One cdf call for every edge: each call runs a continued fraction. The
    # cdf is exactly 0 and 1 at -inf and inf, so the default window divides by 1.
    edges = np.array([max(band.lo, t_lo), min(band.hi, t_hi), t_lo, t_hi], dtype=float)

    def mass(sigma: float) -> float:
        f = cdf(Tls(mu=mu, sigma=sigma, nu=nu), edges)
        return float(f[1] - f[0]) / float(f[3] - f[2])

    # Mass shrinks as the scale grows (the band's part in the window contains
    # the location), so bracket by scaling sigma both ways, then bisect. Halving
    # ends: once every edge lies ~1e16 scales from the median, the mass rounds to 1.
    sigma_lo = sigma_hi = 0.5 * (band.hi - band.lo)
    while mass(sigma_lo) < band.fraction:
        sigma_lo /= 2.0
    # Conditional mass levels off at a positive limit under truncation, so watch
    # for a plateau instead of doubling blindly; the change per doubling shrinks
    # geometrically, so that test ends the loop.
    prev = math.inf
    while (m_hi := mass(sigma_hi)) > band.fraction:
        if abs(m_hi - prev) <= 1e-12:
            raise ValueError(
                f"band fraction {band.fraction} is below the achievable infimum "
                f"{prev:.6f} for nu={nu} under truncation {truncate_to}"
            )
        prev = m_hi
        sigma_hi *= 2.0

    # Bisect until the bracket is two adjacent floats (m_hi is the last residual if it starts
    # so). It is one point, solved by its midpoint, where mass(sigma_hi) is the fraction exactly.
    m = m_hi
    while sigma_lo < (sigma := 0.5 * (sigma_lo + sigma_hi)) < sigma_hi or sigma_lo == sigma_hi:
        m = mass(sigma)
        if abs(m - band.fraction) <= _CALIBRATION_TOL:
            return Tls(mu=mu, sigma=sigma, nu=nu), abs(m - band.fraction)
        if m > band.fraction:
            sigma_lo = sigma
        else:
            sigma_hi = sigma
    raise ArithmeticError(
        f"calibration did not reach tolerance {_CALIBRATION_TOL}; "
        f"last residual {abs(m - band.fraction)}"
    )


def _field(entry: ReferenceEntry, name: str):
    """entry's "fitted" parameters, "band" or summary value name; ValueError naming entry if it is None."""
    source = entry if name in ("fitted", "band") else entry.summary
    value = source and getattr(source, name)
    if value is None:
        what = {"fitted": "fitted parameters", "band": "a band"}.get(name, f"a summary {name}")
        raise ValueError(f"{entry.kind.value} at {entry.class_kv:g} kV needs {what}")
    return value


def _resolve(profile, class_kv: float, *needs: tuple) -> list[tuple]:
    """(entry, *values) for each (kind, *fields) of needs, in order: the profile's entry for kind at class_kv,
    then _field(entry, field) per field; ValueError names the first entry the profile lacks, if any."""
    resolved = []
    for kind, *fields in needs:
        entry = lookup(profile, kind, class_kv)
        if entry is None:
            raise ValueError(f"profile lacks {kind.value} for class {class_kv:g} kV")
        resolved.append((entry, *(_field(entry, f) for f in fields)))
    return resolved


def _draw(seed: int, n: int, *streams: tuple) -> list[np.ndarray]:
    """n draws for each (entry, dist, lo, hi) of streams on (lo, hi], from child i of SeedSequence(seed).spawn(k)
    for stream i of k; ValueError names the entry of an interval too thin to sample."""
    children = np.random.SeedSequence(seed).spawn(len(streams))
    return [_inverse_transform(d, np.random.Generator(np.random.PCG64(child)), n, lo, hi,
                               f"{entry.kind.value} at {entry.class_kv:g} kV")
            for child, (entry, d, lo, hi) in zip(children, streams)]


def generate_transformers(
    class_kv: float,
    n: int,
    seed: int,
    profile,
    system_mva_base: float,
    *,
    nu: float = DEFAULT_TLS_NU,
) -> SyntheticTable:
    """Draw n transformer parameter sets for one voltage class.

    Streams (fixed order): rating, own-base reactance, X/R. Rating is
    truncated to the profile's (min, max]; reactance and X/R to (0, max].
    Resistance follows as reactance / X/R; common-base values follow from
    the rating and the system base.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require("system_mva_base", system_mva_base)
    (x_entry, x_max), mva_stream, (xr_entry, xr_dist, xr_max) = _resolve(
        profile, class_kv, (ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE, "max"),
        (ParameterKind.TRANSFORMER_MVA_RATING, "fitted", "min", "max"),
        (ParameterKind.TRANSFORMER_XR, "fitted", "max"),
    )
    x_dist, _ = calibrate_reactance_tls(x_entry, nu, truncate_to=(0.0, x_max))
    # The rating's (entry, fitted, min, max) is its stream, drawn on (min, max].
    mva, x_own, xr_draw = _draw(seed, n, mva_stream, (x_entry, x_dist, 0.0, x_max),
                                (xr_entry, xr_dist, 0.0, xr_max))

    r_own = x_own / xr_draw
    return SyntheticTable(
        np.full(n, _KINDS.index(BranchKind.TRANSFORMER)), class_kv=np.full(n, float(class_kv)),
        mva_rating=mva, x_pu_own=x_own, r_pu_own=r_own, xr=x_own / r_own,
        x_pu_common=x_own * system_mva_base / mva, r_pu_common=r_own * system_mva_base / mva,
    )


def generate_lines(class_kv: float, n: int, seed: int, profile) -> SyntheticTable:
    """Draw n line parameter sets: exponential common-base reactance and
    normal capacity and X/R, each truncated positive.

    Streams (fixed order): reactance, capacity, X/R. A reactance entry
    without parameters falls back to DEFAULT_LINE_REACTANCE_MEAN; capacity
    and X/R have no defensible defaults and must carry fitted parameters.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    (x_entry,), (cap_entry, cap_dist), (xr_entry, xr_dist) = _resolve(
        profile, class_kv, (ParameterKind.LINE_REACTANCE_COMMON_BASE,),
        (ParameterKind.LINE_CAPACITY, "fitted"), (ParameterKind.LINE_XR, "fitted"),
    )
    x_dist = x_entry.fitted if x_entry.fitted is not None else Exponential(DEFAULT_LINE_REACTANCE_MEAN)
    x, cap, xr_draw = _draw(seed, n, (x_entry, x_dist, 0.0, math.inf), (cap_entry, cap_dist, 0.0, math.inf),
                            (xr_entry, xr_dist, 0.0, math.inf))

    r = x / xr_draw
    return SyntheticTable(
        np.full(n, _LINE), class_kv=np.full(n, float(class_kv)),
        mva_rating=cap, x_pu_common=x, r_pu_common=r, xr=x / r,
        x_pu_own=np.full(n, math.nan), r_pu_own=np.full(n, math.nan),
    )


PARAMS_CSV_HEADER = "kind,class_kv,mva_rating,x_pu_own,r_pu_own,x_pu_common,r_pu_common,xr"


def params_csv(table: SyntheticTable) -> str:
    """Plot-ready CSV of generated branches; own-base cells are empty for lines."""
    header = PARAMS_CSV_HEADER.split(",")
    names = [k.value for k in _KINDS]  # one str object per kind, shared by its rows
    kinds = [names[k] for k in table.kind.tolist()]
    text = _csv_text(header, [kinds, *(getattr(table, name) for name in header[1:])])
    # Own-base x and r are adjacent columns, NaN together on exactly the line
    # rows, and no other cell can be NaN: blank those cells in one pass.
    return text.replace(",nan,nan,", ",,,")


def params_to_branch_records(table: SyntheticTable, system_mva_base: float, *, lv_kv: float = 13.8) -> BranchTable:
    """Wrap generated parameters as branch records on fresh buses, so a
    generated population can round-trip through the analysis pipeline.

    Transformers get a high/low voltage pair (tap 1.0) with the low side at
    lv_kv, which must lie in (0, class_kv); lines connect two buses at the
    class voltage (tap 0). Impedances are common-base, as branch records
    require. Row i (from 1) gets buses 2i - 1 and 2i and the id "T<class>-i"
    or "L<class>-i".
    """
    _require("system_mva_base", system_mva_base)
    xfmr = table.kind != _LINE
    if xfmr.any():
        _require("lv_kv", lv_kv)
    low = np.flatnonzero(xfmr & ~(lv_kv < table.class_kv))
    if low.size:
        raise ValueError(f"lv_kv {lv_kv} must be below class_kv {table.class_kv[low[0]]}")
    n = len(table)
    kvs, inverse = np.unique(table.class_kv, return_inverse=True)
    prefixes = [f"{kind}{kv:g}-" for kv in kvs.tolist() for kind in "LT"]
    codes = (2 * inverse.ravel() + xfmr).tolist()
    return BranchTable(
        [f"{prefixes[c]}{i}" for i, c in enumerate(codes, 1)],
        from_bus=np.arange(1, 2 * n, 2), to_bus=np.arange(2, 2 * n + 1, 2),
        from_kv=table.class_kv, to_kv=np.where(xfmr, lv_kv, table.class_kv),
        r_pu=table.r_pu_common, x_pu=table.x_pu_common, mva_rating=table.mva_rating,
        tap_ratio=np.where(xfmr, 1.0, 0.0), system_mva_base=np.full(n, system_mva_base),
    )
