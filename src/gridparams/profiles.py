"""Reference statistical profiles and grid validation against them.

A profile is a list of ReferenceEntry records, one per (parameter kind,
voltage class): published summary statistics, an optional probability
band, a distribution family, optional fitted parameters, and the KL
divergence that fit achieved on its source data. The built-in profile
ships as package data (data/builtin_profile.json) so regional profiles
can be swapped in as plain JSON.

validate() compares observed per-class statistics against a profile and
emits one finding per applicable check; thresholds are explicit in every
finding because the defaults are conventions, not published limits.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources

import numpy as np

from .distributions import (
    FAMILIES,
    DistSpec,
    family_tag,
    fields_from_json,
    from_json as dist_from_json,
    number_from_json,
    to_json as dist_to_json,
)
from .fitting import fit_and_score, kl_divergence, select_best
from .ingest import VoltageClass
from .stats import Histogram, SummaryStats

__all__ = [
    "ParameterKind",
    "TRANSFORMER_KINDS",
    "LINE_KINDS",
    "EXPECTED_FAMILY",
    "SummaryRef",
    "BandRef",
    "ReferenceEntry",
    "ValidationThresholds",
    "DEFAULT_THRESHOLDS",
    "Finding",
    "ValidationReport",
    "ObservedClassStats",
    "builtin_profile",
    "lookup",
    "parse_profile_json",
    "serialize_profile_json",
    "validate",
    "report_to_dict",
    "serialize_report",
    "thresholds_from_dict",
]


class ParameterKind(Enum):
    TRANSFORMER_REACTANCE_OWN_BASE = "TransformerReactanceOwnBase"
    TRANSFORMER_MVA_RATING = "TransformerMvaRating"
    TRANSFORMER_XR = "TransformerXr"
    LINE_REACTANCE_COMMON_BASE = "LineReactanceCommonBase"
    LINE_CAPACITY = "LineCapacity"
    LINE_XR = "LineXr"


TRANSFORMER_KINDS = frozenset(
    {
        ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE,
        ParameterKind.TRANSFORMER_MVA_RATING,
        ParameterKind.TRANSFORMER_XR,
    }
)

LINE_KINDS = frozenset(
    {
        ParameterKind.LINE_REACTANCE_COMMON_BASE,
        ParameterKind.LINE_CAPACITY,
        ParameterKind.LINE_XR,
    }
)

#: Distribution family each parameter kind is modeled with. Entries that
#: declare a family must declare this one; the mapping is part of the
#: reference, not a tunable.
EXPECTED_FAMILY = {
    ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE: "tls",
    ParameterKind.TRANSFORMER_MVA_RATING: "gev",
    ParameterKind.TRANSFORMER_XR: "gev",
    ParameterKind.LINE_REACTANCE_COMMON_BASE: "exponential",
    ParameterKind.LINE_CAPACITY: "normal",
    ParameterKind.LINE_XR: "normal",
}

@dataclass(frozen=True)
class SummaryRef:
    """Published summary values; any field may be absent (None)."""

    median: float | None = None
    mean: float | None = None
    min: float | None = None
    max: float | None = None
    q10: float | None = None
    q90: float | None = None

    def __post_init__(self):
        values = dataclasses.asdict(self)
        for name, v in values.items():
            if v is not None and not math.isfinite(v):
                raise ValueError(f"summary field {name} must be finite, got {v}")
        if self.min is not None and self.max is not None and self.min > self.max:
            raise ValueError(f"summary min {self.min} exceeds max {self.max}")
        if self.q10 is not None and self.q90 is not None and self.q10 > self.q90:
            raise ValueError(f"summary q10 {self.q10} exceeds q90 {self.q90}")
        if all(v is None for v in values.values()):
            raise ValueError("summary must carry at least one value")


@dataclass(frozen=True)
class BandRef:
    """Expected probability mass inside the closed interval [lo, hi]."""

    lo: float
    hi: float
    fraction: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"band requires finite lo < hi, got [{self.lo}, {self.hi}]")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"band fraction must be in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class ReferenceEntry:
    """Reference statistics for one (kind, voltage class).

    At least one of summary, band, family must be present. fitted holds
    distribution parameters when the source published them; family alone
    (fitted None) records the modeling choice without parameters.
    """

    kind: ParameterKind
    class_kv: float
    summary: SummaryRef | None = None
    band: BandRef | None = None
    family: str | None = None
    fitted: DistSpec | None = None
    reference_d_kl: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.class_kv) and self.class_kv > 0):
            raise ValueError(f"class_kv must be > 0, got {self.class_kv}")
        if self.summary is None and self.band is None and self.family is None:
            raise ValueError("entry needs at least one of summary, band, family")
        median = None if self.summary is None else self.summary.median
        if median is not None and not median > 0:
            # MedianCheck divides by the reference median; every kind is a positive quantity.
            raise ValueError(
                f"{self.kind.value} at {self.class_kv:g} kV: "
                f"reference median must be > 0, got {median}"
            )
        if self.family is not None:
            if self.family not in FAMILIES:
                raise ValueError(f"unknown family {self.family!r}")
            expected = EXPECTED_FAMILY[self.kind]
            if self.family != expected:
                raise ValueError(
                    f"{self.kind.value} entries use family {expected!r}, got {self.family!r}"
                )
        if self.fitted is not None:
            if self.family is None:
                raise ValueError("fitted parameters require the family field")
            if family_tag(self.fitted) != self.family:
                raise ValueError(
                    f"fitted family {family_tag(self.fitted)!r} contradicts declared {self.family!r}"
                )
        if self.reference_d_kl is not None:
            if self.fitted is None:
                raise ValueError("reference_d_kl is meaningless without fitted parameters")
            if not (math.isfinite(self.reference_d_kl) and self.reference_d_kl >= 0):
                raise ValueError(f"reference_d_kl must be >= 0, got {self.reference_d_kl}")


def _check_unique(entries) -> None:
    """ValueError when two entries of one kind name the same voltage class,
    as lookup() matches classes."""
    seen = []
    for e in entries:
        if lookup(seen, e.kind, e.class_kv) is not None:
            raise ValueError(f"duplicate profile entry for {e.kind.value} at {e.class_kv:g} kV")
        seen.append(e)


def lookup(profile, kind: ParameterKind, class_kv: float) -> ReferenceEntry | None:
    """The entry for kind whose class_kv matches class_kv within the
    voltage-class tolerance with which records are classed, or None."""
    for e in profile:
        if e.kind is kind and VoltageClass(e.class_kv).matches(class_kv):
            return e
    return None


@dataclass(frozen=True)
class ValidationThresholds:
    """Pass/fail limits for validate(); defaults are package conventions
    and are echoed into every finding so reports are self-describing."""

    median_rel: float = 0.25
    band_abs: float = 0.10
    range_factor: float = 1.5
    kl_max_nats: float = 0.3
    decorrelation_max: float = 0.15
    family_rank_margin_nats: float = 0.05

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise ValueError(f"threshold {f.name} must be finite and >= 0, got {v}")
        if self.range_factor < 1.0:
            raise ValueError(f"range_factor must be >= 1, got {self.range_factor}")


DEFAULT_THRESHOLDS = ValidationThresholds()


def thresholds_from_dict(obj: dict) -> ValidationThresholds:
    return fields_from_json(ValidationThresholds, obj, "threshold")


@dataclass(frozen=True)
class Finding:
    """One check outcome. observed/expected are floats or 2-intervals;
    both are None on skipped findings. threshold names the limit applied."""

    kind: ParameterKind
    class_kv: float
    check: str
    observed: float | tuple[float, float] | None
    expected: float | tuple[float, float] | None
    threshold: str
    status: str
    note: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skipped"):
            raise ValueError(f"status must be pass/fail/skipped, got {self.status!r}")


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]
    overall_pass: bool
    thresholds: ValidationThresholds


@dataclass(frozen=True)
class ObservedClassStats:
    """Computed statistics for one (kind, class): summary always, plus the
    histogram, band fraction, and raw values when the corresponding checks
    should run. Missing pieces downgrade those checks to skipped."""

    summary: SummaryStats
    hist: Histogram | None = None
    band_fraction: float | None = None
    values: np.ndarray | None = None


def _entry_from_dict(obj: dict) -> ReferenceEntry:
    if not isinstance(obj, dict):
        raise ValueError(f"profile entry must be a JSON object, got {obj!r}")
    try:
        kind = ParameterKind(obj["kind"])
    except KeyError:
        raise ValueError(f"profile entry missing kind: {obj!r}") from None
    except ValueError:
        raise ValueError(f"unknown parameter kind {obj.get('kind')!r}") from None
    if "class_kv" not in obj:
        raise ValueError(f"profile entry missing class_kv: {obj!r}")

    family = fitted = None
    raw = obj.get("fitted")
    if raw is not None:
        if not isinstance(raw, dict):
            raise ValueError(f"fitted must be a JSON object, got {raw!r}")
        family = raw.get("family")
        if raw.get("params") is not None:
            fitted = dist_from_json(raw)
            family = family_tag(fitted)

    summary, band, d_kl = (obj.get(name) for name in ("summary", "band", "reference_d_kl"))
    return ReferenceEntry(
        kind=kind,
        class_kv=number_from_json(obj["class_kv"], "class_kv"),
        summary=None if summary is None else fields_from_json(SummaryRef, summary, "summary"),
        band=None if band is None else fields_from_json(BandRef, band, "band"),
        family=family,
        fitted=fitted,
        reference_d_kl=None if d_kl is None else number_from_json(d_kl, "reference_d_kl"),
    )


def _entry_to_dict(e: ReferenceEntry) -> dict:
    out: dict = {"kind": e.kind.value, "class_kv": e.class_kv}
    if e.summary is not None:
        out["summary"] = {k: v for k, v in dataclasses.asdict(e.summary).items() if v is not None}
    if e.band is not None:
        out["band"] = dataclasses.asdict(e.band)
    if e.fitted is not None:
        out["fitted"] = dist_to_json(e.fitted)
    elif e.family is not None:
        out["fitted"] = {"family": e.family}
    if e.reference_d_kl is not None:
        out["reference_d_kl"] = e.reference_d_kl
    return out


def parse_profile_json(text: str) -> list[ReferenceEntry]:
    """Parse a profile (JSON array of entry objects); family without
    params records the modeling family with parameters unpublished."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("profile JSON must be an array of entries")
    entries = [_entry_from_dict(obj) for obj in data]
    _check_unique(entries)
    return entries


def serialize_profile_json(entries) -> str:
    _check_unique(entries)
    return json.dumps([_entry_to_dict(e) for e in entries], indent=2, sort_keys=True) + "\n"


@lru_cache(maxsize=1)
def _builtin() -> tuple[ReferenceEntry, ...]:
    text = resources.files("gridparams").joinpath("data/builtin_profile.json").read_text("utf-8")
    return tuple(parse_profile_json(text))


def builtin_profile() -> list[ReferenceEntry]:
    """Reference profile for 115/138/230 kV classes: transformer reactance
    (own base), MVA rating, and X/R with published summaries, the reactance
    probability bands, GEV parameters for MVA and X/R, and family tags for
    line reactance, capacity, and X/R."""
    return list(_builtin())


def _finding(entry, check, observed, expected, threshold, ok, note=""):
    """entry's Finding of check: pass or fail by ok, or skipped when ok is None."""
    return Finding(
        kind=entry.kind,
        class_kv=entry.class_kv,
        check=check,
        observed=observed,
        expected=expected,
        threshold=threshold,
        status="skipped" if ok is None else "pass" if ok else "fail",
        note=note,
    )


def _skipped(entry, check, note):
    return _finding(entry, check, None, None, "none", None, note)


def _check_family_rank(entry, obs, margin: float) -> Finding:
    threshold = f"family_rank_margin_nats={margin:g}"
    scored = fit_and_score(obs.values)
    candidates = [(f, s) for f, s in scored if family_tag(f.dist) == entry.family]
    if not candidates:
        return _finding(
            entry, "FamilyCheck", None, None, threshold, False,
            note=f"family {entry.family!r} cannot represent the observed sample",
        )
    _, best_score = select_best(scored)
    excess = candidates[0][1].d_kl - best_score.d_kl
    return _finding(
        entry, "FamilyCheck", excess, margin, threshold, excess <= margin,
        note=f"KL excess of {entry.family!r} over the best-ranked family",
    )


def validate(
    observed,
    profile,
    thresholds: ValidationThresholds = DEFAULT_THRESHOLDS,
    *,
    transformer_decorrelation=None,
) -> ValidationReport:
    """Check observed per-class statistics against a reference profile.

    observed maps (ParameterKind, class_kv) to ObservedClassStats; a class_kv
    key is the entry's class when it matches the entry's class_kv within the
    voltage-class tolerance, as lookup() matches it. Per entry, every
    check whose reference data exists runs: MedianCheck (relative median
    deviation), BandCheck (absolute band-mass deviation), RangeCheck
    (observed extremes inside the reference range expanded about its center
    by range_factor), KlCheck (histogram vs fitted parameters), FamilyCheck
    (line kinds with family but no parameters: the declared family must
    rank first by KL or within the margin), and DecorrelationCheck
    (|spearman| of own-base reactance vs rating, keyed by class in
    transformer_decorrelation). Entries or pieces without observed data
    yield skipped findings, which never fail the report.
    """
    _check_unique(profile)
    findings: list[Finding] = []
    for entry in profile:
        same_class = VoltageClass(entry.class_kv).matches
        obs = next(
            (o for (kind, kv), o in observed.items() if kind is entry.kind and same_class(kv)), None
        )
        if obs is None or obs.summary.n == 0:
            findings.append(_skipped(entry, "CoverageCheck", "no observed data for this class"))
            continue

        ref = entry.summary
        if ref is not None and ref.median is not None:
            dev = abs(obs.summary.median / ref.median - 1.0)
            findings.append(
                _finding(
                    entry, "MedianCheck", obs.summary.median, ref.median,
                    f"median_rel={thresholds.median_rel:g}",
                    dev <= thresholds.median_rel,
                )
            )

        if entry.band is not None:
            if obs.band_fraction is None:
                findings.append(_skipped(entry, "BandCheck", "observed band fraction not computed"))
            else:
                diff = abs(obs.band_fraction - entry.band.fraction)
                findings.append(
                    _finding(
                        entry, "BandCheck", obs.band_fraction, entry.band.fraction,
                        f"band_abs={thresholds.band_abs:g}",
                        diff <= thresholds.band_abs,
                    )
                )

        if ref is not None and ref.min is not None and ref.max is not None:
            center = 0.5 * (ref.min + ref.max)
            half = 0.5 * (ref.max - ref.min) * thresholds.range_factor
            lo, hi = center - half, center + half
            findings.append(
                _finding(
                    entry, "RangeCheck",
                    (obs.summary.min, obs.summary.max), (lo, hi),
                    f"range_factor={thresholds.range_factor:g}",
                    lo <= obs.summary.min and obs.summary.max <= hi,
                )
            )

        if entry.fitted is not None:
            if obs.hist is None:
                findings.append(_skipped(entry, "KlCheck", "observed histogram not computed"))
            else:
                score = kl_divergence(obs.hist, entry.fitted)
                findings.append(
                    _finding(
                        entry, "KlCheck", score.d_kl, thresholds.kl_max_nats,
                        f"kl_max_nats={thresholds.kl_max_nats:g}",
                        score.d_kl <= thresholds.kl_max_nats,
                        note=f"over {score.bins_used} occupied bins",
                    )
                )
        elif entry.kind in LINE_KINDS and entry.family is not None:
            if obs.values is None or np.asarray(obs.values).size < 10:
                findings.append(
                    _skipped(entry, "FamilyCheck", "raw values unavailable or too few to rank fits")
                )
            elif obs.hist is None:
                findings.append(_skipped(entry, "FamilyCheck", "observed histogram not computed"))
            else:
                findings.append(
                    _check_family_rank(entry, obs, thresholds.family_rank_margin_nats)
                )

        if entry.kind is ParameterKind.TRANSFORMER_REACTANCE_OWN_BASE:
            rho = next(
                (r for kv, r in (transformer_decorrelation or {}).items() if same_class(kv)), None
            )
            if rho is None:
                findings.append(
                    _skipped(entry, "DecorrelationCheck", "reactance-rating correlation not provided")
                )
            else:
                bound = thresholds.decorrelation_max
                findings.append(
                    _finding(
                        entry, "DecorrelationCheck", rho, (-bound, bound),
                        f"decorrelation_max={bound:g}",
                        abs(rho) <= bound,
                        note="spearman(own-base reactance, rating)",
                    )
                )

    overall = all(f.status != "fail" for f in findings)
    return ValidationReport(findings=tuple(findings), overall_pass=overall, thresholds=thresholds)


def _jsonable(pairs) -> dict:
    """dataclasses.asdict's dict_factory for JSON: enums by value, tuples as lists."""
    return {
        k: v.value if isinstance(v, Enum) else list(v) if isinstance(v, tuple) else v
        for k, v in pairs
    }


def report_to_dict(report: ValidationReport) -> dict:
    return {
        "findings": [dataclasses.asdict(f, dict_factory=_jsonable) for f in report.findings],
        "overall_pass": report.overall_pass,
        "thresholds": dataclasses.asdict(report.thresholds),
    }


def serialize_report(report: ValidationReport) -> str:
    """Stable (sorted-key) JSON; identical reports serialize identically."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
