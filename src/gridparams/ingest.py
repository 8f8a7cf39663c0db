"""Grid case ingestion: canonical branch CSV, MATPOWER-style cases,
validity filtering, branch classification, and voltage-class assignment.

Canonical CSV header:

    id,from_bus,to_bus,from_kv,to_kv,r_pu,x_pu,mva_rating,tap_ratio,system_mva_base

Column order is irrelevant (header-driven); decimal point is `.`; UTF-8;
LF or CRLF line endings. r_pu/x_pu are on the system common MVA base.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress

import numpy as np

__all__ = [
    "ParseError",
    "BranchRecord",
    "BranchTable",
    "BranchKind",
    "RejectReason",
    "VoltageClass",
    "FilterOutcome",
    "CSV_HEADER",
    "DEFAULT_RATING_BOUNDS",
    "DEFAULT_CLASS_KVS",
    "KV_TOLERANCE_FRAC",
    "decode_utf8",
    "parse_branch_csv",
    "serialize_branch_csv",
    "parse_matpower_case",
    "filter_valid",
    "classify_branch",
    "is_transformer",
    "voltage_class_table",
    "assign_voltage_class",
]

CSV_HEADER = (
    "id",
    "from_bus",
    "to_bus",
    "from_kv",
    "to_kv",
    "r_pu",
    "x_pu",
    "mva_rating",
    "tap_ratio",
    "system_mva_base",
)

#: MVA window outside which a reported rating is treated as a data artifact.
DEFAULT_RATING_BOUNDS = (1.0, 3000.0)

#: Voltage classes with published reference statistics.
DEFAULT_CLASS_KVS = (115.0, 138.0, 230.0)

#: Relative kV tolerance: a voltage within 2 percent of a class's nominal kV
#: is in that class, and terminal voltages within 2 percent of the higher one
#: are one voltage level.
KV_TOLERANCE_FRAC = 0.02


class ParseError(ValueError):
    """Malformed case input. Carries the 1-based source line when known."""

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class BranchRecord:
    """One raw branch row; impedances on the system common MVA base.

    tap_ratio 0 marks a non-transformer branch (MATPOWER convention);
    mva_rating 0 marks an unreported rating.
    """

    id: str
    from_bus: int
    to_bus: int
    from_kv: float
    to_kv: float
    r_pu: float
    x_pu: float
    mva_rating: float
    tap_ratio: float
    system_mva_base: float


class BranchKind(Enum):
    TRANSMISSION_LINE = "TransmissionLine"
    TRANSFORMER = "Transformer"
    AUTOTRANSFORMER_SUSPECT = "AutotransformerSuspect"


def is_transformer(kind: BranchKind) -> bool:
    return kind is not BranchKind.TRANSMISSION_LINE


class RejectReason(Enum):
    NON_POSITIVE_R = "NonPositiveR"
    NON_POSITIVE_X = "NonPositiveX"
    ZERO_RATING = "ZeroRating"
    EXTREME_RATING = "ExtremeRating"
    NON_FINITE = "NonFinite"


@dataclass(frozen=True)
class VoltageClass:
    """Nominal kV, matched within KV_TOLERANCE_FRAC of it."""

    nominal_kv: float

    def __post_init__(self):
        if not (math.isfinite(self.nominal_kv) and self.nominal_kv > 0):
            raise ValueError(f"nominal_kv must be > 0, got {self.nominal_kv}")

    def matches(self, kv):
        """Whether kv (a float or an array of them) is in the class."""
        return abs(kv - self.nominal_kv) <= KV_TOLERANCE_FRAC * self.nominal_kv


_FLOAT_FIELDS = ("from_kv", "to_kv", "r_pu", "x_pu", "mva_rating", "tap_ratio", "system_mva_base")
_INT_FIELDS = ("from_bus", "to_bus")
_COLUMNS = CSV_HEADER[1:]
_INT64 = np.iinfo(np.int64)


class BranchTable(Sequence):
    """Branch rows stored column-wise: a list of ids plus one numpy column
    per numeric BranchRecord field (int64 bus numbers, float64 otherwise).

    Reads as a sequence of BranchRecord; a record is built only when a row
    is indexed or iterated.
    """

    __slots__ = ("ids", *_COLUMNS)

    def __init__(self, ids, **columns):
        if set(columns) != set(_COLUMNS):
            raise TypeError(f"BranchTable needs exactly the columns {_COLUMNS}")
        self.ids = list(ids)
        for name in _COLUMNS:
            col = np.asarray(columns[name], dtype=np.int64 if name in _INT_FIELDS else np.float64)
            if col.shape != (len(self.ids),):
                raise ValueError(f"column {name!r} has shape {col.shape}, expected ({len(self.ids)},)")
            setattr(self, name, col)

    @classmethod
    def from_records(cls, records) -> BranchTable:
        records = list(records)
        return cls(
            [r.id for r in records],
            **{name: [getattr(r, name) for r in records] for name in _COLUMNS},
        )

    def take(self, rows) -> BranchTable:
        """The rows selected by a boolean mask or an index array, in order."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            ids = list(compress(self.ids, rows.tolist()))
        else:
            ids = [self.ids[i] for i in rows.tolist()]
        return BranchTable(ids, **{name: getattr(self, name)[rows] for name in _COLUMNS})

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> BranchRecord:
        if isinstance(i, slice):
            raise TypeError("BranchTable rows are selected with take(), not slices")
        return BranchRecord(self.ids[i], *(getattr(self, name)[i].item() for name in _COLUMNS))

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return (BranchRecord(*row) for row in zip(self.ids, *columns))

    def __repr__(self) -> str:
        return f"BranchTable({len(self)} rows)"


@dataclass(frozen=True)
class FilterOutcome:
    kept: BranchTable
    rejected: list[tuple[BranchRecord, RejectReason]]


def decode_utf8(data: bytes) -> str:
    """The UTF-8 text of data; a byte that is not UTF-8 raises ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line=line) from None


def parse_branch_csv(data: bytes | str) -> BranchTable:
    """Parse canonical branch CSV; raises ParseError with the failing line.

    The rows are read in one call to numpy's C text reader. Text that
    reader could split differently from csv.reader (a quote; a NUL, which
    csv.reader rejects before Python 3.11; a line longer than csv's field
    size limit), and text it rejects, go through the row-wise reader
    instead, which alone names a bad row's line and field.
    """
    text = decode_utf8(data) if isinstance(data, bytes) else data
    if text and '"' not in text and "\0" not in text:
        # Without quotes a csv record is one line, so the header is the first.
        lines = text.split("\n")
        header, index = _read_header(csv.reader(lines[:1]))
        if max(map(len, lines)) <= csv.field_size_limit():
            try:
                return _read_columns(lines, header, index)
            except (ValueError, OverflowError):
                pass
        del lines
    reader = csv.reader(io.StringIO(text))
    header, index = _read_header(reader)
    return _read_rows(reader, index, len(header))


def _read_header(reader) -> tuple[list[str], dict[str, int]]:
    """The stripped header row and each column name's index (the last, if
    a name repeats); ParseError if a required column is missing."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input, expected a header row") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    header = [h.strip() for h in header]
    index = {name: i for i, name in enumerate(header)}
    for name in CSV_HEADER:
        if name not in index:
            raise ParseError(f"missing required column {name!r}")
    return header, index


def _read_columns(lines: list[str], header: list[str], index: dict[str, int]) -> BranchTable:
    """The rows below the header line, read by np.loadtxt; ValueError or
    OverflowError for text the row-wise reader must judge.

    csv.reader splits a line without quotes or NULs at every comma, as
    numpy's reader does. Floats are parsed as float() parses them; bus
    numbers are read as text and cast from object, which calls int(). So
    both readers accept the same rows, with the same values.
    """
    if not any(line.strip("\r") for line in lines[1:]):
        # Blank lines only: csv.reader skips them, and loadtxt would warn.
        return BranchTable([], **{name: [] for name in _COLUMNS})
    used = {i: name for name, i in index.items()}
    dtype = np.dtype(
        [(f"f{i}", np.float64 if used.get(i) in _FLOAT_FIELDS else object) for i in range(len(header))]
    )
    rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1)
    columns = {name: rows[f"f{index[name]}"].astype(np.int64) for name in _INT_FIELDS}
    for name in _FLOAT_FIELDS:
        columns[name] = rows[f"f{index[name]}"].copy()
    return BranchTable([cell.strip() for cell in rows[f"f{index['id']}"].tolist()], **columns)


def _read_rows(reader, index: dict[str, int], width: int) -> BranchTable:
    """The rows left in a csv.reader, converted row by row with Python's
    int() and float(); the first bad row raises a ParseError naming its
    line and field. Values go into C arrays, not lists of Python objects."""
    # Imported here: array is an extension module, and only this fallback uses it.
    from array import array

    ids: list[str] = []
    columns = {name: array("q" if name in _INT_FIELDS else "d") for name in _COLUMNS}
    try:
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", line=line)
            for name in _INT_FIELDS:
                raw = row[index[name]].strip()
                try:
                    value = int(raw)
                except ValueError:
                    raise ParseError(f"column {name!r}: not an integer: {raw!r}", line=line) from None
                if not _INT64.min <= value <= _INT64.max:
                    raise ParseError(f"column {name!r}: integer out of range: {raw!r}", line=line)
                columns[name].append(value)
            for name in _FLOAT_FIELDS:
                raw = row[index[name]].strip()
                try:
                    columns[name].append(float(raw))
                except ValueError:
                    raise ParseError(f"column {name!r}: not a number: {raw!r}", line=line) from None
            ids.append(row[index["id"]].strip())
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    return BranchTable(ids, **columns)


def serialize_branch_csv(records) -> str:
    """Inverse of parse_branch_csv; floats use shortest round-trip repr.
    Takes a BranchTable or any iterable of BranchRecord."""
    table = records if isinstance(records, BranchTable) else BranchTable.from_records(records)
    columns = [getattr(table, name).tolist() for name in _COLUMNS]
    cells = [table.ids, *(map(str, c) for c in columns[:2]), *(map(repr, c) for c in columns[2:])]
    return "\n".join([",".join(CSV_HEADER), *map(",".join, zip(*cells))]) + "\n"


def _strip_matlab_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _matpower_matrix(text: str, name: str, min_cols: int) -> tuple[np.ndarray, list[int]]:
    """The first min_cols columns of matrix `name` as one (rows, min_cols)
    float array, and the 1-based source line of each row."""
    match = re.search(rf"\.{name}\s*=\s*\[(.*?)\]\s*;", text, re.DOTALL)
    if match is None:
        raise ParseError(f"missing matrix {name!r}")
    first_line = _line_of(text, match.start(1))
    rows, chunks, lines = [], [], []
    for offset, source_line in enumerate(match.group(1).split("\n")):
        for chunk in source_line.split(";"):
            tokens = chunk.replace(",", " ").split() if chunk else None
            if tokens:
                rows.append(tokens)
                chunks.append(chunk)
                lines.append(first_line + offset)
    flat = list(chain.from_iterable(rows))
    try:
        values = np.fromiter(map(float, flat), np.float64, len(flat))
    except ValueError:
        for tokens, chunk, line in zip(rows, chunks, lines):
            try:
                [float(t) for t in tokens]
            except ValueError:
                raise ParseError(
                    f"matrix {name!r}: unparsable row {chunk.strip()!r}", line=line
                ) from None
        raise
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    short = np.flatnonzero(lengths < min_cols)
    if short.size:
        i = int(short[0])
        raise ParseError(
            f"{name} row {i + 1}: expected at least {min_cols} columns, got {int(lengths[i])}",
            line=lines[i],
        )
    starts = np.cumsum(lengths) - lengths
    return values[starts[:, None] + np.arange(min_cols)], lines


def _bus_numbers(column: np.ndarray, name: str, lines: list[int]) -> np.ndarray:
    """Bus numbers from a float column, truncated toward zero like int()."""
    bad = np.flatnonzero(~(np.abs(column) < 2.0**63))
    if bad.size:
        i = int(bad[0])
        raise ParseError(
            f"{name} row {i + 1}: bus number out of range: {float(column[i])!r}", line=lines[i]
        )
    return np.trunc(column).astype(np.int64)


def _parallel_ids(from_bus: np.ndarray, to_bus: np.ndarray) -> list[str]:
    """Ids "f-t-k", with k counting parallel branches between f and t."""
    seen: dict[tuple[int, int], int] = {}
    ids = []
    for pair in zip(from_bus.tolist(), to_bus.tolist()):
        k = seen[pair] = seen.get(pair, 0) + 1
        ids.append(f"{pair[0]}-{pair[1]}-{k}")
    return ids


def parse_matpower_case(text: bytes | str) -> tuple[float, BranchTable]:
    """Parse a MATPOWER-style case (baseMVA, bus and branch matrices).

    Bus matrix: bus id in column 1, baseKV in column 10. Branch matrix:
    fbus, tbus, r, x, b, rateA, rateB, rateC, ratio, ... Record ids are
    synthesized as "fbus-tbus-k" with k counting parallel branches. A bus
    listed twice takes the kV of its last row.
    """
    text = _strip_matlab_comments(decode_utf8(text) if isinstance(text, bytes) else text)
    base_match = re.search(r"\.baseMVA\s*=\s*([0-9eE.+-]+)\s*;", text)
    if base_match is None:
        raise ParseError("missing baseMVA")
    try:
        base_mva = float(base_match.group(1))
    except ValueError:
        raise ParseError(
            f"unparsable baseMVA {base_match.group(1)!r}", line=_line_of(text, base_match.start())
        ) from None

    bus, bus_lines = _matpower_matrix(text, "bus", 10)
    # Unique over the reversed rows: a bus listed twice keeps its last row.
    known, last = np.unique(_bus_numbers(bus[:, 0], "bus", bus_lines)[::-1], return_index=True)
    known_kv = bus[::-1, 9][last]

    branch, branch_lines = _matpower_matrix(text, "branch", 9)
    from_bus, to_bus = (_bus_numbers(branch[:, j], "branch", branch_lines) for j in (0, 1))
    from_known, to_known = np.isin(from_bus, known), np.isin(to_bus, known)
    unknown = np.flatnonzero(~(from_known & to_known))
    if unknown.size:
        i = int(unknown[0])
        bus_no = from_bus[i] if not from_known[i] else to_bus[i]
        raise ParseError(f"branch row {i + 1}: unknown bus {int(bus_no)}", line=branch_lines[i])

    return base_mva, BranchTable(
        _parallel_ids(from_bus, to_bus),
        from_bus=from_bus,
        to_bus=to_bus,
        from_kv=known_kv[np.searchsorted(known, from_bus)],
        to_kv=known_kv[np.searchsorted(known, to_bus)],
        r_pu=branch[:, 2],
        x_pu=branch[:, 3],
        mva_rating=branch[:, 5],
        tap_ratio=branch[:, 8],
        system_mva_base=np.full(len(branch), base_mva),
    )


def _reject_reason(r: BranchRecord, lo: float, hi: float) -> RejectReason | None:
    # Rule order is fixed; a record failing several rules reports the first.
    if r.r_pu <= 0:
        return RejectReason.NON_POSITIVE_R
    if r.x_pu <= 0:
        return RejectReason.NON_POSITIVE_X
    if r.mva_rating == 0:
        return RejectReason.ZERO_RATING
    if r.mva_rating < lo or r.mva_rating > hi:
        return RejectReason.EXTREME_RATING
    numeric = (
        r.from_kv, r.to_kv, r.r_pu, r.x_pu, r.mva_rating, r.tap_ratio, r.system_mva_base,
    )
    if not all(math.isfinite(v) for v in numeric):
        return RejectReason.NON_FINITE
    return None


def filter_valid(records, rating_bounds: tuple[float, float] = DEFAULT_RATING_BOUNDS) -> FilterOutcome:
    """Drop abnormal branch rows: R <= 0, X <= 0, zero or extreme MVA
    ratings, and non-finite fields. Rejection is data, not an error.

    Takes a BranchTable or any iterable of BranchRecord; the rules are
    those of _reject_reason, applied to whole columns.
    """
    lo, hi = rating_bounds
    if not lo > 0:
        raise ValueError(f"rating_bounds minimum must be > 0, got {lo}")
    if not hi > lo:
        raise ValueError(f"rating_bounds must satisfy min < max, got {rating_bounds}")
    table = records if isinstance(records, BranchTable) else BranchTable.from_records(records)
    mva = table.mva_rating
    finite = np.logical_and.reduce([np.isfinite(getattr(table, name)) for name in _FLOAT_FIELDS])
    # np.select takes the first true condition, so the rule order is kept.
    rules = (
        (table.r_pu <= 0, RejectReason.NON_POSITIVE_R),
        (table.x_pu <= 0, RejectReason.NON_POSITIVE_X),
        (mva == 0, RejectReason.ZERO_RATING),
        ((mva < lo) | (mva > hi), RejectReason.EXTREME_RATING),
        (~finite, RejectReason.NON_FINITE),
    )
    codes = np.select([cond for cond, _ in rules], list(range(1, len(rules) + 1)), default=0)
    rows = np.flatnonzero(codes)
    reasons = [rules[code - 1][1] for code in codes[rows].tolist()]
    return FilterOutcome(kept=table.take(codes == 0), rejected=list(zip(table.take(rows), reasons)))


def classify_branch(record: BranchRecord, autotransformer_xr_threshold: float = 4.0) -> BranchKind:
    """Transformer when the tap is set or terminal voltages differ beyond
    KV_TOLERANCE_FRAC; a transformer with X/R below the threshold is flagged
    as a likely autotransformer. Requires a filtered record (r_pu > 0)."""
    hi_kv = max(record.from_kv, record.to_kv)
    kv_differ = abs(record.from_kv - record.to_kv) > KV_TOLERANCE_FRAC * hi_kv
    if record.tap_ratio == 0 and not kv_differ:
        return BranchKind.TRANSMISSION_LINE
    if record.x_pu / record.r_pu < autotransformer_xr_threshold:
        return BranchKind.AUTOTRANSFORMER_SUSPECT
    return BranchKind.TRANSFORMER


def _transformer_masks(
    table: BranchTable, autotransformer_xr_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """classify_branch over a filtered table:
    boolean masks of the rows that are transformers (suspects included)
    and of the suspects."""
    hi_kv = np.maximum(table.from_kv, table.to_kv)
    kv_differ = np.abs(table.from_kv - table.to_kv) > KV_TOLERANCE_FRAC * hi_kv
    transformer = (table.tap_ratio != 0) | kv_differ
    with np.errstate(over="ignore"):
        low_xr = table.x_pu / table.r_pu < autotransformer_xr_threshold
    return transformer, transformer & low_xr


def voltage_class_table(nominal_kvs) -> list[VoltageClass]:
    """Build a class table, rejecting overlapping tolerance intervals."""
    classes = sorted((VoltageClass(float(kv)) for kv in nominal_kvs), key=lambda c: c.nominal_kv)
    for a, b in zip(classes, classes[1:]):
        if a.nominal_kv * (1 + KV_TOLERANCE_FRAC) >= b.nominal_kv * (1 - KV_TOLERANCE_FRAC):
            raise ValueError(
                f"voltage classes {a.nominal_kv} and {b.nominal_kv} overlap "
                f"under tolerance {KV_TOLERANCE_FRAC}"
            )
    return classes


def assign_voltage_class(
    record: BranchRecord, kind: BranchKind, classes
) -> VoltageClass | None:
    """Match transformers by high-voltage terminal, lines by from-terminal.

    Returns None when no class matches; such records are excluded from
    per-class statistics. Assumes a non-overlapping class table.
    """
    kv = max(record.from_kv, record.to_kv) if is_transformer(kind) else record.from_kv
    for cls in classes:
        if cls.matches(kv):
            return cls
    return None


def _voltage_class_index(table: BranchTable, transformer: np.ndarray, classes) -> np.ndarray:
    """assign_voltage_class over a table: per row, the index in classes of
    the first matching class, or -1 when none matches."""
    kv = np.where(transformer, np.maximum(table.from_kv, table.to_kv), table.from_kv)
    index = np.full(kv.shape, -1)
    # Last class first, so that the first matching class is the one left.
    for i, cls in reversed(list(enumerate(classes))):
        index[cls.matches(kv)] = i
    return index
