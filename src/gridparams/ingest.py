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
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from itertools import chain, compress, islice

import numpy as np

from .distributions import _require

__all__ = [
    "ParseError",
    "BranchRecord",
    "BranchTable",
    "BranchKind",
    "RejectReason",
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


CSV_HEADER = tuple(f.name for f in fields(BranchRecord))


class BranchKind(Enum):
    TRANSMISSION_LINE = "TransmissionLine"
    TRANSFORMER = "Transformer"
    AUTOTRANSFORMER_SUSPECT = "AutotransformerSuspect"


def is_transformer(kind: BranchKind) -> bool:
    return kind is not BranchKind.TRANSMISSION_LINE


class RejectReason(Enum):
    """The cleaning rules in the order they apply; filter_valid codes a reason by its index."""
    NON_POSITIVE_R = "NonPositiveR"
    NON_POSITIVE_X = "NonPositiveX"
    ZERO_RATING = "ZeroRating"
    EXTREME_RATING = "ExtremeRating"
    NON_FINITE = "NonFinite"


def _in_class(kv, nominal_kv: float):
    """Whether kv (a float or an array of them) is within KV_TOLERANCE_FRAC of nominal_kv."""
    return abs(kv - nominal_kv) <= KV_TOLERANCE_FRAC * nominal_kv


_INT_FIELDS = ("from_bus", "to_bus")
_COLUMNS = CSV_HEADER[1:]
_FLOAT_FIELDS = tuple(name for name in _COLUMNS if name not in _INT_FIELDS)
_INT64 = np.iinfo(np.int64)
_SIGNED_DIGITS = re.compile(r"([+-]?)0*([0-9]+)")


class BranchTable(Sequence):
    """Branch rows stored column-wise: one numpy column per numeric BranchRecord field (int64
    bus numbers, float64 otherwise), and the ids, or a function returning them that is called
    when ids is first read, not by len() or take(). Reads as a sequence of BranchRecord; a
    record is built only when a row is indexed or iterated."""

    __slots__ = ("_ids", *_COLUMNS)

    def __init__(self, ids, **columns):
        if set(columns) != set(_COLUMNS):
            raise TypeError(f"BranchTable needs exactly the columns {_COLUMNS}")
        self._ids = ids if callable(ids) else list(ids)
        shape = (np.size(columns["from_bus"]) if callable(ids) else len(self._ids),)
        for name in _COLUMNS:
            col = np.asarray(columns[name], dtype=np.int64 if name in _INT_FIELDS else np.float64)
            if col.shape != shape:
                raise ValueError(f"column {name!r} has shape {col.shape}, expected {shape}")
            setattr(self, name, col)

    @property
    def ids(self) -> list[str]:
        self._ids = self._ids() if callable(self._ids) else self._ids
        return self._ids

    @classmethod
    def from_records(cls, records) -> BranchTable:
        records = list(records)
        return cls([r.id for r in records], **{name: [getattr(r, name) for r in records] for name in _COLUMNS})

    def take(self, mask) -> BranchTable:
        """The rows where a boolean mask is true, in order; ids not yet read stay unread."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise TypeError(f"take() needs a boolean mask, got dtype {mask.dtype}")
        source, keep = self._ids, mask.tolist()
        ids = (lambda: list(compress(source(), keep))) if callable(source) else compress(source, keep)
        return BranchTable(ids, **{name: getattr(self, name)[mask] for name in _COLUMNS})

    def __len__(self) -> int:
        return len(self.from_bus)

    def __getitem__(self, i: int) -> BranchRecord:
        if isinstance(i, slice):
            raise TypeError("BranchTable rows are selected with take(), not slices")
        return BranchRecord(self.ids[i], *(getattr(self, name)[i].item() for name in _COLUMNS))

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return (BranchRecord(*row) for row in zip(self.ids, *columns))

    def __repr__(self) -> str:
        return f"BranchTable({len(self)} rows)"


def decode_utf8(data: bytes) -> str:
    """The UTF-8 text of data, less one leading byte-order mark; a byte that
    is not UTF-8 raises ParseError naming its line."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line=line) from None


def parse_branch_csv(data: bytes | str) -> BranchTable:
    """Parse canonical branch CSV; raises ParseError with the failing line.

    The rows are read from the UTF-8 bytes in one call to numpy's C text
    reader, and the ids only when the table's ids are first read. Text that
    reader could split differently from csv.reader (a quote; a NUL, which
    csv.reader rejects before Python 3.11; a line longer than csv's field
    size limit), and text it rejects or warns on, go through the row-wise
    reader instead, which alone names a bad row's line and field.
    """
    try:
        return _read_columns(data)
    except (ValueError, Warning):
        pass
    reader = csv.reader(io.StringIO(decode_utf8(data) if isinstance(data, bytes) else data))
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


def _read_columns(data: bytes | str) -> BranchTable:
    """The rows below the header line, read from the bytes by np.loadtxt;
    ValueError or a Warning for text the row-wise reader must judge.

    csv.reader splits a line without quotes or NULs at every comma, as
    numpy's reader does. Floats are parsed as float() parses them. numpy's
    int64 parser reads a sign, ASCII digits and whitespace as int() does and
    rejects the rest of what int() reads; before numpy 2.0 it warns on float
    text such as "5.0". So both readers accept the same rows, with the same values. The id column,
    and any column outside CSV_HEADER, goes into a zero-width text field, which keeps numpy's
    per-row field count; the table reads the id column again when its ids are first read."""
    raw = data.encode() if isinstance(data, str) else data
    if not raw or b'"' in raw or b"\0" in raw:
        raise ValueError("text for the row-wise reader")
    # Without quotes a csv record is one line, so the header is the first.
    first = data.partition("\n")[0] if isinstance(data, str) else decode_utf8(raw.partition(b"\n")[0])
    header, index = _read_header(csv.reader([first]))
    # A line past csv's field size limit is csv.reader's to judge. A line feed in every
    # whole block of half the limit bounds every line below it.
    half = csv.field_size_limit() // 2
    if any(raw.find(b"\n", i, i + half) < 0 for i in range(0, len(raw) - half + 1, half)):
        raise ValueError("a line that may pass csv's field size limit")
    kinds = {index[name]: np.int64 if name in _INT_FIELDS else np.float64 for name in _COLUMNS}
    dtype = np.dtype([(f"f{i}", kinds.get(i, "U0")) for i in range(len(header))])
    read = partial(np.loadtxt, delimiter=",", comments=None, skiprows=1, ndmin=1, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = read(io.BytesIO(raw), dtype=dtype)
    id_column = partial(read, dtype=object, usecols=index["id"])
    return BranchTable(lambda: list(map(str.strip, id_column(io.BytesIO(raw)).tolist())),
                       **{name: rows[f"f{index[name]}"].copy() for name in _COLUMNS})


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
                # int() counts leading zeros against sys.get_int_max_str_digits(), numpy does not: drop
                # them, and keep at most 20 significant digits, which are past int64 already.
                digits = _SIGNED_DIGITS.fullmatch(raw)
                try:
                    value = int(digits[1] + digits[2][:20] if digits else raw)
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


_BLOCK_ROWS = 1 << 16
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_text(header, columns) -> str:
    """The header line, then one line per row of the columns, each ending in a line feed: float64 arrays as
    repr() (the shortest round-trip text), int64 arrays as str(), lists of str as they are. One %-template
    formats _BLOCK_ROWS rows at a time; a float column whose cells all share their bits is written into it once."""
    fields, varying = [], []
    for col in columns:
        spec = "%s" if isinstance(col, list) else "%d" if col.dtype.kind == "i" else "%r"
        if spec == "%r" and col.size and ((bits := col.view(np.int64)) == bits[0]).all():
            fields.append(repr(col[0].item()).replace("%", "%%"))
        else:
            fields.append(spec)
            varying.append(col)
    n, row, blocks = len(columns[0]), ",".join(fields) + "\n", [",".join(header) + "\n"]
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        cells = [col[block] if isinstance(col, list) else col[block].tolist() for col in varying]
        blocks.append(row * min(_BLOCK_ROWS, n - start) % tuple(chain.from_iterable(zip(*cells))))
    return "".join(blocks)


def serialize_branch_csv(table: BranchTable) -> str:
    """Inverse of parse_branch_csv for ids without surrounding whitespace, which the reader
    strips. An id holding a comma, a quote, CR or LF is wrapped in quotes, each quote doubled."""
    ids = table.ids
    if _NEEDS_QUOTES.search("".join(ids)):
        ids = ['"%s"' % i.replace('"', '""') if _NEEDS_QUOTES.search(i) else i for i in ids]
    return _csv_text(CSV_HEADER, [ids, *(getattr(table, name) for name in _COLUMNS)])


def _strip_matlab_comments(text: str) -> str:
    # Only \n, \r\n and \r end a line, as in an editor: not \f, \v, \x85 and
    # the rest of what str.splitlines() breaks at. `.` matches all but \n.
    return re.sub(r"%.*", "", text.replace("\r\n", "\n").replace("\r", "\n"))


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _read_matrix_rows(rows: list, name: str, min_cols: int) -> np.ndarray:
    """The row-wise reader: float() over every token of the (tokens, chunk,
    line) rows; the first unparsable row, else the first short row, raises
    a ParseError naming its line."""
    values = []
    for tokens, chunk, line in rows:
        try:
            values.append([float(t) for t in tokens])
        except ValueError:
            raise ParseError(f"matrix {name!r}: unparsable row {chunk.strip()!r}", line=line) from None
    for i, ((_, _, line), row) in enumerate(zip(rows, values)):
        if len(row) < min_cols:
            message = f"{name} row {i + 1}: expected at least {min_cols} columns, got {len(row)}"
            raise ParseError(message, line=line)
    return np.array([row[:min_cols] for row in values], dtype=np.float64).reshape(-1, min_cols)


def _loadtxt_matrix(body: str, min_cols: int) -> np.ndarray | None:
    """The first min_cols columns of a matrix body read by np.loadtxt, or None
    for a body the row-wise reader must judge. numpy splits and parses as
    str.split() and float() do, and reads every column. It reads UTF-8, which
    takes less memory than a StringIO and has no other `;` or `,` bytes."""
    if not re.search(r"[^\s;,]", body):
        return np.empty((0, min_cols))  # no token; loadtxt would warn of no data
    try:
        data = io.BytesIO(body.encode().translate(bytes.maketrans(b";,", b"\n ")))
        values = np.loadtxt(data, comments=None, ndmin=2, encoding="utf-8")
    except (ValueError, OverflowError):
        return None
    return values[:, :min_cols] if values.shape[1] >= min_cols else None


def _matrix_span(text: str, name: str) -> tuple[int, int]:
    """Start and end of matrix `name`'s body: the span a lazy regex
    `(.*?)` finds between the first `.name = [` and the next `]` then `;`."""
    head = re.search(rf"\.{name}\s*=\s*\[", text)
    tail = head and re.compile(r"\]\s*;").search(text, head.end())
    if tail is None:
        raise ParseError(f"missing matrix {name!r}")
    return head.end(), tail.start()


def _matpower_matrix(text: str, name: str, min_cols: int):
    """The first min_cols columns of matrix `name` as one (rows, min_cols)
    float array, and a function from a row's index to its 1-based source line."""
    start, end = _matrix_span(text, name)

    def rows():  # (tokens, chunk, line) of each `;`- or line-separated chunk with a token
        first_line = _line_of(text, start)
        for offset, source_line in enumerate(text[start:end].split("\n")):
            for chunk in source_line.split(";"):
                tokens = chunk.replace(",", " ").split()
                if tokens:
                    yield tokens, chunk, first_line + offset

    values = _loadtxt_matrix(text[start:end], min_cols)
    if values is None:
        values = _read_matrix_rows(list(rows()), name, min_cols)
    return values, lambda row: next(islice(rows(), row, None))[2]


def _bus_numbers(column: np.ndarray, name: str, line_of) -> np.ndarray:
    """Bus numbers from a float column, truncated toward zero like int()."""
    bad = np.flatnonzero(~(np.abs(column) < 2.0**63))
    if bad.size:
        i = int(bad[0])
        raise ParseError(
            f"{name} row {i + 1}: bus number out of range: {float(column[i])!r}", line=line_of(i)
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

    Well-formed matrices are read by numpy's C text reader; anything else
    by a row-wise reader, which accepts the same text and names bad lines.
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

    bus, bus_line = _matpower_matrix(text, "bus", 10)
    # Unique over the reversed rows: a bus listed twice keeps its last row.
    known, last = np.unique(_bus_numbers(bus[:, 0], "bus", bus_line)[::-1], return_index=True)
    known_kv = bus[::-1, 9][last]

    branch, branch_line = _matpower_matrix(text, "branch", 9)
    from_bus, to_bus = (_bus_numbers(branch[:, j], "branch", branch_line) for j in (0, 1))
    from_known, to_known = np.isin(from_bus, known), np.isin(to_bus, known)
    unknown = np.flatnonzero(~(from_known & to_known))
    if unknown.size:
        i = int(unknown[0])
        bus_no = from_bus[i] if not from_known[i] else to_bus[i]
        raise ParseError(f"branch row {i + 1}: unknown bus {int(bus_no)}", line=branch_line(i))

    return base_mva, BranchTable(
        lambda: _parallel_ids(from_bus, to_bus), from_bus=from_bus, to_bus=to_bus,
        from_kv=known_kv[np.searchsorted(known, from_bus)], to_kv=known_kv[np.searchsorted(known, to_bus)],
        r_pu=branch[:, 2], x_pu=branch[:, 3], mva_rating=branch[:, 5], tap_ratio=branch[:, 8],
        system_mva_base=np.full(len(branch), base_mva),
    )


def _reject_reason(r: BranchRecord, lo: float, hi: float) -> RejectReason | None:
    # filter_valid's rules on one record, in RejectReason's order: the tested scalar reference.
    if r.r_pu <= 0:
        return RejectReason.NON_POSITIVE_R
    if r.x_pu <= 0:
        return RejectReason.NON_POSITIVE_X
    if r.mva_rating == 0:
        return RejectReason.ZERO_RATING
    if r.mva_rating < lo or r.mva_rating > hi:
        return RejectReason.EXTREME_RATING
    if not all(math.isfinite(getattr(r, name)) for name in _FLOAT_FIELDS):
        return RejectReason.NON_FINITE
    return None


def filter_valid(table: BranchTable, rating_bounds: tuple[float, float] = DEFAULT_RATING_BOUNDS) -> np.ndarray:
    """One int8 code per row: -1 to keep it, else the index in tuple(RejectReason) of its first reason (R <= 0,
    X <= 0, a zero or extreme MVA rating, a non-finite field): _reject_reason's rules on whole columns."""
    lo, hi = rating_bounds
    if not lo > 0:
        raise ValueError(f"rating_bounds minimum must be > 0, got {lo}")
    if not hi > lo:
        raise ValueError(f"rating_bounds must satisfy min < max, got {rating_bounds}")
    mva = table.mva_rating
    finite = np.logical_and.reduce([np.isfinite(getattr(table, name)) for name in _FLOAT_FIELDS])
    # One condition per RejectReason, in its order; np.select takes the first
    # true one, so a row's code is its first reason's index, or -1 if kept.
    rules = [table.r_pu <= 0, table.x_pu <= 0, mva == 0, (mva < lo) | (mva > hi), ~finite]
    return np.select(rules, range(len(rules)), default=-1).astype(np.int8)


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
    """classify_branch over a table: boolean masks of the rows that are transformers (suspects
    included) and of the suspects. Rows filter_valid rejects get masks too, of no meaning."""
    with np.errstate(all="ignore"):  # a rejected row may hold a NaN, an inf or a zero R
        hi_kv = np.maximum(table.from_kv, table.to_kv)
        kv_differ = np.abs(table.from_kv - table.to_kv) > KV_TOLERANCE_FRAC * hi_kv
        low_xr = table.x_pu / table.r_pu < autotransformer_xr_threshold
    transformer = (table.tap_ratio != 0) | kv_differ
    return transformer, transformer & low_xr


def voltage_class_table(nominal_kvs) -> list[float]:
    """The nominal kVs, sorted; each must be finite and > 0, and no tolerance intervals overlap."""
    classes = [float(kv) for kv in nominal_kvs]
    for kv in classes:
        _require("nominal_kv", kv)
    classes.sort()
    for a, b in zip(classes, classes[1:]):
        if a * (1 + KV_TOLERANCE_FRAC) >= b * (1 - KV_TOLERANCE_FRAC):
            raise ValueError(f"voltage classes {a} and {b} overlap under tolerance {KV_TOLERANCE_FRAC}")
    return classes


def assign_voltage_class(
    record: BranchRecord, kind: BranchKind, classes
) -> float | None:
    """Match transformers by high-voltage terminal, lines by from-terminal.

    Returns the matching nominal kV of classes, or None when none matches;
    such records are excluded from per-class statistics. Assumes a
    non-overlapping class table.
    """
    kv = max(record.from_kv, record.to_kv) if is_transformer(kind) else record.from_kv
    for nominal_kv in classes:
        if _in_class(kv, nominal_kv):
            return nominal_kv
    return None


def _voltage_class_index(table: BranchTable, transformer: np.ndarray, classes) -> np.ndarray:
    """assign_voltage_class over a table: per row, the index in classes of
    the matching class (at most one: classes do not overlap), or -1."""
    kv = np.where(transformer, np.maximum(table.from_kv, table.to_kv), table.from_kv)
    index = np.full(kv.shape, -1)
    for i, nominal_kv in enumerate(classes):
        index[_in_class(kv, nominal_kv)] = i
    return index
