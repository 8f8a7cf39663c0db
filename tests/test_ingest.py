"""Branch table parsing, cleaning filters, and kind/voltage classification."""

import csv
import io
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridparams import ingest
from gridparams.ingest import (
    CSV_HEADER,
    DEFAULT_RATING_BOUNDS,
    BranchKind,
    BranchRecord,
    BranchTable,
    ParseError,
    RejectReason,
    assign_voltage_class,
    classify_branch,
    filter_valid,
    is_transformer,
    parse_branch_csv,
    parse_matpower_case,
    serialize_branch_csv,
    voltage_class_table,
)

GOOD_ROW = "t1,1,2,115,13.8,0.002,0.05,60,1.0,100"


def _rec(**kw):
    base = dict(
        id="b1",
        from_bus=1,
        to_bus=2,
        from_kv=115.0,
        to_kv=115.0,
        r_pu=0.01,
        x_pu=0.1,
        mva_rating=100.0,
        tap_ratio=0.0,
        system_mva_base=100.0,
    )
    base.update(kw)
    return BranchRecord(**base)


# -------------------------------------------------------------- CSV parsing


def test_parse_single_row():
    text = ",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n"
    (rec,) = parse_branch_csv(text)
    assert rec.id == "t1"
    assert rec.from_bus == 1 and rec.to_bus == 2
    assert rec.from_kv == 115.0 and rec.to_kv == 13.8
    assert rec.r_pu == 0.002 and rec.x_pu == 0.05
    assert rec.mva_rating == 60.0
    assert rec.tap_ratio == 1.0
    assert rec.system_mva_base == 100.0


def test_parse_header_only():
    assert list(parse_branch_csv(",".join(CSV_HEADER) + "\n")) == []


def test_parse_accepts_bytes():
    text = ",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n"
    assert list(parse_branch_csv(text.encode())) == list(parse_branch_csv(text))


def test_parse_column_order_free():
    cols = list(CSV_HEADER)
    cols.reverse()
    row = dict(zip(CSV_HEADER, GOOD_ROW.split(",")))
    text = ",".join(cols) + "\n" + ",".join(row[c] for c in cols) + "\n"
    (rec,) = parse_branch_csv(text)
    assert rec == parse_branch_csv(",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n")[0]


def test_parse_missing_column_is_named():
    cols = [c for c in CSV_HEADER if c != "x_pu"]
    text = ",".join(cols) + "\n"
    with pytest.raises(ParseError, match="x_pu"):
        parse_branch_csv(text)


def test_parse_bad_number_carries_line():
    bad = GOOD_ROW.replace("0.05", "abc")
    text = ",".join(CSV_HEADER) + "\n" + bad + "\n"
    with pytest.raises(ParseError, match="line 2") as exc:
        parse_branch_csv(text)
    assert exc.value.line == 2
    assert "x_pu" in str(exc.value)


def test_parse_wrong_field_count_carries_line():
    text = ",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n" + "only,three,cells\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_branch_csv(text)


def test_serialize_parse_round_trip():
    recs = [
        _rec(id="a", tap_ratio=1.025),
        _rec(id="b", r_pu=1e-7, x_pu=0.3333333333333333, to_kv=13.8),
        _rec(id="c", mva_rating=float("1380")),
    ]
    text = serialize_branch_csv(BranchTable.from_records(recs))
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert list(parse_branch_csv(text)) == recs
    # repr round-trips floats exactly and never leaks array scalar types
    assert "np." not in text


def test_parse_error_past_the_first_chunk_names_its_line():
    rows = [GOOD_ROW] * 20000
    rows[12345] = GOOD_ROW.replace("60", "sixty")
    rows[15000] = "short,row"
    text = ",".join(CSV_HEADER) + "\n" + "\n\n".join(rows) + "\n"
    with pytest.raises(ParseError, match="column 'mva_rating': not a number: 'sixty'") as exc:
        parse_branch_csv(text)
    assert exc.value.line == 2 + 2 * 12345


def test_parse_bus_number_out_of_int64_range():
    text = ",".join(CSV_HEADER) + "\n" + GOOD_ROW.replace("t1,1,", f"t1,{2**63},") + "\n"
    with pytest.raises(ParseError, match="from_bus.*out of range") as exc:
        parse_branch_csv(text)
    assert exc.value.line == 2


def test_parse_csv_reader_error_is_a_parse_error():
    text = ",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n" + "t2,1\r2,3\n"
    with pytest.raises(ParseError, match="malformed CSV"):
        parse_branch_csv(text)


def test_branch_table_reads_as_records():
    recs = [_rec(id="a"), _rec(id="b", from_bus=7, x_pu=0.25), _rec(id="c", tap_ratio=1.05)]
    table = BranchTable.from_records(recs)
    assert len(table) == 3
    assert list(table) == recs
    assert table[1] == recs[1] and table[-1] == recs[2]
    assert type(table[1].from_bus) is int and type(table[1].x_pu) is float
    assert list(table.take(np.array([False, True, True]))) == recs[1:]
    with pytest.raises(TypeError, match="boolean mask"):
        table.take(np.array([2, 0]))
    assert table.from_bus.dtype == np.int64 and table.x_pu.dtype == np.float64
    with pytest.raises(IndexError):
        table[3]


_ids = st.text(alphabet='abcXYZ019-_.,"\r\n', max_size=8)
_buses = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Text holds one NaN, so only the canonical NaN round-trips bit for bit.
_floats = st.one_of(st.floats(allow_nan=False), st.just(math.nan))


def _reference_branch_csv(records) -> str:
    """serialize_branch_csv written one record at a time; an id holding a comma, quote, CR or LF is quoted."""
    lines = [",".join(CSV_HEADER)]
    for r in records:
        id_cell = '"' + r.id.replace('"', '""') + '"' if any(c in r.id for c in ',"\r\n') else r.id
        cells = [id_cell, str(int(r.from_bus)), str(int(r.to_bus))] + [
            repr(float(getattr(r, name))) for name in CSV_HEADER[3:]
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# Values whose text is easy to get wrong: signed zero, subnormals, 1e16
# (where repr switches to exponent form) and a sum that is not 0.3.
_tricky = st.sampled_from([-0.0, 0.0, 5e-324, 2.2e-308, 1e16, -1e16, 0.1 + 0.2, 1e-5, math.inf])
_writer_floats = st.one_of(_floats, _tricky)


@given(st.lists(st.tuples(_ids, _buses, _buses, *[_writer_floats] * 7), max_size=30))
def test_serialize_branch_csv_matches_the_record_loop(rows):
    records = [BranchRecord(*row) for row in rows]
    expected = _reference_branch_csv(records)
    assert serialize_branch_csv(BranchTable.from_records(records)) == expected


def _reference_csv_text(header, columns) -> str:
    """ingest._csv_text one cell at a time: repr() per float, str() per int, each row joined by commas."""
    cells = [col if isinstance(col, list) else map(repr if col.dtype.kind == "f" else str, col.tolist())
             for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


# NaN and -NaN (and 0.0 and -0.0) share a text but not their bits.
_odd_floats = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16])
_int64s = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0, -1]), _buses)
_percent_text = st.text(alphabet="%sdr(),a ", max_size=6)


@st.composite
def _csv_tables(draw):
    """(header, columns): float64 and int64 arrays and lists of str, each column either one
    repeated value or drawn cell by cell; no rows at all, sometimes."""
    n = draw(st.integers(0, 9))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "str"]), min_size=1, max_size=6)):
        cells = {"float": st.one_of(st.floats(), _odd_floats), "int": _int64s, "str": _percent_text}[kind]
        if kind == "float" and draw(st.booleans()):
            cells = st.sampled_from([0.0, -0.0])
        if draw(st.booleans()):
            values = [draw(cells)] * n
        else:
            values = draw(st.lists(cells, min_size=n, max_size=n))
        columns.append(values if kind == "str" else np.array(values, dtype=np.float64 if kind == "float" else np.int64))
    header = draw(st.lists(_percent_text, min_size=len(columns), max_size=len(columns)))
    return header, columns


@pytest.mark.parametrize("block_rows", [ingest._BLOCK_ROWS, 3])
@given(_csv_tables())
def test_csv_text_matches_the_cell_by_cell_join(block_rows, table):
    # With three rows a block, most drawn tables span several blocks.
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        assert ingest._csv_text(*table) == _reference_csv_text(*table)


def test_parse_branch_csv_names_the_line_of_a_byte_that_is_not_utf8():
    data = (",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n").encode() + b"t\xff2,1,2\n"
    with pytest.raises(ParseError, match="0xff is not valid UTF-8") as exc:
        parse_branch_csv(data)
    assert exc.value.line == 3


def test_parse_matpower_names_the_line_of_a_byte_that_is_not_utf8():
    data = b"mpc.baseMVA = 100;\n% caf\xe9\nmpc.bus = [\n];\n"
    with pytest.raises(ParseError, match="0xe9 is not valid UTF-8") as exc:
        parse_matpower_case(data)
    assert exc.value.line == 2


_BOM = "\ufeff".encode()


@pytest.mark.parametrize("row", [GOOD_ROW, '"t1"' + GOOD_ROW[2:]], ids=["numpy-reader", "row-wise-reader"])
def test_parse_branch_csv_ignores_a_leading_byte_order_mark(row):
    # A quote sends the text through the row-wise reader.
    data = (",".join(CSV_HEADER) + "\n" + row + "\n").encode()
    assert _outcome(parse_branch_csv, _BOM + data) == _outcome(parse_branch_csv, data)
    assert _outcome(parse_branch_csv, data)[0] == "table"


def test_parse_matpower_ignores_a_leading_byte_order_mark():
    def branches(data):
        return parse_matpower_case(data)[1]

    data = CASE3.encode()
    assert parse_matpower_case(_BOM + data)[0] == parse_matpower_case(data)[0]
    assert _outcome(branches, _BOM + data) == _outcome(branches, data)


def test_a_byte_that_is_not_utf8_after_a_byte_order_mark_names_its_line():
    data = _BOM + (",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n").encode() + b"t\xff2,1,2\n"
    with pytest.raises(ParseError, match="0xff is not valid UTF-8") as exc:
        parse_branch_csv(data)
    assert exc.value.line == 3


@given(st.lists(st.tuples(_ids.filter(lambda i: i == i.strip()), _buses, _buses, *[_floats] * 7), max_size=30))
def test_serialize_parse_round_trips_a_table(rows):
    table = BranchTable.from_records(BranchRecord(*row) for row in rows)
    back = parse_branch_csv(serialize_branch_csv(table))
    assert back.ids == table.ids
    for name in CSV_HEADER[1:]:
        assert getattr(back, name).tobytes() == getattr(table, name).tobytes()


_csv_cells = st.sampled_from(
    ["1", "-2", " 3 ", "1e400", "nan", "-inf", "0x1", "1_0", "", "abc", '"q,"', '"', "\x00", "\r", "١٢"]
)


@given(
    st.lists(
        st.one_of(
            st.lists(_csv_cells, min_size=9, max_size=11).map(",".join),
            st.text(max_size=30),
        ),
        max_size=6,
    )
)
def test_parse_branch_csv_raises_only_parse_error(rows):
    text = ",".join(CSV_HEADER) + "\n" + "\n".join(rows)
    try:
        parse_branch_csv(text)
    except ParseError:
        pass


def _row_wise_branch_csv(text):
    """parse_branch_csv through its row-wise reader alone: the reference."""
    reader = csv.reader(io.StringIO(text))
    header, index = ingest._read_header(reader)
    return ingest._read_rows(reader, index, len(header))


def _outcome(parse, text):
    """A parse's table, column bytes and all, or its ParseError text and line."""
    try:
        table = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("table", table.ids, *(getattr(table, name).tobytes() for name in CSV_HEADER[1:]))


_HEADERS = [
    list(CSV_HEADER),
    list(CSV_HEADER[::-1]),
    [*CSV_HEADER, ""],  # a trailing comma
    [*CSV_HEADER, "note"],  # an extra column
    ["x_pu", *CSV_HEADER],  # a duplicate: the last x_pu is the one read
    [*CSV_HEADER, "from_bus"],  # a duplicated bus column
    [" id ", *CSV_HEADER[1:]],  # names are stripped
]


def _kind(name):
    name = name.strip()
    if name == "id":
        return "id"
    return "bus" if name in ("from_bus", "to_bus") else "float" if name in CSV_HEADER else "other"


# Cells both readers accept.
_VALID = {
    "id": st.text(alphabet="ab Z9-_.\u00e9", max_size=5),
    # numpy reads bus numbers with its own integer parser: whitespace that
    # str.strip() removes, a sign and leading zeros it must read as int() does.
    "bus": st.sampled_from(
        ["1", " 2 ", "+3", "-4", "0", "\u20035", "9223372036854775807", "-9223372036854775808",
         "\x0b5", "\x1c5", "5\x0c", "-0", "007"]
    ),
    "float": st.sampled_from(
        ["0.5", " 1e3 ", "-2", "nan", "-nan", "NaN", "Infinity", "-inf", "1e400", "1e-320", "+.5", "5.",
         "\u20032"]
    ),
    "other": st.text(alphabet="a1 ", max_size=3),
}
# Cells that only the row-wise reader accepts ("_" in numbers, non-ASCII
# digits), that the readers split differently (quotes, NUL, CR), and cells
# that fail ("5.0", "5.", "0x10", "+-5" and values beyond int64 in bus
# columns, empty and non-numeric text).
_TRICKY = {
    "id": st.sampled_from(['"q"', '"a,b"', 'x"', "\x00", "a\rb", ""]),
    "bus": st.sampled_from(
        ["1_0", "\u0661\u0662", "5.0", "9223372036854775808", "-9223372036854775809", "", "x", '"7"', "1e3",
         "0x10", "+-5", "5."]
    ),
    "float": st.sampled_from(
        ["1_0.5", "\u0661\u0662", "", " ", "abc", "0x1", '"1"', "\x00", "1,5", "--1", "1e"]
    ),
    "other": st.sampled_from([",", '"', "", "\x00"]),
}


@st.composite
def _branch_csv_texts(draw):
    header = draw(st.sampled_from(_HEADERS))
    kinds = [_kind(name) for name in header]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["valid", "valid", "valid", "tricky", "blank", "text"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r", "\r\r"])))
        elif shape == "text":
            lines.append(draw(st.text(max_size=20)))
        else:
            cells = [draw(_VALID[kind]) for kind in kinds]
            if shape == "tricky":
                i = draw(st.integers(0, len(cells) - 1))
                cells[i] = draw(_TRICKY[kinds[i]])
            lines.append(",".join(cells))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if draw(st.booleans()) else text


_PLAIN = ",".join(CSV_HEADER) + "\n"


@settings(max_examples=300, deadline=None)
@given(_branch_csv_texts())
@example("")
@example(_PLAIN)
@example(_PLAIN + "\n\r\n\n")
@example(_PLAIN + GOOD_ROW.replace("t1", '"t1"') + "\n")
@example(_PLAIN + GOOD_ROW.replace("t1", "t\x001") + "\n")
@example(_PLAIN.replace("\n", "\r") + GOOD_ROW + "\r")
@example(_PLAIN.replace("\n", "\r\n") + GOOD_ROW + "\r\n \r\n")
@example(_PLAIN + GOOD_ROW.replace(",1,", ",5.0,") + "\n")
@example(_PLAIN + GOOD_ROW.replace(",1,", "," + "0" * 4300 + "7,") + "\n")  # past int()'s digit limit
@example(_PLAIN + GOOD_ROW.replace(",1,", ",1" + "0" * 4300 + ",") + "\n")
def test_parse_branch_csv_matches_the_row_wise_reader(text):
    assert _outcome(parse_branch_csv, text) == _outcome(_row_wise_branch_csv, text)


def test_parse_branch_csv_reads_plain_text_without_the_row_wise_reader(monkeypatch):
    def refuse(*args):
        raise AssertionError("row-wise reader used")

    text = _PLAIN.replace("\n", "\r\n") + (GOOD_ROW + "\r\n") * 3
    expected = list(_row_wise_branch_csv(text))
    monkeypatch.setattr(ingest, "_read_rows", refuse)
    assert list(parse_branch_csv(text)) == expected
    with pytest.raises(AssertionError, match="row-wise"):
        parse_branch_csv(_PLAIN + GOOD_ROW.replace("t1", '"t1"') + "\n")


def test_parse_branch_csv_reads_rows_that_numpy_warns_on_row_by_row(monkeypatch):
    # numpy before 2.0 reads float text such as "5.0" in an integer column with
    # a DeprecationWarning; such text is the row-wise reader's to judge.
    text = _PLAIN + GOOD_ROW + "\n" + GOOD_ROW.replace("t1", "t2") + "\n"
    expected = _outcome(_row_wise_branch_csv, text)
    loadtxt, read_rows, used = np.loadtxt, ingest._read_rows, []

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    monkeypatch.setattr(ingest, "_read_rows", lambda *args: used.append(args) or read_rows(*args))
    assert _outcome(parse_branch_csv, text) == expected
    assert used


def test_parse_branch_csv_field_longer_than_the_csv_limit():
    long_id = "t" * (csv.field_size_limit() + 1)
    text = _PLAIN + GOOD_ROW + "\n" + GOOD_ROW.replace("t1", long_id) + "\n"
    with pytest.raises(ParseError, match="malformed CSV: field larger than field limit") as exc:
        parse_branch_csv(text)
    assert exc.value.line == 3


# ------------------------------------------------------------ deferred ids


@st.composite
def _clean_branch_csv_bytes(draw):
    """Rows numpy's reader takes: ids padded with whitespace, blank lines, LF or CRLF ends, an
    optional byte-order mark and extra columns outside CSV_HEADER."""
    header = draw(st.sampled_from(_HEADERS))
    kinds = [_kind(name) for name in header]
    lines = [",".join(header)]
    for blank in [False] + draw(st.lists(st.booleans(), max_size=7)):  # a row first: loadtxt warns on none
        lines.append("" if blank else ",".join(draw(_VALID[kind]) for kind in kinds))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "﻿"])) + end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode()


def _refuse(*args, **kwargs):
    raise AssertionError("called")


@settings(max_examples=200, deadline=None)
@given(_clean_branch_csv_bytes(), st.data())
def test_deferred_ids_equal_the_row_wise_readers(data, draw):
    expected = _row_wise_branch_csv(ingest.decode_utf8(data)).ids
    with mock.patch.object(ingest, "_read_rows", _refuse):
        table = parse_branch_csv(data)
    assert len(table) == len(expected)
    masks = st.lists(st.booleans(), min_size=len(table), max_size=len(table)).map(np.array)
    first, second, sibling = draw.draw(masks), draw.draw(masks), draw.draw(masks)
    chained, other = table.take(first).take(second[: np.count_nonzero(first)]), table.take(sibling)
    kept = [i for i, keep in zip(expected, first) if keep]
    assert chained.ids == [i for i, keep in zip(kept, second) if keep]
    assert other.ids == [i for i, keep in zip(expected, sibling) if keep]
    assert table.ids == expected and [r.id for r in table] == expected


@pytest.mark.parametrize("row", [GOOD_ROW + ",x", GOOD_ROW.rpartition(",")[0]])
def test_a_row_of_the_wrong_width_is_a_parse_error_naming_its_line(row):
    text = _PLAIN + GOOD_ROW + "\n\n" + row + "\n" + GOOD_ROW + "\n"
    with pytest.raises(ValueError):  # numpy's reader counts the fields of every row
        ingest._read_columns(text.encode())
    with pytest.raises(ParseError, match=r"^line 4: expected 10 fields, got (11|9)$"):
        parse_branch_csv(text.encode())


def test_len_filter_and_collect_do_not_read_deferred_ids():
    from gridparams.analysis import collect_samples

    rows = [GOOD_ROW, GOOD_ROW.replace("t1", "t2").replace(",60,", ",0,"), "l3,3,4,115,115,0.01,0.1,80,0,100"]
    parsed = parse_branch_csv((_PLAIN + "\n".join(rows)).encode())
    columns = {name: getattr(parsed, name) for name in CSV_HEADER[1:]}
    clean = BranchTable(_refuse, **{name: col[[0, 2]] for name, col in columns.items()})
    assert len(clean) == 2
    assert filter_valid(clean).tolist() == [-1, -1]
    assert collect_samples(clean).kept == 2
    out = collect_samples(BranchTable(_refuse, **columns))  # the rejected rows' ids stay unread too
    assert out.kept == 2 and len(out.rejected) == 1
    with pytest.raises(AssertionError, match="called"):
        out.rejected.ids
    assert collect_samples(parsed).rejected.ids == ["t2"]


_case_fragments = st.sampled_from(
    [
        "mpc.baseMVA = 100;", "mpc.baseMVA = 1e;", "mpc.bus = [", "mpc.branch = [", "];", "] ;",
        "]", ";", ",", "\n", "\t", "%", " ", "1", "2", "115", "0.01", "nan", "inf", "-1e300",
        "1e30", "x", "[",
    ]
)


_matrix_rows = st.lists(
    st.lists(st.sampled_from(["1", "2", "3", "115", "0.01", "nan", "inf", "-1e300", "1e30", "2.5", "x"]),
             max_size=14).map("\t".join),
    max_size=4,
).map(";\n".join)


@st.composite
def _cases(draw):
    base = draw(st.sampled_from(["100", "1e", "-", "nan"]))
    return (
        f"mpc.baseMVA = {base};\nmpc.bus = [\n{draw(_matrix_rows)}\n]{draw(st.sampled_from([';', ' ;']))}\n"
        f"mpc.branch = [\n{draw(_matrix_rows)}\n];\n"
    )


@given(st.one_of(_cases(), st.lists(_case_fragments, max_size=80).map("".join), st.text(max_size=200)))
def test_parse_matpower_raises_only_parse_error(text):
    try:
        parse_matpower_case(text)
    except ParseError:
        pass


# ------------------------------------------------------------ MATPOWER text


CASE3 = """\
function mpc = case3
mpc.version = '2';
mpc.baseMVA = 100;
%% bus data
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1.0\t0\t115\t1\t1.1\t0.9;
\t2\t1\t50\t10\t0\t0\t1\t1.0\t0\t115\t1\t1.1\t0.9;
\t3\t1\t30\t5\t0\t0\t1\t1.0\t0\t13.8\t1\t1.1\t0.9;
];
mpc.branch = [
\t1\t2\t0.01\t0.05\t0.02\t80\t80\t80\t0\t0\t1\t-30\t30;
\t1\t2\t0.012\t0.06\t0.02\t80\t80\t80\t0\t0\t1\t-30\t30;
\t2\t3\t0.002\t0.04\t0\t60\t60\t60\t1.025\t0\t1\t-30\t30;
];
"""


def test_matpower_basic_fields():
    base, recs = parse_matpower_case(CASE3)
    assert base == 100.0
    assert len(recs) == 3
    line = recs[0]
    assert line.from_bus == 1 and line.to_bus == 2
    assert line.from_kv == 115.0 and line.to_kv == 115.0
    assert line.r_pu == 0.01 and line.x_pu == 0.05
    assert line.mva_rating == 80.0
    assert line.tap_ratio == 0.0
    assert line.system_mva_base == 100.0
    xfmr = recs[2]
    assert xfmr.tap_ratio == 1.025
    assert xfmr.from_kv == 115.0 and xfmr.to_kv == 13.8


def test_matpower_parallel_branch_ids():
    _, recs = parse_matpower_case(CASE3)
    assert [r.id for r in recs] == ["1-2-1", "1-2-2", "2-3-1"]


def test_matpower_comment_stripping():
    commented = CASE3.replace(
        "mpc.baseMVA = 100;", "mpc.baseMVA = 100;  % system base"
    )
    base, recs = parse_matpower_case(commented)
    assert base == 100.0
    assert len(recs) == 3


def test_matpower_unknown_bus():
    broken = CASE3.replace(
        "\t2\t3\t0.002", "\t2\t9\t0.002"
    )
    with pytest.raises(ValueError, match="9"):
        parse_matpower_case(broken)


def test_matpower_missing_base():
    with pytest.raises(ValueError, match="baseMVA"):
        parse_matpower_case("mpc.bus = [\n];\nmpc.branch = [\n];\n")


def test_matpower_space_before_semicolon():
    spaced = CASE3.replace("];", "] ;")
    assert spaced.count("] ;") == 2
    base, recs = parse_matpower_case(spaced)
    assert base == 100.0
    assert list(recs) == list(parse_matpower_case(CASE3)[1])


def test_matpower_unparsable_row_names_its_line():
    broken = CASE3.replace("\t0.012\t0.06", "\t0.012\tx")
    with pytest.raises(ParseError, match="unparsable row") as exc:
        parse_matpower_case(broken)
    assert exc.value.line == 12


def test_matpower_short_row_names_its_line():
    broken = CASE3.replace("\t3\t1\t30\t5\t0\t0\t1\t1.0\t0\t13.8\t1\t1.1\t0.9;", "\t3\t1\t30;")
    with pytest.raises(ParseError, match="bus row 3: expected at least 10 columns, got 3") as exc:
        parse_matpower_case(broken)
    assert exc.value.line == 8


def test_matpower_unknown_bus_names_its_line():
    broken = CASE3.replace("\t2\t3\t0.002", "\t2\t9\t0.002")
    with pytest.raises(ParseError, match="branch row 3: unknown bus 9") as exc:
        parse_matpower_case(broken)
    assert exc.value.line == 13


# Characters that str.splitlines() breaks at but that end no line in a case file:
# both readers take them as whitespace, as str.split() and np.loadtxt do.
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDS)
def test_matpower_lines_end_only_at_newlines(char, monkeypatch):
    broken = f"% case{char}header\n{CASE3}".replace("\t2\t3\t0.002", "\t2\t9\t0.002")
    with pytest.raises(ParseError, match="branch row 3: unknown bus 9") as exc:
        parse_matpower_case(broken)
    assert exc.value.line == 14
    spaced = CASE3.replace("\t0.012\t", f"\t0.012{char}").replace("\t0.9;", f"\t0.9;{char}")
    expected = _matpower_outcome(parse_matpower_case, CASE3)
    assert _matpower_outcome(_row_wise_matpower, spaced) == expected
    monkeypatch.setattr(ingest, "_read_matrix_rows", lambda *args: pytest.fail("row-wise reader used"))
    assert _matpower_outcome(parse_matpower_case, spaced) == expected


def test_matpower_duplicate_bus_takes_last_row():
    doubled = CASE3.replace(
        "];\nmpc.branch", "\t3\t1\t30\t5\t0\t0\t1\t1.0\t0\t34.5\t1\t1.1\t0.9;\n];\nmpc.branch"
    )
    _, recs = parse_matpower_case(doubled)
    assert recs[2].to_kv == 34.5


def _row_wise_matpower(text):
    """parse_matpower_case with numpy's reader refused: the row-wise reader alone."""
    with mock.patch.object(ingest, "_loadtxt_matrix", lambda body, min_cols: None):
        return parse_matpower_case(text)


def _matpower_outcome(parse, text):
    """A parse's base and table, column bytes and all, or its ParseError text and line."""
    try:
        base, table = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("table", base, table.ids, *(getattr(table, name).tobytes() for name in CSV_HEADER[1:]))


# Tokens both readers take; bus numbers that are unknown or out of range;
# tokens that float() and loadtxt treat differently ("_" in numbers,
# non-ASCII digits) or that both reject.
_MP_BUS = ["1", "2", "3", "2", "3.7", "+1"]
_MP_BAD_BUS = ["9", "-4", "nan", "Inf", "1e19"]
_MP_VALUE = ["0.01", "115", "-0.5", "+.5", "5.", "1e-320", "1e400", "Inf", "-Inf", "NaN", "inf", "nan"]
_MP_ODD = ["1_0", "\u0661\u0662", "x", "1e", "0x1", "\x00", "0.5\x00", "[", "]"]
_MP_SEPARATORS = [" ", "\t", ",", ", "]
_MP_ODD_SEPARATORS = [" ,\t", "\u3000", "\x0c"]  # "\x0c" is whitespace, not a line end
_MP_ROW_ENDS = [";\n"] * 4 + ["\n", ";", ";\r\n", "\r\n", ";\x0c", "; % note\n", ";;\n", ";,\n", ", ;\n"]


def _rarely(draw, common, rare, one_in):
    """A draw from rare about once in one_in draws, else from common."""
    return draw(st.sampled_from(common * one_in + rare))


@st.composite
def _matpower_matrix_text(draw, name, n_bus_cols, min_cols):
    width = draw(st.sampled_from([min_cols, min_cols, min_cols + 3]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        n = _rarely(draw, [width], [min_cols - 1, width + 1, 2], 40)
        cells = [_rarely(draw, _MP_BUS, _MP_BAD_BUS, 40) if j < n_bus_cols else draw(st.sampled_from(_MP_VALUE))
                 for j in range(n)]
        if cells:
            cells[-1] = _rarely(draw, cells[-1:], _MP_ODD, 40)
        seps = [_rarely(draw, _MP_SEPARATORS, _MP_ODD_SEPARATORS, 40) for _ in cells[1:]] + [""]
        lead = draw(st.sampled_from(["", "\t", " "]))
        rows.append(lead + "".join(c + sep for c, sep in zip(cells, seps)) + draw(st.sampled_from(_MP_ROW_ENDS)))
    close = draw(st.sampled_from(["];", "] ;", "]\n;", "]  ;  % end"]))
    return f"mpc.{name} = [\n{''.join(rows)}{close}\n"


@st.composite
def _matpower_texts(draw):
    return (
        "% case header\nfunction mpc = case\nmpc.baseMVA = 100;  % MVA\n"
        + draw(_matpower_matrix_text("bus", 1, 10))
        + draw(_matpower_matrix_text("branch", 2, 9))
    )


_TWO_BUSES = "mpc.baseMVA = 100;\nmpc.bus = [\n" + "".join(
    f"{b}\t1\t0\t0\t0\t0\t1\t1\t0\t{kv}\t1\t1.1\t0.9;\n" for b, kv in ((1, 115), (2, 13.8))
) + "];\n"


@settings(max_examples=400, deadline=None)
@given(_matpower_texts())
@example(CASE3)
@example(CASE3.replace("];", "] ;").replace("\n", "\r\n"))
@example(CASE3.replace("\t0.9;", "\t0.9; % bus").replace("\t", ","))
@example(CASE3.replace("\t80\t80\t80", "\tInf\t80\t-Inf").replace("\t0.002", "\tNaN"))
@example(CASE3.replace("\t0.012", "\t1_0"))
@example(CASE3.replace("\t0.012", "\t\ud800"))  # no UTF-8 form
@example(CASE3.replace("\t0.9;", "\t0.9;\u3000"))
@example(CASE3.replace("\t-30\t30;\n];", "\t-30;\n];"))  # ragged, every row long enough
@example(CASE3.replace("\t2\t3\t0.002", "\tnan\t3\t0.002"))
@example(_TWO_BUSES + "mpc.branch = [\n;,;\n\x0c ;\n];\n")
@example(_TWO_BUSES + "mpc.branch = [\n\u3000;\u2003\n];\n")
def test_parse_matpower_matches_the_row_wise_reader(text):
    assert _matpower_outcome(parse_matpower_case, text) == _matpower_outcome(_row_wise_matpower, text)


@given(st.lists(_case_fragments, max_size=60).map("".join), st.sampled_from(["bus", "branch"]))
@example("mpc.bus = [ 1 ] 2 ];", "bus")
@example("mpc.bus = [ 1 ];\nmpc.bus = [ 2 ];", "bus")
@example("mpc.bus = [ 1 ]\nmpc.bus = [ 2 ];", "bus")
def test_matrix_span_is_the_lazy_regex_match(text, name):
    match = re.search(rf"\.{name}\s*=\s*\[(.*?)\]\s*;", text, re.DOTALL)
    if match is None:
        with pytest.raises(ParseError, match="missing matrix"):
            ingest._matrix_span(text, name)
    else:
        assert ingest._matrix_span(text, name) == match.span(1)


def test_parse_matpower_reads_well_formed_text_without_the_row_wise_reader(monkeypatch):
    rows = "".join(
        f"\t{i % 2 + 1}\t{2 - i % 2}\t0.01\t0.{i % 97 + 1}\t0\t{i % 300 + 1}\t0\t0\t{i % 3 * 0.5}\t0;\n"
        for i in range(5000)
    )
    large = _TWO_BUSES + f"mpc.branch = [\n{rows}];\n"
    expected = [_matpower_outcome(_row_wise_matpower, text) for text in (CASE3, large)]
    monkeypatch.setattr(ingest, "_read_matrix_rows", lambda *args: pytest.fail("row-wise reader used"))
    assert [_matpower_outcome(parse_matpower_case, text) for text in (CASE3, large)] == expected
    assert len(parse_matpower_case(large)[1]) == 5000
    with pytest.raises(pytest.fail.Exception, match="row-wise"):
        parse_matpower_case(CASE3.replace("\t0.012", "\t1_0"))


@pytest.mark.parametrize("branch", ["[\n];", "[ ];", "[\n;\n,;\n] ;", "[\u3000;\u2003];"])
def test_empty_matpower_matrix_parses_without_a_warning(branch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, table = parse_matpower_case(f"{_TWO_BUSES}mpc.branch = {branch}\n")
    assert base == 100.0 and len(table) == 0 and table.r_pu.shape == (0,)


# -------------------------------------------------------------- filtering


def test_filter_reasons():
    records = [
        _rec(id="ok"),
        _rec(id="bad_r", r_pu=0.0),
        _rec(id="bad_x", x_pu=-0.1),
        _rec(id="no_rating", mva_rating=0.0),
        _rec(id="huge", mva_rating=5000.0),
        _rec(id="nan", r_pu=math.nan),
    ]
    codes = filter_valid(BranchTable.from_records(records), rating_bounds=DEFAULT_RATING_BOUNDS)
    assert codes.dtype == np.int8 and codes.shape == (len(records),)
    assert [rec.id for rec, code in zip(records, codes) if code == -1] == ["ok"]
    reasons = {rec.id: tuple(RejectReason)[code] for rec, code in zip(records, codes) if code >= 0}
    assert reasons == {
        "bad_r": RejectReason.NON_POSITIVE_R,
        "bad_x": RejectReason.NON_POSITIVE_X,
        "no_rating": RejectReason.ZERO_RATING,
        "huge": RejectReason.EXTREME_RATING,
        "nan": RejectReason.NON_FINITE,
    }


def test_reject_reasons_are_listed_in_rule_order():
    # filter_valid codes a reason by its index in RejectReason.
    assert [r.value for r in RejectReason] == [
        "NonPositiveR", "NonPositiveX", "ZeroRating", "ExtremeRating", "NonFinite",
    ]


def _only_reason(record):
    [code] = filter_valid(BranchTable.from_records([record]))
    assert code >= 0
    return tuple(RejectReason)[code]


def test_filter_reason_precedence():
    # r and x both bad: the resistance rule fires first
    assert _only_reason(_rec(r_pu=-1.0, x_pu=-1.0)) == RejectReason.NON_POSITIVE_R
    # NaN rating falls through the comparisons to the finiteness rule
    assert _only_reason(_rec(mva_rating=math.nan)) == RejectReason.NON_FINITE
    # infinite rating is caught by the bound check, not the finiteness rule
    assert _only_reason(_rec(mva_rating=math.inf)) == RejectReason.EXTREME_RATING


def test_filter_idempotent():
    records = [_rec(id=f"r{i}", x_pu=0.01 * (i + 1)) for i in range(5)]
    records += [_rec(id="bad_x", x_pu=-0.1), _rec(id="nan", from_kv=math.nan)]
    table = BranchTable.from_records(records)
    kept = table.take(filter_valid(table) < 0)
    assert [r.id for r in kept] == [f"r{i}" for i in range(5)]
    assert filter_valid(kept).tolist() == [-1] * 5


def test_filter_rejects_bad_bounds():
    with pytest.raises(ValueError):
        filter_valid(BranchTable.from_records([_rec()]), rating_bounds=(0.0, 3000.0))
    with pytest.raises(ValueError):
        filter_valid(BranchTable.from_records([_rec()]), rating_bounds=(10.0, 5.0))


# ---------------------------------------------------------- classification


def test_classify_line():
    rec = _rec(tap_ratio=0.0, from_kv=115.0, to_kv=115.0)
    assert classify_branch(rec) == BranchKind.TRANSMISSION_LINE
    assert not is_transformer(BranchKind.TRANSMISSION_LINE)


def test_classify_transformer_by_tap():
    rec = _rec(tap_ratio=1.0, x_pu=0.4)
    assert classify_branch(rec) == BranchKind.TRANSFORMER


def test_classify_transformer_by_kv_mismatch():
    rec = _rec(tap_ratio=0.0, from_kv=115.0, to_kv=13.8, x_pu=0.4)
    assert classify_branch(rec) == BranchKind.TRANSFORMER


def test_classify_kv_tolerance():
    # 115 vs 116 is inside the 2 percent band of the higher side: same level
    rec = _rec(tap_ratio=0.0, from_kv=116.0, to_kv=115.0)
    assert classify_branch(rec) == BranchKind.TRANSMISSION_LINE
    rec = _rec(tap_ratio=0.0, from_kv=118.0, to_kv=115.0, x_pu=0.4)
    assert classify_branch(rec) == BranchKind.TRANSFORMER


def test_classify_autotransformer_suspect():
    rec = _rec(tap_ratio=1.0, r_pu=0.1, x_pu=0.32)  # X/R = 3.2 < 4
    kind = classify_branch(rec)
    assert kind == BranchKind.AUTOTRANSFORMER_SUSPECT
    assert is_transformer(kind)


def test_classify_threshold_boundary():
    rec = _rec(tap_ratio=1.0, r_pu=0.1, x_pu=0.4)  # X/R exactly 4
    assert classify_branch(rec) == BranchKind.TRANSFORMER


def test_lines_never_suspect():
    rec = _rec(tap_ratio=0.0, r_pu=0.1, x_pu=0.1)
    assert classify_branch(rec) == BranchKind.TRANSMISSION_LINE


def test_kind_values():
    assert BranchKind.TRANSMISSION_LINE.value == "TransmissionLine"
    assert BranchKind.TRANSFORMER.value == "Transformer"
    assert BranchKind.AUTOTRANSFORMER_SUSPECT.value == "AutotransformerSuspect"


# --------------------------------------------------------- voltage classes


def test_voltage_class_matching():
    assert ingest._in_class(115.0, 115.0)
    assert ingest._in_class(116.0, 115.0)
    assert not ingest._in_class(120.0, 115.0)


def test_voltage_class_table_rejects_overlap():
    with pytest.raises(ValueError):
        voltage_class_table([115.0, 117.0])
    table = voltage_class_table([115.0, 138.0, 230.0])
    assert table == [115.0, 138.0, 230.0]


def test_voltage_class_table_checks_in_input_order_then_sorts():
    assert voltage_class_table([230, 115.0, 138]) == [115.0, 138.0, 230.0]
    with pytest.raises(ValueError, match=r"^nominal_kv must be finite and > 0, got -5\.0$"):
        voltage_class_table([115.0, -5.0, math.nan])


def test_assign_transformer_uses_high_side():
    table = voltage_class_table([115.0, 138.0, 230.0])
    rec = _rec(tap_ratio=1.0, from_kv=13.8, to_kv=230.0, x_pu=0.4)
    assert assign_voltage_class(rec, BranchKind.TRANSFORMER, table) == 230.0


def test_assign_line_uses_from_side():
    table = voltage_class_table([115.0, 138.0, 230.0])
    rec = _rec(from_kv=138.0, to_kv=138.0)
    assert assign_voltage_class(rec, BranchKind.TRANSMISSION_LINE, table) == 138.0


def test_assign_unmatched_is_none():
    table = voltage_class_table([115.0, 138.0, 230.0])
    rec = _rec(from_kv=345.0, to_kv=345.0)
    assert assign_voltage_class(rec, BranchKind.TRANSMISSION_LINE, table) is None
