"""Data model, CSV ingestion and basis expansion."""

import codecs
import csv
import io
import re
import sys
import tempfile
import warnings
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from lineariv import (
    BasisSpec,
    ColumnMap,
    Dataset,
    InputError,
    ParseError,
    SchemaError,
    TermSpecError,
    WeakIdentificationError,
    build_design,
    load_csv,
    parse_term,
    write_csv,
)
from lineariv import dataset
from lineariv.dataset import InstrumentByTerm, Intercept, Power, Product, Raw
from lineariv.simlab import gen_table1


def small_dataset():
    return Dataset(
        y=[1.0, 2.0, 3.0],
        x=[0.5, 1.5, 2.5],
        z=[0.0, 1.0, 1.0],
        c_raw=[2.0, 3.0, 4.0],
    )


def test_load_csv_four_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x,z,v\n1,2,0,5\n2,3,1,6\n3,4,0,7\n4,5,1,8\n")
    data = load_csv(path, ColumnMap("y", "x", ["z"], ["v"]))
    assert data.n == 4
    assert data.n_instruments == 1
    assert data.n_covariates == 1
    assert_array_equal(data.y, [1, 2, 3, 4])
    assert_array_equal(data.z[:, 0], [0, 1, 0, 1])


def test_load_csv_blank_cell_cites_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x,z,v\n1,2,0,5\n2,,1,6\n")
    with pytest.raises(ParseError, match=r"row 2.*'x'"):
        load_csv(path, ColumnMap("y", "x", ["z"], ["v"]))


def test_load_csv_shuffled_columns_matches_by_name(tmp_path):
    natural = tmp_path / "a.csv"
    natural.write_text("y,x,z,v\n1,2,0,5\n2,3,1,6\n3,4,0,7\n4,5,1,8\n")
    shuffled = tmp_path / "b.csv"
    shuffled.write_text("v,z,y,x\n5,0,1,2\n6,1,2,3\n7,0,3,4\n8,1,4,5\n")
    cols = ColumnMap("y", "x", ["z"], ["v"])
    a = load_csv(natural, cols)
    b = load_csv(shuffled, cols)
    for field in ("y", "x", "z", "c_raw"):
        assert_array_equal(getattr(a, field), getattr(b, field))
    # independent column-by-name oracle via the stdlib reader
    with open(natural) as fh:
        rows = list(csv.DictReader(fh))
    assert_array_equal(a.y, [float(r["y"]) for r in rows])
    assert_array_equal(a.c_raw[:, 0], [float(r["v"]) for r in rows])


def test_load_csv_skips_byte_order_mark(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbfy,x,z,v\r\n1,2,0,5\r\n2,3,1,6\r\n")
    data = load_csv(path, ColumnMap("y", "x", ["z"], ["v"]))
    assert_array_equal(data.y, [1, 2])
    assert_array_equal(data.c_raw[:, 0], [5, 6])


def test_load_csv_missing_column_named(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x,z\n1,2,0\n")
    with pytest.raises(SchemaError, match="'v'"):
        load_csv(path, ColumnMap("y", "x", ["z"], ["v"]))


def test_load_csv_directory_is_a_schema_error(tmp_path):
    # open() raised an untyped IsADirectoryError
    with pytest.raises(SchemaError, match="^cannot read "):
        load_csv(tmp_path, ColumnMap("y", "x", ["z"], ["v"]))


def test_load_csv_non_finite_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x,z,v\n1,2,0,5\ninf,3,1,6\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(path, ColumnMap("y", "x", ["z"], ["v"]))


def test_csv_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(42)
    data = Dataset(rng.normal(size=20), rng.normal(size=20),
                   rng.normal(size=(20, 2)), rng.normal(size=(20, 1)))
    path = tmp_path / "rt.csv"
    cols = ColumnMap("y", "x", ["z0", "z1"], ["v"])
    write_csv(data, path, cols)
    back = load_csv(path, cols)
    for field in ("y", "x", "z", "c_raw"):
        assert_array_equal(getattr(back, field), getattr(data, field))


def test_dataset_validation():
    with pytest.raises(SchemaError, match="non-finite"):
        Dataset([1.0, np.nan], [1.0, 2.0], [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(SchemaError, match="length"):
        Dataset([1.0, 2.0], [1.0], [0.0, 1.0], [1.0, 2.0])
    assert not small_dataset().y.flags.writeable


def test_dataset_equality_is_identity():
    a, b = small_dataset(), small_dataset()
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_build_design_intercept():
    design = build_design(small_dataset(), BasisSpec(["1"]))
    assert_array_equal(design, np.ones((3, 1)))


def test_build_design_powers():
    data = Dataset([0, 0, 0], [0, 0, 0], [0, 0, 1], [1.0, 2.0, 3.0])
    design = build_design(data, BasisSpec(["1", "c0", "c0^2"]))
    assert_array_equal(design[:, 0], [1, 1, 1])
    assert_array_equal(design[:, 1], [1, 2, 3])
    assert_array_equal(design[:, 2], [1, 4, 9])


def test_build_design_instrument_by_term():
    data = Dataset([0, 0, 0], [0, 0, 0], [0.0, 1.0, 1.0], [2.0, 3.0, 4.0])
    design = build_design(data, BasisSpec(["z0:c0"]))
    assert_array_equal(design[:, 0], [0, 3, 4])


def test_build_design_index_out_of_range():
    with pytest.raises(TermSpecError, match="out of range"):
        build_design(small_dataset(), BasisSpec(["c5"]))
    with pytest.raises(TermSpecError, match="out of range"):
        build_design(small_dataset(), BasisSpec(["z2"]))


def test_build_design_row_local():
    rng = np.random.default_rng(7)
    data = Dataset(rng.normal(size=10), rng.normal(size=10),
                   rng.normal(size=(10, 1)), rng.normal(size=(10, 2)))
    spec = BasisSpec(["1", "c0", "c1^2", "z0:c0", "c0*c1"])
    design = build_design(data, spec)
    perm = rng.permutation(10)
    permuted = Dataset(data.y[perm], data.x[perm], data.z[perm], data.c_raw[perm])
    assert_array_equal(build_design(permuted, spec), design[perm])


def test_append_term_appends_one_column():
    data = small_dataset()
    spec = BasisSpec(["1", "c0"])
    base = build_design(data, spec)
    extended = build_design(data, spec.append("z0:c0"))
    assert extended.shape[1] == base.shape[1] + 1
    assert_array_equal(extended[:, :2], base)


def test_parse_term_forms():
    assert parse_term("1") == Intercept()
    assert parse_term("c0") == Raw(0)
    assert parse_term("c1^3") == Power(1, 3)
    assert parse_term("z0:c0") == InstrumentByTerm(0, Raw(0))
    assert parse_term("c0*c1") == Product(Raw(0), Raw(1))
    with pytest.raises(TermSpecError):
        parse_term("q7")


def test_z_degree_and_linearity():
    assert BasisSpec(["1", "c0", "z0"]).is_linear_in_z()
    assert BasisSpec(["z0:c0"]).is_linear_in_z()
    assert BasisSpec([]).is_linear_in_z()
    assert not BasisSpec(["z0*z0"]).is_linear_in_z()


def test_specs_of_strings_and_of_terms_are_one_key():
    # equal specs hash equal, however they were built (BasisSpec hashes once)
    text = BasisSpec(["1", "c0", "z0:c0", "c1^2"])
    terms = BasisSpec([Intercept(), Raw(0), InstrumentByTerm(0, Raw(0)), Power(1, 2)])
    mixed = BasisSpec(["1"]).append(Raw(0)).append("z0:c0").append("c1^2")
    assert text == terms == mixed
    assert hash(text) == hash(terms) == hash(mixed)
    assert {text: "first", terms: "second", mixed: "third"} == {text: "third"}
    assert text != BasisSpec(["1", "c0", "z0:c0"])


def test_build_design_cached_read_only():
    data = small_dataset()
    spec = BasisSpec(["1", "c0"])
    design = build_design(data, spec)
    again = build_design(data, BasisSpec(["1", "c0"]))
    assert again is not design and not np.shares_memory(again, design)
    assert_array_equal(again, design)
    assert not again.flags.writeable
    assert not design.flags.writeable
    with pytest.raises(ValueError):
        design[0, 0] = 5.0
    empty = build_design(data, BasisSpec([]))
    assert empty.shape == (3, 0) and not empty.flags.writeable


def test_take_and_counterfactual_designs_leave_the_parent_untouched():
    data = small_dataset()
    spec = BasisSpec(["1", "z0:c0"])
    parent = build_design(data, spec)
    resampled = data.take([2, 0])
    assert_array_equal(build_design(resampled, spec), [[1.0, 4.0], [1.0, 0.0]])
    at_one = spec._evaluate(np.ones_like(data.z), data.c_raw)
    assert_array_equal(at_one, [[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    # the parent's design is untouched by its children
    again = build_design(data, spec)
    assert again is not parent and not np.shares_memory(again, parent)
    assert_array_equal(again, parent)
    assert not again.flags.writeable
    assert_array_equal(parent, [[1.0, 0.0], [1.0, 3.0], [1.0, 4.0]])


EVERY_TERM = BasisSpec(["1", "c0", "c0^2", "c0*c1", "z0", "z0:c0", "z1:c0^2"])


def _members(b=3, n=40):
    rng = np.random.default_rng(17)
    return [Dataset(rng.normal(size=n), rng.normal(size=n), rng.normal(size=(n, 2)),
                    rng.normal(size=(n, 2))) for _ in range(b)]


def test_evaluator_on_a_stack_equals_each_members_design():
    members = _members()
    zs, cs = np.stack([ds.z for ds in members]), np.stack([ds.c_raw for ds in members])
    stacked = EVERY_TERM._evaluate(zs, cs)
    assert stacked.shape == (3, 40, 7) and stacked.flags.c_contiguous
    for design, ds in zip(stacked, members):
        assert design.tobytes() == build_design(ds, EVERY_TERM).tobytes()
    assert BasisSpec([])._evaluate(zs, cs).shape == (3, 40, 0)
    assert BasisSpec([])._evaluate(zs[0], cs[0]).shape == (40, 0)


@pytest.mark.parametrize("term, message", [
    ("c2", "covariate index 2 out of range (dataset has 2)"),
    ("c3^2", "covariate index 3 out of range (dataset has 2)"),
    ("z2", "instrument index 2 out of range (dataset has 2)"),
    ("z0:c2", "covariate index 2 out of range (dataset has 2)"),
    ("z4:c0", "instrument index 4 out of range (dataset has 2)"),
])
def test_evaluator_raises_the_term_errors_of_build_design(term, message):
    members = _members()
    spec = BasisSpec(["1", term])
    with pytest.raises(TermSpecError, match=re.escape(message)):
        build_design(members[0], spec)
    with pytest.raises(TermSpecError, match=re.escape(message)):
        spec._evaluate(np.stack([ds.z for ds in members]), np.stack([ds.c_raw for ds in members]))


def _validated_take(data, rows):
    """``Dataset.take`` through the validating constructor alone."""
    idx = np.asarray(rows)
    return Dataset(data.y[idx], data.x[idx], data.z[idx], data.c_raw[idx])


def _take_outcome(take, data, rows):
    try:
        taken = take(data, rows)
    except (IndexError, SchemaError) as err:
        return type(err), str(err)
    return [(a.dtype, a.shape, a.tobytes()) for a in (taken.y, taken.x, taken.z, taken.c_raw)]


def test_take_of_row_numbers_skips_validation_but_matches_it():
    data = gen_table1(1, 1, -1, 50, 3).dataset
    Dataset.link([data])
    data.memo("filled", lambda chunk: {})
    for rows in (np.random.default_rng(0).integers(0, 50, size=50), [3, -1, 3],
                 np.array([7], dtype=np.uint8)):
        taken = data.take(rows)
        assert _take_outcome(Dataset.take, data, rows) == _take_outcome(_validated_take, data, rows)
        for a in (taken.y, taken.x, taken.z, taken.c_raw):
            assert not a.flags.writeable and a.flags.c_contiguous
        assert taken._memo == {} and taken._chunk == ()
    with mock.patch.object(dataset, "_as_locked_array") as validate:
        data.take([0, 1])
    validate.assert_not_called()


@pytest.mark.parametrize("rows", [
    [], np.array([], dtype=int), [[0, 1], [1, 0]], np.ones(50, dtype=bool),
    np.zeros(50, dtype=bool), [True, False], [0, 50], [-51], [0.0, 1.0]])
def test_take_of_other_indices_behaves_as_the_validating_constructor(rows):
    data = gen_table1(1, 1, -1, 50, 3).dataset
    assert _take_outcome(Dataset.take, data, rows) == _take_outcome(_validated_take, data, rows)


def test_linked_estimates_makes_links_and_walks_each_chunk(monkeypatch):
    members = [gen_table1(0, 0, 0, 50, i).dataset for i in range(7)]
    monkeypatch.setattr(dataset, "_chunk_size", lambda n: 3)
    made, calls = [], []

    def make(items):
        made.append(items)
        return members[items.start:items.stop]

    def estimator(name):
        def call(ds):
            item = members.index(ds)
            first = item - item % 3
            calls.append((item, name, [ref() for ref in ds._chunk] == members[first:first + 3]))
            if name == "weak" and item % 2:
                raise WeakIdentificationError("odd item")
            return np.nan if name == "nan" and item == 2 else [float(item), -1.0]
        return call

    walked = list(dataset._linked_estimates(7, 50, make, {"weak": estimator("weak"),
                                                          "nan": estimator("nan")}))
    assert made == [range(0, 3), range(3, 6), range(6, 7)]
    order = [(item, name) for item in range(7) for name in ("weak", "nan")]
    assert calls == [(item, name, True) for item, name in order]
    assert [(item, name) for item, name, _ in walked] == order
    for item, name, est in walked:
        if (name == "weak" and item % 2) or (name == "nan" and item == 2):
            assert est is None
        else:
            assert est.dtype == float and est.tolist() == [item, -1.0]


# ---------------------------------------------------------------------------
# load_csv cell grammar and error order
# ---------------------------------------------------------------------------

COLS3 = ColumnMap("y", "x", ["z"])


def _parse_error(path, columns=COLS3) -> str:
    with pytest.raises(ParseError) as excinfo:
        load_csv(path, columns)
    return str(excinfo.value)


def _good_rows(count: int) -> list[str]:
    return [f"{i},{i + 0.5},{i % 2}" for i in range(1, count + 1)]


def test_load_csv_first_error_in_file_order(tmp_path):
    bad_then_short = tmp_path / "a.csv"
    bad_then_short.write_text("y,x,z\n1,2,0\n2,oops,1\n3,4\n")
    assert _parse_error(bad_then_short) == "cannot parse 'oops' at data row 2, column 'x'"
    short_then_bad = tmp_path / "b.csv"
    short_then_bad.write_text("y,x,z\n1,2,0\n3,4\n2,oops,1\n")
    assert _parse_error(short_then_bad) == f"{short_then_bad}: data row 2 has 2 fields, expected 3"


def test_load_csv_errors_across_row_blocks(tmp_path):
    rows = _good_rows(6000)
    rows[4096] = "4097,nan,1"
    late_bad = tmp_path / "late.csv"
    late_bad.write_text("y,x,z\n" + "\n".join(rows) + "\n")
    assert _parse_error(late_bad) == "non-finite value 'nan' at data row 4097, column 'x'"
    # a bad cell in the first block still beats a short row in the second
    rows = _good_rows(6000)
    rows[9] = "10,2,?"
    rows[5000] = "5001,2"
    early_bad = tmp_path / "early.csv"
    early_bad.write_text("y,x,z\n" + "\n".join(rows) + "\n")
    assert _parse_error(early_bad) == "cannot parse '?' at data row 10, column 'z'"
    # and a short row in the first block beats a bad cell later in it
    rows = _good_rows(6000)
    rows[9] = "10,2"
    rows[19] = "20,2,?"
    short_first = tmp_path / "short.csv"
    short_first.write_text("y,x,z\n" + "\n".join(rows) + "\n")
    assert _parse_error(short_first) == f"{short_first}: data row 10 has 2 fields, expected 3"


def test_load_csv_blank_lines_skipped_but_counted(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x,z\n1,2,0\n\n3,4,1\n   \n5,,0\n")
    assert _parse_error(path) == "empty cell at data row 5, column 'x'"
    rows = _good_rows(5000)
    lines = []
    for i, row in enumerate(rows, start=1):
        lines.append(row)
        if i % 100 == 0:
            lines.append("")
    good = tmp_path / "good.csv"
    good.write_text("y,x,z\n" + "\n".join(lines) + "\n")
    data = load_csv(good, COLS3)
    assert data.n == 5000
    assert_array_equal(data.y, np.arange(1, 5001))
    assert lines[-2:] == ["5000,5000.5,0", ""]
    lines[-2] = "5000,inf,0"  # the 5000th row, after 49 blank lines
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x,z\n" + "\n".join(lines) + "\n")
    assert _parse_error(bad) == "non-finite value 'inf' at data row 5049, column 'x'"


def test_load_csv_cells_parse_as_float(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('y,x,z\n 1.5 ,"3",1_0\n\t-0.0\t," 2e-3",7\n')
    data = load_csv(path, COLS3)
    assert data.y.tolist() == [1.5, -0.0]
    assert np.signbit(data.y[1])
    assert data.x.tolist() == [3.0, 0.002]
    assert data.z[:, 0].tolist() == [10.0, 7.0]


@pytest.mark.parametrize("cell, message", [
    ("   ", "empty cell at data row 1, column 'x'"),
    ("", "empty cell at data row 1, column 'x'"),
    ("nan", "non-finite value 'nan' at data row 1, column 'x'"),
    (" inf", "non-finite value ' inf' at data row 1, column 'x'"),
    ("-Infinity", "non-finite value '-Infinity' at data row 1, column 'x'"),
    ("1e999", "non-finite value '1e999' at data row 1, column 'x'"),
    ("1,5", None),
    ("0x10", "cannot parse '0x10' at data row 1, column 'x'"),
])
def test_load_csv_bad_cell_messages(tmp_path, cell, message):
    path = tmp_path / "d.csv"
    path.write_text(f"y,x,z\n1,{cell},0\n")
    if message is None:  # an unquoted comma makes a row with too many fields
        message = f"{path}: data row 1 has 4 fields, expected 3"
    assert _parse_error(path) == message


def test_load_csv_strips_unicode_whitespace(tmp_path):
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    path = tmp_path / "d.csv"
    body = "".join(f'{i},"{ws}2.5{ws}",0\n' for i, ws in enumerate(spaces))
    path.write_text("y,x,z\n" + body, encoding="utf-8")
    data = load_csv(path, COLS3)
    assert data.n == len(spaces)
    assert data.x.tolist() == [2.5] * len(spaces)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 6))
    nz = draw(st.integers(1, 3))
    nc = draw(st.integers(0, 2))
    cells = draw(st.lists(_finite, min_size=n * (2 + nz + nc), max_size=n * (2 + nz + nc)))
    block = np.array(cells, dtype=float).reshape(n, 2 + nz + nc)
    return Dataset(block[:, 0], block[:, 1], block[:, 2:2 + nz], block[:, 2 + nz:].reshape(n, nc))


def _hex(data: Dataset) -> list[list[str]]:
    return [[v.hex() for v in getattr(data, f).ravel().tolist()] for f in ("y", "x", "z", "c_raw")]


@settings(max_examples=150, deadline=None)
@given(_datasets())
@example(Dataset([-0.0, 5e-324], [1.7e308, -1.7e308], [2.2250738585072014e-308, -1e-320],
                 np.empty((2, 0))))
@example(Dataset([-0.0], [-5e-324], [[1.7976931348623157e308, 0.1, -0.0]], [[-1.7e308, 1e-310]]))
def test_csv_round_trip_is_bit_exact(data):
    back = _write_and_load(data)
    assert back.z.shape == data.z.shape and back.c_raw.shape == data.c_raw.shape
    assert _hex(back) == _hex(data)


def _write_and_load(data: Dataset) -> Dataset:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        write_csv(data, path)
        z_names = ["z"] if data.n_instruments == 1 else [f"z{j}" for j in range(data.n_instruments)]
        c_names = ["v"] if data.n_covariates == 1 else [f"v{j}" for j in range(data.n_covariates)]
        return load_csv(path, ColumnMap("y", "x", z_names, c_names))


# ---------------------------------------------------------------------------
# load_csv: numpy's C reader and the csv.reader loop give the same result
# ---------------------------------------------------------------------------

COLS4 = ColumnMap("y", "x", ["z"], ["v"])
_H = "y,x,z,v\n"


def _rows(count: int, first: int = 1) -> str:
    return "".join(f"{i},{i / 7!r},{i % 2},{-i * 1e-3!r}\n" for i in range(first, first + count))


def _at_row_20000(cell: str) -> str:
    return _H + _rows(19_999) + f"20000,{cell},0,1\n"


# name -> (file contents, whether numpy's C reader takes the file)
CSV_CORPUS = {
    "clean": (_H + _rows(50), True),
    "quoted cells": (_H + '"1"," 2.5 ",0,"7"\n2,-3,"1",8\n', True),
    "doubled quote": (_H + '"1""",2.5,0,7\n', False),
    "doubled quote, unselected": ('y,x,z,v,note\n1,2.5,0,7,"a""b"\n', False),
    "quote after a space": (_H + '1, "2.5",0,7\n', False),
    "quoted comma": (_H + '1,"2,5",0,7\n', False),
    "quoted comma, unselected": ('y,x,z,v,note\n1,2.5,0,7,"a,b"\n', False),
    "text after a closing quote": (_H + '"1"2,2.5,0,7\n', True),
    "unterminated quote": (_H + '1,2.5,0,"7', True),
    "crlf": ((_H + _rows(5)).replace("\n", "\r\n"), True),
    "cr only": ((_H + _rows(5)).replace("\n", "\r"), True),
    "byte-order mark": ("\ufeff" + _H + _rows(5), True),
    "quoted newline in header": ('y,"x\n",z,"\nv"\n' + _rows(5), True),
    "quoted newline in cell": (_H + '1,"2.5\n",0,7\n2,3,1,"\r8"\n', True),
    "extra numeric column": ("v,w,z,x,y\n1,2,3,4,5\n6,7,8,9,10\n", True),
    "duplicate column name": ("y,x,z,v,y\n1,2.5,0,7,9\n", True),
    "id string column": ("id,y,x,z,v\na1,1,2,0,3\nb2,4,5,1,6\n", False),
    "non-finite unselected column": ("y,x,z,v,w\n1,2.5,0,7,nan\n", False),
    "trailing comma": ("y,x,z,v,\n1,2.5,0,7,\n", False),
    "blank lines": (_H + "\n" + _rows(3) + "\n\r\n" + _rows(2, 4) + "\n", True),
    "whitespace-only lines": (_H + _rows(3) + "  \t\n" + _rows(2, 4), False),
    "quoted empty line": (_H + _rows(3) + '""\n' + _rows(2, 4), False),
    "underscore": (_H + "1_0,2.5,0,7\n", False),
    "subnormals": (_H + "5e-324,-4.9e-324,2.2250738585072009e-308,-1e-320\n", True),
    "long mantissas": (_H + "0.1000000000000000055511151231257827021181583404541015625,"
                       "9007199254740993,1.00000000000000011102230246251565404236316680908203125,"
                       "123456789012345678901234567890.123456789e-5\n", True),
    "signs and dots": (_H + "+1,-0,.5,5.\n", True),
    "unicode whitespace": (_H + "\x1c1\x1f,\xa02.5\u2003,\t0 ,\x0b7\x0c\n", True),
    "non-ascii digits": (_H + "\u0661,2.5,0,\uff17\n", False),
    "nul in cell": (_H + "1\x00,2.5,0,7\n", False),
    "hexadecimal": (_H + "0x10,2.5,0,7\n", False),
    "empty cell": (_H + "1,,0,7\n", False),
    "nan at row 1": (_H + "nan,2.5,0,7\n" + _rows(3, 2), False),
    "inf at row 1": (_H + "1,-inf,0,7\n" + _rows(3, 2), False),
    "1e400 at row 1": (_H + "1,2.5,0,1e400\n" + _rows(3, 2), False),
    "nan at row 20000": (_at_row_20000("nan"), False),
    "inf at row 20000": (_at_row_20000("inf"), False),
    "1e400 at row 20000": (_at_row_20000("1e400"), False),
    "longer row": (_H + _rows(3) + "4,1,0,1,5\n" + _rows(2, 5), False),
    "shorter row": (_H + _rows(3) + "4,1,0\n" + _rows(2, 5), False),
    "uniform extra field": (_H + _rows(4).replace("\n", ",9\n"), False),
    "header only": (_H, False),
    "blank-only body": (_H + "\n\r\n\n", False),
    "empty file": ("", False),
    "invalid utf-8": ((_H + _rows(3)).encode() + b"4,\xff,0,1\n", False),
}


def _load_outcome(path: Path):
    """The arrays of ``load_csv(path)`` as (shape, bytes), or (class, text) of its error."""
    try:
        data = load_csv(path, COLS4)
    except Exception as err:  # every error class must match, not only InputError
        return type(err), str(err)
    return [(a.shape, a.tobytes()) for a in (data.y, data.x, data.z, data.c_raw)]


@pytest.mark.parametrize("name", list(CSV_CORPUS))
def test_c_reader_and_csv_loop_agree(tmp_path, monkeypatch, name):
    contents, clean = CSV_CORPUS[name]
    path = tmp_path / "d.csv"
    path.write_bytes(contents if isinstance(contents, bytes) else contents.encode("utf-8"))
    taken = []
    load_clean = dataset._load_clean

    def spy(*args):
        taken.append(load_clean(*args))
        return taken[-1]

    monkeypatch.setattr(dataset, "_load_clean", spy)
    outcome = _load_outcome(path)
    assert any(block is not None for block in taken) == clean
    monkeypatch.setattr(dataset, "_load_clean", lambda *args: None)
    assert _load_outcome(path) == outcome


def test_c_reader_ignores_the_csv_field_size_limit(tmp_path, monkeypatch):
    # the one known difference: csv.reader refuses a field over
    # csv.field_size_limit() characters (a ParseError naming the row),
    # numpy's C reader does not
    path = tmp_path / "d.csv"
    path.write_text(_H + "0" * (csv.field_size_limit() + 1) + "1,2,0,7\n")
    assert load_csv(path, COLS4).y.tolist() == [1.0]
    monkeypatch.setattr(dataset, "_load_clean", lambda *args: None)
    with pytest.raises(ParseError, match="data row 1: field larger than field limit"):
        load_csv(path, COLS4)


@pytest.mark.parametrize("contents, message", [
    (b"y,x,z,v\n1,2,0,1\n1,\xff,1,2\n", r"data row 2 is not valid UTF-8$"),
    (b"y,x,z,v\n\n1,2,0,1\r\n\n1,2,\xc3(,2\n", r"data row 4 is not valid UTF-8$"),
    (b"y,x\xff,z,v\n1,2,0,1\n", r"header row is not valid UTF-8$"),
    # rows are records: a quoted line break before the bad byte moves no number
    (b'y,x,z,v\n1,2,0,"1\n"\n1,\xff,1,2\n', r"data row 2 is not valid UTF-8$"),
    (b'"y\nq",y,x,z,v\n1,2,3,0,1\n1,\xff,1,2,3\n', r"data row 2 is not valid UTF-8$"),
    (b'y,x,z,v\n1,2,0,"1\n\xff"\n', r"data row 1 is not valid UTF-8$"),
    # an earlier fault is still the first one in file order
    (b"y,x,z,v\n1,a,0,1\n1,\xff,1,2\n", r"cannot parse 'a' at data row 1, column 'x'$"),
    (b"y,x,z,v\n1,2,0\n1,\xff,1,2\n", r"data row 1 has 3 fields, expected 4$"),
], ids=["data row", "blank lines and crlf", "header", "quoted line break before",
        "quoted line break in the header", "in a quoted line break", "earlier bad cell",
        "earlier short row"])
def test_load_csv_invalid_utf8_names_the_row(tmp_path, contents, message):
    path = tmp_path / "d.csv"
    path.write_bytes(contents)
    with pytest.raises(ParseError, match=message):
        load_csv(path, COLS4)


# The reference for files that are not valid UTF-8: load_csv's former third
# pass, which re-decoded such a file with "surrogateescape" and parsed the
# records before its first undecodable one, to name the first fault in file
# order.  Copied unchanged (cells aside, which dataset._parse_cell parses).

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _ref_parse_rows(reader, path: Path, n_fields: int, cols: list[int], names) -> np.ndarray:
    select = itemgetter(*cols)
    values: list[list[float]] = []
    i = 0
    try:
        for i, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n_fields:
                raise ParseError(f"{path}: data row {i} has {len(row)} fields, expected {n_fields}")
            values.append([dataset._parse_cell(raw, i, name) for raw, name in zip(select(row), names)])
    except csv.Error as err:
        raise ParseError(f"{path}: data row {i + 1}: {err}") from None
    return np.array(values, dtype=float).reshape(len(values), len(cols))


def _ref_columns(reader, path: Path, names: tuple[str, ...]) -> tuple[int, list[int]]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: file is empty, expected a header row") from None
    except csv.Error as err:
        raise ParseError(f"{path}: header row: {err}") from None
    header = [h.strip() for h in header]
    for name in names:
        if name not in header:
            raise SchemaError(f"{path}: required column {name!r} not found in header {header}")
    return len(header), [header.index(name) for name in names]


def _ref_undecodable(path: Path, names: tuple[str, ...]) -> InputError:
    text = path.read_bytes().removeprefix(codecs.BOM_UTF8).decode("utf-8", "surrogateescape")
    bad: list[int] = []

    def decodable(reader):
        for i, row in enumerate(reader):
            if any(map(_ESCAPED_BYTE.search, row)):
                bad.append(i)
                return
            yield row

    rows = decodable(csv.reader(io.StringIO(text, newline="")))
    try:
        _ref_parse_rows(rows, path, *_ref_columns(rows, path, names), names)
        error = None
    except InputError as err:
        error = err
    if bad == [0]:
        return ParseError(f"{path}: header row is not valid UTF-8")
    if error is not None:
        return error
    if bad:
        return ParseError(f"{path}: data row {bad[0]} is not valid UTF-8")
    return ParseError(f"{path}: file is not valid UTF-8")


# well under one 8 KiB read, so that any reader decodes the whole file at once
_SMALL_CORPUS = [name for name, (contents, _) in CSV_CORPUS.items() if len(contents) < 2000]
_INVALID_UTF8 = [b"\xff", b"\xc3(", b"\x80", b"\xed\xb2\x80"]


@st.composite
def _undecodable_csvs(draw):
    """A small corpus file with 1-3 invalid UTF-8 sequences at random bytes."""
    contents = CSV_CORPUS[draw(st.sampled_from(_SMALL_CORPUS))][0]
    data = bytearray(contents if isinstance(contents, bytes) else contents.encode("utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.sampled_from(_INVALID_UTF8))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(_undecodable_csvs())
@example(b'y,"x\n\xc3(",z,"\nv"\n1,2,0,1\n')  # in a quoted line break of the header
@example(b'y,x,z,v\n"1\xff"," 2.5 ",0,"7"\n')  # in a quoted field
@example(b'y,x,z,v\n1,"2.5\n\x80",0,7\n2,3,1,"\r8"\n')  # in a quoted line break
@example(b"y,x,z,v\n0x10,2.5,0,7\n1,\xed\xb2\x80,0,7\n")  # after an earlier bad cell
@example(b"\xef\xbb\xbfy,x,z,v\n1,2.5,0,\xff\n\n\xff,\x80\n")  # two bad rows
@example(b"\xef\xbb\xff\xbfy,x,z,v\n1,2.5,0,7\n")  # in the byte-order mark
def test_load_csv_undecodable_matches_reference(contents):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(contents)
        expected = _ref_undecodable(path, ("y", "x", "z", "v"))
        with pytest.raises(InputError) as excinfo:
            load_csv(path, COLS4)
    assert (type(excinfo.value), str(excinfo.value)) == (type(expected), str(expected))


def test_load_csv_field_over_the_csv_limit_names_the_row(tmp_path):
    # the text column keeps the file off numpy's C reader
    path = tmp_path / "d.csv"
    path.write_text("y,x,z,v,note\n" + "1,2,0,7,a\n" * 3
                    + "1,2,0,7," + "a" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ParseError, match=r"data row 4: field larger than field limit"):
        load_csv(path, COLS4)
    path.write_text("y,x,z,v," + "n" * (csv.field_size_limit() + 1) + "\n1,2,0,7,a\n")
    with pytest.raises(ParseError, match=r"header row: field larger than field limit"):
        load_csv(path, COLS4)


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
def test_load_csv_header_only_raises_without_warning(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_text("y,x,z\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match=r"no data rows$"):
            load_csv(path, COLS3)


@settings(max_examples=100, deadline=None)
@given(_datasets())
@example(Dataset([-0.0, 5e-324], [1.7e308, -1.7e308], [2.2250738585072014e-308, -1e-320],
                 np.empty((2, 0))))
def test_write_csv_output_never_reaches_csv_loop(data):
    fallback = AssertionError("write_csv output reached the csv.reader loop")
    with mock.patch.object(dataset, "_parse_rows", side_effect=fallback):
        back = _write_and_load(data)
    assert _hex(back) == _hex(data)


@settings(max_examples=100, deadline=None)
@given(_datasets())
@example(Dataset([-0.0], [-5e-324], [[1.7976931348623157e308, 0.1, -0.0]], [[-1.7e308, 1e-310]]))
def test_csv_round_trip_through_csv_loop_is_bit_exact(data):
    with mock.patch.object(dataset, "_load_clean", return_value=None):
        back = _write_and_load(data)
    assert back.z.shape == data.z.shape and back.c_raw.shape == data.c_raw.shape
    assert _hex(back) == _hex(data)
