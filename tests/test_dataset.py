"""Data model, CSV ingestion and basis expansion."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from lineariv import (
    BasisSpec,
    ColumnMap,
    Dataset,
    ParseError,
    SchemaError,
    TermSpecError,
    build_design,
    load_csv,
    parse_term,
    write_csv,
)
from lineariv.dataset import InstrumentByTerm, Intercept, Power, Product, Raw


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


def test_load_csv_missing_column_named(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x,z\n1,2,0\n")
    with pytest.raises(SchemaError, match="'v'"):
        load_csv(path, ColumnMap("y", "x", ["z"], ["v"]))


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
    assert not BasisSpec(["z0*z0"]).is_linear_in_z()


def test_with_z_replacement():
    data = small_dataset()
    at_one = data.with_z(1.0)
    assert_array_equal(at_one.z, np.ones((3, 1)))
    assert_array_equal(at_one.y, data.y)


def test_build_design_cached_read_only():
    data = small_dataset()
    spec = BasisSpec(["1", "c0"])
    design = build_design(data, spec)
    assert build_design(data, BasisSpec(["1", "c0"])) is design
    assert not design.flags.writeable
    with pytest.raises(ValueError):
        design[0, 0] = 5.0
    empty = build_design(data, BasisSpec([]))
    assert empty.shape == (3, 0) and not empty.flags.writeable


def test_take_and_with_z_build_their_own_designs():
    data = small_dataset()
    spec = BasisSpec(["1", "z0:c0"])
    parent = build_design(data, spec)
    resampled = data.take([2, 0])
    assert_array_equal(build_design(resampled, spec), [[1.0, 4.0], [1.0, 0.0]])
    at_one = data.with_z(1.0)
    assert_array_equal(build_design(at_one, spec), [[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    # the parent's cached design is untouched by its children
    assert build_design(data, spec) is parent
    assert_array_equal(parent, [[1.0, 0.0], [1.0, 3.0], [1.0, 4.0]])
