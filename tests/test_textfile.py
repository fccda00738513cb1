"""The numeric-table parse of the file format: bitwise ``float`` of every
field, and the per-field parse's wording of every malformed row."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from levsketch import read_matrix_csv, read_report_csv

# forms np.loadtxt refuses that float() accepts, the special values, the
# range's edges and whitespace around a field, U+001C to U+001F among it
EDGE_TOKENS = ["1_0", "1_000.5", "١٢", "１", "٣.٥",
               "inf", "-inf", "+Infinity", "nan", "-nan", "NaN", "1e400",
               "-1e400", "4.9e-324", "2.5e-324", "2.2250738585072014e-308",
               "-0.0", "1E5", ".5", "5.", "0"]
SPACES = ["", " ", "\t", "\x0b", "\x0c", " ", "\xa0", "\x85", "\x1c",
          "\x1f"]
# bad fields: each raises in float() as in np.loadtxt
BAD_TOKENS = ["x", "", " ", "1e", "1_", "_1", "nan(1)", "0x10", "1,5",
              "1 5", "--1", "\x00"]


def per_field(path, rows):
    """The dense matrix parse the table replaced: float() of every field,
    then one width for every row."""
    try:
        values = [[float(x) for x in line.split(",")] for line in rows]
    except ValueError as exc:
        raise ValueError(f"malformed matrix file {path}: non-numeric field "
                         f"({exc})") from None
    widths = {len(row) for row in values}
    if len(widths) > 1:
        raise ValueError(f"malformed matrix file {path}: rows of "
                         f"{sorted(widths)} fields")
    return np.array(values)


def assert_reads_as_per_field(path, rows):
    """A headerless dense file of ``rows`` reads as ``per_field`` parses
    it: the same bits and shape, or the same message."""
    path.write_text("\n".join(rows) + "\n")
    try:
        expected = per_field(path, [row.strip() for row in rows])
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value) == str(exc)
        return
    got, _ = read_matrix_csv(path)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@st.composite
def dense_rows(draw):
    """Rows of a random finite matrix written by repr, some fields
    replaced by an edge token with whitespace around it."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.lists(
        st.floats(allow_nan=False, allow_infinity=False).map(repr)
        | st.tuples(st.sampled_from(SPACES), st.sampled_from(EDGE_TOKENS),
                    st.sampled_from(SPACES)).map("".join),
        min_size=n, max_size=n), min_size=m, max_size=m))
    return [",".join(row) for row in cells]


@given(dense_rows())
def test_dense_rows_read_as_float_of_each_field(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("table") / "m.csv"
    assert_reads_as_per_field(path, rows)


@given(st.text(st.sampled_from(list("0123456789.+-eE_xinfatyINFATY \t")
                               + SPACES[3:] + ["١", "１"]),
               max_size=8))
def test_any_field_reads_as_float_of_it(tmp_path_factory, token):
    # inside a row, so that no strip of the line reaches it
    path = tmp_path_factory.mktemp("field") / "m.csv"
    assert_reads_as_per_field(path, [f"1.0,{token},2.0", "3.0,4.0,5.0"])


@given(dense_rows(), st.data())
def test_mutated_rows_keep_the_per_field_message(tmp_path_factory, rows,
                                                 data):
    t = data.draw(st.integers(0, len(rows) - 1), label="row")
    fields = rows[t].split(",")
    where = data.draw(st.integers(0, len(fields) - 1), label="field")
    mutate = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if mutate == "drop":
        del fields[where]
    elif mutate == "add":
        fields.insert(where, "1.0")
    else:
        fields[where] = data.draw(st.sampled_from(BAD_TOKENS))
    rows[t] = ",".join(fields)
    path = tmp_path_factory.mktemp("mutated") / "m.csv"
    if rows[t].strip():
        assert_reads_as_per_field(path, rows)


@pytest.mark.parametrize("value", ["0.25", "0.2_5", "０.25"])
def test_report_values_read_as_float_of_each_field(tmp_path, value):
    # the report parses its rows through the same table
    path = tmp_path / "report.csv"
    meta = ["mode=exact-dot", "seed=0", "k=1", "p=2", "coherence_row=1",
            "coherence=0.5", "epsilon=0.5", "delta=0.1", "kappa=1.0",
            "spectral_norm=1.0", "frob_norm=1.0", "omega=1.0", "theta=1.0",
            "xi=1.0"]
    path.write_text("".join(f"# {line}\n" for line in meta)
                    + f"i,approx,exact,abs_err\n1,{value},0.5,0.25\n")
    report = read_report_csv(path)
    assert report.approx.tobytes() == np.array([0.25]).tobytes()
