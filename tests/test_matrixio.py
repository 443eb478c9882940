import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shufflereg.matrixio import (
    read_matrix,
    read_permutation,
    write_matrix,
    write_permutation,
)
from shufflereg.model import Permutation


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-300, 300, size=(7, 3)))
    path = tmp_path / "m.txt"
    write_matrix(mat, path)
    back = read_matrix(path)
    assert back.shape == mat.shape
    assert np.array_equal(back, mat)


F64 = np.finfo(np.float64)
EDGE_VALUES = [0.0, -0.0, F64.smallest_subnormal, -F64.smallest_subnormal,
               F64.tiny, F64.max, -F64.max, 1.0 / 3.0]


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
        elements=st.one_of(
            st.sampled_from(EDGE_VALUES),
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        ),
    )
)
def test_round_trip_preserves_every_bit(tmp_path_factory, mat):
    # view(np.uint64) tells -0.0 from 0.0, which array_equal does not.
    path = tmp_path_factory.mktemp("rt") / "m.txt"
    write_matrix(mat, path)
    back = read_matrix(path)
    assert back.shape == mat.shape
    assert np.array_equal(back.view(np.uint64), mat.view(np.uint64))


def test_refused_write_leaves_an_existing_file_unchanged(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(np.eye(2), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        write_matrix(np.array([[np.inf]]), path)
    assert path.read_bytes() == before


def test_header_and_layout(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix([[1.5, -2.0], [0.0, 3.25]], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2"
    assert len(lines) == 3
    assert [float(tok) for tok in lines[1].split()] == [1.5, -2.0]


@pytest.mark.parametrize(
    "content,match",
    [
        ("2\n1 2\n", "header"),
        ("a b\n1 2\n", "non-integer"),
        ("1_0 1\n" + "1\n" * 10, "non-integer"),  # int() would read 10 rows
        ("2 2\n1 2\n", "ends after"),
        ("2 2\n1 2\n3\n", "entries"),
        ("1 1\nxyz\n", "non-numeric"),
        ("1 1\n1.0\n7.0\n", "trailing"),
        ("0 2\n", "positive"),
        ("1 1\nnan\n", "non-finite"),
    ],
)
def test_malformed_files_rejected_with_path(tmp_path, content, match):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError, match=match) as err:
        read_matrix(path)
    assert "bad.txt" in str(err.value)


@pytest.mark.parametrize(
    "content,message",
    [
        ("2 2\n\n1 2\n", "row 0 has 0 entries, expected 2"),
        ("3 2\n1 2\n\n3 4\n", "row 1 has 0 entries, expected 2"),
        ("2 2\n1 2\n\n", "row 1 has 0 entries, expected 2"),
        ("3 2\n1 2\n3 4\n5\n", "row 2 has 1 entries, expected 2"),
        ("2 2\n1 2 3\n4 5 6\n", "row 0 has 3 entries, expected 2"),
        ("2 2\n1 2\n# 3\n", "row 1 contains a non-numeric token"),
        ("1 2\n1 #\n", "row 0 contains a non-numeric token"),
        ("2 1\n1\n1_0\n", "row 1 contains a non-numeric token"),
        ("2 2\n", "file ends after 0 of 2 data rows"),
    ],
)
def test_row_errors_name_the_row_and_do_not_warn(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            read_matrix(path)
    assert str(err.value) == f"{path}: {message}"


def test_crlf_line_ends_are_accepted(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"2 2\r\n1.5 -2\r\n0 3.25\r\n")
    assert np.array_equal(read_matrix(path), [[1.5, -2.0], [0.0, 3.25]])


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
def test_single_row_and_single_column_round_trip(tmp_path, shape):
    mat = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 3
    path = tmp_path / "m.txt"
    write_matrix(mat, path)
    back = read_matrix(path)
    assert back.shape == shape
    assert np.array_equal(back, mat)


@pytest.mark.parametrize(
    "content",
    [
        b"2 1\n1\n\xd9\n",
        # Past the first decoded chunk, so the error surfaces inside the bulk parse.
        b"5000 1\n" + b"1.5\n" * 4000 + b"\xd9\n" + b"1.5\n" * 999,
        b"5000 1\n" + b"1.5\n" * 5000 + b"\xd9\n",
    ],
    ids=["first-chunk", "in-rows", "trailing"],
)
def test_non_ascii_byte_is_a_value_error_with_path(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="non-ASCII byte 0xd9") as err:
        read_matrix(path)
    assert not isinstance(err.value, UnicodeDecodeError)
    assert str(err.value).startswith(f"{path}: ")


def test_permutation_round_trip(tmp_path):
    perm = Permutation(np.array([2, 0, 3, 1]))
    path = tmp_path / "perm.txt"
    write_permutation(perm, path)
    assert path.read_text() == "2\n0\n3\n1\n"
    assert read_permutation(path) == perm


def test_non_ascii_permutation_file_is_a_value_error_with_path(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_bytes(b"0\n\xd9\n")
    with pytest.raises(ValueError, match="non-ASCII byte 0xd9") as err:
        read_permutation(path)
    assert not isinstance(err.value, UnicodeDecodeError)
    assert str(err.value).startswith(f"{path}: ")


def test_permutation_file_validation(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("0\n0\n1\n")
    with pytest.raises(ValueError, match="bijection"):
        read_permutation(path)
    path.write_text("0\nx\n")
    with pytest.raises(ValueError, match="non-integer"):
        read_permutation(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "non-empty"),
        ("0\n0\n1\n", "not a bijection"),
        ("0\n3\n1\n", "out of range"),
        ("0\n99999999999999999999\n", "out of range"),
        # int() would read 1_0 as 10, making this a valid permutation of 11.
        ("".join(f"{i}\n" for i in range(10)) + "1_0\n", "non-integer token"),
    ],
    ids=["empty", "duplicate", "out-of-range", "past-int64", "underscore"],
)
def test_permutation_file_errors_name_the_path(tmp_path, text, message):
    path = tmp_path / "perm.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as err:
        read_permutation(path)
    assert str(err.value).startswith(f"{path}: ")
