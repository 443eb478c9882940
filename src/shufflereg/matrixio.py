"""Plain-text matrix and permutation files.

Matrix format: an ASCII file whose first line is ``rows cols`` (two positive
integers), followed by exactly ``rows`` lines of ``cols`` whitespace-separated
tokens each. A token is a decimal real: an optional sign, digits with an
optional decimal point, and an optional exponent (``-1.5``, ``2e-300``,
``.5``). ``inf``, ``infinity`` and ``nan`` in any case are read but then
refused, since every entry must be finite. Underscores in numbers, comments
(``#`` is a non-numeric token), blank lines among the rows and anything but
whitespace after the last row are errors; CRLF line ends are accepted. Every
error names the file, and the row where there is one.

The data rows are parsed in one ``np.loadtxt`` call, numpy's C reader, which
rounds each token exactly as ``float()`` does. Only a file that fails is read
again, row by row, to name the row at fault.

Values are written with the shortest representation that round-trips a
float64 exactly (up to 17 significant digits), so read(write(M)) reproduces M
bit for bit.

Permutation format: one index per line.
"""

from __future__ import annotations

import itertools
import os
from typing import NoReturn

import numpy as np

from .model import Permutation, require_matrix


def format_matrix(mat) -> str:
    arr = require_matrix(mat, "matrix")
    lines = [f"{arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_matrix(mat, path: str | os.PathLike) -> None:
    """Write ``mat`` to ``path``; a matrix it refuses leaves any existing file untouched."""
    text = format_matrix(mat)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as fh:
            rows, cols = _read_header(fh, path)
            start = fh.tell()
            data = _parse_rows(fh, rows)
            if data is None or data.shape != (rows, cols):
                fh.seek(start)
                _raise_row_error(fh, path, rows, cols)
            if fh.read().strip():
                raise ValueError(f"{path}: unexpected trailing content after {rows} rows")
    except UnicodeDecodeError as exc:
        raise _non_ascii_error(path, exc, "matrix") from None
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return data


def _non_ascii_error(path, exc: UnicodeDecodeError, kind: str) -> ValueError:
    return ValueError(
        f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x}; {kind} files are ASCII text"
    )


def _read_header(fh, path) -> tuple[int, int]:
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError(f"{path}: expected 'rows cols' header, got {header!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"{path}: non-integer dimensions in header {header!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    return rows, cols


def _parse_rows(fh, rows: int) -> np.ndarray | None:
    """The next ``rows`` lines as one float64 array, or None when they do not parse.

    loadtxt skips blank lines, so a blank row shows as a short array. A blank
    first line is refused before the call: loadtxt warns on input without data.
    """
    first = fh.readline()
    if not first.split():
        return None
    lines = itertools.chain([first], itertools.islice(fh, rows - 1))
    try:
        return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:  # a UnicodeDecodeError among them recurs on the re-read
        return None


def _raise_row_error(fh, path, rows: int, cols: int) -> NoReturn:
    """Re-read the data rows one at a time and raise for the first malformed one."""
    for i in range(rows):
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: file ends after {i} of {rows} data rows")
        count = len(line.split())
        if count != cols:
            raise ValueError(f"{path}: row {i} has {count} entries, expected {cols}")
        try:
            np.loadtxt([line], dtype=np.float64, comments=None)
        except ValueError:
            raise ValueError(f"{path}: row {i} contains a non-numeric token") from None
    # Each row parses alone only if the file changed since the bulk parse.
    raise ValueError(f"{path}: data rows do not form a {rows}x{cols} matrix")


def write_permutation(perm: Permutation, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for idx in perm.indices:
            fh.write(f"{int(idx)}\n")


def read_permutation(path: str | os.PathLike) -> Permutation:
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError as exc:
        raise _non_ascii_error(path, exc, "permutation") from None
    try:
        indices = np.array([int(tok) for tok in tokens], dtype=np.int64)
    except ValueError:
        raise ValueError(f"{path}: permutation file contains a non-integer token") from None
    return Permutation(indices)
