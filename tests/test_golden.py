"""The CLI's outputs against the committed golden corpus (tests/golden).

The corpus is regenerated in a temporary directory and compared file by file
with the committed one. Text and integer tokens (permutations, Hamming values,
counts, exit codes, error lines) must match exactly. A float token must match
to a relative 1e-9, and a difference below 1e-9 of the file's largest float
also passes, so that roundoff-level values such as a noiseless error of 1e-16
do not fail where another OpenBLAS kernel rounds differently. To regenerate
the corpus after a declared output change, or to check bytes exactly, see
tests/golden/generate.py.
"""

import math
import re

import pytest

from golden.generate import CORPUS, generate

# An optionally signed decimal with a fractional part or an exponent is a float; digits
# alone are an integer.
NUMBER_RE = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
INTEGER_RE = re.compile(r"[-+]?\d+")


def floats(parts):
    return [abs(float(part)) for part in parts[1::2] if not INTEGER_RE.fullmatch(part)]


def mismatch(fresh: str, committed: str):
    """The first pair of tokens that differ beyond the tolerance, or None."""
    got, want = NUMBER_RE.split(fresh), NUMBER_RE.split(committed)
    if len(got) != len(want):
        return ("token count", len(got), len(want))
    floor = 1e-9 * max(floats(want), default=0.0)
    for index, (a, b) in enumerate(zip(got, want)):
        if index % 2 == 0 or INTEGER_RE.fullmatch(a) and INTEGER_RE.fullmatch(b):
            if a != b:
                return (a, b)
        elif not math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=floor):
            return (a, b)
    return None


def test_corpus_matches(tmp_path):
    generate(tmp_path)
    names = sorted(path.name for path in CORPUS.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    differ = {}
    for name in names:
        got = (tmp_path / name).read_text(encoding="utf-8")
        found = mismatch(got, (CORPUS / name).read_text(encoding="utf-8"))
        if found is not None:
            differ[name] = found
    assert not differ, "\n".join(f"{name}: generated, committed = {found}" for name, found in differ.items())


@pytest.mark.parametrize(
    "fresh_text, committed_text, differs",
    [
        ("error: line 5: x\n", "error: line 5: x\n", False),
        ("perm 3\n", "perm 4\n", True),
        ("0.1000000000001\n", "0.1\n", False),
        ("0.100001\n", "0.1\n", True),
        ("1.0 2e-16\n", "1.0 -3e-17\n", False),
        ("1.0 2e-6\n", "1.0 -3e-17\n", True),
        ("56.25,1e-15\n", "56,1e-15\n", True),
        ("exit 1\n", "exit 2\n", True),
        ("a b", "a  b", True),
    ],
)
def test_mismatch_rule(fresh_text, committed_text, differs):
    assert (mismatch(fresh_text, committed_text) is not None) == differs
