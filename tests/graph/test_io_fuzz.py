"""Fuzz suite over the graph readers: every input either yields a valid
:class:`~repro.graph.csr.Graph` or raises a clean ``ValueError``.

Inputs are text built from numeric and junk tokens (headers, edge lines,
weights, signs, huge and non-ASCII numbers) and byte mutations of small
valid files, decoded the way a file on disk is.  ``validate_graph`` must
accept whatever a reader returns, and each example has a deadline, so a
header cannot make the reader allocate or loop in proportion to a number
it claims.
"""

import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import (read_dimacs, read_metis, validate_graph,
                         write_dimacs, write_metis)
from tests.conftest import random_graphs

READERS = {"metis": read_metis, "dimacs": read_dimacs}
WRITERS = {"metis": write_metis, "dimacs": write_dimacs}

FUZZ = settings(max_examples=150, deadline=1000, derandomize=True)

NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([2**31, 2**63, 10**21, 999999999999999999999]),
).map(str)
JUNK = st.sampled_from([
    "p", "edge", "e", "c", "%", "1.5", "-0", "0x10", "1e400", "nan", "inf",
    "-inf", "1_0", "١٢", "x", "\t", "11", "10", "011", "1e3", "+2", ".",
])
TOKEN = st.one_of(NUMBERS, JUNK)
LINE = st.lists(TOKEN, max_size=6).map(" ".join)
TEXT = st.lists(LINE, min_size=1, max_size=10).map("\n".join)


def check(reader, data):
    """``reader`` on ``data`` (str, or bytes decoded as a file would be)
    returns a graph ``validate_graph`` accepts, or raises ``ValueError``
    (a ``UnicodeDecodeError`` is one)."""
    if isinstance(data, bytes):
        handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    else:
        handle = io.StringIO(data)
    try:
        g = reader(handle)
    except ValueError:
        return
    validate_graph(g)


@pytest.mark.parametrize("fmt", sorted(READERS))
@given(text=TEXT)
@FUZZ
@example(text="3\n2\n1 3\n2\n")
@example(text="p edge\n")
@example(text="p edge 2 1\ne 2\n")
@example(text="p edge 2 1\ne 999999999999999999999 1\n")
def test_token_text(fmt, text):
    check(READERS[fmt], text)


@pytest.mark.parametrize("fmt", sorted(READERS))
@given(text=st.tuples(st.sampled_from(["p edge", "p"]), TEXT))
@FUZZ
def test_dimacs_shaped_text(fmt, text):
    """A header line first, then token lines (most start with ``e``)."""
    head, body = text
    check(READERS[fmt], head + " " + body.replace("\n", "\ne "))


@st.composite
def mutated_files(draw, fmt):
    """A small valid file in format ``fmt`` with a few byte edits."""
    g = draw(random_graphs(max_n=8))
    buf = io.StringIO()
    WRITERS[fmt](g, buf)
    data = bytearray(buf.getvalue().encode())
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pos = draw(st.integers(min_value=0, max_value=len(data)))
        op = draw(st.sampled_from(["flip", "insert", "delete"]))
        byte = draw(st.integers(min_value=0, max_value=255))
        if op == "insert" or not data:
            data[pos:pos] = bytes([byte])
        elif op == "flip":
            data[min(pos, len(data) - 1)] = byte
        else:
            del data[pos:pos + draw(st.integers(min_value=1, max_value=4))]
    return bytes(data)


@given(data=mutated_files("metis"))
@FUZZ
def test_mutated_metis(data):
    check(read_metis, data)


@given(data=mutated_files("dimacs"))
@FUZZ
def test_mutated_dimacs(data):
    check(read_dimacs, data)
