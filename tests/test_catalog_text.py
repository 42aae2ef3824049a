"""The catalog text format: write_catalog's numpy block formatter and
read_catalog's numpy parser, checked against the plain per-line formula
and a line-by-line reference parser."""

import math
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polycat import RankTable, gen, read_catalog, write_catalog
from polycat.core import MAX_K
from polycat.gen import Catalog, CatalogEntry

HEADER_RE = re.compile(r"^POLYCAT v1 n=(\d+) k=(\d+) count=(\d+)$")


def aut_orders(n):
    """The aut orders a catalog on n elements may hold: the divisors of
    n!, as read_catalog checks."""
    order = math.factorial(n)
    return [d for d in range(1, order + 1) if order % d == 0]


def reference_text(catalog):
    """The catalog file's text, one formatted line per entry."""
    head = f"POLYCAT v1 n={catalog.n} k={catalog.k} count={len(catalog)}\n"
    return head + "".join(" ".join(map(str, e.table.rho))
                          + f" aut={e.aut_order}\n" for e in catalog.entries)


def reference_read(path):
    """The catalog in a file, read line by line in text mode with
    str.split() and int()."""
    with open(path) as fh:
        head = fh.readline()
        m = HEADER_RE.match(head.strip())
        if not m:
            raise ValueError(f"{path}: bad catalog header {head!r}")
        n, k, count = map(int, m.groups())
        entries = []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != (1 << n) + 1 or not parts[-1].startswith("aut="):
                raise ValueError(f"{path}: malformed entry {line!r}")
            rho = tuple(int(v) for v in parts[:-1])
            entries.append(CatalogEntry(RankTable(n, k, rho),
                                        int(parts[-1][4:])))
    if len(entries) != count:
        raise ValueError(f"{path}: header count {count} != {len(entries)}")
    return Catalog(n, k, tuple(entries))


@st.composite
def catalogs(draw):
    """Catalogs of random tables, n <= 3 and k up to MAX_K = 31, so that
    ranks reach 93; the tables need not be polymatroids, since the file
    format does not check them, but each rank lies in [0, k * n] and
    each aut order divides n!."""
    n = draw(st.integers(0, 3))
    k = draw(st.sampled_from([1, 2, MAX_K]))
    rho = st.tuples(*[st.integers(0, k * n)] * (1 << n))
    pairs = draw(st.lists(st.tuples(rho, st.sampled_from(aut_orders(n))),
                          max_size=12))
    return Catalog(n, k, tuple(CatalogEntry(RankTable(n, k, r), a)
                               for r, a in pairs))


@settings(max_examples=150, deadline=None)
@given(catalogs())
def test_write_read_round_trip(catalog):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cat.txt"
        write_catalog(catalog, path)
        assert path.read_bytes() == reference_text(catalog).encode()
        assert read_catalog(path) == catalog


def test_round_trip_across_blocks_and_chunks(tmp_path):
    # 2,500 entries: five formatter blocks of 512 entries, and a file
    # several times the parser's read chunk
    rng = random.Random(7)
    entries = tuple(
        CatalogEntry(RankTable(3, MAX_K, tuple(rng.randrange(3 * MAX_K + 1)
                                               for _ in range(8))),
                     rng.choice(aut_orders(3)))
        for _ in range(2500))
    catalog = Catalog(3, MAX_K, entries)
    path = tmp_path / "cat.txt"
    write_catalog(catalog, path)
    assert path.read_bytes() == reference_text(catalog).encode()
    assert path.stat().st_size > 3 * gen._READ_BYTES
    assert read_catalog(path) == catalog
    assert read_catalog(path).ranks.dtype == np.uint8


@st.composite
def spaced_files(draw):
    """A catalog's text with its separators and line breaks varied:
    runs of any ASCII whitespace between tokens and around lines,
    \\n, \\r\\n or \\r line breaks, blank lines, and maybe no final
    line break."""
    catalog = draw(catalogs())
    gap = st.text(" \t\x0b\x0c\x1c\x1d\x1e\x1f", min_size=1, max_size=3)
    edge = st.text(" \t", max_size=2)
    text = (f"POLYCAT v1 n={catalog.n} k={catalog.k} "
            f"count={len(catalog)}\n")
    for e in catalog.entries:
        text += "".join(draw(st.lists(st.sampled_from(["\n", " \t\n"]),
                                      max_size=2)))
        tokens = list(map(str, e.table.rho)) + [f"aut={e.aut_order}"]
        line = draw(edge)
        for token in tokens:
            line += token + draw(gap)
        text += line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return catalog, text


@settings(max_examples=150, deadline=None)
@given(spaced_files())
def test_parser_matches_the_reference_on_whitespace(case):
    catalog, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cat.txt"
        path.write_bytes(text.encode())
        assert read_catalog(path) == reference_read(path) == catalog


HEAD = "POLYCAT v1 n=1 k=2 count={}\n"

# name: (entry count in the header, entry lines)
CASES = {
    "non-digit token": (1, "0 x aut=1\n"),
    "non-digit aut": (1, "0 1 aut=1x\n"),
    "empty aut": (1, "0 1 aut=\n"),
    "negative token": (1, "0 -1 aut=1\n"),
    "rank above k*n": (2, "0 2 aut=1\n0 3 aut=1\n"),
    "negative aut": (1, "0 1 aut=-2\n"),
    "zero aut": (1, "0 1 aut=0\n"),
    "zero aut in leading zeros": (2, "0 1 aut=1\n0 2 aut=000\n"),
    "aut not dividing n!": (2, "0 1 aut=1\n0 2 aut=2\n"),
    "missing aut=": (1, "0 1 2\n"),
    "aut= not last": (1, "0 aut=1 1\n"),
    "two aut= tokens": (1, "aut=1 0 aut=1\n"),
    "too few values": (1, "0 aut=1\n"),
    "too many values": (1, "0 1 2 aut=1\n"),
    "two entries on a line": (2, "0 1 aut=1 0 2 aut=1\n"),
    "short line then long line": (2, "0 aut=1\n0 1 2 aut=1\n"),
    "blank lines between entries": (2, "0 1 aut=1\n\n \t \n0 2 aut=1\n"),
    "last line with no newline": (2, "0 1 aut=1\n0 2 aut=1"),
    "leading zeros": (1, "00 01 aut=001\n"),
    "tabs and CRLF": (2, "0\t1  aut=1\r\n\r\n0 2\taut=1\r\n"),
    "bad line after good ones": (3, "0 1 aut=1\n0 2 aut=1\n0 2 aut\n"),
    "no entries": (0, "\n\n"),
}
# The reference's int() reads a sign and any aut order, but a rank
# outside [0, k * n], negative or not, and an aut order that does not
# divide n! are refused by Catalog in both.


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_input_as_the_reference(name, tmp_path):
    count, body = CASES[name]
    path = tmp_path / "cat.txt"
    path.write_text(HEAD.format(count) + body)
    try:
        expect = reference_read(path)
    except ValueError:
        expect = ValueError
    if expect is ValueError:
        with pytest.raises(ValueError):
            read_catalog(path)
    else:
        assert read_catalog(path) == expect


@pytest.mark.parametrize("head", ["n=9 k=2 count=0", "n=1 k=0 count=1",
                                  "n=1 k=32 count=1"])
def test_header_out_of_range(head, tmp_path):
    # a rank table has at most MAX_N = 8 elements and k in [1, MAX_K]
    path = tmp_path / "cat.txt"
    path.write_text(f"POLYCAT v1 {head}\n0 0 aut=1\n")
    with pytest.raises(ValueError, match="bad catalog header"):
        read_catalog(path)


def test_malformed_entry_is_named(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text(HEAD.format(3) + "0 1 aut=1\n0 2 aut=1\n0 x aut=3\n")
    with pytest.raises(ValueError, match=r"malformed entry b'0 x aut=3'"):
        read_catalog(path)


def test_rank_above_k_times_n_is_named(tmp_path):
    # at n = 1 and k = 2 a rank of 2 is the largest, so the parse
    # refuses 3 and names its line
    path = tmp_path / "cat.txt"
    path.write_text(HEAD.format(2) + "0 2 aut=1\n0 3 aut=1\n")
    with pytest.raises(ValueError, match=r"malformed entry b'0 3 aut=1'"):
        read_catalog(path)
