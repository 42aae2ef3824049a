"""Isomorph-free generation of k-polymatroid catalogs by canonical
deletion.

Each parent in the catalog X_n is extended by every extensible partition;
an extension is accepted iff deleting the last element of its canonical
labeling reproduces the parent exactly, that is, iff its canonical form
starts with the parent's table.  Partitions in one orbit of the parent's
automorphism group give isomorphic extensions, so only the lex-min
partition of each orbit is built and decided.  A parent's partitions are
the rows of one numpy array (extensions.enumerate_extensible_partitions);
the prefilter and the fold select rows, extensions.extension_builder
turns each block of rows into extension tables at once, and
canon.anchored_forms decides the whole block in one search, labeling
only the accepted rows.  Extensions of distinct parents are never
compared, so the outer loop parallelizes with no shared state.

An accepted class travels as one record, a row of a uint8 matrix: its
2^(n+1) rank bytes, then its aut order as 4 big-endian bytes, so that
rows in byte order are entries in catalog order.  One runner, _blocks,
cuts the parents into blocks and runs them in order, serially or on a
process pool, each block giving its records sorted.  generate_next
merges the blocks in memory into catalog entries; generate_next_stream
writes each block's records to a binary shard file, merges the shards
by their bytes, and makes text only in the final merge, formatting
blocks of records into the catalog file.  write_catalog and that merge
share one numpy block formatter, and read_catalog parses the file in
numpy, a bounded chunk of lines at a time.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
import os
import re
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import canon
from .core import MAX_N, RankTable, flats, k_dual, min_element_rank
from .extensions import enumerate_extensible_partitions, extension_builder

# Partition rows folded and built at a time in extensions_of_parent, so
# that a parent with millions of rows holds one block's tables at once
# (_BLOCK * 2^(n+1) bytes, 8 MB for n=6 parents).  canon.anchored_forms
# splits its search of a block further, by its own fixed budget of table
# entries (canon._SEARCH_ENTRIES).
_BLOCK = 1 << 16
# Shard files merged at once by generate_next_stream.
_FAN_IN = 64
# Records merged, formatted or written at a time: a block of 512 n=7
# records formats in about 0.2 MB of uint8 temporaries.
_ROWS = 512
# Catalog bytes read_catalog parses at a time, in whole lines.
_READ_BYTES = 1 << 14
# Orbit representatives decided by extensions_of_parent in this process
# (one per Aut(parent)-orbit passing the prefilter; no canonical_bytes
# call is made for them).  _worker takes the difference around its own
# parents; a counter is used because extensions_of_parent keeps its
# (records, partitions) 2-tuple, which perfbench's tracer unpacks,
# reading len(records) as the accepted count.
_canonical_calls = 0


@dataclass(frozen=True)
class CatalogEntry:
    table: RankTable
    aut_order: int


@dataclass(frozen=True)
class Catalog:
    """Canonical representatives for fixed (n, k), sorted by rank table."""

    n: int
    k: int
    entries: tuple

    def __len__(self):
        return len(self.entries)

    def rank_counts(self):
        """Per-rank histogram, index r = number of entries of rank r."""
        counts = [0] * (self.k * self.n + 1)
        for e in self.entries:
            counts[e.table.rank] += 1
        return counts

    def labeled_rank_counts(self):
        fact = math.factorial(self.n)
        counts = [0] * (self.k * self.n + 1)
        for e in self.entries:
            counts[e.table.rank] += fact // e.aut_order
        return counts

    def labeled_total(self):
        return sum(self.labeled_rank_counts())


@dataclass
class GenerationStats:
    parents: int = 0
    partitions: int = 0
    accepted: int = 0
    rejected: int = 0
    wall_time: float = 0.0
    canonical: int = 0  # orbit representatives decided, one per orbit

    def merge(self, other):
        self.parents += other.parents
        self.partitions += other.partitions
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.wall_time += other.wall_time
        self.canonical += other.canonical


def base_catalog(k: int) -> Catalog:
    """X_0: the empty polymatroid."""
    entry = CatalogEntry(RankTable(0, k, (0,)), 1)
    return Catalog(0, k, (entry,))


def flat_automorphisms(parent: RankTable, lattice):
    """Aut(parent) acting on the flats, as a (g, |flats|) index matrix:
    row g holds, for each flat F, the index of the flat g(F), so that
    mu[:, row] is the partition mu o g.  The identity and the
    automorphisms that fix every flat are left out, and each action
    appears once.  The parent must be canonical."""
    auts = canon.automorphisms(bytes(parent.rho), parent.n)
    # a flat's index is below 2^n <= 256, so the actions are byte rows
    acts = lattice.closure[auts[:, lattice.flats]].astype(np.uint8)
    acts = _distinct_rows(acts).astype(np.intp)
    return acts[(acts != np.arange(len(lattice))).any(axis=1)]


def _distinct_rows(rows):
    """The distinct rows of a 2-D uint8 array, in byte order: one sort of
    the rows as fixed-width void values, then an adjacent-row compare."""
    width = rows.shape[1]
    rows = np.sort(np.ascontiguousarray(rows).view(f"V{width}").ravel())
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = rows[1:] != rows[:-1]
    return rows[keep].view(np.uint8).reshape(-1, width)


def _auts(records):
    """The aut orders of a record matrix, from its last 4 bytes."""
    return np.ascontiguousarray(records[:, -4:]).view(">u4").ravel()


def orbit_representatives(rows, acts):
    """The rows that no action in acts maps to a lexicographically
    smaller row.  When acts holds every element of a group but the
    identity and the rows are closed under it, that is the lex-min row
    of each orbit, one per orbit; the rows keep their order."""
    for act in acts:
        if not len(rows):
            break
        image = rows[:, act]
        # the first column where the image differs decides the order;
        # equal rows give column 0, where they agree
        first = (image != rows).argmax(axis=1)
        at = np.arange(len(rows))
        rows = rows[image[at, first] >= rows[at, first]]
    return rows


def extensions_of_parent(parent: RankTable):
    """The accepted canonical extensions of one parent as records, a
    (classes, 2^(n+1) + 4) uint8 matrix sorted by rows, and the number
    of partitions tried, as that 2-tuple (perfbench's tracer unpacks it
    and reads len(records) as the accepted count).  The parent must
    itself be canonical.

    Only one partition per orbit of Aut(parent) is decided.  An
    automorphism g of the parent, extended to the new element e by
    fixing it, relabels ext(mu o g) into ext(mu), since
    rho(gX) + mu(cl gX) = rho(X) + (mu o g)(cl X); so a whole orbit
    shares one canonical form and one accept or reject decision."""
    global _canonical_calls
    n = parent.n
    if parent.k * (n + 1) > 255:
        raise ValueError("extension ranks must fit in one byte")
    lattice = flats(parent)
    rows = enumerate_extensible_partitions(parent, lattice)
    parent_bytes = bytes(parent.rho)
    acts = flat_automorphisms(parent, lattice)
    build = extension_builder(parent, lattice)
    # the canonical labeling sorts the singleton ranks, so its last
    # element has the largest rank; if the new element ranks below a
    # parent element, deleting that last element leaves other singleton
    # ranks than the parent's, and the candidate would be rejected.  The
    # new element's rank is mu at cl(empty set), the first flat, which
    # every automorphism fixes, so the test keeps or drops whole orbits.
    top = max(parent.rho[1 << j] for j in range(n)) if n else 0
    records = [np.empty((0, (2 << n) + 4), dtype=np.uint8)]
    for i in range(0, len(rows), _BLOCK):
        block = rows[i:i + _BLOCK]
        block = orbit_representatives(block[block[:, 0] >= top], acts)
        _canonical_calls += len(block)
        # element n+1 is the top bit, so deleting it from the canonical
        # labeling leaves the first half of the table; that half is
        # already lex-min among the relabelings of the deletion, because
        # the full sequence minimizes its first half before the rest.  So
        # the accepted extensions are those whose canonical form starts
        # with the parent; isomorphic ones share their form and aut,
        # so their records are equal, and the final sort drops repeats
        forms, auts = canon.anchored_forms(build(block), parent_bytes)
        records.append(np.concatenate(
            (forms, auts.astype(">u4").view(np.uint8).reshape(-1, 4)),
            axis=1))
    return _distinct_rows(np.concatenate(records)), len(rows)


def _worker(args):
    """The records of one block of parents as one sorted matrix, with the
    block's stats."""
    k, rhos = args
    records = []
    stats = GenerationStats()
    calls = _canonical_calls
    for rho in rhos:
        n = len(rho).bit_length() - 1
        acc, nparts = extensions_of_parent(RankTable(n, k, rho))
        records.append(acc)
        stats.parents += 1
        stats.partitions += nparts
        stats.accepted += len(acc)
        stats.rejected += nparts - len(acc)
    stats.canonical = _canonical_calls - calls
    return _distinct_rows(np.concatenate(records)), stats


def _blocks(xn: Catalog, jobs: int):
    """_worker's result for each block of parents, in catalog order.  The
    parents are cut into at most 1024 blocks; with jobs > 1 and at least
    4 parents the blocks run on a pool of that many processes."""
    rhos = [e.table.rho for e in xn.entries]
    chunk = max(1, (len(rhos) + 1023) // 1024)
    tasks = [(xn.k, rhos[i:i + chunk]) for i in range(0, len(rhos), chunk)]
    if jobs <= 1 or len(rhos) < 4:
        yield from map(_worker, tasks)
        return
    # a pool task returns its blocks' results at once, so batch only
    # one-parent blocks (under 1024 parents, small results), ~8 per worker
    chunksize = max(1, len(tasks) // (8 * jobs)) if chunk == 1 else 1
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_worker, tasks, chunksize=chunksize)


def generate_next(xn: Catalog, jobs: int = 1):
    """One canonical-deletion step: the complete catalog for n+1."""
    start = time.monotonic()
    stats = GenerationStats()
    size = 2 << xn.n
    blocks = [np.empty((0, size + 4), dtype=np.uint8)]
    for records, st in _blocks(xn, jobs):
        stats.merge(st)
        blocks.append(records)
    # each class has one rho, accepted at one parent, so the blocks
    # share no record and sorting their rows sorts the catalog
    records = _distinct_rows(np.concatenate(blocks))
    entries = tuple(
        CatalogEntry(RankTable(xn.n + 1, xn.k, rho), aut)
        for rho, aut in zip(map(tuple, records[:, :size].tolist()),
                            _auts(records).tolist()))
    stats.wall_time = time.monotonic() - start
    return Catalog(xn.n + 1, xn.k, entries), stats


def generate_next_stream(xn: Catalog, out_path, jobs: int = 1,
                         shard_dir=None):
    """generate_next with the catalog written to out_path instead of
    kept: each block's records go to a sorted binary shard file, and the
    shards are merged into the catalog by their bytes, text being made
    in the final merge only.  Only counts are kept in memory.  The
    shards live in a private directory under shard_dir (default: the
    output's directory) that is removed on return or on error.  The
    catalog is merged into a temporary file beside out_path and renamed
    onto it at the end, so a failed run leaves any earlier file at
    out_path as it was."""
    start = time.monotonic()
    out_dir = os.path.dirname(os.path.abspath(out_path))
    width = (2 << xn.n) + 4
    stats = GenerationStats()
    run_dir = tempfile.mkdtemp(prefix=".shards-", dir=shard_dir or out_dir)
    names = (os.path.join(run_dir, f"{i:05d}.rec") for i in itertools.count())
    try:
        shards = []
        for records, st in _blocks(xn, jobs):
            stats.merge(st)
            shards.append(next(names))
            with open(shards[-1], "wb") as fh:
                fh.write(records)
        # merge at most _FAN_IN shards at once, in rounds, so that the
        # open files stay bounded however many blocks there are
        while len(shards) > _FAN_IN:
            groups = [shards[i:i + _FAN_IN]
                      for i in range(0, len(shards), _FAN_IN)]
            shards = []
            for group in groups:
                shards.append(next(names))
                with open(shards[-1], "wb") as out:
                    _merge_shards(group, width, out.write)
                for path in group:
                    os.remove(path)
        fd, tmp = tempfile.mkstemp(prefix=".catalog-", dir=out_dir)
        try:
            with open(fd, "wb") as out:
                out.write(_header(xn.n + 1, xn.k, stats.accepted))
                _merge_shards(shards, width, lambda rows: out.write(
                    _format_entries(rows[:, :-4], _auts(rows))))
            # mkstemp makes the file private; give it the mode a plain
            # open would have
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, out_path)
        except BaseException:
            os.remove(tmp)
            raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    stats.wall_time = time.monotonic() - start
    return stats


def _merge_shards(paths, width, write):
    """Merge sorted shard files of width-byte records in byte order,
    passing the records to write as (rows, width) uint8 matrices of at
    most _ROWS rows."""
    with contextlib.ExitStack() as stack:
        files = [iter(functools.partial(stack.enter_context(
            open(p, "rb")).read, width), b"") for p in paths]
        merged = heapq.merge(*files)
        while batch := b"".join(itertools.islice(merged, _ROWS)):
            write(np.frombuffer(batch, dtype=np.uint8).reshape(-1, width))


def enumerate_all(n_max: int, k: int, jobs: int = 1):
    """Catalogs for n = 0 ... n_max."""
    if k not in (1, 2):
        raise ValueError("supported element-rank caps are k=1 and k=2")
    if n_max > MAX_N:
        raise ValueError(
            f"ground sets beyond {MAX_N} elements are unsupported")
    cats = [base_catalog(k)]
    for _ in range(n_max):
        nxt, _stats = generate_next(cats[-1], jobs=jobs)
        cats.append(nxt)
    return cats


def count_table(catalogs, labeled: bool = False):
    """rank x n matrix of counts; rows 0..k*n_max, one column per catalog
    in order of n.  The catalogs must share one k and have distinct n;
    otherwise ValueError."""
    ks = sorted({c.k for c in catalogs})
    if len(ks) > 1:
        raise ValueError(f"catalogs of mixed k: {ks}")
    ns = sorted(c.n for c in catalogs)
    repeated = sorted({n for n in ns if ns.count(n) > 1})
    if repeated:
        raise ValueError(f"more than one catalog for n in {repeated}")
    n_max = ns[-1]
    k = ks[0]
    rows = k * n_max + 1
    table = [[0] * len(catalogs) for _ in range(rows)]
    for j, cat in enumerate(sorted(catalogs, key=lambda c: c.n)):
        counts = cat.labeled_rank_counts() if labeled else cat.rank_counts()
        for r, v in enumerate(counts):
            table[r][j] = v
    return table


def _no_small_elements(table: RankTable, min_rank: int) -> bool:
    if table.n == 0 or min_element_rank(table) < min_rank:
        return False
    # a pair of distinct elements spanning a rank-2 set is two copies of
    # one line; the catalog's no-small-element filter excludes those too
    for i in range(table.n):
        for j in range(i + 1, table.n):
            pair = (1 << i) | (1 << j)
            if table.rho[pair] < min_rank + 1:
                return False
    return True


def filter_count(catalog: Catalog, min_rank: int = 2) -> int:
    """Entries with no element of rank below min_rank and no two
    elements spanning rank below min_rank + 1."""
    return sum(
        1 for e in catalog.entries if _no_small_elements(e.table, min_rank)
    )


def duality_check(catalog: Catalog):
    """None if k-duality permutes the catalog and the per-rank histogram
    is palindromic; otherwise the offending entry or rank."""
    keys = {e.table.rho for e in catalog.entries}
    for e in catalog.entries:
        dual = canon.canonical_form(k_dual(e.table)).table
        if dual.rho not in keys:
            return ("dual-not-in-catalog", e.table.rho)
    counts = catalog.rank_counts()
    for r in range(len(counts)):
        if counts[r] != counts[len(counts) - 1 - r]:
            return ("rank-histogram-asymmetry", r)
    return None


# --- catalog file format ---------------------------------------------------
# header: "POLYCAT v1 n=<n> k=<k> count=<m>"
# entry:  rank values in increasing-bitmask order, then "aut=<order>"

_HEADER_RE = re.compile(r"^POLYCAT v1 n=(\d+) k=(\d+) count=(\d+)$")
# The bytes that separate the tokens of a line, as str.split() sees
# ASCII, and the line breaks of a text-mode read.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_AUT = np.frombuffer(b"aut=", dtype=np.uint8)


def _header(n, k, count):
    return f"POLYCAT v1 n={n} k={k} count={count}\n".encode()


def _decimal(values, head, tail):
    """Each of an array of non-negative integers in decimal between the
    bytes head and tail, in cells of one width along a new last axis:
    (uint8 text, mask of the bytes to keep).  Values are right-aligned
    in their cells, and the mask drops the leading zeros."""
    values = np.asarray(values)
    digits = len(str(values.max())) if values.size else 1
    power = 10 ** np.arange(digits - 1, -1, -1, dtype=values.dtype)
    column = values[..., None]
    at = len(head)
    text = np.empty(values.shape + (at + digits + len(tail),), dtype=np.uint8)
    text[..., :at] = np.frombuffer(head, dtype=np.uint8)
    text[..., at:at + digits] = column // power % 10 + 48
    text[..., at + digits:] = np.frombuffer(tail, dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    keep[..., at:at + digits - 1] = column >= power[:-1]
    return text, keep


def _format_entries(ranks, auts):
    """The catalog lines of a block of entries as ASCII bytes: ranks is
    a (m, 2^n) and auts an (m,) array of non-negative integers."""
    rank_text, rank_keep = _decimal(ranks, b"", b" ")
    aut_text, aut_keep = _decimal(auts, b"aut=", b"\n")
    m = len(aut_text)
    text = np.concatenate((rank_text.reshape(m, -1), aut_text), axis=1)
    keep = np.concatenate((rank_keep.reshape(m, -1), aut_keep), axis=1)
    return text[keep].tobytes()


def write_catalog(catalog: Catalog, path):
    entries = catalog.entries
    with open(path, "wb") as fh:
        fh.write(_header(catalog.n, catalog.k, len(entries)))
        for i in range(0, len(entries), _ROWS):
            block = entries[i:i + _ROWS]
            fh.write(_format_entries(
                np.array([e.table.rho for e in block]),
                np.array([e.aut_order for e in block])))


def read_catalog(path) -> Catalog:
    with open(path, "rb") as fh:
        head = fh.readline().decode(errors="replace")
        m = _HEADER_RE.match(head.strip())
        if not m:
            raise ValueError(f"{path}: bad catalog header {head!r}")
        n, k, count = map(int, m.groups())
        entries = []
        # whole lines of about _READ_BYTES at a time
        while lines := fh.readlines(_READ_BYTES):
            entries += _parse_entries(b"".join(lines), n, k, path)
    if len(entries) != count:
        raise ValueError(
            f"{path}: header count {count} != {len(entries)} entries"
        )
    return Catalog(n, k, tuple(entries))


def _parse_entries(chunk, n, k, path):
    """The catalog entries in a chunk of whole lines, skipping blank
    lines.  An entry line is 2^n ranks and then aut=<order>, each in
    decimal digits, separated by whitespace; any other line raises
    ValueError.  The chunk is read as one uint8 array: tokens are the
    runs of non-space bytes, and each token's value is summed over its
    digits, one digit place at a time."""
    b = np.frombuffer(chunk, dtype=np.uint8)
    space = _SPACE[b]
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    starts, ends = edges[::2], edges[1::2]
    if not len(starts):
        return []
    breaks = np.flatnonzero((b == 10) | (b == 13))
    line = np.searchsorted(breaks, starts)
    last = np.append(line[1:] != line[:-1], True)
    first = starts + 4 * last  # a line's last token opens with "aut="
    length = ends - first
    # mark the lines with a byte that is no space, digit or a last
    # token's "aut=", a token of no digits or too many for int64, or
    # another token count than 2^n + 1; a last token too short for its
    # "aut=" is marked by its length, whichever bytes its prefix reads
    prefix = np.minimum(starts[last, None] + np.arange(4), len(b) - 1)
    ok = space | (b - 48 < 10)
    ok[prefix] = b[prefix] == _AUT
    bad = np.zeros(len(breaks) + 1, dtype=bool)
    stray = np.searchsorted(starts, np.flatnonzero(~ok), "right") - 1
    bad[line[stray]] = True
    bad[line[(length < 1) | (length > 18)]] = True
    counts = np.bincount(line, minlength=len(bad))
    bad |= (counts != 0) & (counts != (1 << n) + 1)
    if bad.any():
        text = re.split(rb"[\n\r]", chunk)[bad.argmax()]
        raise ValueError(f"{path}: malformed entry {text!r}")
    value = np.zeros(len(starts), dtype=np.int64)
    for place in range(int(length.max())):
        digit = b[np.maximum(ends - 1 - place, 0)].astype(np.int64) - 48
        value += (place < length) * digit * 10 ** place
    rows = value.reshape(-1, (1 << n) + 1)
    return [CatalogEntry(RankTable(n, k, tuple(rho)), aut)
            for rho, aut in zip(rows[:, :-1].tolist(), rows[:, -1].tolist())]
