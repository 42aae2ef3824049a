"""Isomorph-free generation of k-polymatroid catalogs by canonical
deletion.

Each parent in the catalog X_n is extended by every extensible partition;
an extension is accepted iff deleting the last element of its canonical
labeling reproduces the parent exactly, that is, iff its canonical form
starts with the parent's table.  Partitions in one orbit of the parent's
automorphism group give isomorphic extensions, so only the lex-min
partition of each orbit is built and decided.  Each parent is decided
once first, by canon.parent_prefixes: one that is not canonical would
silently lose classes, so it is refused; for the others its shared label
prefixes, ending in Aut(parent), serve the fold and the search.  A
parent's partitions are the rows of one numpy array
(extensions.enumerate_extensible_partitions), and a block of them passes,
in order, the singleton-rank prefilter, the fold to orbit
representatives, the swap witness, the build of extension tables
(extensions.extension_builder) and the search (canon.anchored_forms),
which decides the whole block at once, labeling only the accepted rows.
The swap witness rejects a row without a search: giving the new element e
the label of an old element x relabels the table into one whose first
half reads the parent on the masks without x and
rho(m - x) + mu(cl(m - x)) on a mask m that holds x; if that half reads
below the parent, so does the first half of the canonical form, which is
lex-min, and the row is rejected.  Extensions of distinct parents are
never compared, so the outer loop parallelizes with no shared state.

Every rank is one byte, since core caps k at MAX_K and Catalog and
read_catalog refuse ranks outside [0, k * n].

An accepted class travels as one record, a row of a uint8 matrix: its
2^(n+1) rank bytes, then its aut order as 4 big-endian bytes, so that
rows in byte order are entries in catalog order.  A class is accepted
at one parent only, and its record starts with that parent's table, so
the records of parents taken in byte order are already in catalog
order.  One runner, _blocks, fixes that order: it steps the parents'
distinct rank rows in byte order, cuts them into blocks and runs the
blocks in order, serially or on a process pool, and after it nothing
sorts or merges.  generate_next concatenates the blocks' records into
a catalog's arrays; generate_next_stream appends them to one unnamed
temporary file and passes that file, a block of records at a time, to
the one catalog writer, _write_text, which write_catalog calls too.
It formats each block in numpy and renames a complete file onto the
catalog's path.  read_catalog parses the file in numpy, a bounded
chunk of lines at a time.
"""

from __future__ import annotations

import functools
import math
import os
import re
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import canon
from .core import MAX_K, MAX_N, RankTable, flats, k_duals
from .extensions import enumerate_extensible_partitions, extension_builder

# Partition rows folded and built at a time in extensions_of_parent, so
# that a parent with millions of rows holds one block's tables at once
# (_BLOCK * 2^(n+1) bytes, 8 MB for n=6 parents).  canon.anchored_forms
# splits its search of a block further, by its own fixed budget of table
# entries (canon._SEARCH_ENTRIES).
_BLOCK = 1 << 16
# Records read, formatted or written at a time: a block of 512 n=7
# records formats in about 0.2 MB of uint8 temporaries.
_ROWS = 512
# Catalog bytes read_catalog parses at a time, in whole lines.
_READ_BYTES = 1 << 14
# Orbit representatives decided by extensions_of_parent in this process
# (one per Aut(parent)-orbit passing the prefilter).  _worker takes
# the difference around its own parents; a counter is used because
# extensions_of_parent keeps its (records, partitions) 2-tuple, which
# perfbench's tracer unpacks, reading len(records) as the accepted
# count.
_canonical_calls = 0
# Of those, the ones the swap witness rejects, counted the same way.
_witnessed = 0


@dataclass(frozen=True)
class CatalogEntry:
    table: RankTable
    aut_order: int


class Catalog:
    """Canonical representatives for fixed (n, k), sorted by rank table:
    ranks is an (m, 2^n) uint8 matrix and auts the (m,) int64 aut
    orders.  Catalog(n, k, entries) packs a sequence of CatalogEntry,
    checked as read_catalog checks a file: for a k in [1, MAX_K], each
    table must have n elements and cap k, ranks in [0, k * n] and an aut
    order dividing n!, or ValueError.  entries is made on first read."""

    def __init__(self, n, k, entries):
        if not 1 <= k <= MAX_K:
            raise ValueError(f"element-rank cap {k} outside [1, {MAX_K}]")
        if any((e.table.n, e.table.k) != (n, k) for e in entries):
            raise ValueError(f"catalog tables must have n={n} and k={k}")
        rows = np.array([e.table.rho for e in entries], dtype=np.int64)
        if rows.size and not 0 <= rows.min() <= rows.max() <= k * n:
            raise ValueError(f"catalog ranks must lie in [0, {k * n}]")
        auts = np.array([e.aut_order for e in entries], dtype=np.int64)
        # gcd(0, n!) = n!, so an order of 0 is refused too
        if (np.gcd(auts, math.factorial(n)) != auts).any():
            raise ValueError(f"catalog aut orders must divide {n}!")
        self.n, self.k = n, k
        self.ranks = rows.reshape(-1, 1 << n).astype(np.uint8)
        self.auts = auts

    @classmethod
    def _of(cls, n, k, ranks, auts):
        """A catalog holding C-contiguous uint8 ranks and int64 auts."""
        cat = cls.__new__(cls)
        cat.n, cat.k, cat.ranks, cat.auts = n, k, ranks, auts
        return cat

    @functools.cached_property
    def entries(self):
        tables = (RankTable(self.n, self.k, tuple(rho))
                  for rho in self.ranks.tolist())
        return tuple(map(CatalogEntry, tables, self.auts.tolist()))

    def __eq__(self, other):
        return (isinstance(other, Catalog)
                and (self.n, self.k) == (other.n, other.k)
                and np.array_equal(self.ranks, other.ranks)
                and np.array_equal(self.auts, other.auts))

    def __len__(self):
        return len(self.auts)

    def _per_rank(self, weights=None):
        return np.bincount(self.ranks[:, -1], weights,
                           minlength=self.k * self.n + 1)

    def rank_counts(self):
        """Per-rank histogram, index r = number of entries of rank r."""
        return self._per_rank().tolist()

    def labeled_rank_counts(self):
        weights = math.factorial(self.n) // self.auts  # exact: n! m < 2^53
        return self._per_rank(weights).astype(np.int64).tolist()

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
    witnessed: int = 0  # of those, rejected by the swap witness

    def merge(self, other):
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def base_catalog(k: int) -> Catalog:
    """X_0: the empty polymatroid."""
    return Catalog._of(0, k, np.zeros((1, 1), dtype=np.uint8),
                       np.ones(1, dtype=np.int64))


def flat_automorphisms(auts, lattice):
    """Aut(parent) acting on the parent's flats, as a (g, |flats|) index
    matrix: auts is Aut(parent) as mask maps, the last level of
    canon.parent_prefixes, and row g holds, for each flat F, the index
    of the flat g(F), so that mu[:, row] is the partition mu o g.  The
    identity and the automorphisms that fix every flat are left out,
    and each action appears once."""
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


@functools.lru_cache(maxsize=None)
def _swap_masks(n: int):
    """Row x lists the masks m of an n-element ground set that hold
    element x, in increasing order, and the masks m - x: two (n,
    2^(n-1)) intp matrices; n = 0 gives two (0, 1) matrices, since
    swap_witness reads a row as a byte string, which needs a width of
    at least one."""
    low = np.arange(max(1 << n >> 1, 1))
    x = np.arange(n)[:, None]
    rest = low >> x << x + 1 | low & (1 << x) - 1
    return rest | 1 << x, rest


def swap_witness(parent: RankTable, lattice):
    """A function drops(rows) for repeated use on one parent: for a 2-D
    block of mu-vectors, a bool per row, True where some old element x
    shows the row non-canonical.  Giving the new element the label of
    x, the first half of the relabeled table differs from the parent
    only at the masks m that hold x, where it reads
    rho(m - x) + mu(cl(m - x)) for rho(m); the row is dropped when that
    sequence, over those masks in increasing order, is below the
    parent's.  Each sequence is compared as one byte string: numpy
    orders byte strings by unsigned bytes, and the trailing zero bytes
    it ignores leave that order as it is."""
    held, rest = _swap_masks(parent.n)
    rho = np.array(parent.rho, np.uint8)
    columns = lattice.closure[rest].ravel()
    base = rho[rest].ravel()
    width = f"S{held.shape[1]}"
    bound = rho[held].view(width).ravel()

    def drops(rows):
        # every entry is a rank of the extension, so it fits in a byte
        half = np.add(rows.take(columns, axis=1), base, dtype=np.uint8,
                      casting="unsafe")
        return (half.view(width) < bound).any(axis=1)

    return drops


def extensions_of_parent(parent: RankTable):
    """The accepted canonical extensions of one parent as records, a
    (classes, 2^(n+1) + 4) uint8 matrix sorted by rows, and the number
    of partitions tried, as that 2-tuple (perfbench's tracer unpacks it
    and reads len(records) as the accepted count).

    Only one partition per orbit of Aut(parent) is decided.  An
    automorphism g of the parent, extended to the new element e by
    fixing it, relabels ext(mu o g) into ext(mu), since
    rho(gX) + mu(cl gX) = rho(X) + (mu o g)(cl X); so a whole orbit
    shares one canonical form and one accept or reject decision.  A
    block of rows passes, in order, the singleton-rank prefilter, the
    fold to one row per orbit, the swap witness, the build of its
    extension tables and the search.  The witness rejects a row when
    swapping the new element with one old element already makes the
    first half read below the parent, so that the canonical form's
    first half does too (swap_witness); the search decides the rest.
    A parent that is not canonical (decided once, by
    canon.parent_prefixes) raises ValueError, as does one of MAX_N
    elements, which has no extension table."""
    global _canonical_calls, _witnessed
    n = parent.n
    if n >= MAX_N:
        raise ValueError(f"no extension beyond {MAX_N} elements")
    parent_bytes = bytes(parent.rho)
    shared = canon.parent_prefixes(parent_bytes)
    if shared is None:
        raise ValueError(f"parent {parent.rho} is not canonical")
    lattice = flats(parent)
    rows = enumerate_extensible_partitions(parent, lattice)
    acts = flat_automorphisms(shared[-1], lattice)
    build = extension_builder(parent, lattice)
    drops = swap_witness(parent, lattice)
    # the canonical labeling sorts the singleton ranks, so its last
    # element has the largest rank; if the new element ranks below a
    # parent element, deleting that last element leaves other singleton
    # ranks than the parent's, and the candidate would be rejected.  The
    # new element's rank is mu at cl(empty set), the first flat, which
    # every automorphism fixes, so the test keeps or drops whole orbits.
    # A canonical parent's largest singleton rank is its last, at
    # 2^(n-1); n = 0 reads rho(0) = 0.
    top = parent.rho[1 << n >> 1]
    records = [np.empty((0, (2 << n) + 4), dtype=np.uint8)]
    for i in range(0, len(rows), _BLOCK):
        block = rows[i:i + _BLOCK]
        block = orbit_representatives(block[block[:, 0] >= top], acts)
        _canonical_calls += len(block)
        kept = block[~drops(block)]
        _witnessed += len(block) - len(kept)
        block = kept
        # element n+1 is the top bit, so deleting it from the canonical
        # labeling leaves the first half of the table; that half is
        # already lex-min among the relabelings of the deletion, because
        # the full sequence minimizes its first half before the rest.  So
        # the accepted extensions are those whose canonical form starts
        # with the parent; isomorphic ones share their form and aut,
        # so their records are equal, and the final sort drops repeats
        forms, auts = canon.anchored_forms(build(block), parent_bytes,
                                           shared)
        records.append(np.concatenate(
            (forms, auts.astype(">u4").view(np.uint8).reshape(-1, 4)),
            axis=1))
    return _distinct_rows(np.concatenate(records)), len(rows)


def _worker(args):
    """The records of one block of parents as one matrix, in the order of
    the parents, with the block's stats."""
    k, ranks = args
    records = []
    stats = GenerationStats()
    calls, witnessed = _canonical_calls, _witnessed
    for rho in ranks.tolist():
        n = len(rho).bit_length() - 1
        acc, nparts = extensions_of_parent(RankTable(n, k, tuple(rho)))
        records.append(acc)
        stats.parents += 1
        stats.partitions += nparts
        stats.accepted += len(acc)
        stats.rejected += nparts - len(acc)
    stats.canonical = _canonical_calls - calls
    stats.witnessed = _witnessed - witnessed
    return np.concatenate(records), stats


def _blocks(xn: Catalog, jobs: int):
    """_worker's result for each block of parents, in catalog order.  The
    parents are xn's distinct rank rows in byte order; each class is
    accepted at one parent and its record starts with that parent's
    table, so the blocks' records, concatenated, are the next catalog's
    rows in order, each class once.  The parents are cut into at most
    1024 blocks; with jobs > 1 and at least 4 parents the blocks run on
    a pool of that many processes."""
    parents = _distinct_rows(xn.ranks)
    chunk = max(1, (len(parents) + 1023) // 1024)
    tasks = [(xn.k, parents[i:i + chunk])
             for i in range(0, len(parents), chunk)]
    if jobs <= 1 or len(parents) < 4:
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
    records = np.concatenate(blocks)
    stats.wall_time = time.monotonic() - start
    return Catalog._of(xn.n + 1, xn.k, records[:, :size].copy(),
                       _auts(records).astype(np.int64)), stats


def generate_next_stream(xn: Catalog, out_path, jobs: int = 1,
                         shard_dir=None):
    """generate_next with the catalog written to out_path instead of
    kept: each block's records are appended, in the order _blocks gives
    them, to one temporary file with no name in shard_dir (default: the
    output's directory), which the system frees however the run ends.
    That file is then passed to _write_text _ROWS records at a time, so
    a failed run leaves any earlier file at out_path as it was.  Only
    counts are kept in memory."""
    start = time.monotonic()
    width = (2 << xn.n) + 4
    stats = GenerationStats()
    shard_dir = shard_dir or os.path.dirname(os.path.abspath(out_path))
    with tempfile.TemporaryFile(dir=shard_dir) as records:
        for block, st in _blocks(xn, jobs):
            stats.merge(st)
            records.write(block)
        records.seek(0)
        reads = iter(functools.partial(records.read, _ROWS * width), b"")
        rows = (np.frombuffer(b, dtype=np.uint8).reshape(-1, width)
                for b in reads)
        _write_text(out_path, xn.n + 1, xn.k, stats.accepted,
                    ((r[:, :-4], _auts(r)) for r in rows))
    stats.wall_time = time.monotonic() - start
    return stats


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
    otherwise ValueError, as for no catalogs at all."""
    if not catalogs:
        raise ValueError("no catalogs")
    ks = sorted({c.k for c in catalogs})
    if len(ks) > 1:
        raise ValueError(f"catalogs of mixed k: {ks}")
    ns = sorted(c.n for c in catalogs)
    repeated = sorted({n for n in ns if ns.count(n) > 1})
    if repeated:
        raise ValueError(f"more than one catalog for n in {repeated}")
    table = np.zeros((ks[0] * ns[-1] + 1, len(catalogs)), dtype=object)
    for j, cat in enumerate(sorted(catalogs, key=lambda c: c.n)):
        counts = cat.labeled_rank_counts() if labeled else cat.rank_counts()
        table[:len(counts), j] = counts
    return table.tolist()


def filter_count(catalog: Catalog, min_rank: int = 2) -> int:
    """Entries with no element of rank below min_rank and no two
    elements spanning rank below min_rank + 1; none when n = 0."""
    # a pair of distinct elements spanning a rank-2 set is two copies of
    # one line; the catalog's no-small-element filter excludes those too
    singles = 1 << np.arange(catalog.n)
    i, j = np.triu_indices(catalog.n, 1)
    keep = ((catalog.ranks[:, singles] >= min_rank).all(axis=1)
            & (catalog.ranks[:, singles[i] | singles[j]] > min_rank).all(1))
    return int(keep.sum()) if catalog.n else 0


def duality_check(catalog: Catalog):
    """None if k-duality permutes the catalog and the per-rank histogram
    is palindromic; otherwise the offending entry (the first in catalog
    order whose dual is missing) or rank.  The duals are labeled in one
    canonical_forms call and looked up among the sorted catalog rows."""
    size = 1 << catalog.n
    tables = catalog.ranks
    duals, _sigma, _aut = canon.canonical_forms(
        k_duals(tables, catalog.k), catalog.n)
    keys = np.sort(tables.view(f"V{size}").ravel())
    duals = duals.view(f"V{size}").ravel()
    at = np.minimum(np.searchsorted(keys, duals), len(keys) - 1)
    missing = np.flatnonzero(keys[at] != duals)
    if len(missing):
        return ("dual-not-in-catalog", tuple(tables[missing[0]].tolist()))
    counts = catalog._per_rank()
    rank = np.flatnonzero(counts != counts[::-1])
    return ("rank-histogram-asymmetry", int(rank[0])) if len(rank) else None


# --- catalog file format ---------------------------------------------------
# header: "POLYCAT v1 n=<n> k=<k> count=<m>"
# entry:  rank values in increasing-bitmask order, then "aut=<order>"

_HEADER_RE = re.compile(r"^POLYCAT v1 n=(\d+) k=(\d+) count=(\d+)$")
# The bytes that separate the tokens of a line, as str.split() sees
# ASCII, and the line breaks of a text-mode read.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_AUT = np.frombuffer(b"aut=", dtype=np.uint8)


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


def _write_text(path, n, k, count, batches):
    """Write a catalog file: the header, then each (ranks, auts) batch
    through _format_entries, into a temporary file beside path that is
    renamed onto it only when complete.  On any exception the temporary
    file is removed, so a failed write leaves any earlier file at path
    as it was."""
    fd, tmp = tempfile.mkstemp(prefix=".catalog-",
                               dir=os.path.dirname(os.path.abspath(path)))
    try:
        with open(fd, "wb") as out:
            out.write(f"POLYCAT v1 n={n} k={k} count={count}\n".encode())
            for ranks, auts in batches:
                out.write(_format_entries(ranks, auts))
        # mkstemp makes the file private; give it the mode a plain
        # open would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_catalog(catalog: Catalog, path):
    _write_text(path, catalog.n, catalog.k, len(catalog),
                ((catalog.ranks[i:i + _ROWS], catalog.auts[i:i + _ROWS])
                 for i in range(0, len(catalog), _ROWS)))


def read_catalog(path) -> Catalog:
    with open(path, "rb") as fh:
        head = fh.readline().decode(errors="replace")
        m = _HEADER_RE.match(head.strip())
        if not m or int(m[1]) > MAX_N or not 1 <= int(m[2]) <= MAX_K:
            raise ValueError(f"{path}: bad catalog header {head!r}")
        n, k, count = map(int, m.groups())
        # an empty chunk's arrays, then lines of about _READ_BYTES each
        parts = [_parse_entries(b"", n, k, path)]
        while lines := fh.readlines(_READ_BYTES):
            parts.append(_parse_entries(b"".join(lines), n, k, path))
    ranks, auts = (np.concatenate(arrays) for arrays in zip(*parts))
    if len(auts) != count:
        raise ValueError(f"{path}: header count {count} != {len(auts)}")
    return Catalog._of(n, k, ranks, auts)


def _parse_entries(chunk, n, k, path):
    """The entries in a chunk of whole lines, skipping blank lines, as a
    uint8 rank matrix and a copied int64 vector of aut orders, so no
    int64 chunk outlives the parse.  An entry line is 2^n ranks of at
    most k * n and then aut=<order>, each in decimal digits, separated
    by whitespace, with an order that divides n!; any other line raises
    ValueError.  The chunk is read as one uint8 array: tokens are the
    runs of non-space bytes, and each token's value is summed over its
    digits, one place at a time."""
    b = np.frombuffer(chunk, dtype=np.uint8)
    space = _SPACE[b]
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    starts, ends = edges[::2], edges[1::2]
    breaks = np.flatnonzero((b == 10) | (b == 13))
    line = np.searchsorted(breaks, starts)
    last = np.diff(line, append=len(breaks) + 1) != 0
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
    value = np.zeros(len(starts), dtype=np.int64)
    for place in range(min(int(length.max(initial=0)), 18)):
        digit = b[np.maximum(ends - 1 - place, 0)].astype(np.int64) - 48
        value += (place < length) * digit * 10 ** place
    # an aut order is the order of a subgroup of S_n, so it divides n!
    # (gcd(0, n!) = n!, so aut=0 is marked too)
    bad[line[last & (np.gcd(value, math.factorial(n)) != value)]] = True
    bad[line[~last & (value > k * n)]] = True
    if bad.any():
        text = re.split(rb"[\n\r]", chunk)[bad.argmax()]
        raise ValueError(f"{path}: malformed entry {text!r}")
    rows = value.reshape(-1, (1 << n) + 1)
    return rows[:, :-1].astype(np.uint8), rows[:, -1].copy()
