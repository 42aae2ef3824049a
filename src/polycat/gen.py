"""Isomorph-free generation of k-polymatroid catalogs by canonical
deletion.

Each parent in the catalog X_n is extended by every extensible partition;
an extension is accepted iff deleting the last element of its canonical
labeling reproduces the parent exactly.  Partitions in one orbit of the
parent's automorphism group give isomorphic extensions, so only the
lex-min partition of each orbit is built and labeled.  Extensions of
distinct parents are never compared, so the outer loop parallelizes with
no shared state.
"""

from __future__ import annotations

import contextlib
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
from .extensions import closure_flats, extensible_rows
# perfbench's tracer wraps these two names where gen would look them up;
# generation itself no longer calls them
from .extensions import (  # noqa: F401
    enumerate_extensible_partitions,
    extension_builder,
)

# Partition rows folded and built at a time in extensions_of_parent, so
# that its temporaries stay a few MB on parents with millions of rows.
_BLOCK = 1 << 16
# Shard files merged at once by generate_next_stream.
_FAN_IN = 64
# canonical_bytes calls made by extensions_of_parent in this process.
# _worker takes the difference around its own parents; a counter is used
# because extensions_of_parent keeps its (accepted, partitions) result,
# which perfbench's tracer unpacks.
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
    canonical: int = 0  # canonical_bytes calls, one per labeled orbit

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
    fl = np.array(lattice.flats, np.intp)
    index = np.empty(1 << parent.n, np.intp)
    index[fl] = np.arange(len(fl))
    acts = np.unique(index[auts[:, fl]], axis=0)
    return acts[(acts != np.arange(len(fl))).any(axis=1)]


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
    """Accepted canonical extensions of one parent, sorted, plus the
    number of partitions tried.  The parent must itself be canonical.

    Only one partition per orbit of Aut(parent) is labeled.  An
    automorphism g of the parent, extended to the new element e by
    fixing it, relabels ext(mu o g) into ext(mu), since
    rho(gX) + mu(cl gX) = rho(X) + (mu o g)(cl X); so a whole orbit
    shares one canonical form and one accept or reject decision."""
    global _canonical_calls
    n = parent.n
    if parent.k * (n + 1) > 255:
        raise ValueError("extension ranks must fit in one byte")
    half = 1 << n
    lattice = flats(parent)
    rows = extensible_rows(parent, lattice)
    parent_bytes = bytes(parent.rho)
    acts = flat_automorphisms(parent, lattice)
    rho = np.frombuffer(parent_bytes, np.uint8)
    cl_idx = np.array(closure_flats(parent, lattice), np.intp)
    # the canonical labeling sorts the singleton ranks, so its last
    # element has the largest rank; if the new element ranks below a
    # parent element, deleting that last element leaves other singleton
    # ranks than the parent's, and the candidate would be rejected.  The
    # new element's rank is mu at cl(empty set), the first flat, which
    # every automorphism fixes, so the test keeps or drops whole orbits.
    top = max(parent.rho[1 << j] for j in range(n)) if n else 0
    accepted = {}
    size = 2 * half
    for i in range(0, len(rows), _BLOCK):
        block = rows[i:i + _BLOCK]
        block = orbit_representatives(block[block[:, 0] >= top], acts)
        ext = np.empty((len(block), size), np.uint8)
        ext[:, :half] = rho
        ext[:, half:] = rho + block[:, cl_idx]
        buf = ext.tobytes()
        _canonical_calls += len(block)
        for j in range(0, len(buf), size):
            cb, _sigma, aut = canon.canonical_bytes(buf[j:j + size], n + 1)
            # element n+1 is the top bit, so deleting it from the
            # canonical labeling leaves the first half of the table;
            # that half is already lex-min among the relabelings of the
            # deletion, because the full sequence minimizes its first
            # half before the rest
            if cb[:half] == parent_bytes:
                accepted[cb] = aut
    out = sorted(accepted.items())
    return [(tuple(cb), aut) for cb, aut in out], len(rows)


def _worker(args):
    k, rhos = args
    results = []
    stats = GenerationStats()
    calls = _canonical_calls
    for rho in rhos:
        n = len(rho).bit_length() - 1
        acc, nparts = extensions_of_parent(RankTable(n, k, rho))
        results.append(acc)
        stats.parents += 1
        stats.partitions += nparts
        stats.accepted += len(acc)
        stats.rejected += nparts - len(acc)
    stats.canonical = _canonical_calls - calls
    return results, stats


def _parent_results(xn: Catalog, jobs: int):
    """Yield the accepted-extension list of each parent, in catalog
    order, with stats accumulated into the returned object."""
    stats = GenerationStats()
    rhos = [e.table.rho for e in xn.entries]
    if jobs <= 1 or len(rhos) < 4:
        results, stats = _worker((xn.k, rhos))
        return results, stats
    chunk = max(1, (len(rhos) + jobs * 4 - 1) // (jobs * 4))
    blocks = [rhos[i:i + chunk] for i in range(0, len(rhos), chunk)]
    results = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for res, st in pool.map(_worker, [(xn.k, b) for b in blocks]):
            results.extend(res)
            stats.merge(st)
    return results, stats


def generate_next(xn: Catalog, jobs: int = 1):
    """One canonical-deletion step: the complete catalog for n+1."""
    start = time.monotonic()
    results, stats = _parent_results(xn, jobs)
    entries = []
    for acc in results:
        for rho, aut in acc:
            entries.append(CatalogEntry(RankTable(xn.n + 1, xn.k, rho), aut))
    entries.sort(key=lambda e: e.table.rho)
    stats.wall_time = time.monotonic() - start
    return Catalog(xn.n + 1, xn.k, tuple(entries)), stats


def generate_next_stream(xn: Catalog, out_path, jobs: int = 1,
                         shard_dir=None):
    """Streaming variant: accepted extensions go to sorted per-block
    shards on disk, merged into the catalog file by canonical key.
    Only counts are kept in memory.  The shards live in a private
    directory under shard_dir (default: the output's directory) that is
    removed on return or on error."""
    start = time.monotonic()
    shard_dir = shard_dir or os.path.dirname(os.path.abspath(out_path))
    stats = GenerationStats()
    rhos = [e.table.rho for e in xn.entries]
    chunk = max(1, (len(rhos) + 1023) // 1024)
    blocks = [rhos[i:i + chunk] for i in range(0, len(rhos), chunk)]

    def run(blks):
        if jobs <= 1:
            for b in blks:
                yield _worker((xn.k, b))
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                yield from pool.map(_worker, [(xn.k, b) for b in blks])

    run_dir = tempfile.mkdtemp(prefix=".shards-", dir=shard_dir)
    names = (os.path.join(run_dir, f"{i:05d}.txt") for i in itertools.count())
    try:
        shards = []
        for results, st in run(blocks):
            stats.merge(st)
            block_entries = sorted(
                (rho, aut) for acc in results for rho, aut in acc
            )
            shards.append(next(names))
            with open(shards[-1], "w") as fh:
                fh.writelines(_entry_line(r, a) for r, a in block_entries)
        # merge at most _FAN_IN shards at once, in rounds, so that the
        # open files stay bounded however many blocks there are
        while len(shards) > _FAN_IN:
            groups = [shards[i:i + _FAN_IN]
                      for i in range(0, len(shards), _FAN_IN)]
            shards = []
            for group in groups:
                shards.append(next(names))
                with open(shards[-1], "w") as out:
                    _merge_shards(group, out)
                for path in group:
                    os.remove(path)
        with open(out_path, "w") as out:
            out.write(_header(xn.n + 1, xn.k, stats.accepted))
            _merge_shards(shards, out)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    stats.wall_time = time.monotonic() - start
    return stats


def _merge_shards(paths, out):
    """Write the lines of sorted shard files to out, merged in
    canonical-key order."""
    def entry_key(line):
        return tuple(map(int, line.split()[:-1]))

    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p)) for p in paths]
        out.writelines(heapq.merge(*files, key=entry_key))


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
    """rank x n matrix of counts; rows 0..k*n_max, one column per catalog."""
    n_max = max(c.n for c in catalogs)
    k = catalogs[0].k
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


def _header(n, k, count):
    return f"POLYCAT v1 n={n} k={k} count={count}\n"


def _entry_line(rho, aut):
    return " ".join(map(str, rho)) + f" aut={aut}\n"


def write_catalog(catalog: Catalog, path):
    with open(path, "w") as fh:
        fh.write(_header(catalog.n, catalog.k, len(catalog.entries)))
        for e in catalog.entries:
            fh.write(_entry_line(e.table.rho, e.aut_order))


def read_catalog(path) -> Catalog:
    with open(path) as fh:
        head = fh.readline()
        m = _HEADER_RE.match(head.strip())
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
            aut = int(parts[-1][4:])
            entries.append(CatalogEntry(RankTable(n, k, rho), aut))
    if len(entries) != count:
        raise ValueError(
            f"{path}: header count {count} != {len(entries)} entries"
        )
    return Catalog(n, k, tuple(entries))
