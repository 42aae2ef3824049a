"""Isomorph-free generation of k-polymatroid catalogs by canonical
deletion.

Each parent in the catalog X_n is extended by every extensible partition;
an extension is accepted iff deleting the last element of its canonical
labeling reproduces the parent exactly.  Extensions of distinct parents
are never compared, so the outer loop parallelizes with no shared state.
"""

from __future__ import annotations

import heapq
import math
import os
import re
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import canon
from .core import RankTable, flats, k_dual, min_element_rank
from .extensions import enumerate_extensible_partitions, extension_builder


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

    def merge(self, other):
        self.parents += other.parents
        self.partitions += other.partitions
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.wall_time += other.wall_time


def base_catalog(k: int) -> Catalog:
    """X_0: the empty polymatroid."""
    entry = CatalogEntry(RankTable(0, k, (0,)), 1)
    return Catalog(0, k, (entry,))


def extensions_of_parent(parent: RankTable):
    """Accepted canonical extensions of one parent, sorted, plus the
    number of partitions tried.  The parent must itself be canonical."""
    n = parent.n
    lattice = flats(parent)
    partitions = enumerate_extensible_partitions(parent, lattice)
    parent_bytes = bytes(parent.rho)
    build = extension_builder(parent, lattice)
    accepted = {}
    half = 1 << n
    # the canonical labeling sorts the singleton ranks, so its last
    # element has the largest rank; if the new element ranks below a
    # parent element, deleting that last element leaves other singleton
    # ranks than the parent's, and the candidate would be rejected
    top = max(parent.rho[1 << j] for j in range(n)) if n else 0
    for part in partitions:
        ext = bytes(build(part.mu))
        if ext[half] < top:
            continue
        cb, _sigma, aut = canon.canonical_bytes(ext, n + 1)
        # element n+1 is the top bit, so deleting it from the canonical
        # labeling leaves the first half of the table; that half is
        # already lex-min among the relabelings of the deletion, because
        # the full sequence minimizes its first half before the rest
        if cb[:half] == parent_bytes:
            accepted[cb] = aut
    out = sorted(accepted.items())
    return [(tuple(cb), aut) for cb, aut in out], len(partitions)


def _worker(args):
    k, rhos = args
    results = []
    stats = GenerationStats()
    for rho in rhos:
        n = len(rho).bit_length() - 1
        acc, nparts = extensions_of_parent(RankTable(n, k, rho))
        results.append(acc)
        stats.parents += 1
        stats.partitions += nparts
        stats.accepted += len(acc)
        stats.rejected += nparts - len(acc)
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

    def entry_key(line):
        return tuple(map(int, line.split()[:-1]))

    run_dir = tempfile.mkdtemp(prefix=".shards-", dir=shard_dir)
    try:
        shards = []
        for bi, (results, st) in enumerate(run(blocks)):
            stats.merge(st)
            block_entries = sorted(
                (rho, aut) for acc in results for rho, aut in acc
            )
            path = os.path.join(run_dir, f"{bi:05d}.txt")
            with open(path, "w") as fh:
                fh.writelines(_entry_line(r, a) for r, a in block_entries)
            shards.append(path)
        files = [open(p) for p in shards]
        try:
            with open(out_path, "w") as out:
                out.write(_header(xn.n + 1, xn.k, stats.accepted))
                for line in heapq.merge(*files, key=entry_key):
                    out.write(line)
        finally:
            for fh in files:
                fh.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    stats.wall_time = time.monotonic() - start
    return stats


def enumerate_all(n_max: int, k: int, jobs: int = 1):
    """Catalogs for n = 0 ... n_max."""
    if k not in (1, 2):
        raise ValueError("supported element-rank caps are k=1 and k=2")
    if n_max > 12:
        raise ValueError("ground sets beyond 12 elements are unsupported")
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
