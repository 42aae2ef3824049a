"""Independent brute-force verification of the catalogs.

One search, _search, assigns rank-table entries subsets first, pruning
with the local submodular inequalities, the monotone step bounds and
the cardinality cap.  It holds every partial table as a row of one
numpy array and assigns one mask per level for all rows at once; a
level that would hold more than _SEARCH_ENTRIES table entries is split
between rows, and each half is finished before the next, so the
complete tables come out in depth-first, lexicographic order.  Its
callers give only the order of the masks and what to do with each block
of complete tables: count labeled tables by rank, collect the
extensions of a fixed parent, or collect canonical forms to count
classes.  Nothing here shares logic with the canonical-deletion
generator beyond the core table type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import RankTable

# Table entries one level of _search holds at once; a frontier whose
# children would exceed it is halved, and each half finished before the
# next.  A single row is never split: it has at most k + 1 children.
_SEARCH_ENTRIES = 1 << 16


@lru_cache(maxsize=None)
def _mask_gathers(m):
    """Index arrays for the bounds of rho[m]: the sets m - f for each
    element f of m, and m - f, m - g, m - f - g for each pair f < g."""
    singles = [1 << b for b in range(m.bit_length()) if m >> b & 1]
    pairs = [(f, g) for i, f in enumerate(singles) for g in singles[i + 1:]]
    return (np.array([m ^ f for f in singles], dtype=np.intp),
            np.array([[m ^ f, m ^ g, m ^ f ^ g] for f, g in pairs],
                     dtype=np.intp).reshape(-1, 3).T)


def _search(rho, masks, n, k, leaf):
    """Assign rho[m] for the masks in order, over every value the
    monotone, step, cardinality and local submodular bounds allow, and
    call leaf(rows) on each block of complete tables, one table per row.
    Every proper subset of a mask must be fixed in rho or come earlier
    in masks.  Blocks arrive in depth-first, lexicographic order."""
    dtype = np.int16 if 2 * k * n < 1 << 15 else np.int64
    size = len(rho)
    plan = [(m, k * m.bit_count(), *_mask_gathers(m)) for m in masks]
    stack = [(np.array([rho], dtype=dtype), 0)]
    while stack:
        rows, start = stack.pop()
        for level in range(start, len(plan)):
            m, cap, subs, (a, b, ab) = plan[level]
            below = rows[:, subs]
            lo = below.max(axis=1)
            hi = np.minimum(below.min(axis=1) + k, cap)
            if len(ab):
                hi = np.minimum(
                    hi, (rows[:, a] + rows[:, b] - rows[:, ab]).min(axis=1))
            width = np.maximum(hi - lo + 1, 0)
            while len(rows) > 1 and width.sum() * size > _SEARCH_ENTRIES:
                half = len(rows) // 2
                stack.append((rows[half:], level))
                rows, lo, width = rows[:half], lo[:half], width[:half]
            rows = np.repeat(rows, width, axis=0)
            if not len(rows):
                break
            # child j of a row takes lo + j
            first = np.cumsum(width) - width
            rows[:, m] = np.repeat(lo - first, width) + np.arange(len(rows))
        else:
            leaf(rows)


def brute_labeled_count(n: int, k: int, order: str = "forward"):
    """(total, per-rank counts) of all valid labeled k-polymatroid tables
    on {1, ..., n}.

    order="reversed" assigns table entries largest-bitmask-first within
    each cardinality-compatible schedule; the counts must not change.
    """
    size = 1 << n
    if order == "forward":
        masks = list(range(1, size))
    elif order == "reversed":
        # any order with subsets before supersets is admissible
        masks = sorted(range(1, size), key=lambda m: (m.bit_count(), -m))
    else:
        raise ValueError(f"unknown order {order!r}")
    per_rank = np.zeros(k * n + 1, dtype=np.int64)
    full = size - 1

    def leaf(rows):
        per_rank[:] += np.bincount(rows[:, full], minlength=len(per_rank))

    _search([0] * size, masks, n, k, leaf)
    return int(per_rank.sum()), per_rank.tolist()


def brute_extensions(parent: RankTable):
    """All valid single-element extension tables of a labeled parent, by
    the same constraint search with the parent half fixed."""
    n, k = parent.n, parent.k
    half = 1 << n
    masks = sorted((m | half for m in range(half)), key=int.bit_count)
    out = []

    def leaf(rows):
        out.extend(RankTable(n + 1, k, tuple(r)) for r in rows.tolist())

    _search(list(parent.rho) + [0] * half, masks, n + 1, k, leaf)
    return out


@dataclass
class CrossCheckReport:
    rows: list  # (n, brute_total, catalog_labeled, brute_classes, catalog_size)
    extension_rows: list  # (n, parents_checked, mismatches)
    ok: bool
    first_witness: str | None

    def as_text(self):
        lines = ["n brute_labeled catalog_labeled brute_classes catalog_size"]
        for r in self.rows:
            lines.append(" ".join(map(str, r)))
        lines.append("n parents_checked extension_mismatches")
        for r in self.extension_rows:
            lines.append(" ".join(map(str, r)))
        lines.append("ok" if self.ok else f"FAIL: {self.first_witness}")
        return "\n".join(lines) + "\n"

    def as_csv(self):
        lines = ["n,brute_labeled,catalog_labeled,brute_classes,catalog_size"]
        for r in self.rows:
            lines.append(",".join(map(str, r)))
        return "\n".join(lines) + "\n"


def cross_check(catalogs, n_max: int | None = None,
                extension_n_max: int = 3) -> CrossCheckReport:
    """Compare the catalogs against brute force, per n:
    labeled totals, isomorphism-class counts, and (up to extension_n_max)
    per-parent extension sets versus the partition-generated ones."""
    from .core import flats
    from .extensions import enumerate_extensible_partitions, extension_builder

    cats = {c.n: c for c in catalogs}
    if n_max is None:
        n_max = max(cats) if cats else -1
    rows = []
    ext_rows = []
    ok = True
    witness = None
    for n in range(n_max + 1):
        cat = cats.get(n)
        if cat is None:
            ok = False
            witness = witness or f"missing catalog for n={n}"
            continue
        total, _per_rank = brute_labeled_count(n, cat.k)
        cat_labeled = cat.labeled_total()
        classes = _brute_class_count(n, cat.k)
        rows.append((n, total, cat_labeled, classes, len(cat)))
        if ok and (total != cat_labeled or classes != len(cat)):
            ok = False
            witness = f"count mismatch at n={n}"
    for n in range(min(n_max, extension_n_max) + 1):
        cat = cats.get(n)
        if cat is None:
            continue
        mism = 0
        for entry in cat.entries:
            brute = {t.rho for t in brute_extensions(entry.table)}
            lattice = flats(entry.table)
            parts = enumerate_extensible_partitions(entry.table, lattice)
            build = extension_builder(entry.table, lattice)
            built = set(map(tuple, build(parts).tolist()))
            if brute != built:
                mism += 1
                if ok:
                    ok = False
                    witness = (f"extension mismatch at n={n}, "
                               f"parent {entry.table.rho}")
        ext_rows.append((n, len(cat), mism))
    return CrossCheckReport(rows, ext_rows, ok, witness)


def _brute_class_count(n: int, k: int) -> int:
    """Isomorphism classes by grouping the brute enumeration under
    canonical labeling (no canonical-deletion logic involved), one
    canonical_forms call per block of complete tables.  Ranks must fit
    in one byte; ValueError otherwise."""
    from . import canon

    masks = sorted(range(1, 1 << n), key=int.bit_count)
    seen = set()

    def leaf(rows):
        forms, _sigma, _aut = canon.canonical_forms(rows, n)
        seen.update(map(bytes, forms))

    _search([0] * (1 << n), masks, n, k, leaf)
    return len(seen)
