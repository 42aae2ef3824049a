"""Independent brute-force verification of the catalogs.

One search, _search, assigns rank-table entries subsets first, pruning
with the local submodular inequalities, the monotone step bounds and
the cardinality cap.  It holds every partial table as a row of one
numpy array and assigns one run of consecutive same-size masks per
level for all rows at once: no bound on a mask reads a set of its own
size, so a row's children are the product of the run's intervals.  A
level that would hold more than _SEARCH_ENTRIES table entries is split
between rows, and each half is finished before the next, so the
complete tables come out in depth-first, lexicographic order.  Its
callers give only the order of the masks and what to do with each block
of complete tables: count labeled tables by rank, collect the
extensions of a fixed parent as one matrix, or collect canonical forms
and aut orders to count and compare classes.  Nothing here shares logic
with the canonical-deletion generator beyond the core table type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import RankTable

# Table entries one level of _search holds at once; a frontier whose
# children would exceed it is halved, and each half finished before the
# next.  A single row is never split: a run of c masks gives it at most
# (k + 1)^c children, and runs are cut to keep that within the budget.
_SEARCH_ENTRIES = 1 << 16
# cross_check compares the extensions of parents up to this n one by
# one: X_0..X_3's 54 parents take milliseconds, and X_4's 228 would
# cost over three times the rest of a cross_check up to n = 4
_EXTENSION_N_MAX = 3


def _mask_gathers(m):
    """The sets whose ranks bound rho[m], as one list: m - f for each
    element f of m, then the m - f, m - g and m - f - g of each pair
    f < g, each as a block of its own."""
    singles = [1 << b for b in range(m.bit_length()) if m >> b & 1]
    pairs = [(f, g) for i, f in enumerate(singles) for g in singles[i + 1:]]
    return ([m ^ f for f in singles] + [m ^ f for f, _ in pairs]
            + [m ^ g for _, g in pairs] + [m ^ f ^ g for f, g in pairs])


@lru_cache(maxsize=None)
def _runs(masks, k, size, budget):
    """Split masks into runs of consecutive masks of one size.  A run of
    c masks gives a row at most (k + 1)^c children, and its _digits
    table holds ((k + 1)(k + 2) / 2)^c rows; a run is cut before either
    would pass budget, and one mask is always a run.  Each run is
    (masks, cap, gather, s, p) for masks of size s with p pairs: row r's
    bounds on run mask i read rho[gather[i]] of that row, see
    _mask_gathers."""
    runs = []
    for m in masks:
        run = runs[-1] if runs else []
        c = len(run) + 1
        if (not run or run[-1].bit_count() != m.bit_count()
                or (k + 1) ** c * size > budget
                or ((k + 1) * (k + 2) // 2) ** c > budget):
            runs.append([m])
        else:
            run.append(m)
    out = []
    for run in runs:
        s = run[0].bit_count()
        out.append((np.array(run, dtype=np.intp), k * s,
                    np.array([_mask_gathers(m) for m in run], dtype=np.intp),
                    s, s * (s - 1) // 2))
    return out


@lru_cache(maxsize=None)
def _digits(k, c):
    """(radix, counts, ends, table) for the children of a row whose c
    masks have widths w, each 0..k + 1: with code = w @ radix, the row
    has counts[code] children, and they give its masks lo plus the rows
    of table[ends[code] - counts[code]:ends[code]], in lexicographic
    order, first mask most significant, as np.indices(w) lists them."""
    widths = np.indices((k + 2,) * c).reshape(c, -1).T
    counts = widths.prod(axis=1)
    ends = np.cumsum(counts)
    table = np.empty((ends[-1], c), dtype=np.min_scalar_type(k))
    for w, end, count in zip(widths, ends, counts):
        table[end - count:end] = np.indices(w).reshape(c, -1).T
    return (k + 2) ** np.arange(c - 1, -1, -1), counts, ends, table


def _search(rho, masks, n, k, leaf):
    """Assign rho[m] for the masks in order, over every value the
    monotone, step, cardinality and local submodular bounds allow, and
    call leaf(rows) on each block of complete tables, one table per int16
    row, which holds every bound (at most 2kn) for k up to core.MAX_K.
    Every proper subset of a mask must be fixed in rho or come earlier
    in masks.  Blocks arrive in depth-first, lexicographic order.  Each
    level assigns one run of _runs for every row."""
    size = len(rho)
    budget = _SEARCH_ENTRIES
    plan = _runs(tuple(masks), k, size, budget)
    # each entry is a block of rows, its level, and the level's bounds
    # on it when a larger block was split there
    stack = [(np.array([rho], dtype=np.int16), 0, None)]
    while stack:
        rows, start, bounds = stack.pop()
        for level in range(start, len(plan)):
            run, cap, gather, s, p = plan[level]
            radix, counts, last, table = _digits(k, len(run))
            if bounds is None:
                sets = rows[:, gather]
                lo = sets[:, :, :s].max(axis=2)
                hi = np.minimum(sets[:, :, :s].min(axis=2) + k, cap)
                if p:
                    a, b, ab = (sets[:, :, s + i * p:s + (i + 1) * p]
                                for i in range(3))
                    hi = np.minimum(hi, (a + b - ab).min(axis=2))
                code = np.maximum(hi - lo + 1, 0) @ radix
            else:
                lo, code = bounds
                bounds = None
            count = counts[code]
            ends = np.cumsum(count)
            keep = len(rows)
            while keep > 1 and ends[keep - 1] * size > budget:
                half = keep // 2
                stack.append((rows[half:keep], level,
                              (lo[half:keep], code[half:keep])))
                keep = half
            rows, lo, code, count, ends = (
                rows[:keep], lo[:keep], code[:keep], count[:keep], ends[:keep])
            pick = np.repeat(last[code] - ends, count)
            rows = np.repeat(rows, count, axis=0)
            if not len(rows):
                break
            rows[:, run] = (np.repeat(lo, count, axis=0)
                            + np.take(table, pick + np.arange(len(rows)),
                                      axis=0))
        else:
            leaf(rows)


def brute_labeled_count(n: int, k: int):
    """(total, per-rank counts) of all valid labeled k-polymatroid tables
    on {1, ..., n}."""
    size = 1 << n
    per_rank = np.zeros(k * n + 1, dtype=np.int64)
    full = size - 1

    def leaf(rows):
        per_rank[:] += np.bincount(rows[:, full], minlength=len(per_rank))

    _search([0] * size, list(range(1, size)), n, k, leaf)
    return int(per_rank.sum()), per_rank.tolist()


def brute_extensions(parent: RankTable):
    """All valid single-element extension tables of a labeled parent, by
    the same constraint search with the parent half fixed, as the rows
    of one (m, 2^(n+1)) integer matrix."""
    n, k = parent.n, parent.k
    half = 1 << n
    masks = sorted((m | half for m in range(half)), key=int.bit_count)
    blocks = [np.zeros((0, 2 * half), dtype=np.int16)]
    _search(list(parent.rho) + [0] * half, masks, n + 1, k, blocks.append)
    return np.concatenate(blocks)


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


def cross_check(catalogs, n_max: int | None = None) -> CrossCheckReport:
    """Compare the catalogs against brute force, per n: labeled totals,
    class counts and the classes as (canonical form, aut order) pairs,
    from one brute enumeration, and (up to _EXTENSION_N_MAX) per-parent
    extension sets versus the partition-generated ones."""
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
        classes, total = _brute_classes(n, cat.k)
        cat_labeled = cat.labeled_total()
        rows.append((n, total, cat_labeled, len(classes), len(cat)))
        if not ok:
            continue
        if total != cat_labeled or len(classes) != len(cat):
            ok = False
            witness = f"count mismatch at n={n}"
            continue
        listed = set(zip(map(bytes, cat.ranks), cat.auts.tolist()))
        if listed != classes:
            ok = False
            form, aut = min(listed ^ classes)
            side = "lacks" if (form, aut) in classes else "has extra"
            witness = (f"class mismatch at n={n}: catalog {side} "
                       f"{' '.join(map(str, form))} aut={aut}")
    for n in range(min(n_max, _EXTENSION_N_MAX) + 1):
        cat = cats.get(n)
        if cat is None:
            continue
        mism = 0
        for entry in cat.entries:
            brute = _sorted_rows(brute_extensions(entry.table))
            lattice = flats(entry.table)
            parts = enumerate_extensible_partitions(entry.table, lattice)
            build = extension_builder(entry.table, lattice)
            if not np.array_equal(brute, _sorted_rows(build(parts))):
                mism += 1
                if ok:
                    ok = False
                    witness = (f"extension mismatch at n={n}, "
                               f"parent {entry.table.rho}")
        ext_rows.append((n, len(cat), mism))
    return CrossCheckReport(rows, ext_rows, ok, witness)


def _sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


def _brute_classes(n: int, k: int):
    """The isomorphism classes of the brute enumeration, as a set of
    (canonical form bytes, aut order) pairs, by canonical labeling (no
    canonical-deletion logic involved), and how many tables it saw (the
    labeled total).  The search's blocks of complete tables are held
    until they reach _SEARCH_ENTRIES entries and labeled in one
    canonical_forms call, the rest at the end, since its last levels
    leave many small blocks.  Ranks above 255, which only a k above
    core.MAX_K allows, are refused by canonical_forms with ValueError."""
    from . import canon

    masks = sorted(range(1, 1 << n), key=int.bit_count)
    seen, held, sizes = set(), [], []

    def label():
        forms, _sigma, aut = canon.canonical_forms(np.concatenate(held), n)
        seen.update(zip(map(bytes, forms), aut.tolist()))
        held.clear()

    def leaf(rows):
        sizes.append(len(rows))
        held.append(rows)
        if sum(map(len, held)) << n >= _SEARCH_ENTRIES:
            label()

    _search([0] * (1 << n), masks, n, k, leaf)
    if held:
        label()
    return seen, sum(sizes)
