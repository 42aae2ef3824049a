"""Independent brute-force verification of the catalogs.

One depth-first search, _search, assigns rank-table entries subsets
first, pruning with the local submodular inequalities, the monotone step
bounds, and the cardinality cap.  Its callers give only the order of the
masks and what to do with each complete table: count labeled tables by
rank, collect the extensions of a fixed parent, or collect canonical
forms to count classes.  Nothing here shares logic with the
canonical-deletion generator beyond the core table type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import RankTable


def _bounds(rho, m, n, k):
    """Feasible [lo, hi] for rho[m] once every proper subset is fixed:
    monotone steps from below, step cap and local submodularity from
    above, and the k|m| cardinality cap."""
    lo, hi = 0, k * m.bit_count()
    sub = m
    singles = []
    while sub:
        b = sub & -sub
        singles.append(b)
        sub ^= b
    for f in singles:
        v = rho[m ^ f]
        if v > lo:
            lo = v
        cap = v + k
        if cap < hi:
            hi = cap
    for i, f in enumerate(singles):
        for g in singles[i + 1:]:
            cap = rho[m ^ f] + rho[m ^ g] - rho[m ^ f ^ g]
            if cap < hi:
                hi = cap
    return lo, hi


def _search(rho, masks, n, k, leaf):
    """Assign rho[m] for the masks in order, depth first, over every
    value _bounds allows, and call leaf(rho) on each complete table.
    Every proper subset of a mask must be fixed in rho or come earlier
    in masks."""
    last = len(masks)

    def assign(i):
        if i == last:
            leaf(rho)
            return
        m = masks[i]
        lo, hi = _bounds(rho, m, n, k)
        for v in range(lo, hi + 1):
            rho[m] = v
            assign(i + 1)

    assign(0)


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
    per_rank = [0] * (k * n + 1)
    full = size - 1

    def leaf(rho):
        per_rank[rho[full]] += 1

    _search([0] * size, masks, n, k, leaf)
    return sum(per_rank), per_rank


def brute_extensions(parent: RankTable):
    """All valid single-element extension tables of a labeled parent, by
    the same depth-first constraint search with the parent half fixed."""
    n, k = parent.n, parent.k
    half = 1 << n
    masks = sorted((m | half for m in range(half)), key=int.bit_count)
    out = []

    def leaf(rho):
        out.append(RankTable(n + 1, k, tuple(rho)))

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
        rows.append((n, total, cat_labeled, classes, len(cat.entries)))
        if ok and (total != cat_labeled or classes != len(cat.entries)):
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
        ext_rows.append((n, len(cat.entries), mism))
    return CrossCheckReport(rows, ext_rows, ok, witness)


def _brute_class_count(n: int, k: int) -> int:
    """Isomorphism classes by grouping the brute enumeration under
    canonical labeling (no canonical-deletion logic involved)."""
    from . import canon

    masks = sorted(range(1, 1 << n), key=int.bit_count)
    seen = set()

    def leaf(rho):
        seen.add(canon.canonical_bytes(bytes(rho), n)[0])

    _search([0] * (1 << n), masks, n, k, leaf)
    return len(seen)
