"""Acceptance gate: one test per criterion, each printing a single
pass/fail line (run with -s to see the lines for passing tests).

Criterion 3 builds the n=6 catalog once (about 4 s, single core)
and checks its sha256; a fixed sample of its entries is then stepped
to n=7 (about 3 s) and its records are pinned, and so are those of two
entries from the heavy tail at the catalog's end (about 1 s).
Criterion 10 reproduces the n=7 totals only when POLYCAT_LONG_RUN is
set; that run takes days and is skipped otherwise.
The labeled totals are also checked a second way, by partition
counting over the n-1 catalog, which uses no canonical labeling.
"""

import hashlib
import itertools
import math
import os

import numpy as np
import pytest

from polycat import gen
from polycat.canon import apply_mask_perm, flat_graph, relabel
from polycat.core import closure, flats, k_duals
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)
from polycat.gen import (
    duality_check,
    extensions_of_parent,
    filter_count,
    generate_next,
    generate_next_stream,
)
from polycat.oracle import brute_extensions, brute_labeled_count

UNLABELED_BY_RANK = {
    0: [1],
    1: [1, 1, 1],
    2: [1, 2, 4, 2, 1],
    3: [1, 3, 10, 12, 10, 3, 1],
    4: [1, 4, 21, 49, 78, 49, 21, 4, 1],
    5: [1, 5, 39, 172, 584, 778, 584, 172, 39, 5, 1],
    6: [1, 6, 68, 573, 5236, 18033, 46661, 18033, 5236, 573, 68, 6, 1],
}
LABELED_TOTALS = {2: 14, 3: 115, 4: 2040, 5: 109707, 6: 39445994}
LABELED_BY_RANK_6 = [1, 63, 3199, 87477, 1554077, 7109189, 21937982, 7109189,
                     1554077, 87477, 3199, 63, 1]
FILTER_COUNTS = {1: 1, 2: 2, 3: 8, 4: 51, 5: 696, 6: 49121}
# sha256 over every n=6 entry's rank bytes and 4-byte little-endian aut
# order, in catalog order
N6_SHA256 = "b066e6df13a160af8fb14f9ea8e63ee1609f91022f9cd81abcdf8b612e613e39"
# sha256 over every X_5 parent's enumerated partition rows (rows.tobytes()),
# sorted into flat order, in catalog order
X5_PARTITIONS_SHA256 = (
    "9ba108ea906f71929f673510e3dff00b8d028c4abcd2732fc3394444b3c9bbbd")
# sha256 over the concatenated records (extensions_of_parent) of every
# 5000th n=6 entry from offset 7, 19 parents, stepped to n=7
N7_SAMPLE_SHA256 = (
    "78a88a8e8280cd0c60f6f78ad73531beb6c2b55d8f3bc2a0235285877bbd036f")
# (partitions, records, sha256 over the records) of two n=6 entries from
# the catalog's heavy tail, each with more than one block of partition
# rows, stepped to n=7
N7_HEAVY_PINS = {
    90500: (107845, 7017, "c467741a31db90340b1e55bbe531af41"
                          "cec01fffaadcd79bf7783cb9ceef155c"),
    91250: (115819, 940, "efba1168dd0f24accf4f1fbfeeb64f68"
                         "5de2c3b569d698737424585a5c5a0c74"),
}


def _report(num, ok, detail=""):
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed {suffix}"


@pytest.fixture(scope="module")
def cats6(cats5):
    import time

    start = time.monotonic()
    nxt, _stats = generate_next(cats5[5])
    elapsed = time.monotonic() - start
    return list(cats5) + [nxt], elapsed


def _catalog_sha256(cat):
    h = hashlib.sha256()
    for e in cat.entries:
        h.update(bytes(e.table.rho))
        h.update(e.aut_order.to_bytes(4, "little"))
    return h.hexdigest()


def test_criterion_01_unlabeled_totals(cats5):
    totals = [len(c) for c in cats5]
    _report(1, totals == [1, 3, 10, 40, 228, 2380], f"got {totals}")


def test_criterion_02_per_rank_histograms(cats5):
    ok = all(
        cats5[n].rank_counts() == UNLABELED_BY_RANK[n] for n in range(6)
    )
    _report(2, ok)


def test_criterion_03_n6_catalog(cats6):
    cats, elapsed = cats6
    ok = (len(cats[6]) == 94495
          and cats[6].rank_counts() == UNLABELED_BY_RANK[6]
          and _catalog_sha256(cats[6]) == N6_SHA256
          and elapsed < 3600)
    _report(3, ok, f"count={len(cats[6])} time={elapsed:.0f}s")


def test_n7_sample_records(cats6):
    cats, _ = cats6
    digest = hashlib.sha256()
    records = partitions = 0
    for e in cats[6].entries[7::5000]:
        acc, parts = extensions_of_parent(e.table)
        digest.update(acc.tobytes())
        records += len(acc)
        partitions += parts
    assert (records, partitions) == (41654, 892650)
    assert digest.hexdigest() == N7_SAMPLE_SHA256


def test_n7_heavy_parents(cats6):
    cats, _ = cats6
    for i, pin in N7_HEAVY_PINS.items():
        acc, parts = extensions_of_parent(cats[6].entries[i].table)
        assert parts > gen._BLOCK
        assert (parts, len(acc), hashlib.sha256(acc.tobytes()).hexdigest()) \
            == pin


def _labeled_by_partition_counting(cat):
    """Labeled (n+1)-polymatroids per rank, counted from the n-catalog:
    each one extends exactly one labeled deletion, and each labeled
    parent P by exactly #partitions(P) of them, of rank
    rho(S) + mu[S] (the full set is the last flat).  Also returns the
    partition count and the sha256 over every parent's rows, each
    parent's sorted into flat order."""
    counts = [0] * (cat.k * (cat.n + 1) + 1)
    total = 0
    digest = hashlib.sha256()
    fact = math.factorial(cat.n)
    for e in cat.entries:
        parts = enumerate_extensible_partitions(e.table)
        total += len(parts)
        digest.update(parts[np.lexsort(parts.T[::-1])].tobytes())
        for top in parts[:, -1].tolist():
            counts[e.table.rank + top] += fact // e.aut_order
    return counts, total, digest.hexdigest()


def test_labeled_totals_by_partition_counting(cats5):
    for n in range(5):
        counts, _, _ = _labeled_by_partition_counting(cats5[n])
        assert counts == cats5[n + 1].labeled_rank_counts(), n
    counts, partitions, digest = _labeled_by_partition_counting(cats5[5])
    assert counts == LABELED_BY_RANK_6
    assert sum(counts) == LABELED_TOTALS[6]
    assert partitions == 1020083
    assert digest == X5_PARTITIONS_SHA256


def test_criterion_04_labeled_totals(cats6):
    cats, _ = cats6
    got = {n: cats[n].labeled_total() for n in LABELED_TOTALS}
    _report(4, got == LABELED_TOTALS, f"got {got}")


def test_criterion_05_oracle_equivalence(cats5):
    got = [brute_labeled_count(n, 2) for n in range(6)]
    ok = all(
        per_rank == cats5[n].labeled_rank_counts()
        and total == sum(per_rank)
        for n, (total, per_rank) in enumerate(got)
    )
    _report(5, ok, f"got {[per_rank for _, per_rank in got]}")


def test_criterion_06_extension_bijection(cats5):
    ok = True
    for n in range(4):
        for e in cats5[n].entries:
            brute = set(map(tuple, brute_extensions(e.table).tolist()))
            lattice = flats(e.table)
            rows = enumerate_extensible_partitions(e.table, lattice)
            built = extension_builder(e.table, lattice)(rows)
            ok = ok and brute == set(map(tuple, built.tolist()))
    _report(6, ok)


def test_criterion_07_duality(cats6):
    cats, _ = cats6
    ok = True
    for cat in cats:
        twice = k_duals(k_duals(cat.ranks, cat.k), cat.k)
        ok = ok and np.array_equal(twice, cat.ranks)
        ok = ok and duality_check(cat) is None
    _report(7, ok)


def test_criterion_08_filter_counts(cats6):
    cats, _ = cats6
    got = {n: filter_count(cats[n]) for n in FILTER_COUNTS}
    _report(8, got == FILTER_COUNTS, f"got {got}")


def _colored_iso_count(ga, gb):
    """Ground permutations carrying one flat graph onto the other; any
    colored-graph isomorphism restricts to one because a flat vertex's
    neighborhood is exactly its mask."""
    target = set(gb.flat_vertices)
    return sum(
        {(apply_mask_perm(m, p), c) for m, c in ga.flat_vertices} == target
        for p in itertools.permutations(range(ga.n))
    )


def test_criterion_09_property_suites(cats5):
    ok = True
    # closure idempotence/monotonicity and flat intersection-closure
    for cat in cats5[:5]:
        for e in cat.entries:
            t = e.table
            for x in range(1 << t.n):
                cx = closure(t, x)
                ok = ok and x & cx == x and closure(t, cx) == cx
            fs = set(flats(t).flats)
            ok = ok and all(f & g in fs for f in fs for g in fs)
    # canonical-form relabel invariance, exhaustive at n <= 4
    from polycat.canon import canonical_form

    for cat in cats5[:5]:
        for e in cat.entries:
            for p in itertools.permutations(range(cat.n)):
                cf = canonical_form(relabel(e.table, p))
                ok = (ok and cf.table.rho == e.table.rho
                      and cf.aut_order == e.aut_order)
    # flat-graph isomorphism agreement and automorphism correspondence
    for cat in cats5[:4]:
        graphs = [flat_graph(e.table) for e in cat.entries]
        for i, gi in enumerate(graphs):
            ok = ok and _colored_iso_count(gi, gi) == cat.entries[i].aut_order
            for gj in graphs[i + 1:]:
                ok = ok and _colored_iso_count(gi, gj) == 0
            for p in itertools.permutations(range(cat.n)):
                gp = flat_graph(relabel(cat.entries[i].table, p))
                ok = ok and _colored_iso_count(gi, gp) > 0
    _report(9, ok)


@pytest.mark.skipif(
    not os.environ.get("POLYCAT_LONG_RUN"),
    reason="n=7 catalog takes days; set POLYCAT_LONG_RUN=1 to attempt",
)
def test_criterion_10_n7_long_run(cats6, tmp_path):
    cats, _ = cats6
    out = tmp_path / "polycat-k2-n7.txt"
    generate_next_stream(cats[6], out, jobs=os.cpu_count() or 1)
    per_rank = [0] * 15
    labeled = 0
    fact = math.factorial(7)
    with open(out) as fh:
        fh.readline()
        for line in fh:
            parts = line.split()
            rank = int(parts[-2])
            per_rank[rank] += 1
            labeled += fact // int(parts[-1][4:])
    ok = (sum(per_rank) == 320863387
          and labeled == 1560089623047
          and per_rank[6] == 149636721
          and per_rank[7] == 19498369
          and per_rank[6] > per_rank[7])
    _report(10, ok)
