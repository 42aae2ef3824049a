import functools
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from polycat import RankTable, flats, k_dual
from polycat.canon import (
    _SLICE_ROWS,
    apply_mask_perm,
    canonical_form,
    flat_graph,
    isomorphic,
    labeled_count,
    relabel,
)
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)


@functools.lru_cache(maxsize=None)
def _all_relabelings(n):
    """Row q maps each mask through permutation q; gathering a table
    through every row gives every relabeled table (built with
    apply_mask_perm alone, not with canon's gather tables)."""
    return np.array([[apply_mask_perm(m, q) for m in range(1 << n)]
                     for q in itertools.permutations(range(n))])


def _brute_minimum(table):
    """(lex-min relabeled rank sequence, how many relabelings reach it,
    whether another relabeling ties with it up to its last 8 entries)."""
    buf = np.array(table.rho, dtype=np.uint8)[_all_relabelings(table.n)]
    images = [row.tobytes() for row in buf]
    best = min(images)
    aut = images.count(best)
    late = sum(img[:-8] == best[:-8] for img in images) > aut
    return tuple(best), aut, late


def _candidate_count(table):
    """Relabelings sorting the singleton ranks: prod of m! over their
    multiplicities m."""
    ranks = Counter(table.rho[1 << j] for j in range(table.n))
    return math.prod(math.factorial(m) for m in ranks.values())


@pytest.fixture(scope="module")
def n6_tables(cats5):
    """A few hundred n=6 extension tables of a stride of X_5, each under
    a random relabeling."""
    rng = random.Random(6)
    tables = []
    for e in cats5[5].entries[::41]:
        lattice = flats(e.table)
        build = extension_builder(e.table, lattice)
        parts = enumerate_extensible_partitions(e.table, lattice)
        for part in rng.sample(parts, min(12, len(parts))):
            ext = RankTable(6, 2, build(part.mu))
            perm = list(range(6))
            rng.shuffle(perm)
            tables.append(relabel(ext, perm))
    return tables


class TestCanonicalForm:
    def test_two_lines(self, two_lines):
        cf = canonical_form(two_lines)
        assert cf.table.rho == (0, 2, 2, 3)
        assert cf.aut_order == 2

    def test_single_line(self):
        cf = canonical_form(RankTable(1, 2, (0, 2)))
        assert cf.table.rho == (0, 2)
        assert cf.aut_order == 1

    def test_three_lines(self, three_lines):
        assert canonical_form(three_lines).aut_order == 6

    def test_empty(self):
        cf = canonical_form(RankTable(0, 2, (0,)))
        assert cf.table.rho == (0,) and cf.aut_order == 1

    def test_perm_reaches_canonical(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                for perm in itertools.permutations(range(cat.n)):
                    t = relabel(e.table, perm)
                    cf = canonical_form(t)
                    assert cf.table.rho == e.table.rho
                    assert relabel(t, [p - 1 for p in cf.perm]) == cf.table

    def test_matches_brute_minimum(self, cats5, n6_tables):
        tables = [e.table for cat in cats5[:5] for e in cat.entries]
        tables += [e.table for e in cats5[5].entries[::7]]
        tables += n6_tables
        paths = Counter()
        for t in tables:
            best, aut, late = _brute_minimum(t)
            cf = canonical_form(t)
            assert cf.table.rho == best
            assert cf.aut_order == aut
            assert relabel(t, [p - 1 for p in cf.perm]) == cf.table
            words = _candidate_count(t) > _SLICE_ROWS
            paths[t.n < 3, words, aut > 1] += 1
            paths["late"] += words and late
        # byte strings below n=3 and at n>=3; word narrowing with ties
        # to the end, with an early exit at one row, and decided only
        # by the last word
        assert paths[True, False, True] and paths[True, False, False]
        assert paths[False, False, True] and paths[False, False, False]
        assert paths[False, True, True] >= 10
        assert paths[False, True, False] >= 10
        assert paths["late"] >= 1

    def test_dual_has_same_aut_order(self, cats5):
        for e in cats5[4].entries:
            assert canonical_form(k_dual(e.table)).aut_order == e.aut_order


class TestIsomorphic:
    def test_relabelings_are_isomorphic(self, two_lines):
        assert isomorphic(two_lines, relabel(two_lines, (1, 0)))

    def test_distinct_tables(self, two_lines):
        assert not isomorphic(two_lines, RankTable(2, 2, (0, 2, 2, 4)))

    def test_different_sizes(self, two_lines, three_lines):
        assert not isomorphic(two_lines, three_lines)


class TestLabeledCount:
    def test_orbit_sizes(self):
        assert labeled_count(2, 2) == 1
        assert labeled_count(3, 1) == 6
        assert labeled_count(3, 6) == 1

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            labeled_count(3, 4)

    def test_catalog_totals(self, cats5):
        totals = [
            sum(labeled_count(cat.n, e.aut_order) for e in cat.entries)
            for cat in cats5
        ]
        assert totals == [1, 3, 14, 115, 2040, 109707]

    def test_aut_order_divides_factorial(self, cats5):
        for cat in cats5:
            for e in cat.entries:
                assert math.factorial(cat.n) % e.aut_order == 0


class TestFlatGraph:
    def test_two_lines(self, two_lines):
        g = flat_graph(two_lines)
        assert g.n == 2
        # rank 1 has no flat, so a placeholder vertex stands in for it
        assert g.flat_vertices == ((0, 0), (0, 1), (0b01, 2), (0b10, 2),
                                   (0b11, 3))

    def test_three_lines(self, three_lines):
        g = flat_graph(three_lines)
        assert g.flat_vertices == (
            (0, 0), (0, 1), (0b001, 2), (0b010, 2), (0b100, 2), (0b111, 3))

    def test_free_point(self):
        g = flat_graph(RankTable(1, 2, (0, 1)))
        assert g.flat_vertices == ((0, 0), (0b1, 1))

    def test_rank_recovery(self, cats3):
        # rho(X) is the least flat color whose vertex contains X
        for cat in cats3:
            for e in cat.entries:
                g = flat_graph(e.table)
                for x in range(1 << cat.n):
                    r = min(c for m, c in g.flat_vertices if x & m == x)
                    assert r == e.table.rho[x]
