import functools
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from polycat import RankTable, canon, flats, k_dual
from polycat.canon import (
    _SLICE_ROWS,
    anchored_forms,
    apply_mask_perm,
    canonical_bytes,
    canonical_form,
    canonical_forms,
    flat_graph,
    isomorphic,
    labeled_count,
    relabel,
)
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)
from polycat.gen import extensions_of_parent


@functools.lru_cache(maxsize=None)
def _all_relabelings(n):
    """Row q maps each mask through permutation q; gathering a table
    through every row gives every relabeled table (built with
    apply_mask_perm alone, not with canon's gather tables)."""
    return np.array([[apply_mask_perm(m, q) for m in range(1 << n)]
                     for q in itertools.permutations(range(n))])


@functools.lru_cache(maxsize=None)
def _all_relabelings_fast(n):
    """Row q maps each mask through permutation q, as _all_relabelings,
    built one bit at a time in numpy for n = 8."""
    perms = np.array(list(itertools.permutations(range(n))))
    out = np.zeros((len(perms), 1 << n), dtype=np.intp)
    for m in range(1, 1 << n):
        low = (m & -m).bit_length() - 1
        out[:, m] = out[:, m & (m - 1)] | 1 << perms[:, low]
    return out


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
        for i in rng.sample(range(len(parts)), min(12, len(parts))):
            ext = RankTable(6, 2, tuple(build(parts[i]).tolist()))
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
        # byte strings below n=3 and at n>=3; the search (above
        # _SLICE_ROWS candidates) with automorphisms and without, and
        # with a tie decided only by the last word
        assert paths[True, False, True] and paths[True, False, False]
        assert paths[False, False, True] and paths[False, False, False]
        assert paths[False, True, True] >= 10
        assert paths[False, True, False] >= 10
        assert paths["late"] >= 1

    def test_dual_has_same_aut_order(self, cats5):
        for e in cats5[4].entries:
            assert canonical_form(k_dual(e.table)).aut_order == e.aut_order


class TestCanonicalForms:
    @staticmethod
    def _check_block(tables):
        """Label tables in one call and check every row against
        _brute_minimum."""
        n = tables[0].n
        block = np.array([t.rho for t in tables], dtype=np.uint8)
        forms, sigma, aut = canonical_forms(block, n)
        assert forms.shape == block.shape and forms.dtype == np.uint8
        assert sigma.shape == (len(tables), n) and len(aut) == len(tables)
        for t, form, s, a in zip(tables, forms, sigma.tolist(), aut):
            best, brute_aut, _late = _brute_minimum(t)
            assert tuple(form.tolist()) == best
            assert a == brute_aut
            assert relabel(t, s) == RankTable(n, t.k, best)

    @staticmethod
    def _mixed_blocks(cats5, n6_tables):
        """Per n, the catalog entries under a random relabeling and
        their duals (several singleton-rank vectors in one block)."""
        rng = random.Random(5)
        blocks = []
        for cat in cats5:
            block = []
            for e in cat.entries[::3] if cat.n == 5 else cat.entries:
                perm = list(range(cat.n))
                rng.shuffle(perm)
                block += [relabel(e.table, perm), k_dual(e.table)]
            blocks.append(block)
        blocks.append(n6_tables)
        return blocks

    def test_blocks_match_brute_minimum(self, cats5, n6_tables):
        for block in self._mixed_blocks(cats5, n6_tables):
            singles = {tuple(t.rho[1 << j] for j in range(t.n))
                       for t in block}
            assert len(singles) > 1 or block[0].n == 0
            self._check_block(block)
            # one-row blocks
            for t in block[::97]:
                self._check_block([t])

    def test_runs_of_any_size(self, cats5, n6_tables, monkeypatch):
        # the module's budget, one in the middle, where calls split off a
        # level carry pairs, and one so small that every level of a
        # block with two rows or more is split between its rows: the
        # same forms
        blocks = self._mixed_blocks(cats5, n6_tables)[3:]
        whole = [canonical_forms(np.array([t.rho for t in b]), b[0].n)
                 for b in blocks]
        search, levels, split_with_pairs = canon._search, [], []

        def spy(flat, size, target, shared, rows, row, img):
            if levels and levels[-1] == img.shape[1]:
                split_with_pairs.append(len(row) > 0)
            levels.append(img.shape[1])
            try:
                return search(flat, size, target, shared, rows, row, img)
            finally:
                levels.pop()

        monkeypatch.setattr(canon, "_search", spy)
        for budget in (canon._SEARCH_ENTRIES, 64, 1):
            monkeypatch.setattr(canon, "_SEARCH_ENTRIES", budget)
            split_with_pairs.clear()
            for b, ref in zip(blocks, whole):
                got = canonical_forms(np.array([t.rho for t in b]), b[0].n)
                for x, y in zip(got, ref):
                    assert np.array_equal(x, y)
            if budget == 64:
                assert any(split_with_pairs)

    def test_matches_canonical_form(self, n6_tables):
        forms, sigma, aut = canonical_forms(
            np.array([t.rho for t in n6_tables]), 6)
        for t, form, s, a in zip(n6_tables, forms, sigma, aut):
            cf = canonical_form(t)
            assert cf.table.rho == tuple(form.tolist())
            assert cf.perm == tuple((s + 1).tolist()) and cf.aut_order == a

    def test_empty_block(self):
        for n in range(4):
            forms, sigma, aut = canonical_forms(
                np.empty((0, 1 << n), dtype=np.uint8), n)
            assert forms.shape == (0, 1 << n) and sigma.shape == (0, n)
            assert len(aut) == 0

    @pytest.mark.parametrize("rows", [[[0, 256]], [[0, -1]], [[0, 1000]]])
    def test_ranks_beyond_a_byte_rejected(self, rows):
        with pytest.raises(ValueError, match="one byte"):
            canonical_forms(np.array(rows), 1)

    def test_wider_integer_rows(self, cats3):
        for cat in cats3:
            block = np.array([e.table.rho for e in cat.entries])
            for dtype in (np.int16, np.int64):
                got = canonical_forms(block.astype(dtype), cat.n)
                ref = canonical_forms(block.astype(np.uint8), cat.n)
                for x, y in zip(got, ref):
                    assert np.array_equal(x, y)

    @pytest.mark.parametrize("rows, n", [(np.zeros((2, 4)), 2),
                                         (np.zeros((2, 8), dtype=int), 2),
                                         (np.zeros(4, dtype=int), 2)])
    def test_bad_shapes_rejected(self, rows, n):
        with pytest.raises(ValueError):
            canonical_forms(rows, n)


class TestCanonicalFormsAboveSix:
    def test_n7_extension_blocks_match_canonical_bytes(self, cats5):
        # extension tables of a few X_6 parents (the first child of
        # every 150th X_5 entry), each under a random relabeling: parents
        # with six singleton ranks equal give rows of 720 and 5,040
        # candidates, the rest fewer
        rng = random.Random(7)
        tables = []
        for e in cats5[5].entries[::150]:
            records, _parts = extensions_of_parent(e.table)
            parent = RankTable(6, 2, tuple(records[0, :64].tolist()))
            lattice = flats(parent)
            parts = enumerate_extensible_partitions(parent, lattice)
            build = extension_builder(parent, lattice)
            for i in rng.sample(range(len(parts)), min(20, len(parts))):
                perm = list(range(7))
                rng.shuffle(perm)
                tables.append(relabel(
                    RankTable(7, 2, tuple(build(parts[i]).tolist())), perm))
        forms, sigma, aut = canonical_forms(
            np.array([t.rho for t in tables]), 7)
        paths = Counter()
        for t, form, s, a in zip(tables, forms, sigma.tolist(), aut):
            assert canonical_bytes(bytes(t.rho), 7) == \
                (form.tobytes(), tuple(s), a)
            assert relabel(t, s).rho == tuple(form.tolist())
            paths[_candidate_count(t) > _SLICE_ROWS, a > 1] += 1
        assert len(paths) == 4 and min(paths.values()) >= 3

    def test_n8_zero_and_free_tables(self):
        # every relabeling fixes them: the largest row, 8! pairs at the
        # last level, which the budget cannot split
        for rho in ([0] * 256, [2 * m.bit_count() for m in range(256)]):
            forms, sigma, aut = canonical_forms(np.array([rho]), 8)
            assert forms.tolist() == [rho] and aut.tolist() == [40320]
            assert sigma.tolist() == [list(range(8))]
            assert canonical_bytes(bytes(rho), 8) == \
                (bytes(rho), tuple(range(8)), 40320)

    def test_n8_random_tables_match_every_relabeling(self):
        # random byte tables, a third with all eight singleton ranks
        # equal (8! candidates): the form is the least of all 8!
        # relabeled tables, and aut counts the relabelings reaching it
        rng = np.random.default_rng(8)
        tables = rng.integers(0, 3, (12, 256)).astype(np.uint8)
        tables[:4, [1 << j for j in range(8)]] = 1
        forms, sigma, aut = canonical_forms(tables, 8)
        gather = _all_relabelings_fast(8)
        for t, form, s, a in zip(tables, forms, sigma.tolist(), aut):
            buf = t[gather].tobytes()
            images = [buf[i:i + 256] for i in range(0, len(buf), 256)]
            best = min(images)
            assert (form.tobytes(), a) == (best, images.count(best))
            table = RankTable(8, 2, tuple(t.tolist()))
            assert relabel(table, s).rho == tuple(form.tolist())


class TestIsomorphic:
    def test_relabelings_are_isomorphic(self, two_lines):
        assert isomorphic(two_lines, relabel(two_lines, (1, 0)))

    def test_distinct_tables(self, two_lines):
        assert not isomorphic(two_lines, RankTable(2, 2, (0, 2, 2, 4)))

    def test_different_sizes(self, two_lines, three_lines):
        assert not isomorphic(two_lines, three_lines)


class TestAnchoredForms:
    def test_rejects_rows_not_extending_the_parent(self, two_lines):
        lattice = flats(two_lines)
        rows = enumerate_extensible_partitions(two_lines, lattice)
        tables = extension_builder(two_lines, lattice)(rows)
        parent = bytes(two_lines.rho)
        shared = canon.parent_prefixes(parent)
        forms, aut = anchored_forms(tables, parent, shared)
        assert len(forms) == len(aut) > 0
        other = tables.copy()
        other[-1, 1] += 1
        for bad in (tables.astype(np.int64), tables[:, :4], tables[0],
                    other):
            with pytest.raises(ValueError):
                anchored_forms(bad, parent, shared)

    def test_empty_block(self, cats3):
        for cat in cats3:
            parent = cat.entries[-1].table
            empty = np.empty((0, 2 << parent.n), dtype=np.uint8)
            pb = bytes(parent.rho)
            forms, aut = anchored_forms(empty, pb,
                                        canon.parent_prefixes(pb))
            assert forms.dtype == np.uint8
            assert forms.shape == (0, 2 << parent.n) and len(aut) == 0

    def test_parent_not_canonical_keeps_no_row(self, cats5):
        # the extensions of a relabeled parent that is not the canonical
        # one all have canonical forms starting below it
        parents = 0
        for e in cats5[4].entries[::5]:
            parent = relabel(e.table, (1, 2, 3, 0))
            if parent.rho == e.table.rho:
                continue
            lattice = flats(parent)
            tables = extension_builder(parent, lattice)(
                enumerate_extensible_partitions(parent, lattice))
            pb = bytes(parent.rho)
            shared = canon.parent_prefixes(pb)
            forms, aut = anchored_forms(tables, pb, shared)
            assert shared is None and len(tables) > 0
            assert forms.shape == (0, 2 << parent.n) and len(aut) == 0
            parents += 1
        assert parents >= 40


class TestLabeledCount:
    def test_orbit_sizes(self):
        assert labeled_count(2, 2) == 1
        assert labeled_count(3, 1) == 6
        assert labeled_count(3, 6) == 1

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            labeled_count(3, 4)

    @pytest.mark.parametrize("aut", [0, -2])
    def test_orders_below_one_rejected(self, aut):
        with pytest.raises(ValueError, match="does not divide"):
            labeled_count(3, aut)

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
