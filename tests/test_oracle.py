import hashlib
import itertools

import numpy as np
import pytest

from polycat import Catalog, CatalogEntry, RankTable, flats, oracle, validate
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)
from polycat.oracle import (
    brute_extensions,
    brute_labeled_count,
    cross_check,
)
from tests.test_core import all_tables

# sha256 over the concatenated bytes of the rows of brute_extensions of
# every X_4 entry, in catalog order (14,100 tables)
X4_EXTENSIONS_SHA256 = (
    "78ace02df39c2ffaecc913297b4269092a580584ff61baac9dd70147866b43f8")


def _record_blocks(monkeypatch, cap):
    """Set _SEARCH_ENTRIES to cap and return a list that then collects
    the shape of every leaf block _search passes on."""
    monkeypatch.setattr(oracle, "_SEARCH_ENTRIES", cap)
    blocks = []
    search = oracle._search

    def recording(rho, masks, n, k, leaf):
        def record(rows):
            blocks.append(rows.shape)
            leaf(rows)
        search(rho, masks, n, k, record)

    monkeypatch.setattr(oracle, "_search", recording)
    return blocks


def _reversed_masks(n):
    """The masks by size, largest bitmask first within a size: an
    admissible order (subsets before supersets) other than the
    increasing one that brute_labeled_count assigns."""
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), -m))


def _rows(tables):
    return [tuple(r) for r in tables.tolist()]


class TestSearch:
    @pytest.mark.parametrize("n, k, count", [(2, 2, 14), (3, 2, 115),
                                             (3, 1, 16)])
    def test_matches_filter_over_all_tuples(self, n, k, count):
        # every tuple under the cardinality cap, in lexicographic order,
        # kept when validate accepts it
        ranges = [range(1)] + [range(k * m.bit_count() + 1)
                               for m in range(1, 1 << n)]
        valid = [rho for rho in itertools.product(*ranges)
                 if validate(RankTable(n, k, rho)) is None]
        assert len(valid) == count
        assert [t.rho for t in all_tables(n, k)] == valid
        # by size, same-size masks are assigned a run at a time, and the
        # tables come out lexicographic in the order of assignment
        masks = _reversed_masks(n)
        out = []
        oracle._search([0] * (1 << n), masks, n, k,
                       lambda rows: out.extend(_rows(rows)))
        assert out == sorted(valid, key=lambda rho: [rho[m] for m in masks])

    def test_split_frontier_keeps_results_and_order(self, cats3,
                                                    monkeypatch):
        def run():
            return (brute_labeled_count(4, 2),
                    len(oracle._brute_classes(4, 2)[0]),
                    [_rows(brute_extensions(e.table))
                     for e in cats3[3].entries])

        whole = run()
        cap = 64
        blocks = _record_blocks(monkeypatch, cap)
        assert run() == whole
        # unsplit, each of the 2 + |X_3| searches is one leaf block
        assert len(blocks) > 2 + len(cats3[3])
        # the children of one row (at most k + 1 = 3 tables of 16
        # entries) fit the cap, so every block does
        assert max(r * c for r, c in blocks) <= cap

    def test_single_row_frontiers(self, monkeypatch):
        whole = all_tables(3)
        blocks = _record_blocks(monkeypatch, 1)
        assert all_tables(3) == whole
        # every frontier is split down to one row, whose children are
        # at most k + 1 tables
        assert len(blocks) > 1 and max(r for r, _ in blocks) <= 3

    def test_x4_extensions_pinned(self, cats5):
        h = hashlib.sha256()
        count = 0
        for e in cats5[4].entries:
            for rho in brute_extensions(e.table).tolist():
                h.update(bytes(rho))
                count += 1
        assert count == 14100
        assert h.hexdigest() == X4_EXTENSIONS_SHA256


class TestRuns:
    ORDERS = [lambda n: list(range(1, 1 << n)), _reversed_masks,
              lambda n: sorted(range(1, 1 << n), key=int.bit_count)]

    @pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 2), (5, 1)])
    @pytest.mark.parametrize("budget", [1, 64, oracle._SEARCH_ENTRIES])
    def test_runs_are_same_size_masks_within_budget(self, n, k, budget):
        size, pairs = 1 << n, (k + 1) * (k + 2) // 2
        for order in self.ORDERS:
            masks = tuple(order(n))
            runs = oracle._runs(masks, k, size, budget)
            assert [m for r in runs for m in r[0].tolist()] == list(masks)
            for i, (run, cap, _gather, s, p) in enumerate(runs):
                run = run.tolist()
                assert {m.bit_count() for m in run} == {s}
                assert cap == k * s and p == s * (s - 1) // 2
                c = len(run)
                assert c == 1 or max((k + 1) ** c * size, pairs ** c) <= budget
                # a run is cut only where the next mask would not fit
                nxt = runs[i + 1][0][0] if i + 1 < len(runs) else None
                if nxt is not None and int(nxt).bit_count() == s:
                    assert max((k + 1) ** (c + 1) * size,
                               pairs ** (c + 1)) > budget

    def test_extension_runs(self):
        # brute_extensions' order at n = 4 -> 5: the new element, then
        # its unions with 1, 2, 3 and 4 old elements
        masks = tuple(sorted((m | 16 for m in range(16)), key=int.bit_count))
        runs = oracle._runs(masks, 2, 32, oracle._SEARCH_ENTRIES)
        assert [len(r[0]) for r in runs] == [1, 4, 6, 4, 1]

    def test_budget_one_gives_single_masks(self):
        runs = oracle._runs(tuple(_reversed_masks(5)), 2, 32, 1)
        assert len(runs) == 31 and all(len(r[0]) == 1 for r in runs)

    def test_digit_table_is_lexicographic(self):
        radix, counts, ends, table = oracle._digits(2, 3)
        assert table.dtype == np.uint8
        for w in itertools.product(range(4), repeat=3):
            code = np.array(w) @ radix
            got = table[ends[code] - counts[code]:ends[code]].tolist()
            assert got == [list(d) for d in
                           itertools.product(*map(range, w))]


class TestBruteLabeledCount:
    def test_two_elements(self):
        total, per_rank = brute_labeled_count(2, 2)
        assert total == 14
        assert per_rank == [1, 3, 6, 3, 1]

    def test_three_elements(self):
        total, per_rank = brute_labeled_count(3, 2)
        assert total == 115
        assert per_rank == [1, 7, 29, 41, 29, 7, 1]

    def test_four_elements(self):
        total, _ = brute_labeled_count(4, 2)
        assert total == 2040

    def test_empty_ground_set(self):
        assert brute_labeled_count(0, 2) == (1, [1])

    def test_matroid_cap(self):
        # labeled matroids on three elements
        assert brute_labeled_count(3, 1)[0] == 16


class TestBruteExtensions:
    def test_empty_parent(self):
        exts = brute_extensions(RankTable(0, 2, (0,)))
        assert sorted(_rows(exts)) == [(0, 0), (0, 1), (0, 2)]

    def test_single_line(self):
        exts = brute_extensions(RankTable(1, 2, (0, 2)))
        assert len(exts) == 6

    def test_matches_partition_extensions(self, two_lines):
        brute = set(_rows(brute_extensions(two_lines)))
        lattice = flats(two_lines)
        rows = enumerate_extensible_partitions(two_lines, lattice)
        built = extension_builder(two_lines, lattice)(rows)
        assert brute == set(map(tuple, built.tolist()))

    def test_parent_half_fixed(self, three_lines):
        for rho in _rows(brute_extensions(three_lines)):
            assert rho[:8] == three_lines.rho


class TestBruteClassCount:
    def test_paper_counts(self):
        assert [len(oracle._brute_classes(n, 2)[0]) for n in range(6)] == [
            1, 3, 10, 40, 228, 2380]

    def test_ranks_beyond_a_byte_rejected(self):
        # ranks up to 300 would wrap modulo 256 in a byte
        assert len(oracle._brute_classes(1, 255)[0]) == 256
        with pytest.raises(ValueError, match="one byte"):
            oracle._brute_classes(1, 300)


class TestCrossCheck:
    def test_catalogs_pass(self, cats3):
        report = cross_check(cats3)
        assert report.ok
        assert report.first_witness is None
        assert [r[0] for r in report.rows] == [0, 1, 2, 3]
        for _n, brute, labeled, classes, size in report.rows:
            assert brute == labeled and classes == size

    def test_one_brute_enumeration_per_n(self, cats3, monkeypatch):
        # the class search counts the labeled tables too; the only other
        # searches are brute_extensions, one per parent with n <= 3
        calls = []
        search = oracle._search

        def counting(rho, *args):
            calls.append(len(rho))
            return search(rho, *args)

        def no_labeled_count(*args, **kwargs):
            raise AssertionError("brute_labeled_count called")

        monkeypatch.setattr(oracle, "_search", counting)
        monkeypatch.setattr(oracle, "brute_labeled_count", no_labeled_count)
        report = cross_check(cats3)
        whole = [1 << n for n in range(4)]
        extensions = [2 << cat.n for cat in cats3 for _ in cat.entries]
        assert sorted(calls) == sorted(whole + extensions)
        assert report.ok
        assert [r[1] for r in report.rows] == [1, 3, 14, 115]

    def test_brute_classes_count_the_labeled_tables(self):
        for n, k in ((0, 2), (2, 1), (3, 1), (3, 2), (4, 2)):
            _classes, labeled = oracle._brute_classes(n, k)
            assert labeled == brute_labeled_count(n, k)[0]

    def test_missing_catalog_reported(self, cats3):
        report = cross_check(cats3[:2], n_max=2)
        assert not report.ok
        assert "missing" in report.first_witness

    def test_swapped_class_reported(self, cats3):
        # X_3 with its class 6 replaced by class 17: the class counts and
        # labeled totals still agree, the classes do not
        x3 = cats3[3]
        assert x3.ranks[6].tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        entries = list(x3.entries)
        entries[6] = entries[17]
        swapped = Catalog(3, 2, entries)
        report = cross_check(list(cats3[:3]) + [swapped])
        assert not report.ok
        assert [r[3:] for r in report.rows] == [(1, 1), (3, 3), (10, 10),
                                                (40, 40)]
        assert report.first_witness == (
            "class mismatch at n=3: catalog lacks 0 0 1 1 2 2 3 3 aut=1")

    def test_wrong_aut_reported(self, cats3):
        entries = list(cats3[2].entries)
        first = entries[0]
        assert first.aut_order == 2
        entries[0] = CatalogEntry(first.table, 1)
        entries[1] = CatalogEntry(entries[1].table, 2)
        cat = Catalog(2, 2, entries)
        assert cat.labeled_total() == cats3[2].labeled_total()
        report = cross_check(list(cats3[:2]) + [cat])
        assert not report.ok
        assert report.first_witness == (
            "class mismatch at n=2: catalog has extra 0 0 0 0 aut=1")

    def test_as_text_and_csv(self, cats3):
        report = cross_check(cats3)
        text = report.as_text()
        assert text.strip().endswith("ok")
        csv = report.as_csv()
        assert csv.splitlines()[1] == "0,1,1,1,1"
