import hashlib
import itertools

import pytest

from polycat import RankTable, flats, oracle, validate
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)
from polycat.oracle import (
    _brute_class_count,
    brute_extensions,
    brute_labeled_count,
    cross_check,
)
from tests.test_core import all_tables

# sha256 over the concatenated bytes(rho) of brute_extensions of every
# X_4 entry, in catalog order (14,100 tables)
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

    def test_split_frontier_keeps_results_and_order(self, cats3,
                                                    monkeypatch):
        def run():
            return (brute_labeled_count(4, 2), _brute_class_count(4, 2),
                    [[t.rho for t in brute_extensions(e.table)]
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
            for t in brute_extensions(e.table):
                h.update(bytes(t.rho))
                count += 1
        assert count == 14100
        assert h.hexdigest() == X4_EXTENSIONS_SHA256


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

    def test_order_invariance(self):
        for n in range(4):
            fwd = brute_labeled_count(n, 2, order="forward")
            rev = brute_labeled_count(n, 2, order="reversed")
            assert fwd == rev

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            brute_labeled_count(2, 2, order="sideways")


class TestBruteExtensions:
    def test_empty_parent(self):
        exts = brute_extensions(RankTable(0, 2, (0,)))
        assert sorted(t.rho for t in exts) == [(0, 0), (0, 1), (0, 2)]

    def test_single_line(self):
        exts = brute_extensions(RankTable(1, 2, (0, 2)))
        assert len(exts) == 6

    def test_matches_partition_extensions(self, two_lines):
        brute = {t.rho for t in brute_extensions(two_lines)}
        lattice = flats(two_lines)
        rows = enumerate_extensible_partitions(two_lines, lattice)
        built = extension_builder(two_lines, lattice)(rows)
        assert brute == set(map(tuple, built.tolist()))

    def test_parent_half_fixed(self, three_lines):
        for t in brute_extensions(three_lines):
            assert t.rho[:8] == three_lines.rho


class TestBruteClassCount:
    def test_paper_counts(self):
        assert [_brute_class_count(n, 2) for n in range(6)] == [
            1, 3, 10, 40, 228, 2380]

    def test_ranks_beyond_a_byte_rejected(self):
        # ranks up to 300 would wrap modulo 256 in a byte
        assert _brute_class_count(1, 255) == 256
        with pytest.raises(ValueError, match="one byte"):
            _brute_class_count(1, 300)


class TestCrossCheck:
    def test_catalogs_pass(self, cats3):
        report = cross_check(cats3)
        assert report.ok
        assert report.first_witness is None
        assert [r[0] for r in report.rows] == [0, 1, 2, 3]
        for _n, brute, labeled, classes, size in report.rows:
            assert brute == labeled and classes == size

    def test_missing_catalog_reported(self, cats3):
        report = cross_check(cats3[:2], n_max=2)
        assert not report.ok
        assert "missing" in report.first_witness

    def test_as_text_and_csv(self, cats3):
        report = cross_check(cats3)
        text = report.as_text()
        assert text.strip().endswith("ok")
        csv = report.as_csv()
        assert csv.splitlines()[1] == "0,1,1,1,1"
