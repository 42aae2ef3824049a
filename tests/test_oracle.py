import pytest

from polycat import RankTable
from polycat.extensions import enumerate_extensible_partitions, extend
from polycat.oracle import (
    brute_extensions,
    brute_labeled_count,
    cross_check,
)


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
        built = {
            extend(two_lines, p).rho
            for p in enumerate_extensible_partitions(two_lines)
        }
        assert brute == built

    def test_parent_half_fixed(self, three_lines):
        for t in brute_extensions(three_lines):
            assert t.rho[:8] == three_lines.rho


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
