import hashlib
import itertools

import numpy as np
import pytest

from polycat import RankTable, flats, validate
from polycat.core import MAX_K, modular_defect
from polycat.extensions import (
    _check_general,
    _check_seven,
    _flat_tables,
    _frontier,
    _partitions_by_filter,
    check_partition,
    enumerate_extensible_partitions,
    extension_builder,
    extend,
    extension_flats,
    mu_of_set,
)
from polycat.oracle import brute_extensions

# partitions below are mu-vectors over sorted flats; for two free lines
# the flat order is (empty, {a}, {b}, {a,b})
THREE_LINES_PARTITION = (2, 1, 1, 0)


def _flat_order(rows):
    """Partition rows sorted lexicographically in flat order, the order
    _partitions_by_filter gives."""
    return rows[np.lexsort(rows.T[::-1])]


class TestMuOfSet:
    def test_pair_reads_top_flat(self, two_lines):
        lat = flats(two_lines)
        assert mu_of_set(two_lines, lat, THREE_LINES_PARTITION, 0b11) == 0

    def test_empty_set(self, two_lines):
        lat = flats(two_lines)
        assert mu_of_set(two_lines, lat, THREE_LINES_PARTITION, 0) == 2

    def test_flat_reads_directly(self, cats3):
        for e in cats3[2].entries:
            t = e.table
            lat = flats(t)
            for p in enumerate_extensible_partitions(t, lat):
                for i, f in enumerate(lat.flats):
                    assert mu_of_set(t, lat, p, f) == p[i]

    def test_monotone_under_inclusion(self, cats3):
        for e in cats3[3].entries:
            t = e.table
            lat = flats(t)
            for p in enumerate_extensible_partitions(t, lat):
                for x in range(8):
                    for y in range(8):
                        if x & y == x:
                            assert (mu_of_set(t, lat, p, x)
                                    >= mu_of_set(t, lat, p, y))


class TestCheckPartition:
    def test_three_lines_partition_ok(self, two_lines):
        assert check_partition(two_lines, THREE_LINES_PARTITION) is None

    def test_all_zero_is_modular_cut_extension(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                zero = (0,) * len(lat)
                assert check_partition(e.table, zero, lat) is None

    def test_verdicts_match_extension_validity(self, two_lines):
        # every assignment either passes and induces a valid extension,
        # or fails and induces an invalid table (oracle = validate)
        lat = flats(two_lines)
        build = extension_builder(two_lines, lat)
        for mu in itertools.product(range(3), repeat=4):
            verdict = check_partition(two_lines, mu, lat)
            ext = RankTable(3, 2, tuple(build(mu).tolist()))
            assert (verdict is None) == (validate(ext) is None), mu

    def test_down_closure_violation_reported(self, two_lines):
        # empty flat in M_1 under a flat in M_2 breaks down-closure
        bad = (1, 2, 1, 0)
        v = check_partition(two_lines, bad)
        assert v is not None and v.condition == "6"

    def test_up_closure_violation_reported(self, two_lines):
        bad = (0, 1, 1, 1)
        v = check_partition(two_lines, bad)
        assert v is not None and v.condition == "7"

    def test_seven_conditions_match_general_three(self, cats3):
        for cat in cats3[:3]:
            for e in cat.entries:
                lat = flats(e.table)
                for mu in itertools.product(range(3), repeat=len(lat)):
                    seven = _check_seven(e.table, lat, mu)
                    general = _check_general(e.table, lat, mu)
                    assert (seven is None) == (general is None), (
                        e.table.rho, mu, seven, general)

    def test_rejects_bad_class_index(self, two_lines):
        with pytest.raises(ValueError):
            check_partition(two_lines, (0, 0, 0, 3))
        with pytest.raises(ValueError):
            check_partition(two_lines, (0, 0))


class TestEnumerate:
    def test_empty_polymatroid(self):
        parts = enumerate_extensible_partitions(RankTable(0, 2, (0,)))
        assert parts.tolist() == [[0], [1], [2]]

    def test_single_line(self):
        # flats ({}, {1}); search order assigns {1} first
        parts = enumerate_extensible_partitions(RankTable(1, 2, (0, 2)))
        assert parts.dtype == np.int8
        assert parts.tolist() == [
            [0, 0], [1, 0], [2, 0], [1, 1], [2, 1], [2, 2]]

    def test_matches_filter_reference_path(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                if len(lat) > 12:
                    continue
                fast = enumerate_extensible_partitions(e.table, lat)
                slow = _partitions_by_filter(e.table, lat)
                assert fast.dtype == slow.dtype
                assert np.array_equal(_flat_order(fast), slow), e.table.rho

    def test_sorted_and_unique(self, cats3):
        # rows read in search order (flats by decreasing size, ties by
        # flat index) are strictly increasing, so also unique
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                order = [i for _, i in sorted(
                    (-f.bit_count(), i) for i, f in enumerate(lat.flats))]
                rows = enumerate_extensible_partitions(e.table, lat)
                mus = list(map(tuple, rows[:, order].tolist()))
                assert all(a < b for a, b in zip(mus, mus[1:])), e.table.rho

    def test_heavy_lattice_pinned(self):
        # a canonical n=6 parent with 60 flats; the count and digest
        # were taken from the earlier recursive search
        heavy = RankTable(6, 2, tuple(map(int, (
            "0 1 1 2 1 2 2 3 1 2 2 3 2 3 3 4 2 3 3 4 3 4 4 5 3 4 4 5 4 5 5 6 "
            "2 3 3 4 3 4 4 5 3 4 4 5 4 5 5 6 4 5 5 6 5 6 6 7 5 6 6 7 6 7 7 7"
        ).split())))
        lat = flats(heavy)
        assert len(lat) == 60
        parts = enumerate_extensible_partitions(heavy, lat)
        assert len(parts) == 5480
        digest = hashlib.sha256(_flat_order(parts).tobytes())
        assert digest.hexdigest() == (
            "9ea986d64d3436c66527a0e455c3ac81947bd84e16f2e684f65d0beae7696fca")
        for p in parts[::20]:
            assert check_partition(heavy, p, lat) is None

    def test_folded_filter_reaches_the_final_compress(self, cats3):
        # rows whose bounds emptied after the last expansion are dropped
        # by the one compress at the end; some parent that
        # test_matches_filter_reference_path compares ends that way
        reached = 0
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                if len(lat) > 12:
                    continue
                _, live = _frontier(e.table, lat)
                if live is not None:
                    assert not live.all()
                    reached += 1
        assert reached

    def test_large_k_matches_filter(self):
        # k(n+2) = 155: bounds this wide do not fit in int8; each table
        # has two flats, the empty set and the ground set
        for rank in (MAX_K, 20):
            table = RankTable(3, MAX_K, (0,) + (rank,) * 7)
            lat = flats(table)
            assert len(lat) == 2
            fast = enumerate_extensible_partitions(table, lat)
            slow = _partitions_by_filter(table, lat)
            assert fast.dtype == slow.dtype == np.int64
            assert np.array_equal(_flat_order(fast), slow)
            assert len(fast) > 100


class TestFlatTables:
    def test_padded_runs_hold_each_meets_pairs(self, cats5):
        unequal = False
        for e in cats5[4].entries:
            t = e.table
            lat = flats(t)
            fl, cl = lat.flats, lat.closure
            search = sorted(range(len(fl)), key=lambda i: -fl[i].bit_count())
            tables = _flat_tables(t, lat, np.int8)
            assert [tab[0] for tab in tables] == search
            for p, (a, subs, hsubs, gap, pair, defect, meets) in enumerate(
                    tables):
                f = fl[a]
                subs = subs.tolist()
                assert sorted(subs) == [
                    i for i, g in enumerate(fl) if g != f and g & f == g]
                assert hsubs.tolist() == [
                    search.index(s) - p - 1 for s in subs]
                assert gap[:, 0].tolist() == [
                    t.rho[f] - t.rho[fl[s]] for s in subs]
                # every pair (a, b), b assigned earlier, that (I) can cut
                # at, grouped by meet
                want = {}
                for b in search[:p]:
                    g = fl[b]
                    d = modular_defect(t, f, g)
                    if f & g not in (f, g) and d < t.k:
                        want.setdefault(cl[f & g], []).append(
                            (b, cl[f | g], d))
                assert sorted(subs[:meets]) == sorted(want)
                if not meets:
                    assert pair.shape[1] == len(defect) == 0
                    continue
                runs = zip(pair[0].reshape(meets, -1).tolist(),
                           pair[1].reshape(meets, -1).tolist(),
                           defect.reshape(meets, -1).tolist())
                lengths = set()
                for meet, run in zip(subs, runs):
                    run = list(zip(*run))
                    n = len(want[meet])
                    # the run's own pairs, then its last pair repeated
                    assert sorted(run[:n]) == sorted(want[meet])
                    assert run[n:] == run[n - 1:n] * (len(run) - n)
                    lengths.add(n)
                unequal = unequal or len(lengths) > 1
        assert unequal


class TestExtend:
    def test_three_free_lines(self, two_lines, three_lines):
        ext = extend(two_lines, THREE_LINES_PARTITION)
        assert ext.rho == three_lines.rho

    def test_loop_extension(self, cats3):
        for e in cats3[3].entries:
            lat = flats(e.table)
            zero = (0,) * len(lat)
            ext = extend(e.table, zero, lat)
            assert ext.rho[8:] == e.table.rho
            assert ext.rank == e.table.rank

    def test_single_line_top_class(self):
        line = RankTable(1, 2, (0, 2))
        ext = extend(line, (2, 2))
        assert ext.rho == (0, 2, 2, 4)
        assert validate(ext) is None

    def test_restriction_and_validity(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                half = 1 << cat.n
                for p in enumerate_extensible_partitions(e.table, lat):
                    ext = extend(e.table, p, lat)
                    assert ext.rho[:half] == e.table.rho
                    assert validate(ext) is None

    def test_rejects_non_extensible(self, two_lines):
        with pytest.raises(ValueError):
            extend(two_lines, (0, 1, 1, 1))

    def test_builder_block_matches_single_rows(self, cats3):
        for e in cats3[3].entries:
            lat = flats(e.table)
            rows = enumerate_extensible_partitions(e.table, lat)
            build = extension_builder(e.table, lat)
            tables = build(rows)
            assert tables.dtype == np.uint8
            assert tables.shape == (len(rows), 16)
            for mu, table in zip(rows, tables):
                assert np.array_equal(build(mu), table)
                assert tuple(table.tolist()) == extend(e.table, mu, lat).rho


class TestExtensionFlats:
    def test_three_free_lines(self, two_lines):
        got = extension_flats(two_lines, THREE_LINES_PARTITION)
        assert got == (0b000, 0b001, 0b010, 0b100, 0b111)

    def test_loop_extension_augments_every_flat(self, cats3):
        for e in cats3[2].entries:
            lat = flats(e.table)
            zero = (0,) * len(lat)
            got = extension_flats(e.table, zero, lat)
            assert got == tuple(sorted(f | 0b100 for f in lat.flats))

    def test_empty_parent(self):
        empty = RankTable(0, 2, (0,))
        assert extension_flats(empty, (2,)) == (0, 1)

    def test_agrees_with_flats_of_extension(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                for p in enumerate_extensible_partitions(e.table, lat):
                    direct = extension_flats(e.table, p, lat)
                    recomputed = flats(extend(e.table, p, lat)).flats
                    assert direct == recomputed, (e.table.rho, p)


class TestBijection:
    def test_extensions_equal_brute_force(self, cats3):
        # Every valid table on n+1 elements restricting to the parent is
        # produced by exactly one extensible partition, and vice versa.
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                parts = enumerate_extensible_partitions(e.table, lat)
                built = [extend(e.table, p, lat).rho for p in parts]
                assert len(set(built)) == len(built)
                brute = set(map(tuple, brute_extensions(e.table).tolist()))
                assert set(built) == brute, e.table.rho

    def test_matroid_case_reduces_to_modular_cuts(self):
        # k=1: partitions are exactly (M_0, M_1) with M_0 a modular cut,
        # and they biject with brute-force matroid extensions
        from polycat import enumerate_all

        for cat in enumerate_all(3, 1):
            for e in cat.entries:
                t = e.table
                lat = flats(t)
                parts = enumerate_extensible_partitions(t, lat)
                built = {extend(t, p, lat).rho for p in parts}
                assert built == set(map(tuple, brute_extensions(t).tolist()))
                for p in parts:
                    m0 = [lat.flats[i] for i, v in enumerate(p) if v == 0]
                    for f in m0:
                        for g in lat.flats:
                            if f & g == f:
                                assert g in m0  # up-closed
                    for f in m0:
                        for g in m0:
                            if (t.rho[f] + t.rho[g]
                                    == t.rho[f | g] + t.rho[f & g]):
                                assert f & g in m0  # modular pairs meet

