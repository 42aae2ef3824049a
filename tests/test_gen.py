import dataclasses
import itertools
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import polycat
from polycat import (
    RankTable,
    base_catalog,
    canon,
    count_table,
    duality_check,
    enumerate_all,
    filter_count,
    gen,
    generate_next,
    read_catalog,
    write_catalog,
)
from polycat.canon import apply_mask_perm, canonical_bytes, canonical_form
from polycat.core import MAX_K, MAX_N, flats, min_element_rank
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)
from polycat.gen import (
    extensions_of_parent,
    flat_automorphisms,
    generate_next_stream,
    orbit_representatives,
    swap_witness,
)


def _reference_extensions(parent):
    """The acceptance rule in its plain form: canonicalize every
    extension, canonicalize the deletion of its last element, and accept
    when that is the parent; no prefilter."""
    n = parent.n
    lattice = flats(parent)
    parts = enumerate_extensible_partitions(parent, lattice)
    build = extension_builder(parent, lattice)
    accepted = {}
    for part in parts:
        cb, _sigma, aut = canonical_bytes(build(part).tobytes(), n + 1)
        deleted, _s, _a = canonical_bytes(cb[:1 << n], n)
        if deleted == bytes(parent.rho):
            accepted[cb] = aut
    out = [(tuple(cb), aut) for cb, aut in sorted(accepted.items())]
    return out, len(parts)


def _decoded(records):
    """(rho, aut) for each row of a record matrix: the rank bytes, then
    the aut order as 4 big-endian bytes."""
    return [(tuple(row[:-4]), int.from_bytes(row[-4:], "big"))
            for row in map(bytes, records)]


def _brute_orbit_minima(parent):
    """The lex-min partition of each orbit of Aut(parent), sorted, and
    Aut(parent)'s actions on the flats; the automorphisms are found by
    trying every permutation."""
    n = parent.n
    fl = flats(parent).flats
    index = {f: i for i, f in enumerate(fl)}
    acts = set()
    for p in itertools.permutations(range(n)):
        if all(parent.rho[apply_mask_perm(m, p)] == parent.rho[m]
               for m in range(1 << n)):
            acts.add(tuple(index[apply_mask_perm(f, p)] for f in fl))
    minima = set()
    for part in enumerate_extensible_partitions(parent).tolist():
        minima.add(min(tuple(part[j] for j in a) for a in acts))
    return sorted(minima), acts


@pytest.fixture(scope="module")
def reference_parents(cats5):
    """Every X_0..X_4 entry, every 40th X_5 entry, and n=6 parents with
    Aut of order 48 to 720, where the fold leaves one partition in
    several dozen: the canonical extensions of two X_5 entries with Aut
    of order 120."""
    parents = [e.table for cat in cats5[:5] for e in cat.entries]
    parents += [e.table for e in cats5[5].entries[::40]]
    heavy = []
    for i in (421, 1684):
        acc, _ = extensions_of_parent(cats5[5].entries[i].table)
        heavy += [RankTable(6, 2, rho) for rho, aut in _decoded(acc)
                  if aut >= 48]
    assert len(heavy) == 9
    return parents + heavy


@pytest.fixture(scope="module")
def witnessed_rows(reference_parents):
    """Per reference parent: the parent, its orbit-representative rows
    (before the singleton-rank prefilter), their extension tables, the
    swap witness's verdict on each and which rows pass the prefilter."""
    out = []
    for parent in reference_parents:
        lattice = flats(parent)
        rows = enumerate_extensible_partitions(parent, lattice)
        rows = orbit_representatives(rows,
                                     flat_automorphisms(parent, lattice))
        top = max((parent.rho[1 << j] for j in range(parent.n)), default=0)
        out.append((parent, rows, extension_builder(parent, lattice)(rows),
                    swap_witness(parent, lattice)(rows),
                    rows[:, 0] >= top))
    return out


class TestGeneration:
    def test_base_catalog(self):
        cat = base_catalog(2)
        assert cat.n == 0 and cat.k == 2
        assert [e.table.rho for e in cat.entries] == [(0,)]

    def test_class_counts(self, cats5):
        assert [len(c) for c in cats5] == [1, 3, 10, 40, 228, 2380]

    def test_rank_histograms(self, cats5):
        assert cats5[2].rank_counts() == [1, 2, 4, 2, 1]
        assert cats5[3].rank_counts() == [1, 3, 10, 12, 10, 3, 1]

    def test_one_element_catalog(self, cats5):
        assert [e.table.rho for e in cats5[1].entries] == [
            (0, 0), (0, 1), (0, 2)]

    def test_matroid_counts(self):
        cats = enumerate_all(4, 1)
        assert [len(c) for c in cats] == [1, 2, 4, 8, 17]

    def test_entries_sorted_canonical_with_aut(self, cats3):
        for cat in cats3:
            rhos = [e.table.rho for e in cat.entries]
            assert rhos == sorted(set(rhos))
            for e in cat.entries:
                cf = canonical_form(e.table)
                assert cf.table.rho == e.table.rho
                assert cf.aut_order == e.aut_order

    def test_completeness_small_n(self, cats3):
        # every valid labeled table is isomorphic to a catalog entry
        from polycat.canon import relabel
        from tests.test_core import all_tables

        for n in range(4):
            reachable = set()
            for e in cats3[n].entries:
                for p in itertools.permutations(range(n)):
                    reachable.add(relabel(e.table, p).rho)
            assert reachable == {t.rho for t in all_tables(n)}

    def test_stats(self, cats5):
        nxt, stats = generate_next(cats5[3])
        assert nxt.entries == cats5[4].entries
        assert stats.parents == len(cats5[3])
        assert stats.accepted == len(nxt)
        assert stats.partitions == stats.accepted + stats.rejected
        assert stats.accepted <= stats.canonical <= stats.partitions

    def test_stats_count_the_witnessed_rows(self, cats5):
        nxt, stats = generate_next(cats5[4])
        assert (len(nxt), stats.accepted, stats.canonical) == (2380, 2380,
                                                               5928)
        assert 0 < stats.witnessed
        assert stats.accepted + stats.witnessed <= stats.canonical

    def test_swap_witness_drops_only_rows_below_the_parent(
            self, witnessed_rows):
        # the swap lemma: a dropped row's canonical form starts below
        # the parent, so canonical deletion would reject it too; and the
        # witness drops rows the prefilter keeps at every n >= 2
        dropping = set()
        for parent, _rows, tables, dropped, prefiltered in witnessed_rows:
            half, pb = 1 << parent.n, bytes(parent.rho)
            for table in tables[dropped]:
                cb, _sigma, _aut = canonical_bytes(table.tobytes(),
                                                   parent.n + 1)
                assert cb[:half] < pb
            if (dropped & prefiltered).any():
                dropping.add(parent.n)
        assert dropping == {2, 3, 4, 5, 6}

    def test_swap_witness_keeps_the_anchored_forms(self, witnessed_rows):
        for parent, _rows, tables, dropped, _pre in witnessed_rows:
            pb = bytes(parent.rho)
            every, kept = (canon.anchored_forms(t, pb)
                           for t in (tables, tables[~dropped]))
            assert np.array_equal(every[0], kept[0])
            assert np.array_equal(every[1], kept[1])

    def test_stats_merge_adds_every_field(self):
        a = gen.GenerationStats(1, 10, 3, 7, 0.5, 4)
        a.merge(gen.GenerationStats(2, 20, 5, 15, 1.25, 9))
        assert a == gen.GenerationStats(3, 30, 8, 22, 1.75, 13)

    def test_parallel_matches_serial(self, cats5):
        nxt, stats = generate_next(cats5[3], jobs=2)
        assert nxt.entries == cats5[4].entries
        assert stats.canonical == generate_next(cats5[3])[1].canonical

    def test_pool_batches_only_one_parent_blocks(self, cats5, monkeypatch):
        # a pool task returns its blocks' results at once, so steps with
        # multi-parent blocks (over 1024 parents) send one block per task
        seen = []

        class Pool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                seen.append((max(len(t[1]) for t in tasks), chunksize))
                return iter(())

        monkeypatch.setattr(gen, "ProcessPoolExecutor", Pool)
        for cat in (cats5[4], cats5[5]):
            list(gen._blocks(cat, 2))
        # X_4's 228 parents go in one-parent blocks, 14 to a task; X_5's
        # 2380 go in blocks of 3, one to a task
        assert seen[0] == (1, 228 // 16)
        assert seen[1] == (3, 1)

    def test_failure_propagates_from_generate_next(self, cats5,
                                                   monkeypatch):
        real = gen._worker
        calls = []

        def failing(args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return real(args)

        monkeypatch.setattr(gen, "_worker", failing)
        with pytest.raises(RuntimeError, match="injected"):
            generate_next(cats5[3])
        assert len(calls) == 2

    def test_acceptance_matches_reference_rule(self, reference_parents):
        for parent in reference_parents:
            records, parts = extensions_of_parent(parent)
            assert records.dtype == np.uint8
            assert records.shape[1] == (2 << parent.n) + 4
            assert (_decoded(records), parts) == \
                _reference_extensions(parent)

    def test_anchored_forms_match_canonical_bytes(self, reference_parents,
                                                  monkeypatch):
        # every orbit-representative row, before the prefilter, so that
        # rows rejected by singleton ranks are decided too
        blocks = []
        for parent in reference_parents:
            lattice = flats(parent)
            rows = orbit_representatives(
                enumerate_extensible_partitions(parent, lattice),
                flat_automorphisms(parent, lattice))
            tables = extension_builder(parent, lattice)(rows)
            half, pb = 1 << parent.n, bytes(parent.rho)
            expect = []
            for table in tables:
                cb, _sigma, aut = canonical_bytes(table.tobytes(),
                                                  parent.n + 1)
                if cb[:half] == pb:
                    expect.append((cb, aut))
            blocks.append((tables, pb, expect))
        assert {len(pb) for _t, pb, _e in blocks} == {1, 2, 4, 8, 16, 32, 64}
        assert sum(len(e) for _t, _pb, e in blocks) < \
            sum(len(t) for t, _pb, _e in blocks)
        # the module's budget, one in the middle, where calls split off a
        # level hold both pairs of their own and the shared prefixes, and
        # one so small that every level of a block with two rows or more
        # is split between its rows
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
            for tables, pb, expect in blocks:
                forms, aut = canon.anchored_forms(tables, pb)
                assert forms.dtype == np.uint8
                assert list(zip(map(bytes, forms), aut.tolist())) == expect
            if budget == 64:
                assert any(split_with_pairs)

    def test_shared_prefixes_end_in_the_automorphisms(self, reference_parents):
        for parent in reference_parents:
            pb = bytes(parent.rho)
            levels = canon._shared_prefixes(
                np.frombuffer(pb, dtype=np.uint8), pb)
            assert [a.shape[1] for a in levels] == \
                [1 << j for j in range(parent.n + 1)]
            assert len(levels[0]) == 1
            assert len(levels[-1]) == canonical_form(parent).aut_order
            assert set(map(bytes, levels[-1])) == \
                set(map(bytes, canon.automorphisms(pb, parent.n)))

    def test_fold_keeps_one_row_per_orbit(self, cats5):
        parents = [e.table for e in cats5[4].entries if e.aut_order > 1]
        parents += [cats5[5].entries[i].table for i in (1773, 2298, 2379)]
        for parent in parents:
            lattice = flats(parent)
            acts = flat_automorphisms(parent, lattice)
            minima, brute_acts = _brute_orbit_minima(parent)
            identity = tuple(range(len(lattice)))
            assert set(map(tuple, acts.tolist())) == brute_acts - {identity}
            rows = enumerate_extensible_partitions(parent, lattice)
            reps = orbit_representatives(rows, acts)
            assert sorted(map(tuple, reps.tolist())) == minima

    def test_fold_keeps_every_row_without_automorphisms(self, cats5):
        plain = [e for e in cats5[5].entries if e.aut_order == 1]
        assert len(plain) > 100
        for e in plain[::25]:
            lattice = flats(e.table)
            acts = flat_automorphisms(e.table, lattice)
            rows = enumerate_extensible_partitions(e.table, lattice)
            assert len(acts) == 0
            assert np.array_equal(orbit_representatives(rows, acts), rows)

    def test_fold_pinned(self, cats5):
        entry = cats5[5].entries[2370]
        lattice = flats(entry.table)
        rows = enumerate_extensible_partitions(entry.table, lattice)
        reps = orbit_representatives(rows,
                                     flat_automorphisms(entry.table, lattice))
        assert (entry.aut_order, len(lattice)) == (120, 27)
        assert (len(rows), len(reps)) == (14700, 337)
        _, stats = generate_next(gen.Catalog(5, 2, (entry,)))
        assert (stats.partitions, stats.canonical) == (14700, 264)

    def test_no_caller_reads_the_row_order(self, cats5, monkeypatch):
        # the partition rows reversed give the same records, counts,
        # orbit decisions and cross-check report
        catalogs = [cats5[4]] + [gen.Catalog(5, 2, (cats5[5].entries[i],))
                                 for i in (1773, 2298, 2370, 2379)]

        def outputs():
            parents = [e.table for cat in catalogs for e in cat.entries]
            per_parent = [extensions_of_parent(p) for p in parents]
            steps = [generate_next(cat) for cat in catalogs]
            return ([(acc.tobytes(), parts) for acc, parts in per_parent],
                    [(nxt.ranks.tobytes(), dataclasses.replace(
                        st, wall_time=0.0)) for nxt, st in steps],
                    polycat.cross_check(cats5[:4]))

        before = outputs()
        forward = polycat.extensions.enumerate_extensible_partitions

        def reversed_rows(*args):
            return forward(*args)[::-1].copy()

        monkeypatch.setattr(gen, "enumerate_extensible_partitions",
                            reversed_rows)
        monkeypatch.setattr(polycat.extensions,
                            "enumerate_extensible_partitions", reversed_rows)
        parent = cats5[3].entries[5].table
        assert np.array_equal(
            gen.enumerate_extensible_partitions(parent),
            forward(parent)[::-1])
        assert outputs() == before

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            enumerate_all(2, 3)
        with pytest.raises(ValueError):
            enumerate_all(MAX_N + 1, 2)
        with pytest.raises(ValueError):
            RankTable(MAX_N + 1, 2, (0,) * (1 << (MAX_N + 1)))

    def test_refuses_extending_an_eight_element_parent(self):
        # the extension would have MAX_N + 1 elements and 512 ranks
        zero = RankTable(MAX_N, 1, (0,) * (1 << MAX_N))
        with pytest.raises(ValueError, match=f"beyond {MAX_N} elements"):
            extensions_of_parent(zero)
        with pytest.raises(ValueError, match=f"beyond {MAX_N} elements"):
            generate_next(gen.Catalog(MAX_N, 1, (gen.CatalogEntry(zero,
                                                                  40320),)))


class TestCountsAndChecks:
    def test_labeled_totals(self, cats5):
        assert [c.labeled_total() for c in cats5] == [
            1, 3, 14, 115, 2040, 109707]

    def test_count_table(self, cats3):
        table = count_table(cats3)
        assert len(table) == 7
        assert [table[r][2] for r in range(5)] == [1, 2, 4, 2, 1]
        assert [table[r][3] for r in range(7)] == [1, 3, 10, 12, 10, 3, 1]

    def test_count_table_labeled(self, cats3):
        table = count_table(cats3, labeled=True)
        assert sum(table[r][3] for r in range(7)) == 115

    def test_count_table_rejects_mixed_k(self, cats3):
        matroids = enumerate_all(2, 1)
        with pytest.raises(ValueError, match="mixed k"):
            count_table(list(cats3) + [matroids[2]])

    def test_count_table_rejects_no_catalogs(self):
        with pytest.raises(ValueError, match="no catalogs"):
            count_table([])

    def test_count_table_rejects_repeated_n(self, cats3):
        with pytest.raises(ValueError, match="more than one catalog"):
            count_table(list(cats3) + [cats3[2]])

    def test_filter_counts(self, cats5):
        assert [filter_count(c) for c in cats5] == [0, 1, 2, 8, 51, 696]

    def test_filter_count_matches_per_entry_reference(self, cats5):
        def no_small_elements(table, min_rank):
            if table.n == 0 or min_element_rank(table) < min_rank:
                return False
            for i in range(table.n):
                for j in range(i + 1, table.n):
                    pair = (1 << i) | (1 << j)
                    if table.rho[pair] < min_rank + 1:
                        return False
            return True

        for cat in cats5:
            for min_rank in range(4):
                assert filter_count(cat, min_rank) == sum(
                    no_small_elements(e.table, min_rank)
                    for e in cat.entries)

    def test_duality_check_passes(self, cats5):
        for cat in cats5:
            assert duality_check(cat) is None

    def test_duality_check_detects_gap(self, cats5):
        broken = cats5[2].__class__(
            2, 2, tuple(e for e in cats5[2].entries
                        if e.table.rho != (0, 0, 0, 0)))
        assert duality_check(broken) is not None

    def test_duality_check_matches_per_entry_reference(self, cats5):
        def reference(catalog):
            full = (1 << catalog.n) - 1
            keys = {e.table.rho for e in catalog.entries}
            for e in catalog.entries:
                rho = e.table.rho
                dual = canonical_form(RankTable(catalog.n, catalog.k, tuple(
                    catalog.k * m.bit_count() + rho[full ^ m] - rho[full]
                    for m in range(full + 1)))).table
                if dual.rho not in keys:
                    return ("dual-not-in-catalog", e.table.rho)
            counts = catalog.rank_counts()
            for r in range(len(counts)):
                if counts[r] != counts[len(counts) - 1 - r]:
                    return ("rank-histogram-asymmetry", r)
            return None

        def without(cat, drop):
            return gen.Catalog(cat.n, cat.k, tuple(
                e for i, e in enumerate(cat.entries) if i not in drop))

        cases = list(cats5)
        for cat in cats5[2:]:
            m = len(cat)
            # entries gone from the front, the middle and the back:
            # their duals' entries are the offenders
            for drop in ({0}, {m // 2, m // 3, m - 1}, {m - 1}):
                cases.append(without(cat, drop))
            # a repeated entry off the middle rank keeps every dual but
            # breaks the histogram
            e = next(e for e in cat.entries
                     if 2 * e.table.rank != cat.k * cat.n)
            cases.append(gen.Catalog(cat.n, cat.k, cat.entries + (e,)))
        results = [duality_check(c) for c in cases]
        assert results == [reference(c) for c in cases]
        kinds = {r and r[0] for r in results}
        assert kinds == {None, "dual-not-in-catalog",
                         "rank-histogram-asymmetry"}


class TestCatalogArrays:
    def test_paths_make_no_entry_objects(self, cats5, tmp_path,
                                         monkeypatch):
        def refuse(*_args):
            raise AssertionError("a CatalogEntry was made")

        monkeypatch.setattr(gen, "CatalogEntry", refuse)
        cat, made, counts = base_catalog(2), [], []
        for n in range(5):
            path = tmp_path / f"x{n}.txt"
            write_catalog(cat, path)
            read = read_catalog(path)
            assert read == cat
            counts.append((read.rank_counts(), read.labeled_rank_counts(),
                           filter_count(read), duality_check(read)))
            generate_next_stream(read, tmp_path / "streamed.txt")
            cat, _stats = generate_next(read)
            assert read_catalog(tmp_path / "streamed.txt") == cat
            made += [read, cat]
        monkeypatch.undo()
        assert all(c.ranks.dtype == np.uint8 for c in made)
        assert [c.entries for c in made] == [
            cats5[m].entries for n in range(5) for m in (n, n + 1)]
        assert counts == [
            (c.rank_counts(), c.labeled_rank_counts(), filter_count(c), None)
            for c in cats5[:5]]
        assert all(type(v) is int for rank_counts, labeled, _f, _d in counts
                   for v in rank_counts + labeled)

    @pytest.mark.parametrize("rho", [(0, -1), (0, 3), (0, 256)])
    def test_ranks_outside_zero_to_kn_refused(self, rho):
        # at k = 2 and n = 1 every rank lies in [0, 2]
        with pytest.raises(ValueError, match=r"ranks must lie in \[0, 2\]"):
            gen.Catalog(1, 2, (gen.CatalogEntry(RankTable(1, 2, rho), 1),))

    @pytest.mark.parametrize("n, k", [(3, 2), (2, 2)])
    def test_tables_of_another_n_or_k_refused(self, n, k):
        # two n=2 tables hold 8 ranks, one n=3 row's worth, and a k=1
        # table's ranks fit a k=2 catalog, so only these checks see them
        entries = (gen.CatalogEntry(RankTable(2, 2, (0, 2, 2, 3)), 2),
                   gen.CatalogEntry(RankTable(2, 1, (0, 1, 1, 1)), 2))
        with pytest.raises(ValueError, match=f"must have n={n} and k={k}"):
            gen.Catalog(n, k, entries if n == 3 else entries[1:])

    @pytest.mark.parametrize("aut", [0, 5])
    def test_aut_orders_not_dividing_n_factorial_refused(self, aut,
                                                         tmp_path):
        # the orders read_catalog refuses in a file
        entry = gen.CatalogEntry(RankTable(2, 2, (0, 2, 2, 3)), aut)
        with pytest.raises(ValueError, match="aut orders must divide 2!"):
            gen.Catalog(2, 2, (entry,))
        path = tmp_path / "bad.txt"
        path.write_text(f"POLYCAT v1 n=2 k=2 count=1\n0 2 2 3 aut={aut}\n")
        with pytest.raises(ValueError, match="malformed entry"):
            read_catalog(path)

    @pytest.mark.parametrize("k", [0, MAX_K + 1])
    def test_k_outside_one_to_max_k_refused(self, k):
        with pytest.raises(ValueError, match="element-rank cap"):
            gen.Catalog(1, k, ())

    @pytest.mark.parametrize("n", range(4))
    def test_empty_catalog(self, n, tmp_path):
        cat = gen.Catalog(n, 2, ())
        assert (len(cat), cat.entries) == (0, ())
        assert cat.ranks.shape == (0, 1 << n)
        assert cat.ranks.dtype == np.uint8 and cat.auts.dtype == np.int64
        assert cat.rank_counts() == cat.labeled_rank_counts() == \
            [0] * (2 * n + 1)
        assert filter_count(cat) == 0 and duality_check(cat) is None
        write_catalog(cat, tmp_path / "empty.txt")
        assert read_catalog(tmp_path / "empty.txt") == cat


class TestCatalogFiles:
    def test_round_trip_byte_equal(self, cats3, tmp_path):
        for cat in cats3:
            p = tmp_path / f"cat{cat.n}.txt"
            write_catalog(cat, p)
            again = read_catalog(p)
            assert again == cat
            p2 = tmp_path / "again.txt"
            write_catalog(again, p2)
            assert p.read_bytes() == p2.read_bytes()

    def test_header_contents(self, cats3, tmp_path):
        p = tmp_path / "cat.txt"
        write_catalog(cats3[2], p)
        assert p.read_text().splitlines()[0] == "POLYCAT v1 n=2 k=2 count=10"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not a catalog\n")
        with pytest.raises(ValueError):
            read_catalog(p)

    def test_count_mismatch(self, cats3, tmp_path):
        p = tmp_path / "bad.txt"
        write_catalog(cats3[2], p)
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError):
            read_catalog(p)

    def test_malformed_entry(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("POLYCAT v1 n=1 k=2 count=1\n0 1\n")
        with pytest.raises(ValueError):
            read_catalog(p)

    def test_write_failure_keeps_the_old_catalog(self, cats5, tmp_path,
                                                 monkeypatch):
        out = tmp_path / "out.txt"
        write_catalog(cats5[4], out)
        old = out.read_bytes()
        real, calls = gen._format_entries, []

        def failing(ranks, auts):
            calls.append(len(ranks))
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return real(ranks, auts)

        monkeypatch.setattr(gen, "_ROWS", 64)
        monkeypatch.setattr(gen, "_format_entries", failing)
        with pytest.raises(RuntimeError, match="injected"):
            write_catalog(cats5[5], out)
        assert calls == [64, 64]
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stream_matches_in_memory(self, cats5, tmp_path, jobs):
        nxt, ref_stats = generate_next(cats5[3], jobs=jobs)
        ref = tmp_path / "ref.txt"
        write_catalog(nxt, ref)
        out = tmp_path / "stream.txt"
        stats = generate_next_stream(cats5[3], out, jobs=jobs)
        assert out.read_bytes() == ref.read_bytes()
        assert nxt.entries == cats5[4].entries
        assert dataclasses.replace(stats, wall_time=0) == \
            dataclasses.replace(ref_stats, wall_time=0)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ref.txt", "stream.txt"]

    def test_stream_failure_leaves_no_files(self, cats5, tmp_path,
                                            monkeypatch):
        real = gen._worker
        calls = []

        def failing(args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return real(args)

        monkeypatch.setattr(gen, "_worker", failing)
        with pytest.raises(RuntimeError, match="injected"):
            generate_next_stream(cats5[3], tmp_path / "out.txt")
        assert len(calls) == 2  # one block's records were written first
        assert list(tmp_path.iterdir()) == []

    def test_stream_failure_keeps_the_old_catalog(self, cats5, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "out.txt"
        write_catalog(cats5[3], out)
        old = out.read_bytes()
        real, calls, on_disk = gen._format_entries, [], []

        def failing(ranks, auts):
            calls.append(len(ranks))
            if len(calls) == 2:
                on_disk.extend(p.stat().st_size
                               for p in tmp_path.glob(".catalog-*"))
                raise RuntimeError("injected failure")
            return real(ranks, auts)

        # X_4 -> X_5 formats 2,380 records, 256 at a time; the first
        # block's text, about 18 KB, is more than the file's buffer
        monkeypatch.setattr(gen, "_ROWS", 256)
        monkeypatch.setattr(gen, "_format_entries", failing)
        with pytest.raises(RuntimeError, match="injected"):
            generate_next_stream(cats5[4], out)
        assert calls == [256, 256]
        assert len(on_disk) == 1 and on_disk[0] > 0
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_stream_killed_leaves_the_directory_as_it_was(self, cats5,
                                                          tmp_path):
        out = tmp_path / "out.txt"
        write_catalog(cats5[4], out)
        (tmp_path / "other.txt").write_text("kept\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # enumerate_all calls _worker too, so patch it after
        code = (
            "import os, signal, sys\n"
            "from polycat import enumerate_all, gen\n"
            "x3 = enumerate_all(3, 2)[3]\n"
            "real, calls = gen._worker, []\n"
            "def worker(args):\n"
            "    calls.append(args)\n"
            "    if len(calls) == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(args)\n"
            "gen._worker = worker\n"
            "gen.generate_next_stream(x3, sys.argv[1])\n"
        )
        src = os.path.dirname(os.path.dirname(polycat.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code, str(out)], env=env)
        assert run.returncode == -signal.SIGKILL
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
        assert {name: (tmp_path / name).read_bytes()
                for name in before} == before

    @pytest.mark.parametrize("order", ["repeated", "reversed"])
    def test_parents_repeated_or_out_of_order(self, cats5, tmp_path, order):
        entries = cats5[2].entries
        entries = (entries + (entries[3],) if order == "repeated"
                   else entries[::-1])
        parents = gen.Catalog(2, 2, entries)
        nxt, stats = generate_next(parents)
        assert nxt == cats5[3] and stats.accepted == len(nxt)
        write_catalog(cats5[3], tmp_path / "ref.txt")
        stats = generate_next_stream(parents, tmp_path / "stream.txt")
        assert stats.accepted == len(cats5[3])
        assert (tmp_path / "stream.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()

    def test_stream_runs_share_a_directory(self, cats5, tmp_path,
                                           monkeypatch):
        # a second run starts in the same directory after the first has
        # written a block's records, and finishes before the first
        # formats its catalog
        real = gen._worker
        calls, inner = [], []

        def worker(args):
            calls.append(args)
            if len(calls) == 2:
                inner.append(generate_next_stream(cats5[2],
                                                  tmp_path / "n3.txt"))
            return real(args)

        monkeypatch.setattr(gen, "_worker", worker)
        generate_next_stream(cats5[3], tmp_path / "n4.txt")
        for cat, name in ((cats5[3], "n3.txt"), (cats5[4], "n4.txt")):
            write_catalog(cat, tmp_path / "ref.txt")
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / "ref.txt").read_bytes()
        assert inner[0].accepted == len(cats5[3])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "n3.txt", "n4.txt", "ref.txt"]

    def test_stream_keeps_open_files_under_a_low_limit(self, cats5,
                                                       tmp_path):
        # X_4 -> X_5 gives 228 one-parent blocks, more than the 128
        # files the child process may open
        write_catalog(cats5[5], tmp_path / "ref.txt")
        code = (
            "import resource, sys\n"
            "from polycat import enumerate_all\n"
            "from polycat.gen import generate_next_stream\n"
            "_soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (128, hard))\n"
            "generate_next_stream(enumerate_all(4, 2)[4], sys.argv[1])\n"
        )
        src = os.path.dirname(os.path.dirname(polycat.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code,
                        str(tmp_path / "n5.txt")], check=True, env=env)
        assert (tmp_path / "n5.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "n5.txt", "ref.txt"]
