import dataclasses
import itertools
import os
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
from polycat.core import MAX_N, flats
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)
from polycat.gen import (
    extensions_of_parent,
    flat_automorphisms,
    generate_next_stream,
    orbit_representatives,
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
        # the module's budget, then one so small that every level of a
        # block with two rows or more is split between its rows
        for budget in (canon._SEARCH_ENTRIES, 1):
            monkeypatch.setattr(canon, "_SEARCH_ENTRIES", budget)
            for tables, pb, expect in blocks:
                forms, aut = canon.anchored_forms(tables, pb)
                assert forms.dtype == np.uint8
                assert list(zip(map(bytes, forms), aut.tolist())) == expect

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
            assert list(map(tuple, reps.tolist())) == minima

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

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            enumerate_all(2, 3)
        with pytest.raises(ValueError):
            enumerate_all(MAX_N + 1, 2)
        with pytest.raises(ValueError):
            RankTable(MAX_N + 1, 2, (0,) * (1 << (MAX_N + 1)))
        with pytest.raises(ValueError):  # ranks above 255 in the extension
            extensions_of_parent(RankTable(1, 200, (0, 200)))


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

    def test_count_table_rejects_repeated_n(self, cats3):
        with pytest.raises(ValueError, match="more than one catalog"):
            count_table(list(cats3) + [cats3[2]])

    def test_filter_counts(self, cats5):
        assert [filter_count(c) for c in cats5] == [0, 1, 2, 8, 51, 696]

    def test_duality_check_passes(self, cats5):
        for cat in cats5:
            assert duality_check(cat) is None

    def test_duality_check_detects_gap(self, cats5):
        broken = cats5[2].__class__(
            2, 2, tuple(e for e in cats5[2].entries
                        if e.table.rho != (0, 0, 0, 0)))
        assert duality_check(broken) is not None


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
        assert len(calls) == 2  # one block's shard was written first
        assert list(tmp_path.iterdir()) == []

    def test_stream_failure_keeps_the_old_catalog(self, cats5, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "out.txt"
        write_catalog(cats5[4], out)
        old = out.read_bytes()
        real = gen._merge_shards

        def failing(paths, width, write):
            # X_3 -> X_4 makes 40 shards, so this is the final merge;
            # it writes part of the catalog's text before it fails
            written = []
            real(paths[:1], width, lambda rows: written.append(write(rows)))
            assert sum(written) > 0
            raise RuntimeError("injected failure")

        monkeypatch.setattr(gen, "_merge_shards", failing)
        with pytest.raises(RuntimeError, match="injected"):
            generate_next_stream(cats5[3], out)
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_stream_runs_share_a_directory(self, cats5, tmp_path,
                                           monkeypatch):
        # a second run starts in the same directory after the first has
        # written a shard, and finishes before the first merges
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

    def test_stream_merges_under_a_low_open_file_limit(self, cats5,
                                                       tmp_path):
        # X_4 -> X_5 gives 228 one-parent blocks, so 228 shards, more
        # than the 128 files the child process may open
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
