import itertools

import pytest

from polycat import (
    RankTable,
    base_catalog,
    count_table,
    duality_check,
    enumerate_all,
    filter_count,
    gen,
    generate_next,
    read_catalog,
    write_catalog,
)
from polycat.canon import canonical_bytes, canonical_form
from polycat.core import flats
from polycat.extensions import (
    enumerate_extensible_partitions,
    extension_builder,
)
from polycat.gen import extensions_of_parent, generate_next_stream


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
        cb, _sigma, aut = canonical_bytes(bytes(build(part.mu)), n + 1)
        deleted, _s, _a = canonical_bytes(cb[:1 << n], n)
        if deleted == bytes(parent.rho):
            accepted[cb] = aut
    out = [(tuple(cb), aut) for cb, aut in sorted(accepted.items())]
    return out, len(parts)


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

    def test_stats_merge_adds_every_field(self):
        a = gen.GenerationStats(1, 10, 3, 7, 0.5)
        a.merge(gen.GenerationStats(2, 20, 5, 15, 1.25))
        assert a == gen.GenerationStats(3, 30, 8, 22, 1.75)

    def test_parallel_matches_serial(self, cats5):
        nxt, _ = generate_next(cats5[3], jobs=2)
        assert nxt.entries == cats5[4].entries

    def test_acceptance_matches_reference_rule(self, cats5):
        parents = [e.table for cat in cats5[:5] for e in cat.entries]
        parents += [e.table for e in cats5[5].entries[::40]]
        for parent in parents:
            assert extensions_of_parent(parent) == \
                _reference_extensions(parent)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            enumerate_all(2, 3)
        with pytest.raises(ValueError):
            enumerate_all(13, 2)


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

    def test_stream_matches_in_memory(self, cats5, tmp_path):
        ref = tmp_path / "ref.txt"
        write_catalog(cats5[4], ref)
        out = tmp_path / "stream.txt"
        stats = generate_next_stream(cats5[3], out)
        assert out.read_bytes() == ref.read_bytes()
        assert stats.accepted == len(cats5[4])
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
