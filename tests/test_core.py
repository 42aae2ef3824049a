import itertools

import numpy as np
import pytest

from polycat import (
    RankTable,
    closure,
    contract,
    delete,
    flats,
    format_polymatroid,
    k_dual,
    min_element_rank,
    modular_defect,
    parse_polymatroid,
    validate,
)
from polycat.core import MAX_K, MAX_N, k_duals
from polycat.oracle import brute_labeled_count


def all_tables(n, k=2):
    """Every valid labeled table, in lexicographic order, by the
    oracle's search over the masks in increasing order."""
    from polycat.oracle import _search

    out = []

    def leaf(rows):
        out.extend(RankTable(n, k, tuple(r)) for r in rows.tolist())

    _search([0] * (1 << n), range(1, 1 << n), n, k, leaf)
    return out


def _dual_by_formula(table):
    """rho*(X) = k|X| + rho(S - X) - rho(S), one mask at a time."""
    full = table.full
    return tuple(table.k * m.bit_count() + table.rho[full ^ m]
                 - table.rho[full] for m in range(full + 1))


class TestValidate:
    def test_two_free_lines(self, two_lines):
        assert validate(two_lines) is None

    def test_all_zero_any_n(self):
        for n in range(4):
            assert validate(RankTable(n, 2, (0,) * (1 << n))) is None

    def test_submodularity_violation(self):
        v = validate(RankTable(2, 2, (0, 2, 2, 5)))
        assert v is not None
        assert v.axiom == "submodular"
        assert v.subsets == (0, 1, 2)

    def test_monotonicity_violation(self):
        v = validate(RankTable(2, 2, (0, 2, 2, 1)))
        assert v is not None and v.axiom == "monotone"

    def test_normalization_violation(self):
        v = validate(RankTable(1, 2, (1, 2)))
        assert v is not None and v.axiom == "normalized"

    def test_element_cap(self):
        v = validate(RankTable(1, 1, (0, 2)))
        assert v is not None and v.axiom == "element-cap"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RankTable(2, 2, (0, 1, 2))

    @pytest.mark.parametrize("k", [0, MAX_K + 1])
    def test_k_out_of_range(self, k):
        # every rank, at most k * n, fits in one byte
        assert MAX_K * MAX_N <= 255 < (MAX_K + 1) * MAX_N
        RankTable(MAX_N, MAX_K, (0,) * (1 << MAX_N))
        with pytest.raises(ValueError, match="element-rank cap"):
            RankTable(1, k, (0, 0))

    @staticmethod
    def _global_ok(rho, n, k=2):
        size = 1 << n
        return (
            rho[0] == 0
            and all(rho[1 << x] <= k for x in range(n))
            and all(
                rho[x] <= rho[x | (1 << f)]
                for x in range(size) for f in range(n)
            )
            and all(
                rho[x & y] + rho[x | y] <= rho[x] + rho[y]
                for x in range(size) for y in range(size)
            )
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_local_agrees_with_global_exhaustively(self, n):
        size = 1 << n
        cap = 2 * n
        for rho in itertools.product(*(
            [range(1)] + [range(cap + 1)] * (size - 1)
        )):
            t = RankTable(n, 2, rho)
            assert (validate(t) is None) == self._global_ok(rho, n), rho

    def test_local_agrees_with_global_n3(self):
        import random

        # all 115 valid tables pass the global form ...
        for t in all_tables(3):
            assert self._global_ok(t.rho, 3)
        # ... and a large random sample agrees in both directions
        rng = random.Random(20240)
        for _ in range(3000):
            rho = (0,) + tuple(rng.randrange(7) for _ in range(7))
            t = RankTable(3, 2, rho)
            assert (validate(t) is None) == self._global_ok(rho, 3), rho

    def test_derived_cardinality_bound(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                for m in range(1 << e.table.n):
                    assert e.table.rho[m] <= 2 * m.bit_count()


class TestClosure:
    def test_two_lines_empty(self, two_lines):
        assert closure(two_lines, 0) == 0

    def test_two_lines_singleton(self, two_lines):
        assert closure(two_lines, 0b01) == 0b01

    def test_three_lines_pair_spans_all(self, three_lines):
        assert closure(three_lines, 0b011) == 0b111

    def test_increasing_monotone_idempotent(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                t = e.table
                size = 1 << t.n
                for x in range(size):
                    cx = closure(t, x)
                    assert x & cx == x
                    assert closure(t, cx) == cx
                    assert t.rho[cx] == t.rho[x]
                    for y in range(size):
                        if x & y == x:
                            assert cx & closure(t, y) == cx


class TestFlats:
    def test_two_lines(self, two_lines):
        lat = flats(two_lines)
        assert lat.flats == (0b00, 0b01, 0b10, 0b11)
        assert lat.rank_of == (0, 2, 2, 3)
        assert lat.covers == ((0b01, 0b10), (0b11,), (0b11,), ())

    def test_rank_zero_single_flat(self):
        lat = flats(RankTable(3, 2, (0,) * 8))
        assert lat.flats == (0b111,)

    def test_three_lines_no_pair_flats(self, three_lines):
        lat = flats(three_lines)
        assert lat.flats == (0b000, 0b001, 0b010, 0b100, 0b111)

    def test_intersection_closed(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                lat = flats(e.table)
                fs = set(lat.flats)
                for f in fs:
                    for g in fs:
                        assert f & g in fs

    def test_covers_built_on_first_read(self, two_lines):
        lat, twin = flats(two_lines), flats(two_lines)
        assert "covers" not in vars(lat)
        assert lat == twin and hash(lat) == hash(twin)
        assert lat.covers == ((0b01, 0b10), (0b11,), (0b11,), ())
        assert "covers" in vars(lat) and "covers" not in vars(twin)
        assert lat == twin and hash(lat) == hash(twin)

    def test_covers_are_transitive_reduction(self, cats3):
        for e in cats3[3].entries:
            lat = flats(e.table)
            fs = lat.flats
            for i, f in enumerate(fs):
                expected = [
                    g for g in fs
                    if f & g == f and f != g
                    and not any(
                        h != f and h != g and f & h == f and h & g == h
                        for h in fs
                    )
                ]
                assert sorted(lat.covers[i]) == sorted(expected)


class TestClosureIndex:
    def test_matches_scalar_closure(self, cats5):
        tables = [e.table for cat in cats5[:5] for e in cat.entries]
        tables += [e.table for e in cats5[5].entries[::7]]
        for t in tables:
            lat = flats(t)
            assert lat.closure.shape == (1 << t.n,)
            assert lat.closure.dtype == np.intp
            assert lat.closure.tolist() == [
                lat.flats.index(closure(t, x)) for x in range(1 << t.n)]

    def test_equality_and_hash_ignore_the_index(self, three_lines):
        assert flats(three_lines) == flats(three_lines)
        assert hash(flats(three_lines)) == hash(flats(three_lines))


class TestModularDefect:
    def test_two_lines(self, two_lines):
        assert modular_defect(two_lines, 0b01, 0b10) == 1

    def test_nested_always_zero(self, cats3):
        for e in cats3[3].entries:
            for x in range(8):
                for y in range(8):
                    if x & y == x:
                        assert modular_defect(e.table, x, y) == 0

    def test_three_lines_pairs(self, three_lines):
        assert modular_defect(three_lines, 0b011, 0b110) == 1

    def test_nonnegative(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                size = 1 << e.table.n
                for x in range(size):
                    for y in range(size):
                        assert modular_defect(e.table, x, y) >= 0


class TestKDual:
    def test_two_lines(self, two_lines):
        assert k_dual(two_lines).rho == (0, 1, 1, 1)

    def test_rank_zero_dualizes_to_free(self):
        zero = RankTable(3, 2, (0,) * 8)
        assert k_dual(zero).rho == tuple(2 * m.bit_count() for m in range(8))

    def test_involution_and_validity(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                d = k_dual(e.table)
                assert validate(d) is None
                assert k_dual(d).rho == e.table.rho

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_block_duals_match_k_dual(self, cats5, dtype):
        tables = [e.table for cat in cats5 for e in cat.entries]
        tables += all_tables(3, 1)
        for n in range(6):
            for k in (1, 2):
                block = [t for t in tables if t.n == n and t.k == k]
                if not block:
                    continue
                duals = k_duals(np.array([t.rho for t in block], dtype=dtype),
                                k)
                assert duals.shape == (len(block), 1 << n)
                assert duals.dtype == np.int16
                rows = [tuple(d) for d in duals.tolist()]
                assert rows == [k_dual(t).rho for t in block]
                assert rows == [_dual_by_formula(t) for t in block]

    def test_block_duals_at_the_largest_k(self):
        # the zero and the free MAX_K-polymatroid on MAX_N elements,
        # whose ranks and duals reach k * n = 248
        size = 1 << MAX_N
        block = [RankTable(MAX_N, MAX_K, (0,) * size),
                 RankTable(MAX_N, MAX_K,
                           tuple(MAX_K * m.bit_count() for m in range(size)))]
        duals = k_duals(np.array([t.rho for t in block], np.uint8), MAX_K)
        assert [tuple(d) for d in duals.tolist()] == [
            _dual_by_formula(t) for t in block] == [block[1].rho, block[0].rho]


class TestMinors:
    def test_delete_three_lines(self, three_lines):
        assert delete(three_lines, 3).rho == (0, 2, 2, 3)

    def test_delete_last_element(self):
        assert delete(RankTable(1, 2, (0, 2)), 1).rho == (0,)

    def test_delete_out_of_range(self, two_lines):
        with pytest.raises(ValueError):
            delete(two_lines, 3)
        with pytest.raises(ValueError):
            contract(two_lines, 0)

    def test_contract_two_lines(self, two_lines):
        assert contract(two_lines, 1).rho == (0, 1)

    def test_contract_loop_equals_delete(self):
        t = RankTable(2, 2, (0, 0, 2, 2))
        assert contract(t, 1).rho == delete(t, 1).rho

    def test_minors_stay_valid(self, cats3):
        for cat in cats3[1:]:
            for entry in cat.entries:
                for e in range(1, cat.n + 1):
                    assert validate(delete(entry.table, e)) is None
                    assert validate(contract(entry.table, e)) is None

    def test_duality_interchanges_delete_contract(self, cats3, three_lines):
        tables = [e.table for e in cats3[3].entries] + [three_lines]
        for t in tables:
            for e in range(1, 4):
                lhs = k_dual(delete(t, e)).rho
                rhs = contract(k_dual(t), e).rho
                assert lhs == rhs


class TestMinElementRank:
    def test_two_lines(self, two_lines):
        assert min_element_rank(two_lines) == 2

    def test_loop(self):
        assert min_element_rank(RankTable(2, 2, (0, 0, 2, 2))) == 0

    def test_empty_ground_set(self):
        with pytest.raises(ValueError):
            min_element_rank(RankTable(0, 2, (0,)))


class TestTextFormat:
    def test_round_trip(self, cats3):
        for cat in cats3:
            for e in cat.entries:
                text = format_polymatroid(e.table)
                assert parse_polymatroid(text) == e.table

    def test_exact_layout(self, two_lines):
        assert format_polymatroid(two_lines) == "n=2 k=2\n0 2 2 3\n"

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_polymatroid("nonsense\n0 1\n")
        with pytest.raises(ValueError):
            parse_polymatroid("n=2 k=2\n0 1\n")
