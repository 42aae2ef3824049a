"""Canonical labeling of polymatroids and the flat-graph encoding.

The canonical representative is the lexicographically minimal rank-value
sequence (increasing-bitmask order) over all n! relabelings.  Only the
relabelings that sort the singleton ranks are compared, through a gather
matrix cached per singleton-rank vector; large candidate sets are
narrowed eight table entries at a time, gathering each next word for the
surviving rows only.  Tables have at most core.MAX_N = 8 elements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .core import RankTable, bits_of, flats

# Up to this many candidate relabelings a list of per-candidate byte
# strings is the faster lex-min; beyond it, word narrowing is.  Measured
# at n=5..7: 144 candidates are faster as strings, 240 by narrowing, and
# no candidate count at n <= 8 lies between them.
_SLICE_ROWS = 200


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical representative, the relabeling reaching it, and the
    automorphism group order.

    perm[i-1] is the new (1-based) label of old element i.
    """

    table: RankTable
    perm: tuple
    aut_order: int


@dataclass(frozen=True)
class FlatGraph:
    """Colored bipartite graph of ground elements vs flats.

    Ground vertices carry color -1; each flat vertex is a (mask, color)
    pair with color = flat rank.  Placeholder vertices (mask 0, rank r)
    stand in for every rank r < rho(S) with no flat of that rank.
    """

    n: int
    flat_vertices: tuple  # of (mask, color)


def apply_mask_perm(mask: int, perm) -> int:
    """Relabel a bitmask through a 0-based element permutation."""
    out = 0
    for b in bits_of(mask):
        out |= 1 << perm[b]
    return out


def relabel(table: RankTable, perm) -> RankTable:
    """Relabel a table by a 0-based permutation (old index -> new index)."""
    inv = [0] * table.n
    for i, p in enumerate(perm):
        inv[p] = i
    rho = tuple(
        table.rho[apply_mask_perm(m, inv)] for m in range(1 << table.n)
    )
    return RankTable(table.n, table.k, rho)


@lru_cache(maxsize=16)
def _perm_tables(n: int):
    """The n! permutations, in lexicographic order, as their induced
    bitmask index maps in one (n!, 2^n) uint8 gather matrix and their
    inverses in one (n!, n) uint8 matrix: gathering a table through row
    p gives new label j to old element perm[j], and inverse row p gives
    each old element its new label."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    idx = np.zeros((len(perms), 1 << n), dtype=np.uint8)
    bits = (1 << perms).astype(np.uint8)
    for m in range(1, 1 << n):
        low = m & -m
        idx[:, m] = idx[:, m ^ low] | bits[:, low.bit_length() - 1]
    sigmas = np.empty(perms.shape, dtype=np.uint8)
    sigmas[np.arange(len(perms))[:, None], perms] = range(n)
    return idx, sigmas


@lru_cache(maxsize=16)
def _singleton_ranks(n: int):
    """Reads the singleton ranks rho[1], rho[2], rho[4], ... of a table
    as a tuple (empty below n=2, where no relabeling is excluded)."""
    if n < 2:
        return lambda rho_bytes: ()
    return itemgetter(*(1 << j for j in range(n)))


@lru_cache(maxsize=128)
def _candidates(n: int, singles: tuple):
    """The relabelings that can reach the lex-min table of one with
    singleton ranks `singles`: their gather rows as a (c, 2^n) uint8
    matrix, and their old-to-new permutations sigma as a (c, n) uint8
    matrix.

    The lex-min table has non-decreasing singleton ranks (swapping two
    adjacent labels would otherwise lower the first changed entry), so
    only the c = prod(m!) relabelings sorting the singleton ranks, m
    over their multiplicities, can win; every automorphism of the winner
    is among them too.  Rows keep the lexicographic order of the
    permutations.  Equal singleton ranks make every relabeling a
    candidate, and the entry shares _perm_tables' arrays; any other
    entry holds c * (2^n + n) bytes of its own, at most
    (n-1)! * (2^n + n) (1.3 MB at n=8).  The cache keeps at most 128
    entries.  Generation needs few, since canonical parents and the
    extensions passing the singleton-rank prefilter have sorted
    singleton ranks.
    """
    idx, sigmas = _perm_tables(n)
    if n < 2:
        return idx, sigmas
    rank_of = np.zeros(1 << n, dtype=np.uint8)
    for j, r in enumerate(singles):
        rank_of[1 << j] = r
    seq = rank_of[idx[:, [1 << j for j in range(n)]]]
    live = np.flatnonzero(np.all(seq[:, :-1] <= seq[:, 1:], axis=1))
    if len(live) == len(idx):
        return idx, sigmas
    return idx[live], sigmas[live]


def canonical_bytes(rho_bytes: bytes, n: int):
    """(canonical rank sequence as bytes, winning permutation, aut order)
    for a table whose entries all fit in one byte.

    Up to _SLICE_ROWS candidate relabelings, the minimum is taken over
    one byte string per candidate.  More candidates are narrowed eight
    entries at a time: the surviving rows gather their next eight
    entries, read as one big-endian word, and only the rows at the
    column minimum survive, until one row is left or the table ends.
    The survivors are the automorphisms; the first gives sigma.
    """
    gather, sigmas = _candidates(n, _singleton_ranks(n)(rho_bytes))
    rho = np.frombuffer(rho_bytes, dtype=np.uint8)
    size = 1 << n
    if len(sigmas) <= _SLICE_ROWS:
        buf = rho[gather].tobytes()
        views = [buf[i * size:(i + 1) * size] for i in range(len(sigmas))]
        best = min(views)
        sigma = sigmas[views.index(best)]
        return best, tuple(sigma.tolist()), views.count(best)
    rows = None
    for w in range(0, size, 8):
        cols = gather[:, w:w + 8] if rows is None else gather[rows, w:w + 8]
        words = rho[cols].view(">u8").ravel()
        keep = words == words.min()
        rows = np.flatnonzero(keep) if rows is None else rows[keep]
        if len(rows) == 1:
            break
    first = rows[0]
    return (rho[gather[first]].tobytes(), tuple(sigmas[first].tolist()),
            len(rows))


def automorphisms(rho_bytes: bytes, n: int):
    """The automorphisms of a table with non-decreasing singleton ranks
    (a canonical one has them), as a (aut, 2^n) uint8 matrix: row g
    maps each mask X to g(X), and rho(g(X)) = rho(X) for every X.

    An automorphism leaves the singleton ranks sorted, so it is one of
    the candidate relabelings canonical_bytes compares."""
    gather, _sigmas = _candidates(n, _singleton_ranks(n)(rho_bytes))
    rho = np.frombuffer(rho_bytes, dtype=np.uint8)
    return gather[(rho[gather] == rho).all(axis=1)]


def canonical_form(table: RankTable) -> CanonicalForm:
    """Lex-minimal relabeled table, the relabeling, and aut group order."""
    cb, sigma, aut = canonical_bytes(bytes(table.rho), table.n)
    return CanonicalForm(RankTable(table.n, table.k, tuple(cb)),
                         tuple(s + 1 for s in sigma), aut)


def isomorphic(a: RankTable, b: RankTable) -> bool:
    if a.n != b.n or a.k != b.k:
        return False
    return canonical_form(a).table.rho == canonical_form(b).table.rho


def labeled_count(n: int, aut_order: int) -> int:
    """Size of the isomorphism class: n!/aut (orbit-stabilizer)."""
    fact = math.factorial(n)
    if fact % aut_order:
        raise ValueError(f"aut order {aut_order} does not divide {n}!")
    return fact // aut_order


def flat_graph(table: RankTable) -> FlatGraph:
    lattice = flats(table)
    verts = list(zip(lattice.flats, lattice.rank_of))
    present = set(lattice.rank_of)
    for r in range(table.rank):
        if r not in present:
            verts.append((0, r))
    verts.sort(key=lambda v: (v[1], v[0]))
    return FlatGraph(table.n, tuple(verts))
