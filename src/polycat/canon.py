"""Canonical labeling of polymatroids and the flat-graph encoding.

The canonical representative is the lexicographically minimal rank-value
sequence (increasing-bitmask order) over all n! relabelings.  Only the
relabelings that sort the singleton ranks are compared.  There are three
entry points:

- canonical_forms labels a block of same-n tables in one call: each row
  is paired with its candidate relabelings, and the live (row,
  candidate) pairs are narrowed eight table entries at a time (_narrow),
  in runs of rows under a fixed entry budget.  Class labeling in bulk
  (the oracle's class count, duality) goes through it.
- canonical_bytes labels one table: up to _SLICE_ROWS candidates as one
  byte string each, through a gather matrix cached per singleton-rank
  vector, and more by the same narrowing on its one row.
  canonical_form, isomorphic and the catalog checks go through it.
- anchored_forms decides a whole block of one-element extensions of one
  canonical parent: one search over ordered label prefixes, level by
  level for every row at once, keeps the rows whose canonical form
  starts with the parent and labels those only.  Prefixes of old
  elements read the parent alone and are found once per block; only
  those holding the new element are carried per row.  Rows of a parent
  that is not canonical are all rejected.  Generation goes through it.

Tables have at most core.MAX_N = 8 elements.
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
# Table entries one level of anchored_forms reads at once; a level
# over it is split between rows, so that the search's temporaries stay
# near 12 bytes per entry (intp gather index, entry, the children's
# images) whatever the block size.  A row is charged 2^j entries for
# each child at level j, of its own pairs and of the shared prefixes,
# and is never split; for an N-element table that is at most
# N! * 2^(N-1) entries at the last level (322,560 for N = 7).
_SEARCH_ENTRIES = 1 << 15
# Table entries canonical_forms' (row, candidate) pairs read per word,
# eight per pair: the rows are taken in runs whose pairs stay under it,
# so that its temporaries (per pair its candidate, row offset, word and
# int32 gather index, near 8 bytes per entry) are bounded whatever the
# block size.  A row is never split; at n = 8 one holds at most 8! pairs
# (322,560 entries).
_LABEL_ENTRIES = 1 << 15
# _FREE_BITS[mask] lists the bits 1 << e of the elements e < 8 not in
# mask, in increasing order (zero-padded).
_FREE_BITS = np.array([[1 << e for e in range(8) if not m >> e & 1]
                       + [0] * m.bit_count() for m in range(256)],
                      dtype=np.uint8)


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
def _candidate_ids(n: int, singles: tuple):
    """The relabelings that can reach the lex-min table of one with
    singleton ranks `singles`, as increasing row indices into
    _perm_tables(n).

    The lex-min table has non-decreasing singleton ranks (swapping two
    adjacent labels would otherwise lower the first changed entry), so
    only the c = prod(m!) relabelings sorting the singleton ranks, m
    over their multiplicities, can win; every automorphism of the winner
    is among them too.  An entry holds 8c bytes, at most 8 * n!
    (322 KB at n=8).
    """
    idx, _sigmas = _perm_tables(n)
    if n < 2:
        return np.arange(len(idx))
    rank_of = np.zeros(1 << n, dtype=np.uint8)
    for j, r in enumerate(singles):
        rank_of[1 << j] = r
    seq = rank_of[idx[:, [1 << j for j in range(n)]]]
    return np.flatnonzero(np.all(seq[:, :-1] <= seq[:, 1:], axis=1))


@lru_cache(maxsize=128)
def _candidates(n: int, singles: tuple):
    """The _candidate_ids relabelings of a table with singleton ranks
    `singles`: their gather rows as a (c, 2^n) uint8 matrix, and their
    old-to-new permutations sigma as a (c, n) uint8 matrix, in the
    lexicographic order of the permutations.

    Equal singleton ranks make every relabeling a candidate, and the
    entry shares _perm_tables' arrays; any other entry holds
    c * (2^n + n) bytes of its own, at most (n-1)! * (2^n + n) (1.3 MB
    at n=8).  The cache keeps at most 128 entries.  Generation reaches
    it only through automorphisms, for canonical parents, whose
    singleton ranks are sorted, so it needs few.
    """
    idx, sigmas = _perm_tables(n)
    live = _candidate_ids(n, singles)
    if len(live) == len(idx):
        return idx, sigmas
    return idx[live], sigmas[live]


def canonical_bytes(rho_bytes: bytes, n: int):
    """(canonical rank sequence as bytes, winning permutation, aut order)
    for a table whose entries all fit in one byte.

    Up to _SLICE_ROWS candidate relabelings, the minimum is taken over
    one byte string per candidate; more are narrowed as canonical_forms
    narrows a run of one row (_narrow).  The first candidate reaching
    the minimum gives sigma, and the candidates reaching it number the
    automorphisms.
    """
    gather, sigmas = _candidates(n, _singleton_ranks(n)(rho_bytes))
    rho = np.frombuffer(rho_bytes, dtype=np.uint8)
    if len(sigmas) > _SLICE_ROWS:
        idx, sigmas = _perm_tables(n)
        ids = _candidate_ids(n, _singleton_ranks(n)(rho_bytes))
        first, aut = _narrow(rho, idx, ids, np.array([len(ids)]))
        return (rho[idx[first[0]]].tobytes(), tuple(sigmas[first[0]].tolist()),
                int(aut[0]))
    size = 1 << n
    buf = rho[gather].tobytes()
    views = [buf[i * size:(i + 1) * size] for i in range(len(sigmas))]
    best = min(views)
    sigma = sigmas[views.index(best)]
    return best, tuple(sigma.tolist()), views.count(best)


def canonical_forms(tables, n: int):
    """The canonical forms of a block of n-element tables, one per row
    of a (R, 2^n) integer matrix, as (forms, sigma, aut): a (R, 2^n)
    uint8 matrix of canonical rank sequences, a (R, n) uint8 matrix of
    old-to-new winning permutations and R automorphism group orders, in
    row order.  Each row is what canonical_bytes gives for that table.
    Ranks must fit in one byte; ValueError otherwise.

    Each row is paired with its own _candidate_ids relabelings, found
    once per singleton-rank vector, and the pairs are narrowed by
    _narrow in runs of rows whose pairs read at most _LABEL_ENTRIES
    entries per word; a row is never split.
    """
    tables = np.asarray(tables)
    size = 1 << n
    if (tables.ndim != 2 or tables.shape[1] != size
            or not np.issubdtype(tables.dtype, np.integer)):
        raise ValueError(f"tables must be integer rows of {size} ranks")
    if tables.dtype != np.uint8:
        if tables.size and not 0 <= tables.min() <= tables.max() <= 255:
            raise ValueError("ranks must fit in one byte")
        tables = tables.astype(np.uint8)
    idx, sigmas = _perm_tables(n)
    # row r's candidates are flat_ids[offsets[group[r]]:][:count[r]]
    singles = np.zeros((len(tables), 8), dtype=np.uint8)
    singles[:, :n] = tables[:, [1 << j for j in range(n)]]
    keys, group = np.unique(singles.view(">u8").ravel(), return_inverse=True)
    ids = [_candidate_ids(n, tuple(k.to_bytes(8, "big")[:n]))
           for k in keys.tolist()]
    lengths = np.array([len(i) for i in ids], dtype=np.intp)
    offsets = np.cumsum(lengths) - lengths
    flat_ids = np.concatenate([np.zeros(0, dtype=np.int32), *ids],
                              dtype=np.int32)
    count = lengths[group]
    forms = np.empty_like(tables)
    first = np.empty(len(tables), dtype=np.intp)
    aut = np.empty(len(tables), dtype=np.intp)
    # a run ends before the row that would take its pairs past the
    # budget, and always after its first row
    ends = np.cumsum(count)
    lo = 0
    while lo < len(tables):
        limit = (ends[lo - 1] if lo else 0) + _LABEL_ENTRIES // min(size, 8)
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        counts = count[lo:hi]
        start = np.cumsum(counts) - counts
        cand = flat_ids[(offsets[group[lo:hi]] - start).repeat(counts)
                        + np.arange(counts.sum())]
        first[lo:hi], aut[lo:hi] = _narrow(tables[lo:hi].ravel(), idx, cand,
                                           counts)
        forms[lo:hi] = np.take_along_axis(tables[lo:hi], idx[first[lo:hi]],
                                          axis=1)
        lo = hi
    return forms, sigmas[first], aut


def _narrow(flat, idx, cand, counts):
    """The lex-min relabeling of each table of a run, as (each row's
    first candidate reaching its minimum, how many reach it).  flat
    holds the run's tables one after another, and cand each row's
    candidates in increasing order, counts[r] of them for row r, as row
    indices into idx = _perm_tables(n)[0].

    The live (row, candidate) pairs are narrowed one word of eight
    entries at a time: every pair reads its next word as one big-endian
    integer, and only the pairs at their row's minimum survive, until
    every row has one pair left or the table ends.  The first word reads
    the masks of labels 0-2 only, so the adjacent candidates of a row
    that share those labels, (n-3)! in the permutations' order, read it
    once.
    """
    size = idx.shape[1]
    n = size.bit_length() - 1
    width = min(size, 8)
    word = f">u{width}"
    # each pair's row offset in flat; a run of one row has none
    base = None
    if len(counts) > 1:
        base = (np.arange(len(counts), dtype=np.int32) * size).repeat(counts)
    start = counts.cumsum() - counts
    for w in range(0, size, width):
        if len(cand) == len(counts):
            break
        read = spread = slice(None)
        if w == 0 and size > 8:
            head = np.ones(len(cand), dtype=bool)
            head[1:] = np.diff(cand // math.factorial(n - 3)) != 0
            head[start] = True
            read, spread = np.flatnonzero(head), head.cumsum() - 1
        at = idx[cand[read], w:w + width]
        if base is not None:
            at = at + base[read, None]
        words = flat[at].view(word).ravel()[spread]
        keep = words == np.minimum.reduceat(words, start).repeat(counts)
        if not keep.all():
            counts = np.add.reduceat(keep, start)
            start = counts.cumsum() - counts
            cand = cand[keep]
            base = base if base is None else base[keep]
    return cand[start], counts


def automorphisms(rho_bytes: bytes, n: int):
    """The automorphisms of a table with non-decreasing singleton ranks
    (a canonical one has them), as a (aut, 2^n) uint8 matrix: row g
    maps each mask X to g(X), and rho(g(X)) = rho(X) for every X.

    An automorphism leaves the singleton ranks sorted, so it is one of
    the candidate relabelings canonical_bytes compares."""
    gather, _sigmas = _candidates(n, _singleton_ranks(n)(rho_bytes))
    rho = np.frombuffer(rho_bytes, dtype=np.uint8)
    return gather[(rho[gather] == rho).all(axis=1)]


def anchored_forms(tables, parent_bytes: bytes):
    """The canonical forms and automorphism group orders of the rows of
    a block of one-element extension tables of a parent whose lex-min
    form starts with the parent, as (forms, aut): a (m, 2^(n+1)) uint8
    matrix and m orders, in row order.  tables is a 2-D uint8 array
    whose rows all begin with parent_bytes, the parent's n-element
    table.

    The same forms and orders as canonical_bytes, kept where
    cb[:2^n] == parent_bytes, found by one search over ordered label
    prefixes for the whole block.  Prefixes that label old elements only
    read the parent alone, so they are found once (_shared_prefixes);
    only prefixes holding the new element are carried per row
    (_anchored_search).  If the parent is not canonical, no row is."""
    tables = np.ascontiguousarray(tables)
    parent = np.frombuffer(parent_bytes, dtype=np.uint8)
    if (tables.dtype != np.uint8 or tables.ndim != 2
            or tables.shape[1] != 2 * len(parent)
            or not (tables[:, :len(parent)] == parent).all()):
        raise ValueError("rows must be uint8 extension tables of the parent")
    shared = _shared_prefixes(parent, parent_bytes)
    rows = np.arange(len(tables) if shared else 0)
    return _anchored_search(tables.ravel(), parent, shared, rows, rows[:0],
                            np.empty((0, 1), dtype=np.uint8))


def _shared_prefixes(parent, parent_bytes):
    """[A_0, ..., A_n] for a parent of n elements, or None if it is not
    canonical.  A_j holds, as (a_j, 2^j) uint8 images, the ordered
    prefixes of j old elements that read the parent exactly on the new
    masks below 2^j: A_0 is [[0]] and A_n is Aut(parent).  Such a prefix
    keeps the singleton ranks sorted, so it begins a candidate
    relabeling (_candidates); candidates sharing it are adjacent, and
    one reading below the parent shows that it is not canonical."""
    n = len(parent).bit_length() - 1
    gather, _sigmas = _candidates(n, _singleton_ranks(n)(parent_bytes))
    reads = parent[gather]
    first = (reads != parent).argmax(axis=1)
    read, want = reads[np.arange(len(reads)), first], parent[first]
    if (read < want).any():
        return None
    first[read == want] = len(parent)  # reads the whole parent
    levels = []
    for j in range(n + 1):
        pre = gather[first >= 1 << j, :1 << j]
        levels.append(pre[np.concatenate(
            ([True], (pre[1:] != pre[:-1]).any(axis=1)))])
    return levels


def _anchored_search(flat, parent, shared, rows, row, img):
    """anchored_forms at level j, over the live rows (increasing) and
    the (row, img) pairs: ordered prefixes of j new labels of one row
    that label the new element, each held as its image (img[p, m] is the
    old mask that new mask m < 2^j stands for), in no particular order.

    A pair's children give label j to each unused element; each live
    row also has a child for each shared prefix a of shared[j] that
    gives label j to the new element, reading the row's second half at
    a[m] + 2^n.  A child reads the new masks [2^j, 2^(j+1)), as
    big-endian words of up to 8 entries.  In the parent's half a child
    below the parent rejects its row, one equal to it is a pair of level
    j + 1, and one above is dropped.  At the last level a row's lex-min
    child is its form, and the children that reach it number the aut
    order.  A level that would read more than _SEARCH_ENTRIES entries is
    split between the rows."""
    half = len(parent)
    size = 2 * half
    if not len(rows):
        return np.empty((0, size), dtype=np.uint8), rows.copy()
    width = img.shape[1]
    left = size.bit_length() - width.bit_length()  # labels not yet given
    a = shared[width.bit_length() - 1]
    if (len(row) * left + len(rows) * len(a)) * width > _SEARCH_ENTRIES \
            and len(rows) > 1:
        mid = len(rows) // 2
        low = row < rows[mid]
        parts = [_anchored_search(flat, parent, shared, part, row[sel],
                                  img[sel])
                 for part, sel in ((rows[:mid], low), (rows[mid:], ~low))]
        return tuple(np.concatenate(p) for p in zip(*parts))
    # each child as its prefix's image, its new bit and its row: mask X
    # of the level is the old mask base[m] plus the bit
    base = np.concatenate((img.repeat(left, axis=0),
                           a[None].repeat(len(rows), 0).reshape(-1, width)))
    bit = np.concatenate((_FREE_BITS[img[:, -1], :left].ravel(),
                          np.full(len(rows) * len(a), half, dtype=np.uint8)))
    own = np.concatenate((row.repeat(left), rows.repeat(len(a))))
    entries = flat[base + (own * size + bit)[:, None]]
    if width < half:
        word = f">u{min(width, 8)}"
        words = entries.view(word)
        target = parent[width:2 * width].view(word)
        less, same = words[:, 0] < target[0], words[:, 0] == target[0]
        for col in range(1, len(target)):
            less |= same & (words[:, col] < target[col])
            same &= words[:, col] == target[col]
        dead = np.zeros(len(flat) // size, dtype=bool)
        dead[own[less]] = True
        keep = same & ~dead[own]
        kept = base[keep]
        return _anchored_search(
            flat, parent, shared, rows[~dead[rows]], own[keep],
            np.concatenate((kept, kept | bit[keep, None]), axis=1))
    # last level: sorted by row, then by bytes, a row's first child is
    # its lex-min
    order = np.lexsort((entries.view(f"V{half}").ravel(), own))
    own, entries = own[order], entries[order]
    head = np.ones(len(own), dtype=bool)
    head[1:] = own[1:] != own[:-1]
    start = np.flatnonzero(head)
    best = entries[start]
    ties = (entries == best[head.cumsum() - 1]).all(axis=1)
    forms = np.concatenate((np.broadcast_to(parent, best.shape), best), axis=1)
    return forms, np.add.reduceat(ties, start, dtype=np.intp)


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
