"""Canonical labeling of polymatroids and the flat-graph encoding.

The canonical representative is the lexicographically minimal rank-value
sequence (increasing-bitmask order) over all n! relabelings.  One search,
_search, finds it for a block of tables at once: it gives new labels 0,
1, ... in turn, level by level for every row, and carries per row only
the ordered label prefixes that read the row's least so far, or exactly
a target table that every row must start with.  The entry points:

- canonical_forms labels a block of same-n tables in one call of the
  search, with no target.  Class labeling in bulk (the oracle's class
  count, duality) goes through it.
- canonical_bytes labels one table: up to _SLICE_ROWS candidate
  relabelings (those sorting the singleton ranks) as one byte string
  each, through a gather matrix cached per singleton-rank vector, and
  more by the search on its one row.  canonical_form, isomorphic and the
  catalog checks go through it.
- anchored_forms decides a whole block of one-element extensions of one
  canonical parent, by the search with the parent as its target: it
  keeps the rows whose canonical form starts with the parent and labels
  those only.  Prefixes of old elements read the parent alone and are
  found once per block; only those holding the new element are carried
  per row.  Rows of a parent that is not canonical are all rejected.
  Generation goes through it.

Tables have at most core.MAX_N = 8 elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .core import RankTable, bits_of, flats

# Up to this many candidate relabelings a list of per-candidate byte
# strings is the faster lex-min of one table; beyond it, the search is.
# Measured on one row at n = 6, 7, 8 (40 tables per candidate count):
# byte strings cost about 0.34, 0.48 and 0.9 us per candidate and the
# search about 210, 215 and 235 us, so they cross near 610, 450 and
# 270 candidates.  No candidate count at n <= 8 lies between 240 and
# 576, so every n takes its faster path: byte strings up to 240, the
# search from 576.
_SLICE_ROWS = 400
# Table entries one level of the search reads at once; a level over it
# is split between rows, so that its temporaries stay near 12 bytes per
# entry (intp gather index, entry, the children's images) whatever the
# block size.  A row is charged 2^j entries for each child at level j,
# of its own pairs and of the shared prefixes, and is never split; for
# an N-element table that is at most N! * 2^(N-1) entries at the last
# level (5,160,960 for N = 8, where the zero table peaks near 70 MB).
_SEARCH_ENTRIES = 1 << 15
# _FREE_BITS[mask] lists the bits 1 << e of the elements e < 8 not in
# mask, in increasing order (zero-padded).
_FREE_BITS = np.array([[1 << e for e in range(8) if not m >> e & 1]
                       + [0] * m.bit_count() for m in range(256)],
                      dtype=np.uint8)
# No shared prefixes, at every level: the search labels every element
# per row.
_UNSHARED = [np.empty((0, 1 << j), dtype=np.uint8) for j in range(8)]


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
    # the permutations of range(k) in lexicographic order are those of
    # range(k - 1) after each first element f, shifted past it
    perms = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        perms = np.concatenate([np.insert(perms + (perms >= f), 0, f, axis=1)
                                for f in range(k)])
    # each mask's images as one row of the transpose, which fills
    # faster than a strided column
    bits = (1 << perms.T).astype(np.uint8)
    idx = np.zeros((1 << n, len(perms)), dtype=np.uint8)
    for m in range(1, 1 << n):
        low = m & -m
        idx[m] = idx[m ^ low] | bits[low.bit_length() - 1]
    sigmas = np.empty(perms.shape, dtype=np.uint8)
    sigmas[np.arange(len(perms))[:, None], perms] = range(n)
    return np.ascontiguousarray(idx.T), sigmas


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
    matrix, in the lexicographic order of the permutations.

    The lex-min table has non-decreasing singleton ranks (swapping two
    adjacent labels would otherwise lower the first changed entry), so
    only the c = prod(m!) relabelings sorting the singleton ranks, m
    over their multiplicities, can win; every automorphism of the winner
    is among them too.  Equal singleton ranks make every relabeling a
    candidate, and the entry shares _perm_tables' arrays; any other
    entry holds c * (2^n + n) bytes of its own, at most (n-1)! * (2^n +
    n) (1.3 MB at n=8).  The cache keeps at most 128 entries.
    Generation reaches it only through automorphisms, for canonical
    parents, whose singleton ranks are sorted, so it needs few.
    """
    idx, sigmas = _perm_tables(n)
    if n < 2:
        return idx, sigmas
    rank_of = np.zeros(1 << n, dtype=np.uint8)
    for j, r in enumerate(singles):
        rank_of[1 << j] = r
    seq = rank_of[idx[:, [1 << j for j in range(n)]]]
    live = np.all(seq[:, :-1] <= seq[:, 1:], axis=1)
    if live.all():
        return idx, sigmas
    return idx[live], sigmas[live]


def canonical_bytes(rho_bytes: bytes, n: int):
    """(canonical rank sequence as bytes, winning permutation, aut order)
    for a table whose entries all fit in one byte.

    Up to _SLICE_ROWS candidate relabelings, the minimum is taken over
    one byte string per candidate: the first candidate reaching it gives
    sigma, and the candidates reaching it number the automorphisms.
    More are left to the search, as canonical_forms labels a block of
    this one row.
    """
    gather, sigmas = _candidates(n, _singleton_ranks(n)(rho_bytes))
    rho = np.frombuffer(rho_bytes, dtype=np.uint8)
    if len(sigmas) > _SLICE_ROWS:
        forms, sigma, aut = canonical_forms(rho[None], n)
        return forms[0].tobytes(), tuple(sigma[0].tolist()), int(aut[0])
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

    One search with no target labels the whole block.  A row's pairs
    stay in the permutations' order, so the image of its first complete
    pair is its first winning relabeling, and sigma is read off it: the
    element that new label j stands for is the bit at new mask 2^j.
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
    rows = np.arange(len(tables))
    forms, images, aut = _search(
        np.ascontiguousarray(tables).ravel(), size,
        np.empty(0, dtype=np.uint8), _UNSHARED, rows, rows,
        np.zeros((len(tables), 1), dtype=np.uint8))
    sigma = np.argsort(images[:, [1 << j for j in range(n)]], axis=1)
    return forms, sigma.astype(np.uint8), aut


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
    cb[:2^n] == parent_bytes, found by one search with the parent as
    its target.  Prefixes that label old elements only read the parent
    alone, so they are found once (_shared_prefixes); only prefixes
    holding the new element are carried per row.  If the parent is not
    canonical, no row is."""
    tables = np.ascontiguousarray(tables)
    parent = np.frombuffer(parent_bytes, dtype=np.uint8)
    if (tables.dtype != np.uint8 or tables.ndim != 2
            or tables.shape[1] != 2 * len(parent)
            or not (tables[:, :len(parent)] == parent).all()):
        raise ValueError("rows must be uint8 extension tables of the parent")
    shared = _shared_prefixes(parent, parent_bytes)
    rows = np.arange(len(tables) if shared else 0)
    forms, _images, aut = _search(tables.ravel(), tables.shape[1], parent,
                                  shared, rows, rows[:0],
                                  np.empty((0, 1), dtype=np.uint8))
    return forms, aut


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


def _search(flat, size, target, shared, rows, row, img):
    """The lex-min relabelings of the live rows of a block of tables
    whose lex-min form starts with target (every row, for an empty
    target), as (forms, images, aut): per such row, in order, its
    canonical form, the image of its first winning relabeling and how
    many relabelings reach the form.  flat holds the block's tables one
    after another, size entries each.

    The search is at level j, over the live rows (increasing) and the
    (row, img) pairs: ordered prefixes of j new labels of one row, each
    held as its image (img[p, m] is the old mask that new mask m < 2^j
    stands for).  A pair's children give label j to each unused element
    in increasing order.  Each live row also has a child for each shared
    prefix a of shared[j] that gives label j to the element of bit
    len(target), reading the row at a[m] + len(target): the prefixes of
    the target's elements alone read the target, not the row, and are
    found once for the block.  A child reads the new masks [2^j,
    2^(j+1)), as big-endian words of up to 8 entries.  Inside the
    target, a child below it rejects its row, one equal to it is a pair
    of level j + 1, and one above is dropped.  Past the target, the
    children reading their row's least are kept: the least word, or
    over several words the first after a stable sort of the row's
    children.  Ties keep the order of their prefixes, so that with no
    shared prefixes a row's pairs stay in the permutations' order.  At
    a complete image every pair of a row reads its form.  A level that
    would read more than _SEARCH_ENTRIES entries is split between the
    rows."""
    width = img.shape[1]
    if not len(rows):
        empty = np.empty((0, size), dtype=np.uint8)
        return empty, empty, np.empty(0, dtype=np.intp)
    if width == size:
        # a row's pairs are adjacent here, in the order of their prefixes
        head = np.ones(len(row), dtype=bool)
        head[1:] = row[1:] != row[:-1]
        images = img[head]
        return (flat[images + (rows * size)[:, None]], images,
                np.bincount(head.cumsum() - 1))
    left = size.bit_length() - width.bit_length()  # labels not yet given
    a = shared[width.bit_length() - 1]
    if (len(row) * left + len(rows) * len(a)) * width > _SEARCH_ENTRIES \
            and len(rows) > 1:
        mid = len(rows) // 2
        low = row < rows[mid]
        parts = [_search(flat, size, target, shared, part, row[sel], img[sel])
                 for part, sel in ((rows[:mid], low), (rows[mid:], ~low))]
        return tuple(np.concatenate(p) for p in zip(*parts))
    # each child as its prefix's image, its new bit and its row: mask X
    # of the level is the old mask base[m] plus the bit
    base = img.repeat(left, axis=0)
    bit = _FREE_BITS[img[:, -1], :left].ravel()
    own = row.repeat(left)
    if len(a):
        base = np.concatenate(
            (base, a[None].repeat(len(rows), 0).reshape(-1, width)))
        bit = np.concatenate((bit, np.full(len(rows) * len(a), len(target),
                                           dtype=np.uint8)))
        own = np.concatenate((own, rows.repeat(len(a))))
    entries = flat[base + (own * size + bit)[:, None]]
    words = entries.view(f">u{min(width, 8)}")
    if width < len(target):
        bound = target[width:2 * width].view(words.dtype)
        less, keep = words[:, 0] < bound[0], words[:, 0] == bound[0]
        for col in range(1, len(bound)):
            less |= keep & (words[:, col] < bound[col])
            keep &= words[:, col] == bound[col]
        dead = np.zeros(len(flat) // size, dtype=bool)
        dead[own[less]] = True
        keep &= ~dead[own]
        rows = rows[~dead[rows]]
    elif len(own) == len(rows):
        keep = slice(None)  # one child per row
    else:
        # a row's children together, ordered by their entries when these
        # span more than one word, ties in the order of their prefixes
        if width > 8:
            order = np.lexsort((entries.view(f"V{width}").ravel(), own))
        elif len(a):
            order = np.argsort(own, kind="stable")
        else:
            order = slice(None)
        base, bit, own, words = base[order], bit[order], own[order], \
            words[order]
        head = np.ones(len(own), dtype=bool)
        head[1:] = own[1:] != own[:-1]
        start = np.flatnonzero(head)
        # a row's least: its first child, or its least word
        least = words[start] if width > 8 else \
            np.minimum.reduceat(words, start)
        keep = (words == least[head.cumsum() - 1]).all(axis=1)
    kept = base[keep]
    return _search(flat, size, target, shared, rows, own[keep],
                   np.concatenate((kept, kept | bit[keep, None]), axis=1))


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
    if aut_order < 1 or fact % aut_order:
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
