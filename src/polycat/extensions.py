"""Single-element extensions via extensible partitions of the flats.

A partition assigns every flat F a class mu(F) in {0, ..., k} (empty
classes allowed); the extension is rho_ext(X|e) = rho(X) + mu(cl(X)).
Every function here reads cl(X) from the lattice's closure index
(FlatLattice.closure, made once per parent by core.flats) and computes
no closure itself.  A partition is a mu-vector aligned with the sorted
flats: a plain sequence, or one row of a numpy array.  Valid
assignments are characterized by three conditions on flat pairs; for
k=2 an equivalent list of seven conditions is reported by
check_partition for diagnostics.

enumerate_extensible_partitions assigns the flats supersets-first, one
numpy pass per flat over a frontier of all partial assignments, and
returns the partitions as the rows of one array, in the frontier's
order.  Each condition bounds a flat assigned later (a subset, or the
meet of a pair) by flats assigned earlier, so every row carries
per-flat lower and upper bounds that are tightened as soon as a value
is fixed.  The frontier is kept flat-major and contiguous (one run of
rows per flat), so that reading or writing one flat's bounds on every
row moves whole runs; a row whose bounds emptied is dropped by the next
expansion rather than by a copy of its own.  extension_builder turns
rows into extension rank tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import FlatLattice, RankTable, flats, modular_defect


@dataclass(frozen=True)
class ConditionViolation:
    condition: str  # "1".."7" for k=2, "I"/"II"/"III" otherwise
    flats: tuple


def mu_of_set(parent: RankTable, lattice: FlatLattice, mu, x: int) -> int:
    """Class of an arbitrary subset: mu read at its closure."""
    return mu[lattice.closure[x]]


def _check_general(parent: RankTable, lattice: FlatLattice, mu):
    """Conditions (I)-(III) for any k."""
    fl = lattice.flats
    cl = lattice.closure
    m = len(fl)
    rho = parent.rho
    for i in range(m):
        for j in range(m):
            f, g = fl[i], fl[j]
            if f & g == f and f != g:  # f subset of g
                if mu[j] > mu[i]:
                    return ConditionViolation("III", (f, g))
                if rho[f] + mu[i] > rho[g] + mu[j]:
                    return ConditionViolation("II", (f, g))
    for i in range(m):
        for j in range(i + 1, m):
            f, g = fl[i], fl[j]
            d = modular_defect(parent, f, g)
            if mu[cl[f & g]] + mu[cl[f | g]] - d > mu[i] + mu[j]:
                return ConditionViolation("I", (f, g))
    return None


def _check_seven(parent: RankTable, lattice: FlatLattice, mu):
    """The seven-condition specialization for k=2, with per-condition
    diagnostics."""
    fl = lattice.flats
    cl = lattice.closure
    m = len(fl)
    rho = parent.rho
    # (6), (7): M_2 down-closed, M_0 up-closed; (1): no rank+1 flat above
    # an M_2 member may sit in M_0.
    for i in range(m):
        for j in range(m):
            f, g = fl[i], fl[j]
            if not (f & g == f and f != g):
                continue
            if mu[i] == 0 and mu[j] != 0:
                return ConditionViolation("7", (f, g))
            if mu[j] == 2 and mu[i] != 2:
                return ConditionViolation("6", (f, g))
            if mu[i] == 2 and mu[j] == 0 and rho[g] - rho[f] == 1:
                return ConditionViolation("1", (f, g))
    for i in range(m):
        for j in range(i + 1, m):
            f, g = fl[i], fl[j]
            d = modular_defect(parent, f, g)
            meet = mu[cl[f & g]]
            join = mu[cl[f | g]]
            a, b = mu[i], mu[j]
            if a == 0 and b == 0:
                if d == 0 and meet != 0:
                    return ConditionViolation("2", (f, g))
                if d == 1 and meet == 2:
                    return ConditionViolation("3", (f, g))
            elif a == 1 and b == 1:
                if d == 0 and not (meet == 1 or (meet == 2 and join == 0)):
                    return ConditionViolation("4", (f, g))
            elif {a, b} == {0, 1}:
                if d == 0 and meet == 2:
                    return ConditionViolation("5", (f, g))
    return None


def check_partition(parent: RankTable, mu, lattice: FlatLattice | None = None):
    """Validate a candidate class assignment, a mu sequence aligned with
    the sorted flats (a tuple, or a row of enumerated partitions); None
    means extensible."""
    if lattice is None:
        lattice = flats(parent)
    mu = [int(v) for v in mu]
    if len(mu) != len(lattice):
        raise ValueError("assignment length does not match flat count")
    if any(not 0 <= v <= parent.k for v in mu):
        raise ValueError(f"class indices must lie in 0..{parent.k}")
    if parent.k == 2:
        return _check_seven(parent, lattice, mu)
    return _check_general(parent, lattice, mu)


def _flat_tables(parent: RankTable, lattice: FlatLattice, dtype):
    """What assigning each flat a decides, in search order.

    Per flat: its index a; its strict subsets s (all assigned later),
    as rows of LO (their flat indices) and of HI (their place after a in
    search order), with rho(a) - rho(s), the slack condition (II)
    leaves; and the incomparable pairs (a, b) with b assigned earlier,
    which are complete once a is, grouped by meet.  A meet is a subset
    of a, and the M subsets that are meets come first, in the order of
    their runs of pairs.  The pairs come as padded runs: a (2, M * L)
    array of the other member b over the join, and the modular defect,
    one run of L entries per meet, where L is the longest run of the
    flat.  A shorter run repeats its own last pair up to L, which
    leaves the run's minimum unchanged, so the caps of all M meets are
    one min over a (M, L, rows) block."""
    fl = np.array(lattice.flats, np.intp)
    m = len(fl)
    # supersets before subsets
    size = np.array([f.bit_count() for f in lattice.flats])
    order = (-size).argsort(kind="stable")
    pos = order.argsort()
    rho = np.array(parent.rho, np.int64)
    rho_fl = rho[fl]
    cl_idx = lattice.closure
    meet = fl[:, None] & fl
    sub = meet == fl  # sub[a, s]: flat s lies inside flat a
    np.fill_diagonal(sub, False)

    later, other = (~(sub | sub.T) & (pos[:, None] > pos)).nonzero()
    meet_idx = cl_idx[meet[later, other]]
    union = fl[later] | fl[other]
    defect = rho_fl[later] + rho_fl[other] - rho[union] - rho_fl[meet_idx]
    # (III) puts mu[join] <= mu[a], so (I) caps the meet at no less than
    # mu[b] + d: a pair with d >= k can never cut below HI <= k
    key = pos[later] * m + meet_idx
    kept = (defect < parent.k).nonzero()[0]
    kept = kept[key[kept].argsort(kind="stable")]
    key = key[kept]
    pair = np.array((other[kept], cl_idx[union[kept]]))
    defect = defect[kept].astype(dtype)
    head = np.ones(len(key) + 1, bool)
    np.not_equal(key[1:], key[:-1], out=head[1:-1])
    edges = head.nonzero()[0]  # the start of each run, then the end
    runs, run_len = edges[:-1], edges[1:] - edges[:-1]
    run_level, run_meet = np.divmod(key[runs], m)
    # pad every run to its level's longest by repeating its last pair
    longest = np.zeros(m, np.intp)
    np.maximum.at(longest, run_level, run_len)
    padded = longest[run_level]
    step = np.arange(padded.sum()) - (padded.cumsum() - padded).repeat(padded)
    pick = runs.repeat(padded) + np.minimum(step, (run_len - 1).repeat(padded))
    pair, defect = pair[:, pick], defect[pick, None]
    n_meets = np.bincount(run_level, minlength=m)
    pad_len = n_meets * longest
    pad_end = pad_len.cumsum()

    # the subsets of each flat, its meets first
    is_meet = np.zeros((m, m), bool)
    is_meet[run_level, run_meet] = True
    sa, ss = sub[order].nonzero()
    meets_first = (2 * sa + ~is_meet[sa, ss]).argsort(kind="stable")
    sa, ss = sa[meets_first], ss[meets_first]
    gap = (rho_fl[order[sa]] - rho_fl[ss]).astype(dtype)
    # HI holds the flats after a in search order once a is assigned
    hsub = pos[ss] - sa - 1
    sub_off = sa.searchsorted(np.arange(m + 1)).tolist()

    tables = []
    for p, (a, q0, q1, nm) in enumerate(zip(
            order.tolist(), (pad_end - pad_len).tolist(), pad_end.tolist(),
            n_meets.tolist())):
        s0, s1 = sub_off[p], sub_off[p + 1]
        tables.append((a, ss[s0:s1], hsub[s0:s1], gap[s0:s1, None],
                       pair[:, q0:q1], defect[q0:q1], nm))
    return tables


def _frontier(parent: RankTable, lattice: FlatLattice):
    """The search of enumerate_extensible_partitions: the LO plane of
    the last frontier (one column per row, mu once every flat is
    assigned), and a mask of its live columns, or None when all are."""
    dtype = _row_dtype(parent)
    m = len(lattice)
    # lo[f] is LO of flat f; hi[j] is HI of the j-th flat in search
    # order, shifted by one row as each flat is assigned
    lo = np.zeros((m, 1), dtype)
    hi = np.full((m, 1), parent.k, dtype)
    live = None
    for a, subs, hsubs, gap, pair, defect, meets in _flat_tables(
            parent, lattice, dtype):
        width = np.subtract(hi[0], lo[a], dtype=np.intp) + 1
        hi = hi[1:]
        if live is not None:
            width *= live
        if width.max() > 1:
            rep = np.arange(len(width)).repeat(width)
            step = np.arange(len(rep)) - (width.cumsum() - width).take(rep)
            lo = lo.take(rep, axis=1)
            hi = hi.take(rep, axis=1)
            lo[a] += step
            live = None
        if not len(subs):
            continue
        v = lo[a]
        sub_lo = lo.take(subs, axis=0)
        np.maximum(sub_lo, v, out=sub_lo)
        sub_hi = hi.take(hsubs, axis=0)
        np.minimum(sub_hi, v + gap, out=sub_hi)
        if meets:
            slack = lo.take(pair[0], axis=0)
            slack += defect
            slack -= lo.take(pair[1], axis=0)
            cap = slack.reshape(meets, -1, len(v)).min(axis=1)
            cap += v
            np.minimum(sub_hi[:meets], cap, out=sub_hi[:meets])
        lo[subs] = sub_lo
        hi[hsubs] = sub_hi
        ok = (sub_lo <= sub_hi).all(axis=0)
        if np.count_nonzero(ok) < len(ok):
            live = ok if live is None else live & ok
    return lo, live


def enumerate_extensible_partitions(parent: RankTable,
                                    lattice: FlatLattice | None = None):
    """The mu-vectors of every extensible partition as the rows of one
    array (int8, or int64 when k(n+2) >= 128), as the frontier leaves
    them: strictly increasing lexicographically in search order (flats
    by decreasing size, ties by flat index), not in flat order.

    The flats are assigned supersets-first, all partial assignments at
    once: a frontier of rows holding per-flat lower and upper bounds
    LO <= mu <= HI (an assigned flat has LO = HI = mu).  Assigning flat
    a expands every row over its interval [LO, HI] and tightens, on
    every row, each flat the new value constrains, all of them assigned
    later:
      (III) a subset s of a:   LO[s] >= mu[a];
      (II)  a subset s of a:   HI[s] <= mu[a] + rho(a) - rho(s);
      (I)   the meet of a pair (a, b) with b already assigned:
            HI[meet] <= mu[a] + mu[b] + d(a, b) - mu[join].
    The cap (I) puts on a meet is the min over its pairs.  _flat_tables
    pads each meet's run of pairs to the flat's longest run by repeating
    the run's last pair, which leaves its min unchanged, so the caps of
    all of a flat's meets are one (meets, L, rows) block reduced over
    its middle axis.

    The frontier is flat-major and C-contiguous: LO is one (flats, rows)
    array in flat order, and HI one (flats left, rows) array in search
    order, so that HI of the assigned flat is always its first row and
    is sliced off as the flat is assigned (only LO is read after that).
    A flat's bounds over all rows are then one contiguous run, and every
    gather and scatter above moves whole runs.  Rows are expanded with
    take and filtered with compress on the row axis: an advanced index
    on the last axis would lay its result out with that axis outermost,
    leaving every later read of a flat strided by the number of flats.

    A row whose bounds emptied is not copied out at once.  It is marked
    dead and lives on until the next expansion, where it repeats 0
    times; the rows still dead after the last flat are dropped by one
    compress.  So each level copies the frontier at most once.
    Measured on 70 n=6 polymatroids of 51-64 flats, the largest live
    frontier was at most 3.3 times the number of partitions returned,
    and at most 1.13 times on the 15 with more than 100,000 partitions
    (the largest: 1,729,414 rows for 1,598,828 partitions).
    """
    if lattice is None:
        lattice = flats(parent)
    mu, live = _frontier(parent, lattice)
    if live is not None:
        mu = mu.compress(live, axis=1)
    return np.ascontiguousarray(mu.T)


def _row_dtype(parent: RankTable):
    # every frontier value lies in [-k, k(n+2)], on dead rows too: LO
    # stays in [0, k] and HI in [-k, k], and the sums formed on the way
    # (mu[a] + rho(a) - rho(s) for (II), and at most 3k - 1 for (I))
    # stay below k(n+2)
    return np.int8 if parent.k * (parent.n + 2) < 128 else np.int64


def _partitions_by_filter(parent: RankTable, lattice: FlatLattice):
    """Reference path for enumerate_extensible_partitions, with the same
    rows in flat order: every (k+1)^|flats| assignment, in lexicographic
    order, screened through check_partition."""
    rows = [mu for mu in itertools.product(range(parent.k + 1),
                                           repeat=len(lattice))
            if check_partition(parent, mu, lattice) is None]
    return np.array(rows, _row_dtype(parent)).reshape(-1, len(lattice))


def extension_builder(parent: RankTable, lattice: FlatLattice):
    """A function build(rows) for repeated use on one parent: it maps a
    mu-vector to the extension's rank table [rho | rho + mu[cl(X)]], and
    a 2-D block of them to one table per row, as a uint8 numpy array.
    Its ranks, at most k(n+1), fit in a byte for a parent of fewer than
    core.MAX_N elements."""
    rho = np.array(parent.rho, np.uint8)
    cl_idx = lattice.closure

    def build(rows):
        rows = np.asarray(rows)
        ext = np.empty(rows.shape[:-1] + (2 * len(rho),), np.uint8)
        ext[..., :len(rho)] = rho
        ext[..., len(rho):] = rho + rows[..., cl_idx]
        return ext

    return build


def _require_extensible(parent, mu, lattice):
    bad = check_partition(parent, mu, lattice)
    if bad is not None:
        raise ValueError(f"partition is not extensible: "
                         f"condition ({bad.condition}) fails at "
                         f"flats {bad.flats}")


def extend(parent: RankTable, mu,
           lattice: FlatLattice | None = None) -> RankTable:
    """The single-element extension defined by a partition's mu-vector;
    the new element is numbered n+1 (the highest bit)."""
    if lattice is None:
        lattice = flats(parent)
    _require_extensible(parent, mu, lattice)
    ext = extension_builder(parent, lattice)(mu)
    return RankTable(parent.n + 1, parent.k, tuple(ext.tolist()))


def extension_flats(parent: RankTable, mu,
                    lattice: FlatLattice | None = None):
    """Flats of the extension, read off the partition directly:
    F for F outside M_0; F|e for F in M_0; F|e for F in M_i (i>0) with
    no cover G satisfying rho(F)+mu(F) = rho(G)+mu(G)."""
    if lattice is None:
        lattice = flats(parent)
    _require_extensible(parent, mu, lattice)
    rho = parent.rho
    e_bit = 1 << parent.n
    cl = lattice.closure
    out = []
    for i, f in enumerate(lattice.flats):
        if mu[i] > 0:
            out.append(f)
        if mu[i] == 0 or all(rho[f] + mu[i] != rho[g] + mu[cl[g]]
                             for g in lattice.covers[i]):
            out.append(f | e_bit)
    out.sort()
    return tuple(out)
