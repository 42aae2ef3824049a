"""Single-element extensions via extensible partitions of the flats.

A partition assigns every flat F a class mu(F) in {0, ..., k} (empty
classes allowed); the extension is rho_ext(X|e) = rho(X) + mu(cl(X)).
Valid assignments are characterized by three conditions on flat pairs;
for k=2 an equivalent list of seven conditions is reported by
check_partition for diagnostics.

extensible_rows assigns the flats supersets-first, one numpy pass per
flat over a frontier of all partial assignments, and returns the
partitions as the rows of one array; enumerate_extensible_partitions
wraps them as ExtensiblePartition objects.  Each condition bounds a flat
assigned later (a subset, or the meet of a pair) by flats assigned
earlier, so every row carries per-flat lower and upper bounds that are
tightened as soon as a value is fixed, and a row is dropped the moment
some interval is empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    FlatLattice,
    RankTable,
    closure,
    closure_table,
    flats,
    modular_defect,
)


@dataclass(frozen=True)
class ExtensiblePartition:
    """Class index per flat, aligned with the sorted flat list of the
    parent's lattice."""

    mu: tuple

    def serialize(self) -> str:
        return "".join(map(str, self.mu))


@dataclass(frozen=True)
class ConditionViolation:
    condition: str  # "1".."7" for k=2, "I"/"II"/"III" otherwise
    flats: tuple


def mu_of_set(parent: RankTable, lattice: FlatLattice,
              partition: ExtensiblePartition, x: int) -> int:
    """Class of an arbitrary subset: mu read at its closure."""
    return partition.mu[lattice.index(closure(parent, x))]


def _check_general(parent: RankTable, lattice: FlatLattice, mu):
    """Conditions (I)-(III) for any k."""
    fl = lattice.flats
    m = len(fl)
    idx = {f: i for i, f in enumerate(fl)}
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
            meet = idx[f & g]
            join = idx[closure(parent, f | g)]
            d = modular_defect(parent, f, g)
            if mu[meet] + mu[join] - d > mu[i] + mu[j]:
                return ConditionViolation("I", (f, g))
    return None


def _check_seven(parent: RankTable, lattice: FlatLattice, mu):
    """The seven-condition specialization for k=2, with per-condition
    diagnostics."""
    fl = lattice.flats
    m = len(fl)
    idx = {f: i for i, f in enumerate(fl)}
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
            meet = mu[idx[f & g]]
            join = mu[idx[closure(parent, f | g)]]
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
    """Validate a candidate class assignment; None means extensible.

    mu may be an ExtensiblePartition or a plain sequence aligned with the
    sorted flats.
    """
    if lattice is None:
        lattice = flats(parent)
    if isinstance(mu, ExtensiblePartition):
        mu = mu.mu
    if len(mu) != len(lattice):
        raise ValueError("assignment length does not match flat count")
    if any(not 0 <= v <= parent.k for v in mu):
        raise ValueError(f"class indices must lie in 0..{parent.k}")
    if parent.k == 2:
        return _check_seven(parent, lattice, mu)
    return _check_general(parent, lattice, mu)


def _search_order(lattice: FlatLattice):
    """Flat indices, supersets before subsets (popcount descending)."""
    return sorted(range(len(lattice)),
                  key=lambda i: -lattice.flats[i].bit_count())


def _flat_tables(parent: RankTable, lattice: FlatLattice, dtype):
    """What assigning each flat a decides, in search order.

    Per flat: its index a; its strict subsets s (all assigned later)
    with rho(a) - rho(s), the slack condition (II) leaves; and the
    incomparable pairs (a, b) with b assigned earlier, which are
    complete once a is, sorted by meet: the other member b, the join and
    the modular defect as arrays, with the distinct meets (as positions
    in the subset array, since a meet is a subset of a) and the start of
    each meet's run."""
    order = _search_order(lattice)
    fl = np.array(lattice.flats, np.intp)
    m = len(fl)
    rho = np.array(parent.rho, np.int64)
    rho_fl = rho[fl]
    # the closure of a mask is the smallest flat containing it
    masks = np.arange(1 << parent.n)[:, None]
    size = np.array([f.bit_count() for f in lattice.flats])
    cl_idx = np.where((masks & fl) == masks, size, parent.n + 1).argmin(1)
    pos = np.empty(m, np.intp)
    pos[order] = np.arange(m)
    meet = fl[:, None] & fl
    sub = meet == fl  # sub[a, s]: flat s lies inside flat a
    np.fill_diagonal(sub, False)
    sub_pos = np.cumsum(sub, axis=1) - 1

    sa, ss = np.nonzero(sub[order])
    sub_off = np.searchsorted(sa, np.arange(m + 1))
    gap = (rho_fl[np.asarray(order)[sa]] - rho_fl[ss]).astype(dtype)

    later, other = np.nonzero(~(sub | sub.T) & (pos[:, None] > pos))
    meet_idx = cl_idx[meet[later, other]]
    union = fl[later] | fl[other]
    defect = rho_fl[later] + rho_fl[other] - rho[union] - rho_fl[meet_idx]
    # (III) puts mu[join] <= mu[a], so (I) caps the meet at no less than
    # mu[b] + d: a pair with d >= k can never cut below HI <= k
    key = pos[later] * m + meet_idx
    kept = np.flatnonzero(defect < parent.k)
    kept = kept[np.argsort(key[kept], kind="stable")]
    later, other, key = later[kept], other[kept], key[kept]
    meet_idx, join = meet_idx[kept], cl_idx[union[kept]]
    defect = defect[kept].astype(dtype)
    pair_off = np.searchsorted(pos[later], np.arange(m + 1))
    runs = np.flatnonzero(np.diff(key, prepend=-1))
    run_off = np.searchsorted(runs, pair_off)
    run_meet = sub_pos[later[runs], meet_idx[runs]]

    tables = []
    for p, a in enumerate(order):
        s0, s1 = sub_off[p], sub_off[p + 1]
        p0, p1 = pair_off[p], pair_off[p + 1]
        r0, r1 = run_off[p], run_off[p + 1]
        tables.append((a, ss[s0:s1], gap[s0:s1, None], other[p0:p1],
                       join[p0:p1], defect[p0:p1, None], run_meet[r0:r1],
                       runs[r0:r1] - p0))
    return tables


def extensible_rows(parent: RankTable, lattice: FlatLattice | None = None):
    """The mu-vectors of every extensible partition as the rows of one
    array (int8, or int64 when k(n+2) >= 128), sorted lexicographically.

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
    Rows with LO > HI anywhere are dropped at once, so the frontier
    never holds a partial assignment whose bounds are already empty.
    Measured on 70 n=6 polymatroids of 51-64 flats, the largest
    frontier was at most 3.3 times the number of partitions returned,
    and at most 1.13 times on the 15 with more than 100,000 partitions
    (the largest: 1,729,414 rows for 1,598,828 partitions).
    """
    if lattice is None:
        lattice = flats(parent)
    # every bound lies in [-k, k(n+2)]
    dtype = np.int8 if parent.k * (parent.n + 2) < 128 else np.int64
    # bounds[0] is LO and bounds[1] is HI, one column per row
    bounds = np.empty((2, len(lattice), 1), dtype)
    bounds[0], bounds[1] = 0, parent.k
    for a, subs, gap, others, joins, defect, meets, starts in _flat_tables(
            parent, lattice, dtype):
        width = (bounds[1, a] - bounds[0, a]).astype(np.intp) + 1
        if width.max() > 1:
            rep = np.repeat(np.arange(len(width)), width)
            step = np.arange(len(rep)) - (np.cumsum(width) - width)[rep]
            bounds = bounds[:, :, rep]
            bounds[0, a] += step.astype(dtype)
            bounds[1, a] = bounds[0, a]
        if not len(subs):
            continue
        lo, hi = bounds[0], bounds[1]
        v = lo[a]
        sub_lo = np.maximum(lo[subs], v)
        sub_hi = np.minimum(hi[subs], v + gap)
        if len(others):
            slack = lo[others] + defect - lo[joins]
            cap = np.minimum.reduceat(slack, starts, axis=0) + v
            sub_hi[meets] = np.minimum(sub_hi[meets], cap)
        lo[subs] = sub_lo
        hi[subs] = sub_hi
        ok = (sub_lo <= sub_hi).all(axis=0)
        if not ok.all():
            bounds = bounds[:, :, ok]
    mu = bounds[0]
    return mu.T[np.lexsort(mu[::-1])]


def enumerate_extensible_partitions(parent: RankTable,
                                    lattice: FlatLattice | None = None,
                                    method: str = "backtrack"):
    """All extensible partitions, sorted by mu-vector.

    method="backtrack" wraps the rows of extensible_rows, where the
    search is described; method="filter" is the reference path that
    screens every (k+1)^|flats| assignment through check_partition.
    """
    if lattice is None:
        lattice = flats(parent)
    if method == "filter":
        out = [
            ExtensiblePartition(mu)
            for mu in itertools.product(range(parent.k + 1),
                                        repeat=len(lattice))
            if check_partition(parent, mu, lattice) is None
        ]
        out.sort(key=lambda p: p.mu)
        return out
    if method != "backtrack":
        raise ValueError(f"unknown method {method!r}")

    mu = extensible_rows(parent, lattice)
    out = []
    # a block of rows at a time: faster than one tolist, and it never
    # holds every row as a Python list at once
    for i in range(0, len(mu), 512):
        out += map(ExtensiblePartition, map(tuple, mu[i:i + 512].tolist()))
    return out


def closure_flats(parent: RankTable, lattice: FlatLattice):
    """For every mask X, the index of its closure cl(X) in the sorted
    flat list."""
    idx = {f: i for i, f in enumerate(lattice.flats)}
    return [idx[c] for c in closure_table(parent)]


def extension_builder(parent: RankTable, lattice: FlatLattice):
    """Closure-sharing fast path: a function mapping a mu-vector to the
    extension's rank tuple, for repeated use on one parent."""
    rho = parent.rho
    pairs = list(zip(rho, closure_flats(parent, lattice)))

    def build(mu):
        return rho + tuple(r + mu[i] for r, i in pairs)

    return build


def extend(parent: RankTable, partition: ExtensiblePartition,
           lattice: FlatLattice | None = None,
           checked: bool = True) -> RankTable:
    """The single-element extension defined by a partition; the new
    element is numbered n+1 (the highest bit)."""
    if lattice is None:
        lattice = flats(parent)
    if checked:
        bad = check_partition(parent, partition, lattice)
        if bad is not None:
            raise ValueError(f"partition is not extensible: "
                             f"condition ({bad.condition}) fails at "
                             f"flats {bad.flats}")
    ext = extension_builder(parent, lattice)(partition.mu)
    return RankTable(parent.n + 1, parent.k, ext)


def extension_flats(parent: RankTable, partition: ExtensiblePartition,
                    lattice: FlatLattice | None = None):
    """Flats of the extension, read off the partition directly:
    F for F outside M_0; F|e for F in M_0; F|e for F in M_i (i>0) with
    no cover G satisfying rho(F)+mu(F) = rho(G)+mu(G)."""
    if lattice is None:
        lattice = flats(parent)
    bad = check_partition(parent, partition, lattice)
    if bad is not None:
        raise ValueError(f"partition is not extensible: "
                         f"condition ({bad.condition}) fails at "
                         f"flats {bad.flats}")
    mu = partition.mu
    rho = parent.rho
    e_bit = 1 << parent.n
    idx = {f: i for i, f in enumerate(lattice.flats)}
    out = []
    for i, f in enumerate(lattice.flats):
        if mu[i] > 0:
            out.append(f)
            tight = any(
                rho[f] + mu[i] == rho[g] + mu[idx[g]]
                for g in lattice.covers[i]
            )
            if not tight:
                out.append(f | e_bit)
        else:
            out.append(f | e_bit)
    out.sort()
    return tuple(out)
