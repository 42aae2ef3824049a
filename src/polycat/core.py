"""Dense rank-table representation of integer polymatroids.

A polymatroid on ground set {1, ..., n} is stored as a table of 2^n rank
values indexed by subset bitmask, where element i corresponds to bit i-1.
All types here are immutable; every operation returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# canonical labeling compares relabelings as uint8 gathers of n! rows;
# n = 8 is the last size where that table stays small (10 MB)
MAX_N = 8
# the largest element-rank cap for which every rank, at most k * n,
# fits in one byte on every ground set, as canonical labeling needs
MAX_K = 255 // MAX_N


def bits_of(m: int):
    """Yield the set bit positions (0-based) of mask m, ascending."""
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


@dataclass(frozen=True)
class RankTable:
    """A k-polymatroid as a dense rank table.

    rho has 2^n entries in increasing-bitmask order; rho[m] is the rank of
    the subset with bitmask m.  n lies in [0, MAX_N] and k in [1, MAX_K].
    """

    n: int
    k: int
    rho: tuple

    def __post_init__(self):
        if not 0 <= self.n <= MAX_N:
            raise ValueError(f"ground-set size {self.n} outside [0, {MAX_N}]")
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"element-rank cap {self.k} outside [1, {MAX_K}]")
        if len(self.rho) != 1 << self.n:
            raise ValueError(
                f"rank table has {len(self.rho)} entries, expected {1 << self.n}"
            )

    @property
    def full(self) -> int:
        """Bitmask of the whole ground set."""
        return (1 << self.n) - 1

    @property
    def rank(self) -> int:
        """Rank of the polymatroid, rho(S)."""
        return self.rho[self.full]


@dataclass(frozen=True)
class Violation:
    """First failed polymatroid axiom with witnessing subsets."""

    axiom: str  # "normalized" | "monotone" | "submodular" | "element-cap"
    subsets: tuple

    def __str__(self):
        wit = ", ".join(format(m, "b").zfill(1) for m in self.subsets)
        return f"axiom '{self.axiom}' violated at masks [{wit}]"


@dataclass(frozen=True)
class FlatLattice:
    """Flats of a polymatroid with ranks and the closure of every
    subset, and the cover relation, computed from flats on first read.

    flats is sorted ascending by bitmask; rank_of is parallel to flats;
    closure is a read-only intp array whose entry x is the index in
    flats of cl(X), for every bitmask x.  Equality and hashing use
    flats and rank_of only.
    """

    flats: tuple
    rank_of: tuple
    closure: np.ndarray = field(compare=False, repr=False)

    def __len__(self):
        return len(self.flats)

    @cached_property
    def covers(self) -> tuple:
        """covers[i] lists the masks of the flats covering flats[i]."""
        fl = np.array(self.flats)
        # inside[i, j]: flat i lies strictly inside flat j; j covers i
        # when no flat lies strictly between them
        inside = ((fl[:, None] & fl) == fl[:, None]) & (fl[:, None] != fl)
        cover = inside & (inside @ inside == 0)
        return tuple(tuple(fl[above].tolist()) for above in cover)


def validate(table: RankTable) -> Violation | None:
    """Check the k-polymatroid axioms; None means valid.

    Submodularity is checked in its local three-point form, which is
    equivalent to the all-pairs inequality for monotone functions.
    """
    rho = table.rho
    n = table.n
    if rho[0] != 0:
        return Violation("normalized", (0,))
    for x in range(n):
        if rho[1 << x] > table.k:
            return Violation("element-cap", (1 << x,))
    for m in range(1 << n):
        for f in range(n):
            fb = 1 << f
            if m & fb:
                continue
            if rho[m] > rho[m | fb]:
                return Violation("monotone", (m, m | fb))
            for g in range(f + 1, n):
                gb = 1 << g
                if m & gb:
                    continue
                if rho[m] + rho[m | fb | gb] > rho[m | fb] + rho[m | gb]:
                    return Violation("submodular", (m, m | fb, m | gb))
    return None


def closure(table: RankTable, x: int) -> int:
    """Closure of the subset with bitmask x: all elements whose addition
    does not raise the rank."""
    rho = table.rho
    r = rho[x]
    out = x
    rest = table.full & ~x
    for b in bits_of(rest):
        if rho[x | (1 << b)] == r:
            out |= 1 << b
    return out


def flats(table: RankTable) -> FlatLattice:
    """All flats with their ranks and the closure index of every subset."""
    rho = np.array(table.rho)
    masks = np.arange(1 << table.n)
    bits = 1 << np.arange(table.n)
    # cl(X) is X with every element whose addition keeps rho(X); the
    # bits are distinct, so summing them ORs them in
    cl = masks | (rho[masks[:, None] | bits] == rho[:, None]) @ bits
    fl = np.flatnonzero(cl == masks)
    index = np.searchsorted(fl, cl)
    index.flags.writeable = False
    return FlatLattice(tuple(fl.tolist()), tuple(rho[fl].tolist()), index)


def modular_defect(table: RankTable, x: int, y: int) -> int:
    """rho(X) + rho(Y) - rho(X|Y) - rho(X&Y); zero for modular pairs."""
    rho = table.rho
    return rho[x] + rho[y] - rho[x | y] - rho[x & y]


def k_duals(rows, k: int):
    """The k-duals of a block of same-n tables, one per row of an
    integer matrix: rho*(X) = k|X| + rho(S-X) - rho(S), where S - X is
    the mirrored mask.  The duals are int16 rows, which hold the dual of
    any table with ranks in [0, k * n], since k * n <= 255."""
    rows = np.asarray(rows)
    size = rows.shape[1]
    duals = rows[:, ::-1].astype(np.int16)
    duals -= rows[:, -1:]
    duals += [k * m.bit_count() for m in range(size)]
    return duals


def k_dual(table: RankTable) -> RankTable:
    """The k-dual rho*(X) = k|X| + rho(S-X) - rho(S); an involution."""
    dual = k_duals([table.rho], table.k)[0]
    return RankTable(table.n, table.k, tuple(dual.tolist()))


def _expand_mask(m: int, bit: int) -> int:
    """Shift the bits of mask m from `bit` up by one, leaving `bit`
    clear."""
    low = m & ((1 << bit) - 1)
    high = m >> bit
    return low | (high << (bit + 1))


def delete(table: RankTable, e: int) -> RankTable:
    """Delete element e (1-based): restrict rho to subsets avoiding e,
    renumbering surviving elements order-preservingly."""
    if not 1 <= e <= table.n:
        raise ValueError(f"element {e} not in ground set of size {table.n}")
    b = e - 1
    rho = tuple(table.rho[_expand_mask(m, b)] for m in range(1 << (table.n - 1)))
    return RankTable(table.n - 1, table.k, rho)


def contract(table: RankTable, e: int) -> RankTable:
    """Contract element e (1-based): rho/e(X) = rho(X|e) - rho(e)."""
    if not 1 <= e <= table.n:
        raise ValueError(f"element {e} not in ground set of size {table.n}")
    b = 1 << (e - 1)
    re = table.rho[b]
    rho = tuple(
        table.rho[_expand_mask(m, e - 1) | b] - re
        for m in range(1 << (table.n - 1))
    )
    return RankTable(table.n - 1, table.k, rho)


def min_element_rank(table: RankTable) -> int:
    """Minimum rank over singletons."""
    if table.n == 0:
        raise ValueError("min_element_rank is undefined for an empty ground set")
    return min(table.rho[1 << x] for x in range(table.n))


# --- single-polymatroid text format ---------------------------------------
# line 1: "n=<n> k=<k>"; line 2: the 2^n rank values in increasing-bitmask
# order, space-separated.


def format_polymatroid(table: RankTable) -> str:
    return f"n={table.n} k={table.k}\n" + " ".join(map(str, table.rho)) + "\n"


def parse_polymatroid(text: str) -> RankTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("expected two lines: header and rank values")
    head = dict(part.split("=", 1) for part in lines[0].split())
    try:
        n = int(head["n"])
        k = int(head["k"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    rho = tuple(int(v) for v in lines[1].split())
    return RankTable(n, k, rho)
