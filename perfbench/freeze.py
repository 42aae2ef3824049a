"""Produce data/frozen.json: the seeded parent groups of the benchmark and
the pinned output counts of each group.

Run from the repository root (about half an hour on one core):

    python3 perfbench/freeze.py

Rule.  Each workload's parents are cut into groups of nearly equal cost,
and the seed picks group `seed % len(groups)`.  A parent's cost is its
fastest single-job time over SWEEPS sweeps of all parents (a slow spell
of a shared machine only ever adds time); groups are filled largest-first, each
parent going to the group with the least cost so far (LPT), so group
costs differ by about the smallest parent.  Equal-cost groups keep the
run-to-run spread of a seeded benchmark small, while every seed still
steps different parents.

- step6: X_5 parents costing at most STEP6_GROUP_S / 2 (this leaves out
  the few heaviest parents, each several seconds), in groups of about
  STEP6_GROUP_S.
- count6: all of X_5 in groups of about COUNT6_GROUP_S, so the groups
  together give the full n=6 labeled total.
- step7: the n=6 extensions of X_5[0::20] (generate_next), every
  STEP7_TAKE-th of them in sorted order, kept when they have at most
  STEP7_MAX_FLATS flats and 500-2,500 extensible partitions, and when
  one stepped to n=7 costs at most STEP7_MAX_ITEM_S (so that a 2-worker
  pool gets many parents per group and a short tail); groups of about
  STEP7_GROUP_S of single-job time.
"""

from __future__ import annotations

import heapq
import json
import time

import workloads as wl
from workloads import K, canon, core, extensions, gen

SWEEPS = 3
STEP6_GROUP_S = 3.0
COUNT6_GROUP_S = 3.2
STEP7_GROUP_S = 4.0
STEP7_MAX_ITEM_S = 0.5
STEP7_TAKE = 6
STEP7_MAX_FLATS = 30
STEP7_PARTITIONS = (500, 2500)


def lpt_groups(costs: dict, group_s: float):
    """Split {key: cost} into groups of nearly equal total cost."""
    n_groups = max(1, round(sum(costs.values()) / group_s))
    heap = [(0.0, g) for g in range(n_groups)]
    groups = [[] for _ in range(n_groups)]
    for key in sorted(costs, key=lambda k: (-costs[k], k)):
        load, g = heapq.heappop(heap)
        groups[g].append(key)
        heapq.heappush(heap, (load + costs[key], g))
    return [sorted(g) for g in groups]


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def step_one(entry):
    """Single-job step of one parent: (partitions, accepted, seconds)."""
    (_cat, stats), dt = timed(gen.generate_next,
                              gen.Catalog(entry.table.n, K, (entry,)), 1)
    return stats.partitions, stats.accepted, dt


def count_one(entry):
    def work():
        lattice = core.flats(entry.table)
        return len(extensions.enumerate_extensible_partitions(entry.table,
                                                              lattice))
    count, dt = timed(work)
    return count, canon.labeled_count(entry.table.n, entry.aut_order) * count, dt


def swept(fn, items):
    """{key: fn(item) with the time replaced by its minimum over SWEEPS
    sweeps}; fn returns a tuple whose last field is seconds."""
    runs = [{k: fn(v) for k, v in items.items()} for _ in range(SWEEPS)]
    return {k: runs[0][k][:-1] + (min(r[k][-1] for r in runs),)
            for k in items}


def pinned(groups, per_item, names):
    """Per-group sums of each field, and every item's cost, so that the
    groups can be re-derived by the rule."""
    out = {name: [sum(per_item[i][j] for i in g) for g in groups]
           for j, name in enumerate(names)}
    out["item_cost_s"] = {str(i): round(v[-1], 5) for i, v in per_item.items()}
    return out


def main():
    wl.warm_perm_tables(5, 6, 7)
    x5 = gen.enumerate_all(5, K)[5]
    entries = x5.entries

    step = swept(step_one, dict(enumerate(entries)))
    cost6 = {i: s[2] for i, s in step.items() if s[2] <= STEP6_GROUP_S / 2}
    g6 = lpt_groups(cost6, STEP6_GROUP_S)

    count = swept(count_one, dict(enumerate(entries)))
    gc = lpt_groups({i: c[2] for i, c in count.items()}, COUNT6_GROUP_S)

    n6, _stats = gen.generate_next(gen.Catalog(5, K, entries[0::20]))
    lo, hi = STEP7_PARTITIONS
    band = {}
    for e in n6.entries[::STEP7_TAKE]:
        lattice = core.flats(e.table)
        if len(lattice) > STEP7_MAX_FLATS:
            continue
        parts = len(extensions.enumerate_extensible_partitions(e.table,
                                                               lattice))
        if lo <= parts <= hi:
            band[" ".join(map(str, e.table.rho))] = e
    item7 = {k: v for k, v in swept(step_one, band).items()
             if v[2] <= STEP7_MAX_ITEM_S}
    g7 = lpt_groups({k: v[2] for k, v in item7.items()}, STEP7_GROUP_S)

    frozen = {
        "made_by": "perfbench/freeze.py",
        "made_on": wl.environment(),
        "x5_sha256": wl.catalog_digest(x5),
        "step6": {"pins": ["partitions", "accepted"], "groups": g6,
                  **pinned(g6, step, ["partitions", "accepted", "cost_s"])},
        "count6": {"pins": ["partitions", "labeled"], "groups": gc,
                   **pinned(gc, count, ["partitions", "labeled", "cost_s"])},
        "step7": {"pins": ["partitions", "accepted"], "groups": g7,
                  **pinned(g7, item7, ["partitions", "accepted", "cost_s"])},
    }
    with open(wl.DATA, "w") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")
    for key in ("step6", "count6", "step7"):
        costs = frozen[key]["cost_s"]
        print(f"{key}: {len(costs)} groups, cost {min(costs):.2f}-"
              f"{max(costs):.2f} s")


if __name__ == "__main__":
    main()
