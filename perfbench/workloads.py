"""The benchmark's four workloads: inputs made from a seed, the timed
call into polycat's public functions, and the checks on its output.

Why each workload exists, and which layer metric should move on it, is
written next to its class and at more length in README.md.  The heavy
inputs are frozen in data/frozen.json by freeze.py; setup re-validates
them on every run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "polycat" / "__init__.py").is_file():
    raise ImportError(f"polycat sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from polycat import canon, core, extensions, gen, oracle  # noqa: E402

DATA = Path(__file__).resolve().parent / "data" / "frozen.json"
K = 2

# Paper values for k=2 (classes and labeled totals per n).
CLASSES = (1, 3, 10, 40, 228, 2380, 94495)
LABELED = (1, 3, 14, 115, 2040, 109707, 39445994)
# Extensible partitions over all of X_5 (the full n=5->6 step).
PARTITIONS_X5 = 1020083


def load_frozen():
    with open(DATA) as fh:
        return json.load(fh)


def environment() -> dict:
    """Machine and software stamp; results from different stamps are
    not compared."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def catalog_digest(cat) -> str:
    """sha256 over every entry's rank bytes and aut order, in order."""
    h = hashlib.sha256()
    for e in cat.entries:
        h.update(bytes(e.table.rho))
        h.update(e.aut_order.to_bytes(4, "little"))
    return h.hexdigest()


def warm_perm_tables(*ns):
    """Build canon's per-n permutation tables before timing starts."""
    for n in ns:
        canon.canonical_form(core.RankTable(n, K, (0,) * (1 << n)))


def clear_caches():
    """Drop every functools cache in polycat's modules, so that each
    setup repetition pays for what it builds."""
    for mod in (core, extensions, canon, gen, oracle):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@dataclass
class Inputs:
    catalog: object  # the parents, as a gen.Catalog
    pins: dict  # pinned output counts for this seed
    checks: list = field(default_factory=list)  # setup-time checks
    extra: dict = field(default_factory=dict)


class Workload:
    """A workload's timed work is a list of units, each one call (or a
    few) into polycat's public functions.  The runner repeats the list
    and keeps each unit's fastest time, so that units should be short
    next to the slow spells of a shared machine."""

    name = ""
    jobs = 1  # worker processes of the untraced production pass

    def __init__(self, smoke=False, frozen=None):
        self.smoke = smoke
        self.frozen = frozen

    def setup(self, seed) -> Inputs:
        raise NotImplementedError

    def units(self, inp: Inputs, jobs: int, workdir: Path) -> list:
        """Zero-argument callables; each returns that unit's output."""
        raise NotImplementedError

    def check(self, inp: Inputs, outs: list) -> list:
        """(name, ok) for every output check on one pass's outputs."""
        raise NotImplementedError

    def fingerprint(self, outs):
        """Equal for equal outputs; later passes must match the first,
        which is checked in full."""
        return outs

    def layer_extras(self, outs) -> dict:
        """Per-layer metrics measured from outside the spans; only the
        streaming workload writes a catalog file."""
        return {"gen.catalog_bytes": 0}

    def _group(self, key, seed):
        groups = self.frozen[key]["groups"]
        g = seed % len(groups)
        pins = {name: self.frozen[key][name][g]
                for name in self.frozen[key]["pins"]}
        return groups[g], pins


def _x5_parents(wl, key, seed):
    """Seeded parents from X_5 (X_2 in the smoke variant) as Inputs."""
    if wl.smoke:
        return Inputs(gen.enumerate_all(2, K)[2], dict(SMOKE[wl.name]))
    x5 = gen.enumerate_all(5, K)[5]
    idx, pins = wl._group(key, seed)
    parents = gen.Catalog(5, K, tuple(x5.entries[i] for i in sorted(idx)))
    return Inputs(parents, pins, [
        ("X_5 matches the frozen catalog",
         catalog_digest(x5) == wl.frozen["x5_sha256"])])


# Pins of the smoke variant, which steps X_2 (n=3 output) instead.
SMOKE = {
    "step6_stride": {"partitions": 84, "accepted": 40},
    "count6_full": {"partitions": 84, "labeled": 115},
    "step7_stream": {"partitions": 84, "accepted": 40},
    "verify5": {},
}


class Step6Stride(Workload):
    """generate_next on each of a seeded group of X_5 parents, in memory,
    one job; one unit per parent.

    Why: the n=5->6 step that the canonical-deletion work must make 3x
    faster.  canon at n=6 dominates it, with partition enumeration most
    of the rest.
    """

    name = "step6_stride"

    def setup(self, seed):
        inp = _x5_parents(self, "step6", seed)
        warm_perm_tables(inp.catalog.n, inp.catalog.n + 1)
        return inp

    def units(self, inp, jobs, workdir):
        n = inp.catalog.n
        return [functools.partial(_step, gen.Catalog(n, K, (e,)))
                for e in inp.catalog.entries]

    def fingerprint(self, outs):
        return [(st.partitions, st.accepted, cat.entries)
                for cat, st in outs]

    def check(self, inp, outs):
        half = 1 << inp.catalog.n
        canonical = deletion = True
        for parent, (cat, _st) in zip(inp.catalog.entries, outs):
            for e in cat.entries:
                cf = canon.canonical_form(e.table)
                if cf.table.rho != e.table.rho or cf.aut_order != e.aut_order:
                    canonical = False
                # the new element is the last of the canonical labeling
                deleted = core.RankTable(inp.catalog.n, K, e.table.rho[:half])
                if canon.canonical_form(deleted).table.rho != parent.table.rho:
                    deletion = False
        parts = sum(st.partitions for _cat, st in outs)
        accepted = sum(st.accepted for _cat, st in outs)
        return inp.checks + [
            ("partitions pinned", parts == inp.pins["partitions"]),
            ("accepted pinned", accepted == inp.pins["accepted"]),
            ("catalog sizes are the accepted counts",
             all(len(cat) == st.accepted for cat, st in outs)),
            ("every accepted table canonical", canonical),
            ("canonical deletion gives its parent", deletion),
        ]


# Unit bodies look polycat's functions up at call time, so that a traced
# pass sees the wrappers tracing.Tracer installs.

def _step(catalog):
    return gen.generate_next(catalog, jobs=1)


def _cross_check(catalogs, n_max):
    return oracle.cross_check(catalogs, n_max=n_max)


def _duality(catalog):
    return gen.duality_check(catalog)


def _count_partitions(table):
    lattice = core.flats(table)
    return len(extensions.enumerate_extensible_partitions(table, lattice))


class Count6Full(Workload):
    """Labeled total by partition counting over a seeded group of X_5:
    the sum of 5!/aut * #partitions; one unit per parent, and no
    canonical labeling at all.

    Why: about 99% of it is in extensions, so a partition optimisation
    shows in full, and a canon optimisation must leave it unchanged.
    The groups cover X_5, and their pins add up to 39,445,994.
    """

    name = "count6_full"

    def setup(self, seed):
        inp = _x5_parents(self, "count6", seed)
        if not self.smoke:
            fz = self.frozen["count6"]
            covered = sorted(i for g in fz["groups"] for i in g)
            inp.checks += [
                ("groups cover X_5", covered == list(range(CLASSES[5]))),
                ("group labeled pins add up to L(6)",
                 sum(fz["labeled"]) == LABELED[6]),
                ("group partition pins add up to X_5's",
                 sum(fz["partitions"]) == PARTITIONS_X5),
            ]
        return inp

    def units(self, inp, jobs, workdir):
        return [functools.partial(_count_partitions, e.table)
                for e in inp.catalog.entries]

    def check(self, inp, outs):
        n = inp.catalog.n
        labeled = sum(canon.labeled_count(n, e.aut_order) * count
                      for e, count in zip(inp.catalog.entries, outs))
        return inp.checks + [
            ("labeled count pinned", labeled == inp.pins["labeled"]),
            ("partitions pinned", sum(outs) == inp.pins["partitions"]),
        ]


class Step7Stream(Workload):
    """generate_next_stream with a 2-worker pool on a seeded group of
    frozen n=6 parents, then read_catalog of the output; one unit.

    Why: the n=7 production path (pool, disk shards, heap merge,
    read-back), where canon runs at n=7.  The frozen parents are light
    (500-2,500 partitions each) so that a run stays short; README.md
    records that bias.
    """

    name = "step7_stream"
    jobs = 2

    def setup(self, seed):
        if self.smoke:
            inp = Inputs(gen.enumerate_all(2, K)[2], dict(SMOKE[self.name]))
        else:
            rows, pins = self._group("step7", seed)
            entries = []
            valid = canonical = True
            for text in rows:
                table = core.RankTable(6, K, tuple(map(int, text.split())))
                cf = canon.canonical_form(table)
                valid &= core.validate(table) is None
                canonical &= cf.table.rho == table.rho
                entries.append(gen.CatalogEntry(table, cf.aut_order))
            entries.sort(key=lambda e: e.table.rho)
            inp = Inputs(gen.Catalog(6, K, tuple(entries)), pins,
                         [("frozen parents valid", valid),
                          ("frozen parents canonical", canonical)])
        warm_perm_tables(inp.catalog.n, inp.catalog.n + 1)
        return inp

    def units(self, inp, jobs, workdir):
        return [functools.partial(_stream_and_read, inp.catalog, jobs,
                                  workdir)]

    def fingerprint(self, outs):
        stats, _cat, header, digest, size, leftovers = outs[0]
        return stats.partitions, stats.accepted, header, digest, size, leftovers

    def layer_extras(self, outs):
        return {"gen.catalog_bytes": outs[0][4]}

    def check(self, inp, outs):
        stats, cat, header, _digest, _size, leftovers = outs[0]
        rhos = [e.table.rho for e in cat.entries]
        canonical = all(
            canon.canonical_form(e.table).table.rho == e.table.rho
            for e in cat.entries
        )
        return inp.checks + [
            ("partitions pinned", stats.partitions == inp.pins["partitions"]),
            ("accepted pinned", stats.accepted == inp.pins["accepted"]),
            ("header count is entry count",
             header.split("count=")[-1].strip() == str(len(rhos))),
            ("entries strictly sorted",
             all(a < b for a, b in zip(rhos, rhos[1:]))),
            ("every entry canonical", canonical),
            ("no shard files left", leftovers == []),
        ]


def _stream_and_read(catalog, jobs, workdir):
    path = workdir / "catalog.txt"
    stats = gen.generate_next_stream(catalog, path, jobs=jobs,
                                     shard_dir=workdir)
    cat = gen.read_catalog(path)
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.remove(path)
    return stats, cat, header, digest, size, sorted(os.listdir(workdir))


def _labeled_extensions(table, aut_order):
    """Labeled single-element extensions of one class, by brute force."""
    count = len(oracle.brute_extensions(table))
    return canon.labeled_count(table.n, aut_order) * count


class Verify5(Workload):
    """Oracle verification of X_0..X_5: cross_check of X_0..X_4, the
    labeled n=5 total by brute-force extension of every X_4 class (each
    labeled n=5 table extends exactly one labeled deletion), and
    duality_check of every catalog.  Units: the cross-check, one per X_4
    parent, one per catalog.

    Why: the only workload for oracle; canon runs here as many cheap
    class-labeling calls (n<=5) where per-call overhead dominates, and
    extensions only at n<=3, so it is the bypass for partition work.
    Its single input does not depend on the seed.
    """

    name = "verify5"

    def setup(self, seed):
        n_max = 3 if self.smoke else 5
        cats = gen.enumerate_all(n_max, K)
        warm_perm_tables(*range(n_max + 1))
        return Inputs(cats[-1], {}, extra={"cats": cats})

    def units(self, inp, jobs, workdir):
        cats = inp.extra["cats"]
        top = len(cats) - 1
        return (
            [functools.partial(_cross_check, cats[:-1], top - 1)]
            + [functools.partial(_labeled_extensions, e.table, e.aut_order)
               for e in cats[-2].entries]
            + [functools.partial(_duality, c) for c in cats]
        )

    def fingerprint(self, outs):
        report = outs[0]
        return (report.rows, report.extension_rows, report.ok) + tuple(outs[1:])

    def check(self, inp, outs):
        cats = inp.extra["cats"]
        top = len(cats) - 1
        report, labeled, duals = outs[0], outs[1:-len(cats)], outs[-len(cats):]
        return [
            ("cross_check ok", report.ok),
            ("brute classes are the paper's",
             [r[3] for r in report.rows] == list(CLASSES[:top])),
            ("brute labeled totals are the paper's",
             [r[1] for r in report.rows] == list(LABELED[:top])),
            ("catalog sizes are the paper's",
             [len(c) for c in cats] == list(CLASSES[:top + 1])),
            ("brute labeled top total is the paper's",
             sum(labeled) == LABELED[top] == cats[-1].labeled_total()),
            ("every duality_check is None", all(d is None for d in duals)),
        ]


WORKLOADS = {w.name: w for w in (Step6Stride, Step7Stream, Count6Full, Verify5)}


def make_workdir(base: Path) -> Path:
    path = base / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
