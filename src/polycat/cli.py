"""Command-line interface: enumerate, count, verify, info.

Exit codes: 0 success, 1 verification mismatch, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import canon, core, gen, oracle
from .extensions import enumerate_extensible_partitions


def _catalog_path(outdir, n, k):
    return os.path.join(outdir, f"polycat-k{k}-n{n}.txt")


def cmd_enumerate(args):
    if not 0 <= args.n <= core.MAX_N:
        raise ValueError(f"--n must lie in 0..{core.MAX_N}, not {args.n}")
    os.makedirs(args.out, exist_ok=True)
    cat = gen.base_catalog(args.k)
    gen.write_catalog(cat, _catalog_path(args.out, 0, args.k))
    print(f"n=0 count=1", file=sys.stderr)
    for n in range(args.n):
        path = _catalog_path(args.out, n + 1, args.k)
        stats = gen.generate_next_stream(cat, path, jobs=args.jobs)
        if n + 1 < args.n:
            # the next step's parents; the last catalog is not read
            cat = gen.read_catalog(path)
        print(
            f"n={n + 1} count={stats.accepted} "
            f"partitions={stats.partitions} rejected={stats.rejected} "
            f"canonical={stats.canonical} witnessed={stats.witnessed} "
            f"time={stats.wall_time:.2f}s",
            file=sys.stderr,
        )
    return 0


def _read_named_catalog(path, n, k):
    cat = gen.read_catalog(path)
    if (cat.n, cat.k) != (n, k):
        raise ValueError(f"{path}: header disagrees with the name")
    return cat


def _load_catalogs(indir, k):
    """Every k catalog in indir (polycat-k{k}-n*.txt), in order of n."""
    pattern = re.compile(rf"polycat-k{k}-n(\d+)\.txt")
    cats = [
        _read_named_catalog(os.path.join(indir, name), int(match[1]), k)
        for name in sorted(os.listdir(indir))
        if (match := pattern.fullmatch(name))
    ]
    if not cats:
        raise FileNotFoundError(f"no k={k} catalog files in {indir}")
    cats.sort(key=lambda c: c.n)
    return cats


def cmd_count(args):
    cats = _load_catalogs(args.indir, args.k)
    if args.filter_min_rank is not None:
        counts = [
            (c.n, gen.filter_count(c, args.filter_min_rank)) for c in cats
        ]
        if args.format == "csv":
            print("n,count")
            for n, v in counts:
                print(f"{n},{v}")
        else:
            print("n:     " + " ".join(f"{n:>8}" for n, _ in counts))
            print("count: " + " ".join(f"{v:>8}" for _, v in counts))
        return 0
    table = gen.count_table(cats, labeled=args.labeled)
    ns = [c.n for c in sorted(cats, key=lambda c: c.n)]
    if args.format == "csv":
        print("rank," + ",".join(map(str, ns)))
        for r, row in enumerate(table):
            print(f"{r}," + ",".join(map(str, row)))
        print("total," + ",".join(str(sum(col)) for col in zip(*table)))
    else:
        width = max(len(str(v)) for row in table for v in row) + 1
        print("rank\\n " + "".join(f"{n:>{width}}" for n in ns))
        for r, row in enumerate(table):
            cells = "".join(f"{v if v else '':>{width}}" for v in row)
            print(f"{r:>6} {cells}")
        totals = [sum(col) for col in zip(*table)]
        print(" total " + "".join(f"{v:>{width}}" for v in totals))
    return 0


def cmd_verify(args):
    # read only the catalogs checked, so that other files in the
    # directory, however large or malformed, play no part
    cats = []
    for n in range(args.n + 1):
        path = _catalog_path(args.indir, n, args.k)
        if os.path.exists(path):
            cats.append(_read_named_catalog(path, n, args.k))
    if not cats:
        raise FileNotFoundError(
            f"no k={args.k} catalog files for n <= {args.n} in {args.indir}")
    report = oracle.cross_check(cats, n_max=args.n)
    sys.stdout.write(report.as_text())
    if not report.ok:
        print(f"verification failed: {report.first_witness}")
        return 1
    for cat in cats:
        bad = gen.duality_check(cat)
        if bad is not None:
            print(f"duality check failed at n={cat.n}: {bad}")
            return 1
        print(f"duality ok at n={cat.n}")
    return 0


def cmd_info(args):
    with open(args.file) as fh:
        table = core.parse_polymatroid(fh.read())
    bad = core.validate(table)
    if bad is not None:
        print(f"invalid polymatroid: {bad}")
        return 1
    print(f"n={table.n} k={table.k} rank={table.rank}")
    lattice = core.flats(table)

    def setstr(mask):
        return "{" + ",".join(str(b + 1) for b in core.bits_of(mask)) + "}"

    print(f"flats ({len(lattice)}):")
    for i, f in enumerate(lattice.flats):
        covs = " ".join(setstr(g) for g in lattice.covers[i])
        print(f"  {setstr(f)} rank={lattice.rank_of[i]} covered-by: {covs}")
    cf = canon.canonical_form(table)
    print(f"aut_order={cf.aut_order}")
    dual = canon.canonical_form(core.k_dual(table)).table
    print("dual canonical form: " + " ".join(map(str, dual.rho)))
    parts = enumerate_extensible_partitions(table, lattice)
    print(f"extensible partitions: {len(parts)}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polycat",
        description="Catalogs of small k-polymatroids up to isomorphism",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="generate catalogs up to n")
    p.add_argument("--n", type=int, required=True, help="largest ground set")
    p.add_argument("--k", type=int, default=2, choices=(1, 2))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="print count tables from catalogs")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--k", type=int, default=2, choices=(1, 2))
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--filter-min-rank", type=int, default=None)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="brute-force and duality checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2, choices=(1, 2))
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("info", help="describe one polymatroid file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_info)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
