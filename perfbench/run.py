"""Generation benchmark for polycat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all`.  With --trace 0
the run measures the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics (see
tracing.py).  Metric names and units come from BENCHMARK.json.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its quartiles, the output checks and the environment
stamp.  A full record (BENCH_<workload>_seed<N>_trace<T>.json, plus the
spans of a traced run) goes to --out-dir.

--smoke runs the same code on tiny inputs (n<=3) in a fraction of a
second per pass; the benchmark's tests use it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3

try:
    import tracing
    import workloads as wl_mod
except ImportError as exc:  # polycat's sources are not in this checkout
    wl_mod = tracing = None
    IMPORT_ERROR = exc


@dataclass
class Pass:
    """One run through a workload's units."""

    walls: list  # per unit
    cpus: list  # per unit: own plus worker CPU
    busy: float  # worker CPU / (jobs * wall)
    outs: list  # per unit
    spans: list  # per unit, when traced


def cpu_times():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime, c.ru_utime + c.ru_stime


def timed_pass(units, jobs, traced=False) -> Pass:
    """Run every unit once, timing each; when traced, each unit runs
    under its own Tracer."""
    gc.collect()
    p = Pass([], [], 0.0, [], [])
    own_total = workers_total = 0.0
    for unit in units:
        tracer = tracing.Tracer() if traced else None
        self0, child0 = cpu_times()
        t0 = time.perf_counter()
        if tracer is None:
            out = unit()
        else:
            with tracer:
                out = unit()
        wall = time.perf_counter() - t0
        self1, child1 = cpu_times()
        own, workers = self1 - self0, child1 - child0
        own_total += own
        workers_total += workers
        p.walls.append(wall)
        p.cpus.append(own + workers)
        p.outs.append(out)
        p.spans.append(tracer.spans if tracer else None)
    p.busy = (workers_total if jobs > 1 else own_total) / (jobs * sum(p.walls))
    return p


def fastest(passes, field="walls"):
    """Sum over units of each unit's fastest time across passes.  A slow
    spell of a shared machine only ever adds time, so the minimum of
    repeats is the steady estimate of a deterministic unit's cost."""
    return sum(min(col) for col in zip(*(getattr(p, field) for p in passes)))


class Checks:
    """Output checks; the first pass is checked in full, later passes
    must give the same output."""

    def __init__(self, wl, inp):
        self.wl, self.inp = wl, inp
        self.first = None
        self.results = []

    def add(self, p: Pass):
        """Check a pass, then drop its outputs so that memory does not
        grow with the number of passes."""
        fp = self.wl.fingerprint(p.outs)
        if self.first is None:
            self.first = fp
            self.results += self.wl.check(self.inp, p.outs)
        else:
            self.results.append(("same output as the first pass",
                                 fp == self.first))
        p.outs = None

    @property
    def failed(self):
        return [name for name, ok in self.results if not ok]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(wl, seed, seconds, trace, workdir):
    """Set up, measure and check one workload.  Returns (metrics as
    {name: [values]}, checks, spans of the traced units or None).

    Passes repeat while the next one is expected to end within
    `seconds` of measured time; there is always at least one (and,
    traced, one untraced and one traced)."""
    setup_s = []
    for _ in range(SETUP_REPS):
        wl_mod.clear_caches()
        gc.collect()
        t0 = time.perf_counter()
        inp = wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    checks = Checks(wl, inp)
    prod_units = wl.units(inp, wl.jobs, workdir)
    one_units = prod_units if wl.jobs == 1 else wl.units(inp, 1, workdir)
    measured = 0.0
    if not trace:
        passes = []
        while True:
            p = timed_pass(prod_units, wl.jobs)
            checks.add(p)
            passes.append(p)
            measured += sum(p.walls)
            if measured * (len(passes) + 1) / len(passes) > seconds:
                break
        s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {"wall_s": [fastest(passes)],
                  "cpu_s": [fastest(passes, "cpus")],
                  "setup_s": setup_s,
                  "peak_rss_mb": [(s + wl.jobs * c) / 1024],
                  "pass_wall_s": [sum(p.walls) for p in passes]}
        return values, checks, None
    prod, base, traced = [], [], []
    while True:
        cycle = [timed_pass(prod_units, wl.jobs)]
        if wl.jobs > 1:
            cycle.append(timed_pass(one_units, 1))
        cycle.append(timed_pass(one_units, 1, traced=True))
        extras = wl.layer_extras(cycle[-1].outs)
        for p in cycle:
            checks.add(p)
        prod.append(cycle[0])
        base.append(cycle[-2])
        traced.append(cycle[-1])
        measured += sum(sum(p.walls) for p in cycle)
        if measured * (len(traced) + 1) / len(traced) > seconds:
            break
    # per unit, the spans of its fastest traced repetition
    spans, wall = [], 0.0
    for u in range(len(one_units)):
        best = min(traced, key=lambda p: p.walls[u])
        spans += tracing.rebase(best.spans[u], len(spans))
        wall += best.walls[u]
    values = {k: [v] for k, v in tracing.layer_metrics(spans, wall).items()}
    values.update({k: [v] for k, v in extras.items()})
    values["gen.pool_busy_frac"] = [p.busy for p in prod]
    values["trace.overhead_frac"] = [fastest(traced) / fastest(base) - 1]
    return values, checks, spans


def report(name, spec, values, checks, env, out_dir, seed, trace, spans):
    """Print the human-readable lines and write the BENCH record; returns
    (metrics for the JSON line, attempted, failed)."""
    metrics, detail = {}, {}
    for m in spec:
        vals = values[m["name"]]
        q1, med, q3 = quartiles(vals)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        detail[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(vals), "unit": m["unit"],
                             "values": vals}
        print(f"{name} {m['name']} = {med:.6g} {m['unit']} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
    for k in values.keys() - detail.keys():
        detail[k] = {"values": values[k]}
    attempted, failed = len(checks.results), len(checks.failed)
    print(f"{name} checks: {attempted - failed}/{attempted} passed, "
          f"failed_frac {failed / attempted:.4g}")
    for bad in checks.failed:
        print(f"{name} FAILED check: {bad}")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{name}_seed{seed}_trace{int(trace)}"
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "environment": env, "metrics": detail,
              "checks": checks.results,
              "failed_frac": failed / attempted}
    if spans is not None:
        tracing.dump(spans, out_dir / f"{stem}.spans.json")
        record["spans"] = f"{stem}.spans.json"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (n<=3) instead of the real workloads")
    ap.add_argument("--out-dir", type=Path,
                    help="where BENCH_*.json go (default: .perfbench/ at "
                         "the repository root)")
    args = ap.parse_args(argv)
    if wl_mod is None:
        print(f"perfbench: cannot import polycat: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; one of {names} or all")
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = args.out_dir or wl_mod.ROOT / ".perfbench"
    frozen = None if args.smoke else wl_mod.load_frozen()
    env = wl_mod.environment()
    print("environment: " + json.dumps(env))

    chosen = names if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        wl = wl_mod.WORKLOADS[name](smoke=args.smoke, frozen=frozen)
        workdir = wl_mod.make_workdir(out_dir)
        try:
            values, checks, spans = run_workload(
                wl, args.seed, args.seconds, args.trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics, attempted, failed = report(
            name, metric_spec, values, checks, env, out_dir, args.seed,
            args.trace, spans)
        prefix = "" if len(chosen) == 1 else name + "."
        for k, v in metrics.items():
            total["metrics"][prefix + k] = v
        total["attempted"] += attempted
        total["failed"] += failed
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
