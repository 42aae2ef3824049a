"""Compare two BENCH_*.json records of one workload.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the records were taken on different machines or
software: a speed comparison counts only on the same machine.  Prints
each metric's median in both records and NEW / BASE.
"""

import json
import sys

# Stamp fields that must agree; the commit is what is being compared.
SAME = ("nproc", "cpu_model", "python", "numpy")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(p).read()) for p in argv)
    differ = [k for k in SAME
              if base["environment"][k] != new["environment"][k]]
    if differ:
        print("refused: records come from different environments: "
              + ", ".join(f"{k} {base['environment'][k]!r} vs "
                          f"{new['environment'][k]!r}" for k in differ),
              file=sys.stderr)
        return 2
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("refused: records are of different workloads or trace modes",
              file=sys.stderr)
        return 2
    print(f"{base['workload']}: {base['environment']['commit'][:12]} -> "
          f"{new['environment']['commit'][:12]}")
    for name, b in base["metrics"].items():
        n = new["metrics"][name]["median"]
        ratio = n / b["median"] if b["median"] else float("nan")
        print(f"{name:32s} {b['median']:12.6g} {n:12.6g} {ratio:8.3f} "
              f"{b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
