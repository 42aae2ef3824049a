"""Tests of the benchmark itself, on the smoke variant (n<=3).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=False)
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_metric(tmp_path, name, trace):
    proc, result = bench(tmp_path, "--workload", name, "--seed", "3",
                         "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads(
        (tmp_path / f"BENCH_{name}_seed3_trace{trace}.json").read_text())
    assert set(record["environment"]) == {
        "nproc", "cpu_model", "python", "numpy", "commit"}
    assert record["failed_frac"] == 0
    # the run's scratch directory is gone; only records remain
    assert all(p.name.startswith("BENCH_") for p in tmp_path.iterdir())


def test_end_to_end_metrics_are_never_zero(tmp_path):
    _proc, result = bench(tmp_path, "--workload", "all", "--seed", "0",
                          "--seconds", "0.2", "--trace", "0", "--smoke")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["step6_stride", "step7_stream",
                                  "count6_full"])
def test_wrong_pin_raises_failed_frac(tmp_path, name):
    wl = workloads.WORKLOADS[name](smoke=True)
    real = wl.setup

    def setup(seed):
        inp = real(seed)
        key = next(iter(inp.pins))
        inp.pins[key] += 1
        return inp

    wl.setup = setup
    workdir = workloads.make_workdir(tmp_path)
    _values, checks, _spans = run.run_workload(wl, 0, 0.1, 0, workdir)
    assert len(checks.failed) >= 1
    assert len(checks.failed) / len(checks.results) > 0


def test_traced_spans_account_for_the_pass():
    wl = workloads.WORKLOADS["step6_stride"](smoke=True)
    inp = wl.setup(0)
    before = [getattr(mod, attr) for mod, attr, _ in tracing.PATCHES]
    before_canon = workloads.canon.canonical_bytes
    p = run.timed_pass(wl.units(inp, 1, None), 1, traced=True)
    spans = []
    for unit_spans in p.spans:
        spans += tracing.rebase(unit_spans, len(spans))
    m = tracing.layer_metrics(spans, sum(p.walls))
    assert 0.5 < m["trace.accounted_frac"] <= 1.0
    assert m["extensions.partitions"] == 84
    assert m["gen.accepted"] == 40
    assert (m["gen.accepted"] + m["gen.dup_in_parent"]
            + m["gen.rejected_at_deletion"]) == m["canon.ext_calls"] == 84
    # the wrappers are gone after the pass
    assert [getattr(mod, attr) for mod, attr, _ in tracing.PATCHES] == before
    assert workloads.canon.canonical_bytes is before_canon


def test_perms_scanned():
    # singleton ranks 1,2,2 at n=3: 2! relabelings sort them
    rho = bytes([0, 1, 2, 3, 2, 3, 4, 4])
    assert tracing.perms_scanned(rho, 3) == 2
    assert tracing.perms_scanned(bytes([0, 2, 2, 3]), 2) == 2
    assert tracing.perms_scanned(bytes([0]), 0) == 1


def test_seed_selects_frozen_group():
    frozen = workloads.load_frozen()
    wl = workloads.WORKLOADS["count6_full"](frozen=frozen)
    n = len(frozen["count6"]["groups"])
    assert wl._group("count6", 1) == wl._group("count6", 1 + n)
    assert wl._group("count6", 0)[0] != wl._group("count6", 1)[0]
    assert sum(frozen["count6"]["labeled"]) == workloads.LABELED[6]


def test_fails_without_polycat_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
