"""perfbench's tracer patches polycat names by attribute, and its
workloads check their outputs against pinned counts; these tests keep
those names, the results the tracer unpacks and every workload's output
checks in place, since perfbench's own tests are run separately."""

from pathlib import Path

import pytest

from polycat import gen, generate_next
from polycat.gen import generate_next_stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def test_patched_names_exist(tracing):
    for mod, attr, _span in tracing.PATCHES:
        assert hasattr(mod, attr), (mod.__name__, attr)


def test_traced_generation_matches_untraced(tracing, cats5, tmp_path):
    ref, _stats = generate_next(cats5[2])
    generate_next_stream(cats5[2], tmp_path / "ref.txt")
    with tracing.Tracer() as tracer:
        nxt, _stats = gen.generate_next(cats5[2])
        gen.generate_next_stream(cats5[2], tmp_path / "traced.txt")
    assert nxt.entries == ref.entries == cats5[3].entries
    assert (tmp_path / "traced.txt").read_bytes() == \
        (tmp_path / "ref.txt").read_bytes()
    parents = [s for s in tracer.spans if s[tracing.NAME] == "gen.parent"]
    assert len(parents) == 2 * len(cats5[2])
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert metrics["gen.accepted"] == 2 * len(cats5[3])


def test_traced_generation_records_partition_layers(tracing, cats5):
    with tracing.Tracer() as tracer:
        _nxt, stats = gen.generate_next(cats5[2])
    spans = tracer.spans
    parents = [i for i, s in enumerate(spans)
               if s[tracing.NAME] == "gen.parent"]
    enumerated = [s for s in spans if s[tracing.NAME] ==
                  "extensions.enumerate"]
    assert len(parents) == len(cats5[2])
    assert sorted(s[tracing.PARENT] for s in enumerated) == parents
    assert sum(s[tracing.INFO] for s in enumerated) == stats.partitions > 0
    builds = [s for s in spans if s[tracing.NAME] == "extensions.build"]
    assert {s[tracing.PARENT] for s in builds} >= set(parents)
    metrics = tracing.layer_metrics(spans, 1.0)
    assert metrics["extensions.partitions"] == stats.partitions


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


@pytest.mark.parametrize("name", ["step6_stride", "step7_stream",
                                  "count6_full", "verify5"])
def test_benchmark_output_checks_hold(workloads, name, tmp_path):
    # one frozen group, one pass: the per-group pins (partitions,
    # accepted, labeled), the canonical-deletion checks and the oracle's
    # verification checks the benchmark asserts
    wl = workloads.WORKLOADS[name](frozen=workloads.load_frozen())
    inp = wl.setup(0)
    outs = [unit() for unit in wl.units(inp, 1, tmp_path)]
    checks = wl.check(inp, outs)
    assert len(checks) > 5
    assert [c for c, ok in checks if not ok] == []
