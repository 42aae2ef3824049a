"""perfbench's tracer patches polycat names by attribute; these tests
keep those names and the results it unpacks in place, since perfbench's
own tests are run separately."""

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
