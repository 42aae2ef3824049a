"""Outside-in tracing of polycat's layers.

While installed, a Tracer replaces polycat's public functions at the
module attributes their callers look them up through (for example
`polycat.gen.flats`, which gen calls, and `polycat.extensions.flats`,
which extensions calls) with wrappers that record a span per call:
name, start, end and the index of the enclosing span.  Spans stay in
memory; layer metrics are computed from them after the pass, and the
spans can be written out as JSON.  No polycat source is changed.

Layers are named after modules: core, extensions, canon, gen, oracle.
canon.canonical_bytes calls are split by their caller: inside a parent's
extension loop (gen.parent) a call at the parent's n+1 is the extension
("canon.ext") and one at n is the deletion ("canon.del"); every other
call is class labeling ("canon.class"), from the oracle or duality.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter

from workloads import canon, core, extensions, gen, oracle

# (module, attribute, span name) for every wrapped lookup.
PATCHES = (
    (core, "flats", "core.flats"),
    (gen, "flats", "core.flats"),
    (extensions, "flats", "core.flats"),
    (gen, "enumerate_extensible_partitions", "extensions.enumerate"),
    (extensions, "enumerate_extensible_partitions", "extensions.enumerate"),
    (gen, "extension_builder", "extensions.build"),
    (extensions, "extension_builder", "extensions.build"),
    (gen, "extensions_of_parent", "gen.parent"),
    (gen, "generate_next", "gen.step"),
    (gen, "generate_next_stream", "gen.stream"),
    (gen, "read_catalog", "gen.read"),
    (gen, "duality_check", "gen.duality"),
    (oracle, "brute_labeled_count", "oracle.labeled"),
    (oracle, "brute_extensions", "oracle.labeled"),
    (oracle, "cross_check", "oracle.cross_check"),
)

NAME, START, END, PARENT, INFO = range(5)
# Spans that keep the size of their result: flats per lattice and
# partitions per enumeration.
COUNTED = ("core.flats", "extensions.enumerate")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._saved = []

    def _open(self, name, info=None):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, info]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        self._stack.pop()
        rec[END] = time.perf_counter()

    def wrap(self, name, fn, count=False):
        """Span per call; with count, the span keeps len(result)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count:
                rec[INFO] = len(out)
            return out
        return traced

    def wrap_builder(self, fn):
        """extension_builder returns the per-partition build function;
        that is wrapped too, so every table build is a span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open("extensions.build")
            try:
                build = fn(*args, **kwargs)
            finally:
                self._close(rec)
            return self.wrap("extensions.build", build)
        return traced

    def wrap_canonical_bytes(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(rho_bytes, n):
            name = "canon.class"
            if stack and spans[stack[-1]][NAME] == "gen.parent":
                parent_n = spans[stack[-1]][INFO]
                name = "canon.ext" if n == parent_n + 1 else "canon.del"
            rec = self._open(name, (rho_bytes, n))
            try:
                return fn(rho_bytes, n)
            finally:
                self._close(rec)
        return traced

    def wrap_parent(self, fn):
        @functools.wraps(fn)
        def traced(parent):
            rec = self._open("gen.parent", parent.n)
            try:
                acc, nparts = fn(parent)
            finally:
                self._close(rec)
            rec[INFO] = (parent.n, len(acc), nparts)
            return acc, nparts
        return traced

    def install(self):
        for mod, attr, name in PATCHES:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            if name == "gen.parent":
                fn = self.wrap_parent(fn)
            elif name == "extensions.build":
                fn = self.wrap_builder(fn)
            else:
                fn = self.wrap(name, fn, count=name in COUNTED)
            setattr(mod, attr, fn)
        self._saved.append((canon, "canonical_bytes", canon.canonical_bytes))
        canon.canonical_bytes = self.wrap_canonical_bytes(canon.canonical_bytes)

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def rebase(spans, offset):
    """Spans of one unit, with parent indices moved by offset so that
    unit span lists can be concatenated."""
    return [[s[NAME], s[START], s[END], s[PARENT] + offset if s[PARENT] >= 0
             else -1, s[INFO]] for s in spans]


def dump(spans, path):
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": [s[:INFO] for s in spans]}, fh)


def perms_scanned(rho_bytes, n):
    """Relabelings canonical_bytes compares: those sorting the singleton
    ranks, i.e. the product of m! over singleton-rank multiplicities m
    (all n! below n=2)."""
    if n < 2:
        return math.factorial(n)
    mult = Counter(rho_bytes[1 << j] for j in range(n))
    return math.prod(math.factorial(m) for m in mult.values())


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass of `wall` seconds."""
    own = self_times(spans)
    sec = Counter()
    calls = Counter()
    for s, t in zip(spans, own):
        sec[s[NAME]] += t
        calls[s[NAME]] += 1
    flats_calls = [s[INFO] for s in spans if s[NAME] == "core.flats"]
    parts = sum(s[INFO] for s in spans if s[NAME] == "extensions.enumerate")
    parents = [s for s in spans if s[NAME] == "gen.parent"]
    accepted = sum(s[INFO][1] for s in parents)
    gen_parts = sum(s[INFO][2] for s in parents)
    parent_ms = sorted((s[END] - s[START]) * 1e3 for s in parents)
    perms = scanned = 0
    for s in spans:
        if s[NAME].startswith("canon."):
            rho_bytes, n = s[INFO]
            p = perms_scanned(rho_bytes, n)
            perms += p
            scanned += p << n
    accounted = sum(own)
    return {
        "core.flats_s": sec["core.flats"],
        "core.flats_per_parent": (sum(flats_calls) / len(flats_calls)
                                  if flats_calls else 0.0),
        "extensions.enumerate_s": sec["extensions.enumerate"],
        "extensions.partitions": parts,
        "extensions.us_per_partition": (sec["extensions.enumerate"] / parts
                                        * 1e6 if parts else 0.0),
        "extensions.build_s": sec["extensions.build"],
        "canon.ext_s": sec["canon.ext"],
        "canon.ext_calls": calls["canon.ext"],
        "canon.del_s": sec["canon.del"],
        "canon.del_calls": calls["canon.del"],
        "canon.class_s": sec["canon.class"],
        "canon.class_calls": calls["canon.class"],
        "canon.perms_scanned": perms,
        "canon.bytes_scanned": scanned,
        "gen.accepted": accepted,
        "gen.dup_in_parent": calls["canon.ext"] - calls["canon.del"],
        "gen.rejected_at_deletion": calls["canon.del"] - accepted,
        "gen.accept_ratio": accepted / gen_parts if gen_parts else 0.0,
        "gen.parent_p50_ms": _quantile(parent_ms, 0.5),
        "gen.parent_p90_ms": _quantile(parent_ms, 0.9),
        "gen.self_s": sec["gen.step"] + sec["gen.parent"],
        "gen.stream_s": sec["gen.stream"],
        "gen.read_s": sec["gen.read"],
        "gen.duality_s": sec["gen.duality"],
        "oracle.labeled_s": sec["oracle.labeled"],
        "oracle.cross_check_s": sec["oracle.cross_check"],
        "trace.accounted_frac": accounted / wall,
    }


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, math.ceil(q * len(values)) - 1)]
