"""Per-layer tracing from outside the program, by wrapping its public layer functions.

Only a traced pass installs this.  Each wrapped call is a span; a span's self
time is its duration minus the durations of the wrapped spans it caused.  A
wrapper replaces the function under every name the ``agmod`` modules look it
up by (``localize`` is imported by name into ``theorems`` and ``cli``,
``invariants`` reaches ``_girth`` through the ``aggraph`` globals), so no call
path escapes it.  A target that no longer exists is reported in ``missing``
and its metrics are left out instead of failing the run.

Spans are aggregated in memory per name as they close; the totals are read
once when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import defaultdict

# -- counters kept at span boundaries: hook(tracer, args[, result]) -----------


def _lattice_before(tracer, args):
    if args[0] in tracer.lattice_seen:
        tracer.counts["finmod.lattice.hits"] += 1


def _lattice_after(tracer, args, lattice):
    module = args[0]
    if module not in tracer.lattice_seen:
        tracer.lattice_seen.add(module)
        tracer.counts["finmod.lattice.submodules"] += len(lattice)


def _colon_before(tracer, args):
    module, sub = args[0], args[1]
    seen = tracer.colon_seen.setdefault(module, set())
    if sub.encoding in seen:
        tracer.counts["finmod.colon.hits"] += 1
    else:
        seen.add(sub.encoding)


def _graph_after(tracer, args, graph):
    tracer.counts["aggraph.vertices"] += graph.n
    tracer.counts["aggraph.edges"] += sum(a.bit_count() for a in graph.adj) // 2


def _predicate_span(args):
    return f"theorems.{args[0]}"


# (span name, module, attribute path, extras for Tracer.wrap).  Span names are
# the per-layer metric prefixes in BENCHMARK.json.
TARGETS = (
    ("finmod.lattice", "agmod.finmod", "Module.lattice",
     {"before": _lattice_before, "after": _lattice_after}),
    ("finmod.Module.init", "agmod.finmod", "Module.__init__", {}),
    ("finmod.colon", "agmod.finmod", "Module.colon", {"before": _colon_before}),
    ("finmod.product", "agmod.finmod", "Module.product", {}),
    ("finring.Ideal.product", "agmod.finring", "Ideal.product", {}),
    ("finmod.primes", "agmod.finmod", "Module.primes", {}),
    ("finmod.is_semiprime", "agmod.finmod", "Module.is_semiprime", {}),
    ("finmod.zero_divisors", "agmod.finmod", "Module.zero_divisors", {}),
    ("finmod.min_prime_clique_witness", "agmod.finmod", "Module.min_prime_clique_witness", {}),
    ("aggraph.girth", "agmod.aggraph", "_girth", {}),
    ("aggraph.diameter", "agmod.aggraph", "_diameter", {}),
    ("aggraph.max_clique", "agmod.aggraph", "max_clique", {}),
    ("aggraph.chromatic_number", "agmod.aggraph", "chromatic_number", {}),
    ("aggraph.invariants", "agmod.aggraph", "invariants", {}),
    ("aggraph.build_AG", "agmod.aggraph", "build_AG", {"after": _graph_after}),
    ("aggraph.build_AG_star", "agmod.aggraph", "build_AG_star", {"after": _graph_after}),
    ("localization.localize", "agmod.localization", "localize", {}),
    ("localization.min_prime_complement", "agmod.localization", "min_prime_complement", {}),
    ("localization.check_product_decomposition", "agmod.localization",
     "check_product_decomposition", {}),
    ("localization.image_submodule", "agmod.localization", "image_submodule", {}),
    # One span per predicate, named after its id (the first argument).
    ("theorems.run_predicate", "agmod.theorems", "run_predicate",
     {"span_name": _predicate_span}),
    ("cli.parse_instance", "agmod.cli", "parse_instance", {}),
    ("cli.cmd_analyze", "agmod.cli", "cmd_analyze", {}),
)


def replace(modname: str, path: str, make_wrapper) -> bool:
    """Rebind ``modname.path`` to ``make_wrapper(fn)``; False if it does not exist.

    A module-level function is also rebound in every agmod module that
    imported it by name (``localize`` in ``theorems`` and ``cli``, say); a
    method is looked up through its class, so rebinding the class attribute
    is enough.
    """
    importlib.import_module("agmod.cli")  # loads every agmod module
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    if fn is None:
        return False
    wrapped = make_wrapper(fn)
    setattr(owner, attr, wrapped)
    if not outer:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "agmod" and getattr(module, attr, None) is fn:
                setattr(module, attr, wrapped)
    return True


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, time in wrapped children]
        self.spans = defaultdict(lambda: [0, 0.0])  # name -> calls, self time
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self.lattice_seen = weakref.WeakSet()
        self.colon_seen = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, span_name=None, before=None, after=None):
        stack, spans = self.stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = span_name(args) if span_name else name
            if before:
                before(self, args)
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                entry = spans[label]
                entry[0] += 1
                entry[1] += took - frame[1]
            if after:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under every name it is reachable by."""
        for name, modname, path, extras in TARGETS:
            if not replace(modname, path, lambda fn: self.wrap(name, fn, **extras)):
                self.missing.append(name)

    def metrics(self) -> dict:
        """Self time and calls per span name, plus the counters, as flat metric values."""
        out = {}
        for label, (calls, self_s) in self.spans.items():
            out[f"{label}.self_s"] = self_s
            out[f"{label}.calls"] = calls
        out["theorems.run_predicate.calls"] = sum(
            calls for label, (calls, _) in self.spans.items() if label.startswith("theorems.")
        )
        out.update(self.counts)
        for layer in ("finmod.lattice", "finmod.colon"):
            calls = out.get(f"{layer}.calls", 0)
            out[f"{layer}.hit_ratio"] = out.get(f"{layer}.hits", 0) / calls if calls else 0.0
        return out
