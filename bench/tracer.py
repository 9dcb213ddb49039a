"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps, from the outside, every public function of the jtri
modules, including the names other modules bind with from-imports (such as
``joint.gmd``), the CLI command handlers, and ``json.dumps``/``json.loads`` as
the ``cli`` module calls them.  Each call becomes a span (name, start, end,
parent) kept in memory; ``uninstall`` restores the originals, so untraced
rounds run the unmodified program.  A span's self time is its duration minus
the time its child spans cover.
"""

import functools
import json
import statistics
import tracemalloc
import types
from collections import defaultdict
from time import perf_counter

import checks

SPACETIME_RESULTS = ("spacetime.nearly_kgmd", "spacetime.nearly_kjet")
CLI_COMMANDS = ("decompose", "spacetime", "tables", "examples", "simulate")


class Tracer:
    def __init__(self, modules, cli_module):
        self.modules = modules
        self.cli = cli_module
        self.spans = []             # [name, start, end, parent index]
        self._stack = []
        self._patches = []
        self._wrappers = {}
        self._round_start = 0
        self._extra = defaultdict(float)

    # --- recording -----------------------------------------------------------

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = perf_counter()
            if name in SPACETIME_RESULTS and not self._inside(SPACETIME_RESULTS):
                self._extra["spacetime.factor_mb"] += checks.nbytes(result) / 1e6
            return result
        return wrapper

    def _inside(self, names):
        return any(self.spans[i][0] in names for i in self._stack)

    def _sic(self, fn):
        """simulate_sic with its tracemalloc peak; start and stop lie
        outside the span so that only the call itself is timed."""
        @functools.wraps(fn)
        def wrapper(problem, factors, trials, *args, **kwargs):
            tracemalloc.start()
            try:
                return fn(problem, factors, trials, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                self._extra["multicast.simulate_sic.peak_alloc_mb"] = max(
                    self._extra["multicast.simulate_sic.peak_alloc_mb"], peak)
                self._extra["multicast.simulate_sic.trials"] += trials
        return wrapper

    def op(self, fn):
        """Root span around one benchmark operation."""
        return self.span("bench.op", fn)

    # --- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for module in self.modules:
            for attr, fn in list(vars(module).items()):
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__.startswith("jtri.")):
                    if fn not in self._wrappers:
                        name = "%s.%s" % (fn.__module__.rsplit(".", 1)[1], fn.__name__)
                        wrapper = self.span(name, fn)
                        if name == "multicast.simulate_sic":
                            wrapper = self._sic(wrapper)
                        self._wrappers[fn] = wrapper
                    self._patch(module, attr, self._wrappers[fn])
        for cmd in CLI_COMMANDS:
            attr = "_cmd_%s" % cmd
            self._patch(self.cli, attr, self.span("cli.%s" % cmd, getattr(self.cli, attr)))
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.span("cli.json_encode", json.dumps)
        proxy.loads = self.span("cli.json_decode", json.loads)
        self._patch(self.cli, "json", proxy)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- per-round aggregation -----------------------------------------------

    def begin_round(self):
        self._round_start = len(self.spans)
        self._extra = defaultdict(float)

    def end_round(self):
        """Per-layer totals of the spans recorded since begin_round."""
        spans = self.spans[self._round_start:]
        base = self._round_start
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= base:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            own[name] += duration - child[base + i]
            if not self._has_ancestor(base + i, name):
                total[name] += duration
        out = {}
        for name in calls:
            out["%s.s" % name] = total[name]
            out["%s.self_s" % name] = own[name]
            out["%s.calls" % name] = calls[name]
        out.update(self._extra)
        sic_s = total.get("multicast.simulate_sic", 0.0)
        out["multicast.simulate_sic.trials_per_s"] = (
            self._extra["multicast.simulate_sic.trials"] / sic_s if sic_s > 0 else 0.0)
        return out

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """All spans as tab-separated lines: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (i, parent, name, start, end))


def median_layers(rounds, names):
    """Median over traced rounds of each named per-layer quantity (0 when
    the layer was never called on this workload)."""
    return {name: statistics.median(r.get(name, 0.0) for r in rounds) for name in names}
