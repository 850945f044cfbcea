"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the specvalley layer modules,
in every specvalley namespace that binds it, so a call is recorded whichever
module makes it. Spans stay in memory as ``[name, parent, start_ns, end_ns,
error]`` lists until the run writes them out. Leaving the ``with`` block puts
every original function back.
"""

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("corpus", "classify", "baseline", "sigproc", "envelope", "synth",
          "synthetic", "experiments", "cli")

# functions whose return values the rollup inspects, and the little it keeps
# of each: the fail reason of every frame (None when valid), the MFCC frame count
OBSERVED = {
    "classify.frame_pipeline":
        lambda features: [None if f.valid else f.fail_reason or "unknown" for f in features],
    "baseline.segment_mfcc_matrix": len,
}

NAME, PARENT, START, END, ERROR = range(5)


def _specvalley_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "specvalley" or name.startswith("specvalley."))]


class Recorder:
    """Collects spans from wrapped specvalley functions and from ``span()``.

    ``only`` limits the wrapping to the named functions, as in
    ``Recorder(only=OBSERVED)``, which counts frames at almost no cost.
    """

    def __init__(self, only=None):
        self.spans = []
        self.results = {name: [] for name in OBSERVED}
        self._only = only
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        """Record a span around benchmark code; yields the span's index."""
        index = len(self.spans)
        span = self._open(name)
        try:
            yield index
        finally:
            self._close(span)

    def _open(self, name):
        span = [name, self._stack[-1] if self._stack else -1, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        recorder = self
        keep = recorder.results.get(name)
        summary = OBSERVED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                recorder._close(span)
            if keep is not None:
                keep.append(summary(result))
            return result

        wrapper.bench_original = fn
        return wrapper

    def __enter__(self):
        modules = _specvalley_modules()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"specvalley.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and (self._only is None or f"{layer}.{attr}" in self._only)):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        return False

    def leftover_wrappers(self):
        """Names still bound to a wrapper; empty once the recorder has exited."""
        return sorted(f"{mod.__name__}.{attr}" for mod in _specvalley_modules()
                      for attr, obj in vars(mod).items()
                      if hasattr(obj, "bench_original"))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "error"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _percentile_ms(durations_ns, q):
    if len(durations_ns) < 2:
        return durations_ns[0] / 1e6 if durations_ns else 0.0
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e6


def rollup(spans, roots):
    """Inclusive time, self time and calls per function and per layer.

    Only spans below one of the ``roots`` (indices of benchmark spans) count.
    A span's self time is its duration minus that of its direct children;
    calls are strictly nested, so it is never negative. A layer's self time
    is the summed self time of its functions: the time in which its code was
    the innermost one running.
    """
    inside = [False] * len(spans)
    child_ns = [0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        inside[i] = i in roots or (parent >= 0 and inside[parent])
        if parent >= 0 and inside[i] and i not in roots:
            child_ns[parent] += span[END] - span[START]
    functions, layers = {}, {}
    for i, span in enumerate(spans):
        if not inside[i] or i in roots:
            continue
        dur = span[END] - span[START]
        own = dur - child_ns[i]
        f = functions.setdefault(span[NAME], {"ns": 0, "self_ns": 0, "calls": 0,
                                              "errors": {}, "durations": []})
        f["ns"] += dur
        f["self_ns"] += own
        f["calls"] += 1
        f["durations"].append(dur)
        if span[ERROR]:
            f["errors"][span[ERROR]] = f["errors"].get(span[ERROR], 0) + 1
        layer = span[NAME].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + own
    return functions, layers


def function_stat(functions, layers, key, stat):
    """One ``<module>.<function>.<stat>`` or ``<module>.self_s`` value."""
    if "." not in key:
        if stat != "self_s":
            raise KeyError(f"{key}.{stat}")
        return layers.get(key, 0) / 1e9
    f = functions.get(key)
    if stat == "s":
        return f["ns"] / 1e9 if f else 0.0
    if stat == "self_s":
        return f["self_ns"] / 1e9 if f else 0.0
    if stat == "calls":
        return f["calls"] if f else 0
    if stat in ("p50_ms", "p99_ms"):
        return _percentile_ms(f["durations"], int(stat[1:3])) if f else 0.0
    raise KeyError(f"{key}.{stat}")
