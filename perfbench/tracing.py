"""Spans around calls into harflow's public functions, from the benchmark side.

A span records (id, parent id, operation id, name, call site, start, end,
excluded). Spans stay in memory and are written out when the run ends.

Each function is patched at the name its caller looks it up by: `from x
import f` binds a local name, so `harflow.optimizer.build_schedule` must be
patched as well as `harflow.scheduler.build_schedule`. Span names use the
module that defines the function ("scheduler.build_schedule"); the call site
is recorded separately ("optimizer", "cli", ...).

Count hooks run after a span has closed. Their time is added to the
`excluded` field of every span still open, so counting never shows up as
self time of the caller. Closed spans are kept as tuples of plain values,
which the garbage collector stops scanning, so a long traced run does not
slow down as spans pile up.
"""

import functools
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ID, PARENT, OP, NAME, SITE, START, END, EXCLUDED = range(8)


class Tracer:
    def __init__(self):
        self.spans = []  # closed spans, in the order they closed
        self.counts = Counter()
        self.active = False
        self.op = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording -------------------------------------------------------

    def _open(self, name, site):
        parent = self._stack[-1][ID] if self._stack else None
        span = [self._next_id, parent, self.op, name, site, perf_counter(), None, 0.0]
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()
        self.spans.append(tuple(span))

    def _hook(self, fn, value):
        t0 = perf_counter()
        fn(self.counts, value)
        spent = perf_counter() - t0
        for span in self._stack:
            span[EXCLUDED] += spent

    @contextmanager
    def span(self, name, site="bench"):
        """Root span around one benchmark operation (no-op when inactive)."""
        if not self.active:
            yield
            return
        span = self._open(name, site)
        try:
            yield
        finally:
            self._close(span)

    def patch(self, owner, attr, name, site, on_result=None, on_error=None):
        """Replace `owner.attr` with a wrapper that records a span per call."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer._open(name, site)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span)
                if on_error is not None:
                    tracer._hook(on_error, exc)
                raise
            tracer._close(span)
            if on_result is not None:
                tracer._hook(on_result, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- analysis --------------------------------------------------------

    def function_stats(self):
        """{(name, site): {"calls", "total_s", "self_s", "durations"}} over all spans.

        Self time is the span's duration minus the durations of its direct
        children; calls are nested and single-threaded, so children never
        overlap each other.
        """
        spans = self.spans
        duration = {s[ID]: s[END] - s[START] - s[EXCLUDED] for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += duration[s[ID]]
        stats = {}
        for s in spans:
            row = stats.setdefault(
                (s[NAME], s[SITE]), {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            row["calls"] += 1
            row["total_s"] += duration[s[ID]]
            row["self_s"] += duration[s[ID]] - child_time[s[ID]]
            row["durations"].append(duration[s[ID]])
        return stats

    def parent_names(self, name):
        """Names of the direct parents of every span called `name`."""
        by_id = {s[ID]: s for s in self.spans}
        return Counter(
            by_id[s[PARENT]][NAME] if s[PARENT] is not None else None
            for s in self.spans
            if s[NAME] == name
        )


def merged(stats, name, site=None):
    """Calls/total/self of `name`, summed over call sites unless one is given."""
    out = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    for (n, s), row in stats.items():
        if n == name and (site is None or s == site):
            out["calls"] += row["calls"]
            out["total_s"] += row["total_s"]
            out["self_s"] += row["self_s"]
            out["durations"].extend(row["durations"])
    return out


def module_self(stats, module):
    return sum(row["self_s"] for (n, _), row in stats.items() if n.split(".")[0] == module)


def percentile_ms(durations, q):
    """q-th percentile (1..99) of durations in milliseconds; 0 without samples."""
    if len(durations) < 2:
        return 1e3 * durations[0] if durations else 0.0
    return 1e3 * statistics.quantiles(durations, n=100)[q - 1]
