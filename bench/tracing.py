"""Span tracing around nncost's public functions, from outside the package.

``install`` wraps every public function of the traced modules and
rebinds the wrapper at every place the original is bound: the modules
import each other's functions by name, so wrapping only the defining
module would miss most calls.  Spans are kept in memory as parallel
arrays (name, start, end, parent span, job id) and written out at the
end.  Untraced runs install no wrappers.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

#: The layers of the benchmark: nncost's modules.
MODULES = ("cli", "report", "graph", "metrics", "hwprofile", "liveness", "bundled")


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: Counter[str] = Counter()
        self.job_id = 0
        self._open = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int, job: int) -> int:
        """Append one finished span; returns its index."""
        return self._append(self._intern(name), start, end, parent, job)

    def _append(self, nid: int, start: float, end: float, parent: int, job: int) -> int:
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        return len(self.start) - 1

    def wrap(self, fn, name: str, name_of=None, count=None):
        """A wrapper recording one span per call of ``fn``.

        ``name_of(args, kwargs)`` refines the span name per call;
        ``count`` is a (counter name, function of the result) pair.
        """
        fixed = self._intern(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed if name_of is None else self._intern(name_of(args, kwargs))
            idx = self._append(nid, 0.0, 0.0, self._open[-1], self.job_id)
            self._open.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.start[idx] = t0
                self._open.pop()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """Iterate over spans as (name, start, end, parent index, job id)."""
        names = self.names
        for n, s, e, p, j in zip(self.name, self.start, self.end, self.parent, self.job):
            yield names[n], s, e, p, j

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and call count per span name."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for nid, st in zip(self.name, self_times(self.start, self.end, self.parent)):
            self_s[self.names[nid]] += st
            calls[self.names[nid]] += 1
        return dict(self_s), dict(calls)

    def write(self, path) -> None:
        """Write all spans as gzip'd TSV: index, name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, (n, s, e, p, j) in enumerate(self.spans()):
                f.write(f"{i}\t{n}\t{s!r}\t{e!r}\t{p}\t{j}\n")


def self_times(start, end, parent) -> array:
    """Per span, its duration minus the part of it covered by its child
    spans.  Children are clipped to their parent and overlaps between
    them count once.  Spans are taken in order of start time."""
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach: dict[int, float] = {}  # parent -> end of its covered prefix
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], start[p], reach.get(p, start[p]))
        e = min(end[i], end[p])
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def _render_name(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "table")
    return f"report.render.{fmt}"


def install(tracer: Tracer):
    """Wrap nncost's public functions and ``Graph.validate`` everywhere they
    are bound.  Returns a function that undoes it."""
    import nncost
    import nncost.cli  # noqa: F401  (imports every traced module)

    bound = [nncost] + [m for k, m in sys.modules.items() if k.startswith("nncost.")]
    undo = []
    for short in MODULES:
        mod = sys.modules[f"nncost.{short}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = tracer.wrap(
                fn,
                name,
                name_of=_render_name if name == "report.render" else None,
                count=("graph.orders_enumerated", len) if name == "graph.all_topological_orders" else None,
            )
            for site in bound:
                for a, obj in list(vars(site).items()):
                    if obj is fn:
                        setattr(site, a, wrapper)
                        undo.append((site, a, fn))
    graph_cls = nncost.graph.Graph
    validate = graph_cls.validate
    graph_cls.validate = tracer.wrap(validate, "graph.validate")
    undo.append((graph_cls, "validate", validate))

    def uninstall() -> None:
        for site, a, fn in reversed(undo):
            setattr(site, a, fn)

    return uninstall
