"""Outside-in span tracer for the lingcond benchmark.

The tracer replaces the public functions of the package's modules with
wrappers that record one span per call: a name, a start and an end time and
the id of the span that was open when the call began. Spans stay in memory
(flat arrays, so a scan of a million candidates stays small) until the run
ends and are aggregated only then. The package itself is not edited; every
patched attribute is put back by :meth:`Tracer.restore`.

A function is wrapped under every module name that binds it, because a call
resolves the name in the caller's module: ``recover`` calls ``fastica``
through its own global, ``harness`` calls ``threshold`` as
``apply_threshold``. All bindings of one function share one wrapper and one
span name, ``<defining module>.<function>``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    """Records nested call spans with parent ids; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name table; spans store an index into it
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)  # observer tallies, e.g. ICA iterations
        self.paused = False
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def __len__(self):
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.name.append(self._name_id(name))
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside this block (the benchmark's own checks) go unrecorded."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def wrap(self, fn, name: str, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self, modules, observers=None) -> int:
        """Wrap every public function defined in ``modules``, under each binding.

        ``modules`` maps a short layer name to a module object. A function
        counts when it is defined in one of those modules and bound under a
        name without a leading underscore; its span name uses the short name
        of the defining module. Returns the number of patched bindings.
        """
        observers = observers or {}
        short = {mod.__name__: key for key, mod in modules.items()}
        wrappers = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = short.get(value.__module__)
                if home is None or value.__name__.startswith("_"):
                    continue
                key = id(value)
                if key not in wrappers:
                    span_name = f"{home}.{value.__name__}"
                    wrappers[key] = self.wrap(value, span_name, observers.get(span_name))
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[key])
        return len(self._patches)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def self_times(parent, start, end) -> list:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping or nested children are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, pid in enumerate(parent):
        if pid != NO_PARENT:
            children[pid].append(sid)
    out = [end[sid] - start[sid] for sid in range(len(start))]
    for pid, kids in children.items():
        lo, hi = start[pid], end[pid]
        covered = 0.0
        run_start = run_end = None
        for sid in sorted(kids, key=lambda s: start[s]):
            a, b = max(start[sid], lo), min(end[sid], hi)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[pid] -= covered
    return out


def has_ancestor(parent, name_ids, sid: int, target: int) -> bool:
    pid = parent[sid]
    while pid != NO_PARENT:
        if name_ids[pid] == target:
            return True
        pid = parent[pid]
    return False


def summarize(tracer: Tracer) -> dict:
    """Per span name: call count, inclusive seconds and self seconds."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names}
    for sid in range(len(tracer)):
        entry = stats[tracer.names[tracer.name[sid]]]
        entry["calls"] += 1
        entry["total_s"] += tracer.end[sid] - tracer.start[sid]
        entry["self_s"] += selfs[sid]
    return stats


def count_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of ``name`` spans that ran inside an ``ancestor`` span."""
    ids = tracer._name_ids
    if name not in ids or ancestor not in ids:
        return 0
    nid, aid = ids[name], ids[ancestor]
    return sum(
        1
        for sid in range(len(tracer))
        if tracer.name[sid] == nid and has_ancestor(tracer.parent, tracer.name, sid, aid)
    )


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span over an unwrapped call, in seconds."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap(noop, "probe.noop")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
        del probe.parent[:], probe.name[:], probe.start[:], probe.end[:]
    return max(best, 0.0)
