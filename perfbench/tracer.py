"""Layer spans recorded from outside the program.

:class:`Tracer` replaces the public entry points of each layer with
thin wrappers that time the call and charge it to a named layer.  A
layer's *self time* is its span's duration minus the time of the spans
it called, so the self times of one thread add up to the time that
thread spent inside traced code.  Each thread keeps its own span stack
(the streaming producer runs on a worker thread) and its own
accumulators, merged only when the run ends, so the hot path takes no
lock.

The wrapper's own bookkeeping (state lookup, stack push and pop,
accumulator updates, counter hooks) is charged to no layer: the caller
is credited the whole wrapped call, the callee only the span around
the original function.  It therefore lands in ``unattributed_s``, not
in the caller's self time.  Only the cost of calling the wrapper and
returning from it stays with the caller.

Per-segment calls (``TraceBuilder.emit``, ``HardwareModel.cost``) are
framed like spans, so their time leaves the caller's self time, but
they are aggregated as counters instead of one recorded span each.
``estimate_record_bytes`` is deliberately not wrapped: it recurses, and
its cost stays in its caller's self time.

:func:`install` patches the program; :meth:`Tracer.uninstall` restores
every original attribute.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

_perf = time.perf_counter

# Counter hooks: (args, kwargs, result) -> {counter: increment}.
CountFn = Callable[[tuple, dict, Any], dict]


class _ThreadState:
    __slots__ = ("tid", "stack", "self_s", "calls", "counts", "spans")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[list[float]] = []  # one [child_seconds] per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float]] = []  # (layer, start, dur)


class Tracer:
    """Per-thread span stacks with self-time and counter accumulators."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.origin = _perf()

    # -- recording -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        *,
        record: bool = True,
        count: CountFn | None = None,
    ) -> Any:
        """Run ``fn`` inside a ``layer`` span on the calling thread.

        ``layer`` is charged only the span around ``fn``; the caller is
        credited the whole call, bookkeeping and counter included.
        """
        entered = _perf()
        st = self._state()
        try:
            frame = [0.0]
            st.stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                st.stack.pop()
                st.self_s[layer] += dur - frame[0]
                st.calls[layer] += 1
                if record:
                    st.spans.append((layer, start, dur))
            if count is not None:
                for name, inc in count(args, kwargs, result).items():
                    st.counts[name] += inc
            return result
        finally:
            if st.stack:
                st.stack[-1][0] += _perf() - entered

    def add(self, name: str, inc: float = 1.0) -> None:
        """Bump a counter on the calling thread."""
        self._state().counts[name] += inc

    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        record: bool = True,
        count: CountFn | None = None,
    ) -> Callable:
        """A function that runs ``fn`` inside a ``layer`` span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(layer, fn, args, kwargs, record=record, count=count)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """A function that only counts calls of ``fn`` (no span, no timing)."""

        def counting(*args: Any, **kwargs: Any) -> Any:
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn  # type: ignore[attr-defined]
        return counting

    def events(
        self, events: Iterable[Any], *, batch_type: type, layer: str
    ) -> Iterator[Any]:
        """Re-yield a stream's events, timing each wait for the next one.

        The wait is a ``layer`` frame (so it leaves the consumer's self
        time); events of ``batch_type`` are counted as
        ``<layer>.batches``.
        """
        it = iter(events)
        try:
            while True:
                try:
                    item = self.call(layer, next, (it,), {}, record=False)
                except StopIteration:
                    return
                if isinstance(item, batch_type):
                    self.add(f"{layer}.batches")
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- patching --------------------------------------------------------------

    def patch(
        self,
        owner: Any,
        name: str,
        layer: str | None = None,
        *,
        record: bool = True,
        count: CountFn | None = None,
        counter: str | None = None,
    ) -> None:
        """Replace ``owner.name`` by a traced (or, with ``counter``, a
        counted) version; static and class methods keep their kind."""
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if counter is not None:
            new: Any = self.counted(counter, fn)
        else:
            new = self.wrap(layer or name, fn, record=record, count=count)
        setattr(owner, name, kind(new) if kind is not None else new)
        self._patches.append((owner, name, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (open spans stay open)."""
        with self._lock:
            for st in self._states:
                st.self_s.clear()
                st.calls.clear()
                st.counts.clear()
                st.spans.clear()
        self.origin = _perf()

    def totals(
        self, tid: int | None = None
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Self seconds per layer and counter totals, over all threads or
        only thread ``tid``.

        Besides the explicit counters, every layer ``L`` has a counter
        ``L.calls`` (completed or raised calls).
        """
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        with self._lock:
            for st in self._states:
                if tid is not None and st.tid != tid:
                    continue
                for k, v in st.self_s.items():
                    self_s[k] += v
                for k, v in st.counts.items():
                    counts[k] += v
                for k, v in st.calls.items():
                    counts[f"{k}.calls"] += v
        return dict(self_s), dict(counts)

    def write_chrome_trace(self, path: str) -> int:
        """Write recorded spans as Chrome trace-event JSON; return the count."""
        pid = os.getpid()
        events = []
        with self._lock:
            for st in self._states:
                for layer, start, dur in st.spans:
                    events.append(
                        {
                            "name": layer,
                            "cat": layer.split(".", 1)[0],
                            "ph": "X",
                            "ts": (start - self.origin) * 1e6,
                            "dur": dur * 1e6,
                            "pid": pid,
                            "tid": st.tid,
                        }
                    )
        events.sort(key=lambda e: e["ts"])
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.algos
    import repro.algos.quicksort
    import repro.core.clustering
    import repro.core.pipeline
    import repro.core.sampling
    import repro.datagen
    import repro.datagen.text
    import repro.hadoop.runtime
    import repro.runtime.provenance
    import repro.spark.executor
    import repro.workloads.bayes
    import repro.workloads.grep
    import repro.workloads.sort
    import repro.workloads.wordcount
    from repro.core.features import FeatureSpace
    from repro.core.phases import PhaseModel
    from repro.core.profiler import SimProfProfiler, StreamingProfiler
    from repro.datagen.seeds import GraphInput
    from repro.hdfs.filesystem import SimulatedHDFS
    from repro.jvm.machine import HardwareModel
    from repro.jvm.threads import ThreadTrace, TraceBuilder
    from repro.runtime.runner import ExperimentRunner
    from repro.runtime.store import ArtifactStore
    from repro.spark.shuffle import ShuffleManager
    from repro.workloads import WORKLOADS
    from repro.workloads.base import Workload

    p = tracer.patch

    # workloads: the trace-gen entry point of every label.
    p(Workload, "execute", "workloads")
    p(Workload, "execute_stream", "workloads")
    for cls in WORKLOADS.values():
        p(cls, "prepare_input", "datagen")
        p(cls, "run_spark", "spark")
        p(cls, "run_hadoop", "hadoop")

    # datagen: functions imported by name are patched where imported.
    for mod in (repro.datagen.text, repro.datagen, repro.workloads.grep,
                repro.workloads.sort, repro.workloads.wordcount):
        p(mod, "synthesize_text", "datagen")
    for mod in (repro.datagen.text, repro.datagen, repro.workloads.bayes):
        p(mod, "synthesize_labeled_text", "datagen")
    p(GraphInput, "edges", "datagen")

    # hdfs: bytes are the estimates the filesystem prices IO with.
    hdfs_counts: dict[str, Callable[[tuple, Any], tuple[int, int]]] = {
        "write": lambda a, r: (r.n_blocks, r.total_bytes),
        "write_blocks": lambda a, r: (r.n_blocks, r.total_bytes),
        "read_block": lambda a, r: (1, r[1]),
        "read_all": lambda a, r: (
            a[0].stat(a[1]).n_blocks, a[0].stat(a[1]).total_bytes
        ),
        "append_block": lambda a, r: (1, r),
    }
    for name, blocks_bytes in hdfs_counts.items():
        def count(a: tuple, k: dict, r: Any, bb=blocks_bytes) -> dict:
            blocks, nbytes = bb(a, r)
            return {"hdfs.blocks": blocks, "hdfs.bytes": nbytes}
        p(SimulatedHDFS, name, "hdfs", count=count)

    # spark.shuffle (the Hadoop runtime reuses the same ShuffleManager).
    p(ShuffleManager, "write_block", "spark.shuffle",
      count=lambda a, k, r: {"spark.shuffle.blocks": 1})
    p(ShuffleManager, "fetch", "spark.shuffle",
      count=lambda a, k, r: {"spark.shuffle.blocks": len(r)})

    for mod in (repro.algos.quicksort, repro.algos, repro.spark.executor,
                repro.hadoop.runtime):
        p(mod, "instrumented_quicksort", "algos.quicksort")

    # jvm: per-segment calls are counters inside their parent span.
    p(TraceBuilder, "emit", "jvm.emit", record=False)  # jvm.emit.calls = segments
    p(HardwareModel, "cost", "jvm.cost", record=False)
    p(ThreadTrace, "drain_structured", "jvm.pack")
    p(ThreadTrace, "to_structured", "jvm.pack")

    # core
    units: CountFn = lambda a, k, r: {"core.profiler.units": r.n_units}  # noqa: E731
    p(SimProfProfiler, "profile", "core.profiler", count=units)
    p(StreamingProfiler, "consume", "core.profiler", count=units)
    p(FeatureSpace, "fit", "core.features")
    p(PhaseModel, "fit", "core.phases")
    p(repro.core.clustering, "kmeans", counter="core.phases.kmeans_calls")
    points: CountFn = lambda a, k, r: {"core.sampling.points": len(r.selected)}  # noqa: E731
    for mod in (repro.core.sampling, repro.core.pipeline):
        p(mod, "stratified_sample", "core.sampling", count=points)

    # runtime
    def got(a: tuple, k: dict, r: Any) -> dict:
        manifest = a[0].manifest(a[1])
        return {
            "runtime.store.hits": 1,
            "runtime.store.get_bytes": manifest.size_bytes if manifest else 0,
        }

    p(ArtifactStore, "get", "runtime.store.get", count=got)
    p(ArtifactStore, "put", "runtime.store.put",
      count=lambda a, k, r: {"runtime.store.put_bytes": r.size_bytes})
    p(repro.runtime.provenance, "plan_graph", "runtime.provenance.plan")
    p(ExperimentRunner, "run_graph", "runtime.runner")
