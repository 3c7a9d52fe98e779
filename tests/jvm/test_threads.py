"""Unit tests for trace segments, thread traces, and the trace builder."""

from __future__ import annotations

import base64
import pickle

import numpy as np
import pytest

from repro.jvm.job import JobTrace
from repro.jvm.machine import AccessPattern, HardwareModel, MachineConfig, OpKind
from repro.jvm.methods import CallStack, MethodRegistry, StackTable
from repro.jvm.segments import SEGMENT_DTYPE
from repro.jvm.threads import ThreadTrace, TraceBuilder, TraceSegment
from repro.runtime.store import ArtifactStore


@pytest.fixture()
def builder_parts():
    registry = MethodRegistry()
    table = StackTable(registry)
    stack = CallStack((registry.intern("a.A", "run"),))
    hw = HardwareModel(MachineConfig(noise_sigma=0.0, migration_probability=0.0))
    rng = np.random.default_rng(0)
    builder = TraceBuilder(table, hw, rng, thread_id=0, core_id=0)
    return builder, stack


class TestTraceSegment:
    def test_cpi(self):
        seg = TraceSegment(0, OpKind.MAP, 100, 250, 1, 1)
        assert seg.cpi == 2.5

    def test_cpi_zero_instructions(self):
        seg = TraceSegment(0, OpKind.MAP, 0, 10, 0, 0)
        assert seg.cpi == 0.0


class TestTraceBuilder:
    def test_emit_appends_segment(self, builder_parts):
        builder, stack = builder_parts
        seg = builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6)
        assert len(builder.trace) == 1
        assert seg.instructions == 1_000_000

    def test_emit_applies_instruction_scale(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(
            MachineConfig(noise_sigma=0.0, migration_probability=0.0,
                          instruction_scale=4.0)
        )
        builder = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        seg = builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1000)
        assert seg.instructions == 4000

    def test_emit_chunked_respects_max_segment(self, builder_parts):
        builder, stack = builder_parts
        n = builder.emit_chunked(
            stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e7, max_segment=4e6
        )
        assert n == 3
        sizes = [s.instructions for s in builder.trace.segments]
        assert max(sizes) <= 4_000_000
        assert sum(sizes) == 10_000_000

    def test_emit_chunked_scales_before_chunking(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(
            MachineConfig(noise_sigma=0.0, migration_probability=0.0,
                          instruction_scale=10.0)
        )
        builder = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        builder.emit_chunked(
            stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6, max_segment=4e6
        )
        sizes = [s.instructions for s in builder.trace.segments]
        assert sum(sizes) == 10_000_000  # 1e6 abstract * scale 10
        assert max(sizes) <= 4_000_000

    def test_emit_chunked_rejects_bad_max(self, builder_parts):
        builder, stack = builder_parts
        with pytest.raises(ValueError):
            builder.emit_chunked(
                stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6, max_segment=0
            )

    def test_migration_marks_next_segment_cold(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(
            MachineConfig(noise_sigma=0.0, migration_probability=1.0)
        )
        builder = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        first = builder.emit(stack, OpKind.MAP, AccessPattern.random(1e6), 1e6)
        second = builder.emit(stack, OpKind.MAP, AccessPattern.random(1e6), 1e6)
        assert not first.cold
        assert second.cold
        assert builder.migrations >= 1

    def test_contention_increases_cycles(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(MachineConfig(noise_sigma=0.0, migration_probability=0.0))
        access = AccessPattern.random(4e6)
        b1 = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        b1.set_contention(1)
        alone = b1.emit(stack, OpKind.MAP, access, 1e6).cycles
        b8 = TraceBuilder(table, hw, np.random.default_rng(0), 1, 0)
        b8.set_contention(8)
        shared = b8.emit(stack, OpKind.MAP, access, 1e6).cycles
        assert shared > alone


class TestThreadTrace:
    def test_totals(self, builder_parts):
        builder, stack = builder_parts
        for _ in range(3):
            builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6)
        trace = builder.trace
        assert trace.total_instructions == 3_000_000
        assert trace.total_cycles > 0
        assert trace.end_cycle == trace.start_cycle + trace.total_cycles

    def test_to_arrays_matches_segments(self, builder_parts):
        builder, stack = builder_parts
        builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6)
        builder.emit(stack, OpKind.IO, AccessPattern.sequential(1e4), 2e6)
        arrays = builder.trace.to_arrays()
        assert list(arrays["instructions"]) == [1_000_000, 2_000_000]
        assert arrays["op_kind"][0] != arrays["op_kind"][1]

    def test_merged_orders_by_start_cycle(self):
        t1 = ThreadTrace(thread_id=1, core_id=0, start_cycle=100)
        t1.segments.append(TraceSegment(0, OpKind.MAP, 10, 10, 0, 0))
        t2 = ThreadTrace(thread_id=2, core_id=0, start_cycle=0)
        t2.segments.append(TraceSegment(1, OpKind.MAP, 20, 20, 0, 0))
        merged = ThreadTrace.merged([t1, t2], thread_id=7)
        assert merged.thread_id == 7
        assert [s.stack_id for s in merged.segments] == [1, 0]

    def test_merged_rejects_mixed_cores(self):
        t1 = ThreadTrace(thread_id=1, core_id=0)
        t2 = ThreadTrace(thread_id=2, core_id=1)
        with pytest.raises(ValueError):
            ThreadTrace.merged([t1, t2], thread_id=0)

    def test_merged_rejects_empty(self):
        with pytest.raises(ValueError):
            ThreadTrace.merged([], thread_id=0)


# A ThreadTrace pickled (protocol 4) before traces pickled in packed
# form: thread 3 on core 1 at cycle 500, two segments, totals cached.
_LEGACY_TRACE_PICKLE = base64.b64decode(
    "gASVAQEAAAAAAACMEXJlcHJvLmp2bS50aHJlYWRzlIwLVGhyZWFkVHJhY2WUk5Qp"
    "gZR9lCiMCXRocmVhZF9pZJRLA4wHY29yZV9pZJRLAYwIc2VnbWVudHOUXZQoaACM"
    "DFRyYWNlU2VnbWVudJSTlCmBlF2UKEsAjBFyZXByby5qdm0ubWFjaGluZZSMBk9w"
    "S2luZJSTlIwDbWFwlIWUUpRN6ANNxAlLCksCSwBLBIllYmgKKYGUXZQoSwFoD4wE"
    "c29ydJSFlFKUTaAPTYgTSyhLCEsBSwWIZWJljAtzdGFydF9jeWNsZZRN9AGMDV90"
    "b3RhbHNfY2FjaGWUKEsASwJNiBNNTB10lHViLg=="
)


def _job_trace(n_segments: int = 40) -> JobTrace:
    """A small two-thread job priced with noise and migrations on."""
    registry = MethodRegistry()
    table = StackTable(registry)
    stacks = [
        CallStack((registry.intern("a.A", "run"),)),
        CallStack((registry.intern("a.A", "run"), registry.intern("b.B", "sort"))),
    ]
    machine = MachineConfig(migration_probability=0.2)
    hw = HardwareModel(machine)
    rng = np.random.default_rng(11)
    job = JobTrace("spark", "toy", "default", registry, table, machine)
    kinds = [OpKind.MAP, OpKind.SORT, OpKind.IO]
    for thread_id in range(2):
        builder = TraceBuilder(table, hw, rng, thread_id, thread_id, start_cycle=7)
        for i in range(n_segments):
            builder.emit(
                stacks[i % 2], kinds[i % 3], AccessPattern.sequential(1e4 * (i + 1)),
                1e6 + i, stage_id=i // 10, task_id=i,
            )
        job.traces.append(builder.trace)
    return job


def _round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class TestThreadTracePickle:
    """Traces pickle as one packed array per thread and load unchanged."""

    def test_job_trace_round_trip(self):
        job = _job_trace()
        loaded = _round_trip(job)
        assert any(s.cold for t in job.traces for s in t.segments)
        for before, after in zip(job.traces, loaded.traces):
            assert after == before
            assert after.segments == before.segments
            assert isinstance(after.segments, list)
            assert after.total_instructions == before.total_instructions
            assert after.total_cycles == before.total_cycles
            packed = after.to_structured()
            assert packed.dtype == SEGMENT_DTYPE
            assert np.array_equal(packed, before.to_structured())
            assert not packed.flags.writeable
        assert loaded.total_cycles == job.total_cycles

    def test_segment_field_types_survive(self):
        loaded = _round_trip(_job_trace(5)).traces[0]
        for seg in loaded.segments:
            assert type(seg.op_kind) is OpKind
            assert type(seg.cold) is bool
            assert type(seg.instructions) is int

    def test_zero_segment_trace(self):
        trace = ThreadTrace(thread_id=4, core_id=2, start_cycle=9)
        loaded = _round_trip(trace)
        assert loaded == trace
        assert loaded.segments == []
        assert loaded.total_instructions == 0
        assert loaded.to_structured().shape == (0,)

    def test_valid_cache_is_reused_and_stale_cache_is_not(self):
        trace = _job_trace(6).traces[0]
        trace.to_structured()
        assert _round_trip(trace) == trace
        trace.segments.append(TraceSegment(0, OpKind.IO, 5, 9, 1, 0))
        loaded = _round_trip(trace)
        assert len(loaded) == 7
        assert loaded.segments[-1] == trace.segments[-1]

    def test_pickling_leaves_no_packed_copy(self):
        trace = _job_trace(6).traces[0]
        pickle.dumps(trace)
        assert trace._structured_cache is None

    def test_legacy_pickle_loads(self):
        trace = pickle.loads(_LEGACY_TRACE_PICKLE)
        assert (trace.thread_id, trace.core_id, trace.start_cycle) == (3, 1, 500)
        assert trace.segments == [
            TraceSegment(0, OpKind.MAP, 1000, 2500, 10, 2, stage_id=0, task_id=4),
            TraceSegment(1, OpKind.SORT, 4000, 5000, 40, 8, 1, 5, cold=True),
        ]
        assert trace.total_instructions == 5000
        assert trace.total_cycles == 7500
        assert _round_trip(trace) == trace

    def test_clear_and_drain_after_load(self):
        trace = _job_trace(8).traces[1]
        loaded = _round_trip(trace)
        drained = loaded.drain_structured()
        assert np.array_equal(drained, trace.to_structured())
        assert len(loaded) == 0
        assert loaded.total_instructions == 0
        assert loaded.to_structured().shape == (0,)
        seg = TraceSegment(3, OpKind.MAP, 11, 22, 0, 0)
        loaded.segments.append(seg)
        assert loaded.total_cycles == 22
        assert loaded.to_structured()["cycles"].tolist() == [22]
        loaded.clear_segments()
        assert len(loaded) == 0
        assert loaded.total_cycles == 0

    def test_stored_trace_passes_verify(self, tmp_path):
        job = _job_trace()
        store = ArtifactStore(tmp_path)
        key = store.key_for("trace", {"w": "toy"})
        store.put(key, job, kind="trace")
        loaded = ArtifactStore(tmp_path).get(key)
        assert loaded.traces == job.traces
        report = ArtifactStore(tmp_path).verify()
        assert report["ok"] == [key]
        assert report["corrupt"] == []
