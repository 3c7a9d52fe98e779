"""One child process of the benchmark.

``run.py`` starts this script once per step, in a fresh interpreter, so
every timed round has its own peak RSS, its own instrumentation
registry and its own store memory tier.  Modes:

``prep``
    Once per run, before any round: the warm-retune template store, or
    the stream-profile batch reference.
``setup``
    A round's set-up only (fresh process, imports, inputs), then exit;
    used to take several set-up samples when a run has few rounds.
``round``
    Set-up, one timed round of the workload, then the output checks,
    outside the timed region.

A ``hostspeed.Probe`` samples the host's speed from the first import
on, so the set-up and the timed round are reported both in host seconds
and in reference seconds (``setup_s``, ``wall_s``).  Traced rounds stop
the probe before timing and report host seconds only.

The child writes one JSON report to ``--out``.  It reaches the program
only through its public API: ``ExperimentRunner.run_graph`` over
``spec_nodes`` graphs, ``run_workload_stream`` and
``SimProf.analyze_stream``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from hostspeed import Probe

# Started before the heavy imports, so that set-up is sampled from the
# first import on.
PROBE = Probe()
PROBE.start()

import numpy as np  # noqa: E402

from repro.core.pipeline import SimProf, SimProfConfig  # noqa: E402
from repro.core.sampling import stratified_sample  # noqa: E402
from repro.experiments.common import all_label_pairs  # noqa: E402
from repro.runtime.provenance import StageGraph  # noqa: E402
from repro.runtime.runner import ExperimentRunner, RunSpec  # noqa: E402
from repro.runtime.stages import spec_nodes  # noqa: E402
from repro.runtime.store import ArtifactStore  # noqa: E402
from repro.workloads import run_workload, run_workload_stream  # noqa: E402

SCALE = 0.05  # input scale: every label keeps more units than N_POINTS
N_POINTS = 20  # simulation points per estimate
ERR_DRAWS = 200  # seeded sampling draws behind est_err_pct
UNIT_INSTRUCTIONS = 100_000_000  # one reported unit

BASE = SimProfConfig()
# warm-retune's knob sweep: the first config re-cuts the units, the
# second only re-fits phases on the template's profiles.
SWEEP = {
    "unit_size=50M": replace(BASE, unit_size=50_000_000),
    "max_phases=10": replace(BASE, max_phases=10),
}
# One Hadoop and one Spark label whose sampling error is steady across
# input seeds at this scale, so that est_err_pct can guard accuracy from
# a few runs (rank_sp's error, for one, ranges from 0.6 % to 1.7 %).
STREAM_LABELS = ("bayes_hp", "cc_sp")


@dataclass
class Request:
    """One label x one config, with the outputs the checks read."""

    label: str
    config: str
    cfg: SimProfConfig
    job: Any = None
    model: Any = None
    estimate: Any = None
    error: str | None = None


def label_pairs(labels: list[str] | None) -> list[tuple[str, str]]:
    frameworks = {"hp": "hadoop", "sp": "spark"}
    if labels is None:
        return all_label_pairs()
    return [(lab.rsplit("_", 1)[0], frameworks[lab.rsplit("_", 1)[1]]) for lab in labels]


def _label(workload: str, framework: str) -> str:
    return f"{workload}_{'hp' if framework == 'hadoop' else 'sp'}"


def _graph(name: str, specs: list[RunSpec]) -> tuple[StageGraph, list[dict]]:
    graph = StageGraph(name)
    return graph, [spec_nodes(graph, s, n_points=N_POINTS) for s in specs]


def _run_graph(store: ArtifactStore, graph: StageGraph, nodes: list[dict]):
    result = ExperimentRunner(store, jobs=1).run_graph(graph)
    return result, [result[n["estimate"]] for n in nodes]


def _fill(reqs: list[Request], result: Any, nodes: list[dict], estimates: list) -> None:
    for req, n, est in zip(reqs, nodes, estimates):
        req.job = result[n["profile"]]
        req.model = result[n["model"]]
        req.estimate = est


# -- workloads ----------------------------------------------------------------


class ColdSuite:
    """All labels from an empty store: trace-gen through estimate."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.seed = args.seed
        self.pairs = label_pairs(args.labels)
        self.specs = [
            RunSpec(w, f, scale=args.scale, seed=self.seed) for w, f in self.pairs
        ]
        self.store_root = work / "store"
        self.n_requests = len(self.pairs)

    def setup(self) -> None:
        self.graph, self.nodes = _graph("perfbench-cold-suite", self.specs)
        self.store = ArtifactStore(self.store_root)

    def timed(self) -> None:
        self.result, self.estimates = _run_graph(self.store, self.graph, self.nodes)

    def requests(self) -> list[Request]:
        reqs = [Request(_label(w, f), "default", BASE) for w, f in self.pairs]
        _fill(reqs, self.result, self.nodes, self.estimates)
        return reqs


class WarmRetune:
    """A knob sweep over a copy of a store that already holds the traces."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.seed = args.seed
        self.scale = args.scale
        self.pairs = label_pairs(args.labels)
        self.template = Path(args.run_dir) / "template"
        self.store_root = work / "store"
        self.n_requests = len(self.pairs) * len(SWEEP)

    def _specs(self, cfg: SimProfConfig) -> list[RunSpec]:
        return [
            RunSpec(w, f, scale=self.scale, seed=self.seed, simprof=cfg)
            for w, f in self.pairs
        ]

    def prep(self) -> None:
        graph, _ = _graph("perfbench-template", self._specs(BASE))
        ExperimentRunner(ArtifactStore(self.template), jobs=1).run_graph(graph)

    def setup(self) -> None:
        # Hard links: the store only ever replaces files, never rewrites
        # them, so the template stays intact and no round pays a copy.
        shutil.copytree(self.template, self.store_root, copy_function=os.link)
        self.store = ArtifactStore(self.store_root)
        self.graphs = {
            name: _graph(f"perfbench-retune-{name}", self._specs(cfg))
            for name, cfg in SWEEP.items()
        }

    def timed(self) -> None:
        self.results = {
            name: _run_graph(self.store, graph, nodes)
            for name, (graph, nodes) in self.graphs.items()
        }

    def requests(self) -> list[Request]:
        reqs = []
        for name, (result, estimates) in self.results.items():
            group = [Request(_label(w, f), name, SWEEP[name]) for w, f in self.pairs]
            _fill(group, result, self.graphs[name][1], estimates)
            regenerated = [n for n in result.executed if n.startswith("trace-gen:")]
            if regenerated:
                for req in group:
                    req.error = f"re-ran trace generation: {regenerated[:3]}"
            reqs.extend(group)
        return reqs


class StreamProfile:
    """Live-stream profiling, checked bit-for-bit against batch."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.seed = args.seed
        self.scale = args.scale
        self.pairs = label_pairs(args.labels or list(STREAM_LABELS))
        self.reference = Path(args.run_dir) / "stream-reference.json"
        self.n_requests = len(self.pairs)
        self.tracer = None

    def prep(self) -> None:
        ref = {}
        for w, f in self.pairs:
            trace = run_workload(w, f, scale=self.scale, seed=self.seed)
            ref[_label(w, f)] = fingerprint(SimProf(BASE).analyze(trace, N_POINTS))
        self.reference.write_text(json.dumps(ref, indent=1, sort_keys=True))

    def setup(self) -> None:
        self.expected = json.loads(self.reference.read_text())

    def timed(self) -> None:
        self.results = []
        for w, f in self.pairs:
            stream = run_workload_stream(w, f, scale=self.scale, seed=self.seed)
            if self.tracer is not None:
                from repro.jvm.stream import SegmentBatch

                stream = replace(
                    stream,
                    events=self.tracer.events(
                        stream.events, batch_type=SegmentBatch, layer="jvm.stream"
                    ),
                )
            self.results.append(SimProf(BASE).analyze_stream(stream, N_POINTS))

    def requests(self) -> list[Request]:
        reqs = []
        for (w, f), res in zip(self.pairs, self.results):
            label = _label(w, f)
            req = Request(label, "stream", BASE, res.job, res.model, res.points)
            got, want = fingerprint(res), self.expected.get(label)
            if got != want:
                diff = sorted(k for k in got if want is None or got[k] != want.get(k))
                req.error = f"stream differs from batch in {diff}"
            reqs.append(req)
        return reqs


WORKLOADS = {
    "cold-suite": ColdSuite,
    "warm-retune": WarmRetune,
    "stream-profile": StreamProfile,
}


def fingerprint(res: Any) -> dict[str, str]:
    """Bit-exact identity of a SimProf result's units, phases and points."""

    def digest(arr: np.ndarray) -> str:
        a = np.ascontiguousarray(arr)
        return f"{a.dtype.str}{a.shape}:" + hashlib.sha256(a.tobytes()).hexdigest()

    return {
        "units": res.job.content_digest(),
        "assignments": digest(res.model.assignments),
        "selected": digest(res.points.selected),
        "estimate": float(res.points.estimate).hex(),
    }


# -- checks -------------------------------------------------------------------


def check(req: Request) -> str | None:
    """The first output check ``req`` fails, or None."""
    if req.error:
        return req.error
    est, model = req.estimate, req.model
    cpi = req.job.profile.cpi()
    n_units = len(cpi)
    if n_units == 0:
        return "no sampling units"
    if not (math.isfinite(est.estimate) and math.isfinite(est.standard_error)):
        return f"non-finite estimate {est.estimate!r}"
    if not 1 <= model.k <= req.cfg.max_phases:
        return f"k={model.k} outside [1, {req.cfg.max_phases}]"
    assign = np.asarray(model.assignments)
    if assign.shape != (n_units,) or assign.min() < 0 or assign.max() >= model.k:
        return "phase assignments do not map every unit to a phase"
    n = max(min(N_POINTS, n_units), model.k)
    sel = np.asarray(est.selected)
    if int(np.sum(est.allocation)) != n or len(sel) != n:
        return f"allocation {int(np.sum(est.allocation))} / {len(sel)} points != {n}"
    if len(np.unique(sel)) != len(sel) or sel.min() < 0 or sel.max() >= n_units:
        return "selected unit indices not unique and in range"
    sizes = np.bincount(assign, minlength=model.k)
    means = np.zeros(model.k)
    for h in range(model.k):
        chosen = sel[assign[sel] == h]
        if len(chosen) != est.allocation[h]:
            return f"phase {h}: {len(chosen)} points, allocated {est.allocation[h]}"
        if len(chosen):
            means[h] = cpi[chosen].mean()
    recomputed = float(sizes / n_units @ means)
    if not math.isclose(recomputed, est.estimate, rel_tol=1e-9):
        return f"estimate {est.estimate!r} != {recomputed!r} from its points"
    return None


def estimate_error_pct(reqs: list[Request], seed: int) -> float:
    """Mean |stratified estimate - oracle| / oracle, in %, over requests
    and ``ERR_DRAWS`` seeded draws of each request's sample."""
    errs = []
    for i, req in enumerate(reqs):
        cpi = req.job.profile.cpi()
        oracle = req.job.oracle_cpi()
        n = max(min(N_POINTS, len(cpi)), req.model.k)
        for d in range(ERR_DRAWS):
            rng = np.random.default_rng([seed, i, d])
            est = stratified_sample(req.model.assignments, cpi, n, rng=rng, k=req.model.k)
            errs.append(abs(est.estimate - oracle) / oracle)
    return 100.0 * float(np.mean(errs))


# -- traced metrics -------------------------------------------------------------

SELF_LAYERS = {
    "workloads.self_s": "workloads",
    "datagen.self_s": "datagen",
    "hdfs.self_s": "hdfs",
    "spark.self_s": "spark",
    "hadoop.self_s": "hadoop",
    "spark.shuffle.self_s": "spark.shuffle",
    "algos.quicksort.self_s": "algos.quicksort",
    "jvm.emit.self_s": "jvm.emit",
    "jvm.cost.self_s": "jvm.cost",
    "jvm.pack.self_s": "jvm.pack",
    "jvm.stream.consumer_wait_s": "jvm.stream",
    "core.profiler.self_s": "core.profiler",
    "core.features.self_s": "core.features",
    "core.phases.self_s": "core.phases",
    "core.sampling.self_s": "core.sampling",
    "runtime.store.get_s": "runtime.store.get",
    "runtime.store.put_s": "runtime.store.put",
    "runtime.provenance.plan_s": "runtime.provenance.plan",
    "runtime.runner.self_s": "runtime.runner",
}
COUNTERS = {
    "hdfs.blocks": "hdfs.blocks",
    "spark.shuffle.blocks": "spark.shuffle.blocks",
    "algos.quicksort.calls": "algos.quicksort.calls",
    "jvm.segments": "jvm.emit.calls",
    "jvm.stream.batches": "jvm.stream.batches",
    "core.profiler.units": "core.profiler.units",
    "core.phases.kmeans_calls": "core.phases.kmeans_calls",
    "core.sampling.points": "core.sampling.points",
}


def layer_metrics(tracer: Any, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    self_s, counts = tracer.totals()
    out = {m: self_s.get(layer, 0.0) for m, layer in SELF_LAYERS.items()}
    out.update({m: float(counts.get(c, 0.0)) for m, c in COUNTERS.items()})
    out["hdfs.mb"] = counts.get("hdfs.bytes", 0.0) / 1e6
    out["runtime.store.get_mb"] = counts.get("runtime.store.get_bytes", 0.0) / 1e6
    out["runtime.store.put_mb"] = counts.get("runtime.store.put_bytes", 0.0) / 1e6
    gets = counts.get("runtime.store.get.calls", 0.0)
    out["runtime.store.hit_ratio"] = counts.get("runtime.store.hits", 0.0) / gets if gets else 0.0
    segments = out["jvm.segments"]
    priced = self_s.get("jvm.emit", 0.0) + self_s.get("jvm.cost", 0.0)
    out["jvm.ns_per_segment"] = priced / segments * 1e9 if segments else 0.0
    # Span times are wall times per thread, so the streaming producer's
    # spans overlap the consumer's; coverage is judged on the thread
    # that ran the round, whose spans (the stream wait included) nest.
    main_self, _ = tracer.totals(threading.get_ident())
    out["unattributed_s"] = wall - sum(main_self.values())
    out["trace.wall_s"] = wall
    return out


def outcome(reqs: list[Request], args: argparse.Namespace) -> dict[str, Any]:
    """Units, attempts, failed checks and (if asked) est_err_pct of a round."""
    if args.tamper:
        first = reqs[0].estimate
        reqs[0].estimate = replace(first, estimate=first.estimate * 1.01)
    failures = [(r.label, r.config, check(r)) for r in reqs]
    out = {
        "units": sum(r.job.n_units * r.cfg.unit_size / UNIT_INSTRUCTIONS for r in reqs),
        "attempted": len(reqs),
        "failures": [f"{lab} [{cfg}]: {why}" for lab, cfg, why in failures if why],
    }
    if args.est_err:
        out["est_err_pct"] = estimate_error_pct(reqs, args.seed)
    return out


# -- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("prep", "setup", "round"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=SCALE)
    ap.add_argument("--labels", type=lambda s: s.split(","), default=None)
    ap.add_argument("--run-dir", required=True, help="the run's work directory")
    ap.add_argument("--work", required=True, help="this step's own directory")
    ap.add_argument("--out", required=True, help="report JSON path")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--est-err", type=int, default=1)
    ap.add_argument("--tamper", type=int, default=0,
                    help="corrupt the first estimate before the checks")
    args = ap.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args, work)
    report: dict[str, Any] = {}
    if args.mode == "prep":
        PROBE.stop()
        wl.prep()
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
            wl.tracer = tracer
        wl.setup()
        setup_host_s = time.monotonic() - args.spawned
        report["setup_s"] = PROBE.normalise(setup_host_s)
        report["setup_host_s"] = setup_host_s
        if args.mode == "round":
            if tracer is not None:
                # Probe samples would land in the layers' self times.
                PROBE.stop()
                tracer.reset()
            since = PROBE.mark()
            start = time.perf_counter()
            try:
                wl.timed()
                raised = None
            except Exception as exc:  # counted as failed requests, not fatal
                traceback.print_exc()
                raised = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            PROBE.stop()
            report["wall_host_s"] = wall
            if tracer is None:
                report["speed"] = PROBE.speed(since)
                wall = PROBE.normalise(wall, since)
            else:
                tracer.uninstall()
                report["layers"] = layer_metrics(tracer, wall)
                if args.trace_out:
                    tracer.write_chrome_trace(args.trace_out)
            if raised is not None:
                report.update(wall_s=wall, units=0.0, attempted=wl.n_requests,
                              failures=[f"round raised {raised}"] * wl.n_requests)
            else:
                report.update(wall_s=wall, **outcome(wl.requests(), args))
    PROBE.stop()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
