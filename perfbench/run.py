"""SimProf end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 10 --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``)
for at least ``--seconds`` seconds of timed rounds, checks every output
and prints the metrics, one per line with its unit, then one JSON
object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs traced rounds next to untraced
ones and reports the per-layer metrics instead.

Each step (the once-per-run preparation, every round, extra set-up
samples) runs in its own interpreter started from ``worker.py``, with
``SIMPROF_CACHE_DIR`` and every store inside this run's own work
directory under ``perfbench/.work``, which is removed at the end.  The
Chrome trace of the last traced round is kept in ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
NEEDS_PREP = {"warm-retune", "stream-profile"}
# Untraced rounds per run, at least, unless START_BY_S cuts a run short:
# short rounds are timed several times, so that a median damps what the
# host-speed probe misses.
# stream-profile's rounds also vary with the producer/consumer
# hand-overs, so it takes more of them.
MIN_ROUNDS = {"cold-suite": 1, "warm-retune": 3, "stream-profile": 11}
SETUP_SAMPLES = 5  # set-up samples per run, at least
DEADLINE_S = 170.0  # a stuck step is killed so that the run ends by then
# No new round starts after this much run time, even short of
# MIN_ROUNDS, so that a run on a slow host stays near a minute.
START_BY_S = 60.0


class StepFailed(RuntimeError):
    pass


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env(root: Path, run_dir: Path) -> dict[str, str]:
    """The program's environment: serial, single-threaded maths, and
    every store inside the run directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMPROF_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        SIMPROF_CACHE_DIR=str(run_dir / "default-store"),
        SIMPROF_JOBS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Run:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.root = root
        self.run_dir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = child_env(root, self.run_dir)
        self.steps = 0
        self.begun = time.monotonic()

    def step(self, mode: str, **opts: object) -> dict:
        """Run one worker step in a fresh interpreter; return its report."""
        self.steps += 1
        work = self.run_dir / f"{self.steps:03d}-{mode}"
        out = self.run_dir / f"{self.steps:03d}-{mode}.json"
        cmd = [
            sys.executable, str(WORKER), mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--run-dir", str(self.run_dir),
            "--work", str(work),
            "--out", str(out),
        ]
        if self.args.scale is not None:
            cmd += ["--scale", str(self.args.scale)]
        if self.args.labels:
            cmd += ["--labels", self.args.labels]
        for key, value in opts.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        cmd += ["--spawned", repr(time.monotonic())]
        started = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
            timeout=max(1.0, DEADLINE_S - (started - self.begun)),
        )
        elapsed = time.monotonic() - started
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0 or not out.exists():
            raise StepFailed(
                f"{mode} step exited {proc.returncode}:\n{proc.stdout[-4000:]}"
            )
        report = json.loads(out.read_text())
        report["elapsed_s"] = elapsed
        return report


def measure(run: Run, args: argparse.Namespace) -> dict:
    """Prep, then timed rounds until ``--seconds`` of timed work and, for
    the end-to-end metrics, ``MIN_ROUNDS`` untraced rounds, or until
    ``START_BY_S`` of run time; then enough set-up-only steps for
    ``SETUP_SAMPLES`` set-up samples."""
    prep_s = run.step("prep")["elapsed_s"] if args.workload in NEEDS_PREP else 0.0
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    trace_out = HERE / "out" / f"{args.workload}.trace.json"
    if args.trace:
        trace_out.parent.mkdir(exist_ok=True)
    timed = 0.0
    while True:
        need_traced = args.trace and len(traced) < len(plain)
        opts: dict[str, object] = {"tamper": int(args.tamper and not plain)}
        # Every round of a run has the same inputs, so one untraced round
        # computes est_err_pct for the run.
        opts["est_err"] = int(not plain and not need_traced)
        if need_traced:
            opts.update(trace=1, trace_out=trace_out, est_err=0)
        report = run.step("round", **opts)
        attempted += report["attempted"]
        failed += len(report["failures"])
        failures += report["failures"]
        (traced if need_traced else plain).append(report)
        timed += report["wall_host_s"]
        elapsed = time.monotonic() - run.begun
        balanced = not args.trace or len(traced) == len(plain)
        covered = args.trace or len(plain) >= MIN_ROUNDS[args.workload]
        if balanced and ((covered and timed >= args.seconds) or elapsed >= START_BY_S):
            break
    steps = plain + traced
    while len(steps) < SETUP_SAMPLES:
        steps.append(run.step("setup"))
    setups = [r["setup_s"] for r in steps]
    setup_hosts = [r["setup_host_s"] for r in steps]

    walls = [r["wall_s"] for r in plain]
    host_walls = [r["wall_host_s"] for r in plain]
    metrics = {
        # Reference seconds: host seconds at the reference host's speed,
        # as sampled during each round (hostspeed.py).
        "norm_wall_s": statistics.median(walls),
        "norm_units_per_s": statistics.median(r["units"] / r["wall_s"] for r in plain),
        # The once-per-run prep is a single, workload-sized sample (the
        # template store's trace generation, the batch reference), so it
        # is printed on its own line and kept out of setup_s.
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        # Absent when the first round raised; NaN then fails `correct`.
        "est_err_pct": plain[0].get("est_err_pct", math.nan),
    }
    layers = {}
    if args.trace:
        names = traced[0]["layers"]
        layers = {m: statistics.median(r["layers"][m] for r in traced) for m in names}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(host_walls)
    host = {
        "wall_s": statistics.median(host_walls),
        "units_per_s": statistics.median(r["units"] / r["wall_host_s"] for r in plain),
        "setup_s": statistics.median(setup_hosts),
        "speed": statistics.median(r["speed"] for r in plain),
    }
    return {
        "metrics": metrics,
        "host": host,
        "layers": layers,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "walls": walls,
        "prep_s": prep_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="SimProf end-to-end benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("cold-suite", "warm-retune", "stream-profile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the self-test: smaller inputs and a deliberately corrupted output.
    ap.add_argument("--scale", type=float, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--labels", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--tamper", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no SimProf sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        run.run_dir.mkdir(parents=True)
        res = measure(run, args)
    except (StepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)

    m = res["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  rounds {res['rounds']}"
          f" (+{res['traced_rounds']} traced)  round walls "
          + " ".join(f"{w:.3f}" for w in res["walls"]) + " reference s")
    e2e_units = metric_units("end_to_end")
    for name, unit in e2e_units.items():
        print(f"  {name:<16} {m[name]:14.6f} {unit}")
    fail_frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'fail_frac':<12} {fail_frac:14.6f} ratio "
          f"({res['failed']} of {res['attempted']} requests)")
    print(f"  {'prep_s':<12} {res['prep_s']:14.6f} s (once per run; not in setup_s)")
    host = res["host"]
    print(f"  host seconds, not normalised: wall_s {host['wall_s']:.6f} s, units_per_s "
          f"{host['units_per_s']:.6f} 1/s, setup_s {host['setup_s']:.6f} s; host speed "
          f"{host['speed']:.4f} of the reference host's")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    if args.trace:
        units = metric_units("per_layer")
        for name in units:
            print(f"  {name:<28} {res['layers'][name]:16.6f} {units[name]}")
        metrics = {n: {"value": res["layers"][n], "unit": u} for n, u in units.items()}
    else:
        metrics = {n: {"value": m[n], "unit": u} for n, u in e2e_units.items()}
    bad = [n for n, v in metrics.items() if not math.isfinite(v["value"])]
    print(json.dumps({
        "correct": res["failed"] == 0 and not bad,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
