"""Self-test of the benchmark, at a tiny input size (about two minutes).

Run from the repository root::

    python3 perfbench/selftest.py

Checks, for every workload, that ``run.py`` ends with one JSON result
carrying every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) named in ``BENCHMARK.json``, each with its unit;
that a deliberately corrupted estimate is counted as a failed request
instead of passing; that warm-retune generates no trace segments and
no input; and that the benchmark refuses to run, without a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "cold-suite": ["--labels", "grep_sp,sort_hp"],
    "warm-retune": ["--labels", "grep_sp,sort_hp"],
    "stream-profile": ["--labels", "grep_hp,grep_sp"],
}
SIMULATOR = ("datagen.", "hdfs.", "spark.", "hadoop.", "algos.", "jvm.")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", *TINY[workload], *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and cwd == ROOT:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return proc.returncode, result


def check_metrics(workload: str, trace: int, result: dict | None) -> dict:
    where = f"{workload} --trace {trace}"
    expect(result is not None, f"{where}: last line is a JSON result")
    if result is None:
        return {}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{where}: result has exactly correct/attempted/failed/metrics")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, f"{where}: outputs pass every check")
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = result["metrics"]
    expect(set(got) == set(want), f"{where}: exactly the {len(want)} named metrics")
    expect(all(got.get(n, {}).get("unit") == u for n, u in want.items()),
           f"{where}: every metric carries its unit")
    expect(all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
               for v in got.values()), f"{where}: every value is a finite number")
    return {n: v["value"] for n, v in got.items()}


def main() -> int:
    for workload in TINY:
        for trace in (0, 1):
            code, result = bench(workload, "--trace", str(trace))
            expect(code == 0, f"{workload} --trace {trace}: exit code 0")
            values = check_metrics(workload, trace, result)
            if trace and values:
                selfs = {k: v for k, v in values.items() if k.endswith("self_s")}
                sim = sum(v for k, v in selfs.items() if k.startswith(SIMULATOR))
                if workload == "warm-retune":
                    expect(values["jvm.segments"] == 0 and values["datagen.self_s"] == 0,
                           "warm-retune: no segments emitted and no input generated")
                if workload == "cold-suite":
                    expect(sim > sum(selfs.values()) / 2,
                           "cold-suite: simulator layers carry most of the self time")
                if workload == "stream-profile":
                    expect(values["jvm.stream.batches"] > 0,
                           "stream-profile: batches crossed the stream queue")

    code, result = bench("cold-suite", "--trace", "0", "--tamper", "1")
    expect(code == 0 and result is not None and result["failed"] >= 1
           and result["correct"] is False,
           "a tampered estimate is counted as a failed request")

    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        code, result = bench("cold-suite", cwd=bare)
        expect(code != 0 and result is None,
               "without the sources it exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
