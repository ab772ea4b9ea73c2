"""toricding benchmark: run one workload for a fixed time, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  One client at a time, closed loop: the
run spawns a fresh process per pass (perfbench/client.py), each running the
workload's task list once, and starts the next pass only after the last
has ended, while the next one still fits in --seconds.  Set-up is also
measured in extra processes that stop once their inputs are ready.

With --trace 0 the metrics are the end-to-end ones, with times rescaled to
a reference host speed; with --trace 1 traced and untraced passes
alternate and the metrics are the per-layer ones from the traced passes
(see README.md).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLIENT = HERE / "client.py"
SETUPS_PER_PASS = 3  # set-up-only processes before each pass
PASS_TIMEOUT_S = 150
# client.probe() seconds on an unloaded 2.0 GHz Xeon vCPU.  The host this
# benchmark was tuned on ran Python up to twice as slowly for minutes at a
# time; times are rescaled to this speed by the probes taken next to them
# (see README.md).
PROBE_REF_S = 0.003

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def check_corpus() -> list[str]:
    """Each corpus polytope against its known anticanonical degree."""
    sys.path.insert(0, str(ROOT / "src"))
    from toricding import io as tio
    from toricding import validate_fano

    problems = []
    for name, (doc, degree) in workloads.CORPUS.items():
        got = validate_fano(tio.polytope_from_dict(doc)).anticanonical_degree()
        if got != degree:
            problems.append(f"{name}: anticanonical degree {got}, expected {degree}")
    return problems


def spawn(workload: str, seed: int, mode: str, workdir: Path, spans_out: Path | None = None):
    """One client process; returns its result and its set-up seconds at
    reference speed."""
    cmd = [sys.executable, str(CLIENT), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--workdir", str(workdir)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"client {mode} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, at_reference_speed(result["ready"] - start, result["ready_probe"])


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A time rescaled to a host on which client.probe() takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / probe_s


def task_list_s(passes: list[dict]) -> float:
    """Seconds for the task list at reference speed: each task's time,
    rescaled by the mean of the probes taken around and during it, median
    over the passes, summed over the tasks."""
    columns = zip(*([at_reference_speed(t, statistics.fmean(p))
                     for t, p in zip(r["times"], r["probes"])] for r in passes))
    return sum(statistics.median(c) for c in columns)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toricding" / "__init__.py").is_file():
        sys.stderr.write(f"no toricding sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    problems = check_corpus()
    scratch = ROOT / ".perfbench_run"
    workdir = scratch / f"{args.workload}-{args.seed}"
    scratch.mkdir(exist_ok=True)
    setups: list[float] = []
    passes: dict[str, list[dict]] = {"run": [], "trace": []}
    durations: list[float] = []
    begin = time.perf_counter()
    try:
        while True:
            started = time.perf_counter()
            for _ in range(SETUPS_PER_PASS):
                setups.append(spawn(args.workload, args.seed, "setup", workdir)[1])
            mode = "run"
            if args.trace and len(passes["trace"]) <= len(passes["run"]):
                mode = "trace"
            spans_out = scratch / f"spans-{args.workload}.jsonl" if mode == "trace" else None
            passes[mode].append(spawn(args.workload, args.seed, mode, workdir, spans_out)[0])
            durations.append(time.perf_counter() - started)
            enough = passes["run"] and (passes["trace"] or not args.trace)
            elapsed = time.perf_counter() - begin
            if enough and elapsed + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # raw pass data, for looking into a run afterwards
    (scratch / f"passes-{args.workload}-{args.seed}.json").write_text(json.dumps(
        {"setups": setups, "passes": passes}))
    every = passes["run"] + passes["trace"]
    attempted = sum(r["tasks"] for r in every)
    failed = sum(len(r["failed"]) for r in every)
    for r in every:
        for task_id, found in r["failed"].items():
            problems.append(f"{task_id}: {'; '.join(found)}")
    untraced_s = task_list_s(passes["run"])
    if args.trace:
        traced = passes["trace"]
        metrics = {}
        for name, (value, unit) in traced[0]["layers"].items():
            values = [r["layers"][name][0] for r in traced]
            if unit == "count" and len(set(values)) > 1:
                problems.append(f"work counter {name} differs between passes: {values}")
            value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead"] = {"value": task_list_s(traced) / untraced_s,
                                     "unit": "ratio"}
        metrics["trace.probe_s"] = {
            "value": statistics.median(p for r in traced for ps in r["probes"] for p in ps),
            "unit": "s"}
    else:
        metrics = {
            "tasks_per_s": {"value": passes["run"][0]["tasks"] / untraced_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in every),
                            "unit": "MB"},
        }
    for line in problems:
        sys.stderr.write(f"FAILED {line}\n")
    wall = statistics.median(r["tasks"] / sum(r["times"]) for r in passes["run"])
    probe = statistics.median(p for r in every for ps in r["probes"] for p in ps)
    sys.stderr.write(f"{args.workload}: {len(passes['run'])} untraced and "
                     f"{len(passes['trace'])} traced passes, {len(setups)} set-ups; "
                     f"wall-clock {wall:.3f} tasks/s with probe at {1e3 * probe:.2f} ms\n")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
