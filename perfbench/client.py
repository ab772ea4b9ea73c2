"""One pass of a workload: a fresh process that runs the task list once.

    python3 perfbench/client.py --workload sweep --seed 0 --mode run

Set-up (interpreter start, `import toricding`, writing the inputs) ends
when the inputs are ready; the task list then runs once, in order, through
`toricding.cli.main(argv)` in this process, with stdout captured.  No task
repeats, because the package's unbounded lru_caches would turn a repeat
into a cache hit.  Tasks may share cached work with earlier tasks of the
same list, as a user's session would.

Modes: `setup` stops when the inputs are ready; `run` runs the tasks;
`trace` runs them with every layer wrapped (see tracing.py).  The last line
of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from toricding import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def probe() -> float:
    """Seconds for a fixed piece of exact rational elimination, unrelated to
    the package: the fastest of three repeats, taken next to each task to
    measure how fast the host runs Python at that moment."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for shift in range(12):
            m = [[Fraction((i + 1) * (j + shift + 2), i + j + 3) + (i == j) for j in range(5)]
                 for i in range(5)]
            for c in range(5):
                for r in range(c + 1, 5):
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        best = min(best, time.perf_counter() - start)
    return best


METER_PERIOD_S = 0.2


class Meter:
    """Probes the host every METER_PERIOD_S while a task runs, from a timer
    signal, so that a long task is rescaled by the host's speed during it
    and not only at its ends.  The probes' own time is kept in `spent`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, METER_PERIOD_S, METER_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_tasks(tasks, input_dir: Path, tracer=None, meter: Meter | None = None,
              first_probe: float | None = None):
    """Run the tasks in order.  Returns [(exit code, stdout)], the seconds
    each task took, and per task the probe() times taken just before it,
    while it ran (with a meter) and just after it."""
    results, times, probes = [], [], []
    before = probe() if first_probe is None else first_probe
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
        out, err = io.StringIO(), io.StringIO()
        seen, spent = (len(meter.samples), meter.spent) if meter else (0, 0.0)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if meter:
                meter.start()
            try:
                rc = cli.main(workloads.resolve(task.argv, input_dir))
            finally:
                if meter:
                    meter.stop()
            elapsed = time.perf_counter() - start
        during = meter.samples[seen:] if meter else []
        times.append(elapsed - (meter.spent - spent if meter else 0.0))
        after = probe()
        probes.append([before] + during + [after])
        before = after
        results.append((rc, out.getvalue()))
    return results, times, probes


def _lookup(stats: dict, name: str, key: str) -> float:
    return stats.get(name, {}).get(key, 0)


def layer_metrics(tracer: tracing.Tracer, task_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    stats = tracing.aggregate(tracer.spans)
    m: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        own = [st for name, st in stats.items() if name.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = (sum(st["self_s"] for st in own), "s")
        m[f"{layer}.calls"] = (sum(st["calls"] for st in own), "count")

    def add(name: str, key: str, unit: str) -> None:
        m[f"{name}.{key}"] = (_lookup(stats, name, key), unit)

    def cache(name: str, key: str, field: str) -> None:
        info = tracer.cache_info(name)
        m[f"{name}.{key}"] = (getattr(info, field) if info else 0, "count")

    for key, unit in (("self_s", "s"), ("calls", "count"), ("raised", "count")):
        add("geometry.vertices", key, unit)
    cache("geometry.vertices", "misses", "misses")
    cache("geometry.vertices", "cache_size", "currsize")
    add("geometry.triangulate", "self_s", "s")
    cache("geometry.triangulate", "misses", "misses")
    cache("geometry.triangulate", "cache_size", "currsize")
    add("geometry.volume", "self_s", "s")
    add("geometry.barycenter", "self_s", "s")
    add("geometry.HPolytope.clip", "calls", "count")
    add("geometry.region_subdivision", "self_s", "s")
    offered = _lookup(stats, "geometry.region_subdivision", "offered")
    m["geometry.region_subdivision.kept_ratio"] = (
        _lookup(stats, "geometry.region_subdivision", "kept") / offered if offered else 0, "ratio")
    add("geometry.integrate_quadratic", "self_s", "s")
    add("geometry.integrate_quadratic", "calls", "count")
    add("extremal.extremal_affine", "self_s", "s")
    add("functionals.dh_measure", "incl_s", "s")
    add("functionals.dh_measure", "calls", "count")
    add("functionals.dh_measure", "pieces", "count")
    add("functionals.inner_product", "incl_s", "s")
    add("twisting.reduce_jna", "incl_s", "s")
    add("twisting.reduce_jna", "calls", "count")
    add("lp.solve_lp", "self_s", "s")
    add("lp.solve_lp", "calls", "count")
    add("normalcone.verify_family", "incl_s", "s")
    add("normalcone.verdict", "incl_s", "s")
    add("lattice.jump_weights", "self_s", "s")
    add("lattice.jump_weights", "points", "count")
    points = _lookup(stats, "lattice.jump_weights", "points")
    m["lattice.jump_weights.us_per_point"] = (
        1e6 * _lookup(stats, "lattice.jump_weights", "self_s") / points if points else 0, "us")
    add("lattice.weight_measure", "self_s", "s")
    add("lattice.gabor_inner", "self_s", "s")
    m["trace.task_s"] = (task_s, "s")
    m["trace.self_sum_s"] = (sum(st["self_s"] for st in stats.values()), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True, help="directory for the generated inputs")
    parser.add_argument("--spans-out", help="trace mode: write the spans here as JSON lines")
    args = parser.parse_args(argv)

    input_dir = Path(args.workdir)
    files, tasks = workloads.build_inputs(args.workload, args.seed)
    workloads.write_inputs(files, input_dir)
    result = {"ready": time.time()}
    result["ready_probe"] = probe()
    if args.mode != "setup":
        tracer = meter = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        else:
            meter = Meter()
        outputs, times, probes = run_tasks(tasks, input_dir, tracer, meter,
                                           result["ready_probe"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = checks.load_reference() if checks.REFERENCE_PATH.exists() else {}
        problems = checks.check_tasks(
            tasks, outputs, checks.reference_for(reference, args.workload, args.seed))
        result.update(
            tasks=len(tasks),
            times=times,
            probes=probes,
            digests={t.id: [rc, checks.digest(out)] for t, (rc, out) in zip(tasks, outputs)},
            failed={tid: p for tid, p in problems.items() if p},
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer, sum(times))
            if args.spans_out:
                tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
