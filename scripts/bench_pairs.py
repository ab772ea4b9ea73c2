#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs; keep every result line.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload tcmix --seed 0 --pairs 10 --out BENCH.json

Each pair runs `perfbench/run.py` once in each checkout, one after the
other: even pairs run the parent first, odd pairs the change.  Every
result line is appended to the "runs" list of --out with its workload,
seed, side, pair and order, so several invocations build one file;
pairs are numbered on from the last one of the same workload and seed.
With --trace 1 the result lines hold the per-layer metrics.  Before the
first pair, `scripts/traffic.py` runs once in each checkout that has no
lines in the "traffic" list of --out yet, and each line it prints (per set
of tasks: its hash, kernel records, Fraction equality and hash calls and
Fraction constructions) is kept there with its side.  At the end
the "summary" of --out is recomputed from all untraced runs: per
workload, seed and end-to-end metric of BENCHMARK.json, the quartiles of
each side and the number of pairs the change wins.  Beside each side's
quartiles stand its runs whose result was not correct and its summed
failed and attempted task counts.  Each entry also applies the acceptance
rule: "gain_shown" when the change wins at least 9 of 10 pairs and its
median beats the parent's by more than the parent's interquartile range,
"within_bound" when its median is no worse than the parent's by more than
the metric's bound in BENCHMARK.json.  One line per entry is printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

def run_once(checkout: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traffic_lines(checkout: Path) -> list[str]:
    proc = subprocess.run([sys.executable, "scripts/traffic.py"], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def summarize(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """The summary entries of the untraced runs, per workload, seed and metric
    of end_to_end (BENCHMARK.json's list of {"name", "better", "bound"})."""
    out = []
    for key in sorted({(r["workload"], r["seed"]) for r in runs if not r["trace"]}):
        group = [r for r in runs if (r["workload"], r["seed"]) == key and not r["trace"]]
        outcome = {}
        for side in ("parent", "change"):
            results = [r["result"] for r in group if r["side"] == side]
            outcome[side] = {"incorrect_runs": sum(not x["correct"] for x in results),
                             "failed": sum(x["failed"] for x in results),
                             "attempted": sum(x["attempted"] for x in results)}
        for spec in end_to_end:
            metric, better = spec["name"], spec["better"]
            value = {(r["side"], r["pair"]): r["result"]["metrics"][metric]["value"] for r in group}
            sides = {side: sorted(v for (s, _), v in value.items() if s == side)
                     for side in ("parent", "change")}
            pairs = [p for s, p in value if s == "change" and ("parent", p) in value]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (value["change", p] - value["parent", p]) > 0 for p in pairs)
            entry = {"workload": key[0], "seed": key[1], "metric": metric, "better": better,
                     "pairs": len(pairs), "change_wins": wins}
            for side, vals in sides.items():
                if not vals:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                entry[side] = {"median": med, "q1": q1, "q3": q3, **outcome[side]}
            if "parent" in entry and "change" in entry:
                base = entry["parent"]
                diff = sign * (entry["change"]["median"] - base["median"])
                entry["gain_shown"] = (wins >= 0.9 * len(pairs) > 0
                                       and diff > base["q3"] - base["q1"])
                entry["within_bound"] = diff >= -spec["bound"] * abs(base["median"])
            out.append(entry)
    return out


def verdict_line(entry: dict) -> str:
    """One summary entry as a line: the medians, the pairs won and the rule's two answers."""
    head = f'{entry["workload"]} seed {entry["seed"]} {entry["metric"]}'
    if "gain_shown" not in entry:
        return f"{head}: runs of one side only"
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    change_pct = f" ({100 * (change - parent) / parent:+.1f}%)" if parent else ""
    return (f'{head}: parent {parent:.4g} change {change:.4g}{change_pct}, '
            f'change wins {entry["change_wins"]}/{entry["pairs"]}, '
            f'gain_shown {entry["gain_shown"]}, within_bound {entry["within_bound"]}')


def dump(doc: dict) -> str:
    """The document with one run or summary entry per line."""
    parts = [f' "{key}": [\n  ' + ",\n  ".join(json.dumps(x) for x in items) + "\n ]"
             for key, items in doc.items()]
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    traffic = doc.setdefault("traffic", [])
    for side in ("parent", "change"):
        if not any(t["side"] == side for t in traffic):
            traffic += [{"side": side, "line": line} for line in traffic_lines(getattr(args, side))]
    this = (args.workload, args.seed, args.trace)
    start = 1 + max((r["pair"] for r in doc["runs"]
                     if (r["workload"], r["seed"], r["trace"]) == this), default=-1)
    for pair in range(start, start + args.pairs):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for order, side in enumerate(sides):
            result = run_once(getattr(args, side), args)
            doc["runs"].append({"workload": args.workload, "seed": args.seed, "side": side,
                                "pair": pair, "order": order, "trace": args.trace,
                                "seconds": args.seconds, "result": result})
            args.out.write_text(dump(doc))
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
    args.out.write_text(dump(doc))
    for entry in doc["summary"]:
        print(verdict_line(entry))


if __name__ == "__main__":
    main()
