"""scripts/bench_pairs.py's summary on synthetic runs: quartiles, pairs won
and the acceptance rule (gain_shown, within_bound); and its traffic lines,
taken once per checkout."""

import importlib.util
import json
import sys

from conftest import REPO

spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "tasks_per_s", "better": "higher", "bound": 0.15},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def runs(parent, change, setup_parent, setup_change, workload="sweep"):
    """One untraced run per side and pair, with the given metric values."""
    out = []
    for side, speeds, setups in (("parent", parent, setup_parent),
                                 ("change", change, setup_change)):
        for pair, (speed, setup) in enumerate(zip(speeds, setups)):
            out.append({"workload": workload, "seed": 0, "side": side, "pair": pair,
                        "trace": 0, "result": {
                            "correct": True, "failed": 0, "attempted": 100,
                            "metrics": {"tasks_per_s": {"value": speed},
                                        "setup_s": {"value": setup}}}})
    return out


def entries(doc_runs):
    return {e["metric"]: e for e in bench_pairs.summarize(doc_runs, END_TO_END)}


def test_clear_gain_is_shown():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [110, 111, 109, 110, 112, 108, 110, 111, 109, 95]  # the last pair lost
    e = entries(runs(parent, change, [0.1] * 10, [0.1] * 10))
    speed = e["tasks_per_s"]
    assert (speed["pairs"], speed["change_wins"]) == (10, 9)
    assert speed["parent"]["median"] == 100 and speed["change"]["median"] == 110
    assert speed["gain_shown"] and speed["within_bound"]
    # equal setup times: no pair won, no gain, well inside the bound
    assert (e["setup_s"]["change_wins"], e["setup_s"]["gain_shown"]) == (0, False)
    assert e["setup_s"]["within_bound"]
    assert bench_pairs.verdict_line(speed) == (
        "sweep seed 0 tasks_per_s: parent 100 change 110 (+10.0%), change wins 9/10, "
        "gain_shown True, within_bound True")


def test_eight_wins_or_a_gain_inside_the_iqr_show_no_gain():
    parent = [100.0] * 10
    change = [101.0] * 8 + [99.0] * 2
    assert not entries(runs(parent, change, [0.1] * 10, [0.1] * 10))["tasks_per_s"]["gain_shown"]
    # every pair won, but by less than the parent's interquartile range
    parent = [90, 110, 90, 110, 90, 110, 90, 110, 90, 110]
    change = [p + 1 for p in parent]
    e = entries(runs(parent, change, [0.1] * 10, [0.1] * 10))["tasks_per_s"]
    assert e["change_wins"] == 10 and not e["gain_shown"]


def test_bound_on_either_side():
    parent, setups = [100] * 10, [0.10] * 10
    e = entries(runs(parent, [86] * 10, setups, [0.124] * 10))
    assert e["tasks_per_s"]["within_bound"] and e["setup_s"]["within_bound"]
    e = entries(runs(parent, [84] * 10, setups, [0.126] * 10))
    assert not e["tasks_per_s"]["within_bound"] and not e["setup_s"]["within_bound"]


def fake_checkout(root, speed):
    """A checkout whose perfbench/run.py prints one result line of the given
    speed and whose scripts/traffic.py prints two lines, adding a mark to
    runs.log on each run."""
    result = {"correct": True, "failed": 0, "attempted": 10,
              "metrics": {"tasks_per_s": {"value": speed}}}
    for path, text in (("perfbench/run.py", f"print({json.dumps(result)!r})\n"),
                       ("scripts/traffic.py", "open('runs.log', 'a').write('x')\n"
                                              f"print('golden 84 {root.name} 174 1090')\n"
                                              "print('sweep:0 20 h 96 581')\n"),
                       ("BENCHMARK.json", json.dumps({"end_to_end": END_TO_END[:1]}))):
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)
    return root


def test_traffic_runs_once_in_each_checkout(tmp_path, monkeypatch):
    parent, change = fake_checkout(tmp_path / "parent", 100), fake_checkout(tmp_path / "change", 90)
    out = tmp_path / "BENCH.json"
    for workload in ("sweep", "tcmix"):  # two invocations build one file
        monkeypatch.setattr(sys, "argv", [
            "bench_pairs.py", "--parent", str(parent), "--change", str(change),
            "--workload", workload, "--pairs", "1", "--out", str(out)])
        bench_pairs.main()
    doc = json.loads(out.read_text())
    assert doc["traffic"] == [{"side": side, "line": line}
                              for side in ("parent", "change")
                              for line in (f"golden 84 {side} 174 1090", "sweep:0 20 h 96 581")]
    assert (parent / "runs.log").read_text() == (change / "runs.log").read_text() == "x"
    assert [(r["workload"], r["side"]) for r in doc["runs"]] == [
        ("sweep", "parent"), ("sweep", "change"), ("tcmix", "parent"), ("tcmix", "change")]
    assert [e["change_wins"] for e in doc["summary"]] == [0, 0]
