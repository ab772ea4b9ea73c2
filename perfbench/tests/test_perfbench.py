"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import client  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, START  # noqa: E402


def _span(name, parent, start, end):
    return (name, "t", parent, start, end, False, None)


def test_self_time_of_nested_and_recursive_spans():
    spans = [
        _span("a.outer", -1, 0.0, 10.0),
        _span("a.rec", 0, 1.0, 7.0),
        _span("a.rec", 1, 2.0, 5.0),
        _span("b.leaf", 2, 3.0, 4.0),
        _span("b.leaf", 0, 8.0, 9.0),
    ]
    stats = tracing.aggregate(spans)
    assert stats["a.outer"]["self_s"] == 3.0  # 10 - 6 - 1
    assert stats["a.rec"]["self_s"] == 5.0  # (6 - 3) + (3 - 1)
    assert stats["b.leaf"]["self_s"] == 2.0
    assert stats["a.rec"]["incl_s"] == 6.0  # outermost recursion level only
    assert stats["a.rec"]["calls"] == 2
    assert sum(s["self_s"] for s in stats.values()) == tracing.top_level_s(spans)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_live_recursion_is_traced_through_the_rebound_name():
    mod = types.ModuleType("fake_layer")
    exec(
        "import time\n"
        "def rec(n, busy):\n"
        "    busy(0.002)\n"
        "    return 0 if n == 0 else 1 + rec(n - 1, busy)\n"
        "class Box:\n"
        "    def grow(self, n, busy):\n"
        "        return rec(n, busy)\n",
        mod.__dict__,
    )
    alias = types.ModuleType("fake_user")
    alias.rec_alias = mod.rec
    tracer = tracing.Tracer()
    tracer.install({"fake": mod}, (alias,))
    try:
        assert alias.rec_alias is mod.rec is not tracer.originals["fake.rec"]
        assert mod.Box().grow(3, _busy) == 3
    finally:
        tracer.uninstall()
    assert alias.rec_alias is tracer.originals["fake.rec"]
    stats = tracing.aggregate(tracer.spans)
    assert stats["fake.rec"]["calls"] == 4
    assert stats["fake.Box.grow"]["calls"] == 1
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1, 2, 3]
    total = tracing.top_level_s(tracer.spans)
    assert abs(sum(s["self_s"] for s in stats.values()) - total) < 1e-9
    # each level busies itself for 2 ms; self time excludes the levels below
    assert stats["fake.rec"]["self_s"] >= 4 * 0.002
    assert stats["fake.rec"]["incl_s"] == pytest.approx(
        tracer.spans[1][END] - tracer.spans[1][START])


def test_every_alias_of_a_wrapped_function_is_rebound():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("toricding.cli")
        functionals = importlib.import_module("toricding.functionals")
        assert cli.verify_family is not tracer.originals["normalcone.verify_family"]
        assert functionals.vertices is not tracer.originals["geometry.vertices"]
        assert (functionals._region_subdivision
                is not tracer.originals["geometry.region_subdivision"])
        originals = {id(fn) for fn in tracer.originals.values()}
        left = [f"{name}.{attr}" for name, mod in sys.modules.items()
                if name == "toricding" or name.startswith("toricding.")
                for attr, obj in vars(mod).items() if id(obj) in originals]
        assert left == []
    finally:
        tracer.uninstall()
    assert cli.verify_family is tracer.originals["normalcone.verify_family"]
    assert all(n.split(".")[0] in tracing.LAYERS for n in tracer.originals)


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("toricding."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def _small_task_list():
    files, tasks = {}, []
    for workload, keep in (("sweep", ("p1", "p2")), ("oracle", ("p1", "bl1p2")),
                           ("tcmix", ("p2", "bl1p2", "p1xp1"))):
        f, t = workloads.build_inputs(workload, 0)
        files.update(f)
        tasks += [task for task in t if task.polytope in keep]
    return files, tasks


def test_traced_outputs_are_byte_identical_to_untraced(tmp_path):
    files, tasks = _small_task_list()
    workloads.write_inputs(files, tmp_path)
    _clear_caches()
    plain, _, _ = client.run_tasks(tasks, tmp_path, meter=client.Meter())
    _clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, _ = client.run_tasks(tasks, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {s[NAME] for s in tracer.spans if s[PARENT] < 0} == {"cli.main"}
    assert {s[1] for s in tracer.spans} == {t.id for t in tasks}


def test_work_counters_repeat_exactly(tmp_path):
    files, tasks = _small_task_list()
    workloads.write_inputs(files, tmp_path)
    counts = []
    for _ in range(2):
        _clear_caches()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, times, _ = client.run_tasks(tasks, tmp_path, tracer)
        finally:
            tracer.uninstall()
        m = client.layer_metrics(tracer, sum(times))
        counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lattice.jump_weights.points"] > 0
    assert counts[0]["lp.solve_lp.calls"] > 0


def test_inputs_are_deterministic_per_seed():
    assert workloads.build_inputs("tcmix", 3) == workloads.build_inputs("tcmix", 3)
    assert workloads.build_inputs("tcmix", 3) != workloads.build_inputs("tcmix", 4)
    for workload in ("sweep", "oracle"):
        assert workloads.build_inputs(workload, 3) == workloads.build_inputs(workload, 4)


def test_tcmix_piece_counts():
    files, _ = workloads.build_inputs("tcmix", 7)
    counts = [len(doc["affines"]) for rel, doc in sorted(files.items()) if rel.startswith("tc/")]
    assert counts == [p for _, p in workloads.TCMIX_PLAN]
    assert min(counts) >= 2 and max(counts) <= 12


def test_corpus_matches_known_degrees_and_bundled_files():
    from toricding import io as tio

    assert run.check_corpus() == []
    for name in ("p1", "p2", "bl1p2", "p1xp1", "stretched"):
        bundled = tio.load_polytope(str(ROOT / "polytopes" / f"{name}.json"))
        assert tio.polytope_from_dict(workloads.CORPUS[name][0]) == bundled


def _tc_eval_output():
    return {
        "e_na": {"exact": "-1/4"},
        "j_na": {"exact": "1/4"},
        "dh": {"atoms": [{"location": "0", "mass": "1/2"}],
               "pieces": [{"interval": ["-1", "0"], "coeffs": ["1/2"]}]},
    }


def test_dh_identities_hold_and_catch_a_wrong_mean():
    good = _tc_eval_output()
    red = {"j_na": {"exact": "1/4"}, "j_t_na": {"exact": "1/8"}}
    assert checks.dh_identities(good, red) == []
    bad = json.loads(json.dumps(good))
    bad["e_na"]["exact"] = "-1/3"
    assert any("DH mean" in p for p in checks.dh_identities(bad, red))
    red["j_t_na"]["exact"] = "1/2"
    assert any("outside" in p for p in checks.dh_identities(good, red))


def test_normal_cone_exit_code_2_fails_and_digests_are_compared():
    task = workloads.Task("normal-cone:p2", ("normal-cone",), "normal-cone", "p2")
    found = checks.check_tasks([task], [(2, "")], {"normal-cone:p2": [2, checks.digest("")]})
    assert found["normal-cone:p2"] == ["verify_family reported a closed-form mismatch"]
    found = checks.check_tasks([task], [(0, "{}")], {"normal-cone:p2": [0, "x"]})
    assert "differ from the reference" in found["normal-cone:p2"][0]
