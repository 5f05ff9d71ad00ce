"""``tools/bench_pairs.py``: the summary of paired benchmark runs, read
from canned results, the refusal of a run that is not correct, the exit
status on a metric past its bound, and the bytecode settings of each run."""

import importlib.util
import json
import os
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = [{"name": "slowest_op_s", "unit": "s", "better": "lower", "bound": 0.15},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05}]


def runs(slowest, rss):
    return [{"slowest_op_s": s, "peak_rss_mib": r} for s, r in zip(slowest, rss)]


PARENT = runs([0.030, 0.031, 0.032, 0.033, 0.034, 0.035, 0.036, 0.037, 0.038, 0.039],
              [20.0, 20.1, 20.2, 20.3, 20.4, 20.5, 20.6, 20.7, 20.8, 20.9])
# slowest_op_s: better in 9 pairs, tied in the last; peak_rss_mib: 4 % worse
CHANGE = runs([0.025, 0.026, 0.027, 0.028, 0.029, 0.030, 0.031, 0.032, 0.033, 0.039],
              [r * 1.04 for r in (20.0, 20.1, 20.2, 20.3, 20.4, 20.5, 20.6, 20.7, 20.8, 20.9)])


def test_summary_of_canned_pairs():
    slowest, rss = bench_pairs.summarize(SPEC, PARENT, CHANGE)
    assert slowest["parent"] == pytest.approx((0.03225, 0.0345, 0.03675))
    assert slowest["change"] == pytest.approx((0.02725, 0.0295, 0.03175))
    assert (slowest["wins"], slowest["pairs"]) == (9, 10)
    assert slowest["gap"] == pytest.approx(0.005)
    assert slowest["parent_iqr"] == pytest.approx(0.0045)
    assert slowest["within_bound"] and slowest["claim"]
    assert (rss["wins"], rss["within_bound"], rss["claim"]) == (0, True, False)


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_iqr():
    # 8 wins of 10: the gap alone does not make a claim
    change = runs([s - 0.005 for s in [0.030, 0.031, 0.032, 0.033, 0.034, 0.035,
                                       0.036, 0.037]] + [0.038, 0.040], [20.0] * 10)
    slowest, _ = bench_pairs.summarize(SPEC, PARENT, change)
    assert slowest["wins"] == 8 and not slowest["claim"]
    # 10 wins of 10, but by less than the parent's IQR
    change = runs([r["slowest_op_s"] - 0.001 for r in PARENT], [20.0] * 10)
    slowest, _ = bench_pairs.summarize(SPEC, PARENT, change)
    assert slowest["wins"] == 10 and not slowest["claim"]


def test_a_median_past_the_bound_is_reported():
    change = runs([r["slowest_op_s"] * 1.2 for r in PARENT], [20.0] * 10)
    slowest, _ = bench_pairs.summarize(SPEC, PARENT, change)
    assert not slowest["within_bound"]
    text = bench_pairs.render(bench_pairs.summarize(SPEC, PARENT, change))
    assert "slowest_op_s (s, lower is better, bound 0.15)" in text
    assert "within bound: NO" in text and "change wins 0/10" in text


def test_higher_is_better_metrics_are_mirrored():
    spec = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]
    parent = [{"rate": v} for v in (10, 11, 12, 13)]
    change = [{"rate": v} for v in (20, 21, 22, 23)]
    (rate,) = bench_pairs.summarize(spec, parent, change)
    assert rate["wins"] == 4 and rate["gap"] == pytest.approx(10) and rate["claim"]


@pytest.mark.parametrize("result", [
    {"correct": False, "failed": 1, "metrics": {}},
    {"correct": True, "failed": 2, "metrics": {}},
    {"failed": 0, "metrics": {}},
])
def test_runs_that_are_not_correct_are_refused(result):
    with pytest.raises(bench_pairs.RunRefused, match="not correct"):
        bench_pairs.checked_metrics(result)


def test_correct_runs_give_their_values():
    result = {"correct": True, "failed": 0,
              "metrics": {"run_s": {"value": 0.06, "unit": "s"}}}
    assert bench_pairs.checked_metrics(result) == {"run_s": 0.06}


def test_runs_read_and_write_no_bytecode_in_either_tree(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        cache = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        seen.append({"tree": cwd, "dont_write": env["PYTHONDONTWRITEBYTECODE"],
                     "cache": cache, "empty": cache.is_dir() and not any(cache.iterdir())})
        line = json.dumps({"correct": True, "failed": 0,
                           "metrics": {"run_s": {"value": 0.06, "unit": "s"}}})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for tree in (parent, change):
        assert bench_pairs.run(tree, "kxy_sweep", 1) == {"run_s": 0.06}
    assert [(s["tree"], s["dont_write"], s["empty"]) for s in seen] == \
        [(parent, "1", True), (change, "1", True)]
    assert seen[0]["cache"] != seen[1]["cache"]
    for s in seen:
        # removed afterwards, and never inside either tree
        assert not s["cache"].exists()
        for tree in (parent, change):
            assert os.path.commonpath([s["cache"], tree]) != str(tree)


def test_json_records_the_comparison(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    canned = {parent: iter(PARENT[:4]), change: iter(CHANGE[:4])}
    seeds = []

    def fake_run(tree, workload, seed):
        assert workload == "solve_ladder"
        seeds.append(seed)
        return next(canned[tree])

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "solve_ladder",
                             "--pairs", "4", "--seed-start", "11", "--json", str(out)]) == 0
    assert seeds == [11, 11, 12, 12, 13, 13, 14, 14]
    data = json.loads(out.read_text())
    assert (data["workload"], data["seeds"]) == ("solve_ladder", [11, 12, 13, 14])
    assert set(data["metrics"]) == {"slowest_op_s", "peak_rss_mib"}
    slowest = data["metrics"]["slowest_op_s"]
    assert (slowest["unit"], slowest["better"], slowest["bound"]) == ("s", "lower", 0.15)
    assert slowest["parent"]["values"] == [0.030, 0.031, 0.032, 0.033]
    assert slowest["change"]["values"] == [0.025, 0.026, 0.027, 0.028]
    assert slowest["parent"]["median"] == pytest.approx(0.0315)
    assert (slowest["parent"]["q1"], slowest["parent"]["q3"]) == \
        pytest.approx((0.03075, 0.03225))
    assert slowest["change"]["median"] == pytest.approx(0.0265)
    assert slowest["gain"] == pytest.approx(0.005)
    assert slowest["parent_iqr"] == pytest.approx(0.0015)
    assert (slowest["wins"], slowest["pairs"]) == (4, 4)
    assert slowest["within_bound"] is True and slowest["claimable"] is True
    rss = data["metrics"]["peak_rss_mib"]
    assert (rss["wins"], rss["within_bound"], rss["claimable"]) == (0, True, False)


def test_without_json_no_file_is_written(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    monkeypatch.setattr(bench_pairs, "run", lambda tree, workload, seed: PARENT[0])
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["change", "parent"]


@pytest.mark.parametrize("scale, status", [(1.1, 0), (1.2, 1)])
def test_exit_status_is_1_when_a_metric_is_past_its_bound(tmp_path, monkeypatch, scale, status):
    # slowest_op_s 10 % worse is within its 0.15 bound, 20 % worse is not;
    # the comparison is printed and written either way
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    canned = {parent: iter(PARENT[:4]),
              change: iter(runs([r["slowest_op_s"] * scale for r in PARENT[:4]], [20.0] * 4))}
    monkeypatch.setattr(bench_pairs, "run", lambda tree, workload, seed: next(canned[tree]))
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "4",
                             "--json", str(out)]) == status
    slowest = json.loads(out.read_text())["metrics"]["slowest_op_s"]
    assert slowest["within_bound"] is (status == 0)
