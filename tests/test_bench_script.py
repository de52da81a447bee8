"""scripts/bench.py summarises parent/change pairs of perfbench runs. Its
summary is checked here on canned result lines; nothing is run."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ok_share", "better": "higher", "bound": 0.01},
]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "scripts", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(wall, ok_share=1.0, correct=True, failed=0):
    """The last two lines perfbench/run.py prints, after some worker chatter."""
    info = {"perfbench": {"metadata": {"cpu_model": "test cpu", "numpy": "2.0"}, "wall_s_quartiles": [wall] * 3}}
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "ok_share": {"value": ok_share, "unit": "share"}}
    result = {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}
    return "warming up\n" + json.dumps(info) + "\n" + json.dumps(result) + "\n"


def _runs(bench, base_walls, head_walls, head_ok=1.0, head_correct=None, head_failed=0):
    """Records of pairs; a wall of None is a run that failed, ``head_correct`` a list per pair."""
    runs = []
    for pair, (b, h) in enumerate(zip(base_walls, head_walls)):
        correct = True if head_correct is None else head_correct[pair]
        for side, wall, kwargs in (("base", b, {}), ("head", h, dict(ok_share=head_ok, correct=correct, failed=head_failed))):
            result = None if wall is None else bench.parse_run(_stdout(wall, **kwargs))[1]
            runs.append({"workload": "w", "seed": 7, "pair": pair, "side": side, "result": result})
    return runs


BASE10 = [1.0 + 0.01 * i for i in range(10)]


def test_parse_run_reads_the_last_two_lines(bench):
    info, result = bench.parse_run(_stdout(0.5))
    assert info["metadata"]["cpu_model"] == "test cpu"
    assert result["metrics"]["wall_s"]["value"] == 0.5


def test_summary_counts_wins_and_leaves_ties_out(bench):
    base = [1.0, 1.0, 1.0, 1.2, 1.1]
    head = [0.6, 0.7, 1.0, 0.6, 1.3]  # wins, win, tie, win, loss
    wall = bench.summarize(_runs(bench, base, head), METRICS)["w"]["metrics"]["wall_s"]
    assert (wall["wins"], wall["losses"]) == (3, 1)
    assert wall["base"] == base and wall["head"] == head
    assert wall["base_quartiles"] == [1.0, 1.0, 1.15]
    assert wall["head_quartiles"][1] == 0.7
    assert wall["relative_change"] == pytest.approx(-0.3)
    assert wall["gain_holds"] is False  # 3 of 5 wins is below nine tenths
    assert wall["within_bound"] is True


def test_summary_gain_needs_ten_pairs_nine_tenths_and_a_gap_beyond_the_base_spread(bench):
    base = BASE10
    wall = bench.summarize(_runs(bench, base, [0.6] * 10), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["wins"] == 10 and wall["gain_holds"] is True
    # every pair won, but by less than the base's quartile distance
    wall = bench.summarize(_runs(bench, base, [b - 0.001 for b in base]), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["wins"] == 10 and wall["gain_holds"] is False
    # every pair won by far, but nine pairs are too few
    wall = bench.summarize(_runs(bench, base[:9], [0.6] * 9), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["wins"] == 9 and wall["gain_holds"] is False


def test_summary_bound_follows_the_metric_direction(bench):
    summary = bench.summarize(_runs(bench, [1.0] * 3, [1.3] * 3, head_ok=0.95), METRICS)["w"]["metrics"]
    assert summary["wall_s"]["within_bound"] is False  # 30 % slower against a 25 % bound
    assert summary["ok_share"]["losses"] == 3 and summary["ok_share"]["within_bound"] is False


def test_summary_keeps_no_values_from_a_pair_with_a_failed_run(bench):
    entry = bench.summarize(_runs(bench, [1.0, None, 1.0], [0.5, 0.5, None]), METRICS)["w"]
    assert (entry["pairs"], entry["failed_pairs"]) == (3, 2)
    assert entry["metrics"]["wall_s"]["base"] == [1.0]
    assert entry["correct"] == {"base": 1, "head": 1}


def test_summary_failed_pairs_count_against_the_gain(bench):
    # the head wins all 15 pairs that ran, and crashes in 5 more: 15 of 20 is below nine tenths
    base, head = BASE10 * 2, [0.6] * 15 + [None] * 5
    entry = bench.summarize(_runs(bench, base, head), METRICS)["w"]
    assert (entry["pairs"], entry["failed_pairs"]) == (20, 5)
    assert entry["metrics"]["wall_s"]["wins"] == 15 and entry["metrics"]["wall_s"]["gain_holds"] is False
    # a single failed pair among ten wins still voids the claim
    wall = bench.summarize(_runs(bench, BASE10 + [1.0], [0.6] * 10 + [None]), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["wins"] == 10 and wall["gain_holds"] is False


def test_summary_an_incorrect_head_run_is_no_win_and_voids_the_gain(bench):
    correct = [True] * 9 + [False]
    wall = bench.summarize(_runs(bench, BASE10, [0.6] * 10, head_correct=correct), METRICS)["w"]["metrics"]["wall_s"]
    assert (wall["wins"], wall["losses"]) == (9, 0)
    assert wall["gain_holds"] is False  # nine wins would do, but the head is less often correct


def test_summary_a_larger_failed_share_voids_the_gain(bench):
    wall = bench.summarize(_runs(bench, BASE10, [0.6] * 10, head_failed=1), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["wins"] == 10 and wall["gain_holds"] is False


def test_summary_bound_is_unresolved_when_the_base_spread_exceeds_it(bench):
    base = [0.7, 1.3, 0.8, 1.2, 1.0]  # quartile distance 0.5 against an allowed 0.25
    wall = bench.summarize(_runs(bench, base, [1.1] * 5), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["within_bound"] == "unresolved"
    # just as wide a spread, but every head run is beyond every base run
    wall = bench.summarize(_runs(bench, base, [2.0] * 5), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["within_bound"] is False
