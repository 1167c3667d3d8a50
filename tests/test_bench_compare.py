"""The verdict rule of tools/bench_compare.py, on recorded figures: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)
verdict = bench_compare.verdict

# desk round_ms.p50 of ten seeds on one tree, in ms
BASE = [2.339, 2.351, 2.327, 2.362, 2.344, 2.348, 2.336, 2.355, 2.341, 2.333]


def shifted(values, by, losses=()):
    """``values`` moved by ``by``, except the pairs in ``losses``, moved the other way."""
    return [v - by if i in losses else v + by for i, v in enumerate(values)]


class TestVerdict:
    def test_nine_wins_past_the_base_spread_is_a_gain(self):
        assert verdict(BASE, shifted(BASE, -0.23, losses={4}), "lower", 0.24) == "gain"

    def test_eight_wins_is_no_gain(self):
        assert verdict(BASE, shifted(BASE, -0.23, losses={4, 7}), "lower", 0.24) == "unchanged"

    def test_ten_wins_inside_the_base_spread_is_no_gain(self):
        q = bench_compare.quartiles(BASE)
        gap = (q["q3"] - q["q1"]) / 2
        assert verdict(BASE, shifted(BASE, -gap), "lower", 0.24) == "unchanged"

    def test_ties_count_for_neither_side(self):
        head = shifted(BASE, -0.23)
        head[0], head[1] = BASE[0], BASE[1]
        assert bench_compare.wins(BASE, head, "lower") == 8
        assert verdict(BASE, head, "lower", 0.24) == "unchanged"

    def test_a_median_worse_past_the_bound_is_a_regression(self):
        assert verdict(BASE, [v * 1.25 for v in BASE], "lower", 0.24) == "regression"
        assert verdict(BASE, [v * 1.2 for v in BASE], "lower", 0.24) == "unchanged"

    def test_higher_is_better_reads_the_other_way(self):
        rate = [1e6 / v for v in BASE]
        assert verdict(rate, [v * 1.15 for v in rate], "higher", 0.24) == "gain"
        assert verdict(rate, [v * 0.7 for v in rate], "higher", 0.24) == "regression"
        assert verdict(rate, [v * 0.85 for v in rate], "higher", 0.24) == "unchanged"

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wide = [1.0, 1.5, 2.0, 2.5, 3.0, 1.2, 1.7, 2.2, 2.7, 3.2]
        assert verdict(wide, list(reversed(wide)), "lower", 0.24) == "unresolved"
        # unless every head run reads better than every base run
        assert verdict(wide, [v / 4 for v in wide], "lower", 0.24) == "gain"


def test_parse_run_reads_the_result_env_and_digest_lines():
    stdout = "\n".join([
        "# workload desk, seed 0 -> config seed 1, trace=0",
        '# env {"nproc": 2, "numpy": "2.1.0"}',
        "# digest 823507f2 config_sha1 cc085a12 final_accuracy 0.995200 reference match",
        "# digest b2fefd16 config_sha1 de913e83 final_accuracy 1.000000 reference match",
        "# failed_fraction 0.0 ratio (0/40)",
        json.dumps({"correct": True, "attempted": 40, "failed": 0,
                    "metrics": {"run_s": {"value": 1.18, "unit": "s"}}})])
    assert bench_compare.parse_run(stdout) == {
        "correct": True, "attempted": 40, "failed": 0,
        "env": {"nproc": 2, "numpy": "2.1.0"},
        "digests": {"cc085a12": "823507f2", "de913e83": "b2fefd16"},
        "metrics": {"run_s": 1.18}}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_a_committed_bench_file_follows_from_its_own_runs(path):
    document = json.loads(path.read_text(encoding="utf-8"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    paired = document["base"] is not None
    assert document["summary"] == bench_compare.summarize(document["runs"], metrics, paired)
    assert document["outcome"] == bench_compare.outcome(document["problems"], document["summary"])
