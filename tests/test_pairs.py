"""tools/pairs.py's aggregation and file schema, on synthetic run results.

No benchmark runs here: the run results are made up in the shape of
perfbench/run.py's last output line.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = {m["name"]: m for m in pairs.SPEC["end_to_end"]}


def result(tput, setup=0.2, rss=40.0, failed=0, attempted=30):
    """A run.py result line as parsed JSON."""
    values = {"setup_s": setup, "peak_rss_mb": rss, "adj_throughput": tput}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": END_TO_END[name]["unit"]}
                        for name, v in values.items()}}


def check_schema(record: dict) -> None:
    """The fields every BENCH_*.json holds, and their consistency."""
    assert set(record) >= {"base", "change", "machine", "command", "pairs", "seconds",
                           "seeds", "order", "tier1", "workloads"}
    assert set(record["machine"]) >= {"platform", "cpu", "nproc", "python", "numpy"}
    assert len(record["seeds"]) == record["pairs"] >= 1
    for side in ("base", "change"):
        assert set(record["tier1"][side]) == {"wall_s", "returncode", "summary"}
    assert record["workloads"] and set(record["workloads"]) <= set(pairs.WORKLOADS)
    for wl in record["workloads"].values():
        assert set(wl["metrics"]) == set(END_TO_END)
        for name, m in wl["metrics"].items():
            assert m["better"] == END_TO_END[name]["better"]
            assert m["unit"] == END_TO_END[name]["unit"]
            assert m["bound"] == END_TO_END[name]["bound"]
            assert m["pairs"] == record["pairs"]
            assert 0 <= m["change_wins"] + m["ties"] <= m["pairs"]
            for side in ("base", "change"):
                s = m[side]
                assert len(s["runs"]) == m["pairs"]
                assert s["q1"] <= s["median"] <= s["q3"]
                assert s["median"] == statistics.median(s["runs"])
            assert isinstance(m["gain_rule"], bool)
        assert set(wl["failed"]) == set(wl["attempted"]) == {"base", "change"}


class TestCompare:
    def test_summary_is_median_and_quartiles(self):
        assert pairs.summarise([4.0, 1.0, 3.0, 2.0, 5.0]) == {
            "median": 3.0, "q1": 1.5, "q3": 4.5}
        assert pairs.summarise([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}

    @pytest.mark.parametrize("better,wins", [("higher", 2), ("lower", 1)])
    def test_wins_follow_the_metric_direction_and_ties_count_for_neither(self, better, wins):
        got = pairs.compare([(1.0, 2.0), (3.0, 3.0), (5.0, 4.0), (1.0, 1.5)], better)
        assert (got["change_wins"], got["ties"], got["pairs"]) == (wins, 1, 4)
        assert got["base"]["runs"] == [1.0, 3.0, 5.0, 1.0]
        assert got["change"]["runs"] == [2.0, 3.0, 4.0, 1.5]

    def test_gain_rule_needs_nine_tenths_won_and_a_gap_beyond_the_base_spread(self):
        base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
        ahead = [(b, b * 1.1) for b in base]
        assert pairs.compare(ahead, "higher")["gain_rule"]
        assert not pairs.compare(ahead, "lower")["gain_rule"]
        # 8 of 10 won is not enough, however large the gap
        assert not pairs.compare(ahead[:8] + [(b, b) for b in base[8:]], "higher")["gain_rule"]
        # every pair won, but by less than the base's interquartile range
        assert not pairs.compare([(b, b + 0.01) for b in base], "higher")["gain_rule"]
        got = pairs.compare(ahead, "higher")
        assert got["ratio"] == pytest.approx(1.1)


class TestAggregate:
    def test_every_end_to_end_metric_and_the_failures(self):
        runs = [(result(1.5, setup=0.21, failed=1), result(1.7, setup=0.20)),
                (result(1.4, setup=0.22), result(1.6, setup=0.23, rss=41.0)),
                (result(1.6, setup=0.20), result(1.5, setup=0.19))]
        got = pairs.aggregate(runs)
        tput = got["metrics"]["adj_throughput"]
        assert tput["base"]["runs"] == [1.5, 1.4, 1.6] and tput["change_wins"] == 2
        assert got["metrics"]["setup_s"]["change_wins"] == 2   # lower is better
        assert got["metrics"]["peak_rss_mb"]["ties"] == 2
        assert got["failed"] == {"base": 1, "change": 0}
        assert got["attempted"] == {"base": 90, "change": 90}

    def test_record_written_by_main_has_the_schema(self, tmp_path, monkeypatch):
        # main() with the benchmark, tier-1 and the export replaced by stubs
        calls = []

        def fake_run(root, workload, seed, seconds):
            calls.append((root.name, workload, seed))
            return result(2.0 if root.name == "change" else 1.0)

        monkeypatch.setattr(pairs, "run_bench", fake_run)
        monkeypatch.setattr(pairs, "export", lambda rev, tree: tree.mkdir())
        monkeypatch.setattr(pairs, "time_tier1", lambda root: {
            "wall_s": 1.0, "returncode": 0, "summary": "1 passed"})
        monkeypatch.setattr(pairs, "compile_tree", lambda root: None)
        monkeypatch.setattr(pairs, "git", lambda *args: args[-1].split("^")[0])
        monkeypatch.setattr(pairs, "bench_path", lambda sha: tmp_path / f"BENCH_{sha}.json")
        assert pairs.main(["--base", "b0", "--change", "c1", "--workloads", "hsw,compress",
                           "--pairs", "3", "--seconds", "1", "--first-seed", "5"]) == 0
        record = json.loads((tmp_path / "BENCH_b0.json").read_text())
        check_schema(record)
        assert (record["base"], record["change"], record["seeds"]) == ("b0", "c1", [5, 6, 7])
        # base first in pairs 0 and 2, the change first in pair 1
        assert [c[0] for c in calls[:6]] == ["base", "change", "change", "base", "base",
                                             "change"]
        assert [c[1:] for c in calls[::2]] == [("hsw", 5), ("hsw", 6), ("hsw", 7),
                                               ("compress", 5), ("compress", 6),
                                               ("compress", 7)]
        tput = record["workloads"]["hsw"]["metrics"]["adj_throughput"]
        assert tput["change_wins"] == 3 and tput["ratio"] == 2.0

    def test_bench_file_is_named_by_the_base(self):
        assert pairs.bench_path("d457766") == ROOT / "BENCH_d457766.json"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_have_the_schema(path):
    record = json.loads(path.read_text())
    check_schema(record)
    # a record counts as evidence only at the benchmark's run length and 10 or more pairs
    assert record["seconds"] == pairs.SPEC["run_seconds"] and record["pairs"] >= 10
    assert set(record["workloads"]) == set(pairs.WORKLOADS)
    assert path.name == f"BENCH_{record['base'][:len(path.stem) - len('BENCH_')]}.json"
