import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [3.0, 2.9, 3.2, 2.8, 3.1, 3.0, 2.7, 3.3, 2.9, 3.0]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_a_lower_is_better_gain_wins_nine_of_ten_beyond_the_spread():
    change = [2.2, 2.1, 2.4, 2.0, 2.3, 2.2, 2.8, 2.5, 2.1, 2.2]
    got = bench_pairs.summarize(PARENT, change, "lower", 0.2)
    assert got["parent"] == pytest.approx((2.9, 3.0, 3.075))
    assert got["change"] == pytest.approx((2.125, 2.2, 2.375))
    assert (got["wins"], got["losses"], got["pairs"]) == (9, 1, 10)
    assert got["gain"]


def test_ties_count_for_neither_side():
    change = [2.0] * 8 + PARENT[8:]
    got = bench_pairs.summarize(PARENT, change, "lower", 0.2)
    assert (got["wins"], got["losses"]) == (8, 0)
    assert not got["gain"]                 # 8 of 10 wins


def test_a_gap_within_the_parents_spread_is_no_gain():
    # every pair won, by less than the parent's interquartile range (0.175)
    change = [v - 0.1 for v in PARENT]
    got = bench_pairs.summarize(PARENT, change, "lower", 0.2)
    assert got["wins"] == 10 and not got["gain"]


def test_higher_is_better_reads_the_other_way():
    more = [v + 1.0 for v in PARENT]
    assert bench_pairs.summarize(PARENT, more, "higher", 0.2)["gain"]
    assert not bench_pairs.summarize(PARENT, more, "lower", 0.2)["gain"]
    assert bench_pairs.summarize(PARENT, more, "lower", 0.2)["losses"] == 10


def test_summary_refuses_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError, match="same positive number"):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower", 0.2)
    with pytest.raises(ValueError, match="better"):
        bench_pairs.summarize([1.0], [1.0], "smaller", 0.2)


def _regression(change, better="lower", bound=0.2):
    return bench_pairs.summarize(PARENT, change, better, bound)["regression"]


def test_a_median_worse_by_more_than_the_bound_regressed():
    # the bound is a share of the parent's median 3.0: 0.6 at 0.2
    assert _regression([v + 0.7 for v in PARENT]) == "regressed"
    assert _regression([v - 0.7 for v in PARENT], "higher") == "regressed"
    # worse, but within the bound, and the parent's spread (0.175) is narrower
    assert _regression([v + 0.5 for v in PARENT]) == "holds"
    assert _regression([v + 0.5 for v in PARENT], "higher") == "holds"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # at 0.05 the bound is 0.15, narrower than the parent's spread 0.175:
    # a median within the bound, worse or better, cannot be told apart
    assert _regression([v + 0.1 for v in PARENT], bound=0.05) == "unresolved"
    assert _regression([v - 0.1 for v in PARENT], bound=0.05) == "unresolved"
    # unless every change run beats every parent run
    assert _regression([v - 1.0 for v in PARENT], bound=0.05) == "holds"
    assert _regression([v + 1.0 for v in PARENT], "higher", 0.05) == "holds"
    # a median worse by more than the bound regressed, spread or not
    assert _regression([v + 0.2 for v in PARENT], bound=0.05) == "regressed"


def test_a_set_records_each_sides_quartiles_wins_and_meta(tmp_path):
    change = [2.2, 2.1, 2.4, 2.0, 2.3, 2.2, 2.8, 2.5, 2.1, 2.2]
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
               {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.05}]
    runs = {"parent": [{"wall_s": v, "ok_ratio": 1.0} for v in PARENT],
            "change": [{"wall_s": v, "ok_ratio": 1.0} for v in change]}
    metas = {"parent": {"src_sha256": "aa"}, "change": {"src_sha256": "bb"}}
    entry = bench_pairs.record("full_compare", 1, metrics, runs, metas)
    assert (entry["workload"], entry["seed"], entry["pairs"]) == ("full_compare", 1, 10)
    assert entry["meta"] == metas
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == PARENT and wall["change"]["runs"] == change
    assert (wall["parent"]["q1"], wall["parent"]["median"],
            wall["parent"]["q3"]) == pytest.approx((2.9, 3.0, 3.075))
    assert wall["change"]["median"] == pytest.approx(2.2)
    assert (wall["wins"], wall["losses"], wall["gain"]) == (9, 1, True)
    assert (wall["bound"], wall["regression"]) == (0.2, "holds")
    ok = entry["metrics"]["ok_ratio"]
    assert (ok["wins"], ok["losses"], ok["gain"]) == (0, 0, False)
    assert (ok["unit"], ok["better"], ok["bound"]) == ("ratio", "higher", 0.05)
    assert ok["regression"] == "holds"
    # sets are appended to the file, never replaced
    path = tmp_path / "BENCH.json"
    bench_pairs.append_set(path, entry)
    bench_pairs.append_set(path, entry)
    assert json.loads(path.read_text()) == {"sets": [entry, entry]}


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
                    *args], cwd=repo, check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path):
    """A repository of two commits whose `BENCHMARK.json` declares one metric,
    with an untracked file and an uncommitted edit in its working tree."""
    root = tmp_path / "repo"
    (root / "bench").mkdir(parents=True)
    _git(root, "init", "-q")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}]}))
    (root / "bench" / "side.txt").write_text("parent\n")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "parent")
    (root / "bench" / "side.txt").write_text("change\n")
    _git(root, "commit", "-q", "-am", "change")
    (root / "bench" / "side.txt").write_text("working tree\n")
    (root / ".bench_work").mkdir()
    return root


def test_archive_copies_the_tracked_files_of_a_revision(repo, tmp_path):
    old = bench_pairs.archive(repo, "HEAD~1", tmp_path / "copies" / "parent")
    new = bench_pairs.archive(repo, "HEAD", tmp_path / "copies" / "change")
    assert (old / "bench" / "side.txt").read_text() == "parent\n"
    assert (new / "bench" / "side.txt").read_text() == "change\n"
    # neither the repository nor what its working tree holds beside it
    for copy in (old, new):
        assert sorted(p.name for p in copy.iterdir()) == ["BENCHMARK.json", "bench"]


def test_both_sides_run_from_copies_in_one_directory_removed_at_the_end(
        repo, monkeypatch, capsys):
    seen = []

    def run_bench(checkout, workload, seed):
        seen.append((checkout, (checkout / "bench" / "side.txt").read_text()))
        return {"wall_s": 2.0 if "change" in seen[-1][1] else 3.0}, {"seed": seed}

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    assert bench_pairs.main(["HEAD~1", "HEAD", "--workload", "full_compare",
                             "--seed", "1", "--pairs", "2"]) == 0
    # alternating sides, each from its own revision's copy
    assert [text for _, text in seen] == ["parent\n", "change\n", "change\n", "parent\n"]
    parent, change = seen[0][0], seen[1][0]
    assert parent.parent == change.parent != repo
    assert {checkout for checkout, _ in seen} == {parent, change}
    assert not parent.parent.exists()
    out = capsys.readouterr().out
    assert "change wins 2/2" in out
    assert "no-regression rule (bound 0.2): holds" in out
