"""bench/ab.py's summary of parent/change pairs, on synthetic perfbench records,
and its export of a commit's files."""

import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import ab  # noqa: E402  (needs bench/ on the path)

METRICS = [{"name": "attempts_per_s", "better": "higher", "bound": 0.25},
           {"name": "step_ms_p50", "better": "lower", "bound": 0.25}]


def run(rate, step, exit=0, correct=True, failed=0, probe=0.7, sweep=0.25):
    return {"exit": exit, "speed": {"probes": 100, "probe_ms_p50": probe, "raw_sweep_s": sweep},
            "result": {"correct": correct, "failed": failed, "metrics": {
                "attempts_per_s": {"value": rate}, "step_ms_p50": {"value": step}}}}


def pairs(parent, change, workload="w", seed=0):
    return [{"workload": workload, "seed": seed, "pair": i + 1, "parent": p, "change": c}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_nonzero_exit_makes_the_group_incorrect():
    ok = [run(100.0, 1.0)] * 3
    crashed = {"workload": "w", "seed": 0, "exit": 1, "stderr": "Traceback"}
    summary = ab.summarize(pairs(ok, [run(110.0, 0.9), crashed, run(120.0, 0.8)]), METRICS)
    assert summary == {"w seed 0": {"pairs": 3, "correct": False, "failed": 0}}
    # a record written by a run that still exited nonzero counts as failed too
    summary = ab.summarize(pairs(ok, [run(110.0, 0.9, exit=1, failed=2)] * 3), METRICS)
    assert summary["w seed 0"] == {"pairs": 3, "correct": False, "failed": 6}


def test_change_better_pairs_follow_each_metrics_direction():
    parent = [run(100.0, 1.0), run(100.0, 1.0), run(100.0, 1.0), run(100.0, 1.0)]
    # rate: higher in pairs 1 and 2, a tie in 3, lower in 4;
    # step: lower in pair 1 only, a tie in 2, higher in 3 and 4
    change = [run(120.0, 0.5), run(101.0, 1.0), run(100.0, 1.5), run(90.0, 2.0)]
    entry = ab.summarize(pairs(parent, change), METRICS)["w seed 0"]
    assert entry["correct"] is True
    assert entry["attempts_per_s"]["change_better_pairs"] == 2
    assert entry["step_ms_p50"]["change_better_pairs"] == 1
    assert entry["attempts_per_s"]["change_over_parent_median"] == round(100.5 / 100.0, 4)


def test_spread_switches_to_quartiles_at_four_pairs():
    rates = [100.0, 104.0, 97.0, 110.0]
    three = ab.summarize(pairs([run(r, 1.0) for r in rates[:3]], [run(r, 1.0) for r in rates[:3]]),
                         METRICS)["w seed 0"]["attempts_per_s"]
    assert three["parent_min_median_max"] == [97.0, 100.0, 104.0]
    assert "parent_q1_median_q3" not in three
    four = ab.summarize(pairs([run(r, 1.0) for r in rates], [run(r, 1.0) for r in rates]),
                        METRICS)["w seed 0"]["attempts_per_s"]
    assert four["parent_q1_median_q3"] == [round(v, 6) for v in statistics.quantiles(rates, n=4)]
    assert "parent_min_median_max" not in four


def test_groups_split_by_workload_and_seed():
    group = pairs([run(100.0, 1.0)] * 2, [run(110.0, 0.9)] * 2, workload="w", seed=1)
    other = pairs([run(100.0, 1.0)] * 2, [run(90.0, 1.1)] * 2, workload="v", seed=0)
    summary = ab.summarize(group + other, METRICS)
    assert sorted(summary) == ["v seed 0", "w seed 1"]
    assert summary["w seed 1"]["attempts_per_s"]["change_better_pairs"] == 2
    assert summary["v seed 0"]["attempts_per_s"]["change_better_pairs"] == 0


def test_verdicts_follow_the_nine_tenths_and_iqr_rules():
    parent = [run(100.0 + i, 1.0) for i in range(10)]  # q1 101.75, q3 107.25: IQR 5.5
    # better in 9 of 10 pairs, median 104.5 -> 111.5: a gain of 7 beats the IQR
    change = [run(108.0 + i, 1.0) for i in range(9)] + [run(50.0, 1.0)]
    rate = ab.summarize(pairs(parent, change), METRICS)["w seed 0"]["attempts_per_s"]
    assert rate["change_better_pairs"] == 9
    assert rate["won_nine_tenths"] is True and rate["beats_parent_iqr"] is True
    # every pair by 5: won, but within the parent's own spread
    rate = ab.summarize(pairs(parent, [run(105.0 + i, 1.0) for i in range(10)]),
                        METRICS)["w seed 0"]["attempts_per_s"]
    assert rate["won_nine_tenths"] is True and rate["beats_parent_iqr"] is False
    # a big median gain in only 8 of 10 pairs; a step that worsens beats nothing
    change = [run(120.0 + i, 2.0) for i in range(8)] + [run(50.0, 2.0)] * 2
    entry = ab.summarize(pairs(parent, change), METRICS)["w seed 0"]
    assert entry["attempts_per_s"]["won_nine_tenths"] is False
    assert entry["attempts_per_s"]["beats_parent_iqr"] is True
    assert entry["step_ms_p50"]["won_nine_tenths"] is False
    assert entry["step_ms_p50"]["beats_parent_iqr"] is False


def test_speed_spread_per_side_shows_a_slow_run():
    # the parent's fourth run swept 1.3x slower while its probes read faster
    probes, sweeps = [0.70, 0.72, 0.74, 0.47, 0.71], [0.25, 0.26, 0.25, 0.33, 0.24]
    parent = [run(100.0, 1.0, probe=p, sweep=s) for p, s in zip(probes, sweeps)]
    change = [run(100.0, 1.0, probe=0.7, sweep=0.25)] * 5
    speed = ab.summarize(pairs(parent, change), METRICS)["w seed 0"]["speed"]
    assert speed["probe_ms_p50"]["parent_q1_median_q3"] == [
        round(v, 6) for v in statistics.quantiles(probes, n=4)]
    assert speed["raw_sweep_s"]["parent_q1_median_q3"][2] == round(
        statistics.quantiles(sweeps, n=4)[2], 6)
    assert speed["raw_sweep_s"]["change_q1_median_q3"] == [0.25, 0.25, 0.25]
    three = ab.summarize(pairs(parent[3:] + parent[:1], change[:3]), METRICS)["w seed 0"]
    assert three["speed"]["raw_sweep_s"]["parent_min_median_max"] == [0.24, 0.25, 0.33]
    assert three["speed"]["probe_ms_p50"]["parent_min_median_max"] == [0.47, 0.70, 0.71]


def test_too_few_pairs_give_neither_verdict():
    # better in 3 of 3 pairs: not the 9 of 10 a claim needs, and no quartiles
    rate = ab.summarize(pairs([run(100.0, 1.0)] * 3, [run(200.0, 1.0)] * 3),
                        METRICS)["w seed 0"]["attempts_per_s"]
    assert rate["won_nine_tenths"] is False and rate["beats_parent_iqr"] is False


def test_within_bound_allows_a_loss_up_to_bound_times_the_parent_median():
    # parent medians 100/s and 1.0 ms; a 25% bound allows 75/s and 1.25 ms
    parent = [run(100.0, 1.0)] * 3
    inside = ab.summarize(pairs(parent, [run(75.5, 1.245)] * 3), METRICS)["w seed 0"]
    assert inside["attempts_per_s"]["within_bound"] is True
    assert inside["step_ms_p50"]["within_bound"] is True
    outside = ab.summarize(pairs(parent, [run(74.5, 1.255)] * 3), METRICS)["w seed 0"]
    assert outside["attempts_per_s"]["within_bound"] is False
    assert outside["step_ms_p50"]["within_bound"] is False
    # a gain is always within the bound, and the bound is read per metric
    tight = [dict(m, bound=0.001) for m in METRICS]
    better = ab.summarize(pairs(parent, [run(200.0, 0.5)] * 3), tight)["w seed 0"]
    assert better["attempts_per_s"]["within_bound"] is True
    assert better["step_ms_p50"]["within_bound"] is True
    assert ab.summarize(pairs(parent, [run(99.0, 1.01)] * 3),
                        tight)["w seed 0"]["step_ms_p50"]["within_bound"] is False


def traced(values, exit=0, correct=True):
    return {"exit": exit, "result": {"correct": correct, "failed": 0, "metrics": {
        name: {"value": v} for name, v in values.items()}}}


def test_traced_summary_gives_each_sides_median_and_their_ratio():
    layers = [{"name": "topology.route.self_s"}, {"name": "placement.snapshot.calls"}]
    # the parent's second run sat in a slow stretch: its median does not follow it
    parent = [traced({"topology.route.self_s": s, "placement.snapshot.calls": 0})
              for s in (0.010, 0.030, 0.011)]
    change = [traced({"topology.route.self_s": s, "placement.snapshot.calls": 0})
              for s in (0.007, 0.006, 0.009)]
    entry = ab.traced_summary(pairs(parent, change), layers)["w seed 0"]
    assert entry["runs_per_side"] == 3 and entry["correct"] is True
    assert entry["topology.route.self_s"] == {
        "parent_median": 0.011, "change_median": 0.007,
        "change_over_parent_median": round(0.007 / 0.011, 4)}
    # a zero parent median gives no ratio
    assert entry["placement.snapshot.calls"]["change_over_parent_median"] is None
    change[1] = traced({}, exit=1, correct=False)
    assert ab.traced_summary(pairs(parent, change), layers) == {
        "w seed 0": {"runs_per_side": 3, "correct": False}}


def git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           "-c", "commit.gpgsign=false", *args],
                          cwd=repo, capture_output=True, text=True, check=True).stdout


def test_export_writes_the_commits_files_and_returns_its_hash(tmp_path, monkeypatch):
    repo, dest = tmp_path / "repo", tmp_path / "out"
    repo.mkdir()
    (repo / "a.txt").write_text("one\n")
    git(repo, "init", "-q")
    git(repo, "add", "a.txt")
    git(repo, "commit", "-q", "-m", "one")
    monkeypatch.setattr(ab, "ROOT", repo)
    assert ab.export("HEAD", dest) == git(repo, "rev-parse", "HEAD").strip()
    assert (dest / "a.txt").read_text() == "one\n"


def test_worktree_export_holds_uncommitted_edits_and_no_untracked_file(tmp_path, monkeypatch):
    repo, dest = tmp_path / "repo", tmp_path / "change"
    (repo / "sub").mkdir(parents=True)
    (repo / "a.txt").write_text("one\n")
    (repo / "sub" / "b.txt").write_text("two\n")
    git(repo, "init", "-q")
    git(repo, "add", "a.txt", "sub/b.txt")
    git(repo, "commit", "-q", "-m", "one")
    (repo / "a.txt").write_text("edited\n")
    (repo / "untracked.txt").write_text("not in the export\n")
    monkeypatch.setattr(ab, "ROOT", repo)
    ab.export_worktree(dest)
    assert (dest / "a.txt").read_text() == "edited\n"
    assert (dest / "sub" / "b.txt").read_text() == "two\n"
    assert sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file()) == [
        "a.txt", "sub/b.txt"]


def test_a_run_does_not_start_from_this_process_peak_rss(tmp_path):
    # a stand-in run.py that records its own ru_maxrss and arguments; this
    # process first raises its own peak by 64 MB, which a run exec'd straight
    # from it would read as its own
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, resource, sys\n"
        "out = 'perfbench/out/' + sys.argv[2] + '-seed' + sys.argv[4] + '-trace' + sys.argv[8]\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0\n"
        "__import__('os').makedirs('perfbench/out', exist_ok=True)\n"
        "json.dump({'peak_mb': peak, 'argv': sys.argv[1:]}, open(out + '.json', 'w'))\n")
    block = bytearray(64 << 20)
    block[::4096] = b"x" * len(block[::4096])  # touch every page, so it is resident
    del block
    record = ab.perfbench(tmp_path, "w", 3, 0.5, 0)
    assert record["exit"] == 0
    assert record["argv"] == ["--workload", "w", "--seed", "3", "--seconds", "0.5",
                              "--trace", "0"]
    assert record["peak_mb"] < 48
