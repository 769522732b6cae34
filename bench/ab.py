#!/usr/bin/env python3
"""Run perfbench alternately on a parent commit and on this checkout.

    python3 bench/ab.py --parent REV --out BENCH_<n>.json --what "TEXT" [--seed S ...]

Run it from anywhere inside the checkout that holds the change. The parent
commit is exported with `git archive`, and the checkout's tracked files, as
they are in the working tree, are copied beside it: both sides run their own
`src/` under their own copy of `perfbench/`, from sibling temporary
directories, so where a side runs does not tell them apart. For every
workload of BENCHMARK.json and every seed (default 0), each of 10 pairs runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once per side, T being BENCHMARK.json's run_seconds; the side that runs
first alternates from pair to pair. Then, per workload at the first seed,
3 pairs of `--trace 1` runs alternate the same way. The output file has the
keys `what`, `parent_commit`, `summary`, `traced_summary`, `traced` and
`pairs`; `pairs` and `traced` hold the full perfbench records, plus each
run's exit code. Per metric the summary states whether the change won at
least nine tenths of the pairs (ties count for neither side) and whether
the medians differ, in the change's favour, by more than the parent's
interquartile range: a gain may be claimed only when both hold. It also
states whether the change's median is worse than the parent's by at most the
metric's BENCHMARK.json bound, which every metric must meet, gain claimed or
not. Per side it gives the spread of each run's machine speed
(`speed.probe_ms_p50`, `speed.raw_sweep_s`), so a pair decided in a slow
stretch shows without reading the pairs. `traced_summary` gives each
per-layer metric's median per side and the change's median over the
parent's: a traced run's per-layer times are not scaled by the machine's
speed, so one run in a slow stretch would move them, and the median of
three does not follow one such run. Stdlib only; it is not part of the test
suite, and it takes about 2 x (10 x seeds + 3) x T per workload.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED_PAIRS = 3
SIDES = ("parent", "change")
SPEED_KEYS = ("probe_ms_p50", "raw_sweep_s")  # a run's machine speed, from its record


def export(rev: str, dest: Path) -> str:
    """Write the files of commit `rev` under dest; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def export_worktree(dest: Path) -> None:
    """Copy the checkout's tracked files, as they are in the working tree,
    under dest; an untracked file is left out."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                           text=True, check=True).stdout.split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in the exported tree at root: its record, plus `exit`."""
    record = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    # run.py starts from a shell that forks it, not straight from this process:
    # Linux keeps ru_maxrss across exec, and subprocess starts a child by
    # vfork, so a run exec'd from here would read this process's own peak
    # RSS (the parent's export among it) as its peak_rss_mb floor
    done = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh", sys.executable,
                           "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=root, capture_output=True, text=True)
    if not record.is_file():
        return {"workload": workload, "seed": seed, "exit": done.returncode,
                "stderr": done.stderr[-2000:]}
    return {**json.loads(record.read_text()), "exit": done.returncode}


def rate(run: dict) -> str:
    if run["exit"] != 0:
        return f"failed (exit {run['exit']})"
    aps = run["result"]["metrics"].get("attempts_per_s")  # absent from a traced run
    return "ok" if aps is None else f"{aps['value']:.1f} attempts/s"


def run_pairs(roots: dict, workload: str, seed: int, seconds: float, trace: int,
              count: int) -> list[dict]:
    """`count` pairs of perfbench runs, one per side; the side that runs first
    alternates from pair to pair, starting with the parent."""
    pairs = []
    for i in range(1, count + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {"workload": workload, "seed": seed, "pair": i, "first": order[0]}
        for side in order:
            pair[side] = perfbench(roots[side], workload, seed, seconds, trace)
        pairs.append(pair)
        print(f"{workload} seed {seed} trace {trace} pair {i}: parent {rate(pair['parent'])}, "
              f"change {rate(pair['change'])}", file=sys.stderr)
    return pairs


def group_pairs(pairs: list[dict]) -> dict[str, list[dict]]:
    """The pairs by "<workload> seed <seed>", in order of first appearance."""
    groups: dict[str, list[dict]] = {}
    for p in pairs:
        groups.setdefault(f"{p['workload']} seed {p['seed']}", []).append(p)
    return groups


def all_correct(group: list[dict]) -> bool:
    return all(p[side]["exit"] == 0 and p[side]["result"]["correct"]
               for p in group for side in SIDES)


def spread(values: list[float]) -> tuple[str, list[float]]:
    """Quartiles (exclusive) from 4 values up, else min, median and max."""
    if len(values) >= 4:
        return "q1_median_q3", statistics.quantiles(values, n=4)
    return "min_median_max", [min(values), statistics.median(values), max(values)]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and seed: correctness, and each end-to-end metric's
    spread per side, median ratio, the pairs where the change is better and
    the two verdicts a claimed gain needs: `won_nine_tenths` (better in at
    least 9 of the PAIRS pairs main runs; false for a group of fewer than 9)
    and `beats_parent_iqr` (the median moved the better way by more than the
    parent's q3 - q1; false under 4 pairs, which give no quartiles), and
    `within_bound` (the change's median is worse than the parent's by at
    most the metric's `bound` times the parent's median). Under `speed`,
    each side's spread of the runs' speed-probe median and raw sweep time."""
    summary = {}
    for name, group in group_pairs(pairs).items():
        entry = {"pairs": len(group), "correct": all_correct(group),
                 "failed": sum(p[side]["result"]["failed"] for p in group for side in SIDES
                               if "result" in p[side])}
        if not entry["correct"]:
            summary[name] = entry
            continue
        for m in metrics:
            sides = {side: [p[side]["result"]["metrics"][m["name"]]["value"] for p in group]
                     for side in SIDES}
            stats = {}
            for side, values in sides.items():
                label, stats[side] = spread(values)
                entry.setdefault(m["name"], {})[f"{side}_{label}"] = [
                    round(v, 6) for v in stats[side]]
            higher = m["better"] == "higher"
            (q1, parent_median, q3), change_median = stats["parent"], stats["change"][1]
            better = sum((c > p) if higher else (c < p)
                         for p, c in zip(sides["parent"], sides["change"]))
            gain = change_median - parent_median if higher else parent_median - change_median
            entry[m["name"]].update(
                change_over_parent_median=round(change_median / parent_median, 4),
                change_better_pairs=better,
                won_nine_tenths=better >= 9,
                beats_parent_iqr=label == "q1_median_q3" and gain > q3 - q1,
                within_bound=-gain <= m["bound"] * parent_median)
        for key in SPEED_KEYS:
            for side in SIDES:
                label, values = spread([p[side]["speed"][key] for p in group])
                entry.setdefault("speed", {}).setdefault(key, {})[f"{side}_{label}"] = [
                    round(v, 6) for v in values]
        summary[name] = entry
    return summary


def traced_summary(traced: list[dict], metrics: list[dict]) -> dict:
    """Per workload and seed of the traced pairs: the runs per side, whether
    every run was correct and, when all were, each per-layer metric's median
    per side and `change_over_parent_median`, the change's median over the
    parent's (None when the parent's median is 0)."""
    summary = {}
    for name, group in group_pairs(traced).items():
        entry = {"runs_per_side": len(group), "correct": all_correct(group)}
        if entry["correct"]:
            for m in metrics:
                median = {side: statistics.median(
                    p[side]["result"]["metrics"][m["name"]]["value"] for p in group)
                    for side in SIDES}
                entry[m["name"]] = {
                    "parent_median": round(median["parent"], 6),
                    "change_median": round(median["change"], 6),
                    "change_over_parent_median": (round(median["change"] / median["parent"], 4)
                                                  if median["parent"] else None)}
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--what", required=True, help="what the change is, one sentence")
    parser.add_argument("--seed", action="append", type=int)
    args = parser.parse_args(argv)
    seeds = args.seed or [0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="dcfrag-ab-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        parent_commit = export(args.parent, roots["parent"])
        export_worktree(roots["change"])
        pairs = [p for w in workloads for seed in seeds
                 for p in run_pairs(roots, w, seed, seconds, 0, PAIRS)]
        traced = [p for w in workloads
                  for p in run_pairs(roots, w, seeds[0], seconds, 1, TRACED_PAIRS)]

    what = (f"{args.what} perfbench records of the parent commit and of the change, run "
            f"alternately: each pair ran 'python3 perfbench/run.py --workload W --seed S "
            f"--seconds {seconds:g} --trace 0' once per side, from two checkouts of the "
            f"same benchmark files; 'first' names the side that ran first. Quartiles are "
            f"statistics.quantiles(n=4) (exclusive); under 4 pairs the summary gives min, "
            f"median and max. won_nine_tenths: the change was better in at least 9 of 10 "
            f"pairs; beats_parent_iqr: its median moved the better way by more than the "
            f"parent's q3 - q1; within_bound: its median is worse than the parent's by at "
            f"most the metric's BENCHMARK.json bound times the parent's median. 'traced' holds "
            f"{TRACED_PAIRS} pairs of --trace 1 runs per workload at the first seed, alternated "
            f"as the pairs are; traced_summary gives each per-layer metric's median per side "
            f"and the change's median over the parent's. "
            f"Both sides ran from sibling temporary directories: the parent from its git "
            f"archive, the change from a copy of the checkout's tracked files as they were "
            f"in the working tree. So environment.commit is null on both sides; src_sha256 "
            f"tells the sides apart.")
    doc = {"what": what, "parent_commit": parent_commit,
           "summary": summarize(pairs, spec["end_to_end"]),
           "traced_summary": traced_summary(traced, spec["per_layer"]),
           "traced": traced, "pairs": pairs}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    groups = [*doc["summary"].values(), *doc["traced_summary"].values()]
    return 0 if all(g["correct"] for g in groups) else 1


if __name__ == "__main__":
    sys.exit(main())
