#!/usr/bin/env python3
"""Run perfbench alternately on a parent commit and on this checkout.

    python3 bench/ab.py --parent REV --out BENCH_<n>.json --what "TEXT" [--seed S ...]

Run it from anywhere inside the checkout that holds the change. The parent
commit is exported with `git archive` into a temporary directory, so both
sides run their own `src/` under their own copy of `perfbench/`. For every
workload of BENCHMARK.json and every seed (default 0), each of 10 pairs runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once per side, T being BENCHMARK.json's run_seconds; the side that runs
first alternates from pair to pair. Then
each side makes one `--trace 1` run per workload at the first seed. The
output file has the keys `what`, `parent_commit`, `summary`, `traced` and
`pairs`; `pairs` and `traced` hold the full perfbench records, plus each
run's exit code. Per metric the summary also states whether the change won
at least nine tenths of the pairs (ties count for neither side) and whether
the medians differ, in the change's favour, by more than the parent's
interquartile range: a gain may be claimed only when both hold. It also
states whether the change's median is worse than the parent's by at most the
metric's BENCHMARK.json bound, which every metric must meet, gain claimed or
not. Per side it gives the spread of each run's machine speed
(`speed.probe_ms_p50`, `speed.raw_sweep_s`), so a pair decided in a slow
stretch shows without reading the pairs. Stdlib only; it is not part of the
test suite, and it takes about 2 x 10 x T per workload and seed.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
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


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in the checkout at root: its record, plus `exit`."""
    record = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=root, capture_output=True, text=True)
    if not record.is_file():
        return {"workload": workload, "seed": seed, "exit": done.returncode,
                "stderr": done.stderr[-2000:]}
    return {**json.loads(record.read_text()), "exit": done.returncode}


def rate(run: dict) -> str:
    if run["exit"] != 0:
        return f"failed (exit {run['exit']})"
    return f"{run['result']['metrics']['attempts_per_s']['value']:.1f}"


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
    groups: dict[str, list[dict]] = {}
    for p in pairs:
        groups.setdefault(f"{p['workload']} seed {p['seed']}", []).append(p)
    summary = {}
    for name, group in groups.items():
        runs = [p[side] for p in group for side in ("parent", "change")]
        entry = {"pairs": len(group),
                 "correct": all(r["exit"] == 0 and r["result"]["correct"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs if "result" in r)}
        if not entry["correct"]:
            summary[name] = entry
            continue
        for m in metrics:
            sides = {side: [p[side]["result"]["metrics"][m["name"]]["value"] for p in group]
                     for side in ("parent", "change")}
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
            for side in ("parent", "change"):
                label, values = spread([p[side]["speed"][key] for p in group])
                entry.setdefault("speed", {}).setdefault(key, {})[f"{side}_{label}"] = [
                    round(v, 6) for v in values]
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

    with tempfile.TemporaryDirectory(prefix="dcfrag-parent-") as tmp:
        parent_root = Path(tmp)
        parent_commit = export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        pairs = []
        for workload in workloads:
            for seed in seeds:
                for i in range(1, PAIRS + 1):
                    order = ("parent", "change") if i % 2 else ("change", "parent")
                    pair = {"workload": workload, "seed": seed, "pair": i, "first": order[0]}
                    for side in order:
                        pair[side] = perfbench(roots[side], workload, seed, seconds, 0)
                    pairs.append(pair)
                    print(f"{workload} seed {seed} pair {i}: parent {rate(pair['parent'])}, "
                          f"change {rate(pair['change'])} attempts/s", file=sys.stderr)
        traced = {w: {"workload": w, "seed": seeds[0],
                      **{side: perfbench(roots[side], w, seeds[0], seconds, 1)
                         for side in ("parent", "change")}}
                  for w in workloads}

    what = (f"{args.what} perfbench records of the parent commit and of the change, run "
            f"alternately: each pair ran 'python3 perfbench/run.py --workload W --seed S "
            f"--seconds {seconds:g} --trace 0' once per side, from two checkouts of the "
            f"same benchmark files; 'first' names the side that ran first. Quartiles are "
            f"statistics.quantiles(n=4) (exclusive); under 4 pairs the summary gives min, "
            f"median and max. won_nine_tenths: the change was better in at least 9 of 10 "
            f"pairs; beats_parent_iqr: its median moved the better way by more than the "
            f"parent's q3 - q1; within_bound: its median is worse than the parent's by at "
            f"most the metric's BENCHMARK.json bound times the parent's median. 'traced' holds one --trace 1 run per side and workload. "
            f"environment.commit is null for the exported parent and the checkout's HEAD "
            f"for the change; src_sha256 tells the sides apart.")
    doc = {"what": what, "parent_commit": parent_commit,
           "summary": summarize(pairs, spec["end_to_end"]), "traced": traced, "pairs": pairs}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(s["correct"] for s in doc["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
