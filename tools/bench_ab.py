#!/usr/bin/env python3
"""A/B the end-to-end benchmark between two revisions, in alternating pairs.

    python3 tools/bench_ab.py OLD_REV NEW_REV --workload W --pairs N [--seconds S]

Checks out OLD_REV and NEW_REV with `git worktree add` under a scratch
directory (local only), then runs `e2ebench/run.py --workload W --seed 7
--seconds S --trace 0` N times on each side in ABBA order (old first in even
pairs, new first in odd ones); each side's first run builds its program.
S defaults to BENCHMARK.json's run_seconds. For every end-to-end metric that
BENCHMARK.json declares it prints every run's value and a markdown table:
both medians, both interquartile ranges (IQR), new/old, the pairs the new
side won, and one verdict:

    better        new wins at least nine tenths of the pairs (ties count for
                  neither) and the medians differ by more than the old IQR;
    unresolved    either side's IQR exceeds the metric's bound (relative to
                  its median), unless every new run beats every old run or
                  every new run loses to every old run;
    worse         the new median is worse than the old by more than the bound;
    within bound  anything else.

A metric missing from a new run is worse. Exits 1 if any metric is worse,
0 otherwise. The worktrees, their build trees and their outputs live under
one temporary directory (TMPDIR) and are removed afterwards; nothing is
written to the repository (in particular not BENCH_e2e.json). Result files
and the BENCHMARK.json spec are read with tools/bench_diff.py's loader.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_diff  # noqa: E402

SIDES = ("old", "new")
SEED = 7


def quartiles(values):
    """(q1, median, q3) of `values`, interpolated between order statistics."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def beats(a, b, better):
    """True when value a is strictly better than value b."""
    return a < b if better == "lower" else a > b


def verdict_of(old, new, better, bound):
    """The verdict for one metric, given each side's per-pair values."""
    pairs = len(old)
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    wins = sum(beats(n, o, better) for o, n in zip(old, new))
    if wins >= math.ceil(0.9 * pairs) and beats(nmed, omed, better) \
            and abs(nmed - omed) > oq3 - oq1:
        return "better", wins
    spread = max((oq3 - oq1) / omed if omed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    separated = (all(beats(n, o, better) for n in new for o in old)
                 or all(beats(o, n, better) for n in new for o in old))
    if spread > bound and not separated:
        return "unresolved", wins
    if omed and bench_diff.worse_by(omed, nmed, better) > bound:
        return "worse", wins
    return "within bound", wins


def compare(runs, spec):
    """Rows of the table. runs[side] is a list of {metric: value}, one per
    pair, in pair order."""
    rows = []
    for m in spec:
        name = m["name"]
        missing = [side for side in SIDES if any(name not in r for r in runs[side])]
        if missing:
            rows.append({"name": name, "unit": m["unit"], "missing": missing[-1],
                         "verdict": "worse" if "new" in missing else "not compared"})
            continue
        old = [r[name] for r in runs["old"]]
        new = [r[name] for r in runs["new"]]
        verdict, wins = verdict_of(old, new, m["better"], m["bound"])
        oq1, omed, oq3 = quartiles(old)
        nq1, nmed, nq3 = quartiles(new)
        rows.append({"name": name, "unit": m["unit"], "bound": m["bound"],
                     "old": omed, "old_iqr": oq3 - oq1,
                     "new": nmed, "new_iqr": nq3 - nq1,
                     "ratio": nmed / omed if omed else math.inf,
                     "wins": wins, "pairs": len(old), "verdict": verdict})
    return rows


def render(rows):
    lines = ["| metric | unit | bound | old median | old IQR | new median | "
             "new IQR | new/old | wins | verdict |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        if "missing" in r:
            lines.append(f"| {r['name']} | {r['unit']} | | | | | | | | "
                         f"{r['verdict']} (missing in {r['missing']}) |")
            continue
        lines.append(
            f"| {r['name']} | {r['unit']} | {r['bound']:g} | {r['old']:.6g} | "
            f"{r['old_iqr']:.3g} | {r['new']:.6g} | {r['new_iqr']:.3g} | "
            f"{r['ratio']:.3f} | {r['wins']}/{r['pairs']} | {r['verdict']} |")
    return "\n".join(lines)


def render_pairs(runs, spec):
    """Every run's value, pair by pair, as `old -> new`."""
    lines = []
    for m in spec:
        name = m["name"]
        pairs = zip(runs["old"], runs["new"])
        cells = [f"{o.get(name, float('nan')):.6g} -> {n.get(name, float('nan')):.6g}"
                 for o, n in pairs]
        lines.append(f"- {name}: " + ", ".join(cells))
    return "\n".join(lines)


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def tree_env():
    """The environment of every run: without CARGO_TARGET_DIR, so each
    worktree keeps its own .bench_build/, and without the MPCSPAN_* engine
    knobs, which run.py also strips from its program."""
    return {k: v for k, v in os.environ.items()
            if k != "CARGO_TARGET_DIR" and not k.startswith("MPCSPAN_")}


def run_once(tree, args, dest):
    """One benchmark run in `tree`; copies its result file to `dest`.
    Returns whether every gate passed."""
    rc = subprocess.call(
        [sys.executable, "e2ebench/run.py", "--workload", args.workload,
         "--seed", str(SEED), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, env=tree_env(), stdout=subprocess.DEVNULL)
    name = f"result-{args.workload}-{SEED}-trace0.json"
    src = tree / ".bench_out" / name
    if not src.is_file():
        sys.exit(f"bench_ab: {tree.name} run left no {name} (exit code {rc})")
    dest.mkdir(parents=True)
    shutil.move(str(src), str(dest / name))
    return rc == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_rev")
    ap.add_argument("new_rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=json.loads(
        (bench_diff.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    repo = bench_diff.ROOT
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
            for side, rev in zip(SIDES, (args.old_rev, args.new_rev))}
    scratch = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    trees = {side: scratch / side for side in SIDES}
    gates = {side: 0 for side in SIDES}
    runs = {side: [] for side in SIDES}
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", str(trees[side]), shas[side], cwd=repo)
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                dest = scratch / "results" / f"{side}-{i}"
                gates[side] += run_once(trees[side], args, dest)
                runs[side].append(bench_diff.load(dest)[args.workload])
            print(f"bench_ab: pair {i + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        for side in SIDES:
            if trees[side].exists():
                subprocess.call(["git", "worktree", "remove", "--force",
                                 str(trees[side])], cwd=repo)
        subprocess.call(["git", "worktree", "prune"], cwd=repo)
        shutil.rmtree(scratch, ignore_errors=True)

    rows = compare(runs, bench_diff.end_to_end_spec())
    print(f"`{args.workload}`: {args.pairs} ABBA pairs, --seconds {args.seconds:g}, "
          f"seed {SEED}; old {shas['old'][:10]}, new {shas['new'][:10]}; "
          f"gates passed on {gates['old']}/{args.pairs} old and "
          f"{gates['new']}/{args.pairs} new runs\n")
    print(render(rows))
    print("\nPer pair (old -> new):\n")
    print(render_pairs(runs, bench_diff.end_to_end_spec()))
    return 1 if any(r.get("verdict") == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
