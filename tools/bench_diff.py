#!/usr/bin/env python3
"""Compare two end-to-end benchmark records, workload by workload.

    python3 tools/bench_diff.py OLD NEW
    python3 tools/bench_diff.py --collect .bench_out > BENCH_e2e.json

OLD and NEW are each either a BENCH_e2e.json file or a directory holding
e2ebench's `result-<workload>-<seed>-trace0.json` files (its .bench_out/).
For every workload in both and every end-to-end metric that BENCHMARK.json
declares, prints the old value, the new value and new/old, and flags a
metric that is worse than old by more than its declared bound. Exits 1 if
any metric is flagged or missing from NEW, 0 otherwise.

--collect DIR prints the BENCH_e2e.json form of the result files in DIR:
each workload's run stamp (git sha, source digest, nproc, ...), whether
its gates passed, and its end-to-end metrics.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def collect(directory):
    """BENCH_e2e.json form of the trace-0 result files in `directory`."""
    names = [m["name"] for m in end_to_end_spec()]
    workloads = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        res = json.loads(path.read_text())
        stamp = res["stamp"]
        if stamp["workload"] in workloads:
            sys.exit(f"bench_diff: more than one {stamp['workload']} result in "
                     f"{directory} (one seed per directory)")
        workloads[stamp["workload"]] = {
            "stamp": stamp,
            "correct": res["correct"],
            "metrics": {n: res["metrics"][n] for n in names if n in res["metrics"]},
        }
    if not workloads:
        sys.exit(f"bench_diff: no result-*-trace0.json files in {directory}")
    return {"workloads": workloads}


def load(path):
    path = Path(path)
    record = collect(path) if path.is_dir() else json.loads(path.read_text())
    return {w: r["metrics"] for w, r in record["workloads"].items()}


def worse_by(old, new, better):
    """Relative worsening of new against old (negative when it improved)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def diff(old, new):
    spec = end_to_end_spec()
    flagged = 0
    print(f"{'workload':14s} {'metric':18s} {'old':>12s} {'new':>12s} {'new/old':>8s}")
    for workload in sorted(old.keys() & new.keys()):
        for m in spec:
            name = m["name"]
            if name not in old[workload]:
                continue
            a = old[workload][name]
            if name not in new[workload]:
                print(f"{workload:14s} {name:18s} {a:12.6g} {'missing':>12s}  FLAG")
                flagged += 1
                continue
            b = new[workload][name]
            ratio = b / a if a else float("inf")
            flag = ""
            if a and worse_by(a, b, m["better"]) > m["bound"]:
                flag = f"  FLAG worse than bound {m['bound']}"
                flagged += 1
            print(f"{workload:14s} {name:18s} {a:12.6g} {b:12.6g} {ratio:8.3f}{flag}")
    for workload in sorted(old.keys() ^ new.keys()):
        side = "OLD" if workload in old else "NEW"
        print(f"{workload:14s} only in {side}, not compared")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--collect", metavar="DIR",
                    help="print the BENCH_e2e.json form of DIR's result files")
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    args = ap.parse_args()
    if args.collect:
        print(json.dumps(collect(args.collect), indent=1, sort_keys=True))
        return 0
    if not (args.old and args.new):
        ap.error("need OLD and NEW (or --collect DIR)")
    flagged = diff(load(args.old), load(args.new))
    print(f"{flagged} metric(s) worse than their bound" if flagged else
          "no metric worse than its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
