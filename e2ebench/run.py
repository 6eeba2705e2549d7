#!/usr/bin/env python3
"""End-to-end benchmark of mpcspan's two user paths.

Run from the repository root:

    python3 e2ebench/run.py --workload build_inproc --seed 7 --seconds 10 --trace 0

Workloads (all on one seeded G(n=20000, m=2M) graph with a Hamiltonian
overlay, uniform weights below 100, the dist-tradeoff plan at k=8 with
3-level sketches):

    build_inproc   generate -> buildArtifact + saveArtifactFile, 4 lanes x 1 shard
    build_sharded  the same at 4 shards x 1 lane (shm ring, pipelined rounds)
    serve_floor    the seed's artifact behind a serve::Server with 4 session
                   threads; 4 closed-loop clients at deadline 0 (sketch floor)
    serve_exact    the same at an unbounded deadline (exact Dijkstra answers)

The script builds the `e2e` program from source (CMake, into .bench_build/),
runs it, checks the correctness gates, prints every metric by name with its
unit, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end set;
with --trace 1 the per_layer set, plus a Chrome trace-event file and a flat
self/total span table. Any failed check prints "correct": false and exits 1.
Outputs land in .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# workload -> (path it measures, engine config or serve mode)
WORKLOADS = {
    "build_inproc": ("build", "inproc"),
    "build_sharded": ("build", "sharded"),
    "serve_floor": ("serve", "floor"),
    "serve_exact": ("serve", "exact"),
}

# A run after the build must finish within this many seconds.
RUN_BUDGET_S = 170


def die(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def child_env():
    # Engine knobs from the caller's environment would change the workload.
    return {k: v for k, v in os.environ.items() if not k.startswith("MPCSPAN_")}


def build_program():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no mpcspan sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "e2e", "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT,
                                 env=child_env())
            if rc != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build step failed ({' '.join(cmd[:2])}); log in {log}")
    return bdir / "e2e"


def run_child(argv, deadline):
    """Runs one program invocation in its own process group; echoes its
    output and returns (exit code, parsed E2E_RESULT or None)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        die("run budget exhausted")
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{argv[1]} did not finish within the run budget")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays, if the program crashed
        except ProcessLookupError:
            pass
    result = None
    for line in out.splitlines():
        if line.startswith("E2E_RESULT "):
            result = json.loads(line[len("E2E_RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def source_digest():
    """sha256 over the sources the program is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "bench" / "bench_common.hpp"]
    for d in ("src", HERE.name):
        files += sorted(p for p in (ROOT / d).rglob("*")
                        if p.is_file() and p.suffix in (".cc", ".hpp", ".txt", ".py"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def merge_traces(paths, dest):
    events = []
    for p in paths:
        if p and Path(p).is_file():
            events += json.loads(Path(p).read_text()).get("traceEvents", [])
            Path(p).unlink()
    dest.write_text(json.dumps({"displayTimeUnit": "ms", "traceEvents": events}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())

    program = build_program()
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    kind, serve_mode = WORKLOADS[args.workload]
    common = ["--seed", str(args.seed), "--trace", str(args.trace),
              "--workdir", str(OUT)]
    artifact = OUT / f"artifact-{args.seed}.mpqa"
    if kind == "build":
        # The measured builds with every equivalence gate, then a 3 s pass
        # over the saved artifact at the sketch floor: the serve half of the
        # user path, plus the reload and audit gates.
        build = ["--config", serve_mode, "--seconds", str(args.seconds),
                 "--min-builds", "3", "--gates", "1"]
        serve = ["--mode", "floor", "--seconds", "3", "--setups", "1",
                 "--warmup", "0.5"]
    else:
        # The served artifact is an input: its own process builds it with
        # the in-process engine before the daemon starts.
        build = ["--config", "inproc", "--seconds", "0", "--min-builds", "2",
                 "--gates", "0"]
        serve = ["--mode", serve_mode, "--seconds", str(args.seconds),
                 "--setups", "3", "--warmup", "1" if serve_mode == "floor" else "2"]

    failures = []
    children = []  # (role, exit code, result)
    try:
        for role, flags in (("build", build), ("serve", serve)):
            rc, res = run_child([str(program), role, "--artifact", str(artifact)]
                                + flags + common, deadline)
            children.append((role, rc, res))
            if rc != 0 or res is None:
                break
    finally:
        artifact.unlink(missing_ok=True)

    metrics, samples, info = {}, {}, {}
    attempted = failed = 0
    primary = "build" if kind == "build" else "serve"
    for role, rc, res in sorted(children, key=lambda c: c[0] == primary):
        if res is None:
            failures.append(f"{role}: no result (exit code {rc})")
            continue
        if rc != 0 and not res["failed_checks"]:
            failures.append(f"{role}: exit code {rc}")
        failures += [f"{role}: {c}" for c in res["failed_checks"]]
        attempted += res["attempted"]
        failed += res["failed"]
        samples.update({f"{role}.{k}": v for k, v in res["samples"].items()})
        info[role] = res["info"]
        # Both processes report set-up and memory; the workload's own path
        # (merged last) supplies them. Every other metric has one source.
        metrics.update(res["metrics"])
    if len(children) == 2 and all(c[2] for c in children):
        built, served = info["build"], info["serve"]
        for key in sorted(k for k in built if k.startswith("artifact.")):
            if built[key] != served.get(key):
                failures.append(f"reloaded {key} {served.get(key)} != built {built[key]}")
    elif not failures:
        failures.append("the serve step did not run")
    failed += len(failures)
    attempted = max(attempted, 1)
    metrics["ok_frac"] = 1.0 - failed / attempted

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_metrics = {}
    for m in wanted:
        v = metrics.get(m["name"])
        if v is None or not math.isfinite(v) or (not args.trace and v <= 0):
            failures.append(f"metric {m['name']} missing or not positive: {v}")
            continue
        out_metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": info.get(primary, {}).get("build_type", "unknown"),
        "lanes": info.get(primary, {}).get("lanes"),
        "samples": samples,
    }
    print()
    print(f"{'metric':36s} {'value':>16s}  unit")
    counts = {"p50_us": "serve.latency_samples", "p99_us": "serve.latency_samples",
              "qps": "serve.window_queries", "build_s": "build.builds",
              "build_cpu_s": "build.builds",
              "setup_s": "build.setups" if kind == "build" else "serve.serve_setups"}
    for name, mv in out_metrics.items():
        n = samples.get(counts.get(name))
        note = f"  (n={n:.0f})" if n is not None and not args.trace else ""
        print(f"{name:36s} {mv['value']:16.6g}  {mv['unit']}{note}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        merge_traces([r[2]["info"].get("chrome_trace") for r in children if r[2]],
                     trace_path)
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    for f in failures:
        print(f"FAILED: {f}")

    correct = not failures
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "correct": correct, "failures": failures,
                    "metrics": metrics, "info": info}, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
