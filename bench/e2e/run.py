#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e/README.md).

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/e2e/run.py --workload all [--smoke] [--report-dir DIR]

One workload: builds bench_e2e from this source tree into .bench_build/e2e
(build output goes to stderr), runs it, and passes its output and exit code
through; the last stdout line is the result JSON. `all` runs every workload
of BENCHMARK.json in turn and exits nonzero when a run fails (a failed
operation or check, a non-finite metric) or when a per-layer metric of
BENCHMARK.json is measured by no workload. `--smoke` runs at seconds-scale
sizes, traced and untraced; it is the bench_e2e_smoke test.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
# Runs are sized to end well within three minutes; a hung run is killed.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then (re)builds; returns the bench_e2e path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no mvgnn sources at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "bench_e2e", "bench_e2e_compare"],
                   stdout=sys.stderr, check=True)
    return BUILD / "bench_e2e"


def run_workload(binary, workload, seconds, trace, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--benchmark", str(ROOT / "BENCHMARK.json"),
           "--work-dir", str(BUILD / "work")]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_dir:
        cmd += ["--trace-dir", str(args.trace_dir)]
    if args.report_dir:
        args.report_dir.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{trace}.json"
        cmd += ["--report", str(args.report_dir / name)]
    # subprocess.run kills and reaps the child on timeout.
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def check_result(proc):
    """Problems with one run, and the per-layer metrics it did not measure."""
    lines = proc.stdout.strip().splitlines()
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    unmeasured = set()
    for line in lines[:-1]:
        if line.startswith("unmeasured:"):
            unmeasured = set(line.split()[1:])
    if not lines:
        return problems + ["no output"], unmeasured
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return problems + [f"last line is not JSON: {e}"], unmeasured
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    return problems, unmeasured


def run_all(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or (1 if args.smoke else spec["run_seconds"])
    traces = (0, 1) if args.smoke else (args.trace,)
    failures = 0
    never_measured = {d["name"] for d in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in traces:
            proc = run_workload(binary, w["name"], seconds, trace, args)
            problems, unmeasured = check_result(proc)
            if trace:
                never_measured &= unmeasured
            print(f"== {w['name']} (trace {trace}): "
                  f"{'ok' if not problems else 'FAILED'}")
            for line in proc.stdout.strip().splitlines()[:-1]:
                print("  " + line)
            for p in problems:
                print("  FAILED: " + p)
            failures += bool(problems)
    if 1 in traces and never_measured:
        print("FAILED: no workload measures " + ", ".join(sorted(never_measured)))
        failures += 1
    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs; with all, run traced and untraced")
    ap.add_argument("--report-dir", type=Path, default=None,
                    help="write one BenchReport per run here (for "
                         "bench_e2e_compare)")
    ap.add_argument("--trace-dir", type=Path, default=None,
                    help="with --trace 1, also write the Chrome trace and a "
                         "metrics snapshot here (for mvgnn report)")
    ap.add_argument("--bin", type=Path, default=None,
                    help="use this bench_e2e binary instead of building one")
    args = ap.parse_args()

    binary = args.bin or build()
    if args.workload == "all":
        return run_all(binary, args)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    proc = run_workload(binary, args.workload, seconds, args.trace, args)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
