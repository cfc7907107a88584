#!/usr/bin/env python3
"""End-to-end benchmark of this repository (see bench/e2e/README.md).

  bench/e2e/run.sh --seed=N               all four workloads, one process each
  bench/e2e/run.sh --workload W --seed N  one workload
  bench/e2e/run.sh --trace --seed=N       traced run: per-layer metrics, spans
  bench/e2e/run.sh --smoke                tiny graphs, 2 s phases
  bench/e2e/run.sh --compare SET_A SET_B  parent set vs change set

The measured time per workload is run_seconds of BENCHMARK.json (2 s
under --smoke). The invocation form `BENCHMARK.json`'s command is run
with, `--workload W --seed N --seconds S --trace 0|1`, is accepted too:
`--trace` then takes an explicit 0 or 1, and `--seconds` must repeat
run_seconds, so it cannot make two measurements differ in length.

Builds bench/e2e in Release under .bench_build/e2e, runs each workload in
its own process, prints every metric as `workload metric value unit`,
writes one JSON result (--out, default .bench_build/e2e/results/), and
prints the summary JSON object as the last line of stdout. Exits non-zero
when an output check fails or a run cannot complete.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "bench" / "e2e"
BUILD_DIR = ROOT / ".bench_build" / "e2e"
SMOKE_SECONDS = 2
# One workload process must finish well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 170
# Fewest parent/change pairs on which --compare may report a gain.
MIN_GAIN_PAIRS = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def parse_args(spec):
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(allow_abbrev=False,
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seconds", type=int, choices=[spec["run_seconds"]],
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args()
    args.trace = args.trace == "1"
    args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    args.workloads = [args.workload] if args.workload else workloads
    return args


# ------------------------------------------------------------------ build

def build(target):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator],
                    ["cmake", "--build", str(BUILD_DIR), "--target", target,
                     "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(command)}")


# --------------------------------------------------------------- running

def run_workload(name, args, spec):
    binary = BUILD_DIR / ("e2e_bench_trace" if args.trace else "e2e_bench")
    work_dir = BUILD_DIR / "work" / f"{name}-{os.getpid()}"
    command = [str(binary), f"--workload={name}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}", f"--work-dir={work_dir}"]
    if args.smoke:
        command.append("--smoke")
    trace_file = None
    if args.trace:
        trace_file = BUILD_DIR / "traces" / f"{name}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        command.append(f"--trace-out={trace_file}")
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{name}: benchmark process exited with "
                         f"{proc.returncode}")
    report = json.loads(lines[-1])
    report["wall_s"] = time.monotonic() - started
    if trace_file is not None:
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    check_metrics(name, report, spec, args.trace)
    return report


def check_metrics(name, report, spec, traced):
    """Every end-to-end metric present, finite and in its unit; layer
    metrics named in BENCHMARK.json. A layer metric a workload does not
    exercise is reported as 0."""
    for metric in spec["end_to_end"]:
        got = report["metrics"].get(metric["name"])
        if got is None or got["value"] is None or got["unit"] != metric["unit"]:
            raise SystemExit(f"{name}: end-to-end metric {metric['name']} "
                             f"missing, non-finite or not in {metric['unit']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for metric, got in report["layer_metrics"].items():
        if declared.get(metric) != got["unit"]:
            raise SystemExit(f"{name}: layer metric {metric} is not declared "
                             f"in BENCHMARK.json with unit {got['unit']}")
    if traced:
        report["not_exercised"] = sorted(set(declared) -
                                         set(report["layer_metrics"]))
        for metric in report["not_exercised"]:
            report["layer_metrics"][metric] = {"value": 0,
                                               "unit": declared[metric]}


def environment():
    nproc = len(os.sched_getaffinity(0))
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            caches.append({key: (index / key).read_text().strip()
                           for key in ("level", "type", "size",
                                       "shared_cpu_list")})
        except OSError:
            pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                    "--porcelain"],
                                   capture_output=True, text=True).stdout
            commit = lines[1] + ("-dirty" if dirty.strip() else "")
    except (OSError, IndexError):
        pass
    return {"commit": commit, "nproc": nproc, "undersized": nproc < 4,
            "cpu_model": cpu_model, "caches": caches}


def summary_line(reports, traced):
    key = "layer_metrics" if traced else "metrics"
    if len(reports) == 1:
        metrics = next(iter(reports.values()))[key]
    else:
        metrics = {f"{name}.{metric}": value
                   for name, report in reports.items()
                   for metric, value in report[key].items()}
    return json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    })


def measure(args, spec):
    build("e2e_bench_trace" if args.trace else "e2e_bench")
    env = environment()
    if env["undersized"]:
        log(f"warning: {env['nproc']} cores; the benchmark is sized for 4 "
            "(load threads + 2 serving workers); results flagged undersized")
    reports = {}
    for name in args.workloads:
        modes = (", traced" if args.trace else "") + \
                (", smoke" if args.smoke else "")
        log(f"== {name} (seed {args.seed}, {args.seconds:g} s{modes})")
        report = run_workload(name, args, spec)
        reports[name] = report
        attempted = max(report["attempted"], 1)
        report["error_ratio"] = report["failed"] / attempted
        shown = report["layer_metrics"] if args.trace else report["metrics"]
        for metric, value in shown.items():
            print(f"{name} {metric} {value['value']:.6g} {value['unit']}")
        print(f"{name} error_ratio {report['error_ratio']:.6g} ratio")
        for failure in report["failures"]:
            print(f"{name} CHECK FAILED: {failure}")
    result = {**env, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "workloads": reports}
    out = args.out
    if out is None:
        suffix = (f"-{args.workload}" if args.workload else "") + \
                 ("-trace" if args.trace else "") + \
                 ("-smoke" if args.smoke else "")
        out = BUILD_DIR / "results" / f"seed{args.seed}{suffix}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    log(f"result written to {out}")
    print(summary_line(reports, args.trace), flush=True)
    return 0 if all(r["correct"] for r in reports.values()) else 1


# --------------------------------------------------------------- compare

def load_set(path_text):
    """Result files of one side: a directory of *.json or a
    comma-separated list of files, in name order (the pairing order)."""
    files = []
    for part in path_text.split(","):
        path = Path(part)
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result files in {path_text}")
    return [json.loads(f.read_text()) for f in files]


def values_of(results, workload, metric):
    return [r["workloads"][workload]["metrics"][metric]["value"]
            for r in results if workload in r["workloads"]]


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a, b, metric):
    """A gain needs at least ten pairs, >= 9/10 of them won, and a median
    shift beyond the parent's IQR; with five pairs, identical code wins
    all five one time in sixteen. A parent spread wider than the bound
    leaves the metric unresolved, since a median shift of that size is
    then noise, unless every run of B beats every run of A. Otherwise a
    loss beyond the bound is a regression."""
    lower = metric["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    spread_a = iqr(a) / med_a
    if (len(pairs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(pairs)
            and better(med_b, med_a) and abs(med_b - med_a) > iqr(a)):
        return "improved", wins, len(pairs), worse_by, spread_a
    if spread_a > metric["bound"] and not all(better(y, x)
                                              for x in a for y in b):
        return "unresolved", wins, len(pairs), worse_by, spread_a
    if worse_by > metric["bound"]:
        return "regressed", wins, len(pairs), worse_by, spread_a
    return "unchanged", wins, len(pairs), worse_by, spread_a


def comparable(side_a, side_b):
    """Why two sides cannot be compared, or None. Every run must be a
    full (not smoke), untraced run, all of the same length, and either
    all or none undersized."""
    for name, side in (("A", side_a), ("B", side_b)):
        for result in side:
            if result.get("smoke"):
                return f"side {name} holds a --smoke run"
            if result.get("trace"):
                return f"side {name} holds a traced run"
    for key in ("seconds", "undersized"):
        seen = {r.get(key) for r in side_a + side_b}
        if len(seen) > 1:
            return f"runs differ in {key}: {sorted(seen, key=str)}"
    return None


def compare(args, spec):
    side_a, side_b = load_set(args.compare[0]), load_set(args.compare[1])
    refusal = comparable(side_a, side_b)
    if refusal is not None:
        log(f"cannot compare: {refusal}")
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<20} {'metric':<18} {'median A':>12} {'median B':>12} "
          f"{'worse by':>9} {'IQR/med A':>9} {'bound':>6} {'wins':>6}  verdict")
    regressed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = values_of(side_a, workload, metric["name"])
            b = values_of(side_b, workload, metric["name"])
            if not a or not b:
                continue
            name, wins, pairs, worse_by, spread = verdict(a, b, metric)
            regressed |= name == "regressed"
            print(f"{workload:<20} {metric['name']:<18} "
                  f"{statistics.median(a):>12.5g} "
                  f"{statistics.median(b):>12.5g} "
                  f"{worse_by:>+9.2%} {spread:>9.2%} {metric['bound']:>6.0%} "
                  f"{wins:>2}/{pairs:<3}  {name}")
    return 1 if regressed else 0


def main():
    spec = load_spec()
    args = parse_args(spec)
    if args.compare:
        return compare(args, spec)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
