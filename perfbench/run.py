#!/usr/bin/env python3
"""pmkm benchmark: builds the engine and the driver, runs one workload, and
prints its metrics; or compares two result files.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 20 \
        --trace 0 [--out results.jsonl]

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The lines above it list every metric the run measured, with unit and
sample count, and the host block. --out appends the full run record to a
JSON-lines result file.

Compare two result files (medians and quartiles per workload and metric,
judged by the bounds in BENCHMARK.json):

    python3 perfbench/run.py compare parent.jsonl change.jsonl

--workload all runs every workload in turn. The exit code is 0 only when
every job completed and passed its output checks. See perfbench/README.md
for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
DRIVER_TIMEOUT_S = 170
REPORT_PREFIX = "PERFBENCH_REPORT "


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver and pmkm_serve."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no pmkm source tree at {ROOT}; nothing to build")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return BUILD_DIR / "perfbench_driver"


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report, wanted):
    host = report["host"]
    probe = host["scaling_probe"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {int(report['trace'])}")
    print(f"host: nproc={host['nproc']} cpu='{host['cpu_model']}' "
          f"isa={host['isa']} kernel={host['kernel']} "
          f"compiler='{host['compiler']}' flags='{host['cxx_flags']}' "
          f"scaling={probe['efficiency']:.3f} over {probe['threads']} "
          f"threads x {probe['seconds']} s")
    if not host["valid"]:
        print("host: could not deliver parallelism; run marked INVALID")
    print(f"{'metric':34} {'value':>16} {'unit':10} {'samples':>7}  note")
    for name, m in report["metrics"].items():
        mark = "*" if name in wanted else " "
        print(f"{mark}{name:33} {fmt(m['value']):>16} {m['unit']:10} "
              f"{m['samples']:>7}  {m.get('note', '')}")
    print(f"jobs attempted {report['attempted']}  failed {report['failed']}"
          f"  failed_frac {fmt(float(report['failed_frac']))}"
          f"  model_digest {report.get('model_digest', '-')}")
    for error in report["errors"]:
        print(f"error: {error}")


def run(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; have {sorted(names)}")
    driver = build()
    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    cmd = [str(driver), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work_dir={work.relative_to(ROOT)}"]
    if args.trace:
        RESULTS_DIR.mkdir(exist_ok=True)
        trace_path = RESULTS_DIR / f"trace-{args.workload}-s{args.seed}.json"
        cmd.append(f"--trace_out={trace_path}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish in {DRIVER_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith(REPORT_PREFIX):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited {proc.returncode} without a report", 1)
    report = json.loads(lines[-1][len(REPORT_PREFIX):])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = report["metrics"]
    missing = [m["name"] for m in wanted
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    if missing:
        report["errors"].append(
            f"driver did not report {missing} in BENCHMARK.json units")
        report["correct"] = False
    print_report(report, {m["name"] for m in wanted})

    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(report) + "\n")

    ok = report["correct"] and report["failed"] == 0 and proc.returncode == 0
    result = {
        "correct": bool(ok),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            m["name"]: {"value": got[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted if m["name"] in got},
    }
    print(json.dumps(result))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare


def load_records(path):
    records, invalid = [], 0
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if r["host"]["valid"]:
                records.append(r)
            else:
                invalid += 1
    if invalid:
        print(f"{path}: ignoring {invalid} run(s) marked invalid by the "
              "host scaling probe")
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values_of(records, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and bool(r["trace"]) == trace
            and metric in r["metrics"]]


def verdict(old, new, bound, lower_better):
    """better / worse / unchanged by the bound; unresolved when either
    side's own spread exceeds the bound (unless every run of one side beats
    every run of the other)."""
    def better(a, b):
        return a < b if lower_better else a > b
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    spread = max((o3 - o1) / om if om else 0.0, (n3 - n1) / nm if nm else 0.0)
    if spread > bound:
        if all(better(n, o) for n in new for o in old):
            return "better"
        if all(better(o, n) for n in new for o in old):
            return "worse"
        return "unresolved"
    change = (nm - om) / om if om else 0.0
    worse_by = change if lower_better else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(old_path, new_path):
    spec = load_spec()
    old, new = load_records(old_path), load_records(new_path)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':18} {'metric':18} {'old q1/med/q3':>34} "
          f"{'new q1/med/q3':>34} {'delta':>8} {'bound':>6}  verdict")
    worse = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            ov = values_of(old, w, False, m["name"])
            nv = values_of(new, w, False, m["name"])
            if not ov or not nv:
                continue
            o, n = quartiles(ov), quartiles(nv)
            v = verdict(ov, nv, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            delta = (n[1] - o[1]) / o[1] if o[1] else 0.0
            print(f"{w:18} {m['name']:18} "
                  f"{'/'.join(fmt(float(x)) for x in o):>34} "
                  f"{'/'.join(fmt(float(x)) for x in n):>34} "
                  f"{delta:>+8.1%} {m['bound']:>6}  {v}"
                  f"  (n={len(ov)}/{len(nv)})")
    print()
    print("per-layer medians from traced runs (no bounds):")
    for w in workloads:
        for m in spec["per_layer"]:
            ov = values_of(old, w, True, m["name"])
            nv = values_of(new, w, True, m["name"])
            if not ov or not nv:
                continue
            om, nm = statistics.median(ov), statistics.median(nv)
            delta = f"{(nm - om) / om:+.1%}" if om else "-"
            print(f"  {w:18} {m['name']:34} {fmt(float(om)):>14} -> "
                  f"{fmt(float(nm)):>14} {m['unit']:10} {delta:>8}")
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        a = p.parse_args(sys.argv[2:])
        return compare(a.old, a.new)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload of BENCHMARK.json, or 'all' for each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run record to this JSONL file")
    args = p.parse_args()
    if args.workload != "all":
        return run(args)
    codes = [run(argparse.Namespace(**{**vars(args), "workload": w["name"]}))
             for w in load_spec()["workloads"]]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
