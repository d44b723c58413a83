#!/usr/bin/env python3
"""Repository benchmark: build the libraries from source, run one workload,
check every map against its reference, and print the metrics.

    python3 perfbench/run.py --workload sweep-fp32 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The last line of stdout is one JSON object
with exactly the keys correct, attempted, failed and metrics; metrics holds
the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). Everything else (sample counts, derived figures, the host and
config record) goes to the lines before it and to
.bench_build/perfbench/results/.

Steadiness mode (--repeat K) runs the workload K times on seeds seed,
seed+1, ... and prints each metric's median, quartiles and spread against
its bound; --workload all runs every workload.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def serve_load(spec):
    """serve-open's rates and latency limit, as written in BENCHMARK.json."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve-open")
    ladder = re.search(r"ladder=([\d/]+)", why)
    low = re.search(r"low=(\d+)", why)
    high = re.search(r"high=(\d+)", why)
    limit = re.search(r"p99<=(\d+)ms", why)
    if not (ladder and low and high and limit):
        raise SystemExit("BENCHMARK.json: serve-open why must state "
                         "ladder=, low=, high= and p99<=..ms")
    return ["--ladder", ladder.group(1).replace("/", ","),
            "--low", low.group(1), "--high", high.group(1),
            "--p99-limit-ms", limit.group(1)]


def build():
    """Configure and build the benchmark (and the libraries) in Release."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the sources that make up the measured program, so a
    record names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "/.bench_build/" in f or "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # a source export without .git
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_times():
    """Aggregate /proc/stat CPU jiffies (user .. steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def host_load(before, after):
    """Share of host CPU time that was busy and that the hypervisor stole
    while the run lasted; a noisy neighbour shows up here."""
    if not before or not after:
        return None
    d = [b - a for a, b in zip(before, after)]
    total = sum(d) or 1
    return {"busy_share": round(1 - (d[3] + d[4]) / total, 4),
            "steal_share": round(d[7] / total, 4)}


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(spec, workload, seed, seconds, trace):
    """Run the binary once; returns its report (dict) and exit code."""
    work = os.path.join(BUILD_DIR, "work", f"{workload}-{seed}-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--out-dir", RESULTS_DIR]
    if workload == "serve-open":
        cmd += serve_load(spec)
    before = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    for name in os.listdir(work) if os.path.isdir(work) else []:
        os.remove(os.path.join(work, name))
    if os.path.isdir(work):
        os.rmdir(work)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no report "
                         f"(exit {proc.returncode})")
    report = json.loads(lines[-1])
    report.setdefault("info", {})["host_load"] = host_load(before,
                                                           cpu_times())
    return report, proc.returncode


def record(args, report):
    """Host and config record written beside the results."""
    info = report.get("info", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "platform": platform.platform()},
        "config": {
            "kernel_backend": info.get("kernel_backend"),
            "pool_threads": info.get("pool_threads"),
            "pdnn_env": {k: v for k, v in os.environ.items()
                         if k.startswith("PDNN_")},
            "build_type": build_type(),
            "git_commit": git_commit(),
            "source_digest": source_digest(),
            "shard_placement": info.get("shard_placement"),
        },
        "report": report,
    }


def print_table(report):
    for name, m in report["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:8s} "
              f"n={m['samples']}")
    info = report.get("info", {})
    for r in info.get("rungs", []):
        print(f"  rung {r['rate_rps']:g} req/s: attempted={r['attempted']} "
              f"succeeded={r['succeeded']} failed={r['failed']} "
              f"p50={r['p50_ms']:.3f} p99={r['p99_ms']:.3f} ms "
              f"(n={r['latency_samples']}) "
              f"gen_lag_p99={r['gen_lag_p99_ms']:.3f} ms "
              f"valid={r['valid']} meets={r['meets_limit']}")
    for key in ("op_is", "throughput_is", "op_windows",
                "speedup_golden_over_predict", "stage_accounting", "cost_parts",
                "shard_placement", "kernel_backend", "pool_threads",
                "host_load"):
        if key in info:
            print(f"  {key}: {json.dumps(info[key])}")


def result_line(spec, report, trace):
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            raise SystemExit(f"perfbench: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise SystemExit(f"perfbench: metric {m['name']} has unit "
                             f"{got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def single(spec, args):
    report, code = run_once(spec, args.workload, args.seed, args.seconds,
                            args.trace)
    rec = record(args, report)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(rec, f, indent=1)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}  (record: "
          f"{os.path.relpath(path, ROOT)})")
    print_table(report)
    line = result_line(spec, report, args.trace)
    print(json.dumps(line), flush=True)
    if code != 0 or not report["correct"]:
        sys.exit(1)
    return line


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(spec, args):
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    bounds = {m["name"]: m.get("bound")
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = {}
    for workload in workloads:
        values = {}
        failures = []
        attempted = failed = 0
        for k in range(args.repeat):
            seed = args.seed + k
            started = time.time()
            try:
                report, code = run_once(spec, workload, seed, args.seconds,
                                        args.trace)
                line = result_line(spec, report, args.trace)
            except SystemExit as e:
                failures.append({"seed": seed, "error": str(e)})
                log(f"{workload} seed={seed}: FAILED: {e}")
                continue
            if code != 0 or not report["correct"]:
                failures.append({"seed": seed, "error": "reference check"})
                log(f"{workload} seed={seed}: FAILED its reference check")
                continue
            attempted += line["attempted"]
            failed += line["failed"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"{workload} seed={seed}: {time.time() - started:.1f} s "
                f"{json.dumps({n: round(m['value'], 4) for n, m in line['metrics'].items()})} "
                f"host={json.dumps(report['info'].get('host_load'))}")
        rows = {}
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}, {failed} of {attempted} "
              f"operations failed")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:28s} median={med:12.6g} q1={q1:12.6g} "
                  f"q3={q3:12.6g} spread={spread:7.4f} "
                  f"bound={bound} {verdict}")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
        summary[workload] = {"metrics": rows, "failures": failures,
                             "attempted": attempted, "failed": failed}
        if failures:
            print(f"  FAILED runs: {failures}")
    print(json.dumps({"repeat": args.repeat, "summary": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run K seeds, print spreads")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names and not (args.repeat and
                                           args.workload == "all"):
        raise SystemExit(f"unknown workload {args.workload}: {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if args.repeat:
        repeat(spec, args)
    else:
        single(spec, args)


if __name__ == "__main__":
    main()
