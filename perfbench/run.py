#!/usr/bin/env python3
"""Build the ACT benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload diagnose|production|fleet_stream \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The build goes to `.bench_build`
(or $CARGO_TARGET_DIR when set). Everything the benchmark prints goes to
stdout; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics; a layer the workload does not use reads 0.

`--self-test` runs every workload at a tiny size, traced and untraced,
and fails unless every output check and the fleet shard-loop re-run
check pass and every metric is present.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("diagnose", "production", "fleet_stream")
# Processes per untraced run (fewer for diagnose: its set-up runs four
# full table5 diagnoses).
PROCESSES = {"diagnose": 3, "production": 5, "fleet_stream": 5}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "actbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            die("build step failed: %s" % error)
        if done.returncode != 0:
            die("build step failed: " + " ".join(step))
    return os.path.join(out, "actbench")


def load_metric_lists():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        die("cannot read BENCHMARK.json: %s" % error)
    return spec["end_to_end"], spec["per_layer"]


def run_once(binary, workload, seed, seconds, trace, small=False):
    """Run the binary once; return its parsed last line."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", os.path.join(build_dir(), "work")]
    if small:
        command.append("--small")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False,
                              universal_newlines=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        die("%s: %s" % (workload, error))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        die("%s exited with %d" % (workload, done.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("%s: last line is not JSON" % workload)


def select_metrics(result, wanted, fill_missing):
    """Keep exactly the metrics in @wanted, in its order."""
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(got) - names)
    if extra:
        die("undeclared metrics: " + ", ".join(extra))
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in got:
            metrics[name] = got[name]
        elif fill_missing:
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            die("missing metric " + name)
        if metrics[name]["unit"] != metric["unit"]:
            die("metric %s has unit %s, BENCHMARK.json says %s"
                % (name, metrics[name]["unit"], metric["unit"]))
    result["metrics"] = metrics
    return result


def run_processes(binary, workload, seed, seconds, end_to_end):
    """Split an untraced run over several processes and combine them.

    Each process draws its own address layout, which alone moves a
    workload's speed by up to 1.7x (README, Noise); one process per run
    would make every run one draw. Throughput is the mean over the
    processes, set-up time their median (one set-up each).
    """
    count = PROCESSES[workload]
    results = [select_metrics(run_once(binary, workload, seed,
                                       seconds / count, 0),
                              end_to_end, fill_missing=False)
               for _ in range(count)]
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        value = (statistics.median(values) if name == "setup_s"
                 else statistics.fmean(values))
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def self_test(binary, end_to_end, per_layer):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(binary, workload, 1, 1, trace, small=True)
            wanted = per_layer if trace else end_to_end
            result = select_metrics(result, wanted, fill_missing=trace == 1)
            passed = result["correct"] and result["failed"] == 0
            print("self-test %-12s trace %d: %s (%d operations)"
                  % (workload, trace, "ok" if passed else "FAILED",
                     result["attempted"]))
            ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    end_to_end, per_layer = load_metric_lists()
    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary, end_to_end, per_layer) else 1)

    if args.trace:
        result = run_once(binary, args.workload, args.seed, args.seconds, 1)
        result = select_metrics(result, per_layer, fill_missing=True)
    else:
        result = run_processes(binary, args.workload, args.seed,
                               args.seconds, end_to_end)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
