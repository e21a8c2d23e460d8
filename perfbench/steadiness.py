#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json (untraced) once per seed for each
workload, and repeats that whole set of runs with the same seeds. For
each set, workload and metric it reports the median and the spread,
(q3 - q1) / median, with the quartiles from statistics.quantiles(values,
n=4); a spread is compared with the metric's bound and with a third of
it. Between the sets it reports the drift: how much worse the second
median is than the first, as a share of the first, against the bound.

    python3 perfbench/steadiness.py [--seeds 1,2,...] [--sets 2]
                                    [--workloads a,b]
                                    [--out perfbench/STEADINESS.md]

Run it from the repository root.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time


def steal_seconds():
    """CPU time the hypervisor gave to other guests, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    stolen = steal_seconds()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    stolen = steal_seconds() - stolen
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    # Metrics printed in the table but left out of the result line.
    for line in lines[:-1]:
        m = re.match(r"^(\w+)\s+([\d.]+)\s+(\S+)\s+\d+$", line)
        if m and m.group(1) not in result["metrics"]:
            result["metrics"][m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    return result, wall, stolen


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, ((q3 - q1) / med if med else 0.0)


def drift(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    worse = second - first if better == "lower" else first - second
    return worse / first


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="perfbench/STEADINESS.md")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = [int(s) for s in opts.seeds.split(",")]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in names if n in opts.workloads.split(",")]
    specs = bench["end_to_end"]
    bounded = {spec["name"] for spec in specs}

    # values[set][workload][metric] -> one value per seed
    values = [{name: {} for name in names} for _ in range(opts.sets)]
    runs = {name: [] for name in names}
    for s in range(opts.sets):
        for name in names:
            for seed in seeds:
                result, wall, stolen = run_once(bench["command"], name, seed,
                                                bench["run_seconds"])
                runs[name].append((s + 1, seed, wall, stolen))
                for metric, v in result["metrics"].items():
                    values[s][name].setdefault(metric, []).append(v["value"])
                print(f"set {s + 1} {name} seed {seed}: {wall:.1f} s, steal {stolen:.1f} s",
                      file=sys.stderr, flush=True)

    out = ["# Steadiness of the end-to-end metrics", ""]
    out.append(f"`python3 perfbench/steadiness.py --seeds {opts.seeds} --sets {opts.sets}` "
               f"on {os.cpu_count()} CPUs, kernel {platform.release()}, "
               f"{bench['run_seconds']} s runs, untraced, one run per seed in each set; "
               "the sets run one after the other with the same seeds. Spread = "
               "(q3 - q1) / median over a set's runs; drift = how much worse the "
               "last set's median is than the first's, as a share of the first. "
               "Flags: `~` at a third of the bound or more, `!` above the bound "
               "(the spread of `setup_s` is not bounded, only its drift).")
    for name in names:
        out += ["", f"## {name}", ""]
        for s in range(opts.sets):
            walls = [r[2] for r in runs[name] if r[0] == s + 1]
            steals = [r[3] for r in runs[name] if r[0] == s + 1]
            out.append(f"Set {s + 1}: run wall time median {statistics.median(walls):.1f} s, "
                       f"max {max(walls):.1f} s; CPU time stolen by the hypervisor per run "
                       f"(seed order): {', '.join(f'{x:.1f}' for x in steals)} s.")
            out.append("")
        head = "| metric | unit | bound |"
        rule = "|---|---|---:|"
        for s in range(opts.sets):
            head += f" median {s + 1} | spread {s + 1} |"
            rule += "---:|---:|"
        head += " drift | |"
        rule += "---:|---|"
        out += [head, rule]
        for spec in specs:
            metric, bound = spec["name"], spec["bound"]
            row = f"| {metric} | {spec['unit']} | {bound} |"
            worst = 0.0
            meds = []
            for s in range(opts.sets):
                v = values[s][name].get(metric, [])
                if len(v) < 2:
                    row += " missing | |"
                    worst = float("inf")
                    continue
                med, sp = spread(v)
                meds.append(med)
                row += f" {med:.6g} | {sp:.3f} |"
                if metric != "setup_s":
                    worst = max(worst, sp)
            d = drift(meds[0], meds[-1], spec["better"]) if len(meds) > 1 else 0.0
            worst = max(worst, d)
            flag = "!" if worst > bound else ("~" if worst >= bound / 3 else "")
            out.append(row + f" {d:+.3f} | {flag} |")
        extra = sorted({m for s in range(opts.sets) for m in values[s][name]} - bounded)
        if extra:
            out += ["", "Printed only, no bound:", "", head.replace(" bound |", ""),
                    rule.replace("---:|", "", 1)]
            for metric in extra:
                row = f"| {metric} | |"
                meds = []
                for s in range(opts.sets):
                    v = values[s][name].get(metric, [])
                    med, sp = spread(v) if len(v) > 1 else (0.0, 0.0)
                    meds.append(med)
                    row += f" {med:.6g} | {sp:.3f} |"
                d = drift(meds[0], meds[-1], "lower") if len(meds) > 1 else 0.0
                out.append(row + f" {d:+.3f} | |")
    with open(opts.out, "w") as f:
        f.write("\n".join(out) + "\n")
    print("\n".join(out))


if __name__ == "__main__":
    main()
