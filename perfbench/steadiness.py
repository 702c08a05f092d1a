#!/usr/bin/env python3
"""Measure how steady the benchmark is, the way its acceptance is judged.

usage (from the repository root):
  python3 perfbench/steadiness.py --workloads fig6_r1000,fig6_r100,serve_lock \
      --runs 10 [--first-seed 1] [--seconds S] [--traced] [--out FILE.json] \
      [--markdown FILE.md]

Runs each workload --runs times, each with its own seed, untraced, through
perfbench/run.py.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) /
median, next to the bound BENCHMARK.json gives the metric.  --traced adds one
traced run per workload (first seed) and records its tracing overhead and
layer times.  --out writes the numbers and every run's fingerprint as JSON;
--markdown renders them as a table.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace=0):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{result.stderr[-2000:]}")
    documents = [json.loads(line) for line in lines]
    return documents[-1], documents[:-1]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="fig6_r1000,fig6_r100,serve_lock")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--markdown")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    record = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        samples = {}
        fingerprints = []
        for run in range(args.runs):
            seed = args.first_seed + run
            result, info = run_once(workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
            fingerprints.extend(doc["fingerprint"] for doc in info if "fingerprint" in doc)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                  flush=True)
        hosts = {json.dumps(fp["host"], sort_keys=True) for fp in fingerprints}
        if len(hosts) > 1:
            print(f"warning: {workload} runs came from different hosts or builds: {hosts}",
                  flush=True)
        summary = {name: summarize(values) for name, values in samples.items()}
        record["workloads"][workload] = {"metrics": summary, "fingerprints": fingerprints}
        if args.traced:
            result, _ = run_once(workload, args.first_seed, seconds, trace=1)
            layers = {name: metric["value"] for name, metric in result["metrics"].items()}
            record["workloads"][workload]["traced"] = {
                "seed": args.first_seed, "correct": result["correct"], "layers": layers}
            print(f"{workload} traced: overhead {layers['trace.overhead_pct']:.2f} %, "
                  f"coverage {layers['trace.coverage']:.4f}", flush=True)
        print(f"\n{workload}: metric median [Q1, Q3] spread / bound")
        for name, stats in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:16s} {stats['median']:12.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] "
                  f"{stats['spread']:.4f} / {bound}{flag}")
        print(flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    if args.markdown:
        pathlib.Path(args.markdown).write_text(markdown(record, bounds, args))
    return 0


def markdown(record, bounds, args):
    """The record as tables: one per workload, plus traced-run layer times."""
    lines = []
    for workload, data in record["workloads"].items():
        host = data["fingerprints"][0]["host"] if data["fingerprints"] else {}
        seeds = f"{args.first_seed}..{args.first_seed + args.runs - 1}"
        lines += [f"### {workload}", "",
                  f"{args.runs} untraced runs, seeds {seeds}, --seconds {record['seconds']}; "
                  f"{host.get('cpu_model', '?')}, {host.get('nproc', '?')} CPUs, "
                  f"{host.get('compiler', '?')}, {host.get('build_type', '?')}.", "",
                  "| metric | median | Q1 | Q3 | spread (Q3-Q1)/median | bound | spread / bound |",
                  "| --- | --- | --- | --- | --- | --- | --- |"]
        for name, stats in data["metrics"].items():
            bound = bounds.get(name)
            ratio = f"{stats['spread'] / bound:.2f}" if bound else "-"
            lines.append(f"| `{name}` | {stats['median']:.5g} | {stats['q1']:.5g} | "
                         f"{stats['q3']:.5g} | {stats['spread']:.4f} | {bound} | {ratio} |")
        traced = data.get("traced")
        if traced:
            layers = traced["layers"]
            busy = {name: value for name, value in layers.items()
                    if name.endswith("_ms") and value and not name.startswith("trace.")}
            lines += ["", f"Traced run (seed {traced['seed']}, correct: {traced['correct']}): "
                      f"tracing overhead {layers['trace.overhead_pct']:.2f} %, "
                      f"coverage {layers['trace.coverage']:.4f}.", "",
                      "| layer metric | value |", "| --- | --- |"]
            lines += [f"| `{name}` | {value:.6g} |" for name, value in busy.items()]
        lines.append("")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
