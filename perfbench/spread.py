#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload svc-matrix-saturated \
        --seeds 1-10 --seconds 25 [--trace 0] [--baseline FILE --label L]

For every metric it prints the median, the first and third quartiles
(Python's statistics.quantiles, n=4), the sample count and the spread
(Q3 - Q1) / median that BENCHMARK.json's bounds are set against. Runs the
benchmark through `cargo run` from the repository root unless --bin names
an already built perfbench binary. Exits non-zero if any run fails.

--baseline FILE --label L records the summary as trajectory point L in
FILE (created if missing), tagged with the core count and the estimator.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(args, seed):
    if args.bin:
        cmd = [args.bin]
    else:
        cmd = ["cargo", "run", "--release", "--quiet", "--offline",
               "--manifest-path", "perfbench/Cargo.toml", "--"]
    cmd += ["--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: correctness check failed")
    return result


def summarise(runs):
    names = list(runs[0]["metrics"])
    rows = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--bin", help="prebuilt perfbench binary")
    ap.add_argument("--baseline", help="trajectory file to record the summary in")
    ap.add_argument("--label", help="trajectory point label (with --baseline)")
    args = ap.parse_args()
    if args.baseline and not args.label:
        ap.error("--baseline needs --label")

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args, seed))
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    rows = summarise(runs)
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds}")
    for name, r in rows.items():
        print(f"  {name:<24} median {r['median']:<14.6g} q1 {r['q1']:<14.6g} "
              f"q3 {r['q3']:<14.6g} spread {r['spread']:.4f} {r['unit']}")
    if args.baseline:
        record(args, rows)


def record(args, rows):
    """Store the summary as one workload of a labelled trajectory point."""
    path = os.path.join(ROOT, args.baseline)
    doc = {"points": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    point = next((p for p in doc["points"] if p["label"] == args.label), None)
    if point is None:
        point = {"label": args.label, "workloads": {}}
        doc["points"].append(point)
    point.update({
        "date": time.strftime("%Y-%m-%d"),
        "cores": os.cpu_count(),
        "estimator": "per run: median of timed pass times (host metrics), "
                     "median of set-ups, merged histograms over instances (sim); "
                     "across runs: median and quartiles "
                     "(statistics.quantiles n=4) over one run per seed",
        "run_seconds": args.seconds,
        "trace": args.trace,
    })
    point["workloads"][args.workload] = {
        "seeds": args.seeds,
        "metrics": {name: {k: r[k] for k in ("unit", "median", "q1", "q3", "n", "spread")}
                    for name, r in rows.items()},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
