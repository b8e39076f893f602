#!/usr/bin/env python3
"""Repeated runs of the benchmark, summarised the way its bounds are checked.

Runs the command in BENCHMARK.json once per (workload, seed), from the
repository root, and reports for every end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the first and third quartile as a share of the median.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/evidence/set-a.json
    python3 perfbench/steadiness.py --workloads interactive --seeds 1-5

--binary runs a prebuilt benchmark executable instead of the command, e.g.
a copy built from another commit when comparing two commits run by run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    fingerprint = next(
        (l.split()[1] for l in lines if l.startswith("fingerprint:")), None)
    return result, fingerprint, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write the runs and the summary as JSON here")
    ap.add_argument("--binary", help="prebuilt benchmark executable to run instead")
    a = ap.parse_args()
    command = spec["command"]
    if a.binary:
        # Keep the environment prefix (everything before `cargo`).
        command = command[: command.index("cargo")] + [a.binary]

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": a.seconds, "workloads": {}}
    for workload in a.workloads.split(","):
        runs = []
        for seed in seed_list(a.seeds):
            result, fingerprint, wall = run_once(command, workload, seed, a.seconds)
            runs.append({
                "seed": seed, "wall_s": round(wall, 2), "fingerprint": fingerprint,
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
        names = runs[0]["metrics"].keys()
        stats = {}
        for name in names:
            s = summary([r["metrics"][name] for r in runs])
            s["bound"] = bounds.get(name)
            stats[name] = s
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread} "
                  f"(bound {s['bound']})", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": stats}
    if a.out:
        Path(a.out).parent.mkdir(parents=True, exist_ok=True)
        Path(a.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
