#!/usr/bin/env python3
"""Run every workload, each run in its own fresh process, and summarise.

    python3 perfbench/suite.py                       # one run per workload
    python3 perfbench/suite.py --runs 10 --out perfbench/results/BENCH_x.json
    python3 perfbench/suite.py --trace               # add one traced run each

Runs go workload by workload within a seed, seed after seed, so that drift
on a shared machine spreads over every workload.  For each workload the
summary prints every end-to-end metric, gated and raw (median and quartiles
over the runs, with its unit), fail_ratio (failed over attempted
operations) and the pass count behind the tail percentile.  With ``--trace`` it also prints each
layer's self time per pass, the dominant layer, and how the self times add
up against the untraced pass time and the tracing overhead.

The result set written by ``--out`` is what compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, LAYERS, RAW  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process: its result line and its detail line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "detail": detail}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(runs: list[dict]) -> None:
    env = runs[0]["detail"]["env"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for workload in dict.fromkeys(r["workload"] for r in runs):
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if plain:
            print(f"{workload} ({len(plain)} runs)")
            rows = [(name, unit, [r["result"]["metrics"][name]["value"] for r in plain])
                    for name, unit in END_TO_END.items()]
            rows += [(name, unit, [r["detail"]["raw"][name] for r in plain])
                     for name, unit in RAW.items()]
            for name, unit, values in rows:
                q1, median, q3 = quartiles(values)
                print(f"  {name:<13} {median:10.4f} {unit:<3} "
                      f"[q1 {q1:.4f}, q3 {q3:.4f}, spread {(q3 - q1) / median:.1%}]")
            failed = sum(r["result"]["failed"] for r in plain)
            attempted = sum(r["result"]["attempted"] for r in plain)
            passes = [r["detail"]["passes"] for r in plain]
            pct = [r["detail"]["tail_percentile"] for r in plain]
            print(f"  {'fail_ratio':<13} {failed / attempted:10.4f}     "
                  f"[{failed}/{attempted} operations]")
            print(f"  passes per run {min(passes)}-{max(passes)}, tail percentile "
                  f"p{min(pct):.0f}-p{max(pct):.0f}")
            failed_ops = sorted({op for r in plain for op in r["detail"]["failed_ops"]})
            if failed_ops:
                print(f"  failed operations: {', '.join(failed_ops)}")
        for r in (r for r in runs if r["workload"] == workload and r["trace"]):
            m = {k: v["value"] for k, v in r["result"]["metrics"].items()}
            selfs = {layer: m[f"{layer}.self_s"] for layer in LAYERS}
            total = sum(selfs.values())
            print(f"{workload} traced (seed {r['seed']}): self seconds per pass")
            for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
                if seconds:
                    print(f"  {layer:<11} {seconds:9.4f} s  {seconds / total:6.1%}")
            print(f"  dominant layer {max(selfs, key=selfs.get)}; self times sum to "
                  f"{total:.4f} s against {m['trace.untraced_wall_s']:.4f} s untraced, "
                  f"tracing overhead {m['trace.overhead_s']:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of " + ",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the result set here")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            runs.append(run_one(workload, seed, args.seconds, 0))
            print(f"ran {workload} seed {seed}", file=sys.stderr)
    if args.trace:
        for workload in workloads:
            runs.append(run_one(workload, args.first_seed, args.seconds, 1))
    summarise(runs)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
