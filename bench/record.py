"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 bench/record.py --workloads verify analysis control --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/record.py --workloads verify --seeds 0 0 --trace --out bench/traced.json

Runs ``bench/run.py`` once per (workload, seed), one at a time, and prints
for every metric its median, quartiles and the quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``; untimed runs add the same timings before
scaling by the host's speed, as ``raw.<name>``.  ``--out`` also writes every
run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        # the same run's figures before scaling by the host's speed
        detail = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
        for name, value in detail["raw"].items():
            result["metrics"][f"raw.{name}"] = {"value": value, "unit": result["metrics"][name]["unit"]}
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    record = {"seconds": args.seconds, "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']}", flush=True)
        record["runs"][workload] = runs
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = summarise(values)
            if args.trace:
                summary[name]["repeats_exactly"] = len(set(values)) == 1
                continue
            s, bound = summary[name], bounds.get(name)
            flag = "" if bound is None else f"bound {bound:<5} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}  {flag}")
        record["summary"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
