"""Benchmark of tube-dissip: seeded workloads timed end to end, or traced layer by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {verify,analysis,control} --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout; without it the run
stops with exit code 2.  ``--trace 0`` times the workload with nothing
installed in the library and prints the end-to-end metrics, in reference
seconds (see ``workloads``).  ``--trace 1`` makes one pass with a span
around every call into a layer and one pass without, and prints the
per-layer metrics and the tracing overhead, also in reference seconds; its
spans go to ``.bench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("verify", "analysis", "control")
SETUP_SAMPLES = 5
SETUP_PROBE_TIMEOUT_S = 60
SETUP_CAL_SAMPLES = 9
PERCENTILE_BAND = 0.005


class SetupError(RuntimeError):
    pass


def per_layer_metrics() -> list[dict]:
    """The per-layer metrics a traced run prints; absent ones read 0, and the trace file has all."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no {path}")
    return json.loads(path.read_text())["per_layer"]


def set_up(workload: str):
    """Import the checkout's ``tube_dissip`` and warm every operation kind.

    Returns the workloads module and the set-up time in raw and in reference
    seconds; the import of the benchmark's own modules is not timed.
    """
    if not (SRC / "tube_dissip" / "__init__.py").is_file():
        raise SetupError(f"no tube_dissip package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    t0 = time.perf_counter()
    import tube_dissip
    import tube_dissip.acceptance  # noqa: F401  (not imported by the package)

    raw = time.perf_counter() - t0
    if Path(tube_dissip.__file__).resolve().parent != (SRC / "tube_dissip").resolve():
        raise SetupError(f"imported tube_dissip from {tube_dissip.__file__}, not from {SRC}")
    import workloads

    t0 = time.perf_counter()
    workloads.warm_up(workload)
    raw += time.perf_counter() - t0
    speed = workloads.SpeedLog()
    for _ in range(SETUP_CAL_SAMPLES - 1):
        speed.sample()
    return workloads, (raw, raw * workloads.REFERENCE_S / statistics.median(speed.samples()))


def probe_setup(workload: str) -> tuple[float, float]:
    """Set-up time of one fresh process, raw and in reference seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    raw, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(ref)


def percentile(values: list[float], q: float) -> float:
    """The q-quantile, as the mean of the values ranked within PERCENTILE_BAND of it.

    A single order statistic carries the whole timing noise of one call;
    the band's mean (30 of 3,000 calls at p99) averages that noise out and
    still describes the tail.
    """
    ordered = sorted(values)
    lo = max(0, math.floor((q - PERCENTILE_BAND) * len(ordered)))
    hi = max(lo + 1, min(len(ordered), math.ceil((q + PERCENTILE_BAND) * len(ordered))))
    return statistics.fmean(ordered[lo:hi])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def end_to_end(workload, ops, seconds, latencies, setups) -> tuple[dict, list[str]]:
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_s": (math.fsum(seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_p50_ms": (1e3 * percentile(latencies, 0.50), "ms"),
        "op_p99_ms": (1e3 * percentile(latencies, 0.99), "ms"),
    }
    # the workload's own names for the same figures, for the report
    report = []
    if workload == "control":
        sweeps = [t for op, t in zip(ops, seconds) if op.kind == "sweep"]
        report += [
            f"tmpc_p50_ms {metrics['op_p50_ms'][0]:.4f} ms ({len(latencies)} queries)",
            f"tmpc_p99_ms {metrics['op_p99_ms'][0]:.4f} ms",
            f"sweep_s {statistics.median(sweeps):.4f} s (median of {len(sweeps)} sweeps)",
        ]
    else:
        report += [
            f"query_p50_ms {metrics['op_p50_ms'][0]:.4f} ms ({len(latencies)} queries)",
            f"query_p99_ms {metrics['op_p99_ms'][0]:.4f} ms",
        ]
    report.append(f"setup_s samples {', '.join(f'{ref:.4f}' for _, ref in setups)}")
    return metrics, report


def layer_table(per_layer: dict, wall_s: float) -> list[str]:
    lines = [f"{'layer':<16}{'self_s':>10}{'share':>8}"]
    layers = sorted((k.split(".")[1], v) for k, v in per_layer.items() if k.startswith("layer."))
    for name, self_s in layers:
        lines.append(f"{name:<16}{self_s:>10.4f}{self_s / wall_s:>8.1%}")
    rest = wall_s - sum(v for _, v in layers)
    lines.append(f"{'(benchmark)':<16}{rest:>10.4f}{rest / wall_s:>8.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workloads, setup_s = set_up(args.workload)
        if args.setup_probe:
            print(*map(repr, setup_s))
            return 0
        per_layer = per_layer_metrics()
        setups = [setup_s]
        if not args.trace:
            setups += [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2

    env = environment()
    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        from spans import Tracer, aggregate

        speed = workloads.SpeedLog()
        with Tracer() as tracer:
            outcomes, _ = workloads.execute(ops, speed)
        untraced, _ = workloads.execute(ops, speed)
        # scaled once all samples are in: a stretch's scale uses the samples after it
        traced_wall_s = math.fsum(speed.reference_seconds([(o.start, o.end) for o in outcomes]))
        untraced_wall_s = math.fsum(speed.reference_seconds([(o.start, o.end) for o in untraced]))
        layers = aggregate(tracer.spans, speed.reference_seconds([(s.start, s.end) for s in tracer.spans]))
        layers["trace.wall_s"] = traced_wall_s
        layers["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        layers["trace.spans"] = len(tracer.spans)
        print(f"traced wall_s {traced_wall_s:.4f} s, untraced {untraced_wall_s:.4f} s, "
              f"overhead {traced_wall_s - untraced_wall_s:+.4f} s over {len(tracer.spans)} spans")
        print("\n".join(layer_table(layers, traced_wall_s)))
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in per_layer}
    else:
        speed = workloads.SpeedLog()
        outcomes, queries = workloads.execute(ops, speed)
        seconds = speed.reference_seconds([(o.start, o.end) for o in outcomes])
        latencies = speed.reference_seconds(queries)
        cal = speed.samples()
        raw_latencies = [end - start for start, end in queries]
        raw = {
            "setup_s": statistics.median(r for r, _ in setups),
            "wall_s": math.fsum(o.seconds for o in outcomes),
            "op_p50_ms": 1e3 * percentile(raw_latencies, 0.50),
            "op_p99_ms": 1e3 * percentile(raw_latencies, 0.99),
        }
        print("raw " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()) + "; calibration median "
              f"{statistics.median(cal) / workloads.REFERENCE_S:.3f}x reference, range "
              f"{min(cal) / workloads.REFERENCE_S:.3f}-{max(cal) / workloads.REFERENCE_S:.3f}x "
              f"over {len(cal)} samples")

    records = workloads.failures(ops, outcomes)
    failed = len(records)
    wrong = sum("wrong" in r for r in records)
    known = sum(r.get("known_defect", False) for r in records)
    correct = workloads.correct(ops, records)
    print(f"fail_ratio {failed / len(outcomes):.6f} ({failed} of {len(outcomes)} operations; "
          f"{wrong} wrong answers, {known} raised defect D1, {failed - wrong - known} other raises)")
    for r in records[:20]:
        print("failure " + json.dumps(r))

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "environment": env, "failures": records}
    if args.trace:
        detail["per_layer"] = layers
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    else:
        detail["raw"] = raw
        e2e, report = end_to_end(args.workload, ops, seconds, latencies, setups)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print("\n".join(report))
    detail["metrics"] = metrics
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1))

    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
