"""Run the benchmark several times and print every metric with its unit.

    python3 perfbench/report.py                     # all workloads, seeds 1..10
    python3 perfbench/report.py --runs 5 --workloads hsw,compress
    python3 perfbench/report.py --trace 1 --runs 1  # per-layer split

Each run is a fresh ``perfbench/run.py`` process, started only after the
previous one has ended.  For every metric the report prints the median over
the runs, the quartiles, and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json.  A traced report also prints each layer's
share of op time next to whether the workload was predicted to exercise or
to bypass that layer.  ``--out FILE`` stores the summary in FILE under
"end_to_end" or "per_layer", keeping the other key.

Exit status 1 when any run exits nonzero or fails an oracle.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Workloads on which each layer should carry op time; on the others it is
# predicted idle (share of op time below NOTICEABLE).
EXERCISED_ON = {
    "bb84": {"qkd-keygen", "qkd-audit"},
    "codes": {"qkd-keygen"},
    "rng": {"qkd-keygen", "qkd-audit"},
    "formats": {"qkd-audit"},
    "cli": {"qkd-audit", "compress"},
    "capacity": {"hsw"},
    "qentropy": {"hsw"},
    "states": {"hsw", "compress"},
    "typical": {"compress"},
    "entropy": {"compress"},
}
NOTICEABLE = 0.01

# Figures of an untraced run's record that are not gated metrics: the rate
# and the set-up times before the machine-speed adjustment, the speed
# itself, and the adjusted set-up time of the run's own process alone.
RECORD_FIGURES = {
    "throughput": ("1/s", lambda rec: rec["throughput"]),
    "machine_speed": ("ratio", lambda rec: rec["machine_speed"]),
    "setup_unadj_s": ("s", lambda rec: statistics.median(t for t, _ in rec["setups"])),
    "setup_first_s": ("s", lambda rec: rec["setups"][0][0] * rec["setups"][0][1]),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "exit": proc.returncode}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = next(json.loads(line[len("record "):]) for line in lines
                            if line.startswith("record "))
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, SPEC["run_seconds"], args.trace)
            ok &= bool(res.get("correct")) and res.get("failed", 1) == 0
            results.append(res)
            print(f"{workload} seed {seed}: correct={res.get('correct')} "
                  f"failed={res.get('failed')}/{res.get('attempted')}", flush=True)
        good = [r for r in results if "metrics" in r]
        if not good:
            continue
        attempted = sum(r["attempted"] for r in good)
        failed = sum(r["failed"] for r in good)
        summary[workload] = {"fail_rate": failed / attempted, "runs": len(results),
                             "record": good[0]["record"]}
        print(f"  fail_rate = {failed / attempted!r} ratio ({failed} of {attempted} ops)")
        rows = [(spec["name"], spec["unit"], spec.get("bound"),
                 [r["metrics"][spec["name"]]["value"] for r in good]) for spec in specs]
        if not args.trace:
            rows += [(name, unit, None, [figure(r["record"]) for r in good])
                     for name, (unit, figure) in RECORD_FIGURES.items()]
        for name, unit, bound, values in rows:
            s = summarise(values)
            summary[workload][name] = {**s, "unit": unit}
            bound = "" if bound is None else f" bound {bound}"
            spread = "" if s["spread"] is None else f" spread {s['spread']:.4f}{bound}"
            print(f"  {name} = {s['median']:.6g} {unit}"
                  f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}{spread})")
        if args.trace:
            print("  layer shares of traced op time (predicted / measured):")
            for layer, exercised in EXERCISED_ON.items():
                share = summary[workload][f"{layer}.self_share"]["median"]
                predicted = "exercised" if workload in exercised else "bypassed"
                agrees = (share >= NOTICEABLE) == (workload in exercised)
                print(f"    {layer:9s} {predicted:9s} {share:8.4f}"
                      f"{'' if agrees else '  <- differs from the prediction'}")

    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored["per_layer" if args.trace else "end_to_end"] = summary
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
