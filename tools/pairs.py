"""Paired benchmark runs of two commits, each from a fresh copy of its tree.

    python3 tools/pairs.py --base HEAD~1                        # 10 pairs, 30 s runs
    python3 tools/pairs.py --base HEAD~1 --workloads hsw --pairs 4 --seconds 10

For each workload, pair i runs ``python3 perfbench/run.py --workload W --seed
S --seconds T --trace 0`` once on each side with seed S = ``--first-seed`` +
i.  The side that runs first alternates from pair to pair, and only one run
is alive at a time.  Each side runs in a ``git archive`` export of its
commit (``--base``, and ``--change``, HEAD by default) in one temporary
directory, removed at the end, so both run from the same kind of fresh
tree and uncommitted edits are not measured.  Before the pairs, each side's
tier-1 suite is timed once.  Every child process has a timeout, so the
script leaves nothing running.

The result goes to ``BENCH_<base short sha>.json`` at the repository root.
For every end-to-end metric of BENCHMARK.json it holds each side's runs,
median and quartiles, the pairs the change won and tied, the ratio of the
medians, and whether the gain rule holds: the change wins at least 9 of
every 10 pairs and the medians differ by more than the base's interquartile
range.  It also records the machine, Python and NumPy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIER1_TIMEOUT_S = 1800
GIT_TIMEOUT_S = 120


def summarise(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``' default method) of the runs."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def compare(pairs: list[tuple[float, float]], better: str) -> dict:
    """One metric over (base, change) pairs: each side's summary, wins, ties and the gain rule.

    A pair is won when the change's value is better in the metric's
    direction; equal values count for neither side.
    """
    base, change = [b for b, _ in pairs], [c for _, c in pairs]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    base_s, change_s = summarise(base), summarise(change)
    gap = sign * (change_s["median"] - base_s["median"])
    return {
        "better": better,
        "base": {**base_s, "runs": base},
        "change": {**change_s, "runs": change},
        "change_wins": wins,
        "ties": sum(c == b for b, c in pairs),
        "pairs": len(pairs),
        "ratio": change_s["median"] / base_s["median"] if base_s["median"] else None,
        "gain_rule": 10 * wins >= 9 * len(pairs) and gap > base_s["q3"] - base_s["q1"],
    }


def aggregate(runs: list[tuple[dict, dict]]) -> dict:
    """(base, change) run.py results of one workload -> every end-to-end metric compared."""
    return {
        "metrics": {m["name"]: dict(compare([(b["metrics"][m["name"]]["value"],
                                              c["metrics"][m["name"]]["value"])
                                             for b, c in runs], m["better"]),
                                    unit=m["unit"], bound=m["bound"])
                    for m in SPEC["end_to_end"]},
        "failed": {"base": sum(b["failed"] for b, _ in runs),
                   "change": sum(c["failed"] for _, c in runs)},
        "attempted": {"base": sum(b["attempted"] for b, _ in runs),
                      "change": sum(c["attempted"] for _, c in runs)},
    }


def bench_path(short_sha: str) -> Path:
    return ROOT / f"BENCH_{short_sha}.json"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=GIT_TIMEOUT_S).stdout.strip()


def export(rev: str, tree: Path) -> None:
    """The committed files of ``rev`` as a new directory ``tree``."""
    tar = tree.with_suffix(".tar")
    git("archive", "--output", str(tar), rev)
    tree.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(tree)], check=True,
                   timeout=GIT_TIMEOUT_S)
    tar.unlink()


def compile_tree(root: Path) -> None:
    """Write the bytecode of qinfo and perfbench, so that no timed run compiles it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=root,
                   check=True, capture_output=True, timeout=GIT_TIMEOUT_S)


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600 + 20 * seconds)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])   # run.py's result line


def time_tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True,
                          timeout=TIER1_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--change", default="HEAD", help="git revision to measure")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(WORKLOADS) or args.pairs < 1 or args.seconds <= 0:
        ap.error(f"workloads must be among {WORKLOADS}, with --pairs >= 1 and --seconds > 0")

    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("change", args.change))}
    record = {
        **revs,
        "machine": machine(),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "pairs": args.pairs, "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
        "order": "base first in even pairs (counting from 0), change first in odd ones",
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = {side: Path(tmp) / side for side in revs}
        for side, root in sides.items():
            export(revs[side], root)
            compile_tree(root)
        record["tier1"] = {side: time_tier1(root) for side, root in sides.items()}
        print(f"tier-1: {record['tier1']}", file=sys.stderr)
        record["workloads"] = {}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(record["seeds"]):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got = {side: run_bench(sides[side], workload, seed, args.seconds)
                       for side in order}
                runs.append((got["base"], got["change"]))
                tput = {s: r["metrics"]["adj_throughput"]["value"] for s, r in got.items()}
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      f"adj_throughput base {tput['base']:.6g} change {tput['change']:.6g}",
                      file=sys.stderr)
            record["workloads"][workload] = aggregate(runs)
    out = bench_path(git("rev-parse", "--short", revs["base"]))
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
