"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload qkd-keygen --seed 1 --seconds 20 --trace 0

Workloads: qkd-keygen, qkd-audit, hsw, compress (see workloads.py).  The run
builds the workload's fixtures, then runs whole passes of ops, closed loop,
until another pass would end after ``--seconds``.  Each op's output goes
through an oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics, with nothing installed in
qinfo.  After each op, outside its timing, a fixed pure-Python reference
kernel runs about once per REF_EVERY_S of op time, and after each set-up it
runs SETUP_REF_CALLS times.  ``adj_throughput`` and ``setup_s`` are scaled
by how fast the kernel ran next to them, so that the shared machine's drift
in speed cancels out (see ``reference_kernel``); the unscaled figures go to
the run record.

``--trace 1`` runs the passes untraced for half the time, then runs the same
passes again with the span wrappers of spans.py installed, checks that the
outputs are byte-identical, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print the run record and every metric by name with its unit.  A full record,
and the spans of a traced run, go to ``.perfbench_out/`` at the repository
root.  Run from a checkout of the repository: qinfo is imported from its
``src/`` directory, and the run exits with status 1 and no result if that is
missing.
"""

import time

START = time.perf_counter()   # setup_s counts from the script's first statement

import os  # noqa: E402

# One caller and no extra threads: pin the BLAS pools before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4   # fresh processes timed for setup_s besides this one
WORKLOAD_NAMES = ("qkd-keygen", "qkd-audit", "hsw", "compress")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "adj_throughput": "1/s"}
REF_LOOPS = 5_000       # text iterations of one reference_kernel call
REF_NOMINAL_S = 0.009   # one call's time at the speed adj_throughput is quoted at
REF_EVERY_S = 0.2       # op time per reference_kernel call
SETUP_REF_CALLS = 10    # reference_kernel calls after each set-up


def reference_kernel() -> int:
    """Fixed integer arithmetic, then integers formatted as text; no qinfo.

    It measures how fast the machine runs Python right now.  On a shared VM
    identical ops slow down and speed up together with this kernel by up to
    1.8x, in phases of seconds to minutes, so a rate divided by the kernel's
    speed varies much less from run to run than the rate itself.  Each
    object it makes is freed before the next is made, so the cyclic
    collector never runs in it, whatever qinfo has left on the heap.
    """
    acc = 0
    for i in range(8 * REF_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    for i in range(REF_LOOPS):
        acc += len(("%d,%d,%s" % (i, i * i, "ab" * (i & 15))).encode())
    return acc


def kernel_s(calls: int) -> float:
    """Seconds taken by ``calls`` reference_kernel calls."""
    start = time.perf_counter()
    for _ in range(calls):
        reference_kernel()
    return time.perf_counter() - start


def speed(calls: int, seconds: float) -> float:
    """Machine speed from kernel timings: 1 at REF_NOMINAL_S per call."""
    return REF_NOMINAL_S * calls / seconds


def import_qinfo():
    """Import qinfo from this checkout's src/, or exit 1 without a result."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import qinfo
    except ImportError as exc:
        sys.exit(f"error: cannot import qinfo from {src}: {exc}")
    if Path(qinfo.__file__).resolve().parent != src / "qinfo":
        sys.exit(f"error: qinfo was imported from {qinfo.__file__}, not from {src}")
    return qinfo


class Phase:
    """Op times, output digests and oracle results of a run of whole passes."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.ops: list[tuple[str, float]] = []   # (label, seconds) of each op
        self.digests: list[bytes] = []
        self.problems: list[str] = []
        self.outcomes = Counter()
        self.attempted = 0
        self.failed = 0
        self.ref_s = 0.0     # time spent in reference_kernel calls
        self.ref_calls = 0

    @property
    def op_s(self) -> float:
        return sum(self.pass_s)

    @property
    def speed(self) -> float:
        return speed(self.ref_calls, self.ref_s)


def run_pass(wl, index: int, phase: Phase, tracer=None) -> None:
    op_s = 0.0
    for op in wl.pass_ops(index):
        phase.attempted += 1
        if tracer:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            out, raised = op.call(), None
        except Exception as exc:   # a raising op is a failed op; the loop goes on
            out, raised = None, exc
        dt = time.perf_counter() - start
        op_s += dt
        phase.ops.append((op.label, dt))
        calls = max(1, round(dt / REF_EVERY_S))
        phase.ref_s += kernel_s(calls)
        phase.ref_calls += calls
        problems, digest = [f"raised {raised!r}"], b""
        if raised is None:
            try:
                checked = op.verify(out)
            except Exception as exc:   # output too malformed for the oracle to parse
                problems = [f"oracle could not read the output: {exc!r}"]
            else:
                problems, digest = checked.problems, checked.digest
                phase.outcomes.update(checked.outcomes)
        phase.digests.append(digest)
        if problems:
            phase.failed += 1
            phase.problems += [f"pass {index} {op.label}: {p}" for p in problems]
    phase.pass_s.append(op_s)


def run_for(wl, seconds: float) -> Phase:
    """Whole passes until another pass as long as the last would overrun."""
    phase = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        run_pass(wl, index, phase)
        index += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return phase


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, machine speed) of one fresh process running
    setup_probe.py, waited for."""
    probe = Path(__file__).with_name("setup_probe.py")
    proc = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    elapsed, machine = proc.stdout.split()[-2:]
    return float(elapsed), float(machine)


def run_record(args, qinfo) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "qinfo": qinfo.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu, "blas": blas.get("name"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git repository, or None where there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    qinfo = import_qinfo()
    from perfbench import spans, workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    wl.setup()
    setups = [(time.perf_counter() - START, speed(SETUP_REF_CALLS, kernel_s(SETUP_REF_CALLS)))]
    setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(elapsed * machine for elapsed, machine in setups)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(args, qinfo)
    record["setups"] = setups   # (seconds, machine speed) of each set-up
    try:
        if args.trace:
            untraced = run_for(wl, args.seconds / 2)
            traced = Phase()
            with spans.Tracer() as tracer:
                for index in range(len(untraced.pass_s)):
                    run_pass(wl, index, traced, tracer)
            phases = [untraced, traced]
            mismatched = sum(a != b for a, b in zip(untraced.digests, traced.digests))
            if mismatched:
                traced.failed += mismatched
                traced.problems.append(f"{mismatched} traced ops differ from the untraced run")
            units = wl.units_per_pass * len(traced.pass_s)
            # The untraced op time as it would be at the traced phase's speed.
            untraced_s = untraced.op_s * untraced.speed / traced.speed
            values = spans.per_layer_values(tracer, units, traced.op_s, untraced_s,
                                            traced.outcomes)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in spans.PER_LAYER}
            tracer.write_spans(OUT_DIR / f"{tag}-spans.jsonl")
        else:
            timed = run_for(wl, args.seconds)
            phases = [timed]
            throughput = wl.units_per_pass * len(timed.pass_s) / timed.op_s
            record.update(throughput=throughput, machine_speed=timed.speed)
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "adj_throughput": throughput / timed.speed,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        wl.teardown()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [p for phase in phases for p in phase.problems]
    for p in problems[:20]:
        print(f"oracle: {p}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({
        **result, "record": record, "unit": wl.unit, "units_per_pass": wl.units_per_pass,
        "pass_s": [p.pass_s for p in phases], "ops": [p.ops for p in phases],
        "problems": problems,
        "fail_rate": failed / attempted}, indent=1) + "\n")

    print("record " + json.dumps(record))
    print(f"fail_rate = {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
