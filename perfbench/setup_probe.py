"""Time one set-up of a workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from this script's first statement until qinfo is
imported and the workload's fixtures are built, and the machine speed
measured right after, then removes the fixtures.  run.py starts it a few
times, one after another and before its timed phase, so that setup_s is a
median over fresh processes instead of one import.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402  (the same start-up path as a benchmark run)


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    run.import_qinfo()
    from perfbench import workloads
    wl = workloads.WORKLOADS[workload](seed, run.OUT_DIR)
    wl.setup()
    elapsed = time.perf_counter() - START
    machine = run.speed(run.SETUP_REF_CALLS, run.kernel_s(run.SETUP_REF_CALLS))
    wl.teardown()
    print(repr(elapsed), repr(machine))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
