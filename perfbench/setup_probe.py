"""Time one benchmark set-up in a fresh interpreter: import the package,
build the job list and make the warm-up call, then print the seconds.
`run.py` runs this to take the median of several set-ups.

    python3 perfbench/setup_probe.py scan 1
"""

import sys

import run

if __name__ == "__main__":
    run.cap_threads()
    workload, seed = sys.argv[1], int(sys.argv[2])
    seconds, *_ = run.set_up(workload, seed, f"setup-{workload}-{seed}")
    print(f"{seconds:.9f}")
