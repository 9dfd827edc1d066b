"""Time one workload set-up in this fresh process and print the seconds.

Usage: python3 perfbench/setup_once.py <workload>

The set-up is the first `simulator.plan` of a product workload, or one pass
of `tables` (regenerate T1-T8 and compare with the golden copies).  Exits 1
without printing a time if a table differs from its golden copy.
"""

import sys
import time

import environment


def main() -> int:
    environment.prepare()
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]
    start = time.perf_counter()
    result = workloads.setup(workload)
    elapsed = time.perf_counter() - start
    if isinstance(workload, workloads.TablesWorkload) and result:
        print(f"tables differ from golden: {result}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
