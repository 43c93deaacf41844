"""Set-up of one benchmark process, from interpreter start to the first operation being ready.

Imports hcntk, builds the benchmark problem (sympy lambdify and its
self-check) and initializes the network, then prints the CLOCK_MONOTONIC
time, which the parent compares with the time it started this process.

Usage: python3 setup_probe.py <src dir> <benchmark> <layer sizes...>
"""

import sys
import time


def main():
    src, bench, *sizes = sys.argv[1:]
    sys.path.insert(0, src)
    from hcntk import experiments, net, pde  # noqa: F401  (experiments pulls in every layer)

    pde.benchmark(bench)
    net.init_kaiming_uniform(tuple(int(s) for s in sizes), "tanh", 0)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
