"""One set-up sample, taken in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds this interpreter takes to generate the workload's
inputs, import wildmdeg and build the library's arguments.
"""

import sys
from time import perf_counter

import inputs


def main():
    start = perf_counter()
    inputs.prepare(sys.argv[1], int(sys.argv[2]))
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
