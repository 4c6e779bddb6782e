"""Tabulate the block structure over a grid of (n, d).

Prints one line per pair: the kind-M ranks, kind-S dimensions, the total
dimension, and (while d^n stays within the oracle cap) the measured span
dimension on tensor space.

Usage: python scripts/structure_scan.py [max_n] [max_d]
"""

import sys

from ptalgebra import structure_report
from ptalgebra.oracle import generator_stack, size_cap, span_dimension


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    max_d = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    for n in range(2, max_n + 1):
        for d in range(1, max_d + 1):
            with_oracle = d**n <= size_cap()
            report = structure_report(n, d)
            if with_oracle:
                report.oracle_dim = span_dimension(generator_stack(n, d, True))
            m_part = " + ".join(f"M({r})" for _a, r in report.m_blocks)
            s_part = " + ".join(f"M({k})" for _v, k in report.s_blocks)
            oracle = f" oracle={report.oracle_dim}" if with_oracle else ""
            print(f"n={n} d={d}: M ~ {m_part or '0'} | S ~ {s_part or '0'}"
                  f" | dim={report.dim_total}{oracle}")
        print()


if __name__ == "__main__":
    main()
