"""Tabulate the block structure over a grid of (n, d).

Prints one line per pair: the kind-M ranks, kind-S dimensions, the total
dimension, and (while d^n stays within the oracle cap) the measured span
dimension on tensor space.

Usage: python scripts/structure_scan.py [max_n] [max_d]
"""

import sys

from ptalgebra import structure_report
from ptalgebra.oracle import SizeCapError, generator_stack, span_dimension


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    max_d = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    for n in range(2, max_n + 1):
        for d in range(1, max_d + 1):
            report = structure_report(n, d)
            try:
                report.oracle_dim = span_dimension(generator_stack(n, d, True))
            except SizeCapError:
                pass
            m_part = " + ".join(f"M({r})" for _a, r in report.m_blocks)
            s_part = " + ".join(f"M({k})" for _v, k in report.s_blocks)
            oracle = "" if report.oracle_dim is None else f" oracle={report.oracle_dim}"
            print(f"n={n} d={d}: M ~ {m_part or '0'} | S ~ {s_part or '0'}"
                  f" | dim={report.dim_total}{oracle}")
        print()


if __name__ == "__main__":
    main()
