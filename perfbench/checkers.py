"""Checkers for ptalgebra's JSON output that share no code with ptalgebra.

Nothing here imports ptalgebra.  Generator products are judged against
dense permutation matrices on (C^d)^{tensor n}, partially transposed on the
last factor, built below with plain numpy; spectra against
``numpy.linalg.eigvalsh``; the algebra dimension against the hook length
formula.  ``check_output`` raises ``Rejected`` with a reason when an output
does not hold up.
"""

from __future__ import annotations

import json
import math
from itertools import permutations

import numpy as np

MUL_TABLE_SAMPLES = 256
IRREP_SAMPLES = 64
IRREP_TOL = 1e-8
SPECTRUM_TOL = 1e-8
NULL_TOL = 1e-7

SUITE_CHECKS = {
    "mul": {"mul_rule", "associativity", "adjoint_transport"},
    "spectra": {"spectra"},
    "irreps": {"irreps"},
    "dims": {"dimensions"},
    "appc": {"matrix_operators", "reduced_matrix_units"},
}


class Rejected(Exception):
    """An output that fails its check; the message says why."""


def check_output(args: list[str], output: bytes, rng: np.random.Generator):
    """Judge the stdout of ``ptalgebra <args>``; raise Rejected if it is wrong."""
    try:
        record = json.loads(output)
    except ValueError as exc:
        raise Rejected(f"output is not JSON: {exc}") from None
    checker = {"verify": _check_verify, "mul-table": _check_mul_table,
               "irrep": _check_irrep, "spectrum": _check_spectrum,
               "structure": _check_structure}[args[0]]
    try:
        checker(args, record, rng)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise Rejected(f"malformed record: {type(exc).__name__}: {exc}") from None


def _flag(args: list[str], name: str) -> str | None:
    return args[args.index(name) + 1] if name in args else None


def _expect(condition: bool, reason: str):
    if not condition:
        raise Rejected(reason)


# -- dense ground truth ------------------------------------------------------


def transposed_operator(images: tuple[int, ...], d: int) -> np.ndarray:
    """W(sigma) as a dense d^n x d^n matrix.

    The permutation operator moves tensor factor k to position sigma(k)
    (basis digits big-endian, factor 1 most significant); the partial
    transpose then swaps the last digit of the row and column indices.
    """
    n = len(images)
    weights = d ** np.arange(n - 1, -1, -1)
    cols = np.arange(d**n)
    col_digits = (cols[:, None] // weights) % d
    row_digits = np.empty_like(col_digits)
    row_digits[:, np.asarray(images) - 1] = col_digits
    rows = row_digits @ weights
    swap = col_digits[:, -1] - row_digits[:, -1]
    out = np.zeros((d**n, d**n))
    out[rows + swap, cols - swap] = 1.0
    return out


class GeneratorLaw:
    """W(sigma) W(rho) = d^p W(tau), read off dense operators at d = 2.

    The law is the same at every d >= 2, and at d = 2 the n! operators
    are still pairwise distinct, so tau is found by its nonzero pattern.
    """

    def __init__(self, n: int):
        self.ops = {p: transposed_operator(p, 2)
                    for p in permutations(range(1, n + 1))}
        self.by_pattern = {np.packbits(op != 0).tobytes(): p
                           for p, op in self.ops.items()}

    def product(self, sigma, rho) -> tuple[int, tuple[int, ...]]:
        prod = self.ops[sigma] @ self.ops[rho]
        scale = prod.max()
        tau = self.by_pattern[np.packbits(prod != 0).tobytes()]
        power = round(math.log2(scale))
        _expect(np.array_equal(prod, 2**power * self.ops[tau]),
                f"dense product of {sigma} and {rho} is not a scaled generator")
        return power, tau


def _one_line(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _cycles(text: str, n: int) -> tuple[int, ...]:
    """Images of a cycle string like ``(132)(45)``; ``()`` is the identity."""
    images = list(range(1, n + 1))
    for chunk in text.replace(")", "").split("(")[1:]:
        points = [int(c) for c in chunk]
        for i, point in enumerate(points):
            images[point - 1] = points[(i + 1) % len(points)]
    return tuple(images)


# -- per-command checkers --------------------------------------------------


def _check_verify(args, reports, _rng):
    n, d, suite = int(_flag(args, "--n")), int(_flag(args, "--d")), _flag(args, "--suite")
    _expect(isinstance(reports, list) and reports, "no check reports")
    if suite == "all":
        wanted = set().union(*SUITE_CHECKS.values())
        if n >= 3:
            wanted |= {"u_structure", "unit_of_M"}
    else:
        wanted = SUITE_CHECKS[suite]
    if n < 3:
        wanted -= {"spectra", "matrix_operators", "reduced_matrix_units"}
    names = {r["check"] for r in reports}
    _expect(wanted <= names, f"missing checks {sorted(wanted - names)}")
    for r in reports:
        _expect(r["params"]["n"] == n and r["params"]["d"] == d,
                f"{r['check']} ran at {r['params']}")
        _expect(r["passed"] is True, f"{r['check']} {r['params']} did not pass")
        residual = r["max_residual"]
        _expect(isinstance(residual, (int, float)) and math.isfinite(residual),
                f"{r['check']} residual {residual!r} is not a finite number")


def _check_mul_table(args, table, rng):
    n = int(_flag(args, "--n"))
    symbolic = "--symbolic" in args
    _expect(table["n"] == n, f"table for n = {table['n']}")
    _expect(table["d"] == ("symbolic" if symbolic else int(_flag(args, "--d"))),
            f"table for d = {table['d']}")
    order = [_one_line(s) for s in table["order"]]
    _expect(sorted(order) == list(permutations(range(1, n + 1))),
            "order is not S(n)")
    entries = table["entries"]
    _expect(len(entries) == len(order) and all(len(r) == len(order) for r in entries),
            "table is not n! x n!")
    d_values = (2, 3) if symbolic else (table["d"],)
    ops = {d: {} for d in d_values}

    def op(perm, d):
        if perm not in ops[d]:
            ops[d][perm] = transposed_operator(perm, d)
        return ops[d][perm]

    for i, j in rng.integers(len(order), size=(MUL_TABLE_SAMPLES, 2)):
        cell = entries[i][j]
        result = _one_line(cell["perm"])
        for d in d_values:
            coeff = (sum(c * d**k for k, c in enumerate(cell["coeff"]))
                     if symbolic else cell["coeff"])
            _expect(np.array_equal(op(order[i], d) @ op(order[j], d),
                                   coeff * op(result, d)),
                    f"cell {table['order'][i]} * {table['order'][j]} wrong at d = {d}")


def _check_irrep(args, record, rng):
    n, d = int(_flag(args, "--n")), int(_flag(args, "--d"))
    label = _flag(args, "--alpha") or _flag(args, "--nu")
    _expect((record["n"], record["d"]) == (n, d), f"irrep at n={record['n']}, d={record['d']}")
    _expect(record["kind"] == _flag(args, "--kind").upper(), f"kind {record['kind']}")
    _expect(record["label"] == label, f"label {record['label']}")
    dim = record["dimension"]
    images = {_cycles(name, n): np.array(flat, dtype=float).reshape(dim, dim)
              for name, flat in record["images"].items()}
    perms = list(permutations(range(1, n + 1)))
    _expect(sorted(images) == perms, "images do not cover S(n)")
    _expect(np.abs(images[perms[0]] - np.eye(dim)).max() < IRREP_TOL,
            "identity does not map to the identity")
    law = GeneratorLaw(n)
    for i, j in rng.integers(len(perms), size=(IRREP_SAMPLES, 2)):
        sigma, rho = perms[i], perms[j]
        power, tau = law.product(sigma, rho)
        residual = np.abs(images[sigma] @ images[rho] - d**power * images[tau]).max()
        _expect(residual < IRREP_TOL,
                f"W{sigma} W{rho} != d^{power} W{tau}: residual {residual:.2e}")


def _check_spectrum(args, record, _rng):
    n, d, alpha = int(_flag(args, "--n")), int(_flag(args, "--d")), _flag(args, "--alpha")
    _expect((record["n"], record["d"], record["alpha"]) == (n, d, alpha),
            f"spectrum of {record['alpha']} at n={record['n']}, d={record['d']}")
    flat = np.array(record["matrix"], dtype=float)
    size = math.isqrt(flat.size)
    _expect(size * size == flat.size and size > 0, "Q is not square")
    q = flat.reshape(size, size)
    _expect(np.abs(q - q.T).max() < SPECTRUM_TOL, "Q is not symmetric")
    numeric = np.linalg.eigvalsh(q)
    scale = max(1.0, np.abs(numeric).max())
    claimed = np.sort(np.concatenate([np.full(e["multiplicity"], float(e["lambda"]))
                                      for e in record["eigenpairs"]]))
    _expect(claimed.size == size, f"multiplicities sum to {claimed.size}, not {size}")
    gap = np.abs(claimed - numeric).max()
    _expect(gap < SPECTRUM_TOL * scale, f"eigenpairs miss eigvalsh(Q) by {gap:.2e}")
    rank = int((np.abs(numeric) > NULL_TOL * scale).sum())
    _expect(record["rank"] == rank, f"rank {record['rank']}, eigvalsh gives {rank}")
    null_labels = [e["nu"] for e in record["eigenpairs"]
                   if abs(e["lambda"]) <= NULL_TOL * scale]
    _expect(record["theta"] == (null_labels[0] if null_labels else None),
            f"theta {record['theta']}, null eigenpairs {null_labels}")


def _partitions(m: int, largest: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first, *rest)


def _hook_dimension(parts: tuple[int, ...]) -> int:
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            below = sum(1 for r in parts[i + 1:] if r > j)
            hooks *= row - j + below
    return math.factorial(sum(parts)) // hooks


def algebra_dimension(n: int, d: int) -> int:
    """Sum of dim(mu)^2 over partitions mu of n with at most d rows."""
    return sum(_hook_dimension(mu) ** 2 for mu in _partitions(n, n) if len(mu) <= d)


def _check_structure(args, record, _rng):
    n, d = int(_flag(args, "--n")), int(_flag(args, "--d"))
    _expect((record["n"], record["d"]) == (n, d), f"structure at n={record['n']}, d={record['d']}")
    dim_m = sum(b["rank"] ** 2 for b in record["m_blocks"])
    dim_s = sum(b["dim"] ** 2 for b in record["s_blocks"])
    _expect((record["dim_M"], record["dim_S"]) == (dim_m, dim_s),
            f"dim_M {record['dim_M']}, dim_S {record['dim_S']} disagree with the blocks")
    _expect(record["dim_total"] == dim_m + dim_s, f"dim_total {record['dim_total']}")
    _expect(record["dim_total"] == algebra_dimension(n, d),
            f"dim_total {record['dim_total']} != formula {algebra_dimension(n, d)}")
    if "--oracle" in args:
        _expect(record["oracle_dim"] == record["dim_total"],
                f"oracle_dim {record['oracle_dim']} != dim_total {record['dim_total']}")
