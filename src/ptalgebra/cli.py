"""Command line surface: tables, spectra, irreps, structure, verification.

Output formats: text (human), json (machine, round-trips), csv (flat).
``mul-table`` keeps its n! x n! table as one integer array and renders
each of its 2 n! distinct cells once; ``verify`` exits 255 on a crash.
The oracle size cap defaults to d^n <= 4096 and can be overridden with
--cap or the PTALGEBRA_CAP environment variable.  ``verify`` and
``structure`` resolve it once, before any work, so a malformed
PTALGEBRA_CAP is a usage error even where no oracle is built.  The oracle
alone decides which runs exceed the cap: its ``SizeCapError`` is a usage
error (exit 2), not a failed check or a crash, and ``--suite dims`` skips
the oracle part instead.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import traceback
from math import factorial, isfinite

import click
import numpy as np
from click.core import ParameterSource

# ``mul_generators`` is not called here: perfbench/tests/test_tracer.py
# checks that its tracer wraps the name where this module binds it.
from .algebra import AlgebraContext, law_rows, mul_generators  # noqa: F401
from .checks import SUITES, run_suite
from .dpoly import DPoly
from .induced import spectral_q
from .irreps import irrep_M_e, irrep_M_f, irrep_S, structure_report
from .oracle import (CAP_ENV_VAR, SizeCapError, generator_stack, size_cap,
                     span_dimension)
from .partitions import Partition
from .permutations import Permutation, image_array


def _perm_label(perm: Permutation) -> str:
    if perm.is_identity():
        return "1"
    name = perm.cycle_string()
    return name if perm.fixes_last() else name + "^t"


def _cell_text(coeff, perm: Permutation) -> str:
    """A table cell like ``d(23)^t``, ``2(13)^t`` or ``1``; coeff is d^0 or d^1,
    so a fixed d prints as the exact integer."""
    coeff = str(coeff) if isinstance(coeff, DPoly) else str(int(coeff))
    if perm.is_identity():
        return coeff
    return ("" if coeff == "1" else coeff) + _perm_label(perm)


def _number_text(x: float) -> str:
    """An integral value in full, like ``1234567``; any other with ``:g``."""
    return str(int(x)) if float(x).is_integer() else f"{x:g}"


def build_mul_table(n: int, d: int | None) -> dict:
    """The product table as arrays: ``cells[i, j] = power * n! + k`` records
    W(order[i]) W(order[j]) = coeffs[power] W(order[k]).  Rows are filled by
    ``law_rows`` in blocks of about 2^16 products."""
    ctx = AlgebraContext(n, d)
    images = image_array(n)
    size = len(images)
    cells = np.empty((size, size), dtype=np.intp)
    block = max(1, 2**16 // size)
    for start in range(0, size, block):
        powers, positions = law_rows(n, np.arange(start, min(start + block, size)))
        cells[start:start + block] = powers * size + positions
    return {"n": n, "d": "symbolic" if d is None else d,
            "order": [",".join(map(str, row)) for row in (images + 1).tolist()],
            "coeffs": [ctx.d_power(power) for power in (0, 1)], "cells": cells}


def _render_cells(table: dict, render) -> list[list[str]]:
    """Rows of strings: ``render(coeff, k)`` runs once per distinct cell."""
    size = len(table["order"])
    distinct = [render(c, k) for c in table["coeffs"] for k in range(size)]
    return np.array(distinct, dtype=object)[table["cells"]].tolist()


def _print_grid(headers: list[str], rows: list[list[str]]):
    widths = [max(len(headers[c]), max(len(r[c]) for r in rows))
              for c in range(len(headers))]
    click.echo("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        click.echo("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _emit_csv(headers: list[str], rows: list[list[str]]):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    click.echo(buffer.getvalue().rstrip("\n"))


class PartitionType(click.ParamType):
    """A partition written ``"3,1"``; malformed text is a usage error."""

    name = "partition"

    def convert(self, value, param, ctx):
        try:
            return Partition.parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


N_RANGE = click.IntRange(min=2)
D_RANGE = click.IntRange(min=1)
CRASH_EXIT = 255  # verify: a check raised, so no count of failures exists


def _resolve_cap(cap: int | None) -> int:
    """The --cap value, else $PTALGEBRA_CAP, else the default."""
    if cap is not None:
        return cap
    try:
        return size_cap()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]),
    default="text", show_default=True, help="Output format.")
cap_option = click.option(
    "--cap", type=click.IntRange(min=1), default=None,
    help=f"Oracle size cap on d^n (default 4096 or ${CAP_ENV_VAR}).")


@click.group()
def main():
    """Algebra of permutation operators transposed on the last tensor factor."""


@main.command("mul-table")
@click.option("--n", type=N_RANGE, required=True, help="Number of tensor factors.")
@click.option("--d", type=D_RANGE, default=None, help="Local dimension (numeric).")
@click.option("--symbolic", is_flag=True, help="Keep d as an indeterminate.")
@format_option
def cmd_mul_table(n: int, d: int | None, symbolic: bool, fmt: str):
    """Print the n! x n! generator multiplication table."""
    if symbolic and d is not None:
        raise click.UsageError("--symbolic and --d are mutually exclusive")
    if not symbolic and d is None:
        raise click.UsageError("pass --d or --symbolic")
    if factorial(n) > 720:
        raise click.UsageError(
            "table would exceed 720x720; restrict n or query products directly")
    table = build_mul_table(n, None if symbolic else d)
    if fmt == "json":  # the bytes of json.dumps of the record with its entries
        rows = _render_cells(table, lambda c, k: json.dumps(
            {"coeff": list(c.coeffs) if symbolic else c, "perm": table["order"][k]}))
        head = json.dumps({key: table[key] for key in ("n", "d", "order")}
                          | {"entries": []})
        click.echo(head[:-2], nl=False)  # row by row: no second copy of the text
        for i, row in enumerate(rows):
            click.echo(f"{', ' if i else ''}[{', '.join(row)}]", nl=False)
        click.echo("]}")
        return
    perms = list(Permutation.all(n))
    labels = [_perm_label(p) for p in perms]
    cells = _render_cells(table, lambda coeff, k: _cell_text(coeff, perms[k]))
    rows = [[label] + row for label, row in zip(labels, cells)]
    if fmt == "csv":
        _emit_csv(["*"] + labels, rows)
    else:
        _print_grid(["*"] + labels, rows)


@main.command("spectrum")
@click.option("--n", type=N_RANGE, required=True)
@click.option("--d", type=D_RANGE, required=True)
@click.option("--alpha", type=PartitionType(), required=True,
              help="Partition of n-2, e.g. '2,1'.")
@format_option
def cmd_spectrum(n: int, d: int, alpha: Partition, fmt: str):
    """Q(alpha): matrix, closed-form eigenvalues, rank, vanishing label."""
    if alpha.weight != n - 2:
        raise click.BadParameter(
            f"{alpha} has weight {alpha.weight}, not n - 2 = {n - 2}",
            param_hint="'--alpha'")
    record = spectral_q(alpha, d, n).to_dict()
    if fmt == "json":
        click.echo(json.dumps(record))
        return
    # lambda = d + content is an integer; :g would print 1.23457e+06
    rows = [[str(e["nu"]), _number_text(e["lambda"]), str(e["multiplicity"])]
            for e in record["eigenpairs"]]
    if fmt == "csv":
        _emit_csv(["nu", "lambda", "multiplicity"], rows)
        return
    size = int(round(len(record["matrix"]) ** 0.5))
    click.echo(f"Q(alpha={record['alpha']}) at n={n}, d={d}:")
    matrix = np.array(record["matrix"]).reshape(size, size)
    for row in matrix:
        click.echo("  " + "  ".join(_number_text(x) for x in row))
    _print_grid(["nu", "lambda", "mult"], rows)
    click.echo(f"rank {record['rank']}"
               + (f", vanishing block {record['theta']}" if record["theta"] else ""))


@main.command("irrep")
@click.option("--n", type=N_RANGE, required=True)
@click.option("--d", type=D_RANGE, required=True)
@click.option("--kind", type=click.Choice(["m", "s"]), required=True)
@click.option("--alpha", type=PartitionType(), default=None,
              help="Kind-M label (of n-2).")
@click.option("--nu", type=PartitionType(), default=None,
              help="Kind-S label (of n-1).")
@click.option("--basis", type=click.Choice(["f", "e"]), default="f",
              show_default=True, help="Kind-M basis.")
@format_option
def cmd_irrep(n: int, d: int, kind: str, alpha: Partition | None,
              nu: Partition | None, basis: str, fmt: str):
    """Serialize one irreducible representation of the algebra."""
    if factorial(n) > 720:
        raise click.UsageError("n too large to list all generator images")
    option, label = ("alpha", alpha) if kind == "m" else ("nu", nu)
    source = click.get_current_context().get_parameter_source
    for other in ("nu",) if kind == "m" else ("alpha", "basis"):
        if source(other) is not ParameterSource.DEFAULT:
            raise click.BadParameter(f"kind {kind} takes no --{other}",
                                     param_hint=f"'--{other}'")
    if label is None:
        raise click.UsageError(f"kind {kind} needs --{option}")
    if kind == "s":
        build = irrep_S
    else:
        build = irrep_M_f if basis == "f" else irrep_M_e
    # The constructors reject a label of the wrong weight, one that
    # does not fit d, and the e basis where det Q(alpha) = 0.
    try:
        rep = build(label, d, n)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=f"'--{option}'") from exc
    record = rep.to_dict()
    if fmt == "json":
        click.echo(json.dumps(record))
        return
    if fmt == "csv":
        rows = [[name] + [repr(x) for x in flat]  # shortest round-trip text
                for name, flat in record["images"].items()]
        _emit_csv(["generator"] + [f"m{k}" for k in range(rep.dimension**2)], rows)
        return
    click.echo(f"kind {record['kind']}, label {record['label']}, "
               f"dim {record['dimension']}, basis {record['basis_tag']}")
    for name, flat in record["images"].items():
        mat = np.array(flat).reshape(rep.dimension, rep.dimension)
        click.echo(f"W({name}):")
        for row in mat:
            click.echo("  " + "  ".join(_number_text(x) for x in row))


@main.command("structure")
@click.option("--n", type=N_RANGE, required=True)
@click.option("--d", type=D_RANGE, required=True)
@click.option("--oracle", is_flag=True,
              help="Also measure the span dimension on (C^d)^n.")
@cap_option
@format_option
def cmd_structure(n: int, d: int, oracle: bool, cap: int | None, fmt: str):
    """Block structure: kind-M ranks, kind-S dimensions, total dimension."""
    cap = _resolve_cap(cap)
    report = structure_report(n, d)
    if oracle:
        try:
            report.oracle_dim = span_dimension(generator_stack(n, d, True, cap))
        except SizeCapError as exc:
            raise click.UsageError(str(exc)) from None
    record = report.to_dict()
    if fmt == "json":
        click.echo(json.dumps(record))
        return
    rows = ([["M", e["alpha"], str(e["rank"])] for e in record["m_blocks"]]
            + [["S", e["nu"], str(e["dim"])] for e in record["s_blocks"]])
    if fmt == "csv":
        _emit_csv(["kind", "label", "size"], rows)
        return
    _print_grid(["kind", "label", "size"], rows)
    click.echo(f"dim M = {record['dim_M']}, dim S = {record['dim_S']}, "
               f"total = {record['dim_total']}"
               + (f", oracle = {record['oracle_dim']}" if oracle else ""))


@main.command("verify")
@click.option("--n", type=N_RANGE, required=True)
@click.option("--d", type=D_RANGE, required=True)
@click.option("--suite", type=click.Choice(list(SUITES)), default="all",
              show_default=True)
@click.option("--tol", type=float, default=None,
              help="Also fail any check whose residual is not below this; "
                   "it can only tighten, never pass a failed check.")
@cap_option
@format_option
def cmd_verify(n: int, d: int, suite: str, tol: float | None,
               cap: int | None, fmt: str):
    """Run verification suites; the exit code counts the failures, capped
    at 254.  255: a check raised (traceback on stderr); 2: a usage error."""
    if tol is not None and not (isfinite(tol) and tol > 0):
        raise click.UsageError("--tol must be positive and finite")
    cap = _resolve_cap(cap)
    try:
        reports = run_suite(n, d, suite, cap)
    except SizeCapError as exc:
        raise click.UsageError(str(exc)) from None
    except Exception:
        traceback.print_exc()
        sys.exit(CRASH_EXIT)
    if tol is not None:
        for report in reports:
            report.passed = report.passed and report.max_residual < tol
            # an exact comparison (tol None) reads 0 or 1, which no tol changes
            if report.tol is not None:
                report.tol = min(report.tol, tol)
    failures = sum(not r.passed for r in reports)
    if fmt == "json":
        click.echo(json.dumps([r.to_dict() for r in reports]))
    elif fmt == "csv":
        _emit_csv(["check", "passed", "max_residual", "tol", "details"],
                  [[r.check, str(r.passed), f"{r.max_residual:.3e}",
                    "" if r.tol is None else f"{r.tol:g}", r.details]
                   for r in reports])
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            click.echo(f"[{status}] {r.check} {r.params} "
                       f"residual {r.max_residual:.3e}"
                       + ("" if r.tol is None else f" tol {r.tol:g}")
                       + (f" ({r.details})" if r.details else ""))
        click.echo(f"{len(reports) - failures}/{len(reports)} checks passed")
    sys.exit(min(failures, CRASH_EXIT - 1))


if __name__ == "__main__":
    main()
