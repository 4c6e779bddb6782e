"""Command line surface: tables, spectra, irreps, structure, verification.

Output formats: text (human), json (machine, round-trips), csv (flat).
Every table is written as distinct texts and an integer array of codes:
``mul-table`` keeps its n! x n! table as one such array and renders each
of its 2 n! distinct cells once, and ``irrep`` renders each distinct
float of its image stack once (by bit pattern).  Text widths and padding
and CSV quoting are worked out per distinct text, and the rows go straight
to ``sys.stdout``, without ``click.echo``'s per-chunk ANSI strip.
``verify`` exits 255 on a crash.
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
from collections.abc import Iterable, Iterator
from itertools import chain
from math import factorial, isfinite

import click
import numpy as np
from click.core import ParameterSource

# ``mul_generators`` is not called here: perfbench/tests/test_tracer.py
# checks that its tracer wraps the name where this module binds it.
from .algebra import AlgebraContext, law_rows, mul_generators  # noqa: F401
from .checks import SUITES, run_suite
from .induced import spectral_q
from .irreps import irrep_M_e, irrep_M_f, irrep_S, structure_report
from .oracle import (CAP_ENV_VAR, SizeCapError, generator_stack, size_cap,
                     span_dimension)
from .partitions import Partition
from .permutations import cycle_name, image_array


def _perm_label(images: list[int]) -> str:
    """``1``, or the cycle name of the 0-based ``images``, with ``^t`` when
    the permutation moves n, like ``(23)^t``."""
    name = cycle_name(images)
    return "1" if name == "()" else name + ("" if images[-1] == len(images) - 1 else "^t")


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


def _write(chunks: Iterable[str]):
    """Write the chunks to stdout as they come, then flush.  Unlike
    ``click.echo``, which runs an ANSI strip over every chunk whenever
    stdout is not a terminal, it writes the text as it is."""
    out = sys.stdout
    out.writelines(chunks)
    out.flush()


def _json_pieces(record: dict, members: Iterable[Iterable[str]]) -> Iterator[str]:
    """The text of ``json.dumps(record)`` and a newline, in pieces, where the
    last value of ``record`` is an empty list or dict and each member is
    the JSON text of one of its entries (``"key": value`` for a dict), as
    pieces too, so that no row is copied into a longer string."""
    text = json.dumps(record)
    yield text[:-2]
    for i, member in enumerate(members):
        if i:
            yield ", "
        yield from member
    yield text[-2:] + "\n"


def _gather(texts: list[str], codes: np.ndarray) -> list:
    """Nested lists of ``texts[code]`` in the shape of ``codes``."""
    return np.array(texts, dtype=object)[codes].tolist()


def _distinct_floats(stack: np.ndarray, render) -> tuple[list[str], np.ndarray]:
    """``render(float(x))`` of each distinct bit pattern x of a float stack,
    and the codes of its entries in its shape.  Bits, not values, so 0.0
    and -0.0 keep their own text and no NaN payload is merged."""
    bits = np.ascontiguousarray(stack, dtype=float).view(np.uint64)
    distinct, codes = np.unique(bits, return_inverse=True)
    return [render(float(x)) for x in distinct.view(float)], codes.reshape(stack.shape)


def _coded(rows: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """Rows of strings as texts and codes, each cell its own text."""
    texts = [cell for row in rows for cell in row]
    return texts, np.arange(len(texts)).reshape(len(rows), -1)


def _labelled(labels: list[str], texts: list[str], codes: np.ndarray):
    """Texts and codes with a first column that holds each row's label."""
    size = len(labels)
    return labels + texts, np.hstack([np.arange(size)[:, None], codes + size])


def _print_grid(headers: list[str], texts: list[str], codes: np.ndarray):
    """Right-aligned columns two spaces apart under ``headers``, where cell
    (i, c) is ``texts[codes[i, c]]``.  Widths and padding are worked out
    once per distinct text, not per cell."""
    lengths = np.array([len(text) for text in texts])
    widths = np.maximum([len(h) for h in headers], lengths[codes].max(axis=0))
    levels, level = np.unique(widths, return_inverse=True)
    padded = np.array([[text.rjust(w) for w in levels.tolist()] for text in texts],
                      dtype=object)
    head = [h.rjust(w) for h, w in zip(headers, widths.tolist())]
    _write(chain.from_iterable(("  ".join(row), "\n") for row
                               in chain([head], padded[codes, level].tolist())))


def _csv_fields(texts: list[str]) -> list[str]:
    """Each text as ``csv.writer`` writes it among other fields of a row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    fields = []
    for text in texts:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([text, ""])
        fields.append(buffer.getvalue()[:-3])  # less ",\r\n", the empty field's
    return fields


def _emit_csv(headers: list[str], texts: list[str], codes: np.ndarray):
    """The bytes of ``csv.writer`` of ``headers`` and the rows of cells
    ``texts[codes[i, c]]``; each distinct text is quoted once."""
    fields = _csv_fields(headers + texts)
    rows = _gather(fields[len(headers):], codes)
    _write(chain.from_iterable((",".join(row), "\r\n") for row
                               in chain([fields[:len(headers)]], rows)))


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
        coeffs = [json.dumps(list(c.coeffs) if symbolic else c) for c in table["coeffs"]]
        perms = [json.dumps(order) for order in table["order"]]
        # each cell as json.dumps({"coeff": ..., "perm": ...}) writes it
        texts = [f'{{"coeff": {c}, "perm": {p}}}' for c in coeffs for p in perms]
        head = {key: table[key] for key in ("n", "d", "order")} | {"entries": []}
        rows = _gather(texts, table["cells"])
        _write(_json_pieces(head, (("[", ", ".join(row), "]") for row in rows)))
        return
    labels = [_perm_label(images) for images in image_array(n).tolist()]
    # cells like d(23)^t, 2(13)^t or 1; at a fixed d, d^0 and d^1 print as integers
    coeffs = [str(c) if symbolic else str(int(c)) for c in table["coeffs"]]
    texts = [c if label == "1" else ("" if c == "1" else c) + label
             for c in coeffs for label in labels]
    emit = _emit_csv if fmt == "csv" else _print_grid
    emit(["*"] + labels, *_labelled(labels, texts, table["cells"]))


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
        _emit_csv(["nu", "lambda", "multiplicity"], *_coded(rows))
        return
    size = int(round(len(record["matrix"]) ** 0.5))
    click.echo(f"Q(alpha={record['alpha']}) at n={n}, d={d}:")
    matrix = np.array(record["matrix"]).reshape(size, size)
    for row in matrix:
        click.echo("  " + "  ".join(_number_text(x) for x in row))
    _print_grid(["nu", "lambda", "mult"], *_coded(rows))
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
    head = rep.head()
    names, stack = rep.named_images()
    flat = stack.reshape(len(names), -1)
    if fmt == "json":  # the bytes of json.dumps(rep.to_dict())
        rows = _gather(*_distinct_floats(flat, json.dumps))
        _write(_json_pieces(head | {"images": {}}, (
            (json.dumps(name), ": [", ", ".join(row), "]") for name, row in zip(names, rows))))
        return
    if fmt == "csv":  # repr is the shortest text that round-trips
        _emit_csv(["generator"] + [f"m{k}" for k in range(flat.shape[1])],
                  *_labelled(names, *_distinct_floats(flat, repr)))
        return
    matrices = _gather(*_distinct_floats(stack, _number_text))
    _write(chain([f"kind {head['kind']}, label {head['label']}, "
                  f"dim {head['dimension']}, basis {head['basis_tag']}\n"],
                 (f"W({name}):\n" + "".join(f"  {'  '.join(row)}\n" for row in matrix)
                  for name, matrix in zip(names, matrices))))


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
        _emit_csv(["kind", "label", "size"], *_coded(rows))
        return
    _print_grid(["kind", "label", "size"], *_coded(rows))
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
                  *_coded([[r.check, str(r.passed), f"{r.max_residual:.3e}",
                            "" if r.tol is None else f"{r.tol:g}", r.details]
                           for r in reports]))
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
