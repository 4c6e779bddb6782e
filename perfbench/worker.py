"""One pass of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE]
    PYTHONPATH=src python3 perfbench/worker.py --probe

The worker imports ``ptalgebra.cli`` first and then prints ``ready``: the
parent times set-up up to that line.  With ``--probe`` it stops there.
Otherwise it runs the workload's commands through
``ptalgebra.cli.main(args, standalone_mode=False)`` with stdout captured,
times them, reads its peak RSS, and only then checks the outputs.  A
command that crashes inside ``json.dumps`` has its unprinted object checked
instead.  The last line it prints is a JSON record of the pass.
"""

import ptalgebra.cli as cli  # set-up ends once this import is done


if __name__ == "__main__":
    print("ready", flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checkers import Rejected, check_output  # noqa: E402
from tracer import COMMAND_GROUP, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def crash_site(exc: Exception) -> tuple[dict, object]:
    """Where exc was raised, and what the command was printing when it was.

    ``raised_in`` is the innermost frame and ``cli_function`` the innermost
    frame of ``ptalgebra.cli``, each as ``module.function``.  If that CLI
    function called ``json.dumps`` on the way to the raise, the object it
    passed is returned too, so its content can still be checked.
    """
    frames = [frame for frame, _line in traceback.walk_tb(exc.__traceback__)]
    names = [f"{f.f_globals.get('__name__')}.{f.f_code.co_name}" for f in frames]
    cli_at = max((i for i, f in enumerate(frames)
                  if f.f_globals.get("__name__") == "ptalgebra.cli"), default=None)
    where = {"raised_in": names[-1] if names else None,
             "cli_function": None if cli_at is None else names[cli_at]}
    unprinted = None
    if cli_at is not None and names[cli_at + 1:cli_at + 2] == ["json.dumps"]:
        unprinted = frames[cli_at + 1].f_locals["obj"]
    return where, unprinted


def plain_bool(value):
    """json.dumps default that turns numpy.bool_ into bool and nothing else."""
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def run_command(args: list[str], tracer: Tracer | None) -> dict:
    """Run one command; status is ok, exit (nonzero SystemExit) or crash."""
    stdout = io.StringIO()
    status, reason, where, unprinted = "ok", None, None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                cli.main(args, standalone_mode=False)
            else:
                tracer.span(COMMAND_GROUP, cli.main, args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            status, reason = "exit", f"exit code {exc.code}"
    except Exception as exc:  # a crash of the program under test is a result
        status, reason = "crash", f"{type(exc).__name__}: {exc}"
        where, unprinted = crash_site(exc)
    seconds = time.perf_counter() - start
    return {"command": " ".join(args), "seconds": seconds, "status": status,
            "reason": reason, "where": where, "output": stdout.getvalue().encode(),
            "unprinted": unprinted}


def judge(args: list[str], result: dict, rng: np.random.Generator):
    """Check a command's output, or, after a crash in json.dumps, what it was printing.

    A rejected output turns an ok or crash status into ``rejected``; an
    ``exit`` keeps its status and gains the reason.  A crash whose
    unprinted object passes the checker keeps its status and gets
    ``recovered: accepted``.
    """
    output, unprinted = result.pop("output"), result.pop("unprinted")
    result["bytes"] = len(output)
    result["sha256"] = hashlib.sha256(output).hexdigest()
    if result["status"] == "crash":
        if unprinted is None:
            return
        try:
            output = json.dumps(unprinted, default=plain_bool).encode()
        except (TypeError, ValueError) as exc:
            result["recovered"] = f"not encodable: {exc}"
            return
    try:
        check_output(args, output, rng)
    except Rejected as exc:
        if result["status"] != "exit":
            result["status"] = "rejected"
        result["reason"] = "; ".join(filter(None, [result["reason"], str(exc)]))
        return
    if result["status"] == "crash":
        result["recovered"] = "accepted"


def run_pass(workload: str, seed: int, tracer: Tracer | None) -> dict:
    tasks = WORKLOADS[workload]
    start, cpu_start = time.perf_counter(), time.process_time()
    results = [run_command(args, tracer) for args in tasks]
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for index, (args, result) in enumerate(zip(tasks, results)):
        judge(args, result, np.random.default_rng([seed, index]))
    return {
        "tasks": results,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "verify_s": sum(r["seconds"] for args, r in zip(tasks, results)
                        if args[0] == "verify"),
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.probe:
        return
    if args.workload is None:
        parser.error("--workload is required")
    tracer = Tracer() if args.trace else None
    if tracer is None:
        record = run_pass(args.workload, args.seed, None)
    else:
        with tracer:
            record = run_pass(args.workload, args.seed, tracer)
        record["layers"] = tracer.metrics()
        record["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
