"""Benchmark of the ptalgebra CLI: four workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_small --seed 1 --seconds 60 --trace 0

Each pass of a workload runs its commands (``workloads.py``) in a fresh
interpreter (``worker.py``), one process at a time: a closed loop with one
client.  With ``--trace 0`` the run makes rounds while the next one is
expected to end within ``--seconds``: ``PROBES_PER_PASS`` interpreters that
only import ``ptalgebra.cli`` (set-up probes), then one pass.  It fills
the rest of ``--seconds`` with probes, to at least ``MIN_PROBES``, and
reports medians.  With ``--trace 1`` it makes one plain pass and one
traced pass (``tracer.py``), reports the per-layer metrics of the traced
pass and the tracing overhead, and requires both passes to print the same
bytes for every command.

Every output is checked by ``checkers.py``.  Every command that does not
end ``ok`` counts as failed, with its reason: a crash (an exception), an
exit with a nonzero code (for ``verify``, the number of failed checks), a
rejected output, or a lost worker.  All of them make the run incorrect,
except ``KNOWN_CRASH``, the seed's defect, and only where the reports that
``verify`` failed to print pass the checker.  The last line of stdout is
the JSON result; the lines before it are a readable summary.  ``--out
FILE`` also writes every pass and the environment to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

# Probes are spread over the whole run: the machine's speed changes within
# a run, so probes taken in one stretch of it do not sample the same state
# as the passes.
PROBES_PER_PASS = 5
MIN_PROBES = 20
# Every run must end within 180 s; a pass still running at this point is killed.
HARD_LIMIT_S = 170.0
THREADS = "1"
UNITS = {"wall_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "fail_ratio": "1"}

HERE = Path(__file__).resolve().parent

# The seed's known defect: ``verify --format json`` computes every report
# and then fails to print them, because ``CheckReport.passed`` holds a
# ``numpy.bool_``.  ``where`` is what ``worker.crash_site`` records for it.
KNOWN_CRASH = {
    "reason": "TypeError: Object of type bool is not JSON serializable",
    "where": {"raised_in": "json.encoder.default", "cli_function": "ptalgebra.cli.cmd_verify"},
}


class PassFailed(Exception):
    """A worker died, timed out or printed no record."""


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_revision(root: Path) -> str | None:
    """The commit checked out at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts workers for one run and collects what they report."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = THREADS

    def spawn(self, extra: list[str]) -> tuple[float, str]:
        """Start a worker; return its set-up seconds and its remaining stdout."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *extra], cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            if ready.strip() != "ready":
                raise PassFailed(f"worker did not start (exit {proc.wait()})")
            remaining = self.deadline - time.perf_counter()
            try:
                rest, _ = proc.communicate(timeout=max(remaining, 0.0))
            except subprocess.TimeoutExpired:
                raise PassFailed("pass killed at the run's time limit") from None
            if proc.returncode != 0:
                raise PassFailed(f"worker exited with code {proc.returncode}")
            return setup_s, rest
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    def probe(self) -> dict:
        return {"setup_s": self.spawn(["--probe"])[0]}

    def run_pass(self, workload: str, seed: int, trace: bool) -> dict:
        extra = ["--workload", workload, "--seed", str(seed)]
        if trace:
            out_dir = self.root / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            extra += ["--trace", "--spans", str(out_dir / f"spans_{workload}.jsonl")]
        try:
            setup_s, rest = self.spawn(extra)
            record = json.loads(rest.strip().splitlines()[-1])
        except (PassFailed, ValueError, IndexError) as exc:
            return {"setup_s": None, "error": str(exc), "tasks": [
                {"command": " ".join(args), "status": "lost", "reason": str(exc)}
                for args in WORKLOADS[workload]]}
        record["setup_s"] = setup_s
        return record


def tolerated(task: dict) -> bool:
    """ok, or the known crash with the reports it failed to print checked."""
    return task["status"] == "ok" or (
        task["status"] == "crash" and task["reason"] == KNOWN_CRASH["reason"]
        and task.get("where") == KNOWN_CRASH["where"]
        and task.get("recovered") == "accepted")


def median_of(passes: list[dict], key: str) -> float | None:
    values = [p[key] for p in passes if p.get(key) is not None]
    return statistics.median(values) if values else None


def summarize(workload: str, seed: int, seconds: int, trace: bool, passes: list[dict],
              probes: list[dict]) -> dict:
    tasks = [t for p in passes for t in p["tasks"]]
    failures = [t for t in tasks if t["status"] != "ok"]
    plain = [p for p in passes if "layers" not in p and "error" not in p]
    metrics = {
        "wall_s": median_of(plain, "wall_s"),
        "verify_s": median_of(plain, "verify_s"),
        "setup_s": median_of(probes + plain, "setup_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "fail_ratio": len(failures) / len(tasks),
    }
    mismatched = []
    if trace:
        traced = [p for p in passes if "layers" in p]
        if traced and plain:
            metrics.update(traced[0]["layers"])
            metrics["trace.overhead_s"] = traced[0]["wall_s"] - plain[0]["wall_s"]
            mismatched = [a["command"] for a, b in zip(plain[0]["tasks"], traced[0]["tasks"])
                          if a["sha256"] != b["sha256"]]
    correct = not mismatched and len(plain) > 0 and all(map(tolerated, tasks))
    first = next((p for p in passes if "versions" in p), {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {
            "git_revision": git_revision(Path.cwd()),
            **first.get("versions", {}),
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "blas_threads": THREADS,
        },
        "correct": correct,
        "attempted": len(tasks),
        "failed": len(failures),
        "failures": [f"{t['command']}: {t['status']}: {t['reason']}"
                     + (" (known defect; the unprinted reports pass)" if tolerated(t) else "")
                     for t in failures],
        "traced_output_mismatch": mismatched,
        "passes": len(passes),
        "metrics": metrics,
        "probes": probes,
        "pass_records": passes,
    }


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(".calls") or name == "oracle.nnz_built" else "s"


def print_summary(result: dict, names: list[str]):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']}  tasks {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name in names:
        value = result["metrics"].get(name)
        text = "n/a" if value is None else (
            f"{value:d}" if isinstance(value, int) else f"{value:.6g}")
        print(f"  {name:<34} {text:>14} {unit_of(name)}")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    for command in result["traced_output_mismatch"]:
        print(f"  traced output differs: {command}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ptalgebra" / "cli.py").is_file():
        print("run from the root of a ptalgebra checkout: src/ptalgebra is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    start = time.perf_counter()
    runner = Runner(root, start + HARD_LIMIT_S)
    trace = bool(args.trace)
    probes: list[dict] = []
    passes: list[dict] = []
    if trace:
        passes.append(runner.run_pass(args.workload, args.seed, trace=False))
        passes.append(runner.run_pass(args.workload, args.seed, trace=True))
    else:
        end = start + args.seconds
        durations = []
        while True:
            began = time.perf_counter()
            probes += [runner.probe() for _ in range(PROBES_PER_PASS)]
            passes.append(runner.run_pass(args.workload, args.seed, trace=False))
            durations.append(time.perf_counter() - began)
            if time.perf_counter() + statistics.median(durations) > end:
                break
        while len(probes) < MIN_PROBES or time.perf_counter() < end:
            probes.append(runner.probe())
    result = summarize(args.workload, args.seed, args.seconds, trace, passes, probes)

    chosen = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if trace:
        print_summary(result, sorted(set(chosen) | {k for k in result["metrics"] if "." in k}))
    else:
        print_summary(result, ["fail_ratio", *chosen])
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    missing = [name for name in chosen if result["metrics"].get(name) is None]
    if missing:
        print(f"no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit_of(name)}
                    for name in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
