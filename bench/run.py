"""Benchmark for cdclab: end-to-end metrics, and per-layer self times
from a traced pass.

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Workloads: census, exact-search and stacking (see bench/README.md);
``all`` runs each in a process of its own, one after another.  The
program is imported from ``src`` next to this directory; the run
stops with exit code 2 when it is not there.

A run repeats whole passes over the workload's operations for as
long as another pass fits in ``--seconds``; without tracing it sets
the workload up afresh, several times, before each pass.  With
``--trace 0`` it reports ``setup_s``, ``wall_s`` and ``peak_rss_mb``;
with ``--trace 1`` untraced and traced passes alternate and it reports
the per-layer metrics of ``spans.PER_LAYER``.  Each reported time is a
median over the run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown"


def machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit()}


def fresh_import():
    """Import cdclab (and its CLI) from src, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "cdclab" or n.startswith("cdclab.")]:
        del sys.modules[name]
    cdclab = importlib.import_module("cdclab")
    importlib.import_module("cdclab.cli")
    return cdclab


def run_pass(ops, tracer, traced: bool) -> tuple[float, int, list[str]]:
    """One pass over the operations: its wall time (operations only,
    checks excluded), the number that failed, and check problems."""
    results: dict = {}
    wall = 0.0
    failed = 0
    problems: list[str] = []
    for op in ops:
        if tracer is not None:
            tracer.active = traced
        start = time.perf_counter()
        try:
            out = op.run(results)
            error = None
        except Exception as exc:  # an operation that raises has failed
            error = exc
        wall += time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if error is not None:
            failed += 1
            print(f"failed: {op.name}: {type(error).__name__}: {error}",
                  file=sys.stderr)
            continue
        try:
            wrong = op.check(results, out)
        except Exception as exc:  # a check that cannot read the output
            wrong = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if wrong:
            failed += 1
            problems += [f"{op.name}: {p}" for p in wrong]
            continue
        results[op.name] = out
    return wall, failed, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
        def set_up():
            start = time.perf_counter()
            cdclab = fresh_import()
            ops = WORKLOADS[name](cdclab, seed, work)
            return cdclab, ops, time.perf_counter() - start

        cdclab, ops, _ = set_up()
        if Path(cdclab.__file__).resolve().parent.parent != SRC.resolve():
            raise SystemExit(f"cdclab came from {cdclab.__file__}, not {SRC}")
        tracer = None
        if traced:  # the inputs again, traced; their spans join each pass's
            tracer = spans.Tracer()
            tracer.install()
            tracer.active = True
            ops = WORKLOADS[name](cdclab, seed, work)
            tracer.active = False
            tracer.keep()

        setup_times: list[float] = []
        walls: dict[bool, list[float]] = {False: [], True: []}
        layers: list[dict[str, float]] = []
        attempted = failed = 0
        problems: list[str] = []
        deadline = time.monotonic() + seconds
        this_traced = False
        while True:
            # Set-up is timed before every untraced pass, so that its
            # samples spread over the run as the passes do.
            if not traced:
                for _ in range(SETUP_REPEATS):
                    _, ops, took = set_up()
                    setup_times.append(took)
            started = time.monotonic()
            wall, n_failed, wrong = run_pass(ops, tracer, this_traced)
            attempted += len(ops)
            failed += n_failed
            problems += wrong
            walls[this_traced].append(wall)
            if this_traced:
                layers.append(tracer.take())
            print(f"pass {len(walls[False]) + len(walls[True])}"
                  f"{' traced' if this_traced else ''}: {wall:.3f} s, "
                  f"{n_failed} of {len(ops)} failed", flush=True)
            # Stop before a pass that would overrun, once there is a
            # traced pass when one is asked for.
            now = time.monotonic()
            if now + (now - started) > deadline and (not traced or layers):
                break
            this_traced = traced and not this_traced

    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    if traced:
        metrics = spans.median_metrics(layers)
        metrics["trace.overhead_s"] = \
            statistics.median(walls[True]) - statistics.median(walls[False])
        units = {k: unit for k, (unit, _) in spans.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own; a summary line apiece."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary[name] = result
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                          for k, m in result["metrics"].items())
        print(f"{name}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}; {shown}")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "cdclab" / "__init__.py").is_file():
        print(f"error: no cdclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine: " + json.dumps(machine()), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
