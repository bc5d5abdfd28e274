"""Benchmark harness for gkz-forge.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload series-certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One single-threaded process drives the package in ``src/`` through its
public API; nothing under ``src/`` is changed.  A run sets up its workload
several times (import of the package in a fresh interpreter, plus input and
reference generation) and reports the median as ``setup_s``.  It then runs
the workload's operation list in a closed loop, one client, pass after pass
until ``--seconds`` have elapsed (at least two passes), and checks every
output against references computed in set-up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
warm-up pass, then alternates untraced passes with traced ones, in which every public function of the six
layers records a span; it reports per-layer self times and exact counters,
checks that the counters repeat exactly from pass to pass, and writes the
spans to ``.perfbench_out/`` when it ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong result sets
``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_PASSES = 2
# after one warm-up pass, traced runs repeat this pattern of untraced (False)
# and traced (True) passes; its symmetry cancels a steady drift of host
# speed from the tracing overhead
TRACE_PATTERN = (False, True, True, False)
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import gkz_forge\n"
    "print(time.perf_counter() - t)\n"
    "print(gkz_forge.__file__)\n"
)

sys.path[:0] = [str(SRC), str(HERE)]
import tracer as tracing  # noqa: E402  (needs the paths above)
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """Time ``import gkz_forge`` in a fresh interpreter on the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = proc.stdout.split("\n")[:2]
    if Path(path).resolve().parent != (SRC / "gkz_forge").resolve():
        raise RuntimeError(f"imported gkz_forge from {path}, not from {SRC}")
    return float(seconds)


def environment():
    """Interpreter, library versions and processor count of this run."""
    import mpmath
    import numpy

    gmpy2 = "present" if importlib.util.find_spec("gmpy2") else "absent"
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__},"
        f" mpmath {mpmath.__version__} (backend {mpmath.libmp.BACKEND}),"
        f" gmpy2 {gmpy2}, nproc {os.cpu_count()}"
    )


def run_pass(ops, tracer, wrong):
    """One pass over the operation list: (summed operation time, failed count).

    An operation fails when it raises or its output is wrong; a wrong output,
    or an exception its operation does not expect, is also noted in ``wrong``.
    """
    total, failed = 0.0, 0
    for op in ops:
        gc.collect()  # every operation starts from the same heap
        error = None
        with tracer.op(op.name) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            total += time.perf_counter() - t0
        if error is not None:
            failed += 1
            if type(error).__name__ not in op.expected_errors:
                wrong.append(f"{op.name}: raised {type(error).__name__}: {error}")
            continue
        if tracer and op.kind == "cli":
            tracer.count_stdout(len(out.stdout.encode("utf-8")))
        try:
            op.check(out)
        except workloads.WrongResult as exc:
            failed += 1
            wrong.append(f"{op.name}: {exc}")
        del out  # no output stays alive while the next operation runs
    return total, failed


def measure(args):
    import gkz_forge
    import gkz_forge.cli  # noqa: F401  (not imported by the package itself)

    workdir = OUT / f"{args.workload}-{args.seed}"

    setup = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        ops = workloads.prepare(args.workload, args.seed, gkz_forge, ROOT, workdir)
        setup.append(t_import + time.perf_counter() - t0)

    tracer = tracing.Tracer(gkz_forge) if args.trace else None
    pattern = TRACE_PATTERN if args.trace else (False,)
    wrong = []
    plain, traced, layer, counts = [], [], [], []
    attempted = failed = 0
    if args.trace:
        # the first pass of a process runs slower; keep it out of the overhead
        _, failed = run_pass(ops, None, wrong)
        attempted = len(ops)
    start = time.perf_counter()
    k = 0
    while (
        k < max(MIN_PASSES, len(pattern))
        or k % len(pattern)
        or time.perf_counter() - start < args.seconds
    ):
        on = pattern[k % len(pattern)]
        if on:
            since = tracer.start_pass()
            tracer.install()
            try:
                seconds, nfail = run_pass(ops, tracer, wrong)
            finally:
                tracer.uninstall()
            traced.append(seconds)
            times, counters = tracer.finish_pass(since)
            layer.append(times)
            counts.append(counters)
        else:
            seconds, nfail = run_pass(ops, None, wrong)
            plain.append(seconds)
        attempted += len(ops)
        failed += nfail
        k += 1

    if args.trace:
        if any(c != counts[0] for c in counts):
            wrong.append(f"exact counters differ between traced passes: {counts}")
        metrics = {
            name: statistics.median(t[name] for t in layer)
            for name in layer[0]
        }
        metrics.update(counts[0])
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    passes = len(traced) + len(plain)
    print(f"{args.workload:16s} seed {args.seed}; {environment()}")
    for name in units:
        print(f"{args.workload:16s} {name:24s} {metrics[name]:16.6f} {units[name]}")
    print(
        f"{args.workload:16s} {passes} passes of {len(ops)} operations"
        f" ({len(plain)} untraced, {len(traced)} traced), {failed} failed"
    )
    print(f"{args.workload:16s} pass seconds: untraced {plain}, traced {traced}")
    for line in sorted(set(wrong)):
        print(f"WRONG {line}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args):
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    return merged


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gkz_forge" / "__init__.py").is_file() or not (ROOT / "jobs").is_dir():
        print(f"perfbench: {ROOT} holds no gkz_forge sources and jobs to measure", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
