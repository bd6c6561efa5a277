"""Benchmark of the extremalcurves package: one closed-loop client in one
process, running one workload's ops in a fixed order, pass after pass.

    python3 perfbench/run.py --workload specialize-general --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (sweep_ref, setup_s,
peak_rss_mb); with --trace 1 a separate traced measurement gives the
per-layer ones.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import BUILDERS, WHY  # noqa: E402

SETUP_REPEATS = 7
REF_ITERATIONS = 40000
REF_SECONDS = 0.02         # the reference loop's nominal time
GOLDEN = HERE / "golden.json"


class Context:
    """Per-run state shared by the ops of one workload."""

    def __init__(self, workload, seed, golden):
        self.workload = workload
        self.seed = seed
        self.golden = golden       # {op key: sha256} on the golden seed
        self.digests = {}          # certificate digests seen in this run


def import_package():
    """Import extremalcurves afresh from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "extremalcurves" or n.startswith("extremalcurves.")]:
        del sys.modules[name]
    ec = importlib.import_module("extremalcurves")
    if Path(ec.__file__).resolve().parent != SRC / "extremalcurves":
        raise SystemExit(f"imported extremalcurves from {ec.__file__}, "
                         f"not from {SRC}")
    cli = importlib.import_module("extremalcurves.cli")
    return types.SimpleNamespace(ec=ec, cli=cli, field=ec.PrimeField())


def set_up(ctx, workdir):
    """Import the package and write the workload's inputs; return the ops."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    api = import_package()
    return api, BUILDERS[ctx.workload](api, ctx, workdir)


def reference_seconds():
    """Time a fixed pure-Python job of the kind the package's arithmetic
    does: tuple keys, dict updates, integer products mod a prime.  Its
    time tracks the host's speed, and no change to the package can move
    it.  The collector is off while it runs: a collection started here
    would walk the objects the last op left and charge them to the host."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for i in range(REF_ITERATIONS):
            key = (i % 37, i % 11, i % 5)
            acc[key] = (acc.get(key, 0) * 31 + i) % 32003
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pass(ops, failures, op_times, tracer=None):
    """One closed-loop pass over the ops, with the reference loop timed
    before each op.  Returns (attempted, failed, seconds in the ops,
    mean seconds of the reference loop)."""
    failed, busy, ref = 0, 0.0, 0.0
    for index, (name, op) in enumerate(ops):
        ref += reference_seconds()
        if tracer is not None:
            tracer.trace_id = index
        start = time.perf_counter()
        try:
            problems = op()
        except Exception as err:  # a raised exception is a failed op
            problems = [f"raised {type(err).__name__}: {err}"]
        took = time.perf_counter() - start
        op_times.setdefault(name, []).append(took)
        busy += took
        if problems:
            failed += 1
            failures.append(f"{name}: {'; '.join(problems)}")
    return len(ops), failed, busy, ref / len(ops)


def measure(ops, seconds, failures, op_times, tracer=None):
    """Passes within `seconds` (at least one): another pass starts only
    when a pass of median length would still end in time.  Returns the
    (op seconds, reference seconds) of each pass and (attempted, failed)."""
    totals = [0, 0]
    passes, walls = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        attempted, failed, busy, ref = run_pass(ops, failures, op_times,
                                                tracer)
        walls.append(time.perf_counter() - start)
        passes.append((busy, ref))
        totals = [totals[0] + attempted, totals[1] + failed]
        if tracer is not None:
            tracer.close_pass()
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            return passes, totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "extremalcurves" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    golden = None
    if GOLDEN.is_file():
        recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if recorded["seed"] == args.seed:
            golden = recorded["certificates"]
    ctx = Context(args.workload, args.seed, golden)
    work = (ROOT / ".perfbench_work"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups, scaled = [], []
        for repeat in range(SETUP_REPEATS):
            ref = reference_seconds()
            start = time.perf_counter()
            api, ops = set_up(ctx, work / f"setup-{repeat}")
            setups.append(time.perf_counter() - start)
            scaled.append(setups[-1] * REF_SECONDS / ref)
        print(f"workload {args.workload}: {WHY[args.workload]}")
        print("set-up: " + ", ".join(f"{t:.4f}" for t in setups) + " s")
        print(f"seed {args.seed}; {len(ops)} ops per pass; python "
              f"{sys.version.split()[0]}")
        failures, op_times = [], {}
        if args.trace:
            # untraced passes for a third of the time (the overhead
            # reference), one counting pass, then the timed traced passes
            begin = time.perf_counter()
            reference, ref_totals = measure(ops, args.seconds / 3,
                                            failures, {})
            tracer = tracing.install()
            with tracer.counters():
                counted, count_totals = measure(ops, 0, failures, {}, tracer)
            passes, totals = measure(
                ops, args.seconds - (time.perf_counter() - begin), failures,
                op_times, tracer)
            totals = [sum(t) for t in zip(totals, ref_totals, count_totals)]
            metrics = tracer.metrics(passes, reference)
            print("untraced passes: "
                  + ", ".join(f"{busy:.3f}" for busy, _ in reference) + " s")
            print(f"counting pass: {counted[0][0]:.3f} s")
            for line in tracer.report_lines():
                print(line)
        else:
            passes, totals = measure(ops, args.seconds, failures, op_times)
            metrics = {
                "sweep_ref": (statistics.median(
                    busy / ref for busy, ref in passes), "ref"),
                "setup_s": (statistics.median(scaled), "s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"{'traced ' if args.trace else ''}passes: {len(passes)}, "
          + ", ".join(f"{busy:.3f}" for busy, _ in passes) + " s in the ops; "
          + "median " + f"{statistics.median(b for b, _ in passes):.3f} s")
    print("reference loop, mean per pass: "
          + ", ".join(f"{ref * 1000:.3f}" for _, ref in passes) + " ms")
    for name, times in op_times.items():
        print(f"  {name:<36} median {statistics.median(times):9.4f} s"
              f"  over {len(times)}")
    attempted, failed = totals
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
