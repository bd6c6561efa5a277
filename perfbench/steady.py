"""Steadiness check: run every workload of BENCHMARK.json as it is
described there, in two sets of ten runs on seeds 1 to 10, and report
whether each end-to-end metric stays within its bound.

    python3 perfbench/steady.py --trace-runs 2 --out steady.json

For each workload and end-to-end metric it reports the median of each
set and the spread (q3 - q1) / median of its values, with the quartiles
of statistics.quantiles(values, n=4).  The two sets agree on a metric
when the second median differs from the first by at most the bound,
either way, and every spread is within the bound; setup_s is held to
both tests as well.  With --trace-runs 2 it also runs the traced
measurement twice on seed 1 and checks that every per-layer count
repeats exactly.  The report records the interpreter version and nproc.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT = 900
SEEDS = range(1, 11)
SETS = 2


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default=None, help="also write the report")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for set_index in range(SETS):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in SEEDS:
                metrics, result = run_once(spec, workload, seed, 0)
                if not result["correct"]:
                    agree = False
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} ops failed", file=sys.stderr)
                for name in values:
                    values[name].append(metrics[name])
                print(f"{workload} set {set_index} seed {seed}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                      file=sys.stderr)
            sets.append(values)
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            change = (medians[1] - medians[0]) / medians[0]
            ok = abs(change) <= bound and all(s <= bound for s in spreads)
            agree &= ok
            rows[name] = {"bound": bound, "medians": medians,
                          "spreads": spreads, "change": change,
                          "steady": all(s < bound / 3 for s in spreads),
                          "agree": ok, "values": [s[name] for s in sets]}
            print(f"{workload:<20} {name:<14} medians "
                  + " ".join(f"{v:.4g}" for v in medians)
                  + f"  change {change:+.3f}  spreads "
                  + " ".join(f"{s:.3f}" for s in spreads)
                  + f"  bound {bound}  {'agree' if ok else 'DISAGREE'}")
        report["workloads"][workload] = {"end_to_end": rows}
        if args.trace_runs:
            traced = [run_once(spec, workload, SEEDS[0], 1)[0]
                      for _ in range(args.trace_runs)]
            # all but the times and the overhead ratio must repeat exactly
            counts = [{k: v for k, v in t.items()
                       if not (k.endswith(("_s", ".s"))
                               or k == "trace.overhead_ratio")}
                      for t in traced]
            names = {m["name"] for m in spec["per_layer"]}
            repeat = all(c == counts[0] for c in counts)
            complete = all(set(t) == names for t in traced)
            agree &= repeat and complete
            report["workloads"][workload]["trace"] = {
                "counts_repeat": repeat, "all_metrics_reported": complete,
                "overhead_ratio": [t["trace.overhead_ratio"]
                                   for t in traced],
                "traced_sweep_s": [t["trace.sweep_s"] for t in traced],
                "runs": traced}
            print(f"{workload:<20} trace: counts repeat {repeat}, all "
                  f"per-layer metrics {complete}, overhead "
                  + " ".join(f"{t['trace.overhead_ratio']:.3f}"
                             for t in traced))
    report["agree"] = agree
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(f"python {report['python']}, nproc {report['nproc']}: "
          f"{'all agree' if agree else 'NOT all agree'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
