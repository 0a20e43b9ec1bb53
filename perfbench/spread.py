"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workloads a,b] [--seconds S]

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  The reference loop each run times before its operations is
summarised the same way, so that drift of the machine itself shows.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        op_ms = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            info = json.loads([line for line in proc.stderr.splitlines()
                               if line.startswith("perfbench: {")][-1][len("perfbench: "):])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            values.setdefault("ref_loop_s", []).append(info["ref_loop_s"])
            for kind, ms in info["op_ms"].items():
                op_ms.setdefault(kind, []).append(ms)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} rounds={info['rounds']} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name)
            mark = "" if bound is None else f" bound {bound} ({rel / bound:.2f} of it)"
            print(f"{workload} {name}: median {med:.6g} quartiles [{q1:.6g}, {q3:.6g}] spread {rel:.4f}{mark}")
        for kind, ms in op_ms.items():
            print(f"{workload} op {kind}: median {statistics.median(ms):.4g} ms")
        print(f"{workload} failed shares: {sorted(str(s) for s in shares)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
