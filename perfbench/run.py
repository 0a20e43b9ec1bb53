"""Benchmark of qglattice: band-measure scans, the determinant oracle and
many small scans, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the package is imported from the ``src`` directory next
to this one.  One process makes one call at a time (a closed loop with one
caller).  The run repeats whole rounds of the workload's operations until
the operations have taken ``--seconds`` seconds, then checks every output
(outside the timed region) and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics per
round.  ``--smoke`` runs one round of a reduced workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("band_measure", "oracle_xval", "small_scans"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round of a reduced workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_source_tree() -> None:
    """Import qglattice from the checkout's source, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qglattice", "__init__.py")):
        print(f"perfbench: no qglattice package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def make_workload(name, seed, smoke, tmpdir=None):
    import workloads

    return workloads.WORKLOADS[name](seed, smoke, tmpdir)


# --------------------------------------------------------------------------
# set-up

def measure_setup(args, probes: int) -> float:
    """Median wall time from starting a fresh interpreter until it has
    imported qglattice and built the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit {code}")
        times.append(elapsed)
    return statistics.median(times)


def import_times(probes: int) -> tuple:
    """Median cumulative import time of qglattice and of scipy.optimize, in s,
    from ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    total, scipy_opt = [], []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qglattice"],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                found[parts[2].strip()] = int(parts[1]) * 1e-6
        total.append(found["qglattice"])
        scipy_opt.append(found.get("scipy.optimize", 0.0))
    return statistics.median(total), statistics.median(scipy_opt)


def reference_loop() -> float:
    """A fixed pure-Python loop, timed so that drift of the machine shows."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# --------------------------------------------------------------------------
# rounds

class Run:
    """Attempted and failed operations, latencies and check outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.by_op = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = {}
        self.round_rates = []
        self.missed_gaps = set()

    def round(self, tracer=None) -> float:
        """One round: every operation once, timed; then its checks, untimed.
        Returns the round's timed seconds."""
        results = {}
        timed = 0.0
        for op in self.workload.ops:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if tracer:
                    tracer.enabled = True
                t0 = time.perf_counter()
                try:
                    result = op.fn()
                    error = None
                except Exception as exc:  # a failing operation is counted, not fatal
                    error = exc
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.enabled = False
            timed += elapsed
            self.latencies.append(elapsed)
            self.by_op.setdefault(op.label, []).append(elapsed)
            self.attempted += 1
            if tracer:
                tracer.counters["runtime_warnings"] += sum(issubclass(w.category, RuntimeWarning) for w in caught)
                if op.out_path and error is None:
                    tracer.counters["bytes_written"] += os.path.getsize(op.out_path)
            if error is not None:
                self.failed += 1
                self.failures.setdefault(op.label, f"{type(error).__name__}: {error}")
            else:
                results[op.label] = result
        for op in self.workload.ops:
            if op.check and op.label in results:
                self._check(op.check, results[op.label])
        # gaps narrower than one probe step that one scan of a swap pair
        # stepped over; reported, not counted as failures
        self.missed_gaps.update(self._check(self.workload.check_round, results) or ())
        return timed

    def _check(self, fn, arg):
        from workloads import CheckFailed

        try:
            return fn(arg)
        except CheckFailed as exc:
            if len(self.problems) < 20:
                self.problems.append(str(exc))
            return None

    def rounds_for(self, seconds: float, smoke: bool, tracer=None) -> tuple:
        """Whole rounds until the timed operations come nearest to `seconds`."""
        timed = 0.0
        n = 0
        while True:
            t = self.round(tracer)
            self.round_rates.append(len(self.workload.ops) / t)
            timed += t
            n += 1
            if smoke or timed + 0.5 * timed / n >= seconds:
                return n, timed


def summary(run: Run) -> dict:
    groups = {}
    for label, times in run.by_op.items():
        groups.setdefault(label.split(" #")[0], []).extend(times)
    return {name: 1e3 * statistics.median(times) for name, times in groups.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    sys.path.insert(0, HERE)
    if args.setup_probe:
        make_workload(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    if not args.trace:
        setup_s = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        workload = make_workload(args.workload, args.seed, args.smoke, tmpdir)
        ref_s = reference_loop()
        run = Run(workload)
        if args.trace:
            import tracing

            import_s, scipy_s = import_times(1 if args.smoke else IMPORTTIME_PROBES)
            tracer = tracing.Tracer()
            extra = []
            elapsed = 0.0
            # untraced and traced rounds alternate, so that drift of the
            # machine falls on both alike
            while True:
                plain = run.round()
                tracer.install()
                try:
                    traced = run.round(tracer)
                finally:
                    tracer.uninstall()
                extra.append(traced - plain)
                elapsed += plain + traced
                rounds = len(extra)
                if args.smoke or elapsed * (1.0 + 0.5 / rounds) >= args.seconds:
                    break
            values = tracer.metrics(rounds, statistics.median(extra))
            values["setup.import_s"] = import_s
            values["setup.scipy_import_s"] = scipy_s
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in tracing.METRICS.items()}
        else:
            rounds, timed = run.rounds_for(args.seconds, args.smoke)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": run.attempted / timed, "unit": "ops/s"},
                "op_p50_ms": {"value": 1e3 * statistics.median(run.latencies), "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass  # another run still uses it

    for label, reason in run.failures.items():
        print(f"perfbench: failed: {label}: {reason}", file=sys.stderr)
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for lo, hi in sorted(run.missed_gaps):
        print(f"perfbench: gap [{lo!r}, {hi!r}] missed by one scan of a swap pair", file=sys.stderr)
    print("perfbench: " + json.dumps({"rounds": rounds, "ref_loop_s": ref_s,
                                      "round_ops_per_s": run.round_rates, "op_ms": summary(run)}),
          file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
