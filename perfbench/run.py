"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout that holds this file.
Set-up runs first.  Then whole passes over the workload's fixed list of
operations run one after another, until another pass would end after S
seconds; at least one pass always runs.  The outputs of every pass are
checked.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

``pass_s`` is the sum over the pass's operations of each operation's fastest
time in the run.  The host's speed changes by up to 1.8x for seconds to
minutes at a time, and a minimum per operation keeps the fast stretches of
every run where a median over passes follows the slow ones (README.md has
the figures).  The result file also keeps the fastest whole pass.

``setup_s`` is the median over SETUP_PROBES fresh interpreters, each timed
from its spawn until it has imported the program and built the workload's
set-up: one process cannot import numpy twice.  The probes are spread evenly
over the run, between operations and outside their timing, so that they
sample the same stretches of host speed as the passes.  The names and units
of the per-layer metrics come from ``BENCHMARK.json``.  Results and traces
go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread: on two CPUs the default OpenBLAS threads cost 1.6x the CPU
# time of the acceptance checks for the same wall time, and they make the
# wall time depend on what else runs on the machine.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def run_pass(ops, tracer, between):
    """One pass: every operation once, in order, with ``between()`` called
    before each outside its timing.  Returns each operation's wall time,
    the results (None where the operation failed) and the failures."""
    times, results, failures = [], [], []
    for op in ops:
        between()
        span = tracer.span(op.span) if tracer and op.span else nullcontext()
        start = perf_counter()
        try:
            with span:
                results.append(op.run())
        except Exception as exc:  # an operation's failure is counted, not fatal
            results.append(None)
            failures.append((op.name, f"{type(exc).__name__}: {exc}"))
        times.append(perf_counter() - start)
    return times, results, failures


@dataclass
class Passes:
    op_times: list = field(default_factory=list)  # per pass, per operation
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # operation -> its error
    problems: list = field(default_factory=list)  # wrong outputs
    cpu_s: float = 0.0
    setups: list = field(default_factory=list)  # set-up probe times

    @property
    def best_s(self) -> float:
        """Sum over the operations of each one's fastest time in the run."""
        return sum(min(times) for times in zip(*self.op_times))

    @property
    def fastest_pass_s(self) -> float:
        """Wall time of the fastest whole pass."""
        return min(sum(times) for times in self.op_times)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_passes(workload, seconds: float, tracer, probe, probes: int) -> Passes:
    """Whole passes until another would end after ``seconds``; at least one.
    Each pass's outputs are checked outside its timing, with tracing off.
    ``probe()`` runs ``probes`` times, due every ``seconds / probes`` from
    the start, between operations; the ones not yet due when the passes end
    run then."""
    ops = workload.operations()
    log = Passes()
    start = perf_counter()

    def between():
        if (len(log.setups) < probes
                and perf_counter() - start >= len(log.setups) * seconds / probes):
            log.setups.append(probe())

    while True:
        cpu_start = cpu_seconds()
        times, results, failures = run_pass(ops, tracer, between)
        log.cpu_s += cpu_seconds() - cpu_start
        log.op_times.append(times)
        log.attempted += len(ops)
        log.failed += len(failures)
        log.failures.update(failures)
        if tracer:
            tracer.active = False  # the checkers call numpy and twohilb too
        log.problems += workload.check(ops, results)
        if tracer:
            tracer.active = True
        typical = statistics.median(sum(t) for t in log.op_times)
        if perf_counter() - start + typical > seconds:
            log.setups += [probe() for _ in range(probes - len(log.setups))]
            return log


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twohilb" / "__init__.py").is_file():
        print(f"error: no twohilb sources under {SRC}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"error: no {spec_file}", file=sys.stderr)
        return 2
    per_layer = json.loads(spec_file.read_text())["per_layer"]
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, str(OUT))
    if args.probe:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer
        tracer = Tracer()
        tracer.install()
    log = run_passes(workload, args.seconds, tracer,
                     lambda: probe_setup(args.workload, args.seed),
                     0 if args.trace else SETUP_PROBES)

    for name, error in log.failures.items():
        print(f"failed: {name}: {error}", file=sys.stderr)
    for problem in dict.fromkeys(log.problems):
        print(f"wrong: {problem}", file=sys.stderr)

    passes = len(log.op_times)
    if tracer:
        values = tracer.metrics([m["name"] for m in per_layer], passes)
        values["proc.cpu_s"] = log.cpu_s / passes
        values["traced.pass_s"] = log.best_s
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in per_layer}
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed, passes=passes)
    else:
        metrics = {
            "pass_s": {"value": log.best_s, "unit": "s"},
            "setup_s": {"value": statistics.median(log.setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    result = {"correct": not log.problems, "attempted": log.attempted,
              "failed": log.failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "op_times_s": log.op_times,
              "fastest_pass_s": log.fastest_pass_s, "setups_s": log.setups, "python": platform.python_version(),
              "numpy": sys.modules["numpy"].__version__, "nproc": os.cpu_count()}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
