"""Repeat workloads over several seeds and report each end-to-end metric's
spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--against FILE]

Runs the benchmark command once per workload and seed, one run at a time.
The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) over its median.  A
metric is "steady" when its spread is below a third of its bound.  Every
run must be correct, and the share of failed operations must be the same
in every run of a workload.  With --against, the medians are compared with
an earlier summary: a median worse by more than the bound is a regression.
The summary is written to .perfbench_out/spread-<first>-<last seed>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(spec: dict, runs: list[dict]) -> dict:
    out = {"correct": all(r["correct"] for r in runs),
           "failed_shares": sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs}),
           "metrics": {}}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out["metrics"][metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": metric["bound"], "better": metric["better"], "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    p.add_argument("--against", default=None, help="an earlier summary to compare with")
    args = p.parse_args(argv)
    seeds = seed_range(args.seeds)
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        s = summary[workload] = summarize(spec, runs)
        print(f"{workload}: {len(runs)} runs, correct={s['correct']}, "
              f"failed share {' '.join(s['failed_shares'])}")
        ok &= s["correct"] and len(s["failed_shares"]) == 1
        for name, m in s["metrics"].items():
            verdict = ("steady" if m["spread"] < m["bound"] / 3
                       else "within bound" if m["spread"] <= m["bound"] else "too wide")
            line = (f"  {name:12} median {m['median']:.4g}  q1 {m['q1']:.4g}  "
                    f"q3 {m['q3']:.4g}  spread {m['spread']:.3f}  bound {m['bound']}  {verdict}")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = m["median"] / before["median"] - 1
                worse = change if m["better"] == "lower" else -change
                line += f"  vs earlier {change:+.3f}{'  REGRESSION' if worse > m['bound'] else ''}"
                ok &= worse <= m["bound"]
            ok &= m["spread"] <= m["bound"]
            print(line)
    out = ROOT / ".perfbench_out" / f"spread-{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
