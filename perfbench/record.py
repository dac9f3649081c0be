"""Run every workload untraced and traced and record the results.

Run from the root of a checkout:

    python3 perfbench/record.py --out perfbench/reference/baseline.json

For each workload, runs ``run.py`` ``--repeats`` times untraced and once
traced, each in a fresh process at one seed, and prints every metric
with its unit: the median over the untraced repeats, and the sample
count of each. Writes to ``--out`` every run's result line, its printed
notes (per-unit figures, report hashes, execution setup) and whether
the report hashes of all runs of the workload agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py {workload} trace {trace} failed ({proc.returncode}):\n{proc.stderr}")
    return {"trace": trace, "run_s": time.perf_counter() - started,
            "result": json.loads(lines[-1]), "notes": lines[:-1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, args.seed, args.seconds, 0) for _ in range(args.repeats)]
        runs.append(bench(workload, args.seed, args.seconds, 1))
        hashes = {line.split(": ", 1)[1] for run in runs for line in run["notes"]
                  if line.startswith("report sha256")}
        record["workloads"][workload] = {
            "runs": runs,
            "report_hashes_agree": len(hashes) <= 1 if hashes else None,
        }
        print(f"== {workload}: seed {args.seed}, {args.repeats} untraced runs and 1 traced, "
              f"{sum(r['run_s'] for r in runs):.0f} s; correct: "
              f"{[r['result']['correct'] for r in runs]}")
        untraced = runs[:-1]
        for i, run in enumerate(runs):
            label = "traced" if run["trace"] else f"untraced run {i + 1}"
            for line in run["notes"]:
                if " = " in line:
                    print(f"  {label}: {line}")
        for name, metric in untraced[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in untraced]
            print(f"  median of {len(values)} untraced runs: {name} = "
                  f"{statistics.median(values):.6g} {metric['unit']}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
