"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep cli-cold --seeds 1 10
    python3 perfbench/spread.py --trace 1 --seeds 1 2 --out perfbench/baseline-trace.json

For every workload and end-to-end metric this prints the median of the runs,
the distance between the first and third quartile as a share of the median,
and that spread as a share of the metric's bound in BENCHMARK.json. With
--out it also writes every run's metrics and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 10), metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.setdefault(workload, []).append(
                {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": values}
            )
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name] for r in runs[workload]]
            row = {"median": statistics.median(values)}
            if len(values) >= 2 and row["median"]:
                row["spread"] = measure.quartile_spread(values)
                if bounds.get(name):
                    row["spread_per_bound"] = row["spread"] / bounds[name]
            summary[workload][name] = row
    print()
    for workload, rows in summary.items():
        for name, row in rows.items():
            cells = "  ".join(f"{k} {v:.4g}" for k, v in row.items())
            print(f"{workload:12s} {name:28s} {cells}")
    if args.out:
        args.out.write_text(
            json.dumps({"provenance": run.provenance(), "seconds": args.seconds,
                        "trace": args.trace, "summary": summary, "runs": runs}, indent=1) + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
