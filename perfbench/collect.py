"""Run the benchmark over several seeds and summarise the spread.

Run from the repository root, for example:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/out/summary.json
    python3 perfbench/collect.py --seeds 1-10 --traced-seed 1 --out perfbench/baseline.json

For each workload and end-to-end metric the summary gives the values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the quartile distance as a share of the median.  It also
keeps each run's operation latencies (p50, and p90 where ten samples lie
beyond it).  With ``--traced-seed`` it adds one traced run per workload
and its per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, traced: bool) -> tuple[dict, dict]:
    """The run's result line and its per-operation latency summary."""
    proc = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(MANIFEST["run_seconds"]), "--trace", str(int(traced))],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    latency = next((json.loads(line.split(" ", 2)[2]) for line in lines
                    if line.startswith("# op_latency_ms ")), {})
    return json.loads(lines[-1]), latency


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    from run import metadata
    summary = {"meta": metadata(args.seeds[0], smoke=False), "seeds": args.seeds,
               "run_seconds": MANIFEST["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in MANIFEST["workloads"]):
        runs = [run_once(workload, seed, traced=False) for seed in args.seeds]
        results = [result for result, _ in runs]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "all_correct": all(r["correct"] for r in results),
                 "op_latency": [latency for _, latency in runs],
                 "end_to_end": {}}
        for metric in MANIFEST["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["end_to_end"][metric["name"]] = dict(spread(values), unit=metric["unit"],
                                                       bound=metric["bound"])
            line = entry["end_to_end"][metric["name"]]
            print(f"{workload:18} {metric['name']:14} median {line['median']:.6g} "
                  f"spread {line['spread']:.3f} (bound {metric['bound']})", flush=True)
        if args.traced_seed is not None:
            traced, _ = run_once(workload, args.traced_seed, traced=True)
            entry["traced_seed"] = args.traced_seed
            entry["traced_correct"] = traced["correct"]
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
