"""Benchmark of the storage-rules simulator and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # every workload and one traced run, tiny sizes

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it records spans and reports the per-layer metrics, plus
the tracing overhead.  Both sets are declared in BENCHMARK.json.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record of each run (seed,
versions, input sizes, failures) and its spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Only the compiled source tree and perfbench/out are written.
sys.dont_write_bytecode = True

from harness import Harness, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_BUDGET_S = 165.0    # a run must end within 180 s, however slow the program
CHECK_RESERVE_S = 45.0  # stop timing early if the checks would miss the budget


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; run every workload, and one traced run")
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required unless --smoke is given")
    return args


def peak_rss_mb() -> dict:
    """Peak resident set of this process and of its largest child (Linux: KiB)."""
    return {"own": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "largest_child": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def metadata(seed: int, smoke: bool) -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "storage_rules").glob("*.py")):
        digest.update(path.read_bytes())
    return {"seed": seed, "git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "sizes": "smoke" if smoke else "full"}


def quantiles_ms(seconds: list[float]) -> dict:
    """p50, and p90 only when at least ten samples lie beyond it."""
    ms = [1000 * s for s in seconds]
    found = {"samples": len(ms), "p50_ms": statistics.median(ms)}
    if len(ms) >= 2:
        p90 = statistics.quantiles(ms, n=10)[-1]
        if sum(x > p90 for x in ms) >= 10:
            found["p90_ms"] = p90
    return found


def measure(h: Harness, wl, layers, record: dict, seed, seconds, traced, sizes) -> dict:
    """Set up, run the timed loop, check every output; return the metrics."""
    setup_times = []
    for _ in range(sizes.setup_repeats):
        _, secs, problem = h.guard("setup", wl.setup)
        if problem is not None:
            h.record("setup", problem)
            return {}
        setup_times.append(secs)
    record["setup_times_s"] = setup_times

    # Closed loop, one client.  A traced run alternates untraced and traced
    # passes (ABBA, so drift does not read as overhead); the difference of
    # their medians is the tracing overhead.
    tracer = h.tracer
    outputs = []
    pass_times: dict = {False: [], True: []}
    order = (False, True) if traced else (False,)
    start = time.perf_counter()
    while True:
        for traced_pass in order:
            tracer.enabled = traced_pass
            pass_start = time.perf_counter()
            for op in wl.one_pass():
                output, secs, problem = h.guard(op.key, op.run)
                outputs.append((op, output, problem, secs))
            pass_times[traced_pass].append(time.perf_counter() - pass_start)
        tracer.enabled = traced
        order = order[::-1]
        if time.perf_counter() - start >= seconds and len(outputs) >= wl.min_ops:
            break
        if h.deadline - time.perf_counter() < CHECK_RESERVE_S:
            break
    timed_s = time.perf_counter() - start
    record["peak_rss_mb"] = peak_rss_mb()  # the workload's peak, before the checks allocate
    record["op_sizes"] = {op.key: op.size for op, *_ in outputs}
    record["op_seconds"] = [(op.key, secs) for op, _, _, secs in outputs]
    record["pass_times_s"] = {"untraced": pass_times[False], "traced": pass_times[True]}
    record["op_latency"] = quantiles_ms([secs for *_, secs in outputs])

    for op, output, problem, _ in outputs:
        if problem is None:
            found, _, problem = h.guard(f"check.{op.key}", lambda: wl.verdict(op.key, output))
            problem = problem or found
        h.record(op.key, problem)
    for check_name, verdict in wl.final_checks():
        h.check(check_name, verdict)

    if not traced:
        events = sum(op.events for op, _, problem, _ in outputs if problem is None)
        return {"setup_s": statistics.median(setup_times),
                "events_per_s": events / timed_s,
                "peak_rss_mb": record["peak_rss_mb"][
                    "largest_child" if wl.runs_in_children else "own"]}
    produced = {"trace.overhead_s": (statistics.median(pass_times[True])
                                     - statistics.median(pass_times[False]))}
    produced.update(layers.trace_layers(h, sizes, seed, OUT / f"probe-{os.getpid()}.csv"))
    produced.update(layers.cli_layers(h, wl.runner, sizes.cli_repeats))
    return produced


def run_workload(workloads, layers, manifest, name, seed, seconds, traced, sizes, smoke):
    run_id = f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id, traced)
    h = Harness(time.perf_counter() + RUN_BUDGET_S, tracer)
    wl = workloads.WORKLOADS[name](seed, sizes, ROOT, OUT)
    record = {"run": run_id, "workload": name, "trace": int(traced),
              "meta": metadata(seed, smoke), "seconds": seconds}
    try:
        produced = measure(h, wl, layers, record, seed, seconds, traced, sizes)
    finally:
        wl.close()

    declared = manifest["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": produced.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    missing = [metric for metric, entry in metrics.items() if entry["value"] is None]
    h.record("metrics", f"not produced: {missing}" if missing else None)
    result = {"correct": h.failed == 0, "attempted": h.attempted, "failed": h.failed,
              "metrics": metrics}
    record.update(result, failures=h.failures, fail_ratio=h.failed / h.attempted)
    with open(OUT / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        tracer.write(OUT / f"{run_id}.spans.jsonl")
    return record, result


def report(record: dict, result: dict) -> None:
    print(f"# {record['workload']} trace={record['trace']} meta={json.dumps(record['meta'])}")
    for failure in record["failures"][:20]:
        print(f"# FAILED {failure}")
    print(f"# fail_ratio {record['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    if "op_latency" in record:
        print(f"# op_latency_ms {json.dumps(record['op_latency'])}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']} {entry['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "storage_rules" / "cli.py").is_file() or not (tests / "reference_sim.py").is_file():
        print(f"error: {ROOT} holds no storage_rules source tree to benchmark", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: the source tree does not compile", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(src), str(tests)]
    import layers
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.smoke:
        # Every workload untraced, then one traced run: each traced run
        # probes every layer, whatever its workload.
        runs = [(name, False) for name in workloads.WORKLOADS] + [("nsecond-protect", True)]
        sizes = workloads.SMOKE
    else:
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        runs = [(args.workload, bool(args.trace))]
        sizes = workloads.FULL
    all_correct = True
    for name, traced in runs:
        record, result = run_workload(workloads, layers, manifest, name, args.seed,
                                      args.seconds, traced, sizes, args.smoke)
        report(record, result)
        print(json.dumps(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
