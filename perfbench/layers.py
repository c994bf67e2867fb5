"""Per-layer metrics, measured in the traced run.

Every public function a workload reaches is called here once, in this
process, inside a span named after the metric it yields, so that layers
the timed loop only reaches through a CLI subprocess are timed too.
Metric names follow ``<module>.<function>[.<policy>.<regime>].<quantity>``.
"""
from __future__ import annotations

import statistics

from storage_rules import bufferpool

from harness import Harness
from workloads import (CLI_COMMANDS, POLICIES, CliRunner, Sizes, checkpoint_configs,
                       cli_in_process, pipeline_configs, protect_configs, report_problem,
                       sim_configs)


def _traced(h: Harness, name: str, fn):
    """One counted operation; returns (output, seconds) or (None, None)."""
    output, seconds, problem = h.guard(name, fn)
    h.record(name, problem)
    return (None, None) if problem else (output, seconds)


def _simulate(h: Harness, metrics: dict, trace, frames: int, config):
    name = f"bufferpool.simulate.{config.label}"
    report, seconds = _traced(h, name, lambda: bufferpool.simulate(trace, config.pool(frames)))
    if report is None:
        return None
    h.check(f"check.{name}", lambda: report_problem(report, config, trace, frames))
    evictions = report.evictions
    metrics.update({
        f"{name}.s": seconds,
        f"{name}.hit_ratio": report.hit_ratio,
        f"{name}.evictions": evictions,
        f"{name}.fallback_ratio": report.protected_eviction_fallbacks / evictions if evictions else 0.0,
        f"{name}.checkpoint_flushes": report.checkpoint_flushes,
    })
    return report


def trace_layers(h: Harness, sizes: Sizes, seed: int, csv_path) -> dict:
    metrics: dict = {}
    shape = sizes.pipeline
    trace, metrics["bufferpool.generate_trace.s"] = _traced(
        h, "bufferpool.generate_trace", lambda: shape.build(seed))
    if trace is None:
        return metrics

    def write():
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            bufferpool.write_trace_csv(trace, fh)
    _, metrics["bufferpool.write_trace_csv.s"] = _traced(h, "bufferpool.write_trace_csv", write)
    if metrics["bufferpool.write_trace_csv.s"] is None:
        return metrics
    metrics["bufferpool.write_trace_csv.bytes"] = csv_path.stat().st_size

    def read():
        with open(csv_path, encoding="utf-8") as fh:
            return bufferpool.read_trace_csv(fh)
    read_back, metrics["bufferpool.read_trace_csv.s"] = _traced(
        h, "bufferpool.read_trace_csv", read)
    csv_path.unlink(missing_ok=True)
    del trace
    if read_back is None:
        return metrics
    # The CLI simulates what it read back, so the probe does too.
    for config in pipeline_configs(shape):
        _simulate(h, metrics, read_back, shape.frames, config)
    del read_back

    shape = sizes.protect
    trace = shape.build(seed)
    for config in protect_configs(shape):
        _simulate(h, metrics, trace, shape.frames, config)

    shape = sizes.checkpoint
    trace = shape.build(seed)
    configs = checkpoint_configs(shape) + sim_configs({"nocp": (0.0, None)})
    reports = {config.label: _simulate(h, metrics, trace, shape.frames, config)
               for config in configs}
    boundaries = int(trace[-1].time_s // shape.checkpoint_s)
    metrics["bufferpool.checkpoint.boundaries"] = boundaries
    for policy in POLICIES:
        cp1, nocp = f"bufferpool.simulate.{policy}.cp1.s", f"bufferpool.simulate.{policy}.nocp.s"
        if cp1 in metrics and nocp in metrics:
            metrics[f"bufferpool.checkpoint.{policy}.s"] = metrics[cp1] - metrics[nocp]
    if reports.get("lru.cp1") is not None:
        metrics["bufferpool.checkpoint.flushes_per_boundary"] = (
            reports["lru.cp1"].checkpoint_flushes / boundaries)
    return metrics


def cli_layers(h: Harness, runner: CliRunner, repeats: int) -> dict:
    def median_ms(name, fn):
        samples = [_traced(h, name, fn)[1] for _ in range(repeats)]
        return None if None in samples else 1000 * statistics.median(samples)

    def exits_zero(proc):
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")

    def main_exits_zero(argv):
        code, _ = cli_in_process(argv)
        if code != 0:
            raise RuntimeError(f"cli.main exit {code}")

    metrics = {"cli.interpreter_ms": median_ms(
        "cli.interpreter", lambda: exits_zero(runner.python("-c", "pass")))}
    imported = median_ms("cli.import", lambda: exits_zero(
        runner.python("-c", "import storage_rules.cli")))
    if None not in (imported, metrics["cli.interpreter_ms"]):
        metrics["cli.import_ms"] = imported - metrics["cli.interpreter_ms"]
    for command, argv in CLI_COMMANDS.items():
        metrics[f"cli.main.{command}.ms"] = median_ms(
            f"cli.main.{command}", lambda argv=argv: main_exits_zero(argv))
    return metrics
