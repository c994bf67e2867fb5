"""The benchmark's workloads: inputs built from the seed, one pass of the
closed loop, and the checks that decide whether each output is right.

Each workload is driven by one client: the next operation starts when
the previous one has ended.  `one_pass` returns the operations of one
pass; the runner repeats passes until the run's time is up.  Outputs
are checked after timing (`verdict`), so building a reference never
lands inside the timed phase.
"""
from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference_sim
from storage_rules import bufferpool, cli, rules
from storage_rules.bufferpool import PoolConfig, SimReport, TraceEvent

POLICIES = ("lru", "clock2")

# Break-even interval of the 1997 reference economics (dell_tpcc_1997:
# 8 KB pages, 64 accesses/s, $2000 per disk, $15 per MB of RAM): 266.7 s.
BREAK_EVEN_N = bufferpool.recommended_n(rules.TechnologyParams(128, 64),
                                        rules.EconomicParams(2000, 15))


ZIPF_S = 0.8  # Zipf skew of every trace

# The oracle replays each idle gap shortened to this many checkpoint
# intervals.  A frame dirtied before a gap of three or more intervals is
# clean by the gap's end, and the events after a gap keep their place
# between boundaries when both gaps are whole numbers of intervals, so the
# counters are those of the full gap, which the brute-force oracle would
# step through one boundary at a time.
ORACLE_GAP_INTERVALS = 4


@dataclass(frozen=True)
class TraceShape:
    """Parameters of one synthetic trace and the pool that replays it."""
    ops: int
    pages: int
    frames: int
    write_fraction: float
    ops_per_second: float
    checkpoint_s: float
    oracle_events: int     # leading events replayed against the brute-force oracle
    gap_every: int = 0     # an idle gap of gap_s opens before event gap_every/2,
    gap_s: float = 0.0     # then before every gap_every-th event after it

    def __post_init__(self):
        # A gap-stepping bug shows only if a dirty frame crosses the gap;
        # three gaps in the oracle's prefix make that all but certain.
        assert not self.gap_every or self.gaps_before(self.oracle_events) >= 3
        assert self.gap_s % self.checkpoint_s == 0

    def gaps_before(self, k: int) -> int:
        """Idle gaps that open before event k."""
        return (k + self.gap_every // 2) // self.gap_every

    def events(self, seed: int) -> list[TraceEvent]:
        return bufferpool.generate_trace(seed, self.ops, self.pages, ZIPF_S,
                                         self.write_fraction, self.ops_per_second)

    def with_gaps(self, events: list[TraceEvent], gap_s: float) -> list[TraceEvent]:
        if not self.gap_every:
            return events
        return [TraceEvent(t + gap_s * self.gaps_before(k), page, op)
                for k, (t, page, op) in enumerate(events)]

    def build(self, seed: int) -> list[TraceEvent]:
        return self.with_gaps(self.events(seed), self.gap_s)

    def oracle_prefix(self, events: list[TraceEvent]) -> list[TraceEvent]:
        """The oracle's events, with their gaps shortened."""
        gap_s = min(self.gap_s, ORACLE_GAP_INTERVALS * self.checkpoint_s)
        return self.with_gaps(events[:self.oracle_events], gap_s)

    def size(self) -> dict:
        return {"events": self.ops, "pages": self.pages, "frames": self.frames}


@dataclass(frozen=True)
class Sizes:
    pipeline: TraceShape
    protect: TraceShape
    checkpoint: TraceShape
    cli_min_samples: int   # at least ten CLI samples then lie beyond p90
    setup_repeats: int     # setup_s is the median of this many set-ups
    cli_repeats: int       # samples behind each per-layer CLI median


FULL = Sizes(
    pipeline=TraceShape(400_000, 16384, 1024, 0.25, 20.0, 300.0, 2000),
    protect=TraceShape(60_000, 16384, 1024, 0.25, 20.0, 300.0, 2000),
    checkpoint=TraceShape(40_000, 1024, 1024, 0.9, 0.5, 1.0, 6000, gap_every=2000, gap_s=1e5),
    cli_min_samples=108,
    setup_repeats=3,
    cli_repeats=5,
)

SMOKE = Sizes(
    pipeline=TraceShape(3000, 512, 64, 0.25, 20.0, 300.0, 300),
    protect=TraceShape(3000, 512, 64, 0.25, 20.0, 300.0, 300),
    checkpoint=TraceShape(2000, 64, 64, 0.9, 0.5, 1.0, 1300, gap_every=500, gap_s=1e3),
    cli_min_samples=6,
    setup_repeats=1,
    cli_repeats=1,
)


@dataclass(frozen=True)
class SimConfig:
    """One simulator run: base policy and protection/checkpoint regime."""
    policy: str
    regime: str
    n_s: float
    checkpoint_s: float | None

    @property
    def label(self) -> str:
        return f"{self.policy}.{self.regime}"

    def pool(self, frames: int) -> PoolConfig:
        return PoolConfig(frames, self.policy, self.n_s, self.checkpoint_s)


def sim_configs(regimes: dict[str, tuple[float, float | None]]) -> list[SimConfig]:
    return [SimConfig(policy, regime, n_s, cp_s)
            for policy in POLICIES for regime, (n_s, cp_s) in regimes.items()]


def pipeline_configs(shape: TraceShape) -> list[SimConfig]:
    return sim_configs({"n0": (0.0, shape.checkpoint_s), "n120": (120.0, shape.checkpoint_s)})


def protect_configs(shape: TraceShape) -> list[SimConfig]:
    return sim_configs({"nbe": (BREAK_EVEN_N, shape.checkpoint_s),
                        "nbig": (2000.0, shape.checkpoint_s)})


def checkpoint_configs(shape: TraceShape) -> list[SimConfig]:
    return sim_configs({"cp1": (0.0, shape.checkpoint_s)})


@dataclass
class Op:
    key: str                    # operations with one key must produce one output
    run: Callable[[], object]
    events: int                 # trace events simulated, or 1 per CLI invocation
    size: dict                  # input size, recorded with the result


class CliRunner:
    """Cold `python -m storage_rules.cli` subprocesses on the source tree."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True)

    def cli(self, *argv: str) -> subprocess.CompletedProcess:
        return self.python("-m", "storage_rules.cli", *argv)


def report_problem(report: SimReport, config: SimConfig, trace: list,
                   frames: int) -> str | None:
    """Invariants every report must meet, whatever the policy."""
    distinct = len({page for _, page, _ in trace})
    rules_broken = [
        (report.logical_accesses == len(trace), "logical accesses != trace events"),
        (report.physical_reads - report.evictions == min(frames, distinct),
         "physical reads - evictions != frames filled"),
        (distinct > frames or report.evictions == 0, "evictions from a pool holding every page"),
        (0 <= report.protected_eviction_fallbacks <= report.evictions, "fallbacks out of range"),
        (config.n_s > 0 or report.protected_eviction_fallbacks == 0, "fallbacks at N = 0"),
        (report.contention_flushes <= report.evictions, "more contention flushes than evictions"),
        (config.checkpoint_s is not None or report.checkpoint_flushes == 0,
         "checkpoint flushes with checkpoints off"),
        (report.hit_ratio == 1.0 - report.physical_reads / report.logical_accesses,
         "hit ratio disagrees with the counters"),
    ]
    for holds, message in rules_broken:
        if not holds:
            return f"{config.label}: {message}: {report}"
    return None


def trace_csv(trace: list) -> str:
    buf = io.StringIO()
    bufferpool.write_trace_csv(trace, buf)
    return buf.getvalue()


def round_trip_problem(trace: list) -> str | None:
    """A written trace must read back to the same events and the same bytes."""
    text = trace_csv(trace)
    back = bufferpool.read_trace_csv(io.StringIO(text))
    if [(t, str(page), op) for t, page, op in trace] != [tuple(ev) for ev in back]:
        return "events changed in a CSV write/read round trip"
    if trace_csv(back) != text:
        return "CSV bytes changed in a write/read/write round trip"
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    min_ops = 1
    # The CLI workloads run the program in child processes: their peak
    # memory is that of the largest child, not of this process.
    runs_in_children = False

    def __init__(self, seed: int, sizes: Sizes, root: Path, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.runner = CliRunner(root)

    def setup(self) -> None:
        """Build the inputs and capture expected outputs; run several times."""
        raise NotImplementedError

    def one_pass(self) -> list[Op]:
        raise NotImplementedError

    def verdict(self, key: str, output) -> str | None:
        """None when `output` of an operation with this key is right."""
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, Callable[[], str | None]]]:
        return []

    def close(self) -> None:
        """Remove the files the workload wrote."""


class TraceWorkload(Workload):
    """Shared by the simulator workloads: a seeded trace and oracle prefixes."""
    shape: TraceShape
    configs: list[SimConfig]

    def setup(self) -> None:
        self.trace = self.oracle = None  # free the previous set-up's trace first
        events = self.shape.events(self.seed)
        self.trace = self.shape.with_gaps(events, self.shape.gap_s)
        head = self.shape.oracle_prefix(events)
        del events
        self.oracle = {c.label: reference_sim.brute_force_simulate(
            head, self.shape.frames, c.policy, c.n_s, c.checkpoint_s) for c in self.configs}

    def config_of(self, key: str) -> SimConfig:
        return next(c for c in self.configs if f"simulate.{c.label}" == key)

    def final_checks(self):
        checks = [(f"check.{self.name}.round_trip", lambda: round_trip_problem(self.trace))]
        # simulate() sees the full idle gaps, the oracle the shortened ones.
        head = self.trace[:self.shape.oracle_events]
        for c in self.configs:
            def oracle_problem(c=c):
                fast = bufferpool.simulate(head, c.pool(self.shape.frames))
                slow = self.oracle[c.label]
                return None if fast == slow else f"{fast} != oracle {slow}"
            checks.append((f"check.{self.name}.oracle.{c.label}", oracle_problem))
        return checks


class PipelineZipf(TraceWorkload):
    """gen-trace -> CSV file -> simulate --format csv, all through the CLI."""
    name = "pipeline-zipf"
    runs_in_children = True

    def __init__(self, *args):
        super().__init__(*args)
        self.shape = self.sizes.pipeline
        self.configs = pipeline_configs(self.shape)
        self.csv_path = self.workdir / f"trace-{os.getpid()}.csv"
        self._reports: dict[str, tuple[str, str | None]] = {}

    def setup(self) -> None:
        super().setup()
        self.csv_digest = sha256(trace_csv(self.trace).encode())

    def close(self) -> None:
        self.csv_path.unlink(missing_ok=True)

    def _gen_trace(self):
        s = self.shape
        proc = self.runner.cli("gen-trace", "--seed", str(self.seed), "--ops", str(s.ops),
                               "--pages", str(s.pages), "--zipf-s", str(ZIPF_S),
                               "--write-fraction", str(s.write_fraction),
                               "--ops-per-second", str(s.ops_per_second),
                               "--out", str(self.csv_path))
        digest = sha256(self.csv_path.read_bytes()) if proc.returncode == 0 else None
        return proc.returncode, proc.stderr, digest

    def _simulate(self, c: SimConfig):
        proc = self.runner.cli("simulate", "--trace", str(self.csv_path),
                               "--frames", str(self.shape.frames), "--policy", c.policy,
                               "--n-seconds", repr(c.n_s), "--checkpoint", repr(c.checkpoint_s),
                               "--format", "csv")
        return proc.returncode, proc.stderr, proc.stdout

    def one_pass(self) -> list[Op]:
        size = self.shape.size()
        ops = [Op("gen-trace", self._gen_trace, 0, size)]
        ops += [Op(f"simulate.{c.label}", lambda c=c: self._simulate(c), self.shape.ops, size)
                for c in self.configs]
        return ops

    def verdict(self, key, output):
        code, stderr, result = output
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        if key == "gen-trace":
            return None if result == self.csv_digest else "trace CSV differs from write_trace_csv"
        if key not in self._reports:
            config = self.config_of(key)
            report = bufferpool.simulate(self.trace, config.pool(self.shape.frames))
            problem = report_problem(report, config, self.trace, self.shape.frames)
            self._reports[key] = (report.csv(), problem)
        expected, problem = self._reports[key]
        if problem is None and result != expected:
            problem = f"CLI report {result!r} != SimReport.csv() {expected!r}"
        return problem


class InProcessSim(TraceWorkload):
    """Repeated in-process `simulate()` calls over a trace built in set-up."""

    def __init__(self, *args):
        super().__init__(*args)
        self._first: dict[str, SimReport] = {}

    def one_pass(self) -> list[Op]:
        frames = self.shape.frames
        return [Op(f"simulate.{c.label}",
                   lambda c=c: bufferpool.simulate(self.trace, c.pool(frames)),
                   self.shape.ops, self.shape.size()) for c in self.configs]

    def verdict(self, key, output):
        problem = report_problem(output, self.config_of(key), self.trace, self.shape.frames)
        first = self._first.setdefault(key, output)
        if problem is None and output != first:
            problem = f"{key}: report changed between passes: {output} != {first}"
        return problem


class NSecondProtect(InProcessSim):
    name = "nsecond-protect"

    def __init__(self, *args):
        super().__init__(*args)
        self.shape = self.sizes.protect
        self.configs = protect_configs(self.shape)


class CheckpointWrites(InProcessSim):
    name = "checkpoint-writes"

    def __init__(self, *args):
        super().__init__(*args)
        self.shape = self.sizes.checkpoint
        self.configs = checkpoint_configs(self.shape)

    def final_checks(self):
        return super().final_checks() + [
            ("check.checkpoint-writes.policies_agree", self._policies_agree)]

    def _policies_agree(self):
        # With every page resident nothing is evicted, so LRU and Clock2
        # must count exactly the same.
        reports = {self._first.get(f"simulate.{p}.cp1") for p in POLICIES}
        return None if len(reports) == 1 else f"policies disagree: {reports}"


# Six analytic commands; the required flags are the ones the CLI tests use.
CLI_COMMANDS = {
    "presets": ["presets"],
    "breakeven": ["breakeven", "--device", "dell_tpcc_1997"],
    "seqrule": ["seqrule", "--curve", "--bandwidth-bps", str(10 * 2**20)],
    "sortplan": ["sortplan", "--file-bytes", "1e11", "--memory-bytes", "1e8"],
    "indexsize": ["indexsize", "--figure7"],
    "metrics": ["metrics", "--table8"],
}


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


class CliAnalytic(Workload):
    name = "cli-analytic"
    runs_in_children = True

    def __init__(self, *args):
        super().__init__(*args)
        self.min_ops = self.sizes.cli_min_samples
        self.order = list(CLI_COMMANDS)
        random.Random(self.seed).shuffle(self.order)

    def setup(self) -> None:
        self.expected = {name: cli_in_process(argv) for name, argv in CLI_COMMANDS.items()}
        # One cold invocation of each command warms the file cache.
        self.warm = {name: self._invoke(name) for name in self.order}

    def _invoke(self, name):
        proc = self.runner.cli(*CLI_COMMANDS[name])
        return proc.returncode, proc.stderr, proc.stdout

    def one_pass(self) -> list[Op]:
        return [Op(f"cli.{name}", lambda name=name: self._invoke(name), 1,
                   {"argv": CLI_COMMANDS[name]}) for name in self.order]

    def verdict(self, key, output):
        code, stderr, stdout = output
        expected_code, expected_out = self.expected[key.removeprefix("cli.")]
        if code != 0 or expected_code != 0:
            return f"exit {code} (in process: {expected_code}): {stderr.strip()[-200:]}"
        return None if stdout == expected_out else "subprocess output != in-process cli.main output"

    def final_checks(self):
        checks = [(f"check.cli-analytic.warm.{name}",
                   lambda name=name: self.verdict(f"cli.{name}", self.warm[name]))
                  for name in self.order]
        return checks + [("check.cli-analytic.breakeven_266.7", self._breakeven_problem)]

    def _breakeven_problem(self):
        _, text = self.expected["breakeven"]
        for line in text.splitlines():
            if line.startswith("break-even"):
                seconds = float(line.split(":", 1)[1].split()[0])
                return None if abs(seconds - 266.7) < 0.05 else f"break-even reads {seconds} s"
        return "no break-even line in the output"


WORKLOADS = {w.name: w for w in (PipelineZipf, NSecondProtect, CheckpointWrites, CliAnalytic)}
