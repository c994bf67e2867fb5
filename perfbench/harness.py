"""Operation runner for the benchmark: time limits, failure counting, spans.

Every call the benchmark makes into the program goes through
`Harness.guard`, which bounds it by a per-operation time limit and by the
run's deadline, so a regression that hangs (an ``inf`` trace time under
checkpoints loops forever) costs one failed operation, not the run.
"""
from __future__ import annotations

import json
import signal
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

OP_TIMEOUT_S = 60.0


class OpTimeout(Exception):
    """An operation ran past its time limit or the run's deadline."""


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once `seconds` have passed.

    SIGALRM interrupts pure-Python loops and blocking waits alike; a
    subprocess being waited on is killed by `subprocess.run` when the
    exception passes through it.
    """
    if seconds <= 0:
        raise OpTimeout("run deadline passed before the operation started")

    def _expire(signum, frame):
        raise OpTimeout(f"operation exceeded its {seconds:.1f} s limit")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tracer:
    """Spans kept in memory and written out once, at the end of the run.

    A span is (name, start, end, parent index); spans of one run share
    the run id.  When disabled, `span` records nothing.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


class Harness:
    """Runs operations under time limits and counts attempts and failures."""

    def __init__(self, deadline: float, tracer: Tracer):
        self.deadline = deadline
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def guard(self, name: str, fn):
        """Run fn() in a span and under the time limit.

        Returns (output, seconds, problem); problem is None unless fn
        raised or ran out of time.  Counts nothing: see `record`.
        """
        start = time.perf_counter()
        output = problem = None
        try:
            limit = min(OP_TIMEOUT_S, self.deadline - time.perf_counter())
            with self.tracer.span(name), time_limit(limit):
                output = fn()
        except OpTimeout as err:
            problem = str(err)
        except Exception:  # a failing operation must not end the run
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return output, time.perf_counter() - start, problem

    def record(self, name: str, problem: str | None) -> None:
        """Count one attempted operation, failed unless problem is None."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{name}: {problem}")

    def check(self, name: str, verdict) -> str | None:
        """Run and count one check; verdict() returns None when all is right."""
        found, _, problem = self.guard(name, verdict)
        problem = problem or found
        self.record(name, problem)
        return problem
