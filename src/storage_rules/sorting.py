"""External-sort memory planning: one-pass/two-pass choice and merge fan-in.

A two-pass sort cuts runs of roughly the memory size in pass one and
merges them in pass two.  The memory that balances run length against
run count is

    memory = c_buf * buffer + c_sqrt * sqrt(buffer * file)

with c_buf=6 and c_sqrt=3 by default (the constants depend on the sort
implementation).  The continuous formula is used throughout; run/merge
feasibility of a concrete plan is separate ceil/floor arithmetic.
"""
from __future__ import annotations

import math
from collections import namedtuple

DEFAULT_C_BUF = 6.0
DEFAULT_C_SQRT = 3.0
DEFAULT_ONE_PASS_THRESHOLD = 5e9  # bytes of file below which one pass wins


class PlanError(ValueError):
    """A sort plan that cannot be met in two passes.

    Carries the run count and merge fan-in that made this budget fall short.
    """

    def __init__(self, message: str, run_count: int, fan_in: int):
        self.run_count = run_count
        self.fan_in = fan_in
        super().__init__(message)


SortPlan = namedtuple("SortPlan", "passes run_count fan_in")  # passes is 1 or 2


def two_pass_memory(file_bytes: float, buffer_bytes: float,
                    c_buf: float = DEFAULT_C_BUF,
                    c_sqrt: float = DEFAULT_C_SQRT) -> float:
    """Memory for a two-pass sort of file_bytes with IO units of buffer_bytes."""
    if not 0 < buffer_bytes < math.inf:  # also false for NaN
        raise ValueError("buffer_bytes must be finite and > 0")
    if not 0 <= file_bytes < math.inf:
        raise ValueError("file_bytes must be finite and >= 0")
    if not (0 < c_buf < math.inf and 0 < c_sqrt < math.inf):
        raise ValueError("constants must be finite and > 0")
    return c_buf * buffer_bytes + c_sqrt * math.sqrt(buffer_bytes * file_bytes)


def max_two_pass_file(memory_bytes: float, buffer_bytes: float,
                      c_buf: float = DEFAULT_C_BUF,
                      c_sqrt: float = DEFAULT_C_SQRT) -> float:
    """Largest file the given memory sorts in two passes (two_pass_memory inverted)."""
    if not 0 < buffer_bytes < math.inf:  # also false for NaN
        raise ValueError("buffer_bytes must be finite and > 0")
    if not memory_bytes < math.inf:  # also true for NaN
        raise ValueError("memory_bytes must be finite")
    if not (0 < c_buf < math.inf and 0 < c_sqrt < math.inf):
        raise ValueError("constants must be finite and > 0")
    headroom = memory_bytes - c_buf * buffer_bytes
    if headroom <= 0:
        raise ValueError(
            f"insufficient memory for any two-pass sort: need more than "
            f"{c_buf:g} x {buffer_bytes:g} = {c_buf * buffer_bytes:g} bytes")
    root = headroom / c_sqrt  # root * root overflows to inf; root ** 2 raises
    return root * root / buffer_bytes


def _ceil_div(a, b) -> int:
    if isinstance(a, int) and isinstance(b, int):
        return -(-a // b)
    return math.ceil(a / b)


def run_merge_plan(file_bytes, memory_bytes, buffer_bytes) -> SortPlan:
    """Plan runs and merge fan-in for a concrete memory budget.

    Pass one cuts ceil(file/memory) runs; pass two merges up to
    floor(memory/buffer) of them.  More runs than fan-in means the sort
    needs a third pass, which is out of plan.
    """
    if not 0 < buffer_bytes < math.inf:  # also false for NaN
        raise ValueError("buffer_bytes must be finite and > 0")
    if not buffer_bytes <= memory_bytes < math.inf:
        raise ValueError("memory_bytes must be finite and at least buffer_bytes")
    if not 0 <= file_bytes < math.inf:
        raise ValueError("file_bytes must be finite and >= 0")
    fan_in = int(memory_bytes // buffer_bytes)
    if file_bytes <= memory_bytes:
        return SortPlan(passes=1, run_count=1, fan_in=fan_in)
    run_count = _ceil_div(file_bytes, memory_bytes)
    if run_count > fan_in:
        raise PlanError(f"needs more than two passes: {run_count} runs exceed fan-in {fan_in}",
                        run_count=run_count, fan_in=fan_in)
    return SortPlan(passes=2, run_count=run_count, fan_in=fan_in)


def choose_pass_count(file_bytes: float,
                      one_pass_threshold_bytes: float = DEFAULT_ONE_PASS_THRESHOLD) -> int:
    """One pass up to the threshold (inclusive), two passes beyond."""
    if not one_pass_threshold_bytes > 0:
        raise ValueError("one_pass_threshold_bytes must be > 0")
    return 1 if file_bytes <= one_pass_threshold_bytes else 2
