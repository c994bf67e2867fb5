"""Index page sizing: utility, access cost, and the benefit/cost optimum.

A page holding E entries resolves log2(E) levels of a binary search per
fetch (its utility); fetching it costs latency + size/bandwidth.  The
benefit/cost ratio utility / cost peaks at the optimal page size.

Unit pairing: page sizes are binary (1 KB = 1024 bytes), disk bandwidth
is decimal (1 MB/s = 1e6 B/s).  Benefit/cost divides by the cost in
milliseconds; that is a display convention and cannot move the argmax.
Entries per page are real-valued, not floored: the reference grids only
reproduce to four decimals without flooring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class IndexParams:
    entry_bytes: float
    fill_factor: float = 0.7
    n_items: int | None = None

    def __post_init__(self):
        if not self.entry_bytes > 0:
            raise ValueError("entry_bytes must be > 0")
        if not 0.0 < self.fill_factor <= 1.0:
            raise ValueError("fill_factor must be in (0, 1]")
        if self.n_items is not None and self.n_items < 1:
            raise ValueError("n_items must be >= 1 when given")


@dataclass(frozen=True)
class PageCostModel:
    latency_s: float
    bandwidth_bps: float       # decimal: 10 MB/s = 1e7

    def __post_init__(self):
        if not (self.latency_s > 0 and self.bandwidth_bps > 0):
            raise ValueError("PageCostModel fields must be > 0")


@dataclass(frozen=True)
class PageEvaluation:
    page_bytes: float
    entries_per_page: float
    utility: float             # binary-tree levels resolved per fetch
    access_cost_s: float
    benefit_cost: float        # utility per millisecond of access cost


def entries_per_page(page_bytes: float, params: IndexParams) -> float:
    if not 0 < page_bytes < math.inf:  # also false for NaN
        raise ValueError("page_bytes must be finite and > 0")
    return params.fill_factor * page_bytes / params.entry_bytes


def page_utility(entries: float) -> float:
    """log2 of entries per page; defined for entries >= 1."""
    if entries < 1.0:
        raise ValueError(f"page_utility needs entries >= 1, got {entries:.6g}")
    return math.log2(entries)


def index_height(n_items: float, entries: float) -> float:
    """Tree height in pages for n_items: log2(N) / log2(entries per page)."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if entries <= 1.0:
        raise ValueError(f"degenerate fan-out: entries per page must exceed 1, got {entries:.6g}")
    return math.log2(n_items) / math.log2(entries)


def access_cost(page_bytes: float, model: PageCostModel) -> float:
    """Seconds to fetch one page: latency + transfer."""
    if not 0 < page_bytes < math.inf:  # also false for NaN
        raise ValueError("page_bytes must be finite and > 0")
    return model.latency_s + page_bytes / model.bandwidth_bps


def benefit_cost(page_bytes: float, params: IndexParams, model: PageCostModel) -> float:
    """Utility per millisecond of access cost."""
    return evaluate_page(page_bytes, params, model).benefit_cost


def evaluate_page(page_bytes: float, params: IndexParams,
                  model: PageCostModel) -> PageEvaluation:
    entries = entries_per_page(page_bytes, params)
    utility = page_utility(entries)
    cost = access_cost(page_bytes, model)
    ratio = utility / (cost * 1e3)
    if math.isnan(ratio):  # inf / inf
        raise ValueError(f"page_bytes={page_bytes:.6g}: entries per page and access cost "
                         "both overflow a float; benefit/cost is undefined")
    return PageEvaluation(page_bytes, entries, utility, cost, ratio)


def optimal_page_size(candidates: list[float], params: IndexParams,
                      model: PageCostModel) -> tuple[float, PageEvaluation]:
    """Candidate with the best benefit/cost; ties go to the smaller page."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    best: PageEvaluation | None = None
    for size in candidates:
        ev = evaluate_page(size, params, model)
        if (best is None or ev.benefit_cost > best.benefit_cost
                or (ev.benefit_cost == best.benefit_cost and ev.page_bytes < best.page_bytes)):
            best = ev
    return best.page_bytes, best


def evaluate_grid(page_sizes: list[float], axis: str, values: list[float],
                  params: IndexParams, model: PageCostModel) -> list[list[PageEvaluation]]:
    """Row-major grid of evaluations, one row per axis value.

    axis="entry_bytes" varies the entry size at a fixed cost model;
    axis="bandwidth_bps" varies disk bandwidth at a fixed entry size.
    """
    rows = []
    for v in values:
        if axis == "entry_bytes":
            p, m = replace(params, entry_bytes=v), model
        elif axis == "bandwidth_bps":
            p, m = params, replace(model, bandwidth_bps=v)
        else:
            raise ValueError(f"axis must be entry_bytes or bandwidth_bps, got {axis!r}")
        rows.append([evaluate_page(s, p, m) for s in page_sizes])
    return rows
