"""Break-even caching intervals and sequential-access rules.

The break-even reference interval is the re-reference time at which
renting RAM to cache a page costs exactly as much as fetching it from
the slower device on demand:

    interval_s = (pages_per_mb / accesses_per_sec)        # technology ratio
               * (device_price / ram_price_per_mb)        # economic ratio

Page counting here is binary (1 MB = 2**20 bytes): 8 KB pages give 128
pages/MB, and 64 KB transfers at 5 * 2**20 B/s give 80 transfers/s, the
figures this arithmetic is calibrated against.  Decimal-unit modules
(storage metrics) convert at their own boundary.

Everything in this module is a pure function over immutable inputs:
namedtuples that validate their fields when built.
"""
from __future__ import annotations

import math
from collections import namedtuple

BINARY_MB = float(2**20)


class TechnologyParams(namedtuple("TechnologyParams", "pages_per_mb accesses_per_sec")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.pages_per_mb < math.inf and 0 < self.accesses_per_sec < math.inf):
            raise ValueError("TechnologyParams fields must be finite and > 0")
        return self


class EconomicParams(namedtuple("EconomicParams", "device_price_dollars ram_price_per_mb")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.device_price_dollars < math.inf
                and 0 < self.ram_price_per_mb < math.inf):
            raise ValueError("EconomicParams fields must be finite and > 0")
        return self


BreakEvenResult = namedtuple("BreakEvenResult", "technology_ratio economic_ratio interval_s")


def technology_ratio(tp: TechnologyParams) -> float:
    """Pages per MB of RAM divided by device accesses per second."""
    return tp.pages_per_mb / tp.accesses_per_sec


def economic_ratio(ep: EconomicParams) -> float:
    """Device unit price divided by RAM price per MB."""
    return ep.device_price_dollars / ep.ram_price_per_mb


def break_even_interval(tp: TechnologyParams, ep: EconomicParams) -> BreakEvenResult:
    """Break-even re-reference interval: technology ratio x economic ratio.

    Every interval in this module comes from here, so this is the one
    check on a result: a product that overflows to inf or underflows to 0
    raises ValueError.
    """
    tech = technology_ratio(tp)
    econ = economic_ratio(ep)
    interval = tech * econ
    if not 0 < interval < math.inf:
        raise ValueError(f"the break-even interval, technology ratio {tech:.6g} x economic "
                         f"ratio {econ:.6g}, is not finite and > 0")
    return BreakEvenResult(tech, econ, interval)


def sequential_break_even(bandwidth_bps: float, ep: EconomicParams,
                          passes: str = "read_once") -> float:
    """Break-even interval for large sequential transfers.

    A transfer of s bytes packs 2**20/s transfers into each (binary) MB
    of RAM and completes bandwidth/s of them per second, so s cancels:
    the technology ratio is 2**20/bandwidth at any transfer size, the
    large-page limit of reference_interval_vs_page_size.

    passes="write_then_read" doubles the IO cost (the data is written out
    and read back), halving the transfer rate and doubling the interval.
    """
    if passes not in ("read_once", "write_then_read"):
        raise ValueError(f"passes must be read_once or write_then_read, got {passes!r}")
    ios = 2.0 if passes == "write_then_read" else 1.0
    return break_even_interval(TechnologyParams(BINARY_MB, bandwidth_bps / ios), ep).interval_s


# level -> (read, write) cost multipliers: mirroring slightly cheapens
# reads and doubles writes; parity RAID costs up to 4 IOs per logical write
_RAID_COSTS = {"raid1": (0.9, 2.0), "raid5": (1.0, 4.0)}


def apply_raid(tp: TechnologyParams, level: str, write_fraction: float,
               read_multiplier: float | None = None,
               write_multiplier: float | None = None) -> TechnologyParams:
    """Derate the access rate for a RAID level's read/write cost multipliers.

    The effective cost of one logical access is the mix
    (1-f)*read_multiplier + f*write_multiplier, so the device sustains
    proportionally fewer logical accesses per second.  A multiplier left
    None takes the level's default.
    """
    if level not in _RAID_COSTS:
        raise ValueError(f"unknown RAID level {level!r}; expected raid1 or raid5")
    read, write = _RAID_COSTS[level]
    read = read if read_multiplier is None else read_multiplier
    write = write if write_multiplier is None else write_multiplier
    if not (read > 0 and write > 0):
        raise ValueError("RAID multipliers must be > 0")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
    cost = (1.0 - write_fraction) * read + write_fraction * write
    return TechnologyParams(tp.pages_per_mb, tp.accesses_per_sec / cost)


def reference_interval_vs_page_size(latency_s: float, bandwidth_bps: float,
                                    ep: EconomicParams,
                                    page_sizes: list[float]) -> list[tuple[float, float]]:
    """Break-even interval as a function of page size, in input order.

    Each page size s yields 2**20/s pages per MB and
    1/(latency + s/bandwidth) accesses per second.  The series decreases
    strictly toward sequential_break_even as s grows; the gap at size s
    is econ_ratio * 2**20 * latency / s.
    """
    if not page_sizes:
        raise ValueError("page_sizes must be non-empty")
    if not (0 <= latency_s < math.inf and 0 < bandwidth_bps < math.inf):
        raise ValueError("latency_s must be finite and >= 0, bandwidth_bps finite and > 0")
    series = []
    for s in page_sizes:
        if not s > 0:
            raise ValueError(f"page size must be > 0, got {s}")
        tp = TechnologyParams(BINARY_MB / s, 1.0 / (latency_s + s / bandwidth_bps))
        series.append((s, break_even_interval(tp, ep).interval_s))
    return series
