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


class SequentialParams(namedtuple("SequentialParams", "transfer_bytes bandwidth_bps")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.transfer_bytes < math.inf and 0 < self.bandwidth_bps < math.inf):
            raise ValueError("SequentialParams fields must be finite and > 0")
        return self


# level: none | raid1 | raid5; the multipliers are cost factors on reads
# and on writes
class RaidAdjustment(namedtuple("RaidAdjustment", "level read_multiplier write_multiplier")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.level not in ("none", "raid1", "raid5"):
            raise ValueError(f"unknown RAID level {self.level!r}")
        if not (self.read_multiplier > 0 and self.write_multiplier > 0):
            raise ValueError("RAID multipliers must be > 0")
        return self


# Mirroring slightly cheapens reads and nearly doubles writes; parity
# RAID costs up to 4 IOs per logical write.  Levels are constructed per
# call so callers can tweak multipliers without touching shared state.
def raid_adjustment(level: str, read_multiplier: float | None = None,
                    write_multiplier: float | None = None) -> RaidAdjustment:
    defaults = {"none": (1.0, 1.0), "raid1": (0.9, 2.0), "raid5": (1.0, 4.0)}
    if level not in defaults:
        raise ValueError(f"unknown RAID level {level!r}; expected none, raid1 or raid5")
    dflt_r, dflt_w = defaults[level]
    return RaidAdjustment(level,
                          dflt_r if read_multiplier is None else read_multiplier,
                          dflt_w if write_multiplier is None else write_multiplier)


def technology_ratio(tp: TechnologyParams) -> float:
    """Pages per MB of RAM divided by device accesses per second."""
    return tp.pages_per_mb / tp.accesses_per_sec


def economic_ratio(ep: EconomicParams) -> float:
    """Device unit price divided by RAM price per MB."""
    return ep.device_price_dollars / ep.ram_price_per_mb


def break_even_interval(tp: TechnologyParams, ep: EconomicParams) -> BreakEvenResult:
    """Break-even re-reference interval: technology ratio x economic ratio."""
    tech = technology_ratio(tp)
    econ = economic_ratio(ep)
    return BreakEvenResult(tech, econ, tech * econ)


def derive_sequential_params(sp: SequentialParams) -> TechnologyParams:
    """Technology parameters for a device driven with large sequential transfers.

    A transfer unit of `transfer_bytes` packs 2**20/transfer_bytes pages
    into each (binary) MB of RAM and completes bandwidth/transfer_bytes
    transfers per second.
    """
    return TechnologyParams(
        pages_per_mb=BINARY_MB / sp.transfer_bytes,
        accesses_per_sec=sp.bandwidth_bps / sp.transfer_bytes,
    )


def sequential_break_even(sp: SequentialParams, ep: EconomicParams,
                          passes: str = "read_once") -> float:
    """Break-even interval for sequential access.

    passes="write_then_read" doubles the IO cost (the data is written out
    and read back), doubling the interval.
    """
    if passes not in ("read_once", "write_then_read"):
        raise ValueError(f"passes must be read_once or write_then_read, got {passes!r}")
    interval = break_even_interval(derive_sequential_params(sp), ep).interval_s
    return 2.0 * interval if passes == "write_then_read" else interval


def asymptotic_sequential_interval(bandwidth_bps: float, ep: EconomicParams) -> float:
    """Large-transfer limit of the break-even interval.

    As the transfer size grows the access cost degenerates to pure
    bandwidth and the technology ratio tends to 2**20/bandwidth; the
    interval tends to that times the economic ratio.
    """
    if not bandwidth_bps > 0:
        raise ValueError("bandwidth_bps must be > 0")
    return (BINARY_MB / bandwidth_bps) * economic_ratio(ep)


def apply_raid(tp: TechnologyParams, adj: RaidAdjustment,
               write_fraction: float) -> TechnologyParams:
    """Derate the access rate for RAID read/write cost multipliers.

    The effective cost of one logical access is the mix
    (1-f)*read_multiplier + f*write_multiplier, so the device sustains
    proportionally fewer logical accesses per second.
    """
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
    if adj.level == "none" and adj.read_multiplier == 1.0 and adj.write_multiplier == 1.0:
        return tp
    cost = (1.0 - write_fraction) * adj.read_multiplier + write_fraction * adj.write_multiplier
    return TechnologyParams(tp.pages_per_mb, tp.accesses_per_sec / cost)


def reference_interval_vs_page_size(latency_s: float, bandwidth_bps: float,
                                    ep: EconomicParams,
                                    page_sizes: list[float]) -> list[tuple[float, float]]:
    """Break-even interval as a function of page size, in input order.

    Each page size s yields 2**20/s pages per MB and
    1/(latency + s/bandwidth) accesses per second.  The series decreases
    strictly toward asymptotic_sequential_interval as s grows; the gap at
    size s is econ_ratio * 2**20 * latency / s.
    """
    if not page_sizes:
        raise ValueError("page_sizes must be non-empty")
    if not (latency_s >= 0 and bandwidth_bps > 0):
        raise ValueError("latency_s must be >= 0 and bandwidth_bps > 0")
    econ = economic_ratio(ep)
    series = []
    for s in page_sizes:
        if not s > 0:
            raise ValueError(f"page size must be > 0, got {s}")
        access_s = latency_s + s / bandwidth_bps
        series.append((s, (BINARY_MB / s) * access_s * econ))
    return series
